"""Command-line front end: config loading, experiment subcommands, and
machine-readable CSV/JSON output.

Config files are flat `key = value` text. A key is the dotted path of a
`ScenarioConfig` field, or its unit-suffixed name in `_UNIT_KEYS`; keys
and defaults come from the dataclasses (see DEFAULTS). Unknown keys are
rejected, missing keys take the defaults. dBm/Hz entries are converted to
linear W/Hz at load time. All emitted numbers are SI (Hz, W/Hz, bit/s).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, alloc, phy, selection, sim
from .alloc import CEConfig
from .phy import AntennaConfig, dbm_per_hz_to_w_per_hz, w_per_hz_to_dbm_per_hz
from .sim import ScenarioConfig


class ConfigError(ValueError):
    """A config entry failed to parse or violated an invariant."""


# Config keys whose name carries a unit, and the field path each one sets.
_UNIT_KEYS = {
    "radius_m": "radius", "d_min_m": "d_min", "angle_guard_rad": "angle_guard",
    "f_co_hz": "f_co", "f_upper_hz": "f_upper", "b_total_hz": "b_total",
    "p_total_w": "p_total", "noise_psd_dbm_hz": "noise_psd", "gamma_th_dbm_hz": "gamma_th",
    "antenna.atten_per_m": "antenna.atten", "antenna.aperture_m": "antenna.aperture",
    "ce.step_hz": "ce.step",
}
_KEY_OF_FIELD = {path: key for key, path in _UNIT_KEYS.items()}
_PSD_FIELDS = {"noise_psd", "gamma_th"}  # W/Hz fields written in dBm/Hz


def _field_paths(obj, prefix=""):
    """(dotted path, value) of every leaf field of a config dataclass; the
    antenna's f_co is the scenario's f_co and has no key of its own."""
    for f in fields(obj):
        path, value = prefix + f.name, getattr(obj, f.name)
        if is_dataclass(value):
            yield from _field_paths(value, path + ".")
        elif path != "antenna.f_co":
            yield path, value


def _to_entry(path, value):
    """A field value as its config entry."""
    if path in _PSD_FIELDS:
        return float(w_per_hz_to_dbm_per_hz(value))
    if path == "schemes":
        return ",".join(value)
    return value


DEFAULTS = {
    _KEY_OF_FIELD.get(path, path): _to_entry(path, value)
    for path, value in _field_paths(ScenarioConfig())
}


def parse_config_file(path):
    """Read a flat key=value document; '#' starts a comment."""
    entries = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


def _coerce(key, value):
    """Parse an entry as the type of its key's default, then convert it to
    the value of the field the key sets."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown key {key!r}")
    path = _UNIT_KEYS.get(key, key)
    try:
        typed = type(DEFAULTS[key])(str(value))
        if path in _PSD_FIELDS:
            return dbm_per_hz_to_w_per_hz(typed)
        if path == "schemes":
            return tuple(s.strip() for s in typed.split(",") if s.strip())
        return typed
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc


def _kwargs(values, prefix):
    """The entries of a {field path: value} map that are direct fields of the
    config at `prefix`, keyed by field name."""
    n = len(prefix)
    return {p[n:]: v for p, v in values.items() if p.startswith(prefix) and "." not in p[n:]}


def config_digest(entries):
    """SHA-256 over the canonical sorted key=value lines; stable under key
    reordering of the source file."""
    canon = "\n".join(f"{k}={entries[k]}" for k in sorted(entries))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path=None, overrides=None):
    """Build a ScenarioConfig from a config file (or pure defaults).

    Returns (config, effective key-value mapping used for the digest).
    """
    entries = dict(DEFAULTS)
    if path is not None:
        entries.update(parse_config_file(path))
    entries.update(overrides or {})
    vals = {_UNIT_KEYS.get(k, k): _coerce(k, v) for k, v in entries.items()}
    try:
        antenna = AntennaConfig(f_co=vals["f_co"], **_kwargs(vals, "antenna."))
        ce = CEConfig(**_kwargs(vals, "ce."))
        cfg = ScenarioConfig(antenna=antenna, ce=ce, **_kwargs(vals, ""))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, entries


def _fmt(x):
    """Locale-independent shortest round-trip formatting."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_manifest(path, entries, seed, outputs):
    manifest = {
        "config_digest": config_digest(entries),
        "seed": seed,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_simulate(cfg, entries, axis, values, out_dir, threads=1):
    """Run the sweep and write one CSV row per (axis value, scheme)."""
    try:
        for value in values:
            sim._with_axis_value(cfg, axis, value)
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    result = sim.monte_carlo(cfg, axis, values, threads=threads)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep_{axis}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "axis_value", "scheme", "mean_rate_bps", "stderr_bps",
             "mean_active_aps", "trials"]
        )
        for row in result.rows:
            writer.writerow(
                [row.axis, _fmt(row.axis_value), row.scheme, _fmt(row.mean_rate),
                 _fmt(row.stderr_rate), _fmt(row.mean_active_aps), row.trials]
            )
    write_manifest(out_dir / "manifest.json", entries, cfg.seed, [csv_path])
    return 0


def cmd_gain(cfg, thetas, f_start, f_stop, f_count, out):
    """Dump the antenna-gain surface (theta, f, gain) as CSV."""
    if f_count < 1:
        raise ConfigError(f"--f-count must be >= 1, got {f_count}")
    if not (math.isfinite(f_start) and math.isfinite(f_stop) and f_start <= f_stop):
        raise ConfigError(f"need finite --f-start <= --f-stop, got {f_start} and {f_stop}")
    for theta in thetas:
        if not 0 < theta < np.pi / 2:
            raise ConfigError(f"--thetas must lie in (0, pi/2), got {theta}")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    freqs = np.linspace(f_start, f_stop, f_count)
    in_band = freqs >= cfg.f_co
    skipped = int((~in_band).sum()) * len(thetas)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_rad", "f_hz", "gain"])
        for theta in thetas:
            gains = phy.antenna_gain(freqs[in_band], theta, cfg.antenna)
            for f, g in zip(freqs[in_band], np.atleast_1d(gains)):
                writer.writerow([_fmt(float(theta)), _fmt(float(f)), _fmt(float(g))])
    if skipped:
        print(f"gain: skipped {skipped} below-cutoff rows", file=sys.stderr)
    return 0


def read_scenario_file(path):
    """Parse 'distance_m,theta_rad' rows into AccessPoints."""
    aps = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body or body.lower().startswith("distance"):
            continue
        parts = [p.strip() for p in body.split(",")]
        try:
            if len(parts) != 2:
                raise ValueError("expected two comma-separated fields")
            d, theta = float(parts[0]), float(parts[1])
            aps.append(selection.AccessPoint(len(aps), d, theta))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad scenario row: {exc}") from exc
    if not aps:
        raise ConfigError(f"{path}: no scenario rows")
    return aps


def cmd_allocate(cfg, entries, scenario_file, scheme, out_dir):
    """CE subchannel allocation for one fixed scenario; emits the final
    plan, the best-ever incumbent, and the objective trace."""
    aps = read_scenario_file(scenario_file)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = sim.substream(cfg.seed, 0, 0, "ce")
    _, rss = sim.scheme_rss([scheme], aps, cfg)[scheme]
    grid = alloc.GridRss(rss, cfg.band, cfg.ce.step)
    result = alloc.ce_optimize(
        grid, cfg.ce, rng,
        eps_db=cfg.eps_db, total_budget=cfg.b_total, noise_psd=cfg.noise_psd,
    )
    plan_path = out_dir / "plan.json"
    trace_path = out_dir / "trace.csv"
    payload = {
        "scheme": scheme,
        "final_plan": alloc.plan_records(result.plan, grid, cfg.noise_psd),
        "final_rate_bps": result.plan_value,
        "incumbent_plan": alloc.plan_records(result.incumbent_plan, grid, cfg.noise_psd),
        "incumbent_rate_bps": result.incumbent_value,
    }
    plan_path.write_text(json.dumps(payload, indent=2) + "\n")
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_rate_bps", "incumbent_rate_bps"])
        for t in range(len(result.best_per_iter)):
            writer.writerow(
                [t, _fmt(float(result.best_per_iter[t])),
                 _fmt(float(result.incumbent_trace[t]))]
            )
        writer.writerow(
            ["final", _fmt(float(result.plan_value)), _fmt(float(result.incumbent_value))]
        )
    write_manifest(out_dir / "manifest.json", entries, cfg.seed, [plan_path, trace_path])
    return 0


def cmd_trial(cfg, entries, out_dir):
    """One scenario draw, every configured scheme, JSON result."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cell = sim._trial_cell(cfg, 0, 0)
    payload = {
        scheme: {
            "plan_rate_bps": res.plan_rate,
            "integrated_rate_bps": res.integrated_rate,
            "active_aps": res.active_aps,
            "incumbent_rate_bps": res.incumbent_value,
            "scenario_digest": res.scenario_digest,
        }
        for scheme, res in cell.items()
    }
    out_path = out_dir / "trial.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(out_dir / "manifest.json", entries, cfg.seed, [out_path])
    return 0


def _add_common(p):
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="worker cap (results unchanged)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfthz", description="Cell-free THz leaky-wave downlink simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo sweep over N or B_total")
    _add_common(p_sim)
    p_sim.add_argument("--axis", choices=["n_aps", "b_total"], required=True)
    p_sim.add_argument("--values", required=True,
                       help="comma-separated axis values (SI units)")

    p_alloc = sub.add_parser("allocate", help="CE allocation for a fixed scenario")
    _add_common(p_alloc)
    p_alloc.add_argument("--scenario", required=True,
                         help="CSV of distance_m,theta_rad rows")
    p_alloc.add_argument("--scheme", choices=sim.CE_SCHEMES, default="mrt")

    p_gain = sub.add_parser("gain", help="antenna gain table over (theta, f)")
    _add_common(p_gain)
    p_gain.add_argument("--thetas", required=True,
                        help="comma-separated angles in radians")
    p_gain.add_argument("--f-start", type=float, required=True)
    p_gain.add_argument("--f-stop", type=float, required=True)
    p_gain.add_argument("--f-count", type=int, default=1000)

    p_trial = sub.add_parser("trial", help="run one trial across all schemes")
    _add_common(p_trial)
    return parser


def _floats(option, text):
    """A comma-separated option value as a list of floats."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{option}: cannot parse {text!r}") from exc


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg, entries = load_config(args.config, overrides)
        if args.command == "simulate":
            values = _floats("--values", args.values)
            return cmd_simulate(cfg, entries, args.axis, values, args.out,
                                threads=args.threads)
        if args.command == "allocate":
            return cmd_allocate(cfg, entries, args.scenario, args.scheme, args.out)
        if args.command == "gain":
            thetas = _floats("--thetas", args.thetas)
            out = Path(args.out)
            if out.is_dir() or not out.suffix:
                out = out / "gain.csv"
            return cmd_gain(cfg, thetas, args.f_start, args.f_stop, args.f_count, out)
        if args.command == "trial":
            return cmd_trial(cfg, entries, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
