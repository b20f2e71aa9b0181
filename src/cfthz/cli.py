"""Command-line front end: config loading, experiment subcommands, and
machine-readable CSV/JSON output.

Config files are flat `key = value` text with dotted namespaces (see
DEFAULTS for the full key set); unknown keys are rejected, missing keys
take the built-in simulation defaults. dBm/Hz entries are converted to
linear W/Hz at load time. All emitted numbers are SI (Hz, W/Hz, bit/s).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, alloc, phy, selection, sim
from .alloc import CEConfig
from .phy import AntennaConfig, dbm_per_hz_to_w_per_hz
from .sim import ScenarioConfig


class ConfigError(ValueError):
    """A config entry failed to parse or violated an invariant."""


DEFAULTS = {
    "n_aps": 20,
    "n_sel": 2,
    "radius_m": 50.0,
    "d_min_m": 0.5,
    "angle_guard_rad": 0.01,
    "f_co_hz": 100e9,
    "f_upper_hz": 300e9,
    "b_total_hz": 16e9,
    "p_total_w": 1.0,
    "noise_psd_dbm_hz": -168.0,
    "gamma_th_dbm_hz": -174.5,
    "eps_db": 0.5,
    "trials": 200,
    "seed": 1234,
    "schemes": ",".join(sim.ALL_SCHEMES),
    "antenna.atten_per_m": 130.0,
    "antenna.aperture_m": 0.09,
    "antenna.efficiency": 1.0,
    "antenna.gain_exponent": 1,
    "antenna.plate_sep_m": "",
    "ce.n_sub": 40,
    "ce.samples": 100,
    "ce.elites": 10,
    "ce.smooth_mean": 0.8,
    "ce.smooth_var": 0.7,
    "ce.smooth_power": 5.0,
    "ce.max_iter": 30,
    "ce.step_hz": 10e6,
}

_INT_KEYS = {
    "n_aps", "n_sel", "trials", "seed", "antenna.gain_exponent",
    "ce.n_sub", "ce.samples", "ce.elites", "ce.max_iter",
}
_STR_KEYS = {"schemes", "antenna.plate_sep_m"}


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
    if key in _STR_KEYS:
        return str(value)
    try:
        if key in _INT_KEYS:
            return int(str(value))
        return float(str(value))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc


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
    vals = {k: _coerce(k, v) for k, v in entries.items()}

    plate_sep = vals["antenna.plate_sep_m"].strip()
    try:
        antenna = AntennaConfig(
            f_co=vals["f_co_hz"],
            atten=vals["antenna.atten_per_m"],
            aperture=vals["antenna.aperture_m"],
            efficiency=vals["antenna.efficiency"],
            gain_exponent=vals["antenna.gain_exponent"],
            plate_sep=float(plate_sep) if plate_sep else None,
        )
        ce = CEConfig(
            n_sub=vals["ce.n_sub"],
            samples=vals["ce.samples"],
            elites=vals["ce.elites"],
            smooth_mean=vals["ce.smooth_mean"],
            smooth_var=vals["ce.smooth_var"],
            smooth_power=vals["ce.smooth_power"],
            max_iter=vals["ce.max_iter"],
            step=vals["ce.step_hz"],
        )
        schemes = tuple(s.strip() for s in vals["schemes"].split(",") if s.strip())
        cfg = ScenarioConfig(
            n_aps=vals["n_aps"],
            n_sel=vals["n_sel"],
            radius=vals["radius_m"],
            d_min=vals["d_min_m"],
            angle_guard=vals["angle_guard_rad"],
            f_co=vals["f_co_hz"],
            f_upper=vals["f_upper_hz"],
            b_total=vals["b_total_hz"],
            p_total=vals["p_total_w"],
            noise_psd=dbm_per_hz_to_w_per_hz(vals["noise_psd_dbm_hz"]),
            gamma_th=dbm_per_hz_to_w_per_hz(vals["gamma_th_dbm_hz"]),
            eps_db=vals["eps_db"],
            trials=vals["trials"],
            seed=vals["seed"],
            schemes=schemes,
            antenna=antenna,
            ce=ce,
        )
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep_{axis}.csv"
    failures = []
    rows = []
    for value in values:
        try:
            result = sim.monte_carlo(cfg, axis, [value], threads=threads)
            rows.extend(result.rows)
        except ValueError as exc:
            failures.append((value, f"{type(exc).__name__}: {exc}"))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "axis_value", "scheme", "mean_rate_bps", "stderr_bps",
             "mean_active_aps", "trials"]
        )
        for row in rows:
            writer.writerow(
                [row.axis, _fmt(row.axis_value), row.scheme, _fmt(row.mean_rate),
                 _fmt(row.stderr_rate), _fmt(row.mean_active_aps), row.trials]
            )
    write_manifest(out_dir / "manifest.json", entries, cfg.seed, [csv_path])
    for value, msg in failures:
        print(f"simulate: axis value {value} failed: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_gain(cfg, thetas, f_start, f_stop, f_count, out):
    """Dump the antenna-gain surface (theta, f, gain) as CSV."""
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aps = read_scenario_file(scenario_file)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0, sim._STREAM_CE]))
    mask = sim._build_mask(scheme, aps, cfg)
    grid = alloc.GridRss(sim._grid_rss(mask, aps, cfg), cfg.band, cfg.ce.step)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)
    try:
        cfg, entries = load_config(args.config, overrides)
        if args.command == "simulate":
            values = [float(v) for v in args.values.split(",")]
            return cmd_simulate(cfg, entries, args.axis, values, args.out,
                                threads=args.threads)
        if args.command == "allocate":
            return cmd_allocate(cfg, entries, args.scenario, args.scheme, args.out)
        if args.command == "gain":
            thetas = [float(v) for v in args.thetas.split(",")]
            out = Path(args.out)
            if out.is_dir() or not out.suffix:
                out.mkdir(parents=True, exist_ok=True)
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
