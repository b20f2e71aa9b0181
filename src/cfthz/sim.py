"""Scenario generation, baselines, and Monte Carlo sweeps.

A scenario is a random drop of N access points around one UE, each AP
described only by its distance and line-of-sight angle. Trials are fully
deterministic given (config, seed): every trial owns RNG substreams derived
from (seed, axis index, trial index), and all schemes within a trial share
the same cross-entropy stream so per-trial comparisons are paired.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import alloc, selection
from .alloc import CEConfig, GridRss
from .phy import AntennaConfig, dbm_per_hz_to_w_per_hz, require_finite_fields
from .selection import AccessPoint

CE_SCHEMES = ("mrt", "best_nsel", "best_per_subchannel", "nearest")
BASELINE_SCHEMES = ("equal_mrt", "colocated")
ALL_SCHEMES = CE_SCHEMES + BASELINE_SCHEMES

# substream tag of each named stream within one (seed, axis, trial) cell
_STREAMS = {"scenario": 0, "ce": 1, "colocated": 2}


@dataclass
class ScenarioConfig:
    """Full experiment configuration with simulation-parameter defaults."""

    n_aps: int = 20
    n_sel: int = 2
    radius: float = 50.0  # m
    d_min: float = 0.5  # m, keeps free-space loss finite
    angle_guard: float = 0.01  # rad, keeps theta off both interval ends
    f_co: float = 100e9
    f_upper: float = 300e9
    b_total: float = 16e9
    p_total: float = 1.0  # W, PSD p = p_total / b_total
    noise_psd: float = dbm_per_hz_to_w_per_hz(-168.0)
    gamma_th: float = dbm_per_hz_to_w_per_hz(-174.5)
    eps_db: float = 0.5
    trials: int = 200
    seed: int = 1234
    schemes: tuple = ALL_SCHEMES
    antenna: AntennaConfig | None = None
    ce: CEConfig = field(default_factory=CEConfig)

    def __post_init__(self):
        require_finite_fields(self)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_aps < 1:
            raise ValueError(f"n_aps must be >= 1, got {self.n_aps}")
        if self.n_sel < 1:
            raise ValueError(f"n_sel must be >= 1, got {self.n_sel}")
        if not 0 < self.angle_guard < np.pi / 4:
            raise ValueError(f"angle_guard must be in (0, pi/4), got {self.angle_guard}")
        if self.eps_db < 0:
            raise ValueError(f"eps_db must be >= 0, got {self.eps_db}")
        if self.noise_psd <= 0:
            raise ValueError(f"noise_psd must be > 0, got {self.noise_psd}")
        if self.d_min <= 0:
            raise ValueError("d_min must be > 0")
        if self.radius <= self.d_min:
            raise ValueError("radius must exceed d_min")
        if self.f_upper <= self.f_co:
            raise ValueError("f_upper must exceed f_co")
        if self.p_total <= 0:
            raise ValueError("p_total must be > 0")
        if self.b_total <= 0:
            raise ValueError("b_total must be > 0")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if "equal_mrt" in self.schemes:
            spacing = (self.f_upper - self.f_co) / self.ce.n_sub
            width = self.b_total / self.ce.n_sub
            if width > spacing:
                raise ValueError(
                    f"b_total: the equal_mrt plan overlaps: width {width:.3e} "
                    f"exceeds spacing {spacing:.3e}"
                )
        if self.antenna is None:
            self.antenna = AntennaConfig(f_co=self.f_co)
        elif self.antenna.f_co != self.f_co:
            raise ValueError(
                f"antenna.f_co {self.antenna.f_co} != config f_co {self.f_co}"
            )

    @property
    def p(self):
        """Per-AP transmit PSD in W/Hz."""
        return self.p_total / self.b_total

    @property
    def band(self):
        return (self.f_co, self.f_upper)


@dataclass
class TrialResult:
    scheme: str
    plan_rate: float  # bit/s, center-RSS objective of the emitted plan
    integrated_rate: float  # bit/s, trapezoidal spectral integral
    active_aps: int
    plan: alloc.SubchannelPlan
    incumbent_value: float
    scenario_digest: str


@dataclass
class SweepRow:
    axis: str
    axis_value: float
    scheme: str
    mean_rate: float
    stderr_rate: float
    mean_active_aps: float
    trials: int


@dataclass
class SweepResult:
    axis: str
    rows: list


def generate_scenario(rng, cfg: ScenarioConfig):
    """Drop n_aps APs: d ~ U(d_min, radius), theta ~ U(guard, pi/2-guard)."""
    d = rng.uniform(cfg.d_min, cfg.radius, cfg.n_aps)
    theta = rng.uniform(cfg.angle_guard, np.pi / 2 - cfg.angle_guard, cfg.n_aps)
    return [AccessPoint(i, d[i], theta[i]) for i in range(cfg.n_aps)]


def scenario_digest(aps):
    geom = np.array([[ap.distance, ap.angle] for ap in aps])
    return hashlib.sha256(geom.tobytes()).hexdigest()[:16]


def _build_mask(scheme, aps, cfg):
    """(ids of the APs that transmit, combining rule) of a selection scheme:
    the best AP per subchannel is every AP, max-combined."""
    if scheme == "mrt":
        return selection.select_mrt(aps), np.add
    if scheme == "best_nsel":
        n_sel = min(cfg.n_sel, len(aps))
        return selection.select_best_nsel(aps, n_sel, cfg.p, cfg.antenna, cfg.f_upper), np.add
    if scheme == "best_per_subchannel":
        return selection.select_mrt(aps), np.maximum
    if scheme == "nearest":
        return selection.select_nearest(aps), np.add
    raise ValueError(f"not a selection scheme: {scheme}")


def _active_count(scheme, ids, aps, cfg, plan):
    if scheme != "best_per_subchannel":
        return len(ids)
    live = np.array([ch.center for ch in plan.channels if ch.width > 0])
    return np.unique(selection.select_best_at(aps, live, cfg.p, cfg.antenna)).size


def scheme_rss(schemes, aps, cfg: ScenarioConfig):
    """{scheme: (ids, combined RSS on the band grid)} of each selection
    scheme in `schemes`, from one link pass over `aps`."""
    selections = {s: _build_mask(s, aps, cfg) for s in dict.fromkeys(schemes)}
    rows = selection.combined_rss_rows(
        list(selections.values()), aps, alloc.grid_freqs(cfg.band, cfg.ce.step),
        cfg.p, cfg.antenna, cfg.gamma_th,
    )
    return {s: (ids, row) for (s, (ids, _)), row in zip(selections.items(), rows)}


def run_trial(aps, scheme, cfg: ScenarioConfig, rng, ids_rss) -> TrialResult:
    """Optimize the subchannel plan with the CE allocator on the scheme's
    combined RSS, and record both rate metrics plus the active-AP count.

    `ids_rss` is the scheme's (ids, RSS on the band grid) pair, as
    `scheme_rss` returns it.
    """
    ids, rss = ids_rss
    grid = GridRss(rss, cfg.band, cfg.ce.step)
    result = alloc.ce_optimize(
        grid, cfg.ce, rng, eps_db=cfg.eps_db, total_budget=cfg.b_total, noise_psd=cfg.noise_psd
    )
    return TrialResult(
        scheme=scheme,
        plan_rate=result.plan_value,
        integrated_rate=alloc.integrated_rate(
            result.plan, grid, cfg.noise_psd, cfg.ce.step
        ),
        active_aps=_active_count(scheme, ids, aps, cfg, result.plan),
        plan=result.plan,
        incumbent_value=result.incumbent_value,
        scenario_digest=scenario_digest(aps),
    )


def equal_allocation_trial(aps, cfg: ScenarioConfig, mrt_rss) -> TrialResult:
    """MRT over all APs with n_sub equal-width, evenly spaced subchannels.

    Rated by the integrated metric: the equal plan ignores the flatness
    constraint, so the center-RSS objective would overstate its rate.
    `mrt_rss` is the MRT RSS on the band grid. A config that lists
    equal_mrt has a budget whose equal plan does not overlap.
    """
    n_sub = cfg.ce.n_sub
    spacing = (cfg.f_upper - cfg.f_co) / n_sub
    width = cfg.b_total / n_sub
    grid = GridRss(mrt_rss, cfg.band, cfg.ce.step)
    centers = cfg.f_co + (np.arange(1, n_sub + 1) - 0.5) * spacing
    channels = tuple(alloc.Subchannel(c, width) for c in centers)
    plan = alloc.SubchannelPlan(channels, cfg.b_total)
    irate = alloc.integrated_rate(plan, grid, cfg.noise_psd, cfg.ce.step)
    return TrialResult(
        scheme="equal_mrt",
        plan_rate=alloc.plan_rate(plan, grid, cfg.noise_psd),
        integrated_rate=irate,
        active_aps=len(aps),
        plan=plan,
        incumbent_value=irate,
        scenario_digest=scenario_digest(aps),
    )


def colocated_trial(draw_rng, ce_rng, cfg: ScenarioConfig) -> TrialResult:
    """All n_aps antennas share one random site: a single (d, theta) draw,
    MRT combining (N identical links), then the usual CE allocation."""
    d = draw_rng.uniform(cfg.d_min, cfg.radius)
    theta = draw_rng.uniform(cfg.angle_guard, np.pi / 2 - cfg.angle_guard)
    aps = [AccessPoint(i, d, theta) for i in range(cfg.n_aps)]
    result = run_trial(aps, "mrt", cfg, ce_rng, scheme_rss(["mrt"], aps, cfg)["mrt"])
    return replace(result, scheme="colocated")


def _headline_rate(result: TrialResult) -> float:
    # equal_mrt is rated by the integral; everything else by the objective
    return result.integrated_rate if result.scheme == "equal_mrt" else result.plan_rate


def substream(seed, axis_idx, trial_idx, stream):
    """The generator of one named stream ('scenario', 'ce' or 'colocated')
    of the (seed, axis index, trial index) cell."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, axis_idx, trial_idx, _STREAMS[stream]])
    )


def _trial_cell(cfg: ScenarioConfig, axis_idx: int, trial_idx: int):
    """All configured schemes on one shared scenario and CE stream."""

    def rng_for(stream):
        return substream(cfg.seed, axis_idx, trial_idx, stream)

    aps = generate_scenario(rng_for("scenario"), cfg)
    # one link pass serves every scheme on this scenario; equal_mrt reuses
    # the mrt row, and colocated draws its own site
    shared = scheme_rss(
        ("mrt" if s == "equal_mrt" else s for s in cfg.schemes if s != "colocated"), aps, cfg
    )
    out = {}
    for scheme in cfg.schemes:
        if scheme == "equal_mrt":
            out[scheme] = equal_allocation_trial(aps, cfg, shared["mrt"][1])
        elif scheme == "colocated":
            out[scheme] = colocated_trial(rng_for("colocated"), rng_for("ce"), cfg)
        else:
            out[scheme] = run_trial(aps, scheme, cfg, rng_for("ce"), shared[scheme])
    return out


def _with_axis_value(cfg, axis, value):
    if axis == "n_aps":
        if not float(value).is_integer():
            raise ValueError(f"n_aps must be a whole number, got {value}")
        return replace(cfg, n_aps=int(value))
    if axis == "b_total":
        return replace(cfg, b_total=float(value))
    raise ValueError(f"axis must be 'n_aps' or 'b_total', got {axis!r}")


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def monte_carlo(cfg: ScenarioConfig, axis, values, threads=1) -> SweepResult:
    """Sweep `axis` over `values`, running cfg.trials trials per point.

    Results are a deterministic function of (cfg, seed) regardless of the
    thread count: every trial owns its substreams, keyed by the value's
    position in `values` and the trial index, and aggregation is ordered
    by trial index. A value that gives an invalid config, or threads below
    1, raises ValueError before any cell runs. The pool runs at most one
    thread per usable CPU.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, _usable_cpus())
    configs = [_with_axis_value(cfg, axis, value) for value in values]
    rows = []
    for axis_idx, (value, cfg_v) in enumerate(zip(values, configs)):
        jobs = range(cfg_v.trials)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                cells = list(pool.map(lambda t: _trial_cell(cfg_v, axis_idx, t), jobs))
        else:
            cells = [_trial_cell(cfg_v, axis_idx, t) for t in jobs]
        for scheme in cfg_v.schemes:
            rates = np.array([_headline_rate(cell[scheme]) for cell in cells])
            active = np.array([cell[scheme].active_aps for cell in cells], dtype=float)
            stderr = (
                float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
            )
            rows.append(
                SweepRow(
                    axis=axis,
                    axis_value=float(value),
                    scheme=scheme,
                    mean_rate=float(rates.mean()),
                    stderr_rate=stderr,
                    mean_active_aps=float(active.mean()),
                    trials=int(rates.size),
                )
            )
    return SweepResult(axis=axis, rows=rows)
