"""Scenario generation, baselines, and Monte Carlo sweeps.

A scenario is a random drop of N access points around one UE, each AP
described only by its distance and line-of-sight angle. Trials are fully
deterministic given (config, seed): every trial owns RNG substreams derived
from (seed, axis index, trial index), and all schemes within a trial share
the same cross-entropy stream so per-trial comparisons are paired.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import alloc, phy, selection
from .alloc import CEConfig, GridRss
from .phy import AntennaConfig, dbm_per_hz_to_w_per_hz, require_typed_fields

CE_SCHEMES = ("mrt", "best_nsel", "best_per_subchannel", "nearest")
BASELINE_SCHEMES = ("equal_mrt", "colocated")
ALL_SCHEMES = CE_SCHEMES + BASELINE_SCHEMES

# substream tag of each named stream within one (seed, axis, trial) cell
_STREAMS = {"scenario": 0, "ce": 1, "colocated": 2}
# Largest band grid a config may ask for: 100x the default grid's steps.
# Every link row and GridRss holds one float per grid point.
MAX_GRID_POINTS = 2_000_001


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment configuration with simulation-parameter defaults;
    immutable, so the checks in `__post_init__` hold for its lifetime."""

    n_aps: int = 20
    n_sel: int = 2
    radius: float = 50.0  # m
    d_min: float = 0.5  # m, keeps free-space loss finite
    angle_guard: float = 0.01  # rad, keeps theta off both interval ends
    f_upper: float = 300e9
    b_total: float = 16e9
    p_total: float = 1.0  # W, PSD p = p_total / b_total
    noise_psd: float = dbm_per_hz_to_w_per_hz(-168.0)
    gamma_th: float = dbm_per_hz_to_w_per_hz(-174.5)
    eps_db: float = 0.5
    trials: int = 200
    seed: int = 1234
    schemes: tuple = ALL_SCHEMES
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    ce: CEConfig = field(default_factory=CEConfig)

    def __post_init__(self):
        require_typed_fields(self)
        if isinstance(self.schemes, str):
            raise ValueError(f"schemes must be a sequence of scheme names, got {self.schemes!r}")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for name, low in (("trials", 1), ("n_aps", 1), ("n_sel", 1), ("seed", 0), ("eps_db", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("noise_psd", "gamma_th", "d_min", "p_total", "b_total"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.angle_guard < np.pi / 4:
            raise ValueError(f"angle_guard must be in (0, pi/4), got {self.angle_guard}")
        if self.radius <= self.d_min:
            raise ValueError("radius must exceed d_min")
        if self.f_upper <= self.antenna.f_co:
            raise ValueError("f_upper must exceed antenna.f_co")
        # every link row, every sum of n_aps of them and its SNR stay finite
        peak = phy.peak_link_psd(self.p, self.antenna, self.f_upper, self.d_min)
        if not np.isfinite(peak * self.n_aps / self.noise_psd):
            raise ValueError(f"p_total: {self.n_aps} links at the peak link PSD {peak:.3e} W/Hz "
                             f"overflow their SNR over noise_psd {self.noise_psd:.3e} W/Hz")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes or len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must list at least one scheme, each once: {self.schemes}")
        # a CE channel needs a grid point on each side of its center
        ce_listed = set(self.schemes) != {"equal_mrt"}
        n_min = 3 if ce_listed else 2
        n_grid = alloc.grid_size(self.band, self.ce.step)
        if not n_min <= n_grid <= MAX_GRID_POINTS:
            raise ValueError(f"ce.step {self.ce.step:g} Hz gives {n_grid} grid points over "
                             f"antenna.f_co..f_upper; need {n_min} to {MAX_GRID_POINTS}")
        if ce_listed and self.b_total < 2 * self.ce.step:
            raise ValueError(f"b_total {self.b_total:g} Hz is below one 2 * ce.step channel")
        # equal_mrt's n_sub channels of b_total/n_sub at a spacing of band/n_sub
        span = self.f_upper - self.antenna.f_co
        if "equal_mrt" in self.schemes and self.b_total > span:
            raise ValueError(f"b_total: the equal_mrt plan overlaps: b_total {self.b_total:.3e} "
                             f"exceeds the band {span:.3e}")

    @property
    def p(self):
        """Per-AP transmit PSD in W/Hz."""
        return self.p_total / self.b_total

    @property
    def band(self):
        return (self.antenna.f_co, self.f_upper)


@dataclass
class TrialResult:
    """One scheme's emitted plan in one trial cell, rated on its own grid.
    `integrated_rate` is the rate a sweep averages, for every scheme."""

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
    return selection.Drop(d, theta)


def scenario_digest(drop):
    geom = np.column_stack((drop.distance, drop.angle))
    return hashlib.sha256(geom.tobytes()).hexdigest()[:16]


def _selection(scheme, drop, cfg):
    """The selection of a scheme: (ids of the APs that transmit, combining
    rule); the best AP per subchannel is every AP, max-combined."""
    if scheme == "mrt":
        return selection.select_mrt(drop), np.add
    if scheme == "best_nsel":
        n_sel = min(cfg.n_sel, drop.distance.size)
        return selection.select_best_nsel(drop, n_sel, cfg.p, cfg.antenna, cfg.f_upper), np.add
    if scheme == "best_per_subchannel":
        return selection.select_mrt(drop), np.maximum
    if scheme == "nearest":
        return selection.select_nearest(drop), np.add
    raise ValueError(f"not a selection scheme: {scheme}")


def _active_count(scheme, ids, drop, cfg, plan):
    if scheme != "best_per_subchannel":
        return len(ids)
    live = plan.centers[plan.widths > 0]
    return np.unique(selection.select_best_at(drop, live, cfg.p, cfg.antenna)).size


def scheme_rss(schemes, drop, cfg: ScenarioConfig):
    """{scheme: (ids, combined RSS on the band grid)} of each selection
    scheme in `schemes`, from one link pass over `drop`; a ValueError for an
    AP closer than cfg.d_min, which every link-PSD bound assumes none is."""
    near = np.flatnonzero(drop.distance < cfg.d_min)
    if near.size:
        raise ValueError(f"AP {near[0]}: distance {drop.distance[near[0]]:g} m is below "
                         f"d_min {cfg.d_min:g} m")
    selections = {s: _selection(s, drop, cfg) for s in dict.fromkeys(schemes)}
    rows = selection.combined_rss_rows(
        list(selections.values()), drop, alloc.grid_freqs(cfg.band, cfg.ce.step),
        cfg.p, cfg.antenna, cfg.gamma_th,
    )
    return {s: (ids, row) for (s, (ids, _)), row in zip(selections.items(), rows)}


def _rated(scheme, drop, cfg: ScenarioConfig, plan, ids_rss, incumbent_value=None):
    """The one rater of every TrialResult: `plan` on a GridRss built from
    the scheme's (ids, RSS on the band grid) pair, by both rate metrics,
    plus the active-AP count. A plan with no incumbent value is its own
    incumbent, rated by its integral."""
    ids, rss = ids_rss
    grid = GridRss(rss, cfg.band, cfg.ce.step)
    rate = alloc.integrated_rate(plan, grid, cfg.noise_psd)
    return TrialResult(
        scheme=scheme,
        plan_rate=alloc.plan_rate(plan, grid, cfg.noise_psd),
        integrated_rate=rate,
        active_aps=_active_count(scheme, ids, drop, cfg, plan),
        plan=plan,
        incumbent_value=rate if incumbent_value is None else incumbent_value,
        scenario_digest=scenario_digest(drop),
    )


def run_trial(drop, scheme, cfg: ScenarioConfig, result: alloc.CEResult, ids_rss) -> TrialResult:
    """Rate a CE run's final-means plan on the scheme's combined RSS.

    `result` is the CE run on the scheme's grid (`ce_optimize`, or its run
    of `ce_batch`), and `ids_rss` the scheme's (ids, RSS on the band grid)
    pair, as `scheme_rss` returns it. `plan_rate` equals the run's
    `plan_value`.
    """
    return _rated(scheme, drop, cfg, result.plan, ids_rss, result.incumbent_value)


def equal_allocation_trial(drop, cfg: ScenarioConfig, mrt_rss) -> TrialResult:
    """MRT over all APs with n_sub equal-width, evenly spaced subchannels
    that ignore the flatness constraint, rated as every scheme is; the
    plan is its own incumbent.

    `mrt_rss` is the MRT RSS on the band grid. A config that lists
    equal_mrt has a budget whose equal plan does not overlap.
    """
    n_sub = cfg.ce.n_sub
    f_co, f_upper = cfg.band
    spacing = (f_upper - f_co) / n_sub
    centers = f_co + (np.arange(1, n_sub + 1) - 0.5) * spacing
    plan = alloc.SubchannelPlan(centers, np.full(n_sub, cfg.b_total / n_sub), cfg.b_total)
    return _rated("equal_mrt", drop, cfg, plan, (selection.select_mrt(drop), mrt_rss))


def colocated_site(draw_rng, cfg: ScenarioConfig):
    """All n_aps antennas share one random site: a single (d, theta) draw
    and MRT combining, the site's one gated link window added N times into
    zeros, as a link pass over N such APs adds it (N-fold, since row * N
    rounds differently). Returns the site's drop and its (ids, RSS on the
    band grid) pair."""
    d = draw_rng.uniform(cfg.d_min, cfg.radius)
    theta = draw_rng.uniform(cfg.angle_guard, np.pi / 2 - cfg.angle_guard)
    drop = selection.Drop(np.full(cfg.n_aps, d), np.full(cfg.n_aps, theta))
    f = alloc.grid_freqs(cfg.band, cfg.ce.step)
    ((start, row),) = phy.gated_link_rows(f, [d], [theta], cfg.p, cfg.antenna, cfg.gamma_th)
    rss = np.zeros(f.size)
    for _ in range(cfg.n_aps):
        rss[start:start + row.size] += row
    return drop, (selection.select_mrt(drop), rss)


def substream(seed, axis_idx, trial_idx, stream):
    """The generator of one named stream ('scenario', 'ce' or 'colocated')
    of the (seed, axis index, trial index) cell."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, axis_idx, trial_idx, _STREAMS[stream]])
    )


def _trial_cell(cfg: ScenarioConfig, axis_idx: int, trial_idx: int):
    """All configured schemes on one shared scenario and CE stream: the CE
    schemes and the co-located site run as one `ce_batch`, each on its own
    grid and its own copy of the CE stream, and `run_trial` rates each."""

    def rng_for(stream):
        return substream(cfg.seed, axis_idx, trial_idx, stream)

    drop = generate_scenario(rng_for("scenario"), cfg)
    # one link pass serves every scheme on this scenario; equal_mrt reuses
    # the mrt row, and colocated draws its own site
    shared = scheme_rss(
        ("mrt" if s == "equal_mrt" else s for s in cfg.schemes if s != "colocated"), drop, cfg
    )
    # (drop, (ids, RSS)) of each CE run, in scheme order
    inputs = {s: (drop, shared[s]) for s in cfg.schemes if s in CE_SCHEMES}
    if "colocated" in cfg.schemes:
        inputs["colocated"] = colocated_site(rng_for("colocated"), cfg)
    results = dict(zip(inputs, alloc.ce_batch(
        [GridRss(rss, cfg.band, cfg.ce.step) for _, (_, rss) in inputs.values()],
        cfg.ce, [rng_for("ce") for _ in inputs],
        eps_db=cfg.eps_db, total_budget=cfg.b_total, noise_psd=cfg.noise_psd,
    )))
    out = {}
    for scheme in cfg.schemes:
        if scheme == "equal_mrt":
            out[scheme] = equal_allocation_trial(drop, cfg, shared["mrt"][1])
        else:
            run_drop, ids_rss = inputs[scheme]
            out[scheme] = run_trial(run_drop, scheme, cfg, results[scheme], ids_rss)
    return out


class AxisValueError(ValueError):
    """A sweep value that gives no valid config; the message names it."""


def _with_axis_value(cfg, axis, value):
    if axis not in ("n_aps", "b_total"):
        raise ValueError(f"axis must be 'n_aps' or 'b_total', got {axis!r}")
    try:
        return replace(cfg, **{axis: value})
    except ValueError as exc:
        raise AxisValueError(f"{axis} = {value}: {exc}") from exc


def monte_carlo(cfg: ScenarioConfig, axis, values, threads=1) -> SweepResult:
    """Sweep `axis` over `values`, running cfg.trials trials per point.

    Results are a deterministic function of (cfg, seed): every trial owns
    its substreams, keyed by the value's position in `values` and the
    trial index. A row's mean and standard error are over its trials'
    `integrated_rate`, the one metric of every scheme. Cells run in
    (value, trial) order on the calling thread; `threads` is an upper
    bound on workers, which this one worker always meets. A value that
    gives an invalid config raises AxisValueError, and threads below 1
    ValueError, before any cell runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    configs = [_with_axis_value(cfg, axis, value) for value in values]
    rows = []
    for axis_idx, (value, cfg_v) in enumerate(zip(values, configs)):
        cells = [_trial_cell(cfg_v, axis_idx, t) for t in range(cfg_v.trials)]
        for scheme in cfg_v.schemes:
            rates = np.array([cell[scheme].integrated_rate for cell in cells])
            active = np.array([cell[scheme].active_aps for cell in cells], dtype=float)
            stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
            rows.append(SweepRow(axis=axis, axis_value=float(value), scheme=scheme,
                                 mean_rate=float(rates.mean()), stderr_rate=stderr,
                                 mean_active_aps=float(active.mean()), trials=int(rates.size)))
    return SweepResult(axis=axis, rows=rows)
