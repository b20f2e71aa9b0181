"""Subchannel construction and the cross-entropy allocator.

A subchannel plan is a disjoint set of (center, width) intervals inside the
usable band whose widths sum to at most the bandwidth budget and whose
edge-to-edge RSS difference stays below a flatness tolerance (in dB). Plans
are built per candidate center vector by a one-dimensional bandwidth
search, overlap resolution in favor of the stronger subchannel, and a
budget trim that grants bandwidth to the strongest subchannels first.

`ce_optimize` is the whole cross-entropy loop; there is no per-iteration
API. It fits per-subchannel Gaussians over center frequencies to elite
samples with smoothed MLE updates, keeps its sampler state and the
incumbent as plain arrays, and builds `SubchannelPlan`s only when it
returns. `CEResult.means` holds the final sampler means.

The allocator works on a `GridRss` only: every center is snapped to a
grid index, so the bandwidth search is a lookup in a per-grid width table,
and all of an iteration's plans are built and scored as `(samples, n_sub)`
arrays by `_plan_rows` and `_score_rows`; `ce_optimize` builds and scores
its final plan as one more row, and `plan_rate` is the scorer's one-row
case for plans built elsewhere. On a grid with no live point every plan
has width 0, so `ce_optimize` then skips both. Scalar reference forms of
the search, the overlap resolution, the trim, the rate and the CE loop live
in the tests as their oracles.

The width table is filled lazily, for the centers the optimizer asks for.
A flat-window certificate (`_flat_radii`), built once per table in
O(points log points), gives each grid index a half-width whose window of
dB values spans less than eps_db, so every edge pair inside it passes;
the scan (`_scan_half_widths`) checks only the pairs past it. Most centers
settle on the first pair or two; those near an RSS peak, whose mirrored
edges stay matched after the window spans more, run on in chunks that
grow as the frontier shrinks. The widths equal the pair-by-pair search bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .phy import require_finite_fields

# Search steps checked by the first pass of the grid width scan; a later
# pass checks about _SCAN_PAIRS edge pairs in all, in chunks of at most
# _SCAN_MAX steps per center.
_SCAN_CHUNK = 8
_SCAN_PAIRS = 1 << 14
_SCAN_MAX = 1024
# Spacing of the grid indices the width certificate searches at.
_CERT_STRIDE = 8
# Resampling attempts before out-of-band Gaussian draws get clamped.
_MAX_RESAMPLE = 50


@dataclass(frozen=True)
class Subchannel:
    center: float  # Hz
    width: float  # Hz, >= 0

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")

    @property
    def low(self):
        return self.center - self.width / 2.0

    @property
    def high(self):
        return self.center + self.width / 2.0


@dataclass(frozen=True)
class SubchannelPlan:
    channels: tuple
    total_budget: float  # Hz

    @property
    def total_width(self):
        return sum(ch.width for ch in self.channels)

    def validate(self, band=None, atol=1e-3):
        """Raise if disjointness, the budget, or band containment fails."""
        if self.total_width > self.total_budget * (1 + 1e-12) + atol:
            raise ValueError(
                f"total width {self.total_width:.6e} exceeds budget {self.total_budget:.6e}"
            )
        occupied = sorted(
            (ch.low, ch.high) for ch in self.channels if ch.width > 0
        )
        for (_, hi), (lo, _) in zip(occupied, occupied[1:]):
            if lo < hi - atol:
                raise ValueError(f"overlapping subchannels near {lo:.6e} Hz")
        if band is not None:
            lo_b, hi_b = band
            for ch in self.channels:
                if ch.width > 0 and (ch.low < lo_b - atol or ch.high > hi_b + atol):
                    raise ValueError(
                        f"subchannel [{ch.low:.6e}, {ch.high:.6e}] outside band"
                    )


@dataclass(frozen=True)
class CEConfig:
    """Cross-entropy hyperparameters and the bandwidth-search grid."""

    n_sub: int = 40  # number of subchannels
    samples: int = 100  # Gaussian samples per iteration
    elites: int = 10  # elite samples kept for the MLE update
    smooth_mean: float = 0.8  # alpha
    smooth_var: float = 0.7  # beta
    smooth_power: float = 5.0  # q in the variance-smoothing schedule
    max_iter: int = 30
    step: float = 10e6  # Hz, bandwidth-search grid

    def __post_init__(self):
        require_finite_fields(self)
        if not 1 <= self.elites <= self.samples:
            raise ValueError("need 1 <= elites <= samples")
        if not 0 < self.smooth_mean <= 1:
            raise ValueError("smooth_mean must be in (0, 1]")
        if not 0 < self.smooth_var <= 1:
            raise ValueError("smooth_var must be in (0, 1]")
        if self.smooth_power <= 0:
            raise ValueError("smooth_power must be > 0")
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.n_sub < 1:
            raise ValueError("n_sub must be >= 1")


@dataclass
class CEResult:
    plan: SubchannelPlan  # built from the final means
    plan_value: float
    incumbent_plan: SubchannelPlan  # best of every sample and the final plan
    incumbent_value: float
    best_per_iter: np.ndarray  # best sampled objective at each iteration
    incumbent_trace: np.ndarray  # running best-ever sampled objective
    means: np.ndarray  # Hz, the sampler means after the last iteration


def grid_size(band, step):
    """Number of points of the uniform grid over `band` at `step`."""
    return int(np.floor((float(band[1]) - float(band[0])) / float(step) + 1e-9)) + 1


def grid_freqs(band, step):
    """The uniform frequency grid a `GridRss` over `band` samples."""
    return float(band[0]) + float(step) * np.arange(grid_size(band, step))


class GridRss:
    """RSS samples on a uniform frequency grid over the band.

    `values` is the PSD sampled at `grid_freqs(band, step)`. Calling the
    grid looks frequencies up by nearest grid index, so the allocator snaps
    candidate centers to this grid before searching bandwidths.

    The grid carries the allocator's width tables, one per (eps_db, cap in
    steps), and beside each the flat-window certificate its scan starts
    from: one O(points) array of half-widths per table, no per-level
    tables.
    """

    def __init__(self, values, band, step):
        self.band = (float(band[0]), float(band[1]))
        if self.band[1] <= self.band[0]:
            raise ValueError(f"band upper {band[1]} must exceed lower {band[0]}")
        self.step = float(step)
        self.freqs = grid_freqs(self.band, self.step)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != self.freqs.shape:
            raise ValueError(
                f"RSS samples have shape {self.values.shape}, grid has {self.freqs.shape}"
            )
        with np.errstate(divide="ignore"):
            self.db = 10.0 * np.log10(self.values)
        # coherence half-widths in steps, one table per (eps_db, cap in
        # steps), filled by `_grid_widths`; -1 marks an index not yet searched
        self.k_tables = {}
        # the flat-window certificate of each table, built by `_flat_radii`
        self.flat_radii = {}

    @cached_property
    def scan_windows(self):
        """Windows of `_SCAN_MAX` points over the dB values, upward and from
        the top down, for `_scan_half_widths`. Dead and infinite points (and
        `_SCAN_MAX` points of padding each side) are NaN, so one comparison
        rejects every pair they are in (an inf edge fails either way) and
        non-flat pairs alike; edges below a center are read from the
        reversed array so that both sides of a chunk are contiguous runs."""
        pad = np.full(_SCAN_MAX, np.nan)
        db = np.concatenate([pad, np.where(np.isfinite(self.db), self.db, np.nan), pad])
        window = np.lib.stride_tricks.sliding_window_view
        return window(db, _SCAN_MAX), window(db[::-1].copy(), _SCAN_MAX)

    def index_of(self, f):
        idx = np.round((np.asarray(f, dtype=float) - self.band[0]) / self.step)
        return np.clip(idx.astype(int), 0, self.freqs.size - 1)

    def __call__(self, f):
        out = self.values[self.index_of(f)]
        return float(out) if np.ndim(f) == 0 else out


def _grid_widths(grid: GridRss, centers_idx, eps_db, max_width=None):
    """Coherence widths of grid-aligned centers: the largest width 2k*step
    whose edges stay in band, under the cap and within eps_db of each other
    (0 for a dead center). Read from the grid's width table; indices no
    earlier call has searched are scanned first."""
    idx = np.atleast_1d(centers_idx)
    cap = None if max_width is None else int(max_width / (2 * grid.step) + 1e-9)
    table = grid.k_tables.get((eps_db, cap))
    if table is None:
        table = grid.k_tables[(eps_db, cap)] = np.full(grid.values.size, -1)
    new = table[idx] < 0
    if new.any():
        pending = np.zeros(table.size, dtype=bool)
        pending[idx[new]] = True
        todo = np.flatnonzero(pending)  # sorted, each index once
        table[todo] = _scan_half_widths(grid, todo, eps_db, cap)
    return 2.0 * table[idx] * grid.step


def _flat(hi, lo, eps_db):
    """Whether windows whose largest and smallest dB values are hi and lo
    span less than eps_db (exactly 0 at eps 0)."""
    span = hi - lo
    return span < eps_db if eps_db > 0 else span == 0.0


def _flat_radii(grid: GridRss, eps_db, cap):
    """Flat-window certificate: for each grid index i a half-width r, at
    most the band limit and the cap, such that the dB values on
    [i - r, i + r] are finite and span less than eps_db (exactly 0 at eps
    0). For k <= r both edges i - k and i + k lie in that window, so their
    difference is at most the span, and float subtraction rounds
    monotonically: every such pair passes the scan's test.

    Every `_CERT_STRIDE`-th index is certified from running max/min over
    power-of-two windows (sparse-table doubling), a radius r being the
    union of two windows of a level at least r + 1 points long. A center
    drops out at the first level whose widest radius is not flat, and a
    binary search inside that level brings its radius to within 3 steps of
    the widest flat one. A window certified at j holds [i - r, i + r] for
    r = r_j - |i - j|, so each index takes the better of its two nearest
    certified ones."""
    n = grid.values.size
    top = (n - 1) // 2 if cap is None else min(cap, (n - 1) // 2)
    if top < 1:
        return np.zeros(n, dtype=np.intp)
    # padding and non-finite points make every window holding them fail;
    # hi and lo hold the max and min of the h points from each position on
    pad = 2 * top
    finite = np.isfinite(grid.db)
    hi = np.full(n + 2 * pad, np.inf)
    lo = np.full(n + 2 * pad, -np.inf)
    hi[pad : pad + n] = np.where(finite, grid.db, np.inf)
    lo[pad : pad + n] = np.where(finite, grid.db, -np.inf)
    sampled = np.arange(0, n, _CERT_STRIDE)
    found_at = np.zeros(sampled.size + 1, dtype=np.intp)  # 0 past the last one
    active = sampled[finite[sampled]] + pad
    h = 1
    while active.size:
        hi, lo = np.maximum(hi[:-h], hi[h:]), np.minimum(lo[:-h], lo[h:])
        h *= 2
        # radius r about c is the h-windows starting at c - r and at
        # c + r - h + 1; r = h - 1 is the widest this level can test
        r = min(h - 1, top)
        a, b = active - r, active + r - h + 1
        ok = _flat(np.maximum(hi[a], hi[b]), np.minimum(lo[a], lo[b]), eps_db)
        done = active[~ok]
        found = np.full(done.size, h // 2 - 1)  # certified one level down
        step = h // 4 if done.size else 0
        while step >= 4:
            m = found + step
            a, b = done - m, done + m - h + 1
            found = np.where(_flat(np.maximum(hi[a], hi[b]), np.minimum(lo[a], lo[b]), eps_db),
                             m, found)
            step //= 2
        found_at[(done - pad) // _CERT_STRIDE] = found
        if r == top:
            found_at[(active[ok] - pad) // _CERT_STRIDE] = top
            break
        active = active[ok]
    d = np.arange(n) % _CERT_STRIDE
    below = np.repeat(found_at[:-1], _CERT_STRIDE)[:n] - d
    above = np.repeat(found_at[1:], _CERT_STRIDE)[:n] - (_CERT_STRIDE - d)
    return np.maximum(np.maximum(below, above), 0)


def _scan_half_widths(grid: GridRss, idx, eps_db, cap):
    """Widest admissible half-width k (in steps) of each center: the last k
    before the first edge pair (idx - k, idx + k) that is dead or not flat,
    limited by the band and the cap. Each center starts past its certified
    radius (`_flat_radii`); chunks of k are then checked for the whole
    frontier at once, and a center leaves the frontier once it has settled.
    The first chunk is short, because most centers settle on the first pair
    past their radius; later chunks grow as the frontier shrinks."""
    radii = grid.flat_radii.get((eps_db, cap))
    if radii is None:
        radii = grid.flat_radii[(eps_db, cap)] = _flat_radii(grid, eps_db, cap)
    n = grid.values.size
    k_cap = np.minimum(idx, n - 1 - idx)
    if cap is not None:
        k_cap = np.minimum(k_cap, cap)
    k_star = radii[idx]  # 0 at a dead center
    front = np.flatnonzero((k_star < k_cap) & (grid.values[idx] > 0.0))
    k0, k_cap = k_star[front] + 1, k_cap[front]
    above, below = grid.scan_windows
    mirror = n - 1 + _SCAN_MAX
    chunk = _SCAN_CHUNK
    while front.size:
        centers = idx[front]
        # column j of both blocks holds the edges at k = k0 + j
        diff = below[:, :chunk][mirror - centers + k0]
        np.subtract(diff, above[:, :chunk][_SCAN_MAX + centers + k0], out=diff)
        np.abs(diff, out=diff)
        # NaN (a dead or inf edge) fails both tests; a diff of 0 passes even at eps 0
        ok = diff < eps_db if eps_db > 0 else diff == 0.0
        hit = ~ok.all(axis=1)
        # pairs past the cap were checked too; the cap bounds the result
        k_star[front] = np.minimum(k0 - 1 + np.where(hit, ok.argmin(axis=1), chunk), k_cap)
        more = ~hit & (k_cap >= k0 + chunk)
        front, k0, k_cap = front[more], k0[more] + chunk, k_cap[more]
        if front.size:
            chunk = min(_SCAN_MAX, max(chunk, _SCAN_PAIRS // front.size),
                        int((k_cap - k0).max()) + 1)
    return k_star


def integrated_rate(plan: SubchannelPlan, grid: GridRss, noise_psd):
    """Trapezoidal integral of log2(1 + rss(f)/noise) over each channel, at
    the grid's step; fair for wide channels where the center-RSS objective
    overstates."""
    if noise_psd <= 0:
        raise ValueError(f"noise_psd must be > 0, got {noise_psd}")
    rate = 0.0
    for ch in plan.channels:
        if ch.width <= 0:
            continue
        n_pts = max(2, int(np.ceil(ch.width / grid.step)) + 1)
        f = np.linspace(ch.low, ch.high, n_pts)
        spectral = np.log2(1.0 + grid(f) / noise_psd)
        rate += np.trapezoid(spectral, f)
    return rate


def _plan_rows(grid: GridRss, idx, eps_db, total_budget):
    """Build one plan per row of snapped center indices, all rows at once:
    the coherence widths, then overlap resolution in favor of the stronger
    center RSS (a channel whose center a stronger one covers gets width
    0, and a clipped one is shrunk to a flat interval about a grid point),
    then a budget trim that grants bandwidth in descending center-RSS
    order. Each row equals the scalar reference chain in
    `tests/test_alloc.py` bit for bit. Returns the plans' (centers,
    widths), shaped like idx."""
    rows, n = idx.shape
    c = grid.freqs[idx]
    w = _grid_widths(grid, idx.ravel(), eps_db, max_width=total_budget).reshape(rows, n)

    # overlap resolution, one rank at a time (stronger center RSS first,
    # lower index on ties); each channel is clipped against the intervals
    # its row has already claimed. Arrays here are (rank, row); an
    # unclaimed slot holds the empty interval (inf, -inf).
    rank = np.argsort(-grid.values[idx], axis=1, kind="stable")
    c_r = np.take_along_axis(c, rank, axis=1).T.copy()
    w_r = np.take_along_axis(w, rank, axis=1).T.copy()
    lo = c_r - w_r / 2.0
    hi = c_r + w_r / 2.0
    keep = hi - lo > 0
    claim_lo = np.where(keep, lo, np.inf)
    claim_hi = np.where(keep, hi, -np.inf)
    for r in range(1, n):
        x = c_r[r]
        c_lo, c_hi = claim_lo[:r], claim_hi[:r]
        above, below = x <= c_lo, x >= c_hi
        # clipping by disjoint intervals does not depend on their order
        hi[r] = np.minimum(hi[r], np.where(above, c_lo, np.inf).min(axis=0))
        lo[r] = np.maximum(lo[r], np.where(below, c_hi, -np.inf).max(axis=0))
        # a claim neither above nor below the center covers it: width 0
        keep[r] = (above | below).all(axis=0) & (hi[r] - lo[r] > 0)
        claim_lo[r] = np.where(keep[r], lo[r], np.inf)
        claim_hi[r] = np.where(keep[r], hi[r], -np.inf)
    # a clipped channel's edges are no longer a searched pair: shrink it
    # about the grid point nearest its midpoint to the widest half-width
    # the width table admits there that still fits inside [lo, hi]
    clip = keep & ((lo != c_r - w_r / 2.0) | (hi != c_r + w_r / 2.0))
    if clip.any():
        l, h = lo[clip], hi[clip]
        m = grid.index_of((l + h) / 2.0)
        f_m = grid.freqs[m]
        fit = np.floor(np.minimum(f_m - l, h - f_m) / grid.step + 1e-9)
        half = np.minimum(
            _grid_widths(grid, m, eps_db, max_width=total_budget) / 2.0, fit * grid.step
        )
        l, h = f_m - half, f_m + half
        lo[clip], hi[clip], keep[clip] = l, h, h - l > 0
    centers = np.empty_like(c)
    widths = np.empty_like(w)
    np.put_along_axis(centers, rank, np.where(keep, (lo + hi) / 2.0, c_r).T, axis=1)
    np.put_along_axis(widths, rank, np.where(keep, hi - lo, 0.0).T, axis=1)

    # budget trim of the rows whose total (summed in index order) exceeds
    # the budget: grant in descending center-RSS order, subtracting each
    # grant from the remainder in that order. Keeping the strongest
    # channels whole makes a sample's score reflect its best channels
    # instead of diluting them, as a proportional shrink would.
    total = np.cumsum(widths, axis=1)[:, -1] if n else np.zeros(rows)
    over = ~(total <= total_budget)
    if over.any():
        w_o = widths[over]
        order = np.argsort(-grid.values[grid.index_of(centers[over])], axis=1, kind="stable")
        w_s = np.take_along_axis(w_o, order, axis=1)
        start = np.full((w_s.shape[0], 1), float(total_budget))
        left = np.subtract.accumulate(np.hstack([start, w_s[:, :-1]]), axis=1)
        np.put_along_axis(w_o, order, np.minimum(w_s, np.maximum(left, 0.0)), axis=1)
        widths[over] = w_o
    return centers, widths


def _score_rows(grid: GridRss, centers, widths, noise_psd):
    """Rate objective of every row: the sum of width * log2(1 + rss/noise)
    over its live channels [bit/s]. Each row is summed over its live
    channels only, because numpy's pairwise sum depends on the length of
    what it adds."""
    if noise_psd <= 0:
        raise ValueError(f"noise_psd must be > 0, got {noise_psd}")
    g = grid.values[grid.index_of(centers)]
    terms = widths * np.log2(1.0 + np.maximum(g, 0.0) / noise_psd)
    live = widths > 0
    n_live = live.sum(axis=1)
    packed = np.take_along_axis(terms, np.argsort(~live, axis=1, kind="stable"), axis=1)
    scores = np.zeros(len(widths))
    for n in np.unique(n_live[n_live > 0]):
        rows = n_live == n
        scores[rows] = packed[rows, :n].sum(axis=1)
    return scores


def _row_plan(centers, widths, total_budget):
    return SubchannelPlan(
        tuple(Subchannel(c, w) for c, w in zip(centers, widths)), total_budget
    )


def plan_rate(plan: SubchannelPlan, grid: GridRss, noise_psd):
    """Rate objective of one plan, its centers looked up on the grid."""
    c = np.array([[ch.center for ch in plan.channels]], dtype=float)
    w = np.array([[ch.width for ch in plan.channels]], dtype=float)
    return float(_score_rows(grid, c, w, noise_psd)[0])


def variance_smoothing(beta, q, t):
    """beta_t = beta - beta * (1 - 1/(t+1))^q."""
    return beta - beta * (1.0 - 1.0 / (t + 1.0)) ** q


def _sample_centers(means, std, cfg: CEConfig, band, rng):
    lo, hi = band
    x = rng.normal(means, std, size=(cfg.samples, cfg.n_sub))
    for _ in range(_MAX_RESAMPLE):
        out = (x < lo) | (x > hi)
        if not out.any():
            break
        x[out] = rng.normal(
            np.broadcast_to(means, x.shape)[out],
            np.broadcast_to(std, x.shape)[out],
        )
    return np.clip(x, lo, hi)


def _rated_rows(grid: GridRss, idx, live, eps_db, total_budget, noise_psd):
    """The plans of rows of snapped center indices and their scores. On a
    grid with no live point every plan is its snapped centers at width 0
    and scores 0, which is what `_plan_rows` and `_score_rows` return there."""
    if not live:
        return grid.freqs[idx], np.zeros(idx.shape), np.zeros(len(idx))
    centers, widths = _plan_rows(grid, idx, eps_db, total_budget)
    return centers, widths, _score_rows(grid, centers, widths, noise_psd)


def ce_optimize(grid: GridRss, cfg: CEConfig, rng, *, eps_db, total_budget, noise_psd):
    """Run the cross-entropy loop over `grid.band` and build the plan from
    the final means.

    The means start evenly spread over the band with a wide common
    variance. Each iteration samples center vectors, builds and scores every
    sample's plan in one batch, and refits the Gaussians to the elites with
    smoothing. The incumbent is the best sampled plan, or the final plan
    where that scores strictly higher; the objective traces come along as
    diagnostics. A grid with no live point skips the plan kernel: its draws
    and refits run as usual, so the means and plan centers are the same.
    """
    if noise_psd <= 0:
        raise ValueError(f"noise_psd must be > 0, got {noise_psd}")
    live = bool((grid.values > 0.0).any())
    lo, hi = grid.band
    means = lo + (np.arange(1, cfg.n_sub + 1) - 0.5) * (hi - lo) / cfg.n_sub
    variances = np.full(cfg.n_sub, 16.0 * (hi - lo) ** 2 / cfg.n_sub**2)
    best_per_iter = np.empty(cfg.max_iter)
    incumbent_trace = np.empty(cfg.max_iter)
    inc_centers = inc_widths = None
    inc_value = -np.inf
    for t in range(cfg.max_iter):
        samples = _sample_centers(means, np.sqrt(variances), cfg, grid.band, rng)
        centers, widths, scores = _rated_rows(
            grid, grid.index_of(samples), live, eps_db, total_budget, noise_psd
        )
        best = int(np.argmax(scores))
        if scores[best] > inc_value:
            inc_centers, inc_widths, inc_value = centers[best], widths[best], scores[best]
        best_per_iter[t] = scores[best]
        incumbent_trace[t] = inc_value
        elites = samples[np.argsort(-scores, kind="stable")[: cfg.elites]]
        beta_t = variance_smoothing(cfg.smooth_var, cfg.smooth_power, t)
        means = cfg.smooth_mean * elites.mean(axis=0) + (1.0 - cfg.smooth_mean) * means
        variances = beta_t * elites.var(axis=0) + (1.0 - beta_t) * variances
        variances = np.maximum(variances, cfg.step**2)  # keep the sampler proper
    centers, widths, scores = _rated_rows(
        grid, grid.index_of(means)[None, :], live, eps_db, total_budget, noise_psd
    )
    final_value = float(scores[0])
    final_plan = _row_plan(centers[0], widths[0], total_budget)
    if final_value > inc_value:
        incumbent, inc_value = final_plan, final_value
    else:
        incumbent = _row_plan(inc_centers, inc_widths, total_budget)
    return CEResult(
        plan=final_plan,
        plan_value=final_value,
        incumbent_plan=incumbent,
        incumbent_value=inc_value,
        best_per_iter=best_per_iter,
        incumbent_trace=incumbent_trace,
        means=means,
    )


def plan_records(plan: SubchannelPlan, grid: GridRss, noise_psd):
    """Serialize a plan to (index, center_Hz, width_Hz, rss_W_per_Hz,
    rate_bps) records for machine-readable output, RSS read on the grid."""
    records = []
    for i, ch in enumerate(plan.channels):
        g = grid(ch.center) if ch.width > 0 else 0.0
        rate = ch.width * float(np.log2(1.0 + g / noise_psd)) if g > 0 else 0.0
        records.append(
            {
                "index": i,
                "center_hz": ch.center,
                "width_hz": ch.width,
                "rss_w_per_hz": g,
                "rate_bps": rate,
            }
        )
    return records
