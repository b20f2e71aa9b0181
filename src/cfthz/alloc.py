"""Subchannel construction and the cross-entropy allocator.

A subchannel plan is a disjoint set of (center, width) intervals inside the
usable band whose widths sum to at most the bandwidth budget and whose
edge-to-edge RSS difference stays below a flatness tolerance (in dB). Plans
are built per candidate center vector by a one-dimensional bandwidth
search, overlap resolution in favor of the stronger subchannel, and a
budget trim that grants bandwidth to the strongest subchannels first. A
`SubchannelPlan` holds a plan as two arrays, its centers and its widths.

`ce_batch` is the whole cross-entropy loop, for any number of runs at
once, and `ce_optimize` is its one-run case; there is no per-iteration
API. Each run fits per-subchannel Gaussians over center frequencies to its
own elite samples with smoothed MLE updates. `CEResult.means` holds the
final sampler means.

The kernel layout. A batch's state is arrays with runs on the leading
axis: means and variances `(runs, n_sub)`, samples `(runs, samples,
n_sub)`, and incumbent centers and widths `(runs, n_sub)` with `(runs,)`
values. The runs share one band and step, so one snap serves every
sample; only each run's draw from its own generator is made per run.
`_plan_rows` takes `(runs, rows, n_sub)` indices, run j read on grid j,
and returns the plans' centers and widths and the RSS at each emitted
center, all of that shape; `_score_rows` rates them along the last axis.
The kernel's per-rank numpy calls cost about the same whatever the row
count, so a batch costs less than its runs one at a time. The overlap
resolution stops after the last rank that holds a live channel in any row
(a width-0 channel never claims and is never clipped), so on a grid with
no live point every plan is its snapped centers at width 0. Scalar
reference forms of the search, the overlap resolution, the trim, the rate
and the CE loop live in the tests as their oracles.

The width table. Each `ce_batch` call builds one `_WidthTable`: the RSS
of all its grids on one axis, grid j's point i at `start[j] + i` with
`_SCAN_MAX` dead points before, between and after the grids, and a
half-width per point, filled lazily for the centers the optimizer asks
for. A flat-window certificate (`_flat_radii`, one call per grid) gives
each point a half-width whose window of dB values spans less than eps_db,
so every edge pair inside it passes; the scan checks only the pairs past
it, in chunks that grow as the frontier shrinks. The widths equal the
pair-by-pair search bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .phy import require_typed_fields

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


# One channel of `SubchannelPlan.channels`.
_Channel = namedtuple("Subchannel", "center width low high")


@dataclass(frozen=True, eq=False)
class SubchannelPlan:
    """Channel i spans centers[i] -/+ widths[i] / 2 [Hz]; a width of 0 is an
    unused slot. Holds read-only copies of its two equal-length 1-D arrays."""

    centers: np.ndarray
    widths: np.ndarray
    total_budget: float  # Hz

    def __post_init__(self):
        require_typed_fields(self)
        for name in ("centers", "widths"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.centers.ndim != 1 or self.centers.shape != self.widths.shape:
            raise ValueError(f"centers {self.centers.shape} and widths {self.widths.shape} "
                             "must be 1-D and of one length")
        if not (np.isfinite(self.centers).all() and np.isfinite(self.widths).all()
                and (self.widths >= 0).all()):
            raise ValueError(f"need finite centers and finite widths >= 0, got {self.centers} "
                             f"and {self.widths}")

    def __eq__(self, other):
        return (isinstance(other, SubchannelPlan)
                and np.array_equal(self.centers, other.centers)
                and np.array_equal(self.widths, other.widths)
                and self.total_budget == other.total_budget)

    @property
    def low(self):
        return self.centers - self.widths / 2.0

    @property
    def high(self):
        return self.centers + self.widths / 2.0

    @property
    def total_width(self):
        return sum(self.widths.tolist())  # in index order

    @property
    def channels(self):
        """The channels as (center, width, low, high) named tuples."""
        return tuple(map(_Channel, self.centers.tolist(), self.widths.tolist(),
                         self.low.tolist(), self.high.tolist()))

    def validate(self, band=None, atol=1e-3):
        """Raise if disjointness, the budget, or band containment fails."""
        if self.total_width > self.total_budget * (1 + 1e-12) + atol:
            raise ValueError(f"total width {self.total_width:.6e} exceeds budget "
                             f"{self.total_budget:.6e}")
        low, high = self.low[self.widths > 0], self.high[self.widths > 0]
        order = np.lexsort((high, low))  # by (low, high)
        lo, hi = low[order], high[order]
        overlap = np.flatnonzero(lo[1:] < hi[:-1] - atol)
        if overlap.size:
            raise ValueError(f"overlapping subchannels near {lo[overlap[0] + 1]:.6e} Hz")
        if band is not None:
            out = np.flatnonzero((low < band[0] - atol) | (high > band[1] + atol))
            if out.size:
                raise ValueError(f"subchannel [{low[out[0]]:.6e}, {high[out[0]]:.6e}] outside band")


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
        require_typed_fields(self)
        if not 1 <= self.elites <= self.samples:
            raise ValueError("need 1 <= elites <= samples")
        for name in ("smooth_mean", "smooth_var"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        for name in ("smooth_power", "step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, low in (("n_sub", 1), ("max_iter", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


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


def _snap(f, band0, step, n):
    """Nearest index of each frequency on the n-point grid band0 + step * i,
    clipped to the grid before the cast, so any frequency maps into it."""
    x = np.round((np.asarray(f, dtype=float) - band0) / step)
    if np.isnan(x).any():
        raise ValueError("cannot snap a NaN frequency to the grid")
    return np.clip(x, 0, n - 1).astype(int)


class GridRss:
    """RSS samples on a uniform frequency grid over the band.

    `values` is a read-only copy of the PSD sampled at
    `grid_freqs(band, step)`, finite and >= 0. Calling the grid looks
    frequencies up by nearest grid index, so the allocator snaps candidate
    centers to this grid before searching bandwidths.
    """

    def __init__(self, values, band, step):
        self.band = (float(band[0]), float(band[1]))
        if not -np.inf < self.band[0] < self.band[1] < np.inf:
            raise ValueError(f"band upper {band[1]} must exceed lower {band[0]}, both finite")
        self.step = float(step)
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be finite and > 0, got {step}")
        self.values = np.array(values, dtype=float)
        self.values.flags.writeable = False
        shape = (grid_size(self.band, self.step),)
        if self.values.shape != shape:
            raise ValueError(f"RSS samples have shape {self.values.shape}, grid has {shape}")
        if not (np.isfinite(self.values).all() and (self.values >= 0).all()):
            raise ValueError("RSS samples must be finite and >= 0")

    def index_of(self, f):
        return _snap(f, self.band[0], self.step, self.values.size)

    def __call__(self, f):
        out = self.values[self.index_of(f)]
        return float(out) if np.ndim(f) == 0 else out


def _flat(hi, lo, eps_db):
    """Whether windows whose largest and smallest dB values are hi and lo
    span less than eps_db (exactly 0 at eps 0)."""
    span = hi - lo
    return span < eps_db if eps_db > 0 else span == 0.0


def _flat_radii(db, eps_db, cap):
    """Flat-window certificate of one grid's dB values (NaN at a dead
    point): for each grid index i a half-width r, at most the band limit
    and the cap, such that the dB values on [i - r, i + r] are finite and
    span less than eps_db (exactly 0 at eps 0). For k <= r both edges i - k
    and i + k lie in that window, so their difference is at most the span,
    and float subtraction rounds monotonically: every such pair passes the
    scan's test.

    Every `_CERT_STRIDE`-th index is certified from running max/min over
    power-of-two windows (sparse-table doubling), a radius r being the
    union of two windows of a level at least r + 1 points long. A center
    drops out at the first level whose widest radius is not flat, and a
    binary search inside that level brings its radius to within 3 steps of
    the widest flat one. A window certified at j holds [i - r, i + r] for
    r = r_j - |i - j|, so each index takes the better of its two nearest
    certified ones."""
    n = db.size
    top = min(cap, (n - 1) // 2)
    if top < 1:
        return np.zeros(n, dtype=np.int32)
    # padding and non-finite points make every window holding them fail;
    # hi and lo hold the max and min of the h points from each position on
    pad = 2 * top
    finite = np.isfinite(db)
    hi = np.full(n + 2 * pad, np.inf)
    lo = np.full(n + 2 * pad, -np.inf)
    hi[pad : pad + n] = np.where(finite, db, np.inf)
    lo[pad : pad + n] = np.where(finite, db, -np.inf)
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
    return np.maximum(np.maximum(below, above), 0).astype(np.int32)


class _WidthTable:
    """The coherence half-widths, in steps, of the grids of one `ce_batch`
    call on one axis (see the module docstring); -1 marks a point not yet
    searched, and a batch with no live center builds no certificate."""

    def __init__(self, grids, eps_db, total_budget):
        band, step = grids[0].band, grids[0].step
        if any(grid.band != band or grid.step != step for grid in grids):
            raise ValueError("the grids of a CE batch need one band and step")
        self.band0, self.step, self.n = band[0], step, grids[0].values.size
        self.eps_db, self.cap = eps_db, int(total_budget / (2 * step) + 1e-9)
        self.start = _SCAN_MAX + (self.n + _SCAN_MAX) * np.arange(len(grids))
        rows = np.zeros((len(grids), _SCAN_MAX + self.n))
        rows[:, _SCAN_MAX:] = [grid.values for grid in grids]
        self.values = np.concatenate([rows.ravel(), np.zeros(_SCAN_MAX)])
        self.half = np.full(self.values.size, -1, dtype=np.int32)
        self.radii = self.windows = None

    def snap(self, f):
        """Grid indices of the frequencies in f."""
        return _snap(f, self.band0, self.step, self.n)

    def widths(self, t):
        """Coherence widths of the points at table indices t: the largest
        width 2k*step whose edges stay in band, under the cap and within
        eps_db of each other (0 for a dead center). Points no earlier call
        has searched are scanned first."""
        new = self.half[t] < 0
        if new.any():
            pending = np.zeros(self.half.size, dtype=bool)
            pending[t[new]] = True
            todo = np.flatnonzero(pending)  # sorted, each index once
            self.half[todo] = self._scan(todo)
        return 2.0 * self.half[t] * self.step

    def _scan(self, idx):
        """Widest admissible half-width k (in steps) of each point: the last
        k before the first edge pair (idx - k, idx + k) that is dead or not
        flat, limited by the band and the cap. Each center starts past its
        certified radius, and chunks of k are checked for the whole
        frontier at once: a short first chunk, as most centers settle on
        the first pair past their radius, then longer ones."""
        live = self.values[idx] > 0.0
        if not live.any():
            return np.zeros(idx.size, dtype=np.int32)
        if self.radii is None:
            # dead points are NaN, so one comparison rejects every pair they
            # are in; edges below a center are read from the reversed array
            # so that both sides of a chunk are contiguous runs
            db = 10.0 * np.log10(np.where(self.values > 0.0, self.values, np.nan))
            self.radii = np.zeros(db.size, dtype=np.int32)
            for s in self.start:
                self.radii[s : s + self.n] = _flat_radii(db[s : s + self.n], self.eps_db, self.cap)
            window = np.lib.stride_tricks.sliding_window_view
            self.windows = window(db, _SCAN_MAX), window(db[::-1].copy(), _SCAN_MAX)
        i = (idx - _SCAN_MAX) % (self.n + _SCAN_MAX)  # the index on its grid
        k_cap = np.minimum(np.minimum(i, self.n - 1 - i), self.cap)
        k_star = self.radii[idx]  # 0 at a dead center
        front = np.flatnonzero((k_star < k_cap) & live)
        k0, k_cap = k_star[front] + 1, k_cap[front]
        above, below = self.windows
        mirror = self.values.size - 1
        chunk = _SCAN_CHUNK
        while front.size:
            centers = idx[front]
            # column j of both blocks holds the edges at k = k0 + j
            diff = below[:, :chunk][mirror - centers + k0]
            np.subtract(diff, above[:, :chunk][centers + k0], out=diff)
            # NaN (a dead edge) is not flat; a diff of 0 is, even at eps 0
            ok = _flat(np.abs(diff, out=diff), 0.0, self.eps_db)
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
    if not 0 < noise_psd < np.inf:
        raise ValueError(f"noise_psd must be finite and > 0, got {noise_psd}")
    rate = 0.0
    for low, high, width in zip(plan.low.tolist(), plan.high.tolist(), plan.widths.tolist()):
        if width <= 0:
            continue
        n_pts = max(2, int(np.ceil(width / grid.step)) + 1)
        f = np.linspace(low, high, n_pts)
        spectral = np.log2(1.0 + grid(f) / noise_psd)
        rate += float(np.trapezoid(spectral, f))
    return rate


def _plan_rows(table: _WidthTable, idx, total_budget):
    """Build one plan per row of snapped center indices, all rows at once:
    the coherence widths, then overlap resolution in favor of the stronger
    center RSS (a channel whose center a stronger one covers gets width
    0, and a clipped one is shrunk to a flat interval about a grid point),
    then a budget trim that grants bandwidth in descending center-RSS
    order. idx is (runs, rows, n_sub), run j read on the table's grid j.
    Each row equals the scalar reference chain in `tests/test_alloc.py` bit
    for bit. Returns the plans' (centers, widths) and the RSS at each
    center, all shaped like idx."""
    runs, rows, n = idx.shape
    base = np.repeat(table.start, rows)  # table index of each row's grid point 0
    t = idx.reshape(runs * rows, n) + base[:, None]
    c = table.band0 + table.step * idx.reshape(t.shape)
    w = table.widths(t)
    rss = table.values[t]

    # overlap resolution, one rank at a time (stronger center RSS first,
    # lower index on ties); each channel is clipped against the intervals
    # its row has already claimed. Arrays here are (rank, row); an
    # unclaimed slot holds the empty interval (inf, -inf).
    rank = np.argsort(-rss, axis=1, kind="stable")
    c_r, w_r, rss_r = (np.take_along_axis(a, rank, axis=1).T.copy() for a in (c, w, rss))
    lo = c_r - w_r / 2.0
    hi = c_r + w_r / 2.0
    keep = hi - lo > 0
    claim_lo = np.where(keep, lo, np.inf)
    claim_hi = np.where(keep, hi, -np.inf)
    # a width-0 channel never claims and is never clipped: stop after the
    # last rank that holds a live channel in any row
    last = np.flatnonzero(keep.any(axis=1)).max(initial=0)
    for r in range(1, last + 1):
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
    # about the grid point m nearest its midpoint to the widest half-width
    # the width table admits there that still fits inside [lo, hi]; a
    # channel that keeps a width is then centered on m, whose RSS it takes
    clip = keep & ((lo != c_r - w_r / 2.0) | (hi != c_r + w_r / 2.0))
    l, h = lo[clip], hi[clip]
    m = table.snap((l + h) / 2.0)
    f_m = table.band0 + table.step * m
    fit = np.floor(np.minimum(f_m - l, h - f_m) / table.step + 1e-9)
    m = m + np.broadcast_to(base, clip.shape)[clip]  # as a table index
    half = np.minimum(table.widths(m) / 2.0, fit * table.step)
    l, h = f_m - half, f_m + half
    lo[clip], hi[clip], keep[clip] = l, h, h - l > 0
    rss_r[clip] = np.where(h - l > 0, table.values[m], rss_r[clip])
    centers = np.empty_like(c)
    widths = np.empty_like(w)
    np.put_along_axis(centers, rank, np.where(keep, (lo + hi) / 2.0, c_r).T, axis=1)
    np.put_along_axis(widths, rank, np.where(keep, hi - lo, 0.0).T, axis=1)
    np.put_along_axis(rss, rank, rss_r.T, axis=1)

    # budget trim of the rows whose total (summed in index order) exceeds
    # the budget: grant in descending center-RSS order, subtracting each
    # grant from the remainder in that order. Keeping the strongest
    # channels whole makes a sample's score reflect its best channels
    # instead of diluting them, as a proportional shrink would.
    total = np.cumsum(widths, axis=1)[:, -1] if n else np.zeros(len(widths))
    over = ~(total <= total_budget)
    if over.any():
        w_o = widths[over]
        order = np.argsort(-rss[over], axis=1, kind="stable")
        w_s = np.take_along_axis(w_o, order, axis=1)
        start = np.full((w_s.shape[0], 1), float(total_budget))
        left = np.subtract.accumulate(np.hstack([start, w_s[:, :-1]]), axis=1)
        np.put_along_axis(w_o, order, np.minimum(w_s, np.maximum(left, 0.0)), axis=1)
        widths[over] = w_o
    return centers.reshape(idx.shape), widths.reshape(idx.shape), rss.reshape(idx.shape)


def _rate_terms(widths, rss, noise_psd):
    """Per-channel rates width * log2(1 + max(rss, 0)/noise) [bit/s]."""
    if not 0 < noise_psd < np.inf:
        raise ValueError(f"noise_psd must be finite and > 0, got {noise_psd}")
    return widths * np.log2(1.0 + np.maximum(rss, 0.0) / noise_psd)


def _score_rows(widths, rss, noise_psd):
    """Rate objective of every row of channel widths and center RSS, over
    the last axis: the sum of its live channels' rate terms [bit/s]. Each
    row is summed over its live channels only, because numpy's pairwise
    sum depends on the length of what it adds."""
    terms = _rate_terms(widths, rss, noise_psd)
    live = widths > 0
    n_live = live.sum(axis=-1)
    packed = np.take_along_axis(terms, np.argsort(~live, axis=-1, kind="stable"), axis=-1)
    scores = np.zeros(n_live.shape)
    for n in np.unique(n_live[n_live > 0]):
        rows = n_live == n
        scores[rows] = packed[rows, :n].sum(axis=-1)
    return scores


def plan_rate(plan: SubchannelPlan, grid: GridRss, noise_psd):
    """Rate objective of one plan, its centers looked up on the grid."""
    rss = grid.values[grid.index_of(plan.centers)]
    return float(_score_rows(plan.widths[None], rss[None], noise_psd)[0])


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


def ce_batch(grids, cfg: CEConfig, rngs, *, eps_db, total_budget, noise_psd):
    """Run one cross-entropy loop per grid, in lockstep, and build each
    run's plan from its final means. Returns one `CEResult` per grid.

    The grids share one band and step (a `ValueError` otherwise). Each run
    keeps its own grid, generator, Gaussians and incumbent: its means start
    evenly spread over the band with a wide common variance, and each
    iteration draws its samples from its own generator as a run on its own
    would. The state is a set of arrays with runs on the leading axis, so
    the plans of every run's samples are built and scored in one batch on
    one width table, and one smoothed refit and one masked incumbent
    update serve every run. The incumbent is the run's best sampled plan,
    or its final plan where that scores strictly higher; the objective
    traces come along as diagnostics. Each result equals `ce_optimize` on
    its grid and generator bit for bit. A bad keyword value raises a
    `ValueError` naming it.
    """
    if not 0 <= eps_db < np.inf:
        raise ValueError(f"eps_db must be finite and >= 0, got {eps_db}")
    if not 0 < total_budget < np.inf:
        raise ValueError(f"total_budget must be finite and > 0, got {total_budget}")
    k, n = len(grids), cfg.n_sub
    if not k:
        return []
    table = _WidthTable(grids, eps_db, total_budget)
    lo, hi = band = grids[0].band
    means = np.tile(lo + (np.arange(1, n + 1) - 0.5) * (hi - lo) / n, (k, 1))
    variances = np.full((k, n), 16.0 * (hi - lo) ** 2 / n**2)
    best_per_iter = np.empty((k, cfg.max_iter))
    incumbent_trace = np.empty((k, cfg.max_iter))
    inc_centers, inc_widths, inc_value = np.zeros((k, n)), np.zeros((k, n)), np.full(k, -np.inf)
    for t in range(cfg.max_iter):
        samples = np.stack([_sample_centers(mu, std, cfg, band, rng)
                            for mu, std, rng in zip(means, np.sqrt(variances), rngs)])
        centers, widths, rss = _plan_rows(table, table.snap(samples), total_budget)
        scores = _score_rows(widths, rss, noise_psd)  # (runs, samples)
        best = np.argmax(scores, axis=1)
        best_per_iter[:, t] = scores.max(axis=1)
        won = best_per_iter[:, t] > inc_value
        inc_centers[won], inc_widths[won] = centers[won, best[won]], widths[won, best[won]]
        inc_value = incumbent_trace[:, t] = np.where(won, best_per_iter[:, t], inc_value)
        order = np.argsort(-scores, axis=1, kind="stable")[:, : cfg.elites]
        elites = np.take_along_axis(samples, order[:, :, None], axis=1)
        beta_t = variance_smoothing(cfg.smooth_var, cfg.smooth_power, t)
        means = cfg.smooth_mean * elites.mean(axis=1) + (1.0 - cfg.smooth_mean) * means
        variances = beta_t * elites.var(axis=1) + (1.0 - beta_t) * variances
        variances = np.maximum(variances, cfg.step**2)  # keep the sampler proper
    idx = table.snap(means)[:, None]
    centers, widths, rss = (a[:, 0] for a in _plan_rows(table, idx, total_budget))
    finals = _score_rows(widths, rss, noise_psd)
    won = finals > inc_value
    inc_centers[won], inc_widths[won], inc_value[won] = centers[won], widths[won], finals[won]
    return [CEResult(
        plan=SubchannelPlan(centers[j], widths[j], total_budget),
        plan_value=float(finals[j]),
        incumbent_plan=SubchannelPlan(inc_centers[j], inc_widths[j], total_budget),
        incumbent_value=float(inc_value[j]),
        best_per_iter=best_per_iter[j],
        incumbent_trace=incumbent_trace[j],
        means=means[j],
    ) for j in range(k)]


def ce_optimize(grid: GridRss, cfg: CEConfig, rng, *, eps_db, total_budget, noise_psd):
    """Run the cross-entropy loop over `grid.band` and build the plan from
    the final means: the one-grid case of `ce_batch`."""
    (result,) = ce_batch([grid], cfg, [rng], eps_db=eps_db, total_budget=total_budget,
                         noise_psd=noise_psd)
    return result


def plan_records(plan: SubchannelPlan, grid: GridRss, noise_psd):
    """Serialize a plan to (index, center_Hz, width_Hz, rss_W_per_Hz,
    rate_bps) records for machine-readable output, RSS read on the grid
    (0 for an unused slot)."""
    rss = np.where(plan.widths > 0, grid.values[grid.index_of(plan.centers)], 0.0)
    columns = (plan.centers, plan.widths, rss, _rate_terms(plan.widths, rss, noise_psd))
    return [
        {"index": i, "center_hz": c, "width_hz": w, "rss_w_per_hz": g, "rate_bps": r}
        for i, (c, w, g, r) in enumerate(zip(*(col.tolist() for col in columns)))
    ]
