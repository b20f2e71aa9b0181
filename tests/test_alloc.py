import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfthz import alloc, phy, selection, sim
from cfthz.alloc import (
    CEConfig,
    GridRss,
    Subchannel,
    SubchannelPlan,
    ce_optimize,
    integrated_rate,
    plan_rate,
    variance_smoothing,
)
from cfthz.phy import AntennaConfig
from cfthz.selection import AccessPoint
from oracles import link_rss, sampled_grid

BAND = (100e9, 300e9)
STEP = 10e6
NOISE = phy.dbm_per_hz_to_w_per_hz(-168.0)
GAMMA_TH = phy.dbm_per_hz_to_w_per_hz(-174.5)
P = 1.0 / 16e9
CFG = AntennaConfig(f_co=100e9)

# single-AP reference scenario (theta = 40 deg, d = 20 m); the coherence
# width at 150 GHz was frozen from an exhaustive 1 MHz scan (5056 MHz)
ORACLE_AP = AccessPoint(0, 20.0, np.radians(40.0))
ORACLE_FINE_WIDTH = 5056e6


def oracle_rss(f):
    return link_rss(f, ORACLE_AP, P, CFG)


def flat_rss(level=1e-19):
    return lambda f: level * np.ones_like(np.asarray(f, dtype=float))


# Chunk length of the reference bandwidth search's expanding scan.
_SEARCH_CHUNK = 128


def _edge_pair_ok(g_lo, g_hi, eps_db):
    """C3 check on one pair of edge values; a dead edge stops expansion."""
    dead = (g_lo <= 0) | (g_hi <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.abs(10.0 * np.log10(g_lo) - 10.0 * np.log10(g_hi))
    flat = diff == 0.0
    return ~dead & (flat | (diff < eps_db))


def coherence_search(rss_fn, center, eps_db, band, step, max_width=None):
    """Reference bandwidth search against any RSS callable: the largest grid
    width 2k*step whose edges stay in band and satisfy the edge-to-edge dB
    flatness bound, i.e. the value preceding the first violation. A zero
    RSS at the center marks a dead subchannel (width 0). The width table
    behind `alloc._grid_widths` must match it at every grid index.
    """
    lo_b, hi_b = band
    if not lo_b <= center <= hi_b:
        raise ValueError(f"center {center} outside band [{lo_b}, {hi_b}]")
    if float(rss_fn(center)) <= 0.0:
        return 0.0
    k_max = int(min((center - lo_b), (hi_b - center)) / step + 1e-9)
    if max_width is not None:
        k_max = min(k_max, int(max_width / (2 * step) + 1e-9))
    k = 1
    while k <= k_max:
        ks = np.arange(k, min(k + _SEARCH_CHUNK, k_max + 1))
        g_lo = np.atleast_1d(rss_fn(center - ks * step))
        g_hi = np.atleast_1d(rss_fn(center + ks * step))
        ok = _edge_pair_ok(g_lo, g_hi, eps_db)
        if not ok.all():
            first_bad = ks[int(np.argmin(ok))]
            return 2.0 * (first_bad - 1) * step
        k = ks[-1] + 1
    return 2.0 * k_max * step


def resolve_overlaps(raw, rss_fn, reflatten=None):
    """Reference overlap resolution: make the channels pairwise disjoint,
    resolving each overlap in favor of the channel with the larger RSS at
    its center (lower index on ties).

    The loser keeps the part of its interval on its center's side of the
    winner's edge; a loser whose center falls inside a winner gets width 0.
    With `reflatten = (eps_db, max_width)` and a `GridRss` as `rss_fn`,
    every clipped channel is then shrunk about the grid point nearest its
    midpoint to the widest half-width that `coherence_search` admits there
    and that fits inside what it kept, so its edges are a flat pair again.
    Output order matches the input order.
    """
    raw = list(raw)
    center_rss = np.asarray(rss_fn(np.array([ch.center for ch in raw])), dtype=float)
    order = sorted(range(len(raw)), key=lambda j: (-center_rss[j], j))
    claimed = []  # disjoint (lo, hi) intervals of already-placed winners
    kept = [None] * len(raw)  # each channel's (lo, hi) after clipping
    for j in order:
        lo, hi = raw[j].low, raw[j].high
        center = raw[j].center
        if raw[j].width > 0:
            for c_lo, c_hi in claimed:
                if c_hi <= lo or c_lo >= hi:
                    continue
                if c_lo < center < c_hi:
                    lo = hi = center  # fully displaced
                    break
                if center <= c_lo:
                    hi = min(hi, c_lo)
                else:
                    lo = max(lo, c_hi)
        if hi - lo > 0:
            claimed.append((lo, hi))
            kept[j] = (lo, hi)
    resolved = []
    for ch, interval in zip(raw, kept):
        lo, hi = interval or (ch.center, ch.center)
        if reflatten is not None and interval is not None and interval != (ch.low, ch.high):
            grid = rss_fn
            f_m = grid.freqs[grid.index_of((lo + hi) / 2.0)]
            fit = np.floor(min(f_m - lo, hi - f_m) / grid.step + 1e-9) * grid.step
            half = min(coherence_search(grid, f_m, reflatten[0], grid.band, grid.step,
                                        max_width=reflatten[1]) / 2.0, fit)
            lo, hi = f_m - half, f_m + half
        if hi - lo > 0:
            resolved.append(Subchannel((lo + hi) / 2.0, hi - lo))
        else:
            resolved.append(Subchannel(ch.center, 0.0))
    return resolved


def build_plan(grid, centers, eps_db, total_budget):
    """The plan of one row of candidate centers, snapped to the grid: the
    one-row case of `alloc._plan_rows`."""
    idx = grid.index_of(np.asarray(centers, dtype=float)).reshape(1, -1)
    c, w = alloc._plan_rows(grid, idx, eps_db, total_budget)
    return alloc._row_plan(c[0], w[0], total_budget)


def trim_to_budget(plan, rss_fn):
    """Reference budget trim: grant budget in descending center-RSS order;
    the channel at the boundary is trimmed symmetrically about its center
    and weaker ones are dropped. A plan within budget is returned as is."""
    chans = list(plan.channels)
    if sum(ch.width for ch in chans) <= plan.total_budget:
        return plan
    g = np.asarray(rss_fn(np.array([ch.center for ch in chans])), dtype=float)
    order = sorted(range(len(chans)), key=lambda j: (-g[j], j))
    remaining = plan.total_budget
    out = list(chans)
    for j in order:
        take = min(chans[j].width, max(remaining, 0.0))
        if take < chans[j].width:
            out[j] = Subchannel(chans[j].center, take)
        remaining -= take
    return SubchannelPlan(tuple(out), plan.total_budget)


def scalar_plan_rate(plan, rss_fn, noise_psd):
    """Reference rate objective: sum of width * log2(1 + rss(center)/noise)
    over the live channels [bit/s]."""
    if noise_psd <= 0:
        raise ValueError(f"noise_psd must be > 0, got {noise_psd}")
    live = [ch for ch in plan.channels if ch.width > 0]
    if not live:
        return 0.0
    g = np.asarray(rss_fn(np.array([ch.center for ch in live])), dtype=float)
    widths = np.array([ch.width for ch in live])
    return float(np.sum(widths * np.log2(1.0 + np.maximum(g, 0.0) / noise_psd)))


def scalar_chain(grid, idx_row, eps_db, total_budget, noise_psd):
    """Reference plan of one row of grid indices: `coherence_search` per
    center, then `resolve_overlaps` with the flatness post-pass,
    `trim_to_budget` and `scalar_plan_rate`."""
    raw = [
        Subchannel(c, coherence_search(grid, c, eps_db, grid.band, grid.step,
                                       max_width=total_budget))
        for c in grid.freqs[idx_row]
    ]
    resolved = SubchannelPlan(
        tuple(resolve_overlaps(raw, grid, reflatten=(eps_db, total_budget))), total_budget
    )
    plan = trim_to_budget(resolved, grid)
    return plan, scalar_plan_rate(plan, grid, noise_psd)


def reference_draw(means, variances, cfg, band, rng):
    """Reference CE sample draw: one Gaussian draw per (sample, subchannel),
    out-of-band entries redrawn in row-major order (at most 50 rounds),
    then clamped to the band."""
    lo, hi = band
    std = np.sqrt(variances)
    x = rng.normal(means, std, size=(cfg.samples, cfg.n_sub))
    mean_grid, std_grid = np.tile(means, (cfg.samples, 1)), np.tile(std, (cfg.samples, 1))
    for _ in range(50):
        out = (x < lo) | (x > hi)
        if not out.any():
            break
        x[out] = rng.normal(mean_grid[out], std_grid[out])
    return np.clip(x, lo, hi)


def reference_ce(grid, cfg, rng, eps_db, total_budget, noise_psd):
    """Reference CE loop: every sample's plan is built and rated one at a
    time by `scalar_chain`, the elites are the best `cfg.elites` samples
    (lower sample index on ties), and the Gaussians are refit with the
    smoothed MLE updates and the step**2 variance floor. The incumbent is
    the first best sample, or the final plan where that rates strictly
    higher. Returns a dict of everything a `CEResult` carries, plus the
    final variances."""
    lo, hi = grid.band
    n = cfg.n_sub
    means = lo + (np.arange(1, n + 1) - 0.5) * (hi - lo) / n
    variances = np.full(n, 16.0 * (hi - lo) ** 2 / n**2)
    best_per_iter, incumbent_trace = [], []
    inc_plan, inc_value = None, -np.inf
    for t in range(cfg.max_iter):
        samples = reference_draw(means, variances, cfg, grid.band, rng)
        rated = [scalar_chain(grid, grid.index_of(row), eps_db, total_budget, noise_psd)
                 for row in samples]
        rates = [rate for _, rate in rated]
        best = max(range(len(rated)), key=lambda j: (rates[j], -j))
        if rates[best] > inc_value:
            inc_plan, inc_value = rated[best]
        best_per_iter.append(rates[best])
        incumbent_trace.append(inc_value)
        order = sorted(range(len(rated)), key=lambda j: (-rates[j], j))
        elites = samples[order[: cfg.elites]]
        beta_t = variance_smoothing(cfg.smooth_var, cfg.smooth_power, t)
        alpha = cfg.smooth_mean
        means = alpha * elites.mean(axis=0) + (1.0 - alpha) * means
        variances = beta_t * elites.var(axis=0) + (1.0 - beta_t) * variances
        variances = np.maximum(variances, cfg.step**2)
    plan, value = scalar_chain(grid, grid.index_of(means), eps_db, total_budget, noise_psd)
    if value > inc_value:
        inc_plan, inc_value = plan, value
    return dict(plan=plan, plan_value=value, incumbent_plan=inc_plan,
                incumbent_value=inc_value, best_per_iter=np.array(best_per_iter),
                incumbent_trace=np.array(incumbent_trace), means=means,
                variances=variances)


def assert_equals_reference_ce(res, ref):
    """A `CEResult` equals the reference loop's output bit for bit."""
    for name in ("best_per_iter", "incumbent_trace", "means"):
        assert np.asarray(getattr(res, name)).tobytes() == ref[name].tobytes(), name
    for name in ("plan", "incumbent_plan"):
        got, want = plan_arrays(getattr(res, name)), plan_arrays(ref[name])
        assert got[0].tobytes() == want[0].tobytes(), name
        assert got[1].tobytes() == want[1].tobytes(), name
    for name in ("plan_value", "incumbent_value"):
        assert np.float64(getattr(res, name)).tobytes() == np.float64(ref[name]).tobytes(), name


def assert_rows_equal_scalar_chain(grid, idx, eps_db, total_budget):
    """The batched kernel's centers, widths and scores equal the scalar
    chain's byte for byte, row by row."""
    centers, widths = alloc._plan_rows(grid, idx, eps_db, total_budget)
    scores = alloc._score_rows(grid, centers, widths, NOISE)
    for s in range(idx.shape[0]):
        plan, rate = scalar_chain(grid, idx[s], eps_db, total_budget, NOISE)
        c_ref, w_ref = plan_arrays(plan)
        assert centers[s].tobytes() == c_ref.tobytes()
        assert widths[s].tobytes() == w_ref.tobytes()
        assert scores[s].tobytes() == np.float64(rate).tobytes()


def plan_arrays(plan):
    return (
        np.array([ch.center for ch in plan.channels], dtype=float),
        np.array([ch.width for ch in plan.channels], dtype=float),
    )


def gated_link_grid(step=200e6):
    """One link gated at its median RSS: about half the band is dead."""
    ap = AccessPoint(0, 12.0, np.radians(55.0))
    freqs = np.arange(BAND[0], BAND[1] + step / 2, step)
    gamma = float(np.median(link_rss(freqs, ap, P, CFG)))
    link = (selection.select_nearest([ap]), np.add)
    return sampled_grid(lambda f: selection.combined_rss_rows([link], [ap], f, P, CFG, gamma)[0],
                        BAND, step)


def dead_end_grid():
    """Flat except a dead last point: searches below the middle end on the
    band edge, the others one step before the dead pair."""
    values = np.full(301, 1e-19)
    values[-1] = 0.0
    return GridRss(values, (100e9, 103e9), 10e6)


def plateau_grid():
    """Exactly flat plateaus, a 0.2 dB step, 3 dB steps and dead stretches."""
    levels = [1e-19, 1e-19, 0.0, 2e-19, 1.05e-19, 0.0, 0.0, 1e-19, 4e-19, 1e-19]
    values = np.repeat(levels, 37)[:361]
    return GridRss(values, (0.0, 120.0), 1.0 / 3.0)


class TestCoherenceSearch:
    def test_flat_function_is_band_limited(self):
        w = coherence_search(flat_rss(), 150e9, 0.5, BAND, STEP)
        assert w == pytest.approx(2 * (150e9 - 100e9))  # limited by the lower edge

    def test_flat_function_with_zero_eps_still_band_limited(self):
        w = coherence_search(flat_rss(), 150e9, 0.0, BAND, STEP)
        assert w == pytest.approx(100e9)

    def test_zero_eps_nonflat_gives_zero(self):
        assert coherence_search(oracle_rss, 150e9, 0.0, BAND, STEP) == 0.0

    def test_dead_center_gives_zero(self):
        assert coherence_search(lambda f: 0.0 * np.asarray(f), 150e9, 0.5, BAND, STEP) == 0.0

    def test_matches_fine_grid_oracle(self):
        w = coherence_search(oracle_rss, 150e9, 0.5, BAND, STEP)
        assert abs(w - ORACLE_FINE_WIDTH) <= 2 * STEP

    def test_center_outside_band_rejected(self):
        with pytest.raises(ValueError):
            coherence_search(flat_rss(), 99e9, 0.5, BAND, STEP)

    def test_max_width_cap(self):
        w = coherence_search(flat_rss(), 150e9, 0.5, BAND, STEP, max_width=1e9)
        assert w == pytest.approx(1e9)

    def test_grid_path_agrees_with_generic(self):
        grid = sampled_grid(oracle_rss, BAND, STEP)
        centers = grid.freqs[grid.index_of(np.array([120e9, 150e9, 222e9, 280e9]))]
        widths_grid = alloc._grid_widths(grid, grid.index_of(centers), 0.5)
        widths_gen = [coherence_search(oracle_rss, c, 0.5, BAND, STEP) for c in centers]
        np.testing.assert_allclose(widths_grid, widths_gen)


@st.composite
def width_table_cases(draw):
    """Random grids for the width table, and the lazy chunks of indices it
    is filled in (repeats included): smooth single and double peaks, whose
    mirrored edges stay within eps_db long after the window about a center
    spans more (the scan's long residuals); exact plateaus from a dB
    quantum; dead stretches and runs of inf; eps_db 0, 0.5 or random; no
    cap or a few steps."""
    n = draw(st.integers(3, 400))
    x = np.arange(n, dtype=float)
    db = np.zeros(n)
    for _ in range(draw(st.integers(1, 2))):
        mu, width = draw(st.floats(0.0, n - 1.0)), draw(st.floats(1.0, float(n)))
        db += draw(st.floats(-30.0, 30.0)) * np.exp(-0.5 * ((x - mu) / width) ** 2)
    quantum = draw(st.sampled_from([0.0, 0.1, 1.0]))
    if quantum:
        db = np.round(db / quantum) * quantum
    values = 1e-19 * 10.0 ** (db / 10.0)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, 30))] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, 4))] = np.inf
    eps_db = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.01, 3.0))
    cap = draw(st.none() | st.integers(1, 12))
    order = np.array(draw(st.permutations(range(n))))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    chunks = [np.concatenate([part, part[: len(part) // 3]])
              for part in np.split(order, cuts) if part.size]
    return GridRss(values, (0.0, n - 1.0), 1.0), eps_db, cap, chunks


class TestGridWidthTable:
    @pytest.mark.parametrize("make_grid", [gated_link_grid, plateau_grid, dead_end_grid])
    @pytest.mark.parametrize("eps_db", [0.0, 0.5])
    @pytest.mark.parametrize("cap_steps", [None, 13, 65])
    def test_matches_coherence_search_at_every_index(self, make_grid, eps_db, cap_steps):
        grid = make_grid()
        max_width = None if cap_steps is None else 2 * cap_steps * grid.step
        assert np.any(grid.values <= 0) and np.any(grid.values > 0)
        got = alloc._grid_widths(grid, np.arange(grid.freqs.size), eps_db, max_width)
        expected = [
            coherence_search(grid, c, eps_db, grid.band, grid.step, max_width=max_width)
            for c in grid.freqs
        ]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_repeated_and_overlapping_calls_scan_only_new_indices(self, monkeypatch):
        grid = gated_link_grid()
        scanned = []
        scan = alloc._scan_half_widths

        def recording_scan(grid, idx, eps_db, cap):
            scanned.append(idx.tolist())
            return scan(grid, idx, eps_db, cap)

        monkeypatch.setattr(alloc, "_scan_half_widths", recording_scan)
        first = alloc._grid_widths(grid, np.array([700, 5, 300, 5]), 0.5, 16e9)
        second = alloc._grid_widths(grid, np.array([300, 900, 700, 5]), 0.5, 16e9)
        third = alloc._grid_widths(grid, np.array([900, 300]), 0.5, 16e9)
        assert scanned == [[5, 300, 700], [900]]
        assert second.tolist() == [first[2], third[0], first[0], first[1]]
        assert third.tolist() == [second[1], second[0]]

    def test_two_caps_keep_separate_tables(self):
        grid = sampled_grid(flat_rss(), BAND, STEP)
        idx = grid.index_of(np.array([150e9, 200e9]))
        capped = alloc._grid_widths(grid, idx, 0.5, max_width=1e9)
        free = alloc._grid_widths(grid, idx, 0.5)
        assert capped.tolist() == [1e9, 1e9]
        assert free.tolist() == [100e9, 200e9]
        assert sorted(grid.k_tables, key=str) == [(0.5, 50), (0.5, None)]
        np.testing.assert_array_equal(alloc._grid_widths(grid, idx, 0.5, max_width=1e9), capped)

    def test_no_runtime_warning(self):
        grid = plateau_grid()
        grid.values[[3, 200]] = np.inf  # edges with inf - inf in dB
        grid.db[[3, 200]] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eps_db in (0.0, 0.5):
                alloc._grid_widths(grid, np.arange(grid.freqs.size), eps_db)

    @settings(max_examples=150, deadline=None)
    @given(case=width_table_cases())
    def test_lazy_fill_matches_coherence_search(self, case):
        grid, eps_db, cap, chunks = case
        max_width = None if cap is None else 2 * cap * grid.step
        expected = np.array([
            coherence_search(grid, c, eps_db, grid.band, grid.step, max_width=max_width)
            for c in grid.freqs
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for chunk in chunks:
                got = alloc._grid_widths(grid, chunk, eps_db, max_width)
                assert got.tobytes() == expected[chunk].tobytes()
            got = alloc._grid_widths(grid, np.arange(grid.freqs.size), eps_db, max_width)
            radii = alloc._flat_radii(grid, eps_db, cap)
        assert got.tobytes() == expected.tobytes()
        # the certificate itself: each certified window is live and flat
        n = grid.freqs.size
        assert np.all(radii <= np.minimum(np.arange(n), n - 1 - np.arange(n)))
        assert cap is None or np.all(radii <= cap)
        for i in np.flatnonzero(radii):
            window = grid.db[i - radii[i] : i + radii[i] + 1]
            assert np.all(grid.values[i - radii[i] : i + radii[i] + 1] > 0)
            span = window.max() - window.min()
            assert span < eps_db or span == 0.0, (i, radii[i], span)
        # and at the indices it searches, it is within 3 steps of the widest
        # flat window: 4 steps wider leaves the band or the cap, or holds a
        # non-finite point, or is not flat
        for i in range(0, n, alloc._CERT_STRIDE):
            r = radii[i] + 4
            if r <= min(i, n - 1 - i) and (cap is None or r <= cap):
                window = grid.db[i - r : i + r + 1]
                if np.isfinite(window).all():
                    span = window.max() - window.min()
                    assert not (span < eps_db or span == 0.0), (i, radii[i], span)


@st.composite
def kernel_cases(draw):
    """Random grids and center rows for the batched plan kernel: exact RSS
    ties from a few levels, dead centers (width 0), plateaus of different
    lengths (nested and contained intervals), repeated centers, and budgets
    from a fraction of one channel to far above the total."""
    band0, step = draw(st.sampled_from([(100e9, 10e6), (7.3, 0.1), (0.0, 1.0 / 3.0)]))
    levels = [0.0, 1e-19, 1.05e-19, 2e-19, 4e-19]
    runs = draw(st.lists(st.tuples(st.integers(1, 40), st.sampled_from(levels)),
                         min_size=1, max_size=10))
    values = np.concatenate([np.full(n, v) for n, v in runs])
    if values.size < 3:
        values = np.resize(values, 3)
    n = values.size
    grid = GridRss(values, (band0, band0 + step * (n - 1)), step)
    assert grid.freqs.size == n
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    n_sub = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 6))
    idx = np.array(draw(st.lists(st.sampled_from(pool), min_size=rows * n_sub,
                                 max_size=rows * n_sub))).reshape(rows, n_sub)
    budget = draw(st.floats(0.25, 3.0 * n)) * step
    eps_db = draw(st.sampled_from([0.0, 0.5]))
    return grid, idx, eps_db, budget


class TestPlanKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_rows_equal_scalar_chain_bitwise(self, case):
        assert_rows_equal_scalar_chain(*case)

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_rows_are_flat_plans(self, case):
        # clipped and trimmed channels included: every live channel's
        # edges are a flat pair on the grid
        grid, idx, eps_db, budget = case
        centers, widths = alloc._plan_rows(grid, idx, eps_db, budget)
        for c, w in zip(centers, widths):
            assert_flat_plan(alloc._row_plan(c, w, budget), grid, eps_db)

    @pytest.mark.parametrize("band0, step", [(7.3, 0.1), (0.0, 1.0 / 3.0)])
    def test_rows_equal_scalar_chain_on_inexact_grids(self, band0, step):
        # grid frequencies that are not exact in binary make the midpoints
        # and the running budget remainder round; a fixed seed keeps the
        # rounding cases in every run
        rng = np.random.default_rng(12)
        values = np.repeat(rng.choice([0.0, 1e-19, 1.05e-19, 2e-19], 40), rng.integers(1, 30, 40))
        grid = GridRss(values, (band0, band0 + step * (values.size - 1)), step)
        assert grid.freqs.size == values.size
        idx = rng.integers(0, values.size, size=(400, 8))
        for budget in (3.3, 40.0, 1e3):
            assert_rows_equal_scalar_chain(grid, idx, 0.5, budget * step)

    def test_plan_exactly_at_budget_is_not_trimmed(self):
        # the budget test sums widths in index order, as trim_to_budget
        # does; a pairwise or rank-order total can round past the budget
        rng = np.random.default_rng(13)
        values = np.repeat(rng.choice([1e-19, 1.05e-19, 2e-19], 60), rng.integers(20, 60, 60))
        grid = GridRss(values, (7.3, 7.3 + 0.1 * (values.size - 1)), 0.1)
        for row in rng.integers(0, values.size, size=(300, 12)):
            _, untrimmed = alloc._plan_rows(grid, row[None, :], 0.5, 1e9)
            budget = np.cumsum(untrimmed[0])[-1]
            _, widths = alloc._plan_rows(grid, row[None, :], 0.5, budget)
            plan, _ = scalar_chain(grid, row, 0.5, budget, NOISE)
            assert widths[0].tobytes() == untrimmed[0].tobytes() == plan_arrays(plan)[1].tobytes()

    def test_center_on_a_claimed_edge_keeps_its_outer_side(self):
        # the strong channel at 50 spans [15, 85]; the weaker one centered
        # on its low edge keeps [0, 15], as the scalar chain decides, and
        # is then shrunk to [1, 15], the flat pair about grid point 8
        values = np.full(121, 1e-19)
        values[50], values[86] = 2e-19, 4e-19
        grid = GridRss(values, (0.0, 120.0), 1.0)
        idx = np.array([[15, 50]])
        centers, widths = alloc._plan_rows(grid, idx, 0.5, 1e3)
        assert widths.tolist() == [[14.0, 70.0]]
        assert centers.tolist() == [[8.0, 50.0]]
        plan, _ = scalar_chain(grid, idx[0], 0.5, 1e3, NOISE)
        assert plan_arrays(plan)[1].tolist() == [14.0, 70.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_ce_iterate_best_plan_is_scalar_build_of_best_sample(self, seed):
        # one CE iteration: its best sample's plan, built by the scalar
        # chain, is the incumbent unless the final plan rates higher
        grid = sampled_grid(oracle_rss, BAND, 50e6)
        cfg = CEConfig(n_sub=12, samples=25, elites=5, max_iter=1, step=50e6)
        means = 100e9 + (np.arange(12) + 0.5) * 200e9 / 12
        samples = reference_draw(means, np.full(12, 16.0 * (200e9 / 12) ** 2), cfg, BAND,
                                 np.random.default_rng(seed))
        res = ce_optimize(grid, cfg, np.random.default_rng(seed),
                          eps_db=0.5, total_budget=16e9, noise_psd=NOISE)
        ref_plan, ref_best = None, -np.inf
        for row in samples:
            plan, rate = scalar_chain(grid, grid.index_of(row), 0.5, 16e9, NOISE)
            if rate > ref_best:
                ref_plan, ref_best = plan, rate
        assert res.best_per_iter[0] == res.incumbent_trace[0] == ref_best
        if res.plan_value > ref_best:
            assert (res.incumbent_plan, res.incumbent_value) == (res.plan, res.plan_value)
        else:
            assert (res.incumbent_plan, res.incumbent_value) == (ref_plan, ref_best)

    def test_build_plan_is_one_kernel_row(self):
        grid = sampled_grid(oracle_rss, BAND, STEP)
        centers = np.random.default_rng(11).uniform(105e9, 295e9, 30)
        plan = build_plan(grid, centers, 0.5, 16e9)
        assert plan == scalar_chain(grid, grid.index_of(centers), 0.5, 16e9, NOISE)[0]
        assert build_plan(grid, [], 0.5, 16e9).channels == ()


class TestResolveOverlaps:
    def test_disjoint_passthrough(self):
        raw = [Subchannel(110e9, 2e9), Subchannel(150e9, 4e9)]
        out = resolve_overlaps(raw, flat_rss())
        assert out == raw

    def test_equal_rss_tie_lower_index_wins(self):
        raw = [Subchannel(150e9, 4e9), Subchannel(150e9, 4e9)]
        out = resolve_overlaps(raw, flat_rss())
        assert out[0].width == pytest.approx(4e9)
        assert out[1].width == 0.0

    def test_winner_keeps_interval_loser_truncated(self):
        rss = lambda f: np.where(np.asarray(f) < 150e9, 2e-19, 1e-19)
        raw = [Subchannel(149e9, 2e9), Subchannel(150.5e9, 2e9)]  # overlap on [149.5, 150]
        out = resolve_overlaps(raw, rss)
        assert out[0] == raw[0]  # larger center RSS: untouched
        assert out[1].low == pytest.approx(150e9)
        assert out[1].high == pytest.approx(151.5e9)

    def test_three_way_against_pairwise_oracle(self):
        # descending-RSS pairwise resolution done by hand:
        # rss ranks ch1 > ch0 > ch2
        levels = {110e9: 1e-19, 111e9: 3e-19, 112e9: 0.5e-19}

        def rss(f):
            f = np.asarray(f, dtype=float)
            out = np.zeros_like(f)
            for c, v in levels.items():
                out = np.where(np.abs(f - c) < 0.75e9, v, out)
            return out

        raw = [Subchannel(110e9, 2e9), Subchannel(111e9, 2e9), Subchannel(112e9, 2e9)]
        out = resolve_overlaps(raw, rss)
        # ch1 keeps [110, 112]; ch0 truncated to [109, 110]; ch2 to [112, 113]
        assert (out[1].low, out[1].high) == (pytest.approx(110e9), pytest.approx(112e9))
        assert (out[0].low, out[0].high) == (pytest.approx(109e9), pytest.approx(110e9))
        assert (out[2].low, out[2].high) == (pytest.approx(112e9), pytest.approx(113e9))

    def test_fully_covered_loser_zeroed(self):
        rss = lambda f: np.where(np.abs(np.asarray(f) - 150e9) < 3e9, 2e-19, 1e-19)
        raw = [Subchannel(150e9, 8e9), Subchannel(150.5e9, 1e9)]
        out = resolve_overlaps(raw, rss)
        assert out[1].width == 0.0

    def test_output_always_disjoint(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = [
                Subchannel(rng.uniform(105e9, 295e9), rng.uniform(0, 10e9))
                for _ in range(8)
            ]
            out = resolve_overlaps(raw, oracle_rss)
            SubchannelPlan(tuple(out), 1e12).validate()


class TestTrimToBudget:
    def test_under_budget_unchanged(self):
        plan = SubchannelPlan((Subchannel(150e9, 4e9),), total_budget=8e9)
        assert trim_to_budget(plan, flat_rss()) is plan

    def test_strong_kept_whole_boundary_trimmed_weak_dropped(self):
        rss = lambda f: np.where(
            np.asarray(f) < 130e9, 3e-19, np.where(np.asarray(f) < 170e9, 2e-19, 1e-19)
        )
        plan = SubchannelPlan(
            (Subchannel(120e9, 4e9), Subchannel(150e9, 4e9), Subchannel(200e9, 4e9)),
            total_budget=6e9,
        )
        out = trim_to_budget(plan, rss)
        assert out.channels[0] == plan.channels[0]
        assert out.channels[1].center == 150e9
        assert out.channels[1].width == pytest.approx(2e9)
        assert out.channels[2].width == 0.0

    def test_equal_rss_tie_grants_lower_index_first(self):
        plan = SubchannelPlan(
            (Subchannel(150e9, 4e9), Subchannel(200e9, 4e9)), total_budget=4e9
        )
        out = trim_to_budget(plan, flat_rss())
        assert out.channels[0].width == pytest.approx(4e9)
        assert out.channels[1].width == 0.0

    def test_fuzz_preserves_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(1, 10)
            edges = np.sort(rng.uniform(100e9, 300e9, 2 * n))
            channels = tuple(
                Subchannel((lo + hi) / 2, hi - lo)
                for lo, hi in zip(edges[::2], edges[1::2])
            )
            plan = SubchannelPlan(channels, total_budget=rng.uniform(1e9, 50e9))
            out = trim_to_budget(plan, oracle_rss)
            out.validate(BAND)
            expect = min(plan.total_budget, plan.total_width)
            assert out.total_width == pytest.approx(expect)
            # every channel keeps its center and never grows
            for before, after in zip(plan.channels, out.channels):
                assert after.center == before.center
                assert after.width <= before.width + 1e-6


class TestRates:
    def test_empty_plan(self):
        assert scalar_plan_rate(SubchannelPlan((), 16e9), flat_rss(), NOISE) == 0.0

    def test_unit_snr_channel(self):
        plan = SubchannelPlan((Subchannel(150e9, 1e9),), 16e9)
        assert scalar_plan_rate(plan, flat_rss(NOISE), NOISE) == pytest.approx(1e9)

    def test_term_by_term(self):
        plan = SubchannelPlan(
            (Subchannel(120e9, 1e9), Subchannel(180e9, 2e9), Subchannel(250e9, 0.0)),
            16e9,
        )
        expected = sum(
            ch.width * np.log2(1 + oracle_rss(ch.center) / NOISE)
            for ch in plan.channels
            if ch.width > 0
        )
        assert scalar_plan_rate(plan, oracle_rss, NOISE) == pytest.approx(expected)

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_plan_rate(SubchannelPlan((), 1e9), flat_rss(), 0.0)
        with pytest.raises(ValueError):
            integrated_rate(SubchannelPlan((), 1e9), sampled_grid(flat_rss(), BAND, STEP), -1.0)

    def test_integrated_equals_plan_rate_when_flat(self):
        plan = SubchannelPlan((Subchannel(150e9, 3e9), Subchannel(200e9, 5e9)), 16e9)
        pr = scalar_plan_rate(plan, flat_rss(), NOISE)
        ir = integrated_rate(plan, sampled_grid(flat_rss(), BAND, STEP), NOISE)
        assert ir == pytest.approx(pr, rel=1e-9)

    def test_integrated_grid_refinement(self):
        plan = SubchannelPlan((Subchannel(150e9, 4e9),), 16e9)
        coarse = integrated_rate(plan, sampled_grid(oracle_rss, BAND, STEP), NOISE)
        fine = integrated_rate(plan, sampled_grid(oracle_rss, BAND, STEP / 2), NOISE)
        assert abs(coarse - fine) / fine < 1e-3

    def test_integrated_matches_quadrature_oracle(self):
        # rss linear in dB (0.8 dB/GHz); expected value frozen from a
        # 30-digit mpmath quadrature
        def rss(f):
            f = np.asarray(f, dtype=float)
            return 1e-20 * 10 ** (0.8e-9 * (f - 150e9) / 10)

        plan = SubchannelPlan((Subchannel(150e9, 2e9),), 16e9)
        got = integrated_rate(plan, sampled_grid(rss, (140e9, 160e9), 1e6), NOISE)
        assert got == pytest.approx(1415305935.9386465, rel=1e-6)

    def test_flatness_bound_on_compliant_plans(self):
        # C3-compliant channels: |plan - integrated| / plan <= eps*ln(10)/10
        eps = 0.5
        grid = sampled_grid(oracle_rss, BAND, STEP)
        rng = np.random.default_rng(2)
        centers = grid.freqs[grid.index_of(rng.uniform(105e9, 295e9, 20))]
        plan = build_plan(grid, centers, eps, 1e12)
        pr = plan_rate(plan, grid, NOISE)
        ir = integrated_rate(plan, grid, NOISE)
        assert abs(pr - ir) / pr <= eps * np.log(10) / 10


def equal_plan(band, n_sub, total_budget):
    """`n_sub` equal, evenly spaced channels, as the `equal_mrt` baseline
    builds them."""
    spacing = (band[1] - band[0]) / n_sub
    centers = band[0] + (np.arange(1, n_sub + 1) - 0.5) * spacing
    width = total_budget / n_sub
    return SubchannelPlan(tuple(Subchannel(c, width) for c in centers), total_budget)


class TestPlanRate:
    """The library `plan_rate` (one `_score_rows` row) against the scalar
    oracle, on plans the batched kernel never builds."""

    GRIDS = {
        "link": lambda: sampled_grid(oracle_rss, BAND, STEP),
        "gated": gated_link_grid,
        "plateau": plateau_grid,
    }

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("n_sub, budget_steps", [(7, 0.3), (11, 13.7), (37, 1601.0)])
    def test_equal_plans_match_oracle_bitwise(self, grid_name, n_sub, budget_steps):
        grid = self.GRIDS[grid_name]()
        plan = equal_plan(grid.band, n_sub, budget_steps * grid.step)
        centers, widths = plan_arrays(plan)
        # off-grid centers and widths that are not a multiple of the step
        assert np.any(grid.freqs[grid.index_of(centers)] != centers)
        assert np.any(widths % grid.step != 0)
        got = plan_rate(plan, grid, NOISE)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(
            scalar_plan_rate(plan, grid, NOISE)).tobytes()

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_random_plans_with_zero_widths_match_oracle_bitwise(self, grid_name):
        grid = self.GRIDS[grid_name]()
        rng = np.random.default_rng(21)
        lo, hi = grid.band
        for _ in range(200):
            n = int(rng.integers(1, 12))
            centers = rng.uniform(lo, hi, n)
            widths = rng.uniform(0.0, 40.0, n) * grid.step
            widths[rng.random(n) < 0.3] = 0.0
            plan = SubchannelPlan(
                tuple(Subchannel(c, w) for c, w in zip(centers, widths)), 1e12
            )
            got = plan_rate(plan, grid, NOISE)
            assert np.float64(got).tobytes() == np.float64(
                scalar_plan_rate(plan, grid, NOISE)).tobytes()

    def test_empty_and_all_zero_plans_rate_zero(self):
        grid = sampled_grid(oracle_rss, BAND, STEP)
        assert plan_rate(SubchannelPlan((), 16e9), grid, NOISE) == 0.0
        zeros = SubchannelPlan((Subchannel(150e9, 0.0), Subchannel(151e9, 0.0)), 16e9)
        assert plan_rate(zeros, grid, NOISE) == 0.0

    @pytest.mark.parametrize("noise", [0.0, -1.0])
    def test_noise_must_be_positive(self, noise):
        grid = sampled_grid(oracle_rss, BAND, STEP)
        for plan in (SubchannelPlan((), 1e9), equal_plan(BAND, 4, 1e9)):
            with pytest.raises(ValueError, match="noise_psd"):
                plan_rate(plan, grid, noise)


def initial_means(n_sub, band=BAND):
    lo, hi = band
    return lo + (np.arange(1, n_sub + 1) - 0.5) * (hi - lo) / n_sub


def ce_kwargs():
    return dict(eps_db=0.5, total_budget=16e9, noise_psd=NOISE)


class TestCEInit:
    def test_means_span_band(self):
        res = ce_optimize(sampled_grid(oracle_rss, BAND, STEP), CEConfig(n_sub=40, max_iter=0),
                          np.random.default_rng(0), **ce_kwargs())
        assert res.means[0] == pytest.approx(102.5e9)
        assert res.means[-1] == pytest.approx(297.5e9)

    def test_variance_formula(self):
        # without smoothing, one iteration with every sample an elite moves
        # the means to the mean of a draw at the initial std, 4 * 200e9 / 40
        cfg = CEConfig(n_sub=40, samples=6, elites=6, smooth_mean=1.0, smooth_var=1.0,
                       max_iter=1)
        res = ce_optimize(sampled_grid(oracle_rss, BAND, STEP), cfg, np.random.default_rng(1),
                          **ce_kwargs())
        probe = reference_draw(initial_means(40), np.full(40, (20e9) ** 2), cfg, BAND,
                               np.random.default_rng(1))
        # the elites are averaged in score order, so the sums round differently
        np.testing.assert_allclose(res.means, probe.mean(axis=0), rtol=1e-12)

    def test_single_channel_mid_band(self):
        res = ce_optimize(sampled_grid(oracle_rss, BAND, STEP), CEConfig(n_sub=1, max_iter=0),
                          np.random.default_rng(0), **ce_kwargs())
        assert res.means[0] == pytest.approx(200e9)

    def test_degenerate_band_rejected(self):
        for band in ((300e9, 100e9), (200e9, 200e9)):
            with pytest.raises(ValueError, match="band upper"):
                sampled_grid(flat_rss(), band, STEP)


class TestVarianceSmoothing:
    def test_first_iteration_is_beta(self):
        assert variance_smoothing(0.7, 5.0, 0) == pytest.approx(0.7)

    def test_second_iteration_value(self):
        assert variance_smoothing(0.7, 5.0, 1) == pytest.approx(0.678125)

    def test_decreasing_in_t(self):
        vals = [variance_smoothing(0.7, 5.0, t) for t in range(30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCEIterate:
    def test_no_smoothing_returns_elite_mle(self):
        # every sample is an elite: each iteration's means and variances
        # are the sample mean and the floored sample variance of its draw
        cfg = CEConfig(n_sub=4, samples=30, elites=30, smooth_mean=1.0, smooth_var=1.0,
                       smooth_power=5.0, max_iter=2)
        grid = sampled_grid(oracle_rss, BAND, cfg.step)
        res = ce_optimize(grid, cfg, np.random.default_rng(3), **ce_kwargs())
        assert_equals_reference_ce(
            res, reference_ce(grid, cfg, np.random.default_rng(3), **ce_kwargs()))
        rng = np.random.default_rng(3)
        means, variances = initial_means(4), np.full(4, (200e9) ** 2)
        for _ in range(2):
            probe = reference_draw(means, variances, cfg, BAND, rng)
            means = probe.mean(axis=0)
            variances = np.maximum(probe.var(axis=0), cfg.step**2)
        np.testing.assert_allclose(res.means, means, rtol=1e-12)

    def test_variance_floor(self):
        # a single elite has zero MLE variance; the floor keeps sampling
        # proper, and the next draws spread by one step around it
        cfg = CEConfig(n_sub=2, samples=5, elites=1, smooth_var=1.0, max_iter=3)
        grid = sampled_grid(oracle_rss, BAND, cfg.step)
        ref = reference_ce(grid, cfg, np.random.default_rng(4), **ce_kwargs())
        np.testing.assert_array_equal(ref["variances"], cfg.step**2)
        res = ce_optimize(grid, cfg, np.random.default_rng(4), **ce_kwargs())
        assert_equals_reference_ce(res, ref)


def mrt_grid(seed, step=50e6):
    """Combined MRT RSS of a random 1-6 AP scenario on a `step` grid."""
    rng = np.random.default_rng(seed)
    cfg = sim.ScenarioConfig(n_aps=int(rng.integers(1, 7)), ce=CEConfig(step=step))
    aps = sim.generate_scenario(rng, cfg)
    _, row = sim.scheme_rss(["mrt"], aps, cfg)["mrt"]
    return GridRss(row, cfg.band, step)


class TestReferenceCE:
    """`ce_optimize` against the test-side reference loop, bit for bit:
    traces, both plans, both values and the final means."""

    @pytest.mark.parametrize("seed", [3, 11, 1234])
    def test_default_smoothing(self, seed):
        cfg = CEConfig(n_sub=6, samples=12, elites=3, max_iter=4, step=50e6)
        grid = mrt_grid(seed)
        ref = reference_ce(grid, cfg, np.random.default_rng(seed), **ce_kwargs())
        res = ce_optimize(grid, cfg, np.random.default_rng(seed), **ce_kwargs())
        assert_equals_reference_ce(res, ref)

    @pytest.mark.parametrize("make_grid", [gated_link_grid, plateau_grid])
    def test_dead_stretches_and_plateaus(self, make_grid):
        grid = make_grid()
        cfg = CEConfig(n_sub=5, samples=10, elites=2, max_iter=3, step=grid.step)
        budget = 0.3 * (grid.band[1] - grid.band[0])
        kwargs = dict(eps_db=0.5, total_budget=budget, noise_psd=NOISE)
        ref = reference_ce(grid, cfg, np.random.default_rng(5), **kwargs)
        res = ce_optimize(grid, cfg, np.random.default_rng(5), **kwargs)
        assert_equals_reference_ce(res, ref)

    def test_tied_scores_on_a_flat_grid(self):
        # at unit SNR on a whole-GHz grid every plan that fills the budget
        # rates exactly 16e9 bit/s: a later tie never replaces the
        # incumbent, and a final plan that only ties does not either
        cfg = CEConfig(n_sub=4, samples=40, elites=5, max_iter=3, step=1e9)
        grid = sampled_grid(flat_rss(NOISE), BAND, cfg.step)
        ref = reference_ce(grid, cfg, np.random.default_rng(9), **ce_kwargs())
        res = ce_optimize(grid, cfg, np.random.default_rng(9), **ce_kwargs())
        assert len(set(ref["best_per_iter"].tolist() + [ref["plan_value"]])) == 1
        assert res.incumbent_plan != res.plan
        assert_equals_reference_ce(res, ref)

    def test_tied_elites_on_a_flat_grid(self):
        # with a budget few plans fill, the rates fall on a handful of
        # exact levels, and the elite cut splits a tied level: the elites
        # are its lowest-index samples
        cfg = CEConfig(n_sub=4, samples=40, elites=5, max_iter=3, step=1e9)
        grid = sampled_grid(flat_rss(NOISE), BAND, cfg.step)
        kwargs = dict(eps_db=0.5, total_budget=120e9, noise_psd=NOISE)
        ref = reference_ce(grid, cfg, np.random.default_rng(9), **kwargs)
        res = ce_optimize(grid, cfg, np.random.default_rng(9), **kwargs)
        assert_equals_reference_ce(res, ref)


class TestAllDeadGrid:
    """A grid with no live point skips the plan kernel, and the run still
    equals the reference loop bit for bit: draws, means, plan centers."""

    @pytest.mark.parametrize("max_iter", [0, 4])
    @pytest.mark.parametrize("budget", [0.5e9, 16e9])
    def test_equals_reference_ce_without_the_kernel(self, monkeypatch, max_iter, budget):
        # every link gated off, as at a co-located site out of range
        grid = GridRss(np.zeros(alloc.grid_size(BAND, 50e6)), BAND, 50e6)
        cfg = CEConfig(n_sub=6, samples=12, elites=3, max_iter=max_iter, step=grid.step)
        kwargs = dict(eps_db=0.5, total_budget=budget, noise_psd=NOISE)
        ref = reference_ce(grid, cfg, np.random.default_rng(13), **kwargs)

        def kernel_called(*args, **kw):
            raise AssertionError("plan kernel ran on an all-dead grid")

        monkeypatch.setattr(alloc, "_plan_rows", kernel_called)
        monkeypatch.setattr(alloc, "_score_rows", kernel_called)
        res = ce_optimize(grid, cfg, np.random.default_rng(13), **kwargs)
        assert_equals_reference_ce(res, ref)
        assert res.plan_value == res.incumbent_value == 0.0

    def test_noise_still_checked(self):
        grid = GridRss(np.zeros(11), (0.0, 10.0), 1.0)
        cfg = CEConfig(n_sub=2, samples=4, elites=1, max_iter=1, step=1.0)
        with pytest.raises(ValueError, match="noise_psd"):
            ce_optimize(grid, cfg, np.random.default_rng(0), eps_db=0.5, total_budget=4.0,
                        noise_psd=0.0)


class TestCEOptimize:
    def test_zero_iterations_uses_initial_means(self):
        cfg = CEConfig(n_sub=8, samples=4, elites=2, max_iter=0)
        grid = sampled_grid(oracle_rss, BAND, cfg.step)
        res = ce_optimize(grid, cfg, np.random.default_rng(6), **ce_kwargs())
        assert res.best_per_iter.size == res.incumbent_trace.size == 0
        assert res.means.tobytes() == initial_means(8).tobytes()
        assert res.plan == res.incumbent_plan == build_plan(grid, initial_means(8), 0.5, 16e9)
        assert_equals_reference_ce(
            res, reference_ce(grid, cfg, np.random.default_rng(6), **ce_kwargs()))

    def test_flat_scenario_reaches_analytic_optimum(self):
        level = NOISE  # unit SNR everywhere
        cfg = CEConfig(n_sub=8, samples=20, elites=4, max_iter=5)
        res = ce_optimize(sampled_grid(flat_rss(level), BAND, cfg.step), cfg,
                          np.random.default_rng(7), **ce_kwargs())
        analytic = 16e9 * np.log2(2.0)
        assert res.plan_value == pytest.approx(analytic, rel=0.05)

    def test_incumbent_trace_non_decreasing(self):
        cfg = CEConfig(n_sub=6, samples=10, elites=3, max_iter=8)
        res = ce_optimize(sampled_grid(oracle_rss, BAND, cfg.step), cfg,
                          np.random.default_rng(8), **ce_kwargs())
        assert np.all(np.diff(res.incumbent_trace) >= 0)
        assert res.incumbent_value >= res.incumbent_trace[-1] - 1e-9

    def test_incumbent_plan_achieves_incumbent_value(self):
        # the incumbent is the best of every sampled plan and the final
        # plan, and its value is its own rate
        cfg = CEConfig(n_sub=10, samples=20, elites=4, max_iter=6)
        rng = np.random.default_rng(2024)
        final_won = 0
        for case in range(60):
            scen = sim.ScenarioConfig(n_aps=int(rng.integers(1, 7)), ce=cfg)
            aps = sim.generate_scenario(rng, scen)
            for scheme in sim.CE_SCHEMES:
                _, row = sim.scheme_rss([scheme], aps, scen)[scheme]
                grid = GridRss(row, scen.band, cfg.step)
                res = ce_optimize(grid, cfg, np.random.default_rng(case),
                                  eps_db=scen.eps_db, total_budget=scen.b_total,
                                  noise_psd=scen.noise_psd)
                assert plan_rate(res.incumbent_plan, grid, scen.noise_psd) == res.incumbent_value
                assert res.incumbent_value == max(res.plan_value, res.incumbent_trace.max())
                final_won += res.plan_value > res.incumbent_trace.max()
        assert final_won > 0

    def test_emitted_plans_satisfy_invariants(self):
        rng = np.random.default_rng(9)
        cfg = CEConfig(n_sub=10, samples=8, elites=2, max_iter=3)
        for _ in range(10):
            ap = AccessPoint(0, rng.uniform(1, 50), rng.uniform(0.1, 1.4))
            grid = sampled_grid(lambda f: link_rss(f, ap, P, CFG), BAND, cfg.step)
            res = ce_optimize(grid, cfg, rng, **ce_kwargs())
            res.plan.validate(BAND)
            res.incumbent_plan.validate(BAND)

    def test_determinism(self):
        cfg = CEConfig(n_sub=4, samples=6, elites=2, max_iter=3)
        grid = sampled_grid(oracle_rss, BAND, cfg.step)
        r1 = ce_optimize(grid, cfg, np.random.default_rng(10), **ce_kwargs())
        r2 = ce_optimize(grid, cfg, np.random.default_rng(10), **ce_kwargs())
        assert r1.plan == r2.plan
        np.testing.assert_array_equal(r1.best_per_iter, r2.best_per_iter)


def assert_flat_plan(plan, grid, eps_db):
    """The plan is valid in the grid's band, and each live channel's two
    edges, looked up on the grid, are alive and within eps_db."""
    plan.validate(grid.band)
    for ch in plan.channels:
        if ch.width > 0:
            g_lo, g_hi = grid(ch.low), grid(ch.high)
            assert g_lo > 0 and g_hi > 0, ch
            d = abs(10 * np.log10(g_lo) - 10 * np.log10(g_hi))
            assert d < eps_db or d == 0.0, (ch, d)


class TestEmittedPlansAreFlat:
    # the seed-1234001, 64 GHz cell whose mrt plan once held a clipped
    # channel [156.69, 170.61] GHz with edges 0.507 dB apart
    @settings(max_examples=20, deadline=None)
    @given(
        n_aps=st.integers(1, 40),
        b_total=st.floats(1e9, 64e9),
        eps_db=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_aps=20, b_total=64e9, eps_db=0.5, seed=1234001)
    def test_final_and_incumbent_plans(self, n_aps, b_total, eps_db, seed):
        # every CE scheme of one trial cell, drawn as the cell draws it
        cfg = sim.ScenarioConfig(n_aps=n_aps, b_total=b_total, eps_db=eps_db, seed=seed,
                                 ce=CEConfig(samples=30, elites=5, max_iter=10))
        aps = sim.generate_scenario(sim.substream(seed, 0, 0, "scenario"), cfg)
        for _, row in sim.scheme_rss(sim.CE_SCHEMES, aps, cfg).values():
            grid = GridRss(row, cfg.band, cfg.ce.step)
            res = ce_optimize(grid, cfg.ce, sim.substream(seed, 0, 0, "ce"), eps_db=eps_db,
                              total_budget=b_total, noise_psd=cfg.noise_psd)
            for plan in (res.plan, res.incumbent_plan):
                assert_flat_plan(plan, grid, eps_db)


class TestPlanRecords:
    def test_fields_and_rates(self):
        plan = SubchannelPlan((Subchannel(150e9, 1e9), Subchannel(200e9, 0.0)), 16e9)
        recs = alloc.plan_records(plan, sampled_grid(flat_rss(NOISE), BAND, STEP), NOISE)
        assert [r["index"] for r in recs] == [0, 1]
        assert recs[0]["rate_bps"] == pytest.approx(1e9)
        assert recs[1]["rate_bps"] == 0.0
        assert recs[1]["rss_w_per_hz"] == 0.0
