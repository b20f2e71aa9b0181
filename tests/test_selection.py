import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfthz import alloc, phy, selection, sim
from cfthz.phy import AntennaConfig
from cfthz.selection import Drop
from oracles import ap_pairs, best_nsel_ids, first_max_id, link_rss, log_uniform, nearest_id

CFG = AntennaConfig(f_co=100e9)
P = 1.0 / 16e9
F_UPPER = 300e9
GAMMA_TH = phy.dbm_per_hz_to_w_per_hz(-174.5)


def random_aps(rng, n):
    """A drop of n APs, each drawn as (distance, angle) in turn."""
    pairs = [(rng.uniform(0.5, 50.0), rng.uniform(0.01, np.pi / 2 - 0.01)) for _ in range(n)]
    return Drop(*zip(*pairs))


def with_aps(drop, distance, angle):
    """The drop with APs at the given distances and angles appended."""
    return Drop(np.append(drop.distance, distance), np.append(drop.angle, angle))


def reordered(drop, order):
    """The drop's APs in the given order (AP k is the drop's AP order[k])."""
    return Drop(drop.distance[order], drop.angle[order])


def constant_gain(x, cfg):
    """Frequency- and angle-independent antenna gain, patched in for
    `phy.sinc_gain`, the gain every link row is built from."""
    return np.ones_like(np.asarray(x, dtype=float))


def summed(ids):
    """A set of APs whose links add (MRT, best N_sel, nearest)."""
    return ids, np.add


def best_per_subchannel(aps):
    """Every AP, max-combined: the best AP at each frequency."""
    return selection.select_mrt(aps), np.maximum


def one_row(sel, aps, f, gamma_th):
    """The combined RSS of one (ids, combine) selection at the frequencies in
    f, as a 1-D row."""
    return selection.combined_rss_rows([sel], aps, np.atleast_1d(f), P, CFG, gamma_th)[0]


@st.composite
def tied_pairs(draw):
    """(distance, angle) pairs drawn from at most three distances and three
    angles, so APs repeat a distance, or a whole geometry and every RSS."""
    distances = draw(st.lists(st.floats(0.5, 50.0), min_size=1, max_size=3))
    angles = draw(st.lists(st.floats(0.01, np.pi / 2 - 0.01), min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from(distances), st.sampled_from(angles)),
                         min_size=1, max_size=8))


class TestSelectMrt:
    def test_single_ap(self):
        ids = selection.select_mrt(Drop([5.0], [0.6]))
        assert ids == {0} and type(ids) is frozenset

    def test_all_selected(self):
        aps = random_aps(np.random.default_rng(0), 20)
        assert len(selection.select_mrt(aps)) == 20

    def test_order_invariant(self):
        aps = random_aps(np.random.default_rng(1), 6)
        assert selection.select_mrt(aps) == selection.select_mrt(reordered(aps, np.s_[::-1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            selection.select_mrt(Drop([], []))


class TestSelectBestNsel:
    def test_full_selection_equals_mrt(self):
        aps = random_aps(np.random.default_rng(2), 7)
        full = selection.select_best_nsel(aps, 7, P, CFG, F_UPPER)
        assert full == selection.select_mrt(aps)

    def test_closer_ap_wins_at_equal_angle(self):
        aps = Drop([5.0, 40.0], [0.7, 0.7])
        assert selection.select_best_nsel(aps, 1, P, CFG, F_UPPER) == {0}

    def test_matches_exhaustive_ranking(self):
        aps = random_aps(np.random.default_rng(3), 5)
        # brute-force oracle: evaluate every AP at its clamped peak frequency
        scored = sorted(
            (-link_rss(min(phy.peak_frequency(theta, CFG.f_co), F_UPPER), d, theta, P, CFG), i)
            for i, (d, theta) in enumerate(ap_pairs(aps))
        )
        for n_sel in (1, 2, 3):
            ids = selection.select_best_nsel(aps, n_sel, P, CFG, F_UPPER)
            assert ids == {i for _, i in scored[:n_sel]} and type(ids) is frozenset

    def test_out_of_range_rejected(self):
        aps = random_aps(np.random.default_rng(4), 3)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                selection.select_best_nsel(aps, bad, P, CFG, F_UPPER)


class TestSelectBestAt:
    def test_single_ap(self):
        assert selection.select_best_at(Drop([9.0], [0.5]), 150e9, P, CFG) == 0

    def test_distance_decides_at_equal_angle(self):
        aps = Drop([40.0, 5.0], [0.7, 0.7])
        for f in (110e9, 150e9, 250e9):
            assert selection.select_best_at(aps, f, P, CFG) == 1

    def test_matches_exhaustive_argmax(self):
        aps = random_aps(np.random.default_rng(5), 5)
        f = 250e9
        rss = [link_rss(f, d, theta, P, CFG) for d, theta in ap_pairs(aps)]
        assert selection.select_best_at(aps, f, P, CFG) == int(np.argmax(rss))

    def test_below_band_rejected(self):
        with pytest.raises(phy.BelowCutoffError):
            selection.select_best_at(Drop([5.0], [0.5]), 90e9, P, CFG)
        with pytest.raises(phy.BelowCutoffError):
            selection.select_best_at(Drop([5.0], [0.5]), [150e9, 90e9], P, CFG)

    def test_array_equals_per_frequency_argmax(self):
        # one call over an array of frequencies picks, at each of them, the
        # AP a scalar query picks; a scalar query returns a plain int
        aps = reordered(random_aps(np.random.default_rng(14), 40), np.s_[::-1])
        f = np.linspace(100.5e9, 299.5e9, 97)
        got = selection.select_best_at(aps, f, P, CFG)
        assert got.shape == f.shape
        for fi, best in zip(f, got):
            rss = [link_rss(fi, d, theta, P, CFG) for d, theta in ap_pairs(aps)]
            assert best == first_max_id(rss)
            scalar = selection.select_best_at(aps, fi, P, CFG)
            assert type(scalar) is int and scalar == best
        assert selection.select_best_at(aps, f.reshape(1, -1), P, CFG).shape == (1, 97)
        assert selection.select_best_at(aps, f[:0], P, CFG).size == 0

    def test_tie_goes_to_lower_id_whatever_the_order(self):
        # identical geometries (the first two) tie at every frequency
        aps = Drop([9.0, 9.0, 30.0], [0.7, 0.7, 0.7])
        f = np.array([120e9, 180e9, 260e9])
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            tied = min(order.index(0), order.index(1))
            drop = reordered(aps, order)
            assert selection.select_best_at(drop, f, P, CFG).tolist() == [tied] * 3
            assert selection.select_best_at(drop, 180e9, P, CFG) == tied


class TestSelectNearest:
    def test_min_distance(self):
        aps = Drop([12.0, 3.0, 44.0], [0.5, 0.9, 1.1])
        assert selection.select_nearest(aps) == {1}

    def test_permutation_invariant(self):
        # the same AP is nearest in reverse order, at its mirrored id
        aps = random_aps(np.random.default_rng(6), 8)
        (nearest,) = selection.select_nearest(aps)
        assert selection.select_nearest(reordered(aps, np.s_[::-1])) == {7 - nearest}

    def test_tie_breaks_to_lower_id(self):
        aps = Drop([7.0, 7.0], [0.5, 0.9])
        assert selection.select_nearest(aps) == {0}


class TestCombinedRss:
    def test_zero_when_all_below_threshold(self):
        aps = Drop([49.0, 48.0], [0.3, 1.2])
        sel = summed(selection.select_mrt(aps))
        # absurdly high threshold annihilates every link
        assert one_row(sel, aps, 150e9, 1.0).tolist() == [0.0]

    def test_mrt_additivity_two_identical_aps(self):
        aps = Drop([10.0, 10.0], [0.8, 0.8])
        sel = summed(selection.select_mrt(aps))
        single = link_rss(150e9, 10.0, 0.8, P, CFG)
        (got,) = one_row(sel, aps, 150e9, 0.0)
        assert got == pytest.approx(2 * single)

    def test_mrt_term_by_term(self):
        aps = random_aps(np.random.default_rng(7), 4)
        sel = summed(selection.select_mrt(aps))
        f = 180e9
        expected = sum(
            rss
            for rss in (link_rss(f, d, theta, P, CFG) for d, theta in ap_pairs(aps))
            if rss >= GAMMA_TH
        )
        (got,) = one_row(sel, aps, f, GAMMA_TH)
        assert got == pytest.approx(expected)

    def test_best_per_subchannel_is_max_form(self):
        aps = random_aps(np.random.default_rng(8), 5)
        f = 220e9
        rss = np.array([link_rss(f, d, theta, P, CFG) for d, theta in ap_pairs(aps)])
        rss[rss < GAMMA_TH] = 0.0
        (got,) = one_row(best_per_subchannel(aps), aps, f, GAMMA_TH)
        assert got == pytest.approx(rss.max())

    def test_vectorized_matches_scalar(self):
        aps = random_aps(np.random.default_rng(9), 3)
        sel = summed(selection.select_mrt(aps))
        f = np.array([120e9, 150e9, 290e9])
        vec = one_row(sel, aps, f, GAMMA_TH)
        scal = [one_row(sel, aps, fi, GAMMA_TH)[0] for fi in f]
        np.testing.assert_allclose(vec, scal)


def materialized_combined_rss(sel, aps, f, gamma_th, p=P, cfg=CFG):
    """Reference: the (links x points) matrix of the selected APs, gated, then
    reduced at once by the selection's rule (sum or max)."""
    ids, combine = sel
    per_link = np.array([link_rss(f, d, theta, p, cfg)
                         for i, (d, theta) in enumerate(ap_pairs(aps)) if i in ids])
    per_link[per_link < gamma_th] = 0.0
    return per_link.max(axis=0) if combine is np.maximum else per_link.sum(axis=0)


class TestStreamingCombinedRss:
    F = np.linspace(100.5e9, 299.5e9, 2001)

    @pytest.mark.parametrize("n_aps", [1, 2, 20, 160])
    def test_equals_materialized_reduction_bitwise(self, n_aps):
        # far, steep-angled APs fall below gamma_th over the whole band
        aps = with_aps(random_aps(np.random.default_rng(n_aps), n_aps), [50.0] * 2, [1.55] * 2)
        sels = [
            summed(selection.select_mrt(aps)),
            summed(selection.select_best_nsel(aps, min(2, aps.distance.size), P, CFG, F_UPPER)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
            summed(frozenset({n_aps, n_aps + 1})),
        ]
        assert np.all(link_rss(self.F, 50.0, 1.55, P, CFG) < GAMMA_TH)
        for i, sel in enumerate(sels):
            got = one_row(sel, aps, self.F, GAMMA_TH)
            expected = materialized_combined_rss(sel, aps, self.F, GAMMA_TH)
            assert got.tobytes() == expected.tobytes(), i
        dead = one_row(sels[-1], aps, self.F, GAMMA_TH)
        assert not dead.any()

    @pytest.mark.parametrize("n_aps", [1, 20, 160])
    def test_one_pass_equals_per_mask_bitwise(self, n_aps):
        # a co-located run of identical geometries and two dead links ride
        # along
        aps = with_aps(random_aps(np.random.default_rng(100 + n_aps), n_aps),
                       [7.0] * n_aps + [50.0] * 2, [0.9] * n_aps + [1.55] * 2)
        sels = [
            summed(selection.select_mrt(aps)),
            summed(selection.select_best_nsel(aps, min(2, aps.distance.size), P, CFG, F_UPPER)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
            summed(frozenset(range(n_aps, 2 * n_aps))),
            summed(frozenset({2 * n_aps, 2 * n_aps + 1})),
        ]
        rows = selection.combined_rss_rows(sels, aps, self.F, P, CFG, GAMMA_TH)
        assert len(rows) == len(sels)
        for i, (sel, row) in enumerate(zip(sels, rows)):
            single = one_row(sel, aps, self.F, GAMMA_TH)
            expected = materialized_combined_rss(sel, aps, self.F, GAMMA_TH)
            assert row.tobytes() == single.tobytes() == expected.tobytes(), i
        assert not rows[-1].any()

    def test_one_pass_with_every_link_dead(self):
        aps = random_aps(np.random.default_rng(4), 20)
        sels = [summed(selection.select_mrt(aps)), best_per_subchannel(aps)]
        rows = selection.combined_rss_rows(sels, aps, self.F, P, CFG, gamma_th=1.0)
        assert [row.tobytes() for row in rows] == [np.zeros(self.F.size).tobytes()] * 2

    def test_one_pass_computes_each_distinct_link_once(self, monkeypatch):
        calls = []
        real = phy.gated_link_rows

        def counting(f, distance, angle, *args, **kwargs):
            for d, window in zip(distance, real(f, distance, angle, *args, **kwargs)):
                calls.append(d)
                yield window

        monkeypatch.setattr(phy, "gated_link_rows", counting)
        aps = random_aps(np.random.default_rng(5), 6)
        sels = [
            summed(selection.select_mrt(aps)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
            summed(frozenset({1, 3})),
        ]
        selection.combined_rss_rows(sels, aps, self.F, P, CFG, GAMMA_TH)
        assert calls == aps.distance.tolist()  # APs 0 to 5, each once

    def test_below_cutoff_rejected_even_with_no_ap_selected(self):
        aps = random_aps(np.random.default_rng(7), 3)
        for sels in ([], [summed(frozenset({99}))]):
            with pytest.raises(phy.BelowCutoffError):
                selection.combined_rss_rows(sels, aps, [99e9, 150e9], P, CFG, GAMMA_TH)

    def test_peak_memory_stays_a_few_grid_rows(self):
        # one streaming pass over 160 APs on the allocator's 20,001-point
        # grid; a links x points matrix would take at least 160 rows
        f = alloc.grid_freqs((100e9, 300e9), 10e6)
        assert f.size == 20001
        aps = random_aps(np.random.default_rng(6), 160)
        sels = [
            summed(selection.select_mrt(aps)),
            summed(selection.select_best_nsel(aps, 2, P, CFG, F_UPPER)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
        ]
        tracemalloc.start()
        try:
            rows = selection.combined_rss_rows(sels, aps, f, P, CFG, GAMMA_TH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(sels)
        assert peak / f.nbytes < 24

    def test_scalar_query_equals_array_element(self):
        aps = random_aps(np.random.default_rng(3), 40)
        for sel in (summed(selection.select_mrt(aps)), best_per_subchannel(aps)):
            vec = one_row(sel, aps, self.F[::250], GAMMA_TH)
            for f, v in zip(self.F[::250], vec):
                assert one_row(sel, aps, f, GAMMA_TH)[0] == v


class TestLiveWindow:
    """`phy.gated_link_rows` computes each link only on `phy.live_band`'s
    window; every point it skips gates to 0 in the full kernel."""

    F = alloc.grid_freqs((100e9, 300e9), 20e6)

    @settings(max_examples=150, deadline=None)
    @given(
        atten=st.just(0.0) | log_uniform(-2.0, 3.5),
        aperture=log_uniform(-3.0, 0.0),
        efficiency=log_uniform(-3.0, 0.0),
        p_total=log_uniform(-3.0, 3.0),
        gamma_th=log_uniform(-30.0, -10.0),
        links=st.lists(st.tuples(st.floats(0.5, 50.0), st.floats(0.01, np.pi / 2 - 0.01)),
                       min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    # atten = 0: the envelope is infinite only at x = 0
    @example(atten=0.0, aperture=0.09, efficiency=1.0, p_total=1.0,
             gamma_th=3.5e-21, links=[(0.5, 0.7), (20.0, 0.01)], seed=0)
    # the defaults, with a link that peaks above the band and one at its edge
    @example(atten=130.0, aperture=0.09, efficiency=1.0, p_total=1.0,
             gamma_th=3.5e-21, links=[(14.65, 0.11), (2.0, np.pi / 2 - 0.01), (50.0, 0.35)],
             seed=1)
    def test_skipped_points_gate_to_zero(self, atten, aperture, efficiency, p_total, gamma_th,
                                         links, seed):
        try:
            cfg = sim.ScenarioConfig(
                p_total=p_total, gamma_th=gamma_th,
                antenna=phy.AntennaConfig(atten=atten, aperture=aperture, efficiency=efficiency),
            )
        except ValueError:
            return
        ant, p = cfg.antenna, cfg.p
        aps = Drop(*zip(*links))
        sels = [summed(selection.select_mrt(aps)), best_per_subchannel(aps),
                summed(frozenset({0}))]
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            full = phy.link_psd(self.F, aps.distance, aps.angle, p, ant)
            for row, (start, window) in zip(full, phy.gated_link_rows(
                    self.F, aps.distance, aps.angle, p, ant, gamma_th)):
                stop = start + window.size
                assert np.all(row[:start] < gamma_th) and np.all(row[stop:] < gamma_th)
                gated = np.where(row < gamma_th, 0.0, row)
                assert gated[start:stop].tobytes() == window.tobytes()
            for f in (self.F, rng.uniform(100e9, 300e9, 1)):
                rows = selection.combined_rss_rows(sels, aps, f, p, ant, gamma_th)
                for sel, got in zip(sels, rows):
                    want = materialized_combined_rss(sel, aps, f, gamma_th, p, ant)
                    assert got.tobytes() == want.tobytes()
        # the pass reads f as the ascending band grid; any other order is refused
        with pytest.raises(ValueError, match="ascending"):
            selection.combined_rss_rows(sels, aps, rng.permutation(self.F), p, ant, gamma_th)


class TestProperties:
    def test_mrt_dominates_any_subset_pointwise(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            aps = random_aps(rng, 6)
            f = np.sort(rng.uniform(100e9, 300e9, 16))
            mrt = one_row(summed(selection.select_mrt(aps)), aps, f, GAMMA_TH)
            for n_sel in (1, 3):
                sub = one_row(summed(selection.select_best_nsel(aps, n_sel, P, CFG, F_UPPER)),
                              aps, f, GAMMA_TH)
                assert np.all(mrt >= sub - 1e-30)
            bps = one_row(best_per_subchannel(aps), aps, f, GAMMA_TH)
            assert np.all(mrt >= bps - 1e-30)
            assert np.all(bps >= 0)

    def test_scheme_chain_in_mean(self):
        # MRT >= best-2 >= best-1-per-subchannel on average over scenarios
        rng = np.random.default_rng(11)
        f = np.linspace(100e9, 300e9, 64)
        tot = {"mrt": 0.0, "b2": 0.0, "bps": 0.0}
        for _ in range(50):
            aps = random_aps(rng, 8)
            tot["mrt"] += one_row(summed(selection.select_mrt(aps)), aps, f, GAMMA_TH).mean()
            tot["b2"] += one_row(
                summed(selection.select_best_nsel(aps, 2, P, CFG, F_UPPER)), aps, f, GAMMA_TH
            ).mean()
            tot["bps"] += one_row(best_per_subchannel(aps), aps, f, GAMMA_TH).mean()
        assert tot["mrt"] >= tot["b2"] >= tot["bps"] > 0

    def test_constant_gain_reduces_best_at_to_nearest(self, monkeypatch):
        monkeypatch.setattr(phy, "sinc_gain", constant_gain)
        rng = np.random.default_rng(12)
        for _ in range(25):
            aps = random_aps(rng, 6)
            (nearest,) = selection.select_nearest(aps)
            f = rng.uniform(100e9, 300e9, 8)
            assert selection.select_best_at(aps, f, P, CFG).tolist() == [nearest] * 8
            assert selection.select_best_at(aps, f[0], P, CFG) == nearest

    def test_psd_scaling_never_changes_selection(self):
        rng = np.random.default_rng(13)
        aps = random_aps(rng, 7)
        for scale in (1e-3, 1.0, 1e6):
            assert (
                selection.select_best_nsel(aps, 3, P * scale, CFG, F_UPPER)
                == selection.select_best_nsel(aps, 3, P, CFG, F_UPPER)
            )
            assert selection.select_best_at(aps, 211e9, P * scale, CFG) == (
                selection.select_best_at(aps, 211e9, P, CFG)
            )

    @settings(max_examples=200, deadline=None)
    @given(pairs=tied_pairs(), rank=st.integers(0, 7),
           f=st.lists(st.floats(100e9, 300e9), min_size=1, max_size=4))
    @example(pairs=[(9.0, 0.7)] * 3 + [(4.0, 1.2), (4.0, 0.3)], rank=1, f=[150e9, 300e9])
    def test_rules_match_tuple_oracles_under_ties(self, pairs, rank, f):
        drop = Drop(*zip(*pairs))
        n_sel = 1 + rank % len(pairs)
        peaks = np.minimum(phy.peak_frequency(drop.angle, CFG.f_co), F_UPPER)
        rss = phy.link_psd(peaks[:, None], drop.distance, drop.angle, P, CFG).ravel().tolist()
        best = selection.select_best_nsel(drop, n_sel, P, CFG, F_UPPER)
        assert best == best_nsel_ids(rss, n_sel)
        assert selection.select_nearest(drop) == {nearest_id(drop.distance.tolist())}
        rows = phy.link_psd(np.array(f), drop.distance, drop.angle, P, CFG)
        assert selection.select_best_at(drop, f, P, CFG).tolist() == [
            first_max_id(column) for column in rows.T.tolist()]

class TestAccessPoint:
    @pytest.mark.parametrize("distance", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="^AP 1: distance must be finite and > 0"):
            Drop([5.0, distance], [0.7, 0.7])

    @pytest.mark.parametrize("angle", [np.nan, np.inf, 0.0, np.pi / 2])
    def test_bad_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="^AP 1: angle must be in"):
            Drop([5.0, 5.0], [0.7, angle])

    @pytest.mark.parametrize("distance, angle", [
        ([], []), ([5.0], [0.7, 0.8]), ([[5.0]], [[0.7]]), (5.0, 0.7),
    ], ids=["empty", "unequal", "2-D", "scalar"])
    def test_bad_shape_rejected(self, distance, angle):
        with pytest.raises(ValueError, match="non-empty 1-D arrays of one length"):
            Drop(distance, angle)

    def test_holds_read_only_copies(self):
        distance, angle = np.array([5.0, 9.0]), np.array([0.7, 0.8])
        drop = Drop(distance, angle)
        distance[0] = angle[0] = 1.0
        assert drop.distance.tolist() == [5.0, 9.0] and drop.angle.tolist() == [0.7, 0.8]
        with pytest.raises(ValueError, match="read-only"):
            drop.distance[0] = 1.0

    @pytest.mark.parametrize("select", [
        lambda aps, p, cfg: selection.select_best_at(aps, [150e9], p, cfg),
        lambda aps, p, cfg: selection.select_best_nsel(aps, 1, p, cfg, 300e9),
    ], ids=["best_at", "best_nsel"])
    def test_ap_whose_link_overflows_rejected(self, select):
        # 1e-160 m overflows the path gain (c / (4*pi*f*d))^2: once a
        # RuntimeWarning and an inf row, now a ValueError naming the AP
        aps = Drop([1e-160, 20.0], [0.7, 0.3])
        with pytest.raises(ValueError, match=r"^AP 0: link PSD at distance 1e-160 m is not finite"):
            select(aps, sim.ScenarioConfig().p, AntennaConfig())
