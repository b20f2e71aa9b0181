import numpy as np
import pytest

from cfthz import phy, selection
from cfthz.phy import AntennaConfig
from cfthz.selection import AccessPoint

CFG = AntennaConfig(f_co=100e9)
P = 1.0 / 16e9
F_UPPER = 300e9
GAMMA_TH = phy.dbm_per_hz_to_w_per_hz(-174.5)


def random_aps(rng, n):
    return [
        AccessPoint(i, rng.uniform(0.5, 50.0), rng.uniform(0.01, np.pi / 2 - 0.01))
        for i in range(n)
    ]


def constant_gain(f, theta, cfg):
    """Frequency- and angle-independent antenna gain, patched in for
    `phy.antenna_gain`."""
    return 1.0 * np.ones_like(np.asarray(f, dtype=float))


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


class TestSelectMrt:
    def test_single_ap(self):
        ids = selection.select_mrt([AccessPoint(1, 5.0, 0.6)])
        assert ids == {1} and type(ids) is frozenset

    def test_all_selected(self):
        aps = random_aps(np.random.default_rng(0), 20)
        assert len(selection.select_mrt(aps)) == 20

    def test_order_invariant(self):
        aps = random_aps(np.random.default_rng(1), 6)
        assert selection.select_mrt(aps) == selection.select_mrt(aps[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            selection.select_mrt([])


class TestSelectBestNsel:
    def test_full_selection_equals_mrt(self):
        aps = random_aps(np.random.default_rng(2), 7)
        full = selection.select_best_nsel(aps, 7, P, CFG, F_UPPER)
        assert full == selection.select_mrt(aps)

    def test_closer_ap_wins_at_equal_angle(self):
        aps = [AccessPoint(0, 5.0, 0.7), AccessPoint(1, 40.0, 0.7)]
        assert selection.select_best_nsel(aps, 1, P, CFG, F_UPPER) == {0}

    def test_matches_exhaustive_ranking(self):
        aps = random_aps(np.random.default_rng(3), 5)
        # brute-force oracle: evaluate every AP at its clamped peak frequency
        scored = sorted(
            aps,
            key=lambda ap: (
                -phy.link_rss(
                    min(phy.peak_frequency(ap.angle, CFG.f_co), F_UPPER), ap, P, CFG
                ),
                ap.id,
            ),
        )
        for n_sel in (1, 2, 3):
            ids = selection.select_best_nsel(aps, n_sel, P, CFG, F_UPPER)
            assert ids == {ap.id for ap in scored[:n_sel]} and type(ids) is frozenset

    def test_out_of_range_rejected(self):
        aps = random_aps(np.random.default_rng(4), 3)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                selection.select_best_nsel(aps, bad, P, CFG, F_UPPER)


class TestSelectBestAt:
    def test_single_ap(self):
        assert selection.select_best_at([AccessPoint(3, 9.0, 0.5)], 150e9, P, CFG) == 3

    def test_distance_decides_at_equal_angle(self):
        aps = [AccessPoint(0, 40.0, 0.7), AccessPoint(1, 5.0, 0.7)]
        for f in (110e9, 150e9, 250e9):
            assert selection.select_best_at(aps, f, P, CFG) == 1

    def test_matches_exhaustive_argmax(self):
        aps = random_aps(np.random.default_rng(5), 5)
        f = 250e9
        rss = [phy.link_rss(f, ap, P, CFG) for ap in aps]
        assert selection.select_best_at(aps, f, P, CFG) == int(np.argmax(rss))

    def test_below_band_rejected(self):
        with pytest.raises(phy.BelowCutoffError):
            selection.select_best_at([AccessPoint(0, 5.0, 0.5)], 90e9, P, CFG)
        with pytest.raises(phy.BelowCutoffError):
            selection.select_best_at([AccessPoint(0, 5.0, 0.5)], [150e9, 90e9], P, CFG)

    def test_array_equals_per_frequency_argmax(self):
        # one call over an array of frequencies picks, at each of them, the
        # AP a scalar query picks; a scalar query returns a plain int
        aps = random_aps(np.random.default_rng(14), 40)[::-1]
        f = np.linspace(100.5e9, 299.5e9, 97)
        got = selection.select_best_at(aps, f, P, CFG)
        assert got.shape == f.shape
        for fi, best in zip(f, got):
            rss = {ap.id: phy.link_rss(fi, ap, P, CFG) for ap in aps}
            assert best == max(sorted(rss), key=lambda i: rss[i])
            scalar = selection.select_best_at(aps, fi, P, CFG)
            assert type(scalar) is int and scalar == best
        assert selection.select_best_at(aps, f.reshape(1, -1), P, CFG).shape == (1, 97)
        assert selection.select_best_at(aps, f[:0], P, CFG).size == 0

    def test_tie_goes_to_lower_id_whatever_the_order(self):
        # identical geometries tie at every frequency
        aps = [AccessPoint(5, 9.0, 0.7), AccessPoint(2, 9.0, 0.7), AccessPoint(7, 30.0, 0.7)]
        f = np.array([120e9, 180e9, 260e9])
        for order in (aps, aps[::-1], aps[1:] + aps[:1]):
            assert selection.select_best_at(order, f, P, CFG).tolist() == [2, 2, 2]
            assert selection.select_best_at(order, 180e9, P, CFG) == 2


class TestSelectNearest:
    def test_min_distance(self):
        aps = [AccessPoint(0, 12.0, 0.5), AccessPoint(1, 3.0, 0.9), AccessPoint(2, 44.0, 1.1)]
        assert selection.select_nearest(aps) == {1}

    def test_permutation_invariant(self):
        aps = random_aps(np.random.default_rng(6), 8)
        assert selection.select_nearest(aps) == selection.select_nearest(aps[::-1])

    def test_tie_breaks_to_lower_id(self):
        aps = [AccessPoint(0, 7.0, 0.5), AccessPoint(1, 7.0, 0.9)]
        assert selection.select_nearest(aps) == {0}


class TestCombinedRss:
    def test_zero_when_all_below_threshold(self):
        aps = [AccessPoint(0, 49.0, 0.3), AccessPoint(1, 48.0, 1.2)]
        sel = summed(selection.select_mrt(aps))
        # absurdly high threshold annihilates every link
        assert one_row(sel, aps, 150e9, 1.0).tolist() == [0.0]

    def test_mrt_additivity_two_identical_aps(self):
        aps = [AccessPoint(0, 10.0, 0.8), AccessPoint(1, 10.0, 0.8)]
        sel = summed(selection.select_mrt(aps))
        single = phy.link_rss(150e9, aps[0], P, CFG)
        (got,) = one_row(sel, aps, 150e9, 0.0)
        assert got == pytest.approx(2 * single)

    def test_mrt_term_by_term(self):
        aps = random_aps(np.random.default_rng(7), 4)
        sel = summed(selection.select_mrt(aps))
        f = 180e9
        expected = sum(
            rss
            for rss in (phy.link_rss(f, ap, P, CFG) for ap in aps)
            if rss >= GAMMA_TH
        )
        (got,) = one_row(sel, aps, f, GAMMA_TH)
        assert got == pytest.approx(expected)

    def test_best_per_subchannel_is_max_form(self):
        aps = random_aps(np.random.default_rng(8), 5)
        f = 220e9
        rss = np.array([phy.link_rss(f, ap, P, CFG) for ap in aps])
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


def materialized_combined_rss(sel, aps, f, gamma_th):
    """Reference: the (links x points) matrix of the selected APs, gated, then
    reduced at once by the selection's rule (sum or max)."""
    ids, combine = sel
    per_link = np.array([phy.link_rss(f, ap, P, CFG) for ap in aps if ap.id in ids])
    per_link[per_link < gamma_th] = 0.0
    return per_link.max(axis=0) if combine is np.maximum else per_link.sum(axis=0)


class TestStreamingCombinedRss:
    F = np.linspace(100.5e9, 299.5e9, 2001)

    @pytest.mark.parametrize("n_aps", [1, 2, 20, 160])
    def test_equals_materialized_reduction_bitwise(self, n_aps):
        aps = random_aps(np.random.default_rng(n_aps), n_aps)
        # far, steep-angled APs fall below gamma_th over the whole band
        aps += [AccessPoint(n_aps + i, 50.0, 1.55) for i in range(2)]
        sels = [
            summed(selection.select_mrt(aps)),
            summed(selection.select_best_nsel(aps, min(2, len(aps)), P, CFG, F_UPPER)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
            summed(frozenset({n_aps, n_aps + 1})),
        ]
        assert np.all(phy.link_rss(self.F, aps[-1], P, CFG) < GAMMA_TH)
        for i, sel in enumerate(sels):
            got = one_row(sel, aps, self.F, GAMMA_TH)
            expected = materialized_combined_rss(sel, aps, self.F, GAMMA_TH)
            assert got.tobytes() == expected.tobytes(), i
        dead = one_row(sels[-1], aps, self.F, GAMMA_TH)
        assert not dead.any()

    @pytest.mark.parametrize("n_aps", [1, 20, 160])
    def test_one_pass_equals_per_mask_bitwise(self, n_aps):
        # a co-located run of identical geometries and two dead links ride
        # along; the pass computes the run's row once and adds it n times
        aps = random_aps(np.random.default_rng(100 + n_aps), n_aps)
        aps += [AccessPoint(n_aps + i, 7.0, 0.9) for i in range(n_aps)]
        aps += [AccessPoint(2 * n_aps + i, 50.0, 1.55) for i in range(2)]
        sels = [
            summed(selection.select_mrt(aps)),
            summed(selection.select_best_nsel(aps, min(2, len(aps)), P, CFG, F_UPPER)),
            best_per_subchannel(aps),
            summed(selection.select_nearest(aps)),
            summed(frozenset(ap.id for ap in aps[n_aps:2 * n_aps])),
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
        real = phy.link_rss

        def counting(f, ap, *args, **kwargs):
            calls.append(ap.id)
            return real(f, ap, *args, **kwargs)

        monkeypatch.setattr(phy, "link_rss", counting)
        aps = random_aps(np.random.default_rng(5), 6)
        site = [AccessPoint(6 + i, 9.0, 0.7) for i in range(4)]
        sels = [
            summed(selection.select_mrt(aps + site)),
            best_per_subchannel(aps + site),
            summed(selection.select_nearest(aps + site)),
        ]
        selection.combined_rss_rows(sels, aps + site, self.F, P, CFG, GAMMA_TH)
        assert calls == [0, 1, 2, 3, 4, 5, 6]

    def test_scalar_query_equals_array_element(self):
        aps = random_aps(np.random.default_rng(3), 40)
        for sel in (summed(selection.select_mrt(aps)), best_per_subchannel(aps)):
            vec = one_row(sel, aps, self.F[::250], GAMMA_TH)
            for f, v in zip(self.F[::250], vec):
                assert one_row(sel, aps, f, GAMMA_TH)[0] == v


class TestProperties:
    def test_mrt_dominates_any_subset_pointwise(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            aps = random_aps(rng, 6)
            f = rng.uniform(100e9, 300e9, 16)
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
        monkeypatch.setattr(phy, "antenna_gain", constant_gain)
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


class TestAccessPoint:
    @pytest.mark.parametrize("distance", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="distance must be finite and > 0"):
            AccessPoint(0, distance, 0.7)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, 0.0, np.pi / 2])
    def test_bad_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be in"):
            AccessPoint(0, 5.0, angle)
