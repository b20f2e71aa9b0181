import numpy as np
import pytest

from cfthz import phy, selection
from cfthz.phy import AntennaConfig
from cfthz.selection import AccessPoint, Scheme, SelectionMask

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
    """Test hook: frequency- and angle-independent antenna gain."""
    return 1.0 * np.ones_like(np.asarray(f, dtype=float))


class TestSelectMrt:
    def test_single_ap(self):
        mask = selection.select_mrt([AccessPoint(1, 5.0, 0.6)])
        assert mask.static_set == {1}

    def test_all_selected(self):
        aps = random_aps(np.random.default_rng(0), 20)
        assert len(selection.select_mrt(aps).static_set) == 20

    def test_order_invariant(self):
        aps = random_aps(np.random.default_rng(1), 6)
        m1 = selection.select_mrt(aps)
        m2 = selection.select_mrt(aps[::-1])
        assert m1.static_set == m2.static_set

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            selection.select_mrt([])


class TestSelectBestNsel:
    def test_full_selection_equals_mrt(self):
        aps = random_aps(np.random.default_rng(2), 7)
        full = selection.select_best_nsel(aps, 7, P, CFG, F_UPPER)
        assert full.static_set == selection.select_mrt(aps).static_set

    def test_closer_ap_wins_at_equal_angle(self):
        aps = [AccessPoint(0, 5.0, 0.7), AccessPoint(1, 40.0, 0.7)]
        mask = selection.select_best_nsel(aps, 1, P, CFG, F_UPPER)
        assert mask.static_set == {0}

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
            mask = selection.select_best_nsel(aps, n_sel, P, CFG, F_UPPER)
            assert mask.static_set == {ap.id for ap in scored[:n_sel]}

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


class TestSelectNearest:
    def test_min_distance(self):
        aps = [AccessPoint(0, 12.0, 0.5), AccessPoint(1, 3.0, 0.9), AccessPoint(2, 44.0, 1.1)]
        assert selection.select_nearest(aps).static_set == {1}

    def test_permutation_invariant(self):
        aps = random_aps(np.random.default_rng(6), 8)
        a = selection.select_nearest(aps)
        b = selection.select_nearest(aps[::-1])
        assert a.static_set == b.static_set

    def test_tie_breaks_to_lower_id(self):
        aps = [AccessPoint(0, 7.0, 0.5), AccessPoint(1, 7.0, 0.9)]
        assert selection.select_nearest(aps).static_set == {0}


class TestCombinedRss:
    def test_zero_when_all_below_threshold(self):
        aps = [AccessPoint(0, 49.0, 0.3), AccessPoint(1, 48.0, 1.2)]
        mask = selection.select_mrt(aps)
        # absurdly high threshold annihilates every link
        assert selection.combined_rss(mask, aps, 150e9, P, CFG, gamma_th=1.0) == 0.0

    def test_mrt_additivity_two_identical_aps(self):
        aps = [AccessPoint(0, 10.0, 0.8), AccessPoint(1, 10.0, 0.8)]
        mask = selection.select_mrt(aps)
        single = phy.link_rss(150e9, aps[0], P, CFG)
        got = selection.combined_rss(mask, aps, 150e9, P, CFG, gamma_th=0.0)
        assert got == pytest.approx(2 * single)

    def test_mrt_term_by_term(self):
        aps = random_aps(np.random.default_rng(7), 4)
        mask = selection.select_mrt(aps)
        f = 180e9
        expected = sum(
            rss
            for rss in (phy.link_rss(f, ap, P, CFG) for ap in aps)
            if rss >= GAMMA_TH
        )
        got = selection.combined_rss(mask, aps, f, P, CFG, GAMMA_TH)
        assert got == pytest.approx(expected)

    def test_best_per_subchannel_is_max_form(self):
        aps = random_aps(np.random.default_rng(8), 5)
        mask = selection.select_best_per_subchannel()
        f = 220e9
        rss = np.array([phy.link_rss(f, ap, P, CFG) for ap in aps])
        rss[rss < GAMMA_TH] = 0.0
        got = selection.combined_rss(mask, aps, f, P, CFG, GAMMA_TH)
        assert got == pytest.approx(rss.max())

    def test_vectorized_matches_scalar(self):
        aps = random_aps(np.random.default_rng(9), 3)
        mask = selection.select_mrt(aps)
        f = np.array([120e9, 150e9, 290e9])
        vec = selection.combined_rss(mask, aps, f, P, CFG, GAMMA_TH)
        scal = [selection.combined_rss(mask, aps, fi, P, CFG, GAMMA_TH) for fi in f]
        np.testing.assert_allclose(vec, scal)


def materialized_combined_rss(mask, aps, f, gamma_th):
    """Reference: the (links x points) matrix, gated, then reduced at once."""
    pool = aps if mask.scheme is Scheme.BEST_PER_SUBCHANNEL else [
        ap for ap in aps if ap.id in mask.static_set]
    per_link = np.array([phy.link_rss(f, ap, P, CFG) for ap in pool])
    per_link[per_link < gamma_th] = 0.0
    if mask.scheme is Scheme.BEST_PER_SUBCHANNEL:
        return per_link.max(axis=0)
    return per_link.sum(axis=0)


class TestStreamingCombinedRss:
    F = np.linspace(100.5e9, 299.5e9, 2001)

    @pytest.mark.parametrize("n_aps", [1, 2, 20, 160])
    def test_equals_materialized_reduction_bitwise(self, n_aps):
        aps = random_aps(np.random.default_rng(n_aps), n_aps)
        # far, steep-angled APs fall below gamma_th over the whole band
        aps += [AccessPoint(n_aps + i, 50.0, 1.55) for i in range(2)]
        masks = [
            selection.select_mrt(aps),
            selection.select_best_nsel(aps, min(2, len(aps)), P, CFG, F_UPPER),
            selection.select_best_per_subchannel(),
            selection.select_nearest(aps),
            SelectionMask(Scheme.BEST_NSEL, frozenset({n_aps, n_aps + 1})),
        ]
        assert np.all(phy.link_rss(self.F, aps[-1], P, CFG) < GAMMA_TH)
        for mask in masks:
            got = selection.combined_rss(mask, aps, self.F, P, CFG, GAMMA_TH)
            expected = materialized_combined_rss(mask, aps, self.F, GAMMA_TH)
            assert got.tobytes() == expected.tobytes(), mask.scheme
        dead = selection.combined_rss(masks[-1], aps, self.F, P, CFG, GAMMA_TH)
        assert not dead.any()

    @pytest.mark.parametrize("n_aps", [1, 20, 160])
    def test_one_pass_equals_per_mask_bitwise(self, n_aps):
        # a co-located run of identical geometries and two dead links ride
        # along; the pass computes the run's row once and adds it n times
        aps = random_aps(np.random.default_rng(100 + n_aps), n_aps)
        aps += [AccessPoint(n_aps + i, 7.0, 0.9) for i in range(n_aps)]
        aps += [AccessPoint(2 * n_aps + i, 50.0, 1.55) for i in range(2)]
        masks = [
            selection.select_mrt(aps),
            selection.select_best_nsel(aps, min(2, len(aps)), P, CFG, F_UPPER),
            selection.select_best_per_subchannel(),
            selection.select_nearest(aps),
            SelectionMask(Scheme.MRT, frozenset(ap.id for ap in aps[n_aps:2 * n_aps])),
            SelectionMask(Scheme.BEST_NSEL, frozenset({2 * n_aps, 2 * n_aps + 1})),
        ]
        rows = selection.combined_rss_rows(masks, aps, self.F, P, CFG, GAMMA_TH)
        assert len(rows) == len(masks)
        for mask, row in zip(masks, rows):
            single = selection.combined_rss(mask, aps, self.F, P, CFG, GAMMA_TH)
            expected = materialized_combined_rss(mask, aps, self.F, GAMMA_TH)
            assert row.tobytes() == single.tobytes() == expected.tobytes(), mask.scheme
        assert not rows[-1].any()

    def test_one_pass_with_every_link_dead(self):
        aps = random_aps(np.random.default_rng(4), 20)
        masks = [selection.select_mrt(aps), selection.select_best_per_subchannel()]
        rows = selection.combined_rss_rows(masks, aps, self.F, P, CFG, gamma_th=1.0)
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
        masks = [
            selection.select_mrt(aps + site),
            selection.select_best_per_subchannel(),
            selection.select_nearest(aps + site),
        ]
        selection.combined_rss_rows(masks, aps + site, self.F, P, CFG, GAMMA_TH)
        assert calls == [0, 1, 2, 3, 4, 5, 6]

    def test_scalar_query_equals_array_element(self):
        aps = random_aps(np.random.default_rng(3), 40)
        for mask in (selection.select_mrt(aps), selection.select_best_per_subchannel()):
            vec = selection.combined_rss(mask, aps, self.F[::250], P, CFG, GAMMA_TH)
            for f, v in zip(self.F[::250], vec):
                assert selection.combined_rss(mask, aps, f, P, CFG, GAMMA_TH) == v


class TestProperties:
    def test_mrt_dominates_any_subset_pointwise(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            aps = random_aps(rng, 6)
            f = rng.uniform(100e9, 300e9, 16)
            mrt = selection.combined_rss(selection.select_mrt(aps), aps, f, P, CFG, GAMMA_TH)
            for n_sel in (1, 3):
                sub = selection.combined_rss(
                    selection.select_best_nsel(aps, n_sel, P, CFG, F_UPPER),
                    aps, f, P, CFG, GAMMA_TH,
                )
                assert np.all(mrt >= sub - 1e-30)
            bps = selection.combined_rss(
                selection.select_best_per_subchannel(), aps, f, P, CFG, GAMMA_TH
            )
            assert np.all(mrt >= bps - 1e-30)
            assert np.all(bps >= 0)

    def test_scheme_chain_in_mean(self):
        # MRT >= best-2 >= best-1-per-subchannel on average over scenarios
        rng = np.random.default_rng(11)
        f = np.linspace(100e9, 300e9, 64)
        tot = {"mrt": 0.0, "b2": 0.0, "bps": 0.0}
        for _ in range(50):
            aps = random_aps(rng, 8)
            tot["mrt"] += selection.combined_rss(
                selection.select_mrt(aps), aps, f, P, CFG, GAMMA_TH
            ).mean()
            tot["b2"] += selection.combined_rss(
                selection.select_best_nsel(aps, 2, P, CFG, F_UPPER), aps, f, P, CFG, GAMMA_TH
            ).mean()
            tot["bps"] += selection.combined_rss(
                selection.select_best_per_subchannel(), aps, f, P, CFG, GAMMA_TH
            ).mean()
        assert tot["mrt"] >= tot["b2"] >= tot["bps"] > 0

    def test_constant_gain_reduces_best_at_to_nearest(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            aps = random_aps(rng, 6)
            nearest = next(iter(selection.select_nearest(aps).static_set))
            for f in rng.uniform(100e9, 300e9, 8):
                assert (
                    selection.select_best_at(aps, f, P, CFG, gain_fn=constant_gain)
                    == nearest
                )

    def test_psd_scaling_never_changes_selection(self):
        rng = np.random.default_rng(13)
        aps = random_aps(rng, 7)
        for scale in (1e-3, 1.0, 1e6):
            assert (
                selection.select_best_nsel(aps, 3, P * scale, CFG, F_UPPER).static_set
                == selection.select_best_nsel(aps, 3, P, CFG, F_UPPER).static_set
            )
            assert selection.select_best_at(aps, 211e9, P * scale, CFG) == (
                selection.select_best_at(aps, 211e9, P, CFG)
            )


class TestMaskInvariants:
    def test_nearest_must_be_singleton(self):
        with pytest.raises(ValueError):
            selection.SelectionMask(Scheme.NEAREST, frozenset({1, 2}))

    def test_per_subchannel_carries_no_set(self):
        with pytest.raises(ValueError):
            selection.SelectionMask(Scheme.BEST_PER_SUBCHANNEL, frozenset({1}))

    def test_static_schemes_need_aps(self):
        with pytest.raises(ValueError):
            selection.SelectionMask(Scheme.MRT, frozenset())


class TestAccessPoint:
    @pytest.mark.parametrize("distance", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="distance must be finite and > 0"):
            AccessPoint(0, distance, 0.7)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, 0.0, np.pi / 2])
    def test_bad_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be in"):
            AccessPoint(0, 5.0, angle)
