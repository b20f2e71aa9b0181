import threading
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfthz import alloc, phy, selection, sim
from cfthz.alloc import CEConfig
from cfthz.sim import ScenarioConfig
from cfthz.selection import Drop
from oracles import ap_pairs, link_rss, log_uniform, nearest_id


def fast_cfg(**kw):
    """Small, fast configuration for structural tests."""
    base = dict(
        n_aps=4,
        trials=3,
        ce=CEConfig(n_sub=6, samples=8, elites=2, max_iter=2, step=50e6),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def solo_trial(aps, scheme, cfg, rng, ids_rss):
    """A solo `ce_optimize` on the scheme's grid, rated by `run_trial`."""
    grid = alloc.GridRss(ids_rss[1], cfg.band, cfg.ce.step)
    result = alloc.ce_optimize(grid, cfg.ce, rng, eps_db=cfg.eps_db, total_budget=cfg.b_total,
                               noise_psd=cfg.noise_psd)
    return sim.run_trial(aps, scheme, cfg, result, ids_rss)


def trial(aps, scheme, cfg, rng):
    """`solo_trial` on the scheme's own link pass."""
    return solo_trial(aps, scheme, cfg, rng, sim.scheme_rss([scheme], aps, cfg)[scheme])


def colocated_trial(draw_rng, ce_rng, cfg):
    """The co-located baseline of one cell, solo: `colocated_site`, then
    `solo_trial` on the site's APs."""
    aps, ids_rss = sim.colocated_site(draw_rng, cfg)
    return solo_trial(aps, "colocated", cfg, ce_rng, ids_rss)


def equal_trial(aps, cfg):
    """`equal_allocation_trial` on the MRT row of its own link pass."""
    return sim.equal_allocation_trial(aps, cfg, sim.scheme_rss(["mrt"], aps, cfg)["mrt"][1])


class TestGenerateScenario:
    def test_support(self):
        cfg = fast_cfg(n_aps=200)
        aps = sim.generate_scenario(np.random.default_rng(0), cfg)
        d, theta = aps.distance, aps.angle
        assert np.all((d > cfg.d_min) & (d <= cfg.radius))
        assert np.all((theta > 0) & (theta < np.pi / 2))

    def test_mean_distance(self):
        cfg = fast_cfg(n_aps=100000)
        aps = sim.generate_scenario(np.random.default_rng(1), cfg)
        d = np.mean(aps.distance)
        expected = (cfg.d_min + cfg.radius) / 2
        assert abs(d - expected) / expected < 0.01

    def test_determinism(self):
        cfg = fast_cfg()
        a = sim.generate_scenario(np.random.default_rng(42), cfg)
        b = sim.generate_scenario(np.random.default_rng(42), cfg)
        assert ap_pairs(a) == ap_pairs(b)


class TestRunTrial:
    def test_single_ap_degeneracy(self):
        # one AP: all four selection schemes see the same combined RSS and
        # identical CE streams, hence identical rates
        cfg = fast_cfg(n_aps=1)
        aps = sim.generate_scenario(np.random.default_rng(2), cfg)
        rates = {
            s: trial(aps, s, cfg, np.random.default_rng(3)).plan_rate
            for s in sim.CE_SCHEMES
        }
        assert len({round(r, 3) for r in rates.values()}) == 1

    def test_active_counts(self):
        cfg = fast_cfg(n_aps=5)
        aps = sim.generate_scenario(np.random.default_rng(4), cfg)
        assert trial(aps, "mrt", cfg, np.random.default_rng(5)).active_aps == 5
        assert trial(aps, "nearest", cfg, np.random.default_rng(5)).active_aps == 1
        assert trial(aps, "best_nsel", cfg, np.random.default_rng(5)).active_aps == 2
        bps = trial(aps, "best_per_subchannel", cfg, np.random.default_rng(5))
        assert 1 <= bps.active_aps <= 5

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", sim.CE_SCHEMES)
    def test_plan_rate_is_the_runs_plan_value(self, scheme, seed):
        # the rater scores the final plan on the grid again; that equals the
        # value the CE run gave it bit for bit, so trial.json's
        # plan_rate_bps is the run's final rate
        cfg = fast_cfg(n_aps=5, radius=8.0)
        aps = sim.generate_scenario(np.random.default_rng(seed), cfg)
        ids_rss = sim.scheme_rss([scheme], aps, cfg)[scheme]
        grid = alloc.GridRss(ids_rss[1], cfg.band, cfg.ce.step)
        result = alloc.ce_optimize(grid, cfg.ce, np.random.default_rng(seed + 10),
                                   eps_db=cfg.eps_db, total_budget=cfg.b_total,
                                   noise_psd=cfg.noise_psd)
        assert result.plan_value > 0
        assert sim.run_trial(aps, scheme, cfg, result, ids_rss).plan_rate == result.plan_value

    def test_all_links_dead_gives_zero_rate(self):
        cfg = fast_cfg(gamma_th=1.0)  # 1 W/Hz sensitivity kills everything
        aps = sim.generate_scenario(np.random.default_rng(6), cfg)
        res = trial(aps, "mrt", cfg, np.random.default_rng(7))
        assert res.plan_rate == 0.0
        assert res.integrated_rate == 0.0

    def test_emitted_plan_valid(self):
        cfg = fast_cfg()
        aps = sim.generate_scenario(np.random.default_rng(8), cfg)
        res = trial(aps, "mrt", cfg, np.random.default_rng(9))
        res.plan.validate(cfg.band)


class TestDegenerateConfigsRejected:
    """Configs whose band grid or budget leaves no channel to allocate fail
    when they are built, naming the field."""

    def test_grid_needs_two_points(self):
        one_point = r"ce\.step .* gives 1 grid points over antenna\.f_co\.\.f_upper; need 2 to"
        for kw in (dict(ce=CEConfig(step=300e9)), dict(f_upper=100.000001e9)):
            with pytest.raises(ValueError, match=one_point):
                fast_cfg(schemes=("equal_mrt",), **kw)
        # the equal split needs no width search, so two points are enough
        fast_cfg(schemes=("equal_mrt",), f_upper=100e9 + 50e6, b_total=50e6)

    @pytest.mark.parametrize("scheme", sim.CE_SCHEMES + ("colocated",))
    def test_ce_grid_needs_three_points(self, scheme):
        # a CE channel needs a grid point on each side of its center: on a
        # two-point grid every CE rate was 0
        two_point = r"ce\.step .* gives 2 grid points over antenna\.f_co\.\.f_upper; need 3 to"
        for schemes in ((scheme,), (scheme, "equal_mrt")):
            with pytest.raises(ValueError, match=two_point):
                fast_cfg(schemes=schemes, f_upper=100e9 + 50e6, b_total=1e9)
        cfg = fast_cfg(schemes=(scheme,), f_upper=100e9 + 100e6, b_total=1e9, seed=3)
        assert sim._trial_cell(cfg, 0, 0)[scheme].plan_rate > 0

    def test_grid_size_is_bounded(self):
        # the grid is counted, never built: 2e14 points raise at once
        with pytest.raises(ValueError, match=r"ce\.step 0\.001 Hz gives 200000000000001 grid"):
            fast_cfg(ce=CEConfig(step=1e-3))
        band = 300e9 - 100e9
        fast_cfg(ce=CEConfig(step=band / (sim.MAX_GRID_POINTS - 1)))
        with pytest.raises(ValueError, match=f"gives {sim.MAX_GRID_POINTS + 1} grid points"):
            fast_cfg(ce=CEConfig(step=band / sim.MAX_GRID_POINTS))

    @pytest.mark.parametrize("scheme", sim.CE_SCHEMES + ("colocated",))
    def test_budget_admits_one_channel(self, scheme):
        with pytest.raises(ValueError, match=r"b_total 1000 Hz is below one 2 \* ce\.step"):
            fast_cfg(b_total=1e3, schemes=(scheme, "equal_mrt"))
        fast_cfg(b_total=2 * 50e6, schemes=(scheme,))
        # the equal split has no width search to starve
        fast_cfg(b_total=1e3, schemes=("equal_mrt",))

    @pytest.mark.parametrize("schemes", [(), ("mrt", "mrt"), ("nearest", "mrt", "nearest")])
    def test_schemes_empty_or_repeated(self, schemes):
        with pytest.raises(ValueError, match="schemes must list at least one scheme, each once"):
            fast_cfg(schemes=schemes)


class TestEqualAllocationBaseline:
    def test_plan_geometry_from_defaults(self):
        # 40 channels of 0.4 GHz at 5 GHz spacing inside a 200 GHz band
        cfg = ScenarioConfig()
        spacing = (cfg.f_upper - cfg.antenna.f_co) / cfg.ce.n_sub
        width = cfg.b_total / cfg.ce.n_sub
        assert spacing == pytest.approx(5e9)
        assert width == pytest.approx(0.4e9)
        assert width < spacing

    def test_overlapping_equal_plan_rejected(self):
        # rejected when the config is built, so no sweep fails mid-way
        with pytest.raises(ValueError, match="equal_mrt plan overlaps"):
            fast_cfg(b_total=250e9, f_upper=300e9)
        # a budget of exactly the band fits; without equal_mrt any budget does
        fast_cfg(b_total=200e9, f_upper=300e9)
        fast_cfg(b_total=250e9, schemes=sim.CE_SCHEMES + ("colocated",))

    def test_zero_rss_scenario(self):
        cfg = fast_cfg(gamma_th=1.0)
        aps = sim.generate_scenario(np.random.default_rng(11), cfg)
        assert equal_trial(aps, cfg).integrated_rate == 0.0

    def test_plan_is_valid_and_budget_tight(self):
        cfg = fast_cfg()
        aps = sim.generate_scenario(np.random.default_rng(12), cfg)
        res = equal_trial(aps, cfg)
        res.plan.validate(cfg.band)
        assert res.plan.total_width == pytest.approx(cfg.b_total)


class TestColocatedBaseline:
    def test_identical_links_combine_to_n_gamma(self):
        cfg = fast_cfg(n_aps=6)
        aps = Drop([10.0] * 6, [0.8] * 6)
        mrt = (selection.select_mrt(aps), np.add)
        f = 150e9
        one = link_rss(f, 10.0, 0.8, cfg.p, cfg.antenna)
        (combined,) = selection.combined_rss_rows([mrt], aps, [f], cfg.p, cfg.antenna, 0.0)
        assert combined == pytest.approx(6 * one)

    def test_determinism(self):
        cfg = fast_cfg()
        a = colocated_trial(np.random.default_rng(13), np.random.default_rng(14), cfg)
        b = colocated_trial(np.random.default_rng(13), np.random.default_rng(14), cfg)
        assert a == b

    @pytest.mark.parametrize("n_aps", [1, 6, 160])
    def test_site_costs_one_link_row(self, monkeypatch, n_aps):
        # the site's one row, added n_aps times, gives the link pass over
        # its n_aps co-located APs, and so their trial, bit for bit
        cfg = fast_cfg(n_aps=n_aps, radius=8.0)
        draw_rng = np.random.default_rng(21)
        site = (draw_rng.uniform(cfg.d_min, cfg.radius),
                draw_rng.uniform(cfg.angle_guard, np.pi / 2 - cfg.angle_guard))
        aps = Drop([site[0]] * n_aps, [site[1]] * n_aps)
        ids, rss = sim.scheme_rss(["mrt"], aps, cfg)["mrt"]
        expected = solo_trial(aps, "mrt", cfg, np.random.default_rng(22), (ids, rss))
        assert expected.plan_rate > 0
        links = []
        real_rows = phy.gated_link_rows

        def counting(f, distance, angle, *args, **kwargs):
            windows = real_rows(f, distance, angle, *args, **kwargs)
            for link, window in zip(zip(distance, angle), windows):
                links.append((link, f.size))
                yield window

        monkeypatch.setattr(phy, "gated_link_rows", counting)
        got_aps, (got_ids, got_rss) = sim.colocated_site(np.random.default_rng(21), cfg)
        assert links == [(site, rss.size)]
        assert ap_pairs(got_aps) == ap_pairs(aps)
        assert got_ids == ids
        assert got_rss.tobytes() == rss.tobytes()
        got = solo_trial(got_aps, "colocated", cfg, np.random.default_rng(22), (got_ids, got_rss))
        assert got == replace(expected, scheme="colocated")

    @pytest.mark.parametrize("n_aps", [1, 7, 160])
    def test_site_is_its_gated_row_added_n_times(self, n_aps):
        # the N-fold sum of the site's full gated row, which row * N is not
        cfg = fast_cfg(n_aps=n_aps, radius=8.0)
        aps, (ids, rss) = sim.colocated_site(np.random.default_rng(3), cfg)
        assert ids == set(range(n_aps))
        row = link_rss(alloc.grid_freqs(cfg.band, cfg.ce.step), *ap_pairs(aps)[0], cfg.p,
                       cfg.antenna)
        row[row < cfg.gamma_th] = 0.0
        want = np.zeros(row.size)
        for _ in range(n_aps):
            want += row
        assert rss.tobytes() == want.tobytes()
        assert row.any() and (n_aps < 7 or np.any(want != row * n_aps))


class TestMonteCarlo:
    def test_single_trial_mean_is_trial_value(self):
        # every scheme, equal_mrt and the CE schemes alike, is averaged by
        # the integral of the plan it emits
        cfg = fast_cfg(trials=1)
        sweep = sim.monte_carlo(cfg, "n_aps", [4])
        cell = sim._trial_cell(cfg, 0, 0)
        assert [row.scheme for row in sweep.rows] == list(sim.ALL_SCHEMES)
        for row in sweep.rows:
            assert row.mean_rate == cell[row.scheme].integrated_rate, row.scheme
            assert row.stderr_rate == 0.0

    def test_substream_determinism_under_more_trials(self):
        cfg3 = fast_cfg(trials=3, schemes=("mrt",))
        cfg6 = fast_cfg(trials=6, schemes=("mrt",))
        first = [sim._trial_cell(cfg3, 0, t)["mrt"].plan_rate for t in range(3)]
        more = [sim._trial_cell(cfg6, 0, t)["mrt"].plan_rate for t in range(3)]
        assert first == more

    def test_bit_identical_across_runs_and_threads(self):
        cfg = fast_cfg(trials=4, schemes=("mrt", "nearest"))
        s1 = sim.monte_carlo(cfg, "n_aps", [3, 4], threads=1)
        s2 = sim.monte_carlo(cfg, "n_aps", [3, 4], threads=1)
        s4 = sim.monte_carlo(cfg, "n_aps", [3, 4], threads=4)
        assert s1 == s2 == s4

    def test_cells_run_in_order_on_the_calling_thread(self, monkeypatch):
        calls = []
        real = sim._trial_cell

        def recording_cell(cfg, axis_idx, trial_idx):
            calls.append((threading.get_ident(), (axis_idx, trial_idx)))
            return real(cfg, axis_idx, trial_idx)

        monkeypatch.setattr(sim, "_trial_cell", recording_cell)
        cfg = fast_cfg(trials=2, schemes=("nearest",))
        sim.monte_carlo(cfg, "n_aps", [3, 4], threads=2)
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        assert [cell for _, cell in calls] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_row_schema(self):
        cfg = fast_cfg(trials=2)
        sweep = sim.monte_carlo(cfg, "b_total", [8e9, 16e9])
        assert len(sweep.rows) == 2 * len(cfg.schemes)
        for row in sweep.rows:
            assert row.mean_rate >= 0
            assert row.trials == 2
            assert row.mean_active_aps <= cfg.n_aps

    def test_stderr_is_sample_standard_error(self):
        cfg = fast_cfg(trials=6, schemes=("nearest",))
        row = sim.monte_carlo(cfg, "n_aps", [4]).rows[0]
        rates = np.array(
            [sim._trial_cell(cfg, 0, t)["nearest"].integrated_rate for t in range(6)]
        )
        assert row.mean_rate == pytest.approx(rates.mean())
        assert row.stderr_rate == pytest.approx(rates.std(ddof=1) / np.sqrt(6))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sim.monte_carlo(fast_cfg(), "radius", [10])

    def test_axis_index_is_position_in_values(self):
        # the second value's trials draw from axis index 1's substreams
        cfg = fast_cfg(trials=2, schemes=("mrt",))
        rows = sim.monte_carlo(cfg, "n_aps", [3, 4]).rows
        for axis_idx, (n_aps, row) in enumerate(zip([3, 4], rows)):
            cfg_v = fast_cfg(trials=2, schemes=("mrt",), n_aps=n_aps)
            rates = np.array([sim._trial_cell(cfg_v, axis_idx, t)["mrt"].integrated_rate
                              for t in range(2)])
            assert row.mean_rate == rates.mean()

    @pytest.mark.parametrize("bad", [0, 2.5, float("inf")])
    def test_bad_value_fails_before_any_cell(self, monkeypatch, bad):
        cells = []
        monkeypatch.setattr(sim, "_trial_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="n_aps"):
            sim.monte_carlo(fast_cfg(), "n_aps", [2, bad])
        assert cells == []

    @pytest.mark.parametrize("axis, bad", [("n_aps", 2.5), ("n_aps", 0), ("b_total", -1e9)])
    def test_bad_value_is_named_by_its_error_type(self, axis, bad):
        # the one value -> config step; a caller can blame exactly this error
        # on the values it passed
        good = {"n_aps": 4, "b_total": 4e9}[axis]
        with pytest.raises(sim.AxisValueError, match=f"{axis} = {bad}: ") as info:
            sim.monte_carlo(fast_cfg(), axis, [good, bad])
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_fail_before_any_cell(self, monkeypatch, threads):
        cells = []
        monkeypatch.setattr(sim, "_trial_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            sim.monte_carlo(fast_cfg(), "n_aps", [2], threads=threads)
        assert cells == []


class TestLinkPsdBound:
    """A config builds only if its peak link PSD (`phy.peak_link_psd`) and
    the values the gain squares on the way are finite; then every link
    row, combined row and rate it gives is finite."""

    @pytest.mark.parametrize("antenna, field", [
        # sinh(atten * L / 2)^2 overflowed: equal_mrt rated inf and NaN,
        # every CE scheme 0 on a grid read as dead
        (dict(atten=1e6), "antenna.atten"),
        # the sinc argument overflowed when squared: NaN rates
        (dict(aperture=1e200), "antenna.aperture"),
    ])
    def test_overflowing_antenna_rejected(self, antenna, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            fast_cfg(antenna=phy.AntennaConfig(**antenna))

    @pytest.mark.parametrize("kw", [dict(p_total=1e308, b_total=1e-300, schemes=("equal_mrt",)),
                                    dict(d_min=1e-200), dict(noise_psd=1e-300, p_total=1e290)])
    def test_overflowing_link_budget_rejected(self, kw):
        with pytest.raises(ValueError, match="^p_total"):
            fast_cfg(**kw)

    def test_ap_closer_than_d_min_rejected(self):
        # once an overflow warning and an inf row
        with pytest.raises(ValueError, match=r"^AP 0: distance 1e-160 m is below d_min 0\.5 m"):
            sim.scheme_rss(["mrt"], Drop([1e-160], [0.7]), ScenarioConfig())

    @settings(max_examples=100, deadline=None)
    @given(distance=st.floats(0.0, 50.0, exclude_min=True) | log_uniform(-320.0, 1.0),
           angle=st.floats(0.01, np.pi / 2 - 0.01))
    @example(distance=1e-160, angle=0.7)
    @example(distance=np.nextafter(0.5, 0.0), angle=0.7)
    @example(distance=0.5, angle=np.arcsin(0.5))  # at d_min, peaking at 200 GHz
    def test_scheme_rss_refuses_an_ap_or_gives_finite_rows(self, distance, angle):
        cfg = fast_cfg()
        aps = Drop([20.0, distance], [0.3, angle])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rows = sim.scheme_rss(sim.CE_SCHEMES, aps, cfg)
            except ValueError as exc:
                assert distance < cfg.d_min, exc
                assert str(exc).startswith("AP 1: distance")
                return
        for _, row in rows.values():
            assert np.isfinite(row).all()

    def test_peak_bounds_every_link(self):
        # the bound at x = 0, the cutoff and d_min; the APs sit at d_min, so
        # the largest link comes within a few percent of it
        cfg = fast_cfg(n_aps=40, radius=0.6)
        peak = phy.peak_link_psd(cfg.p, cfg.antenna, cfg.f_upper, cfg.d_min)
        aps = Drop(np.full(40, cfg.d_min), np.linspace(0.05, 1.5, 40))
        f = alloc.grid_freqs(cfg.band, 10e6)
        top = phy.link_psd(f, aps.distance, aps.angle, cfg.p, cfg.antenna).max()
        assert 0.9 * peak < top <= peak

    # about half of these configs build; most of the rest overflow sinh
    @settings(max_examples=100, deadline=None)
    @given(
        atten=st.just(0.0) | log_uniform(-3.0, 4.5),
        aperture=log_uniform(-4.0, 2.0) | log_uniform(2.0, 160.0),
        p_total=log_uniform(-300.0, 300.0),
        d_min=log_uniform(-150.0, 1.0),
        efficiency=log_uniform(-150.0, 0.0),
    )
    # just below the overflow of sinh(s)^2 (refused from atten 7901.88) and
    # of the squared sinc argument (refused from aperture 2.134e150), and
    # the two inputs that once built
    @example(atten=7900.0, aperture=0.09, p_total=1.0, d_min=0.5, efficiency=1.0)
    @example(atten=1e6, aperture=0.09, p_total=1.0, d_min=0.5, efficiency=1.0)
    @example(atten=130.0, aperture=1e200, p_total=1.0, d_min=0.5, efficiency=1.0)
    @example(atten=0.0, aperture=2.1e150, p_total=1.0, d_min=0.5, efficiency=1.0)
    def test_every_config_that_builds_gives_finite_rows_and_rates(
            self, atten, aperture, p_total, d_min, efficiency):
        try:
            cfg = ScenarioConfig(
                n_aps=3, radius=20.0, d_min=d_min, p_total=p_total, trials=1,
                antenna=phy.AntennaConfig(atten=atten, aperture=aperture, efficiency=efficiency),
                ce=CEConfig(n_sub=3, samples=4, elites=2, max_iter=1, step=1e9),
            )
        except ValueError:
            return
        # no AP closer than d_min, which every link-PSD bound assumes
        aps = Drop([cfg.d_min, 19.0, max(1.0, cfg.d_min)], [0.7, 0.2, 1.4])
        f = alloc.grid_freqs(cfg.band, cfg.ce.step)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for row in phy.link_psd(f, aps.distance, aps.angle, cfg.p, cfg.antenna):
                assert np.isfinite(row).all()
            for _, row in sim.scheme_rss(sim.CE_SCHEMES, aps, cfg).values():
                assert np.isfinite(row).all()
            for res in sim._trial_cell(cfg, 0, 0).values():
                assert np.isfinite([res.plan_rate, res.integrated_rate]).all(), res.scheme


class TestConfigValidation:
    def test_band_ordering(self):
        with pytest.raises(ValueError):
            ScenarioConfig(antenna=phy.AntennaConfig(f_co=300e9), f_upper=100e9)

    def test_cutoff_lives_on_a_frozen_antenna(self):
        # moving the antenna's cutoff moves the band and the equal split
        cfg = ScenarioConfig()
        moved = replace(cfg, antenna=replace(cfg.antenna, f_co=200e9))
        assert moved.band == (200e9, 300e9)
        aps = sim.generate_scenario(np.random.default_rng(0), moved)
        centers = equal_trial(aps, moved).plan.centers
        assert centers[0] == pytest.approx(200e9 + 1.25e9)
        assert np.diff(centers) == pytest.approx(np.full(cfg.ce.n_sub - 1, 2.5e9))
        assert not hasattr(cfg, "f_co")
        # a checked config cannot be changed into one that would fail the checks
        with pytest.raises(FrozenInstanceError):
            cfg.ce.elites = 0
        with pytest.raises(FrozenInstanceError):
            cfg.b_total = 1e3
        with pytest.raises(FrozenInstanceError):
            cfg.antenna.f_co = 200e9
        assert (cfg.ce.elites, cfg.b_total) == (10, 16e9)

    def test_psd_derivation(self):
        cfg = ScenarioConfig()
        assert cfg.p == pytest.approx(1.0 / 16e9)

    @pytest.mark.parametrize(
        "field", ["eps_db", "radius", "b_total", "gamma_th", "noise_psd", "f_upper"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.float32("nan"), np.float64("inf"), np.float32("-inf")],
                             ids=["float32-nan", "float64-inf", "float32-minus-inf"])
    def test_numpy_non_finite_values_rejected(self, value):
        # np.float32 NaN once built, and swept to a rate of 0.0 in every CE scheme
        with pytest.raises(ValueError, match="eps_db must be a finite number"):
            ScenarioConfig(eps_db=value)

    @pytest.mark.parametrize(
        "field, value",
        [("eps_db", -0.1), ("n_aps", 0), ("n_aps", -2), ("n_sel", 0),
         ("angle_guard", 0.0), ("angle_guard", -0.01), ("angle_guard", np.pi / 4),
         ("angle_guard", 1.0), ("noise_psd", 0.0), ("noise_psd", -1e-21), ("seed", -1),
         ("gamma_th", 0.0)],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(trials=trials)

    def test_whole_number_floats_are_stored_as_ints(self):
        # trials = 1.0 and ce.n_sub = 2.0 once built and then failed in numpy
        cfg = fast_cfg(trials=2.0, n_aps=np.float64(4),
                       ce=CEConfig(n_sub=6.0, samples=8, elites=2, max_iter=np.int64(2),
                                   step=50e6))
        assert cfg == fast_cfg(trials=2)
        assert type(cfg.trials) is type(cfg.n_aps) is type(cfg.ce.n_sub) is int
        assert type(cfg.ce.max_iter) is int
        assert type(ScenarioConfig().noise_psd) is type(ScenarioConfig().gamma_th) is float
        assert (sim.monte_carlo(cfg, "b_total", [4e9]).rows
                == sim.monte_carlo(fast_cfg(trials=2), "b_total", [4e9]).rows)

    @pytest.mark.parametrize("build, field", [
        (lambda: ScenarioConfig(n_aps=20.5), "n_aps"),
        (lambda: ScenarioConfig(trials=np.float32(1.5)), "trials"),
        (lambda: CEConfig(n_sub=2.5), "n_sub"),
    ])
    def test_fraction_in_an_int_field_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            build()

    def test_max_iter_below_zero_rejected(self):
        # -1 once reached numpy as a negative array dimension; 0 stays legal
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            CEConfig(max_iter=-1)
        assert CEConfig(max_iter=0).max_iter == 0

    def test_schemes_are_stored_as_a_tuple(self):
        # a list once stayed a list, and the config could not be hashed
        cfg = ScenarioConfig(schemes=["mrt", "nearest"])
        assert cfg.schemes == ("mrt", "nearest")
        assert cfg == ScenarioConfig(schemes=("mrt", "nearest"))
        assert hash(cfg) == hash(ScenarioConfig(schemes=("mrt", "nearest")))

    def test_schemes_as_a_bare_string_rejected(self):
        # "mrt" once failed as the unknown schemes 'm', 'r' and 't'
        with pytest.raises(ValueError, match="schemes must be a sequence of scheme names"):
            ScenarioConfig(schemes="mrt")

    def test_non_finite_ce_and_antenna_fields_rejected(self):
        with pytest.raises(ValueError, match="step"):
            CEConfig(step=float("nan"))
        with pytest.raises(ValueError, match="smooth_power"):
            CEConfig(smooth_power=float("inf"))
        with pytest.raises(ValueError, match="atten"):
            phy.AntennaConfig(f_co=100e9, atten=float("inf"))
        with pytest.raises(ValueError, match="aperture"):
            phy.AntennaConfig(f_co=100e9, aperture=float("nan"))


# the substream tags of the scenario, CE and co-located streams
SCENARIO, CE, COLOCATED = 0, 1, 2


def rng_for(cfg, trial_idx, tag):
    """The substream `_trial_cell` derives for (axis 0, trial_idx, tag)."""
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, trial_idx, tag]))


class TestSharedLinkPass:
    @pytest.mark.parametrize(
        "schemes",
        [
            sim.ALL_SCHEMES,
            ("equal_mrt",),
            ("nearest", "colocated"),
            ("best_per_subchannel", "equal_mrt"),
        ],
    )
    @pytest.mark.parametrize("n_aps", [1, 7])
    def test_cell_equals_standalone_trials(self, schemes, n_aps):
        # the cell runs its CE schemes and the co-located site as one
        # batch; each equals a solo `ce_optimize` rated by `run_trial`. A
        # small radius keeps most links above gamma_th, so the rows differ
        cfg = fast_cfg(n_aps=n_aps, radius=8.0, schemes=schemes)
        cell = sim._trial_cell(cfg, 0, 2)
        aps = sim.generate_scenario(rng_for(cfg, 2, SCENARIO), cfg)
        assert list(cell) == list(schemes)
        for scheme, got in cell.items():
            if scheme == "equal_mrt":
                expected = equal_trial(aps, cfg)
            elif scheme == "colocated":
                expected = colocated_trial(rng_for(cfg, 2, COLOCATED), rng_for(cfg, 2, CE), cfg)
            else:
                expected = trial(aps, scheme, cfg, rng_for(cfg, 2, CE))
            assert got == expected, scheme

    def test_cell_runs_one_ce_batch(self, monkeypatch):
        # the four CE schemes and the co-located site share each
        # iteration's plan-kernel call, and one more for the final plans
        calls = []
        real = alloc._plan_rows

        def recording(table, idx, *args):
            calls.append((table.start.size, idx.shape[:2]))
            return real(table, idx, *args)

        monkeypatch.setattr(alloc, "_plan_rows", recording)
        cfg = fast_cfg(n_aps=4)
        sim._trial_cell(cfg, 0, 0)
        runs = len(sim.CE_SCHEMES) + 1
        assert calls == [(runs, (runs, cfg.ce.samples))] * cfg.ce.max_iter + [(runs, (runs, 1))]

    @pytest.mark.parametrize("n_aps", [1, 4, 12])
    def test_grid_sized_link_rows_per_cell(self, monkeypatch, n_aps):
        # every AP of the scenario once, plus the co-located site once, each
        # on a window of the band grid
        cfg = fast_cfg(n_aps=n_aps)
        n_grid = alloc.grid_freqs(cfg.band, cfg.ce.step).size
        sizes = []
        real = phy.gated_link_rows

        def counting(f, *args, **kwargs):
            assert f.size == n_grid
            for start, row in real(f, *args, **kwargs):
                sizes.append(row.size)
                yield start, row

        monkeypatch.setattr(phy, "gated_link_rows", counting)
        sim._trial_cell(cfg, 0, 0)
        assert len(sizes) == n_aps + 1
        assert max(sizes) <= n_grid

    @pytest.mark.parametrize("n_aps", [1, 7, 40])
    def test_scheme_rows_equal_materialized_oracle(self, n_aps):
        # every selected link gated at gamma_th, then summed; the best AP per
        # subchannel is the max over every link
        cfg = fast_cfg(n_aps=n_aps, radius=8.0)
        aps = sim.generate_scenario(np.random.default_rng(n_aps), cfg)
        f = alloc.grid_freqs(cfg.band, cfg.ce.step)
        links = np.array([link_rss(f, d, theta, cfg.p, cfg.antenna) for d, theta in ap_pairs(aps)])
        links[links < cfg.gamma_th] = 0.0
        best = sorted(selection.select_best_nsel(
            aps, min(cfg.n_sel, n_aps), cfg.p, cfg.antenna, cfg.f_upper))
        nearest = nearest_id(aps.distance.tolist())
        expected = {
            "mrt": (set(range(n_aps)), links.sum(axis=0)),
            "best_nsel": (set(best), links[best].sum(axis=0)),
            "best_per_subchannel": (set(range(n_aps)), links.max(axis=0)),
            "nearest": ({nearest}, links[[nearest]].sum(axis=0)),
        }
        got = sim.scheme_rss(sim.CE_SCHEMES, aps, cfg)
        assert list(got) == list(sim.CE_SCHEMES)
        for scheme, (ids, row) in got.items():
            want_ids, want_row = expected[scheme]
            assert ids == want_ids, scheme
            assert row.tobytes() == want_row.tobytes(), scheme

    def test_grid_takes_samples_at_its_own_frequencies(self):
        cfg = fast_cfg()
        freqs = alloc.grid_freqs(cfg.band, cfg.ce.step)
        rss = np.linspace(1.0, 2.0, freqs.size)
        grid = alloc.GridRss(rss, cfg.band, cfg.ce.step)
        assert (grid.band[0] + grid.step * np.arange(rss.size)).tobytes() == freqs.tobytes()
        assert grid.values.tobytes() == rss.tobytes()
        with pytest.raises(ValueError, match="shape"):
            alloc.GridRss(rss[:-1], cfg.band, cfg.ce.step)
