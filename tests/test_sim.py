import numpy as np
import pytest

from cfthz import alloc, phy, selection, sim
from cfthz.alloc import CEConfig
from cfthz.sim import ScenarioConfig


def fast_cfg(**kw):
    """Small, fast configuration for structural tests."""
    base = dict(
        n_aps=4,
        trials=3,
        ce=CEConfig(n_sub=6, samples=8, elites=2, max_iter=2, step=50e6),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def trial(aps, scheme, cfg, rng):
    """`run_trial` on the scheme's own link pass."""
    return sim.run_trial(aps, scheme, cfg, rng, sim.scheme_rss([scheme], aps, cfg)[scheme])


def equal_trial(aps, cfg):
    """`equal_allocation_trial` on the MRT row of its own link pass."""
    return sim.equal_allocation_trial(aps, cfg, sim.scheme_rss(["mrt"], aps, cfg)["mrt"][1])


class TestGenerateScenario:
    def test_support(self):
        cfg = fast_cfg(n_aps=200)
        aps = sim.generate_scenario(np.random.default_rng(0), cfg)
        d = np.array([ap.distance for ap in aps])
        theta = np.array([ap.angle for ap in aps])
        assert np.all((d > cfg.d_min) & (d <= cfg.radius))
        assert np.all((theta > 0) & (theta < np.pi / 2))

    def test_mean_distance(self):
        cfg = fast_cfg(n_aps=100000)
        aps = sim.generate_scenario(np.random.default_rng(1), cfg)
        d = np.mean([ap.distance for ap in aps])
        expected = (cfg.d_min + cfg.radius) / 2
        assert abs(d - expected) / expected < 0.01

    def test_determinism(self):
        cfg = fast_cfg()
        a = sim.generate_scenario(np.random.default_rng(42), cfg)
        b = sim.generate_scenario(np.random.default_rng(42), cfg)
        assert a == b


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


class TestEqualAllocationBaseline:
    def test_plan_geometry_from_defaults(self):
        # 40 channels of 0.4 GHz at 5 GHz spacing inside a 200 GHz band
        cfg = ScenarioConfig()
        spacing = (cfg.f_upper - cfg.f_co) / cfg.ce.n_sub
        width = cfg.b_total / cfg.ce.n_sub
        assert spacing == pytest.approx(5e9)
        assert width == pytest.approx(0.4e9)
        assert width < spacing

    def test_overlapping_equal_plan_rejected(self):
        # rejected when the config is built, so no sweep fails mid-way
        with pytest.raises(ValueError, match="equal_mrt plan overlaps"):
            fast_cfg(b_total=250e9, f_co=100e9, f_upper=300e9, antenna=None)
        # a budget of exactly the band fits; without equal_mrt any budget does
        fast_cfg(b_total=200e9, f_co=100e9, f_upper=300e9, antenna=None)
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
        aps = [selection.AccessPoint(i, 10.0, 0.8) for i in range(6)]
        mrt = (selection.select_mrt(aps), np.add)
        f = 150e9
        one = phy.link_rss(f, aps[0], cfg.p, cfg.antenna)
        (combined,) = selection.combined_rss_rows([mrt], aps, [f], cfg.p, cfg.antenna, 0.0)
        assert combined == pytest.approx(6 * one)

    def test_determinism(self):
        cfg = fast_cfg()
        a = sim.colocated_trial(np.random.default_rng(13), np.random.default_rng(14), cfg)
        b = sim.colocated_trial(np.random.default_rng(13), np.random.default_rng(14), cfg)
        assert a == b


class TestMonteCarlo:
    def test_single_trial_mean_is_trial_value(self):
        cfg = fast_cfg(trials=1, schemes=("mrt",))
        sweep = sim.monte_carlo(cfg, "n_aps", [4])
        cell = sim._trial_cell(cfg, 0, 0)
        assert sweep.rows[0].mean_rate == cell["mrt"].plan_rate
        assert sweep.rows[0].stderr_rate == 0.0

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

    def test_pool_never_exceeds_usable_cpus(self, monkeypatch):
        pools = []

        class RecordingPool(sim.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordingPool)
        cfg = fast_cfg(trials=2, schemes=("nearest",))
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        capped = sim.monte_carlo(cfg, "n_aps", [4], threads=8)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
        serial = sim.monte_carlo(cfg, "n_aps", [4], threads=8)
        assert pools == [2]
        assert capped == serial

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
            [sim._trial_cell(cfg, 0, t)["nearest"].plan_rate for t in range(6)]
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
            rates = np.array([sim._trial_cell(cfg_v, axis_idx, t)["mrt"].plan_rate
                              for t in range(2)])
            assert row.mean_rate == rates.mean()

    @pytest.mark.parametrize("bad", [0, 2.5, float("inf")])
    def test_bad_value_fails_before_any_cell(self, monkeypatch, bad):
        cells = []
        monkeypatch.setattr(sim, "_trial_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="n_aps"):
            sim.monte_carlo(fast_cfg(), "n_aps", [2, bad])
        assert cells == []

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_fail_before_any_cell(self, monkeypatch, threads):
        cells = []
        monkeypatch.setattr(sim, "_trial_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            sim.monte_carlo(fast_cfg(), "n_aps", [2], threads=threads)
        assert cells == []


class TestConfigValidation:
    def test_band_ordering(self):
        with pytest.raises(ValueError):
            ScenarioConfig(f_co=300e9, f_upper=100e9, antenna=None)

    def test_antenna_cutoff_must_match(self):
        with pytest.raises(ValueError):
            ScenarioConfig(f_co=200e9, antenna=phy.AntennaConfig(f_co=100e9))

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

    @pytest.mark.parametrize(
        "field, value",
        [("eps_db", -0.1), ("n_aps", 0), ("n_aps", -2), ("n_sel", 0),
         ("angle_guard", 0.0), ("angle_guard", -0.01), ("angle_guard", np.pi / 4),
         ("angle_guard", 1.0), ("noise_psd", 0.0), ("noise_psd", -1e-21), ("seed", -1)],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(trials=trials)

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
        # a small radius keeps most links above gamma_th, so the schemes'
        # rows differ
        cfg = fast_cfg(n_aps=n_aps, radius=8.0, schemes=schemes)
        cell = sim._trial_cell(cfg, 0, 2)
        aps = sim.generate_scenario(rng_for(cfg, 2, SCENARIO), cfg)
        assert list(cell) == list(schemes)
        for scheme, got in cell.items():
            if scheme == "equal_mrt":
                expected = equal_trial(aps, cfg)
            elif scheme == "colocated":
                expected = sim.colocated_trial(
                    rng_for(cfg, 2, COLOCATED),
                    rng_for(cfg, 2, CE),
                    cfg,
                )
            else:
                expected = trial(aps, scheme, cfg, rng_for(cfg, 2, CE))
            assert got == expected, scheme

    @pytest.mark.parametrize("n_aps", [1, 4, 12])
    def test_grid_sized_link_rows_per_cell(self, monkeypatch, n_aps):
        # every AP of the scenario once, plus the co-located site once
        cfg = fast_cfg(n_aps=n_aps)
        n_grid = alloc.grid_freqs(cfg.band, cfg.ce.step).size
        sizes = []
        real = phy.link_rss

        def counting(f, *args, **kwargs):
            sizes.append(np.size(f))
            return real(f, *args, **kwargs)

        monkeypatch.setattr(phy, "link_rss", counting)
        sim._trial_cell(cfg, 0, 0)
        assert sizes.count(n_grid) == n_aps + 1

    @pytest.mark.parametrize("n_aps", [1, 7, 40])
    def test_scheme_rows_equal_materialized_oracle(self, n_aps):
        # every selected link gated at gamma_th, then summed; the best AP per
        # subchannel is the max over every link
        cfg = fast_cfg(n_aps=n_aps, radius=8.0)
        aps = sim.generate_scenario(np.random.default_rng(n_aps), cfg)
        f = alloc.grid_freqs(cfg.band, cfg.ce.step)
        links = np.array([phy.link_rss(f, ap, cfg.p, cfg.antenna) for ap in aps])
        links[links < cfg.gamma_th] = 0.0
        best = sorted(selection.select_best_nsel(
            aps, min(cfg.n_sel, n_aps), cfg.p, cfg.antenna, cfg.f_upper))
        nearest = min(aps, key=lambda ap: (ap.distance, ap.id)).id
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
        assert grid.freqs.tobytes() == freqs.tobytes()
        from_fn = alloc.GridRss(lambda f: rss, cfg.band, cfg.ce.step)
        assert grid.values.tobytes() == from_fn.values.tobytes()
        with pytest.raises(ValueError, match="shape"):
            alloc.GridRss(rss[:-1], cfg.band, cfg.ce.step)
