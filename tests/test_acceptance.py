"""Acceptance suite: one test per release criterion.

Each test is a self-contained end-to-end check; the PASSED/FAILED line of
`pytest -v` is the per-criterion verdict. Monte Carlo criteria run at a
reduced cross-entropy budget (fewer samples and iterations than the
simulation defaults) so the whole suite finishes on a desktop; the checked
properties are scale-robust and were also spot-checked at full budget.
"""

import time

import numpy as np
import pytest

from cfthz import alloc, cli, phy, selection, sim
from cfthz.alloc import CEConfig, GridRss
from cfthz.phy import AntennaConfig
from cfthz.selection import Drop
from cfthz.sim import ScenarioConfig
from oracles import sampled_grid

NOISE = phy.dbm_per_hz_to_w_per_hz(-168.0)
GAMMA_TH = phy.dbm_per_hz_to_w_per_hz(-174.5)
BAND = (100e9, 300e9)
P = 1.0 / 16e9

# reduced-budget CE used by the Monte Carlo criteria
DESK_CE = CEConfig(n_sub=40, samples=30, elites=5, max_iter=10, step=10e6)


def test_c01_gain_peak_tracks_beam_angle():
    """Low-attenuation apertures radiate hardest at f_co / sin(theta)."""
    start = time.perf_counter()
    cfg = AntennaConfig(f_co=100e9, atten=13.0)
    freqs = np.arange(100e9, 300e9 + 1e6, 1e6)
    for deg in (30.0, 45.0, 60.0, 80.0):
        theta = np.radians(deg)
        predicted = phy.peak_frequency(theta, cfg.f_co)
        measured = freqs[np.argmax(phy.antenna_gain(freqs, theta, cfg))]
        assert abs(measured - predicted) / predicted < 0.01, (
            f"theta={deg} deg: argmax {measured:.4e} vs predicted {predicted:.4e}"
        )
    assert time.perf_counter() - start < 10.0


def test_c02_analytic_unit_suite():
    cfg = AntennaConfig(f_co=100e9)
    # the guided mode stops propagating exactly at cutoff
    assert phy._guided(cfg.f_co, cfg.f_co)[1] == 0.0
    # above cutoff the guided wavenumber stays below the free-space one
    for f in (100.001e9, 150e9, 299e9, 1e12):
        assert 0.0 < phy._guided(f, cfg.f_co)[1] < phy._guided(f, cfg.f_co)[0]
    # the real-form sinc gain takes its limit xi*L at zero phase offset, also
    # without attenuation, and is continuous there
    for atten in (0.0, 130.0):
        lossy = AntennaConfig(f_co=100e9, atten=atten)
        s = atten * lossy.aperture / 2
        limit = lossy.aperture * (np.sinh(s) / s if s else 1.0)
        assert phy.sinc_gain(0.0, lossy) == pytest.approx(limit, rel=1e-15)
        for x in (1e-7, -1e-7, 9.9e-5, 1.01e-4):
            assert abs(phy.sinc_gain(x, lossy) - limit) < 1e-6 * limit
    assert phy.sinc_gain(0.0, AntennaConfig(f_co=100e9, atten=0.0)) == 0.09
    # free-space gain falls off as 1/d^2 and 1/f^2: a link row over p times
    # the antenna gain
    theta, f = 0.7, np.array([150e9, 300e9])
    near, far = phy.link_psd(f, [10.0, 20.0], [theta, theta], P, cfg)
    assert far[0] == pytest.approx(near[0] / 4, rel=1e-12)
    g = near / (P * phy.antenna_gain(f, theta, cfg))
    assert g[1] == pytest.approx(g[0] / 4, rel=1e-12)


def _fixed_scenario_grid():
    aps = Drop([20.0, 35.0, 10.0], [0.7, 1.1, 0.4])
    mrt = (selection.select_mrt(aps), np.add)
    cfg = AntennaConfig(f_co=100e9)
    return sampled_grid(
        lambda f: selection.combined_rss_rows([mrt], aps, f, P, cfg, GAMMA_TH)[0], BAND, 10e6
    )


def test_c03_ce_matches_two_channel_grid_oracle():
    """With two subchannels the optimum is enumerable: CE must reach 95%
    of the best over a 64-point center grid in at least 45 of 50 seeds."""
    start = time.perf_counter()
    grid = _fixed_scenario_grid()
    cfg = CEConfig(n_sub=2, samples=200, elites=20, max_iter=30, step=10e6)
    kw = dict(eps_db=0.5, total_budget=16e9, noise_psd=NOISE)

    # every (c1, c2) pair of 64 centers, each built and rated as one plan row
    idx = grid.index_of(np.linspace(BAND[0] + 5e8, BAND[1] - 5e8, 64))
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    _, widths, rss = alloc._plan_rows(alloc._WidthTable([grid], 0.5, 16e9), pairs[None], 16e9)
    oracle = alloc._score_rows(widths, rss, NOISE).max()
    assert oracle > 0

    hits = 0
    for seed in range(50):
        res = alloc.ce_optimize(grid, cfg, np.random.default_rng(seed), **kw)
        if res.incumbent_value >= 0.95 * oracle:
            hits += 1
    assert hits >= 45, f"{hits}/50 seeds reached 95% of the grid optimum {oracle:.4e}"
    assert time.perf_counter() - start < 120.0


def test_c04_incumbent_monotone_over_100_runs():
    cfg = CEConfig(n_sub=6, samples=12, elites=3, max_iter=8, step=50e6)
    rng = np.random.default_rng(99)
    scen_cfg = ScenarioConfig(ce=cfg)
    for run in range(100):
        aps = sim.generate_scenario(rng, scen_cfg)
        mrt = (selection.select_mrt(aps), np.add)
        grid = sampled_grid(
            lambda f: selection.combined_rss_rows([mrt], aps, f, P, scen_cfg.antenna, GAMMA_TH)[0],
            BAND, cfg.step,
        )
        res = alloc.ce_optimize(
            grid, cfg, np.random.default_rng(run),
            eps_db=0.5, total_budget=16e9, noise_psd=NOISE,
        )
        trace = np.asarray(res.incumbent_trace)
        assert np.all(np.diff(trace) >= 0), f"run {run}: incumbent decreased"


def test_c05_plan_validity_fuzz():
    """1000 random scenarios, every selection scheme: plans must be
    disjoint, inside the band, within budget, and each emitted channel
    must sit inside a flatness-compliant interval of its construction."""
    ce = CEConfig(n_sub=8, samples=10, elites=3, max_iter=2, step=50e6)
    rng = np.random.default_rng(5)
    b_total = 16e9
    for case in range(1000):
        cfg = ScenarioConfig(n_aps=int(rng.integers(1, 7)), ce=ce, b_total=b_total)
        aps = sim.generate_scenario(rng, cfg)
        for scheme in sim.CE_SCHEMES:
            _, row = sim.scheme_rss([scheme], aps, cfg)[scheme]
            grid = GridRss(row, cfg.band, ce.step)
            res = alloc.ce_optimize(
                grid, ce, np.random.default_rng(case),
                eps_db=cfg.eps_db, total_budget=b_total, noise_psd=cfg.noise_psd,
            )
            for plan in (res.plan, res.incumbent_plan):
                plan.validate(cfg.band)
                assert plan.total_width <= b_total * (1 + 1e-9)
            # per-channel flatness at construction: the channel around
            # snapped center i never exceeds its coherence width, and the
            # pair of symmetric edges at that width stays within eps dB
            snapped = alloc.grid_freqs(grid.band, grid.step)[grid.index_of(np.asarray(res.means))]
            table = alloc._WidthTable([grid], cfg.eps_db, grid.band[1] - grid.band[0])
            raw_w = table.widths(table.start[0] + grid.index_of(snapped))
            plan = res.plan
            for i in np.flatnonzero(plan.widths > 0):
                lo_raw = snapped[i] - raw_w[i] / 2
                hi_raw = snapped[i] + raw_w[i] / 2
                assert lo_raw - 1e-3 <= plan.low[i] and plan.high[i] <= hi_raw + 1e-3
                if raw_w[i] > 0:
                    d = abs(
                        10 * np.log10(grid(lo_raw)) - 10 * np.log10(grid(hi_raw))
                    )
                    assert d < cfg.eps_db or d == 0.0


def test_c06_scheme_ordering_distributed_beats_colocated():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        antenna=AntennaConfig(f_co=100e9), b_total=16e9, n_aps=20, n_sel=2, trials=200,
        seed=1234,
        schemes=("mrt", "best_nsel", "best_per_subchannel", "nearest", "colocated"),
        ce=DESK_CE,
    )
    rows = sim.monte_carlo(cfg, "n_aps", [20], threads=8).rows
    mean = {row.scheme: row.mean_rate for row in rows}
    assert (
        mean["mrt"]
        >= mean["best_nsel"]
        >= mean["best_per_subchannel"]
        >= mean["nearest"]
        >= mean["colocated"]
    ), f"ordering violated: {mean}"
    assert mean["mrt"] >= 2 * mean["colocated"], (
        f"mrt/colocated = {mean['mrt'] / mean['colocated']:.3f}"
    )
    assert time.perf_counter() - start < 900.0


def test_c07_optimized_best1_beats_equal_split_in_high_band():
    cfg = ScenarioConfig(
        antenna=AntennaConfig(f_co=200e9), b_total=8e9, n_aps=20, trials=200, seed=1234,
        schemes=("best_per_subchannel", "equal_mrt"), ce=DESK_CE,
    )
    rows = sim.monte_carlo(cfg, "n_aps", [20], threads=8).rows
    mean = {row.scheme: row.mean_rate for row in rows}
    assert mean["best_per_subchannel"] > mean["equal_mrt"], (
        f"ratio = {mean['best_per_subchannel'] / mean['equal_mrt']:.3f}"
    )


def test_c08_constant_gain_reduces_best_selection_to_nearest(monkeypatch):
    def constant_gain(x, cfg):
        return np.ones_like(np.asarray(x, dtype=float))

    # every link row takes its gain from phy.sinc_gain
    monkeypatch.setattr(phy, "sinc_gain", constant_gain)
    rng = np.random.default_rng(8)
    cfg = ScenarioConfig(n_aps=8)
    freqs = np.linspace(100.1e9, 299.9e9, 32)
    for _ in range(100):
        aps = sim.generate_scenario(rng, cfg)
        (nearest,) = selection.select_nearest(aps)
        chosen = selection.select_best_at(aps, freqs, cfg.p, cfg.antenna)
        assert chosen.tolist() == [nearest] * freqs.size


def test_c09_sweep_csv_byte_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n_aps = 5\ntrials = 3\nschemes = mrt,nearest\n"
        "ce.n_sub = 6\nce.samples = 8\nce.elites = 2\nce.max_iter = 2\n"
        "ce.step_hz = 50e6\n"
    )
    payloads = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        rc = cli.main(
            ["simulate", "--config", str(config), "--axis", "n_aps",
             "--values", "4,5", "--out", str(out), "--threads", threads]
        )
        assert rc == 0
        payloads.append((out / "sweep_n_aps.csv").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]


def test_c10_rate_grows_with_ap_count():
    for f_co in (100e9, 200e9):
        cfg = ScenarioConfig(
            antenna=AntennaConfig(f_co=f_co), trials=50, seed=7, schemes=("mrt",), ce=DESK_CE
        )
        rows = sim.monte_carlo(cfg, "n_aps", [10, 40], threads=8).rows
        r10, r40 = rows[0].mean_rate, rows[1].mean_rate
        assert r40 > r10, f"f_co={f_co:.3e}: N=40 {r40:.4e} <= N=10 {r10:.4e}"
