import csv
import dataclasses
import json

import pytest

from cfthz import cli, phy, selection, sim
from cfthz.alloc import CEConfig
from cfthz.cli import ConfigError
from cfthz.phy import AntennaConfig
from cfthz.sim import ScenarioConfig


FAST_CONFIG = """
# small everything so the suite stays quick
n_aps = 4
trials = 2
schemes = mrt,nearest
ce.n_sub = 6
ce.samples = 8
ce.elites = 2
ce.max_iter = 2
ce.step_hz = 50e6
"""


# The config keys whose name carries a unit, and the field path each one sets.
UNIT_KEYS = {
    "radius_m": "radius", "d_min_m": "d_min", "angle_guard_rad": "angle_guard",
    "f_co_hz": "f_co", "f_upper_hz": "f_upper", "b_total_hz": "b_total",
    "p_total_w": "p_total", "noise_psd_dbm_hz": "noise_psd", "gamma_th_dbm_hz": "gamma_th",
    "antenna.atten_per_m": "antenna.atten", "antenna.aperture_m": "antenna.aperture",
    "ce.step_hz": "ce.step",
}

# Every key set away from its default, each to a value no sibling field
# shares, so a key wired to the wrong field builds a different config.
EVERY_KEY_CONFIG = """
n_aps = 7
n_sel = 3
radius_m = 40.0
d_min_m = 0.75
angle_guard_rad = 0.02
f_co_hz = 150e9
f_upper_hz = 350e9
b_total_hz = 8e9
p_total_w = 2.0
noise_psd_dbm_hz = -170.0
gamma_th_dbm_hz = -176.0
eps_db = 0.25
trials = 11
seed = 99
schemes = mrt, nearest
antenna.atten_per_m = 120.0
antenna.aperture_m = 0.08
antenna.efficiency = 0.9
antenna.gain_exponent = 2
ce.n_sub = 12
ce.samples = 30
ce.elites = 5
ce.smooth_mean = 0.7
ce.smooth_var = 0.6
ce.smooth_power = 4.0
ce.max_iter = 7
ce.step_hz = 20e6
"""

# The reduced-budget config and 3-AP scenario of the CI allocate check.
CI_ALLOCATE_CONFIG = "ce.n_sub = 10\nce.samples = 20\nce.elites = 4\nce.max_iter = 4\n"
CI_SCENARIO = "distance_m,theta_rad\n20.0,0.7\n35.0,1.1\n10.0,0.4\n"


def leaf_paths(obj, prefix=""):
    """Dotted paths of every non-dataclass field, nested configs expanded."""
    paths = set()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            paths |= leaf_paths(value, f"{prefix}{f.name}.")
        else:
            paths.add(prefix + f.name)
    return paths


@pytest.fixture
def fast_config_path(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CONFIG)
    return str(p)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg, entries = cli.load_config(None)
        assert cfg.n_aps == 20
        assert cfg.n_sel == 2
        assert cfg.b_total == 16e9
        assert cfg.noise_psd == pytest.approx(phy.dbm_per_hz_to_w_per_hz(-168.0))
        assert cfg.gamma_th == pytest.approx(3.548133892335755e-21)
        assert cfg.antenna.atten == 130.0
        assert cfg.ce.n_sub == 40
        assert entries == cli.DEFAULTS
        assert cfg == ScenarioConfig()

    def test_file_overrides_defaults(self, fast_config_path):
        cfg, _ = cli.load_config(fast_config_path)
        assert cfg.n_aps == 4
        assert cfg.trials == 2
        assert cfg.schemes == ("mrt", "nearest")
        assert cfg.ce.step == 50e6

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\n# lead\nn_aps = 7  # trailing\n\n")
        assert cli.parse_config_file(p) == {"n_aps": "7"}

    def test_unknown_key_named_with_location(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_aps = 3\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'bogus_key'"):
            cli.parse_config_file(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            cli.parse_config_file(p)

    def test_unparseable_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_aps = many\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            cli.load_config(p)

    def test_invariant_violation_surfaces_as_config_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("f_co_hz = 300e9\nf_upper_hz = 100e9\n")
        with pytest.raises(ConfigError):
            cli.load_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [("eps_db", "nan"), ("radius_m", "inf"), ("b_total_hz", "nan"),
         ("gamma_th_dbm_hz", "nan"), ("ce.smooth_var", "nan"),
         ("antenna.atten_per_m", "inf"), ("trials", "0"), ("eps_db", "-0.5"),
         ("n_aps", "0"), ("n_sel", "0"), ("angle_guard_rad", "0"),
         ("angle_guard_rad", "0.8"), ("noise_psd_dbm_hz", "-inf")],
    )
    def test_non_finite_or_zero_trials_rejected(self, key, value):
        with pytest.raises(ConfigError):
            cli.load_config(None, {key: value})

    def test_overrides_beat_file(self, fast_config_path):
        cfg, _ = cli.load_config(fast_config_path, {"trials": "9", "seed": "5"})
        assert cfg.trials == 9
        assert cfg.seed == 5


class TestConfigSchema:
    def test_defaults_digest_pinned(self):
        assert cli.config_digest(cli.DEFAULTS) == (
            "f51c249dab8ac4711c77c8e9b9e7f4fed75c8343dce15145176bef691991d127"
        )

    def test_keys_are_field_paths_with_unit_names(self):
        # antenna.f_co has no key: the antenna takes the scenario's f_co_hz
        paths = leaf_paths(ScenarioConfig()) - {"antenna.f_co"}
        assert set(UNIT_KEYS.values()) <= paths
        assert set(cli.DEFAULTS) == (paths - set(UNIT_KEYS.values())) | set(UNIT_KEYS)

    def test_every_key_reaches_its_field(self, tmp_path):
        p = tmp_path / "every.cfg"
        p.write_text(EVERY_KEY_CONFIG)
        entries = cli.parse_config_file(p)
        assert set(entries) == set(cli.DEFAULTS)
        assert all(
            cli._coerce(k, v) != cli._coerce(k, cli.DEFAULTS[k]) for k, v in entries.items()
        )
        cfg, _ = cli.load_config(p)
        want = ScenarioConfig(
            n_aps=7, n_sel=3, radius=40.0, d_min=0.75, angle_guard=0.02,
            f_co=150e9, f_upper=350e9, b_total=8e9, p_total=2.0,
            noise_psd=phy.dbm_per_hz_to_w_per_hz(-170.0),
            gamma_th=phy.dbm_per_hz_to_w_per_hz(-176.0),
            eps_db=0.25, trials=11, seed=99, schemes=("mrt", "nearest"),
            antenna=AntennaConfig(f_co=150e9, atten=120.0, aperture=0.08, efficiency=0.9,
                                  gain_exponent=2),
            ce=CEConfig(n_sub=12, samples=30, elites=5, smooth_mean=0.7, smooth_var=0.6,
                        smooth_power=4.0, max_iter=7, step=20e6),
        )
        assert cfg == want
        assert repr(cfg) == repr(want)  # same field types too: 7, not 7.0

    @pytest.mark.parametrize(
        "key, value",
        [("n_aps", "2.5"), ("ce.max_iter", "2.5"), ("antenna.gain_exponent", "2.5"),
         ("antenna.aperture_m", "wide")],
    )
    def test_unparseable_entry_named(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}': cannot parse"):
            cli.load_config(None, {key: value})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'radius'"):
            cli.load_config(None, {"radius": "40"})


class TestConfigDigest:
    def test_stable_under_key_reordering(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("n_aps = 5\ntrials = 3\n")
        b.write_text("trials = 3\nn_aps = 5\n")
        _, ea = cli.load_config(a)
        _, eb = cli.load_config(b)
        assert cli.config_digest(ea) == cli.config_digest(eb)

    def test_sensitive_to_values(self, tmp_path):
        a = tmp_path / "a.cfg"
        a.write_text("n_aps = 5\n")
        _, ea = cli.load_config(a)
        _, e0 = cli.load_config(None)
        assert cli.config_digest(ea) != cli.config_digest(e0)


class TestSimulateCommand:
    def test_csv_rows_and_manifest(self, fast_config_path, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(
            ["simulate", "--config", fast_config_path, "--axis", "n_aps",
             "--values", "2,3", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "sweep_n_aps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2  # 2 axis values x 2 schemes
        assert {r["scheme"] for r in rows} == {"mrt", "nearest"}
        assert all(float(r["mean_rate_bps"]) >= 0 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1234
        assert manifest["outputs"] == [str(out / "sweep_n_aps.csv")]

    def test_rerun_byte_identical(self, fast_config_path, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cli.main(
                ["simulate", "--config", fast_config_path, "--axis", "b_total",
                 "--values", "8e9", "--out", str(out)]
            )
            outs.append((out / "sweep_b_total.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_bytes(self, fast_config_path, tmp_path):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            cli.main(
                ["simulate", "--config", fast_config_path, "--axis", "n_aps",
                 "--values", "3", "--out", str(out), "--threads", threads]
            )
            outs.append((out / "sweep_n_aps.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("bad", ["0", "2.5", "inf"])
    def test_bad_axis_value_reported_nonzero(self, fast_config_path, tmp_path, capsys, bad):
        # every value is checked before any cell runs: a bad one is a
        # config error, and nothing is written
        out = tmp_path / "bad"
        rc = cli.main(
            ["simulate", "--config", fast_config_path, "--axis", "n_aps",
             "--values", f"2,{bad},3", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: --values:" in err and "n_aps" in err
        assert not out.exists()

    def test_infeasible_equal_split_value_rejected(self, tmp_path, capsys):
        # 250 GHz split in 6 equal channels overlaps in a 200 GHz band
        cfg = tmp_path / "eq.cfg"
        cfg.write_text("n_aps = 3\ntrials = 1\nschemes = mrt,equal_mrt\nce.n_sub = 6\n"
                       "ce.samples = 8\nce.elites = 2\nce.max_iter = 2\nce.step_hz = 50e6\n")
        out = tmp_path / "eq"
        rc = cli.main(["simulate", "--config", str(cfg), "--axis", "b_total",
                       "--values", "16e9,250e9", "--out", str(out)])
        assert rc == 2
        assert "equal_mrt plan overlaps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values", [("n_aps", "2,3,5"), ("b_total", "4e9,16e9")])
    def test_rows_equal_library_rows(self, fast_config_path, tmp_path, axis, values):
        # a value's axis index is its position in --values, as in monte_carlo
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", fast_config_path, "--axis", axis,
                       "--values", values, "--out", str(out)])
        assert rc == 0
        with open(out / f"sweep_{axis}.csv") as fh:
            rows = list(csv.DictReader(fh))
        cfg, _ = cli.load_config(fast_config_path)
        library = sim.monte_carlo(cfg, axis, [float(v) for v in values.split(",")]).rows
        assert len(rows) == len(library) == 2 * len(values.split(","))
        for row, want in zip(rows, library):
            assert row == {
                "axis": want.axis, "axis_value": repr(want.axis_value), "scheme": want.scheme,
                "mean_rate_bps": repr(want.mean_rate), "stderr_bps": repr(want.stderr_rate),
                "mean_active_aps": repr(want.mean_active_aps), "trials": str(want.trials),
            }

    def test_value_error_inside_a_cell_propagates(self, fast_config_path, tmp_path,
                                                  monkeypatch):
        # only turning a --values entry into a config is blamed on --values
        def broken(*args):
            raise ValueError("cell failed")

        monkeypatch.setattr(sim, "_trial_cell", broken)
        with pytest.raises(ValueError, match="cell failed") as info:
            cli.main(["simulate", "--config", fast_config_path, "--axis", "n_aps",
                      "--values", "2", "--out", str(tmp_path / "x")])
        assert type(info.value) is ValueError

    def test_unexpected_errors_propagate(self, fast_config_path, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(sim, "monte_carlo", broken)
        with pytest.raises(RuntimeError, match="worker crashed"):
            cli.main(["simulate", "--config", fast_config_path, "--axis", "n_aps",
                      "--values", "2", "--out", str(tmp_path / "x")])


class TestGainCommand:
    def test_rows_match_library(self, tmp_path):
        out = tmp_path / "gain.csv"
        rc = cli.main(
            ["gain", "--thetas", "0.5,1.0", "--f-start", "110e9",
             "--f-stop", "290e9", "--f-count", "10", "--out", str(out)]
        )
        assert rc == 0
        cfg, _ = cli.load_config(None)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for r in rows:
            want = phy.antenna_gain(float(r["f_hz"]), float(r["theta_rad"]), cfg.antenna)
            assert float(r["gain"]) == pytest.approx(want)

    def test_below_cutoff_rows_skipped(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        cli.main(
            ["gain", "--thetas", "0.7", "--f-start", "90e9",
             "--f-stop", "110e9", "--f-count", "5", "--out", str(out)]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["f_hz"]) >= 100e9 for r in rows)
        assert "skipped" in capsys.readouterr().err


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("distance_m,theta_rad\n20.0, 0.7\n35.5, 1.2  # far one\n")
        aps = cli.read_scenario_file(p)
        assert aps == [
            selection.AccessPoint(0, 20.0, 0.7),
            selection.AccessPoint(1, 35.5, 1.2),
        ]

    def test_bad_row_named(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("20.0, 0.7\n1.0\n")
        with pytest.raises(ConfigError, match="2: bad scenario row"):
            cli.read_scenario_file(p)

    @pytest.mark.parametrize("distance", ["nan", "inf", "-inf"])
    def test_non_finite_distance_rejected(self, tmp_path, distance):
        p = tmp_path / "s.csv"
        p.write_text(f"{distance}, 0.7\n")
        with pytest.raises(ConfigError, match="1: bad scenario row.*finite"):
            cli.read_scenario_file(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(ConfigError, match="no scenario rows"):
            cli.read_scenario_file(p)


class TestAllocateCommand:
    def test_outputs_and_determinism(self, fast_config_path, tmp_path):
        scen = tmp_path / "s.csv"
        scen.write_text("20.0, 0.7\n35.0, 1.1\n")
        payloads = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            rc = cli.main(
                ["allocate", "--config", fast_config_path, "--scenario", str(scen),
                 "--scheme", "mrt", "--out", str(out)]
            )
            assert rc == 0
            payloads.append((out / "plan.json").read_bytes())
            with open(out / "trace.csv") as fh:
                trace = list(csv.DictReader(fh))
        assert payloads[0] == payloads[1]
        # one row per CE iteration (ce.max_iter = 2), then the final plan's row
        assert [r["iteration"] for r in trace] == ["0", "1", "final"]
        inc = [float(r["incumbent_rate_bps"]) for r in trace]
        assert inc == sorted(inc)

    @pytest.mark.parametrize("seed, final_wins", [(25, True), (7, False)])
    def test_trace_ends_at_reported_rates(self, tmp_path, seed, final_wins):
        # at seed 25 the final plan beats every sampled plan; at seed 7 it
        # rates below the best sample
        cfg = tmp_path / "ci.cfg"
        cfg.write_text(CI_ALLOCATE_CONFIG)
        scen = tmp_path / "s.csv"
        scen.write_text(CI_SCENARIO)
        out = tmp_path / "a"
        rc = cli.main(["allocate", "--config", str(cfg), "--scenario", str(scen),
                       "--scheme", "mrt", "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "plan.json").read_text())
        with open(out / "trace.csv") as fh:
            trace = list(csv.DictReader(fh))
        sampled_best = max(float(r["incumbent_rate_bps"]) for r in trace[:-1])
        assert (payload["incumbent_rate_bps"] > sampled_best) is final_wins
        assert (payload["final_rate_bps"] < payload["incumbent_rate_bps"]) is not final_wins
        assert trace[-1] == {
            "iteration": "final",
            "best_rate_bps": repr(payload["final_rate_bps"]),
            "incumbent_rate_bps": repr(payload["incumbent_rate_bps"]),
        }

    @pytest.mark.parametrize("distance", ["nan", "inf"])
    def test_non_finite_distance_exit_code(self, fast_config_path, tmp_path, capsys,
                                           distance):
        scen = tmp_path / "s.csv"
        scen.write_text(f"20.0, 0.7\n{distance}, 1.0\n")
        out = tmp_path / "a"
        rc = cli.main(["allocate", "--config", fast_config_path, "--scenario", str(scen),
                       "--out", str(out)])
        assert rc == 2
        assert "2: bad scenario row" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_payload_consistent(self, fast_config_path, tmp_path):
        scen = tmp_path / "s.csv"
        scen.write_text("15.0, 0.9\n")
        out = tmp_path / "a"
        cli.main(
            ["allocate", "--config", fast_config_path, "--scenario", str(scen),
             "--out", str(out)]
        )
        payload = json.loads((out / "plan.json").read_text())
        assert payload["scheme"] == "mrt"
        assert payload["incumbent_rate_bps"] >= payload["final_rate_bps"] - 1e-9
        total = sum(ch["width_hz"] for ch in payload["final_plan"])
        assert total <= 16e9 * (1 + 1e-9)


class TestTrialCommand:
    def test_matches_library_cell(self, fast_config_path, tmp_path):
        out = tmp_path / "t"
        rc = cli.main(["trial", "--config", fast_config_path, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "trial.json").read_text())
        cfg, _ = cli.load_config(fast_config_path)
        cell = sim._trial_cell(cfg, 0, 0)
        assert set(payload) == set(cfg.schemes)
        for scheme, res in cell.items():
            assert payload[scheme]["plan_rate_bps"] == res.plan_rate
            assert payload[scheme]["scenario_digest"] == res.scenario_digest


class TestMainErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        # the removed antenna.plate_sep_m key is as unknown as a made-up one
        for line in ("bogus = 1", "antenna.plate_sep_m = 1.5e-3"):
            p = tmp_path / "c.cfg"
            p.write_text(line + "\n")
            rc = cli.main(["trial", "--config", str(p), "--out", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert "config error" in err and f"unknown key {line.split()[0]!r}" in err

    @pytest.mark.parametrize(
        "line",
        ["eps_db = nan", "radius_m = inf", "trials = 0", "eps_db = -1",
         "n_aps = 0", "angle_guard_rad = 0.9", "noise_psd_dbm_hz = -inf"],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        rc = cli.main(["trial", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "trial.json").exists()

    def test_zero_trials_flag_exit_code(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--axis", "n_aps", "--values", "4", "--trials", "0",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--axis", "n_aps", "--values", "10,abc"], "--values"),
            (["simulate", "--axis", "b_total", "--values", "8e9,"], "--values"),
            (["gain", "--thetas", "10,abc", "--f-start", "110e9", "--f-stop", "290e9"],
             "--thetas"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--f-count", "0"], "--f-count"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--f-count", "-3"], "--f-count"),
            (["gain", "--thetas", "0.5", "--f-start", "nan", "--f-stop", "290e9"],
             "--f-start"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "inf"],
             "--f-stop"),
            (["gain", "--thetas", "0.5", "--f-start", "290e9", "--f-stop", "110e9"],
             "--f-stop"),
            (["gain", "--thetas", "0.5,nan", "--f-start", "110e9", "--f-stop", "290e9"],
             "--thetas"),
            (["gain", "--thetas", "0", "--f-start", "110e9", "--f-stop", "290e9"],
             "--thetas"),
            (["gain", "--thetas", "1.6", "--f-start", "110e9", "--f-stop", "290e9"],
             "--thetas"),
            (["simulate", "--axis", "n_aps", "--values", "3", "--threads", "0"],
             "--threads must be >= 1"),
            # a negative seed is rejected when the config is built, whatever
            # the subcommand
            (["trial", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["simulate", "--axis", "n_aps", "--values", "3", "--seed", "-1"],
             "seed must be >= 0, got -1"),
            (["allocate", "--scenario", "aps.csv", "--seed", "-1"], "seed must be >= 0"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--seed", "-1"], "seed must be >= 0"),
        ],
        ids=["values-abc", "values-empty", "thetas-abc", "f-count-0", "f-count-neg",
             "f-start-nan", "f-stop-inf", "f-stop-below-start", "theta-nan", "theta-0",
             "theta-above-pi/2", "threads-0", "seed-trial", "seed-simulate",
             "seed-allocate", "seed-gain"],
    )
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = cli.main(argv + ["--trials", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    def test_seed_override_changes_digest(self, tmp_path):
        _, e1 = cli.load_config(None, {"seed": "1"})
        _, e2 = cli.load_config(None, {"seed": "2"})
        assert cli.config_digest(e1) != cli.config_digest(e2)
