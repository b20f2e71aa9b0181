import argparse
import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    "f_co_hz": "antenna.f_co", "f_upper_hz": "f_upper", "b_total_hz": "b_total",
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
ce.n_sub = 12
ce.samples = 30
ce.elites = 5
ce.smooth_mean = 0.7
ce.smooth_var = 0.6
ce.smooth_power = 4.0
ce.max_iter = 7
ce.step_hz = 20e6
"""

# Each key of EVERY_KEY_CONFIG with its entry; each alone builds a valid
# config that differs from the defaults.
EVERY_KEY_ENTRIES = dict(
    (part.strip() for part in line.split("=")) for line in EVERY_KEY_CONFIG.strip().splitlines()
)

# The options each subcommand reads, and no others: `--seed` where random
# numbers are drawn, `--trials` and `--threads` on the sweep.
SUBCOMMAND_OPTIONS = {
    "simulate": {"--config", "--out", "--seed", "--trials", "--threads", "--axis", "--values"},
    "allocate": {"--config", "--out", "--seed", "--scenario", "--scheme"},
    "gain": {"--config", "--out", "--thetas", "--f-start", "--f-stop", "--f-count"},
    "trial": {"--config", "--out", "--seed"},
}

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


def spellings(entry):
    """Config texts that parse to a DEFAULTS entry: a float as its repr, in
    17-digit exponent form and, when integral, as an int; an int as is and
    signed; the schemes list with spaces."""
    if isinstance(entry, str):
        return [entry, entry.replace(",", ", "), entry.replace(",", " ,  ")]
    if isinstance(entry, int):
        return [str(entry), f"+{entry}"]
    texts = [repr(entry), format(entry, ".17e")]
    if entry.is_integer():
        texts.append(str(int(entry)))
    return texts


def field_value(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def retyped(cfg, paths, kind=None):
    """cfg with the value at each dotted path given as kind(value), by
    default as the other numeric type: an int as a float, an integral float
    as an int."""
    for path in paths:
        head, _, rest = path.partition(".")
        value = getattr(cfg, head)
        if rest:
            value = retyped(value, [rest], kind)
        elif kind is not None:
            value = kind(value)
        else:
            value = float(value) if isinstance(value, int) else int(value)
        cfg = dataclasses.replace(cfg, **{head: value})
    return cfg


# Numeric fields whose default is also a value of the other numeric type.
RETYPABLE = sorted(
    path for path in leaf_paths(ScenarioConfig())
    if isinstance(value := field_value(ScenarioConfig(), path), int)
    or (isinstance(value, float) and value.is_integer())
)


# Every int and float field, and the numeric types a value can arrive as.
NUMERIC_PATHS = sorted(
    path for path in leaf_paths(ScenarioConfig())
    if isinstance(field_value(ScenarioConfig(), path), (int, float))
)
NUMERIC_TYPES = [int, float, np.int64, np.float32, np.float64]
PSD_PATHS = {"noise_psd", "gamma_th"}


def refused_values(path):
    """Values no config holds at `path`: NaN and the infinities as each float
    type, the bools, and in an int field a fraction."""
    values = [kind(text) for kind in (float, np.float32, np.float64)
              for text in ("nan", "inf", "-inf")] + [True, False]
    default = field_value(ScenarioConfig(), path)
    if isinstance(default, int):
        values += [default + 0.5, np.float32(default + 0.25)]
    return values


@st.composite
def respelled_defaults(draw):
    """Config lines setting a random subset of keys, in random order, each to
    its default in a random spelling."""
    keys = draw(st.lists(st.sampled_from(sorted(cli.DEFAULTS)), unique=True))
    return [f"{key} = {draw(st.sampled_from(spellings(cli.DEFAULTS[key])))}" for key in keys]


@pytest.fixture
def fast_config_path(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CONFIG)
    return str(p)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = cli.load_config(None)
        assert cfg.n_aps == 20
        assert cfg.n_sel == 2
        assert cfg.b_total == 16e9
        assert cfg.noise_psd == pytest.approx(phy.dbm_per_hz_to_w_per_hz(-168.0))
        assert cfg.gamma_th == pytest.approx(3.548133892335755e-21)
        assert cfg.antenna.atten == 130.0
        assert cfg.ce.n_sub == 40
        assert cfg == ScenarioConfig()

    def test_file_overrides_defaults(self, fast_config_path):
        cfg = cli.load_config(fast_config_path)
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
         ("angle_guard_rad", "0.8"), ("noise_psd_dbm_hz", "-inf"),
         # 5000 dBm/Hz overflows to inf; -inf and -5000 give 0 W/Hz, no link gate
         ("noise_psd_dbm_hz", "5000"), ("gamma_th_dbm_hz", "-inf"),
         ("gamma_th_dbm_hz", "-5000"), ("gamma_th_dbm_hz", "5000")],
    )
    def test_non_finite_or_zero_trials_rejected(self, key, value):
        with pytest.raises(ConfigError):
            cli.load_config(None, {key: value})

    def test_overrides_beat_file(self, fast_config_path):
        cfg = cli.load_config(fast_config_path, {"trials": "9", "seed": "5"})
        assert cfg.trials == 9
        assert cfg.seed == 5


class TestConfigSchema:
    def test_defaults_digest_pinned(self):
        assert cli.config_digest(ScenarioConfig()) == (
            "e42bb9557819a73c35f0c88830d459ed6d912ad024baad0c5d6455d55edf0624"
        )

    def test_keys_are_field_paths_with_unit_names(self):
        paths = leaf_paths(ScenarioConfig())
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
        cfg = cli.load_config(p)
        want = ScenarioConfig(
            n_aps=7, n_sel=3, radius=40.0, d_min=0.75, angle_guard=0.02,
            f_upper=350e9, b_total=8e9, p_total=2.0,
            noise_psd=phy.dbm_per_hz_to_w_per_hz(-170.0),
            gamma_th=phy.dbm_per_hz_to_w_per_hz(-176.0),
            eps_db=0.25, trials=11, seed=99, schemes=("mrt", "nearest"),
            antenna=AntennaConfig(f_co=150e9, atten=120.0, aperture=0.08, efficiency=0.9),
            ce=CEConfig(n_sub=12, samples=30, elites=5, smooth_mean=0.7, smooth_var=0.6,
                        smooth_power=4.0, max_iter=7, step=20e6),
        )
        assert cfg == want
        assert repr(cfg) == repr(want)  # same field types too: 7, not 7.0

    @pytest.mark.parametrize(
        "key, value",
        [("n_aps", "2.5"), ("ce.max_iter", "2.5"), ("antenna.aperture_m", "wide")],
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
        assert cli.config_digest(cli.load_config(a)) == cli.config_digest(cli.load_config(b))

    def test_sensitive_to_values(self, tmp_path):
        a = tmp_path / "a.cfg"
        a.write_text("n_aps = 5\n")
        assert cli.config_digest(cli.load_config(a)) != cli.config_digest(ScenarioConfig())

    @settings(max_examples=60, deadline=None)
    @given(lines=respelled_defaults(), seed=st.integers(0, 2**32), seed_in_file=st.booleans(),
           retype=st.lists(st.sampled_from(RETYPABLE), unique=True))
    @example(lines=[], seed=1234, seed_in_file=False, retype=["b_total", "n_aps"])
    @example(lines=[], seed=1234, seed_in_file=False, retype=["ce.step"])
    def test_equal_configs_share_a_digest_however_spelled(self, tmp_path_factory, lines, seed,
                                                          seed_in_file, retype):
        # the digest hashes the config's values, not the text that set them,
        # and a seed from --seed hashes as one from the file
        p = tmp_path_factory.mktemp("digest") / "respelled.cfg"
        p.write_text("\n".join(lines + [f"seed = {seed}"] * seed_in_file) + "\n")
        cfg = cli.load_config(p, None if seed_in_file else {"seed": str(seed)})
        want = dataclasses.replace(ScenarioConfig(), seed=seed)
        assert cfg == want
        assert cli.config_digest(cfg) == cli.config_digest(want)
        # nor the numeric type a library caller built it with: n_aps = 20.0
        # and b_total = 16_000_000_000 give the config, and so the digest,
        # of n_aps = 20 and b_total = 16e9
        same = retyped(want, retype)
        assert same == want
        assert cli.config_digest(same) == cli.config_digest(want)

    def test_a_value_its_field_type_cannot_hold_is_refused(self):
        # 20.5 in the int field n_aps is not 20, so no config holds it and
        # no digest is written for it
        with pytest.raises(ValueError, match="n_aps must be a whole number, got 20.5"):
            ScenarioConfig(n_aps=20.5)

    def test_signed_zero_hashes_as_zero(self):
        # eps_db = -0.0 builds a config equal to eps_db = 0
        zero, signed = (cli.load_config(None, {"eps_db": text}) for text in ("0", "-0.0"))
        assert zero == signed
        assert cli.config_digest(zero) == cli.config_digest(signed)
        # the config stores it as 0.0, as the library builds it too
        assert repr(signed) == repr(zero) == repr(ScenarioConfig(eps_db=-0.0))

    @pytest.mark.parametrize("key", sorted(EVERY_KEY_ENTRIES))
    def test_any_changed_value_changes_the_digest(self, tmp_path, key):
        p = tmp_path / "one.cfg"
        p.write_text(f"{key} = {EVERY_KEY_ENTRIES[key]}\n")
        cfg = cli.load_config(p)
        assert cfg != ScenarioConfig()
        assert cli.config_digest(cfg) != cli.config_digest(ScenarioConfig())


class TestFieldTypes:
    """A config stores each int and float field as its declared type, and
    refuses what no such field can hold, however it is built."""

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(sorted(EVERY_KEY_ENTRIES)), moved=st.booleans(),
           retype=st.lists(st.tuples(st.sampled_from(NUMERIC_PATHS),
                                     st.sampled_from(NUMERIC_TYPES)),
                           unique_by=lambda pair: pair[0]))
    @example(key="n_aps", moved=False, retype=[("n_aps", float), ("b_total", int),
                                               ("ce.step", np.float32), ("seed", np.float64)])
    def test_a_value_of_any_numeric_type_builds_the_canonical_config(self, key, moved, retype):
        # the defaults, or the defaults with one key moved; each retyped
        # value is the same number, so the config, its repr and its digest
        # are the same too
        want = cli.load_config(None, {key: EVERY_KEY_ENTRIES[key]} if moved else None)
        same = want
        for path, kind in retype:
            value = field_value(want, path)
            # np.float32 holds few floats exactly (and compares to a float in float32)
            if float(kind(value)) == value:
                same = retyped(same, [path], kind)
        assert same == want
        assert repr(same) == repr(want)
        assert cli.config_digest(same) == cli.config_digest(want)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), path=st.sampled_from(NUMERIC_PATHS))
    def test_a_value_no_field_can_hold_is_refused(self, data, path):
        bad = data.draw(st.sampled_from(refused_values(path)))
        name = path.rsplit(".", 1)[-1]
        with pytest.raises(ValueError, match=name):
            retyped(ScenarioConfig(), [path], lambda _: bad)
        # a PSD key is in dBm/Hz, where no text gives -inf W/Hz
        if not (path in PSD_PATHS and bad < 0):
            key = {field: key for key, field in UNIT_KEYS.items()}.get(path, path)
            with pytest.raises(ConfigError, match=name):
                cli.load_config(None, {key: str(bad)})
        if path in ("n_aps", "b_total"):
            cfg = ScenarioConfig(n_aps=4, trials=1, schemes=("mrt",),
                                 ce=CEConfig(n_sub=6, samples=8, elites=2, max_iter=2, step=50e6))
            with pytest.raises(sim.AxisValueError, match=f"{path} = "):
                sim.monte_carlo(cfg, path, [bad])


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
        cfg = cli.load_config(fast_config_path)
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
        cfg = cli.load_config(None)
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
        aps = cli.read_scenario_file(p, 0.5)
        assert type(aps) is selection.Drop
        assert aps.distance.tolist() == [20.0, 35.5] and aps.angle.tolist() == [0.7, 1.2]

    def test_bad_row_named(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("20.0, 0.7\n1.0\n")
        with pytest.raises(ConfigError, match="2: bad scenario row"):
            cli.read_scenario_file(p, 0.5)

    @pytest.mark.parametrize("distance", ["nan", "inf", "-inf"])
    def test_non_finite_distance_rejected(self, tmp_path, distance):
        p = tmp_path / "s.csv"
        p.write_text(f"{distance}, 0.7\n")
        with pytest.raises(ConfigError, match="1: bad scenario row.*finite"):
            cli.read_scenario_file(p, 0.5)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(ConfigError, match="no scenario rows"):
            cli.read_scenario_file(p, 0.5)


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

    @pytest.mark.parametrize("distance", ["1e-160", "0.1"])
    def test_ap_closer_than_d_min_exit_code(self, fast_config_path, tmp_path, capsys,
                                            distance):
        # 1e-160 m once overflowed the link row and wrote an all-zero plan
        # with exit 0; 0.1 m ran silently below the d_min the link-PSD bound
        # assumes
        scen = tmp_path / "s.csv"
        scen.write_text(f"20.0, 0.7\n{distance}, 0.7\n")
        out = tmp_path / "a"
        rc = cli.main(["allocate", "--config", fast_config_path, "--scenario", str(scen),
                       "--out", str(out)])
        assert rc == 2
        assert f"{scen}:2: distance {float(distance):g} m is below d_min 0.5 m" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("distance", ["0.5", "5000.0"])
    def test_ap_at_or_beyond_d_min_runs(self, fast_config_path, tmp_path, distance):
        scen = tmp_path / "s.csv"
        scen.write_text(f"{distance}, 0.7\n")
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["allocate", "--config", fast_config_path, "--scenario", str(scen),
                           "--out", str(out)])
        assert rc == 0
        assert (out / "plan.json").exists()

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
    def test_same_config_spelled_two_ways_gives_the_same_files(self, tmp_path):
        # the CI trial config, then the same values respelled, reordered and
        # joined by explicit defaults, with the seed from the file
        plain = tmp_path / "plain.cfg"
        plain.write_text(CI_ALLOCATE_CONFIG)
        respelled = tmp_path / "respelled.cfg"
        respelled.write_text("seed = 7\nce.max_iter = +4\nb_total_hz = 16e9\nce.n_sub = +10\n"
                             "noise_psd_dbm_hz = -168\nce.samples = 20\nce.elites = 4\n"
                             "schemes = mrt, best_nsel, best_per_subchannel, nearest, "
                             "equal_mrt, colocated\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        assert cli.main(["trial", "--config", str(plain), "--seed", "7", "--out", str(outs[0])]) == 0
        assert cli.main(["trial", "--config", str(respelled), "--out", str(outs[1])]) == 0
        a, b = ((out / "trial.json").read_bytes() for out in outs)
        assert a == b
        digests = [json.loads((out / "manifest.json").read_text())["config_digest"] for out in outs]
        assert digests[0] == digests[1]

    def test_matches_library_cell(self, fast_config_path, tmp_path):
        out = tmp_path / "t"
        rc = cli.main(["trial", "--config", fast_config_path, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "trial.json").read_text())
        cfg = cli.load_config(fast_config_path)
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
         "n_aps = 0", "angle_guard_rad = 0.9", "noise_psd_dbm_hz = -inf", "n_aps = 20.5",
         # once a numpy traceback on a negative array dimension, exit 1
         "ce.max_iter = -1",
         # once an overflow warning, or a run with no link gate, exit 0
         "noise_psd_dbm_hz = 5000", "gamma_th_dbm_hz = -inf", "gamma_th_dbm_hz = -5000",
         "gamma_th_dbm_hz = 5000"],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        rc = cli.main(["trial", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "trial.json").exists()

    @pytest.mark.parametrize(
        "line, field",
        [("ce.step_hz = 300e9", "ce.step"), ("f_upper_hz = 100.000001e9", "f_upper"),
         ("ce.step_hz = 1e-3", "ce.step"), ("b_total_hz = 1e3", "b_total"),
         ("schemes = ,", "schemes"), ("schemes = mrt,mrt", "schemes"),
         ("f_upper_hz = 100.01e9\nb_total_hz = 1e9\nschemes = mrt,nearest,colocated", "ce.step")],
        ids=["step-above-band", "band-below-step", "grid-too-large", "budget-below-channel",
             "schemes-empty", "schemes-repeated", "ce-grid-two-points"],
    )
    def test_degenerate_config_exit_code(self, tmp_path, capsys, line, field):
        # each once ran to exit 0 with all-zero rates, an empty or repeated
        # sweep CSV, or a numpy memory error
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(p), "--axis", "n_aps", "--values", "3",
                       "--trials", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, field, command, output",
        # each once ran to exit 0: the sweep CSV read inf and nan for
        # equal_mrt, and trial.json held NaN
        [("antenna.atten_per_m = 1e6", "antenna.atten", "simulate", "sweep_n_aps.csv"),
         ("antenna.aperture_m = 1e200", "antenna.aperture", "trial", "trial.json")],
    )
    def test_overflowing_link_psd_exit_code(self, tmp_path, capsys, line, field, command,
                                            output):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\nce.samples = 4\nce.elites = 2\nce.max_iter = 1\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(p), "--out", str(out)]
        if command == "simulate":
            argv += ["--axis", "n_aps", "--values", "5", "--trials", "2"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not (out / output).exists()

    def test_zero_trials_flag_exit_code(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--axis", "n_aps", "--values", "4", "--trials", "0",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["simulate", "--axis", "n_aps", "--values", "10,abc"], None, "--values"),
            (["simulate", "--axis", "b_total", "--values", "8e9,"], None, "--values"),
            (["gain", "--thetas", "10,abc", "--f-start", "110e9", "--f-stop", "290e9"], None,
             "--thetas"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--f-count", "0"], None, "--f-count"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--f-count", "-3"], None, "--f-count"),
            # once a numpy allocation error ("Unable to allocate 7.11 PiB")
            # with a traceback; numpy refuses this count without allocating
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9",
              "--f-count", "1000000000000000"], None, "--f-count must be 1 to 2000001"),
            (["gain", "--thetas", "0.5", "--f-start", "nan", "--f-stop", "290e9"], None,
             "--f-start"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "inf"], None,
             "--f-stop"),
            (["gain", "--thetas", "0.5", "--f-start", "290e9", "--f-stop", "110e9"], None,
             "--f-stop"),
            (["gain", "--thetas", "0.5,nan", "--f-start", "110e9", "--f-stop", "290e9"], None,
             "--thetas"),
            (["gain", "--thetas", "0", "--f-start", "110e9", "--f-stop", "290e9"], None,
             "--thetas"),
            (["gain", "--thetas", "1.6", "--f-start", "110e9", "--f-stop", "290e9"], None,
             "--thetas"),
            (["simulate", "--axis", "n_aps", "--values", "3", "--threads", "0"], None,
             "--threads must be >= 1"),
            # a negative seed is rejected when the config is built, whatever
            # the subcommand; gain draws no random numbers, so takes no --seed
            (["trial", "--seed", "-1"], None, "seed must be >= 0, got -1"),
            (["simulate", "--axis", "n_aps", "--values", "3", "--seed", "-1"], None,
             "seed must be >= 0, got -1"),
            (["allocate", "--scenario", "aps.csv", "--seed", "-1"], None, "seed must be >= 0"),
            (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9"],
             "seed = -1\n", "seed must be >= 0, got -1"),
        ],
        ids=["values-abc", "values-empty", "thetas-abc", "f-count-0", "f-count-neg", "f-count-huge",
             "f-start-nan", "f-stop-inf", "f-stop-below-start", "theta-nan", "theta-0",
             "theta-above-pi/2", "threads-0", "seed-trial", "seed-simulate",
             "seed-allocate", "seed-gain"],
    )
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv, config, message):
        if argv[0] == "simulate":
            argv = argv + ["--trials", "1"]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "c.cfg")]
        out = tmp_path / "out"
        rc = cli.main(argv + ["--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["trial"], ["allocate", "--scenario", "aps.csv"],
         ["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9"]],
        ids=["trial", "allocate", "gain"],
    )
    def test_threads_only_on_simulate(self, tmp_path, capsys, argv):
        # only a sweep takes a worker cap; elsewhere --threads is a usage error
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--threads", "2", "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, option",
        [(["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9"], "--seed"),
         (["gain", "--thetas", "0.5", "--f-start", "110e9", "--f-stop", "290e9"], "--trials"),
         (["trial"], "--trials"),
         (["allocate", "--scenario", "aps.csv"], "--trials")],
        ids=["gain-seed", "gain-trials", "trial-trials", "allocate-trials"],
    )
    def test_unread_option_is_a_usage_error(self, tmp_path, capsys, argv, option):
        # a subcommand takes only the options it reads: --seed where random
        # numbers are drawn, --trials on the sweep
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli.main(argv + [option, "1", "--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
        assert not out.exists()

    def test_each_subcommand_takes_the_options_it_reads(self):
        parser = cli.build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subcommands.choices.items()
        }
        assert options == SUBCOMMAND_OPTIONS
        assert sum(map(len, options.values())) == 21

    def test_seed_override_changes_digest(self, tmp_path):
        cfg1 = cli.load_config(None, {"seed": "1"})
        cfg2 = cli.load_config(None, {"seed": "2"})
        assert cli.config_digest(cfg1) != cli.config_digest(cfg2)
