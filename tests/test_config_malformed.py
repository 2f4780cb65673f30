"""Property checks that malformed configs fail with a ConfigError naming the
bad field, from run_experiment and from `crosslearn run`, before any run
starts. Needs hypothesis (the `test` extra in pyproject.toml)."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosslearn import harness
from crosslearn.envs import EnvError
from crosslearn.harness import ENV_FIELDS, ConfigError, main, run_experiment

NOT_A_LIST = st.one_of(st.none(), st.integers(), st.text(), st.floats(allow_nan=False),
                       st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# a float with no fractional part (512.0, or 1e3 in JSON) counts as an integer
NOT_AN_INT = st.one_of(st.none(), st.booleans(), st.text(),
                       st.floats(allow_nan=False).filter(lambda x: not x.is_integer()),
                       st.lists(st.integers(), max_size=2))


def _with_bad(entries, bad):
    """A list of good entries with one bad value inserted."""
    return st.tuples(entries, bad, st.integers(0, 3)).map(
        lambda x: x[0][:x[2]] + [x[1]] + x[0][x[2]:])


BAD_T_GRID = st.one_of(
    NOT_A_LIST, st.just([]),
    _with_bad(st.lists(st.integers(1, 64), max_size=3), NOT_AN_INT),
    _with_bad(st.lists(st.integers(1, 64), max_size=3), st.integers(max_value=0)),
    st.lists(st.integers(1, 64), min_size=2).filter(lambda g: g != sorted(set(g))))
BAD_SEEDS = st.one_of(
    NOT_A_LIST, st.just([]),
    _with_bad(st.lists(st.integers(0, 9), max_size=3),
              st.one_of(NOT_AN_INT, st.integers(max_value=-1))))


def _unknown_field(kind):
    allowed = {"kind", *ENV_FIELDS[kind][0], *ENV_FIELDS[kind][1]}
    return st.text(min_size=1, max_size=8).filter(lambda k: k not in allowed)


BASE_ENVS = {"tabular_synthetic": {"kind": "tabular_synthetic", "C": 4, "K": 3},
             "auction": {"kind": "auction"},
             "sleeping": {"kind": "sleeping", "K": 3}}
UNKNOWN_FIELD = st.sampled_from(sorted(ENV_FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _unknown_field(kind), st.integers()))


def config(**kw):
    out = {"env": {"kind": "tabular_synthetic", "C": 4, "K": 3},
           "algos": ["crosslearn", "known_nu"], "T_grid": [64, 128],
           "seeds": [0, 1], "overrides": "calibrated"}
    out.update(kw)
    return out


def malformed():
    """(config, field the error must name)."""
    unknown = UNKNOWN_FIELD.map(lambda x: (
        config(env=dict(BASE_ENVS[x[0]], **{x[1]: x[2]})), repr(x[1])))
    bad_size = st.tuples(st.sampled_from(["C", "K"]), NOT_AN_INT).map(lambda x: (
        config(env=dict(BASE_ENVS["tabular_synthetic"], **{x[0]: x[1]})), repr(x[0])))
    return st.one_of(BAD_T_GRID.map(lambda g: (config(T_grid=g), "T_grid")),
                     BAD_SEEDS.map(lambda s: (config(seeds=s), "seeds")),
                     unknown, bad_size)


@settings(max_examples=150, deadline=None)
@given(case=malformed())
def test_malformed_config_raises_config_error(case):
    cfg, field = case
    with pytest.raises(ConfigError, match=re.escape(field)):
        run_experiment(cfg)


# capsys is drained before each example, so sharing it across examples is safe
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed())
def test_cli_reports_malformed_config(case, capsys):
    cfg, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.csv"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(dict(cfg, output=str(out))))
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("T_grid", [64, 128.5]), ("seeds", [0, 0.5]),
    ("C", 2.5), ("K", 3.5), ("T_grid", [64, float("inf")]),
])
def test_fractional_numbers_rejected(field, value):
    cfg = (config(env=dict(BASE_ENVS["tabular_synthetic"], **{field: value}))
           if field in ("C", "K") else config(**{field: value}))
    with pytest.raises(ConfigError, match=field):
        run_experiment(cfg)


def test_whole_number_floats_run_as_integers(tmp_path):
    ints = config(env={"kind": "tabular_synthetic", "C": 4, "K": 3}, T_grid=[64, 128],
                  seeds=[0, 1], output=str(tmp_path / "ints.csv"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ints).replace('"C": 4', '"C": 4.0')
                    .replace("[64, 128]", "[64.0, 1.28e2]").replace("[0, 1]", "[0, 1.0]")
                    .replace("ints.csv", "floats.csv"))
    assert isinstance(json.loads(path.read_text())["T_grid"][1], float)
    assert main(["run", str(path)]) == 0
    harness.write_csv(run_experiment(ints), ints["output"])
    assert (tmp_path / "floats.csv").read_bytes() == (tmp_path / "ints.csv").read_bytes()


@pytest.mark.parametrize("text", ["[1, 2]", "7", "null"])
def test_cli_reports_config_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path), "--workers", "2"]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


@pytest.mark.parametrize("spec, missing", [
    ({"kind": "tabular_synthetic", "K": 3}, "'C'"),
    ({"kind": "sleeping"}, "'K'"),
])
def test_missing_env_field_named(spec, missing):
    with pytest.raises(ConfigError, match=missing):
        run_experiment(config(env=spec))


TABULAR = {"kind": "tabular_synthetic", "C": 4, "K": 3}


def _auction(values=None, payments=None):
    spec = {"kind": "auction"}
    spec.update({k: v for k, v in (("values", values), ("payments", payments)) if v})
    return spec


def _sleeping(availability):
    return {"kind": "sleeping", "K": 3, "availability": availability}


@pytest.mark.parametrize("env, field", [
    (dict(TABULAR, gap="x"), "gap"),
    (_auction(values=5), "values"),
    (_auction(values={"kind": "beta"}), "'a'"),
    (dict(TABULAR, nu=[1, 2]), "nu"),
    (dict(TABULAR, C=2, nu=[1, -0.5]), "nu"),
    (dict(TABULAR, nu=[0, 0, 0, 0]), "nu"),
    (dict(TABULAR, nu="foo"), "nu"),
    (_auction(values={"kind": "discrete"}), "'atoms'"),
    (_auction(values={"kind": "discrete", "atoms": [0.5]}), "'probs'"),
    (_auction(payments={"kind": "iid_discrete", "probs": [1]}), "'atoms'"),
    (_auction(payments={"kind": "iid_discrete", "atoms": [0.5]}), "'probs'"),
    (_auction(payments={"kind": "periodic"}), "'pattern'"),
    (_sleeping({"kind": "bernoulli"}), "'probs'"),
    (_sleeping({"kind": "categorical", "probs": [1]}), "'subsets'"),
    (_sleeping({"kind": "categorical", "subsets": [[0]]}), "'probs'"),
    (_sleeping({"kind": "categorical", "subsets": [[0], [5]], "probs": [1, 1]}), "'subsets'"),
    (dict(_sleeping({}), losses={"means": [0.2, 0.8]}), "'means'"),
    (dict(_sleeping({}), losses={"amp": "x"}), "'amp'"),
    (_auction(payments={"kind": "iid_uniform", "lo": "a"}), "'lo'"),
    (_auction(payments={"kind": "iid_uniform", "lo": 2, "hi": 1}), "'lo'"),
    (_auction(payments={"kind": "drift", "period": "weekly"}), "'period'"),
], ids=["gap", "values", "beta_a", "nu_length", "nu_negative", "nu_zero", "nu_text",
        "discrete_atoms", "discrete_probs", "iid_discrete_atoms", "iid_discrete_probs",
        "periodic_pattern", "bernoulli_probs", "categorical_subsets", "categorical_probs",
        "subset_arm_range", "means_length", "amp_text", "uniform_lo_text",
        "uniform_lo_above_hi", "drift_period_text"])
def test_bad_value_inside_env_spec_named(tmp_path, capsys, env, field):
    with pytest.raises((ConfigError, EnvError), match=re.escape(field)):
        run_experiment(config(env=env))
    out = tmp_path / "r.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(env=env, output=str(out))))
    capsys.readouterr()
    assert main(["run", str(path), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("env", [
    {"kind": "tabular_synthetic", "C": 4, "K": 3},
    {"kind": "auction"},
    {"kind": "auction", "K": 5},
    {"kind": "sleeping", "K": 3},
])
def test_serial_grid_builds_each_env_once(monkeypatch, env):
    calls = []
    build = harness.build_env

    def counting(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(harness, "build_env", counting)
    results = run_experiment(config(env=env, algos=["crosslearn", "exp3_per_context"],
                                    T_grid=[27, 64], seeds=[0, 1],
                                    overrides={"eta": 0.05, "unsafe": True}))
    assert len(results) == 8
    assert sorted(calls) == sorted(r.horizon for r in results)


def test_bad_override_fails_before_any_run(monkeypatch):
    monkeypatch.setattr(harness, "build_env", None)  # any run would crash
    for overrides in ({"eta": 5.0}, {"eta": "hot"}, {"L": [2]}):
        with pytest.raises(ConfigError, match="override"):
            run_experiment(config(overrides=overrides))
    # the auction's default K = ceil(T^(1/3)) is the one the run would use
    with pytest.raises(ConfigError, match="eta"):
        run_experiment(config(env={"kind": "auction"}, T_grid=[64],
                              overrides={"eta": 5.0}))
