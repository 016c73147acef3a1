import contextlib
import dataclasses
import functools
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eventfdi as ef
from eventfdi import ConfigError, NumericError
from eventfdi import harness

import _golden
from _oracles import (
    diagnostics,
    random_psd,
    reference_summary,
    reference_trace_rows,
    simulate_trajectory_reference,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "scenarios" / "paper_sec5.json"
SCHEMA = REPO / "docs" / "config_schema.json"
EYE2 = [[1.0, 0.0], [0.0, 1.0]]


def assert_schema_rejects(payload):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA) as fh:
        schema = json.load(fh)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)


class TestConfigLoading:
    @pytest.mark.parametrize("M", [0.05, 0.01])
    def test_target_below_q_beta_names_M(self, M):
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(ef.paper_scenario(M=M))
        assert err.value.field == "M" and "Q(beta)" in str(err.value)

    def test_paper_file_loads(self):
        config = ef.load_config(SCENARIO)
        assert config.detector.sigma == 11.34
        assert config.beta == 1.4
        assert config.detector.upsilon == 0.01
        assert config.detector.dof == 3
        assert config.attack_mode == "two_channel"
        assert config.model.m == 2 and config.model.n == 3

    def test_paper_file_matches_builtin(self, paper_payload):
        with open(SCENARIO) as fh:
            assert json.load(fh) == paper_payload

    def test_shipped_scenario_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA) as fh:
            schema = json.load(fh)
        with open(SCENARIO) as fh:
            jsonschema.validate(json.load(fh), schema)

    @pytest.mark.parametrize("field", ["sigma", "attack_params"])
    def test_schema_accepts_null_for_designed_fields(self, field):
        # config_from_dict reads null as "design the threshold" / "solve the attack"
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA) as fh:
            schema = json.load(fh)
        payload = ef.paper_scenario(**{field: None})
        jsonschema.validate(payload, schema)
        ef.config_from_dict(payload)

    def test_sigma_designed_when_absent(self, paper_payload):
        payload = dict(paper_payload)
        payload.pop("sigma")
        config = ef.config_from_dict(payload)
        assert config.detector.sigma == pytest.approx(11.345, abs=5e-3)

    def test_explicit_attack_params(self, paper_payload):
        payload = dict(paper_payload, attack_params={"mu": 3.0, "delta_bar": 2.0})
        config = ef.config_from_dict(payload)
        assert config.attack_params.mu == 3.0
        assert config.attack_params.delta_bar == 2.0
        assert config.attack_params.delta.shape == (2,)

    def test_unreachable_target_names_M(self, paper_payload):
        """At solver_dof 2**62 the 11.34 threshold alarms on almost every statistic."""
        with pytest.raises(ConfigError, match="no feasible scaling found") as err:
            ef.config_from_dict(dict(paper_payload, solver_dof=2**62))
        assert err.value.field == "M"

    def test_failed_threshold_design_names_solver_dof(self, paper_payload):
        """No threshold meets the 1% budget at solver_dof 10**200; the schema cannot
        state that, as it cannot state the rules across fields."""
        payload = dict(paper_payload, solver_dof=10**200, sigma=None)
        with pytest.raises(ConfigError, match="invalid 'solver_dof': designed sigma") as err:
            ef.config_from_dict(payload)
        assert err.value.field == "solver_dof"
        assert_schema_and_code_agree(payload, "solver_dof")

    def test_beta_vs_sigma_guard(self, paper_payload):
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(dict(paper_payload, beta=4.0))
        assert err.value.field == "beta"
        assert "sqrt(sigma)" in str(err.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta", "x"),
            ("beta", None),
            ("beta", [1]),
            ("beta", True),
            ("upsilon", "x"),
            ("upsilon", None),
            ("M", [1]),
            ("M", "0.5"),
            ("sigma", "11.34"),
            ("sigma", [1]),
            ("sigma", True),
        ],
    )
    def test_non_numeric_value(self, paper_payload, key, value):
        payload = dict(paper_payload, **{key: value})
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(payload)
        assert err.value.field == key
        assert_schema_rejects(payload)

    @pytest.mark.parametrize(
        "raw",
        [
            {"mu": "x", "delta_bar": 2.0},
            {"mu": 3.0, "delta_bar": None},
            {"mu": 0.5, "delta_bar": 2.0},
        ],
    )
    def test_bad_attack_params(self, paper_payload, raw):
        payload = dict(paper_payload, attack_params=raw)
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "attack_params"
        assert_schema_rejects(payload)

    def test_non_psd_covariance(self, paper_payload):
        payload = dict(paper_payload)
        payload["model"] = dict(payload["model"], Q=[[0.01, 0, 0], [0, -0.01, 0], [0, 0, 0.01]])
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "model"
        assert "Q" in str(err.value)

    def test_dimension_mismatch(self, paper_payload):
        payload = dict(paper_payload)
        payload["model"] = dict(payload["model"], C=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "model"

    def test_missing_field(self, paper_payload):
        payload = dict(paper_payload)
        payload.pop("beta")
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "beta"

    def test_unknown_field(self, paper_payload):
        with pytest.raises(ConfigError):
            ef.config_from_dict(dict(paper_payload, bogus=1))

    def test_burn_in_bounds(self, paper_payload):
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(dict(paper_payload, burn_in=4200))
        assert err.value.field == "burn_in"

    def test_attack_start_bounds(self, paper_payload):
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(dict(paper_payload, attack_start=300))
        assert err.value.field == "attack_start"

    def test_bad_attack_mode(self, paper_payload):
        with pytest.raises(ConfigError) as err:
            ef.config_from_dict(dict(paper_payload, attack_mode="sideways"))
        assert err.value.field == "attack_mode"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("steps", 0),
            ("steps", 10.5),
            ("steps", True),
            ("trajectories", 0),
            ("trajectories", "3"),
            ("burn_in", -1),
            ("attack_start", -1),
            ("seed", 1.5),
            ("seed", None),
            ("solver_dof", 0),
            ("solver_dof", False),
        ],
    )
    def test_bad_integer_field(self, paper_payload, key, value):
        payload = dict(paper_payload, **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}' must be a") as err:
            ef.config_from_dict(payload)
        assert err.value.field == key
        assert_schema_rejects(payload)

    @pytest.mark.parametrize(
        "key", ["steps", "trajectories", "burn_in", "attack_start", "seed", "solver_dof"]
    )
    def test_integral_float_is_an_integer(self, paper_payload, key):
        """JSON has one number type, and JSON Schema counts 50.0 as an integer: so does
        the config, which reads it as the int 50."""
        payload = dict(paper_payload, **{key: float(paper_payload[key])})
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(payload, ef.config_schema())
        config = ef.config_from_dict(payload)
        value = config.detector.dof if key == "solver_dof" else getattr(config, key)
        assert type(value) is int and value == paper_payload[key]

    @pytest.mark.parametrize("key, value", [("steps", 300.5), ("attack_start", 10.5), ("seed", 1.5)])
    def test_fractional_float_is_not_an_integer(self, paper_payload, key, value):
        payload = dict(paper_payload, **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer") as err:
            ef.config_from_dict(payload)
        assert err.value.field == key
        assert_schema_rejects(payload)

    @pytest.mark.parametrize("key", ["solver_dof", "attack_start"])
    def test_optional_integer_may_be_null(self, paper_payload, key):
        """Every field with a default may be omitted or null, and then takes it."""
        omitted = dict(paper_payload)
        omitted.pop(key)
        assert_same_config(
            ef.config_from_dict(dict(paper_payload, **{key: None})), ef.config_from_dict(omitted)
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            ("not a mapping", "'model' must be a mapping"),
            ("missing key", "missing config field 'model.Xi0'"),
            ("extra key", "unknown config fields: \\['model.B'\\]"),
        ],
    )
    def test_model_must_be_a_mapping_of_the_five_matrices(self, paper_payload, change, message):
        model = dict(paper_payload["model"])
        if change == "not a mapping":
            model = [model["A"]]
        elif change == "missing key":
            model.pop("Xi0")
        else:
            model["B"] = model["A"]
        payload = dict(paper_payload, model=model)
        with pytest.raises(ConfigError, match=message) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "model"
        assert_schema_rejects(payload)

    @pytest.mark.parametrize(
        "key, value",
        [("upsilon", 0.0), ("upsilon", 1.0), ("upsilon", -0.5), ("M", 0.0), ("M", 1.0), ("M", 2.0)],
    )
    def test_probability_out_of_range(self, paper_payload, key, value):
        payload = dict(paper_payload, **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}' must be a number > 0 and < 1") as err:
            ef.config_from_dict(payload)
        assert err.value.field == key
        assert_schema_rejects(payload)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([3.0, 2.0], "'attack_params' must be a mapping"),
            ({"mu": 3.0}, "missing config field 'attack_params.delta_bar'"),
            ({"mu": 3.0, "delta_bar": 2.0, "m": 2}, "unknown config fields: \\['attack_params.m'\\]"),
        ],
    )
    @pytest.mark.parametrize("mode", ["two_channel", "off"])
    def test_attack_params_must_be_a_mapping_of_mu_and_delta_bar(
        self, paper_payload, raw, message, mode
    ):
        """Checked in every mode, as the schema does, though 'off' does not use them."""
        payload = dict(paper_payload, attack_params=raw, attack_mode=mode)
        with pytest.raises(ConfigError, match=message) as err:
            ef.config_from_dict(payload)
        assert err.value.field == "attack_params"
        assert_schema_rejects(payload)

    @pytest.mark.parametrize("mu, delta_bar", [(1e200, 1.0), (1.0, 1e200), (1e154, 2.0)])
    def test_overflowing_attack_params_rejected_at_resolve(self, paper_payload, mu, delta_bar):
        """The schema cannot state the overflow rule; config_from_dict does."""
        payload = dict(paper_payload, attack_params={"mu": mu, "delta_bar": delta_bar})
        with pytest.raises(ConfigError, match="attack parameters overflow") as err:
            ef.config_from_dict(payload)
        assert err.value.field == "attack_params"

    @pytest.mark.parametrize("root", [[1, 2], "scenario", 3, None])
    def test_config_root_must_be_an_object(self, tmp_path, root):
        path = tmp_path / "root.json"
        path.write_text(json.dumps(root))
        with pytest.raises(ConfigError, match="config root must be a JSON object") as err:
            ef.load_config(path)
        assert err.value.field is None
        assert_schema_rejects(root)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ef.load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ef.load_config(bad)


def assert_same_config(a, b):
    keys = ("beta", "steps", "trajectories", "burn_in", "attack_start", "seed", "attack_mode")
    for key in keys + ("detector", "criteria"):
        assert getattr(a, key) == getattr(b, key), key
    assert (a.attack_params.mu, a.attack_params.delta_bar) == (
        b.attack_params.mu,
        b.attack_params.delta_bar,
    )


# Fields whose rejection may come after the table: the rules across fields, and
# the checks the table refers to (SystemModel on model, AttackParams on attack_params).
AFTER_THE_TABLE = {name for name, _, _ in harness._CROSS_RULES} | {"model", "attack_params"}
# The two warnings of a boundary solution in solve_optimal_params.
BOUNDARY_WARNING = re.compile(
    r"detector constraint inactive at mu = 1|solved bias .* is not below sqrt"
)
ODD_VALUES = [
    None, True, False, "x", "1", [], [1.0], {}, {"mu": 2.0, "delta_bar": 1.0},
    -1, 0, 0.5, 1, 1.0, 1.5, 2, 4.0, 10.5, 60, 1e200, -1e200,
    "off", "forward_only", [[]], [[1.0]], [["1"]], [[True]], [[1.0], []],
]


@st.composite
def valid_payloads(draw):
    """Valid scenarios around the paper's: random budgets, modes and optional fields."""
    steps = draw(st.integers(2, 60))
    burn_in = draw(st.integers(0, steps - 1))
    payload = ef.paper_scenario(
        steps=steps,
        trajectories=draw(st.integers(1, 3)),
        burn_in=burn_in,
        attack_start=draw(st.integers(0, burn_in)),
        seed=draw(st.integers(-(2**63), 2**64)),
        attack_mode=draw(st.sampled_from(harness.ATTACK_MODES)),
        sigma=draw(st.sampled_from([11.34, 20.0])),
        solver_dof=draw(st.integers(1, 6)),
        attack_params=draw(
            st.fixed_dictionaries({"mu": st.floats(1.0, 5.0), "delta_bar": st.floats(0.0, 3.0)})
        ),
    )
    for key in ("sigma", "solver_dof", "attack_start", "attack_params"):
        choice = draw(st.sampled_from(["keep", "omit", "null"]))
        if choice == "omit":
            del payload[key]
        elif choice == "null":
            payload[key] = None
    return payload


# in-range values that break a rule across fields, or a check of SystemModel
CROSS_VIOLATIONS = {
    "burn_in": lambda p: p["steps"],
    "attack_start": lambda p: p["burn_in"] + 1,
    "steps": lambda p: max(p["burn_in"], 1),
    "beta": lambda p: 4.0,
    "M": lambda p: 0.01,
    "model": lambda p: dict(p["model"], Q=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
}


def single_mutations(payload: dict, path: str):
    """payload with the field at path (dotted) set to each odd value, written as the
    integral float of its int, or removed."""
    *parents, key = path.split(".")
    for value in [*ODD_VALUES, "float", "delete"]:
        mutated = json.loads(json.dumps(payload))
        target = mutated
        for parent in parents:
            target = target[parent]
        if value == "delete":
            target.pop(key, None)
        elif value == "float":
            if type(target.get(key)) is not int:
                continue
            target[key] = float(target[key])
        else:
            target[key] = value
        yield mutated


def mutation_paths(payload: dict) -> list:
    paths = [row.name for row in harness._CONFIG.items] + ["bogus"]
    paths += [f"model.{key}" for key in payload["model"]]
    if isinstance(payload.get("attack_params"), dict):
        paths += ["attack_params.mu", "attack_params.delta_bar", "attack_params.bogus"]
    return paths


@st.composite
def mutated_payloads(draw):
    """A valid payload, or one with a single field set to an odd value, written as the
    integral float of its int, removed, added as an unknown key, or set to a value
    that breaks a rule across fields; and that field."""
    payload = draw(valid_payloads())
    kind = draw(st.sampled_from(["none", "cross", "field", "field"]))
    if kind == "none":
        return payload, None
    if kind == "cross":
        key = draw(st.sampled_from(sorted(CROSS_VIOLATIONS)))
        payload[key] = CROSS_VIOLATIONS[key](payload)
        return payload, key
    path = draw(st.sampled_from(mutation_paths(payload)))
    return draw(st.sampled_from(list(single_mutations(payload, path)))), path.split(".")[0]


def assert_schema_and_code_agree(payload: dict, mutated: str | None):
    """The schema accepts the payload exactly when config_from_dict does, apart from
    the rules across fields and the checks of SystemModel and AttackParams, which the
    schema states only in descriptions; and every rejection names its field."""
    jsonschema = pytest.importorskip("jsonschema")
    schema_ok = jsonschema.Draft202012Validator(ef.config_schema()).is_valid(payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ef.config_from_dict(payload)
            error = None
        except ConfigError as exc:
            error = exc
    assert all(BOUNDARY_WARNING.match(str(w.message)) for w in caught), caught
    if error is None:
        assert schema_ok, payload
    elif schema_ok:
        assert error.field in AFTER_THE_TABLE, error
        harness._read(harness._CONFIG, payload, "config", None)  # the table accepts it
    else:
        assert error.field == mutated, (error, payload)
    if mutated is None:
        assert error is None and schema_ok


class TestConfigSchema:
    """docs/config_schema.json is generated from the field table that config_from_dict
    reads by, so the schema and the code accept the same payloads."""

    def test_committed_schema_is_generated(self):
        assert SCHEMA.read_text() == json.dumps(ef.config_schema(), indent=2) + "\n"

    def test_each_cross_rule_is_in_its_field_description(self):
        properties = ef.config_schema()["properties"]
        for name, rule, _ in harness._CROSS_RULES:
            assert f"{name} {rule}" in properties[name]["description"]

    @settings(max_examples=150, deadline=None)
    @given(mutated_payloads())
    def test_schema_accepts_exactly_what_the_code_does(self, case):
        assert_schema_and_code_agree(*case)

    @pytest.mark.parametrize("attack_params", [None, {"mu": 3.0, "delta_bar": 2.0}])
    def test_every_single_mutation_of_the_paper_payload(self, paper_payload, attack_params):
        payload = dict(paper_payload, steps=300, attack_params=attack_params)
        for path in mutation_paths(payload):
            for mutated in single_mutations(payload, path):
                assert_schema_and_code_agree(mutated, path.split(".")[0])


@pytest.fixture(scope="module")
def small_attacked(paper_payload):
    return dict(paper_payload, steps=260, trajectories=3, burn_in=200, attack_start=100)


class TestTrace:
    def test_header_exact(self):
        assert (
            ef.trace_header(3, 2)
            == "k,traj,gamma,alarm,g,x_1,x_2,x_3,xhat_1,xhat_2,xhat_3,"
            "xhata_1,xhata_2,xhata_3,z_1,z_2,eps_1,eps_2,epstilde_1,epstilde_2"
        )

    def test_nominal_trace_epstilde_equals_eps(self, paper_payload, tmp_path):
        config = ef.config_from_dict(
            dict(paper_payload, steps=3, trajectories=1, burn_in=2, attack_start=1, attack_mode="off")
        )
        path = tmp_path / "trace.csv"
        ef.run_scenario(config, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == ef.trace_header(3, 2)
        assert len(lines) == 4  # header + 3 steps
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["eps_1"] == row["epstilde_1"]
            assert row["eps_2"] == row["epstilde_2"]

    def test_trace_byte_determinism(self, small_attacked, tmp_path):
        config = ef.config_from_dict(small_attacked)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        first = ef.run_scenario(config, trace_path=a)
        second = ef.run_scenario(config, trace_path=b)
        assert a.read_bytes() == b.read_bytes()
        assert first.summary.to_dict() == second.summary.to_dict()


class TestSummary:
    def test_to_dict_round_trips_through_json(self, small_attacked):
        result = ef.run_scenario(ef.config_from_dict(small_attacked))
        payload = json.loads(json.dumps(result.summary.to_dict()))
        assert set(payload) == {item.name for item in dataclasses.fields(ef.SimulationSummary)}
        assert payload["step_count"] == 60
        assert payload["trajectory_count"] == 3

    def test_analytic_values_use_channel_dimension(self, paper_config, attacked_big):
        s = attacked_big.summary
        params = paper_config.attack_params
        assert s.analytic_trigger == pytest.approx(
            ef.trigger_probability(params, 1.4), abs=1e-12
        )
        assert s.analytic_alarm == pytest.approx(
            ef.alarm_probability(params, 11.34, 2), abs=1e-12
        )

    @pytest.mark.parametrize("overrides", [
        {"attack_mode": "off"},
        {},
        {"attack_params": {"mu": 1.6, "delta_bar": 1.0}},
    ], ids=["off", "two_channel", "mu1.6_delta1.0"])
    def test_cov_trace_is_two_pass_covariance(self, paper_payload, overrides):
        """emp_cov_trace, formed from the window sums as sum(err_sq)/N - |sum(err)/N|^2,
        is the covariance of xhat_a - x about its mean, computed here in two passes
        over _simulate's records: the mean error first, then the mean of |e - mean|^2."""
        config = ef.config_from_dict(dict(paper_payload, steps=800, trajectories=6,
                                          **overrides))
        records = harness._simulate(config)
        err = records.xa[:, config.burn_in:] - records.x[:, config.burn_in:]
        err -= err.mean(axis=(0, 1))
        two_pass = float(np.mean(np.sum(err * err, axis=2)))
        summary = ef.run_scenario(config).summary
        assert summary.emp_cov_trace == pytest.approx(two_pass, rel=1e-12, abs=0.0)


class TestCrossModeConsistency:
    def test_received_stream_identical(self, paper_payload, tmp_path):
        """forward_only and two_channel feed the estimator the same bytes: every record
        but the sensor's z and eps has the same bits in both, and so have the received
        and remote columns of the trace."""
        configs = {
            mode: ef.config_from_dict(
                dict(paper_payload, steps=240, trajectories=2, burn_in=200, attack_mode=mode)
            )
            for mode in ("forward_only", "two_channel")
        }
        forward, two = (harness._simulate(config) for config in configs.values())
        for item in dataclasses.fields(harness._Records):
            if item.name not in ("z", "eps"):
                _assert_same_bits(getattr(forward, item.name), getattr(two, item.name), item.name)
        results = {}
        for mode, config in configs.items():
            path = tmp_path / f"{mode}.csv"
            ef.run_scenario(config, trace_path=path)
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            idx = [header.index("epstilde_1"), header.index("epstilde_2")]
            xa = [header.index(f"xhata_{i}") for i in (1, 2, 3)]
            results[mode] = [
                tuple(line.split(",")[i] for i in idx + xa) for line in lines[1:]
            ]
        assert results["forward_only"] == results["two_channel"]

    def test_sensor_side_differs(self, paper_payload):
        covs = {}
        for mode in ("forward_only", "two_channel"):
            config = ef.config_from_dict(
                dict(paper_payload, steps=1200, trajectories=2, attack_mode=mode)
            )
            result = ef.run_scenario(config)
            covs[mode] = np.linalg.norm(diagnostics(result.sums)["sensor_innovation_mean"])
        assert covs["two_channel"] < 1e-2 < covs["forward_only"]


class TestTrajectorySums:
    @pytest.mark.parametrize("masked", [False, True], ids=["clean", "trajectory_1_masked"])
    @pytest.mark.parametrize("name, reference", [("bias", "xn"), ("err", "x")], ids=["bias", "err"])
    def test_bias_se_by_hand(self, paper_payload, masked, name, reference):
        """se("bias") and se("err") are the sample standard deviation of the survivors'
        window means of xhat_a - xhat and of xhat_a - x over the square root of their
        number, computed here from _simulate's records."""
        config = ef.config_from_dict(dict(paper_payload, steps=240, trajectories=4))
        survivors = [0, 2, 3] if masked else [0, 1, 2, 3]
        with _golden._poisoned_noise() if masked else contextlib.nullcontext():
            records = harness._simulate(config)
            sums = ef.run_scenario(config).sums
        assert np.flatnonzero(~records.diverged).tolist() == survivors
        post = slice(config.burn_in, config.steps)
        rows = getattr(records, reference)[survivors, post]
        means = (records.xa[survivors, post] - rows).mean(axis=1)
        T = len(survivors)
        hand = np.sqrt(((means - means.mean(axis=0)) ** 2).sum(axis=0) / (T - 1) / T)
        np.testing.assert_allclose(sums.se(name), hand, rtol=1e-12)

    def test_se_of_one_trajectory_is_nan(self, paper_payload):
        config = ef.config_from_dict(dict(paper_payload, steps=240, trajectories=1))
        sums = ef.run_scenario(config).sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for item in dataclasses.fields(sums)[1:]:
                se = sums.se(item.name)
                assert se.shape == getattr(sums, item.name).shape[1:], item.name
                assert np.isnan(se).all(), item.name


def _trace_rows_by_trajectory(path) -> dict:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        rows.setdefault(int(line.split(",")[1]), []).append(line)
    return rows


class TestDivergence:
    def _assert_only_masked(self, config, tmp_path, fault, masked=(1,)):
        """The run made inside the context fault() masks exactly the trajectories masked,
        and its trace holds the clean run's rows of the others, also when trace chunks
        of 1 to 7 rows split each trajectory's rows."""
        clean_path, faulty_path = tmp_path / "clean.csv", tmp_path / "faulty.csv"
        clean = ef.run_scenario(config, trace_path=clean_path)
        survivors = [t for t in range(config.trajectories) if t not in masked]
        clean_rows = _trace_rows_by_trajectory(clean_path)
        for chunk in (1, 2, 7, harness._TRACE_CHUNK):
            with fault(), warnings.catch_warnings(), mock.patch.object(harness, "_TRACE_CHUNK", chunk):
                warnings.simplefilter("error")  # masked slices warn about nothing
                result = ef.run_scenario(config, trace_path=faulty_path)
            rows = _trace_rows_by_trajectory(faulty_path)
            assert rows == {t: clean_rows[t] for t in survivors}, chunk
        assert result.diverged == list(masked)
        assert result.summary.trajectory_count == len(survivors)
        assert np.array_equal(result.traj_bias_means, clean.traj_bias_means[survivors])
        assert result.sums.count == clean.sums.count
        for item in dataclasses.fields(result.sums)[1:]:
            kept = getattr(clean.sums, item.name)[survivors]
            assert np.array_equal(getattr(result.sums, item.name), kept), item.name
        if not masked:
            assert json.dumps(result.summary.to_dict()) == json.dumps(clean.summary.to_dict())

    @pytest.mark.parametrize("last_w", [False, True], ids=["middle_draw", "last_step_w"])
    def test_partial_divergence_flag(self, paper_payload, tmp_path, last_w):
        """A nan draw masks its trajectory alone. One in the process noise w of the
        last step reaches only the plant state after it, which no record holds, so
        nothing is masked and the summary is the clean run's."""
        config = ef.config_from_dict(dict(paper_payload, steps=240, trajectories=3))
        n, m = config.model.n, config.model.m
        index = n + (config.steps - 1) * (n + m) if last_w else None
        masked = () if last_w else (1,)
        self._assert_only_masked(config, tmp_path, lambda: _golden._poisoned_noise(index), masked)

    def test_indefinite_innovation_covariance_masked(self, tmp_path):
        config = ef.config_from_dict(_golden._three_channel())
        assert config.model.m == 3
        self._assert_only_masked(config, tmp_path, _golden._indefinite_innovation)

    def test_memo_serves_an_indefinite_pattern_exactly(self, tmp_path, monkeypatch):
        """The fault is a function of the S bits: every slice whose S equals one bit
        pattern of the attack window, reached by some trajectories but not all, is
        negated. Its non-finite factors are then as much a function of P+ as any other,
        so the memo stays live, exactly the trajectories that reach the pattern are
        masked, and every other trajectory keeps its records and trace rows."""
        config = ef.config_from_dict(_golden._three_channel(trajectories=4, seed=0))
        clean_records = harness._simulate(config)

        # every slice's S on every step, with the memo stopped so that each step is computed
        real, seen = harness.factor_stack, []

        def spy(S):
            seen.append([s.tobytes() for s in S])
            return real(S)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_MEMO_GRACE", -1)
            patch.setattr(harness, "factor_stack", spy)
            harness._simulate(config)
        assert len(seen) == config.steps - 1
        reach = {}
        for keys in seen:
            for traj, key in enumerate(keys):
                reach.setdefault(key, set()).add(traj)
        pattern = next(
            key
            for keys in seen[config.attack_start - 1 :]  # call k - 1 factors step k
            for key in keys
            if 2 <= len(reach[key]) < config.trajectories
        )
        masked = sorted(reach[pattern])

        def negated(S):
            hit = np.array([s.tobytes() == pattern for s in S])
            return real(np.where(hit[:, None, None], -S, S))

        memo_class, memos = harness._CovarianceMemo, []
        monkeypatch.setattr(
            harness, "_CovarianceMemo", lambda *args: memos.append(memo_class(*args)) or memos[-1]
        )
        fault = functools.partial(mock.patch.object, harness, "factor_stack", negated)
        self._assert_only_masked(config, tmp_path, fault, masked)
        for memo in memos:  # the clean run's and the faulty run's
            assert memo.live and memo.lag < 0  # each served more steps than it computed

        with fault():
            faulty_records = harness._simulate(config)
        survivors = np.flatnonzero(~faulty_records.diverged)
        assert survivors.tolist() == [t for t in range(config.trajectories) if t not in masked]
        for item in dataclasses.fields(harness._Records):
            faulty, clean = (getattr(r, item.name)[survivors] for r in (faulty_records, clean_records))
            assert np.array_equal(faulty, clean), item.name

    def test_unstable_plant_detected(self, paper_payload, tmp_path):
        model = {"A": [[2.0, 0.0], [0.0, 2.0]], "C": EYE2, "Q": EYE2, "R": EYE2, "Xi0": EYE2}
        config = ef.config_from_dict(dict(
            paper_payload, model=model, steps=1500, trajectories=2, burn_in=100, seed=1,
            attack_mode="off",
        ))
        with pytest.raises(NumericError):
            ef.run_scenario(config, trace_path=tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_overflowing_squared_error_is_divergence(self, paper_payload):
        """At spectral radius 1.3 over 1800 steps the plant path stays finite, but its
        square overflows: both trajectories are masked, so the run raises, and
        none of the summary's reductions warns."""
        A = np.array(paper_payload["model"]["A"])
        A *= 1.3 / np.max(np.abs(np.linalg.eigvals(A)))
        payload = dict(paper_payload, model=dict(paper_payload["model"], A=A.tolist()),
                       steps=1800, trajectories=2, burn_in=200, attack_start=100)
        config = ef.config_from_dict(payload)
        records = harness._simulate(config)
        assert np.isfinite(records.x).all()
        assert records.diverged.tolist() == [True, True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="all trajectories diverged"):
                ef.run_scenario(config)


class TestDomainBeforeTheRun:
    def test_alarm_overflow_costs_no_run(self, paper_payload, monkeypatch):
        """mu^2 sigma overflows for an explicit sigma near the float maximum; the
        analytic values are computed before the Monte Carlo, so none of it runs."""
        payload = dict(
            paper_payload, steps=240, trajectories=2, sigma=1e308,
            attack_params={"mu": 2.0, "delta_bar": 1.0},
        )
        config = ef.config_from_dict(payload)

        def no_run(config):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "_simulate", no_run)
        with pytest.raises(ef.DomainError, match="alarm_probability overflows"):
            ef.run_scenario(config)

    def test_unconverged_theory_costs_no_run(self, unconverged_payload, monkeypatch):
        """A stable A whose event-based covariance does not finish is a numeric error
        before the Monte Carlo, not an undefined theory."""
        config = ef.config_from_dict(unconverged_payload)
        assert config.model.spectral_radius() < 1.0

        def no_run(config):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "_simulate", no_run)
        with pytest.raises(ef.DivergenceError, match="event-based covariance did not converge"):
            ef.run_scenario(config)

    def test_off_theory_has_no_bias(self, paper_payload):
        known = ef.theory(ef.config_from_dict(dict(paper_payload, attack_mode="off")))
        assert known.bias.tolist() == [0.0, 0.0, 0.0] and not np.signbit(known.bias).any()
        assert known.cov_trace < known.open_trace

    def test_unstable_plant_leaves_the_theory_nan(self, paper_payload):
        """An unstable A has no steady bias and no attacked fixed point: both raise
        DivergenceError, the run reports nan for them, and to_dict states the reason.
        The empirical covariance is the error's about its own mean, as for any A."""
        model = {"A": [[1.05, 0.0], [0.0, 1.05]], "C": EYE2, "Q": EYE2, "R": EYE2, "Xi0": EYE2}
        config = ef.config_from_dict(dict(
            paper_payload, model=model, steps=120, trajectories=2, burn_in=60, attack_start=30,
            seed=1,
        ))
        known = ef.theory(config)
        assert np.isnan(known.bias).all() and math.isnan(known.open_trace)
        assert np.isfinite(known.steady.P).all() and 0.0 < known.trigger < 1.0
        summary = ef.run_scenario(config).summary
        assert summary.trajectory_count == 2
        assert np.isnan(summary.theory_bias).all() and math.isnan(summary.theory_cov_trace)
        records = harness._simulate(config)
        err = records.xa[:, 60:] - records.x[:, 60:]
        err -= err.mean(axis=(0, 1))
        assert summary.emp_cov_trace == pytest.approx(float(np.mean(np.sum(err * err, axis=2))))
        out = summary.to_dict()
        assert out["theory_bias"] is None and out["theory_cov_trace"] is None
        assert out["theory"] == "undefined: A is not stable"


def _random_stable_payload(n, m, trajectories, mode, seed) -> dict:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.1, 0.95) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    steps = int(rng.integers(1, 40))
    burn_in = int(rng.integers(0, steps))
    return ef.paper_scenario(
        model={
            "A": A.tolist(),
            "C": rng.standard_normal((m, n)).tolist(),
            "Q": random_psd(rng, n, 0.1).tolist(),
            "R": (random_psd(rng, m, 0.5) + 0.05 * np.eye(m)).tolist(),
            "Xi0": random_psd(rng, n).tolist(),
        },
        beta=float(rng.uniform(0.2, 2.5)),
        solver_dof=m,
        steps=steps,
        trajectories=trajectories,
        burn_in=burn_in,
        attack_start=int(rng.integers(0, burn_in + 1)),
        seed=int(rng.integers(0, 2**63)),
        attack_mode=mode,
        attack_params={"mu": float(rng.uniform(1.0, 5.0)), "delta_bar": float(rng.uniform(0, 3))},
    )


def _memo_payload(n, m, trajectories, mode, seed) -> dict:
    """200 steps with the attack from step 20; the scheduler stays silent on 0.05-0.5 %
    of attacked steps, so the covariance recursion is nearly the Riccati map and
    each trajectory's P+ keeps coming back to bits it had before."""
    rng = np.random.default_rng([seed, 1])
    payload = _random_stable_payload(n, m, trajectories, mode, seed)
    mu = float(rng.uniform(1.5, 4.0))
    silent = float(rng.uniform(5e-4, 5e-3))  # chance that the biased channel stays within beta
    delta_bar = payload["beta"] + ef.gaussian_q_inv(silent) / mu
    return dict(
        payload, steps=200, burn_in=100, attack_start=20,
        attack_params={"mu": mu, "delta_bar": delta_bar},
    )


def _first_revisit(config, gammas):
    """First step whose P+ repeats, in every trajectory, bits of an earlier P+ of the
    attack window (from attack_start - 1 on); None if there is none.

    The covariance path follows the scalar recursion along the recorded
    scheduler decisions.
    """
    model = config.model
    revisits = []
    for gamma in gammas:
        filt, seen, hits = ef.initial_filter_state(model), set(), []
        for k, fired in enumerate(gamma.tolist()):
            if k > 0:
                filt = ef.time_update(filt, model)
            filt = ef.measurement_update(filt, np.zeros(model.m), int(fired), config.beta, model)
            key = filt.P_post.tobytes()
            hits.append(key in seen)
            if k >= config.attack_start - 1:
                seen.add(key)
        revisits.append(hits)
    return next((k for k, row in enumerate(zip(*revisits)) if all(row)), None)


def _assert_same_bits(actual, expected, label):
    """Same dtype, shape and bytes; np.array_equal would take -0.0 for 0.0."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), label
    assert actual.tobytes() == expected.tobytes(), label


# every float, with nan, +-inf, +-0 and subnormals drawn often
_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
)


def _quiet(a: np.ndarray) -> np.ndarray:
    """a with every nan made quiet in place, payload and sign kept. Arithmetic makes
    only quiet nans, and quiets a signaling one, which a masked-out write leaves as it is."""
    bits = a.view(np.uint64)
    bits[np.isnan(a)] |= np.uint64(1 << 51)
    return a


@st.composite
def _masked_operands(draw):
    """Two float arrays of one (T, r, c) shape with quiet nans, and a (T, 1, 1) bool mask."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    x, u = (_quiet(draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))) for _ in range(2))
    return x, u, draw(hnp.arrays(np.bool_, (shape[0], 1, 1)))


class TestMaskedWrites:
    """The scheduler loop's masked ufunc writes and ufunc reductions give the bits of
    the select temporaries and ndarray methods they replace."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_masked_operands())
    # the in-place add keeps u's nan here, where x + u keeps x's
    @example(ops=(np.full((1, 1, 1), np.nan), np.full((1, 1, 1), -np.nan),
                  np.ones((1, 1, 1), bool)))
    def test_masked_add(self, ops):
        """Where x and u are both nan, the sum keeps either one's bits, as numpy's loop
        for the operands picks (an in-place or masked loop may pick u); a trajectory
        that carries nan has diverged, and no output reads its records."""
        x, u, fired = ops
        both = np.isnan(x) & np.isnan(u) & fired
        got = x.copy()
        with np.errstate(all="ignore"):
            expected = x + np.where(fired, u, -0.0)
            np.add(got, u, out=got, where=fired)
        bits = got.view(np.uint64)
        assert np.array_equal(bits[~both], expected.view(np.uint64)[~both])
        assert ((bits == x.view(np.uint64)) | (bits == u.view(np.uint64)))[both].all()

    @settings(max_examples=200, deadline=None)
    @given(ops=_masked_operands(), kappa=_ENTRIES.filter(lambda v: not math.isnan(v)))
    def test_masked_kappa_multiply(self, ops, kappa):
        """kappa(beta) is never nan, so the product of two nans does not arise."""
        c, _, fired = ops
        got = c.copy()
        with np.errstate(all="ignore"):
            expected = np.where(fired, 1.0, kappa) * c
            np.multiply(kappa, got, out=got, where=~fired)
        _assert_same_bits(got, expected, "kappa * c where quiet")

    @settings(max_examples=200, deadline=None)
    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3), elements=_ENTRIES),
        nodes=hnp.arrays(np.int64, hnp.array_shapes(max_dims=1)),
    )
    def test_ufunc_reductions(self, x, nodes):
        _assert_same_bits(np.maximum.reduce(x, axis=(1, 2)), x.max(axis=(1, 2)), "max")
        for a in (x.ravel(), nodes):
            _assert_same_bits(np.minimum.reduce(a), a.min(), "min")


class TestBatchedCore:
    """The batched step loop and its summary against the scalar reference loop, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        # 12 trajectories: enough for a pairwise sum across them to round differently
        trajectories=st.sampled_from([1, 2, 5, 12]),
        mode=st.sampled_from(harness.ATTACK_MODES),
        seed=st.integers(0, 2**32 - 1),
        # trace chunks of 1 to 7 rows split the drawn 1-39 steps of each trajectory
        chunk=st.integers(1, 7),
    )
    # past the drawn sizes: n = 12 runs BLAS products the small systems do not
    @example(n=12, m=4, trajectories=3, mode="two_channel", seed=1, chunk=harness._TRACE_CHUNK)
    @example(n=12, m=12, trajectories=3, mode="forward_only", seed=1, chunk=1)
    def test_matches_scalar_reference(self, n, m, trajectories, mode, seed, chunk):
        config = ef.config_from_dict(_random_stable_payload(n, m, trajectories, mode, seed))
        records = harness._simulate(config)
        assert not records.diverged.any()
        references = [simulate_trajectory_reference(config, traj) for traj in range(trajectories)]
        rows = []
        for traj, reference in enumerate(references):
            for key, column in reference.items():
                _assert_same_bits(getattr(records, key)[traj], column, (key, traj))
            rows += reference_trace_rows(reference, traj)

        with tempfile.TemporaryDirectory() as tmp:
            batched, scalar = Path(tmp) / "batched.csv", Path(tmp) / "scalar.csv"
            with mock.patch.object(harness, "_TRACE_CHUNK", chunk):
                result = ef.run_scenario(config, trace_path=batched)
            ef.write_trace(rows, scalar)
            assert batched.read_bytes() == scalar.read_bytes()

        expected = reference_summary(references, config)
        sums = expected.pop("sums")
        assert [item.name for item in dataclasses.fields(result.sums)] == list(sums)
        for key, value in sums.items():
            assert np.array_equal(getattr(result.sums, key), value), ("sums", key)
        summary = result.summary.to_dict()
        theory = {"theory_bias", "theory_cov_trace", "analytic_trigger", "analytic_alarm"}
        fields = set(vars(result)) - {"summary", "sums", "diverged"}
        assert set(expected) == set(summary) - theory | fields
        assert result.diverged == []
        for key, value in expected.items():
            actual = summary[key] if key in summary else getattr(result, key)
            assert np.array_equal(actual, value, equal_nan=True), key

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        trajectories=st.sampled_from([1, 3]),
        mode=st.sampled_from(["forward_only", "two_channel"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_memo_matches_scalar_reference(self, n, m, trajectories, mode, seed):
        """Long attack windows, where the covariance memo serves steps, bit for bit."""
        config = ef.config_from_dict(_memo_payload(n, m, trajectories, mode, seed))
        with mock.patch.object(harness, "factor_stack", wraps=harness.factor_stack) as spy:
            records = harness._simulate(config)
        assert not records.diverged.any()
        for traj in range(trajectories):
            for key, column in simulate_trajectory_reference(config, traj).items():
                _assert_same_bits(getattr(records, key)[traj], column, (key, traj))

        # Every P+ of the attack window becomes a node, so the step after a common
        # revisit finds them all and is served, unless the memo has stopped, which
        # takes _MEMO_GRACE more computed steps than served ones.
        revisit = _first_revisit(config, records.gamma)
        assume(revisit is not None and revisit < config.attack_start + harness._MEMO_GRACE)
        assert spy.call_count < config.steps - 1

    # 7 is past the first block, so a block ends early there; with blocks of one step
    # the loop's matmul writes x_n's prior over the buffer slot that holds its posterior
    @pytest.mark.parametrize("attack_start", [0, 5, 7])
    @pytest.mark.parametrize("mode", harness.ATTACK_MODES)
    # attack windows of blocks * block + extra steps: 1, block - 1, block, block + 1, 2 block + 1
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    @settings(max_examples=5, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        trajectories=st.sampled_from([1, 2, 3]),
        block=st.integers(1, 6),
        poisoned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_attack_blocks_match_scalar_reference(
        self, attack_start, mode, blocks, extra, n, m, trajectories, block, poisoned, seed
    ):
        """Attack windows on both sides of the block boundaries of the scheduler loop's
        buffers and the attack pass, bit for bit on every record, with the attack off
        too. A poisoned slice (a nan in its measurement noise in the middle of the
        window) diverges without touching the others, and its records match up to
        that step."""
        assume(blocks * block + extra > 0)  # one-step blocks have no window of block - 1
        steps = attack_start + blocks * block + extra
        payload = dict(
            _random_stable_payload(n, m, trajectories, mode, seed),
            steps=steps, burn_in=attack_start, attack_start=attack_start,
        )
        config = ef.config_from_dict(payload)
        poisoned_step = (attack_start + steps) // 2 if poisoned else steps
        v = n + poisoned_step * (n + m) + n  # the measurement noise of that step
        fault = _golden._poisoned_noise(v, 0) if poisoned else contextlib.nullcontext()
        with mock.patch.object(harness, "_attack_block", lambda n, m: block), fault:
            records = harness._simulate(config)
        assert records.diverged.tolist() == [poisoned and traj == 0 for traj in range(trajectories)]
        for traj in range(trajectories):
            if records.diverged[traj]:
                assert np.isnan(records.zn[traj, poisoned_step]).all()
                assert np.isnan(records.xa[traj, -1]).all() and np.isnan(records.z[traj, -1]).all()
            reference = simulate_trajectory_reference(config, traj)
            upto = poisoned_step if records.diverged[traj] else steps
            for key, column in reference.items():
                _assert_same_bits(getattr(records, key)[traj, :upto], column[:upto], (key, traj))

    def test_long_golden_window_spans_several_blocks(self):
        payload, _ = _golden.RUNS["paper_long_window"]
        config = ef.config_from_dict(payload)
        block = harness._attack_block(config.model.n, config.model.m)
        assert config.steps - config.attack_start > 2 * block + 1

    @pytest.mark.parametrize("mode", ["off", "two_channel"])
    def test_block_buffers_do_not_grow_with_steps(self, paper_payload, monkeypatch, mode):
        """From 10 x 700 to 10 x 2800 steps, the scheduler loop's step-major buffers
        and the attack pass's keep their size, and the traced peak grows by no more
        than the per-step arrays the run keeps: the records and the measurements,
        T * steps * (3n + 5m + 1) doubles and two bools under the attack, and
        T * steps * (2n + 3m + 1) doubles and two bools with it off. The peak holds
        all of them, so the two growths are equal to within what Python-side state,
        such as the memo's index of P+ patterns, adds: 1 % here. Blocks as long as
        the window would add about 5 MB. The pass's buffers hold the nm + 2m^2 + 6n
        doubles per trajectory-step that _attack_block counts, and its block leaves
        room for the 4m doubles of temporaries on top."""
        passes = []
        real = harness._AttackPass

        def spy(*args):
            passes.append(real(*args))
            return passes[-1]

        monkeypatch.setattr(harness, "_AttackPass", spy)
        peaks, kept = [], []
        for steps in (700, 2800):
            config = ef.config_from_dict(
                dict(paper_payload, steps=steps, trajectories=10, attack_mode=mode)
            )
            tracemalloc.start()
            try:
                harness._simulate(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            n, m, T = config.model.n, config.model.m, config.trajectories
            per_step = 3 * n + 5 * m + 1 if mode == "two_channel" else 2 * n + 3 * m + 1
            kept.append(T * steps * (8 * per_step + 2))
        if mode == "two_channel":
            buffers = [[getattr(p, name).nbytes for name in ("K", "L", "F", "prior", "post", "inc")]
                       for p in passes]
            assert buffers[0] == buffers[1] and passes[0].block < 700 - 100
            block, per_step = passes[0].block, n * m + 2 * m * m + 6 * n
            assert sum(buffers[0]) == 8 * T * (block * per_step + 2 * n)  # and prior[block]
            assert block == harness._ATTACK_PASS_BYTES // (8 * (per_step + 4 * m)) == 25
        assert peaks[1] - peaks[0] <= 1.01 * (kept[1] - kept[0]), (peaks, kept)

    def test_trace_does_not_grow_with_steps(self, paper_payload, tmp_path, monkeypatch):
        """From 1 x 1500 to 1 x 6000 steps with the attack off, a traced run's peak
        grows by no more than an untraced one's, by the 1 % rule above: the trace
        holds one _TRACE_CHUNK of rows, not a copy of the trajectory's records. The
        records are made before tracemalloc starts (tracing the step loop's
        allocations takes seconds), and a first traced run fills Python's free list
        of row tuples, which tracemalloc counts as held."""
        configs = [
            ef.config_from_dict(dict(paper_payload, steps=steps, trajectories=1, attack_mode="off"))
            for steps in (1500, 6000)
        ]
        records = {id(config): harness._simulate(config) for config in configs}
        monkeypatch.setattr(harness, "_simulate", lambda config: records[id(config)])
        trace = tmp_path / "trace.csv"
        ef.run_scenario(configs[1], trace_path=trace)
        growth = {}
        for path in (None, trace):
            peaks = []
            for config in configs:
                tracemalloc.start()
                try:
                    ef.run_scenario(config, trace_path=path)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            growth[path] = peaks[1] - peaks[0]
        assert growth[trace] <= 1.01 * growth[None], growth

    # the paper attack's memo stops at a capacity of 16 or 40 nodes inside the first
    # block; the unsaturated mu = 1.6 one by its grace, inside a later block
    @pytest.mark.parametrize("nodes, grace, params", [
        (16, None, None),
        (40, None, None),
        (None, 700, {"mu": 1.6, "delta_bar": 1.0}),
    ], ids=["capacity_16", "capacity_40", "grace_mu_1.6"])
    def test_memo_stop_inside_a_block_keeps_every_record(
        self, paper_payload, monkeypatch, nodes, grace, params
    ):
        """A memo that stops inside a block, once, leaves one block whose first steps
        the attack pass takes from the memo's tables and whose last steps it copies.
        Every record keeps the bits of a run whose memo does not stop (the unpatched
        one, or, for the grace stop, one whose grace outlasts the run)."""
        payload = dict(paper_payload, steps=700, trajectories=10)
        if params is not None:
            payload["attack_params"] = params
        config = ef.config_from_dict(payload)
        real_flush, mixed = harness._AttackPass.flush, []

        def spy(attack, epst, gamma):  # the blocks that take and copy factors both
            mixed.append(0 < attack.held.stop - attack.held.start < attack.count)
            real_flush(attack, epst, gamma)

        monkeypatch.setattr(harness._AttackPass, "flush", spy)
        with monkeypatch.context() as patch:
            if grace is not None:
                patch.setattr(harness, "_MEMO_GRACE", grace)
            expected = harness._simulate(config)
        assert mixed.count(True) == 0
        mixed.clear()
        if nodes is not None:
            monkeypatch.setattr(harness, "_MEMO_NODES", nodes)
        actual = harness._simulate(config)
        assert mixed.count(True) == 1
        for item in dataclasses.fields(harness._Records):
            _assert_same_bits(getattr(actual, item.name), getattr(expected, item.name), item.name)

    def test_noise_block_is_allocated_before_any_draw(self, paper_payload, monkeypatch):
        """The noise is drawn into one block allocated first, not stacked from a list of
        rows: a number of trajectories whose noise cannot be held (27.4 PiB here)
        raises MemoryError at once, before any row is drawn. The spy stops a core that
        draws row after row on its fourth row."""
        config = ef.config_from_dict(dict(paper_payload, steps=700, trajectories=2**40))
        real, drawn = harness._noise, []

        def spy(config, traj):
            drawn.append(traj)
            if len(drawn) > 3:
                raise AssertionError("noise drawn before its block was allocated")
            return real(config, traj)

        monkeypatch.setattr(harness, "_noise", spy)
        with pytest.raises(MemoryError):
            harness._simulate(config)
        assert drawn == []

    @pytest.mark.parametrize("mode", harness.ATTACK_MODES)
    def test_memo_runs_only_in_the_attack_window(self, paper_payload, mode):
        config = ef.config_from_dict(dict(paper_payload, steps=400, trajectories=3, attack_mode=mode))
        with mock.patch.object(harness, "factor_stack", wraps=harness.factor_stack) as spy:
            harness._simulate(config)
        if mode == "off":
            assert spy.call_count == config.steps - 1
        else:
            assert config.attack_start - 1 < spy.call_count < config.steps - 1


class TestWriteTrace:
    def test_explicit_records(self, tmp_path):
        records = [
            (
                0,
                0,
                1,
                0,
                2.5,
                np.array([1.0, 2.0, 3.0]),
                np.zeros(3),
                np.zeros(3),
                np.array([0.1, 0.2]),
                np.array([0.3, 0.4]),
                np.array([0.5, 0.6]),
            )
        ]
        path = tmp_path / "t.csv"
        ef.write_trace(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ef.trace_header(3, 2)
        assert lines[1].startswith("0,0,1,0,2.5,1,2,3,")

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(NumericError):
            ef.write_trace([], tmp_path / "t.csv")
