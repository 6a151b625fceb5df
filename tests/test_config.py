"""Tests for config validation, defaults, hashing, and builders."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from histris.config import (
    ConfigError,
    build_control,
    build_experiment,
    build_scenario,
    config_hash,
    load_config_file,
    normalize_config,
)
from histris.expressions import Expression, ExpressionError, _compile_text
from histris.verify import ExperimentConfig


# ---------------------------------------------------------------------------
# defaults and validation


def test_empty_config_fills_every_default():
    cfg = normalize_config({})
    assert cfg["mesh"] == {"n_nodes": 33, "length": 1.0}
    assert cfg["model"] == {"alpha": 1.0, "horizon": 1.0, "n_steps": 1000}
    assert cfg["load"] == {"time": "2*sin(pi*t)", "space": "1"}
    assert cfg["dissipation"]["family"] == "fatigue"
    assert cfg["dissipation"]["lipschitz"] == pytest.approx(
        0.6 * 9.0 / (8.0 * math.sqrt(3.0))
    )
    assert cfg["history"]["kind"] == "identity"
    assert cfg["solver"] == {"eps": 1e-3, "method": "implicit", "warm_start": True}
    assert cfg["sweep"]["eps_values"][0] == pytest.approx(0.1)
    assert len(cfg["sweep"]["eps_values"]) == 8
    assert cfg["experiment"]["refinements"] == [125, 250, 500, 1000]
    assert cfg["control"]["step"] == 2.0
    assert cfg["seed"] == 0
    assert normalize_config(None if False else {}) == cfg


def test_unknown_keys_are_rejected_with_paths():
    with pytest.raises(ConfigError, match="config"):
        normalize_config({"mdoel": {}})
    with pytest.raises(ConfigError, match="mesh"):
        normalize_config({"mesh": {"nodes": 9}})
    with pytest.raises(ConfigError, match="solver"):
        normalize_config({"solver": {"epsilon": 0.1}})
    with pytest.raises(ConfigError, match=r"\['weight_slope'\] under dissipation"):
        normalize_config({"dissipation": {"weight_slope": "-1.2*z/(1 + z^2)^2"}})
    with pytest.raises(ConfigError, match=r"\['jobs'\] under experiment"):
        normalize_config({"experiment": {"jobs": 2}})


def test_numeric_validation_names_the_field():
    with pytest.raises(ConfigError, match="model.alpha"):
        normalize_config({"model": {"alpha": -2.0}})
    with pytest.raises(ConfigError, match="model.n_steps"):
        normalize_config({"model": {"n_steps": 10.5}})
    with pytest.raises(ConfigError, match="mesh.n_nodes"):
        normalize_config({"mesh": {"n_nodes": True}})
    with pytest.raises(ConfigError, match="n_nodes"):
        normalize_config({"mesh": {"n_nodes": 1}})
    with pytest.raises(ConfigError, match="solver.eps"):
        normalize_config({"solver": {"eps": 0.0}})
    with pytest.raises(ConfigError, match="shrink"):
        normalize_config({"control": {"shrink": 1.0}})


@pytest.mark.parametrize("raw, key", [
    ({"model": {"n_steps": math.inf}}, "model.n_steps"),
    ({"mesh": {"n_nodes": math.nan}}, "mesh.n_nodes"),
    ({"model": {"horizon": -math.inf}}, "model.horizon"),
    ({"experiment": {"refinements": [math.inf, 250]}},
     r"experiment.refinements\[0\]"),
    ({"sweep": {"eps_values": [math.nan]}}, r"sweep.eps_values\[0\]"),
    ({"model": {"horizon": 10 ** 400}}, "model.horizon"),
    ({"seed": -10 ** 400}, "config.seed"),
    ({"sweep": {"eps_values": [0.1, 10 ** 400]}}, r"sweep.eps_values\[1\]"),
    ({"experiment": {"refinements": [10 ** 400]}},
     r"experiment.refinements\[0\]"),
    # Refinements are step counts: whole and positive, never truncated.
    ({"experiment": {"refinements": [50, 0.7]}},
     r"experiment.refinements\[1\] must be an integer"),
    ({"experiment": {"refinements": [1.5]}},
     r"experiment.refinements\[0\] must be an integer"),
    ({"experiment": {"refinements": [0]}},
     r"experiment.refinements\[0\] must be positive"),
    # A seed seeds numpy's generator, which takes no negative one.
    ({"seed": -3}, "config.seed must be nonnegative"),
])
def test_non_finite_numbers_are_rejected_with_their_key(raw, key):
    reason = "" if " must be " in key else " must be finite"
    with pytest.raises(ConfigError, match=key + reason):
        normalize_config(raw)


def test_expression_fields_are_compiled_early():
    with pytest.raises(ConfigError, match="load.time"):
        normalize_config({"load": {"time": "2*sin(pi*"}})
    with pytest.raises(ConfigError, match="load.space"):
        normalize_config({"load": {"space": "x + y"}})


def test_sweep_schedule_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        normalize_config({"sweep": {"eps_values": [0.01, 0.1]}})
    with pytest.raises(ConfigError, match="positive"):
        normalize_config({"sweep": {"eps_values": [0.1, -0.01]}})
    with pytest.raises(ConfigError, match="nonempty"):
        normalize_config({"sweep": {"eps_values": []}})
    with pytest.raises(ConfigError, match="sweep.eps_values must have at least two"):
        normalize_config({"sweep": {"eps_values": [0.1]}})


@pytest.mark.parametrize("refinements", [[50], [50, 50]])
def test_dual_order_needs_two_distinct_refinements(refinements):
    with pytest.raises(ConfigError,
                       match="experiment.refinements must have at least two distinct"):
        normalize_config({"experiment": {"refinements": refinements}})


def test_custom_weight_requires_lipschitz():
    with pytest.raises(ConfigError, match="lipschitz is required"):
        normalize_config({"dissipation": {"weight": "1 + z^2"}})
    cfg = normalize_config(
        {"dissipation": {"weight": "2 - z", "lipschitz": 1.0}}
    )
    assert cfg["dissipation"]["weight"] == "2 - z"


def test_convolution_history_requirements():
    with pytest.raises(ConfigError, match="kernel_slope are required"):
        normalize_config({"history": {"kind": "convolution"}})
    with pytest.raises(ConfigError, match="only applies"):
        normalize_config({"history": {"kind": "identity", "kernel": "exp(-t)"}})
    cfg = normalize_config({
        "history": {"kind": "convolution", "kernel": "exp(-t)",
                    "kernel_slope": "-exp(-t)"},
    })
    assert cfg["history"]["kernel"] == "exp(-t)"


def test_readme_example_is_the_default_config():
    # The README's configuration example, commented keys included, lists
    # the keys of the schema (the keys of the filled-in dict), no more,
    # and its uncommented keys normalize to the defaults.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    example = readme.split("### Configuration file", 1)[1]
    example = example.split("```yaml\n", 1)[1].split("```", 1)[0]
    named, section = set(), None
    for line in example.splitlines():
        m = re.match(r"( *)(?:# )?([a-z_]+):([^#]*)", line)
        if m is None:
            continue
        indent, key, value = m.groups()
        if indent:
            named.add(f"{section}.{key}")
        elif value.strip():
            named.add(key)
        else:
            section = key
    schema = set()
    for name, value in normalize_config({}).items():
        schema |= ({f"{name}.{key}" for key in value}
                   if isinstance(value, dict) else {name})
    assert named == schema
    assert normalize_config(yaml.safe_load(example)) == normalize_config({})


# ---------------------------------------------------------------------------
# hashing


def test_config_hash_is_stable_and_sensitive():
    a = config_hash(normalize_config({}))
    b = config_hash(normalize_config({}))
    assert a == b and len(a) == 16
    c = config_hash(normalize_config({"model": {"alpha": 2.0}}))
    assert c != a
    # key order inside the raw mapping must not matter
    d = config_hash(normalize_config({"model": {"alpha": 2.0, "horizon": 1.0}}))
    e = config_hash(normalize_config({"model": {"horizon": 1.0, "alpha": 2.0}}))
    assert d == e == c


# ---------------------------------------------------------------------------
# file loading


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  alpha: 2.5\nsolver:\n  eps: 0.01\n")
    cfg = load_config_file(str(path))
    assert cfg["model"]["alpha"] == 2.5
    assert cfg["solver"]["eps"] == 0.01
    assert cfg["mesh"]["n_nodes"] == 33  # defaults still filled


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_file(str(bad))


# ---------------------------------------------------------------------------
# builders


def test_build_scenario_from_defaults():
    cfg = normalize_config({"mesh": {"n_nodes": 9}, "model": {"n_steps": 50}})
    scn = build_scenario(cfg)
    assert scn.mesh.n_nodes == 9
    assert scn.n_steps == 50
    assert scn.dissipation.one_sided is True
    # default weight at zero state is 1.0
    assert scn.dissipation.weight(np.zeros(3))[0] == pytest.approx(1.0)
    assert_allclose(scn.kernel.y0, 0.0, rtol=0, atol=0)
    # default load peaks at 2 in the constant spatial profile
    assert_allclose(scn.load.value(0.5), 2.0 * scn.mesh.mass @ np.ones(9),
                    rtol=1e-12)


def test_normalize_then_build_compiles_each_expression_once():
    _compile_text.cache_clear()
    cfg = normalize_config({"load": {"time": "2.003*sin(pi*t)",
                                     "space": "1 + 0.3*x"}})
    assert _compile_text.cache_info().misses == 2
    build_scenario(cfg)
    # The two given expressions are reused; the default weight and
    # initial history state are compiled once each.
    info = _compile_text.cache_info()
    assert (info.misses, info.hits) == (4, 2)
    # A failed compile is not cached: it fails again with its message.
    for _ in range(2):
        with pytest.raises(ExpressionError, match="unknown name 'y' at column 4"):
            Expression("1 + y")
    assert _compile_text.cache_info().misses == 6


def test_build_scenario_weighted_l1_and_history_state():
    cfg = normalize_config({
        "mesh": {"n_nodes": 5},
        "dissipation": {"family": "weighted_l1"},
        "history": {"initial": "x"},
    })
    scn = build_scenario(cfg)
    assert scn.dissipation.one_sided is False
    assert_allclose(scn.kernel.y0, scn.mesh.nodes, rtol=0, atol=0)


def test_build_experiment_maps_sections():
    cfg = normalize_config({
        "mesh": {"n_nodes": 9},
        "experiment": {"n_loads": 3, "eps_values": [0.1, 0.05]},
        "seed": 7,
    })
    exp = build_experiment(cfg)
    assert isinstance(exp, ExperimentConfig)
    assert exp.n_nodes == 9 and exp.n_loads == 3
    assert exp.eps_values == (0.1, 0.05) or list(exp.eps_values) == [0.1, 0.05]
    assert exp.seed == 7


def test_build_control_returns_problem_and_options():
    cfg = normalize_config({
        "mesh": {"n_nodes": 5},
        "model": {"n_steps": 20},
        "control": {"basis_size": 2, "max_evals": 17},
    })
    problem, options = build_control(cfg)
    assert len(problem.basis) == 2
    assert options["max_evals"] == 17
    assert options["step"] == 2.0
    target = problem.target_at(0.5)
    assert_allclose(target, 0.5, rtol=0, atol=1e-15)
