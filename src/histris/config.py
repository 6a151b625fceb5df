"""Run configuration: strict YAML schema, builders, and the run hash.

A config file is a YAML mapping with the sections ``mesh``, ``model``,
``load``, ``dissipation``, ``history``, ``solver``, ``sweep``,
``experiment`` and ``control``, and a top-level ``seed``.  ``_SCHEMA``
lists each section's keys once, each with its default and its check;
every section and key is optional, and unknown keys are rejected with
the offending path named.  ``normalize_config`` fills defaults, applies
the rules that tie keys together, and returns a plain dict of
JSON-serializable leaves; the builders turn that dict into solver
objects; ``config_hash`` fingerprints the effective dict so output
files can state exactly what produced them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import yaml

from .control import ControlProblem, sine_basis
from .dissipation import Dissipation
from .expressions import Expression, ExpressionError
from .history import convolution_kernel, identity_kernel
from .spatial import build_mesh, interpolate
from .verify import DUAL_REFINEMENTS, ExperimentConfig, smooth_fatigue
from .viscous import Scenario, expression_load
from .vv import DEFAULT_EPS_LEVELS

__all__ = [
    "ConfigError",
    "load_config_file",
    "normalize_config",
    "config_hash",
    "build_scenario",
    "build_experiment",
    "build_control",
]


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


# Checks: each takes a given value and the name to report, and returns
# the value as the normalized dict holds it.

def _number(*, integer: bool = False, positive: bool = False,
            nonnegative: bool = False):
    def check(value, name: str):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            as_float = float(value)
        except OverflowError:
            raise ConfigError(
                f"{name} must be finite, got an integer too large for a float"
            ) from None
        if not math.isfinite(as_float):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if integer:
            if int(value) != value:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(value)
        else:
            value = as_float
        if positive and value <= 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")
        if nonnegative and value < 0:
            raise ConfigError(f"{name} must be nonnegative, got {value!r}")
        return value
    return check


def _numbers(*, decreasing: bool = False, **kinds):
    item = _number(**kinds)

    def check(value, name: str) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a nonempty list of numbers")
        values = [item(v, f"{name}[{i}]") for i, v in enumerate(value)]
        if decreasing and any(a <= b for a, b in zip(values, values[1:])):
            raise ConfigError(f"{name} must be strictly decreasing")
        return values
    return check


def _string(*choices: str):
    def check(value, name: str) -> str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        if choices and value not in choices:
            raise ConfigError(
                f"{name} must be one of {sorted(choices)}, got {value!r}"
            )
        return value
    return check


def _expression(*variables: str):
    def check(value, name: str) -> str:
        _string()(value, name)
        try:
            Expression(value, variables)
        except ExpressionError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        return value
    return check


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {value!r}")
    return value


_POSITIVE = _number(positive=True)
_COUNT = _number(integer=True, positive=True)

# Every key once, as (default, check): a section is a mapping of its
# keys, ``seed`` a top-level key.  A default is stored as normalized; a
# given value goes through the check.
_SCHEMA = {
    "mesh": {
        "n_nodes": (33, _number(integer=True)),
        "length": (1.0, _POSITIVE),
    },
    "model": {
        "alpha": (1.0, _POSITIVE),
        "horizon": (1.0, _POSITIVE),
        "n_steps": (1000, _COUNT),
    },
    "load": {
        "time": ("2*sin(pi*t)", _expression("t")),
        "space": ("1", _expression("x")),
    },
    "dissipation": {  # the defaults are smooth_fatigue()
        "family": ("fatigue", _string("fatigue", "weighted_l1")),
        "weight": ("0.4 + 0.6/(1 + z^2)", _expression("z")),
        "lipschitz": (smooth_fatigue().lipschitz, _number(nonnegative=True)),
    },
    # kernel: convolution only, required there.  kernel_slope has no
    # effect; it stays accepted until bench/workloads.py stops setting it.
    "history": {
        "kind": ("identity", _string("identity", "convolution")),
        "initial": ("0", _expression("x")),
        "kernel": ("", _expression("t")),
        "kernel_slope": ("", _expression("t")),
    },
    "solver": {
        "eps": (1e-3, _POSITIVE),
        "method": ("implicit", _string("implicit", "explicit")),
        "warm_start": (True, _flag),
    },
    "sweep": {
        "eps_values": (list(DEFAULT_EPS_LEVELS),
                       _numbers(positive=True, decreasing=True)),
        "certificate_tol": (1e-2, _POSITIVE),
    },
    "experiment": {
        "n_loads": (ExperimentConfig.n_loads, _COUNT),
        "n_pairs": (ExperimentConfig.n_pairs, _COUNT),
        "eps_values": (list(ExperimentConfig.eps_values),
                       _numbers(positive=True, decreasing=True)),
        "load_cap": (ExperimentConfig.load_cap, _POSITIVE),
        "n_load_terms": (ExperimentConfig.n_load_terms, _COUNT),
        "spread_cap": (ExperimentConfig.spread_cap, _POSITIVE),
        "refinements": (list(DUAL_REFINEMENTS),
                        _numbers(integer=True, positive=True)),
    },
    "control": {
        "basis_size": (4, _COUNT),
        "reg_weight": (ControlProblem.reg_weight, _number(nonnegative=True)),
        "target_time": ("t", _expression("t")),
        "target_space": ("1", _expression("x")),
        "step": (2.0, _POSITIVE),
        "shrink": (0.5, _POSITIVE),
        "min_step": (1e-3, _POSITIVE),
        "max_evals": (200, _COUNT),
    },
    "seed": (0, _number(integer=True, nonnegative=True)),
}


def _section(raw, path: str, schema: dict) -> dict:
    """``raw`` checked against ``schema``, with every default filled."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} under {path}; allowed: {sorted(schema)}"
        )
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _section(raw.get(key), key, spec)
        else:
            default, check = spec
            out[key] = (check(raw[key], f"{path}.{key}") if key in raw
                        else copy.copy(default))
    return out


def load_config_file(path: str) -> dict:
    """Read and normalize a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    """Validate a raw mapping and fill every default."""
    out = _section(raw, "config", _SCHEMA)
    diss, history = (set((raw or {}).get(name) or ())
                     for name in ("dissipation", "history"))
    # A custom weight has no known Lipschitz constant.
    if "weight" in diss and "lipschitz" not in diss:
        raise ConfigError(
            "dissipation.lipschitz is required when dissipation.weight is set"
        )
    if out["history"]["kind"] == "convolution":
        if "kernel" not in history:
            raise ConfigError("history.kernel is required for the convolution kind")
    elif "kernel" in history:
        raise ConfigError("history.kernel only applies to the convolution kind")
    if out["mesh"]["n_nodes"] < 2:
        raise ConfigError("mesh.n_nodes must be at least 2")
    if out["control"]["shrink"] >= 1.0:
        raise ConfigError("control.shrink must be below 1")
    # A sweep compares consecutive levels, and the dual check fits an
    # order to the residuals over the refinements: each needs two.
    if len(out["sweep"]["eps_values"]) < 2:
        raise ConfigError("sweep.eps_values must have at least two levels")
    if len(set(out["experiment"]["refinements"])) < 2:
        raise ConfigError(
            "experiment.refinements must have at least two distinct step counts"
        )
    return out


def config_hash(cfg: dict) -> str:
    """Deterministic fingerprint of an effective config dict."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _build_dissipation(cfg: dict) -> Dissipation:
    d = cfg["dissipation"]
    return Dissipation(Expression(d["weight"], ("z",)), d["lipschitz"],
                       one_sided=d["family"] == "fatigue")


def _build_kernel(cfg: dict, mesh):
    h = cfg["history"]
    initial = Expression(h["initial"], ("x",))
    y0 = interpolate(mesh, initial)
    if h["kind"] == "identity":
        return identity_kernel(y0)
    return convolution_kernel(Expression(h["kernel"], ("t",)), y0)


def build_scenario(cfg: dict) -> Scenario:
    """Scenario (mesh, load, dissipation, history, grid) from a config."""
    mesh = build_mesh(cfg["mesh"]["n_nodes"], cfg["mesh"]["length"])
    load = expression_load(mesh, cfg["load"]["time"], cfg["load"]["space"])
    return Scenario(
        mesh=mesh,
        alpha=cfg["model"]["alpha"],
        load=load,
        kernel=_build_kernel(cfg, mesh),
        dissipation=_build_dissipation(cfg),
        horizon=cfg["model"]["horizon"],
        n_steps=cfg["model"]["n_steps"],
    )


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Experiment knobs from a config (mesh and model sections shared)."""
    mesh = build_mesh(cfg["mesh"]["n_nodes"], cfg["mesh"]["length"])
    exp = cfg["experiment"]
    return ExperimentConfig(
        n_nodes=cfg["mesh"]["n_nodes"],
        length=cfg["mesh"]["length"],
        alpha=cfg["model"]["alpha"],
        horizon=cfg["model"]["horizon"],
        n_steps=cfg["model"]["n_steps"],
        eps_values=tuple(exp["eps_values"]),
        n_loads=exp["n_loads"],
        n_pairs=exp["n_pairs"],
        load_cap=exp["load_cap"],
        n_load_terms=exp["n_load_terms"],
        spread_cap=exp["spread_cap"],
        seed=cfg["seed"],
        dissipation=_build_dissipation(cfg),
        kernel=_build_kernel(cfg, mesh),
    )


def build_control(cfg: dict):
    """Control problem plus optimizer options from a config."""
    scenario = build_scenario(cfg)
    ctl = cfg["control"]
    basis = sine_basis(scenario.mesh, scenario.horizon, ctl["basis_size"])
    time_expr = Expression(ctl["target_time"], ("t",))
    space_expr = Expression(ctl["target_space"], ("x",))
    shape = interpolate(scenario.mesh, space_expr)

    def target(times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(time_expr(times), times.shape)[:, None] * shape

    problem = ControlProblem(
        scenario=scenario,
        basis=basis,
        target=target,
        eps=cfg["solver"]["eps"],
        reg_weight=ctl["reg_weight"],
    )
    options = {
        "step": ctl["step"],
        "shrink": ctl["shrink"],
        "min_step": ctl["min_step"],
        "max_evals": ctl["max_evals"],
    }
    return problem, options
