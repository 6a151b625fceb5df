"""Run configuration: strict YAML schema, builders, and the run hash.

A config file is a YAML mapping with the sections below; every section
and every key is optional, unknown keys are rejected with the offending
path named.  ``normalize_config`` fills defaults and returns a plain
dict of JSON-serializable leaves; the builders turn that dict into
solver objects; ``config_hash`` fingerprints the effective dict so
output files can state exactly what produced them.

Sections::

    mesh:        n_nodes, length
    model:       alpha, horizon, n_steps
    load:        time, space           (expressions in t and x)
    dissipation: family (fatigue | weighted_l1), weight, weight_slope
                 (expressions in z), lipschitz; built as one
                 ``Dissipation``, one-sided for fatigue
    history:     kind (identity | convolution), initial (expression in
                 x), kernel, kernel_slope (expressions in t, the lag)
    solver:      eps, method, warm_start
    sweep:       eps_values, certificate_tol
    experiment:  n_loads, n_pairs, eps_values, load_cap, n_load_terms,
                 spread_cap, jobs, refinements
    control:     basis_size, reg_weight, target_time, target_space,
                 step, shrink, min_step, max_evals
    seed:        integer
"""

from __future__ import annotations

import hashlib
import json
import math

import yaml

from .control import ControlProblem, sine_basis
from .dissipation import Dissipation
from .expressions import Expression, ExpressionError
from .history import convolution_kernel, identity_kernel
from .spatial import build_mesh, interpolate
from .verify import ExperimentConfig
from .viscous import Scenario, expression_load

__all__ = [
    "ConfigError",
    "load_config_file",
    "normalize_config",
    "config_hash",
    "build_scenario",
    "build_experiment",
    "build_control",
]

_DEFAULT_WEIGHT = "0.4 + 0.6/(1 + z^2)"
_DEFAULT_WEIGHT_SLOPE = "-1.2*z/(1 + z^2)^2"
_DEFAULT_LIPSCHITZ = 0.6 * 9.0 / (8.0 * math.sqrt(3.0))


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


def _mapping(raw, path: str, allowed: set[str]) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} under {path}; allowed: {sorted(allowed)}"
        )
    return raw


def _number(sec: dict, key: str, path: str, default, **kinds):
    return _checked_number(sec.get(key, default), f"{path}.{key}", **kinds)


def _checked_number(value, name: str, *, integer: bool = False,
                    positive: bool = False, nonnegative: bool = False):
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


def _string(sec: dict, key: str, path: str, default: str,
            choices: tuple | None = None) -> str:
    value = sec.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"{path}.{key} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _bool(sec: dict, key: str, path: str, default: bool) -> bool:
    value = sec.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key} must be a boolean, got {value!r}")
    return value


def _number_list(sec: dict, key: str, path: str, default: list,
                 **kinds) -> list:
    value = sec.get(key, default)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}.{key} must be a nonempty list of numbers")
    return [_checked_number(item, f"{path}.{key}[{i}]", **kinds)
            for i, item in enumerate(value)]


def _expression(sec: dict, key: str, path: str, default: str,
                variables: tuple) -> str:
    text = _string(sec, key, path, default)
    try:
        Expression(text, variables)
    except ExpressionError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from exc
    return text


def load_config_file(path: str) -> dict:
    """Read and normalize a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if raw is None:
        raw = {}
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    """Validate a raw mapping and fill every default."""
    top = _mapping(raw, "config", {
        "mesh", "model", "load", "dissipation", "history", "solver",
        "sweep", "experiment", "control", "seed",
    })

    mesh = _mapping(top.get("mesh"), "mesh", {"n_nodes", "length"})
    model = _mapping(top.get("model"), "model", {"alpha", "horizon", "n_steps"})
    load = _mapping(top.get("load"), "load", {"time", "space"})
    diss = _mapping(top.get("dissipation"), "dissipation",
                    {"family", "weight", "weight_slope", "lipschitz"})
    history = _mapping(top.get("history"), "history",
                       {"kind", "initial", "kernel", "kernel_slope"})
    solver = _mapping(top.get("solver"), "solver",
                      {"eps", "method", "warm_start"})
    sweep = _mapping(top.get("sweep"), "sweep",
                     {"eps_values", "certificate_tol"})
    experiment = _mapping(top.get("experiment"), "experiment", {
        "n_loads", "n_pairs", "eps_values", "load_cap", "n_load_terms",
        "spread_cap", "jobs", "refinements",
    })
    control = _mapping(top.get("control"), "control", {
        "basis_size", "reg_weight", "target_time", "target_space",
        "step", "shrink", "min_step", "max_evals",
    })

    horizon = _number(model, "horizon", "model", 1.0, positive=True)

    out = {
        "mesh": {
            "n_nodes": _number(mesh, "n_nodes", "mesh", 33, integer=True),
            "length": _number(mesh, "length", "mesh", 1.0, positive=True),
        },
        "model": {
            "alpha": _number(model, "alpha", "model", 1.0, positive=True),
            "horizon": horizon,
            "n_steps": _number(model, "n_steps", "model", 1000, integer=True,
                               positive=True),
        },
        "load": {
            "time": _expression(load, "time", "load", "2*sin(pi*t)", ("t",)),
            "space": _expression(load, "space", "load", "1", ("x",)),
        },
        "dissipation": _normalize_dissipation(diss),
        "history": _normalize_history(history),
        "solver": {
            "eps": _number(solver, "eps", "solver", 1e-3, positive=True),
            "method": _string(solver, "method", "solver", "implicit",
                              ("implicit", "explicit")),
            "warm_start": _bool(solver, "warm_start", "solver", True),
        },
        "sweep": {
            "eps_values": _decreasing(
                _number_list(sweep, "eps_values", "sweep",
                             [0.1 * 0.5 ** k for k in range(8)], positive=True),
                "sweep.eps_values",
            ),
            "certificate_tol": _number(sweep, "certificate_tol", "sweep",
                                       1e-2, positive=True),
        },
        "experiment": {
            "n_loads": _number(experiment, "n_loads", "experiment", 10,
                               integer=True, positive=True),
            "n_pairs": _number(experiment, "n_pairs", "experiment", 20,
                               integer=True, positive=True),
            "eps_values": _decreasing(
                _number_list(experiment, "eps_values", "experiment",
                             [1e-1, 1e-2, 1e-3, 1e-4], positive=True),
                "experiment.eps_values",
            ),
            "load_cap": _number(experiment, "load_cap", "experiment", 6.0,
                                positive=True),
            "n_load_terms": _number(experiment, "n_load_terms", "experiment",
                                    3, integer=True, positive=True),
            "spread_cap": _number(experiment, "spread_cap", "experiment", 2.0,
                                  positive=True),
            "jobs": _number(experiment, "jobs", "experiment", 1, integer=True,
                            positive=True),
            "refinements": _number_list(
                experiment, "refinements", "experiment",
                [125, 250, 500, 1000], integer=True, positive=True,
            ),
        },
        "control": {
            "basis_size": _number(control, "basis_size", "control", 4,
                                  integer=True, positive=True),
            "reg_weight": _number(control, "reg_weight", "control", 1e-3,
                                  nonnegative=True),
            "target_time": _expression(control, "target_time", "control",
                                       "t", ("t",)),
            "target_space": _expression(control, "target_space", "control",
                                        "1", ("x",)),
            "step": _number(control, "step", "control", 2.0, positive=True),
            "shrink": _number(control, "shrink", "control", 0.5,
                              positive=True),
            "min_step": _number(control, "min_step", "control", 1e-3,
                                positive=True),
            "max_evals": _number(control, "max_evals", "control", 200,
                                 integer=True, positive=True),
        },
        "seed": _number(top, "seed", "config", 0, integer=True),
    }
    if out["mesh"]["n_nodes"] < 2:
        raise ConfigError("mesh.n_nodes must be at least 2")
    if out["control"]["shrink"] >= 1.0:
        raise ConfigError("control.shrink must be below 1")
    return out


def _decreasing(values: list, path: str) -> list:
    if values != sorted(values, reverse=True) or len(set(values)) != len(values):
        raise ConfigError(f"{path} must be strictly decreasing")
    return values


def _normalize_dissipation(diss: dict) -> dict:
    family = _string(diss, "family", "dissipation", "fatigue",
                     ("fatigue", "weighted_l1"))
    custom_weight = "weight" in diss
    weight = _expression(diss, "weight", "dissipation", _DEFAULT_WEIGHT, ("z",))
    if custom_weight and "lipschitz" not in diss:
        raise ConfigError(
            "dissipation.lipschitz is required when dissipation.weight is set"
        )
    lipschitz = _number(diss, "lipschitz", "dissipation", _DEFAULT_LIPSCHITZ,
                        nonnegative=True)
    slope_default = _DEFAULT_WEIGHT_SLOPE if not custom_weight else ""
    slope = _expression(diss, "weight_slope", "dissipation", slope_default,
                        ("z",)) if (not custom_weight or "weight_slope" in diss) else ""
    return {
        "family": family,
        "weight": weight,
        "weight_slope": slope,
        "lipschitz": lipschitz,
    }


def _normalize_history(history: dict) -> dict:
    kind = _string(history, "kind", "history", "identity",
                   ("identity", "convolution"))
    initial = _expression(history, "initial", "history", "0", ("x",))
    if kind == "convolution":
        if "kernel" not in history or "kernel_slope" not in history:
            raise ConfigError(
                "history.kernel and history.kernel_slope are required for "
                "the convolution kind"
            )
        kernel = _expression(history, "kernel", "history", "1", ("t",))
        slope = _expression(history, "kernel_slope", "history", "0", ("t",))
    else:
        for key in ("kernel", "kernel_slope"):
            if key in history:
                raise ConfigError(
                    f"history.{key} only applies to the convolution kind"
                )
        kernel = ""
        slope = ""
    return {"kind": kind, "initial": initial, "kernel": kernel,
            "kernel_slope": slope}


def config_hash(cfg: dict) -> str:
    """Deterministic fingerprint of an effective config dict."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _build_dissipation(cfg: dict) -> Dissipation:
    d = cfg["dissipation"]
    slope = Expression(d["weight_slope"], ("z",)) if d["weight_slope"] else None
    return Dissipation(Expression(d["weight"], ("z",)), d["lipschitz"],
                       one_sided=d["family"] == "fatigue", weight_prime=slope)


def _build_kernel(cfg: dict, mesh):
    h = cfg["history"]
    initial = Expression(h["initial"], ("x",))
    y0 = interpolate(mesh, initial)
    if h["kind"] == "identity":
        return identity_kernel(y0)
    b = Expression(h["kernel"], ("t",))
    b_prime = Expression(h["kernel_slope"], ("t",))
    return convolution_kernel(b, b_prime, y0)


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
        jobs=exp["jobs"],
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

    def target(t: float):
        return float(time_expr(t)) * shape

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
