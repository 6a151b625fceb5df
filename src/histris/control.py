"""Open-loop load design by derivative-free descent.

The load is parametrized on a small basis of smooth time profiles (all
vanishing at t = 0, so every candidate is compatible with the initial
state).  The objective is squared tracking error against a target state
history plus a norm penalty on the load.  Because the solution map is
only Lipschitz, not differentiable, optimization uses compass pattern
search: poll both signed coordinate moves, take the best improving one,
shrink the step when no poll improves.

Every evaluation logs the solution-to-load norm ratio so a run doubles
as a stability experiment along the optimization path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure
from .spatial import Field, Mesh, assemble_dual
from .trajectory import Trajectory, h1_time_norm, trapezoid
from .verify import load_h1_dual_norm
from .viscous import Load, LoadTerm, Scenario, solve_viscous

__all__ = [
    "sine_basis",
    "load_from_coefficients",
    "ControlProblem",
    "ObjectiveReport",
    "evaluate_objective",
    "OptimizeResult",
    "optimize",
]


def sine_basis(mesh: Mesh, horizon: float, m: int) -> list[LoadTerm]:
    """Basis of ``sin(j pi t / horizon)`` load terms, j = 1..m.

    All terms vanish at t = 0 and share the constant spatial shape.
    """
    if m < 1:
        raise ValueError("basis size must be at least 1")
    dual = assemble_dual(mesh, np.ones(mesh.n_nodes))
    elems = []
    for j in range(1, m + 1):
        omega = j * math.pi / horizon
        elems.append(
            LoadTerm(
                time_profile=lambda t, w=omega: np.sin(w * t),
                space_dual=dual,
                time_derivative=lambda t, w=omega: w * np.cos(w * t),
            )
        )
    return elems


def load_from_coefficients(basis: Sequence[LoadTerm],
                           theta: np.ndarray) -> Load:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(basis),):
        raise ValueError(
            f"expected {len(basis)} coefficients, got shape {theta.shape}"
        )
    return Load([replace(el, space_dual=c * el.space_dual)
                 for el, c in zip(basis, theta)])


@dataclass(eq=False)
class ControlProblem:
    """Tracking problem over load coefficients.

    ``scenario`` provides mesh, dissipation, kernel and time grid; its
    load is replaced by the candidate on every evaluation.  ``target``
    maps a time to the desired state (a ``Trajectory`` works too).
    """

    scenario: Scenario
    basis: Sequence[LoadTerm]
    target: Callable[[float], Field] | Trajectory
    eps: float
    reg_weight: float = 1e-3

    def target_at(self, t: float) -> np.ndarray:
        if isinstance(self.target, Trajectory):
            return self.target.sample(t)
        return np.asarray(self.target(t), dtype=float)


@dataclass
class ObjectiveReport:
    """One objective evaluation with its stability diagnostics."""

    theta: np.ndarray
    total: float
    tracking: float
    regularization: float
    load_norm: float
    response_norm: float
    bound_ratio: float

    def __post_init__(self):
        self.theta = np.array(self.theta, dtype=float)


def evaluate_objective(problem: ControlProblem,
                       theta: np.ndarray) -> ObjectiveReport:
    """Solve under the candidate load and score it.

    A solve that fails numerically scores ``inf`` so the search simply
    steps around it.
    """
    theta = np.asarray(theta, dtype=float)
    load = load_from_coefficients(problem.basis, theta)
    scn = replace(problem.scenario, load=load)
    times = scn.times()
    load_norm = load_h1_dual_norm(scn.mesh, load, times)
    try:
        traj, _ = solve_viscous(scn, problem.eps)
    except NumericalFailure:
        return ObjectiveReport(
            theta=theta, total=math.inf, tracking=math.inf,
            regularization=math.inf, load_norm=load_norm,
            response_norm=math.nan, bound_ratio=math.nan,
        )
    targets = np.array([problem.target_at(t) for t in times])
    errs = scn.mesh.mass.quad_forms(traj.values - targets)
    tracking = 0.5 * float(trapezoid(errs, scn.tau))
    regularization = 0.5 * problem.reg_weight * load_norm ** 2
    response_norm = h1_time_norm(scn.mesh, traj)
    ratio = response_norm / load_norm if load_norm > 0 else 0.0
    return ObjectiveReport(
        theta=theta,
        total=tracking + regularization,
        tracking=tracking,
        regularization=regularization,
        load_norm=load_norm,
        response_norm=response_norm,
        bound_ratio=float(ratio),
    )


@dataclass
class OptimizeResult:
    best: ObjectiveReport
    history: list
    n_evals: int
    final_step: float
    converged: bool


def optimize(problem: ControlProblem, *, step: float = 0.25, shrink: float = 0.5,
             min_step: float = 1e-3, max_evals: int = 200) -> OptimizeResult:
    """Compass pattern search over the load coefficients.

    Deterministic: polls are evaluated in a fixed coordinate order and
    the best strictly improving poll wins.  Returns once the step drops
    below ``min_step`` (``converged=True``) or the evaluation budget is
    spent.  The search starts at zero coefficients.
    """
    m = len(problem.basis)

    history: list[ObjectiveReport] = []

    def scored(point):
        rep = evaluate_objective(problem, point)
        history.append(rep)
        return rep

    best = scored(np.zeros(m))
    n_evals = 1
    current = step
    converged = False
    while n_evals < max_evals:
        candidate = None
        for j in range(m):
            for sign in (1.0, -1.0):
                if n_evals >= max_evals:
                    break
                point = best.theta.copy()
                point[j] += sign * current
                rep = scored(point)
                n_evals += 1
                if rep.total < best.total and (
                    candidate is None or rep.total < candidate.total
                ):
                    candidate = rep
        if candidate is not None:
            best = candidate
            continue
        current *= shrink
        if current < min_step:
            converged = True
            break
    return OptimizeResult(
        best=best,
        history=history,
        n_evals=n_evals,
        final_step=current,
        converged=converged,
    )
