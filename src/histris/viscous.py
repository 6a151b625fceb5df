"""Viscosity-regularized quasi-static evolution solver.

The state follows an incremental minimization scheme: with the
accumulated history frozen at the start of each step, the increment
solves

    min over d of  E(t_next, q + d) + potential(zeta, d)
                   + eps/(2 tau) ||d||_H1^2,

where ``E(t, q) = alpha/2 ||q||_H1^2 - <load(t), q>``.  Because the
potential is positively 1-homogeneous this is exactly the rate prox
with effective viscosity ``alpha + eps/tau`` and driving force equal to
the negative energy gradient at the previous state.  At the accepted
increment the discrete force balance

    <load(t_next) - alpha*Riesz(q_next) - eps*Riesz(rate), rate>
        = potential(zeta, rate)

holds to solver precision; every step is checked against a hard bound
and the solve raises :class:`NumericalFailure` rather than return an
unbalanced trajectory.

An explicit alternative integrator advances the state with the
projection form of the flow,

    rate = (1/eps) * riesz_solve(force - project(force)),

evaluated at the start of the step.  It is a cross-check only: it
requires ``tau <= eps/10`` and makes no per-step balance claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# ``potential`` is unused here but stays importable: the benchmark's
# layer tracer (bench/tracer.py) patches this module's name.
from .dissipation import (
    DissipationSpec,
    _potential_at,
    _project_counted,
    _prox_rate_counted,
    potential,
)
from .errors import NumericalFailure
from .expressions import Expression
from .history import HistoryAccumulator, KernelSpec
from .spatial import (
    DualField,
    Field,
    Mesh,
    assemble_dual,
    dual_pair,
    h1_inner,
    h1_norm,
    interpolate,
    riesz_apply,
    riesz_solve,
)
from .trajectory import Trajectory

__all__ = [
    "BALANCE_TOL",
    "LoadTerm",
    "Load",
    "TabulatedLoad",
    "expression_load",
    "constant_in_space_load",
    "Scenario",
    "driving_force",
    "energy",
    "StepResult",
    "viscous_step",
    "explicit_projection_step",
    "SolveReport",
    "solve_viscous",
]

# Hard per-step bound on the relative force balance residual.
BALANCE_TOL = 1e-8

# Step used when load time derivatives fall back to central differences.
_FD_DT = 1e-6


@dataclass(eq=False)
class LoadTerm:
    """One separable load contribution ``a(t) * (assembled profile)``."""

    time_profile: Callable[[float], float]
    space_dual: np.ndarray
    time_derivative: Callable[[float], float] | None = None


class Load:
    """Sum of separable space-time load terms, kept as dual fields."""

    def __init__(self, terms: list[LoadTerm]):
        if not terms:
            raise ValueError("a load needs at least one term")
        self.terms = list(terms)

    def value(self, t: float) -> DualField:
        out = float(self.terms[0].time_profile(t)) * self.terms[0].space_dual
        for term in self.terms[1:]:
            out = out + float(term.time_profile(t)) * term.space_dual
        return out

    def derivative(self, t: float) -> DualField:
        if all(term.time_derivative is not None for term in self.terms):
            out = float(self.terms[0].time_derivative(t)) * self.terms[0].space_dual
            for term in self.terms[1:]:
                out = out + float(term.time_derivative(t)) * term.space_dual
            return out
        return (self.value(t + _FD_DT) - self.value(t - _FD_DT)) / (2.0 * _FD_DT)

    def scaled(self, factor: float) -> "Load":
        return Load([
            LoadTerm(term.time_profile, factor * term.space_dual, term.time_derivative)
            for term in self.terms
        ])


class TabulatedLoad:
    """Load given by assembled dual fields at sample times.

    Values interpolate linearly; the derivative is the slope of the
    containing segment and zero outside the table.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("tabulated loads need at least two sample times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("tabulated load times must strictly increase")
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"{self.values.shape[0]} samples on {self.times.shape[0]} times"
            )

    def _segment(self, t: float) -> int:
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(k, 0), len(self.times) - 2)

    def value(self, t: float) -> DualField:
        t = float(t)
        if t <= self.times[0]:
            return self.values[0].copy()
        if t >= self.times[-1]:
            return self.values[-1].copy()
        k = self._segment(t)
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def derivative(self, t: float) -> DualField:
        t = float(t)
        if t < self.times[0] or t > self.times[-1]:
            return np.zeros_like(self.values[0])
        k = self._segment(t)
        return (self.values[k + 1] - self.values[k]) / (
            self.times[k + 1] - self.times[k]
        )


def expression_load(mesh: Mesh, time_expr: str, space_expr: str = "1") -> Load:
    """Separable load from expression strings in ``t`` and ``x``."""
    a = Expression(time_expr, variables=("t",))
    profile = Expression(space_expr, variables=("x",))
    dual = assemble_dual(mesh, interpolate(mesh, profile))
    return Load([LoadTerm(lambda t, f=a: float(f(t)), dual)])


def constant_in_space_load(mesh: Mesh, a: Callable[[float], float],
                           a_prime: Callable[[float], float] | None = None) -> Load:
    """Load ``a(t) * 1`` assembled against the constant unit profile."""
    dual = assemble_dual(mesh, np.ones(mesh.n_nodes))
    return Load([LoadTerm(a, dual, a_prime)])


@dataclass(eq=False)
class Scenario:
    """A complete evolution problem on one mesh.

    The initial state is always zero; ``kernel.y0`` carries the initial
    accumulated history instead.
    """

    mesh: Mesh
    alpha: float
    load: object
    kernel: KernelSpec
    dissipation: DissipationSpec
    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.kernel.y0.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"kernel initial state has shape {self.kernel.y0.shape}, "
                f"mesh has {self.mesh.n_nodes} nodes"
            )

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def with_steps(self, n_steps: int) -> "Scenario":
        return replace(self, n_steps=int(n_steps))


def driving_force(scenario: Scenario, t: float, q: Field) -> DualField:
    """Negative energy gradient ``load(t) - alpha * Riesz(q)``."""
    return scenario.load.value(t) - scenario.alpha * riesz_apply(scenario.mesh, q)


def energy(scenario: Scenario, t: float, q: Field) -> float:
    return 0.5 * scenario.alpha * h1_inner(scenario.mesh, q, q) - dual_pair(
        scenario.load.value(t), q
    )


@dataclass
class StepResult:
    q_next: np.ndarray
    increment: np.ndarray
    force_after: np.ndarray
    balance_residual: float
    dissipation_rate: float
    iterations: int


def viscous_step(scenario: Scenario, eps: float, t_next: float, q: Field,
                 zeta: Field, start_increment=None) -> StepResult:
    """One implicit incremental minimization step ending at ``t_next``."""
    tau = scenario.tau
    f = driving_force(scenario, t_next, q)
    effective = scenario.alpha + eps / tau
    delta, iters, threshold = _prox_rate_counted(
        scenario.dissipation, scenario.mesh, zeta, f, effective,
        start=start_increment,
    )
    q_next = q + delta
    rate = delta / tau
    phi = f - effective * riesz_apply(scenario.mesh, delta)
    lhs = dual_pair(phi, rate)
    rhs = _potential_at(scenario.dissipation, threshold, rate)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return StepResult(
        q_next=q_next,
        increment=delta,
        force_after=phi,
        balance_residual=float(residual),
        dissipation_rate=float(rhs),
        iterations=iters,
    )


def explicit_projection_step(scenario: Scenario, eps: float, t: float, q: Field,
                             zeta: Field, cold_start: bool = False):
    """One forward step of the projection form of the viscous flow.

    Returns ``(q_next, rate, iterations)``; the rate is evaluated from
    the driving force at the start of the step.  ``cold_start`` makes
    the inner projection start from zero instead of the clipped force.
    """
    omega = driving_force(scenario, t, q)
    mu, iters = _project_counted(scenario.dissipation, scenario.mesh, zeta, omega,
                                 cold_start=cold_start)
    rate = riesz_solve(scenario.mesh, omega - mu) / eps
    return q + scenario.tau * rate, rate, iters


@dataclass
class SolveReport:
    """Per-step diagnostics of one viscous solve."""

    method: str
    eps: float
    tau: float
    times: np.ndarray
    balance_residuals: np.ndarray | None
    rate_h1_norms: np.ndarray
    dissipation_rates: np.ndarray | None
    energies: np.ndarray
    inner_iterations: int
    warm_start: bool

    @property
    def max_balance_residual(self) -> float:
        if self.balance_residuals is None:
            return math.nan
        return float(self.balance_residuals.max(initial=0.0))

    @property
    def max_rate_h1_norm(self) -> float:
        return float(self.rate_h1_norms.max(initial=0.0))


def solve_viscous(scenario: Scenario, eps: float, *, method: str = "implicit",
                  warm_start: bool = True):
    """Run the time loop; returns ``(Trajectory, SolveReport)``."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if method not in ("implicit", "explicit"):
        raise ValueError(f"unknown method {method!r}")
    mesh = scenario.mesh
    tau = scenario.tau
    if method == "explicit" and tau > eps / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"explicit stepping needs tau <= eps/10; got tau={tau:.3e}, eps={eps:.3e}"
        )

    n = mesh.n_nodes
    steps = scenario.n_steps
    times = scenario.times()
    values = np.zeros((steps + 1, n))
    acc = HistoryAccumulator(scenario.kernel, tau, n, steps)
    acc.push(values[0])

    balance = np.zeros(steps) if method == "implicit" else None
    diss_rates = np.zeros(steps) if method == "implicit" else None
    rate_norms = np.zeros(steps)
    energies = np.zeros(steps + 1)
    energies[0] = energy(scenario, times[0], values[0])
    total_iters = 0

    q = values[0]
    warm = None
    for k in range(steps):
        zeta = acc.value()
        if method == "implicit":
            try:
                res = viscous_step(
                    scenario, eps, times[k + 1], q, zeta,
                    start_increment=warm if warm_start else None,
                )
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"step {k + 1}/{steps} failed: {exc}", residual=exc.residual
                ) from exc
            if not res.balance_residual <= BALANCE_TOL:
                raise NumericalFailure(
                    f"force balance violated at step {k + 1}/{steps}",
                    residual=res.balance_residual,
                )
            q = res.q_next
            warm = res.increment.copy()
            balance[k] = res.balance_residual
            diss_rates[k] = res.dissipation_rate
            rate_norms[k] = h1_norm(mesh, res.increment) / tau
            total_iters += res.iterations
        else:
            q, rate, iters = explicit_projection_step(
                scenario, eps, times[k], q, zeta, cold_start=not warm_start
            )
            rate_norms[k] = h1_norm(mesh, rate)
            total_iters += iters
        values[k + 1] = q
        energies[k + 1] = energy(scenario, times[k + 1], q)
        acc.push(q)

    report = SolveReport(
        method=method,
        eps=float(eps),
        tau=float(tau),
        times=times,
        balance_residuals=balance,
        rate_h1_norms=rate_norms,
        dissipation_rates=diss_rates,
        energies=energies,
        inner_iterations=total_iters,
        warm_start=warm_start,
    )
    return Trajectory(times=times, values=values), report
