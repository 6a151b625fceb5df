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

:func:`solve_levels` is the one implicit time loop.  It advances
several viscosities of one scenario in lockstep: they share the mesh,
load, kernel, dissipation and time grid, and their prox Hessians
``(alpha + eps/tau) R`` are scalar multiples of one band.  So a step
evaluates the load once and makes one QP call on the block band of all
members, and every member's trajectory and report are bit for bit what
it gives alone; :func:`solve_viscous`'s implicit method is this loop
with one level.

An explicit alternative integrator advances the state with the
projection form of the flow,

    rate = (1/eps) * riesz_solve(force - project(force)),

evaluated at the start of the step.  It is a cross-check only: it
requires ``tau <= eps/10`` and makes no per-step balance claim.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# ``potential`` is unused here but stays importable: the benchmark's
# layer tracer (bench/tracer.py) patches this module's name.
from .dissipation import (
    Dissipation,
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
    "expression_load",
    "constant_in_space_load",
    "Scenario",
    "driving_force",
    "energy",
    "StepResult",
    "viscous_step",
    "solve_levels",
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
    dissipation: Dissipation
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


class _Levels:
    """Viscosity levels of one scenario that a time loop advances in
    lockstep, and the bands built once for them, each stacked end to end
    (:meth:`~histris.spatial.SymTridiagonal.stack`): the members' prox
    Hessians ``(alpha + eps_b / tau) R`` and B copies of ``R``."""

    def __init__(self, scenario: Scenario, eps_values):
        self.eps = [float(e) for e in eps_values]
        if not self.eps:
            raise ValueError("no viscosity to solve for")
        for eps in self.eps:
            if not (np.isfinite(eps) and eps > 0):
                raise ValueError(f"eps must be positive, got {eps}")
        tau = scenario.tau
        effective = [scenario.alpha + eps / tau for eps in self.eps]
        riesz = scenario.mesh.riesz
        self.hessian = riesz.stack(effective)
        self.riesz = riesz.stack([1.0] * len(self.eps))
        self.effective = np.array(effective)[:, None]  # a column, one row a member

    def apply_riesz(self, fields: np.ndarray) -> np.ndarray:
        """``R`` applied to each row of a (B, n) stack, in one product."""
        return (self.riesz @ fields.ravel()).reshape(fields.shape)

    def name(self, member: int | None) -> str:
        """The eps of a failing member, or of all of them."""
        eps = self.eps if member is None else [self.eps[member]]
        return "eps=" + ", ".join(f"{e:g}" for e in eps)


@dataclass
class StepResult:
    """One implicit step.  In a lockstep loop the fields are stacked, one
    member a row (lists of numbers for the scalars), except the shared
    ``load``."""

    q_next: np.ndarray
    increment: np.ndarray
    force_after: np.ndarray
    balance_residual: float
    dissipation_rate: float
    iterations: int
    rate_h1_norm: float
    # The load at t_next and R q at the start state, for the energies.
    load: DualField
    riesz_q: DualField


def viscous_step(scenario: Scenario, eps: float, t_next: float, q: Field,
                 zeta: Field, start_increment=None) -> StepResult:
    """One implicit incremental minimization step ending at ``t_next``.

    Called with one viscosity and fields, it steps one member.  Inside
    :func:`solve_levels` ``eps`` is the loop's levels, and ``q``,
    ``zeta`` and ``start_increment`` are (B, n) stacks: one load
    evaluation, one stacked QP call, and one product each for ``R q``
    and ``R delta`` serve every member.
    """
    levels = eps if isinstance(eps, _Levels) else _Levels(scenario, [eps])
    one = levels is not eps
    if one:
        q, zeta = np.asarray(q, dtype=float)[None], np.asarray(zeta, dtype=float)[None]
        if start_increment is not None:
            start_increment = np.asarray(start_increment, dtype=float)[None]
    tau = scenario.tau
    spec = scenario.dissipation
    load = scenario.load.value(t_next)
    riesz_q = levels.apply_riesz(q)
    f = load - scenario.alpha * riesz_q
    delta, iters, threshold = _prox_rate_counted(
        spec, scenario.mesh, zeta, f, levels.hessian, start=start_increment,
    )
    q_next = q + delta
    rate = delta / tau
    riesz_delta = levels.apply_riesz(delta)
    phi = f - levels.effective * riesz_delta
    # Row reductions, a row a member: np.vecdot takes each row through the BLAS
    # dot of dual_pair, so a member keeps its bits (einsum would sum otherwise).
    rhs = _potential_at(spec, threshold, rate)
    balance = _balance_residuals(np.vecdot(phi, rate), rhs).tolist()
    norms = (np.sqrt(np.maximum(np.vecdot(delta, riesz_delta), 0.0)) / tau).tolist()
    rhs = rhs.tolist()
    if one:
        return StepResult(q_next[0], delta[0], phi[0], balance[0], rhs[0], iters,
                          norms[0], load, riesz_q[0])
    return StepResult(q_next, delta, phi, balance, rhs, iters.per_block, norms,
                      load, riesz_q)


def _balance_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``|lhs - rhs| / (1 + |lhs| + |rhs|)`` by rows; ``inf`` where ``rhs`` is."""
    with np.errstate(invalid="ignore"):  # inf/inf is NaN, as with Python floats
        ratio = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    ratio[np.isinf(rhs)] = math.inf
    return ratio


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
    """Per-step diagnostics of one viscous solve.

    The explicit method checks no force balance and records no
    dissipation: its ``balance_residuals`` and ``dissipation_rates``
    are NaN.  ``inner_iterations`` totals the QP iterations of all
    steps; one iteration is one free-block solve (see :mod:`histris.qp`).
    """

    method: str
    eps: float
    tau: float
    times: np.ndarray
    balance_residuals: np.ndarray
    rate_h1_norms: np.ndarray
    dissipation_rates: np.ndarray
    energies: np.ndarray
    inner_iterations: int
    warm_start: bool

    @property
    def max_balance_residual(self) -> float:
        return float(self.balance_residuals.max(initial=0.0))

    @property
    def max_rate_h1_norm(self) -> float:
        return float(self.rate_h1_norms.max(initial=0.0))


def _energies(alpha: float, q: np.ndarray, riesz_q: np.ndarray,
              load: DualField) -> list:
    """:func:`energy` of each member of a stack, given ``R q`` and the load."""
    return (0.5 * alpha * np.vecdot(q, riesz_q) - np.vecdot(load, q)).tolist()


def solve_levels(scenario: Scenario, eps_values, *, warm_start: bool = True):
    """Advance every viscosity of ``eps_values`` in one implicit time loop.

    Returns one ``(Trajectory, SolveReport)`` per level, in order, each
    bit for bit what the level gives alone.  A step makes one load
    evaluation and one stacked QP call for all levels; the history
    accumulator holds them all.  Raises :class:`NumericalFailure` at the
    first step where a level fails, naming the step and the level's eps.
    """
    levels = _Levels(scenario, eps_values)
    tau = scenario.tau
    n = scenario.mesh.n_nodes
    steps = scenario.n_steps
    members = len(levels.eps)
    times = scenario.times()
    acc = HistoryAccumulator(scenario.kernel, tau, n, steps)
    q = np.zeros((members, n))
    acc.push(q)

    # Per step one entry a member, appended in step order.
    balance, diss_rates, rate_norms = array("d"), array("d"), array("d")
    energies = array("d", [energy(scenario, times[0], q[0])] * members)
    iterations = array("q")

    load = None
    warm = None
    for k in range(steps):
        try:
            res = viscous_step(
                scenario, levels, times[k + 1], q, acc.value(),
                start_increment=warm if warm_start else None,
            )
        except NumericalFailure as exc:
            raise NumericalFailure(
                f"step {k + 1}/{steps} failed ({levels.name(exc.member)}): {exc}",
                residual=exc.residual, member=exc.member,
            ) from exc
        for b, residual in enumerate(res.balance_residual):
            if not residual <= BALANCE_TOL:
                raise NumericalFailure(
                    f"force balance violated at step {k + 1}/{steps} ({levels.name(b)})",
                    residual=residual, member=b,
                )
        if k > 0:  # the energies at t_k, from this step's R q
            energies.extend(_energies(scenario.alpha, q, res.riesz_q, load))
        q = res.q_next
        load = res.load
        warm = res.increment
        balance.extend(res.balance_residual)
        diss_rates.extend(res.dissipation_rate)
        rate_norms.extend(res.rate_h1_norm)
        iterations.extend(res.iterations)
        acc.push(q)
    energies.extend(_energies(scenario.alpha, q, levels.apply_riesz(q), load))

    def by_member(entries):
        return np.array(entries).reshape(-1, members).T.copy()

    balance, diss_rates, rate_norms, energies, iterations = (
        by_member(e) for e in (balance, diss_rates, rate_norms, energies, iterations))
    values = acc.samples  # the states are the history's samples
    return [(Trajectory(times=times, values=values[b]),
             SolveReport(method="implicit", eps=eps, tau=float(tau), times=times,
                         balance_residuals=balance[b], rate_h1_norms=rate_norms[b],
                         dissipation_rates=diss_rates[b], energies=energies[b],
                         inner_iterations=int(iterations[b].sum()),
                         warm_start=warm_start))
            for b, eps in enumerate(levels.eps)]


def solve_viscous(scenario: Scenario, eps: float, *, method: str = "implicit",
                  warm_start: bool = True):
    """Run the time loop; returns ``(Trajectory, SolveReport)``.

    The implicit method is :func:`solve_levels` with one level.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if method not in ("implicit", "explicit"):
        raise ValueError(f"unknown method {method!r}")
    if method == "implicit":
        return solve_levels(scenario, [eps], warm_start=warm_start)[0]
    mesh = scenario.mesh
    tau = scenario.tau
    if tau > eps / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"explicit stepping needs tau <= eps/10; got tau={tau:.3e}, eps={eps:.3e}"
        )

    n = mesh.n_nodes
    steps = scenario.n_steps
    times = scenario.times()
    q = np.zeros(n)
    acc = HistoryAccumulator(scenario.kernel, tau, n, steps)
    acc.push(q)

    rate_norms = np.zeros(steps)
    energies = np.zeros(steps + 1)
    energies[0] = energy(scenario, times[0], q)
    total_iters = 0

    for k in range(steps):
        q, rate, iters = explicit_projection_step(
            scenario, eps, times[k], q, acc.value(), cold_start=not warm_start
        )
        if not np.all(np.isfinite(q)):
            raise NumericalFailure(
                f"non-finite state at explicit step {k + 1}/{steps}"
            )
        rate_norms[k] = h1_norm(mesh, rate)
        total_iters += iters
        energies[k + 1] = energy(scenario, times[k + 1], q)
        acc.push(q)

    report = SolveReport(
        method=method,
        eps=float(eps),
        tau=float(tau),
        times=times,
        balance_residuals=np.full(steps, math.nan),
        rate_h1_norms=rate_norms,
        dissipation_rates=np.full(steps, math.nan),
        energies=energies,
        inner_iterations=total_iters,
        warm_start=warm_start,
    )
    return Trajectory(times=times, values=acc.samples), report
