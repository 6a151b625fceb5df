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
makes one QP call on the block band of all members, and every member's
trajectory and report are bit for bit what it gives alone;
:func:`solve_viscous`'s implicit method is this loop with one level.

A step only advances the state: it forms the driving force, makes the
stacked QP call and pushes the new states to the history.  The loops
take the steps in blocks of :func:`~histris.trajectory.step_blocks`
(about ``2**14`` entries: members times nodes times steps).  A block
evaluates its loads in one :meth:`Load.values` call, records each
step's increment and threshold, and at its end reduces the force
balance, dissipation rates, rate norms and energies of all its steps
as rows, with the bits of a step taken alone.  The balance gate then
reads the block in step order, so the failure names the first
unbalanced step.  An exception inside a block (a QP failure, a load
that raises) first settles the block's finished steps the same way.

An explicit alternative integrator advances the state with the
projection form of the flow,

    rate = (1/eps) * riesz_solve(force - project(force)),

evaluated at the start of the step.  It is a cross-check only: it
requires ``tau <= eps/10`` and makes no per-step balance claim; it
checks every new state for finiteness and reduces rate norms and
energies over the same blocks.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# ``potential`` and ``h1_norm`` are unused here but stay importable: the
# benchmark's layer tracer (bench/tracer.py) patches this module's names.
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
from .trajectory import Trajectory, step_blocks

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
        return self.values([t])[0]

    def values(self, times) -> np.ndarray:
        """The load at each of ``times``, one row a time: each term's
        coefficients scale its profile, and the terms add in order, so a
        row has the bits of the load at that time alone."""
        def part(term):
            coefficients = np.array([float(term.time_profile(t)) for t in times])
            return coefficients[:, None] * term.space_dual

        out = part(self.terms[0])
        for term in self.terms[1:]:
            out = out + part(term)
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
        # One entry a member, broadcast over the (B, m, n) stacks of a block.
        self.effective = np.array(effective)[:, None, None]

    def apply_riesz(self, fields: np.ndarray) -> np.ndarray:
        """``R`` applied to each row of a (B, n) stack, in one product."""
        return (self.riesz @ fields.ravel()).reshape(fields.shape)

    def name(self, member: int | None) -> str:
        """The eps of a failing member, or of all of them."""
        eps = self.eps if member is None else [self.eps[member]]
        return "eps=" + ", ".join(f"{e:g}" for e in eps)


@dataclass
class StepResult:
    """One implicit step of one member."""

    q_next: np.ndarray
    increment: np.ndarray
    force_after: np.ndarray
    balance_residual: float
    dissipation_rate: float
    iterations: int
    rate_h1_norm: float


def _advance(scenario: Scenario, levels: _Levels, load: DualField, q: np.ndarray,
             zeta: np.ndarray, start):
    """The prox increments of a (B, n) stack of states ``q`` under the
    load at the step's end, from one stacked QP call: ``(delta,
    iterations, threshold)`` as :func:`_prox_rate_counted` returns them."""
    f = load - scenario.alpha * levels.apply_riesz(q)
    return _prox_rate_counted(scenario.dissipation, scenario.mesh, zeta, f,
                              levels.hessian, start=start)


def _diagnostics(scenario: Scenario, levels: _Levels, loads: np.ndarray,
                 states: np.ndarray, delta: np.ndarray, threshold: np.ndarray):
    """Force after, balance residuals, dissipation rates, rate norms and
    end-of-step energies of m consecutive steps of B members, by rows.

    ``loads`` (m, n) holds the load at each step's end, ``states``
    (B, m + 1, n) the states from the first step's start to the last
    one's end, ``delta`` and ``threshold`` (B, m, n) each step's
    increment and ``M w(zeta)``.  Each result is (B, m), the force
    (B, m, n).  Every entry has the bits of its step evaluated alone:
    a band product keeps each row's bits, and np.vecdot takes each row
    through the BLAS dot of dual_pair (einsum would sum otherwise).
    """
    m = delta.shape[1]
    if m > 1 and not (np.isfinite(states).all() and np.isfinite(delta).all()):
        # A stacked band product spreads a non-finite entry to the rows
        # next to it (0 * inf); such a block is reduced a step at a time.
        parts = [_diagnostics(scenario, levels, loads[j:j + 1], states[:, j:j + 2],
                              delta[:, j:j + 1], threshold[:, j:j + 1])
                 for j in range(m)]
        return tuple(np.concatenate(part, axis=1) for part in zip(*parts))
    apply = scenario.mesh.riesz.apply_rows
    tau = scenario.tau
    riesz_delta = apply(delta)
    f = loads - scenario.alpha * apply(states[:, :-1])
    phi = f - levels.effective * riesz_delta
    rate = delta / tau
    rhs = _potential_at(scenario.dissipation, threshold, rate)
    balance = _balance_residuals(np.vecdot(phi, rate), rhs)
    norms = np.sqrt(np.maximum(np.vecdot(delta, riesz_delta), 0.0)) / tau
    after = states[:, 1:]
    energies = _energies(scenario.alpha, after, apply(after), loads)
    return phi, balance, rhs, norms, energies


def viscous_step(scenario: Scenario, eps: float, t_next: float, q: Field,
                 zeta: Field, start_increment=None) -> StepResult:
    """One implicit incremental minimization step ending at ``t_next``.

    The time loops take the same step and reduce the same diagnostics
    over blocks of steps; here the block is this one step.
    """
    levels = _Levels(scenario, [eps])
    q = np.asarray(q, dtype=float)[None]
    if start_increment is not None:
        start_increment = np.asarray(start_increment, dtype=float)[None]
    load = scenario.load.value(t_next)
    delta, iters, threshold = _advance(scenario, levels, load, q,
                                       np.asarray(zeta, dtype=float)[None],
                                       start_increment)
    states = np.stack([q, q + delta], axis=1)
    phi, balance, rhs, norms, _ = _diagnostics(scenario, levels, load[None], states,
                                               delta[:, None], threshold[:, None])
    return StepResult(states[0, 1], delta[0], phi[0, 0], float(balance[0, 0]),
                      float(rhs[0, 0]), iters, float(norms[0, 0]))


def _balance_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``|lhs - rhs| / (1 + |lhs| + |rhs|)`` by rows; ``inf`` where ``rhs`` is."""
    with np.errstate(invalid="ignore"):  # inf/inf is NaN, as with Python floats
        ratio = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    ratio[np.isinf(rhs)] = math.inf
    return ratio


def _load_rows(load, times: np.ndarray):
    """``(load.values(times), None)``, or, when that raises, the rows of
    the times before the first one that raises and its error: the steps
    those rows serve run, and are checked, before the error surfaces."""
    try:
        return load.values(times), None
    except Exception:
        for j, t in enumerate(times):
            try:
                load.values(times[j:j + 1])
            except Exception as err:
                return load.values(times[:j]), err
        raise


def _explicit_advance(scenario: Scenario, eps: float, load: DualField, q: Field,
                      zeta: Field, cold_start: bool):
    """:func:`explicit_projection_step` given the load at the step's start."""
    omega = load - scenario.alpha * riesz_apply(scenario.mesh, q)
    mu, iters = _project_counted(scenario.dissipation, scenario.mesh, zeta, omega,
                                 cold_start=cold_start)
    rate = riesz_solve(scenario.mesh, omega - mu) / eps
    return q + scenario.tau * rate, rate, iters


def explicit_projection_step(scenario: Scenario, eps: float, t: float, q: Field,
                             zeta: Field, cold_start: bool = False):
    """One forward step of the projection form of the viscous flow.

    Returns ``(q_next, rate, iterations)``; the rate is evaluated from
    the driving force at the start of the step.  ``cold_start`` makes
    the inner projection start from zero instead of the clipped force.
    """
    return _explicit_advance(scenario, eps, scenario.load.value(t), q, zeta, cold_start)


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
              load: DualField) -> np.ndarray:
    """:func:`energy` of each row of ``q``, given its ``R q`` and the load
    (whose rows broadcast)."""
    return 0.5 * alpha * np.vecdot(q, riesz_q) - np.vecdot(load, q)


def solve_levels(scenario: Scenario, eps_values, *, warm_start: bool = True):
    """Advance every viscosity of ``eps_values`` in one implicit time loop.

    Returns one ``(Trajectory, SolveReport)`` per level, in order, each
    bit for bit what the level gives alone.  A step makes one stacked QP
    call for all levels; the history accumulator holds them all.  The
    balance gate reads each block of steps at its end, or, when a step
    raises, the steps before it (see the module docstring).  Raises
    :class:`NumericalFailure` for the first step where a level fails,
    naming the step and the level's eps.
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

    energies = np.empty((members, steps + 1))
    energies[:, 0] = _energies(scenario.alpha, q, levels.apply_riesz(q),
                               scenario.load.values(times[:1]))
    balance, diss_rates, rate_norms = (np.empty((members, steps)) for _ in range(3))
    iterations = array("q")  # per step one entry a member
    blocks = step_blocks(steps, members * n)
    # A block's increments and thresholds, one (m, n) table a member.
    delta, threshold = (np.empty((members, len(blocks[0]), n)) for _ in range(2))

    def settle(start: int, loads: np.ndarray) -> None:
        """Reduce the block's steps from ``start`` that ``loads`` serve,
        then apply the balance gate to them in step order."""
        stop = start + len(loads)
        _, bal, rhs, norms, ener = _diagnostics(
            scenario, levels, loads, acc.samples[:, start:stop + 1],
            delta[:, :len(loads)], threshold[:, :len(loads)])
        bad = ~(bal <= BALANCE_TOL)  # NaN fails
        if bad.any():
            k, b = np.argwhere(bad.T)[0]  # the first step, then its first member
            raise NumericalFailure(
                f"force balance violated at step {start + k + 1}/{steps} ({levels.name(b)})",
                residual=bal[b, k], member=int(b),
            )
        balance[:, start:stop], diss_rates[:, start:stop] = bal, rhs
        rate_norms[:, start:stop], energies[:, start + 1:stop + 1] = norms, ener

    warm = None
    for block in blocks:
        loads, error = _load_rows(scenario.load, times[block.start + 1:block.stop + 1])
        done = 0
        try:
            for j, load in enumerate(loads):
                step, count, thr = _advance(scenario, levels, load, q, acc.value(), warm)
                q = q + step
                acc.push(q)
                delta[:, j], threshold[:, j] = step, thr
                iterations.extend(count.per_block)
                warm = step if warm_start else None
                done += 1
            if error is not None:
                raise error
        except Exception as exc:
            if done:  # the steps before the one that raised come first
                settle(block.start, loads[:done])
            if isinstance(exc, NumericalFailure):
                k = block.start + done
                raise NumericalFailure(
                    f"step {k + 1}/{steps} failed ({levels.name(exc.member)}): {exc}",
                    residual=exc.residual, member=exc.member,
                ) from exc
            raise
        settle(block.start, loads)

    iterations = np.array(iterations).reshape(steps, members)
    values = acc.samples  # the states are the history's samples
    return [(Trajectory(times=times, values=values[b]),
             SolveReport(method="implicit", eps=eps, tau=float(tau), times=times,
                         balance_residuals=balance[b], rate_h1_norms=rate_norms[b],
                         dissipation_rates=diss_rates[b], energies=energies[b],
                         inner_iterations=int(iterations[:, b].sum()),
                         warm_start=warm_start))
            for b, eps in enumerate(levels.eps)]


def solve_viscous(scenario: Scenario, eps: float, *, method: str = "implicit",
                  warm_start: bool = True):
    """Run the time loop; returns ``(Trajectory, SolveReport)``.

    The implicit method is :func:`solve_levels` with one level.  The
    explicit loop takes its steps in the same blocks, checking each new
    state for finiteness as it goes.
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
    energies[0] = _energies(scenario.alpha, q, mesh.riesz @ q,
                            scenario.load.values(times[:1])[0])
    total_iters = 0
    blocks = step_blocks(steps, n)
    rates = np.empty((len(blocks[0]), n))

    for block in blocks:
        # The load at each step's start, and at the last one's end.
        loads, error = _load_rows(scenario.load, times[block.start:block.stop + 1])
        for j in range(min(len(block), len(loads))):
            q, rates[j], iters = _explicit_advance(
                scenario, eps, loads[j], q, acc.value(), cold_start=not warm_start)
            if not np.all(np.isfinite(q)):
                raise NumericalFailure(
                    f"non-finite state at explicit step {block.start + j + 1}/{steps}"
                )
            total_iters += iters
            acc.push(q)
        if error is not None:
            raise error
        m = len(block)
        after = acc.samples[block.start + 1:block.stop + 1]
        rate_norms[block.start:block.stop] = np.sqrt(np.maximum(
            np.vecdot(rates[:m], mesh.riesz.apply_rows(rates[:m])), 0.0))
        energies[block.start + 1:block.stop + 1] = _energies(
            scenario.alpha, after, mesh.riesz.apply_rows(after), loads[1:])

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
