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

:func:`solve_levels` is the one time loop.  It advances
several viscosities of one scenario in lockstep: they share the mesh,
load, kernel, dissipation and time grid, and their prox Hessians
``(alpha + eps/tau) R`` are scalar multiples of one band.  So a step
makes one QP call on the block band of all members, and every member's
trajectory and report are bit for bit what it gives alone;
:func:`solve_viscous` runs this loop with one level, for either method.

A step only advances the state: it forms the driving force, makes the
stacked QP call (none on an elastic step of a run, below) and pushes
the new states to the history.

While the state is held, the loop decides a window of upcoming steps
at once, as rows.  An implicit step is held from a zero start, where
the elastic exit applies; an explicit step's rate depends on no start,
so its exit applies to every step.  A window takes the history of the
held state by the kernel's recurrence
(:meth:`~histris.history.HistoryAccumulator.held_values`), every
threshold from one assembly, and the exit rule
(:func:`~histris.dissipation._elastic`) with the finiteness check row
by row.  The elastic steps at the front of the window are committed
together (zero increments, their thresholds, one step a member, the
held samples in one slice); the first step that is not elastic is
taken as a normal step with the force and threshold of its row, and
the rows after it are discarded.  The window starts at one step,
doubles while a run fills it, starts again after a step that is not
elastic, and ends at the current block, so the failure order is the
step-by-step one.  A kernel table that is not geometric decides one
step at a time.

The loop takes the steps in blocks of
:func:`~histris.trajectory.step_blocks` (about ``2**14`` entries:
members times nodes times steps).  A block
evaluates its loads in one :meth:`Load.values` call (each term's time
profile once, on the block's times), records each
step's increment and threshold, and at its end reduces the force
balance, dissipation rates, rate norms and energies of all its steps
as rows, with the bits of a step taken alone.  The balance gate then
reads the block in step order, so the failure names the first
unbalanced step.  An exception inside a block (a QP failure, a load
that raises) first settles the block's finished steps the same way.
A step that fails names its step and eps.

The explicit integrator, a cross-check that needs ``tau <= eps/10``,
is a second step kind of the loop, for one level.  Its step takes the
projection form of the flow at the step's start,

    rate = (1/eps) * riesz_solve(force - project(force)),

zeroed where the projection ``mu`` is free, as in exact arithmetic.
Then ``<mu, rate> = potential(zeta, rate)``: the step meets the balance
with its start's force ``load(t_k) - alpha*Riesz(q_k) - eps*Riesz(rate)``
under the same gate.  A force exactly inside its box is its own
projection, so the step's exit is exact box membership, without the
implicit exit's ``KKT_TOL`` slack: the step takes the zero rate, counted
as one QP step, in the same runs of held steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# ``potential``, ``h1_norm`` and ``riesz_apply`` are unused here but stay
# importable: the benchmark's layer tracer (bench/tracer.py) patches this
# module's names.
from .dissipation import (
    Dissipation,
    _elastic,
    _elastic_rows,
    _potential_at,
    _project_counted,
    _prox_rate_counted,
    potential,
)
from .errors import NumericalFailure
from .expressions import Expression
from .history import HistoryAccumulator, KernelSpec
from .qp import KKT_TOL
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
    """One separable load contribution ``a(t) * (assembled profile)``.

    ``time_profile`` and ``time_derivative`` take a 1-D array of times
    and return their values with numpy semantics (a scalar broadcasts),
    as :attr:`Dissipation.weight` and :attr:`KernelSpec.b` do: a load
    evaluates each term once on a block of times.
    """

    time_profile: Callable[[np.ndarray], np.ndarray]
    space_dual: np.ndarray
    time_derivative: Callable[[np.ndarray], np.ndarray] | None = None


class Load:
    """Sum of separable space-time load terms, kept as dual fields; each
    term's time functions are called once on an array of times."""

    def __init__(self, terms: list[LoadTerm]):
        if not terms:
            raise ValueError("a load needs at least one term")
        self.terms = list(terms)

    def value(self, t: float) -> DualField:
        return self.values([t])[0]

    def values(self, times) -> np.ndarray:
        """The load at each of ``times``, one row a time."""
        return self._rows(times, [term.time_profile for term in self.terms])

    def derivative(self, t: float) -> DualField:
        return self.derivatives([t])[0]

    def derivatives(self, times) -> np.ndarray:
        """The load's time derivative at each of ``times``, one row a time:
        the terms' own derivatives, or central differences of
        :meth:`values` when a term has none."""
        slopes = [term.time_derivative for term in self.terms]
        if any(slope is None for slope in slopes):
            times = np.asarray(times, dtype=float)
            return (self.values(times + _FD_DT)
                    - self.values(times - _FD_DT)) / (2.0 * _FD_DT)
        return self._rows(times, slopes)

    def _rows(self, times, coefficients) -> np.ndarray:
        """Each term's coefficients, from one call on ``times``, scale its
        profile, and the terms add in order, so a row has the bits of
        that time alone.  A result that does not broadcast to the times'
        shape raises ``ValueError``."""
        times = np.asarray(times, dtype=float)
        parts = [np.broadcast_to(np.asarray(f(times), dtype=float), times.shape)[:, None]
                 * term.space_dual
                 for f, term in zip(coefficients, self.terms)]
        return sum(parts[1:], parts[0])

    def scaled(self, factor: float) -> "Load":
        return Load([
            LoadTerm(term.time_profile, factor * term.space_dual, term.time_derivative)
            for term in self.terms
        ])


def expression_load(mesh: Mesh, time_expr: str, space_expr: str = "1") -> Load:
    """Separable load from expression strings in ``t`` and ``x``; the
    time expression is the term's profile, evaluated on arrays of times."""
    a = Expression(time_expr, variables=("t",))
    profile = Expression(space_expr, variables=("x",))
    dual = assemble_dual(mesh, interpolate(mesh, profile))
    return Load([LoadTerm(a, dual)])


def constant_in_space_load(mesh: Mesh, a: Callable[[np.ndarray], np.ndarray],
                           a_prime: Callable[[np.ndarray], np.ndarray] | None = None) -> Load:
    """Load ``a(t) * 1`` assembled against the constant unit profile;
    ``a`` and ``a_prime`` take arrays of times (see :class:`LoadTerm`)."""
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
    load: Load
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
    return _force(scenario, scenario.load.value(t), q)


def energy(scenario: Scenario, t: float, q: Field) -> float:
    return 0.5 * scenario.alpha * h1_inner(scenario.mesh, q, q) - dual_pair(
        scenario.load.value(t), q
    )


class _Levels:
    """Viscosity levels of one scenario that a time loop advances in
    lockstep, and the members' prox Hessians ``(alpha + eps_b / tau) R``,
    built once as one :meth:`~histris.spatial.SymTridiagonal.stack`;
    ``eps_b / tau`` for explicit steps, whose balance reads the force at
    the step's start."""

    def __init__(self, scenario: Scenario, eps_values, explicit: bool = False):
        self.eps = [float(e) for e in eps_values]
        if not self.eps:
            raise ValueError("the viscosity schedule is empty")
        for eps in self.eps:
            if not (np.isfinite(eps) and eps > 0):
                raise ValueError(f"eps must be positive, got {eps}")
        tau = scenario.tau
        stiffness = 0.0 if explicit else scenario.alpha
        effective = [stiffness + eps / tau for eps in self.eps]
        self.hessian = scenario.mesh.riesz.stack(effective)
        # One entry a member, broadcast over the (B, m, n) stacks of a block.
        self.effective = np.array(effective)[:, None, None]

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


def _force(scenario: Scenario, loads: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The driving forces ``load - alpha R q`` of a state or a stack of
    them (``R q`` by ``apply_rows``, each row with the bits of ``R @ q``),
    under loads that broadcast against them: a (B, n) stack under one
    load row, or under (rows, 1, n) load rows (rows, B, n)."""
    return loads - scenario.alpha * scenario.mesh.riesz.apply_rows(q)


# The first window of a run: the steps that a zero start decides at once.
# A window that a run fills doubles; a step that is not elastic resets it.
_RUN_WINDOW = 1


def _held_steps(scenario: Scenario, loads: np.ndarray, q: np.ndarray,
                acc: HistoryAccumulator, slack: float):
    """The steps that ``loads`` serve, one load row each, decided while
    the (B, n) states ``q`` stay put: ``(force, threshold, elastic)``,
    the forces and thresholds (rows, B, n) and, (rows, B), whether each
    member passes the exit rule with ``slack``
    (:func:`~histris.dissipation._elastic_rows`).
    Row j has the bits of the step the loop would take after j elastic
    steps: ``q`` holds no ``-0.0`` (a sum from +0.0 never makes one), so
    ``q + 0.0`` is ``q``, and the history is :meth:`HistoryAccumulator.held_values`.

    When a row raises or warns (a weight that fails, an overflow), only
    the first row is decided, as the step alone: so every step raises or
    warns in its turn, as in a loop that takes them one at a time.
    """
    if len(loads) > 1:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _held_rows(scenario, loads, q, acc, slack)
        except Exception:  # raised again by the step that causes it
            loads = loads[:1]
    return _held_rows(scenario, loads, q, acc, slack)


def _held_rows(scenario, loads, q, acc, slack):
    """:func:`_held_steps` of all rows at once."""
    n = scenario.mesh.n_nodes
    force = _force(scenario, loads[:, None], q)
    w, elastic = _elastic_rows(scenario.dissipation, scenario.mesh,
                               acc.held_values(len(loads)).reshape(-1, n),
                               force.reshape(-1, n), slack)
    return force, w.reshape(force.shape), elastic.reshape(force.shape[:2])


def _diagnostics(scenario: Scenario, effective: np.ndarray, loads: np.ndarray,
                 ends: np.ndarray, states: np.ndarray, delta: np.ndarray,
                 threshold: np.ndarray):
    """Balanced force, balance residuals, dissipation rates, rate norms
    and end-of-step energies of m consecutive steps of B members, by rows.

    ``effective`` (B, 1, 1) holds the members' ``alpha + eps / tau``
    (``eps / tau`` explicit), ``loads`` (m, n) the load each step's force
    reads (at its end; explicit: its start), ``ends`` the load at each
    step's end, ``states``
    (B, m + 1, n) the states from the first step's start to the last
    one's end, ``delta`` and ``threshold`` (B, m, n) each step's
    increment and ``M w(zeta)``.  Each result is (B, m), the force
    (B, m, n).  Every entry has the bits of its step evaluated alone,
    finite or not: ``apply_rows`` keeps each row's bits, and np.vecdot
    takes each row through the BLAS dot of dual_pair (einsum would sum
    otherwise).
    """
    apply = scenario.mesh.riesz.apply_rows
    tau = scenario.tau
    riesz_delta = apply(delta)
    phi = _force(scenario, loads, states[:, :-1]) - effective * riesz_delta
    rate = delta / tau
    rhs = _potential_at(scenario.dissipation, threshold, rate)
    balance = _balance_residuals(np.vecdot(phi, rate), rhs)
    norms = np.sqrt(np.maximum(np.vecdot(delta, riesz_delta), 0.0)) / tau
    after = states[:, 1:]
    energies = _energies(scenario.alpha, after, apply(after), ends)
    return phi, balance, rhs, norms, energies


def viscous_step(scenario: Scenario, eps: float, t_next: float, q: Field,
                 zeta: Field) -> StepResult:
    """One implicit incremental minimization step ending at ``t_next``.

    The time loops take the same step and reduce the same diagnostics
    over blocks of steps; here the block is this one step.
    """
    levels = _Levels(scenario, [eps])
    q = np.asarray(q, dtype=float)[None]
    load = scenario.load.value(t_next)
    delta, iters, threshold = _prox_rate_counted(
        scenario.dissipation, scenario.mesh, np.asarray(zeta, dtype=float)[None],
        _force(scenario, load, q), levels.hessian)
    states = np.stack([q, q + delta], axis=1)
    phi, balance, rhs, norms, _ = _diagnostics(scenario, levels.effective, load[None],
                                               load[None], states, delta[:, None],
                                               threshold[:, None])
    return StepResult(states[0, 1], delta[0], phi[0, 0], float(balance[0, 0]),
                      float(rhs[0, 0]), iters, float(norms[0, 0]))


def _balance_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``|lhs - rhs| / (1 + |lhs| + |rhs|)`` by rows; ``inf`` where ``rhs`` is."""
    with np.errstate(invalid="ignore"):  # inf/inf is NaN, as with Python floats
        ratio = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    ratio[np.isinf(rhs)] = math.inf
    return ratio


def _load_rows(load, times: np.ndarray):
    """``(load.values(times), None)``, or, when that block call raises,
    the rows of the times before the first one that raises alone and its
    error: the steps those rows serve run, and are checked, before the
    error surfaces.  When no time raises alone, the block's error does."""
    try:
        return load.values(times), None
    except Exception:
        for j, t in enumerate(times):
            try:
                load.values(times[j:j + 1])
            except Exception as err:
                return load.values(times[:j]), err
        raise


def explicit_projection_step(scenario: Scenario, eps: float, omega: DualField,
                             threshold: DualField, cold_start: bool = False):
    """The rate of one forward step of the projection form of the viscous
    flow, from ``omega``, the driving force at the step's start, and the
    ``threshold`` ``M w(zeta)`` of the history there.

    Returns ``(rate, iterations, threshold)``, as the rate prox does.
    The rate is exactly +0.0 where the projection ``mu`` is free
    (``lower < mu < upper``; pinned entries sit exactly on their bound),
    and an entry pinned at one bound only never has a rate below +0.0 on
    the upper bound nor above it on the lower one (a two-sided entry with
    ``w = 0`` keeps its rate), so a one-sided rate stays in the cone and
    ``<mu, rate>`` is the dissipation.  ``cold_start`` makes the inner
    projection start from zero instead of the clipped force.  The time
    loop calls this only for a force outside the box: inside it, the step
    takes the zero rate without a projection
    (:func:`~histris.dissipation._elastic`).
    """
    spec, mesh = scenario.dissipation, scenario.mesh
    mu, iters, w = _project_counted(spec, mesh, None, omega, cold_start=cold_start,
                                    threshold=threshold)
    rate = riesz_solve(mesh, omega - mu) / eps
    # Rounding in the solve can leave an entry pinned at one bound a rate
    # of the wrong sign; exact arithmetic gives +0.0 there, as on a free
    # entry.  A two-sided entry with w = 0 is pinned at both bounds and
    # admits either sign: it keeps its rate.
    below = mu < w
    above = np.full(mu.shape, True) if spec.one_sided else -w < mu
    zero = (below & above) | (above & (mu >= w) & (rate < 0.0))
    if not spec.one_sided:
        zero |= below & (mu <= -w) & (rate > 0.0)
    rate[zero] = 0.0
    return rate, iters, w


@dataclass
class SolveReport:
    """Per-step diagnostics of one viscous solve.

    Both methods return a trajectory only when every step meets the
    balance gate, so ``balance_residuals`` and ``dissipation_rates``
    are finite.  ``inner_iterations`` totals the QP iterations of all
    steps; one iteration is one free-block solve (see :mod:`histris.qp`).
    An elastic step, whose zero rate the loop decides without a QP call,
    counts 1 a member: the count the QP gives it.  ``elastic_steps``
    counts this member's elastic steps, which a solve of the member
    alone decides without a QP call, in a run of held steps: implicit,
    a zero start and a force that passes the exit rule; explicit, a
    force exactly inside its box.  In a lockstep loop a member's elastic
    step still joins the stacked QP call when another member's step is
    not elastic, with the same result.
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
    elastic_steps: int
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
    call for all levels; the history accumulator holds them all.  A run
    of elastic steps of all levels is decided and committed in windows
    of rows, without a QP call; a window never crosses a block, and a
    kernel that is not geometric steps alone (see the module docstring).
    The balance gate reads each block of steps at its end, or, when a
    step raises, the steps before it.  Raises :class:`NumericalFailure`
    for the first step where a level fails, naming the step and the
    level's eps.
    """
    return _time_loop(scenario, eps_values, warm_start, explicit=False)


def _time_loop(scenario: Scenario, eps_values, warm_start: bool, explicit: bool):
    """:func:`solve_levels`; with ``explicit``, the same loop takes
    :func:`explicit_projection_step` steps of one level instead, each
    reading the load at its start, in runs of held steps under the
    exact exit (slack 0.0)."""
    levels = _Levels(scenario, eps_values, explicit)
    tau = scenario.tau
    n = scenario.mesh.n_nodes
    steps = scenario.n_steps
    members = len(levels.eps)
    times = scenario.times()
    acc = HistoryAccumulator(scenario.kernel, tau, n, steps)
    q = np.zeros((members, n))
    acc.push(q)

    load0 = scenario.load.values(times[:1])
    if not np.isfinite(load0).all():  # no implicit step reads it; the energy at t = 0 does
        raise NumericalFailure(f"non-finite load at t = 0 ({levels.name(None)})")
    energies = np.empty((members, steps + 1))
    energies[:, 0] = _energies(scenario.alpha, q, scenario.mesh.riesz.apply_rows(q), load0)
    balance, diss_rates, rate_norms = (np.empty((members, steps)) for _ in range(3))
    iterations = np.zeros(members, dtype=int)  # each member's QP steps
    blocks = step_blocks(steps, members * n)
    # A block's increments and thresholds, one (m, n) table a member.
    delta, threshold = (np.empty((members, len(blocks[0]), n)) for _ in range(2))

    def settle(start: int, loads: np.ndarray, ends: np.ndarray) -> None:
        """Reduce the block's steps from ``start`` that ``ends`` (the
        load at each step's end) serve, then apply the balance gate to
        them in step order."""
        m = len(ends)
        stop = start + m
        _, bal, rhs, norms, ener = _diagnostics(
            scenario, levels.effective, loads[:m], ends, acc.samples[:, start:stop + 1],
            delta[:, :m], threshold[:, :m])
        bad = ~(bal <= BALANCE_TOL)  # NaN fails
        if bad.any():
            k, b = np.argwhere(bad.T)[0]  # the first step, then its first member
            raise NumericalFailure(
                f"force balance violated at step {start + k + 1}/{steps} ({levels.name(b)})",
                residual=bal[b, k], member=int(b),
            )
        balance[:, start:stop], diss_rates[:, start:stop] = bal, rhs
        rate_norms[:, start:stop], energies[:, start + 1:stop + 1] = norms, ener

    spec, mesh = scenario.dissipation, scenario.mesh
    # The exit rule's slack: exact box membership for an explicit step.
    slack = 0.0 if explicit else KKT_TOL
    warm = None  # the QP's start: the last step; a zero one acts as None
    window = _RUN_WINDOW
    elastic = np.zeros(members, dtype=int)  # each member's elastic steps
    # A step's force reads row j of its block's loads, and row j + lag is
    # the load at its end: an explicit step's force is the one at its start.
    lag = int(explicit)
    for block in blocks:
        loads, error = _load_rows(scenario.load,
                                  times[block.start + 1 - lag:block.stop + 1])
        ends = loads[lag:]
        todo = min(len(block), len(loads))
        done = 0
        try:
            while done < todo:
                if not explicit and warm is not None and warm.any():  # a QP call
                    force = _force(scenario, loads[done], q)
                    step, count, thr = _prox_rate_counted(
                        spec, mesh, acc.value(), force, levels.hessian, start=warm)
                    if members > 1:  # members that stayed put, elastic alone
                        idle = ~warm.any(axis=1)
                        if idle.any():
                            elastic += idle & _elastic(spec, force, thr)
                else:
                    # loads holds this block's rows: a window ends with it.
                    rows = window if acc.geometric else 1
                    force, w, exits = _held_steps(scenario, loads[done:todo][:rows],
                                                  q, acc, slack)
                    run = exits.all(axis=1)
                    held = len(run) if run.all() else int(np.argmin(run))
                    if held:
                        acc.push_held(held)
                        delta[:, done:done + held] = 0.0
                        threshold[:, done:done + held] = w[:held].swapaxes(0, 1)
                        iterations += held
                        elastic += held
                        done += held
                    if held == len(run):
                        window = min(2 * window, len(blocks[0]))
                        continue
                    window = _RUN_WINDOW
                    elastic += exits[held]
                    if explicit:
                        rate, count, thr = explicit_projection_step(
                            scenario, levels.eps[0], force[held, 0], w[held, 0],
                            cold_start=not warm_start)
                        step = tau * rate
                    else:
                        step, count, thr = _prox_rate_counted(
                            spec, mesh, None, force[held], levels.hessian, start=warm,
                            threshold=w[held])
                q = q + step
                acc.push(q)
                delta[:, done], threshold[:, done] = step, thr
                iterations += count.per_block
                warm = step if warm_start else None
                done += 1
            if isinstance(error, RuntimeWarning):  # numpy's, under -W error
                raise NumericalFailure(str(error)) from error
            if error is not None:
                raise error
        except Exception as exc:
            if done and len(ends):  # the steps before the one that raised come first
                settle(block.start, loads, ends[:done])
            if isinstance(exc, NumericalFailure):
                k = block.start + done
                raise NumericalFailure(
                    f"step {k + 1}/{steps} failed ({levels.name(exc.member)}): {exc}",
                    residual=exc.residual, member=exc.member,
                ) from exc
            raise
        settle(block.start, loads, ends)

    values = acc.samples  # the states are the history's samples
    return [(Trajectory(times=times, values=values[b]),
             SolveReport(method="explicit" if explicit else "implicit", eps=eps,
                         tau=float(tau), times=times,
                         balance_residuals=balance[b], rate_h1_norms=rate_norms[b],
                         dissipation_rates=diss_rates[b], energies=energies[b],
                         inner_iterations=int(iterations[b]),
                         elastic_steps=int(elastic[b]), warm_start=warm_start))
            for b, eps in enumerate(levels.eps)]


def solve_viscous(scenario: Scenario, eps: float, *, method: str = "implicit",
                  warm_start: bool = True):
    """Run the time loop; returns ``(Trajectory, SolveReport)``.

    Both methods are :func:`solve_levels`' loop with one level, under
    its balance gate; the explicit one takes explicit projection steps
    and needs ``tau <= eps/10``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if method not in ("implicit", "explicit"):
        raise ValueError(f"unknown method {method!r}")
    explicit = method == "explicit"
    if explicit and scenario.tau > eps / 10.0 * (1.0 + 1e-12):
        raise ValueError(f"explicit stepping needs tau <= eps/10; got "
                         f"tau={scenario.tau:.3e}, eps={eps:.3e}")
    return _time_loop(scenario, [eps], warm_start, explicit)[0]
