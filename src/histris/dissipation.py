"""State-dependent rate-independent dissipation potentials.

One ``Dissipation`` spec carries the model's dissipation: a pointwise
weight ``w`` of the accumulated state, and a flag that fixes the rate
domain.  The potential is positively 1-homogeneous and convex in the
rate:

* one-sided (``Fatigue``), the unbounded potentials of the uniqueness
  result,
      value = <M w(zeta), rate>   if rate >= 0 nodally, else +inf,
  where M is the consistent mass matrix.  The rate domain is the cone
  of nonnegative fields, independent of the state.
* two-sided (``WeightedL1``), a weighted l1 density,
      value = <M w(zeta), |rate|>,
  finite everywhere.

Both satisfy a four-point Lipschitz estimate

    value(z1, e2) - value(z1, e1) + value(z2, e1) - value(z2, e2)
        <= L * ||z1 - z2||_{L2} * ||e1 - e2||_{H1}

with L = sqrt(3) times the Lipschitz constant of the weight.  The
sqrt(3) accounts for nodal interpolation of composed values against the
consistent mass matrix (taking absolute values nodally can grow the L2
norm by at most sqrt(3) on P1 elements); it is sharp on a single
element with a sign flip, and the estimate holds whenever the element
size is at most sqrt(6).

The set of admissible forces (the rate subdifferential at rate zero) is
a nodal box in the dual representation: ``phi <= M w(zeta)`` one-sided,
``|phi| <= M w(zeta)`` two-sided (``force_box``).  Projection onto that
set is metric with respect to the inverse Riesz matrix, which makes the
classical identity

    prox(force) = (1/eps) * riesz_solve(force - project(force))

hold exactly.  The two sides are independent formulations (a primal
rate problem with Hessian ``eps * R`` and a dual box projection with
Hessian ``R^{-1}``, in different unknowns), so the identity serves as
a cross-check even though both run the same box active-set routine.

The rate prox always calls the QP.  The elastic trial step of return
mapping (Simo & Hughes, *Computational Inelasticity*, 1998, ch. 3) is
decided by the implicit time loop alone: from a zero start, a force
inside the box (up to the QP tolerance) has the zero rate as its prox,
and the QP's first step would pin every coordinate there.  The exit
rule is written once, row by row (``_elastic``); the loop applies it
to whole windows of held steps (``_elastic_rows``, which assembles
their thresholds as one stack) and takes those steps without a QP
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .qp import KKT_TOL, solve_box_qp, solve_l1_qp
from .spatial import (
    DualField,
    Field,
    Mesh,
    dual_norm,
    h1_norm,
    l2_norm,
    riesz_solve,
)

__all__ = [
    "ABS_INTERP_CONST",
    "Dissipation",
    "Fatigue",
    "WeightedL1",
    "threshold_dual",
    "force_box",
    "potential",
    "check_homogeneity",
    "check_lipschitz_axiom",
    "prox_rate",
    "subdiff_zero_contains",
    "project_subdiff_zero",
    "conjugate_check",
    "Containment",
    "ConjugateReport",
]

# Norm growth of nodal absolute-value interpolation on P1 elements.
ABS_INTERP_CONST = math.sqrt(3.0)


@dataclass(eq=False)
class Dissipation:
    """Rate-independent dissipation with a state-dependent weight.

    ``weight`` maps accumulated state values to nonnegative weights and
    must be Lipschitz with constant ``lipschitz``; it is applied nodally
    and must accept numpy arrays.  ``one_sided`` restricts rates to the
    nonnegative cone; otherwise the potential is the weighted l1 norm of
    the rate; the estimates use the weight only through ``lipschitz``.
    """

    weight: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    one_sided: bool

    def __post_init__(self):
        if not (self.lipschitz >= 0 and np.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz must be finite and >= 0, got {self.lipschitz}")

    @property
    def four_point_constant(self) -> float:
        """Constant of the four-point Lipschitz estimate."""
        return ABS_INTERP_CONST * self.lipschitz


def Fatigue(weight, lipschitz: float) -> Dissipation:
    """One-sided :class:`Dissipation` (rates in the nonnegative cone)."""
    return Dissipation(weight, lipschitz, True)


def WeightedL1(weight, lipschitz: float) -> Dissipation:
    """Two-sided :class:`Dissipation` with density ``w(zeta) |rate|``."""
    return Dissipation(weight, lipschitz, False)


def threshold_dual(spec: Dissipation, mesh: Mesh, zeta: Field) -> DualField:
    """Assembled nodal weight vector ``M w(zeta)``.

    This is the dual-field threshold appearing both in the potential and
    in the box describing admissible forces.  A (m, n) stack of states
    gives a stack of thresholds, one row each, from one call of the
    weight and one band product (:meth:`~histris.spatial.SymTridiagonal.apply_rows`),
    with the bits of each row alone, whether its weight is finite or not.
    """
    zeta = np.asarray(zeta, dtype=float)
    vals = np.asarray(spec.weight(zeta), dtype=float)
    if vals.shape != zeta.shape:
        vals = np.broadcast_to(vals, zeta.shape)
    if (vals < 0).any():
        raise ValueError("dissipation weight must be nonnegative on the state")
    return mesh.mass.apply_rows(vals)


def force_box(spec: Dissipation, mesh: Mesh, zeta: Field):
    """Nodal bounds ``(lower, upper)`` of the admissible force set.

    ``upper`` is the threshold ``M w(zeta)``; ``lower`` is ``-inf`` for
    one-sided dissipation and ``-upper`` otherwise.  A dual field
    ``phi`` is an admissible force exactly when
    ``lower <= phi <= upper`` nodally.
    """
    upper = threshold_dual(spec, mesh, zeta)
    return (-np.inf if spec.one_sided else -upper), upper


def potential(spec: Dissipation, mesh: Mesh, zeta: Field, rate: Field) -> float:
    """Dissipation potential at the given accumulated state and rate.

    Returns ``inf`` for fatigue rates outside the nonnegative cone.
    """
    return float(_potential_at(spec, threshold_dual(spec, mesh, zeta), rate))


def _potential_at(spec: Dissipation, threshold: DualField, rate: Field):
    """:func:`potential` given the threshold ``M w(zeta)``; (m, n) stacks (a row
    broadcasts) give m row dots, ``inf`` where a one-sided rate is negative."""
    rate = np.asarray(rate, dtype=float)
    if not spec.one_sided:
        return np.vecdot(threshold, np.abs(rate))
    pot = np.vecdot(threshold, rate)
    if rate.min(initial=0.0) < 0.0:  # some row leaves the cone
        pot = np.where(rate.min(axis=-1, initial=0.0) < 0.0, math.inf, pot)
    return pot


def check_homogeneity(spec: Dissipation, mesh: Mesh, zeta: Field, rate: Field,
                      factors) -> float:
    """Max residual of positive 1-homogeneity over the given factors.

    Uses the convention ``0 * inf = 0``, so scaling by zero always gives
    the admissible zero rate.
    """
    base = potential(spec, mesh, zeta, rate)
    worst = 0.0
    for gamma in np.atleast_1d(np.asarray(factors, dtype=float)):
        if not 0 <= gamma < math.inf:  # NaN fails
            raise ValueError("homogeneity factors must be finite and nonnegative")
        scaled = potential(spec, mesh, zeta, gamma * np.asarray(rate, dtype=float))
        expected = 0.0 if gamma == 0.0 else gamma * base
        if math.isinf(scaled) or math.isinf(expected):
            residual = 0.0 if scaled == expected else math.inf
        else:
            residual = abs(scaled - expected)
        worst = float(np.maximum(worst, residual))  # NaN propagates
    return worst


def check_lipschitz_axiom(spec: Dissipation, mesh: Mesh, zeta1: Field,
                          zeta2: Field, rate1: Field, rate2: Field) -> float:
    """Residual of the four-point Lipschitz estimate (nonpositive when it holds).

    All four potential values must be finite; pass admissible rates.
    """
    zetas = np.array([zeta1, zeta1, zeta2, zeta2], dtype=float)
    values = _potential_at(spec, threshold_dual(spec, mesh, zetas),
                           np.array([rate2, rate1, rate1, rate2], dtype=float))
    if np.isinf(values).any():
        raise ValueError("four-point check needs admissible rates")
    lhs = values[0] - values[1] + values[2] - values[3]
    gap = l2_norm(mesh, np.asarray(zeta1, float) - np.asarray(zeta2, float))
    move = h1_norm(mesh, np.asarray(rate1, float) - np.asarray(rate2, float))
    return float(lhs - spec.four_point_constant * gap * move)


def _elastic(spec: Dissipation, force: DualField, w: DualField) -> np.ndarray:
    """The exit rule, one entry per row (the last axis) of the forces:
    whether the QP's first step from a zero start pins every coordinate
    of the row at zero and then releases none.  One-sided that is
    ``force - w <= KKT_TOL`` at every node; two-sided, ``w > 0`` and
    ``|force| - w <= KKT_TOL``.  The QP returns a +0.0 rate in one step
    there, so the time loop's runs of held steps take that without a
    QP call.
    """
    if spec.one_sided:
        return (force - w <= KKT_TOL).all(axis=-1)
    return (w > 0.0).all(axis=-1) & (np.abs(force) - w <= KKT_TOL).all(axis=-1)


def _elastic_rows(spec: Dissipation, mesh: Mesh, zeta: Field, force: DualField):
    """``(threshold, elastic)`` of (m, n) stacks of states and forces: the
    thresholds ``M w(zeta)`` from one :func:`threshold_dual` call, and
    for each row whether ``force - threshold`` is finite and the exit
    rule (:func:`_elastic`) holds.  A row that is not elastic goes to
    :func:`_prox_rate_counted` with its threshold, which raises on the
    values that are not finite."""
    w = threshold_dual(spec, mesh, zeta)
    return w, np.isfinite(force - w).all(axis=-1) & _elastic(spec, force, w)


def _finite_gap(force: DualField, w: DualField) -> np.ndarray:
    """``force - w``; :class:`NumericalFailure` if it is not finite, saying
    which is not, naming the first member (row) it hits, or none if all."""
    lin = force - w
    # Checked before any band product: a zero coupling between members
    # does not stop 0 * inf = nan from reaching the next block.
    if not np.isfinite(lin).all():
        finite = np.isfinite(lin).reshape(-1, lin.shape[-1]).all(axis=1)
        bad = [name for name, v in (("force", force), ("dissipation threshold", w))
               if not np.isfinite(v).all()]
        raise NumericalFailure(
            "non-finite " + (" and ".join(bad) or "force minus dissipation threshold"),
            member=int(np.argmin(finite)) if finite.any() else None)
    return lin


def _prox_rate_counted(spec: Dissipation, mesh: Mesh, zeta: Field,
                       force: DualField, hess, start=None, threshold=None):
    """Rate prox: argmin over rates of
    ``1/2 r'Hr - <force, r> + potential(zeta, r)``, where the prox
    Hessian ``H`` is ``eps * R`` for viscosity ``eps``.

    ``zeta``, ``force`` and ``start`` may be (B, n) stacks, one member a
    row, with ``hess`` the stack of the members' Hessians (see
    :mod:`histris.qp`); then one QP call solves every member.  A caller
    that has assembled ``threshold`` (``M w(zeta)``) passes it instead
    of ``zeta``.  Returns ``(rate, iterations, threshold)``: the
    iterations a :class:`~histris.qp.StepCount`, and the threshold, so
    callers can evaluate the potential without assembling it again.
    Raises :class:`NumericalFailure` on a force or threshold that is not
    finite, saying which, naming the first member it hits, or none when
    it hits all.  Every call solves the QP: the elastic steps that skip
    it are decided by the time loop (:func:`_elastic_rows`).
    """
    force = np.asarray(force, dtype=float)
    w = threshold_dual(spec, mesh, zeta) if threshold is None else threshold
    lin = _finite_gap(force, w)
    if spec.one_sided:
        rate, iterations = solve_box_qp(hess, lin, lower=0.0, upper=None,
                                        start=start)
    else:
        rate, iterations = solve_l1_qp(hess, force, w, start=start)
    return rate, iterations, w


def prox_rate(spec: Dissipation, mesh: Mesh, zeta: Field, force: DualField,
              eps: float, start=None) -> Field:
    """Viscosity-regularized rate response to a driving force."""
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return _prox_rate_counted(spec, mesh, zeta, force, eps * mesh.riesz,
                              start=start)[0]


@dataclass
class Containment:
    """Outcome of an admissible-force membership test."""

    ok: bool
    worst_violation: float
    worst_node: int
    violating_nodes: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def subdiff_zero_contains(spec: Dissipation, mesh: Mesh, zeta: Field,
                          candidate: DualField, tol: float = 1e-9) -> Containment:
    """Test whether a dual field is an admissible force at rate zero."""
    candidate = np.asarray(candidate, dtype=float)
    lower, upper = force_box(spec, mesh, zeta)
    slack = np.maximum(candidate - upper, lower - candidate)
    node = int(np.argmax(slack))
    worst = float(slack[node])
    return Containment(
        ok=worst <= tol,
        worst_violation=worst,
        worst_node=node,
        violating_nodes=np.flatnonzero(slack > tol),
    )


def _project_counted(spec: Dissipation, mesh: Mesh, zeta: Field,
                     omega: DualField, cold_start: bool = False):
    """:func:`project_subdiff_zero` as ``(projection, iterations,
    threshold)``, from ``omega`` clipped to the box or, with ``cold_start``,
    zero; it fails on values that are not finite as the rate prox does."""
    omega = np.asarray(omega, dtype=float)
    lower, upper = force_box(spec, mesh, zeta)
    _finite_gap(omega, upper)
    start = None if cold_start else omega
    lin = riesz_solve(mesh, omega)
    mu, iterations = solve_box_qp(mesh.riesz.inverse, lin, lower=lower, upper=upper,
                                  start=start)
    return mu, iterations, upper


def project_subdiff_zero(spec: Dissipation, mesh: Mesh, zeta: Field,
                         omega: DualField) -> DualField:
    """Metric projection of a dual field onto the admissible force set.

    The metric is the one induced by the inverse Riesz matrix, so the
    projection is the nearest admissible force in the dual H^1 norm.
    """
    return _project_counted(spec, mesh, zeta, omega)[0]


@dataclass
class ConjugateReport:
    """Check of the convex conjugate in the rate slot.

    The conjugate of a 1-homogeneous potential is the indicator of the
    admissible force set: the supremum of
    ``<omega, v> - potential(zeta, v)`` over rates is zero for members
    and unbounded otherwise.  ``sup_estimate`` is the supremum over the
    nodal rays, scaled up to ``gamma = 64`` on unit H^1 directions.
    """

    is_member: bool
    sup_estimate: float
    consistent: bool
    residual: float
    margin: float


def conjugate_check(spec: Dissipation, mesh: Mesh, zeta: Field,
                    omega: DualField) -> ConjugateReport:
    """Decide conjugate membership of ``omega`` from the nodal directions.

    ``<omega, v> - potential(zeta, v)`` is linear on each orthant of the
    rate domain, and the orthants are generated by the nodal directions
    ``e_i`` (and ``-e_i`` two-sided).  So it stays nonpositive on every
    rate exactly when it does on those rays, which are the only
    directions evaluated.  The potential is evaluated on each ray, so
    ``consistent`` compares it with the independent box test of
    :func:`subdiff_zero_contains`, both to within ``1e-6 (1 + ||omega||)``.
    A force that is not finite raises.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("conjugate check needs a finite force")
    membership = subdiff_zero_contains(spec, mesh, zeta, omega, tol=0.0)
    cutoff = 1e-6 * (1.0 + dual_norm(mesh, omega))

    threshold = threshold_dual(spec, mesh, zeta)
    signs = (1.0,) if spec.one_sided else (1.0, -1.0)
    ray = np.zeros(mesh.n_nodes)
    top = -math.inf
    for i, norm in enumerate(np.sqrt(mesh.riesz.diag)):  # ||e_i||_H1^2 = R_ii
        for sign in signs:
            ray[i] = sign
            value = sign * omega[i] - _potential_at(spec, threshold, ray)
            top = max(top, value / norm)
        ray[i] = 0.0
    sup_estimate = max(0.0, 64.0 * top)  # 0 is attained at v = 0; gamma <= 64

    numeric_member = sup_estimate <= cutoff
    consistent = (numeric_member == membership.ok) or (
        abs(membership.worst_violation) <= cutoff
    )
    residual = sup_estimate if membership.ok else 0.0
    return ConjugateReport(
        is_member=membership.ok,
        sup_estimate=float(sup_estimate),
        consistent=bool(consistent),
        residual=float(residual),
        margin=float(membership.worst_violation),
    )
