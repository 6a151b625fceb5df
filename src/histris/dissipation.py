"""State-dependent rate-independent dissipation potentials.

Two families are implemented, both positively 1-homogeneous and convex
in the rate, with the accumulated state entering only through a
pointwise weight:

* ``Fatigue``: a threshold weight ``kappa`` acting on one-sided rates,
      value = <M kappa(zeta), rate>   if rate >= 0 nodally, else +inf,
  where M is the consistent mass matrix.  The rate domain is the cone
  of nonnegative fields, independent of the state.
* ``WeightedL1``: a two-sided weighted l1 density,
      value = <M g(zeta), |rate|>,
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
a nodal box in the dual representation: ``phi <= M kappa(zeta)`` for
fatigue, ``|phi| <= M g(zeta)`` for the weighted l1 family.  Projection
onto that set is metric with respect to the inverse Riesz matrix, which
makes the classical identity

    prox(force) = (1/eps) * riesz_solve(force - project(force))

hold exactly.  The two sides are independent formulations (a primal
rate problem with Hessian ``eps * R`` and a dual box projection with
Hessian ``R^{-1}``, in different unknowns), so the identity serves as
a cross-check even though both run the same box active-set routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .qp import KKT_TOL, solve_box_qp, solve_l1_qp
from .spatial import (
    DualField,
    Field,
    Mesh,
    dual_norm,
    dual_pair,
    h1_norm,
    l2_norm,
    riesz_solve,
)

__all__ = [
    "ABS_INTERP_CONST",
    "Fatigue",
    "WeightedL1",
    "DissipationSpec",
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
class Fatigue:
    """One-sided dissipation with a state-dependent threshold weight.

    ``kappa`` maps accumulated state values to nonnegative thresholds
    and must be Lipschitz with constant ``lipschitz``; it is applied
    nodally and must accept numpy arrays.  ``kappa_prime`` is optional
    and only needed by experiments that probe differentiable weights.
    """

    kappa: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    kappa_prime: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (self.lipschitz >= 0 and np.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz must be finite and >= 0, got {self.lipschitz}")

    @property
    def four_point_constant(self) -> float:
        """Constant of the four-point Lipschitz estimate."""
        return ABS_INTERP_CONST * self.lipschitz

    @property
    def one_sided(self) -> bool:
        return True


@dataclass(eq=False)
class WeightedL1:
    """Two-sided weighted l1 dissipation with state-dependent weight."""

    weight: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __post_init__(self):
        if not (self.lipschitz >= 0 and np.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz must be finite and >= 0, got {self.lipschitz}")

    @property
    def four_point_constant(self) -> float:
        return ABS_INTERP_CONST * self.lipschitz

    @property
    def one_sided(self) -> bool:
        return False


DissipationSpec = Union[Fatigue, WeightedL1]


def threshold_dual(spec: DissipationSpec, mesh: Mesh, zeta: Field) -> DualField:
    """Assembled nodal weight vector ``M w(zeta)``.

    This is the dual-field threshold appearing both in the potential and
    in the box describing admissible forces.
    """
    zeta = np.asarray(zeta, dtype=float)
    weight = spec.kappa if spec.one_sided else spec.weight
    vals = np.asarray(weight(zeta), dtype=float)
    vals = np.broadcast_to(vals, (mesh.n_nodes,))
    if np.any(vals < 0):
        raise ValueError("dissipation weight must be nonnegative on the state")
    return mesh.mass @ vals


def force_box(spec: DissipationSpec, mesh: Mesh, zeta: Field):
    """Nodal bounds ``(lower, upper)`` of the admissible force set.

    ``upper`` is the threshold ``M w(zeta)``; ``lower`` is ``-inf`` for
    one-sided dissipation and ``-upper`` otherwise.  A dual field
    ``phi`` is an admissible force exactly when
    ``lower <= phi <= upper`` nodally.
    """
    upper = threshold_dual(spec, mesh, zeta)
    return (-np.inf if spec.one_sided else -upper), upper


def potential(spec: DissipationSpec, mesh: Mesh, zeta: Field, rate: Field) -> float:
    """Dissipation potential at the given accumulated state and rate.

    Returns ``inf`` for fatigue rates outside the nonnegative cone.
    """
    return _potential_at(spec, threshold_dual(spec, mesh, zeta), rate)


def _potential_at(spec: DissipationSpec, threshold: DualField, rate: Field) -> float:
    """:func:`potential` given the assembled threshold ``M w(zeta)``."""
    rate = np.asarray(rate, dtype=float)
    if spec.one_sided:
        if np.min(rate, initial=0.0) < 0.0:
            return math.inf
        return float(threshold @ rate)
    return float(threshold @ np.abs(rate))


def check_homogeneity(spec: DissipationSpec, mesh: Mesh, zeta: Field, rate: Field,
                      factors) -> float:
    """Max residual of positive 1-homogeneity over the given factors.

    Uses the convention ``0 * inf = 0``, so scaling by zero always gives
    the admissible zero rate.
    """
    base = potential(spec, mesh, zeta, rate)
    worst = 0.0
    for gamma in np.atleast_1d(np.asarray(factors, dtype=float)):
        if gamma < 0:
            raise ValueError("homogeneity factors must be nonnegative")
        scaled = potential(spec, mesh, zeta, gamma * np.asarray(rate, dtype=float))
        expected = 0.0 if gamma == 0.0 else gamma * base
        if math.isinf(scaled) or math.isinf(expected):
            residual = 0.0 if scaled == expected else math.inf
        else:
            residual = abs(scaled - expected)
        worst = max(worst, residual)
    return worst


def check_lipschitz_axiom(spec: DissipationSpec, mesh: Mesh, zeta1: Field,
                          zeta2: Field, rate1: Field, rate2: Field) -> float:
    """Residual of the four-point Lipschitz estimate (nonpositive when it holds).

    All four potential values must be finite; pass admissible rates.
    """
    values = [
        potential(spec, mesh, zeta1, rate2),
        potential(spec, mesh, zeta1, rate1),
        potential(spec, mesh, zeta2, rate1),
        potential(spec, mesh, zeta2, rate2),
    ]
    if any(math.isinf(v) for v in values):
        raise ValueError("four-point check needs admissible rates")
    lhs = values[0] - values[1] + values[2] - values[3]
    gap = l2_norm(mesh, np.asarray(zeta1, float) - np.asarray(zeta2, float))
    move = h1_norm(mesh, np.asarray(rate1, float) - np.asarray(rate2, float))
    return lhs - spec.four_point_constant * gap * move


def _prox_rate_counted(spec: DissipationSpec, mesh: Mesh, zeta: Field,
                       force: DualField, eps: float, start=None,
                       tol: float = KKT_TOL):
    """Rate prox: argmin over rates of
    ``eps/2 ||r||_H1^2 - <force, r> + potential(zeta, r)``.

    Returns ``(rate, iterations, threshold)``; the threshold
    ``M w(zeta)`` lets callers evaluate the potential without
    assembling it again.
    """
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    force = np.asarray(force, dtype=float)
    w = threshold_dual(spec, mesh, zeta)
    hess = eps * mesh.riesz
    if spec.one_sided:
        rate, iterations = solve_box_qp(hess, force - w, lower=0.0, upper=None,
                                        start=start, tol=tol)
    else:
        rate, iterations = solve_l1_qp(hess, force, w, start=start, tol=tol)
    return rate, iterations, w


def prox_rate(spec: DissipationSpec, mesh: Mesh, zeta: Field, force: DualField,
              eps: float, start=None) -> Field:
    """Viscosity-regularized rate response to a driving force."""
    return _prox_rate_counted(spec, mesh, zeta, force, eps, start=start)[0]


@dataclass
class Containment:
    """Outcome of an admissible-force membership test."""

    ok: bool
    worst_violation: float
    worst_node: int
    violating_nodes: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def subdiff_zero_contains(spec: DissipationSpec, mesh: Mesh, zeta: Field,
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


def _project_counted(spec: DissipationSpec, mesh: Mesh, zeta: Field,
                     omega: DualField, tol: float = KKT_TOL,
                     cold_start: bool = False):
    omega = np.asarray(omega, dtype=float)
    lower, upper = force_box(spec, mesh, zeta)
    start = None if cold_start else np.clip(omega, lower, upper)
    hess = mesh.riesz_inverse()
    lin = riesz_solve(mesh, omega)
    return solve_box_qp(hess, lin, lower=lower, upper=upper, start=start, tol=tol)


def project_subdiff_zero(spec: DissipationSpec, mesh: Mesh, zeta: Field,
                         omega: DualField) -> DualField:
    """Metric projection of a dual field onto the admissible force set.

    The metric is the one induced by the inverse Riesz matrix, so the
    projection is the nearest admissible force in the dual H^1 norm.
    """
    return _project_counted(spec, mesh, zeta, omega)[0]


@dataclass
class ConjugateReport:
    """Numerical check of the convex conjugate in the rate slot.

    The conjugate of a 1-homogeneous potential is the indicator of the
    admissible force set: the sampled supremum of
    ``<omega, v> - potential(zeta, v)`` must stay at zero for members
    and grow without bound otherwise.
    """

    is_member: bool
    sup_estimate: float
    consistent: bool
    residual: float
    margin: float


def conjugate_check(spec: DissipationSpec, mesh: Mesh, zeta: Field,
                    omega: DualField, n_directions: int = 32, seed: int = 0,
                    tol: float = 1e-6) -> ConjugateReport:
    omega = np.asarray(omega, dtype=float)
    membership = subdiff_zero_contains(spec, mesh, zeta, omega, tol=0.0)
    scale = 1.0 + dual_norm(mesh, omega)

    rng = np.random.default_rng(seed)
    directions = []
    eye = np.eye(mesh.n_nodes)
    for i in range(mesh.n_nodes):
        directions.append(eye[i])
        if not spec.one_sided:
            directions.append(-eye[i])
    for _ in range(max(n_directions - len(directions), 0)):
        v = rng.standard_normal(mesh.n_nodes)
        if spec.one_sided:
            v = np.abs(v)
        directions.append(v)

    sup_estimate = 0.0  # attained by the zero rate
    for v in directions:
        nv = h1_norm(mesh, v)
        if nv == 0.0:
            continue
        v = v / nv
        slope = dual_pair(omega, v) - potential(spec, mesh, zeta, v)
        for gamma in (1.0, 8.0, 64.0):
            sup_estimate = max(sup_estimate, gamma * slope)

    numeric_member = sup_estimate <= tol * scale
    consistent = (numeric_member == membership.ok) or (
        abs(membership.worst_violation) <= tol * scale
    )
    residual = sup_estimate if membership.ok else 0.0
    return ConjugateReport(
        is_member=membership.ok,
        sup_estimate=float(sup_estimate),
        consistent=bool(consistent),
        residual=float(residual),
        margin=float(membership.worst_violation),
    )
