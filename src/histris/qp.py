"""Quadratic programs with box or weighted-l1 structure.

Both solvers take primal-dual active-set steps (Hintermueller, Ito &
Kunisch, SIAM J. Optim. 13(3), 2002).  A step fixes which coordinates
are pinned, solves the free block directly, and then changes the
pinned set in bulk.  For the box QP, every free coordinate outside its
box is pinned at the bound it violates, and every pinned coordinate
whose multiplier has the wrong sign by more than ``KKT_TOL`` is released.
For the l1 QP, a coordinate is positive, negative or zero.  A signed
coordinate that crossed zero goes to zero, and a zero coordinate whose
gradient beats its weight takes the sign that lowers the objective.
The iteration stops when a step changes nothing.  One counted
iteration is one step, which makes one free-block solve (none when
every coordinate is pinned); the monotone fallback below counts its
steps the same way.

On an M-matrix Hessian, such as the prox Hessian ``eps * Riesz``, the
box steps converge monotonically in finitely many steps.  The inverse
of a band and general SPD matrices are not M-matrices, and there bulk
steps can cycle; the l1 steps can also cycle on an M-matrix when the
load changes sign in space.  So when a pinned set (or l1 sign state)
recurs, or bulk steps reach the cycle cap, both solvers carry on with
one monotone step on a box (More & Toraldo, SIAM J. Optim. 1(1), 1991):
a projected search along the negative gradient, one free-block solve on
the face it reaches, and a projected search towards that solution.
The box QP steps on its own box.  The l1 QP steps on the orthant of
its iterate, where the l1 term is linear, widened along every zero
coordinate whose gradient beats its weight.  No step raises the
objective, and the cycle cap on steps raises :class:`NumericalFailure`.

On return pinned coordinates sit exactly on their bound, free
coordinates come from a direct solve and lie inside the box, and the
dual feasibility margin is within ``KKT_TOL``.  A Hessian is a symmetric
positive definite operator asked for exactly two things: ``hess @ x``
and ``hess.solve_principal(idx, rhs)``, a solve with its principal
block on the free indices ``idx``.  The operators of
:mod:`~histris.spatial`, a band and the inverse of a band, answer both
in O(n).

A stacked call solves B independent QPs of size n in lockstep: ``lin``
(and every array bound, weight and start) has shape (B, n), and
``hess`` is a band on B n nodes whose diagonal blocks, the members'
Hessians, are coupled by zeros
(:meth:`~histris.spatial.SymTridiagonal.stack`).  A step makes one
free-block solve for all members.  With no couplings, a member that a
step leaves unchanged is a fixed point of every later step, so it keeps
stepping with the others and keeps its bits; its step count is one
plus the number of steps that changed it, which is the count it gets
alone.  The loop keeps one recurrence set over the whole state.  When
that state recurs, or at the cycle cap, each member the last step
still changed is solved alone: one call on its own block
(``hess.section``) from its own start, which gives exactly its result
and count.  A :class:`NumericalFailure` of that call names the member.
Inputs must be finite: a zero coupling does not stop ``0 * inf = nan``
from reaching the next block.  The bit-identity can also fail in the
sign of an exactly zero solution entry at a block boundary, where the
band's free-block solve (``dptsv``) computes ``-0.0 - 0 * x``.  The
step count comes back as a :class:`StepCount`, an ``int`` total over
the members that keeps each member's count in ``per_block``.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NumericalFailure

__all__ = [
    "KKT_TOL",
    "StepCount",
    "solve_box_qp",
    "solve_l1_qp",
    "box_qp_kkt_residual",
    "l1_qp_kkt_residual",
]

# Absolute tolerance on the nodal KKT residual.
KKT_TOL = 1e-10


class StepCount(int):
    """Steps of one QP call: the total over its members, with each
    member's count in ``per_block`` (one entry for an unstacked call)."""

    def __new__(cls, per_block):
        per_block = tuple(per_block)
        count = super().__new__(cls, sum(per_block))
        count.per_block = per_block
        return count


def _as_bound(value, shape, default: float) -> np.ndarray:
    arr = np.asarray(default if value is None else value, dtype=float)
    if arr.ndim == 0:
        out = np.empty(shape)
        out.fill(arr)
        return out
    if arr.shape != shape:
        raise ValueError(f"bound has shape {arr.shape}, expected {shape}")
    return arr


# Halvings before a projected search gives up and stays put.
_HALVINGS = 60


def _cycle_cap(n: int) -> int:
    return 10 * n + 100


def _solve_free(hess, idx, rhs, kind):
    try:
        return hess.solve_principal(idx, rhs)
    except LinAlgError as exc:
        raise NumericalFailure(f"singular free block in {kind} qp") from exc


def _solve_alone(solve, hess, moving, n, arrays, start, x, counts):
    """Solve each unfinished member of a stacked call alone: one
    ``solve`` call on its own block and arrays, from its own start.
    Writes the member's result into ``x`` and its count into
    ``counts``."""
    for b in np.flatnonzero(moving):
        part = slice(b * n, (b + 1) * n)
        try:
            x[part], counts[b] = solve(
                hess.section(part.start, part.stop), *(a[part] for a in arrays),
                start=None if start is None else start[part])
        except NumericalFailure as exc:
            exc.member = int(b)
            raise


def box_qp_kkt_residual(hess, lin, lower, upper, x) -> float:
    """Projected-gradient residual of ``min 0.5 x'Hx - lin'x`` on a box."""
    g = hess @ x - lin
    return float(np.max(np.abs(x - np.clip(x - g, lower, upper)), initial=0.0))


def solve_box_qp(hess, lin, lower=None, upper=None, start=None):
    """Minimize ``0.5 x'Hx - lin'x`` subject to ``lower <= x <= upper``.

    Returns ``(x, iterations)``, the count a :class:`StepCount`.
    Bounds may be scalars, arrays of the shape of ``lin``, or None
    (unbounded on that side).  The first pinned set holds the
    coordinates of ``start`` that sit on a bound with a multiplier of
    the right sign, and every coordinate with ``lower == upper``.  A
    recurring pinned set, or a cycle cap's worth of bulk steps, hands
    over to monotone steps from the last iterate clipped to the box.
    Raises :class:`NumericalFailure` if they exceed the cycle cap.
    """
    lin = np.asarray(lin, dtype=float)
    shape = lin.shape
    lower = _as_bound(lower, shape, -np.inf).ravel()
    upper = _as_bound(upper, shape, np.inf).ravel()
    if (lower > upper).any():
        raise ValueError("box is empty: lower > upper somewhere")
    lin = lin.ravel()
    # Coordinates with a degenerate box entry are fixed and never released.
    fixed = lower == upper

    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
    x = np.clip(np.zeros(lin.size) if start is None else start, lower, upper)
    g = hess @ x - lin
    at_lo = fixed | ((x <= lower) & (g >= -KKT_TOL))
    at_hi = (x >= upper) & (g <= KKT_TOL) & ~at_lo

    n, size = shape[-1], 1 if len(shape) == 1 else shape[0]
    counts = np.ones(size, dtype=int)
    seen = set()
    for iterations in range(1, _cycle_cap(n) + 1):
        x = np.where(at_lo, lower, np.where(at_hi, upper, x))
        free = ~(at_lo | at_hi)
        if free.any():
            idx = free.nonzero()[0]
            rhs = lin - hess @ np.where(free, 0.0, x)
            x[idx] = _solve_free(hess, idx, rhs[idx], "box")
        g = hess @ x - lin
        pin_lo = free & (x < lower)
        pin_hi = free & (x > upper)
        release = ~fixed & ((at_lo & (g < -KKT_TOL)) | (at_hi & (g > KKT_TOL)))
        changed = pin_lo | pin_hi | release
        if not changed.any():
            return x.reshape(shape), StepCount(counts.tolist() if size > 1 else (iterations,))
        at_lo = (at_lo | pin_lo) & ~release
        at_hi = (at_hi | pin_hi) & ~release
        if size > 1:
            moved = changed.reshape(size, n).any(axis=1)
            counts += moved
        state = np.packbits(at_lo).tobytes() + np.packbits(at_hi).tobytes()
        if state in seen:
            break
        seen.add(state)

    if size == 1:
        x, steps = _box_steps(hess, lin, lower, upper, x)
        return x.reshape(shape), StepCount((iterations + steps,))
    _solve_alone(solve_box_qp, hess, moved, n, (lin, lower, upper), start, x, counts)
    return x.reshape(shape), StepCount(counts.tolist())


def _box_steps(hess, lin, lower, upper, x):
    """Monotone steps from ``x`` clipped to the box; ``(x, steps)``."""
    x = np.clip(x, lower, upper)
    for steps in range(1, _cycle_cap(x.size) + 1):
        x, done = _descend(hess, lin, lower, upper, x)
        if done:
            return x, steps
    raise NumericalFailure("box qp exceeded its cycle cap",
                           residual=box_qp_kkt_residual(hess, lin, lower, upper, x))


def _descend(hess, lin, lower, upper, x):
    """One monotone step on ``min 0.5 x'Hx - lin'x`` over a box from
    the feasible point ``x`` (More & Toraldo, SIAM J. Optim. 1(1), 1991).

    A projected search along ``clip(x + t d)`` with ``d = -g``, where a
    coordinate on a bound stays put unless its multiplier is mis-signed
    by more than ``KKT_TOL``, starts at the Cauchy step ``t = d'd / d'Hd``.
    Then one free-block solve on the face the search reaches, and a
    projected search towards that solution from ``t = 1``.  Returns
    ``(x, done)``: ``done`` only when the free-block solution is
    feasible and no pinned multiplier is mis-signed by more than ``KKT_TOL``.
    """
    g = hess @ x - lin
    d = _descent_direction(x, g, lower, upper)
    if d.any():
        x, g = _search(hess, lower, upper, x, g, d, (d @ d) / (d @ (hess @ d)))
    pinned = (x <= lower) | (x >= upper)
    z = x.copy()
    if not pinned.all():
        idx = np.flatnonzero(~pinned)
        rhs = lin - hess @ np.where(pinned, x, 0.0)
        z[idx] = _solve_free(hess, idx, rhs[idx], "box")
    if np.any(z < lower) or np.any(z > upper):
        return _search(hess, lower, upper, x, g, z - x, 1.0)[0], False
    released = _descent_direction(z, hess @ z - lin, lower, upper)[pinned]
    return z, not released.any()


def _descent_direction(x, g, lower, upper):
    """``-g`` with the coordinates on a bound zeroed unless their
    multiplier is mis-signed by more than ``KKT_TOL``."""
    d = -g
    held = ((x <= lower) & (d <= KKT_TOL)) | ((x >= upper) & (d >= -KKT_TOL))
    return np.where(held, 0.0, d)


def _search(hess, lower, upper, x, g, d, t):
    """Halve ``t`` until ``y = clip(x + t d)`` lowers the objective by at
    least a quarter of the linear prediction ``g'(y - x)``.  Returns
    ``(y, gradient at y)``, or ``(x, g)`` if no ``t`` passes."""
    for _ in range(_HALVINGS):
        y = np.clip(x + t * d, lower, upper)
        s = y - x
        hs = hess @ s
        gs = g @ s
        if gs + 0.5 * (s @ hs) <= 0.25 * gs:
            return y, g + hs
        t *= 0.5
    return x, g


def l1_qp_kkt_residual(hess, lin, weights, x) -> float:
    """KKT residual of ``min 0.5 x'Hx - lin'x + sum w_i |x_i|``."""
    g = hess @ x - lin
    res = np.where(x != 0.0, np.abs(g + np.sign(x) * weights),
                   np.maximum(np.abs(g) - weights, 0.0))
    return float(np.max(res, initial=0.0))


def solve_l1_qp(hess, lin, weights, start=None):
    """Minimize ``0.5 x'Hx - lin'x + sum w_i |x_i|`` with ``w_i >= 0``.

    Returns ``(x, iterations)``, the count a :class:`StepCount`.  Once
    every coordinate's sign is fixed the l1 term is linear: signed
    coordinates solve the free block with right-hand side
    ``lin - sign * w``, zero ones are pinned at zero, and unweighted
    ones are always free.  The signs start from those of ``start``.  A
    recurring sign state, or a cycle cap's worth of bulk steps, hands
    over to monotone steps on orthants from the last iterate.
    """
    lin = np.asarray(lin, dtype=float)
    weights = np.asarray(weights, dtype=float)
    shape = lin.shape
    if weights.shape != shape:
        raise ValueError(f"weights have shape {weights.shape}, expected {shape}")
    if (weights < 0).any():
        raise ValueError("l1 weights must be nonnegative")
    lin, weights = lin.ravel(), weights.ravel()

    unweighted = weights == 0.0
    if start is not None:
        start = np.asarray(start, dtype=float).ravel()
    sign = np.zeros(lin.size) if start is None else np.sign(start)
    sign[unweighted] = 0.0

    n, size = shape[-1], 1 if len(shape) == 1 else shape[0]
    counts = np.ones(size, dtype=int)
    seen = set()
    for iterations in range(1, _cycle_cap(n) + 1):
        free = (sign != 0.0) | unweighted
        x = np.zeros(lin.size)
        if free.any():
            idx = free.nonzero()[0]
            x[idx] = _solve_free(hess, idx, (lin - sign * weights)[idx], "l1")
        g = lin - hess @ x
        crossed = sign * x < 0.0
        enter = ~free & (np.abs(g) - weights > KKT_TOL)
        changed = crossed | enter
        if not changed.any():
            return x.reshape(shape), StepCount(counts.tolist() if size > 1 else (iterations,))
        sign[crossed] = 0.0
        sign[enter] = np.sign(g[enter])
        if size > 1:
            moved = changed.reshape(size, n).any(axis=1)
            counts += moved
        state = sign.astype(np.int8).tobytes()
        if state in seen:
            break
        seen.add(state)

    if size == 1:
        x, steps = _l1_steps(hess, lin, weights, x)
        return x.reshape(shape), StepCount((iterations + steps,))
    _solve_alone(solve_l1_qp, hess, moved, n, (lin, weights), start, x, counts)
    return x.reshape(shape), StepCount(counts.tolist())


def _l1_steps(hess, lin, weights, x):
    """Monotone steps on orthants from ``x``; ``(x, steps)``."""
    unweighted = weights == 0.0
    done = False
    for steps in range(_cycle_cap(x.size) + 1):
        g = lin - hess @ x
        enter = (x == 0.0) & ~unweighted & (np.abs(g) - weights > KKT_TOL)
        if done and not enter.any():
            return x, steps
        # The orthant of x, widened along the entering coordinates.
        sign = np.where(enter, np.sign(g), np.sign(x))
        lower = np.where((sign < 0.0) | unweighted, -np.inf, 0.0)
        upper = np.where((sign > 0.0) | unweighted, np.inf, 0.0)
        x, done = _descend(hess, lin - sign * weights, lower, upper, x)
    raise NumericalFailure("l1 qp exceeded its cycle cap",
                           residual=l1_qp_kkt_residual(hess, lin, weights, x))
