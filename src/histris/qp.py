"""Quadratic programs with box or weighted-l1 structure.

Both solvers take primal-dual active-set steps (Hintermueller, Ito &
Kunisch, SIAM J. Optim. 13(3), 2002).  A step fixes which coordinates
are pinned, solves the free block directly, and then changes the
pinned set in bulk.  For the box QP, every free coordinate outside its
box is pinned at the bound it violates, and every pinned coordinate
whose multiplier has the wrong sign by more than ``tol`` is released.
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
recurs, or bulk steps reach the cycle cap, the solver carries on with
monotone steps instead.  The box QP pins the first blocking bound on
the way to each free-block solution and releases the worst mis-signed
multiplier.  The l1 QP solves the box QP of one sign pattern at a
time.  Both strictly lower the objective, so no set recurs, and their
cycle cap raises :class:`NumericalFailure`.

On return pinned coordinates sit exactly on their bound, free
coordinates come from a direct solve and lie inside the box, and the
dual feasibility margin is within ``tol``.  A Hessian is a symmetric
positive definite operator asked for exactly two things: ``hess @ x``
and ``hess.solve_principal(idx, rhs)``, a solve with its principal
block on the free indices ``idx``.  The operators of
:mod:`~histris.spatial`, a band and the inverse of a band, answer both
in O(n).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NumericalFailure

__all__ = ["KKT_TOL", "solve_box_qp", "solve_l1_qp", "box_qp_kkt_residual", "l1_qp_kkt_residual"]

# Absolute tolerance on the nodal KKT residual.
KKT_TOL = 1e-10


def _as_bound(value, n: int, default: float) -> np.ndarray:
    if value is None:
        return np.full(n, default)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"bound has shape {arr.shape}, expected ({n},)")
    return arr.copy()


def _cycle_cap(n: int) -> int:
    return 10 * n + 100


def _solve_free(hess, idx, rhs, kind):
    try:
        return hess.solve_principal(idx, rhs)
    except LinAlgError as exc:
        raise NumericalFailure(f"singular free block in {kind} qp") from exc


def box_qp_kkt_residual(hess, lin, lower, upper, x) -> float:
    """Projected-gradient residual of ``min 0.5 x'Hx - lin'x`` on a box."""
    g = hess @ x - lin
    return float(np.max(np.abs(x - np.clip(x - g, lower, upper)), initial=0.0))


def solve_box_qp(hess, lin, lower=None, upper=None, start=None, tol=KKT_TOL):
    """Minimize ``0.5 x'Hx - lin'x`` subject to ``lower <= x <= upper``.

    Returns ``(x, iterations)``.  Bounds may be scalars, arrays, or None
    (unbounded on that side).  The first pinned set holds the
    coordinates of ``start`` that sit on a bound with a multiplier of
    the right sign, and every coordinate with ``lower == upper``.  A
    recurring pinned set, or a cycle cap's worth of bulk steps, hands
    over to the monotone walk from the last iterate clipped to the box.
    Raises :class:`NumericalFailure` if the walk exceeds its cycle cap.
    """
    lin = np.asarray(lin, dtype=float)
    n = lin.shape[0]
    lower = _as_bound(lower, n, -np.inf)
    upper = _as_bound(upper, n, np.inf)
    if np.any(lower > upper):
        raise ValueError("box is empty: lower > upper somewhere")
    # Coordinates with a degenerate box entry are fixed and never released.
    fixed = lower == upper

    x = np.zeros(n) if start is None else np.asarray(start, dtype=float).copy()
    x = np.clip(x, lower, upper)
    g = hess @ x - lin
    at_lo = fixed | ((x <= lower) & (g >= -tol))
    at_hi = (x >= upper) & (g <= tol) & ~at_lo

    seen = set()
    for iterations in range(1, _cycle_cap(n) + 1):
        x = np.where(at_lo, lower, np.where(at_hi, upper, x))
        free = ~(at_lo | at_hi)
        if free.any():
            idx = np.flatnonzero(free)
            rhs = lin - hess @ np.where(free, 0.0, x)
            x[idx] = _solve_free(hess, idx, rhs[idx], "box")
        g = hess @ x - lin
        pin_lo = free & (x < lower)
        pin_hi = free & (x > upper)
        release = ~fixed & ((at_lo & (g < -tol)) | (at_hi & (g > tol)))
        if not (pin_lo.any() or pin_hi.any() or release.any()):
            return x, iterations
        at_lo = (at_lo | pin_lo) & ~release
        at_hi = (at_hi | pin_hi) & ~release
        state = np.packbits(at_lo).tobytes() + np.packbits(at_hi).tobytes()
        if state in seen:
            break
        seen.add(state)

    x, walked = _monotone_box(hess, lin, lower, upper, fixed,
                              np.clip(x, lower, upper), tol)
    return x, iterations + walked


def _monotone_box(hess, lin, lower, upper, fixed, x, tol):
    """Active-set walk from the feasible point ``x`` that lowers the
    objective at every step: each free-block solve is followed towards
    its solution until the first bound blocks, that bound is pinned,
    and once the free-block solution is feasible the worst mis-signed
    multiplier is released.  Returns ``(x, solves)``."""
    n = x.size
    at_lo = x <= lower
    at_hi = (x >= upper) & ~at_lo
    solves = 0
    worst = np.inf
    for _ in range(_cycle_cap(n)):
        for _inner in range(n + 1):
            solves += 1
            x = np.where(at_lo, lower, np.where(at_hi, upper, x))
            free = ~(at_lo | at_hi)
            if not free.any():
                break
            idx = np.flatnonzero(free)
            rhs = lin - hess @ np.where(free, 0.0, x)
            z = _solve_free(hess, idx, rhs[idx], "box")
            below = z < lower[idx]
            above = z > upper[idx]
            if not below.any() and not above.any():
                x[idx] = z
                break
            # Step from x towards z until the first bound blocks.
            d = z - x[idx]
            cand = np.flatnonzero((below | above) & (d != 0.0))
            dc = d[cand]
            bound = np.where(dc < 0.0, lower[idx[cand]], upper[idx[cand]])
            steps = (bound - x[idx[cand]]) / dc
            first = int(np.argmin(steps)) if cand.size else -1
            if first < 0 or not steps[first] < 1.0:
                x[idx] = np.clip(z, lower[idx], upper[idx])
                break
            alpha = max(float(steps[first]), 0.0)
            block = idx[cand[first]]
            x[idx] = x[idx] + alpha * d
            if dc[first] < 0.0:
                at_lo[block] = True
                x[block] = lower[block]
            else:
                at_hi[block] = True
                x[block] = upper[block]

        g = hess @ x - lin
        release_lo = np.where(at_lo, -g, -np.inf)
        release_hi = np.where(at_hi, g, -np.inf)
        score = np.where(fixed, -np.inf, np.maximum(release_lo, release_hi))
        worst = float(score.max(initial=-np.inf))
        if worst <= tol:
            return x, solves
        k = int(np.argmax(score))
        at_lo[k] = False
        at_hi[k] = False

    raise NumericalFailure("box qp exceeded its cycle cap", residual=worst)


def l1_qp_kkt_residual(hess, lin, weights, x) -> float:
    """KKT residual of ``min 0.5 x'Hx - lin'x + sum w_i |x_i|``."""
    g = hess @ x - lin
    on = x != 0.0
    res_on = np.abs(g + np.sign(x) * weights)[on]
    res_off = np.maximum(np.abs(g) - weights, 0.0)[~on]
    out = 0.0
    if res_on.size:
        out = max(out, float(res_on.max()))
    if res_off.size:
        out = max(out, float(res_off.max()))
    return out


def solve_l1_qp(hess, lin, weights, start=None, tol=KKT_TOL):
    """Minimize ``0.5 x'Hx - lin'x + sum w_i |x_i|`` with ``w_i >= 0``.

    Returns ``(x, iterations)``.  Once every coordinate's sign is fixed
    the l1 term is linear: signed coordinates solve the free block with
    right-hand side ``lin - sign * w``, zero ones are pinned at zero,
    and unweighted ones are always free.  The signs start from those of
    ``start``.  A recurring sign state, or a cycle cap's worth of bulk
    steps, hands over to the monotone sign-pattern walk from the last
    iterate.
    """
    lin = np.asarray(lin, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = lin.shape[0]
    if weights.shape != (n,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({n},)")
    if np.any(weights < 0):
        raise ValueError("l1 weights must be nonnegative")

    unweighted = weights == 0.0
    sign = np.zeros(n) if start is None else np.sign(np.asarray(start, dtype=float))
    sign[unweighted] = 0.0

    seen = set()
    for iterations in range(1, _cycle_cap(n) + 1):
        free = (sign != 0.0) | unweighted
        x = np.zeros(n)
        if free.any():
            idx = np.flatnonzero(free)
            x[idx] = _solve_free(hess, idx, (lin - sign * weights)[idx], "l1")
        g = lin - hess @ x
        crossed = sign * x < 0.0
        enter = ~free & (np.abs(g) - weights > tol)
        if not (crossed.any() or enter.any()):
            return x, iterations
        sign[crossed] = 0.0
        sign[enter] = np.sign(g[enter])
        state = sign.astype(np.int8).tobytes()
        if state in seen:
            break
        seen.add(state)

    x, passes = _sign_loop(hess, lin, weights, x, tol)
    return x, iterations + passes


def _sign_loop(hess, lin, weights, x, tol):
    """Sign-pattern walk from ``x`` that lowers the objective at every
    pass.

    Each pass solves the box QP of one sign pattern (orthant), starting
    from the signs of ``x``: coordinates of sign +1 range over
    ``[0, inf)``, of sign -1 over ``(-inf, 0]``, of sign 0 are pinned at
    zero, and unweighted ones are free.  Every zero coordinate whose
    gradient beats its weight then takes the sign that lowers the
    objective, and the pass repeats until none does.  Each such change
    strictly lowers the objective, so no pattern recurs.  Returns
    ``(x, solves)``.
    """
    n = x.size
    sign = np.sign(x)
    unweighted = weights == 0.0
    solves = 0
    worst = np.inf
    for _ in range(_cycle_cap(n)):
        lower = np.where((sign < 0.0) | unweighted, -np.inf, 0.0)
        upper = np.where((sign > 0.0) | unweighted, np.inf, 0.0)
        x, inner = solve_box_qp(hess, lin - sign * weights, lower, upper,
                                start=x, tol=tol)
        solves += inner
        g = hess @ x - lin
        at_zero = (x == 0.0) & ~unweighted
        excess = np.where(at_zero, np.abs(g) - weights, -np.inf)
        flips = excess > tol
        if not flips.any():
            return x, solves
        worst = float(excess.max())
        sign = np.where(at_zero, 0.0, sign)
        sign[flips] = -np.sign(g[flips])

    raise NumericalFailure("l1 qp exceeded its cycle cap", residual=worst)
