"""Dense quadratic programs with box or weighted-l1 structure.

One active-set routine, :func:`solve_box_qp`, does the work: a few
projected-gradient steps with Barzilai-Borwein lengths settle the
active pattern (warm starts from the previous time step make them
nearly free), then a direct solve on the free coordinates, a walk back
to the box one blocking bound at a time, and the release of the worst
mis-signed multiplier, repeated.  :func:`solve_l1_qp` fixes a sign per
coordinate, which makes the l1 term linear, and solves the resulting
box QPs until no sign needs to change.

On return pinned coordinates sit exactly on their bound, free
gradients come from a direct solve, and the dual feasibility margin is
within ``tol``.  Hessians are dense and symmetric positive definite.
"""

from __future__ import annotations

import numpy as np

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


def box_qp_kkt_residual(hess, lin, lower, upper, x) -> float:
    """Projected-gradient residual of ``min 0.5 x'Hx - lin'x`` on a box."""
    g = hess @ x - lin
    return float(np.max(np.abs(x - np.clip(x - g, lower, upper)), initial=0.0))


def solve_box_qp(hess, lin, lower=None, upper=None, start=None, tol=KKT_TOL):
    """Minimize ``0.5 x'Hx - lin'x`` subject to ``lower <= x <= upper``.

    Returns ``(x, iterations)``.  Bounds may be scalars, arrays, or None
    (unbounded on that side).  Raises :class:`NumericalFailure` if the
    active-set phase exceeds its cycle cap.
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
    iterations = 0

    gersh = float(np.abs(hess).sum(axis=1).max())
    if gersh <= 0.0:
        raise ValueError("hessian is zero")
    step = 1.0 / gersh

    # Phase 1: projected gradient with BB step lengths.
    g = hess @ x - lin
    for _ in range(3):
        x_new = np.clip(x - step * g, lower, upper)
        s = x_new - x
        if not s.any():
            break
        g_new = hess @ x_new - lin
        sy = float(s @ (g_new - g))
        if sy > 0.0:
            step = min(max(float(s @ s) / sy, 0.01 / gersh), 1e6 / gersh)
        x, g = x_new, g_new
        iterations += 1

    at_lo = x <= lower
    at_hi = (x >= upper) & ~at_lo

    worst = np.inf
    for _ in range(10 * n + 100):
        iterations += 1
        # Exact solve on the free block, pinning blockers one at a time.
        for _inner in range(n + 1):
            x = np.where(at_lo, lower, np.where(at_hi, upper, x))
            free = ~(at_lo | at_hi)
            if not free.any():
                break
            idx = np.flatnonzero(free)
            pinned = np.flatnonzero(~free)
            rhs = lin[idx]
            if pinned.size:
                rhs = rhs - hess[np.ix_(idx, pinned)] @ x[pinned]
            try:
                z = np.linalg.solve(hess[np.ix_(idx, idx)], rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure("singular free block in box qp") from exc
            below = z < lower[idx]
            above = z > upper[idx]
            if not below.any() and not above.any():
                x[idx] = z
                break
            # Step from x towards z until the first bound blocks.
            d = z - x[idx]
            alpha = 1.0
            block = -1
            block_low = True
            for j in np.flatnonzero(below | above):
                dj = d[j]
                if dj == 0.0:
                    continue
                bound = lower[idx[j]] if dj < 0.0 else upper[idx[j]]
                a = (bound - x[idx[j]]) / dj
                if a < alpha:
                    alpha = max(a, 0.0)
                    block = idx[j]
                    block_low = dj < 0.0
            if block < 0:
                x[idx] = np.clip(z, lower[idx], upper[idx])
                break
            x[idx] = x[idx] + alpha * d
            if block_low:
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
            return x, iterations
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
    the l1 term is linear, so each pass solves the box QP of one sign
    pattern (orthant): coordinates of sign +1 range over ``[0, inf)``,
    of sign -1 over ``(-inf, 0]``, of sign 0 are pinned at zero, and
    unweighted ones are free.  The pattern starts from the signs of
    ``start``.  Every zero coordinate whose gradient beats its weight
    then takes the sign that lowers the objective, and the pass repeats
    until none does.  Each such change strictly lowers the objective,
    so no pattern recurs.
    """
    lin = np.asarray(lin, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = lin.shape[0]
    if weights.shape != (n,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({n},)")
    if np.any(weights < 0):
        raise ValueError("l1 weights must be nonnegative")

    x = np.zeros(n) if start is None else np.asarray(start, dtype=float)
    sign = np.sign(x)
    unweighted = weights == 0.0
    iterations = 0
    worst = np.inf
    for _ in range(10 * n + 100):
        lower = np.where((sign < 0.0) | unweighted, -np.inf, 0.0)
        upper = np.where((sign > 0.0) | unweighted, np.inf, 0.0)
        x, inner = solve_box_qp(hess, lin - sign * weights, lower, upper,
                                start=x, tol=tol)
        iterations += inner
        g = hess @ x - lin
        at_zero = (x == 0.0) & ~unweighted
        excess = np.where(at_zero, np.abs(g) - weights, -np.inf)
        flips = excess > tol
        if not flips.any():
            return x, iterations
        worst = float(excess.max())
        sign = np.where(at_zero, 0.0, sign)
        sign[flips] = -np.sign(g[flips])

    raise NumericalFailure("l1 qp exceeded its cycle cap", residual=worst)
