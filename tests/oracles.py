"""Independent reference results for the test suite.

Nothing in this file imports solver code: references are scalar closed
forms, direct quadrature, and exhaustive enumeration at tiny sizes.
Tests compare package output against these, never the other way round.
"""

import itertools
import math

import numpy as np


def running_max_solution(a, threshold, alpha, times):
    """Scalar rate-independent limit under a constant threshold.

    The state only moves upward when the drive touches the threshold
    from below, so u(t) = max(0, max_{s<=t}(a(s) - threshold)) / alpha,
    with the running maximum taken over the grid points.
    """
    vals = np.array([a(t) for t in times], dtype=float)
    return np.maximum.accumulate(np.maximum(vals - threshold, 0.0)) / alpha


def viscous_ramp_value(t, eps):
    """Viscous response at time t to a(t) = t, alpha = 1, zero threshold.

    With no threshold the flow is linear, eps u' + u = t, u(0) = 0,
    hence u(t) = t - eps (1 - exp(-t/eps)).
    """
    return t - eps * (1.0 - math.exp(-t / eps))


def scalar_fatigue_steps(a, weight, alpha, eps, times, y0=0.0):
    """Scalar implicit incremental scheme, solved in closed form.

    Mirrors the time stepping of a spatially constant problem with the
    trapezoid history of the state, but every increment is the
    one-dimensional threshold problem
    ``max(0, (a(t+) - alpha u - weight(zeta)) / (alpha + eps/tau))``,
    so no linear algebra or quadratic programming is involved.
    """
    times = np.asarray(times, dtype=float)
    tau = times[1] - times[0]
    u = np.zeros(len(times))
    for k in range(len(times) - 1):
        if k == 0:
            zeta = y0
        else:
            zeta = y0 + tau * (0.5 * u[0] + u[1:k].sum() + 0.5 * u[k])
        drive = a(times[k + 1]) - alpha * u[k] - weight(zeta)
        u[k + 1] = u[k] + max(0.0, drive / (alpha + eps / tau))
    return u


def convolution_history_ramp(t, y0=0.0):
    """Exact accumulated history of y(s) = s under the kernel exp(-r).

    integral_0^t exp(-(t-s)) s ds = t - 1 + exp(-t).
    """
    return y0 + t - 1.0 + math.exp(-t)


def _trapezoid_weights(k, tau):
    """Composite trapezoid weights for k steps (k+1 samples)."""
    if k == 0:
        return np.zeros(1)
    w = np.full(k + 1, tau)
    w[0] = 0.5 * tau
    w[-1] = 0.5 * tau
    return w


def history_eval(kernel, times, values, index):
    """Accumulated state ``y0 + int_0^t b(t - s) y(s) ds`` at grid time
    ``times[index]``, by the trapezoid sum over rows ``0..index`` of
    ``values`` (one state sample per row), from scratch.  ``kernel``
    supplies ``y0`` and the vectorized kernel ``b``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(index)
    if not 0 <= k < len(times):
        raise ValueError(f"index {k} outside the grid of {len(times)} times")
    if k == 0:
        return kernel.y0.copy()
    tau = times[1] - times[0]
    w = _trapezoid_weights(k, tau)
    lag = times[k] - times[: k + 1]
    return kernel.y0 + (w * np.asarray(kernel.b(lag), dtype=float)) @ values[: k + 1]


def history_derivative(kernel, times, values, index):
    """Weak time derivative ``b(0) y(t) + int_0^t b'(t - s) y(s) ds`` of
    the accumulated state at ``times[index]``, from scratch."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = int(index)
    if not 0 <= k < len(times):
        raise ValueError(f"index {k} outside the grid of {len(times)} times")
    b0 = float(np.asarray(kernel.b(np.zeros(1)), dtype=float)[0])
    out = b0 * values[k].astype(float)
    if k > 0:
        tau = times[1] - times[0]
        w = _trapezoid_weights(k, tau)
        lag = times[k] - times[: k + 1]
        out = out + (w * np.asarray(kernel.b_prime(lag), dtype=float)) @ values[: k + 1]
    return out


def soft_threshold(v, w):
    """Closed-form weighted-l1 shrinkage for an identity Hessian."""
    return np.sign(v) * np.maximum(np.abs(v) - np.asarray(w, dtype=float), 0.0)


def brute_force_box_qp(hess, lin, lower=None, upper=None):
    """Global minimum of ``0.5 x'Hx - lin'x`` on a box, by enumeration.

    Tries every lower/free/upper pattern, solves the free block exactly,
    keeps feasible candidates, returns ``(x, value)`` of the best one.
    Exponential in the dimension; intended for n <= 4.
    """
    hess = np.asarray(hess, dtype=float)
    lin = np.asarray(lin, dtype=float)
    n = len(lin)
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    best_x = None
    best_val = np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        x = np.zeros(n)
        fixed = []
        free = []
        feasible = True
        for i, p in enumerate(pattern):
            if p == -1:
                if not np.isfinite(lo[i]):
                    feasible = False
                    break
                x[i] = lo[i]
                fixed.append(i)
            elif p == 1:
                if not np.isfinite(hi[i]):
                    feasible = False
                    break
                x[i] = hi[i]
                fixed.append(i)
            else:
                free.append(i)
        if not feasible:
            continue
        if free:
            f = np.array(free)
            rhs = lin[f].copy()
            if fixed:
                b = np.array(fixed)
                rhs = rhs - hess[np.ix_(f, b)] @ x[b]
            try:
                x[f] = np.linalg.solve(hess[np.ix_(f, f)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[f] < lo[f] - 1e-12) or np.any(x[f] > hi[f] + 1e-12):
                continue
        val = 0.5 * x @ hess @ x - lin @ x
        if val < best_val:
            best_val = val
            best_x = x.copy()
    return best_x, best_val


def brute_force_l1_qp(hess, lin, weights):
    """Global minimum of ``0.5 x'Hx - lin'x + sum w_i |x_i|`` by
    sign-pattern enumeration.

    For each support/sign pattern the problem is a linear solve; the
    candidate is kept when the solved coordinates respect their signs.
    The all-zero point is always a candidate.  Exponential; n <= 4.
    """
    hess = np.asarray(hess, dtype=float)
    lin = np.asarray(lin, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(lin)

    def value(x):
        return 0.5 * x @ hess @ x - lin @ x + weights @ np.abs(x)

    best_x = np.zeros(n)
    best_val = value(best_x)
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        s = np.array(pattern, dtype=float)
        on = np.flatnonzero(s)
        if on.size == 0:
            continue
        sub = hess[np.ix_(on, on)]
        rhs = lin[on] - weights[on] * s[on]
        try:
            xf = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(xf * s[on] < 0.0):
            continue
        x = np.zeros(n)
        x[on] = xf
        val = value(x)
        if val < best_val:
            best_val = val
            best_x = x
    return best_x, best_val


def random_spd(rng, n, cond=10.0):
    """Random symmetric positive definite matrix with bounded condition."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(0.0, math.log(cond), n))
    return (q * eigs) @ q.T


class DenseHessian:
    """A dense symmetric matrix behind the Hessian protocol of the QP
    solvers: ``@`` and a dense solve with a principal block."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def __matmul__(self, x):
        return self.matrix @ x

    def solve_principal(self, idx, rhs):
        return np.linalg.solve(self.matrix[np.ix_(idx, idx)], rhs)
