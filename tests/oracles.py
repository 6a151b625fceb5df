"""Independent reference results for the test suite.

Nothing in this file imports solver code: references are scalar closed
forms, direct quadrature, exhaustive enumeration at tiny sizes, the
step-by-step loops that the certificate's and the time loops' row
reductions replaced, and a rate prox that calls the QP on every step
(these take the package's objects as arguments).
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


def replay_per_step(scenario, traj, accumulator):
    """Step-by-step ``(rate, force, lower, upper)`` of a finished
    trajectory: the history advanced by ``accumulator`` (the package's
    accumulator class, passed in), the force box ``M w(zeta)`` and the
    viscosity-free force ``load - alpha R q`` written out, one step at a
    time."""
    mesh = scenario.mesh
    spec = scenario.dissipation
    acc = accumulator(scenario.kernel, traj.tau, traj.n_steps)
    acc.push(traj.values[0])
    for k in range(traj.n_steps):
        q_next = traj.values[k + 1]
        zeta = acc.value()
        weight = np.asarray(spec.weight(zeta), dtype=float)
        upper = mesh.mass @ np.broadcast_to(weight, zeta.shape)
        lower = -np.inf if spec.one_sided else -upper
        force = (scenario.load.value(traj.times[k + 1])
                 - scenario.alpha * (mesh.riesz @ q_next))
        yield (q_next - traj.values[k]) / traj.tau, force, lower, upper
        acc.push(q_next)


def follow_per_push(acc, values, stop):
    """``HistoryAccumulator.follow`` one ``value()`` and one ``push`` a
    sample: the histories at samples ``k..stop - 1`` of ``values``, from
    the latest one pushed, with samples ``k + 1..stop`` pushed."""
    rows = []
    for k in range(acc.n_samples - 1, stop):
        rows.append(acc.value())
        acc.push(values[k + 1])
    return np.array(rows)


def _dual_pair(w, v):
    return float(np.dot(w, v))


def _potential_at(spec, threshold, rate):
    rate = np.asarray(rate, dtype=float)
    if spec.one_sided:
        if rate.min(initial=0.0) < 0.0:
            return math.inf
        return float(threshold @ rate)
    return float(threshold @ np.abs(rate))


def certify_limit_per_step(scenario, traj, steps):
    """``(max_stability_violation, max_balance_residual)`` of the limit
    certificate, one step of ``steps`` (see :func:`replay_per_step`) at
    a time."""
    spec = scenario.dissipation
    m = scenario.mesh.lumped_mass
    stab = np.zeros(traj.n_steps)
    bal = np.zeros(traj.n_steps)
    for k, (rate, omega, lower, upper) in enumerate(steps):
        lhs = _dual_pair(omega, rate)
        rhs = _potential_at(spec, upper, rate)
        bal[k] = (
            math.inf if math.isinf(rhs)
            else abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
        )
        slack = np.maximum(omega - upper, lower - omega) / m
        stab[k] = (slack / (1.0 + np.abs(omega / m) + upper / m)).max()
    return float(stab.max(initial=0.0)), float(bal.max(initial=0.0))


def _inclusion_defects(force, rate, lower, upper):
    feas = float(np.maximum(force - upper, lower - force).max())
    on = rate != 0.0
    bound = np.where(rate > 0.0, upper, lower)[on]
    comp = float((np.abs(rate[on]) * np.abs(bound - force[on])).max(initial=0.0))
    return feas, comp


def dual_equivalence_per_step(scenario, eps, steps):
    """The residuals of the dual reading of the force inclusion, one step
    of ``steps`` (see :func:`replay_per_step`) at a time: a dict with the
    complementarity, feasibility and rate admissibility fields."""
    visc = []
    lim = []
    rate_adm = -math.inf
    one_sided = scenario.dissipation.one_sided
    for rate, force, lower, upper in steps:
        visc_force = force - eps * (scenario.mesh.riesz @ rate)
        visc.append(_inclusion_defects(visc_force, rate, lower, upper))
        lim.append(_inclusion_defects(force, rate, lower, upper))
        rate_adm = max(rate_adm, float((-rate).max()) if one_sided else 0.0)

    visc_feas, visc_comp = np.max(visc, axis=0)
    lim_feas, lim_comp = np.max(lim, axis=0)
    return {
        "viscous_complementarity": float(visc_comp),
        "viscous_feasibility": float(visc_feas),
        "limit_complementarity": float(lim_comp),
        "limit_feasibility": float(lim_feas),
        "rate_admissibility": float(rate_adm),
    }


def load_value(load, t):
    """A sum of separable load terms at time ``t``, term by term in order."""
    out = float(load.terms[0].time_profile(t)) * load.terms[0].space_dual
    for term in load.terms[1:]:
        out = out + float(term.time_profile(t)) * term.space_dual
    return out


class UnbalancedStep(Exception):
    """The balance gate of :func:`solve_levels_per_step` failed."""

    def __init__(self, step, member, residual):
        super().__init__(f"step {step}, member {member}, residual {residual!r}")
        self.step, self.member, self.residual = step, member, residual


class FailedStep(Exception):
    """The rate prox of :func:`solve_levels_per_step` raised; the prox's
    error is the cause."""

    def __init__(self, step):
        super().__init__(f"step {step}")
        self.step = step


def _report(method, eps, tau, times, balance, norms, rates, energies, iterations,
            elastic, warm_start):
    return {"method": method, "eps": eps, "tau": tau, "times": times,
            "balance_residuals": balance, "rate_h1_norms": norms,
            "dissipation_rates": rates, "energies": energies,
            "inner_iterations": iterations, "elastic_steps": elastic,
            "warm_start": warm_start}


def _elastic_members(start, rate, count):
    """For each member (row) of a stacked step: a zero start and a rate of
    +0.0 everywhere in one QP step, so the QP pins it at zero at once."""
    rate = np.atleast_2d(rate)
    started = (np.zeros(len(rate), dtype=bool) if start is None
               else np.atleast_2d(start).any(axis=1))
    return (~started & ~rate.any(axis=1) & ~np.signbit(rate).any(axis=1)
            & (np.array(count.per_block) == 1))


def solve_levels_per_step(scenario, eps_values, warm_start, prox, accumulator, tol):
    """The implicit lockstep loop with every diagnostic taken in its step.

    A step evaluates the load (:func:`load_value`), makes one ``prox``
    call (a stacked rate prox, passed in: the package's, or
    :class:`QPProx`) on all members, reduces the balance, dissipation
    rate, rate norm and energy of each member, applying the Riesz matrix
    one member at a time, and gates the balance at ``tol`` before the next
    step; a failure raises :class:`UnbalancedStep`, an error of the prox
    :class:`FailedStep`.  A member's step counts as elastic by its QP
    result (:func:`_elastic_members`), whichever prox made it.  Returns
    ``(values, report fields)`` per level.
    """
    mesh = scenario.mesh
    spec = scenario.dissipation
    alpha = scenario.alpha
    tau = scenario.tau
    n = mesh.n_nodes
    steps = scenario.n_steps
    eps = [float(e) for e in eps_values]
    members = len(eps)
    effective = [alpha + e / tau for e in eps]
    hessian = mesh.riesz.stack(effective)
    column = np.array(effective)[:, None]

    def apply(fields):  # one member at a time: no 0 * inf between members
        return np.array([mesh.riesz @ row for row in fields])

    def energies_of(q, riesz_q, load):
        return (0.5 * alpha * np.vecdot(q, riesz_q) - np.vecdot(load, q)).tolist()

    times = scenario.times()
    acc = accumulator(scenario.kernel, tau, steps)
    q = np.zeros((members, n))
    acc.push(q)
    q0, load0 = q[0], load_value(scenario.load, times[0])
    balance, rates, norms, iterations = [], [], [], []
    energies = [[0.5 * alpha * float(q0 @ (mesh.riesz @ q0)) - float(np.dot(load0, q0))]
                * members]
    load = None
    warm = None
    elastic = np.zeros(members, dtype=int)
    for k in range(steps):
        load_next = load_value(scenario.load, times[k + 1])
        riesz_q = apply(q)
        f = load_next - alpha * riesz_q
        start = warm if warm_start else None
        try:
            delta, count, threshold = prox(spec, mesh, acc.value(), f, hessian,
                                           start=start)
        except Exception as exc:
            raise FailedStep(k + 1) from exc
        elastic += _elastic_members(start, delta, count)
        rate = delta / tau
        riesz_delta = apply(delta)
        phi = f - column * riesz_delta
        pot = np.vecdot(threshold, rate if spec.one_sided else np.abs(rate))
        if spec.one_sided:
            pot = np.where(rate.min(axis=1, initial=0.0) < 0.0, math.inf, pot)
        lhs = np.vecdot(phi, rate)
        with np.errstate(invalid="ignore"):
            residual = np.abs(lhs - pot) / (1.0 + np.abs(lhs) + np.abs(pot))
        residual[np.isinf(pot)] = math.inf
        for b, r in enumerate(residual.tolist()):
            if not r <= tol:
                raise UnbalancedStep(k + 1, b, r)
        if k > 0:
            energies.append(energies_of(q, riesz_q, load))
        q = q + delta
        load = load_next
        warm = delta
        balance.append(residual.tolist())
        rates.append(pot.tolist())
        norm = np.sqrt(np.maximum(np.vecdot(delta, riesz_delta), 0.0)) / tau
        norms.append(norm.tolist())
        iterations.append(count.per_block)
        acc.push(q)
    energies.append(energies_of(q, apply(q), load))

    columns = [np.array(rows).T.copy() for rows in (balance, norms, rates, energies)]
    totals = np.array(iterations).sum(axis=0)
    values = acc.samples
    return [(values[b], _report("implicit", e, float(tau), times,
                                *(c[b] for c in columns), int(totals[b]), int(elastic[b]),
                                warm_start))
            for b, e in enumerate(eps)]


class QPProx:
    """The stacked rate prox with a QP call on every step, elastic or
    not.  The threshold assembly, both QPs and the failure type are
    passed in.

    ``calls`` counts the calls, ``elastic`` those that start from zero
    (``start`` None or all zero) and get a +0.0 rate from the QP in one
    step a member: the elastic steps.
    """

    def __init__(self, threshold_dual, solve_box_qp, solve_l1_qp, failure):
        self.threshold_dual, self.failure = threshold_dual, failure
        self.solve_box_qp, self.solve_l1_qp = solve_box_qp, solve_l1_qp
        self.calls = self.elastic = 0

    def __call__(self, spec, mesh, zeta, force, hess, start=None):
        force = np.asarray(force, dtype=float)
        w = self.threshold_dual(spec, mesh, zeta)
        lin = force - w
        if not np.isfinite(lin).all():
            finite = np.isfinite(lin).reshape(-1, mesh.n_nodes).all(axis=1)
            raise self.failure(
                "non-finite force or dissipation threshold",
                member=int(np.argmin(finite)) if finite.any() else None)
        if spec.one_sided:
            rate, iterations = self.solve_box_qp(hess, lin, lower=0.0, upper=None,
                                                 start=start)
        else:
            rate, iterations = self.solve_l1_qp(hess, force, w, start=start)
        self.calls += 1
        self.elastic += _elastic_members(start, rate, iterations).all()
        return rate, iterations, w


def solve_explicit_per_step(scenario, eps, warm_start, project, accumulator, tol):
    """The explicit projection loop with every diagnostic taken in its
    step; ``project`` is the package's counted dual projection.

    A force exactly inside its box (two-sided: with every weight
    positive) takes the zero rate in one counted iteration, without a
    ``project`` call, and counts as an elastic step.  Otherwise the rate
    is zeroed where the projection is free (strictly inside its box).
    The balance reads the force at the step's start,
    ``load(t_k) - alpha R q_k - eps R rate``, against the dissipation of
    the rate, applying the Riesz matrix one row at a time, and is gated
    at ``tol`` before the next step; a failure raises
    :class:`UnbalancedStep`.  Returns ``(values, report fields)``."""
    mesh = scenario.mesh
    spec = scenario.dissipation
    alpha = scenario.alpha
    tau = scenario.tau
    steps = scenario.n_steps
    times = scenario.times()

    def energy(t, q):
        load = load_value(scenario.load, t)
        return 0.5 * alpha * float(q @ (mesh.riesz @ q)) - float(np.dot(load, q))

    q = np.zeros(mesh.n_nodes)
    acc = accumulator(scenario.kernel, tau, steps)
    acc.push(q)
    balance, rates, norms = (np.zeros(steps) for _ in range(3))
    energies = np.zeros(steps + 1)
    energies[0] = energy(times[0], q)
    total = elastic = 0
    for k in range(steps):
        force = load_value(scenario.load, times[k]) - alpha * (mesh.riesz @ q)
        zeta = acc.value()
        w = mesh.mass @ np.broadcast_to(np.asarray(spec.weight(zeta), dtype=float),
                                        zeta.shape)
        lower = -np.inf if spec.one_sided else -w
        if ((lower <= force) & (force <= w)).all() and (spec.one_sided or (w > 0).all()):
            rate, count = np.zeros(mesh.n_nodes), 1
            elastic += 1
        else:
            mu, count, w = project(spec, mesh, zeta, force, cold_start=not warm_start)
            rate = mesh.riesz.solve(force - mu) / eps
            lower = -np.inf if spec.one_sided else -w
            rate[(lower < mu) & (mu < w)] = 0.0
        delta = tau * rate
        rate = delta / tau
        riesz_delta = mesh.riesz @ delta
        phi = force - (eps / tau) * riesz_delta
        pot = _potential_at(spec, w, rate)
        lhs = float(np.dot(phi, rate))
        residual = abs(lhs - pot) / (1.0 + abs(lhs) + abs(pot))
        if math.isinf(pot):
            residual = math.inf
        if not residual <= tol:
            raise UnbalancedStep(k + 1, 0, residual)
        q = q + delta
        balance[k], rates[k] = residual, pot
        norms[k] = math.sqrt(max(float(np.dot(delta, riesz_delta)), 0.0)) / tau
        total += count
        energies[k + 1] = energy(times[k + 1], q)
        acc.push(q)
    return acc.samples, _report("explicit", float(eps), float(tau), times, balance,
                                norms, rates, energies, total, elastic, warm_start)
