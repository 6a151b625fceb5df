import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.qp as qp
from histris.errors import NumericalFailure
from histris.qp import (
    KKT_TOL,
    box_qp_kkt_residual,
    l1_qp_kkt_residual,
    solve_box_qp,
    solve_l1_qp,
)
from histris.spatial import build_mesh

from oracles import (
    DenseHessian,
    brute_force_box_qp,
    brute_force_l1_qp,
    random_spd,
    soft_threshold,
)


def _random_bounds(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        return None, rng.uniform(0.0, 2.0, n)                # one-sided above
    if kind == 1:
        return rng.uniform(-2.0, 0.0, n), None               # one-sided below
    if kind == 2:
        lo = rng.uniform(-2.0, 0.0, n)
        return lo, lo + rng.uniform(0.0, 3.0, n)             # box, may pinch
    lo = rng.uniform(-1.0, 1.0, n)
    return lo, lo.copy()                                     # fully pinned


def test_box_qp_matches_brute_force_at_n3(rng):
    # Exhaustive active-set enumeration is the oracle.
    for _ in range(200):
        hess = random_spd(rng, 3, cond=30.0)
        lin = rng.standard_normal(3) * 2.0
        lower, upper = _random_bounds(rng, 3)
        x, _ = solve_box_qp(DenseHessian(hess), lin, lower, upper)
        ref, ref_val = brute_force_box_qp(hess, lin, lower, upper)
        val = 0.5 * x @ hess @ x - lin @ x
        assert val <= ref_val + 1e-9
        assert_allclose(x, ref, atol=1e-9)


def test_box_qp_kkt_residual_small(rng):
    for n in (5, 17, 40):
        for _ in range(20):
            hess = random_spd(rng, n, cond=100.0)
            lin = rng.standard_normal(n) * 3.0
            lower, upper = _random_bounds(rng, n)
            x, _ = solve_box_qp(DenseHessian(hess), lin, lower, upper)
            assert box_qp_kkt_residual(hess, lin, lower, upper, x) <= KKT_TOL


@pytest.mark.parametrize("family", ["box", "l1"])
def test_box_qp_start_point_irrelevant(rng, family):
    if family == "box":
        hess = DenseHessian(random_spd(rng, 8))
        lin = rng.standard_normal(8)
        lower = np.zeros(8)
        base, _ = solve_box_qp(hess, lin, lower=lower)
        for _ in range(10):
            start = np.abs(rng.standard_normal(8)) * rng.uniform(0.1, 5.0)
            x, _ = solve_box_qp(hess, lin, lower=lower, start=start)
            assert_allclose(x, base, atol=1e-9)
        return
    # Signed starts, many of the wrong sign, on Hessians with positive
    # off-diagonal entries (not M-matrices): the sign loop has to move
    # coordinates through zero into the other orthant.
    wrong = 0
    for _ in range(20):
        n = int(rng.integers(4, 25))
        hess = random_spd(rng, n, cond=100.0)
        assert np.any(hess - np.diag(np.diag(hess)) > 0.0)
        lin = rng.standard_normal(n) * 2.0
        weights = rng.uniform(0.0, 1.5, n)
        base, _ = solve_l1_qp(DenseHessian(hess), lin, weights)
        for _ in range(5):
            start = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            wrong += np.count_nonzero(start * base < 0.0)
            x, _ = solve_l1_qp(DenseHessian(hess), lin, weights, start=start)
            assert_allclose(x, base, atol=1e-9)
    assert wrong > 0


def test_box_qp_unconstrained_interior():
    hess = DenseHessian(np.diag([2.0, 4.0]))
    lin = np.array([2.0, 4.0])
    x, _ = solve_box_qp(hess, lin, lower=np.full(2, -10.0), upper=np.full(2, 10.0))
    assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_box_qp_degenerate_equal_bounds(rng):
    # lower == upper pins coordinates exactly and must not cycle.
    hess = random_spd(rng, 6)
    lin = rng.standard_normal(6)
    lo = rng.standard_normal(6)
    hi = lo.copy()
    hi[3:] = lo[3:] + 1.0
    x, _ = solve_box_qp(DenseHessian(hess), lin, lo, hi)
    assert_allclose(x[:3], lo[:3], atol=0.0)
    assert box_qp_kkt_residual(hess, lin, lo, hi, x) <= KKT_TOL


def test_l1_qp_matches_brute_force_at_n3(rng):
    for _ in range(200):
        hess = random_spd(rng, 3, cond=30.0)
        lin = rng.standard_normal(3) * 2.0
        weights = rng.uniform(0.0, 1.5, 3)
        weights[rng.integers(0, 3)] *= rng.integers(0, 2)  # sometimes a free coord
        x, _ = solve_l1_qp(DenseHessian(hess), lin, weights)
        ref, ref_val = brute_force_l1_qp(hess, lin, weights)
        val = 0.5 * x @ hess @ x - lin @ x + weights @ np.abs(x)
        assert val <= ref_val + 1e-9
        assert_allclose(x, ref, atol=1e-8)


def test_l1_qp_identity_hessian_is_shrinkage(rng):
    # With H = I the minimizer is coordinatewise soft thresholding.
    for _ in range(50):
        n = int(rng.integers(2, 9))
        lin = rng.standard_normal(n) * 2.0
        weights = rng.uniform(0.0, 1.0, n)
        x, _ = solve_l1_qp(DenseHessian(np.eye(n)), lin, weights)
        assert_allclose(x, soft_threshold(lin, weights), atol=1e-10)


def test_l1_qp_kkt_residual_small(rng):
    for n in (5, 17, 40):
        for _ in range(20):
            hess = random_spd(rng, n, cond=100.0)
            lin = rng.standard_normal(n) * 3.0
            weights = rng.uniform(0.0, 2.0, n)
            x, _ = solve_l1_qp(DenseHessian(hess), lin, weights)
            assert l1_qp_kkt_residual(hess, lin, weights, x) <= KKT_TOL
    # A NaN entry reaches the residual, as in box_qp_kkt_residual (it read 0.0).
    x[0] = np.nan
    assert np.isnan(l1_qp_kkt_residual(hess, lin, weights, x))


def test_l1_qp_zero_weights_reduce_to_linear_solve(rng):
    hess = random_spd(rng, 7)
    lin = rng.standard_normal(7)
    x, _ = solve_l1_qp(DenseHessian(hess), lin, np.zeros(7))
    assert_allclose(x, np.linalg.solve(hess, lin), atol=1e-9)


def test_shape_mismatch_raises(rng):
    hess = DenseHessian(random_spd(rng, 4))
    with pytest.raises(ValueError):
        solve_box_qp(hess, np.zeros(3))
    with pytest.raises(ValueError):
        solve_l1_qp(hess, np.zeros(4), np.ones(3))


@pytest.mark.parametrize("n", [2, 3, 9, 33, 65])
def test_band_hessian_matches_dense_hessian(rng, n):
    # The prox Hessian eps * R as a band and as its dense matrix: both
    # solvers must return the same minimizer whichever form they get.
    mesh = build_mesh(n, length=float(rng.uniform(0.5, 2.0)))
    for _ in range(20):
        eps = 10.0 ** rng.uniform(-3.0, 1.0)
        band = eps * mesh.riesz
        dense = np.asarray(band)
        lin = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 1.0)
        lower, upper = _random_bounds(rng, n)
        start = rng.standard_normal(n) * rng.uniform(0.0, 3.0)
        for st in (None, start):
            xb, _ = solve_box_qp(band, lin, lower, upper, start=st)
            xd, _ = solve_box_qp(DenseHessian(dense), lin, lower, upper, start=st)
            scale = max(np.abs(xd).max(), 1e-300)
            assert np.abs(xb - xd).max() <= 1e-12 * scale
            assert box_qp_kkt_residual(band, lin, lower, upper, xb) <= KKT_TOL

        weights = rng.uniform(0.0, 1.5, n) * np.abs(lin).max()
        weights[rng.random(n) < 0.1] = 0.0
        for st in (None, start):
            xb, _ = solve_l1_qp(band, lin, weights, start=st)
            xd, _ = solve_l1_qp(DenseHessian(dense), lin, weights, start=st)
            scale = max(np.abs(xd).max(), 1e-300)
            assert np.abs(xb - xd).max() <= 1e-12 * scale
            assert l1_qp_kkt_residual(band, lin, weights, xb) <= KKT_TOL



def _objective(hess, lin, x):
    return 0.5 * x @ (hess @ x) - lin @ x


def _recorded_steps(monkeypatch):
    # Wrap the monotone step of histris.qp; the list grows by one
    # (objective before, objective after) pair per step.  On an l1
    # orthant the box objective is the l1 objective, and the next step
    # starts from the same point, so pairs that never rise mean the
    # objective never rises along the whole fallback.
    steps = []
    inner = qp._descend

    def recorded(hess, lin, lower, upper, x):
        out, done = inner(hess, lin, lower, upper, x)
        steps.append((_objective(hess, lin, x), _objective(hess, lin, out)))
        return out, done

    monkeypatch.setattr(qp, "_descend", recorded)
    return steps


def _never_rises(steps):
    return all(after <= before + 1e-12 * max(1.0, abs(before))
               for before, after in steps)


def _box_steps(hess, lin, lower, upper, x):
    # Steps on a fixed box until one reports done, as the box fallback.
    for _ in range(qp._cycle_cap(x.size)):
        x, done = qp._descend(hess, lin, lower, upper, x)
        if done:
            return x
    raise AssertionError("monotone steps did not finish")


def _l1_steps(hess, lin, weights, x):
    # Steps on the orthant of x, widened along every zero coordinate
    # whose gradient beats its weight, as the l1 fallback.
    unweighted = weights == 0.0
    done = False
    for _ in range(qp._cycle_cap(x.size)):
        g = lin - hess @ x
        enter = (x == 0.0) & ~unweighted & (np.abs(g) - weights > KKT_TOL)
        if done and not enter.any():
            return x
        sign = np.where(enter, np.sign(g), np.sign(x))
        lower = np.where((sign < 0.0) | unweighted, -np.inf, 0.0)
        upper = np.where((sign > 0.0) | unweighted, np.inf, 0.0)
        x, done = qp._descend(hess, lin - sign * weights, lower, upper, x)
    raise AssertionError("monotone steps did not finish")


@pytest.mark.parametrize("family", ["box", "l1"])
def test_monotone_steps_reach_the_minimizer(rng, monkeypatch, family):
    # The fallback step called directly, on Hessians that are not
    # M-matrices, from feasible starts on and off the bounds (box) and
    # from arbitrary signed starts (l1).  Every step must keep the
    # objective from rising, and the last one must stop at the global
    # minimizer with pinned coordinates exactly on their bounds.
    steps = _recorded_steps(monkeypatch)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        matrix = random_spd(rng, n, cond=10.0 ** rng.uniform(0.0, 4.0))
        hess = DenseHessian(matrix)
        lin = rng.standard_normal(n) * 2.0
        if family == "box":
            lower, upper = _random_bounds(rng, n)
            lo = np.full(n, -np.inf) if lower is None else lower
            hi = np.full(n, np.inf) if upper is None else upper
            ref, _ = brute_force_box_qp(matrix, lin, lower, upper)
            for spread in (0.5, 5.0):
                start = np.clip(rng.standard_normal(n) * spread, lo, hi)
                x = _box_steps(hess, lin, lo, hi, start)
                assert_allclose(x, ref, atol=1e-8)
                assert box_qp_kkt_residual(matrix, lin, lo, hi, x) <= KKT_TOL
                on_bound = np.isclose(ref, lo, atol=1e-8) | np.isclose(ref, hi, atol=1e-8)
                assert np.all((x == lo) | (x == hi) | ~on_bound)
        else:
            weights = rng.uniform(0.0, 1.5, n)
            weights[rng.random(n) < 0.1] = 0.0
            ref, _ = brute_force_l1_qp(matrix, lin, weights)
            for spread in (0.0, 0.5, 5.0):
                start = rng.standard_normal(n) * spread
                x = _l1_steps(hess, lin, weights, start)
                assert_allclose(x, ref, atol=1e-8)
                assert l1_qp_kkt_residual(matrix, lin, weights, x) <= KKT_TOL
                assert np.all((x == 0.0) | (np.abs(ref) > 1e-8) | (weights == 0.0))
    assert steps and _never_rises(steps)


def test_dual_projection_recovers_from_a_recurring_pinned_set(rng, monkeypatch):
    # R^-1 is not an M-matrix, so bulk pin/release steps can revisit a
    # pinned set.  Monotone steps then take over, and their result
    # must still be the projection the dense inverse gives.
    steps = _recorded_steps(monkeypatch)
    for n in (9, 17, 33, 65):
        mesh = build_mesh(n)
        inv = mesh.riesz.inverse
        dense = DenseHessian(np.linalg.inv(np.asarray(mesh.riesz)))
        wave = 1.5 * np.sin(np.linspace(0.0, 9.0, n))
        for _ in range(25):
            upper = mesh.mass @ (0.4 + 0.6 * rng.random(n))
            omega = mesh.mass @ (2.0 * rng.standard_normal(n) + wave)
            lin = mesh.riesz.solve(omega)
            for lower in (-np.inf, -upper):
                for start in (None, np.clip(omega, lower, upper)):
                    mu, _ = solve_box_qp(inv, lin, lower, upper, start=start)
                    ref, _ = solve_box_qp(dense, lin, lower, upper, start=start)
                    diff = mu - ref
                    assert diff @ (inv @ diff) <= 1e-24 * (ref @ (inv @ ref))
                    assert box_qp_kkt_residual(inv, lin, lower, upper, mu) <= KKT_TOL
    assert steps and _never_rises(steps)


# Hessians with positive off-diagonal entries (A A' + 0.05 I, A >= 0,
# rounded) on which the three-state l1 steps revisit a sign state.
_L1_CYCLES = [
    ([[1.0, 0.9, 0.4], [0.9, 1.5, 1.0], [0.4, 1.0, 0.9]],
     [-1.0, 0.8, 1.9], [0.1, 0.7, 0.5], None),
    ([[1.0, 0.9, 0.4], [0.9, 1.5, 1.0], [0.4, 1.0, 0.9]],
     [-1.0, 0.8, 1.9], [0.1, 0.7, 0.5], [-1.2, 0.2, -1.4]),
    ([[2.5, 1.2, 0.9], [1.2, 0.8, 0.3], [0.9, 0.3, 0.5]],
     [0.9, -1.8, 2.8], [1.3, 1.3, 1.4], [-2.7, -2.6, 1.3]),
    # In these two a zero coordinate must still enter after the orthant
    # step that found its face solution feasible.
    ([[1.1, 0.5, 0.8], [0.5, 0.7, 0.8], [0.8, 0.8, 1.0]],
     [2.6, -0.9, 0.5], [0.5, 1.0, 0.8], [0.8, -1.5, 0.9]),
    ([[0.6, 0.2, 0.7, 0.9], [0.2, 1.3, 1.3, 1.0], [0.7, 1.3, 1.8, 1.7],
      [0.9, 1.0, 1.7, 1.9]],
     [-1.7, -0.2, 0.8, -1.0], [0.1, 0.8, 1.0, 1.1], None),
]


@pytest.mark.parametrize("hess, lin, weights, start", _L1_CYCLES)
def test_l1_qp_recovers_from_a_recurring_sign_state(monkeypatch, hess, lin,
                                                    weights, start):
    steps = _recorded_steps(monkeypatch)
    hess, lin, weights = (np.array(a) for a in (hess, lin, weights))
    assert np.all(np.linalg.eigvalsh(hess) > 0.0)
    x, _ = solve_l1_qp(DenseHessian(hess), lin, weights, start=start)
    assert steps and _never_rises(steps)
    ref, _ = brute_force_l1_qp(hess, lin, weights)
    assert_allclose(x, ref, atol=1e-10)
    assert l1_qp_kkt_residual(hess, lin, weights, x) <= KKT_TOL


@pytest.mark.parametrize("n", [2, 3, 9, 33, 129, 257])
def test_prox_steps_on_m_matrices_never_need_the_safeguard(rng, monkeypatch, n):
    # eps * Riesz has nonpositive off-diagonal entries on these meshes.
    # Under loads of one sign in space, as in the solver's time steps,
    # the bulk steps converge from cold and warm starts, whichever way
    # the load points, without handing over to monotone steps.
    steps = _recorded_steps(monkeypatch)
    mesh = build_mesh(n)
    assert np.all(mesh.riesz.off < 0.0)
    for _ in range(10):
        hess = 10.0 ** rng.uniform(-3.0, 1.0) * mesh.riesz
        wave = np.cos(int(rng.integers(1, 6)) * np.pi * mesh.nodes)
        profile = 1.0 + rng.uniform(-0.9, 0.9) * wave
        weights = mesh.mass @ rng.uniform(0.2, 1.5, n)
        box_start = l1_start = None
        for _step in range(6):
            force = mesh.mass @ (rng.uniform(-3.0, 3.0) * profile)
            x, _ = solve_box_qp(hess, force - weights, lower=0.0, start=box_start)
            assert box_qp_kkt_residual(hess, force - weights, 0.0, None, x) <= KKT_TOL
            y, _ = solve_l1_qp(hess, force, weights, start=l1_start)
            assert l1_qp_kkt_residual(hess, force, weights, y) <= KKT_TOL
            box_start, l1_start = x, y
    assert not steps


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _counted_descends(monkeypatch):
    # The size of every monotone step's problem: in a stacked call they
    # must run on one member's block.
    sizes = []
    inner = qp._descend

    def counted(hess, lin, lower, upper, x):
        sizes.append(x.size)
        return inner(hess, lin, lower, upper, x)

    monkeypatch.setattr(qp, "_descend", counted)
    return sizes


def _assert_stacked_matches_blocks(solve, scales, band, args, starts):
    # One call on the block band against one call per block.
    stacked = band.stack(scales)
    x, count = solve(stacked, *(np.stack(a) for a in args), start=np.stack(starts))
    assert x.shape == (len(scales), band.shape[0])
    per_block = []
    for b, scale in enumerate(scales):
        xb, cb = solve(scale * band, *(a[b] for a in args), start=starts[b])
        assert _same_bits(x[b], xb)
        per_block.append(int(cb))
    assert count.per_block == tuple(per_block)
    assert int(count) == sum(per_block)
    return per_block


def test_stacked_l1_qp_matches_per_block_solves(monkeypatch):
    # A force that changes sign in space makes the three-state steps of
    # the first member recur on the M-matrix eps * R, so it hands over
    # to monotone steps while the other members, warm-started at their
    # minimizers, converge in one step.
    sizes = _counted_descends(monkeypatch)
    mesh = build_mesh(9)
    hard = np.random.default_rng(145)
    scales = [10.0 ** hard.uniform(-3.0, 1.0), 0.5, 2.0]
    wave = int(hard.integers(1, 6))
    lin = [mesh.mass @ (hard.uniform(-3.0, 3.0) * np.sin(
        wave * np.pi * mesh.nodes + hard.uniform(0.0, 6.0)))]
    weights = [mesh.mass @ hard.uniform(0.2, 1.5, 9)]
    starts = [hard.standard_normal(9)]
    for scale in scales[1:]:
        lin.append(mesh.mass @ (1.0 + np.cos(np.pi * mesh.nodes)) * 3.0 * scale)
        weights.append(mesh.mass @ np.full(9, 0.5))
        starts.append(solve_l1_qp(scale * mesh.riesz, lin[-1], weights[-1])[0])
    per_block = _assert_stacked_matches_blocks(
        solve_l1_qp, scales, mesh.riesz, (lin, weights), starts)
    assert per_block[0] > 1 and per_block[1:] == [1, 1]
    assert sizes and set(sizes) == {9}

    # A member whose sign state recurs at a step where a slower member,
    # started on the wrong side, still takes bulk steps: the recurrence
    # set over the whole state waits for the slower member.
    early = np.random.default_rng(2190)
    scales = [10.0 ** early.uniform(-3.0, 1.0), 1.0]
    wave = int(early.integers(1, 6))
    lin = [mesh.mass @ (early.uniform(-3.0, 3.0) * np.sin(
        wave * np.pi * mesh.nodes + early.uniform(0.0, 6.0))),
        mesh.mass @ (3.0 * np.sin(3.0 * np.pi * mesh.nodes))]
    weights = [mesh.mass @ early.uniform(0.2, 1.5, 9), mesh.mass @ np.full(9, 0.5)]
    starts = [early.standard_normal(9), -np.ones(9)]
    mark = len(sizes)
    per_block = _assert_stacked_matches_blocks(
        solve_l1_qp, scales, mesh.riesz, (lin, weights), starts)
    # The first member's re-solve and its own solve take the same
    # monotone steps, the second member none; the first recurs after
    # its count less those steps.
    descends = (len(sizes) - mark) // 2
    assert descends > 0 and per_block[1] > per_block[0] - descends


def test_stacked_box_qp_matches_per_block_solves(rng, monkeypatch):
    # Bulk steps on eps * R do not recur, so the test caps the bulk
    # phase of each call at one step: every member that needs a second
    # step hands over to monotone steps on its own block, and the
    # members that converge in one step do not.
    sizes = _counted_descends(monkeypatch)
    real_cap = qp._cycle_cap
    armed = []

    def cap(n):
        return 1 if armed and armed.pop() else real_cap(n)

    monkeypatch.setattr(qp, "_cycle_cap", cap)

    # Armed on every call, the re-solve of an unfinished member included.
    def armed_solve(*args, **kwargs):
        armed.append(True)
        return solve_box_qp(*args, **kwargs)

    monkeypatch.setattr(qp, "solve_box_qp", armed_solve)

    def solve(hess, lin, lower, start):
        return qp.solve_box_qp(hess, lin, lower, None, start)

    mesh = build_mesh(17)
    scales = [0.03, 0.3, 3.0, 0.003]
    force = mesh.mass @ (2.0 * np.sin(3.0 * np.pi * mesh.nodes))
    lin = [force - mesh.mass @ rng.uniform(0.2, 1.0, 17) for _ in scales]
    lower = [np.zeros(17)] * len(scales)
    # All free from a start inside the box: the first solve leaves it.
    starts = [np.ones(17), None, np.ones(17), None]
    for b in (1, 3):  # warm-started at the minimizer: one step
        starts[b] = solve_box_qp(scales[b] * mesh.riesz, lin[b], 0.0)[0]
    per_block = _assert_stacked_matches_blocks(
        solve, scales, mesh.riesz, (lin, lower), starts)
    assert per_block[1] == per_block[3] == 1
    assert per_block[0] > 1 and per_block[2] > 1
    assert sizes and set(sizes) == {17}

    # No cap, cold starts: the members finish after different numbers
    # of bulk steps, those that finish first keep stepping as fixed
    # points, and none hands over to monotone steps.
    mark = len(sizes)
    cold = [mesh.mass @ (3.0 * np.sin(k * np.pi * mesh.nodes) - 0.3) for k in (2, 3, 5, 1)]
    per_block = _assert_stacked_matches_blocks(
        solve_box_qp, scales, mesh.riesz, (cold, lower), [np.zeros(17)] * len(scales))
    assert len(set(per_block)) == len(scales) and min(per_block) > 1
    assert len(sizes) == mark


def test_stacked_qp_failure_names_its_member(monkeypatch):
    # With a cap of one step, the stacked call hands its unfinished
    # member to a solve alone, whose one monotone step does not finish:
    # that solve raises.  Members 0 and 2 start at their minimizers.
    mesh = build_mesh(17)
    scales = [0.3, 0.03, 3.0]
    lin = [mesh.mass @ (3.0 * np.sin(k * np.pi * mesh.nodes) - 0.3) for k in (2, 5, 3)]
    starts = [solve_box_qp(s * mesh.riesz, f, 0.0)[0] for s, f in zip(scales, lin)]
    starts[1] = np.zeros(17)
    sizes = _counted_descends(monkeypatch)
    monkeypatch.setattr(qp, "_cycle_cap", lambda n: 1)
    with pytest.raises(NumericalFailure, match="box qp exceeded its cycle cap") as info:
        solve_box_qp(mesh.riesz.stack(scales), np.stack(lin), 0.0, start=np.stack(starts))
    assert info.value.member == 1
    assert sizes == [17]
