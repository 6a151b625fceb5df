import numpy as np
import pytest
from numpy.testing import assert_allclose

from histris.qp import (
    KKT_TOL,
    box_qp_kkt_residual,
    l1_qp_kkt_residual,
    solve_box_qp,
    solve_l1_qp,
)

from oracles import brute_force_box_qp, brute_force_l1_qp, random_spd, soft_threshold


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
        x, _ = solve_box_qp(hess, lin, lower, upper)
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
            x, _ = solve_box_qp(hess, lin, lower, upper)
            assert box_qp_kkt_residual(hess, lin, lower, upper, x) <= KKT_TOL


@pytest.mark.parametrize("family", ["box", "l1"])
def test_box_qp_start_point_irrelevant(rng, family):
    if family == "box":
        hess = random_spd(rng, 8)
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
        base, _ = solve_l1_qp(hess, lin, weights)
        for _ in range(5):
            start = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            wrong += np.count_nonzero(start * base < 0.0)
            x, _ = solve_l1_qp(hess, lin, weights, start=start)
            assert_allclose(x, base, atol=1e-9)
    assert wrong > 0


def test_box_qp_unconstrained_interior():
    hess = np.diag([2.0, 4.0])
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
    x, _ = solve_box_qp(hess, lin, lo, hi)
    assert_allclose(x[:3], lo[:3], atol=0.0)
    assert box_qp_kkt_residual(hess, lin, lo, hi, x) <= KKT_TOL


def test_l1_qp_matches_brute_force_at_n3(rng):
    for _ in range(200):
        hess = random_spd(rng, 3, cond=30.0)
        lin = rng.standard_normal(3) * 2.0
        weights = rng.uniform(0.0, 1.5, 3)
        weights[rng.integers(0, 3)] *= rng.integers(0, 2)  # sometimes a free coord
        x, _ = solve_l1_qp(hess, lin, weights)
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
        x, _ = solve_l1_qp(np.eye(n), lin, weights)
        assert_allclose(x, soft_threshold(lin, weights), atol=1e-10)


def test_l1_qp_kkt_residual_small(rng):
    for n in (5, 17, 40):
        for _ in range(20):
            hess = random_spd(rng, n, cond=100.0)
            lin = rng.standard_normal(n) * 3.0
            weights = rng.uniform(0.0, 2.0, n)
            x, _ = solve_l1_qp(hess, lin, weights)
            assert l1_qp_kkt_residual(hess, lin, weights, x) <= KKT_TOL


def test_l1_qp_zero_weights_reduce_to_linear_solve(rng):
    hess = random_spd(rng, 7)
    lin = rng.standard_normal(7)
    x, _ = solve_l1_qp(hess, lin, np.zeros(7))
    assert_allclose(x, np.linalg.solve(hess, lin), atol=1e-9)


def test_shape_mismatch_raises(rng):
    hess = random_spd(rng, 4)
    with pytest.raises(ValueError):
        solve_box_qp(hess, np.zeros(3))
    with pytest.raises(ValueError):
        solve_l1_qp(hess, np.zeros(4), np.ones(3))
