"""Tests for the state-dependent dissipation potentials.

Covers the assembled threshold weights, the potential values on and off
the admissible cone, the 1-homogeneity and four-point Lipschitz axioms,
the prox/projection duality identity, brute-force agreement in low
dimension, the conjugate membership check, and input validation.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.dissipation as dissipation
from histris.dissipation import (
    ABS_INTERP_CONST,
    Containment,
    Fatigue,
    WeightedL1,
    check_homogeneity,
    check_lipschitz_axiom,
    conjugate_check,
    force_box,
    potential,
    project_subdiff_zero,
    prox_rate,
    subdiff_zero_contains,
    threshold_dual,
)
from histris.errors import NumericalFailure
from histris.qp import KKT_TOL, solve_box_qp, solve_l1_qp
from histris.spatial import build_mesh, dual_norm, h1_norm, riesz_solve
from histris.verify import smooth_fatigue

from helpers import constant_threshold
from oracles import DenseHessian, brute_force_box_qp, brute_force_l1_qp


def _smooth_weight(z):
    return 0.4 + 0.6 / (1.0 + np.asarray(z, dtype=float) ** 2)


_SMOOTH_LIPSCHITZ = 0.6 * 9.0 / (8.0 * math.sqrt(3.0))


def _weighted_l1():
    return WeightedL1(weight=_smooth_weight, lipschitz=_SMOOTH_LIPSCHITZ)


# ---------------------------------------------------------------------------
# assembled threshold weights


def test_threshold_dual_frozen_values():
    # n=3 mesh on [0,1]: mass rows are [1/6,1/12,0],[1/12,1/3,1/12],[0,1/12,1/6]
    # and the smooth weight at zeta=[0,1,2] is [1.0, 0.7, 0.52].
    mesh = build_mesh(3, 1.0)
    spec = smooth_fatigue()
    w = threshold_dual(spec, mesh, np.array([0.0, 1.0, 2.0]))
    assert_allclose(w, [0.225, 0.36, 0.145], rtol=0, atol=1e-15)


def test_threshold_dual_scalar_weight_broadcasts():
    mesh = build_mesh(5, 1.0)
    spec = Fatigue(weight=lambda z: 0.75, lipschitz=0.0)
    w = threshold_dual(spec, mesh, np.zeros(5))
    assert_allclose(w, 0.75 * mesh.mass @ np.ones(5), rtol=0, atol=1e-16)


def test_threshold_dual_uses_a_nodal_weight_as_is(monkeypatch):
    mesh = build_mesh(5, 1.0)
    spec = Fatigue(weight=lambda z: 1.0 + np.asarray(z) ** 2, lipschitz=2.0)
    zeta = np.linspace(0.0, 1.0, 5)
    want = mesh.mass @ (1.0 + zeta ** 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a weight of shape (n,) needs no broadcast")

    monkeypatch.setattr(np, "broadcast_to", refuse)
    assert_allclose(threshold_dual(spec, mesh, zeta), want, rtol=0, atol=0)


@pytest.mark.parametrize("n", [2, 17, 129])
def test_stacked_thresholds_keep_the_bits_of_each_row(monkeypatch, n):
    # A (m, n) stack, or one row, is one apply_rows call, each row with
    # the bits of M @ row.  With an infinite or NaN weight in one row no
    # 0 * inf from a neighbour reaches a finite row.  Weights of -0.0 and
    # +0.0 sit next to the row boundaries.
    mesh = build_mesh(n, 1.0)
    rng = np.random.default_rng(n)
    zeta = rng.uniform(0.0, 3.0, (40, n))
    zeta[3] = 0.0
    zeta[4] = -0.0
    zeta[5, [0, -1]] = -0.0
    spec = Fatigue(weight=lambda z: np.where(z > 9.0, np.inf, np.where(z > 8.0, np.nan, z)),
                   lipschitz=1.0)
    rows = []
    monkeypatch.setattr(type(mesh.mass), "apply_rows",
                        lambda self, vals, real=type(mesh.mass).apply_rows:
                        rows.append(len(vals)) or real(self, vals))
    for bad in (None, 9.5, 8.5):
        z = zeta.copy()
        if bad is not None:
            z[7, n // 2] = bad
        want = np.array([mesh.mass @ spec.weight(row) for row in z])
        got = threshold_dual(spec, mesh, z)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isfinite(np.delete(got, 7, axis=0)).all()
    assert rows == [40] * 3  # one apply_rows call a threshold_dual call
    single = threshold_dual(spec, mesh, zeta[0])
    assert np.array_equal(single, mesh.mass @ zeta[0]) and rows == [40] * 3 + [n]


def test_threshold_dual_rejects_negative_weight():
    mesh = build_mesh(4, 1.0)
    spec = Fatigue(weight=lambda z: np.asarray(z) - 1.0, lipschitz=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        threshold_dual(spec, mesh, np.zeros(4))


# ---------------------------------------------------------------------------
# potential values


def test_fatigue_potential_on_cone_matches_pairing():
    mesh = build_mesh(6, 1.0)
    spec = smooth_fatigue()
    rng = np.random.default_rng(7)
    zeta = rng.uniform(0.0, 2.0, 6)
    rate = np.abs(rng.standard_normal(6))
    w = threshold_dual(spec, mesh, zeta)
    assert potential(spec, mesh, zeta, rate) == pytest.approx(w @ rate, rel=1e-15)


def test_fatigue_potential_off_cone_is_infinite():
    mesh = build_mesh(4, 1.0)
    spec = constant_threshold(1.0)
    rate = np.array([0.5, -1e-12, 0.0, 2.0])
    assert potential(spec, mesh, np.zeros(4), rate) == math.inf


def test_weighted_l1_potential_uses_absolute_rate():
    mesh = build_mesh(6, 1.0)
    spec = _weighted_l1()
    rng = np.random.default_rng(8)
    zeta = rng.uniform(-1.0, 1.0, 6)
    rate = rng.standard_normal(6)
    w = threshold_dual(spec, mesh, zeta)
    value = potential(spec, mesh, zeta, rate)
    assert value == pytest.approx(w @ np.abs(rate), rel=1e-15)
    assert value == potential(spec, mesh, zeta, -rate)


def test_families_agree_on_nonnegative_rates():
    mesh = build_mesh(5, 1.0)
    fat = smooth_fatigue()
    wl1 = _weighted_l1()
    rng = np.random.default_rng(9)
    for _ in range(20):
        zeta = rng.uniform(0.0, 2.0, 5)
        rate = np.abs(rng.standard_normal(5))
        assert potential(fat, mesh, zeta, rate) == pytest.approx(
            potential(wl1, mesh, zeta, rate), rel=1e-14, abs=1e-15
        )


def test_zero_rate_costs_nothing():
    mesh = build_mesh(4, 1.0)
    for spec in (smooth_fatigue(), _weighted_l1()):
        assert potential(spec, mesh, np.ones(4), np.zeros(4)) == 0.0


# ---------------------------------------------------------------------------
# axioms: 1-homogeneity and the four-point Lipschitz estimate


def test_homogeneity_500_cases():
    mesh = build_mesh(5, 1.0)
    rng = np.random.default_rng(2024)
    specs = (smooth_fatigue(), _weighted_l1())
    worst = 0.0
    for case in range(500):
        spec = specs[case % 2]
        zeta = rng.uniform(-2.0, 2.0, 5)
        rate = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
        if spec.one_sided:
            rate = np.abs(rate)
        factors = np.concatenate(([0.0], rng.uniform(0.0, 50.0, 4)))
        worst = max(worst, check_homogeneity(spec, mesh, zeta, rate, factors))
    assert worst <= 1e-12


def test_homogeneity_handles_inadmissible_rate():
    # Scaling an inadmissible fatigue rate by gamma > 0 keeps it
    # inadmissible (inf == inf), and gamma = 0 recovers the zero rate.
    mesh = build_mesh(4, 1.0)
    spec = constant_threshold(1.0)
    rate = np.array([1.0, -0.5, 0.0, 0.2])
    assert check_homogeneity(spec, mesh, np.zeros(4), rate, [0.0, 0.5, 2.0]) == 0.0


def test_homogeneity_rejects_negative_factor():
    mesh = build_mesh(3, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        check_homogeneity(constant_threshold(), mesh, np.zeros(3), np.ones(3), [-1.0])
    # A NaN or inf factor raises too (both read 0.0), and a NaN rate gives NaN.
    for factor in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_homogeneity(constant_threshold(), mesh, np.zeros(3), np.ones(3),
                              [1.0, factor])
    rate = np.array([1.0, math.nan, 0.0])
    assert math.isnan(check_homogeneity(constant_threshold(), mesh, np.zeros(3), rate,
                                        [0.0, 2.0]))


def test_four_point_estimate_500_cases():
    mesh = build_mesh(5, 1.0)
    rng = np.random.default_rng(4096)
    specs = (smooth_fatigue(), _weighted_l1())
    worst = -math.inf
    for case in range(500):
        spec = specs[case % 2]
        zeta1 = rng.uniform(-2.0, 2.0, 5)
        zeta2 = zeta1 + rng.standard_normal(5) * rng.uniform(0.01, 2.0)
        rate1 = rng.standard_normal(5)
        rate2 = rate1 + rng.standard_normal(5) * rng.uniform(0.01, 2.0)
        if spec.one_sided:
            rate1, rate2 = np.abs(rate1), np.abs(rate2)
        worst = max(worst, check_lipschitz_axiom(spec, mesh, zeta1, zeta2, rate1, rate2))
    assert worst <= 1e-10


def test_four_point_requires_admissible_rates():
    mesh = build_mesh(4, 1.0)
    spec = constant_threshold(1.0)
    bad = np.array([1.0, -1.0, 0.0, 0.0])
    good = np.ones(4)
    with pytest.raises(ValueError, match="admissible"):
        check_lipschitz_axiom(spec, mesh, np.zeros(4), np.ones(4), bad, good)


def test_four_point_constant_is_scaled_weight_lipschitz():
    spec = Fatigue(weight=lambda z: np.full_like(z, 1.0), lipschitz=2.0)
    assert spec.four_point_constant == pytest.approx(2.0 * ABS_INTERP_CONST, rel=1e-15)
    assert _weighted_l1().four_point_constant == pytest.approx(
        ABS_INTERP_CONST * _SMOOTH_LIPSCHITZ, rel=1e-15
    )


# ---------------------------------------------------------------------------
# prox / projection duality


def test_prox_projection_identity_n8():
    # prox(force) and the dual-metric projection are computed by
    # independent solvers; the shrinkage identity ties them together.
    mesh = build_mesh(8, 1.0)
    rng = np.random.default_rng(77)
    worst = 0.0
    for spec in (smooth_fatigue(), _weighted_l1()):
        for eps in (1.0, 1e-2):
            for _ in range(25):
                zeta = rng.uniform(-1.5, 1.5, 8)
                omega = rng.standard_normal(8) * rng.uniform(0.2, 3.0)
                rate = prox_rate(spec, mesh, zeta, omega, eps)
                proj = project_subdiff_zero(spec, mesh, zeta, omega)
                via_proj = riesz_solve(mesh, omega - proj) / eps
                rel = h1_norm(mesh, rate - via_proj) / (1.0 + h1_norm(mesh, rate))
                worst = max(worst, rel)
    assert worst <= 1e-8


def test_prox_matches_brute_force_n3():
    mesh = build_mesh(3, 1.0)
    rng = np.random.default_rng(555)
    for _ in range(60):
        eps = rng.uniform(0.05, 1.5)
        zeta = rng.uniform(-1.0, 1.0, 3)
        omega = rng.standard_normal(3)
        w_fat = threshold_dual(smooth_fatigue(), mesh, zeta)
        expected, _ = brute_force_box_qp(
            eps * mesh.riesz, omega - w_fat, lower=np.zeros(3)
        )
        got = prox_rate(smooth_fatigue(), mesh, zeta, omega, eps)
        assert_allclose(got, expected, rtol=0, atol=1e-9)

        w_l1 = threshold_dual(_weighted_l1(), mesh, zeta)
        expected, _ = brute_force_l1_qp(eps * mesh.riesz, omega, w_l1)
        got = prox_rate(_weighted_l1(), mesh, zeta, omega, eps)
        assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_projection_matches_brute_force_n3():
    mesh = build_mesh(3, 1.0)
    rng = np.random.default_rng(556)
    hess = np.linalg.inv(np.asarray(mesh.riesz))
    for _ in range(60):
        zeta = rng.uniform(-1.0, 1.0, 3)
        omega = rng.standard_normal(3) * 2.0
        lin = riesz_solve(mesh, omega)
        w_fat = threshold_dual(smooth_fatigue(), mesh, zeta)
        expected, _ = brute_force_box_qp(hess, lin, upper=w_fat)
        got = project_subdiff_zero(smooth_fatigue(), mesh, zeta, omega)
        assert_allclose(got, expected, rtol=0, atol=1e-9)

        w_l1 = threshold_dual(_weighted_l1(), mesh, zeta)
        expected, _ = brute_force_box_qp(hess, lin, lower=-w_l1, upper=w_l1)
        got = project_subdiff_zero(_weighted_l1(), mesh, zeta, omega)
        assert_allclose(got, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n,length", [(2, 3.0), (2, 1.0), (3, 1.0), (9, 2.0),
                                      (33, 1.0), (65, 1.0)])
def test_projection_matches_a_dense_hessian_projection(n, length):
    # The projection's Hessian R^-1 is an inverse-band operator; the
    # same box QP with the dense inverse must give the same force.  The
    # gap is measured in the dual norm, the projection's metric: nodally
    # the dense inverse itself is off by up to cond(R) * eps (3e-12
    # relative at n = 65 against a 40-digit reference, the operator 4e-13).
    mesh = build_mesh(n, length)
    dense = DenseHessian(np.linalg.inv(np.asarray(mesh.riesz)))
    rng = np.random.default_rng(n)
    for spec in (smooth_fatigue(), _weighted_l1()):
        for _ in range(10):
            zeta = rng.uniform(-1.5, 1.5, n)
            omega = mesh.mass @ (rng.standard_normal(n) * rng.uniform(0.2, 3.0))
            lower, upper = force_box(spec, mesh, zeta)
            want, _ = solve_box_qp(dense, riesz_solve(mesh, omega), lower, upper,
                                   start=np.clip(omega, lower, upper))
            got = project_subdiff_zero(spec, mesh, zeta, omega)
            assert dual_norm(mesh, got - want) <= 1e-12 * dual_norm(mesh, want)


def test_projection_fixes_admissible_points():
    mesh = build_mesh(6, 1.0)
    spec = _weighted_l1()
    zeta = np.linspace(-1.0, 1.0, 6)
    w = threshold_dual(spec, mesh, zeta)
    inside = 0.6 * w * np.array([1, -1, 1, 1, -1, 1], dtype=float)
    assert_allclose(project_subdiff_zero(spec, mesh, zeta, inside), inside,
                    rtol=0, atol=1e-12)


def test_prox_rejects_bad_eps():
    mesh = build_mesh(3, 1.0)
    spec = constant_threshold()
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps"):
            prox_rate(spec, mesh, np.zeros(3), np.ones(3), eps)


# ---------------------------------------------------------------------------
# admissible-force membership and the conjugate check


def test_membership_reports_violating_nodes():
    mesh = build_mesh(5, 1.0)
    spec = constant_threshold(1.0)
    w = threshold_dual(spec, mesh, np.zeros(5))

    inside = subdiff_zero_contains(spec, mesh, np.zeros(5), w - 0.01)
    assert isinstance(inside, Containment)
    assert bool(inside)
    assert inside.violating_nodes.size == 0

    candidate = w.copy()
    candidate[2] += 0.3
    out = subdiff_zero_contains(spec, mesh, np.zeros(5), candidate)
    assert not out.ok
    assert out.worst_node == 2
    assert out.worst_violation == pytest.approx(0.3, rel=1e-12)
    assert_allclose(out.violating_nodes, [2])


def test_membership_is_one_sided_for_fatigue_only():
    # Strongly negative forces are admissible for the one-sided family
    # but violate the symmetric box of the weighted l1 family.
    mesh = build_mesh(4, 1.0)
    zeta = np.zeros(4)
    fat, wl1 = smooth_fatigue(), _weighted_l1()
    omega = -3.0 * threshold_dual(fat, mesh, zeta)
    assert subdiff_zero_contains(fat, mesh, zeta, omega).ok
    report = subdiff_zero_contains(wl1, mesh, zeta, omega)
    assert not report.ok
    assert report.violating_nodes.size == 4


def test_conjugate_check_member_and_nonmember():
    mesh = build_mesh(5, 1.0)
    zeta = np.linspace(0.0, 2.0, 5)
    for spec in (smooth_fatigue(), _weighted_l1()):
        w = threshold_dual(spec, mesh, zeta)
        member = conjugate_check(spec, mesh, zeta, 0.5 * w)
        assert member.is_member
        assert member.consistent
        assert member.residual <= 1e-6 * (1.0 + 1.0)

        outside = conjugate_check(spec, mesh, zeta, 2.0 * w)
        assert not outside.is_member
        assert outside.consistent
        assert outside.sup_estimate > 0.0
        assert outside.margin > 0.0

        # A NaN force is no answer (it read consistent with sup_estimate 0).
        with pytest.raises(ValueError, match="finite force"):
            conjugate_check(spec, mesh, zeta, np.full(5, math.nan))


def test_conjugate_check_consistent_on_random_forces():
    mesh = build_mesh(4, 1.0)
    rng = np.random.default_rng(31)
    for spec in (smooth_fatigue(), _weighted_l1()):
        for _ in range(25):
            zeta = rng.uniform(-1.0, 1.0, 4)
            omega = rng.standard_normal(4) * rng.uniform(0.05, 2.0)
            assert conjugate_check(spec, mesh, zeta, omega).consistent


def test_conjugate_check_flags_potential_that_disagrees_with_box(monkeypatch):
    # The ray supremum is computed from the potential, the verdict from
    # the force box; a potential with half the threshold must show up.
    import histris.dissipation as dissipation

    exact = dissipation._potential_at
    monkeypatch.setattr(dissipation, "_potential_at",
                        lambda spec, threshold, rate: exact(spec, 0.5 * threshold, rate))
    mesh = build_mesh(5, 1.0)
    zeta = np.linspace(0.0, 2.0, 5)
    for spec in (smooth_fatigue(), _weighted_l1()):
        w = threshold_dual(spec, mesh, zeta)
        report = conjugate_check(spec, mesh, zeta, 0.75 * w)
        assert report.is_member
        assert report.sup_estimate > 0.0
        assert not report.consistent


def test_conjugate_verdict_on_nodal_rays_holds_for_every_rate():
    # <omega, v> - potential(v) is linear on each orthant, so a force the
    # nodal rays accept stays below the potential on any admissible rate,
    # and a rejected force has a ray along which the gap is positive.
    mesh = build_mesh(6, 1.0)
    rng = np.random.default_rng(5)
    for spec in (smooth_fatigue(), _weighted_l1()):
        for _ in range(20):
            zeta = rng.uniform(-1.0, 1.0, 6)
            w = threshold_dual(spec, mesh, zeta)
            omega = w * rng.uniform(-1.3, 1.3, 6)
            report = conjugate_check(spec, mesh, zeta, omega)
            rates = rng.standard_normal((200, 6))
            if spec.one_sided:
                rates = np.abs(rates)
            gaps = rates @ omega - np.array(
                [potential(spec, mesh, zeta, v) for v in rates])
            if report.is_member:
                assert report.sup_estimate == 0.0
                assert gaps.max() <= 1e-12 * np.abs(w).sum()
            else:
                assert report.sup_estimate > 0.0


# ---------------------------------------------------------------------------
# convexity in the rate


def test_potential_is_convex_in_rate():
    mesh = build_mesh(5, 1.0)
    rng = np.random.default_rng(64)
    for spec in (smooth_fatigue(), _weighted_l1()):
        for _ in range(100):
            zeta = rng.uniform(-1.0, 1.0, 5)
            r1 = rng.standard_normal(5)
            r2 = rng.standard_normal(5)
            if spec.one_sided:
                r1, r2 = np.abs(r1), np.abs(r2)
            lam = rng.uniform()
            mix = potential(spec, mesh, zeta, lam * r1 + (1 - lam) * r2)
            split = lam * potential(spec, mesh, zeta, r1) \
                + (1 - lam) * potential(spec, mesh, zeta, r2)
            assert mix <= split + 1e-12


# ---------------------------------------------------------------------------
# construction validation


def test_specs_reject_bad_lipschitz():
    with pytest.raises(ValueError, match="lipschitz"):
        Fatigue(weight=lambda z: z, lipschitz=-1.0)
    with pytest.raises(ValueError, match="lipschitz"):
        WeightedL1(weight=lambda z: z, lipschitz=math.inf)


# ---------------------------------------------------------------------------
# elastic steps: the exit rule and the QP result it stands for


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("length", [1.0, 15.0])
def test_the_elastic_rule_gives_the_qp_result(family, length):
    # Whenever the rule holds, the QP called directly from a zero start
    # (None, +0.0 or -0.0 entries) returns +0.0 everywhere in one step a
    # member: the bits and count the time loop takes for an elastic step
    # without a QP call.  The prox, which always calls the QP, returns
    # them too.  A node one ulp past the tolerance breaks the rule for its
    # member only.  At length 15 the element size 3 exceeds sqrt(6): the
    # Riesz band has positive couplings and is no M-matrix.
    one_sided = family == "fatigue"
    n = 6
    mesh = build_mesh(n, length)
    assert (np.asarray(mesh.riesz)[0, 1] > 0.0) == (length == 15.0)

    # Under the weight zeta, nodes 0 and 1 get w = 0 (one-sided) or w far
    # below an ulp of the tolerance (two-sided), so their forces +-KKT_TOL
    # put the rule's left side exactly at the tolerance or its negative.
    spec = (Fatigue if one_sided else WeightedL1)(weight=lambda z: z, lipschitz=1.0)
    past_tol = np.nextafter(KKT_TOL, math.inf)
    rng = np.random.default_rng(31)
    for _ in range(30):
        for members in (1, 3):
            zeta = rng.uniform(0.0, 2.0, (members, n))
            zeta[:, :3] = 0.0 if one_sided else 1e-30
            w = threshold_dual(spec, mesh, zeta)
            force = rng.uniform(0.0, 1.0, w.shape)
            force[:, :2] = (KKT_TOL, -KKT_TOL)
            if one_sided:
                force[:, 2:] = w[:, 2:] - rng.exponential(1.0, (members, n - 2))
                assert (force - w <= KKT_TOL).all()
                assert (force[:, :2] - w[:, :2] == (KKT_TOL, -KKT_TOL)).all()
            else:
                force[:, 2:] *= w[:, 2:] * rng.choice([-1.0, 1.0], (members, n - 2))
                force[:, -1] = w[:, -1]
                assert (w > 0.0).all() and (np.abs(force) - w <= KKT_TOL).all()
                assert (np.abs(force[:, :2]) - w[:, :2] == KKT_TOL).all()
            # One more member, a copy of the first with node 0 past the tolerance.
            past = force[:1].copy()
            past[0, 0] = past_tol
            assert (np.abs(past[0, 0]) - w[0, 0]) == past_tol
            rows_w, elastic = dissipation._elastic_rows(
                spec, mesh, np.vstack([zeta, zeta[:1]]), np.vstack([force, past]))
            assert np.array_equal(rows_w[:members], w)
            assert elastic.tolist() == [True] * members + [False]
            scales = rng.uniform(0.5, 50.0, members)
            signed_zeros = np.where(rng.random(force.shape) < 0.5, -0.0, 0.0)
            for start in (None, np.zeros(force.shape), signed_zeros):
                starts = [None] * members if start is None else start
                for b in range(members):  # each member alone, through prox_rate
                    alone = prox_rate(spec, mesh, zeta[b], force[b], scales[b],
                                      start=starts[b])
                    assert not alone.any() and not np.signbit(alone).any()
                if members == 1:
                    z, f, thr = zeta[0], force[0], w[0]
                    start = None if start is None else start[0]
                    hess = scales[0] * mesh.riesz
                else:
                    z, f, thr = zeta, force, w
                    hess = mesh.riesz.stack(scales)
                if one_sided:
                    want, steps = solve_box_qp(hess, f - thr, lower=0.0, upper=None,
                                               start=start)
                else:
                    want, steps = solve_l1_qp(hess, f, thr, start=start)
                assert want.shape == f.shape
                assert not want.any() and not np.signbit(want).any()
                assert steps.per_block == (1,) * members and steps == members
                rate, count, threshold = dissipation._prox_rate_counted(
                    spec, mesh, z, f, hess, start=start)
                assert np.array_equal(rate, want) and rate.shape == want.shape
                assert not np.signbit(rate).any()
                assert count.per_block == steps.per_block and count == steps
                assert np.array_equal(threshold, thr)


def test_a_non_finite_prox_input_is_named():
    # The failure says which input is not finite and names the first
    # member it hits.
    mesh = build_mesh(5, 1.0)
    spec = Fatigue(weight=lambda z: np.where(z > 5.0, np.inf, 1.0), lipschitz=0.0)
    hess = mesh.riesz.stack([2.0, 2.0, 2.0])
    zeta, force = np.zeros((3, 5)), np.zeros((3, 5))
    cases = []
    bad_force = force.copy()
    bad_force[1, 2] = np.nan
    cases.append((zeta, bad_force, "non-finite force", 1))
    bad_zeta = zeta.copy()
    bad_zeta[2, 4] = 6.0
    cases.append((bad_zeta, force, "non-finite dissipation threshold", 2))
    cases.append((bad_zeta, bad_force, "non-finite force and dissipation threshold", 1))
    for z, f, message, member in cases:
        with pytest.raises(NumericalFailure) as exc:
            dissipation._prox_rate_counted(spec, mesh, z, f, hess)
        assert str(exc.value) == message and exc.value.member == member
