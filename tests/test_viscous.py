"""Tests for loads, scenarios, and the viscous incremental solver.

Covers load evaluation and derivatives, tabulated loads, scenario
validation, the single implicit step (force balance, stick/slip, the
closed-form spatially constant increment), the analytic viscous ramp,
implicit/explicit agreement, warm-start irrelevance, and the sampled
one-sided force inequality.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from histris.dissipation import WeightedL1, potential
from histris.errors import NumericalFailure
from histris.history import identity_kernel
from histris.spatial import build_mesh, dual_pair, h1_norm
from histris.trajectory import c_norm_diff
from histris.viscous import (
    BALANCE_TOL,
    Load,
    LoadTerm,
    Scenario,
    TabulatedLoad,
    constant_in_space_load,
    driving_force,
    energy,
    expression_load,
    solve_viscous,
    viscous_step,
)

from helpers import constant_threshold, scalar_scenario
from oracles import viscous_ramp_value


# ---------------------------------------------------------------------------
# loads


def test_load_analytic_derivative_matches_finite_differences():
    mesh = build_mesh(4, 1.0)
    with_deriv = constant_in_space_load(
        mesh, lambda t: math.sin(3.0 * t), lambda t: 3.0 * math.cos(3.0 * t)
    )
    without = constant_in_space_load(mesh, lambda t: math.sin(3.0 * t))
    for t in (0.0, 0.37, 0.9):
        assert_allclose(with_deriv.derivative(t), without.derivative(t),
                        rtol=0, atol=1e-8)
        assert_allclose(with_deriv.value(t), without.value(t), rtol=0, atol=0)


def test_load_sums_terms_and_scales():
    mesh = build_mesh(4, 1.0)
    dual = mesh.mass @ np.ones(4)
    load = Load([
        LoadTerm(lambda t: t, dual, lambda t: 1.0),
        LoadTerm(lambda t: t ** 2, 2.0 * dual, lambda t: 2.0 * t),
    ])
    t = 0.5
    assert_allclose(load.value(t), (t + 2.0 * t ** 2) * dual, rtol=1e-15)
    assert_allclose(load.derivative(t), (1.0 + 4.0 * t) * dual, rtol=1e-15)
    doubled = load.scaled(2.0)
    assert_allclose(doubled.value(t), 2.0 * load.value(t), rtol=1e-15)
    assert_allclose(doubled.derivative(t), 2.0 * load.derivative(t), rtol=1e-15)


def test_load_requires_terms():
    with pytest.raises(ValueError, match="at least one term"):
        Load([])


def test_expression_load_derivative_fallback():
    mesh = build_mesh(5, 1.0)
    load = expression_load(mesh, "sin(2*pi*t)")
    expected = 2.0 * math.pi * math.cos(2.0 * math.pi * 0.3) * (mesh.mass @ np.ones(5))
    assert_allclose(load.derivative(0.3), expected, rtol=0, atol=1e-7)


def test_tabulated_load_interpolates_linearly():
    times = [0.0, 0.5, 1.0]
    rows = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 0.0]])
    load = TabulatedLoad(times, rows)
    assert_allclose(load.value(0.25), [0.5, 1.0], rtol=0, atol=1e-15)
    assert_allclose(load.value(-1.0), rows[0], rtol=0, atol=0)
    assert_allclose(load.value(2.0), rows[-1], rtol=0, atol=0)
    assert_allclose(load.derivative(0.25), [2.0, 4.0], rtol=0, atol=1e-14)
    assert_allclose(load.derivative(0.75), [0.0, -4.0], rtol=0, atol=1e-14)
    assert_allclose(load.derivative(1.5), [0.0, 0.0], rtol=0, atol=0)


def test_tabulated_load_validation():
    with pytest.raises(ValueError, match="two sample times"):
        TabulatedLoad([0.0], [[1.0]])
    with pytest.raises(ValueError, match="strictly increase"):
        TabulatedLoad([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="samples"):
        TabulatedLoad([0.0, 1.0], [[1.0], [2.0], [3.0]])


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_validation_messages():
    mesh = build_mesh(4, 1.0)
    load = constant_in_space_load(mesh, lambda t: t)
    good = dict(mesh=mesh, alpha=1.0, load=load,
                kernel=identity_kernel(np.zeros(4)),
                dissipation=constant_threshold(), horizon=1.0, n_steps=10)
    Scenario(**good)
    with pytest.raises(ValueError, match="alpha"):
        Scenario(**{**good, "alpha": -1.0})
    with pytest.raises(ValueError, match="horizon"):
        Scenario(**{**good, "horizon": 0.0})
    with pytest.raises(ValueError, match="n_steps"):
        Scenario(**{**good, "n_steps": 0})
    with pytest.raises(ValueError, match="nodes"):
        Scenario(**{**good, "kernel": identity_kernel(np.zeros(3))})


def test_scenario_grid_helpers():
    sc = scalar_scenario(lambda t: t, n_steps=4, horizon=2.0)
    assert sc.tau == pytest.approx(0.5, rel=1e-15)
    assert_allclose(sc.times(), [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=0)
    finer = sc.with_steps(8)
    assert finer.n_steps == 8 and sc.n_steps == 4


def test_driving_force_is_negative_energy_gradient():
    sc = scalar_scenario(lambda t: math.sin(t), n_steps=10)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(sc.mesh.n_nodes)
    v = rng.standard_normal(sc.mesh.n_nodes)
    t, h = 0.7, 1e-6
    slope = (energy(sc, t, q + h * v) - energy(sc, t, q - h * v)) / (2.0 * h)
    assert slope == pytest.approx(-dual_pair(driving_force(sc, t, q), v),
                                  rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# single implicit step


def test_viscous_step_balance_and_stick():
    # Drive below the threshold: nothing moves, balance is exact.
    sc = scalar_scenario(lambda t: 0.1, n_steps=10)
    res = viscous_step(sc, 0.01, sc.tau, np.zeros(5), np.zeros(5))
    assert_allclose(res.increment, 0.0, rtol=0, atol=0)
    assert res.balance_residual == 0.0
    assert res.dissipation_rate == 0.0


def test_viscous_step_constant_space_closed_form():
    # Above threshold the spatially constant increment is
    # (a - threshold) / (alpha + eps/tau) at every node.
    sc = scalar_scenario(lambda t: 3.0, alpha=2.0, n_steps=10)
    eps = 0.05
    res = viscous_step(sc, eps, sc.tau, np.zeros(5), np.zeros(5))
    expected = (3.0 - 1.0) / (2.0 + eps / sc.tau)
    assert_allclose(res.increment, expected, rtol=1e-12)
    assert res.balance_residual <= 1e-12
    # dissipation rate is the potential of the realized rate
    rate = res.increment / sc.tau
    assert res.dissipation_rate == pytest.approx(
        potential(sc.dissipation, sc.mesh, np.zeros(5), rate), rel=1e-15
    )
    assert res.dissipation_rate == pytest.approx(expected / sc.tau, rel=1e-12)


# ---------------------------------------------------------------------------
# full solves


def test_viscous_ramp_matches_exact_solution():
    # Zero threshold turns the flow into eps u' + u = t, solved by
    # u = t - eps (1 - exp(-t/eps)); implicit stepping is first order
    # with global error below tau/2 here.
    sc = scalar_scenario(lambda t: t, lambda t: 1.0, threshold=0.0, n_steps=1000)
    for eps in (0.1, 0.05):
        traj, report = solve_viscous(sc, eps)
        exact = np.array([viscous_ramp_value(t, eps) for t in sc.times()])
        err = np.abs(traj.values[:, 0] - exact).max()
        assert err <= sc.tau / 2.0
        assert report.max_balance_residual <= BALANCE_TOL


def test_solve_shapes_and_report():
    sc = scalar_scenario(lambda t: 2.0 * math.sin(math.pi * t), n_steps=50)
    traj, report = solve_viscous(sc, 0.1)
    assert traj.values.shape == (51, 5)
    assert_allclose(traj.values[0], 0.0, rtol=0, atol=0)
    assert report.balance_residuals.shape == (50,)
    assert report.max_balance_residual <= BALANCE_TOL
    assert report.energies.shape == (51,)
    assert report.energies[0] == pytest.approx(energy(sc, 0.0, np.zeros(5)))
    assert report.method == "implicit" and report.eps == 0.1
    assert report.inner_iterations > 0


def test_solve_validation():
    sc = scalar_scenario(lambda t: t, n_steps=10)
    for eps in (0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="eps"):
            solve_viscous(sc, eps)
    with pytest.raises(ValueError, match="method"):
        solve_viscous(sc, 0.1, method="midpoint")


def test_explicit_needs_small_steps():
    sc = scalar_scenario(lambda t: t, n_steps=100)  # tau = 0.01
    with pytest.raises(ValueError, match="tau <= eps/10"):
        solve_viscous(sc, 0.05, method="explicit")
    solve_viscous(sc, 0.1, method="explicit")  # tau == eps/10 is allowed


def test_implicit_and_explicit_agree():
    # Two first-order discretizations of the same viscous flow differ
    # by O(tau/eps).
    sc = scalar_scenario(
        lambda t: 2.0 * math.sin(math.pi * t),
        lambda t: 2.0 * math.pi * math.cos(math.pi * t),
        n_steps=2000,
    )
    eps = 0.2
    traj_i, _ = solve_viscous(sc, eps, method="implicit")
    traj_e, _ = solve_viscous(sc, eps, method="explicit")
    assert c_norm_diff(sc.mesh, traj_i, traj_e) <= sc.tau / eps


def test_warm_start_does_not_change_solutions():
    sc = scalar_scenario(
        lambda t: 2.0 * math.sin(math.pi * t),
        lambda t: 2.0 * math.pi * math.cos(math.pi * t),
        n_steps=400,
    )
    for method, eps in (("implicit", 0.05), ("explicit", 0.5)):
        warm, _ = solve_viscous(sc, eps, method=method, warm_start=True)
        cold, _ = solve_viscous(sc, eps, method=method, warm_start=False)
        assert c_norm_diff(sc.mesh, warm, cold) <= 1e-9


@pytest.mark.parametrize("one_sided", [True, False])
def test_non_finite_load_fails_the_balance_gate(one_sided):
    # A NaN balance residual must not slip past the gate as "not above
    # the tolerance", and the l1 sign loop must not spin on NaN
    # gradients until its cycle cap.
    a = lambda t: 2.0 * math.sin(math.pi * t) if t <= 0.5 else math.nan
    sc = scalar_scenario(a, n_steps=200)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.kappa, lipschitz=0.0))
    with pytest.raises(NumericalFailure, match="step 101/200") as exc:
        solve_viscous(sc, 0.05)
    assert "cycle cap" not in str(exc.value)
