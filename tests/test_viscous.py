"""Tests for loads, scenarios, and the viscous incremental solver.

Covers load evaluation and derivatives, scenario validation, the
single implicit step (force balance, stick/slip, the closed-form
spatially constant increment), the analytic viscous ramp,
implicit/explicit agreement, warm-start irrelevance, the sampled
one-sided force inequality, and the blocks of steps in which the time
loops reduce their diagnostics.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.dissipation as dissipation
import histris.qp as qp
import histris.trajectory as trajectory
import histris.viscous as viscous
from histris.config import build_scenario, normalize_config
from histris.dissipation import WeightedL1, potential
from histris.errors import NumericalFailure
from histris.expressions import Expression
from histris.history import HistoryAccumulator, convolution_kernel, identity_kernel
from histris.spatial import build_mesh, dual_pair, h1_norm, riesz_solve
from histris.trajectory import c_norm_diff
from histris.viscous import (
    BALANCE_TOL,
    Load,
    LoadTerm,
    Scenario,
    constant_in_space_load,
    driving_force,
    energy,
    expression_load,
    solve_levels,
    solve_viscous,
    viscous_step,
)
from histris.vv import _mapped_load

from helpers import constant_threshold, scalar_scenario
from oracles import (
    FailedStep,
    QPProx,
    UnbalancedStep,
    load_value,
    solve_explicit_per_step,
    solve_levels_per_step,
    viscous_ramp_value,
)


# ---------------------------------------------------------------------------
# loads


def test_load_analytic_derivative_matches_finite_differences():
    mesh = build_mesh(4, 1.0)
    with_deriv = constant_in_space_load(
        mesh, lambda t: np.sin(3.0 * t), lambda t: 3.0 * np.cos(3.0 * t)
    )
    without = constant_in_space_load(mesh, lambda t: np.sin(3.0 * t))
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
    sc = scalar_scenario(lambda t: np.sin(t), n_steps=10)
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
    # The QP pins every node at +0.0 in one step.
    res = viscous_step(sc, 0.01, sc.tau, np.zeros(5), np.zeros(5))
    assert_allclose(res.increment, 0.0, rtol=0, atol=0)
    assert not np.signbit(res.increment).any()
    assert res.iterations == 1
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
    sc = scalar_scenario(lambda t: 2.0 * np.sin(math.pi * t), n_steps=50)
    traj, report = solve_viscous(sc, 0.1)
    assert traj.values.shape == (51, 5)
    assert_allclose(traj.values[0], 0.0, rtol=0, atol=0)
    assert report.balance_residuals.shape == (50,)
    assert report.max_balance_residual <= BALANCE_TOL
    assert report.energies.shape == (51,)
    assert report.energies[0] == pytest.approx(energy(sc, 0.0, np.zeros(5)))
    assert report.method == "implicit" and report.eps == 0.1
    assert report.inner_iterations > 0

    # The explicit method meets the same gate on every step, and records
    # the potential of each step's rate at the step's history.
    traj, explicit = solve_viscous(sc, 0.5, method="explicit")
    assert explicit.balance_residuals.shape == (50,)
    assert explicit.dissipation_rates.shape == (50,)
    assert (explicit.balance_residuals <= BALANCE_TOL).all()
    assert explicit.dissipation_rates.max() > 0.0
    acc = HistoryAccumulator(sc.kernel, sc.tau, 5, 50)
    for k, (q, q_next) in enumerate(zip(traj.values, traj.values[1:])):
        acc.push(q)
        want = potential(sc.dissipation, sc.mesh, acc.value(), (q_next - q) / sc.tau)
        assert explicit.dissipation_rates[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


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
        lambda t: 2.0 * np.sin(math.pi * t),
        lambda t: 2.0 * math.pi * np.cos(math.pi * t),
        n_steps=2000,
    )
    eps = 0.2
    traj_i, _ = solve_viscous(sc, eps, method="implicit")
    traj_e, _ = solve_viscous(sc, eps, method="explicit")
    assert c_norm_diff(sc.mesh, traj_i, traj_e) <= sc.tau / eps


def test_warm_start_does_not_change_solutions():
    sc = scalar_scenario(
        lambda t: 2.0 * np.sin(math.pi * t),
        lambda t: 2.0 * math.pi * np.cos(math.pi * t),
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
    a = lambda t: np.where(t <= 0.5, 2.0 * np.sin(math.pi * t), math.nan)
    sc = scalar_scenario(a, n_steps=200)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.weight, lipschitz=0.0))
    with pytest.raises(NumericalFailure, match="step 101/200") as exc:
        solve_viscous(sc, 0.05)
    assert "cycle cap" not in str(exc.value)


@pytest.mark.parametrize("one_sided", [True, False])
def test_non_finite_load_fails_the_explicit_integrator(one_sided):
    # Step 12 starts at the first NaN load: it fails before its
    # projection, and the loop names the step and eps as for the implicit
    # method.
    a = lambda t: np.where(t <= 0.5, 2.0 * t, math.nan)
    sc = scalar_scenario(a, n_steps=20, n_nodes=9)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.weight, lipschitz=0.0))
    with pytest.raises(NumericalFailure,
                       match=r"step 12/20 failed \(eps=0\.5\): non-finite force"):
        solve_viscous(sc, 0.5, method="explicit")


def _wave_scenario(family, n_nodes, n_steps):
    return build_scenario(normalize_config({
        "mesh": {"n_nodes": n_nodes},
        "model": {"n_steps": n_steps},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": family},
    }))


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
def test_moved_projection_fails_the_explicit_balance_gate(monkeypatch, family):
    # mu moved by 1e-6 into the box at one pinned node, the one with the
    # largest rate, frees that node and zeroes its rate: the force at the
    # step's start no longer pairs with the rate to the dissipation.
    project = viscous._project_counted

    def moved(spec, mesh, zeta, omega, cold_start=False, threshold=None):
        mu, count, w = project(spec, mesh, zeta, omega, cold_start=cold_start,
                               threshold=threshold)
        pinned = np.abs(mu) == w
        if pinned.any():
            push = np.abs(mesh.riesz.solve(omega - mu))
            node = np.argmax(np.where(pinned, push, -1.0))
            mu = mu.copy()
            mu[node] -= 1e-6 * np.sign(mu[node])
        return mu, count, w

    sc = _wave_scenario(family, 33, 200)
    _, report = solve_viscous(sc, 0.05, method="explicit")
    assert report.max_balance_residual <= BALANCE_TOL
    with pytest.raises(UnbalancedStep) as want:
        solve_explicit_per_step(sc, 0.05, True, moved, HistoryAccumulator, BALANCE_TOL)
    monkeypatch.setattr(viscous, "_project_counted", moved)
    message = rf"force balance violated at step {want.value.step}/200 \(eps=0\.05\)"
    with pytest.raises(NumericalFailure, match=message) as exc:
        solve_viscous(sc, 0.05, method="explicit")
    assert _same_bits(exc.value.residual, want.value.residual)


@pytest.mark.parametrize("n_nodes", [33, 513])
def test_explicit_fatigue_rates_stay_in_the_cone(monkeypatch, n_nodes):
    # Rounding alone would push the rate of a node the projection leaves
    # free slightly below zero, where the potential is +inf.  The steps
    # whose force lies in the box take +0.0 without a projection.
    rates = []
    step = viscous.explicit_projection_step

    def recorded(*args, **kwargs):
        result = step(*args, **kwargs)
        rates.append(result[0])
        return result

    monkeypatch.setattr(viscous, "explicit_projection_step", recorded)
    sc = _wave_scenario("fatigue", n_nodes, 2000)
    traj, report = solve_viscous(sc, 0.05, method="explicit")
    assert report.elastic_steps > 0 and len(rates) == 2000 - report.elastic_steps
    assert min(rate.min() for rate in rates) >= 0.0
    assert np.diff(traj.values, axis=0).min() >= 0.0
    assert report.max_balance_residual <= BALANCE_TOL


def _solve_with_band_algebra_only(monkeypatch, one_sided, method, eps):
    # Dense solves and inverses and densifying a band all raise, so the
    # solve must not form or factor a dense matrix.
    import scipy.linalg

    import histris.spatial as spatial

    def refuse(*args, **kwargs):
        raise AssertionError(f"dense linear algebra on the {method} path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    monkeypatch.setattr(spatial.SymTridiagonal, "__array__", refuse)

    mesh = build_mesh(65)
    dual = mesh.mass @ (1.0 + 0.6 * np.cos(3.0 * np.pi * mesh.nodes))
    weight = lambda z: 0.4 + 0.6 / (1.0 + np.asarray(z) ** 2)
    spec = (constant_threshold(0.5) if one_sided
            else WeightedL1(weight=weight, lipschitz=0.65))
    scn = Scenario(
        mesh=mesh,
        alpha=1.0,
        load=Load([LoadTerm(lambda t: 2.0 * np.sin(2.0 * math.pi * t), dual)]),
        kernel=identity_kernel(np.zeros(65)),
        dissipation=spec,
        horizon=1.0,
        n_steps=100,
    )
    return solve_viscous(scn, eps, method=method)


@pytest.mark.parametrize("one_sided", [True, False])
def test_implicit_solve_uses_band_algebra_only(monkeypatch, one_sided):
    traj, report = _solve_with_band_algebra_only(monkeypatch, one_sided,
                                                 "implicit", 1e-3)
    assert report.max_balance_residual <= BALANCE_TOL
    assert np.count_nonzero(traj.values[-1]) > 0


@pytest.mark.parametrize("one_sided", [True, False])
def test_explicit_solve_uses_band_algebra_only(monkeypatch, one_sided):
    # The explicit step projects with the Hessian R^-1: an inverse-band
    # operator, not a dense inverse.
    traj, report = _solve_with_band_algebra_only(monkeypatch, one_sided,
                                                 "explicit", 0.1)
    assert np.all(np.isfinite(traj.values))
    assert report.inner_iterations > 0
    assert np.count_nonzero(traj.values[-1]) > 0


# ---------------------------------------------------------------------------
# blocks of steps


def _same_bits(a, b):
    if not isinstance(a, (float, np.ndarray)):
        return type(a) is type(b) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_load_values_rows_have_the_bits_of_one_time():
    # Three terms of one size: another order of the sum rounds differently.
    rng = np.random.default_rng(2)
    duals = [rng.standard_normal(7) for _ in range(3)]
    load = Load([LoadTerm(lambda t: np.sin(3.0 * t), duals[0]),
                 LoadTerm(lambda t: -t, duals[1]),
                 LoadTerm(lambda t: 0.7 * np.cos(5.0 * t), duals[2])])
    times = np.linspace(0.0, 1.0, 9)
    rows = load.values(times)
    assert rows.shape == (9, 7)
    for t, row in zip(times, rows, strict=True):
        assert _same_bits(row, load_value(load, t))
        assert _same_bits(load.value(t), row)
    assert load.values(times[:0]).shape == (0, 7)
    mapped = _mapped_load(load, lambda s: s * s)
    for t, row in zip(times, mapped.values(times), strict=True):
        assert _same_bits(row, load_value(load, float(t * t)))
    # Derivative rows: the terms' own derivatives summed like the values,
    # or central differences of the values when a term has none.
    slopes = [lambda t: 3.0 * np.cos(3.0 * t), lambda t: -1.0,
              lambda t: -3.5 * np.sin(5.0 * t)]
    analytic = Load([replace(term, time_derivative=slope)
                     for term, slope in zip(load.terms, slopes, strict=True)])
    h = viscous._FD_DT
    for t, row, fd_row in zip(times, analytic.derivatives(times),
                              load.derivatives(times), strict=True):
        expected = float(slopes[0](t)) * duals[0]
        for slope, dual in zip(slopes[1:], duals[1:], strict=True):
            expected = expected + float(slope(t)) * dual
        assert _same_bits(row, expected)
        assert _same_bits(analytic.derivative(t), row)
        assert _same_bits(fd_row, (load.value(t + h) - load.value(t - h)) / (2.0 * h))
        assert _same_bits(load.derivative(t), fd_row)


@pytest.mark.parametrize("text", [
    "2.5",
    "-t^2 + 3*t - 1/(1 + t)",
    "sin(pi*t) * cos(2*t) - exp(-t)",
    "max(t, 0.5, sin(t)) - min(-t, cos(pi*t))",
    "(1 + t)^-0.5 / 3 - -t",
])
def test_expression_load_rows_have_the_bits_of_one_time(text):
    # A block of times evaluates the expression once, on the array; each
    # row keeps the bits of the expression at that time alone, as a
    # numpy scalar, times the assembled profile.
    mesh = build_mesh(6)
    load = expression_load(mesh, text, "1 + x")
    dual = load.terms[0].space_dual
    f = Expression(text, ("t",))
    times = np.array([0.0, 1e-300, 0.3, 1.0, 7.25, 1e3])
    rows = load.values(times)
    assert rows.shape == (6, 6)
    for t, row in zip(times, rows, strict=True):
        assert _same_bits(row, float(f(np.float64(t))) * dual)
        assert _same_bits(load.value(float(t)), row)


def test_a_profile_of_the_wrong_shape_raises():
    mesh = build_mesh(4)
    times = np.linspace(0.0, 1.0, 5)
    for profile in (lambda t: t[:-1], lambda t: np.ones((len(t), 2))):
        load = constant_in_space_load(mesh, profile)
        with pytest.raises(ValueError):
            load.values(times)


def test_a_scalar_only_profile_fails_the_solve():
    # A profile that takes one float at a time is not evaluated time by
    # time: the block's call raises, and so does the solve.
    sc = scalar_scenario(lambda t: math.sin(t), n_steps=10)
    with pytest.raises(TypeError):
        solve_viscous(sc, 0.5)
    with pytest.raises(TypeError):
        solve_viscous(sc, 1.0, method="explicit")


_BLOCK_KERNELS = {
    "1": {"kind": "identity"},
    "1/(1+t)^2": {"kind": "convolution", "kernel": "1/(1+t)^2"},
}


def _assert_same_solve(traj, report, values, fields):
    assert _same_bits(traj.values, values)
    assert set(vars(report)) == set(fields)
    for name, value in fields.items():
        assert _same_bits(getattr(report, name), value), name


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel", sorted(_BLOCK_KERNELS))
@pytest.mark.parametrize("entries", [1, 357, 2**14])
def test_block_boundaries_keep_the_per_step_bits(monkeypatch, family, kernel, entries):
    # At n = 17 the block sizes are one step; 7 steps (three levels) or 21
    # (one level, explicit), with a shorter last block; and the whole run.
    # Every trajectory and report field is the per-step loop's, bit for bit.
    monkeypatch.setattr(trajectory, "_BLOCK_ENTRIES", entries)
    sc = build_scenario(normalize_config({
        "mesh": {"n_nodes": 17},
        "model": {"n_steps": 90, "horizon": 1.5},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": family},
        "history": _BLOCK_KERNELS[kernel],
    }))
    for eps_values, warm in (((0.01,), True), ((0.1, 0.02, 0.004), True),
                             ((0.1, 0.02, 0.004), False)):
        want = solve_levels_per_step(sc, eps_values, warm, viscous._prox_rate_counted,
                                     HistoryAccumulator, BALANCE_TOL)
        got = solve_levels(sc, eps_values, warm_start=warm)
        for (traj, report), (values, fields) in zip(got, want, strict=True):
            _assert_same_solve(traj, report, values, fields)
    for warm in (True, False):
        traj, report = solve_viscous(sc, 0.2, method="explicit", warm_start=warm)
        _assert_same_solve(traj, report, *solve_explicit_per_step(
            sc, 0.2, warm, dissipation._project_counted, HistoryAccumulator,
            BALANCE_TOL))


_ELASTIC_KERNELS = {**_BLOCK_KERNELS,
                    "exp(-2t)": {"kind": "convolution", "kernel": "exp(-2*t)"}}


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel", sorted(_ELASTIC_KERNELS))
def test_elastic_steps_keep_the_bits_of_a_qp_call(monkeypatch, family, kernel):
    # The oracle makes a QP call every step; the package skips it on the
    # elastic steps from a zero start.  Every trajectory and report field
    # agrees bit for bit, and the package calls a QP on exactly the
    # oracle's other steps.  Some step moves one level while another
    # stays put.
    sc = build_scenario(normalize_config({
        "mesh": {"n_nodes": 17},
        "model": {"n_steps": 90, "horizon": 1.5},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": family},
        "history": _ELASTIC_KERNELS[kernel],
    }))
    calls = []

    def counted(solve):
        def call(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return call

    monkeypatch.setattr(dissipation, "solve_box_qp", counted(qp.solve_box_qp))
    monkeypatch.setattr(dissipation, "solve_l1_qp", counted(qp.solve_l1_qp))
    mixed = False
    for eps_values in ((0.01,), (0.1, 0.02, 0.004)):
        for warm in (True, False):
            oracle = QPProx(dissipation.threshold_dual, qp.solve_box_qp, qp.solve_l1_qp,
                            NumericalFailure)
            want = solve_levels_per_step(sc, eps_values, warm, oracle, HistoryAccumulator,
                                         BALANCE_TOL)
            calls.clear()
            got = solve_levels(sc, eps_values, warm_start=warm)
            for (traj, report), (values, fields) in zip(got, want, strict=True):
                _assert_same_solve(traj, report, values, fields)
            assert oracle.calls == sc.n_steps and 0 < oracle.elastic < oracle.calls
            assert len(calls) == oracle.calls - oracle.elastic
            moving = np.diff([traj.values for traj, _ in got], axis=1).any(axis=2)
            mixed |= bool((moving.any(axis=0) & ~moving.all(axis=0)).any())
    assert mixed


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel", sorted(_ELASTIC_KERNELS))
def test_explicit_steps_project_exactly_the_forces_outside_the_box(monkeypatch, family,
                                                                    kernel):
    # The explicit loop projects on exactly the steps whose force, read
    # off the trajectory, leaves its box; it takes the others in runs of
    # held steps.  Every trajectory and report field is the per-step
    # oracle's, the elastic step count included.  A kernel table that is
    # not geometric decides one step at a time.
    sc = build_scenario(normalize_config({
        "mesh": {"n_nodes": 17},
        "model": {"n_steps": 90, "horizon": 1.5},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": family},
        "history": _ELASTIC_KERNELS[kernel],
    }))
    projected = []
    project = viscous._project_counted

    def recorded(*args, **kwargs):
        projected.append(_StepHistory.latest.n_samples - 1)
        return project(*args, **kwargs)

    monkeypatch.setattr(viscous, "HistoryAccumulator", _StepHistory)
    monkeypatch.setattr(viscous, "_project_counted", recorded)
    log = _logged_windows(monkeypatch)
    for warm in (True, False):
        projected.clear()
        log.clear()
        traj, report = solve_viscous(sc, 0.2, method="explicit", warm_start=warm)
        _assert_same_solve(traj, report, *solve_explicit_per_step(
            sc, 0.2, warm, project, HistoryAccumulator, BALANCE_TOL))
        acc = HistoryAccumulator(sc.kernel, sc.tau, sc.mesh.n_nodes, sc.n_steps)
        outside = []
        for k, q in enumerate(traj.values[:-1]):
            acc.push(q)
            force = load_value(sc.load, sc.times()[k]) - sc.alpha * (sc.mesh.riesz @ q)
            lower, upper = dissipation.force_box(sc.dissipation, sc.mesh, acc.value())
            if not ((lower <= force) & (force <= upper)).all():
                outside.append(k)
        assert projected == outside
        assert 0 < len(outside) < sc.n_steps
        assert report.elastic_steps == sc.n_steps - len(outside)
        asked = {rows for _, rows, _ in log}
        if kernel == "1/(1+t)^2":
            assert asked == {1}
        else:
            assert max(asked) > 1


def _box_edge_scenario(family, inside):
    """One explicit step from the zero state under the constant load
    ``d``, so the force is ``d``, at the history ``y0``: ``d`` is
    ``inside`` times the box bound at each node (two-sided, alternating
    in sign).  Returns the scenario, ``d`` and the bound."""
    one_sided = family == "fatigue"
    mesh = build_mesh(9)
    y0 = 0.5 + mesh.nodes
    spec = (dissipation.Fatigue if one_sided else WeightedL1)(weight=np.abs,
                                                              lipschitz=1.0)
    upper = dissipation.threshold_dual(spec, mesh, y0)
    d = inside * upper
    if not one_sided:
        d[1::2] *= -1.0
    sc = Scenario(mesh=mesh, alpha=1.0, load=Load([LoadTerm(lambda t: 1.0, d)]),
                  kernel=identity_kernel(y0), dissipation=spec, horizon=0.01,
                  n_steps=1)
    return sc, d, upper


class _Projected(Exception):
    """Raised by :func:`_stop_at_projection`'s patch, with the force."""


def _stop_at_projection(monkeypatch):
    """Patch the explicit step's projection to raise :class:`_Projected`."""
    def stop(spec, mesh, zeta, omega, **kwargs):
        raise _Projected(np.array(omega))

    monkeypatch.setattr(viscous, "_project_counted", stop)


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
def test_a_force_one_ulp_outside_its_box_is_projected(monkeypatch, family):
    # The explicit exit is exact box membership: one node one ulp past its
    # bound (two-sided, at the lower one) sends the step to the projection,
    # though the implicit rule's KKT_TOL slack would let it exit.
    sc, d, upper = _box_edge_scenario(family, 0.5)
    node = 4 if family == "fatigue" else 3
    d[node] = np.nextafter(upper[node], math.inf) * np.sign(d[node])
    assert dissipation._elastic(sc.dissipation, d, upper)
    assert not dissipation._elastic(sc.dissipation, d, upper, 0.0)
    _stop_at_projection(monkeypatch)
    for warm in (True, False):
        with pytest.raises(_Projected) as exc:
            solve_viscous(sc, 0.1, method="explicit", warm_start=warm)
        assert _same_bits(exc.value.args[0], d)


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
def test_a_force_on_its_bound_exits_with_the_rate_of_the_qp_path(monkeypatch, family):
    # A force on its bound at every node is its own projection: the step
    # exits with +0.0 in one counted iteration, without a projection,
    # and the QP path (warm start) gives that rate and count bit for bit.
    # With one node on its bound and the others inside, the QP pins that
    # node and leaves it a rate of rounding size, of either sign; the
    # exit takes the exact-arithmetic zero there.
    for where in ("every node", "one node"):
        sc, d, upper = _box_edge_scenario(family, 1.0 if where == "every node" else 0.5)
        if where == "one node":
            d[4] = upper[4]
        _stop_at_projection(monkeypatch)
        for warm in (True, False):
            traj, report = solve_viscous(sc, 0.1, method="explicit", warm_start=warm)
            assert report.elastic_steps == 1 and report.inner_iterations == 1
            assert report.balance_residuals[0] == 0.0
            assert not traj.values.any() and not np.signbit(traj.values).any()
        monkeypatch.undo()
        rate, count, w = viscous.explicit_projection_step(sc, 0.1, d, upper)
        assert _same_bits(w, upper) and count == 1
        if where == "every node":
            assert not rate.any() and not np.signbit(rate).any()
        else:
            assert np.abs(rate).max() <= 1e-12 and not np.delete(rate, 4).any()


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
def test_a_pinned_rate_never_has_the_wrong_sign(family):
    # With one node one ulp outside its box, the projection pins that node
    # and the Riesz solve leaves it a rate of rounding size.  Exact
    # arithmetic gives it the sign of the force or +0.0; rounding can give
    # the wrong sign (fatigue: an infinite dissipation, so the solve failed
    # its balance gate).  The step takes +0.0 there.
    fixed = set()
    for node in range(9):
        sc, d, upper = _box_edge_scenario(family, 0.5)
        d[node] = np.nextafter(upper[node], math.inf) * np.sign(d[node])
        for cold in (False, True):
            rate, _, _ = viscous.explicit_projection_step(sc, 0.1, d, upper,
                                                          cold_start=cold)
            assert rate[node] * np.sign(d[node]) >= 0.0 and abs(rate[node]) <= 1e-13
            assert not np.delete(rate, node).any()
            if rate[node] == 0.0 and not cold:
                assert not np.signbit(rate[node])
                fixed.add(node)
            traj, report = solve_viscous(sc, 0.1, method="explicit", warm_start=not cold)
            assert report.balance_residuals[0] <= viscous.BALANCE_TOL
            assert _same_bits(traj.values[1], sc.tau * rate)
    assert fixed


@pytest.mark.parametrize("history", ["zero", "zero_on_the_left"])
def test_a_zero_weight_box_keeps_its_riesz_rate(history):
    # Weight max(z, 0)^2: the two-sided box is [-0, 0] wherever the history
    # is not positive, so any sign is admissible there and the step keeps
    # the rate of the Riesz solve, as the free/pinned rule always did.
    mesh = build_mesh(9)
    y0 = np.zeros(9) if history == "zero" else mesh.nodes - 0.5
    spec = WeightedL1(weight=lambda z: np.square(np.maximum(z, 0.0)), lipschitz=1.0)
    w = dissipation.threshold_dual(spec, mesh, y0)
    d = np.where(w > 0, 2.0 * w, 1e-3) * (-1.0) ** np.arange(9)
    sc = Scenario(mesh=mesh, alpha=1.0, load=Load([LoadTerm(lambda t: 1.0, d)]),
                  kernel=identity_kernel(y0), dissipation=spec, horizon=0.01,
                  n_steps=1)
    for cold in (False, True):
        mu, _, _ = dissipation._project_counted(spec, mesh, None, d,
                                                cold_start=cold, threshold=w)
        riesz = riesz_solve(mesh, d - mu) / 0.1
        rate, _, _ = viscous.explicit_projection_step(sc, 0.1, d, w, cold_start=cold)
        zero_weight = w == 0.0
        assert zero_weight.all() if history == "zero" else 0 < zero_weight.sum() < 9
        assert _same_bits(rate[zero_weight], riesz[zero_weight])
        assert np.all(rate[zero_weight] != 0.0)
        traj, _ = solve_viscous(sc, 0.1, method="explicit", warm_start=not cold)
        assert _same_bits(traj.values[1], sc.tau * rate)


class _StepHistory(HistoryAccumulator):
    """A history accumulator that keeps the last one made in ``latest``:
    while a step is taken, its sample count is the step's number."""

    latest = None

    def __init__(self, *args):
        super().__init__(*args)
        _StepHistory.latest = self


class _PerturbedProx:
    """The package's rate prox with chosen members' increments scaled by
    ``factor`` at chosen steps, and an error raised at a later step.  The
    step is read from :class:`_StepHistory`, not counted from the calls:
    the time loop decides elastic steps without a prox call."""

    def __init__(self, prox, factor, scale_at, raise_at):
        self.prox, self.factor = prox, factor
        self.scale_at, self.raise_at = scale_at, raise_at

    def __call__(self, *args, **kwargs):
        step = _StepHistory.latest.n_samples
        if step == self.raise_at:
            raise RuntimeError("a later step failed")
        delta, count, threshold = self.prox(*args, **kwargs)
        for b in self.scale_at.get(step, ()):
            delta[b] *= self.factor
        return delta, count, threshold


def _load_until(t_max):
    def a(t):
        if np.any(t > t_max):
            raise ValueError("load undefined")
        return 2.0 * np.sin(math.pi * t)
    return a


@pytest.mark.parametrize("factor", [1.5, math.inf, None])
@pytest.mark.parametrize("later", ["prox", "load"])
def test_a_block_fails_at_its_first_unbalanced_step(monkeypatch, factor, later):
    # All 200 steps are one block.  Step 60 scales the increments of levels
    # 1 and 2, step 63 level 0's, and step 66 (prox) or 67 (load) raises
    # another error.  The finished steps are settled before that error
    # surfaces: the failure is step 60's, with the per-step level and
    # residual.  That level is 1, also for an infinite increment: it must
    # spill neither into level 0's row of the same step's stacked product
    # nor into step 59's row.  The early elastic steps make no prox call,
    # so the perturbation is keyed to the step, not to the call.
    eps_values = (0.2, 0.05, 0.0125)
    sc = scalar_scenario(_load_until(0.3325 if later == "load" else 1.0), n_steps=200)
    prox = viscous._prox_rate_counted

    def perturbed():
        return _PerturbedProx(prox, factor, {60: (1, 2), 63: (0,)} if factor else {},
                              66 if later == "prox" else None)

    monkeypatch.setattr(viscous, "_prox_rate_counted", perturbed())
    monkeypatch.setattr(viscous, "HistoryAccumulator", _StepHistory)
    if factor is None:
        with pytest.raises(RuntimeError if later == "prox" else ValueError):
            solve_levels(sc, eps_values)
        return
    with pytest.raises(UnbalancedStep) as want:
        solve_levels_per_step(sc, eps_values, True, perturbed(), _StepHistory,
                              BALANCE_TOL)
    assert (want.value.step, want.value.member) == (60, 1)
    eps = eps_values[want.value.member]
    message = rf"force balance violated at step 60/200 \(eps={eps:g}\)"
    with pytest.raises(NumericalFailure, match=message) as exc:
        solve_levels(sc, eps_values)
    assert exc.value.member == want.value.member
    assert _same_bits(exc.value.residual, want.value.residual)


def test_explicit_failure_comes_before_a_later_load_error():
    # A NaN load makes the state of step 12 non-finite; the load raises from
    # t = 0.8 on, in the same block, and must not surface first.
    def a(t):
        if np.any(t > 0.8):
            raise ValueError("load undefined")
        return np.where(t <= 0.5, 2.0 * t, math.nan)

    sc = scalar_scenario(a, n_steps=20, n_nodes=9)
    with pytest.raises(NumericalFailure,
                       match=r"step 12/20 failed \(eps=0\.5\): non-finite force"):
        solve_viscous(sc, 0.5, method="explicit")


def test_explicit_solve_takes_the_steps_before_a_load_error(monkeypatch):
    # The load raises from t = 0.5 = t_10 on: the 10 steps that start
    # before it run, each with its start's load row, then the load's own
    # exception surfaces.  Every explicit step is decided as a row of
    # the run decision; a row is decided when no row before it moves.
    class LoadError(Exception):
        pass

    def a(t):
        if np.any(t >= 0.5):
            raise LoadError("load undefined")
        return 2.0 * t

    steps = {}
    decide = viscous._held_steps

    def logged(scenario, loads, q, acc, slack):
        force, w, exits = decide(scenario, loads, q, acc, slack)
        run = exits.all(axis=1)
        decided = len(run) if run.all() else int(np.argmin(run)) + 1
        for j in range(decided):
            steps[acc.n_samples - 1 + j] = loads[j]
        return force, w, exits

    monkeypatch.setattr(viscous, "_held_steps", logged)
    sc = scalar_scenario(a, n_steps=20, n_nodes=9)
    with pytest.raises(LoadError, match="load undefined"):
        solve_viscous(sc, 0.5, method="explicit")
    assert sorted(steps) == list(range(10))
    assert _same_bits(np.array([steps[k] for k in range(10)]),
                      sc.load.values(sc.times()[:10]))


# ---------------------------------------------------------------------------
# runs of held steps


def _run_scenario(family, kernel, weight=np.abs, n=9, n_steps=150):
    # Load a(t) d with d the initial threshold M w(y0), except at nodes 0
    # and 1, where d is +-KKT_TOL and the threshold 0 (one-sided) or far
    # below an ulp of the tolerance (two-sided): while a(t) = 1 and the
    # state is zero, the exit rule's left side is exactly the tolerance.
    # Then the load swings with a growing amplitude, so the state moves
    # and holds in turns.
    one_sided = family == "fatigue"
    mesh = build_mesh(n)
    y0 = 0.5 + mesh.nodes
    y0[:3] = 0.0 if one_sided else 1e-30
    spec = (dissipation.Fatigue if one_sided else WeightedL1)(weight=weight,
                                                              lipschitz=1.0)
    d = dissipation.threshold_dual(spec, mesh, y0)
    d[:2] = (qp.KKT_TOL, -qp.KKT_TOL)
    horizon = 3.0
    t1 = 7.5 * horizon / n_steps

    def a(t):
        return np.where(t < t1, 1.0, 1.0 + (1.0 + t) * np.sin(2.0 * math.pi * (t - t1) / 1.3))

    spec_kernel = _ELASTIC_KERNELS[kernel]
    kern = (identity_kernel(y0) if spec_kernel["kind"] == "identity"
            else convolution_kernel(Expression(spec_kernel["kernel"], ("t",)), y0))
    return Scenario(mesh=mesh, alpha=1.0, load=Load([LoadTerm(a, d)]), kernel=kern,
                    dissipation=spec, horizon=horizon, n_steps=n_steps)


def _logged_windows(monkeypatch):
    """Patch the run's decision to log ``(first step, rows asked, rows
    decided, each decided row elastic)``, steps counted from 0."""
    log = []
    decide = viscous._held_steps

    def logged(scenario, loads, q, acc, slack):
        force, w, exits = decide(scenario, loads, q, acc, slack)
        log.append((acc.n_samples - 1, len(loads), exits.all(axis=1)))
        return force, w, exits

    monkeypatch.setattr(viscous, "_held_steps", logged)
    return log


def _run_ends(log, blocks):
    """How the runs in ``log`` end: at a step that is not elastic inside a
    window, at a block's end, at a window's end (the next window's first
    step is not elastic)."""
    ends = {block.stop for block in blocks}
    found = set()
    for (start, _, rows), after in zip(log, log[1:] + [None]):
        held = len(rows) if rows.all() else int(np.argmin(rows))
        if 0 < held < len(rows):
            found.add("inside a window")
        if held == len(rows) and start + held in ends:
            found.add("at a block end")
        if held == len(rows) and after and after[0] == start + held and not after[2][0]:
            found.add("at a window end")
    return found


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel", sorted(_ELASTIC_KERNELS))
def test_runs_of_held_steps_keep_the_bits_of_a_qp_call(monkeypatch, family, kernel):
    # Every trajectory and report field, the elastic step counts included,
    # equals the per-step loop with a QP call on every step, signed zeros
    # included.  Blocks of 11 steps (three levels) or 33 (one level) cut
    # some runs; runs end inside a window, at a block end and at a window
    # end.  The first 7 steps put the rule's left side at the tolerance.
    # A kernel table that is not geometric decides one step at a time.
    monkeypatch.setattr(trajectory, "_BLOCK_ENTRIES", 11 * 27)
    sc = _run_scenario(family, kernel)
    log = _logged_windows(monkeypatch)
    ends = set()
    for eps_values in ((0.01,), (0.1, 0.02, 0.004)):
        blocks = trajectory.step_blocks(sc.n_steps, len(eps_values) * sc.mesh.n_nodes)
        for warm in (True, False):
            oracle = QPProx(dissipation.threshold_dual, qp.solve_box_qp, qp.solve_l1_qp,
                            NumericalFailure)
            want = solve_levels_per_step(sc, eps_values, warm, oracle, HistoryAccumulator,
                                         BALANCE_TOL)
            log.clear()
            got = solve_levels(sc, eps_values, warm_start=warm)
            for (traj, report), (values, fields) in zip(got, want, strict=True):
                _assert_same_solve(traj, report, values, fields)
            assert got[0][1].elastic_steps >= 7
            if len(eps_values) > 1:  # some step holds one member, not another
                assert len({report.elastic_steps for _, report in got}) > 1
            if kernel == "1/(1+t)^2":
                assert {asked for _, asked, _ in log} == {1}
            ends |= _run_ends(log, blocks)
    if kernel != "1/(1+t)^2":
        assert ends == {"inside a window", "at a block end", "at a window end"}


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("bad", ["load", "threshold", "weight"])
def test_a_failing_row_inside_a_window_fails_in_its_turn(monkeypatch, family, bad):
    # Row 5 of a window of 8 or more held steps gets a NaN load, an
    # infinite threshold, or a weight that raises.  The failure is the
    # per-step loop's: same step, member and message (a weight that raises
    # is decided one step at a time up to it).
    clean = _run_scenario(family, "1")
    for eps_values in ((0.01,), (0.1, 0.02, 0.004)):
        for warm in (True, False):
            log = _logged_windows(monkeypatch)
            solve_levels(clean, eps_values, warm_start=warm)
            start, _, rows = next(entry for entry in log
                                  if len(entry[2]) >= 8 and entry[2].all())
            step = start + 6  # row 5, counted from 1
            monkeypatch.undo()
            if bad == "load":
                a = clean.load.terms[0].time_profile
                t_bad = clean.times()[step]
                load = Load([LoadTerm(lambda t: np.where(t >= t_bad, math.nan, a(t)),
                                      clean.load.terms[0].space_dual)])
                sc = replace(clean, load=load)
            else:
                # The largest history value at that step: reached there first.
                traj = solve_levels(clean, eps_values, warm_start=warm)
                acc = HistoryAccumulator(clean.kernel, clean.tau, clean.mesh.n_nodes,
                                         clean.n_steps)
                for k in range(step):
                    acc.push(np.array([t.values[k] for t, _ in traj]))
                top = acc.value().max()
                high = math.inf if bad == "threshold" else -1.0
                sc = replace(clean, dissipation=replace(
                    clean.dissipation,
                    weight=lambda z: np.where(np.asarray(z) >= top, high, np.abs(z))))
            monkeypatch.setattr(viscous, "HistoryAccumulator", _StepHistory)
            with pytest.raises(FailedStep) as want:
                solve_levels_per_step(sc, eps_values, warm, viscous._prox_rate_counted,
                                      HistoryAccumulator, BALANCE_TOL)
            assert want.value.step == step
            cause = want.value.__cause__
            log = _logged_windows(monkeypatch)
            if bad == "weight":
                with pytest.raises(ValueError, match="nonnegative"):
                    solve_levels(sc, eps_values, warm_start=warm)
                assert _StepHistory.latest.n_samples == step
            else:
                eps = eps_values if cause.member is None else [eps_values[cause.member]]
                name = ", ".join(f"{e:g}" for e in eps)
                with pytest.raises(NumericalFailure) as got:
                    solve_levels(sc, eps_values, warm_start=warm)
                assert str(got.value) == f"step {step}/{sc.n_steps} failed (eps={name}): {cause}"
                assert got.value.member == cause.member
                if bad == "threshold" and len(eps_values) > 1:
                    assert cause.member is not None  # one member's threshold
            # The failing step was first met inside a window.
            first, asked, _ = next(entry for entry in log
                                   if entry[0] + entry[1] >= step)
            assert first < step - 1 and asked > step - 1 - first
            monkeypatch.undo()
