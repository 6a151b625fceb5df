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
import histris.trajectory as trajectory
import histris.viscous as viscous
from histris.config import build_scenario, normalize_config
from histris.dissipation import WeightedL1, potential
from histris.errors import NumericalFailure
from histris.history import HistoryAccumulator, identity_kernel
from histris.spatial import build_mesh, dual_pair, h1_norm
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
from histris.vv import _MappedLoad

from helpers import constant_threshold, scalar_scenario
from oracles import (
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

    # The explicit method checks no balance: NaN per step, same shapes.
    _, explicit = solve_viscous(sc, 0.5, method="explicit")
    assert explicit.balance_residuals.shape == (50,)
    assert explicit.dissipation_rates.shape == (50,)
    assert np.isnan(explicit.balance_residuals).all()
    assert np.isnan(explicit.dissipation_rates).all()
    assert math.isnan(explicit.max_balance_residual)


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
            weight=sc.dissipation.weight, lipschitz=0.0))
    with pytest.raises(NumericalFailure, match="step 101/200") as exc:
        solve_viscous(sc, 0.05)
    assert "cycle cap" not in str(exc.value)


@pytest.mark.parametrize("one_sided", [True, False])
def test_non_finite_load_fails_the_explicit_integrator(one_sided):
    # The explicit method has no balance gate to catch a NaN, so the
    # state itself is checked after every step.
    a = lambda t: 2.0 * t if t <= 0.5 else math.nan
    sc = scalar_scenario(a, n_steps=20, n_nodes=9)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.weight, lipschitz=0.0))
    with pytest.raises(NumericalFailure, match="explicit step 12/20"):
        solve_viscous(sc, 0.5, method="explicit")


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
        load=Load([LoadTerm(lambda t: 2.0 * math.sin(2.0 * math.pi * t), dual)]),
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
    load = Load([LoadTerm(lambda t: math.sin(3.0 * t), duals[0]),
                 LoadTerm(lambda t: -t, duals[1]),
                 LoadTerm(lambda t: 0.7 * math.cos(5.0 * t), duals[2])])
    times = np.linspace(0.0, 1.0, 9)
    rows = load.values(times)
    assert rows.shape == (9, 7)
    for t, row in zip(times, rows, strict=True):
        assert _same_bits(row, load_value(load, t))
        assert _same_bits(load.value(t), row)
    assert load.values(times[:0]).shape == (0, 7)
    mapped = _MappedLoad(load, lambda s: s * s)
    for t, row in zip(times, mapped.values(times), strict=True):
        assert _same_bits(row, load_value(load, float(t * t)))


_BLOCK_KERNELS = {
    "1": {"kind": "identity"},
    "1/(1+t)^2": {"kind": "convolution", "kernel": "1/(1+t)^2",
                  "kernel_slope": "-2/(1+t)^3"},
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
            sc, 0.2, warm, dissipation._project_counted, HistoryAccumulator))


class _PerturbedProx:
    """The package's rate prox with chosen members' increments scaled by
    ``factor`` at chosen calls, and an error raised at a later call."""

    def __init__(self, prox, factor, scale_at, raise_at):
        self.prox, self.factor = prox, factor
        self.scale_at, self.raise_at = scale_at, raise_at
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.raise_at:
            raise RuntimeError("a later step failed")
        delta, count, threshold = self.prox(*args, **kwargs)
        for b in self.scale_at.get(self.calls, ()):
            delta[b] *= self.factor
        return delta, count, threshold


def _load_until(t_max):
    def a(t):
        if t > t_max:
            raise ValueError("load undefined")
        return 2.0 * math.sin(math.pi * t)
    return a


@pytest.mark.parametrize("factor", [1.5, math.inf, None])
@pytest.mark.parametrize("later", ["prox", "load"])
def test_a_block_fails_at_its_first_unbalanced_step(monkeypatch, factor, later):
    # All 200 steps are one block.  Step 60 scales the increments of levels
    # 1 and 2, step 63 level 0's, and step 66 (prox) or 67 (load) raises
    # another error.  The finished steps are settled before that error
    # surfaces: the failure is step 60's, with the per-step level and
    # residual.  That level is 1, except that an infinite increment spills
    # into level 0's row of the same step's stacked product, as it does in
    # the per-step loop; it must not spill into step 59's row.
    eps_values = (0.2, 0.05, 0.0125)
    sc = scalar_scenario(_load_until(0.3325 if later == "load" else 1.0), n_steps=200)
    prox = viscous._prox_rate_counted

    def perturbed():
        return _PerturbedProx(prox, factor, {60: (1, 2), 63: (0,)} if factor else {},
                              66 if later == "prox" else None)

    monkeypatch.setattr(viscous, "_prox_rate_counted", perturbed())
    if factor is None:
        with pytest.raises(RuntimeError if later == "prox" else ValueError):
            solve_levels(sc, eps_values)
        return
    with pytest.raises(UnbalancedStep) as want:
        solve_levels_per_step(sc, eps_values, True, perturbed(), HistoryAccumulator,
                              BALANCE_TOL)
    assert (want.value.step, want.value.member) == (60, 1 if factor == 1.5 else 0)
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
        if t > 0.8:
            raise ValueError("load undefined")
        return 2.0 * t if t <= 0.5 else math.nan

    sc = scalar_scenario(a, n_steps=20, n_nodes=9)
    with pytest.raises(NumericalFailure, match="explicit step 12/20"):
        solve_viscous(sc, 0.5, method="explicit")
