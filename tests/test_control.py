"""Tests for load-design by compass pattern search.

The recovery test manufactures its target from a known coefficient, so
the tracking term vanishes exactly at the truth and the search must
come back to it.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.control as control
from histris.control import (
    ControlProblem,
    evaluate_objective,
    load_from_coefficients,
    optimize,
    sine_basis,
)
from histris.errors import NumericalFailure
from histris.viscous import solve_viscous

from helpers import scalar_scenario


def _problem(m=1, n_steps=100, reg_weight=1e-6, target=None):
    sc = scalar_scenario(lambda t: 0.0, n_steps=n_steps)
    basis = sine_basis(sc.mesh, sc.horizon, m)
    if target is None:
        target = lambda times: np.repeat(times[:, None], sc.mesh.n_nodes, axis=1)
    return ControlProblem(scenario=sc, basis=basis, target=target,
                          eps=0.05, reg_weight=reg_weight)


# ---------------------------------------------------------------------------
# basis and load assembly


def test_sine_basis_profiles():
    sc = scalar_scenario(lambda t: 0.0, n_steps=10)
    basis = sine_basis(sc.mesh, 1.0, 3)
    assert len(basis) == 3
    for j, el in enumerate(basis, start=1):
        assert el.time_profile(0.0) == 0.0
        assert el.time_profile(0.5 / j) == pytest.approx(1.0)
        h = 1e-7
        fd = (el.time_profile(0.3 + h) - el.time_profile(0.3 - h)) / (2.0 * h)
        assert el.time_derivative(0.3) == pytest.approx(fd, abs=1e-5)
    with pytest.raises(ValueError, match="at least 1"):
        sine_basis(sc.mesh, 1.0, 0)


def test_load_from_coefficients_combines_linearly():
    sc = scalar_scenario(lambda t: 0.0, n_steps=10)
    basis = sine_basis(sc.mesh, 1.0, 2)
    theta = np.array([2.0, -1.0])
    load = load_from_coefficients(basis, theta)
    t = 0.3
    expected = (
        2.0 * math.sin(math.pi * t) - math.sin(2.0 * math.pi * t)
    ) * basis[0].space_dual
    assert_allclose(load.value(t), expected, rtol=1e-14)
    with pytest.raises(ValueError, match="coefficients"):
        load_from_coefficients(basis, np.zeros(3))


# ---------------------------------------------------------------------------
# objective


def test_zero_load_tracking_is_the_target_norm():
    # With theta = 0 nothing moves, so the tracking term is half the
    # squared L2-in-time norm of the target ramp: the trapezoid rule
    # applied to t^2 gives 1/3 + tau^2/6 exactly.
    problem = _problem(m=2, n_steps=10, reg_weight=1e-3)
    rep = evaluate_objective(problem, np.zeros(2))
    tau = 0.1
    expected = 0.5 * (1.0 / 3.0 + tau ** 2 / 6.0)
    assert rep.tracking == pytest.approx(expected, rel=1e-12)
    assert rep.load_norm == 0.0
    assert rep.regularization == 0.0
    assert rep.bound_ratio == 0.0
    assert rep.total == rep.tracking


def test_objective_reports_stability_ratio_for_active_loads():
    problem = _problem(m=1, n_steps=100)
    rep = evaluate_objective(problem, np.array([3.0]))
    assert rep.load_norm > 0
    assert rep.response_norm > 0
    assert rep.bound_ratio == pytest.approx(rep.response_norm / rep.load_norm)
    assert math.isfinite(rep.total)


def test_failed_solves_score_infinity(monkeypatch):
    problem = _problem(m=1, n_steps=10)

    def boom(*args, **kwargs):
        raise NumericalFailure("forced failure", residual=1.0)

    monkeypatch.setattr(control, "solve_viscous", boom)
    rep = evaluate_objective(problem, np.array([1.0]))
    assert rep.total == math.inf and rep.tracking == math.inf
    assert math.isnan(rep.response_norm)

    result = optimize(problem, step=0.5, max_evals=20)
    assert result.best.total == math.inf
    assert result.converged or result.n_evals == 20


# ---------------------------------------------------------------------------
# pattern search


def test_optimize_recovers_generating_coefficient():
    # Target manufactured at theta* = 2.5 on the same grid and viscosity:
    # tracking vanishes exactly there, and the tiny norm penalty cannot
    # move the optimum by more than the final step size.  The search
    # starts at zero, where loads below the threshold leave the state at
    # rest; a first step of 2 polls past them, and 2.5 lies on its halvings.
    truth = np.array([2.5])
    probe = _problem(m=1, n_steps=100)
    star_load = load_from_coefficients(probe.basis, truth)
    import dataclasses
    scn_star = dataclasses.replace(probe.scenario, load=star_load)
    target_traj, _ = solve_viscous(scn_star, probe.eps)
    problem = _problem(m=1, n_steps=100, target=lambda times: target_traj.values)

    at_truth = evaluate_objective(problem, truth)
    assert at_truth.tracking == pytest.approx(0.0, abs=1e-24)

    result = optimize(problem, step=2.0, min_step=1e-3)
    assert result.converged
    assert result.best.theta[0] == pytest.approx(2.5, abs=1e-2)
    start = evaluate_objective(problem, np.zeros(1))
    assert result.best.tracking <= start.tracking / 100.0


def test_optimize_is_deterministic_and_monotone():
    problem = _problem(m=2, n_steps=50, reg_weight=1e-3)
    first = optimize(problem, step=0.5, max_evals=40)
    second = optimize(problem, step=0.5, max_evals=40)
    assert_allclose(first.best.theta, second.best.theta, rtol=0, atol=0)
    totals_a = [r.total for r in first.history]
    totals_b = [r.total for r in second.history]
    assert totals_a == totals_b
    running = np.minimum.accumulate(totals_a)
    assert running[-1] == first.best.total
    assert first.best.total <= totals_a[0]
    assert len(first.history) == first.n_evals


def test_optimize_counts_and_callback():
    problem = _problem(m=1, n_steps=20)
    result = optimize(problem, step=0.5, max_evals=9)
    assert result.n_evals <= 9
    assert len(result.history) == result.n_evals
    assert not result.history[0].theta.any()  # the search starts at zero
