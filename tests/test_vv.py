"""Tests for vanishing-viscosity sweeps, limit certificates, and the
rate-independence probe.

The scalar scenarios reduce exactly to one-dimensional dynamics, so the
running-max formula and the closed-form scalar stepping act as
solver-free references.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.dissipation as dissipation
import histris.qp as qp
import histris.vv as vv
from histris.config import build_scenario, normalize_config
from histris.dissipation import WeightedL1, force_box
from histris.errors import NumericalFailure
from histris.history import HistoryAccumulator, identity_kernel
from histris.spatial import build_mesh
from histris.trajectory import Trajectory
from histris.verify import dual_equivalence, smooth_fatigue
from histris.viscous import (
    Scenario,
    constant_in_space_load,
    driving_force,
    solve_viscous,
)
from histris.vv import (
    DEFAULT_EPS_LEVELS,
    certify_limit,
    check_rate_independence,
    replay,
    vv_sweep,
)

from helpers import HeldLog, count_carries, scalar_scenario
from oracles import (
    certify_limit_per_step,
    dual_equivalence_per_step,
    history_eval,
    replay_per_step,
    running_max_solution,
    scalar_fatigue_steps,
)


def _sine_scenario(n_steps=500):
    return scalar_scenario(
        lambda t: 2.0 * np.sin(math.pi * t),
        lambda t: 2.0 * math.pi * np.cos(math.pi * t),
        n_steps=n_steps,
    )


def test_trajectory_sample_clamps_the_ends_and_rejects_nan():
    traj = Trajectory(times=np.array([0.0, 0.5, 1.0]),
                      values=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 9.0]]))
    assert_allclose(traj.sample(0.25), [1.0, 2.0], rtol=0, atol=0)
    for t, row in [(-math.inf, 0), (-1.0, 0), (1.5, 2), (math.inf, 2)]:
        sample = traj.sample(t)
        assert_allclose(sample, traj.values[row], rtol=0, atol=0)
        assert not np.shares_memory(sample, traj.values)
    with pytest.raises(ValueError, match="cannot sample a trajectory at t = nan"):
        traj.sample(math.nan)


def test_default_schedule_halves_from_a_tenth():
    assert DEFAULT_EPS_LEVELS[0] == pytest.approx(0.1)
    ratios = np.diff(np.log(DEFAULT_EPS_LEVELS))
    assert_allclose(ratios, math.log(0.5), rtol=1e-12)


def test_sweep_converges_to_running_max_solution():
    # The limit under a constant threshold is the running max of the
    # excess drive; each viscous solve lags by O(eps + tau).
    sc = _sine_scenario()
    res = vv_sweep(sc, (0.1, 0.05, 0.025), certify=False)
    oracle = running_max_solution(
        lambda t: 2.0 * math.sin(math.pi * t), 1.0, 1.0, sc.times()
    )
    errors = []
    for eps, traj in zip(res.eps_values, res.trajectories):
        err = np.abs(traj.values[:, 0] - oracle).max()
        assert err <= 6.0 * (eps + sc.tau)
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_sweep_differences_shrink():
    sc = _sine_scenario()
    res = vv_sweep(sc, (0.1, 0.05, 0.025, 0.0125), certify=False)
    assert len(res.c_diffs) == 3 and len(res.h1_diffs) == 3
    assert res.c_diffs[0] > res.c_diffs[1] > res.c_diffs[2]
    assert all(d > 0 for d in res.h1_diffs)
    assert res.limit is res.trajectories[-1]
    assert res.certificate is None


def test_certificate_accepts_limit_and_rejects_shifted_copy():
    # A constant upward shift leaves the rates untouched but breaks the
    # force balance along slip, so only the genuine limit certifies.
    sc = _sine_scenario()
    res = vv_sweep(sc, (0.05, 0.0125, 0.003125), certificate_tol=1e-2)
    cert = res.certificate
    assert cert.passed
    assert cert.max_stability_violation <= 1e-2
    assert cert.max_balance_residual <= 1e-2
    assert cert.n_steps_checked == sc.n_steps

    shifted = Trajectory(times=res.limit.times, values=res.limit.values + 0.1)
    bad = certify_limit(sc, shifted, tol=1e-2)
    assert not bad.passed
    assert bad.max_balance_residual > 1e-2


def test_certificate_rejects_non_finite_states():
    sc = _sine_scenario()
    traj, _ = solve_viscous(sc, 0.003125)
    assert certify_limit(sc, traj).passed
    values = traj.values.copy()
    values[300:] = np.nan
    cert = certify_limit(sc, Trajectory(times=traj.times, values=values))
    assert not cert.passed
    assert math.isnan(cert.max_stability_violation)
    assert math.isnan(cert.max_balance_residual)


_REPLAY_KERNELS = [
    ("exp(-2*t)", "-2*exp(-2*t)"),              # geometric: O(1) recurrence
    ("1/(1 + t)^2", "-2/(1 + t)^3"),            # re-weighted every step
]


def _replay_scenario(family, kernel, slope, n_nodes):
    return build_scenario(normalize_config({
        "mesh": {"n_nodes": n_nodes},
        "model": {"n_steps": 300},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": family},
        "history": {"kind": "convolution", "kernel": kernel,
                    "kernel_slope": slope},
    }))


def _per_step(blocks):
    """The steps of :func:`replay`'s blocks, one ``(rate, force, lower,
    upper)`` a step; a one-sided ``lower`` stays the scalar ``-inf``."""
    for rate, force, lower, upper in blocks:
        for k in range(len(rate)):
            yield (rate[k], force[k],
                   lower if np.isscalar(lower) else lower[k], upper[k])


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel, slope", _REPLAY_KERNELS)
def test_replay_matches_from_scratch_oracle(family, kernel, slope):
    # Every step the replay yields must agree with the history, force
    # and box rebuilt from scratch at that step.  At n = 257 the 300
    # steps come in five blocks, the last one partial.
    def close(got, want):
        scale = max(1.0, float(np.abs(want).max()))
        return float(np.abs(got - want).max()) <= 1e-14 * scale

    for n_nodes in (9, 257):
        sc = _replay_scenario(family, kernel, slope, n_nodes)
        traj, _ = solve_viscous(sc, 0.01)
        q, t = traj.values, traj.times

        steps = list(_per_step(replay(sc, traj)))
        assert len(steps) == sc.n_steps
        for k, (rate, force, lower, upper) in enumerate(steps):
            zeta = history_eval(sc.kernel, t, q, k)
            want_lower, want_upper = force_box(sc.dissipation, sc.mesh, zeta)
            assert close(rate, (q[k + 1] - q[k]) / traj.tau)
            assert close(force, driving_force(sc, t[k + 1], q[k + 1]))
            assert close(upper, want_upper)
            if family == "fatigue":
                assert lower == want_lower == -np.inf
            else:
                assert close(lower, want_lower)


@pytest.mark.parametrize("one_sided", [True, False])
def test_stability_violation_is_relative_box_slack_density(one_sided):
    # State at rest under a constant load density 3 against threshold
    # density 1: the force leaves the box by density 2, relative to
    # 1 + 3 + 1.  The two-sided family sees the same from below.
    sc = scalar_scenario(lambda t: 3.0 if one_sided else -3.0, n_steps=10)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.weight, lipschitz=0.0))
    rest = Trajectory(times=sc.times(), values=np.zeros((11, sc.mesh.n_nodes)))
    cert = certify_limit(sc, rest)
    assert cert.max_stability_violation == pytest.approx(2.0 / 5.0, rel=1e-12)
    assert cert.max_balance_residual == 0.0
    assert not cert.passed


@pytest.mark.parametrize("one_sided", [True, False])
def test_threshold_is_assembled_once_per_step(monkeypatch, one_sided):
    # The step's decision (the elastic exit or the prox) and the balance
    # check of an implicit step share one threshold, and so do the force
    # box and the balance check of a certificate step.  A run of held
    # steps assembles a window of rows at once: the rows after its first
    # step that is not elastic are discarded, at most all but the first.
    sc = scalar_scenario(lambda t: 2.0 * np.sin(math.pi * t), n_steps=40)
    if not one_sided:
        sc = replace(sc, dissipation=WeightedL1(
            weight=sc.dissipation.weight, lipschitz=0.0))
    calls = []  # the states of each call, one row each
    real = dissipation.threshold_dual

    def counted(*args):
        calls.append(np.atleast_2d(args[2]).copy())
        return real(*args)

    monkeypatch.setattr(dissipation, "threshold_dual", counted)
    discarded = 0
    # At 50 steps the first run ends inside a window: steps 1-8 are held.
    # The certificate below replays the last trajectory, of sc.
    for scn in (sc.with_steps(50), sc):
        calls.clear()
        traj, _ = solve_viscous(scn, 0.05)
        acc = HistoryAccumulator(scn.kernel, scn.tau, scn.mesh.n_nodes, scn.n_steps)
        zetas = []
        for q in traj.values[:-1]:
            acc.push(q)
            zetas.append(acc.value())
        # Each call's rows are those of the next steps, in order, then the
        # discarded ones.
        k = 0
        for rows in calls:
            used = 0
            while (used < len(rows) and k < scn.n_steps
                   and _same_bits(rows[used], zetas[k])):
                used, k = used + 1, k + 1
            assert used >= 1
            discarded += len(rows) - used
        assert k == scn.n_steps and len(calls) < scn.n_steps
    assert discarded > 0
    calls.clear()
    certify_limit(sc, traj)
    assert sum(map(len, calls)) == sc.n_steps


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel, slope", _REPLAY_KERNELS)
def test_block_replay_keeps_the_per_step_bits(family, kernel, slope):
    # 300 steps at n = 257 make blocks of 63 steps, the last of 48.  The
    # blocks, the certificate's residuals and every field of the dual
    # reading equal the step-by-step loops bit for bit.
    sc = _replay_scenario(family, kernel, slope, 257)
    eps = 0.01
    traj, _ = solve_viscous(sc, eps)
    blocks = list(replay(sc, traj))
    assert [len(b[0]) for b in blocks] == [63, 63, 63, 63, 48]
    oracle = list(replay_per_step(sc, traj, HistoryAccumulator))
    for got, want in zip(_per_step(blocks), oracle, strict=True):
        assert all(_same_bits(np.asarray(g, dtype=float), np.asarray(w, dtype=float))
                   for g, w in zip(got, want))

    cert = certify_limit(sc, traj)
    want_stab, want_bal = certify_limit_per_step(sc, traj, iter(oracle))
    assert _same_bits(cert.max_stability_violation, want_stab)
    assert _same_bits(cert.max_balance_residual, want_bal)

    res = dual_equivalence(sc, eps)
    want = dual_equivalence_per_step(sc, eps, iter(oracle))
    for name, value in want.items():
        assert _same_bits(getattr(res, name), value), name


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel, slope", [("1", "0")] + _REPLAY_KERNELS)
def test_replay_by_runs_keeps_the_bits_of_step_by_step_pushes(monkeypatch, family,
                                                              kernel, slope):
    # A geometric kernel (the identity, exp(-2t)) replays each stretch of
    # bitwise-repeated samples as held pushes; 1/(1+t)^2 pushes every
    # sample.  Some run crosses a block edge (blocks of 63 steps at
    # n = 257).  Every block, the certificate's residuals and every field
    # of the dual reading equal the step-by-step loops bit for bit.
    sc = _replay_scenario(family, kernel, slope, 257)
    if kernel == "1":
        sc = replace(sc, kernel=identity_kernel(sc.kernel.y0))
    eps = 0.01
    traj, _ = solve_viscous(sc, eps)
    repeats = np.flatnonzero((traj.values[1:] == traj.values[:-1]).all(axis=1))
    # Samples e - 1, e and e + 1 repeat across the edge e of two blocks.
    assert any(np.isin([e - 1, e], repeats).all() for e in (63, 126, 189, 252))
    monkeypatch.setattr(vv, "HistoryAccumulator", HeldLog)
    HeldLog.held = []
    blocks = list(replay(sc, traj))
    if kernel == "1/(1 + t)^2":
        assert set(HeldLog.held) == {0}
    else:
        # A repeated sample that ends a block is pushed, not held.
        ends = np.isin(np.array([63, 126, 189, 252, 300]) - 1, repeats).sum()
        assert sum(HeldLog.held) == len(repeats) - ends and max(HeldLog.held) > 1
    oracle = list(replay_per_step(sc, traj, HistoryAccumulator))
    for got, want in zip(_per_step(blocks), oracle, strict=True):
        assert all(_same_bits(np.asarray(g, dtype=float), np.asarray(w, dtype=float))
                   for g, w in zip(got, want))

    cert = certify_limit(sc, traj)
    want_stab, want_bal = certify_limit_per_step(sc, traj, iter(oracle))
    assert _same_bits(cert.max_stability_violation, want_stab)
    assert _same_bits(cert.max_balance_residual, want_bal)

    res = dual_equivalence(sc, eps)
    want = dual_equivalence_per_step(sc, eps, iter(oracle))
    for name, value in want.items():
        assert _same_bits(getattr(res, name), value), name


def test_replay_carries_the_sums_once_a_sample(monkeypatch):
    # The runs of held samples are looked ahead once: push_held takes the
    # sums held_values has formed, so each sample after the first costs
    # one carry of the recurrence.
    sc = _replay_scenario("fatigue", *_REPLAY_KERNELS[0], 33)
    traj, _ = solve_viscous(sc, 0.01)
    assert (traj.values[1:] == traj.values[:-1]).all(axis=1).sum() > 100
    calls = count_carries(monkeypatch)
    certify_limit(sc, traj)
    assert len(calls) == sc.n_steps


def test_balance_is_infinite_where_a_one_sided_rate_decreases():
    # One node moving down is outside the fatigue rate cone: the
    # potential is inf at that step, and the residual is inf with no
    # RuntimeWarning from inf/inf.
    sc = _sine_scenario(n_steps=50)
    traj, _ = solve_viscous(sc, 0.01)
    assert certify_limit(sc, traj).max_balance_residual < math.inf
    values = traj.values.copy()
    values[30:, 2] -= 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_limit(sc, Trajectory(times=traj.times, values=values))
    assert cert.max_balance_residual == math.inf
    assert math.isfinite(cert.max_stability_violation)
    assert not cert.passed


def test_two_sided_stability_defect_shrinks_with_eps():
    # Off the box the viscosity-free force differs from the viscous one
    # by eps * Riesz(rate), so the exact check sees an O(eps) defect
    # while the rate slips in both directions.
    sc = build_scenario(normalize_config({
        "mesh": {"n_nodes": 33},
        "model": {"n_steps": 1000},
        "load": {"time": "2*sin(2*pi*t)", "space": "1 + 0.6*cos(3*pi*x)"},
        "dissipation": {"family": "weighted_l1"},
    }))
    coarse = certify_limit(sc, solve_viscous(sc, 0.02)[0])
    fine = certify_limit(sc, solve_viscous(sc, 0.01)[0])
    assert coarse.max_stability_violation > 1e-2
    ratio = fine.max_stability_violation / coarse.max_stability_violation
    assert 0.4 <= ratio <= 0.7


def test_sweep_schedule_validation():
    sc = _sine_scenario(n_steps=10)
    with pytest.raises(ValueError, match="empty"):
        vv_sweep(sc, ())
    with pytest.raises(ValueError, match="positive"):
        vv_sweep(sc, (0.1, -0.05))
    with pytest.raises(ValueError, match="decrease"):
        vv_sweep(sc, (0.05, 0.1))


def test_solver_matches_closed_form_scalar_stepping():
    # State-dependent weight, identity history: the spatially constant
    # problem is the same implicit scheme solved in closed form, so the
    # agreement is to solver tolerance, not discretization accuracy.
    n_nodes, alpha, eps, n_steps = 5, 1.5, 0.05, 400
    mesh = build_mesh(n_nodes)
    a = lambda t: 2.0 * np.sin(math.pi * t)
    sc = Scenario(
        mesh=mesh,
        alpha=alpha,
        load=constant_in_space_load(mesh, a),
        kernel=identity_kernel(np.zeros(n_nodes)),
        dissipation=smooth_fatigue(),
        horizon=1.0,
        n_steps=n_steps,
    )
    traj, _ = solve_viscous(sc, eps)
    weight = lambda z: 0.4 + 0.6 / (1.0 + z ** 2)
    expected = scalar_fatigue_steps(a, weight, alpha, eps, sc.times())
    spread = np.abs(traj.values - traj.values[:, :1]).max()
    assert spread <= 1e-10  # constant-in-space loads stay constant in space
    assert_allclose(traj.values[:, 0], expected, rtol=0, atol=1e-9)


def test_rate_independence_probe():
    sc = _sine_scenario()
    # identity reparametrization on the same grid reproduces the solve
    same = check_rate_independence(sc, lambda s: s, 1.0, eps=0.05)
    assert same.discrepancy == 0.0

    # slowing down time: discrepancy decays with the viscosity
    slow = check_rate_independence(sc, lambda s: s * s, 1.0, eps=0.1)
    fine = check_rate_independence(sc, lambda s: s * s, 1.0, eps=0.01)
    assert fine.discrepancy <= 1.5e-2
    assert fine.discrepancy <= slow.discrepancy / 5.0
    assert slow.base_sup_norm > 0.5


def test_rate_independence_validates_the_map(monkeypatch):
    # A bad map is rejected before any solve runs.
    solves = []
    inner = vv.solve_viscous

    def counted(*args, **kwargs):
        solves.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(vv, "solve_viscous", counted)
    sc = _sine_scenario(n_steps=20)
    with pytest.raises(ValueError, match="start at zero"):
        check_rate_independence(sc, lambda s: s + 0.5, 1.0, eps=0.1)
    with pytest.raises(ValueError, match="nondecreasing"):
        check_rate_independence(sc, lambda s: -s, 1.0, eps=0.1)
    with pytest.raises(ValueError, match="beyond the horizon"):
        check_rate_independence(sc, lambda s: 2.0 * s, 1.0, eps=0.1)
    with pytest.raises(ValueError, match="must be finite"):
        check_rate_independence(sc, lambda s: np.where(s > 0.5, math.nan, s), 1.0,
                                eps=0.1)
    assert len(solves) == 0


def _same_bits(a, b):
    if not isinstance(a, (float, np.ndarray)):
        return type(a) is type(b) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_KERNELS = {
    "1": {"kind": "identity"},
    "exp(-2*t)": {"kind": "convolution", "kernel": "exp(-2*t)"},
    "1/(1+t)^2": {"kind": "convolution", "kernel": "1/(1+t)^2"},
}


@pytest.mark.parametrize("family", ["fatigue", "weighted_l1"])
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_lockstep_sweep_is_bit_identical_to_per_level_solves(monkeypatch, family,
                                                             kernel):
    # The sweep advances all levels in one loop with one stacked QP per
    # step; every trajectory and report field must be the level's own
    # solve, bit for bit and with the sign of every zero.  The load
    # changes sign in space, which at n = 65 sends weighted-l1 members
    # to the monotone steps of the QP.
    descends = []
    inner = qp._descend

    def counted(*args):
        descends.append(args[4].size)
        return inner(*args)

    monkeypatch.setattr(qp, "_descend", counted)
    eps_values = (0.1, 0.02, 0.004)
    for n in (2, 17, 65):
        sc = build_scenario(normalize_config({
            "mesh": {"n_nodes": n},
            "model": {"n_steps": 60, "horizon": 2.0},
            "load": {"time": "2*sin(2*pi*t)", "space": "cos(3*pi*x)"},
            "dissipation": {"family": family},
            "history": _KERNELS[kernel],
        }))
        before = len(descends)
        res = vv_sweep(sc, eps_values, certify=False)
        swept = len(descends) - before
        # The levels' states are read-only views of the history's one
        # sample table.
        table = res.trajectories[0].values.base
        assert table.shape == (len(eps_values), 61, n)
        for traj in res.trajectories:
            assert traj.values.base is table
            assert not traj.values.flags.writeable
        for eps, traj, report in zip(eps_values, res.trajectories, res.reports):
            ref_traj, ref = solve_viscous(sc, eps)
            assert _same_bits(traj.times, ref_traj.times)
            assert _same_bits(traj.values, ref_traj.values)
            for field in vars(ref):
                assert _same_bits(getattr(report, field), getattr(ref, field)), field
        # The per-level solves took the same monotone steps.
        assert len(descends) - before == 2 * swept
        if family == "weighted_l1" and n == 65:
            assert swept > 0 and set(descends[before:]) == {n}


def test_lockstep_failure_names_the_failing_level():
    # The threshold turns infinite once the history passes 0.68, which
    # only the finest level's history does.  The coarser levels solve
    # alone; the sweep fails at the finest level's step and names it.
    sc = _sine_scenario(n_steps=200)
    sc = replace(sc, dissipation=dissipation.Fatigue(
        weight=lambda z: np.where(z < 0.68, 1.0, np.inf), lipschitz=0.0))
    for eps in (0.2, 0.05):
        solve_viscous(sc, eps)
    with pytest.raises(NumericalFailure, match="step 197/200") as exc:
        vv_sweep(sc, (0.2, 0.05, 0.0125))
    assert "eps=0.0125" in str(exc.value)
    assert "eps=0.2" not in str(exc.value) and "eps=0.05" not in str(exc.value)
    assert exc.value.member == 2
    assert math.isnan(exc.value.residual)
