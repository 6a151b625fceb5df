"""Tests for the verification experiments: load norms, random load
draws, compatibility, bound/Lipschitz spreads, the uniqueness probe,
the dual complementarity readings, and the history increment check.

Experiment configurations are scaled down; the acceptance suite runs
them at their stated sizes.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import histris.verify as verify
from histris.dissipation import Fatigue, WeightedL1, threshold_dual
from histris.config import build_scenario, normalize_config
from histris.expressions import Expression
from histris.history import HistoryAccumulator, convolution_kernel, identity_kernel
from histris.spatial import build_mesh, dual_norm
from histris.trajectory import Trajectory
from histris.verify import (
    DUAL_RESIDUAL_TOL,
    UNIQUENESS_GAP_TOL,
    ExperimentConfig,
    compatibility_check,
    dual_equivalence,
    dual_equivalence_slope,
    history_lipschitz_check,
    lipschitz_experiment,
    load_h1_dual_norm,
    load_w11_diff_norm,
    random_load,
    smooth_fatigue,
    uniform_bound_experiment,
    uniqueness_probe,
)
from histris.viscous import Load, LoadTerm, constant_in_space_load, solve_viscous

from helpers import HeldLog, scalar_scenario
from oracles import follow_per_push


def _sine_scenario(n_steps=200):
    return scalar_scenario(
        lambda t: 2.0 * np.sin(math.pi * t),
        lambda t: 2.0 * math.pi * np.cos(math.pi * t),
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# weights and load norms


def test_smooth_fatigue_weight():
    spec = smooth_fatigue()
    assert spec.weight(0.0) == pytest.approx(1.0)
    assert spec.weight(1e6) == pytest.approx(0.4, abs=1e-9)
    # steepest slope of amp/(1+z^2) is 9 amp / (8 sqrt(3)), at z=1/sqrt(3)
    assert spec.lipschitz == pytest.approx(0.6 * 9.0 / (8.0 * math.sqrt(3.0)))
    zs = np.linspace(-3.0, 3.0, 601)
    h = 1e-6
    fd = (spec.weight(zs + h) - spec.weight(zs - h)) / (2.0 * h)
    assert np.abs(fd).max() <= spec.lipschitz + 1e-8
    with pytest.raises(ValueError, match="nonnegative"):
        smooth_fatigue(floor=-0.1)
    for floor, amp in ((math.nan, 0.6), (0.4, math.nan), (math.inf, 0.6)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            smooth_fatigue(floor=floor, amp=amp)


def test_load_h1_dual_norm_analytic():
    # a(t) = t against the constant profile: the squared norm is
    # c^2 (t^2 + 1) integrated by the trapezoid rule, and the trapezoid
    # value of t^2 on a uniform grid exceeds 1/3 by exactly tau^2/6.
    mesh = build_mesh(4, 1.0)
    load = constant_in_space_load(mesh, lambda t: t, lambda t: 1.0)
    c = dual_norm(mesh, mesh.mass @ np.ones(4))
    times = np.linspace(0.0, 1.0, 11)
    tau = times[1] - times[0]
    expected = c * math.sqrt(4.0 / 3.0 + tau ** 2 / 6.0)
    assert load_h1_dual_norm(mesh, load, times) == pytest.approx(expected, rel=1e-12)


def test_load_w11_diff_norm_analytic():
    # Difference a(t) = t against zero: trapezoid of c t is exactly c/2
    # and the total variation of the increments is exactly c.
    mesh = build_mesh(4, 1.0)
    load = constant_in_space_load(mesh, lambda t: t, lambda t: 1.0)
    zero = constant_in_space_load(mesh, lambda t: 0.0, lambda t: 0.0)
    c = dual_norm(mesh, mesh.mass @ np.ones(4))
    times = np.linspace(0.0, 1.0, 11)
    got = load_w11_diff_norm(mesh, load, zero, times)
    assert got == pytest.approx(1.5 * c, rel=1e-12)


def _trapezoid_loop(samples, tau):
    return tau * (sum(samples) - 0.5 * samples[0] - 0.5 * samples[-1])


def _h1_dual_norm_by_rows(mesh, load, times):
    # The load norms one time at a time, one dual_norm call a row.
    total = [
        dual_norm(mesh, load.value(t)) ** 2 + dual_norm(mesh, load.derivative(t)) ** 2
        for t in times
    ]
    return math.sqrt(_trapezoid_loop(total, times[1] - times[0]))


def _w11_diff_norm_by_rows(mesh, load_a, load_b, times):
    diffs = [load_a.value(t) - load_b.value(t) for t in times]
    values = [dual_norm(mesh, d) for d in diffs]
    variation = sum(dual_norm(mesh, b - a) for a, b in zip(diffs, diffs[1:]))
    return _trapezoid_loop(values, times[1] - times[0]) + variation


def test_random_load_properties():
    mesh = build_mesh(9, 1.0)
    rng = np.random.default_rng(12)
    spec = smooth_fatigue()
    w0 = threshold_dual(spec, mesh, np.zeros(9))
    probe = np.linspace(0.0, 1.0, 201)
    loads = []
    for _ in range(5):
        load = random_load(mesh, 1.0, rng, cap=6.0, threshold0=w0)
        loads.append(load)
        assert_allclose(load.value(0.0), 0.0, rtol=0, atol=1e-14)
        norm = load_h1_dual_norm(mesh, load, probe)
        assert 0.5 * 6.0 <= norm <= 6.0
        # The batched row norms against one dual_norm call a time.
        assert norm == pytest.approx(_h1_dual_norm_by_rows(mesh, load, probe),
                                     rel=1e-12)
        ratio = max(
            (load.value(t)[w0 > 0] / w0[w0 > 0]).max() for t in probe
        )
        assert ratio >= 1.8
        # analytic time derivatives are attached
        t = 0.37
        h = 1e-6
        fd = (load.value(t + h) - load.value(t - h)) / (2.0 * h)
        assert_allclose(load.derivative(t), fd, rtol=0, atol=1e-5)
    for a, b in zip(loads, loads[1:]):
        got = load_w11_diff_norm(mesh, a, b, probe)
        assert got == pytest.approx(_w11_diff_norm_by_rows(mesh, a, b, probe),
                                    rel=1e-12)


def test_random_load_without_an_accepted_draw():
    # Each attempt is one unconditional draw from the same stream.
    mesh = build_mesh(9, 1.0)
    w0 = threshold_dual(smooth_fatigue(), mesh, np.zeros(9))
    probe = np.linspace(0.0, 1.0, 201)
    free = np.random.default_rng(3)
    draws = [random_load(mesh, 1.0, free) for _ in range(50)]
    ratios = [(d.values(probe) / w0).max() for d in draws]

    # No ratio reaches the margin over a threshold 2^40 times as high:
    # the best of the 50 comes back (the scaling keeps their order exactly).
    rng = np.random.default_rng(3)
    best = random_load(mesh, 1.0, rng, threshold0=w0 * 2.0**40)
    assert np.array_equal(best.values(probe),
                          draws[int(np.argmax(ratios))].values(probe))
    assert rng.bit_generator.state == free.bit_generator.state

    # With no positive threshold the first draw is accepted.
    rng, free = np.random.default_rng(3), np.random.default_rng(3)
    first = random_load(mesh, 1.0, rng, threshold0=np.zeros(9))
    assert np.array_equal(first.values(probe),
                          random_load(mesh, 1.0, free).values(probe))
    assert rng.bit_generator.state == free.bit_generator.state


# ---------------------------------------------------------------------------
# compatibility


def test_compatibility_accepts_loads_vanishing_at_start():
    report = compatibility_check(_sine_scenario(n_steps=10))
    assert report.ok and bool(report)
    assert report.violating_nodes.size == 0
    assert "admissible" in report.message


def test_compatibility_flags_initial_excess():
    sc = _sine_scenario(n_steps=10)
    w0 = threshold_dual(sc.dissipation, sc.mesh, sc.kernel.y0)
    bad_load = Load([LoadTerm(lambda t: 1.0, 2.0 * w0)])
    bad = replace(sc, load=bad_load)
    report = compatibility_check(bad)
    assert not report.ok and not bool(report)
    assert report.violating_nodes.size == sc.mesh.n_nodes
    assert report.worst_violation == pytest.approx(w0.max(), rel=1e-12)
    assert "5 node(s)" in report.message
    assert "viscous transient" in report.message


# ---------------------------------------------------------------------------
# spread experiments (scaled down; acceptance runs the stated sizes)


def test_uniform_bound_experiment_small():
    cfg = ExperimentConfig(n_nodes=9, n_steps=100, eps_values=(0.1, 0.05),
                           n_loads=2, seed=3, jobs=2)
    res = uniform_bound_experiment(cfg)
    assert len(res.rows) == 4
    assert all(math.isfinite(r["ratio"]) and r["ratio"] > 0 for r in res.rows)
    assert all(r["balance_residual"] <= 1e-8 for r in res.rows)
    assert len(res.per_load_spread) == 2
    assert all(s >= 1.0 for s in res.per_load_spread)
    assert res.max_spread == max(res.per_load_spread)
    assert res.passed == (res.max_spread <= res.spread_cap)

    again = uniform_bound_experiment(cfg)
    assert [r["ratio"] for r in again.rows] == [r["ratio"] for r in res.rows]


def test_lipschitz_experiment_small():
    cfg = ExperimentConfig(n_nodes=9, n_steps=100, eps_values=(0.1, 0.05),
                           n_pairs=2, seed=5, jobs=2)
    res = lipschitz_experiment(cfg)
    assert len(res.rows) == 4
    assert res.all_finite
    assert len(res.max_ratio_per_eps) == 2
    assert all(m > 0 for m in res.max_ratio_per_eps)
    assert res.cross_eps_spread >= 1.0
    assert all(s >= 1.0 for s in res.per_pair_spread)
    assert res.passed == (res.all_finite and res.cross_eps_spread <= res.spread_cap)


def test_experiments_start_no_thread(monkeypatch):
    cfg = ExperimentConfig(n_nodes=5, n_steps=20, eps_values=(0.1, 0.05),
                           n_loads=2, n_pairs=2, seed=2, jobs=4)
    serial = replace(cfg, jobs=1)
    expected = (uniform_bound_experiment(serial).rows,
                lipschitz_experiment(serial).rows)

    def refuse(self):
        raise AssertionError(f"an experiment started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert uniform_bound_experiment(cfg).rows == expected[0]
    assert lipschitz_experiment(cfg).rows == expected[1]


# ---------------------------------------------------------------------------
# uniqueness probe


def test_uniqueness_probe_gaps_and_refinement():
    sc = _sine_scenario()
    res = uniqueness_probe(sc, 0.05)
    assert res.explicit_refine == 1  # tau = 5e-3 already satisfies eps/10
    assert len(res.gaps) == 6
    assert res.max_gap == max(res.gaps.values())
    assert res.max_gap <= UNIQUENESS_GAP_TOL

    finer = uniqueness_probe(sc, 0.01)
    assert finer.explicit_refine == 5
    assert finer.max_gap <= UNIQUENESS_GAP_TOL


@pytest.mark.parametrize("eps", [0.0, -0.05, math.nan, math.inf, 1e-9, 1e-320])
def test_uniqueness_probe_rejects_bad_eps(monkeypatch, eps):
    # A bad eps is rejected before any solve: a nonpositive or non-finite
    # one with solve_viscous's message; one whose explicit grid would take
    # 200 * 10**8 steps (tau = 5e-3) with eps, tau and the count; and one
    # whose refinement overflows to inf.
    def refuse(*args, **kwargs):
        raise AssertionError("a bad eps reached a solve")

    monkeypatch.setattr(verify, "solve_viscous", refuse)
    match = {1e-9: r"eps=1e-09 with tau=0.005 needs about 1e\+10 explicit steps "
                   r"\(tau <= eps/10\), more than 1000000",
             1e-320: "needs about inf explicit steps"}
    match = match.get(eps, "eps must be positive, got")
    with pytest.raises(ValueError, match=match):
        uniqueness_probe(_sine_scenario(), eps)


# ---------------------------------------------------------------------------
# dual complementarity readings


def test_dual_equivalence_residuals():
    sc = _sine_scenario()
    res = dual_equivalence(sc, 0.05)
    assert res.viscous_residual <= DUAL_RESIDUAL_TOL
    assert res.rate_admissibility <= 0.0
    assert res.viscous_feasibility <= 1e-9
    # dropping the viscous term leaves an O(eps) defect
    assert res.limit_residual > 100.0 * res.viscous_residual
    assert res.eps == 0.05 and res.tau == pytest.approx(sc.tau)


def test_dual_equivalence_weighted_l1():
    weight = lambda z: 0.4 + 0.6 / (1.0 + np.square(z))
    sc = replace(
        _sine_scenario(),
        dissipation=WeightedL1(weight=weight,
                               lipschitz=0.6 * 9.0 / (8.0 * math.sqrt(3.0))),
    )
    res = dual_equivalence(sc, 0.05)
    assert res.viscous_residual <= DUAL_RESIDUAL_TOL
    assert res.limit_residual > res.viscous_residual


def test_dual_equivalence_slope_refines_at_first_order():
    taus, residuals, slope = dual_equivalence_slope(_sine_scenario(), (125, 250, 500))
    assert len(taus) == len(residuals) == 3
    assert residuals[0] > residuals[1] > residuals[2]
    assert slope >= 0.8  # the acceptance suite pins >= 0.9 at its schedule
    # An order needs two distinct step counts.
    for counts in ((50,), (50, 50)):
        with pytest.raises(ValueError, match="two distinct step counts"):
            dual_equivalence_slope(_sine_scenario(), counts)


# ---------------------------------------------------------------------------
# history increment check


def test_history_slopes_respect_the_bound():
    sc = replace(_sine_scenario(), dissipation=smooth_fatigue())
    traj, _ = solve_viscous(sc, 0.02)
    report = history_lipschitz_check(sc, traj)
    assert report.passed and report.max_ratio <= 1.0
    assert len(report.rows) == 3 * sc.n_steps


def test_history_slope_check_detects_understated_constant():
    sc = replace(_sine_scenario(), dissipation=smooth_fatigue())
    traj, _ = solve_viscous(sc, 0.02)
    honest = smooth_fatigue()
    lying = replace(sc, dissipation=Fatigue(weight=honest.weight,
                                            lipschitz=honest.lipschitz / 20.0))
    report = history_lipschitz_check(lying, traj)
    assert not report.passed and report.max_ratio > 1.0


def test_history_slope_check_rejects_vacuous_inputs():
    # One step has one history increment to check, against its one rate.
    sc = replace(_sine_scenario(n_steps=1), dissipation=smooth_fatigue())
    traj, _ = solve_viscous(sc, 0.02)
    report = history_lipschitz_check(sc, traj)
    assert len(report.rows) == 1 and report.passed
    # No step, nothing to check.
    with pytest.raises(ValueError, match="at least 1 step, got 0"):
        history_lipschitz_check(sc, Trajectory(times=traj.times[:1],
                                               values=traj.values[:1]))
    # At two steps the three rates are those of steps 0 and 1: 2 x 2 rows.
    sc = replace(_sine_scenario(n_steps=2), dissipation=smooth_fatigue())
    traj, _ = solve_viscous(sc, 0.02)
    assert len(history_lipschitz_check(sc, traj).rows) == 4
    # An all-NaN trajectory fails: NaN reaches max_ratio.
    lost = Trajectory(times=traj.times, values=np.full_like(traj.values, math.nan))
    report = history_lipschitz_check(sc, lost)
    assert math.isnan(report.max_ratio) and not report.passed


@pytest.mark.parametrize("kernel", ["1", "exp(-2*t)", "1/(1+t)"])
def test_history_check_through_runs_is_the_per_push_check(monkeypatch, kernel):
    # The solve opens with a run of elastic steps, whose samples repeat
    # bitwise; the check reads their histories through held pushes
    # (geometric kernels) and its rows have the bits of one value() and
    # one push a sample.
    sc = replace(_sine_scenario(), dissipation=smooth_fatigue())
    if kernel != "1":
        sc = replace(sc, kernel=convolution_kernel(Expression(kernel, ("t",)),
                                                   sc.kernel.y0))
    traj, _ = solve_viscous(sc, 0.02)
    assert (traj.values[1:21] == traj.values[0]).all()
    monkeypatch.setattr(verify, "HistoryAccumulator", HeldLog)
    HeldLog.held = []
    got = history_lipschitz_check(sc, traj)
    assert (max(HeldLog.held) > 1) == (kernel != "1/(1+t)")
    monkeypatch.setattr(HistoryAccumulator, "follow", follow_per_push)
    want = history_lipschitz_check(sc, traj)
    assert len(got.rows) == len(want.rows) == 3 * sc.n_steps

    def bits(report):  # every value of every row, then max_ratio
        values = [v for row in report.rows for v in row.values()]
        return np.array(values + [report.max_ratio]).view(np.uint64)

    assert np.array_equal(bits(got), bits(want))


def _l1_history_scenario(n_steps, lipschitz):
    """The weighted l1 problem of ROADMAP direction 12; the weight
    ``0.5 + 0.2 sin(z)`` has the constant 0.2."""
    return build_scenario(normalize_config({
        "mesh": {"n_nodes": 9},
        "model": {"n_steps": n_steps},
        "dissipation": {"family": "weighted_l1", "weight": "0.5 + 0.2*sin(z)",
                        "lipschitz": lipschitz},
        "history": {"kind": "convolution", "kernel": "exp(-2*t)"},
    }))


@pytest.mark.parametrize("n_steps", [40, 160, 640])
def test_history_check_reads_the_increment_bound_at_every_step_count(n_steps):
    # The increment form has no discretization error, so the worst ratio
    # is the same on every grid: the true constant passes, and half or a
    # quarter of it fails however fine the grid (an absolute tolerance
    # on the excess would let them pass as the increments shrink).
    traj, _ = solve_viscous(_l1_history_scenario(n_steps, 0.2), 1e-3)
    for lipschitz, ratio in ((0.2, 0.5774), (0.1, 1.1547), (0.05, 2.3094)):
        report = history_lipschitz_check(_l1_history_scenario(n_steps, lipschitz), traj)
        assert report.max_ratio == pytest.approx(ratio, abs=1e-4)
        assert report.passed == (lipschitz == 0.2)
        assert len(report.rows) == 3 * n_steps


def test_history_check_allows_the_rounding_of_the_potentials():
    # (0.5 + z) - z is the constant 0.5 with the rounding of its two
    # operations, so lipschitz 0 bounds every increment by zero; the
    # potentials still move by rounding, which the allowance covers.
    # A non-constant weight under the same claim fails.
    sc = _l1_history_scenario(40, 0.2)
    traj, _ = solve_viscous(sc, 1e-3)
    flat = replace(sc, dissipation=WeightedL1(weight=lambda z: (0.5 + z) - z,
                                              lipschitz=0.0))
    report = history_lipschitz_check(flat, traj)
    assert any(row["increment"] > 0.0 for row in report.rows)
    assert all(row["bound"] == 0.0 for row in report.rows)
    assert report.passed and report.max_ratio == 0.0
    tilted = replace(flat, dissipation=WeightedL1(weight=lambda z: 0.5 + 1e-9 * z,
                                                  lipschitz=0.0))
    report = history_lipschitz_check(tilted, traj)
    assert report.max_ratio == math.inf and not report.passed


# ---------------------------------------------------------------------------
# experiment configuration


def test_experiment_config_build_defaults_and_overrides():
    cfg = ExperimentConfig(n_nodes=7)
    mesh, diss, kernel = cfg.build()
    assert mesh.n_nodes == 7
    assert diss.one_sided is True
    assert_allclose(kernel.y0, 0.0, rtol=0, atol=0)

    custom = ExperimentConfig(
        n_nodes=7,
        dissipation=WeightedL1(weight=lambda z: np.ones_like(z), lipschitz=0.0),
        kernel=identity_kernel(np.full(7, 0.5)),
    )
    mesh2, diss2, kernel2 = custom.build()
    assert diss2.one_sided is False
    assert_allclose(kernel2.y0, 0.5, rtol=0, atol=0)

    scn = cfg.scenario(mesh, diss, kernel,
                       constant_in_space_load(mesh, lambda t: t))
    assert scn.n_steps == cfg.n_steps and scn.alpha == cfg.alpha
