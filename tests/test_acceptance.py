"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Every test computes its quantities at the stated problem sizes, prints a
single ``criterion N ... PASS/FAIL`` line with the measured numbers, and
then asserts the stated tolerance.  Expected values come from the
closed-form oracles in ``tests/oracles.py``, brute-force enumeration, or
internal-consistency requirements — never from the implementation under
test.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import scalar_scenario
from oracles import (
    brute_force_box_qp,
    brute_force_l1_qp,
    running_max_solution,
    viscous_ramp_value,
)

import histris
from histris import (
    BALANCE_TOL,
    ExperimentConfig,
    HistoryAccumulator,
    Scenario,
    WeightedL1,
    build_mesh,
    check_homogeneity,
    check_lipschitz_axiom,
    check_rate_independence,
    conjugate_check,
    constant_in_space_load,
    dual_equivalence,
    dual_equivalence_slope,
    identity_kernel,
    lipschitz_experiment,
    project_subdiff_zero,
    prox_rate,
    smooth_fatigue,
    solve_viscous,
    threshold_dual,
    uniform_bound_experiment,
    uniqueness_probe,
    viscous_step,
)
from histris.spatial import h1_norm, riesz_solve


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {detail}")


def _smooth_weight(z):
    return 0.4 + 0.6 / (1.0 + np.asarray(z, dtype=float) ** 2)


_SMOOTH_LIPSCHITZ = 0.6 * 9.0 / (8.0 * math.sqrt(3.0))


def _weighted_l1():
    return WeightedL1(weight=_smooth_weight, lipschitz=_SMOOTH_LIPSCHITZ)


def _sine_scenario(n_steps):
    return scalar_scenario(
        lambda t: 2.0 * np.sin(np.pi * t),
        lambda t: 2.0 * np.pi * np.cos(np.pi * t),
        n_steps=n_steps,
    )


# Solve reports produced by the suite, inspected again by criterion 3.
REPORTS = []


# ---------------------------------------------------------------------------
# criterion 1: flat-threshold scalar problem against the closed-form solution


def test_criterion_01_scalar_oracle():
    sc = _sine_scenario(n_steps=10_000)
    traj, report = solve_viscous(sc, eps=1e-4)
    REPORTS.append(("criterion 1 solve", report))
    exact = running_max_solution(
        lambda t: 2.0 * np.sin(np.pi * t), 1.0, 1.0, traj.times
    )
    sup_err = float(np.max(np.abs(traj.values[:, 0] - exact)))
    ok = sup_err <= 1e-2
    _verdict(1, ok, f"scalar flat-threshold oracle: sup error {sup_err:.3e} "
                    f"(tol 1e-02, eps=tau=1e-4)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: zero-threshold ramp against the exact viscous relaxation value


def test_criterion_02_viscous_ramp():
    errs = {}
    for eps in (0.1, 0.01):
        sc = scalar_scenario(lambda t: t, lambda t: 1.0, threshold=0.0,
                             n_steps=10_000)
        traj, report = solve_viscous(sc, eps=eps)
        REPORTS.append((f"criterion 2 solve eps={eps}", report))
        errs[eps] = abs(traj.values[-1, 0] - viscous_ramp_value(1.0, eps))
    ok = all(e <= 5e-3 for e in errs.values())
    detail = ", ".join(f"eps={k}: {v:.3e}" for k, v in errs.items())
    _verdict(2, ok, f"zero-threshold ramp endpoint errors {detail} (tol 5e-03)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: force-balance residual bound on every accepted solve


def test_criterion_03_balance_residuals():
    if not REPORTS:  # isolated invocation: produce a solve to inspect
        sc = _sine_scenario(n_steps=2_000)
        _, report = solve_viscous(sc, eps=1e-3)
        REPORTS.append(("criterion 3 fallback solve", report))
    worst = max(float(np.max(r.balance_residuals)) for _, r in REPORTS)
    n_steps = sum(len(r.balance_residuals) for _, r in REPORTS)
    # The solver enforces the same bound internally on every accepted step
    # and raises NumericalFailure otherwise, so passing solves anywhere in
    # the suite satisfy it by construction; verify both the gate constant
    # and the recorded residuals of the solves run here.
    ok = BALANCE_TOL == 1e-8 and worst <= 1e-8
    _verdict(3, ok, f"max relative balance residual {worst:.3e} over "
                    f"{n_steps} accepted steps in {len(REPORTS)} solves "
                    f"(tol 1e-08, solver gate {BALANCE_TOL:.0e})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: uniform a-priori bound across four decades of viscosity


def test_criterion_04_uniform_bounds():
    cfg = ExperimentConfig(
        n_nodes=32,
        n_steps=2_000,
        eps_values=(1e-1, 1e-2, 1e-3, 1e-4),
        n_loads=10,
        jobs=4,
        seed=0,
    )
    res = uniform_bound_experiment(cfg)
    ratios = np.array([row["ratio"] for row in res.rows])
    finite = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0))
    ok = finite and res.max_spread <= 2.0 and res.passed
    _verdict(4, ok, f"energy-norm ratio spread {res.max_spread:.3f} over "
                    f"{len(res.rows)} solves, 10 loads x 4 viscosities "
                    f"(cap 2.0, n=32, 2000 steps)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: two-load stability ratios plus the uniqueness probe


def test_criterion_05_stability_and_uniqueness():
    cfg = ExperimentConfig(
        n_steps=1_000,
        eps_values=(1e-1, 1e-2, 1e-3),
        n_pairs=20,
        jobs=4,
        seed=0,
    )
    res = lipschitz_experiment(cfg)
    probe = uniqueness_probe(_sine_scenario(n_steps=1_000), eps=1e-3)
    ok = (res.all_finite and res.cross_eps_spread <= 2.0 and res.passed
          and probe.max_gap <= 3e-2)
    _verdict(5, ok, f"stability ratios finite={res.all_finite}, cross-eps "
                    f"spread {res.cross_eps_spread:.3f} (cap 2.0, 20 pairs); "
                    f"uniqueness gap {probe.max_gap:.3e} (tol 3e-02)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: dissipation axioms on 500 random instances


def test_criterion_06_dissipation_axioms():
    mesh = build_mesh(5, 1.0)
    rng = np.random.default_rng(2024)
    specs = (smooth_fatigue(), _weighted_l1())
    worst_hom = 0.0
    for case in range(500):
        spec = specs[case % 2]
        zeta = rng.uniform(-2.0, 2.0, 5)
        rate = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
        if spec.one_sided:
            rate = np.abs(rate)
        factors = np.concatenate(([0.0], rng.uniform(0.0, 50.0, 4)))
        worst_hom = max(worst_hom, check_homogeneity(spec, mesh, zeta, rate, factors))

    rng = np.random.default_rng(4096)
    worst_fp = -math.inf
    for case in range(500):
        spec = specs[case % 2]
        zeta1 = rng.uniform(-2.0, 2.0, 5)
        zeta2 = zeta1 + rng.standard_normal(5) * rng.uniform(0.01, 2.0)
        rate1 = rng.standard_normal(5)
        rate2 = rate1 + rng.standard_normal(5) * rng.uniform(0.01, 2.0)
        if spec.one_sided:
            rate1, rate2 = np.abs(rate1), np.abs(rate2)
        worst_fp = max(worst_fp,
                       check_lipschitz_axiom(spec, mesh, zeta1, zeta2, rate1, rate2))

    ok = worst_hom <= 1e-12 and worst_fp <= 1e-10
    _verdict(6, ok, f"500-case homogeneity defect {worst_hom:.3e} (tol 1e-12), "
                    f"500-case four-point excess {worst_fp:.3e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: prox/projection duality identity and brute-force agreement


def test_criterion_07_prox_projection():
    mesh8 = build_mesh(8, 1.0)
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for spec in (smooth_fatigue(), _weighted_l1()):
        for _ in range(8):
            eps = rng.uniform(0.05, 1.5)
            zeta = rng.uniform(-1.5, 1.5, 8)
            omega = rng.standard_normal(8) * rng.uniform(0.2, 3.0)
            rate = prox_rate(spec, mesh8, zeta, omega, eps)
            proj = project_subdiff_zero(spec, mesh8, zeta, omega)
            via_proj = riesz_solve(mesh8, omega - proj) / eps
            rel = h1_norm(mesh8, rate - via_proj) / (1.0 + h1_norm(mesh8, rate))
            worst_rel = max(worst_rel, rel)

    mesh3 = build_mesh(3, 1.0)
    rng = np.random.default_rng(555)
    worst_abs = 0.0
    for _ in range(20):
        eps = rng.uniform(0.05, 1.5)
        zeta = rng.uniform(-1.0, 1.0, 3)
        omega = rng.standard_normal(3)
        w_fat = threshold_dual(smooth_fatigue(), mesh3, zeta)
        expected, _ = brute_force_box_qp(
            eps * mesh3.riesz, omega - w_fat, lower=np.zeros(3)
        )
        got = prox_rate(smooth_fatigue(), mesh3, zeta, omega, eps)
        worst_abs = max(worst_abs, float(np.max(np.abs(got - expected))))

        w_l1 = threshold_dual(_weighted_l1(), mesh3, zeta)
        expected, _ = brute_force_l1_qp(eps * mesh3.riesz, omega, w_l1)
        got = prox_rate(_weighted_l1(), mesh3, zeta, omega, eps)
        worst_abs = max(worst_abs, float(np.max(np.abs(got - expected))))

    ok = worst_rel <= 1e-8 and worst_abs <= 1e-9
    _verdict(7, ok, f"prox/projection identity rel error {worst_rel:.3e} "
                    f"(tol 1e-08, n=8); brute-force gap {worst_abs:.3e} "
                    f"(tol 1e-09, n=3)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: dual sweeping-process reading of the primal solves


def _three_dof_scenario(spec):
    mesh = build_mesh(3)
    return Scenario(
        mesh=mesh,
        alpha=1.0,
        load=constant_in_space_load(
            mesh,
            lambda t: 2.0 * np.sin(np.pi * t),
            lambda t: 2.0 * np.pi * np.cos(np.pi * t),
        ),
        kernel=identity_kernel(np.zeros(3)),
        dissipation=spec,
        horizon=1.0,
        n_steps=1_000,
    )


def _replayed_conjugate_residual(sc, eps, stride=50):
    """Re-derive post-step forces along the solve and conjugate-check them."""
    traj, _ = solve_viscous(sc, eps=eps)
    acc = HistoryAccumulator(sc.kernel, sc.tau, sc.n_steps)
    acc.push(traj.values[0])
    worst = 0.0
    for k in range(sc.n_steps):
        if k % stride == 0:
            zeta = acc.value()
            step = viscous_step(sc, eps, traj.times[k + 1], traj.values[k], zeta)
            rep = conjugate_check(sc.dissipation, sc.mesh, zeta, step.force_after)
            if not (rep.is_member and rep.consistent):
                return math.inf
            worst = max(worst, rep.residual)
        acc.push(traj.values[k + 1])
    return worst


def test_criterion_08_dual_equivalence():
    rows = {}
    for name, spec in (("fatigue", smooth_fatigue()), ("weighted-l1", _weighted_l1())):
        sc = _three_dof_scenario(spec)
        res = dual_equivalence(sc, eps=1e-2)
        dual_resid = max(res.viscous_complementarity, res.viscous_feasibility)
        conj_resid = _replayed_conjugate_residual(sc, eps=1e-2)
        _, residuals, slope = dual_equivalence_slope(sc)
        rows[name] = (dual_resid, conj_resid, slope, residuals)
    ok = all(d <= 1e-6 and c <= 1e-6 and s >= 0.9
             for d, c, s, _ in rows.values())
    detail = "; ".join(
        f"{name}: dual {d:.2e}, conjugate {c:.2e} (tol 1e-06), "
        f"tau-order {s:.3f} (min 0.9)"
        for name, (d, c, s, _) in rows.items()
    )
    _verdict(8, ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: rate-independence of the small-viscosity limit


def test_criterion_09_reparametrization():
    time_map = lambda t: t * t
    sc = _sine_scenario(n_steps=10_000)
    disc_small = check_rate_independence(sc, time_map, 1.0, eps=1e-4).discrepancy
    disc_large = check_rate_independence(sc, time_map, 1.0, eps=1e-1).discrepancy
    scaling = (disc_large / 1e-1) / (disc_small / 1e-4)
    ok = (disc_small <= 2e-2 and disc_large > 2e-2
          and 0.2 <= scaling <= 5.0)
    _verdict(9, ok, f"t->t^2 reparametrization: discrepancy {disc_small:.3e} at "
                    f"eps=1e-4 (tol 2e-02); {disc_large:.3e} at eps=1e-1 "
                    f"exceeds it, per-eps ratio {scaling:.2f} in [0.2, 5]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: byte-identical artifacts for identical config and seed


_DETERMINISM_CONFIG = """\
mesh:
  n_nodes: 5
model:
  alpha: 1.0
  horizon: 1.0
  n_steps: 200
solver:
  eps: 0.05
experiment:
  n_loads: 2
  n_pairs: 2
  eps_values: [0.1, 0.05]
seed: 3
"""


def _run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH (such as
    # ``src``) no longer points at the package: put its absolute source
    # directory first.
    source_dir = str(Path(histris.__file__).resolve().parent.parent)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([source_dir, *inherited])}
    return subprocess.run(
        [sys.executable, "-m", "histris.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_criterion_10_byte_determinism(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(_DETERMINISM_CONFIG)
    artifacts = {}
    for tag in ("first", "second"):
        out_solve = tmp_path / f"solve_{tag}"
        out_bounds = tmp_path / f"bounds_{tag}"
        r1 = _run_cli(["solve", "--config", str(cfg), "--out", str(out_solve)],
                      cwd=tmp_path)
        r2 = _run_cli(["verify", "bounds", "--config", str(cfg),
                       "--out", str(out_bounds)], cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        payload = {}
        for directory in (out_solve, out_bounds):
            for csv in sorted(Path(directory).glob("*.csv")):
                payload[f"{directory.name.rsplit('_', 1)[0]}/{csv.name}"] = \
                    csv.read_bytes()
        artifacts[tag] = payload
    same_names = sorted(artifacts["first"]) == sorted(artifacts["second"])
    identical = same_names and all(
        artifacts["first"][name] == artifacts["second"][name]
        for name in artifacts["first"]
    )
    n_files = len(artifacts["first"])
    ok = identical and n_files >= 2
    _verdict(10, ok, f"{n_files} CSV artifacts byte-identical across two runs "
                     f"(solve + bounds experiment, fixed seed)")
    assert ok
