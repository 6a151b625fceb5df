"""Command-line front end.

Subcommands: ``solve``, ``sweep``, ``verify {compat,bounds,lipschitz,
unique,dual,history}``, ``optimize``.  Every run reads one YAML config
(all sections optional), writes CSV artifacts into the ``--out``
directory and prints a one-line summary.  The first line of every CSV
names the hash of the effective config, so artifacts are traceable to
their exact inputs; floats are written with 17 significant digits so
repeated runs are byte-identical.

Exit codes: 0 on success, 1 on numerical failure (a ``RuntimeWarning``
raised as an error under ``python -W error`` included) or a failed
verification, 2 on configuration errors or a run too large to allocate.
"""

from __future__ import annotations

import argparse
import math
import csv
import os
import sys

import numpy as np

from .config import (
    _SCHEMA,
    ConfigError,
    build_control,
    build_experiment,
    build_scenario,
    config_hash,
    load_config_file,
    normalize_config,
)
from .control import optimize
from .errors import NumericalFailure
from .expressions import ExpressionError
from .spatial import h1_norm
from .trajectory import h1_norms
from .verify import (
    DUAL_RESIDUAL_TOL,
    DUAL_SLOPE_MIN,
    HISTORY_ROUNDING_ULPS,
    UNIQUENESS_GAP_TOL,
    compatibility_check,
    dual_equivalence,
    dual_equivalence_slope,
    history_lipschitz_check,
    lipschitz_experiment,
    uniform_bound_experiment,
    uniqueness_probe,
)
from .viscous import solve_viscous
from .vv import vv_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _verdict(passed: bool, line: str) -> int:
    """Print the summary ``line`` with PASS or FAIL; the exit code."""
    print(f"{line}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


def _write_csv(path: str, cfg: dict, header, rows) -> None:
    """Write ``rows`` under the config hash line and ``header``: a list of
    rows through ``csv.writer`` over :func:`_fmt`, a 2-D float array a
    line at a time with the same bytes ("%.17g").  An array row whose
    columns after the first have the bits of the row before (a held
    state) reuses its text; bits, not values, as ``0.0 == -0.0``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
            return
        bits = rows.view(np.uint64)[:, 1:]
        held = np.zeros(len(rows), dtype=bool)
        held[1:] = (bits[1:] == bits[:-1]).all(axis=1)
        tail_format = ",%.17g" * (rows.shape[1] - 1) + "\n"
        tail = ""
        for time, row, same in zip(rows[:, 0].tolist(), rows, held.tolist()):
            if not same:
                tail = tail_format % tuple(row[1:].tolist())
            fh.write("%.17g" % time + tail)


def _write_trajectory(path: str, cfg: dict, mesh, traj) -> None:
    header = ["time"] + [f"q{i}" for i in range(mesh.n_nodes)]
    _write_csv(path, cfg, header, np.column_stack((traj.times, traj.values)))


def _write_report(path: str, cfg: dict, mesh, traj, report) -> None:
    header = [
        "time",
        "state_h1_norm",
        "rate_h1_norm",
        "dissipation_rate",
        "energy",
        "balance_residual",
    ]
    rows = np.column_stack((  # the per-step columns read 0 at the start
        traj.times,
        h1_norms(mesh, traj.values),
        np.r_[0.0, report.rate_h1_norms],
        np.r_[0.0, report.dissipation_rates],
        report.energies,
        np.r_[0.0, report.balance_residuals],
    ))
    _write_csv(path, cfg, header, rows)


def cmd_solve(cfg: dict, out: str, args) -> int:
    scenario = build_scenario(cfg)
    compat = compatibility_check(scenario)
    if not compat.ok:
        print(f"WARNING: {compat.message}")
    eps = cfg["solver"]["eps"]
    traj, report = solve_viscous(
        scenario, eps,
        method=cfg["solver"]["method"],
        warm_start=cfg["solver"]["warm_start"],
    )
    _write_trajectory(os.path.join(out, "trajectory.csv"), cfg, scenario.mesh, traj)
    _write_report(os.path.join(out, "report.csv"), cfg, scenario.mesh, traj, report)
    print(
        f"solve: method={report.method} eps={eps:g} steps={scenario.n_steps} "
        f"max balance residual={report.max_balance_residual:.3e} "
        f"final state norm={h1_norm(scenario.mesh, traj.values[-1]):.6g} -> {out}"
    )
    return EXIT_OK


def cmd_sweep(cfg: dict, out: str, args) -> int:
    scenario = build_scenario(cfg)
    sw = cfg["sweep"]
    result = vv_sweep(
        scenario, sw["eps_values"], certificate_tol=sw["certificate_tol"]
    )
    header = [
        "eps", "c_gap_from_prev", "h1_gap_from_prev",
        "max_balance_residual", "max_rate_h1_norm",
    ]
    rows = []
    for i, eps in enumerate(result.eps_values):
        rows.append([
            eps,
            result.c_diffs[i - 1] if i > 0 else math.nan,
            result.h1_diffs[i - 1] if i > 0 else math.nan,
            result.reports[i].max_balance_residual,
            result.reports[i].max_rate_h1_norm,
        ])
    _write_csv(os.path.join(out, "sweep_summary.csv"), cfg, header, rows)
    for i, traj in enumerate(result.trajectories):
        _write_trajectory(
            os.path.join(out, f"trajectory_eps{i:02d}.csv"), cfg,
            scenario.mesh, traj,
        )
    ratios = [
        result.c_diffs[i + 1] / result.c_diffs[i]
        for i in range(len(result.c_diffs) - 1)
        if result.c_diffs[i] > 0
    ]
    cert = result.certificate
    print(
        f"sweep: {len(result.eps_values)} levels, final C gap "
        f"{result.c_diffs[-1]:.3e}, gap ratios "
        f"[{', '.join(f'{r:.2f}' for r in ratios)}]"
    )
    return _verdict(
        cert.passed,
        f"limit certificate: stability violation "
        f"{cert.max_stability_violation:.3e}, balance residual "
        f"{cert.max_balance_residual:.3e} (tol {cert.tolerance:g})",
    )


def _verify_compat(cfg: dict, out: str) -> int:
    scenario = build_scenario(cfg)
    res = compatibility_check(scenario)
    _write_csv(
        os.path.join(out, "verify_compat.csv"), cfg,
        ["compatible", "worst_violation", "worst_node"],
        [[int(res.ok), res.worst_violation, res.worst_node]],
    )
    return _verdict(res.ok, f"verify compat: {res.message}")


def _verify_bounds(cfg: dict, out: str) -> int:
    res = uniform_bound_experiment(build_experiment(cfg))
    header = ["load", "eps", "ratio", "solution_norm", "load_norm",
              "balance_residual"]
    rows = [[r[k] for k in header] for r in res.rows]
    _write_csv(os.path.join(out, "verify_bounds.csv"), cfg, header, rows)
    return _verdict(
        res.passed,
        f"verify bounds: worst ratio spread over the viscosity schedule "
        f"{res.max_spread:.3f} (cap {res.spread_cap:g})",
    )


def _verify_lipschitz(cfg: dict, out: str) -> int:
    res = lipschitz_experiment(build_experiment(cfg))
    header = ["pair", "eps", "ratio", "solution_gap", "load_gap"]
    rows = [[r[k] for k in header] for r in res.rows]
    _write_csv(os.path.join(out, "verify_lipschitz.csv"), cfg, header, rows)
    per_eps = ", ".join(
        f"eps={e:g}: {m:.3f}" for e, m in zip(res.eps_values, res.max_ratio_per_eps)
    )
    return _verdict(
        res.passed,
        f"verify lipschitz: worst ratio per level [{per_eps}], "
        f"cross-level spread {res.cross_eps_spread:.3f} "
        f"(cap {res.spread_cap:g}), all finite={res.all_finite}",
    )


def _verify_unique(cfg: dict, out: str) -> int:
    scenario = build_scenario(cfg)
    res = uniqueness_probe(scenario, cfg["solver"]["eps"])
    rows = [[name, gap] for name, gap in res.gaps.items()]
    _write_csv(os.path.join(out, "verify_unique.csv"), cfg,
               ["pairing", "sup_h1_gap"], rows)
    return _verdict(
        res.max_gap <= UNIQUENESS_GAP_TOL,
        f"verify unique: worst integrator disagreement {res.max_gap:.3e} "
        f"(tol {UNIQUENESS_GAP_TOL:g}, explicit refinement x{res.explicit_refine})",
    )


def _verify_dual(cfg: dict, out: str) -> int:
    scenario = build_scenario(cfg)
    res = dual_equivalence(scenario, cfg["solver"]["eps"])
    taus, residuals, slope = dual_equivalence_slope(
        scenario, cfg["experiment"]["refinements"]
    )
    header = ["tau", "limit_residual"]
    rows = [[float(t), float(r)] for t, r in zip(taus, residuals)]
    _write_csv(os.path.join(out, "verify_dual.csv"), cfg, header, rows)
    return _verdict(
        res.viscous_residual <= DUAL_RESIDUAL_TOL and slope >= DUAL_SLOPE_MIN,
        f"verify dual: viscous complementarity residual "
        f"{res.viscous_residual:.3e} (tol {DUAL_RESIDUAL_TOL:g}), "
        f"viscosity-free residual order {slope:.2f} in the step "
        f"(min {DUAL_SLOPE_MIN:g})",
    )


def _verify_history(cfg: dict, out: str) -> int:
    scenario = build_scenario(cfg)
    traj, _ = solve_viscous(scenario, cfg["solver"]["eps"])
    res = history_lipschitz_check(scenario, traj)
    header = ["rate_index", "time", "increment", "bound", "ratio"]
    rows = [[r[k] for k in header] for r in res.rows]
    _write_csv(os.path.join(out, "verify_history.csv"), cfg, header, rows)
    return _verdict(
        res.passed,
        f"verify history: worst ratio of a potential increment to its "
        f"four-point bound {res.max_ratio:.4f} (max 1, rounding allowance "
        f"{HISTORY_ROUNDING_ULPS} ulp per node)",
    )


_VERIFY_HANDLERS = {
    "compat": _verify_compat,
    "bounds": _verify_bounds,
    "lipschitz": _verify_lipschitz,
    "unique": _verify_unique,
    "dual": _verify_dual,
    "history": _verify_history,
}


def cmd_verify(cfg: dict, out: str, args) -> int:
    return _VERIFY_HANDLERS[args.experiment](cfg, out)


def cmd_optimize(cfg: dict, out: str, args) -> int:
    problem, options = build_control(cfg)
    result = optimize(problem, **options)
    m = len(problem.basis)
    header = (
        ["eval", "total", "tracking", "regularization", "load_norm",
         "response_norm", "bound_ratio"]
        + [f"theta{j}" for j in range(m)]
    )
    rows = [
        [i, rep.total, rep.tracking, rep.regularization, rep.load_norm,
         rep.response_norm, rep.bound_ratio] + list(rep.theta)
        for i, rep in enumerate(result.history)
    ]
    _write_csv(os.path.join(out, "optimize_trace.csv"), cfg, header, rows)
    best = result.best
    theta_txt = ", ".join(f"{c:.6g}" for c in best.theta)
    print(
        f"optimize: best objective {best.total:.6e} "
        f"(tracking {best.tracking:.3e}, penalty {best.regularization:.3e}) "
        f"at theta=[{theta_txt}] after {result.n_evals} evaluations, "
        f"converged={result.converged}"
    )
    return EXIT_OK if math.isfinite(best.total) else EXIT_NUMERICAL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML scenario file; defaults apply when omitted")
    parser.add_argument("--out", default="histris-out",
                        help="directory for CSV artifacts (default: histris-out)")
    parser.add_argument("--eps", type=float,
                        help="viscosity override for the solver section")
    parser.add_argument("--seed", type=int, help="seed override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histris",
        description="Viscous and vanishing-viscosity solves of "
                    "history-dependent rate-independent evolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one viscous solve; trajectory and report CSVs")
    _add_common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("sweep", help="viscosity sweep with limit certificate")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run one verification experiment")
    p.add_argument("experiment", choices=sorted(_VERIFY_HANDLERS),
                   help="which check to run")
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("optimize", help="pattern-search load design")
    _add_common(p)
    p.set_defaults(handler=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (
            load_config_file(args.config)
            if args.config is not None
            else normalize_config({})
        )
        # Each flag overrides its key, through the key's check.
        for section, key in ((None, "seed"), ("solver", "eps")):
            value = getattr(args, key)
            if value is not None:
                _, check = _SCHEMA[section][key] if section else _SCHEMA[key]
                (cfg[section] if section else cfg)[key] = check(value, f"--{key}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        return args.handler(cfg, args.out, args)
    except (ConfigError, ExpressionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, RuntimeWarning) as exc:  # the latter under -W error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"config error: not enough memory for this run: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
