"""The benchmark's workloads and their output checks.

A workload is built from the seed (set-up), ``run`` is one timed pass
and returns one output per operation, and ``check`` tests an output
against the solver's own gates and returns the fingerprints of the
trajectories it produced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys

import numpy as np
import scipy
import yaml

import histris.cli as cli
import histris.verify as verify
import histris.vv as vv
from histris.config import build_scenario, load_config_file, normalize_config
from histris.dissipation import WeightedL1
from histris.errors import NumericalFailure
from histris.spatial import h1_norm
from histris.trajectory import c_norm
from histris.viscous import BALANCE_TOL

# Fingerprints recorded at the default seed; a trajectory may move by at
# most this much in sup-in-time H^1 norm.
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")
FINGERPRINT_SEED = 0
FINGERPRINT_TOL = 1e-10


def _fingerprint(mesh, traj) -> list:
    """Final-state H^1 norm and sup-in-time H^1 norm of a trajectory."""
    return [h1_norm(mesh, traj.values[-1]), c_norm(mesh, traj)]


def _run_op(fn):
    """Call one operation; a NumericalFailure is its output, not a crash."""
    try:
        return fn()
    except NumericalFailure as exc:
        return exc


class FineMeshSolve:
    """Two in-process ``histris solve`` runs from generated YAML.

    Dense O(n^3) QPs and O(n^2) Riesz algebra at n = 513 and 257 dominate;
    the spatially varying expression load makes the active set move, and
    the CLI's CSV writer runs in every pass.
    """

    N_STEPS = 500

    def __init__(self, seed: int, tmp: str):
        rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.configs = []
        for family, n, time_expr in (
            ("fatigue", 513, "{a:.6f}*sin(pi*t)"),
            ("weighted_l1", 257, "{a:.6f}*sin(2*pi*t)"),
        ):
            raw = {
                "mesh": {"n_nodes": n},
                "model": {"n_steps": self.N_STEPS},
                "load": {
                    "time": time_expr.format(a=rng.uniform(1.9, 2.1)),
                    "space": f"1 + {rng.uniform(0.55, 0.65):.6f}*cos(3*pi*x)",
                },
                "dissipation": {"family": family},
                "solver": {"eps": 1e-3},
                "seed": seed,
            }
            path = os.path.join(tmp, f"{family}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(raw, fh)
            build_scenario(load_config_file(path))
            self.configs.append((family, path))
        self.steps_per_pass = len(self.configs) * self.N_STEPS
        self.solves_per_pass = len(self.configs)
        self.bytes_written = 0

    def run(self, index: int) -> list:
        outs = []
        for family, path in self.configs:
            out = os.path.join(self.tmp, f"pass{index}", family)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", "--config", path, "--out", out])
            outs.append((family, (out, code)))
        return outs

    def check(self, op: str, output) -> tuple[list, list]:
        out, code = output
        if code != 0:
            return [f"cli exit {code}"], []
        with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        errors = []
        if not all(float(r["balance_residual"]) <= BALANCE_TOL for r in rows):
            errors.append(f"report.csv has a balance residual above {BALANCE_TOL:g}")
        norms = [float(r["state_h1_norm"]) for r in rows]
        self.bytes_written += sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        )
        shutil.rmtree(out)
        return errors, [norms[-1], max(norms)]


def _weighted_l1():
    """The config's default weight ``0.4 + 0.6/(1 + z^2)``, two-sided."""
    return WeightedL1(
        weight=lambda z: 0.4 + 0.6 / (1.0 + np.square(z)),
        lipschitz=0.6 * 9.0 / (8.0 * math.sqrt(3.0)),
    )


class ExperimentSuite:
    """Bounds, Lipschitz and uniqueness experiments at n = 33, 1000 steps.

    About fifty small solves: per-step Python overhead in the viscous,
    dissipation and spatial layers dominates, and the QP layer runs cold
    and warm, primal and dual, box and l1.
    """

    EPS_VALUES = (1e-1, 1e-2, 1e-3, 1e-4)
    N_STEPS = 1000
    PROBE_EPS = 1e-3

    def __init__(self, seed: int, tmp: str):
        rng = np.random.default_rng(seed)
        self.bounds_cfg = verify.ExperimentConfig(
            n_steps=self.N_STEPS, eps_values=self.EPS_VALUES, n_loads=4,
            seed=seed, jobs=1,
        )
        self.lipschitz_cfg = verify.ExperimentConfig(
            n_steps=self.N_STEPS, eps_values=self.EPS_VALUES, n_pairs=4,
            seed=seed, jobs=1, dissipation=_weighted_l1(),
        )
        self.probe_scenario = build_scenario(normalize_config({
            "model": {"n_steps": self.N_STEPS},
            "load": {
                "time": f"{rng.uniform(1.9, 2.1):.6f}*sin(pi*t)",
                "space": f"1 + {rng.uniform(-0.2, 0.2):.6f}*x",
            },
        }))
        refine = max(1, math.ceil(10.0 * self.probe_scenario.tau / self.PROBE_EPS - 1e-12))
        n_eps = len(self.EPS_VALUES)
        implicit = n_eps * (self.bounds_cfg.n_loads + 2 * self.lipschitz_cfg.n_pairs) + 2
        self.solves_per_pass = implicit + 2
        self.steps_per_pass = self.N_STEPS * (implicit + 2 * refine)
        self.bytes_written = 0
        # Every solve of the experiments goes through this call site; keep
        # each result, by operation, for the balance check and fingerprints.
        self.solved = {}
        self._op = None
        solve = verify.solve_viscous

        def capture(scenario, *args, **kwargs):
            traj, report = solve(scenario, *args, **kwargs)
            self.solved.setdefault(self._op, []).append((scenario.mesh, traj, report))
            return traj, report

        verify.solve_viscous = capture

    def _call(self, op: str, fn):
        self._op = op
        return op, _run_op(fn)

    def run(self, index: int) -> list:
        self.solved = {}
        return [
            self._call("bounds", lambda: verify.uniform_bound_experiment(self.bounds_cfg)),
            self._call("lipschitz", lambda: verify.lipschitz_experiment(self.lipschitz_cfg)),
            self._call("unique", lambda: verify.uniqueness_probe(self.probe_scenario,
                                                                  self.PROBE_EPS)),
        ]

    def check(self, op: str, output) -> tuple[list, list]:
        if isinstance(output, NumericalFailure):
            return [str(output)], []
        errors, prints = [], []
        if op == "unique":
            if not output.max_gap <= verify.UNIQUENESS_GAP_TOL:
                errors.append(f"integrator gap {output.max_gap:.3e}")
        elif not output.passed:
            errors.append("experiment did not pass")
        for mesh, traj, report in self.solved.pop(op, []):
            if report.method == "implicit" and not report.max_balance_residual <= BALANCE_TOL:
                errors.append(f"balance residual {report.max_balance_residual:.3e}")
            prints += _fingerprint(mesh, traj)
        return errors, prints


class LongHistorySweep:
    """Certified three-level vanishing-viscosity sweep, 6000 steps a level.

    Fatigue with an exponential convolution kernel under a cyclic load
    over horizon 8: the O(k) history re-weighting and the certificate's
    sampled directions dominate; the QP stays cheap at n = 33.
    """

    EPS_LEVELS = (0.01, 0.005, 0.0025)
    N_STEPS = 6000

    def __init__(self, seed: int, tmp: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.scenario = build_scenario(normalize_config({
            "model": {"horizon": 8.0, "n_steps": self.N_STEPS},
            "load": {
                "time": f"{rng.uniform(1.9, 2.1):.6f}*sin(pi*t/2)^2",
                "space": f"1 + {rng.uniform(-0.2, 0.2):.6f}*x",
            },
            "history": {
                "kind": "convolution",
                "kernel": "exp(-2*t)",
                "kernel_slope": "-2*exp(-2*t)",
            },
        }))
        self.steps_per_pass = len(self.EPS_LEVELS) * self.N_STEPS
        self.solves_per_pass = len(self.EPS_LEVELS)
        self.bytes_written = 0

    def run(self, index: int) -> list:
        return [("sweep", _run_op(lambda: vv.vv_sweep(
            self.scenario, self.EPS_LEVELS, certify=True, seed=self.seed)))]

    def check(self, op: str, output) -> tuple[list, list]:
        if isinstance(output, NumericalFailure):
            return [str(output)], []
        errors, prints = [], []
        if not output.certificate.passed:
            errors.append(f"limit certificate failed: {output.certificate}")
        for traj, report in zip(output.trajectories, output.reports):
            if not report.max_balance_residual <= BALANCE_TOL:
                errors.append(f"balance residual {report.max_balance_residual:.3e}")
            prints += _fingerprint(self.scenario.mesh, traj)
        return errors, prints


WORKLOADS = {
    "fine_mesh_solve": FineMeshSolve,
    "experiment_suite": ExperimentSuite,
    "long_history_sweep": LongHistorySweep,
}


def recorded_fingerprints(workload: str, seed: int) -> dict | None:
    """Fingerprints recorded for the workload, or None at another seed."""
    if seed != FINGERPRINT_SEED:
        return None
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def fingerprint_errors(got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{len(got)} fingerprints, {len(want)} recorded"]
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if not worst <= FINGERPRINT_TOL:
        return [f"fingerprint moved by {worst:.3e}"]
    return []


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
