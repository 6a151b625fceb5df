"""histris benchmark: one workload, end-to-end or per-layer figures.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):

    fine_mesh_solve     two ``histris solve`` CLI runs at n = 513 and 257
    experiment_suite    bounds, Lipschitz and uniqueness experiments
    long_history_sweep  certified sweep with a convolution history kernel

The workload runs in a child process with single-threaded BLAS, one
process at a time.  With ``--trace 0`` it reports wall time per pass,
steps per second, set-up time (all three corrected to a reference host
speed, see ``SpeedProbe`` in child.py), peak memory and the share of
operations that passed every check; with ``--trace 1`` it reports
per-layer figures taken by wrapping the program's call sites
(bench/tracer.py).  The last line of standard output is one JSON
object.  Generated configs and CSVs go to a temporary directory inside
the checkout, removed on exit.

Exits non-zero without a result if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

# Set-up is measured in this many child processes (the measuring child
# is one of them); setup_s is their median.
SETUP_SAMPLES = 5
# Every run ends well inside the 180 s it is allowed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(ROOT, ".git", name), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return f"unknown ({name})"


def _child(args, tmp: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [
        sys.executable, CHILD,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", tmp, "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(main: dict, setups: list) -> dict:
    wall = statistics.median(w / f for w, f in zip(main["walls"], main["factors"]))
    return {
        "wall_s": wall,
        "steps_per_s": main["steps_per_pass"] / wall,
        "setup_s": statistics.median(s["setup_s"] / s["setup_factor"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ops": 1.0 - main["failed"] / main["attempted"],
    }


def _per_layer(main: dict) -> dict:
    out = {
        name: statistics.median(layer[name] for layer in main["layers"])
        for name in main["layers"][0]
    }
    out["trace.overhead_s"] = (
        statistics.median(main["traced_walls"]) - statistics.median(main["walls"])
    )
    return out


def _with_units(values: dict, declared: list) -> dict:
    """Values in the order and with the units BENCHMARK.json declares."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metric(s) {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "histris")):
        raise BenchError("no histris package under src/ in this checkout")
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_child(args, tmp, deadline, True))
        main = _child(args, tmp, deadline, False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    setups.append(main)

    env = dict(main["environment"], commit=_git_commit())
    print("environment: " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload} seed={args.seed}: {len(main['walls'])} untraced and "
        f"{len(main['traced_walls'])} traced passes, "
        f"{main['solves_per_pass']} solves and {main['steps_per_pass']} steps a pass; "
        f"untraced pass wall {statistics.median(main['walls']):.3f} s median, "
        f"{max(main['walls']):.3f} s slowest; host speed factor "
        f"{statistics.median(main['factors']):.3f} median"
    )
    if main["span_table"]:
        print("spans of the last traced pass:")
    for line in main["span_table"]:
        print(line)
    for error in main["errors"]:
        print(f"check failed: {error}")
    if args.trace:
        metrics = _with_units(_per_layer(main), spec["per_layer"])
    else:
        metrics = _with_units(_end_to_end(main, setups), spec["end_to_end"])
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and
    # waited for, and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        result = run(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
