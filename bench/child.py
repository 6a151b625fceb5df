"""One benchmark child process: set up one workload, then time passes.

``run.py`` starts the children one at a time with single-threaded BLAS.
The last line of standard output is a JSON object with the set-up time,
the wall time of every pass, the host-speed factor of each, operation
counts and failures and, when tracing, the per-layer figures of each
traced pass.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1
                           --tmp DIR --t0 MONOTONIC [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _probe_kernel() -> float:
    x = 0.0
    for i in range(200):
        x = x * 0.5 + i
    return x


class SpeedProbe:
    """Samples the speed of the workload's CPU from a thread.

    On a shared host the same pass can run up to twice as slow when other
    tenants load the machine, in phases of seconds to minutes.  Every
    ``PERIOD_S`` the thread times a fixed interpreter loop that does not
    touch the program; the loop takes about 14 us alone, far below the
    interpreter's 5 ms switch interval, so a sample is not cut off midway.
    ``factor`` is the mean sample over an interval divided by
    ``REFERENCE_S``, the loop's typical time inside a running child on the
    2-CPU host the baseline was recorded on; dividing a pass's wall time
    by it gives the pass's time at that reference speed.
    """

    PERIOD_S = 0.02
    REFERENCE_S = 17e-6

    def __init__(self):
        self._samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            t = time.perf_counter()
            _probe_kernel()
            self._samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self._samples)

    def factor(self, since: int) -> float:
        window = self._samples[since:]
        return statistics.fmean(window) / self.REFERENCE_S if window else 1.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # One CPU for the workload and the probe, so the probe reads the speed
    # of the CPU the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    try:
        result = _measure(args, probe)
    finally:
        probe.stop()
    print(json.dumps(result))


def _measure(args, probe: SpeedProbe) -> dict:
    # The program is imported here, with the probe running, because
    # importing it is part of the set-up being timed.
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    setup = {"setup_s": time.monotonic() - args.t0, "setup_factor": probe.factor(0)}
    if args.setup_only:
        return setup

    recorded = workloads.recorded_fingerprints(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    walls, factors, traced_walls, layers, errors = [], [], [], [], []
    first_prints = {}
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    # Trace mode alternates untraced and traced passes, so the overhead
    # is measured within one process.
    while True:
        traced = tracer is not None and index % 2 == 1
        workload.bytes_written = 0
        if traced:
            tracer.reset()
            tracer.install()
        mark = probe.mark()
        t = time.perf_counter()
        try:
            outs = workload.run(index)
        finally:
            wall = time.perf_counter() - t
            if traced:
                tracer.restore()
        factor = probe.factor(mark)
        for op, output in outs:
            attempted += 1
            errs, prints = workload.check(op, output)
            if not errs and op in first_prints:
                if prints != first_prints[op]:
                    errs.append("outputs differ from the first pass")
            elif not errs:
                first_prints[op] = prints
                if recorded is not None:
                    errs = workloads.fingerprint_errors(prints, recorded.get(op, []))
            if errs:
                failed += 1
                errors += [f"pass {index} {op}: {e}" for e in errs]
        if traced:
            traced_walls.append(wall)
            metrics = layer_metrics(tracer)
            metrics["cli.bytes_written"] = workload.bytes_written
            layers.append(metrics)
        else:
            walls.append(wall)
            factors.append(factor)
        index += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced_walls:
            continue
        if elapsed + statistics.median(walls + traced_walls) > args.seconds:
            break

    return dict(
        setup,
        walls=walls,
        factors=factors,
        traced_walls=traced_walls,
        layers=layers,
        attempted=attempted,
        failed=failed,
        errors=errors,
        fingerprints=first_prints,
        steps_per_pass=workload.steps_per_pass,
        solves_per_pass=workload.solves_per_pass,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=workloads.environment(),
        span_table=tracer.table() if tracer is not None else [],
    )


if __name__ == "__main__":
    main()
