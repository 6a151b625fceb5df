"""Outside-in layer tracing for the benchmark.

histris modules import each other's functions by name
(``from .qp import solve_box_qp``), so a wrapper only records calls when
it replaces the name in the namespace that makes the call.  ``CALL_SITES``
lists those namespaces; nothing under ``src/`` is edited.

Spans are kept in memory, aggregated by (parent span, span): call count,
inclusive seconds and self seconds (duration minus the time covered by
child spans).  ``table`` writes them out after the run.  Tracing is on
only between ``install`` and ``restore``; untraced passes run the
unwrapped program.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

import histris.cli as cli
import histris.dissipation as dissipation
import histris.verify as verify
import histris.viscous as viscous
import histris.vv as vv
from histris.expressions import Expression
from histris.history import HistoryAccumulator
from histris.viscous import Load


def _arg(args, kwargs, index, key):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else None


def _qp_hook(kind: str, start_index: int):
    """Counts taken from a QP's return value ``(x, iterations)``."""

    def hook(tracer, parent, args, kwargs, result, seconds):
        x, iterations = result
        counters = tracer.counters
        counters[f"qp.{kind}.iters"] += iterations
        if kind == "box":
            lower = _arg(args, kwargs, 2, "lower")
            upper = _arg(args, kwargs, 3, "upper")
            at_bound = np.zeros(x.shape, dtype=bool)
            if lower is not None:
                at_bound |= x <= lower
            if upper is not None:
                at_bound |= x >= upper
            counters["qp.box.at_bound"] += np.count_nonzero(at_bound) / x.size
        else:
            counters["qp.l1.support"] += np.count_nonzero(x) / x.size
        if _arg(args, kwargs, start_index, "start") is None:
            counters["qp.cold.self_s"] += seconds
        if parent == "dissipation.project":
            counters["qp.dual.self_s"] += seconds

    return hook


# (namespace, attribute, span name, hook).  A span name shared by several
# call sites aggregates them into one layer figure.
CALL_SITES = [
    (dissipation, "solve_box_qp", "qp.box", _qp_hook("box", 4)),
    (dissipation, "solve_l1_qp", "qp.l1", _qp_hook("l1", 3)),
    (viscous, "_prox_rate_counted", "dissipation.prox", None),
    (viscous, "_project_counted", "dissipation.project", None),
    (viscous, "potential", "dissipation.potential", None),
    (vv, "potential", "dissipation.potential", None),
    (verify, "potential", "dissipation.potential", None),
    (dissipation, "threshold_dual", "dissipation.threshold_dual", None),
    (verify, "threshold_dual", "dissipation.threshold_dual", None),
    (viscous, "riesz_apply", "spatial.riesz_apply", None),
    (verify, "riesz_apply", "spatial.riesz_apply", None),
    (viscous, "riesz_solve", "spatial.riesz_solve", None),
    (dissipation, "riesz_solve", "spatial.riesz_solve", None),
    (viscous, "h1_norm", "spatial.h1_norm", None),
    (vv, "h1_norm", "spatial.h1_norm", None),
    (verify, "h1_norm", "spatial.h1_norm", None),
    (cli, "h1_norm", "spatial.h1_norm", None),
    (dissipation, "h1_norm", "spatial.h1_norm", None),
    (verify, "dual_norm", "spatial.dual_norm", None),
    (dissipation, "dual_norm", "spatial.dual_norm", None),
    (HistoryAccumulator, "value", "history.value", None),
    (HistoryAccumulator, "push", "history.push", None),
    (verify, "solve_viscous", "viscous.solve", None),
    (vv, "solve_viscous", "viscous.solve", None),
    (cli, "solve_viscous", "viscous.solve", None),
    (viscous, "viscous_step", "viscous.step", None),
    (viscous, "explicit_projection_step", "viscous.explicit_step", None),
    (Load, "value", "viscous.load_value", None),
    (viscous, "energy", "viscous.energy", None),
    (vv, "c_norm_diff", "trajectory.norms", None),
    (vv, "h1_time_norm", "trajectory.norms", None),
    (verify, "c_norm_diff", "trajectory.norms", None),
    (verify, "h1_time_norm", "trajectory.norms", None),
    (vv, "certify_limit", "vv.certify_limit", None),
    (vv, "vv_sweep", "vv.sweep", None),
    (verify, "random_load", "verify.random_load", None),
    (verify, "load_h1_dual_norm", "verify.load_norms", None),
    (verify, "load_w11_diff_norm", "verify.load_norms", None),
    (verify, "uniform_bound_experiment", "verify.experiment", None),
    (verify, "lipschitz_experiment", "verify.experiment", None),
    (verify, "uniqueness_probe", "verify.experiment", None),
    (cli, "load_config_file", "config.build", None),
    (cli, "build_scenario", "config.build", None),
    (Expression, "__call__", "expressions.eval", None),
    (cli, "_write_csv", "cli.write_csv", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Span recorder that wraps call sites while installed."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self) -> None:
        # (parent name, name) -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)

    def install(self) -> None:
        for owner, attr, name, hook in CALL_SITES:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                rec = tracer.spans[(parent, name)]
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - frame[1]
            if hook is not None:
                hook(tracer, parent, args, kwargs, result, seconds)
            return result

        return traced

    def by_name(self) -> dict:
        """Span totals per name, summed over parents: [calls, incl_s, self_s]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, incl, own) in self.spans.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += incl
            rec[2] += own
        return out

    def table(self) -> list[str]:
        """Span table, largest self time first, one line per (parent, span)."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<28} {'parent':<28} {'calls':>9} {'incl_s':>9} {'self_s':>9}"]
        for (parent, name), (calls, incl, own) in rows:
            lines.append(
                f"{name:<28} {parent or '-':<28} {calls:>9d} {incl:>9.3f} {own:>9.3f}"
            )
        return lines


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (names as in BENCHMARK.json)."""
    spans = tracer.by_name()
    counters = tracer.counters

    def calls(name):
        return spans[name][0] if name in spans else 0

    def own(name):
        return spans[name][2] if name in spans else 0.0

    steps = calls("viscous.step") + calls("viscous.explicit_step")
    box_calls = calls("qp.box")
    l1_calls = calls("qp.l1")
    return {
        "qp.box.calls": box_calls,
        "qp.box.self_s": own("qp.box"),
        "qp.box.iters_per_call": counters["qp.box.iters"] / box_calls if box_calls else 0.0,
        "qp.box.active_frac": counters["qp.box.at_bound"] / box_calls if box_calls else 0.0,
        "qp.l1.calls": l1_calls,
        "qp.l1.self_s": own("qp.l1"),
        "qp.l1.iters_per_call": counters["qp.l1.iters"] / l1_calls if l1_calls else 0.0,
        "qp.l1.support_frac": counters["qp.l1.support"] / l1_calls if l1_calls else 0.0,
        "qp.cold.self_s": counters["qp.cold.self_s"],
        "qp.dual.self_s": counters["qp.dual.self_s"],
        "dissipation.prox.self_s": own("dissipation.prox"),
        "dissipation.project.self_s": own("dissipation.project"),
        "dissipation.potential.calls": calls("dissipation.potential"),
        "dissipation.potential.self_s": own("dissipation.potential"),
        "dissipation.threshold_dual.per_step": (
            calls("dissipation.threshold_dual") / steps if steps else 0.0
        ),
        "spatial.riesz_apply.calls": calls("spatial.riesz_apply"),
        "spatial.riesz_apply.self_s": own("spatial.riesz_apply"),
        "spatial.riesz_solve.self_s": own("spatial.riesz_solve"),
        "spatial.h1_norm.calls": calls("spatial.h1_norm"),
        "spatial.h1_norm.self_s": own("spatial.h1_norm"),
        "spatial.dual_norm.calls": calls("spatial.dual_norm"),
        "spatial.dual_norm.self_s": own("spatial.dual_norm"),
        "history.value.calls": calls("history.value"),
        "history.value.self_s": own("history.value"),
        "history.push.self_s": own("history.push"),
        "viscous.steps": steps,
        "viscous.solve.self_s": own("viscous.solve"),
        "viscous.step.self_s": own("viscous.step"),
        "viscous.explicit_step.self_s": own("viscous.explicit_step"),
        "viscous.load_value.calls": calls("viscous.load_value"),
        "viscous.load_value.self_s": own("viscous.load_value"),
        "viscous.energy.self_s": own("viscous.energy"),
        "trajectory.norms.self_s": own("trajectory.norms"),
        "vv.certify_limit.self_s": own("vv.certify_limit"),
        "verify.random_load.self_s": own("verify.random_load"),
        "verify.load_norms.self_s": own("verify.load_norms"),
        "verify.experiment.self_s": own("verify.experiment"),
        "config.build_s": spans["config.build"][1] if "config.build" in spans else 0.0,
        "expressions.eval.calls": calls("expressions.eval"),
        "expressions.eval.self_s": own("expressions.eval"),
        "cli.write_csv.self_s": own("cli.write_csv"),
    }
