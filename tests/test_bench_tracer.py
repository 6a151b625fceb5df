"""The benchmark's layer tracer against the package namespaces.

``bench/tracer.py`` wraps functions by replacing names in the histris
modules that call them.  A refactor that drops one of those names would
only show up as a ``KeyError`` in a traced benchmark run; this test
catches it in the suite.
"""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_call_site_exists():
    tracer = _load_tracer()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracer.CALL_SITES
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_qp_hook_argument_positions_match_the_solvers():
    # The tracer's QP hook reads arguments passed positionally by index
    # (lower/upper/start at 2/3/4 for the box QP, start at 3 for the l1
    # QP); a dropped or reordered parameter would silently shift them.
    dissipation = _load_tracer().dissipation
    box = list(inspect.signature(dissipation.solve_box_qp).parameters)
    l1 = list(inspect.signature(dissipation.solve_l1_qp).parameters)
    assert box[2:5] == ["lower", "upper", "start"]
    assert l1[3] == "start"
