"""The benchmark's layer tracer against the package namespaces.

``bench/tracer.py`` wraps functions by replacing names in the histris
modules that call them.  A refactor that drops one of those names would
only show up as a ``KeyError`` in a traced benchmark run; this test
catches it in the suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_call_site_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracer.CALL_SITES
        if attr not in owner.__dict__
    ]
    assert missing == []

