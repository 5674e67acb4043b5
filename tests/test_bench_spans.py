"""``benchmarks/run.py --trace 1`` wraps functions of ``fwfs`` by module
and attribute name (``benchmarks/spans.py``).  A refactor that drops one
of those names, such as a module's by-name import of ``check_category``,
would break the trace; this test names it instead."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "benchmarks", "spans.py")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.PATCHES
               if not callable(getattr(importlib.import_module(f"fwfs.{module}"),
                                       attr, None))]
    assert len(spans.PATCHES) == 30 and missing == []
