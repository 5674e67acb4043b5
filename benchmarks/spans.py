"""Spans around the calls into each layer of ``fwfs``.

The benchmark replaces public functions of the library's modules with
wrappers that record a span per call: name, start, end, the span that
caused it and the task it belongs to.  ``fwfs`` modules bind each
other's functions with ``from ... import``, so a nested call is patched
in the module that makes it (``dblcat.check_category``,
``awfs.check_functorial_factorisation``, ``catlib.enumerate_functors``,
...).  Nested calls thereby become child spans, and a layer's self time
is its span's duration minus that of its direct children.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute it is bound to, span name).  A function bound in
# several modules keeps one span name.
PATCHES = [
    ("fincat", "build_finset", "fincat.build_finset"),
    ("fincat", "check_category", "fincat.check_category"),
    ("dblcat", "check_category", "fincat.check_category"),
    ("catlib", "check_category", "fincat.check_category"),
    ("dblcat", "dbl_from_class", "dblcat.dbl_from_class"),
    ("dblcat", "to_internal", "dblcat.to_internal"),
    ("dblcat", "check_double_category", "dblcat.check_double_category"),
    ("lifting", "unique_filler_lifting", "lifting.unique_filler_lifting"),
    ("lifting", "check_lifting_operation", "lifting.check_lifting_operation"),
    ("lifting", "check_pre_awfs", "lifting.check_pre_awfs"),
    ("lifting", "check_factorisation_axiom", "lifting.check_factorisation_axiom"),
    ("lifting", "check_lifting_awfs", "lifting.check_lifting_awfs"),
    ("awfs", "check_awfs", "awfs.check_awfs"),
    ("awfs", "check_functorial_factorisation",
     "awfs.check_functorial_factorisation"),
    ("awfs", "awfs_from_lifting", "awfs.awfs_from_lifting"),
    ("awfs", "roundtrip_compare", "awfs.roundtrip_compare"),
    ("awfs", "sem", "awfs.sem"),
    ("awfs", "enumerate_algebras", "awfs.enumerate_algebras"),
    ("awfs", "enumerate_coalgebras", "awfs.enumerate_coalgebras"),
    ("catlib", "comma_category", "catlib.comma_category"),
    ("catlib", "check_split_reflection", "catlib.check_split_reflection"),
    ("catlib", "check_split_fibration", "catlib.check_split_fibration"),
    ("catlib", "canonical_filler", "catlib.canonical_filler"),
    ("catlib", "check_cat_roster", "catlib.check_cat_roster"),
    ("catlib", "check_free_split_fibration", "catlib.check_free_split_fibration"),
    ("catlib", "check_cofree_split_reflection",
     "catlib.check_cofree_split_reflection"),
    ("catlib", "enumerate_functors", "catlib.enumerate_functors"),
    ("io", "load_category", "io.load_category"),
    ("io", "load_awfs", "io.load_awfs"),
    ("io", "load_roster", "io.load_roster"),
]


class Span:
    __slots__ = ("id", "parent", "name", "task", "pass_no", "start", "end",
                 "child", "error", "cases", "budget_used", "checks")

    def __init__(self, sid, parent, name, task, pass_no):
        self.id = sid
        self.parent = parent
        self.name = name
        self.task = task
        self.pass_no = pass_no
        self.child = 0.0
        self.error = False
        self.cases = 0
        self.budget_used = 0
        self.checks = None

    def to_dict(self):
        return {"id": self.id, "parent": self.parent and self.parent.id,
                "name": self.name, "task": self.task, "pass": self.pass_no,
                "start": self.start, "end": self.end, "self": self.self_s,
                "error": self.error, "cases": self.cases,
                "budget_used": self.budget_used, "checks": self.checks}

    @property
    def self_s(self):
        return self.end - self.start - self.child


class Tracer:
    """Installs and removes the wrappers, and keeps every span."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self, lib):
        Report = lib.report.Report
        for module, attr, name in PATCHES:
            mod = getattr(lib, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, Report))
        self._saved.append((Report, "to_json", Report.to_json))
        Report.to_json = self._wrap("report.to_json", Report.to_json, Report)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, Report):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, name, self.tasks.current,
                        self.tasks.pass_no)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if isinstance(result, Report):
                span.checks = {c.name: c.cases for c in result.checks}
                span.cases = sum(span.checks.values())
                span.budget_used = result.budget_used
            return result

        return traced

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [s.to_dict() for s in self.spans]}, fh)


NO_SPANS = {"s": 0.0, "incl": 0.0, "calls": 0, "cases": 0, "budget_used": 0,
            "errors": 0}


def totals(spans):
    """Per span name: self and inclusive seconds, calls, cases, budget
    used and raised calls, summed over the given spans."""
    out = {}
    for s in spans:
        t = out.setdefault(s.name, dict(NO_SPANS))
        t["s"] += s.self_s
        t["incl"] += s.end - s.start
        t["calls"] += 1
        t["cases"] += s.cases
        t["budget_used"] += s.budget_used
        t["errors"] += s.error
    return out
