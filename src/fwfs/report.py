"""Machine-readable verdicts and enumeration budgets.

A :class:`Report` aggregates named checks.  Each check is ``ok``, a
``violation`` carrying explicit witnesses, or ``inconclusive`` when a
bounded enumeration ran out of budget before the search space was
exhausted.  Reports serialize deterministically: two runs on identical
inputs emit identical bytes.

A check's cases are counted and charged in :meth:`Report.cases`: one
budget unit per evaluated case, and an exhausted budget makes the check
``inconclusive``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

OK = "ok"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"

# violation > inconclusive > ok when aggregating
_SEVERITY = {OK: 0, INCONCLUSIVE: 1, VIOLATION: 2}

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

# cap per check so reports stay readable; enumeration order is fixed, so
# the retained witnesses are deterministic
MAX_WITNESSES = 20


class BudgetExceeded(Exception):
    """Raised internally when a bounded enumeration exhausts its budget."""


@dataclass
class Budget:
    """Candidate/time allowance shared by the bounded checkers."""

    max_candidates: int = 10**6
    max_seconds: float = 60.0
    used: int = 0
    _deadline: float = field(init=False, repr=False, default=0.0)
    _check_clock: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.max_candidates <= 0 or self.max_seconds <= 0:
            raise ValueError("budget must be positive")
        self._deadline = time.monotonic() + self.max_seconds

    def spend(self, n: int = 1) -> None:
        # raise before charging, so ``used`` counts only what was checked
        used = self.used + n
        if used > self.max_candidates:
            raise BudgetExceeded("candidate budget exhausted")
        # polling the clock is comparatively expensive; sample it
        self._check_clock += 1
        if self._check_clock >= 4096:
            self._check_clock = 0
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("time budget exhausted")
        self.used = used


class _Unbounded(Budget):
    """The null budget: spending is free and never runs out."""

    def spend(self, n: int = 1) -> None:
        pass

    def __repr__(self):
        return "UNBOUNDED"


# the default of every bounded checker; its ``used`` stays 0
UNBOUNDED = _Unbounded()


class Cases:
    """One check's witnesses ``bad`` and its case count ``n``.

    ``case()`` charges one budget unit and counts one evaluated case;
    ``count(n)`` counts n cases without charging: cases decided without
    being evaluated, or charged where they were enumerated."""

    __slots__ = ("bad", "n", "_spend", "case")

    def __init__(self, budget: Budget):
        self.bad = []
        self.n = 0
        self._spend = budget.spend
        # spending UNBOUNDED is free, so its cases need only be counted
        self.case = self.count if budget is UNBOUNDED else self._charge

    def _charge(self) -> None:
        self._spend()
        self.n += 1

    def count(self, n: int = 1) -> None:
        self.n += n


@dataclass
class Check:
    name: str
    status: str
    witnesses: list
    cases: int = 0

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "witnesses": self.witnesses,
            "cases_examined": self.cases,
        }


class Report:
    """Aggregated verdict for one operation run."""

    def __init__(self):
        self.checks: list[Check] = []
        self.budget_used = 0

    @property
    def status(self) -> str:
        worst = OK
        for c in self.checks:
            if _SEVERITY[c.status] > _SEVERITY[worst]:
                worst = c.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def exit_code(self) -> int:
        return {OK: EXIT_OK, VIOLATION: EXIT_VIOLATION,
                INCONCLUSIVE: EXIT_INCONCLUSIVE}[self.status]

    def add(self, name, status, witnesses=None, cases=0):
        witnesses = list(witnesses or [])[:MAX_WITNESSES]
        self.checks.append(Check(name, status, witnesses, cases))
        return self

    def add_ok(self, name, cases=0):
        return self.add(name, OK, [], cases)

    def add_violation(self, name, witnesses, cases=0):
        if not witnesses:
            raise ValueError("violation requires witnesses")
        return self.add(name, VIOLATION, witnesses, cases)

    def record(self, name, bad, cases=0):
        """A violation witnessed by ``bad`` if it is non-empty, else ok."""
        if bad:
            return self.add(name, VIOLATION, bad, cases)
        return self.add_ok(name, cases)

    def add_inconclusive(self, name, cases=0, note=""):
        w = [{"note": note}] if note else []
        return self.add(name, INCONCLUSIVE, w, cases)

    @contextmanager
    def bounded(self, name: str, budget: Budget):
        """Record ``name`` inconclusive if the budget runs out in the
        block.  The one place that catches exhaustion and the one writer
        of ``budget_used``, the budget's running total; any other
        exception propagates and records nothing."""
        before = budget.used
        try:
            yield
        except BudgetExceeded as e:
            cases = budget.used - before
            self.add_inconclusive(name, cases=cases,
                                  note=f"{e}, {cases} cases checked")
        self.budget_used = budget.used

    @contextmanager
    def cases(self, name: str, budget: Budget):
        """:meth:`bounded`, handing the block a :class:`Cases` that is
        recorded as ``name`` when the block ends normally."""
        with self.bounded(name, budget):
            cases = Cases(budget)
            yield cases
            self.record(name, cases.bad, cases=cases.n)

    def merge(self, other: "Report", prefix: str = "") -> "Report":
        for c in other.checks:
            name = prefix + c.name if prefix else c.name
            self.checks.append(Check(name, c.status, c.witnesses, c.cases))
        # the checks of one run share a budget: its total covers both
        self.budget_used = max(self.budget_used, other.budget_used)
        return self

    def violations(self):
        return [c for c in self.checks if c.status == VIOLATION]

    def to_dict(self):
        return {
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
            "budget_used": self.budget_used,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def __repr__(self):
        return f"<Report {self.status}: {len(self.checks)} checks>"
