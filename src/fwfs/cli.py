"""Command-line front end.

All machine-readable output (reports, records) is JSON on stdout; a
short human summary goes to stderr.  Exit codes: 0 ok, 1 violation,
2 inconclusive, 64 usage or parse error.  Identical inputs produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import awfs as awfs_mod
from . import io as io_mod
from .catlib import (FillerError, canonical_filler, check_cat_roster,
                     comma_category)
from .dblcat import ClosureError, check_double_category
from .fincat import (check_category, check_functor, finset_image_factorisation,
                     finset_values)
from .lifting import (NotOrthogonal, check_lifting_awfs, check_lifting_operation,
                      check_pre_awfs, enumerate_fillers)
from .report import EXIT_USAGE, Budget, Report


def _emit(doc, summary_lines):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for line in summary_lines:
        sys.stderr.write(line + "\n")


def _emit_report(report: Report) -> int:
    lines = [f"  {c.name}: {c.status} ({c.cases} cases)" for c in report.checks]
    lines.append(f"overall: {report.status}")
    _emit(report.to_dict(), lines)
    return report.exit_code


def _budget(args) -> Budget:
    return Budget(max_candidates=args.max_candidates,
                  max_seconds=args.max_seconds)


def _positive(kind):
    """An argparse type: a ``kind`` greater than 0."""
    def parse(text):
        value = kind(text)  # argparse reports "invalid int value" itself
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _load_bundle_fa(path, need_fa):
    C, S, FA = io_mod.load_bundle(path)
    if need_fa and FA is None:
        raise io_mod.ParseError(path, "factorisation",
                                "this command needs a factorisation assignment")
    return C, S, FA


def cmd_check(args) -> int:
    budget = _budget(args)
    what = args.what
    if what == "category":
        return _emit_report(check_category(io_mod.load_category(args.file)))
    if what == "functor":
        return _emit_report(check_functor(io_mod.load_functor(args.file)))
    if what == "double":
        D = io_mod.load_double_category(args.file)
        return _emit_report(check_double_category(D, budget))
    if what == "lifting-op":
        _, S, _ = _load_bundle_fa(args.file, need_fa=False)
        return _emit_report(check_lifting_operation(S.op, budget))
    if what == "pre-awfs":
        _, S, _ = _load_bundle_fa(args.file, need_fa=False)
        return _emit_report(check_pre_awfs(S, budget))
    if what == "lifting-awfs":
        _, S, FA = _load_bundle_fa(args.file, need_fa=True)
        return _emit_report(check_lifting_awfs(S, FA, args.side, budget))
    if what == "awfs":
        return _emit_report(awfs_mod.check_awfs(io_mod.load_awfs(args.file)))
    if what == "cat-roster":
        L, R = io_mod.load_roster(args.file)
        return _emit_report(check_cat_roster(L, R, budget))
    raise AssertionError(what)


def cmd_factorise(args) -> int:
    if args.bundle:
        _, S, FA = _load_bundle_fa(args.bundle, need_fa=True)
        if args.morphism not in FA:
            raise io_mod.ParseError(args.bundle, "factorisation",
                                    f"unknown morphism {args.morphism!r}")
        g, mid, h = FA[args.morphism]
        record = {"f": args.morphism, "left": S.left.label(g), "mid": mid,
                  "right": S.right.label(h)}
    else:
        C = io_mod.load_category(args.category)
        if args.morphism not in C.dom:
            raise io_mod.ParseError(args.category, "morphisms",
                                    f"unknown morphism {args.morphism!r}")
        try:
            finset_values(args.morphism)
        except (ValueError, IndexError):
            raise io_mod.ParseError(
                args.category, "morphisms",
                "the epi-mono system needs finite-set morphism ids "
                "(as produced by the finite-set builder)")
        e, mid, m = finset_image_factorisation(args.morphism)
        record = {"f": args.morphism, "left": e, "mid": mid, "right": m}
    _emit(record, [f"{record['f']} = {record['right']} o {record['left']}"])
    return 0


def cmd_fillers(args) -> int:
    C = io_mod.load_category(args.category)
    for m in (args.left, args.right, args.top, args.bottom):
        if m not in C.dom:
            raise io_mod.ParseError(args.category, "morphisms",
                                    f"unknown morphism {m!r}")
    fillers = enumerate_fillers(C, args.left, args.right, args.top, args.bottom)
    _emit({"fillers": fillers}, [f"{len(fillers)} filler(s)"])
    return 0


def _comma_dot(cd) -> str:
    lines = ["digraph comma {"]
    for o in cd.comma.objects:
        lines.append(f'  "{o}";')
    for m in cd.comma.morphisms:
        if cd.comma.is_identity(m):
            continue
        lines.append(f'  "{cd.comma.dom[m]}" -> "{cd.comma.cod[m]}" '
                     f'[label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_comma(args) -> int:
    f = io_mod.load_functor(args.functor)
    report = check_functor(f)
    if not report.ok:
        return _emit_report(report)
    cd = comma_category(f)
    if args.dot:
        sys.stdout.write(_comma_dot(cd))
        sys.stderr.write(f"{len(cd.comma.objects)} objects, "
                         f"{len(cd.comma.morphisms)} morphisms\n")
        return 0
    doc = {
        "comma": io_mod.category_to_dict(cd.comma),
        "i_f": {"object_map": cd.i_f.obj_map, "morphism_map": cd.i_f.mor_map},
        "c_f": {"object_map": cd.c_f.obj_map, "morphism_map": cd.c_f.mor_map},
        "d_f": {"object_map": cd.d_f.u.obj_map,
                "morphism_map": cd.d_f.u.mor_map,
                "theta": [[a, h, lift]
                          for (a, h), lift in sorted(cd.d_f.theta.items())]},
        "eta": dict(sorted(cd.eta.components.items())),
    }
    _emit(doc, [f"{len(cd.comma.objects)} objects, "
                f"{len(cd.comma.morphisms)} morphisms"])
    return 0


def cmd_sem(args) -> int:
    budget = _budget(args)
    A = io_mod.load_awfs(args.file)
    report = Report()
    report.merge(awfs_mod.check_awfs(A), prefix="awfs-")
    if report.violations():
        return _emit_report(report)
    S = awfs_mod.sem(A)
    FA = awfs_mod.factorisation_assignment(A)
    report.merge(check_lifting_awfs(S, FA, "both", budget), prefix="sem-")
    return _emit_report(report)


def cmd_reconstruct(args) -> int:
    _, S, FA = _load_bundle_fa(args.file, need_fa=True)
    A = awfs_mod.awfs_from_lifting(S, FA)
    report = awfs_mod.check_awfs(A)
    doc = {"awfs": io_mod.awfs_to_dict(A, "<input bundle category>"),
           "report": report.to_dict()}
    lines = [f"  {c.name}: {c.status} ({c.cases} cases)" for c in report.checks]
    lines.append(f"overall: {report.status}")
    _emit(doc, lines)
    return report.exit_code


def cmd_roundtrip(args) -> int:
    _, S, FA = _load_bundle_fa(args.file, need_fa=True)
    A = awfs_mod.awfs_from_lifting(S, FA)
    return _emit_report(awfs_mod.roundtrip_compare(S, A))


def cmd_cat_fill(args) -> int:
    L, R, refl, fib, top, bottom = io_mod.load_cat_square(args.square)
    roster = L.roster
    k = canonical_filler(L.members[refl], R.members[fib],
                         roster.functors[top], roster.functors[bottom])
    _emit({"filler": {"object_map": k.obj_map, "morphism_map": k.mor_map}},
          [f"filler of ({top}, {bottom}): {refl} -> {fib}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fwfs",
        description="Verify factorisation-system structure on finite "
                    "categories by exhaustive enumeration.")
    # a string default is parsed as the option is, so a bad FWFS_BUDGET
    # is a usage error too
    p.add_argument("--max-candidates", type=_positive(int),
                   default=os.environ.get("FWFS_BUDGET") or 10**6,
                   help="enumeration budget (default: FWFS_BUDGET or 10^6)")
    p.add_argument("--max-seconds", type=_positive(float), default=60.0,
                   help="time budget per run (default: 60)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run an axiom checker on a file")
    c.add_argument("what", choices=["category", "functor", "double",
                                    "lifting-op", "pre-awfs", "lifting-awfs",
                                    "awfs", "cat-roster"])
    c.add_argument("file")
    c.add_argument("--side", choices=["both", "left-only", "right-only"],
                   default="both",
                   help="factorisation-axiom mode for lifting-awfs")
    c.set_defaults(fn=cmd_check)

    f = sub.add_parser("factorise", help="factor a morphism")
    f.add_argument("morphism")
    g = f.add_mutually_exclusive_group(required=True)
    g.add_argument("--bundle", help="lifting bundle supplying the assignment")
    g.add_argument("--category", help="category file (with --system)")
    f.add_argument("--system", choices=["epi-mono"], default="epi-mono")
    f.set_defaults(fn=cmd_factorise)

    f = sub.add_parser("fillers", help="enumerate diagonal fillers of a square")
    f.add_argument("--category", required=True)
    f.add_argument("--left", required=True)
    f.add_argument("--right", required=True)
    f.add_argument("--top", required=True)
    f.add_argument("--bottom", required=True)
    f.set_defaults(fn=cmd_fillers)

    f = sub.add_parser("comma", help="build the comma-category factorisation")
    f.add_argument("--functor", required=True)
    f.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    f.set_defaults(fn=cmd_comma)

    f = sub.add_parser("sem", help="check an awfs and its induced lifting "
                                   "structure")
    f.add_argument("file")
    f.set_defaults(fn=cmd_sem)

    f = sub.add_parser("reconstruct", help="rebuild an awfs from a lifting "
                                           "bundle")
    f.add_argument("file")
    f.set_defaults(fn=cmd_reconstruct)

    f = sub.add_parser("roundtrip", help="reconstruct, then compare the "
                                         "induced structure with the input")
    f.add_argument("file")
    f.set_defaults(fn=cmd_roundtrip)

    f = sub.add_parser("cat-fill", help="canonical filler for a reflection/"
                                        "fibration square")
    f.add_argument("--square", required=True)
    f.set_defaults(fn=cmd_cat_fill)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (NotOrthogonal, ClosureError, FillerError,
            awfs_mod.ReconstructionError) as e:
        # bad mathematical input (witnessed), not a parse problem
        report = Report()
        report.add_violation(type(e).__name__, [{"witness": repr(e.witness)}])
        return _emit_report(report)
    except io_mod.ParseError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
