#!/usr/bin/env python3
"""Benchmark of fwfs: time to verdict on four seeded workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload lifting-finset3 --seed 1 \\
        --seconds 28 --trace 0

One process runs one workload, single-threaded.  Until ``--seconds``
are used up it repeats one round: set the workload up (a fresh
``import fwfs`` plus input generation), then run one pass of the
workload while a reference snippet is timed at a fixed rate (see
``reference.py``).  Every task's verdict is checked against its known
answer.  The last line of stdout is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run in which every other pass is traced (spans are also
written to ``benchmarks/out/``).  NOTES.md explains the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

from reference import NOMINAL_SNIPPET_S, Sampler, local_median
from spans import NO_SPANS, Tracer, totals
from workloads import ROOT, WORKLOADS, Tasks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
LAYERS = ("report", "fincat", "dblcat", "lifting", "awfs", "catlib", "io")

# per-layer metrics: span name -> the measures reported for it
LAYER_METRICS = {
    "report.to_json": ("s", "calls"),
    "fincat.build_finset": ("s",),
    "fincat.check_category": ("s", "calls", "cases", "cases_per_s"),
    "dblcat.dbl_from_class": ("s",),
    "dblcat.to_internal": ("s",),
    "dblcat.check_double_category": ("s", "cases", "cases_per_s"),
    "lifting.unique_filler_lifting": ("s",),
    "lifting.check_lifting_operation": ("s", "calls", "cases", "budget_used",
                                        "cases_per_s", "errors"),
    "lifting.check_pre_awfs": ("s", "cases", "budget_used", "cases_per_s",
                               "errors"),
    "lifting.check_factorisation_axiom": ("s", "cases", "budget_used",
                                          "cases_per_s"),
    "lifting.check_lifting_awfs": ("s", "cases"),
    "awfs.check_awfs": ("s", "calls", "cases", "cases_per_s", "errors"),
    "awfs.check_functorial_factorisation": ("s", "cases"),
    "awfs.awfs_from_lifting": ("s",),
    "awfs.roundtrip_compare": ("s", "cases"),
    "awfs.sem": ("s",),
    "awfs.enumerate_algebras": ("s", "calls"),
    "awfs.enumerate_coalgebras": ("s", "calls"),
    "catlib.comma_category": ("s",),
    "catlib.check_split_reflection": ("s",),
    "catlib.check_split_fibration": ("s",),
    "catlib.canonical_filler": ("s", "calls"),
    "catlib.check_cat_roster": ("s", "cases"),
    "catlib.check_free_split_fibration": ("s", "cases", "budget_used",
                                          "useful_ratio"),
    "catlib.check_cofree_split_reflection": ("s", "cases", "budget_used",
                                             "useful_ratio"),
    "catlib.enumerate_functors": ("s", "calls"),
    "io.load_category": ("s",),
    "io.load_awfs": ("s",),
    "io.load_roster": ("s",),
}
UNITS = {"s": "s", "calls": "count", "cases": "count", "budget_used": "count",
         "errors": "count", "cases_per_s": "1/s", "useful_ratio": "ratio"}


def drop_library():
    """Forget the previous import of fwfs and free what it held, so that
    the next import is paid again, as by a CLI invocation, and memory
    does not creep from round to round."""
    for name in [m for m in sys.modules if m == "fwfs" or m.startswith("fwfs.")]:
        del sys.modules[name]
    gc.collect()


def load_library():
    """Import fwfs from this checkout's sources."""
    pkg = importlib.import_module("fwfs")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fwfs imported from {pkg.__file__}, not {SRC}")
    return type("Library", (), {m: importlib.import_module(f"fwfs.{m}")
                                for m in LAYERS})


def run_rounds(workload, seed, seconds, workdir, tasks, tracer):
    """Run rounds until the next one would end after ``seconds``.  When
    tracing, every other pass is traced, and at least one of each kind
    is run."""
    prepare, run_pass = WORKLOADS[workload]
    rounds = []
    start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            lib = prep = None
            drop_library()
            t0 = time.perf_counter()
            lib = load_library()
            prep = prepare(lib, seed, workdir)
            traced = tracer is not None and len(rounds) % 2 == 1
            tasks.start_pass(len(rounds))
            if traced:
                tracer.install(lib)
            sampler.take()
            t1, cpu1 = time.perf_counter(), time.process_time()
            try:
                run_pass(lib, prep, tasks)
            except Exception as exc:  # a pass that cannot build its inputs
                tasks.attempted += 1
                tasks.fail("pass", f"raised {type(exc).__name__}: {exc}")
            finally:
                if traced:
                    tracer.remove()
            t2, cpu2 = time.perf_counter(), time.process_time()
            samples = sampler.take()
            rounds.append({"traced": traced, "setup": t1 - t0, "wall": t2 - t1,
                           "cpu": cpu2 - cpu1, "samples": samples,
                           "snippet": local_median(samples, t1, t2),
                           "tasks": tasks.times,
                           "budget_used": tasks.budget_used,
                           "inconclusive": tasks.inconclusive})
            typical = statistics.median(r["setup"] + r["wall"] for r in rounds)
            both = tracer is None or len(rounds) >= 2
            if both and time.perf_counter() - start + typical > seconds:
                return rounds


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def timings(rounds):
    """Medians over the rounds, and task-time quantiles, in seconds and
    in multiples of the reference snippet's time (``*_ref``).

    A pass is divided by the median snippet time of the pass, a task by
    that of the snippets around it, and the set-up, which is too short
    to sample well, by the median snippet time of the run.  Every pass
    runs the same task list, so each task's time is first reduced to its
    median over the passes; the quantiles are then taken over the tasks
    by nearest rank, which lands on the same task however many passes a
    run fits.
    """
    med = statistics.median
    snippet = med(r["snippet"] for r in rounds if r["snippet"])
    raw, scaled = {}, {}
    for r in rounds:
        for name, (a, b) in r["tasks"].items():
            ref = local_median(r["samples"], a, b) or r["snippet"] or snippet
            raw.setdefault(name, []).append(b - a)
            scaled.setdefault(name, []).append((b - a) / ref)
    raw = [med(ts) for ts in raw.values()]
    scaled = [med(ts) for ts in scaled.values()]
    return {
        "setup": med(r["setup"] for r in rounds),
        "setup_ref": med(r["setup"] for r in rounds) / snippet,
        "cpu": med(r["cpu"] for r in rounds),
        "snippet": snippet,
        "pass": med(r["wall"] for r in rounds),
        "pass_ref": med(r["wall"] / (r["snippet"] or snippet) for r in rounds),
        "p50": nearest_rank(raw, 0.5),
        "p90": nearest_rank(raw, 0.9),
        "p50_ref": nearest_rank(scaled, 0.5),
        "p90_ref": nearest_rank(scaled, 0.9),
    }


def end_to_end(rounds, tasks):
    t = timings(rounds)
    return {
        "setup_s": (t["setup_ref"] * NOMINAL_SNIPPET_S, "s"),
        "pass_ref": (t["pass_ref"], "ref"),
        "task_p50_ref": (t["p50_ref"], "ref"),
        "task_p90_ref": (t["p90_ref"], "ref"),
        "correct_share": (1 - tasks.failed / max(tasks.attempted, 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(rounds, tracer, tasks):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    by_name = totals(tracer.spans)
    metrics = {}
    for name, measures in LAYER_METRICS.items():
        t = by_name.get(name, NO_SPANS)
        for m in measures:
            if m == "cases_per_s":
                value = t["cases"] / t["incl"] if t["incl"] else 0.0
            elif m == "useful_ratio":
                value = t["cases"] / t["budget_used"] if t["budget_used"] else 0.0
            else:
                value = t[m] / n
            metrics[f"{name}.{m}"] = (value, UNITS[m])
    functoriality = sum(s.checks.get("functoriality", 0) for s in tracer.spans
                        if s.name == "awfs.check_functorial_factorisation")
    metrics["awfs.functoriality.cases"] = (functoriality / n, "count")
    metrics["report.budget_used"] = (
        sum(r["budget_used"] for r in traced) / n, "count")
    metrics["report.inconclusive"] = (
        sum(r["inconclusive"] for r in traced) / n, "count")
    t_plain, t_traced = timings(plain), timings(traced)
    metrics["trace.overhead_s"] = (t_traced["pass"] - t_plain["pass"], "s")
    metrics["trace.overhead_ref"] = (t_traced["pass_ref"] - t_plain["pass_ref"],
                                     "ref")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    # the untraced passes' times in seconds, unscaled
    for key, name in (("setup", "run.setup_s"),
                      ("pass", "run.pass_s"), ("cpu", "run.pass_cpu_s"),
                      ("p50", "run.task_p50_s"), ("p90", "run.task_p90_s"),
                      ("snippet", "run.snippet_s")):
        metrics[name] = (t_plain[key], "s")
    metrics["run.failed_share"] = (tasks.failed / max(tasks.attempted, 1),
                                   "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fwfs", "__init__.py")):
        print(f"run.py: no fwfs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tasks = Tasks()
    tracer = Tracer(tasks) if args.trace else None
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, workdir,
                            tasks, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(rounds, tasks)
    else:
        metrics = per_layer(rounds, tracer, tasks)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": [{k: r[k] for k in ("traced", "setup", "wall",
                                                   "cpu", "snippet")}
                                for r in rounds]})
    print(f"{args.workload} seed {args.seed}: {len(rounds)} passes, "
          f"{tasks.attempted} tasks, {tasks.failed} failed; "
          "setup s/pass s/snippet ms "
          + " ".join(f"{r['setup']:.3f}/{r['wall']:.3f}/{1e3 * r['snippet']:.3f}"
                     f"{'t' if r['traced'] else ''}" for r in rounds),
          file=sys.stderr)
    for problem in tasks.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tasks.failed == 0,
        "attempted": tasks.attempted,
        "failed": tasks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
