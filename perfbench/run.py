#!/usr/bin/env python3
"""Benchmark of the spinroots pipeline, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload table --seed 1 --seconds 60 --trace 0

One process runs one workload on one thread.  It repeats whole passes over
the workload's inputs within ``--seconds`` (at least one pass), checks every
pass against the float oracle in ``oracle.py``, prints each metric with its
unit and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the time on untraced passes and half on traced passes, and
reports the per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

WORKLOADS = ("table", "roots")
SMALL = ("a1x3", "a3", "b3")
SETUP_SAMPLES = 10
CHECKS = {
    "table": "table cells vs oracle; roots, spinors and rank-4 roots vs "
             "oracle within TOL; root counts, group orders, scalar and "
             "angle censuses; exit status and printed verdict",
    "roots": "roots vs oracle within TOL; root counts; verification flag; "
             "Cartan entries vs oracle within TOL; pair orders vs oracle; "
             "exit status",
}


def load_program():
    """Import spinroots from the src/ directory of this checkout only."""
    src = ROOT / "src"
    if not (src / "spinroots" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinroots sources under {src}")
    sys.path.insert(0, str(src))
    import spinroots
    from spinroots import (cli, clifford, coxeter, exactfield, quaternion,
                           spingroup)
    if Path(spinroots.__file__).resolve().parent != src / "spinroots":
        raise SystemExit(f"perfbench: imported {spinroots.__file__}, "
                         f"not the sources under {src}")
    return SimpleNamespace(cli=cli, clifford=clifford, coxeter=coxeter,
                           exactfield=exactfield, quaternion=quaternion,
                           spingroup=spingroup)


def make_frames(prog, workload: str, seed: int):
    """[(group, label, SimpleRoots or None)]; None means the CLI preset."""
    groups = prog.coxeter.GROUPS
    presets = [(g, "preset", None) for g in groups]
    if workload == "table":
        return presets
    rot = inputs.rotated_frames(prog.coxeter, prog.exactfield.FieldScalar,
                                seed)
    rotated = [(g, f"q={rot[g][0]}", rot[g][1]) for g in groups]
    return [f for pair in zip(presets, rotated) for f in pair]


def reference(prog, frame) -> oracle.Reference:
    group, _, simple = frame
    if simple is None:
        simple = prog.coxeter.simple_roots(group)
    return oracle.Reference(group, [inputs.approx_root(r)
                                    for r in simple.roots])


# -- capturing the program's outputs -------------------------------------------

class Capture:
    """Keeps the results of a few public functions, with their timings."""

    def __init__(self, functions):
        self.functions = functions
        self.records: list[tuple[str, tuple, object, float]] = []
        self._patches = Patches()

    def install(self):
        for module, func in self.functions:
            self._patches.function(module, func, self._wrap(func))

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, func):
        records = self.records

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                records.append((func, args, result,
                                time.perf_counter() - t0))
                return result
            return wrapper
        return make

    def take(self):
        out = list(self.records)
        self.records.clear()
        return out


def fresh_caches(prog):
    """Empty the program's memo caches, so every pass computes what one
    invocation of the CLI computes."""
    for mod in vars(prog).values():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


# -- checks against the oracle ---------------------------------------------------

def _approx_all(vectors):
    return [inputs.approx_root(v) for v in vectors]


def check_pipeline(res, ref: oracle.Reference) -> list[str]:
    """Exact outputs of one run_pipeline call against the float oracle."""
    g = ref.group
    errs = []
    binary = oracle.BINARY_GROUP[g]
    want = oracle.SCALAR_CENSUS[binary]
    roots = _approx_all(res.root_system.roots)
    if not oracle.same_points(roots, ref.roots):
        errs.append(f"{g}: rank-3 roots differ from the oracle")
    spinors = _approx_all(q.components for q in res.spinors.quaternions())
    if not oracle.same_points(spinors, ref.spinors):
        errs.append(f"{g}: spinors differ from the oracle's closure")
    if oracle.scalar_census(spinors) != want:
        errs.append(f"{g}: scalar-part census is not that of {binary}")
    rank4 = _approx_all(res.rank4.roots)
    if not oracle.same_points(rank4, ref.spinors):
        errs.append(f"{g}: rank-4 roots differ from the oracle")
    if oracle.angle_censuses(rank4) != {tuple(sorted(want.items()))}:
        errs.append(f"{g}: rank-4 angle census is not that of "
                    f"{oracle.RANK4_TYPE[binary]}")
    census = res.census
    half = oracle.GROUP_ORDER[g] // 2
    if (census.transformations, census.even, census.odd) != (
            oracle.GROUP_ORDER[g], half, half):
        errs.append(f"{g}: versor census {census.transformations} "
                    f"({census.even} even, {census.odd} odd)")
    return errs


def check_report(report, results, refs) -> tuple[int, list[str], list[str]]:
    """(cells attempted, cells the program failed, wrong outputs)."""
    attempted, failed, errs = 0, [], []
    rows = {row["group"]: row for row in report["rows"]}
    for ref in refs:
        g = ref.group
        cells = ref.cells()
        attempted += len(cells)
        row = rows.get(g)
        if row is None or "error" in row:
            failed += [f"{g}.{key}" for key in cells]
            continue
        program_failed = set(row["failed_cells"])
        for key, want in cells.items():
            cell = f"{g}.{key}"
            if cell in program_failed:
                failed.append(cell)
            elif row.get(key) != want:
                errs.append(f"{cell}: program {row.get(key)!r}, "
                            f"oracle {want!r}")
        if g in results:
            errs += check_pipeline(results[g], ref)
        else:
            errs.append(f"{g}: no pipeline result captured")
    if report["pass"] != (not failed):
        errs.append("report verdict disagrees with its cells")
    return attempted, failed, errs


def check_roots(ref, rs, cert) -> list[str]:
    errs = []
    if not cert.passed:
        errs.append(f"{ref.group}: root system not verified")
    if len(rs) != oracle.ROOT_COUNT[ref.group]:
        errs.append(f"{ref.group}: {len(rs)} roots")
    if not oracle.same_points(_approx_all(rs.roots), ref.roots):
        errs.append(f"{ref.group}: roots differ from the oracle")
    return errs


def check_cartan(ref, cm) -> list[str]:
    got = [[v.approx() for v in row] for row in cm.entries]
    want = ref.cartan()
    errs = []
    if any(abs(x - y) > oracle.TOL for gr, wr in zip(got, want)
           for x, y in zip(gr, wr)):
        errs.append(f"{ref.group}: Cartan entries differ from the oracle")
    if [list(r) for r in cm.pair_orders] != ref.pair_orders():
        errs.append(f"{ref.group}: pair orders differ from the oracle")
    return errs


# -- one pass of each workload -------------------------------------------------

def _pipeline_results(records):
    results, group_time = {}, Counter()
    for func, args, result, seconds in records:
        if func == "run_pipeline":
            results[args[0].group] = result
            group_time[args[0].group] += seconds
    return results, group_time


NO_REPORT = {"rows": [], "pass": False}


def pass_table(prog, capture, frames, refs):
    report_path = OUT / "table-report.json"
    report_path.unlink(missing_ok=True)
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = prog.cli.main(["verify-table", "--json", str(report_path)])
    except Exception:  # a program fault fails every cell
        rc = None
    total = time.perf_counter() - t0
    results, group_time = _pipeline_results(capture.take())
    report = (json.loads(report_path.read_text(encoding="utf-8"))
              if rc is not None else NO_REPORT)
    attempted, failed, errs = check_report(report, results, refs)
    if rc is None:
        return total, group_time, attempted, failed, errs
    if rc != (0 if not failed else 1):
        errs.append(f"exit status {rc} with failed cells {failed}")
    verdict = ("table verified: all rows match" if not failed
               else "table verification FAILED")
    if verdict not in out.getvalue():
        errs.append("printed verdict missing or wrong")
    return total, group_time, attempted, failed, errs


def small_round(prog, capture, frames, refs):
    """One more run of the small presets' pipelines, the calls verify-table
    makes for them; returns (their seconds, wrong outputs)."""
    try:
        for g, _, simple in frames:
            if g in SMALL:
                prog.spingroup.run_pipeline(
                    prog.coxeter.simple_roots(g) if simple is None
                    else simple)
    except Exception as exc:  # the passes made the same calls without fault
        capture.take()
        return None, [f"small round raised {exc!r}"]
    results, group_time = _pipeline_results(capture.take())
    errs = [e for ref in refs if ref.group in SMALL
            for e in check_pipeline(results[ref.group], ref)]
    return sum(group_time[g] for g in SMALL), errs


def _roots_ops(prog, group, simple, sink):
    """The work of `spinroots roots` and `spinroots cartan` on one frame;
    returns the names of the operations that failed."""
    failed = []
    if simple is None:
        with contextlib.redirect_stdout(sink):
            for command in ("roots", "cartan"):
                try:
                    if prog.cli.main([command, group]) != 0:
                        failed.append(command)
                except Exception:  # a program fault is a failed operation
                    failed.append(command)
        return failed
    cox = prog.coxeter
    try:
        rs = cox.orbit_closure(simple)
        if not cox.verify_root_system(rs).passed:
            failed.append("roots")
    except Exception:  # a program fault is a failed operation
        failed.append("roots")
    try:
        cox.cartan_matrix(simple)
    except Exception:  # a program fault is a failed operation
        failed.append("cartan")
    return failed


def pass_roots(prog, capture, frames, refs):
    sink = io.StringIO()
    group_time = Counter()
    per_frame = []
    t0 = time.perf_counter()
    for i, (g, _, simple) in enumerate(frames):
        f0 = time.perf_counter()
        failed = _roots_ops(prog, g, simple, sink)
        group_time[g] += time.perf_counter() - f0
        per_frame.append((i, failed, capture.take()))
    total = time.perf_counter() - t0
    attempted, failed_ops, errs = 0, [], []
    for i, failed, records in per_frame:
        ref = refs[i]
        attempted += 2
        failed_ops += [f"{frames[i][0]}.{frames[i][1]}.{op}" for op in failed]
        got = {func: result for func, _, result, _ in records}
        if "roots" not in failed:
            errs += check_roots(ref, got["orbit_closure"],
                                got["verify_root_system"])
        if "cartan" not in failed:
            errs += check_cartan(ref, got["cartan_matrix"])
    return total, group_time, attempted, failed_ops, errs


PASSES = {
    "table": (pass_table, (("spingroup", "run_pipeline"),)),
    "roots": (pass_roots, (("coxeter", "orbit_closure"),
                           ("coxeter", "verify_root_system"),
                           ("coxeter", "cartan_matrix"))),
}
# A table pass runs the small groups once, in its first 20%.  Small rounds
# fill the time the whole passes leave, so that small_s is a median over
# samples spread across the run rather than over one or two.
FILL = {"table": small_round}


class Runner:
    """Runs whole passes of one workload and keeps their figures."""

    def __init__(self, prog, workload, frames, refs, fill=False):
        self.prog = prog
        self.frames = frames
        self.refs = refs
        self.pass_fn, captured = PASSES[workload]
        self.fill_fn = FILL.get(workload) if fill else None
        self.rounds = 0
        self.capture = Capture(captured)
        self.totals, self.h3, self.small = [], [], []
        self.walls: list[float] = []  # whole passes, checks included
        self.attempted = 0
        self.failed: list[str] = []
        self.errors: list[str] = []

    def one_pass(self, tracer=None, index=0):
        fresh_caches(self.prog)
        self.capture.install()
        if tracer is not None:
            tracer.install(index)
        try:
            total, group_time, attempted, failed, errs = self.pass_fn(
                self.prog, self.capture, self.frames, self.refs)
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.capture.uninstall()
        self.totals.append(total)
        self.h3.append(group_time["h3"])
        self.small.append(sum(group_time[g] for g in SMALL))
        self.attempted += attempted
        self.failed += failed
        self.errors += errs

    def one_round(self):
        fresh_caches(self.prog)
        self.capture.install()
        try:
            small, errs = self.fill_fn(self.prog, self.capture, self.frames,
                                       self.refs)
        finally:
            self.capture.uninstall()
        self.errors += errs
        if small is not None:
            self.small.append(small)
            self.rounds += 1
        return small is not None

    def run_for(self, seconds: float, tracer=None):
        """Whole passes while the next one, as long as the median pass so
        far, still ends within ``seconds``; always at least one.  Then, on
        a runner made with ``fill``, small rounds in the same way."""
        start = time.perf_counter()

        def fits(walls):
            return (time.perf_counter() - start + statistics.median(walls)
                    <= seconds)

        index = 0
        while True:
            t0 = time.perf_counter()
            self.one_pass(tracer, index)
            index += 1
            self.walls.append(time.perf_counter() - t0)
            if not fits(self.walls):
                break
        if self.fill_fn is None or self.failed or self.errors:
            return
        walls: list[float] = []
        while fits(walls or self.small):
            t0 = time.perf_counter()
            if not self.one_round():
                return
            walls.append(time.perf_counter() - t0)


# -- set-up time -----------------------------------------------------------------

def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Samples of setup_s: wall time of a fresh interpreter that imports the
    program and builds the workload's inputs, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


# -- reporting -------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(runner, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": _metric(setup_s, "s"),
        "total_s": _metric(statistics.median(runner.totals), "s"),
        "h3_s": _metric(statistics.median(runner.h3), "s"),
        "small_s": _metric(statistics.median(runner.small), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer_metrics(tracer, untraced, traced_runner):
    """Per-layer figures of the traced passes (medians over passes; the
    counts are those of the first traced pass)."""
    n = len(traced_runner.totals)
    per_pass = [tracer.pass_metrics(i, traced_runner.totals[i])
                for i in range(n)]
    counts = tracer.pass_counts[0]

    def self_s(*names):
        return statistics.median(sum(p["self"][k] for k in names)
                                 for p in per_pass)

    m = {}
    for key in ("mul", "add", "inverse", "sign"):
        m[f"exactfield.{key}_calls"] = _metric(counts[f"exactfield.{key}"],
                                               "count")
    for key in ("mul", "inverse", "sign"):
        m[f"exactfield.{key}_us"] = _metric(
            tracer.time_per_call(f"exactfield.{key}"), "us")
    m["clifford.gp_calls"] = _metric(counts["clifford.gp"], "count")
    m["clifford.gp_us"] = _metric(tracer.time_per_call("clifford.gp"), "us")
    m["quaternion.from_spinor_calls"] = _metric(
        counts["quaternion.from_spinor"], "count")
    m["quaternion.catalog_s"] = _metric(self_s("quaternion.catalog"), "s")
    for name, span in (("coxeter.orbit_closure_s", "coxeter.orbit_closure"),
                       ("coxeter.verify_rank3_s", "coxeter.verify_rank3"),
                       ("coxeter.cartan_s", "coxeter.cartan"),
                       ("coxeter.verify_rank4_s", "coxeter.verify_rank4")):
        m[name] = _metric(self_s(span), "s")
    m["coxeter.dot_calls"] = _metric(counts["coxeter.dot"], "count")
    for stage in ("rotors", "versors", "census", "pure_check", "rank4",
                  "two_gen", "catalog_match"):
        m[f"spingroup.{stage}_s"] = _metric(self_s(f"spingroup.{stage}"), "s")
    m["spingroup.closure_yield"] = _metric(
        per_pass[0]["closure_yield"], "ratio")
    m["cli.overhead_s"] = _metric(
        statistics.median(p["overhead"] for p in per_pass), "s")
    m["trace.overhead_s"] = _metric(
        statistics.median(traced_runner.totals)
        - statistics.median(untraced.totals), "s")
    return m


def write_trace(path, tracer, workload, seed):
    payload = {
        "workload": workload, "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "pass", "index",
                        "gp_calls", "closure_size"],
        "spans": tracer.spans,
        "counters": [dict(c) for c in tracer.pass_counts],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit "
                         "(one sample of setup_s)")
    args = ap.parse_args(argv)

    prog = load_program()
    frames = make_frames(prog, args.workload, args.seed)
    if args.setup_only:
        return 0
    OUT.mkdir(exist_ok=True)
    # Half the set-up samples are taken before the passes and half after
    # them, so that they span the run as the pass timings do.
    half = SETUP_SAMPLES // 2
    setup = [] if args.trace else setup_samples(args.workload, args.seed, half)
    refs = [reference(prog, f) for f in frames]
    oracle_errors = [e for r in refs for e in r.invariant_errors()]

    print(f"workload: {args.workload}  seed: {args.seed}")
    for g, label, _ in frames:
        print(f"  input: {g} {label}")
    print(f"checks: {CHECKS[args.workload]}")

    untraced = Runner(prog, args.workload, frames, refs,
                      fill=not args.trace)
    untraced.run_for(args.seconds / 2 if args.trace else args.seconds)
    runners = [untraced]
    if args.trace:
        tracer = Tracer(prog)
        traced = Runner(prog, args.workload, frames, refs)
        traced.run_for(args.seconds / 2, tracer)
        runners.append(traced)
        metrics = per_layer_metrics(tracer, untraced, traced)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, tracer, args.workload, args.seed)
        print(f"trace: {trace_path.relative_to(ROOT)}")
    else:
        setup += setup_samples(args.workload, args.seed, SETUP_SAMPLES - half)
        metrics = end_to_end_metrics(untraced, statistics.median(setup))

    attempted = sum(r.attempted for r in runners)
    failed = [f for r in runners for f in r.failed]
    errors = oracle_errors + [e for r in runners for e in r.errors]
    print(f"passes: {', '.join(str(len(r.totals)) for r in runners)}"
          f"  small rounds: {untraced.rounds}")
    print(f"operations: attempted {attempted}, failed {len(failed)}")
    for cell, n in sorted(Counter(failed).items()):
        print(f"  failed: {cell} x{n}")
    for err in sorted(set(errors)):
        print(f"  WRONG: {err}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
