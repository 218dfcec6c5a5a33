"""permstab benchmark: one closed-loop client per run, every answer checked.

    python3 bench/run.py --workload local_large_n --seed 1 --seconds 30 --trace 0

A run times the import in fresh interpreters and sets up its inputs from the
seed, three times each, and reports the medians.  It then sends operations
one at a time, the next only after the last returned, in whole passes until
--seconds have elapsed.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates plain passes with passes that record a span
around every public call, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
report.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# One BLAS thread: the client is single-threaded and the machine is shared.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 3

# name -> unit, in the order printed; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "trials_per_s": "1/s", "exact_ratio": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "perm.compose_ns": "ns", "perm.evaluate_word_ns": "ns", "perm.calls": "count",
    "cochains.norm.busy_s": "s", "cochains.translate.busy_s": "s",
    "cochains.orbit_distance.busy_s": "s", "cochains.orbit_distance.calls": "count",
    "cochains.orbit_distance.tuples": "count",
    "testers.exact.busy_s": "s", "testers.sampled.busy_s": "s",
    "testers.sampled.table_s": "s", "testers.sampled.draw_s": "s",
    "stability.enumerate.busy_s": "s", "stability.enumerate.calls": "count",
    "stability.homs_found": "count", "stability.candidates": "count",
    "stability.hom_cache.hits": "count", "stability.hom_cache.misses": "count",
    "stability.guard_trips": "count", "stability.guard_trips.align_guard": "count",
    "stability.guard_trips.edit_guard": "count", "stability.guard_trips.hom_guard": "count",
    "graphs.edit_distance.busy_s": "s", "graphs.edit_distance.calls": "count",
    "complexes.fundamental_presentation.busy_s": "s",
    "fileio.load_object.busy_s": "s", "fileio.save_json.busy_s": "s", "fileio.bytes": "B",
    "cli.validate.ms": "ms", "cli.convert.ms": "ms", "cli.defect_local.ms": "ms",
    "cli.defect_global.ms": "ms", "cli.test.ms": "ms", "cli.equiv.ms": "ms",
    "cli.profile.ms": "ms", "cli.h1check.ms": "ms",
    "instances.generate_s": "s",
    "trace.overhead_ops_per_s": "1/s", "trace.overhead_pct": "%",
    "trace.decompositions": "count",
}


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)
    by_op: dict[str, list[float]] = field(default_factory=dict)
    trials_of: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    answers: dict[str, str] = field(default_factory=dict)
    passes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    checks: int = 0   # decomposition checks, attempted beside the timed operations

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.checks

    def typical(self) -> dict[str, float]:
        """Each operation's median latency across passes: a typical pass,
        steadier on a shared machine than totals over the whole run."""
        return {oid: statistics.median(lat) for oid, lat in self.by_op.items()}

    def ops_per_s(self) -> float:
        return len(self.by_op) / sum(self.typical().values())


def record(stats: Stats, op, dt: float) -> None:
    stats.latencies.append(dt)
    stats.by_op.setdefault(op.id, []).append(dt)
    if op.trials:
        stats.trials_of[op.id] = op.trials


def run_op(op, memo, stats: Stats, pins, tracer, wl) -> None:
    if op.fresh_cache:
        wl.clear_hom_cache()
    if tracer is not None:
        tracer.begin_op(f"p{stats.passes}/{op.id}")
        hits0, misses0 = wl.hom_cache_info()
    t0 = perf_counter()
    try:
        result = op.call(memo)
    except Exception as exc:   # a failed operation is counted, never dropped
        record(stats, op, perf_counter() - t0)
        stats.failures.append(f"{op.id}: raised {type(exc).__name__}: {exc}")
        return
    finally:
        if tracer is not None:
            tracer.end_op()
    record(stats, op, perf_counter() - t0)
    if tracer is not None:
        hits1, misses1 = wl.hom_cache_info()
        stats.cache_hits += hits1 - hits0
        stats.cache_misses += misses1 - misses0
    memo[op.id] = result
    try:
        answer, labels = op.check(result, memo)
    except wl.CheckFailed as exc:
        stats.failures.append(f"{op.id}: {exc}")
        return
    except Exception as exc:
        stats.failures.append(f"{op.id}: check raised {type(exc).__name__}: {exc}")
        return
    stats.labels.extend(labels)
    if answer is None:
        return
    first = stats.answers.setdefault(op.id, answer)
    if first != answer:
        stats.failures.append(f"{op.id}: answer {answer!r} changed from {first!r}")
    elif pins is not None and pins.get(op.id) != answer:
        stats.failures.append(f"{op.id}: answer {answer!r} != pinned {pins.get(op.id)!r}")


def run_pass(setup, stats: Stats, pins, wl, tracer=None) -> None:
    memo: dict = {}
    for op in setup.ops:
        run_op(op, memo, stats, pins, tracer, wl)
    stats.passes += 1


def run_passes(setup, seconds: float, pins, wl) -> Stats:
    """Whole passes over the operation list until `seconds` have elapsed."""
    stats = Stats()
    begin = perf_counter()
    while True:
        run_pass(setup, stats, pins, wl)
        if perf_counter() - begin >= seconds:
            return stats


def median_per_call_ns(fn, arg_lists, calls_per_probe: int = 200) -> float:
    """Median over batches of the time per call; one batch is one arg list."""
    samples = []
    for args in arg_lists:
        reps = max(3, calls_per_probe // max(1, len(args)))
        for _ in range(reps):
            t0 = perf_counter()
            for a in args:
                fn(*a)
            samples.append((perf_counter() - t0) * 1e9 / len(args))
    return statistics.median(samples)


def end_to_end(stats: Stats, setup_s: float) -> dict[str, float]:
    lat = sorted(stats.latencies)
    tail_rank = len(lat) - 10 if len(lat) > 10 else len(lat)   # 10 samples beyond it
    typical = stats.typical()
    sampled_s = sum(typical[oid] for oid in stats.trials_of)
    return {
        "setup_s": setup_s,
        "ops_per_s": stats.ops_per_s(),
        "op_p50_ms": statistics.median(typical.values()) * 1e3,
        "op_tail_ms": lat[tail_rank - 1] * 1e3,
        "trials_per_s": sum(stats.trials_of.values()) / sampled_s if sampled_s else 0.0,
        # local_large_n asks no global-defect question: all its answers are exact
        "exact_ratio": (stats.labels.count("exact-within-cap") / len(stats.labels)
                        if stats.labels else 1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_time() -> float:
    """Seconds a fresh interpreter takes to import permstab and its CLI."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import permstab.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def environment() -> dict[str, str]:
    import numpy
    import scipy
    return {"nproc": str(os.cpu_count()),
            "affinity": str(len(os.sched_getaffinity(0))),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def report(workload: str, stats: Stats, metrics: dict, units: dict, extra: list[str]) -> None:
    for key, value in environment().items():
        print(f"# env {key} = {value}")
    print(f"# workload {workload}: {stats.passes} passes, {stats.attempted} operations, "
          f"{len(stats.failures)} failed")
    for line in extra:
        print(f"# {line}")
    for msg in stats.failures[:20]:
        print(f"# FAILED {msg}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")


def main(argv: list[str] | None = None, tiny: bool = False, use_pins: bool = True) -> dict:
    """Run one workload and print the report; tiny sizes and no pins serve
    bench/smoke.py and bench/pin.py."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("local_large_n", "search_small_n", "cli_session"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "permstab" / "__init__.py").is_file():
        raise SystemExit(f"error: permstab sources not found under {SRC}")

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import permstab.cli  # noqa: F401  (the whole package, CLI included)
    import workloads as wl
    import tracing
    import_s = statistics.median(import_time() for _ in range(SETUP_REPEATS))

    workload = wl.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    pins = None
    if args.seed == DEFAULT_SEED and not tiny and use_pins:
        pinned = BENCH_DIR / "pinned.json"
        pins = {}   # without the file every pinned answer counts as failed
        if pinned.is_file():
            pins = json.loads(pinned.read_text(encoding="utf-8"))[args.workload]
    try:
        gen_s, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            state = workload.generate(args.seed, tiny)
            gen_s.append(perf_counter() - t0)
            if workload.write is not None:
                workload.write(state, workdir)
            setup = workload.setup(state, args.seed, workdir, tiny)
            setup_times.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        # The harness keeps its inputs alive for the whole run; keep them out
        # of the collector's full scans so its pauses belong to the program.
        gc.collect()
        gc.freeze()

        if not args.trace:
            stats = run_passes(setup, args.seconds, pins, wl)
            metrics, units = end_to_end(stats, setup_s), END_TO_END
            extra = [f"import_s = {import_s:.4f} s, setup repeats = {SETUP_REPEATS}",
                     f"op_p50_ms over {len(stats.by_op)} operations of a typical pass "
                     f"({stats.passes} passes); op_tail_ms over {len(stats.latencies)} "
                     f"samples, p{100 * max(1, len(stats.latencies) - 10) / len(stats.latencies):.2f}"
                     " (the maximum below 11 samples)",
                     f"failed_ratio = {len(stats.failures) / stats.attempted:.6g}"]
            extra += reach_table(setup, stats)
        else:
            stats, metrics, extra = traced_run(args, setup, pins, wl, tracing, gen_s)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(args.workload, stats, metrics, units, extra)
    result = {"correct": not stats.failures, "attempted": stats.attempted,
              "failed": len(stats.failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    result["answers"] = stats.answers
    return result


def reach_table(setup, stats: Stats) -> list[str]:
    if not setup.reach:
        return []
    rows = ["reach (default guards): question, answer"]
    rows += [f"  {row}: {stats.answers.get(oid, 'failed')}" for oid, row in setup.reach]
    return rows


def traced_run(args, setup, pins, wl, tracing, gen_s):
    from permstab import perm, testers

    # Traced and plain passes alternate, traced first, so that neither side
    # gets all of the first-pass costs.
    plain, traced, tracer = Stats(), Stats(), tracing.Tracer()
    begin = perf_counter()
    while not (plain.passes and perf_counter() - begin >= args.seconds):
        if traced.passes <= plain.passes:
            with tracer:
                run_pass(setup, traced, pins, wl, tracer)
        else:
            run_pass(setup, plain, pins, wl)
    traced_ops = set(range(len(tracer.op_names)))
    with tracer:
        for name, check in setup.decompositions:
            tracer.begin_op(f"decompose/{name}")
            try:
                check()
            except wl.CheckFailed as exc:
                traced.failures.append(f"decompose {name}: {exc}")
            except Exception as exc:
                traced.failures.append(f"decompose {name}: raised {type(exc).__name__}: {exc}")
            finally:
                tracer.end_op()
    # table time: run_sampled with trials=1 on the same objects as the first traced pass
    table_s = 0.0
    for s in tracer.spans:
        if s.name == "testers.run_sampled" and s.op in traced_ops and \
                tracer.op_names[s.op].startswith("p0/"):
            t0 = perf_counter()
            testers.run_sampled(s.args[0], s.args[1], 1, *s.args[3:], **s.kwargs)
            table_s += perf_counter() - t0
    metrics = tracing.layer_metrics(tracer.spans, traced_ops.__contains__, traced.passes)
    metrics["testers.sampled.table_s"] = table_s
    metrics["testers.sampled.draw_s"] = metrics["testers.sampled.busy_s"] - table_s
    metrics["stability.hom_cache.hits"] = traced.cache_hits / traced.passes
    metrics["stability.hom_cache.misses"] = traced.cache_misses / traced.passes
    metrics["perm.compose_ns"] = median_per_call_ns(
        perm.compose, [list(zip(pr.values, pr.values[1:] + pr.values[:1]))
                       for pr in setup.probes])
    metrics["perm.evaluate_word_ns"] = median_per_call_ns(
        perm.evaluate_word, [[(word, pr.values) for word in pr.words] for pr in setup.probes])
    metrics["instances.generate_s"] = statistics.median(gen_s)
    plain_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    metrics["trace.overhead_ops_per_s"] = plain_rate - traced_rate
    metrics["trace.overhead_pct"] = 100 * (plain_rate - traced_rate) / plain_rate
    metrics["trace.decompositions"] = len(setup.decompositions)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    merged = Stats(latencies=plain.latencies + traced.latencies,
                   failures=plain.failures + traced.failures, answers=plain.answers,
                   passes=plain.passes + traced.passes, checks=len(setup.decompositions))
    extra = [f"plain: {plain.passes} passes, {plain_rate:.6g} ops/s; traced: "
             f"{traced.passes} passes, {traced_rate:.6g} ops/s",
             f"per-layer busy times and counts are per traced pass; "
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
             f"decomposition checks: {len(setup.decompositions)}"]
    return merged, metrics, extra


if __name__ == "__main__":
    main()
