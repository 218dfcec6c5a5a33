"""Tiny-size smoke test of the benchmark harness.

    python3 bench/smoke.py

Runs one pass of every workload at tiny sizes, plain and traced, and fails
unless no operation failed and every metric named in BENCHMARK.json is
reported.  It is kept out of the tier-1 pytest run on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for kind, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        if listed != units:
            problems.append(f"BENCHMARK.json {kind} differs from run.py")
    for w in spec["workloads"]:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                result = run.main(["--workload", w["name"], "--seconds", "0",
                                   "--trace", str(trace)], tiny=True)
            last = json.loads(out.getvalue().strip().splitlines()[-1])
            tag = f"{w['name']} trace={trace}"
            if result["failed"] or not last["correct"]:
                problems.append(f"{tag}: failed_ratio = "
                                f"{result['failed'] / result['attempted']}")
                problems += [f"  {line}" for line in out.getvalue().splitlines()
                             if line.startswith("# FAILED")]
            if set(last["metrics"]) != set(units):
                problems.append(f"{tag}: metrics missing {set(units) - set(last['metrics'])}")
            print(f"{tag}: {last['attempted']} operations, {last['failed']} failed")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
