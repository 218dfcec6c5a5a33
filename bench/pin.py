"""Rewrite bench/pinned.json: the exact answers of one pass of every
workload at the default seed.

    python3 bench/pin.py

Run it only when an answer is meant to change; the benchmark compares every
default-seed answer with this file and counts any difference as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json

import run

WORKLOADS = ("local_large_n", "search_small_n", "cli_session")


def main() -> None:
    pinned = {}
    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.main(["--workload", name, "--seconds", "0"], use_pins=False)
        if result["failed"]:
            raise SystemExit(f"{name}: {result['failed']} operations failed; nothing pinned")
        pinned[name] = dict(sorted(result["answers"].items()))
    path = run.BENCH_DIR / "pinned.json"
    path.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, pinned.values()))} answers to {path.name}")


if __name__ == "__main__":
    main()
