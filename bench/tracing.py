"""Spans around the public calls of permstab, recorded from outside the library.

The tracer wraps a fixed list of public functions by rebinding every module
attribute that refers to them (the package namespace, the defining module and
each module that imported the name), so calls made inside the library are
recorded too.  Spans stay in memory and are written out once, at the end of a
run.  Nothing here is active unless a Tracer is installed.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from time import perf_counter

import permstab
from permstab import (cli, cochains, complexes, fileio, graphs, instances,
                      perm, stability, testers)

MODULES = (permstab, perm, graphs, complexes, cochains, testers, stability,
           fileio, instances, cli)

# (defining module, function, span name, keep the call arguments)
TARGETS = (
    (cochains, "cochain_norm", "cochains.cochain_norm", True),
    (cochains, "coboundary_distance", "cochains.coboundary_distance", True),
    (cochains, "cochain_to_covering", "cochains.cochain_to_covering", False),
    (cochains, "covering_to_cochain", "cochains.covering_to_cochain", False),
    (cochains, "tree_normalize", "cochains.tree_normalize", True),
    (cochains, "orbit_distance", "cochains.orbit_distance", True),
    (cochains, "cochain_distance", "cochains.cochain_distance", False),
    (complexes, "fundamental_presentation", "complexes.fundamental_presentation", False),
    (graphs, "edit_distance", "graphs.edit_distance", False),
    (testers, "hom_local_defect", "testers.hom_local_defect", True),
    (testers, "cocycle_local_defect", "testers.cocycle_local_defect", False),
    (testers, "cover_local_defect", "testers.cover_local_defect", False),
    (testers, "dm_cover_local_defect", "testers.dm_cover_local_defect", False),
    (testers, "matrix_tester", "testers.matrix_tester", False),
    (testers, "run_sampled", "testers.run_sampled", True),
    (stability, "enumerate_homomorphisms", "stability.enumerate_homomorphisms", False),
    (stability, "global_defect", "stability.global_defect", True),
    (stability, "h1_vanishing_check", "stability.h1_vanishing_check", False),
    (stability, "stability_profile", "stability.stability_profile", False),
    (fileio, "load_object", "fileio.load_object", False),
    (fileio, "load_json", "fileio.load_json", True),
    (fileio, "save_json", "fileio.save_json", True),
    (cli, "main", "cli.main", True),
)

# Groups of spans whose busy time is reported together.  Busy time is
# inclusive: a span counts in full unless an enclosing span of the same
# group already counts it.
BUSY_GROUPS = {
    "cochains.norm": ("cochains.cochain_norm", "cochains.coboundary_distance"),
    "cochains.translate": ("cochains.cochain_to_covering", "cochains.covering_to_cochain",
                           "cochains.tree_normalize"),
    "cochains.orbit_distance": ("cochains.orbit_distance",),
    "testers.exact": ("testers.hom_local_defect", "testers.cocycle_local_defect",
                      "testers.cover_local_defect", "testers.dm_cover_local_defect",
                      "testers.matrix_tester"),
    "testers.sampled": ("testers.run_sampled",),
    "stability.enumerate": ("stability.enumerate_homomorphisms",),
    "graphs.edit_distance": ("graphs.edit_distance",),
    "complexes.fundamental_presentation": ("complexes.fundamental_presentation",),
    "fileio.load_object": ("fileio.load_object",),
    "fileio.save_json": ("fileio.save_json",),
}

# The search guard each raising call stands for.
GUARDS = {
    "stability.enumerate_homomorphisms": "hom_guard",
    "cochains.orbit_distance": "align_guard",
    "graphs.edit_distance": "edit_guard",
}

CLI_COMMANDS = ("validate", "convert", "defect_local", "defect_global", "test",
                "equiv", "profile", "h1check")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "args", "kwargs", "count")

    def __init__(self, name: str, op: int, parent: int) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.error: str | None = None
        self.args: tuple | None = None
        self.kwargs: dict | None = None
        self.count: int | None = None   # items returned, for enumerations


class Tracer:
    """Records one span per wrapped call made while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_names: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, name: str) -> None:
        self.op_names.append(name)
        self.op = len(self.op_names) - 1

    def end_op(self) -> None:
        self.op = -1

    def _wrap(self, name: str, fn, keep_args: bool):
        spans, stack = self.spans, self._stack
        counts = name == "stability.enumerate_homomorphisms"

        def wrapper(*args, **kwargs):
            if self.op < 0:   # outside operations (checks, probes): not recorded
                return fn(*args, **kwargs)
            span = Span(name, self.op, stack[-1] if stack else -1)
            if keep_args:
                span.args, span.kwargs = args, kwargs
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if counts:
                span.count = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name, keep_args in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep_args)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                rec = {"span": idx, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent,
                       "op": self.op_names[s.op] if s.op >= 0 else None}
                if s.error:
                    rec["error"] = s.error
                    if s.error == "GuardExceeded" and s.name in GUARDS:
                        rec["guard"] = GUARDS[s.name]
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _path_letters(s: Span) -> int:
    """Edge or generator values composed by the call (computed, not counted)."""
    if s.name == "cochains.cochain_norm":
        return sum(len(pc.canonical) for pc in s.args[0].space.polygons)
    if s.name == "cochains.coboundary_distance":
        return 2 * sum(len(pc.orientations) * len(pc.canonical)
                       for pc in s.args[0].space.polygons)
    if s.name == "testers.hom_local_defect":
        return sum(len(r) for r in s.args[0].relators)
    if s.name == "cochains.tree_normalize":
        alpha, tree, root = s.args[:3]
        g = cochains.skeleton_of(alpha.space)
        return sum(len(p) for p in graphs.tree_paths_to_root(g, tree, root))
    if s.name == "testers.run_sampled":
        kind, obj = s.args[:2]
        if kind == "cocycle":
            return sum(len(pc.orientations) * len(pc.canonical)
                       for pc in obj.space.polygons)
        if kind == "hom":
            return sum(len(r) for r in obj[0].relators)
    return 0


def _orbit_tuples(s: Span) -> int:
    alpha, candidate = s.args[:2]
    g = cochains.skeleton_of(alpha.space)
    injections = math.perm(candidate.degree, alpha.degree)
    return injections ** g.vertex_count


def _cli_command(argv) -> str:
    argv = list(argv)
    return f"defect_{argv[1]}" if argv[0] == "defect" else argv[0]


def layer_metrics(spans: list[Span], keep_op, passes: int) -> dict[str, float]:
    """Per-pass busy times and counts over the spans of operations kept."""
    chosen = [i for i, s in enumerate(spans) if keep_op(s.op)]
    group_of = {name: g for g, names in BUSY_GROUPS.items() for name in names}
    out: dict[str, float] = {f"{g}.busy_s": 0.0 for g in BUSY_GROUPS}
    counts = {"cochains.orbit_distance.calls": 0, "cochains.orbit_distance.tuples": 0,
              "stability.enumerate.calls": 0, "stability.homs_found": 0,
              "stability.candidates": 0, "stability.guard_trips": 0,
              "graphs.edit_distance.calls": 0, "fileio.bytes": 0, "perm.calls": 0}
    for guard in sorted(set(GUARDS.values())):
        counts[f"stability.guard_trips.{guard}"] = 0
    cli_ms: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}

    def ancestor(i: int, pred) -> int:
        j = spans[i].parent
        while j >= 0 and not pred(spans[j]):
            j = spans[j].parent
        return j

    for i in chosen:
        s = spans[i]
        dur = s.end - s.start
        group = group_of.get(s.name)
        if group is not None and ancestor(i, lambda p: group_of.get(p.name) == group) < 0:
            out[f"{group}.busy_s"] += dur
        if s.error == "GuardExceeded" and s.name in GUARDS:
            counts["stability.guard_trips"] += 1
            counts[f"stability.guard_trips.{GUARDS[s.name]}"] += 1
        if s.error is not None:
            continue
        counts["perm.calls"] += _path_letters(s)
        if s.name == "cochains.orbit_distance":
            counts["cochains.orbit_distance.calls"] += 1
            counts["cochains.orbit_distance.tuples"] += _orbit_tuples(s)
        if s.name in ("cochains.orbit_distance", "cochains.cochain_distance") and \
                ancestor(i, lambda p: p.name == "stability.global_defect") >= 0:
            counts["stability.candidates"] += 1
        if s.name == "stability.enumerate_homomorphisms":
            counts["stability.enumerate.calls"] += 1
            counts["stability.homs_found"] += s.count
            top = ancestor(i, lambda p: p.name == "stability.global_defect")
            if top >= 0 and spans[top].args[0] == "hom":
                counts["stability.candidates"] += s.count
        elif s.name == "graphs.edit_distance":
            counts["graphs.edit_distance.calls"] += 1
        elif s.name == "fileio.load_json":
            counts["fileio.bytes"] += os.path.getsize(s.args[0])
        elif s.name == "fileio.save_json":
            counts["fileio.bytes"] += os.path.getsize(s.args[1])
        elif s.name == "cli.main":
            cli_ms[_cli_command(s.args[0])].append(dur * 1e3)
    for key in out:
        out[key] /= passes
    for key, value in counts.items():
        out[key] = value / passes
    for cmd, values in cli_ms.items():
        values.sort()
        out[f"cli.{cmd}.ms"] = values[len(values) // 2] if values else 0.0
    return out
