"""Multigraphs with oriented edge pairs, combinatorial maps, coverings.

A graph stores one orientation per unoriented edge; edge k is addressed by
the signed id +k and its reversal by -k, which realizes the edge-flip
involution for free.  Vertices are 1..vertex_count and edge ids 1..len(edges)
with no gaps.  Loops and parallel edges are fully supported; a loop
contributes both orientations to its vertex star.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardExceeded
from .perm import cyclic_reduce, free_reduce


@dataclass(frozen=True)
class Graph:
    """Vertices 1..vertex_count and a tuple of int pairs, edges[k-1] = (origin,
    terminus) of edge k.  Nothing is checked or converted on construction;
    ``validate_graph`` is the check, and every file loader runs it."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]


def origin(g: Graph, s: int) -> int:
    u, v = g.edges[abs(s) - 1]
    return u if s > 0 else v


def terminus(g: Graph, s: int) -> int:
    u, v = g.edges[abs(s) - 1]
    return v if s > 0 else u


def vertex_stars(g: Graph) -> tuple[tuple[int, ...], ...]:
    """stars[v-1] = signed edges s with terminus(s) == v, ascending by (id, sign)."""
    stars: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for k, (u, v) in enumerate(g.edges, start=1):
        stars[v - 1].append(k)
        stars[u - 1].append(-k)
    return tuple(tuple(sorted(st, key=lambda s: (abs(s), s > 0))) for st in stars)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_graph(g: Graph) -> ValidationReport:
    """Structural check; reports the first violation instead of raising.

    Edge ids are positional, so "ids are 1..m with no gaps" and the reversal
    involution hold by construction; what can actually go wrong is a vertex
    count or endpoint that is not an int (a bool included), a dangling
    endpoint or an empty vertex set.
    """
    if type(g.vertex_count) is not int:
        return ValidationReport(False, f"vertex count must be an integer, got {g.vertex_count!r}")
    if g.vertex_count < 1:
        return ValidationReport(False, "graph must have at least one vertex")
    for k, (u, v) in enumerate(g.edges, start=1):
        if type(u) is not int or type(v) is not int:
            return ValidationReport(False, f"edge {k} endpoints must be integers, got ({u!r},{v!r})")
        if not (1 <= u <= g.vertex_count and 1 <= v <= g.vertex_count):
            return ValidationReport(False, f"dangling endpoint on edge {k}: ({u},{v})")
    return ValidationReport(True)


def components(g: Graph) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    stars = vertex_stars(g)
    for start in range(1, g.vertex_count + 1):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for s in stars[v - 1]:
                w = origin(g, s)
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


# ---------------------------------------------------------------------------
# paths


def check_path(g: Graph, edges: Sequence[int]) -> tuple[int, ...]:
    """Validate that consecutive edges compose; returns the path as a tuple."""
    path = tuple(int(s) for s in edges)
    for s in path:
        if s == 0 or abs(s) > len(g.edges):
            raise ValueError(f"edge {s} not in graph")
    for a, b in zip(path, path[1:]):
        if terminus(g, a) != origin(g, b):
            raise ValueError(f"edges {a} and {b} do not compose")
    return path


def path_is_closed(g: Graph, path: Sequence[int]) -> bool:
    if not path:
        return True
    return origin(g, path[0]) == terminus(g, path[-1])


def reduce_path(g: Graph, path: Sequence[int], cyclic: bool = False) -> tuple[int, ...]:
    """Remove adjacent cancelling pairs e followed by its reversal.

    With ``cyclic`` (allowed only on closed paths) cancellation also wraps
    around, producing a cyclically reduced representative of the free homotopy
    class.  Idempotent and length-nonincreasing.
    """
    p = check_path(g, path)
    if cyclic and not path_is_closed(g, p):
        raise ValueError("cyclic reduction requires a closed path")
    return cyclic_reduce(p) if cyclic else free_reduce(p)


def is_cyclically_reduced(g: Graph, path: Sequence[int]) -> bool:
    p = check_path(g, path)
    return path_is_closed(g, p) and cyclic_reduce(p) == p


# ---------------------------------------------------------------------------
# combinatorial maps, labeled graphs, coverings


@dataclass(frozen=True)
class CombinatorialMap:
    """Cell map preserving origins, termini, and edge reversal.

    ``edge_map[k-1]`` is the signed image of edge +k; the image of -k is the
    negation, so the flip condition cannot be violated by construction.
    """

    source: Graph
    target: Graph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]

    def map_vertex(self, v: int) -> int:
        return self.vertex_map[v - 1]

    def map_edge(self, s: int) -> int:
        img = self.edge_map[abs(s) - 1]
        return img if s > 0 else -img


def validate_map(f: CombinatorialMap) -> ValidationReport:
    if len(f.vertex_map) != f.source.vertex_count:
        return ValidationReport(False, "vertex_map length mismatch")
    if len(f.edge_map) != len(f.source.edges):
        return ValidationReport(False, "edge_map length mismatch")
    for v, img in enumerate(f.vertex_map, start=1):
        if not 1 <= img <= f.target.vertex_count:
            return ValidationReport(False, f"vertex {v} maps outside target")
    for k, img in enumerate(f.edge_map, start=1):
        if img == 0 or abs(img) > len(f.target.edges):
            return ValidationReport(False, f"edge {k} maps outside target")
        if f.map_vertex(origin(f.source, k)) != origin(f.target, img):
            return ValidationReport(False, f"edge {k} does not preserve origins")
        if f.map_vertex(terminus(f.source, k)) != terminus(f.target, img):
            return ValidationReport(False, f"edge {k} does not preserve termini")
    return ValidationReport(True)


@dataclass(frozen=True)
class LabeledGraph:
    """A graph together with a combinatorial map (the labeling) into a base."""

    graph: Graph
    labeling: CombinatorialMap

    @property
    def base(self) -> Graph:
        return self.labeling.target

    def __post_init__(self) -> None:
        if self.labeling.source != self.graph:
            raise ValueError("labeling source differs from the labeled graph")


class Covering:
    """A labeled graph whose labeling is bijective on every vertex star.

    ``fiber_labels[x-1]`` lists the covering vertices over base vertex x in
    label order, i.e. position i-1 carries sheet label i.  The edge values
    are the lift table ``_lifts``, read off the labeled graph and checked on
    first use; a covering made by ``cochains.cochain_to_covering`` holds the
    table and builds its labeled graph and canonical fibers when first read.
    """

    def __init__(self, labeled: LabeledGraph, degree: int,
                 fiber_labels: tuple[tuple[int, ...], ...]) -> None:
        vars(self).update(labeled=labeled, degree=degree, fiber_labels=fiber_labels,
                          base=labeled.base)

    @classmethod
    def _of_lifts(cls, base: Graph, degree: int, lifts) -> "Covering":
        c = object.__new__(cls)
        vars(c).update(degree=degree, base=base, _lifts=lifts)
        return c

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Covering is immutable")

    @cached_property
    def labeled(self) -> LabeledGraph:
        """Vertex (x, i) gets id (x-1)n + i, edge (e, i) gets id (e-1)n + i and
        runs from (x, lift(e).i) to (y, i) where e: x -> y is the stored
        orientation."""
        n, g = self.degree, self.base
        ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2) - 1
        tails = (ends[:, :1] * n + self._lifts + 1).ravel().tolist()
        heads = (ends[:, 1:] * n + np.arange(1, n + 1)).ravel().tolist()
        cover = Graph(g.vertex_count * n, tuple(zip(tails, heads)))
        return LabeledGraph(cover, CombinatorialMap(
            cover, g, tuple(x for x in range(1, g.vertex_count + 1) for _ in range(n)),
            tuple(e for e in range(1, len(g.edges) + 1) for _ in range(n))))

    @cached_property
    def fiber_labels(self) -> tuple[tuple[int, ...], ...]:
        n = self.degree
        return tuple(tuple(range(x * n + 1, x * n + n + 1)) for x in range(self.base.vertex_count))

    @property
    def graph(self) -> Graph:
        return self.labeled.graph

    @cached_property
    def _lifts(self):
        """Read-only (edges, degree) rows: row e-1 sends the 0-based sheet of the
        terminus of each lift of e to the sheet of its origin.  Raises
        ValueError unless the fibers list each covering vertex once, every
        covering edge carries a base edge label and joins the fibers over its
        ends, and the lifts of every base edge form a bijection of the sheets."""
        base = self.base
        n, m, size = self.degree, len(base.edges), self.graph.vertex_count
        fibers = self.fiber_labels
        if n < 1 or size != n * base.vertex_count or len(fibers) != base.vertex_count \
                or any(len(f) != n for f in fibers):
            raise ValueError(f"a degree-{n} covering needs {base.vertex_count} fibers of "
                             f"{n} covering vertices each")
        labels = np.fromiter(itertools.chain.from_iterable(fibers), np.intp, size)
        if (np.sort(labels) != np.arange(1, size + 1)).any():
            raise ValueError(f"fiber labels must list each covering vertex 1..{size} once")
        edge_map = self.labeled.labeling.edge_map
        if len(self.graph.edges) != m * n or len(edge_map) != m * n:
            raise ValueError(f"a degree-{n} covering needs {m * n} labeled edges")
        # pos[v] = (x-1)n + sheet index of covering vertex v over base vertex x;
        # ids outside 1..size read the -1 kept at both ends
        pos = np.full(size + 2, -1)
        pos[labels] = np.arange(size)
        ends = np.fromiter(itertools.chain.from_iterable(self.graph.edges), np.intp, 2 * m * n)
        ends = pos[np.minimum(np.maximum(ends, 0), size + 1)].reshape(-1, 2)
        lbl = np.fromiter(edge_map, np.intp, m * n)
        ends = np.where((lbl > 0)[:, None], ends, ends[:, ::-1])   # orient along +|label|
        # 0-based (origin, terminus) of each base edge; labels outside +-1..m read
        # row 0 or m+1, which no covering edge can match
        e = np.minimum(np.abs(lbl), m + 1)
        over = np.array([(-1, -1), *base.edges, (-1, -1)], dtype=np.intp) - 1
        if (ends // n != over[e]).any():
            raise ValueError("a covering edge does not join the fibers over the ends of its label")
        images = np.full((m, n), -1, dtype=np.intp)
        images[e - 1, ends[:, 1] % n] = ends[:, 0] % n
        bijective = np.sort(images, axis=1) == np.arange(n)
        if not bijective.all():
            raise ValueError(f"the lifts of edge {int(bijective.all(axis=1).argmin()) + 1} "
                             "are not a bijection of the sheets")
        images.flags.writeable = False
        return images

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Covering) and (self.labeled, self.degree, self.fiber_labels) \
            == (other.labeled, other.degree, other.fiber_labels)

    def __hash__(self) -> int:
        return hash((self.labeled, self.degree, self.fiber_labels))

    def __repr__(self) -> str:
        return f"Covering(degree={self.degree}, base={self.base!r})"


def check_covering(f: CombinatorialMap, n: int) -> Covering:
    """Verify the star-bijection property and fiber sizes; build canonical labels.

    Raises ValueError naming the offending vertex on failure.  Fiber labels are
    canonical: sheets are numbered in ascending source-vertex id within each
    fiber.
    """
    rep = validate_map(f)
    if not rep.ok:
        raise ValueError(f"not a combinatorial map: {rep.message}")
    if not is_connected(f.target):
        raise ValueError("covering target must be connected")
    src_stars = vertex_stars(f.source)
    tgt_stars = vertex_stars(f.target)
    for y in range(1, f.source.vertex_count + 1):
        images = [f.map_edge(s) for s in src_stars[y - 1]]
        if len(set(images)) != len(images):
            raise ValueError(f"star not injective at vertex {y}")
        if set(images) != set(tgt_stars[f.map_vertex(y) - 1]):
            raise ValueError(f"star not surjective at vertex {y}")
    labeled = LabeledGraph(f.source, f)
    fibers = _fibers(labeled)
    for x, fib in enumerate(fibers, start=1):
        if len(fib) != n:
            raise ValueError(f"fiber over vertex {x} has size {len(fib)}, expected {n}")
    return Covering(labeled, n, tuple(map(tuple, fibers)))


# ---------------------------------------------------------------------------
# spanning trees


def spanning_tree(g: Graph, root: int) -> frozenset[int]:
    """Deterministic spanning tree: scan edges in ascending id, repeatedly
    attaching any edge with exactly one endpoint in the grown component.

    On the 3-cycle rooted at 1 this accepts edges {1, 2}: edge 2 attaches
    vertex 3 through vertex 2 before the scan ever returns to edge 3.
    """
    if not 1 <= root <= g.vertex_count:
        raise ValueError(f"root {root} not a vertex")
    reached = {root}
    tree: list[int] = []
    grew = True
    while grew and len(reached) < g.vertex_count:
        grew = False
        for k, (u, v) in enumerate(g.edges, start=1):
            if (u in reached) != (v in reached):
                reached.add(u)
                reached.add(v)
                tree.append(k)
                grew = True
    if len(reached) < g.vertex_count:
        raise ValueError("graph is disconnected")
    return frozenset(tree)


def tree_paths_to_root(g: Graph, tree: Iterable[int], root: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the signed edge path inside the tree from it to the root.

    Raises if the edge set is not a spanning tree of g.
    """
    tree_set = set(tree)
    if len(tree_set) != g.vertex_count - 1:
        raise ValueError("edge set has wrong size for a spanning tree")
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for k in sorted(tree_set):
        u, v = g.edges[k - 1]
        adj[u - 1].append(k)    # +k leaves u toward v
        adj[v - 1].append(-k)   # -k leaves v toward u
    paths: list[tuple[int, ...] | None] = [None] * g.vertex_count
    paths[root - 1] = ()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for s in adj[v - 1]:
            w = terminus(g, s)
            if paths[w - 1] is None:
                # leaving w along -s reaches v, then continue along v's path
                paths[w - 1] = (-s,) + paths[v - 1]
                queue.append(w)
    if any(p is None for p in paths):
        raise ValueError("edge set does not span the graph")
    return tuple(paths)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# edit distance between labeled graphs


DEFAULT_EDIT_GUARD = 10 ** 6


@dataclass(frozen=True)
class EditDistanceResult:
    value: Fraction


def _edge_groups(lg: LabeledGraph) -> dict[int, list[tuple[int, int]]]:
    """Stored edges grouped by base edge id, each re-oriented along +e."""
    groups: dict[int, list[tuple[int, int]]] = {}
    g = lg.graph
    for k in range(1, len(g.edges) + 1):
        lbl = lg.labeling.map_edge(k)
        if lbl > 0:
            ends = (origin(g, k), terminus(g, k))
        else:
            ends = (terminus(g, k), origin(g, k))
        groups.setdefault(abs(lbl), []).append(ends)
    return groups


def _fibers(lg: LabeledGraph) -> list[list[int]]:
    fibs: list[list[int]] = [[] for _ in range(lg.base.vertex_count)]
    for v in range(1, lg.graph.vertex_count + 1):
        fibs[lg.labeling.map_vertex(v) - 1].append(v)
    for fib in fibs:
        fib.sort()
    return fibs


def edit_distance(a: LabeledGraph, b: LabeledGraph, mode: str = "exact",
                  leaf_guard: int = DEFAULT_EDIT_GUARD) -> EditDistanceResult:
    """Normalized edit distance 1 - |E(A)| / max(|E(a)|, |E(b)|).

    A is a largest common labeled subgraph, found by aligning the two fibers
    over each base vertex (injecting the smaller into the larger) and counting
    edges whose endpoints and base labels match under the alignment.  A full
    injection per vertex is enough: edges are what the distance counts, and
    extending a partial vertex matching never loses a matched edge.

    The search is a branch-and-bound over per-vertex injections; it refuses
    inputs whose alignment search space exceeds ``leaf_guard`` leaves.  The
    only ``mode`` is ``"exact"``.
    """
    if a.base != b.base:
        raise ValueError("labeled graphs live over different base graphs")
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    denom = max(len(a.graph.edges), len(b.graph.edges))
    if denom == 0:
        return EditDistanceResult(Fraction(0))

    base = a.base
    fib_a, fib_b = _fibers(a), _fibers(b)
    grp_a, grp_b = _edge_groups(a), _edge_groups(b)
    caps = {e: min(len(grp_a.get(e, ())), len(grp_b.get(e, ())))
            for e in range(1, len(base.edges) + 1)}

    # base edges become countable once both endpoints are aligned
    decide_at: list[list[int]] = [[] for _ in range(base.vertex_count)]
    for e, (u, v) in enumerate(base.edges, start=1):
        decide_at[max(u, v) - 1].append(e)

    def injections(x: int) -> list[dict[int, int]]:
        fa, fb = fib_a[x - 1], fib_b[x - 1]
        if len(fa) <= len(fb):
            return [dict(zip(fa, pick)) for pick in itertools.permutations(fb, len(fa))]
        return [dict(zip(pick, fb)) for pick in itertools.permutations(fa, len(fb))]

    def count_matches(e: int, pairing: dict[int, int]) -> int:
        keys_a = Counter((pairing.get(u), pairing.get(v)) for u, v in grp_a.get(e, ()))
        keys_a.pop((None, None), None)
        keys_b = Counter(grp_b.get(e, ()))
        return sum(min(c, keys_b[key]) for key, c in keys_a.items()
                   if None not in key and key in keys_b)

    leaves = 1
    for fa, fb in zip(fib_a, fib_b):
        leaves *= math.perm(max(len(fa), len(fb)), min(len(fa), len(fb)))
        if leaves > leaf_guard:
            raise GuardExceeded(
                f"edit distance alignment space exceeds {leaf_guard} leaves; raise the guard")

    remaining_caps = [0] * (base.vertex_count + 1)
    for x in range(base.vertex_count - 1, -1, -1):
        remaining_caps[x] = remaining_caps[x + 1] + sum(caps[e] for e in decide_at[x])

    best = -1

    def search(idx: int, pairing: dict[int, int], matched: int) -> None:
        nonlocal best
        if idx == base.vertex_count:
            best = max(best, matched)
            return
        x = idx + 1
        for inj in injections(x):
            trial = {**pairing, **inj}
            gained = sum(count_matches(e, trial) for e in decide_at[x - 1])
            total = matched + gained
            if total + remaining_caps[idx + 1] <= best:
                continue
            search(idx + 1, trial, total)

    search(0, {}, 0)
    return EditDistanceResult(Fraction(denom - best, denom))
