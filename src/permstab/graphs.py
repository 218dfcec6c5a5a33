"""Multigraphs with oriented edge pairs, combinatorial maps, coverings.

A graph stores one orientation per unoriented edge; edge k is addressed by
the signed id +k and its reversal by -k, which realizes the edge-flip
involution for free.  Vertices are 1..vertex_count and edge ids 1..len(edges)
with no gaps.  Loops and parallel edges are fully supported; a loop
contributes both orientations to its vertex star.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
    """Vertex sets of the components, ordered by their smallest vertex."""
    if not g.vertex_count:
        return []
    comps: dict[int, set[int]] = {}
    for v, _, r in _forest(g, 1):
        comps.setdefault(r, set()).add(v)
    return [frozenset(c) for c in comps.values()]


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
    for g in (f.source, f.target):
        rep = validate_graph(g)
        if not rep.ok:
            return rep
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
    first use, which ``check_covering`` and the file loader make; a covering
    made by ``cochains.cochain_to_covering`` holds the table and builds its
    labeled graph and canonical fibers when first read.
    """

    def __init__(self, labeled: LabeledGraph, degree: int,
                 fiber_labels: tuple[tuple[int, ...], ...]) -> None:
        vars(self).update(labeled=labeled, degree=degree, fiber_labels=fiber_labels,
                          base=labeled.base)

    @classmethod
    def _of_lifts(cls, base: Graph, degree: int, lifts) -> "Covering":
        lifts.flags.writeable = False
        c = object.__new__(cls)
        vars(c).update(degree=degree, base=base, _lifts=lifts)
        return c

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Covering is immutable")

    def __reduce__(self):
        # unpickled through a constructor, so that a lift table comes back
        # read-only: the labeled graph once it exists, which keeps the
        # fiber labels as given, and else the table itself
        if "labeled" in vars(self):
            return type(self), (self.labeled, self.degree, self.fiber_labels)
        return type(self)._of_lifts, (self.base, self.degree, self._lifts)

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
        terminus of each lift of e to the sheet of its origin.  The one check of
        the covering condition: raises ValueError unless the fibers list once
        each the covering vertices over each base vertex, every covering edge
        joins the fibers over the ends of its base edge label, and every
        covering vertex ends exactly one lift of each base edge end."""
        base, graph, labeling = self.base, self.graph, self.labeled.labeling
        n, m, size, k = self.degree, len(base.edges), graph.vertex_count, len(graph.edges)
        fibers = self.fiber_labels
        if n < 1 or size != n * base.vertex_count or len(fibers) != base.vertex_count \
                or any(len(f) != n for f in fibers):
            raise ValueError(f"a degree-{n} covering needs {base.vertex_count} fibers of "
                             f"{n} covering vertices each")
        if len(labeling.vertex_map) != size or len(labeling.edge_map) != k:
            raise ValueError("the labeling needs one label per covering vertex and edge")
        # pos[v] = (x-1)n + sheet index of covering vertex v over base vertex x;
        # ids outside 1..size read the -1 kept at both ends
        labels = np.fromiter(itertools.chain.from_iterable(fibers), np.intp, size)
        ids, pos = np.clip(labels, 0, size + 1), np.full(size + 2, -1)
        pos[ids] = np.arange(size)
        # a label that the vertex map puts elsewhere (ids outside 1..size read
        # base vertex 0), or that a later one repeats
        bad = (np.array([0, *labeling.vertex_map, 0])[ids] != np.arange(size) // n + 1) \
            | (pos[ids] != np.arange(size))
        if bad.any():
            raise ValueError(f"fiber labels over vertex {int(bad.argmax()) // n + 1} are not a "
                             "labeling of its fiber")
        ends = np.fromiter(itertools.chain.from_iterable(graph.edges), np.intp, 2 * k)
        ends = pos[np.clip(ends, 0, size + 1)].reshape(-1, 2)
        lbl = np.fromiter(labeling.edge_map, np.intp, k)
        ends = np.where((lbl > 0)[:, None], ends, ends[:, ::-1])   # orient along +|label|
        # 0-based (origin, terminus) of each base edge; labels outside +-1..m read
        # row 0 or m+1, which no covering edge can match
        e = np.minimum(np.abs(lbl), m + 1)
        over = np.array([(-1, -1), *base.edges, (-1, -1)], dtype=np.intp) - 1
        if (ends // n != over[e]).any():
            raise ValueError("a covering edge does not join the fibers over the ends of its label")
        # count[e-1, j, i]: the lifts of e whose origin (j = 0) or terminus (j = 1)
        # has sheet i, and at[e-1, j, i] that covering vertex
        count = np.bincount(((e[:, None] - 1) * 2 * n + [0, n] + ends % n).ravel(),
                            minlength=2 * m * n).reshape(m, 2, n)
        if (count != 1).any():
            at = labels[over[1:-1, :, None] * n + np.arange(n)]
            v = int(at[count != 1].min())
            kind = "injective" if (count[at == v] > 1).any() else "surjective"
            raise ValueError(f"star not {kind} at vertex {v}")
        images = np.empty((m, n), dtype=np.intp)
        images[e - 1, ends[:, 1] % n] = ends[:, 0] % n
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
    """The degree-n covering labeled by f, its sheets numbered by ascending vertex
    id in each fiber; raises ValueError naming the offending vertex on failure."""
    return _checked_covering(f, n, None)


def _checked_covering(f: CombinatorialMap, n: int, fibers: tuple | None) -> Covering:
    """The covering of f with these fiber labels (canonical when None), kept
    with the lift table of ``Covering._lifts``, which decides the condition."""
    rep = validate_map(f)
    if not rep.ok:
        raise ValueError(f"not a combinatorial map: {rep.message}")
    if not is_connected(f.target):
        raise ValueError("covering target must be connected")
    labeled = LabeledGraph(f.source, f)
    c = Covering(labeled, n, tuple(map(tuple, _fibers(labeled))) if fibers is None else fibers)
    c._lifts   # the check; the covering keeps the table
    return c


# ---------------------------------------------------------------------------
# spanning trees


def _forest(g: Graph, root: int, edges: Iterable[int] | None = None) -> list[tuple[int, int, int]]:
    """The one walk of g, or of its edges with the given ids: (vertex, signed
    edge from it toward its parent or 0, root of its component) in the order
    reached.  Components grow from root, then from the smallest vertex not yet
    reached, in passes that scan the edges by ascending id and attach each edge
    with one reached end; that scan order fixes every spanning tree.  Two heaps
    replay the scan: a newly reached vertex queues its edges for the rest of
    this pass (ids above the current one) or for the next.  Raises ValueError
    unless root is a vertex and every id an edge id of g."""
    n, ids = g.vertex_count, range(1, len(g.edges) + 1)
    if not 1 <= root <= n:
        raise ValueError(f"root {root} not a vertex")
    edges = ids if edges is None else sorted(edges)
    bad = [k for k in edges if k not in ids]
    if bad:
        raise ValueError(f"edge {bad[0]} not in graph")
    star: list[list[int]] = [[] for _ in range(n + 1)]
    for k in edges:
        u, v = g.edges[k - 1]
        star[u].append(k)
        star[v].append(k)
    reached = [False] * (n + 1)
    walk: list[tuple[int, int, int]] = []
    for start in itertools.chain((root,), range(1, n + 1)):
        if reached[start]:
            continue
        reached[start] = True
        walk.append((start, 0, start))
        now, later = sorted(star[start]), []
        while now and len(walk) < n:
            k = heapq.heappop(now)
            u, v = g.edges[k - 1]
            if reached[u] != reached[v]:
                new, toward = (v, -k) if reached[u] else (u, k)
                reached[new] = True
                walk.append((new, toward, start))
                for j in star[new]:
                    heapq.heappush(now if j > k else later, j)
            if not now:
                now, later = later, []
    return walk


def spanning_tree(g: Graph, root: int) -> frozenset[int]:
    """Deterministic spanning tree: the edges of ``_forest`` grown from root.

    On the 3-cycle rooted at 1 this accepts edges {1, 2}: edge 2 attaches
    vertex 3 through vertex 2 before the scan ever returns to edge 3.
    """
    walk = _forest(g, root)
    if walk[-1][2] != root:
        raise ValueError("graph is disconnected")
    return frozenset(abs(s) for _, s, _ in walk if s)


def tree_paths_to_root(g: Graph, tree: Iterable[int], root: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the signed edge path inside the tree from it to the root.

    Raises ValueError unless root is a vertex and the edge set is a spanning
    tree of g.
    """
    tree_set = set(tree)
    if len(tree_set) != g.vertex_count - 1:
        raise ValueError("edge set has wrong size for a spanning tree")
    walk = _forest(g, root, tree_set)
    if walk[-1][2] != root:
        raise ValueError("edge set does not span the graph")
    paths: list[tuple[int, ...]] = [()] * g.vertex_count
    for v, s, _ in walk:
        if s:   # leave v along s to its parent, then follow the parent's path
            paths[v - 1] = (s,) + paths[terminus(g, s) - 1]
    return tuple(paths)


# ---------------------------------------------------------------------------
# edit distance between labeled graphs


DEFAULT_EDIT_GUARD = 10 ** 6


@dataclass(frozen=True)
class EditDistanceResult:
    value: Fraction


def _fibers(lg: LabeledGraph) -> list[list[int]]:
    """The vertices over each base vertex, ascending."""
    fibs: list[list[int]] = [[] for _ in range(lg.base.vertex_count)]
    for v in range(1, lg.graph.vertex_count + 1):
        fibs[lg.labeling.map_vertex(v) - 1].append(v)
    return fibs


def _edge_groups(lg: LabeledGraph, fibers: list[list[int]]) -> Counter:
    """Edges counted by (base edge id, fiber position of the origin, of the
    terminus), each re-oriented along +e."""
    pos = {v: i for fib in fibers for i, v in enumerate(fib)}
    keys: Counter = Counter()
    for k, (u, v) in enumerate(lg.graph.edges, start=1):
        e = lg.labeling.map_edge(k)
        keys[(abs(e), pos[u], pos[v]) if e > 0 else (abs(e), pos[v], pos[u])] += 1
    return keys


@lru_cache(maxsize=32)
def _injections(n: int, big: int) -> np.ndarray:
    """Injections of 0..n-1 into 0..big-1 in itertools order, one per row (read-only)."""
    inj = np.array(list(itertools.permutations(range(big), n)), dtype=np.intp)
    inj.flags.writeable = False
    return inj


def _best_alignment(sizes: Sequence[int], terms: Iterable[tuple[int, int, np.ndarray]],
                    lead: tuple[int, ...] = ()) -> tuple[int, int]:
    """The one fiber-alignment kernel: a dense tensor of shape ``sizes``, one
    axis of injections per base vertex, to which each term (x, y, table) adds
    table[i, j] at index i on axis x and j on axis y, or table[i] on a loop
    x == y.  Returns the best total and the first flat index attaining it.

    With ``lead`` the tensor has those leading axes (one per candidate, say)
    and every table has them too, so many alignments are scored in one pass
    and the flat index runs over the whole ``lead + sizes`` tensor.
    """
    total = np.zeros((*lead, *sizes), dtype=np.intp)
    for x, y, table in terms:
        shape = [1] * len(sizes)
        shape[x], shape[y] = sizes[x], sizes[y]
        total += (table.swapaxes(-1, -2) if x > y else table).reshape(*lead, *shape)
    flat = int(np.argmax(total))
    return int(total.flat[flat]), flat


def edit_distance(a: LabeledGraph, b: LabeledGraph, mode: str = "exact",
                  leaf_guard: int = DEFAULT_EDIT_GUARD) -> EditDistanceResult:
    """Normalized edit distance 1 - |E(A)| / max(|E(a)|, |E(b)|).

    A is a largest common labeled subgraph, found by aligning the two fibers
    over each base vertex (injecting the smaller into the larger) and counting
    edges whose endpoints and base labels match under the alignment.  A full
    injection per vertex is enough: edges are what the distance counts, and
    extending a partial vertex matching never loses a matched edge.

    Every tuple of per-vertex injections is scored at once by
    ``_best_alignment``; inputs with more than ``leaf_guard`` tuples are
    refused before any table is built.  The only ``mode`` is ``"exact"``.
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
    leaves = 1
    for fa, fb in zip(fib_a, fib_b):
        leaves *= math.perm(max(len(fa), len(fb)), min(len(fa), len(fb)))
        if leaves > leaf_guard:
            raise GuardExceeded(
                f"edit distance alignment space exceeds {leaf_guard} leaves; raise the guard")

    # where[x-1][p, i]: the B-position of A-position i over x under injection p, or -1
    where = []
    for fa, fb in zip(fib_a, fib_b):
        inj = _injections(min(len(fa), len(fb)), max(len(fa), len(fb)))
        if len(fa) > len(fb):   # inj picks the A-position of each B-position
            back = np.full((len(inj), len(fa)), -1, dtype=np.intp)
            back[np.arange(len(inj))[:, None], inj] = np.arange(len(fb))
            inj = back
        where.append(inj)
    # count[e-1][j, l]: B-edges over e from B-position j to l; -1 reads the zero padding
    count = [np.zeros((len(fib_b[x - 1]) + 1, len(fib_b[y - 1]) + 1), dtype=np.intp)
             for x, y in base.edges]
    for (e, j, l), c in _edge_groups(b, fib_b).items():
        count[e - 1][j, l] = c
    # per base edge, the A-edges matched under each injection pair: over each
    # distinct oriented position pair, the lesser of its two multiplicities
    tables: dict[int, np.ndarray] = {}
    for (e, i, j), c in _edge_groups(a, fib_a).items():
        x, y = base.edges[e - 1]
        rows = where[x - 1][:, i] if x == y else where[x - 1][:, i, None]
        tables[e] = tables.get(e, 0) + np.minimum(count[e - 1][rows, where[y - 1][:, j]], c)
    best, _ = _best_alignment([len(w) for w in where], (
        (x - 1, y - 1, tables[e]) for e, (x, y) in enumerate(base.edges, start=1) if e in tables))
    return EditDistanceResult(Fraction(denom - best, denom))
