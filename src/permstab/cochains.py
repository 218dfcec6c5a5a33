"""Permutation-valued cochains, coboundaries, norms, and the covering dictionary.

A 1-cochain stores one permutation per unoriented edge, the value on the
stored orientation; the reversed orientation returns the inverse, so
antisymmetry cannot be violated.  2-cochains are never materialized: they
only occur as coboundaries of 1-cochains.  Norms, coboundary distances and
the testers' rejection tables evaluate polygon values in one batched fold
over a signed value table (``_value_table``/``_fold``): one gather per word
position for a whole batch of words, one polygon class (all of its
orientations) or all canonical representatives at a time.  Counts are taken
in integers and turned into exact ``Fraction``s last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complexes import PolygonalComplex, WeightingSystem, uniform_distribution
from .errors import GuardExceeded
from .graphs import (CombinatorialMap, Covering, Graph, LabeledGraph, origin,
                     tree_paths_to_root)
from .perm import (Permutation, _trusted, compose, evaluate_word,
                   hamming_distance_with_errors)


def skeleton_of(space: PolygonalComplex | Graph) -> Graph:
    return space.skeleton if isinstance(space, PolygonalComplex) else space


def _require_polygons(space: PolygonalComplex | Graph) -> PolygonalComplex:
    if not isinstance(space, PolygonalComplex) or not space.polygons:
        raise ValueError("operation needs a polygonal complex with at least one polygon")
    return space


@dataclass(frozen=True)
class Cochain0:
    """Assignment of a permutation of one fixed degree to every vertex."""

    space: PolygonalComplex | Graph
    degree: int
    values: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        g = skeleton_of(self.space)
        if len(self.values) != g.vertex_count:
            raise ValueError("need one value per vertex")
        if any(p.degree != self.degree for p in self.values):
            raise ValueError("all values must share the declared degree")

    def on_vertex(self, v: int) -> Permutation:
        return self.values[v - 1]


@dataclass(frozen=True)
class Cochain1:
    """Antisymmetric assignment of permutations to oriented edges."""

    space: PolygonalComplex | Graph
    degree: int
    values: tuple[Permutation, ...]  # value on the stored orientation of edge k

    def __post_init__(self) -> None:
        g = skeleton_of(self.space)
        if len(self.values) != len(g.edges):
            raise ValueError("need one value per unoriented edge")
        if any(p.degree != self.degree for p in self.values):
            raise ValueError("all values must share the declared degree")

    def on_edge(self, s: int) -> Permutation:
        p = self.values[abs(s) - 1]
        return p if s > 0 else p.inverse()


def identity_cochain0(space: PolygonalComplex | Graph, n: int) -> Cochain0:
    g = skeleton_of(space)
    return Cochain0(space, n, tuple(Permutation.identity(n) for _ in range(g.vertex_count)))


def identity_cochain1(space: PolygonalComplex | Graph, n: int) -> Cochain1:
    g = skeleton_of(space)
    return Cochain1(space, n, tuple(Permutation.identity(n) for _ in range(len(g.edges))))


# ---------------------------------------------------------------------------
# coboundaries and path values


def coboundary0(b: Cochain0) -> Cochain1:
    """delta b on the edge x -> y is b(x)^-1 b(y)."""
    g = skeleton_of(b.space)
    vals = tuple(compose(b.on_vertex(u).inverse(), b.on_vertex(v)) for u, v in g.edges)
    return Cochain1(b.space, b.degree, vals)


def path_value(a: Cochain1, path: Sequence[int]) -> Permutation:
    """Ordered product of edge values along a path; empty path gives identity.

    The path is a signed word over edge ids, so this is ``evaluate_word`` on
    the edge values; the empty path is answered here because a graph without
    edges has no value to fix the degree.
    """
    return evaluate_word(path, a.values) if path else Permutation.identity(a.degree)


def coboundary1(a: Cochain1, path: Sequence[int]) -> Permutation:
    """Value of delta a on a path (restricting to polygons gives the 2-cochain)."""
    from .graphs import check_path

    check_path(skeleton_of(a.space), path)
    return path_value(a, path)


def is_cocycle(a: Cochain1) -> bool:
    x = _require_polygons(a.space)
    return all(path_value(a, pc.rep).is_identity() for pc in x.polygons)


# ---------------------------------------------------------------------------
# the batched word kernel


def _images(values: Sequence[Permutation], degree: int) -> np.ndarray:
    """0-based images of permutations of one degree, shape (len(values), n)."""
    if any(p.degree != degree for p in values):
        raise ValueError("values must share one degree")
    flat = np.fromiter(itertools.chain.from_iterable(p.images for p in values),
                       np.intp, len(values) * degree)
    return flat.reshape(len(values), degree) - 1


def _value_table(images: np.ndarray) -> np.ndarray:
    """Signed value table of shape (2m+1, n) from 0-based (m, n) images.

    Row 0 is the identity (it pads short words), row k holds the value of
    letter +k and row 2m+1-k that of -k, its inverse; so letter s reads row
    s mod 2m+1.
    """
    m, n = images.shape
    table = np.empty((2 * m + 1, n), dtype=np.intp)
    points = np.arange(n)
    table[0] = points
    table[1:m + 1] = images
    table[np.arange(2 * m, m, -1)[:, None], images] = points
    return table


def _word_rows(words: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """Table rows of a batch of signed words over m letters, padded with row 0."""
    lengths = [len(w) for w in words]
    width = max(1, max(lengths))
    letters = np.array([tuple(w) + (0,) * (width - len(w)) for w in words], dtype=np.intp)
    if np.count_nonzero(letters) != sum(lengths) or np.abs(letters).max() > m:
        raise ValueError(f"word letter outside alphabet 1..{m}")
    return letters % (2 * m + 1)


def _fold(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Values of a batch of words given as table rows: shape (len(rows), n), 0-based.

    The product convention of ``evaluate_word`` (the last letter acts first):
    starting from the last letter's row, each earlier letter is applied to the
    whole batch as one gather from the flattened table.
    """
    n = table.shape[1]
    flat, offsets = table.ravel(), rows * n
    acc = table[rows[:, -1]]
    for k in range(rows.shape[1] - 2, -1, -1):
        acc = flat[offsets[:, k:k + 1] + acc]
    return acc


def _polygon_tables(x: PolygonalComplex, table: np.ndarray,
                    every_orientation: bool) -> list[np.ndarray]:
    """Moved points of the polygon values: per class, one row per orientation
    (the canonical one, or all of them sorted) and one column per point."""
    m, points = table.shape[0] // 2, np.arange(table.shape[1])
    if not every_orientation:
        rows = _word_rows([pc.canonical for pc in x.polygons], m)
        return list((_fold(table, rows) != points)[:, None, :])
    return [_fold(table, _word_rows(sorted(pc.orientations), m)) != points
            for pc in x.polygons]


# ---------------------------------------------------------------------------
# norms and distances


def _mu2(x: PolygonalComplex, weights: WeightingSystem | None) -> tuple[Fraction, ...]:
    if weights is None:
        return uniform_distribution(len(x.polygons))
    if len(weights.mu2) != len(x.polygons):
        raise ValueError("weighting system does not match the complex")
    return weights.mu2


def _mu1(g: Graph, weights: WeightingSystem | None) -> tuple[Fraction, ...]:
    if weights is None:
        return uniform_distribution(len(g.edges))
    if len(weights.mu1) != len(g.edges):
        raise ValueError("weighting system does not match the graph")
    return weights.mu1


def cochain_norm(a: Cochain1, weights: WeightingSystem | None = None) -> Fraction:
    """Norm of delta a: expected distance of the polygon value from identity.

    Evaluated on one representative per class; averaging over orientations
    would give the same value because fixed-point counts are invariant under
    conjugation and inversion.
    """
    x = _require_polygons(a.space)
    tables = _polygon_tables(x, _value_table(_images(a.values, a.degree)), False)
    return sum((w * Fraction(int(t.sum()), a.degree)
                for w, t in zip(_mu2(x, weights), tables)), Fraction(0))


def edge_norm(a: Cochain1, weights: WeightingSystem | None = None) -> Fraction:
    """Norm of a itself as a 1-cochain: expected edge distance from identity."""
    g = skeleton_of(a.space)
    mu1 = _mu1(g, weights)
    ident = Permutation.identity(a.degree)
    return sum((w * hamming_distance_with_errors(p, ident)
                for w, p in zip(mu1, a.values)), Fraction(0))


def cochain_distance(a: Cochain1, b: Cochain1,
                     weights: WeightingSystem | None = None) -> Fraction:
    """Expected edge distance between two 1-cochains (degrees may differ)."""
    if skeleton_of(a.space) != skeleton_of(b.space):
        raise ValueError("cochains live on different complexes")
    g = skeleton_of(a.space)
    mu1 = _mu1(g, weights)
    return sum((w * hamming_distance_with_errors(p, q)
                for w, p, q in zip(mu1, a.values, b.values)), Fraction(0))


def coboundary_distance(a: Cochain1, b: Cochain1,
                        weights: WeightingSystem | None = None) -> Fraction:
    """Distance between delta a and delta b as 2-cochains.

    Per class this averages over all distinct orientations: unlike the norm,
    the pairwise distance of two polygon values is not orientation-invariant,
    because the two sides conjugate by different connecting arcs.  Mixed
    degrees compare the first min(n, N) points over the larger degree,
    as ``hamming_distance_with_errors`` does.
    """
    x = _require_polygons(a.space)
    if skeleton_of(b.space) != x.skeleton:
        raise ValueError("cochains live on different complexes")
    mu2 = _mu2(x, weights)
    table_a = _value_table(_images(a.values, a.degree))
    table_b = _value_table(_images(b.values, b.degree))
    small, big = min(a.degree, b.degree), max(a.degree, b.degree)
    total = Fraction(0)
    for weight, pc in zip(mu2, x.polygons):
        if weight == 0:
            continue
        rows = _word_rows(sorted(pc.orientations), len(a.values))
        agree = np.count_nonzero(_fold(table_a, rows)[:, :small]
                                 == _fold(table_b, rows)[:, :small])
        total += weight * Fraction(len(rows) * big - agree, len(rows) * big)
    return total


# ---------------------------------------------------------------------------
# the 0-cochain action and tree normalization


def act0on1(beta: Cochain0, alpha: Cochain1) -> Cochain1:
    """beta.alpha on the edge x -> y is beta(x)^-1 alpha(e) beta(y).

    Polygon values get conjugated at the basepoint, so all coboundary norms
    are preserved and cocycles stay cocycles.
    """
    if skeleton_of(beta.space) != skeleton_of(alpha.space):
        raise ValueError("cochains live on different complexes")
    if beta.degree != alpha.degree:
        raise ValueError(f"degree mismatch: {beta.degree} != {alpha.degree}")
    g = skeleton_of(alpha.space)
    vals = []
    for k, (u, v) in enumerate(g.edges, start=1):
        vals.append(compose(compose(beta.on_vertex(u).inverse(), alpha.values[k - 1]),
                            beta.on_vertex(v)))
    return Cochain1(alpha.space, alpha.degree, tuple(vals))


def tree_normalize(alpha: Cochain1, tree: frozenset[int], root: int) -> tuple[Cochain1, Cochain0]:
    """Act by the 0-cochain of tree-path values so every tree edge becomes trivial.

    Returns (beta.alpha, beta) with beta(y) the alpha-value of the tree path
    from y to the root; the output is in the action orbit of the input.
    """
    g = skeleton_of(alpha.space)
    paths = tree_paths_to_root(g, tree, root)
    beta = Cochain0(alpha.space, alpha.degree,
                    tuple(path_value(alpha, p) for p in paths))
    return act0on1(beta, alpha), beta


# ---------------------------------------------------------------------------
# cochains <-> coverings


def cochain_to_covering(alpha: Cochain1) -> Covering:
    """The degree-n covering of the skeleton encoded by a 1-cochain.

    Sheets: vertex (x, i) gets id (x-1)n + i, edge (e, i) gets id (e-1)n + i
    and runs from (x, alpha(e).i) to (y, i) where e: x -> y is the stored
    orientation.  Fiber labels are canonical (ascending vertex id), which
    makes the round trip through covering_to_cochain exact.
    """
    g = skeleton_of(alpha.space)
    n, count = alpha.degree, g.vertex_count
    cover_edges: list[tuple[int, int]] = []
    for (x, y), a in zip(g.edges, alpha.values):
        ox, oy = (x - 1) * n, (y - 1) * n
        cover_edges += zip([ox + i for i in a.images], range(oy + 1, oy + n + 1))
    cover = Graph(count * n, tuple(cover_edges))
    labeling = CombinatorialMap(cover, g, tuple(x for x in range(1, count + 1) for _ in range(n)),
                                tuple(e for e in range(1, len(g.edges) + 1) for _ in range(n)))
    fibers = tuple(tuple(range((x - 1) * n + 1, x * n + 1)) for x in range(1, count + 1))
    return Covering(LabeledGraph(cover, labeling), n, fibers)


def _covering_images(c: Covering, space: PolygonalComplex | Graph) -> np.ndarray:
    """The edge values read off a covering, as 0-based (m, n) images.

    Raises ValueError unless the covering covers the skeleton of ``space``,
    its fibers list each covering vertex once, every covering edge carries a
    base edge label and joins the fibers over that edge's ends, and the lifts
    of every base edge form a bijection of the sheets.
    """
    base = c.base
    if skeleton_of(space) != base:
        raise ValueError("covering does not cover the skeleton of the given complex")
    n, m, size = c.degree, len(base.edges), c.graph.vertex_count
    fibers = c.fiber_labels
    if n < 1 or size != n * base.vertex_count or len(fibers) != base.vertex_count \
            or any(len(f) != n for f in fibers):
        raise ValueError(f"a degree-{n} covering needs {base.vertex_count} fibers of "
                         f"{n} covering vertices each")
    labels = np.fromiter(itertools.chain.from_iterable(fibers), np.intp, size)
    if (np.sort(labels) != np.arange(1, size + 1)).any():
        raise ValueError(f"fiber labels must list each covering vertex 1..{size} once")
    edge_map = c.labeled.labeling.edge_map
    if len(c.graph.edges) != m * n or len(edge_map) != m * n:
        raise ValueError(f"a degree-{n} covering needs {m * n} labeled edges")
    # pos[v] = (x-1)n + sheet index of covering vertex v over base vertex x;
    # ids outside 1..size read the -1 kept at both ends
    pos = np.full(size + 2, -1)
    pos[labels] = np.arange(size)
    ends = np.fromiter(itertools.chain.from_iterable(c.graph.edges), np.intp, 2 * m * n)
    ends = pos[np.minimum(np.maximum(ends, 0), size + 1)].reshape(-1, 2)
    lbl = np.fromiter(edge_map, np.intp, m * n)
    ends = np.where((lbl > 0)[:, None], ends, ends[:, ::-1])   # orient along +|label|
    # 0-based (origin, terminus) of each base edge; labels outside +-1..m read
    # row 0 or m+1, which no covering edge can match
    e = np.minimum(np.abs(lbl), m + 1)
    over = np.array([(-1, -1), *base.edges, (-1, -1)], dtype=np.intp) - 1
    if (ends // n != over[e]).any():
        raise ValueError("a covering edge does not join the fibers over the ends of its label")
    images = np.full((m, n), -1)
    images[e - 1, ends[:, 1] % n] = ends[:, 0] % n
    bijective = np.sort(images, axis=1) == np.arange(n)
    if not bijective.all():
        raise ValueError(f"the lifts of edge {int(bijective.all(axis=1).argmin()) + 1} "
                         "are not a bijection of the sheets")
    return images


def covering_to_cochain(c: Covering, space: PolygonalComplex | Graph | None = None) -> Cochain1:
    """Read the 1-cochain off a covering via its fiber labels.

    The edge value alpha(e) sends the sheet label of the terminus of each lift
    of e to the sheet label of its origin.  Different fiber labelings give
    cochains in one 0-cochain action orbit.  Malformed coverings raise
    ValueError (see ``_covering_images``).
    """
    space = c.base if space is None else space
    images = (_covering_images(c, space) + 1).tolist()
    return Cochain1(space, c.degree, tuple(_trusted(tuple(row)) for row in images))


# ---------------------------------------------------------------------------
# presentation bridge


def images_to_cochain(images: Sequence[Permutation], x: PolygonalComplex) -> Cochain1:
    """Extend generator images to a 1-cochain on a presentation complex."""
    if x.skeleton.vertex_count != 1:
        raise ValueError("presentation bridge needs a single-vertex complex")
    if len(images) != len(x.skeleton.edges):
        raise ValueError("need one image per generator edge")
    degs = {p.degree for p in images}
    if len(degs) != 1:
        raise ValueError("generator images must share one degree")
    return Cochain1(x, degs.pop(), tuple(images))


def cochain_to_images(a: Cochain1) -> tuple[Permutation, ...]:
    """Restrict a 1-cochain on a presentation complex back to generator images."""
    if skeleton_of(a.space).vertex_count != 1:
        raise ValueError("presentation bridge needs a single-vertex complex")
    return a.values


# ---------------------------------------------------------------------------
# coboundary membership and orbit distance


def is_coboundary(a: Cochain1, root: int = 1) -> tuple[bool, Cochain0 | None]:
    """Decide whether a = delta b for some 0-cochain b, returning a witness.

    If a solution exists there is one with b(root) = Id on each component:
    propagate b along any spanning structure and check consistency on the
    remaining edges.  Linear time, no search.
    """
    g = skeleton_of(a.space)
    n = a.degree
    vals: list[Permutation | None] = [None] * g.vertex_count
    from .graphs import vertex_stars

    stars = vertex_stars(g)
    for start in range(1, g.vertex_count + 1):
        if vals[start - 1] is not None:
            continue
        vals[start - 1] = Permutation.identity(n)
        queue = [start]
        while queue:
            v = queue.pop(0)
            bv = vals[v - 1]
            for s in stars[v - 1]:
                # s points into v; -s leaves v toward w
                w = origin(g, s)
                need = compose(bv, a.on_edge(-s))  # delta b(v->w) = b(v)^-1 b(w)
                if vals[w - 1] is None:
                    vals[w - 1] = need
                    queue.append(w)
    beta = Cochain0(a.space, n, tuple(vals))  # type: ignore[arg-type]
    if coboundary0(beta).values == a.values:
        return True, beta
    return False, None


@dataclass(frozen=True)
class OrbitDistanceResult:
    value: Fraction
    beta: Cochain0          # relabeling applied to the candidate
    witness: Cochain1       # beta.candidate, realizing the value against the input


def _extend_injection(mapped: Sequence[int], big: int) -> Permutation:
    used = set(mapped)
    rest = iter(v for v in range(1, big + 1) if v not in used)
    return _trusted(tuple(mapped) + tuple(next(rest) for _ in range(big - len(mapped))))


def orbit_distance(alpha: Cochain1, candidate: Cochain1,
                   guard: int = 10 ** 6) -> OrbitDistanceResult:
    """Minimum distance from alpha to the 0-cochain action orbit of candidate.

    The agreement count of alpha against beta.candidate depends only on the
    restrictions of beta to the smaller degree, so the search ranges over one
    injection per vertex and is evaluated as a dense tensor maximization.
    Requires candidate.degree >= alpha.degree; refuses searches with more
    than ``guard`` injection tuples before building any of them.
    """
    g = skeleton_of(alpha.space)
    if skeleton_of(candidate.space) != g:
        raise ValueError("cochains live on different complexes")
    n, big = alpha.degree, candidate.degree
    if big < n:
        raise ValueError("candidate degree must be at least the input degree")
    p_count = math.perm(big, n)
    if p_count ** g.vertex_count > guard:
        raise GuardExceeded(
            f"orbit search needs {p_count}^{g.vertex_count} alignment tuples "
            f"(guard {guard})")
    injections = list(itertools.permutations(range(1, big + 1), n))
    inj = np.array(injections, dtype=np.int64)  # (P, n), 1-based values
    total = np.zeros((p_count,) * g.vertex_count, dtype=np.int64)
    for k, (x, y) in enumerate(g.edges, start=1):
        av = np.array(alpha.values[k - 1].images, dtype=np.int64)
        bv = np.array(candidate.values[k - 1].images, dtype=np.int64)
        lhs = inj[:, av - 1]        # m_x(alpha(e).i)
        rhs = bv[inj - 1]           # candidate(e)(m_y(i))
        table = (lhs[:, None, :] == rhs[None, :, :]).sum(axis=2)
        if x == y:
            shape = [1] * g.vertex_count
            shape[x - 1] = p_count
            total += np.diagonal(table).reshape(shape)
        else:
            lo, hi = min(x, y), max(x, y)
            arr = table if x < y else table.T
            shape = [1] * g.vertex_count
            shape[lo - 1] = p_count
            shape[hi - 1] = p_count
            total += arr.reshape(shape)
    flat_best = int(np.argmax(total))
    best = int(total.reshape(-1)[flat_best])
    idx = np.unravel_index(flat_best, total.shape)
    beta = Cochain0(candidate.space, big,
                    tuple(_extend_injection(injections[i], big) for i in idx))
    witness = act0on1(beta, candidate)
    m = len(g.edges)
    value = Fraction(m * big - best, m * big)
    return OrbitDistanceResult(value, beta, witness)
