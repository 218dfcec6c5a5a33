"""Permutation-valued cochains, coboundaries, norms, and the covering dictionary.

A cochain stores one read-only (cells, n) intp array of 0-based images,
``rows``, and every kernel here reads and writes rows; Permutations are built
only where values enter or leave the API.  A 1-cochain holds the value on the
stored orientation of each edge and the reversal reads its inverse, so
antisymmetry cannot be violated.  2-cochains only occur as coboundaries.
Polygon values are evaluated in one batched fold over a signed value table
(``_value_table``/``_fold``): one gather per word position for a whole batch
of words.  Counts are taken in integers and turned into ``Fraction``s last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .complexes import PolygonalComplex, WeightingSystem, uniform_distribution
from .errors import GuardExceeded
from .graphs import (Covering, Graph, check_path, origin, tree_paths_to_root,
                     vertex_stars)
from .perm import Permutation, _check_degree, _trusted


def skeleton_of(space: PolygonalComplex | Graph) -> Graph:
    return space.skeleton if isinstance(space, PolygonalComplex) else space


def _require_polygons(space: PolygonalComplex | Graph) -> PolygonalComplex:
    if not isinstance(space, PolygonalComplex) or not space.polygons:
        raise ValueError("operation needs a polygonal complex with at least one polygon")
    return space


class _Cochain:
    """One permutation of a fixed degree per cell, held as read-only ``rows``.

    The constructor checks Permutation values; library results wrap trusted
    rows with ``_of``.  ``values`` is built on first read and kept.  Equality
    and hashing read (space, degree, rows).
    """

    def __init__(self, space: PolygonalComplex | Graph, degree: int,
                 values: Sequence[Permutation]) -> None:
        values = tuple(values)
        if len(values) != self._cells(skeleton_of(space)):
            raise ValueError(f"need one value per {self._cell}")
        self._fill(space, degree, _images(values, degree), values=values)

    @classmethod
    def _of(cls, space: PolygonalComplex | Graph, degree: int, rows: np.ndarray):
        """The cochain of trusted 0-based rows, which it makes read-only."""
        c = object.__new__(cls)
        c._fill(space, degree, rows)
        return c

    def _fill(self, space, degree: int, rows: np.ndarray, **values) -> None:
        rows.flags.writeable = False
        vars(self).update(space=space, degree=degree, rows=rows, **values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def values(self) -> tuple[Permutation, ...]:
        return _permutations(self.rows)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.space == other.space
                and self.degree == other.degree and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash((self.space, self.degree, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.space!r}, {self.degree}, {self.values!r})"


class Cochain0(_Cochain):
    """Assignment of a permutation of one fixed degree to every vertex."""

    _cell, _cells = "vertex", staticmethod(lambda g: g.vertex_count)


class Cochain1(_Cochain):
    """Antisymmetric assignment of permutations to oriented edges: row k-1
    (and ``values[k-1]``) is the value on the stored orientation of edge k."""

    _cell, _cells = "unoriented edge", staticmethod(lambda g: len(g.edges))


def _identity_rows(count: int, n: int) -> np.ndarray:
    return np.tile(np.arange(_check_degree(n)), (count, 1))


def identity_cochain0(space: PolygonalComplex | Graph, n: int) -> Cochain0:
    return Cochain0._of(space, n, _identity_rows(skeleton_of(space).vertex_count, n))


def identity_cochain1(space: PolygonalComplex | Graph, n: int) -> Cochain1:
    return Cochain1._of(space, n, _identity_rows(len(skeleton_of(space).edges), n))


# ---------------------------------------------------------------------------
# coboundaries, path values and the 0-cochain action


def _inverse(rows: np.ndarray) -> np.ndarray:
    """Row-wise inverses of 0-based (count, n) permutation rows."""
    inv = np.empty_like(rows)
    inv[np.arange(len(rows))[:, None], rows] = np.arange(rows.shape[1])
    return inv


def _act(g: Graph, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Rows of beta.alpha on the edges x -> y of g: beta(x)^-1 alpha(e) beta(y),
    for 0-based vertex rows beta and edge rows alpha, in two gathers."""
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2) - 1
    moved = alpha[np.arange(len(ends))[:, None], beta[ends[:, 1]]]
    return _inverse(beta)[ends[:, :1], moved]


def coboundary0(b: Cochain0) -> Cochain1:
    """delta b on the edge x -> y is b(x)^-1 b(y): b acting on the identity."""
    return act0on1(b, identity_cochain1(b.space, b.degree))


def act0on1(beta: Cochain0, alpha: Cochain1) -> Cochain1:
    """beta.alpha on the edge x -> y is beta(x)^-1 alpha(e) beta(y).

    Polygon values get conjugated at the basepoint, so all coboundary norms
    are preserved and cocycles stay cocycles.
    """
    if skeleton_of(beta.space) != skeleton_of(alpha.space):
        raise ValueError("cochains live on different complexes")
    if beta.degree != alpha.degree:
        raise ValueError(f"degree mismatch: {beta.degree} != {alpha.degree}")
    return Cochain1._of(alpha.space, alpha.degree,
                        _act(skeleton_of(alpha.space), beta.rows, alpha.rows))


def _path_rows(a: Cochain1, paths: Sequence[Sequence[int]]) -> np.ndarray:
    """0-based values of a batch of signed edge paths (empty ones included)."""
    return _fold(_value_table(a.rows), _word_rows(paths, len(a.rows)))


def path_value(a: Cochain1, path: Sequence[int]) -> Permutation:
    """Ordered product of edge values along a path; empty path gives identity.

    The path is a signed word over edge ids, with the product convention of
    ``evaluate_word``: the last edge acts first.
    """
    return _permutations(_path_rows(a, [path]))[0]


def coboundary1(a: Cochain1, path: Sequence[int]) -> Permutation:
    """Value of delta a on a path (restricting to polygons gives the 2-cochain)."""
    check_path(skeleton_of(a.space), path)
    return path_value(a, path)


def is_cocycle(a: Cochain1) -> bool:
    x = _require_polygons(a.space)
    return not any(t.any() for t in _polygon_tables(x, _value_table(a.rows), False))


def tree_normalize(alpha: Cochain1, tree: frozenset[int], root: int) -> tuple[Cochain1, Cochain0]:
    """Act by the 0-cochain of tree-path values so every tree edge becomes trivial.

    Returns (beta.alpha, beta) with beta(y) the alpha-value of the tree path
    from y to the root; the output is in the action orbit of the input.  One
    fold evaluates the V tree paths.
    """
    g = skeleton_of(alpha.space)
    beta = _path_rows(alpha, tree_paths_to_root(g, tree, root))
    return (Cochain1._of(alpha.space, alpha.degree, _act(g, beta, alpha.rows)),
            Cochain0._of(alpha.space, alpha.degree, beta))


# ---------------------------------------------------------------------------
# the batched word kernel


def _images(values: Sequence[Permutation], degree: int) -> np.ndarray:
    """0-based images of permutations of one degree, shape (len(values), n)."""
    if any(p.degree != degree for p in values):
        raise ValueError("all values must share the declared degree")
    flat = np.fromiter(itertools.chain.from_iterable(p.images for p in values),
                       np.intp, len(values) * degree)
    return flat.reshape(len(values), degree) - 1


def _permutations(images: np.ndarray) -> tuple[Permutation, ...]:
    """Permutations of 0-based (count, n) image rows, wrapped unchecked."""
    return tuple(_trusted(tuple(row)) for row in (images + 1).tolist())


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
    tables = _polygon_tables(x, _value_table(a.rows), False)
    return sum((w * Fraction(int(t.sum()), a.degree)
                for w, t in zip(_mu2(x, weights), tables)), Fraction(0))


def edge_norm(a: Cochain1, weights: WeightingSystem | None = None) -> Fraction:
    """Norm of a itself as a 1-cochain: expected edge distance from identity."""
    return cochain_distance(a, identity_cochain1(a.space, a.degree), weights)


def cochain_distance(a: Cochain1, b: Cochain1,
                     weights: WeightingSystem | None = None) -> Fraction:
    """Expected edge distance between two 1-cochains (degrees may differ):
    per edge, ``hamming_distance_with_errors`` of the two values."""
    if skeleton_of(a.space) != skeleton_of(b.space):
        raise ValueError("cochains live on different complexes")
    mu1 = _mu1(skeleton_of(a.space), weights)
    small, big = sorted((a.degree, b.degree))
    agree = np.count_nonzero(a.rows[:, :small] == b.rows[:, :small], axis=1)
    return sum((w * Fraction(big - k, big) for w, k in zip(mu1, agree.tolist())),
               Fraction(0))


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
    table_a, table_b = _value_table(a.rows), _value_table(b.rows)
    small, big = sorted((a.degree, b.degree))
    total = Fraction(0)
    for weight, pc in zip(mu2, x.polygons):
        if weight == 0:
            continue
        rows = _word_rows(sorted(pc.orientations), len(a.rows))
        agree = np.count_nonzero(_fold(table_a, rows)[:, :small]
                                 == _fold(table_b, rows)[:, :small])
        total += weight * Fraction(len(rows) * big - agree, len(rows) * big)
    return total


# ---------------------------------------------------------------------------
# cochains <-> coverings


def cochain_to_covering(alpha: Cochain1) -> Covering:
    """The degree-n covering of the skeleton encoded by a 1-cochain.

    Sheets: vertex (x, i) gets id (x-1)n + i, edge (e, i) gets id (e-1)n + i
    and runs from (x, alpha(e).i) to (y, i) where e: x -> y is the stored
    orientation.  Fiber labels are canonical (ascending vertex id), which
    makes the round trip through covering_to_cochain exact.  The covering
    holds alpha's rows as its lift table and builds that labeled graph only
    when it is read.
    """
    return Covering._of_lifts(skeleton_of(alpha.space), alpha.degree, alpha.rows)


def _covering_images(c: Covering, space: PolygonalComplex | Graph) -> np.ndarray:
    """The edge values read off a covering that covers the skeleton of
    ``space``: its lift table, checked on first use (``Covering._lifts``)."""
    if skeleton_of(space) != c.base:
        raise ValueError("covering does not cover the skeleton of the given complex")
    return c._lifts


def covering_to_cochain(c: Covering, space: PolygonalComplex | Graph | None = None) -> Cochain1:
    """Read the 1-cochain off a covering via its fiber labels.

    The edge value alpha(e) sends the sheet label of the terminus of each lift
    of e to the sheet label of its origin.  Different fiber labelings give
    cochains in one 0-cochain action orbit.  The cochain shares the
    covering's lift table.  Malformed coverings raise ValueError (see
    ``Covering._lifts``).
    """
    space = c.base if space is None else space
    return Cochain1._of(space, c.degree, _covering_images(c, space))


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


def is_coboundary(a: Cochain1) -> tuple[bool, Cochain0 | None]:
    """Decide whether a = delta b for some 0-cochain b, returning a witness.

    If a solution exists, the witness is the one with b = Id at the smallest
    vertex of each component: b is propagated outward from that vertex, and
    consistency is checked on the remaining edges.  Linear time, no search.
    """
    g = skeleton_of(a.space)
    rows, inverse = a.rows, _inverse(a.rows)
    vals: list[np.ndarray | None] = [None] * g.vertex_count
    stars = vertex_stars(g)
    for start in range(1, g.vertex_count + 1):
        if vals[start - 1] is not None:
            continue
        vals[start - 1] = np.arange(a.degree)
        queue = [start]
        while queue:
            v = queue.pop(0)
            for s in stars[v - 1]:
                # s points into v; -s leaves v toward w, and delta b(v->w) = b(v)^-1 b(w)
                w = origin(g, s)
                if vals[w - 1] is None:
                    vals[w - 1] = vals[v - 1][(inverse if s > 0 else rows)[abs(s) - 1]]
                    queue.append(w)
    beta = Cochain0._of(a.space, a.degree, np.array(vals, dtype=np.intp))
    if coboundary0(beta) == a:
        return True, beta
    return False, None


@dataclass(frozen=True)
class OrbitDistanceResult:
    value: Fraction
    beta: Cochain0          # relabeling applied to the candidate
    witness: Cochain1       # beta.candidate, realizing the value against the input


def alignment_guard_refuses(vertex_count: int, n: int, big: int, guard: int) -> bool:
    """Whether orbit_distance refuses a degree-n input against a degree-big
    candidate: one injection per vertex gives P(big, n)^vertex_count tuples."""
    return math.perm(big, n) ** vertex_count > guard


@lru_cache(maxsize=32)
def _injections(n: int, big: int) -> np.ndarray:
    """Injections of 0..n-1 into 0..big-1 in itertools order, one per row (read-only)."""
    inj = np.array(list(itertools.permutations(range(big), n)), dtype=np.intp)
    inj.flags.writeable = False
    return inj


def _orbit_agreements(g: Graph, a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """The agreement kernel of orbit_distance on 0-based (edges, n) images a
    and (edges, big) images b: relabeling b by one injection m_v per vertex,
    edge x -> y agrees where m_x(a(i)) = b(m_y(i)).  The counts fill a dense
    tensor over the P(big, n)^V injection tuples; a loop adds its diagonal
    only.  Returns the best total and the first flat index attaining it."""
    inj = _injections(a.shape[1], b.shape[1])
    p_count, v = len(inj), g.vertex_count
    lhs, rhs = inj[:, a].swapaxes(0, 1), b[:, inj]   # m_x(a(i)), b(m_y(i)) per edge
    total = np.zeros((p_count,) * v, dtype=np.intp)
    for e, (x, y) in enumerate(g.edges):
        shape = [1] * v
        shape[x - 1] = shape[y - 1] = p_count
        if x == y:
            term = (lhs[e] == rhs[e]).sum(axis=1)
        else:
            term = (lhs[e][:, None, :] == rhs[e][None, :, :]).sum(axis=2)
            term = term if x < y else term.T
        total += term.reshape(shape)
    flat = int(np.argmax(total))
    return int(total.flat[flat]), flat



def _relabeling(space: PolygonalComplex | Graph, candidate: np.ndarray, n: int,
                flat: int) -> tuple[Cochain0, Cochain1]:
    """The 0-cochain beta of the injection tuple at ``flat`` (each injection
    extended by the unused points in increasing order), and beta.candidate,
    for 0-based (edges, big) candidate images."""
    g, big = skeleton_of(space), candidate.shape[1]
    inj = _injections(n, big)
    chosen = inj[list(np.unravel_index(flat, (len(inj),) * g.vertex_count))]
    unused = np.ones((g.vertex_count, big), dtype=bool)
    unused[np.arange(g.vertex_count)[:, None], chosen] = False
    beta = np.concatenate([chosen, np.nonzero(unused)[1].reshape(len(chosen), -1)], axis=1)
    return (Cochain0._of(space, big, beta),
            Cochain1._of(space, big, _act(g, beta, candidate)))


def orbit_distance(alpha: Cochain1, candidate: Cochain1,
                   guard: int = 10 ** 6) -> OrbitDistanceResult:
    """Minimum distance from alpha to the 0-cochain action orbit of candidate.

    The agreement count of alpha against beta.candidate depends only on the
    restrictions of beta to the smaller degree, so the search ranges over one
    injection per vertex, in the kernel the global-defect search runs too.
    Requires candidate.degree >= alpha.degree; refuses searches with more
    than ``guard`` injection tuples before building any of them.
    """
    g = skeleton_of(alpha.space)
    if skeleton_of(candidate.space) != g:
        raise ValueError("cochains live on different complexes")
    if not g.edges:
        raise ValueError("the complex has no edges, so no distance is defined")
    n, big = alpha.degree, candidate.degree
    if big < n:
        raise ValueError("candidate degree must be at least the input degree")
    if alignment_guard_refuses(g.vertex_count, n, big, guard):
        raise GuardExceeded(
            f"orbit search needs {math.perm(big, n)}^{g.vertex_count} alignment tuples "
            f"(guard {guard})")
    best, flat = _orbit_agreements(g, alpha.rows, candidate.rows)
    beta, witness = _relabeling(candidate.space, candidate.rows, n, flat)
    m = len(g.edges)
    return OrbitDistanceResult(Fraction(m * big - best, m * big), beta, witness)
