"""Global defects, homomorphism enumeration, spectral gaps, Cheeger constants.

Global defects are infima over targets of every degree; here the search runs
over degrees N in [n, n_max] (default n + 2) and results are always labeled:
``exact-within-cap`` means the minimum over all valid objects of degree at
most n_max was found, ``heuristic`` means some search guard tripped and the
value is only a best-found upper bound.

Each degree's work is a few numpy passes, not a Python loop per candidate:
the homomorphisms are enumerated a block of prefixes at a time
(``_backtrack``), and the conjugacy-class representatives are aligned
together, the identity cochain with one vertex's injection pinned
(``_align_representatives``).  Bounds, labels and witnesses are those of a
loop over every candidate.

A degree-N target agrees with a degree-n input on at most n of N points per
edge or generator, so it lies at distance at least 1 - n/N.  Once the best
bound found is at most that floor, degree N cannot improve on it (ties keep
the first minimum) and is skipped without enumerating or aligning anything;
the result lists those degrees in ``degrees_skipped``.  Bound and witness are
those of the full search.  Labels keep their meaning: a skipped degree that
a guard would have refused still makes the result ``heuristic``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .cochains import (DEFAULT_ALIGNMENT_GUARD, Cochain0, Cochain1, _images,
                       _orbit_agreements, _permutations, _relabeling, act0on1,
                       alignment_guard_refuses, coboundary0, cochain_norm,
                       cochain_to_covering, covering_to_cochain, edge_norm, skeleton_of)
from .complexes import PolygonalComplex, Presentation, fundamental_presentation
from .errors import GuardExceeded
from .graphs import DEFAULT_EDIT_GUARD  # noqa: F401  (re-exported)
from .graphs import Graph, components, is_connected, vertex_stars
from .perm import Permutation, all_permutations
from .testers import GENERATOR_ID, hom_local_defect

DEFAULT_HOM_GUARD = 10 ** 8
DEFAULT_ENUM_GUARD = 10 ** 6
# alignment tensor entries per batch of representatives, unless one alone is larger
_ALIGN_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# homomorphism enumeration


def _hom_guard_refuses(generator_count: int, degree: int, guard: int) -> bool:
    """Whether enumerate_homomorphisms refuses: degree!^generator_count raw
    assignments exceed the guard."""
    return math.factorial(degree) ** generator_count > guard


@lru_cache(maxsize=8)
def _sym(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sym(degree) in the order of all_permutations (row 0 is the identity):
    its 0-based image rows, the rows of their inverses, and the (2, degree!)
    rows of s^-1 c s for s = (1 2) and s = (1 2 ... degree), found by
    base-degree keys, which increase along the order.  Read-only."""
    images = np.array([q.images for q in all_permutations(degree)],
                      dtype=np.intp).reshape(-1, degree) - 1
    weights, ident = degree ** np.arange(degree - 1, -1, -1), np.arange(degree)
    conj = [np.argsort(s)[images[:, s]] @ weights
            for s in (np.r_[1, 0, ident[2:]], np.roll(ident, -1))] if degree > 1 else []
    tables = (images, np.argsort(images, axis=1),
              np.searchsorted(images @ weights, np.array(conj, dtype=np.intp)))
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=512)
def _homomorphisms_cached(p: Presentation, degree: int, guard: int) -> np.ndarray:
    """The homomorphisms into Sym(degree) as a read-only (H, generators) array
    of _sym(degree) rows, in lexicographic order.

    A one-letter relator pins its generator to the identity, so pinned
    letters are deleted from every relator until no one-letter relator is
    left; only the other generators are searched, and the pinned columns
    hold row 0.  Pinned columns are constant, so the order is unchanged.
    """
    if _hom_guard_refuses(p.generator_count, degree, guard):
        raise GuardExceeded(
            f"homomorphism search space {math.factorial(degree)}^{p.generator_count} "
            f"exceeds guard {guard}")
    relators, pinned = p.relators, set()
    while True:
        relators = [tuple(s for s in r if abs(s) not in pinned) for r in relators]
        newly = {abs(r[0]) for r in relators if len(r) == 1}
        if not newly:
            break
        pinned |= newly
    free = [g for g in range(1, p.generator_count + 1) if g not in pinned]
    renumber = {g: i for i, g in enumerate(free, start=1)}
    found = _backtrack(len(free), [tuple(renumber[s] if s > 0 else -renumber[-s] for s in r)
                                   for r in relators if r], degree)
    rows = found   # a new array, which only the cache holds
    if pinned:
        rows = np.zeros((len(found), p.generator_count), dtype=np.intp)
        rows[:, np.asarray(free, dtype=np.intp) - 1] = found
    rows.flags.writeable = False
    return rows


# (prefix, row) pairs folded per block: a block of prefixes is extended by
# every Sym(degree) row at once, so a level's frontier is never built whole
_BLOCK = 1 << 16
# grids of at most this many (pair, point) entries are checked at every point
# at once, in fewer numpy calls than the survivor pass; sending every grid
# through the survivor pass instead made search_small_n's op_p50_ms 2.7 % and
# op_tail_ms 6.5 % higher (medians of ten paired 30 s runs, seed 1)
_SMALL_GRID = 1 << 12


def _backtrack(generator_count: int, relators: Sequence[tuple[int, ...]],
               degree: int) -> np.ndarray:
    """The assignments of _sym(degree) rows to the generators that kill every
    relator, none of them empty, as an (H, generator_count) array in
    lexicographic order.

    Depth-first over blocks: a block of at most ``_BLOCK // degree!``
    prefixes, in order, is extended by every row in one ``_extend`` call,
    and its survivors are extended in turn before the next block.  The walk
    keeps an explicit stack, so a call leaves no reference cycle behind for
    the garbage collector.
    """
    if not generator_count:   # with no generator there is no relator left to check
        return np.zeros((1, 0), dtype=np.intp)
    images, inverses = _sym(degree)[:2]
    step = max(1, _BLOCK // len(images))
    # a relator can be checked once every generator it mentions is assigned
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(generator_count + 1)]
    for r in relators:
        by_level[max(abs(s) for s in r)].append(r)
    found: list[np.ndarray] = []
    stack = [(np.zeros((1, 0), dtype=np.intp), 0)]   # (prefixes, first one not extended)
    while stack:
        prefixes, start = stack.pop()
        if start + step < len(prefixes):
            stack.append((prefixes, start + step))
        level = prefixes.shape[1] + 1
        block = _extend(prefixes[start:start + step], by_level[level], images, inverses)
        if level == generator_count:
            found.append(block)
        elif len(block):
            stack.append((block, 0))
    # the trivial homomorphism always survives, so ``found`` is never empty
    return found[0] if len(found) == 1 else np.concatenate(found)


def _extend(prefixes: np.ndarray, relators: Sequence[tuple[int, ...]],
            images: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """The (prefix, row) pairs, prefix-major, whose new generator row kills
    every relator, all of which close at this level, as (pairs, level) rows.

    A relator l1 ... lk is the identity exactly when l1 ... lh and
    lk^-1 ... l(h+1)^-1 agree, h = ceil(k/2), on every point but the last
    (two permutations that agree on all points but one agree on it too).
    Both sides are evaluated right to left at a point: each letter is one
    gather from a small table, the letter's image row per prefix or per new
    row, at (row * degree + point).  A small grid of pairs is checked at
    every point at once; a larger one at point 0, and then point by point
    on the pairs that survive.
    """
    count, degree = images.shape
    level = prefixes.shape[1] + 1
    grid = (len(prefixes), count)
    if not relators:
        out = np.empty((grid[0] * count, level), dtype=np.intp)
        out[:, :-1] = np.repeat(prefixes, count, axis=0)
        out[:, -1] = np.tile(np.arange(count), grid[0])
        return out
    tables = {}
    for g in {abs(s) for r in relators for s in r}:
        for s, table in ((g, images), (-g, inverses)):
            tables[s] = (table if g == level else table[prefixes[:, g - 1]]).ravel(), g == level
    starts = (np.arange(grid[0]) * degree, np.arange(count) * degree)   # (prefix, new row)
    if grid[0] * count * degree <= _SMALL_GRID:
        offsets = (starts[0][:, None, None], starts[1][None, :, None])
        points = np.arange(degree - 1)
        keep = reduce(np.logical_and, (_agree(r, points, tables, offsets).all(axis=-1)
                                       for r in relators))
        later = []
    else:
        keep = _agree(relators[0], 0, tables, (starts[0][:, None], starts[1][None, :]))
        later = [(relators[0], point) for point in range(1, degree - 1)]
        later += [(r, point) for r in relators[1:] for point in range(degree - 1)]
    if keep.shape != grid:   # no relator mentions an assigned generator
        keep = np.broadcast_to(keep, grid)
    p, j = np.nonzero(keep)
    for r, point in later:
        keep = np.flatnonzero(_agree(r, point, tables, (p * degree, j * degree)))
        p, j = p[keep], j[keep]
    out = np.empty((len(p), level), dtype=np.intp)
    out[:, :-1], out[:, -1] = prefixes[p], j
    return out


def _agree(relator: tuple[int, ...], points, tables: dict,
           offsets: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Where the two sides of ``relator`` (see ``_extend``) agree at
    ``points``, for the pairs whose (prefix, new row) table offsets are
    ``offsets``; the shapes broadcast."""
    half = (len(relator) + 1) // 2
    sides = []
    for letters in (relator[:half], [-s for s in reversed(relator[half:])]):
        x = points
        for s in reversed(letters):
            flat, new = tables[s]
            x = flat[offsets[new] + x]
        sides.append(x)
    return sides[0] == sides[1]


def enumerate_homomorphisms(p: Presentation, degree: int,
                            guard: int = DEFAULT_HOM_GUARD) -> list[tuple[Permutation, ...]]:
    """All generator assignments into Sym(degree) killing every relator.

    Generators that one-letter relators pin to the identity are fixed first;
    the rest are found depth-first in lexicographic order of image tuples.
    A block of prefixes is extended by every Sym(degree) row at once, and a
    relator is checked at the level of its highest generator as a few numpy
    gathers over the whole block (see ``_extend``); the block's survivors are
    extended before the next block, so a level is never built whole.  The
    search keeps Sym(degree) row indices; this wraps them as Permutations.
    Refuses when the raw search space |Sym(degree)|^generators exceeds the
    guard.
    """
    perms = _permutations(_sym(degree)[0]) if p.generator_count else ()
    return [tuple(perms[i] for i in row)
            for row in _homomorphisms_cached(p, degree, guard).tolist()]


def _class_representatives(rows: np.ndarray, degree: int) -> np.ndarray:
    """Indices of the first homomorphism of each conjugacy class, ascending.

    Min-label propagation under conjugation by (1 2) and by (1 2 ... degree),
    which generate every inner automorphism; a conjugate row is found by its
    mixed-radix key, and the keys increase along the sorted rows.
    """
    if len(rows) == 1:
        return np.zeros(1, dtype=np.intp)
    radix = math.factorial(degree)
    weights = np.array([radix ** k for k in range(rows.shape[1] - 1, -1, -1)],
                       dtype=np.int64 if radix ** rows.shape[1] < 2 ** 63 else object)
    own = rows.dot(weights)
    neighbours = [np.searchsorted(own, conj[rows].dot(weights)) for conj in _sym(degree)[2]]
    label = np.arange(len(rows))
    while True:
        new = np.minimum.reduce([label[label]] + [label[nb] for nb in neighbours])
        if np.array_equal(new, label):
            return np.flatnonzero(label == np.arange(len(rows)))
        label = new


def _tree_trivial(chosen: np.ndarray, free: Sequence[int], cells: int,
                  degree: int) -> np.ndarray:
    """0-based (len(chosen), cells, degree) images: identity on every cell
    but the 1-based ``free`` ones, which take the _sym(degree) rows of a row
    of ``chosen``.  Free generator edges give the tree-trivial cochains."""
    out = np.empty((len(chosen), cells, degree), dtype=np.intp)
    out[...] = np.arange(degree)
    if len(free):
        out[:, np.asarray(free, dtype=np.intp) - 1] = _sym(degree)[0][chosen]
    return out


# ---------------------------------------------------------------------------
# global defects


@dataclass(frozen=True)
class GlobalDefectResult:
    kind: str
    upper_bound: Fraction
    witness: object
    n_max_searched: int
    exactness: str  # "exact-within-cap" | "heuristic"
    degrees_skipped: tuple[int, ...] = ()  # ruled out by the 1 - n/N floor

    def __post_init__(self) -> None:
        if not 0 <= self.upper_bound <= 1:
            raise ValueError("global defect must lie in [0, 1]")


def _closest(rows: np.ndarray, targets: np.ndarray, degree: int, fixed: int,
             total: int) -> tuple[Fraction, int]:
    """The distance 1 - agreements/total of the first homomorphism whose
    generator images agree most with the 0-based ``targets`` (plus ``fixed``
    agreements elsewhere), and its index.  The counts are tabled per (Sym row,
    generator) and read at the rows, so nothing of size H x degree is built."""
    agree = np.full(len(rows), fixed, dtype=np.intp)
    if len(targets):
        table = (_sym(degree)[0][:, None, :targets.shape[1]] == targets).sum(axis=2)
        agree += table[rows, np.arange(len(targets))].sum(axis=1)
    k = int(np.argmax(agree))
    return Fraction(total - int(agree[k]), total), k


def _search(n: int, n_max: int, refused, measure
            ) -> tuple[Fraction, Callable[[], object], bool, tuple[int, ...]]:
    """Minimize a distance over the candidates of every degree in [n, n_max].

    ``measure(N)`` returns ``(distance, witness, exact)`` for the first
    closest degree-N candidate, with ``witness`` a thunk that builds it, and
    raises GuardExceeded exactly when ``refused(N)``; no witness is built.
    Returns the bound, its witness thunk, whether every degree was searched
    exactly, and the degrees skipped by the floor of the module
    docstring (a refused one still clears ``exact``).  A zero distance ends
    the search, exact.  ``n_max < n`` raises ValueError, not GuardExceeded.
    """
    if n_max < n:
        raise ValueError(f"n_max {n_max} is below the input degree {n}")
    best = make_witness = None
    exact = True
    skipped: list[int] = []
    for degree in range(n, n_max + 1):
        if best is not None and best <= 1 - Fraction(n, degree):
            skipped.append(degree)
            exact = exact and not refused(degree)
            continue
        try:
            d, witness, d_exact = measure(degree)
        except GuardExceeded:
            exact = False
            continue
        exact = exact and d_exact
        if best is None or d < best:
            best, make_witness = d, witness
            if best == 0:   # exact whatever the guards did: no degree goes below 0
                return best, make_witness, True, tuple(skipped)
    if best is None:
        raise GuardExceeded("no degree could be searched; raise the guards")
    return best, make_witness, exact, tuple(skipped)


_TRIVIAL = Presentation(0, ())   # one homomorphism: the identity cochain's orbit


def _orbit_search(alpha: Cochain1, presentation: Presentation,
                  generator_edges: Sequence[int], n_max: int, hom_guard: int,
                  align_guard: int) -> tuple[Fraction, Callable, bool, tuple[int, ...]]:
    """``_search`` over the relabeling orbits of tree-trivial cochains: those
    with the images of a homomorphism of ``presentation`` on
    ``generator_edges`` and the identity elsewhere.  A degree is refused when
    either guard refuses it.

    A conjugate g^-1 cand g is cand acted on by the constant 0-cochain g, so
    it could only tie, and ties keep the first minimum: only the first
    candidate of each conjugacy class is aligned, and all of a degree's
    representatives are aligned together by ``_align_representatives``.
    When the alignment guard refuses a degree (it depends on the degree
    alone), every candidate is measured at the identity alignment and the
    result is flagged inexact.
    """
    g = skeleton_of(alpha.space)
    n, m = alpha.degree, len(g.edges)
    if not m:
        raise ValueError("the complex has no edges, so no distance is defined")
    a = alpha.rows
    positions = np.array(generator_edges, dtype=np.intp).reshape(-1) - 1

    def refused(degree: int) -> bool:
        return (_hom_guard_refuses(presentation.generator_count, degree, hom_guard)
                or alignment_guard_refuses(g.vertex_count, n, degree, align_guard))

    def measure(degree: int):
        rows, total = _homomorphisms_cached(presentation, degree, hom_guard), m * degree
        if alignment_guard_refuses(g.vertex_count, n, degree, align_guard):
            tree_fixed = int((np.delete(a, positions, axis=0) == np.arange(n)).sum())
            d, k = _closest(rows, a[positions], degree, tree_fixed, total)
            return d, lambda: Cochain1._of(alpha.space, degree, _tree_trivial(
                rows[k:k + 1], generator_edges, m, degree)[0]), False
        reps = _tree_trivial(rows[_class_representatives(rows, degree)],
                             generator_edges, m, degree)
        best, k, flat = _align_representatives(g, a, reps)
        return (Fraction(total - best, total),
                lambda: _relabeling(alpha.space, reps[k], n, flat)[1], True)
    return _search(n, n_max, refused, measure)


def _align_representatives(g: Graph, a: np.ndarray, reps: np.ndarray) -> tuple[int, int, int]:
    """The most agreements of the 0-based (edges, n) images ``a`` with a
    relabeling of one of the (count, edges, big) candidates ``reps``, and the
    first (candidate, flat index of ``_orbit_agreements``) attaining it: what
    a loop over the candidates that keeps strictly better ones returns.

    ``reps[0]`` must be the identity cochain, the extension of the trivial
    homomorphism, which comes first among the homomorphisms: it is aligned
    with vertex 1 pinned.  The others go in blocks of at most max(P^V,
    ``_ALIGN_BLOCK``) tensor entries, one kernel call and one first argmax
    per block, and no block runs once every point of every edge agrees.
    """
    best, flat = _orbit_agreements(g, a, reps[0], pinned=True)
    where = (0, flat)
    size = math.perm(reps.shape[-1], a.shape[1]) ** g.vertex_count
    step = max(1, max(size, _ALIGN_BLOCK) // size)
    for start in range(1, len(reps), step):
        if best == a.size:
            break
        agree, flat = _orbit_agreements(g, a, reps[start:start + step])
        if agree > best:
            best, where = agree, (start + flat // size, flat % size)
    return (best, *where)


def global_defect(kind: str, obj, n_max: int | None = None, *,
                  root: int = 1, tree: frozenset[int] | None = None,
                  hom_guard: int = DEFAULT_HOM_GUARD,
                  align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> GlobalDefectResult:
    """Upper bound on the distance to the nearest valid object of degree <= n_max.

    Every kind skips the degrees that the floor of the module docstring rules
    out and lists them in ``degrees_skipped``, and stops at a zero bound,
    which no degree can improve on, labeled exact.  Homomorphisms stay Sym(N)
    row indices throughout; Permutations are built for the witness only.  An
    ``n_max`` below the input degree raises ValueError.

    * ``hom``:    obj = (Presentation, images); minimizes the generator-average
      distance over every homomorphism of every degree in [n, n_max], as one
      agreement count over all of them per degree.
    * ``cocycle``: obj = Cochain1 on a complex; one ``_orbit_search`` whose
      candidate cocycles are the tree-trivial extensions of homomorphisms of
      the spanning-tree presentation; the distance to each is minimized over
      all 0-cochain relabelings, which sweeps the entire cocycle set of each
      degree.  Conjugate homomorphisms give candidates in one relabeling
      orbit, so only the first candidate of each conjugacy class is aligned.
    * ``cover``:  obj = (Covering, PolygonalComplex); the cocycle result on the
      encoding cochain, with the witness as a covering.  The bound is the edit
      distance to that covering (checked by the tests and by ``permstab
      equiv``).
    """
    if kind == "hom":
        p, images = obj
        if not images:
            raise ValueError("need at least one generator image to fix the degree")
        if len({q.degree for q in images}) != 1:
            raise ValueError("generator images must share one degree")
        if len(images) != p.generator_count:
            raise ValueError("need one image per generator")
        n = images[0].degree
        cap = n + 2 if n_max is None else n_max
        targets = _images(images, n)

        def measure(degree: int):
            rows = _homomorphisms_cached(p, degree, hom_guard)
            d, k = _closest(rows, targets, degree, 0, len(images) * degree)
            return d, lambda: _permutations(_sym(degree)[0][rows[k]]), True

        best, wit, exact, skipped = _search(
            n, cap, lambda degree: _hom_guard_refuses(p.generator_count, degree, hom_guard),
            measure)
    elif kind == "cocycle":
        if not isinstance(obj.space, PolygonalComplex):
            raise ValueError("cocycle global defect needs a polygonal complex")
        cap = obj.degree + 2 if n_max is None else n_max
        fp = fundamental_presentation(obj.space, root, tree)
        best, wit, exact, skipped = _orbit_search(obj, fp.presentation, fp.generator_edges,
                                                  cap, hom_guard, align_guard)
    elif kind == "cover":
        c, x = obj
        inner = global_defect("cocycle", covering_to_cochain(c, x), n_max, root=root,
                              tree=tree, hom_guard=hom_guard, align_guard=align_guard)
        return replace(inner, kind="cover", witness=cochain_to_covering(inner.witness))
    else:
        raise ValueError(f"unknown global defect kind {kind!r}")
    return GlobalDefectResult(kind, best, wit(), cap,
                              "exact-within-cap" if exact else "heuristic", skipped)


def distance_to_coboundaries(alpha: Cochain1, n_max: int | None = None,
                             align_guard: int = DEFAULT_ALIGNMENT_GUARD
                             ) -> tuple[Fraction, Cochain1, bool]:
    """Distance from alpha to the coboundary set, searched up to degree n_max.

    Coboundaries of degree N are exactly the relabelings of the identity
    cochain, the tree-trivial extension of the one homomorphism of
    ``_TRIVIAL``, so this is one ``_orbit_search``: one alignment per degree.
    """
    cap = alpha.degree + 2 if n_max is None else n_max
    best, wit, exact, _ = _orbit_search(alpha, _TRIVIAL, (), cap, DEFAULT_HOM_GUARD, align_guard)
    return best, wit(), exact


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectralReport:
    k: int
    lambda2: float
    gamma: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges:
        m[u - 1, v - 1] += 1
        m[v - 1, u - 1] += 1
    return m


def _regularity(g: Graph) -> int:
    degs = {len(st) for st in vertex_stars(g)}
    if len(degs) != 1:
        raise ValueError(f"graph is not regular: degrees {sorted(degs)}")
    return degs.pop()


def spectral_gap(g: Graph) -> SpectralReport:
    """Normalized spectral gap (k - lambda2)/k of a connected regular graph.

    A loop contributes 2 to its vertex degree and 2 to the adjacency diagonal,
    consistent with counting directed edges.
    """
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    k = _regularity(g)
    eigs = np.linalg.eigvalsh(adjacency_matrix(g))
    lam2 = float(eigs[-2]) if len(eigs) >= 2 else float(eigs[-1])
    return SpectralReport(k, lam2, (k - lam2) / k)


def poincare_inequality_check(g: Graph, values: np.ndarray) -> tuple[float, float, bool]:
    """Edge-average energy vs gamma times the pair-average energy.

    values has one row per vertex (vectors in any dimension); returns
    (lhs, rhs, lhs >= rhs - 1e-9).
    """
    gamma = spectral_gap(g).gamma
    vals = np.asarray(values, dtype=float)
    edge_sq = [float(np.sum((vals[u - 1] - vals[v - 1]) ** 2)) for u, v in g.edges]
    lhs = sum(edge_sq) / len(edge_sq)
    diffs = vals[:, None, :] - vals[None, :, :]
    rhs = gamma * float(np.mean(np.sum(diffs ** 2, axis=2)))
    return lhs, rhs, lhs >= rhs - 1e-9


# ---------------------------------------------------------------------------
# distance to locally constant 0-cochains


def _component_agreements(rows: np.ndarray) -> int:
    """Max total agreements of 0-based (count, n) rows with one constant sigma in Sym(n).

    Maximizing sum_x |{i : rows[x](i) = sigma(i)}| over sigma is an
    assignment problem on the (point, image) count matrix; integer costs keep
    it exact.  scipy is imported here, the one place that uses it, so that
    importing permstab does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    n = rows.shape[1]
    cost = np.bincount((np.arange(n) * n + rows).ravel(), minlength=n * n).reshape(n, n)
    return int(cost[linear_sum_assignment(cost, maximize=True)].sum())


def distance_to_constants(b: Cochain0, per_component: bool) -> Fraction:
    """Distance to constant (or locally constant) 0-cochains of degree >= n.

    The agreement optimum is independent of the target degree while the
    normalization grows with it, so the minimum always lands at degree n.
    """
    g = skeleton_of(b.space)
    n = b.degree
    groups = [sorted(comp) for comp in components(g)] if per_component \
        else [list(range(1, g.vertex_count + 1))]
    agree = sum(_component_agreements(b.rows[np.asarray(grp) - 1]) for grp in groups)
    return Fraction(g.vertex_count * n - agree, g.vertex_count * n)


@dataclass(frozen=True)
class ZeroDimBoundReport:
    lhs: Fraction
    rhs: float
    holds: bool


def zero_dim_bound_check(g: Graph, b: Cochain0) -> ZeroDimBoundReport:
    """Check d(b, locally-constant) <= ||delta b|| / gamma on a regular graph.

    The left side is exact (cocycles of a connected graph are the constants);
    the right side is the coboundary edge norm over the float spectral gap.
    """
    if skeleton_of(b.space) != g:
        raise ValueError("cochain does not live on the given graph")
    report = spectral_gap(g)
    lhs = distance_to_constants(b, per_component=False)
    rhs = float(edge_norm(coboundary0(b))) / report.gamma
    return ZeroDimBoundReport(lhs, rhs, float(lhs) <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# Cheeger constants


@dataclass(frozen=True)
class CheegerReport:
    dimension: int
    variant: str  # classical | cocycle | coboundary
    coeff_cap: int
    value: Fraction
    witness: object
    # "heuristic" when a dimension-1 denominator came from a guarded search:
    # such a distance may be too large, which makes the ratio too small
    exactness: str = "exact-within-cap"


def _classical_cheeger(g: Graph) -> CheegerReport:
    if g.vertex_count < 2:
        raise ValueError("classical Cheeger constant needs at least two vertices")

    def ratio(aset: frozenset[int]) -> Fraction:
        cut = sum(1 for u, v in g.edges if (u in aset) != (v in aset))
        return Fraction(cut, min(len(aset), g.vertex_count - len(aset)))

    # min keeps the first minimizer, in order of size and then of combinations
    best = min((frozenset(s) for size in range(1, g.vertex_count // 2 + 1)
                for s in itertools.combinations(range(1, g.vertex_count + 1), size)), key=ratio)
    return CheegerReport(0, "classical", 0, ratio(best), best)


def cheeger(space: PolygonalComplex | Graph, dimension: int = 0,
            variant: str = "cocycle", coeff_cap: int = 2, *,
            enum_guard: int = DEFAULT_ENUM_GUARD,
            hom_guard: int = DEFAULT_HOM_GUARD,
            align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> CheegerReport:
    """Expansion constants as minima of ||delta a|| over distance to (co)cycles.

    ``classical`` is the exact edge-expansion minimum over vertex subsets, in
    dimension 0 only.
    The dimension 0/1 variants minimize over cochains with coefficients
    Sym(2)..Sym(coeff_cap); with a finite coefficient cap the result is an
    upper bound on the infimum over all permutation coefficients.  Both sides
    of every ratio are invariant under the 0-cochain action, so one cochain
    per orbit is swept, in product order, and ``enum_guard`` bounds their
    count per degree k: in dimension 0 the cochains with b(1) = id, k!^(V-1);
    in dimension 1 the tree-trivial cochains over the spanning tree of
    ``fundamental_presentation(space)``, k!^(E-V+1), which needs a connected
    skeleton.  The witness is the first minimizing representative.
    Dimension-1 distances search target degrees up to degree + 2,
    global_defect's default, the cocycle variant over that same presentation;
    ``exactness`` is ``heuristic`` when any of those searches tripped a guard.
    """
    if variant == "classical":
        if dimension != 0:
            raise ValueError("the classical Cheeger constant has dimension 0 only")
        return _classical_cheeger(skeleton_of(space))
    if variant not in ("cocycle", "coboundary"):
        raise ValueError(f"unknown variant {variant!r}")
    if dimension not in (0, 1):
        raise ValueError("dimension must be 0 or 1")
    if coeff_cap < 2:
        raise ValueError("coefficient cap must be at least 2")
    g = skeleton_of(space)
    if dimension == 0:
        cells, free = g.vertex_count, range(2, g.vertex_count + 1)
    elif not isinstance(space, PolygonalComplex) or not space.polygons:
        raise ValueError("dimension-1 Cheeger constants need polygons")
    else:
        fp = fundamental_presentation(space)
        cells, free = len(g.edges), fp.generator_edges
    best: Fraction | None = None
    best_witness = None
    exact = True
    for degree in range(2, coeff_cap + 1):
        if math.factorial(degree) ** len(free) > enum_guard:
            raise GuardExceeded(
                f"{math.factorial(degree)}^{len(free)} orbit representatives exceed guard")
        for chosen in itertools.product(range(math.factorial(degree)), repeat=len(free)):
            a = (Cochain0 if dimension == 0 else Cochain1)._of(space, degree, _tree_trivial(
                np.array([chosen], dtype=np.intp), free, cells, degree)[0])
            num = edge_norm(coboundary0(a)) if dimension == 0 else cochain_norm(a)
            # a cocycle, or the identity: the one coboundary among the representatives
            if (num == 0) if variant == "cocycle" else not any(chosen):
                continue
            if dimension == 0:
                den = distance_to_constants(a, per_component=variant == "cocycle")
            else:
                # the bound alone: the witness thunk is never called
                den, _, den_exact, _ = (
                    _orbit_search(a, fp.presentation, free, degree + 2, hom_guard, align_guard)
                    if variant == "cocycle" else
                    _orbit_search(a, _TRIVIAL, (), degree + 2, DEFAULT_HOM_GUARD, align_guard))
                exact = exact and den_exact
            ratio = num / den
            if best is None or ratio < best:
                best, best_witness = ratio, a
    if best is None:
        raise ValueError("no admissible cochain; the constant is an empty infimum")
    return CheegerReport(dimension, variant, coeff_cap, best, best_witness,
                         "exact-within-cap" if exact else "heuristic")


# ---------------------------------------------------------------------------
# cohomology vanishing checks


@dataclass(frozen=True)
class H0Report:
    vanishes: bool
    component_count: int
    witness: Cochain0 | None  # a locally constant, non-constant cochain


def h0_vanishing_check(space: PolygonalComplex | Graph) -> H0Report:
    """0-cocycles are the locally constant cochains, so vanishing means
    connectivity; on a disconnected graph a two-valued witness is returned."""
    g = skeleton_of(space)
    comps = components(g)
    if len(comps) == 1:
        return H0Report(True, 1, None)
    first = min(comps, key=min)
    witness = Cochain0._of(space, 2, np.array([[0, 1] if v in first else [1, 0]
                                               for v in range(1, g.vertex_count + 1)]))
    return H0Report(False, len(comps), witness)


@dataclass(frozen=True)
class H1Report:
    degree: int
    vanishes: bool
    homomorphism_count: int
    nontrivial_count: int
    witness: Cochain1 | None  # a cocycle that is not a coboundary


def h1_vanishing_check(x: PolygonalComplex, n_cap: int, *, root: int = 1,
                       tree: frozenset[int] | None = None,
                       hom_guard: int = DEFAULT_HOM_GUARD) -> tuple[H1Report, ...]:
    """Per degree N <= n_cap, decide whether every 1-cocycle is a coboundary.

    Every cocycle is a relabeling of the tree-trivial extension of a
    homomorphism of the spanning-tree presentation.  On a connected complex a
    tree-trivial cochain is a coboundary only when it is the identity, so H1
    vanishes at degree N exactly when the only homomorphism is the trivial
    one; the witness is the extension of the first nontrivial homomorphism.
    """
    if n_cap < 2:
        raise ValueError(f"n_cap {n_cap} is below 2, so no degree can be checked")
    fp = fundamental_presentation(x, root, tree)
    reports = []
    for degree in range(2, n_cap + 1):
        rows = _homomorphisms_cached(fp.presentation, degree, hom_guard)
        nontrivial = rows[rows.any(axis=1)]   # row 0 of _sym is the identity
        witness = None if not len(nontrivial) else Cochain1._of(x, degree, _tree_trivial(
            nontrivial[:1], fp.generator_edges, len(x.skeleton.edges), degree)[0])
        reports.append(H1Report(degree, not len(nontrivial), len(rows), len(nontrivial), witness))
    return tuple(reports)


# ---------------------------------------------------------------------------
# empirical stability profile


@dataclass(frozen=True)
class ProfileRow:
    level: float
    sample: int
    local_defect: Fraction
    global_upper: Fraction
    exactness: str


@dataclass(frozen=True)
class ProfileResult:
    kind: str
    seed: int
    generator: str
    rows: tuple[ProfileRow, ...]

    def to_csv(self) -> str:
        lines = [f"# seed={self.seed} generator={self.generator} kind={self.kind}",
                 "level,sample,local_defect,global_defect_upper,exactness"]
        for r in self.rows:
            lines.append(f"{r.level:.12g},{r.sample},"
                         f"{r.local_defect.numerator}/{r.local_defect.denominator},"
                         f"{r.global_upper.numerator}/{r.global_upper.denominator},"
                         f"{r.exactness}")
        return "\n".join(lines) + "\n"


def _corrupt_rows(rows: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """rows, each redrawn with probability level as random_permutation draws."""
    out = rows.copy()
    for i in range(len(out)):
        if rng.random() < level:
            out[i] = rng.permutation(out.shape[1])
    return out


def stability_profile(obj: PolygonalComplex | Presentation, degree_n: int,
                      corruption_grid: Sequence[float], samples: int, seed: int,
                      n_max: int | None = None, *, root: int = 1,
                      hom_guard: int = DEFAULT_HOM_GUARD,
                      align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> ProfileResult:
    """Local defect vs global-defect upper bound on randomly corrupted instances.

    Valid objects (cocycles, or homomorphisms for a presentation input) are
    drawn at random, each edge/generator value is resampled independently with
    the grid probability, a level in [0, 1], and both defects of the result
    are recorded.  Fully deterministic given the seed.
    """
    if samples < 1 or len(corruption_grid) == 0:
        raise ValueError(f"a profile needs at least one sample and one corruption level, "
                         f"got samples {samples} and {len(corruption_grid)} levels")
    for level in corruption_grid:
        if not 0 <= level <= 1:
            raise ValueError(f"corruption level {level} is outside [0, 1]")
    cap = degree_n + 2 if n_max is None else n_max
    kind = "cocycle" if isinstance(obj, PolygonalComplex) else "hom"
    fp = fundamental_presentation(obj, root) if kind == "cocycle" else None
    homs = _homomorphisms_cached(fp.presentation if fp else obj, degree_n, hom_guard)
    rows = []
    row_index = 0
    for level in corruption_grid:
        for sample in range(samples):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(row_index,))))
            base = homs[int(rng.integers(len(homs)))]   # _sym(degree_n) rows
            if kind == "cocycle":
                start = Cochain1._of(obj, degree_n, _tree_trivial(
                    base[None], fp.generator_edges, len(obj.skeleton.edges), degree_n)[0])
                beta = Cochain0._of(obj, degree_n, np.array(
                    [rng.permutation(degree_n) for _ in range(obj.skeleton.vertex_count)],
                    dtype=np.intp))
                corrupted = Cochain1._of(obj, degree_n, _corrupt_rows(
                    act0on1(beta, start).rows, level, rng))
                local = cochain_norm(corrupted)
                res = global_defect("cocycle", corrupted, cap, root=root,
                                    hom_guard=hom_guard, align_guard=align_guard)
            else:
                corrupted_imgs = _permutations(_corrupt_rows(_sym(degree_n)[0][base],
                                                             level, rng))
                local = hom_local_defect(obj, corrupted_imgs).value
                res = global_defect("hom", (obj, corrupted_imgs), cap,
                                    hom_guard=hom_guard)
            rows.append(ProfileRow(float(level), sample, local,
                                   res.upper_bound, res.exactness))
            row_index += 1
    return ProfileResult(kind, seed, GENERATOR_ID, tuple(rows))
