"""Polygonal complexes: graphs with orientation-closed sets of closed paths.

A polygon class stores the full set of its orientations (shifts and
inverses), a canonical representative (lexicographically least orientation
under the signed order -1 < 1 < -2 < 2 < ...) used for identity and
deduplication, and the representative it was built from, which is what
presentation round-trips preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import perm
from .graphs import (Graph, ValidationReport, check_path, is_connected,
                     is_cyclically_reduced, path_is_closed, spanning_tree,
                     tree_paths_to_root, validate_graph)

def _signed_key(s: int) -> tuple[int, int]:
    return (abs(s), 1 if s > 0 else 0)


def _word_key(word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(_signed_key(s) for s in word)


@dataclass(frozen=True)
class PolygonClass:
    rep: tuple[int, ...]
    canonical: tuple[int, ...]
    orientations: frozenset[tuple[int, ...]]

    @property
    def length(self) -> int:
        return len(self.rep)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolygonClass) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)


def polygon_orbit(g: Graph, path: Sequence[int]) -> PolygonClass:
    """All shifts and inverses of a closed cyclically reduced path, as a set.

    Degenerate polygons (periodic or palindromic) have fewer than 2*length
    distinct orientations; the orbit is stored as the set of distinct ones.
    """
    p = check_path(g, path)
    if not p:
        raise ValueError("polygons must be nonempty closed paths")
    if not path_is_closed(g, p):
        raise ValueError("polygon path must be closed")
    if not is_cyclically_reduced(g, p):
        raise ValueError("polygon path must be cyclically reduced")
    shifts = [p[k:] + p[:k] for k in range(len(p))]
    orientations = set(shifts) | {perm.invert_word(w) for w in shifts}
    canonical = min(orientations, key=_word_key)
    return PolygonClass(p, canonical, frozenset(orientations))


@dataclass(frozen=True)
class PolygonalComplex:
    skeleton: Graph
    polygons: tuple[PolygonClass, ...]


def validate_complex(x: PolygonalComplex) -> ValidationReport:
    rep = validate_graph(x.skeleton)
    if not rep.ok:
        return rep
    seen: dict[tuple[int, ...], int] = {}
    for idx, pc in enumerate(x.polygons):
        label = f"polygon {idx}"
        try:
            orbit = polygon_orbit(x.skeleton, pc.rep)
        except ValueError as exc:
            return ValidationReport(False, f"{label}: {exc}")
        if orbit.orientations != pc.orientations:
            return ValidationReport(False, f"{label}: orientation set not closed under shift/inverse")
        if orbit.canonical != pc.canonical:
            return ValidationReport(False, f"{label}: canonical representative not minimal")
        if pc.canonical in seen:
            return ValidationReport(False, f"{label}: duplicate pasted path with polygon {seen[pc.canonical]}")
        seen[pc.canonical] = idx
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rels = tuple(perm.check_word(r, self.generator_count) for r in self.relators)
        object.__setattr__(self, "relators", rels)


def presentation_complex(p: Presentation) -> PolygonalComplex:
    """Single vertex, one loop per generator, one polygon class per relator.

    Relators are freely and cyclically reduced first; a relator that reduces
    to the empty word is rejected, as is a pair of relators with the same
    orbit (polygons are identified by their pasted path).
    """
    skeleton = Graph(1, tuple((1, 1) for _ in range(p.generator_count)))
    polys = []
    seen: set[tuple[int, ...]] = set()
    for r in p.relators:
        reduced = perm.cyclic_reduce(r)
        if not reduced:
            raise ValueError(f"relator {list(r)} reduces to the empty word")
        pc = polygon_orbit(skeleton, reduced)
        if pc.canonical in seen:
            raise ValueError(f"relator {list(r)} duplicates an earlier pasted path")
        seen.add(pc.canonical)
        polys.append(pc)
    return PolygonalComplex(skeleton, tuple(polys))


@dataclass(frozen=True)
class FundamentalPresentation:
    presentation: Presentation
    tree: frozenset[int]
    root: int
    generator_edges: tuple[int, ...]  # generator i+1 <-> stored orientation of this edge id


def fundamental_presentation(x: PolygonalComplex, root: int = 1,
                             tree: frozenset[int] | None = None) -> FundamentalPresentation:
    """Presentation of the fundamental group from retracting a spanning tree.

    Generators are the non-tree edges (stored orientation); each polygon class
    contributes one relator: its stored representative with tree edges deleted
    and reversed generators replaced by inverses.  Relators of a presentation
    complex round-trip verbatim since the tree is empty there.
    """
    if not is_connected(x.skeleton):
        raise ValueError("skeleton is disconnected")
    if tree is None:
        tree = spanning_tree(x.skeleton, root)
    else:
        tree = frozenset(tree)
        tree_paths_to_root(x.skeleton, tree, root)  # validates spanning-tree-ness
    gen_edges = tuple(k for k in range(1, len(x.skeleton.edges) + 1) if k not in tree)
    gen_index = {k: i + 1 for i, k in enumerate(gen_edges)}
    relators = [tuple(gen_index[abs(s)] if s > 0 else -gen_index[abs(s)]
                      for s in pc.rep if abs(s) not in tree) for pc in x.polygons]
    return FundamentalPresentation(
        Presentation(len(gen_edges), tuple(relators)), tree, root, gen_edges)


# ---------------------------------------------------------------------------
# weighting systems


@dataclass(frozen=True)
class WeightingSystem:
    """Polygon distribution mu2, the induced edge distribution mu1, and E[length].

    mu1 is proportional to the expected occurrence count of each unoriented
    edge in a mu2-random polygon; the normalizing constant is exactly the
    expected polygon length.
    """

    mu2: tuple[Fraction, ...]
    mu1: tuple[Fraction, ...]  # indexed by unoriented edge id - 1
    expected_length: Fraction


def _check_distribution(mu: Sequence[Fraction], size: int, what: str) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(v) for v in mu)
    if len(vec) != size:
        raise ValueError(f"{what} must have length {size}")
    if any(v < 0 for v in vec):
        raise ValueError(f"{what} has a negative entry")
    if sum(vec) != 1:
        raise ValueError(f"{what} must sum to 1 exactly")
    return vec


def uniform_distribution(size: int) -> tuple[Fraction, ...]:
    if size == 0:
        raise ValueError("cannot build a distribution on an empty set")
    return tuple(Fraction(1, size) for _ in range(size))


def occurrence_count(pc: PolygonClass, edge_id: int) -> int:
    """Number of times the unoriented edge appears along the polygon.

    Computed on the canonical representative, but any orientation gives the
    same count.
    """
    return sum(1 for s in pc.canonical if abs(s) == edge_id)


def polygon_weights(x: PolygonalComplex, mu2: Sequence[Fraction] | None = None) -> WeightingSystem:
    if not x.polygons:
        raise ValueError("complex has no polygons; the edge distribution is undefined")
    if mu2 is None:
        mu2 = uniform_distribution(len(x.polygons))
    mu2 = _check_distribution(mu2, len(x.polygons), "mu2")
    m = len(x.skeleton.edges)
    w = [Fraction(0) for _ in range(m)]
    for weight, pc in zip(mu2, x.polygons):
        for e in range(1, m + 1):
            w[e - 1] += weight * occurrence_count(pc, e)
    total = sum(w)
    if total == 0:
        raise ValueError("mu2 gives zero expected length")
    mu1 = tuple(v / total for v in w)
    return WeightingSystem(mu2, mu1, total)
