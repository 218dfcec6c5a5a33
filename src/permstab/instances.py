"""Bundled instance families: standard graphs, complexes, and test corpora."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cochains import Cochain0, Cochain1, cochain_norm, skeleton_of
from .complexes import (PolygonalComplex, Presentation, polygon_orbit,
                        presentation_complex)
from .graphs import Graph
from .perm import Permutation, random_permutation


# ---------------------------------------------------------------------------
# graphs


def cycle_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return Graph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))


def complete_graph(d: int) -> Graph:
    edges = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return Graph(d, tuple(edges))


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(10, tuple(outer + spokes + inner))


def cube_graph() -> Graph:
    # vertices are 3-bit strings 1..8 (bit order fixed), edges flip one bit
    return Graph(8, tuple((v + 1, (v ^ bit) + 1) for v in range(8) for bit in (1, 2, 4)
                          if v < v ^ bit))


# ---------------------------------------------------------------------------
# complexes


def triangle_complex() -> PolygonalComplex:
    g = Graph(3, ((1, 2), (2, 3), (3, 1)))
    return PolygonalComplex(g, (polygon_orbit(g, (1, 2, 3)),))


def bouquet_complex(relators: Sequence[Sequence[int]], generators: int | None = None) -> PolygonalComplex:
    if generators is None:
        generators = max((abs(s) for r in relators for s in r), default=1)
    return presentation_complex(Presentation(generators, tuple(tuple(r) for r in relators)))


def bouquet_a3() -> PolygonalComplex:
    return bouquet_complex([[1, 1, 1]])


def torus_complex() -> PolygonalComplex:
    return presentation_complex(Presentation(2, ((1, 2, -1, -2),)))


def complete_edge_ids(d: int) -> dict[tuple[int, int], int]:
    return {edge: k for k, edge in enumerate(complete_graph(d).edges, start=1)}


def complete_complex(d: int) -> PolygonalComplex:
    """Complete graph on d vertices with a triangle polygon on every 3 vertices."""
    if d < 3:
        raise ValueError("complete complex needs at least 3 vertices")
    g = complete_graph(d)
    ids = complete_edge_ids(d)
    return PolygonalComplex(g, tuple(
        polygon_orbit(g, (ids[(i, j)], ids[(j, k)], -ids[(i, k)]))
        for i, j, k in itertools.combinations(range(1, d + 1), 3)))


def path_tree(d: int) -> frozenset[int]:
    """The path 1-2-...-d as a spanning tree of the complete graph edge ids."""
    ids = complete_edge_ids(d)
    return frozenset(ids[(i, i + 1)] for i in range(1, d))


def corpus_complexes() -> dict[str, PolygonalComplex]:
    return {
        "bouquet-a3": bouquet_a3(),
        "torus": torus_complex(),
        "triangle": triangle_complex(),
        "complete-4": complete_complex(4),
        "complete-5": complete_complex(5),
        "complete-6": complete_complex(6),
    }


# ---------------------------------------------------------------------------
# the cut instance on the complete complex with the path tree


@dataclass(frozen=True)
class CutInstance:
    complex: PolygonalComplex
    tree: frozenset[int]
    root: int
    cochain: Cochain1
    presentation: Presentation
    generator_edges: tuple[int, ...]
    images: tuple[Permutation, ...]


def cut_instance(d: int) -> CutInstance:
    """The near-cut cochain on the complete complex with the path spanning tree.

    Off-tree edges crossing the balanced cut {1..d/2} vs the rest carry the
    transposition, everything else (including the one tree edge inside the
    cut) is trivial.  Only triangles through that tree edge are violated.
    """
    from .complexes import fundamental_presentation

    x = complete_complex(d)
    tree = path_tree(d)
    ids = complete_edge_ids(d)
    half = d // 2
    flip = Permutation([2, 1])
    ident = Permutation.identity(2)
    values = []
    for (i, j), k in sorted(ids.items(), key=lambda kv: kv[1]):
        crossing = (i <= half) != (j <= half)
        values.append(flip if crossing and k not in tree else ident)
    alpha = Cochain1(x, 2, tuple(values))
    fp = fundamental_presentation(x, 1, tree)
    images = tuple(alpha.values[k - 1] for k in fp.generator_edges)
    return CutInstance(x, tree, 1, alpha, fp.presentation, fp.generator_edges, images)


# ---------------------------------------------------------------------------
# linearity-test / parity-check instances


def blr_matrix(bits: int = 2) -> list[list[int]]:
    """Parity rows f(x) + f(y) + f(x+y) = 0 over all pairs x, y in F_2^bits.

    Columns are indexed by the 2^bits points in binary order.
    """
    size = 1 << bits
    rows = []
    for x in range(size):
        for y in range(size):
            row = [0] * size
            for point in (x, y, x ^ y):
                row[point] ^= 1
            rows.append(row)
    return rows


def linear_truth_tables(bits: int = 2) -> list[list[int]]:
    """Truth tables of all linear maps F_2^bits -> F_2 (the parity functions)."""
    size = 1 << bits
    return [[bin(mask & point).count("1") % 2 for point in range(size)]
            for mask in range(size)]


# ---------------------------------------------------------------------------
# random objects


def random_images(count: int, n: int, rng: np.random.Generator) -> tuple[Permutation, ...]:
    return tuple(random_permutation(n, rng) for _ in range(count))


def random_cochain0(space, n: int, rng: np.random.Generator) -> Cochain0:
    return Cochain0(space, n, random_images(skeleton_of(space).vertex_count, n, rng))


def random_cochain1(space, n: int, rng: np.random.Generator) -> Cochain1:
    return Cochain1(space, n, random_images(len(skeleton_of(space).edges), n, rng))


def random_graph(vertices: int, edge_count: int, rng: np.random.Generator) -> Graph:
    edges = tuple((int(rng.integers(1, vertices + 1)), int(rng.integers(1, vertices + 1)))
                  for _ in range(edge_count))
    return Graph(vertices, edges)


def random_cochain_at_defect(x: PolygonalComplex, n: int, target: Fraction,
                             tol: Fraction, rng: np.random.Generator,
                             max_tries: int = 10000) -> tuple[Cochain1, Fraction]:
    """Rejection-sample a corrupted cochain whose exact local defect is within
    tol of the target; returns it together with the achieved defect.  Raises
    ValueError when no draw in max_tries lands there, as when no degree-n
    cochain on x has such a defect."""
    target = Fraction(target)
    tol = Fraction(tol)
    m = len(x.skeleton.edges)
    for _ in range(max_tries):
        vals = [Permutation.identity(n)] * m
        for i in range(m):
            if rng.random() < float(target):
                vals[i] = random_permutation(n, rng)
        cand = Cochain1(x, n, tuple(vals))
        defect = cochain_norm(cand)
        if abs(defect - target) <= tol:
            return cand, defect
    raise ValueError(f"could not hit defect {target} within {tol} in {max_tries} tries")
