"""Global defects, homomorphism enumeration, spectral gaps, Cheeger constants.

Global defects are infima over targets of every degree; here the search runs
over degrees N in [n, n_max] (default n + 2) and results are always labeled:
``exact-within-cap`` means the minimum over all valid objects of degree at
most n_max was found, ``heuristic`` means some search guard tripped and the
value is only a best-found upper bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cochains import (Cochain0, Cochain1, act0on1, coboundary0,
                       cochain_distance, cochain_norm, cochain_to_covering,
                       covering_to_cochain, edge_norm, identity_cochain1,
                       is_coboundary, orbit_distance, skeleton_of)
from .complexes import (FundamentalPresentation, PolygonalComplex,
                        Presentation, fundamental_presentation)
from .errors import GuardExceeded
from .graphs import Graph, components, is_connected, vertex_stars
from .perm import (Permutation, all_permutations,
                   hamming_distance_with_errors, random_permutation)
from .testers import GENERATOR_ID, hom_local_defect

DEFAULT_HOM_GUARD = 10 ** 8
DEFAULT_ALIGNMENT_GUARD = 10 ** 6
DEFAULT_EDIT_GUARD = 10 ** 6
DEFAULT_ENUM_GUARD = 10 ** 6


# ---------------------------------------------------------------------------
# homomorphism enumeration


@lru_cache(maxsize=512)
def _homomorphisms_cached(p: Presentation, degree: int, guard: int) -> tuple[tuple[Permutation, ...], ...]:
    raw = math.factorial(degree) ** p.generator_count
    if raw > guard:
        raise GuardExceeded(
            f"homomorphism search space {math.factorial(degree)}^{p.generator_count} "
            f"exceeds guard {guard}")
    sym = list(all_permutations(degree))
    if p.generator_count == 0:
        return ((),)  # only empty relators can exist, and they hold vacuously
    # Sym(degree) as 0-based image rows in the order of sym, and their inverses
    images = np.array([q.images for q in sym], dtype=np.intp) - 1
    inverses = np.argsort(images, axis=1)
    ident = np.arange(degree)
    # a relator can be checked once every generator it mentions is assigned
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(p.generator_count + 1)]
    for r in p.relators:
        by_level[max((abs(s) for s in r), default=0)].append(r)
    found: list[tuple[Permutation, ...]] = []
    chosen: list[int] = []  # rows of the generators assigned so far

    def survivors(level: int) -> list[int]:
        """Rows for generator ``level`` that kill every relator closing there.

        Each relator is folded once for all rows: assigned generators are
        single rows, the new generator is the whole array.
        """
        keep = np.ones(len(sym), dtype=bool)
        for r in by_level[level]:
            acc = None
            for letter in r:
                table = images if letter > 0 else inverses
                factor = table if abs(letter) == level else table[chosen[abs(letter) - 1]]
                if acc is None:
                    acc = factor
                elif acc.ndim == 1:
                    acc = acc[factor]
                elif factor.ndim == 1:
                    acc = acc[:, factor]
                else:
                    acc = np.take_along_axis(acc, factor, axis=1)
            keep &= (acc == ident).all(axis=1)  # acc is 2-D: r mentions level
        return np.flatnonzero(keep).tolist()

    def back(level: int) -> None:
        rows = survivors(level + 1)
        if level + 1 == p.generator_count:
            prefix = tuple(sym[i] for i in chosen)
            found.extend(prefix + (sym[j],) for j in rows)
            return
        for j in rows:
            chosen.append(j)
            back(level + 1)
            chosen.pop()

    back(0)
    return tuple(found)


def enumerate_homomorphisms(p: Presentation, degree: int,
                            guard: int = DEFAULT_HOM_GUARD) -> list[tuple[Permutation, ...]]:
    """All generator assignments into Sym(degree) killing every relator.

    Backtracking in lexicographic order of image tuples.  A relator is checked
    at the level of its highest generator, for every choice of that generator
    in one batched numpy fold over the (degree!, degree) image array, and the
    search recurses over the surviving choices in ascending order.  Refuses
    when the raw search space |Sym(degree)|^generators exceeds the guard.
    """
    return list(_homomorphisms_cached(p, degree, guard))


# ---------------------------------------------------------------------------
# global defects


@dataclass(frozen=True)
class GlobalDefectResult:
    kind: str
    upper_bound: Fraction
    witness: object
    n_max_searched: int
    exactness: str  # "exact-within-cap" | "heuristic"

    def __post_init__(self) -> None:
        if not 0 <= self.upper_bound <= 1:
            raise ValueError("global defect must lie in [0, 1]")


def _images_distance(a: Sequence[Permutation], b: Sequence[Permutation]) -> Fraction:
    vals = [hamming_distance_with_errors(p, q) for p, q in zip(a, b)]
    return Fraction(sum(vals), len(vals))


def _tree_trivial_cochain(x: PolygonalComplex, fp: FundamentalPresentation,
                          images: Sequence[Permutation], degree: int) -> Cochain1:
    gen_index = {k: i for i, k in enumerate(fp.generator_edges)}
    ident = Permutation.identity(degree)
    vals = tuple(images[gen_index[k]] if k in gen_index else ident
                 for k in range(1, len(x.skeleton.edges) + 1))
    return Cochain1(x, degree, vals)


def _conjugates(a: Cochain1) -> set[tuple[tuple[int, ...], ...]]:
    """Value image tuples of every constant relabeling g^-1 a g of a cochain.

    Breadth-first search under conjugation by the generators (1 2) and
    (1 2 ... n) of Sym(n), so the cost is linear in the class size rather
    than in |Sym(n)|.
    """
    n = a.degree
    start = tuple(q.images for q in a.values)
    if n < 2:
        return {start}
    # (s^-1 c s)(i) = s^-1(c(s(i))), 1-based, for s = (1 2) and s = (1 2 ... n)
    swap = [2, 1] + list(range(3, n + 1))
    cycle = list(range(2, n + 1)) + [1]
    maps = [(swap, [0] + swap), (cycle, [0, n] + list(range(1, n)))]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for vals in frontier:
            for s, s_inv in maps:
                conj = tuple(tuple([s_inv[c[j - 1]] for j in s]) for c in vals)
                if conj not in seen:
                    seen.add(conj)
                    nxt.append(conj)
        frontier = nxt
    return seen


def _distance_to_candidates(alpha: Cochain1, candidates_per_degree, n_max: int,
                            align_guard: int) -> tuple[Fraction | None, Cochain1 | None, bool]:
    """Minimize d(alpha, beta.candidate) over degrees, candidates, relabelings.

    ``candidates_per_degree(N)`` yields tree-trivial candidate cochains of
    degree N (raising GuardExceeded when it cannot enumerate).  The relabeling
    minimum is exact via orbit_distance; when its guard trips we fall back to
    the identity alignment and flag the result heuristic.

    A conjugate g^-1 cand g is cand acted on by the constant 0-cochain g, so
    it has the same orbit and the same orbit distance.  Once a candidate is
    measured exactly its whole conjugacy class is skipped: a later conjugate
    could only tie, and ties keep the first minimum, so bound, label and
    witness are unchanged.  A candidate that fell back to the identity
    alignment covers nothing, because that distance is not orbit-invariant.
    """
    best: Fraction | None = None
    best_witness: Cochain1 | None = None
    exact = True
    for degree in range(alpha.degree, n_max + 1):
        try:
            candidates = candidates_per_degree(degree)
        except GuardExceeded:
            exact = False
            continue
        covered: set[tuple[tuple[int, ...], ...]] = set()
        for cand in candidates:
            if tuple(q.images for q in cand.values) in covered:
                continue
            try:
                res = orbit_distance(alpha, cand, guard=align_guard)
            except GuardExceeded:
                exact = False
                d, wit = cochain_distance(alpha, cand), cand
            else:
                d, wit = res.value, res.witness
                covered |= _conjugates(cand)
            if best is None or d < best:
                best, best_witness = d, wit
                if best == 0:
                    return best, best_witness, exact
    return best, best_witness, exact


def global_defect(kind: str, obj, n_max: int | None = None, *,
                  root: int = 1, tree: frozenset[int] | None = None,
                  hom_guard: int = DEFAULT_HOM_GUARD,
                  align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> GlobalDefectResult:
    """Upper bound on the distance to the nearest valid object of degree <= n_max.

    * ``hom``:    obj = (Presentation, images); minimizes the generator-average
      distance over every homomorphism of every degree in [n, n_max].
    * ``cocycle``: obj = Cochain1 on a complex; candidate cocycles are the
      tree-trivial extensions of homomorphisms of the spanning-tree
      presentation (enumerated with relators checked in one batch per
      backtracking level), and the distance to each is minimized over all
      0-cochain relabelings, which sweeps the entire cocycle set of each
      degree.  Conjugate homomorphisms give candidates in one relabeling
      orbit, so only the first candidate of each conjugacy class is aligned.
    * ``cover``:  obj = (Covering, PolygonalComplex); runs the cocycle search
      on the encoding cochain and returns the witness as a covering.  The
      bound is the edit distance to that covering (checked in the tests).
    """
    if kind == "hom":
        p, images = obj
        if len({q.degree for q in images}) != 1:
            raise ValueError("generator images must share one degree")
        n = images[0].degree
        cap = n + 2 if n_max is None else n_max
        best = best_wit = None
        exact = True
        for degree in range(n, cap + 1):
            try:
                homs = enumerate_homomorphisms(p, degree, guard=hom_guard)
            except GuardExceeded:
                exact = False
                continue
            for phi in homs:
                d = _images_distance(images, phi)
                if best is None or d < best:
                    best, best_wit = d, phi
        if best is None:
            raise GuardExceeded("no degree could be searched; raise hom_guard")
        return GlobalDefectResult("hom", best, best_wit, cap,
                                  "exact-within-cap" if exact else "heuristic")

    if kind == "cocycle":
        alpha: Cochain1 = obj
        x = alpha.space
        if not isinstance(x, PolygonalComplex):
            raise ValueError("cocycle global defect needs a polygonal complex")
        cap = alpha.degree + 2 if n_max is None else n_max
        fp = fundamental_presentation(x, root, tree)

        def candidates(degree: int):
            homs = enumerate_homomorphisms(fp.presentation, degree, guard=hom_guard)
            return [_tree_trivial_cochain(x, fp, f, degree) for f in homs]

        best, wit, exact = _distance_to_candidates(alpha, candidates, cap, align_guard)
        if best is None:
            raise GuardExceeded("no degree could be searched; raise the guards")
        return GlobalDefectResult("cocycle", best, wit, cap,
                                  "exact-within-cap" if exact else "heuristic")

    if kind == "cover":
        c, x = obj
        alpha = covering_to_cochain(c, x)
        inner = global_defect("cocycle", alpha, n_max, root=root, tree=tree,
                              hom_guard=hom_guard, align_guard=align_guard)
        return GlobalDefectResult("cover", inner.upper_bound,
                                  cochain_to_covering(inner.witness),
                                  inner.n_max_searched, inner.exactness)

    raise ValueError(f"unknown global defect kind {kind!r}")


def distance_to_coboundaries(alpha: Cochain1, n_max: int | None = None,
                             align_guard: int = DEFAULT_ALIGNMENT_GUARD
                             ) -> tuple[Fraction, Cochain1, bool]:
    """Distance from alpha to the coboundary set, searched up to degree n_max.

    Coboundaries of degree N are exactly the relabelings of the identity
    cochain, so this is one orbit-distance call per degree.
    """
    cap = alpha.degree + 2 if n_max is None else n_max
    best, wit, exact = _distance_to_candidates(
        alpha, lambda d: [identity_cochain1(alpha.space, d)], cap, align_guard)
    assert best is not None
    return best, wit, exact


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


def _component_agreements(values: Sequence[Permutation], n: int) -> int:
    """Max total agreements of the degree-n values with one constant sigma in Sym(n).

    Maximizing sum_x |{i : values[x](i) = sigma(i)}| over sigma is an
    assignment problem on the (point, image) count matrix; integer costs keep
    it exact.
    """
    cost = np.zeros((n, n), dtype=np.int64)
    for p in values:
        for i, j in enumerate(p.images, start=1):
            cost[i - 1, j - 1] += 1
    rows, cols = linear_sum_assignment(cost, maximize=True)
    return int(cost[rows, cols].sum())


def distance_to_constants(b: Cochain0, per_component: bool) -> Fraction:
    """Distance to constant (or locally constant) 0-cochains of degree >= n.

    The agreement optimum is independent of the target degree while the
    normalization grows with it, so the minimum always lands at degree n.
    """
    g = skeleton_of(b.space)
    n = b.degree
    groups = [sorted(comp) for comp in components(g)] if per_component \
        else [list(range(1, g.vertex_count + 1))]
    agree = sum(_component_agreements([b.on_vertex(v) for v in grp], n)
                for grp in groups)
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
    best = None
    best_set: frozenset[int] | None = None
    verts = list(range(1, g.vertex_count + 1))
    for size in range(1, g.vertex_count // 2 + 1):
        for subset in itertools.combinations(verts, size):
            aset = set(subset)
            cut = sum(1 for u, v in g.edges if (u in aset) != (v in aset))
            ratio = Fraction(cut, min(len(aset), g.vertex_count - len(aset)))
            if best is None or ratio < best:
                best, best_set = ratio, frozenset(aset)
    assert best is not None
    return CheegerReport(0, "classical", 0, best, best_set)


def _zero_cochains(space, degree: int) -> Iterable[Cochain0]:
    g = skeleton_of(space)
    for combo in itertools.product(list(all_permutations(degree)), repeat=g.vertex_count):
        yield Cochain0(space, degree, combo)


def _one_cochains(space, degree: int) -> Iterable[Cochain1]:
    g = skeleton_of(space)
    for combo in itertools.product(list(all_permutations(degree)), repeat=len(g.edges)):
        yield Cochain1(space, degree, combo)


def cheeger(space: PolygonalComplex | Graph, dimension: int = 0,
            variant: str = "cocycle", coeff_cap: int = 2, *,
            enum_guard: int = DEFAULT_ENUM_GUARD,
            hom_guard: int = DEFAULT_HOM_GUARD,
            align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> CheegerReport:
    """Expansion constants as minima of ||delta a|| over distance to (co)cycles.

    ``classical`` is the exact edge-expansion minimum over vertex subsets.
    The dimension 0/1 variants enumerate all cochains with coefficients
    Sym(2)..Sym(coeff_cap); with a finite coefficient cap the result is an
    upper bound on the infimum over all permutation coefficients.  Dimension-1
    distances search target degrees up to degree + 2, global_defect's default;
    ``exactness`` is ``heuristic`` when any of those searches tripped a guard.
    """
    if variant == "classical":
        return _classical_cheeger(skeleton_of(space))
    if variant not in ("cocycle", "coboundary"):
        raise ValueError(f"unknown variant {variant!r}")
    if dimension not in (0, 1):
        raise ValueError("dimension must be 0 or 1")
    if coeff_cap < 2:
        raise ValueError("coefficient cap must be at least 2")
    g = skeleton_of(space)
    if dimension == 1 and (not isinstance(space, PolygonalComplex) or not space.polygons):
        raise ValueError("dimension-1 Cheeger constants need polygons")
    best: Fraction | None = None
    best_witness = None
    exact = True
    for degree in range(2, coeff_cap + 1):
        cells = g.vertex_count if dimension == 0 else len(g.edges)
        if math.factorial(degree) ** cells > enum_guard:
            raise GuardExceeded(f"{math.factorial(degree)}^{cells} cochains exceed guard")
        if dimension == 0:
            for a in _zero_cochains(space, degree):
                num = edge_norm(coboundary0(a))
                if variant == "cocycle":
                    if num == 0:
                        continue
                    den = distance_to_constants(a, per_component=True)
                else:
                    den = distance_to_constants(a, per_component=False)
                    if den == 0:
                        continue  # a is a coboundary
                ratio = num / den
                if best is None or ratio < best:
                    best, best_witness = ratio, a
        else:
            for a in _one_cochains(space, degree):
                num = cochain_norm(a)
                if variant == "cocycle":
                    if num == 0:
                        continue
                    den, _, den_exact = _cocycle_distance(a, degree + 2, hom_guard,
                                                          align_guard)
                else:
                    if is_coboundary(a)[0]:
                        continue
                    den, _, den_exact = distance_to_coboundaries(a, degree + 2, align_guard)
                exact = exact and den_exact
                ratio = num / den
                if best is None or ratio < best:
                    best, best_witness = ratio, a
    if best is None:
        raise ValueError("no admissible cochain; the constant is an empty infimum")
    return CheegerReport(dimension, variant, coeff_cap, best, best_witness,
                         "exact-within-cap" if exact else "heuristic")


def _cocycle_distance(alpha: Cochain1, cap: int, hom_guard: int,
                      align_guard: int) -> tuple[Fraction, Cochain1, bool]:
    res = global_defect("cocycle", alpha, cap, hom_guard=hom_guard,
                        align_guard=align_guard)
    return res.upper_bound, res.witness, res.exactness == "exact-within-cap"


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
    flip = Permutation([2, 1])
    ident = Permutation.identity(2)
    witness = Cochain0(space, 2, tuple(ident if v in first else flip
                                       for v in range(1, g.vertex_count + 1)))
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
    if not is_connected(x.skeleton):
        raise ValueError("complex is disconnected")
    fp = fundamental_presentation(x, root, tree)
    reports = []
    for degree in range(2, n_cap + 1):
        homs = enumerate_homomorphisms(fp.presentation, degree, guard=hom_guard)
        nontrivial = [f for f in homs if not all(p.is_identity() for p in f)]
        witness = _tree_trivial_cochain(x, fp, nontrivial[0], degree) if nontrivial else None
        reports.append(H1Report(degree, not nontrivial, len(homs), len(nontrivial), witness))
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


def _corrupt_values(values: tuple[Permutation, ...], level: float, degree: int,
                    rng: np.random.Generator) -> tuple[Permutation, ...]:
    out = list(values)
    for i in range(len(out)):
        if rng.random() < level:
            out[i] = random_permutation(degree, rng)
    return tuple(out)


def stability_profile(obj: PolygonalComplex | Presentation, degree_n: int,
                      corruption_grid: Sequence[float], samples: int, seed: int,
                      n_max: int | None = None, *, root: int = 1,
                      hom_guard: int = DEFAULT_HOM_GUARD,
                      align_guard: int = DEFAULT_ALIGNMENT_GUARD) -> ProfileResult:
    """Local defect vs global-defect upper bound on randomly corrupted instances.

    Valid objects (cocycles, or homomorphisms for a presentation input) are
    drawn at random, each edge/generator value is resampled independently with
    the grid probability, and both defects of the result are recorded.  Fully
    deterministic given the seed.
    """
    cap = degree_n + 2 if n_max is None else n_max
    kind = "cocycle" if isinstance(obj, PolygonalComplex) else "hom"
    if kind == "cocycle":
        fp = fundamental_presentation(obj, root)
        homs = enumerate_homomorphisms(fp.presentation, degree_n, guard=hom_guard)
    else:
        homs = enumerate_homomorphisms(obj, degree_n, guard=hom_guard)
    rows = []
    row_index = 0
    for level in corruption_grid:
        for sample in range(samples):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(row_index,))))
            base = homs[int(rng.integers(len(homs)))]
            if kind == "cocycle":
                start = _tree_trivial_cochain(obj, fp, base, degree_n)
                beta = Cochain0(obj, degree_n,
                                tuple(random_permutation(degree_n, rng)
                                      for _ in range(obj.skeleton.vertex_count)))
                cocycle = act0on1(beta, start)
                corrupted = Cochain1(obj, degree_n,
                                     _corrupt_values(cocycle.values, level, degree_n, rng))
                local = cochain_norm(corrupted)
                res = global_defect("cocycle", corrupted, cap, root=root,
                                    hom_guard=hom_guard, align_guard=align_guard)
            else:
                corrupted_imgs = _corrupt_values(base, level, degree_n, rng)
                local = hom_local_defect(obj, corrupted_imgs).value
                res = global_defect("hom", (obj, corrupted_imgs), cap,
                                    hom_guard=hom_guard)
            rows.append(ProfileRow(float(level), sample, local,
                                   res.upper_bound, res.exactness))
            row_index += 1
    return ProfileResult(kind, seed, GENERATOR_ID, tuple(rows))
