import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import permstab
from permstab import instances, stability
from permstab.cochains import (Cochain0, Cochain1, act0on1, coboundary0,
                               cochain_distance, cochain_norm,
                               cochain_to_covering, edge_norm, identity_cochain1,
                               images_to_cochain, is_coboundary, orbit_distance)
from permstab.complexes import (PolygonalComplex, Presentation,
                                fundamental_presentation, polygon_orbit,
                                presentation_complex)
from permstab.errors import GuardExceeded
from permstab.graphs import Graph, edit_distance
from permstab.perm import (Permutation, all_permutations, compose,
                           evaluate_word, hamming_distance_with_errors)
from permstab.stability import (cheeger, distance_to_constants,
                                enumerate_homomorphisms, global_defect,
                                h0_vanishing_check, h1_vanishing_check,
                                poincare_inequality_check, spectral_gap,
                                stability_profile, zero_dim_bound_check)
from permstab.testers import hom_local_defect

A3 = Presentation(1, ((1, 1, 1),))
SWAP = Permutation([2, 1])


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_homomorphisms_counts():
    assert len(enumerate_homomorphisms(Presentation(2, ()), 2)) == 4
    assert len(enumerate_homomorphisms(A3, 2)) == 1
    homs3 = enumerate_homomorphisms(A3, 3)
    assert len(homs3) == 3
    assert {h[0].images for h in homs3} == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def test_enumerate_homomorphisms_order_deterministic():
    homs = enumerate_homomorphisms(Presentation(2, ()), 2)
    flat = [tuple(p.images for p in h) for h in homs]
    assert flat == sorted(flat)


def test_enumerate_homomorphisms_guard():
    with pytest.raises(GuardExceeded):
        enumerate_homomorphisms(Presentation(4, ()), 4, guard=1000)


def test_homomorphism_set_closed_under_conjugation():
    for p, deg in ((A3, 3), (Presentation(2, ((1, 2, -1, -2),)), 3)):
        homs = {tuple(q.images for q in h) for h in enumerate_homomorphisms(p, deg)}
        for h in enumerate_homomorphisms(p, deg):
            for sigma in all_permutations(deg):
                conj = tuple(compose(compose(sigma.inverse(), q), sigma).images for q in h)
                assert conj in homs


def test_enumerated_maps_are_homomorphisms():
    torus = Presentation(2, ((1, 2, -1, -2),))
    for h in enumerate_homomorphisms(torus, 4):
        assert hom_local_defect(torus, h).value == 0


@st.composite
def presentations(draw):
    gens = draw(st.integers(0, 3))
    relators = []
    for _ in range(draw(st.integers(0, 3))):
        top = draw(st.integers(0, gens))  # relators may use only low letters
        letters = [s for k in range(1, top + 1) for s in (k, -k)]
        relators.append(tuple(draw(st.lists(st.sampled_from(letters), max_size=6)))
                        if letters else ())
    return Presentation(gens, tuple(relators)), draw(st.integers(1, 4))


def _brute_force_homomorphisms(p: Presentation, degree: int) -> list:
    return [h for h in itertools.product(all_permutations(degree), repeat=p.generator_count)
            if all(not r or evaluate_word(r, h).is_identity() for r in p.relators)]


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_enumerate_homomorphisms_equals_brute_force(case):
    p, degree = case
    reference = _brute_force_homomorphisms(p, degree)
    assert enumerate_homomorphisms(p, degree) == reference


@st.composite
def pinned_presentations(draw):
    """Presentations with one-letter relators injected in a chain: each link
    is one letter once the generators pinned before it are deleted."""
    p, _ = draw(presentations())
    gens = max(p.generator_count, 1)
    order = draw(st.permutations(range(1, gens + 1)))
    chain = order[:draw(st.integers(1, gens))]
    relators = list(p.relators)
    for k, g in enumerate(chain):
        earlier = [s for h in chain[:k] for s in (h, -h)]
        word = draw(st.lists(st.sampled_from(earlier), max_size=3)) if earlier else []
        word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from((g, -g))))
        relators.insert(draw(st.integers(0, len(relators))), tuple(word))
    return Presentation(gens, tuple(relators)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(pinned_presentations())
@example((Presentation(3, ((1, 2, 3), (2, -1), (1,))), 3))
def test_pinned_generators_keep_the_brute_force_homomorphisms(case):
    # the search fixes pinned generators to the identity and backtracks over
    # the rest; the list and its order must be those of the plain product
    p, degree = case
    assert enumerate_homomorphisms(p, degree) == _brute_force_homomorphisms(p, degree)


def test_class_representatives_are_the_first_of_each_conjugacy_class():
    # brute force: conjugate every homomorphism by all of Sym(N) and keep the
    # first index of each class
    cases = [(fundamental_presentation(instances.torus_complex(), 1).presentation, 5),
             (A3, 4), (Presentation(3, ((1, 2, -1, -2),)), 3), (Presentation(2, ()), 3)]
    for p, top in cases:
        for degree in range(1, top + 1):
            homs = enumerate_homomorphisms(p, degree)
            index = {tuple(q.images for q in h): i for i, h in enumerate(homs)}
            first = sorted({min(index[tuple(compose(compose(g.inverse(), q), g).images
                                            for q in h)] for g in all_permutations(degree))
                            for h in homs})
            rows = stability._homomorphisms_cached(p, degree, stability.DEFAULT_HOM_GUARD)
            assert stability._class_representatives(rows, degree).tolist() == first


# closed-form counts: |Hom(Z^2, Sym(N))| = N! p(N), since a commuting pair is
# a permutation and an element of its centralizer, and summing centralizer
# orders over Sym(N) counts N! per conjugacy class; the classes of commuting
# pairs number 8, 21 and 39 at N = 3, 4, 5.  At degree 2, Sym(2) is Z/2, so
# the homomorphisms are the solutions of the exponent sums mod 2.


def _partitions(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def test_torus_homomorphisms_number_n_factorial_times_partitions():
    torus = fundamental_presentation(instances.torus_complex(), 1).presentation
    counts = [len(stability._homomorphisms_cached(torus, n, stability.DEFAULT_HOM_GUARD))
              for n in range(2, 7)]
    assert counts == [math.factorial(n) * _partitions(n) for n in range(2, 7)]
    assert counts == [4, 18, 120, 840, 7920]


def test_torus_commuting_pair_classes():
    torus = fundamental_presentation(instances.torus_complex(), 1).presentation
    classes = [len(stability._class_representatives(stability._homomorphisms_cached(
        torus, n, stability.DEFAULT_HOM_GUARD), n)) for n in (3, 4, 5)]
    assert classes == [8, 21, 39]


def _roots_of_unity(k: int, n: int) -> int:
    """Solutions of x^k = 1 in Sym(n): the cycle through the first point has a
    length d dividing k, chosen in (n-1)!/(n-d)! ways, times a solution on
    the other n - d points."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.perm(m - 1, d - 1) * a[m - d]
                     for d in range(1, min(k, m) + 1) if k % d == 0))
    return a[n]


@pytest.mark.parametrize("k, expected", [(2, [1, 2, 4, 10, 26, 76]), (3, [1, 1, 3, 9, 21, 81]),
                                         (4, [1, 2, 4, 16, 56, 256]),
                                         (6, [1, 2, 6, 18, 66, 396])])
def test_one_relator_bouquet_homomorphisms_are_roots_of_unity(k, expected):
    p = Presentation(1, ((1,) * k,))
    counts = [len(stability._homomorphisms_cached(p, n, stability.DEFAULT_HOM_GUARD))
              for n in range(1, 7)]
    assert counts == [_roots_of_unity(k, n) for n in range(1, 7)] == expected


def _shapes(n: int, largest: int | None = None):
    """The partitions of n, as non-increasing tuples of row lengths."""
    if n == 0:
        yield ()
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _shapes(n - first, first):
            yield (first, *rest)


def _dimension(shape: tuple[int, ...]) -> int:
    """The dimension f of the irreducible representation of shape, by the
    hook length formula: n! over the product of the hook lengths."""
    columns = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(r - j + columns[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return math.factorial(sum(shape)) // hooks


def test_genus_two_homomorphisms_follow_mednykh():
    # |Hom(pi_1 of the genus-2 surface, Sym(n))| = n! * sum over shapes of (n!/f)^2
    p = Presentation(4, ((1, 2, -1, -2, 3, 4, -3, -4),))
    counts = [len(stability._homomorphisms_cached(p, n, stability.DEFAULT_HOM_GUARD))
              for n in (2, 3, 4)]
    mednykh = [math.factorial(n) * sum((math.factorial(n) // _dimension(s)) ** 2
                                       for s in _shapes(n)) for n in (2, 3, 4)]
    assert counts == mednykh == [16, 486, 34176]


def _rank_mod_2(rows: list[int]) -> int:
    rank, rows = 0, [r for r in rows if r]
    while rows:
        pivot = max(rows)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows if r != pivot]
        rows = [r for r in rows if r]
        rank += 1
    return rank


@st.composite
def degree_two_presentations(draw):
    gens = draw(st.integers(1, 6))
    letters = st.sampled_from([s for k in range(1, gens + 1) for s in (k, -k)])
    return Presentation(gens, tuple(draw(st.lists(st.lists(letters, min_size=1, max_size=8)
                                                   .map(tuple), max_size=4))))


@settings(max_examples=60, deadline=None)
@given(degree_two_presentations())
def test_degree_two_homomorphisms_number_two_to_the_corank(p):
    # row r of the exponent-sum matrix mod 2, as a bit mask over generators
    masks = [sum(1 << (g - 1) for g in range(1, p.generator_count + 1)
                 if sum((s > 0) - (s < 0) for s in r if abs(s) == g) % 2) for r in p.relators]
    rows = stability._homomorphisms_cached(p, 2, stability.DEFAULT_HOM_GUARD)
    assert len(rows) == 2 ** (p.generator_count - _rank_mod_2(masks))


# ---------------------------------------------------------------------------
# global defects


def test_global_defect_hom_examples():
    res = global_defect("hom", (A3, (Permutation([2, 3, 1]),)), 4)
    assert res.upper_bound == 0
    assert res.witness[0] == Permutation([2, 3, 1])

    res2 = global_defect("hom", (A3, (SWAP,)), 4)
    assert res2.upper_bound == Fraction(2, 3)
    assert res2.witness[0] == Permutation([2, 3, 1])
    assert res2.exactness == "exact-within-cap"


def test_global_defect_cut_instance():
    ci = instances.cut_instance(6)
    res = global_defect("hom", (ci.presentation, ci.images), 4, hom_guard=10 ** 14)
    assert res.upper_bound == Fraction(4, 5)
    assert all(p.is_identity() for p in res.witness)


def test_global_defect_cocycle_examples():
    x = instances.bouquet_a3()
    a = images_to_cochain([SWAP], x)
    res = global_defect("cocycle", a, 4)
    assert res.upper_bound == Fraction(2, 3)
    assert cochain_norm(res.witness) == 0

    cocycle = images_to_cochain([Permutation([2, 3, 1])], x)
    res0 = global_defect("cocycle", cocycle, 5)
    assert res0.upper_bound == 0
    assert res0.witness.values == cocycle.values


def test_global_defect_cocycle_finds_nontrivial_coboundary():
    # an exact cocycle that is not tree-trivial must still be at distance 0
    tri = instances.triangle_complex()
    sigma = Permutation([2, 3, 1])
    coc = Cochain1(tri, 3, (sigma, sigma.inverse(), Permutation.identity(3)))
    res = global_defect("cocycle", coc, 5)
    assert res.upper_bound == 0
    assert res.witness.values == coc.values


def test_global_defect_cover_matches_cocycle():
    rng = np.random.default_rng(15)
    for x in (instances.bouquet_a3(), instances.triangle_complex(),
              instances.torus_complex(), instances.complete_complex(4)):
        for _ in range(3):
            a = instances.random_cochain1(x, 2, rng)
            cov = cochain_to_covering(a)
            rc = global_defect("cocycle", a, a.degree + 1)
            rv = global_defect("cover", (cov, x), a.degree + 1)
            assert rv.upper_bound == rc.upper_bound
            assert rv.exactness == "exact-within-cap"
            ed = edit_distance(cov.labeled, rv.witness.labeled,
                               leaf_guard=stability.DEFAULT_EDIT_GUARD)
            assert ed.value == rv.upper_bound


def test_global_defect_heuristic_flag_on_guard():
    x = instances.complete_complex(4)
    rng = np.random.default_rng(19)
    a = instances.random_cochain1(x, 2, rng)
    res = global_defect("cocycle", a, 3, align_guard=10)
    assert res.exactness == "heuristic"
    exact = global_defect("cocycle", a, 3)
    assert res.upper_bound >= exact.upper_bound


def _tree_trivial_cochain(x, fp, images, degree):
    """The cochain with the given generator images and identity on tree edges."""
    gen_index = {k: i for i, k in enumerate(fp.generator_edges)}
    ident = Permutation.identity(degree)
    return Cochain1(x, degree, tuple(images[gen_index[k]] if k in gen_index else ident
                                     for k in range(1, len(x.skeleton.edges) + 1)))


def _align_every_candidate(alpha, cap, align_guard,
                           hom_guard=stability.DEFAULT_HOM_GUARD):
    """global_defect("cocycle") without skipping conjugate candidates or degrees."""
    x = alpha.space
    fp = fundamental_presentation(x, 1)
    best = witness = None
    exact = True
    for degree in range(alpha.degree, cap + 1):
        try:
            homs = enumerate_homomorphisms(fp.presentation, degree, guard=hom_guard)
        except GuardExceeded:
            exact = False
            continue
        for h in homs:
            cand = _tree_trivial_cochain(x, fp, h, degree)
            try:
                res = orbit_distance(alpha, cand, guard=align_guard)
                d, wit = res.value, res.witness
            except GuardExceeded:
                exact = False
                d, wit = cochain_distance(alpha, cand), cand
            if best is None or d < best:
                best, witness = d, wit
        if best == 0:   # global_defect stops at a zero distance
            break
    return best, "exact-within-cap" if exact or best == 0 else "heuristic", witness


def _floor_cases():
    """(complex, n, cap, align_guard, hom_guard) cases for the 1 - n/N floor.

    Besides the default guards, each complex gets a hom_guard and an
    align_guard that refuse degree cap alone, which the floor skips on many
    inputs, so the label must still come out heuristic; align_guard=1 refuses
    every alignment.
    """
    default_align, default_hom = stability.DEFAULT_ALIGNMENT_GUARD, stability.DEFAULT_HOM_GUARD
    cases = []
    for x, n, cap in ((instances.torus_complex(), 3, 5), (instances.bouquet_a3(), 2, 4),
                      (instances.complete_complex(4), 2, 4)):
        g = fundamental_presentation(x, 1).presentation.generator_count
        v = x.skeleton.vertex_count
        hom_between = (math.factorial(cap - 1) ** g + math.factorial(cap) ** g) // 2
        align_between = (math.perm(cap - 1, n) ** v + math.perm(cap, n) ** v) // 2
        cases += [(x, n, cap, default_align, default_hom),
                  (x, n, cap, default_align, hom_between),
                  (x, n, cap, align_between, default_hom),
                  (x, n, cap, 1, default_hom)]
    return cases


def _floor_skips(n, cap, bound, found):
    """Degrees after ``found``, where the bound was reached, whose floor
    1 - n/N the bound already meets."""
    return tuple(degree for degree in range(found + 1, cap + 1)
                 if bound <= 1 - Fraction(n, degree))


def _check_floor_is_invisible(alpha, cap, align_guard, hom_guard):
    """Bound, label and witness equal the full search; returns the result."""
    x = alpha.space
    bound, label, witness = _align_every_candidate(alpha, cap, align_guard, hom_guard)
    rc = global_defect("cocycle", alpha, cap, align_guard=align_guard, hom_guard=hom_guard)
    assert (rc.upper_bound, rc.exactness, rc.witness) == (bound, label, witness)
    rv = global_defect("cover", (cochain_to_covering(alpha), x), cap,
                       align_guard=align_guard, hom_guard=hom_guard)
    assert (rv.upper_bound, rv.exactness, rv.degrees_skipped) == \
        (bound, label, rc.degrees_skipped)
    assert rv.witness == cochain_to_covering(witness)
    # the search stops at a zero bound, so nothing is left to skip
    assert rc.degrees_skipped == (() if bound == 0 else
                                  _floor_skips(alpha.degree, cap, bound, witness.degree))
    return rc


def test_global_defect_equals_aligning_every_candidate():
    rng = np.random.default_rng(29)
    cases = [(x, n, guard) for x in (instances.torus_complex(), instances.bouquet_a3())
             for n in (2, 3) for guard in (stability.DEFAULT_ALIGNMENT_GUARD,)]
    cases += [(instances.torus_complex(), n, 1) for n in (2, 3)]  # identity alignment
    for x, n, guard in cases:
        for _ in range(3):
            a = instances.random_cochain1(x, n, rng)
            _check_floor_is_invisible(a, n + 2, guard, stability.DEFAULT_HOM_GUARD)


def test_degree_floor_keeps_bound_label_and_witness():
    rng = np.random.default_rng(31)
    fired = refused = 0
    for x, n, cap, align_guard, hom_guard in _floor_cases():
        for _ in range(4):
            a = instances.random_cochain1(x, n, rng)
            rc = _check_floor_is_invisible(a, cap, align_guard, hom_guard)
            fired += bool(rc.degrees_skipped)
            refused += bool(rc.degrees_skipped) and rc.exactness == "heuristic"
    # the cases exercise the floor, and a skipped degree that a guard refuses
    assert fired and refused


def _hom_every_degree(p, images, cap, hom_guard):
    """global_defect("hom") enumerating every degree, with its own distance."""
    best = witness = None
    exact = True
    for degree in range(images[0].degree, cap + 1):
        try:
            homs = enumerate_homomorphisms(p, degree, guard=hom_guard)
        except GuardExceeded:
            exact = False
            continue
        for h in homs:
            d = sum((hamming_distance_with_errors(q, r) for q, r in zip(images, h)),
                    Fraction(0)) / len(images)
            if best is None or d < best:
                best, witness = d, h
        if best == 0:   # global_defect stops at a zero distance
            break
    return best, "exact-within-cap" if exact or best == 0 else "heuristic", witness


def test_hom_degree_floor_keeps_bound_label_and_witness():
    rng = np.random.default_rng(37)
    fired = refused = 0
    for x, n, cap, _, hom_guard in _floor_cases():
        p = fundamental_presentation(x, 1).presentation
        for _ in range(4):
            images = instances.random_images(p.generator_count, n, rng)
            bound, label, witness = _hom_every_degree(p, images, cap, hom_guard)
            res = global_defect("hom", (p, images), cap, hom_guard=hom_guard)
            assert (res.upper_bound, res.exactness, res.witness) == (bound, label, witness)
            assert res.degrees_skipped == (() if bound == 0 else
                                           _floor_skips(n, cap, bound, witness[0].degree))
            fired += bool(res.degrees_skipped)
            refused += bool(res.degrees_skipped) and res.exactness == "heuristic"
    assert fired and refused


def test_hom_stops_at_a_zero_bound():
    # no degree beats 0, so the guard that refuses degrees 4 and 5 (4! > 30)
    # leaves the label exact and nothing is skipped
    res = global_defect("hom", (A3, (Permutation([1, 2, 3]),)), 5, hom_guard=30)
    assert res.upper_bound == 0 and res.witness == (Permutation([1, 2, 3]),)
    assert res.exactness == "exact-within-cap"
    assert res.degrees_skipped == ()


def test_zero_bound_through_the_identity_alignment_is_exact():
    # align_guard=1 measures every candidate at the identity alignment, which
    # clears the exact flag; a zero bound is exact all the same
    a = identity_cochain1(instances.bouquet_a3(), 2)
    res = global_defect("cocycle", a, 3, align_guard=1)
    assert (res.upper_bound, res.exactness) == (0, "exact-within-cap")


def test_distances_on_a_complex_without_edges_are_refused():
    # every edge-average distance divides by the edge count
    x = PolygonalComplex(Graph(1, ()), ())
    a = Cochain1(x, 2, ())
    for call in (lambda: orbit_distance(a, a),
                 lambda: stability.distance_to_coboundaries(a),
                 lambda: global_defect("cocycle", a),
                 lambda: global_defect("cover", (cochain_to_covering(a), x))):
        with pytest.raises(ValueError, match="no edges"):
            call()


def test_hom_defect_without_images_names_the_missing_degree():
    with pytest.raises(ValueError, match="need at least one generator image"):
        global_defect("hom", (Presentation(0, ()), ()))


def test_hom_defect_names_what_is_wrong_with_the_images():
    torus = Presentation(2, ((1, 2, -1, -2),))
    swap = Permutation([2, 1])
    for images, message in (((swap,), "need one image per generator"),
                            ((swap, Permutation([2, 3, 1])),
                             "generator images must share one degree")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            global_defect("hom", (torus, images))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(instances.bouquet_a3, 3), (instances.triangle_complex, 3),
                        (instances.torus_complex, 3), (lambda: instances.complete_complex(4), 2)]),
       st.integers(1, 3), st.integers(1, 2), st.data())
def test_candidates_of_higher_degree_obey_the_floor(space, n, step, data):
    # the lemma behind the degree floor: a degree-N cocycle agrees with a
    # degree-n cochain on at most n of N points per edge (complete-4 stops at
    # n=2, where the alignment tensor stays small)
    make, n_top = space
    x, n = make(), min(n, n_top)
    degree = n + step
    fp = fundamental_presentation(x, 1)
    values = tuple(Permutation(data.draw(st.permutations(range(1, n + 1))))
                   for _ in x.skeleton.edges)
    alpha = Cochain1(x, n, values)
    homs = enumerate_homomorphisms(fp.presentation, degree, guard=10 ** 9)
    for i in data.draw(st.lists(st.integers(0, len(homs) - 1), min_size=1, max_size=3)):
        cand = _tree_trivial_cochain(x, fp, homs[i], degree)
        assert orbit_distance(alpha, cand, guard=10 ** 9).value >= 1 - Fraction(n, degree)


# a complex with two vertices, two parallel edges and a loop at each vertex:
# its alignment tensor mixes loop diagonals with tables in both orientations
_TWO = Graph(2, ((1, 2), (2, 1), (1, 1), (2, 2)))
TWO_VERTEX = PolygonalComplex(_TWO, (polygon_orbit(_TWO, (1, 2)),
                                     polygon_orbit(_TWO, (3, 1, -4, -1))))
# three parallel edges and one polygon: its two kinds of spanning tree give
# different tree-trivial cocycles, so only the relabeling makes the defect
# independent of the tree
_THETA = Graph(2, ((1, 2), (1, 2), (1, 2)))
THETA = PolygonalComplex(_THETA, (polygon_orbit(_THETA, (1, -2)),))


def _plain_orbit_distance(alpha, cand):
    """orbit_distance by loops over every injection tuple, in product order,
    keeping the first maximum: the value and the injections (1-based)."""
    g = alpha.space.skeleton
    n, big = alpha.degree, cand.degree
    best = best_combo = None
    for combo in itertools.product(itertools.permutations(range(1, big + 1), n),
                                   repeat=g.vertex_count):
        agree = sum(combo[x - 1][a.images[i] - 1] == b.images[combo[y - 1][i] - 1]
                    for (x, y), a, b in zip(g.edges, alpha.values, cand.values)
                    for i in range(n))
        if best is None or agree > best:
            best, best_combo = agree, combo
    m = len(g.edges)
    return Fraction(m * big - best, m * big), best_combo


def _values(draw, x, degree):
    return tuple(Permutation(draw(st.permutations(range(1, degree + 1))))
                 for _ in x.skeleton.edges)


@st.composite
def search_inputs(draw):
    """A cochain of degree n on a presentation complex with one to three
    generators or on a complex with several vertices, a cap of at most 4 and
    an align_guard; the homomorphism count stays small enough for the
    reference to align every candidate."""
    if draw(st.booleans()):
        p, _ = draw(presentations())
        assume(p.generator_count > 0)
        try:
            x = presentation_complex(p)
        except ValueError:   # a relator reduces to the empty word, or repeats
            assume(False)
    else:
        x = draw(st.sampled_from([instances.triangle_complex(), TWO_VERTEX, THETA,
                                  instances.complete_complex(4)]))
    n = draw(st.integers(1, 2 if x.skeleton.vertex_count > 3 else 3))
    cap = draw(st.integers(n, 4))
    g = len(x.skeleton.edges) - x.skeleton.vertex_count + 1
    assume(math.factorial(cap) ** g <= 1000)
    guard = draw(st.sampled_from([stability.DEFAULT_ALIGNMENT_GUARD, 1]))
    return Cochain1(x, n, _values(draw, x, n)), cap, guard


@settings(max_examples=60, deadline=None)
@given(search_inputs())
@example((images_to_cochain([SWAP], instances.bouquet_a3()), 4,
          stability.DEFAULT_ALIGNMENT_GUARD))   # the closest class is not the first
def test_array_search_equals_the_plain_references(case):
    alpha, cap, guard = case
    _check_floor_is_invisible(alpha, cap, guard, stability.DEFAULT_HOM_GUARD)
    # coboundaries: the identity cochain's orbit at every degree
    best = witness = None
    exact = True
    for degree in range(alpha.degree, cap + 1):
        ident = identity_cochain1(alpha.space, degree)
        try:
            res = orbit_distance(alpha, ident, guard=guard)
            d, wit = res.value, res.witness
        except GuardExceeded:
            exact, d, wit = False, cochain_distance(alpha, ident), ident
        if best is None or d < best:
            best, witness = d, wit
        if best == 0:
            exact = True
            break
    assert stability.distance_to_coboundaries(alpha, cap, guard) == (best, witness, exact)


def test_coboundary_search_above_the_alignment_guard_builds_no_sym_table(monkeypatch):
    # the coboundary search has no generator, so a degree the alignment
    # guard refuses is a plain count at the identity alignment; Sym(12) has
    # 479,001,600 rows, which must not be built
    sym = stability._sym

    def small_only(degree):
        assert degree <= 8, f"Sym({degree}) table built"
        return sym(degree)

    monkeypatch.setattr(stability, "_sym", small_only)
    x = instances.torus_complex()
    swap = Permutation([2, 1] + list(range(3, 13)))
    alpha = Cochain1(x, 12, (swap, Permutation.identity(12)))
    best, witness, exact = stability.distance_to_coboundaries(alpha)
    assert (best, witness, exact) == (Fraction(1, 12), identity_cochain1(x, 12), False)
    assert stability.distance_to_coboundaries(identity_cochain1(x, 12))[0] == 0


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(1, 3), st.integers(0, 2), st.data())
def test_array_hom_search_equals_the_plain_reference(case, n, step, data):
    p, _ = case
    cap = min(n + step, 4)
    assume(p.generator_count > 0 and math.factorial(cap) ** p.generator_count <= 1000)
    images = tuple(Permutation(data.draw(st.permutations(range(1, n + 1))))
                   for _ in range(p.generator_count))
    bound, label, witness = _hom_every_degree(p, images, cap, stability.DEFAULT_HOM_GUARD)
    res = global_defect("hom", (p, images), cap)
    assert (res.upper_bound, res.exactness, res.witness) == (bound, label, witness)
    assert res.degrees_skipped == (() if bound == 0 else
                                   _floor_skips(n, cap, bound, witness[0].degree))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([instances.triangle_complex(), TWO_VERTEX, instances.torus_complex(),
                        instances.complete_complex(4)]),
       st.integers(1, 3), st.integers(0, 2), st.data())
def test_orbit_distance_equals_plain_loops(x, n, step, data):
    n = min(n, 2) if x.skeleton.vertex_count > 3 else n
    alpha = Cochain1(x, n, _values(data.draw, x, n))
    cand = Cochain1(x, n + step, _values(data.draw, x, n + step))
    value, combo = _plain_orbit_distance(alpha, cand)
    res = orbit_distance(alpha, cand)
    assert res.value == value
    assert tuple(q.images[:n] for q in res.beta.values) == combo
    assert cochain_distance(alpha, res.witness) == value


# ---------------------------------------------------------------------------
# invariance properties: identities of the paper that need no reference


def _spanning_trees(g):
    for edges in itertools.combinations(range(1, len(g.edges) + 1), g.vertex_count - 1):
        parent = list(range(g.vertex_count + 1))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v
        for k in edges:
            u, v = (find(w) for w in g.edges[k - 1])
            if u == v:
                break
            parent[u] = v
        else:
            yield frozenset(edges)


def _summary(res):
    return res.upper_bound, res.exactness, res.degrees_skipped


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([instances.triangle_complex(), TWO_VERTEX, THETA,
                        instances.complete_complex(4)]),
       st.integers(1, 2), st.integers(0, 1), st.data())
@example(THETA, 2, 0, None)   # a cocycle that only the tree {3} presents as tree-trivial
def test_cocycle_defect_ignores_root_and_tree(x, n, step, data):
    # (a): every spanning tree and root presents the same cocycle set
    alpha = (Cochain1(x, n, (SWAP, SWAP, Permutation([1, 2]))) if data is None
             else Cochain1(x, n, _values(data.draw, x, n)))
    expected = _summary(global_defect("cocycle", alpha, n + step))
    for tree in _spanning_trees(x.skeleton):
        for root in range(1, x.skeleton.vertex_count + 1):
            assert _summary(global_defect("cocycle", alpha, n + step, root=root,
                                          tree=tree)) == expected


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([instances.triangle_complex(), TWO_VERTEX, THETA,
                        instances.torus_complex(), instances.bouquet_a3()]),
       st.integers(1, 3), st.integers(0, 1), st.data())
def test_defects_ignore_the_zero_cochain_action(x, n, step, data):
    # (c): b.alpha has the same local defect and the same global defect
    alpha = Cochain1(x, n, _values(data.draw, x, n))
    b = Cochain0(x, n, tuple(Permutation(data.draw(st.permutations(range(1, n + 1))))
                             for _ in range(x.skeleton.vertex_count)))
    moved = act0on1(b, alpha)
    assert cochain_norm(moved) == cochain_norm(alpha)
    assert _summary(global_defect("cocycle", moved, n + step)) == \
        _summary(global_defect("cocycle", alpha, n + step))


@settings(max_examples=25, deadline=None)
@given(presentations(), st.integers(1, 3), st.integers(0, 1), st.data())
def test_hom_defect_ignores_simultaneous_conjugation(case, n, step, data):
    # (d): sigma^-1 rho sigma is as far from Hom(Gamma, Sym N) as rho is
    p, _ = case
    assume(p.generator_count > 0 and math.factorial(n + step) ** p.generator_count <= 1000)
    images = tuple(Permutation(data.draw(st.permutations(range(1, n + 1))))
                   for _ in range(p.generator_count))
    sigma = Permutation(data.draw(st.permutations(range(1, n + 1))))
    conj = tuple(compose(compose(sigma.inverse(), q), sigma) for q in images)
    assert _summary(global_defect("hom", (p, conj), n + step)) == \
        _summary(global_defect("hom", (p, images), n + step))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([THETA, instances.complete_complex(4), instances.torus_complex(),
                        TWO_VERTEX]), st.data())
def test_homomorphism_count_ignores_root_and_tree(x, data):
    # (b): every spanning tree and root presents the same fundamental group
    tree = data.draw(st.sampled_from(list(_spanning_trees(x.skeleton))))
    root = data.draw(st.integers(1, x.skeleton.vertex_count))
    expected = [(r.homomorphism_count, r.nontrivial_count) for r in h1_vanishing_check(x, 4)]
    assert [(r.homomorphism_count, r.nontrivial_count)
            for r in h1_vanishing_check(x, 4, root=root, tree=tree)] == expected


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(1, 3), st.integers(0, 1), st.data())
def test_cocycle_defect_on_the_presentation_complex_is_the_hom_defect(case, n, step, data):
    # (e): on a one-vertex complex the tree-trivial cocycles are the
    # homomorphisms and the 0-cochain action is simultaneous conjugation
    p, _ = case
    assume(p.generator_count > 0 and math.factorial(n + step) ** p.generator_count <= 1000)
    try:
        x = presentation_complex(p)
    except ValueError:   # a relator reduces to the empty word, or repeats
        assume(False)
    images = tuple(Permutation(data.draw(st.permutations(range(1, n + 1))))
                   for _ in range(p.generator_count))
    assert _summary(global_defect("cocycle", images_to_cochain(images, x), n + step)) == \
        _summary(global_defect("hom", (p, images), n + step))


def test_global_defect_witness_consistency():
    rng = np.random.default_rng(23)
    x = instances.complete_complex(4)
    for _ in range(5):
        a = instances.random_cochain1(x, 2, rng)
        res = global_defect("cocycle", a, 4)
        assert cochain_norm(res.witness) == 0
        assert cochain_distance(a, res.witness) == res.upper_bound


# ---------------------------------------------------------------------------
# spectra and the 0-dimensional bound


def test_spectral_gap_examples():
    assert spectral_gap(instances.complete_graph(4)).gamma == pytest.approx(4 / 3, abs=1e-9)
    assert spectral_gap(instances.cycle_graph(4)).gamma == pytest.approx(1.0, abs=1e-9)
    assert spectral_gap(instances.petersen_graph()).gamma == pytest.approx(2 / 3, abs=1e-9)


def test_spectral_gap_rejects_bad_graphs():
    with pytest.raises(ValueError):
        spectral_gap(Graph(3, ((1, 2),)))               # not regular
    with pytest.raises(ValueError):
        spectral_gap(Graph(4, ((1, 2), (3, 4))))        # disconnected


def test_spectral_gap_with_loops():
    # one loop per vertex keeps regularity; diagonal gets 2 per loop
    g = Graph(2, ((1, 2), (1, 2), (1, 1), (2, 2)))
    rep = spectral_gap(g)
    assert rep.k == 4
    from permstab.stability import adjacency_matrix
    m = adjacency_matrix(g)
    assert m[0, 0] == 2 and m[0, 1] == 2


def test_distance_to_constants_reduction():
    # brute force over all constants of degrees n..n+2 agrees with assignment
    k4 = instances.complete_graph(4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = instances.random_cochain0(k4, 2, rng)
        got = distance_to_constants(b, per_component=False)
        brute = min(
            Fraction(sum(hamming_distance_with_errors(v, sigma) for v in b.values), 4)
            for deg in (2, 3, 4) for sigma in all_permutations(deg))
        assert got == brute


def test_importing_the_package_does_not_load_scipy():
    # scipy is imported inside the one function that uses it
    code = "import sys, permstab, permstab.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(permstab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def test_zero_dim_bound_examples():
    k4 = instances.complete_graph(4)
    const = Cochain0(k4, 2, (SWAP,) * 4)
    rep = zero_dim_bound_check(k4, const)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds

    one_off = Cochain0(k4, 2, (Permutation.identity(2),) * 3 + (SWAP,))
    rep2 = zero_dim_bound_check(k4, one_off)
    assert rep2.lhs == Fraction(1, 4)
    assert rep2.rhs == pytest.approx(float(Fraction(1, 2)) / (4 / 3), abs=1e-12)
    assert rep2.holds


def test_poincare_inequality_random_vectors():
    rng = np.random.default_rng(8)
    k4 = instances.complete_graph(4)
    for _ in range(25):
        f = rng.normal(size=(4, 3))
        lhs, rhs, holds = poincare_inequality_check(k4, f)
        assert holds


# ---------------------------------------------------------------------------
# Cheeger constants


def test_classical_cheeger_k4():
    rep = cheeger(instances.complete_graph(4), variant="classical")
    assert rep.value == 2
    # independent brute force over all proper subsets
    g = instances.complete_graph(4)
    best = min(
        Fraction(sum(1 for u, v in g.edges if (u in aset) != (v in aset)),
                 min(len(aset), 4 - len(aset)))
        for size in (1, 2, 3)
        for aset in map(set, itertools.combinations(range(1, 5), size)))
    assert rep.value == best


def test_cheeger_eq_relation_with_classical():
    for g in (instances.complete_graph(4), instances.cycle_graph(4),
              instances.cycle_graph(5)):
        k = len(g.edges) * 2 // g.vertex_count
        classical = cheeger(g, variant="classical").value
        h0 = cheeger(g, 0, "cocycle", 2).value
        assert classical == Fraction(k, 2) * h0


def test_cheeger_h0_disconnected_coboundary_vanishes():
    two_edges = Graph(4, ((1, 2), (3, 4)))
    rep = cheeger(two_edges, 0, "coboundary", 2)
    assert rep.value == 0
    # witness: locally constant but not constant
    w = rep.witness
    assert all(p.is_identity() for p in coboundary0(w).values)
    assert len({p.images for p in w.values}) > 1


def test_cheeger_dim1_coboundary_triangle():
    rep = cheeger(instances.triangle_complex(), 1, "coboundary", 2)
    assert rep.value == 3
    assert not is_coboundary(rep.witness)[0]


def test_cheeger_dim1_coboundary_torus_vanishes():
    rep = cheeger(instances.torus_complex(), 1, "coboundary", 2)
    assert rep.value == 0


def test_cheeger_labels_a_guarded_denominator_heuristic():
    # with align_guard=1 every distance falls back to identity alignment,
    # which may overstate the denominator and understate the ratio; on the
    # triangle's tree-trivial cochains it happens to give the exact value,
    # but the label cannot know that
    x = instances.triangle_complex()
    guarded = cheeger(x, 1, "cocycle", 2, align_guard=1)
    assert (guarded.value, guarded.exactness) == (3, "heuristic")
    exact = cheeger(x, 1, "cocycle", 2)
    assert (exact.value, exact.exactness) == (3, "exact-within-cap")
    for rep in (cheeger(x, 1, "coboundary", 2),
                cheeger(instances.complete_graph(4), variant="classical"),
                cheeger(instances.cycle_graph(4), 0, "cocycle", 2)):
        assert rep.exactness == "exact-within-cap"


def _cheeger_every_cochain(space, dimension, variant, cap):
    """cheeger over every cochain of every degree in product order, keeping
    the first minimum: the value, its label and its witness."""
    g = space.skeleton if isinstance(space, PolygonalComplex) else space
    best = witness = None
    exact = True
    for degree in range(2, cap + 1):
        cells = g.vertex_count if dimension == 0 else len(g.edges)
        for combo in itertools.product(all_permutations(degree), repeat=cells):
            if dimension == 0:
                a = Cochain0(space, degree, combo)
                num = edge_norm(coboundary0(a))
                den = distance_to_constants(a, per_component=variant == "cocycle")
                if (num if variant == "cocycle" else den) == 0:
                    continue
            else:
                a = Cochain1(space, degree, combo)
                num = cochain_norm(a)
                if variant == "cocycle":
                    if num == 0:
                        continue
                    res = global_defect("cocycle", a, degree + 2)
                    den, den_exact = res.upper_bound, res.exactness == "exact-within-cap"
                else:
                    if is_coboundary(a)[0]:
                        continue
                    den, _, den_exact = stability.distance_to_coboundaries(a, degree + 2)
                exact = exact and den_exact
            if best is None or num / den < best:
                best, witness = num / den, a
    return best, "exact-within-cap" if exact else "heuristic", witness


def _cheeger_ratio(w, variant):
    """The ratio of one cochain, recomputed."""
    if isinstance(w, Cochain0):
        den = distance_to_constants(w, per_component=variant == "cocycle")
        return edge_norm(coboundary0(w)) / den
    den = (global_defect("cocycle", w, w.degree + 2).upper_bound if variant == "cocycle"
           else stability.distance_to_coboundaries(w, w.degree + 2)[0])
    return cochain_norm(w) / den


@pytest.mark.parametrize("space,dimension,cap", [
    (instances.triangle_complex(), 1, 3), (instances.torus_complex(), 1, 3),
    (instances.bouquet_a3(), 1, 3), (instances.complete_complex(4), 1, 2),
    (instances.complete_graph(4), 0, 3), (instances.cycle_graph(5), 0, 3),
    (Graph(4, ((1, 2), (3, 4))), 0, 3)])
@pytest.mark.parametrize("variant", ["cocycle", "coboundary"])
def test_cheeger_sweep_equals_every_cochain(space, dimension, cap, variant):
    # one cochain per 0-cochain orbit gives the minimum over all of them
    value, label, witness = _cheeger_every_cochain(space, dimension, variant, cap)
    rep = cheeger(space, dimension, variant, cap)
    assert (rep.value, rep.exactness) == (value, label)
    assert _cheeger_ratio(rep.witness, variant) == rep.value
    if dimension == 0:   # the cochains with b(1) = id come first in product order
        assert rep.witness == witness


def test_cheeger_dim1_needs_a_connected_skeleton():
    g = Graph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))
    x = PolygonalComplex(g, (polygon_orbit(g, (1, 2, 3)), polygon_orbit(g, (4, 5, 6))))
    for variant in ("cocycle", "coboundary"):
        with pytest.raises(ValueError, match="disconnected"):
            cheeger(x, 1, variant, 2)


def test_cheeger_guard():
    with pytest.raises(GuardExceeded):
        cheeger(instances.petersen_graph(), 0, "cocycle", 3, enum_guard=100)


# ---------------------------------------------------------------------------
# cohomology vanishing


def test_h0_vanishing_matches_connectivity():
    assert h0_vanishing_check(instances.complete_graph(5)).vanishes
    rep = h0_vanishing_check(Graph(4, ((1, 2), (3, 4))))
    assert not rep.vanishes and rep.component_count == 2
    assert all(p.is_identity() for p in coboundary0(rep.witness).values)


def test_h1_vanishing_examples():
    assert all(r.vanishes for r in h1_vanishing_check(instances.triangle_complex(), 3))
    free = presentation_complex(Presentation(1, ()))
    rep = h1_vanishing_check(free, 3)
    assert not rep[0].vanishes            # N=2 already fails
    assert rep[0].witness is not None
    assert not is_coboundary(rep[0].witness)[0]
    torus = instances.torus_complex()
    rep_t = h1_vanishing_check(torus, 3)
    assert not rep_t[0].vanishes
    assert not is_coboundary(rep_t[0].witness)[0]
    assert cochain_norm(rep_t[0].witness) == 0


def test_h1_vanishing_complete_complexes():
    assert all(r.vanishes for r in h1_vanishing_check(instances.complete_complex(4), 3))


def test_h1_verdicts_match_coboundary_propagation():
    # H1 vanishes at degree N exactly when every cocycle is a coboundary, and
    # every cocycle is a relabeling of some tree-trivial candidate
    for name, x in instances.corpus_complexes().items():
        fp = fundamental_presentation(x, 1)
        for rep in h1_vanishing_check(x, 3):
            homs = enumerate_homomorphisms(fp.presentation, rep.degree)
            candidates = [_tree_trivial_cochain(x, fp, f, rep.degree) for f in homs]
            assert rep.vanishes == all(is_coboundary(c)[0] for c in candidates), name
            assert rep.homomorphism_count == len(homs)
            assert rep.vanishes == (rep.witness is None)
            if rep.witness is not None:
                assert not is_coboundary(rep.witness)[0]


# ---------------------------------------------------------------------------
# normalized restriction bound (tree trade-off) and profiles


def test_tree_normalized_hom_bound_dominates():
    from permstab.cochains import tree_normalize

    rng = np.random.default_rng(42)
    x = instances.complete_complex(4)
    fp = fundamental_presentation(x, 1)
    for _ in range(10):
        a = instances.random_cochain1(x, 2, rng)
        norm, _ = tree_normalize(a, fp.tree, 1)
        images = tuple(norm.values[k - 1] for k in fp.generator_edges)
        assert hom_local_defect(fp.presentation, images).value == cochain_norm(norm)
        gh = global_defect("hom", (fp.presentation, images), 4)
        gc = global_defect("cocycle", norm, 4)
        assert gh.upper_bound >= gc.upper_bound


def test_cut_instance_ratio_growth():
    for d in (6, 7, 8):
        ci = instances.cut_instance(d)
        local = cochain_norm(ci.cochain)
        assert local == Fraction(6, d * (d - 1))
        res = global_defect("hom", (ci.presentation, ci.images), 4, hom_guard=10 ** 16)
        directed_edges = d * (d - 1)
        assert res.upper_bound / local >= Fraction(directed_edges, 12)


def test_stability_profile_deterministic_and_zero_rows():
    x = instances.complete_complex(4)
    p1 = stability_profile(x, 2, [0.0, 0.3], 3, seed=5)
    p2 = stability_profile(x, 2, [0.0, 0.3], 3, seed=5)
    assert p1.to_csv() == p2.to_csv()
    for row in p1.rows:
        if row.level == 0.0:
            assert row.local_defect == 0 and row.global_upper == 0
    csv = p1.to_csv()
    assert csv.startswith("# seed=5")
    assert "level,sample,local_defect,global_defect_upper,exactness" in csv


def test_stability_profile_hom_kind():
    res = stability_profile(A3, 2, [1.0], 4, seed=9)
    assert res.kind == "hom"
    for row in res.rows:
        assert 0 <= row.global_upper <= 1
        if row.local_defect == 1:
            assert row.global_upper == Fraction(2, 3)


# ---------------------------------------------------------------------------
# input checks: a cap below the input degree and corruption levels


def test_a_cap_below_the_input_degree_is_an_input_error():
    x = instances.torus_complex()
    a = Cochain1(x, 3, (Permutation([2, 3, 1]), Permutation([1, 3, 2])))
    fp = fundamental_presentation(x)
    cases = {"hom": lambda: global_defect("hom", (fp.presentation, a.values), 2),
             "cocycle": lambda: global_defect("cocycle", a, 2),
             "cover": lambda: global_defect("cover", (cochain_to_covering(a), x), 2),
             "coboundaries": lambda: stability.distance_to_coboundaries(a, 2)}
    for name, call in cases.items():
        with pytest.raises(ValueError, match="n_max 2 is below the input degree 3"):
            call()
    with pytest.raises(ValueError, match="n_max 1 is below the input degree 2"):
        stability_profile(instances.complete_complex(4), 2, [0.5], 1, seed=1, n_max=1)
    with pytest.raises(ValueError, match="n_cap 1"):
        h1_vanishing_check(x, 1)
    # a cap that every guard refuses is still a guard trip
    with pytest.raises(GuardExceeded):
        global_defect("cocycle", a, 3, hom_guard=1)


def test_stability_profile_refuses_an_empty_table():
    x = instances.complete_complex(4)
    for samples, grid in ((0, [0.0]), (-1, [0.0]), (1, [])):
        with pytest.raises(ValueError, match="at least one sample and one corruption level"):
            stability_profile(x, 2, grid, samples, seed=1)
    with pytest.raises(ValueError, match="got samples 0 and 1 levels"):
        stability_profile(A3, 2, [0.5], 0, seed=1)


@pytest.mark.parametrize("level", [2.0, -1.0, 1.5, float("nan")])
def test_stability_profile_refuses_levels_outside_the_unit_interval(level):
    with pytest.raises(ValueError, match=f"corruption level {level}"):
        stability_profile(instances.complete_complex(4), 2, [0.0, level], 1, seed=1)
    with pytest.raises(ValueError, match="corruption level"):
        stability_profile(A3, 2, [level], 1, seed=1)
