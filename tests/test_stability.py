import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permstab import instances, stability
from permstab.cochains import (Cochain0, Cochain1, coboundary0,
                               cochain_distance, cochain_norm,
                               cochain_to_covering, images_to_cochain,
                               is_coboundary, orbit_distance)
from permstab.complexes import (Presentation, fundamental_presentation,
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


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_enumerate_homomorphisms_equals_brute_force(case):
    p, degree = case
    reference = [h for h in itertools.product(all_permutations(degree),
                                              repeat=p.generator_count)
                 if all(not r or evaluate_word(r, h).is_identity() for r in p.relators)]
    assert enumerate_homomorphisms(p, degree) == reference


def test_conjugates_are_the_conjugacy_class():
    torus = instances.torus_complex()
    fp = fundamental_presentation(torus, 1)
    for degree in (1, 2, 3, 4):
        for h in enumerate_homomorphisms(fp.presentation, degree)[::7]:
            cand = stability._tree_trivial_cochain(torus, fp, h, degree)
            brute = {tuple(compose(compose(g.inverse(), q), g).images for q in cand.values)
                     for g in all_permutations(degree)}
            assert stability._conjugates(cand) == brute


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


def _align_every_candidate(alpha, cap, align_guard):
    """global_defect("cocycle") without skipping conjugate candidates."""
    x = alpha.space
    fp = fundamental_presentation(x, 1)
    best = witness = None
    exact = True
    for degree in range(alpha.degree, cap + 1):
        for h in enumerate_homomorphisms(fp.presentation, degree):
            cand = stability._tree_trivial_cochain(x, fp, h, degree)
            try:
                res = orbit_distance(alpha, cand, guard=align_guard)
                d, wit = res.value, res.witness
            except GuardExceeded:
                exact = False
                d, wit = cochain_distance(alpha, cand), cand
            if best is None or d < best:
                best, witness = d, wit
    return best, "exact-within-cap" if exact else "heuristic", witness


def test_global_defect_equals_aligning_every_candidate():
    rng = np.random.default_rng(29)
    cases = [(x, n, guard) for x in (instances.torus_complex(), instances.bouquet_a3())
             for n in (2, 3) for guard in (stability.DEFAULT_ALIGNMENT_GUARD,)]
    cases += [(instances.torus_complex(), n, 1) for n in (2, 3)]  # identity alignment
    for x, n, guard in cases:
        for _ in range(3):
            a = instances.random_cochain1(x, n, rng)
            bound, label, witness = _align_every_candidate(a, n + 2, guard)
            rc = global_defect("cocycle", a, n + 2, align_guard=guard)
            assert (rc.upper_bound, rc.exactness, rc.witness) == (bound, label, witness)
            rv = global_defect("cover", (cochain_to_covering(a), x), n + 2, align_guard=guard)
            assert (rv.upper_bound, rv.exactness) == (bound, label)
            assert rv.witness == cochain_to_covering(witness)


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
    # which overstates the denominator and understates the ratio
    x = instances.triangle_complex()
    guarded = cheeger(x, 1, "cocycle", 2, align_guard=1)
    assert (guarded.value, guarded.exactness) == (1, "heuristic")
    exact = cheeger(x, 1, "cocycle", 2)
    assert (exact.value, exact.exactness) == (3, "exact-within-cap")
    for rep in (cheeger(x, 1, "coboundary", 2),
                cheeger(instances.complete_graph(4), variant="classical"),
                cheeger(instances.cycle_graph(4), 0, "cocycle", 2)):
        assert rep.exactness == "exact-within-cap"


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
            candidates = [stability._tree_trivial_cochain(x, fp, f, rep.degree) for f in homs]
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
