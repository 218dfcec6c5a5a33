"""End-to-end acceptance suite.

One test per criterion; each prints a single pass line (visible with
``pytest -s``), and a pytest failure marks the criterion red.  Tolerances are
pinned here: exact rational identities are compared with ==, floating point
comparisons carry their stated slack.
"""

import itertools
import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from permstab import instances
from permstab.cochains import (coboundary0, coboundary_distance,
                               cochain_distance, cochain_norm,
                               cochain_to_covering, covering_to_cochain,
                               images_to_cochain, path_value,
                               tree_normalize)
from permstab.complexes import (Presentation, fundamental_presentation,
                                polygon_weights)
from permstab.perm import Permutation, all_permutations, hs_distance_check
from permstab.stability import (cheeger, global_defect, h0_vanishing_check,
                                h1_vanishing_check, spectral_gap,
                                stability_profile, zero_dim_bound_check)
from permstab.testers import (cocycle_local_defect, cover_local_defect,
                              hom_local_defect, matrix_tester, run_sampled)

CORPUS = instances.corpus_complexes()


def _report(line: str) -> None:
    print(f"[PASS] {line}")


def test_acceptance_01_hamming_hilbert_schmidt_bridge():
    checked = 0
    for n in (1, 2, 3, 4):
        perms = list(all_permutations(n))
        for a, b in itertools.product(perms, repeat=2):
            d, hs = hs_distance_check(a, b)
            assert abs(float(d) - hs) <= 1e-12
            checked += 1
    assert checked == 1 + 4 + 36 + 576
    _report("acceptance 01 hamming equals half squared HS norm, Sym(1..4) exhaustive")


def test_acceptance_02_coboundary_exactness():
    assert len(CORPUS) >= 6
    rng = np.random.default_rng(2024)
    total = 0
    per_complex = -(-1000 // len(CORPUS))  # spread 1000 samples over the corpus
    for x in CORPUS.values():
        for _ in range(per_complex):
            b = instances.random_cochain0(x, int(rng.integers(2, 6)), rng)
            db = coboundary0(b)
            for pc in x.polygons:
                assert path_value(db, pc.rep).is_identity()
            total += 1
    assert total >= 1000
    _report(f"acceptance 02 delta^2 = Id on {total} random 0-cochains")


def test_acceptance_03_cover_cocycle_defects_and_round_trip():
    rng = np.random.default_rng(31)
    for name, x in CORPUS.items():
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            a = instances.random_cochain1(x, n, rng)
            cov = cochain_to_covering(a)
            assert cover_local_defect(cov, x).value == cocycle_local_defect(a).value
            assert covering_to_cochain(cov, x).values == a.values
    _report("acceptance 03 covering/cocycle defect equality and round trip, 1000 per complex")


def test_acceptance_04_hom_cocycle_defects_presentation_complexes():
    from permstab.complexes import presentation_complex

    cases = {
        "a^3": Presentation(1, ((1, 1, 1),)),
        "a^2": Presentation(1, ((1, 1),)),
        "torus": Presentation(2, ((1, 2, -1, -2),)),
    }
    rng = np.random.default_rng(47)
    for name, p in cases.items():
        x = presentation_complex(p)
        for n in (2, 3):
            cap = n + 2
            batteries = [instances.random_images(p.generator_count, n, rng)
                         for _ in range(4)]
            batteries.append(tuple(Permutation.identity(n)
                                   for _ in range(p.generator_count)))
            for images in batteries:
                a = images_to_cochain(list(images), x)
                assert hom_local_defect(p, images).value == cocycle_local_defect(a).value
                gh = global_defect("hom", (p, images), cap)
                gc = global_defect("cocycle", a, cap)
                assert gh.exactness == gc.exactness == "exact-within-cap"
                assert gh.upper_bound == gc.upper_bound
    _report("acceptance 04 hom/cocycle local defects equal, global defects equal within cap")


def test_acceptance_05_tree_restriction_dominates():
    x = instances.complete_complex(5)
    fp = fundamental_presentation(x, 1)
    rng = np.random.default_rng(53)
    for _ in range(100):
        a = instances.random_cochain1(x, 2, rng)
        norm, _ = tree_normalize(a, fp.tree, 1)
        images = tuple(norm.values[k - 1] for k in fp.generator_edges)
        gh = global_defect("hom", (fp.presentation, images), 4, hom_guard=10 ** 9)
        gc = global_defect("cocycle", norm, 4, hom_guard=10 ** 9)
        assert gh.exactness == gc.exactness == "exact-within-cap"
        assert gh.upper_bound >= gc.upper_bound
    _report("acceptance 05 hom global bound dominates cocycle bound, 100 instances")


def test_acceptance_06_balanced_cut_instance_numbers():
    ci = instances.cut_instance(6)
    local_cocycle = cochain_norm(ci.cochain)
    local_hom = hom_local_defect(ci.presentation, ci.images).value
    assert local_cocycle == local_hom == Fraction(6, 6 * 5)   # = 1/5
    res = global_defect("hom", (ci.presentation, ci.images), 4, hom_guard=10 ** 14)
    assert res.exactness == "exact-within-cap"
    assert res.upper_bound == Fraction(4, 5)
    assert all(p.is_identity() for p in res.witness)
    ratio = res.upper_bound / local_hom
    assert ratio == 4
    assert ratio >= Fraction(30, 12)   # directed edge count over 12
    _report("acceptance 06 cut instance: defects 1/5, global 4/5, ratio 4 >= 30/12")


SPECTRAL_CORPUS = {
    "K4": instances.complete_graph(4),
    "K5": instances.complete_graph(5),
    "K6": instances.complete_graph(6),
    "C4": instances.cycle_graph(4),
    "C5": instances.cycle_graph(5),
    "C6": instances.cycle_graph(6),
    "C8": instances.cycle_graph(8),
    "Q3": instances.cube_graph(),
}


def test_acceptance_07_spectral_and_cheeger():
    assert spectral_gap(instances.complete_graph(4)).gamma == pytest.approx(4 / 3, abs=1e-9)
    assert spectral_gap(instances.cycle_graph(4)).gamma == pytest.approx(1.0, abs=1e-9)
    assert spectral_gap(instances.petersen_graph()).gamma == pytest.approx(2 / 3, abs=1e-9)
    assert cheeger(instances.complete_graph(4), variant="classical").value == 2
    for name, g in SPECTRAL_CORPUS.items():
        assert g.vertex_count <= 8
        k = len(g.edges) * 2 // g.vertex_count
        classical = cheeger(g, variant="classical").value
        h0 = cheeger(g, 0, "cocycle", 2).value
        assert classical == Fraction(k, 2) * h0, name
        gamma = spectral_gap(g).gamma
        assert gamma <= float(h0) + 1e-9, name
        assert float(h0) <= math.sqrt(8 * gamma) + 1e-9, name
    _report("acceptance 07 spectral gaps, classical Cheeger, and the two-sided bounds")


def test_acceptance_08_zero_dim_bound_and_linear_profile():
    rng = np.random.default_rng(61)
    for g in (instances.complete_graph(4), instances.cycle_graph(5),
              instances.petersen_graph()):
        for _ in range(334):
            b = instances.random_cochain0(g, int(rng.integers(2, 5)), rng)
            rep = zero_dim_bound_check(g, b)
            assert float(rep.lhs) <= rep.rhs + 1e-9
            assert rep.holds
    for d in (4, 5):
        x = instances.complete_complex(d)
        # the raw pre-pruning hom space at d=5, N=4 is 24^6, above the default guard
        prof = stability_profile(x, 2, [0.1, 0.3, 0.6], 5, seed=71, hom_guard=10 ** 9)
        for row in prof.rows:
            assert row.exactness == "exact-within-cap"
            assert row.global_upper <= row.local_defect
    _report("acceptance 08 spectral lower bound holds; profiles stay below the defect line")


def _random_rational_distribution(size: int, rng: np.random.Generator):
    weights = [Fraction(int(rng.integers(0, 5))) for _ in range(size)]
    if sum(weights) == 0:
        weights[int(rng.integers(size))] = Fraction(1)
    total = sum(weights)
    return tuple(w / total for w in weights)


def test_acceptance_09_weighted_perturbation_bound():
    rng = np.random.default_rng(83)
    for x in CORPUS.values():
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            big = int(rng.integers(n, 5))
            a = instances.random_cochain1(x, n, rng)
            phi = instances.random_cochain1(x, big, rng)
            mu2 = _random_rational_distribution(len(x.polygons), rng)
            ws = polygon_weights(x, mu2)
            lhs = coboundary_distance(a, phi, ws)
            rhs = ws.expected_length * cochain_distance(a, phi, ws)
            assert lhs <= rhs
    _report("acceptance 09 perturbed coboundaries stay within expected-length times edge distance")


def test_acceptance_10_monte_carlo_soundness():
    trials = 100000
    rng = np.random.default_rng(97)
    runs = []
    for name, x in CORPUS.items():
        for _ in range(2):
            a = instances.random_cochain1(x, int(rng.integers(2, 5)), rng)
            runs.append(("cocycle", a, None))
    for p in (Permutation([2, 1]), Permutation([2, 3, 1]), Permutation([2, 1, 3])):
        x3 = instances.bouquet_a3()
        a = images_to_cochain([p if p.degree == 3 else Permutation(list(p.images) + [3])], x3)
        runs.append(("cover", (cochain_to_covering(a), x3), None))
    runs.append(("hom", (Presentation(1, ((1, 1, 1),)), (Permutation([2, 1]),)), None))
    runs.append(("hom", (Presentation(2, ((1, 2, -1, -2),)),
                         (Permutation([2, 3, 1]), Permutation([2, 1, 3]))), None))
    runs.append(("matrix", (instances.blr_matrix(2), [1, 1, 1, 1]), None))
    runs.append(("matrix", (instances.blr_matrix(2), instances.linear_truth_tables(2)[1]), None))
    ci = instances.cut_instance(6)
    runs.append(("cocycle", ci.cochain, None))
    runs = runs[:20]
    assert len(runs) == 20
    hits = 0
    for idx, (kind, obj, weights) in enumerate(runs):
        out1 = run_sampled(kind, obj, trials, seed=1000 + idx, weights=weights)
        again = run_sampled(kind, obj, trials, seed=1000 + idx, weights=weights)
        assert json.dumps(asdict(out1), default=str) == json.dumps(asdict(again), default=str)
        p = float(out1.exact_rate)
        slack = 4 * math.sqrt(p * (1 - p) / trials)
        if abs(float(out1.empirical_rate) - p) <= slack:
            hits += 1
    assert hits >= 19
    _report(f"acceptance 10 Monte Carlo concentration {hits}/20; same-seed runs byte-identical")


def test_acceptance_11_parity_check_tester():
    rows = instances.blr_matrix(2)
    for table in instances.linear_truth_tables(2):
        assert matrix_tester(rows, table).value == 0
    # the row enumeration must equal the induced presentation defect;
    # recompute both sides here independently
    constant_one = [1, 1, 1, 1]
    report = matrix_tester(rows, constant_one)
    by_rows = Fraction(sum(1 for row in rows
                           if sum(r * v for r, v in zip(row, constant_one)) % 2),
                       len(rows))
    assert report.value == by_rows == 1
    from permstab.testers import matrix_to_presentation, vector_to_images
    p = matrix_to_presentation(rows)
    assert hom_local_defect(p, vector_to_images(constant_one)).value == by_rows
    _report("acceptance 11 parity tester: 4 linear tables accepted, constant-1 rejected")


def test_acceptance_12_cohomology_vanishing_facts():
    rng = np.random.default_rng(101)
    from permstab.graphs import is_connected
    for _ in range(50):
        v = int(rng.integers(2, 9))
        e = int(rng.integers(0, 12))
        g = instances.random_graph(v, e, rng)
        assert h0_vanishing_check(g).vanishes == is_connected(g)
    assert all(r.vanishes for r in h1_vanishing_check(instances.triangle_complex(), 3))
    from permstab.complexes import presentation_complex
    free = presentation_complex(Presentation(1, ()))
    assert [r.vanishes for r in h1_vanishing_check(free, 3)] == [False, False]
    assert [r.vanishes for r in h1_vanishing_check(instances.torus_complex(), 3)] == [False, False]
    _report("acceptance 12 H0 vanishing tracks connectivity; H1 verdicts match the examples")
