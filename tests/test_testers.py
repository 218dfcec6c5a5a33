import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permstab import instances
from permstab.cochains import (Cochain1, cochain_norm, cochain_to_covering,
                               images_to_cochain)
from permstab.complexes import (Presentation, fundamental_presentation,
                                polygon_weights)
from permstab.perm import Permutation, random_permutation
from permstab.testers import (GENERATOR_ID, cocycle_local_defect, cover_local_defect,
                              dm_cover_local_defect, hom_local_defect,
                              matrix_tester, matrix_to_presentation,
                              run_sampled, vector_to_images)

ID2 = Permutation.identity(2)
SWAP = Permutation([2, 1])
A3 = Presentation(1, ((1, 1, 1),))
TORUS_P = Presentation(2, ((1, 2, -1, -2),))


def test_hom_local_defect_examples():
    assert hom_local_defect(A3, (Permutation([2, 3, 1]),)).value == 0
    assert hom_local_defect(A3, (SWAP,)).value == 1
    f = (Permutation([2, 3, 1]), Permutation([2, 1, 3]))
    assert hom_local_defect(TORUS_P, f).value == 1


def test_hom_local_defect_weighted_and_empty():
    two = Presentation(1, ((1, 1), (1, 1, 1)))
    # (1 2): squares to Id, cube is (1 2) itself
    assert hom_local_defect(two, (SWAP,)).value == Fraction(1, 2)
    with pytest.warns(UserWarning):
        weighted = hom_local_defect(two, (SWAP,), mu=[Fraction(1), Fraction(0)])
    assert weighted.value == 0
    with pytest.warns(UserWarning):
        assert hom_local_defect(Presentation(1, ()), (SWAP,)).value == 0


def test_cocycle_defect_examples():
    x = instances.bouquet_a3()
    assert cocycle_local_defect(images_to_cochain([Permutation([2, 3, 1])], x)).value == 0
    assert cocycle_local_defect(instances.cut_instance(6).cochain).value == Fraction(1, 5)


def test_cover_defect_examples():
    x = instances.bouquet_a3()
    from_cocycle = cochain_to_covering(images_to_cochain([Permutation([2, 3, 1])], x))
    assert cover_local_defect(from_cocycle, x).value == 0
    c_swap = cochain_to_covering(images_to_cochain([SWAP], x))
    assert cover_local_defect(c_swap, x).value == 1
    c_partial = cochain_to_covering(images_to_cochain([Permutation([2, 1, 3])], x))
    assert cover_local_defect(c_partial, x).value == Fraction(2, 3)


def test_dm_defect_examples():
    x = instances.bouquet_a3()
    good = cochain_to_covering(images_to_cochain([Permutation([2, 3, 1])], x))
    assert dm_cover_local_defect(good, x).value == 0
    partial = cochain_to_covering(images_to_cochain([Permutation([2, 1, 3])], x))
    assert dm_cover_local_defect(partial, x).value == 1
    # two polygons, exactly one violated
    from permstab.complexes import presentation_complex
    y = presentation_complex(Presentation(2, ((1, 1, 1), (2, 2, 2))))
    a = images_to_cochain([Permutation([2, 1, 3]), Permutation([2, 3, 1])], y)
    c = cochain_to_covering(a)
    assert dm_cover_local_defect(c, y).value == Fraction(1, 2)


def test_dm_dominates_cover_defect():
    rng = np.random.default_rng(5)
    for x in (instances.bouquet_a3(), instances.complete_complex(4)):
        for _ in range(20):
            a = instances.random_cochain1(x, 3, rng)
            c = cochain_to_covering(a)
            assert dm_cover_local_defect(c, x).value >= cover_local_defect(c, x).value


def test_cover_defect_weighted():
    from permstab.complexes import presentation_complex
    y = presentation_complex(Presentation(2, ((1, 1, 1), (2, 2, 2))))
    a = images_to_cochain([Permutation([2, 1, 3]), Permutation([2, 3, 1])], y)
    c = cochain_to_covering(a)
    # point mass on the violated polygon
    ws = polygon_weights(y, [Fraction(1), Fraction(0)])
    assert cover_local_defect(c, y, ws).value == Fraction(2, 3)


def test_matrix_tester_examples():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert matrix_tester(rows, [1, 1, 1]).value == 0
    assert matrix_tester([[1, 1, 1]], [1, 0, 0]).value == 1
    p = matrix_to_presentation(rows)
    assert p.generator_count == 3
    assert p.relators == ((1, 3), (2, 3))
    assert vector_to_images([1, 0]) == (SWAP, ID2)


def test_matrix_tester_blr_instance():
    rows = instances.blr_matrix(2)
    for table in instances.linear_truth_tables(2):
        assert matrix_tester(rows, table).value == 0
    assert matrix_tester(rows, [1, 1, 1, 1]).value == 1


@st.composite
def _matrix_cases(draw):
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    bits = st.integers(0, 1)
    rows = draw(st.lists(st.lists(bits, min_size=width, max_size=width),
                         min_size=height, max_size=height))
    v = draw(st.lists(bits, min_size=width, max_size=width))
    raw = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height).filter(any))
    mu = draw(st.sampled_from([None, [Fraction(w, sum(raw)) for w in raw]]))
    return rows, v, mu


@pytest.mark.filterwarnings("ignore:mu")
@given(_matrix_cases())
def test_matrix_tester_equals_induced_presentation(case):
    rows, v, mu = case
    p = matrix_to_presentation(rows)
    assert matrix_tester(rows, v, mu).value == \
        hom_local_defect(p, vector_to_images(v), mu).value


def test_matrix_tester_validates():
    with pytest.raises(ValueError):
        matrix_tester([[1, 2]], [1, 1])
    with pytest.raises(ValueError):
        matrix_tester([[1, 1]], [1])
    with pytest.raises(ValueError):
        matrix_tester([[1, 1]], [1, 2])
    with pytest.warns(UserWarning):
        matrix_tester([[1, 1], [1, 0]], [1, 1], mu=[Fraction(1), Fraction(0)])


def test_run_sampled_degenerate_rates():
    x = instances.bouquet_a3()
    zero = images_to_cochain([Permutation([2, 3, 1])], x)
    out = run_sampled("cocycle", zero, 2000, seed=1)
    assert out.rejections == 0
    one = images_to_cochain([SWAP], x)
    out1 = run_sampled("cocycle", one, 2000, seed=1)
    assert out1.rejections == 2000
    assert out1.exact_rate == 1


def test_run_sampled_reproducible_for_seed():
    x = instances.complete_complex(4)
    rng = np.random.default_rng(9)
    a = instances.random_cochain1(x, 3, rng)
    o1 = run_sampled("cocycle", a, 20000, seed=12345)
    again = run_sampled("cocycle", a, 20000, seed=12345)
    assert json.dumps(asdict(o1), default=str) == json.dumps(asdict(again), default=str)


def _rational_distribution(size, rng):
    weights = [Fraction(int(rng.integers(0, 4))) for _ in range(size)]
    weights[int(rng.integers(size))] += 1
    return tuple(w / sum(weights) for w in weights)


@pytest.mark.filterwarnings("ignore:mu")
def test_sampled_exact_rate_equals_exact_defects():
    # run_sampled reads every orientation of each polygon class while the
    # exact defects read only the canonical one; equality pins the
    # orientation invariance that one reduction relies on
    rng = np.random.default_rng(31)
    for x in instances.corpus_complexes().values():
        p = fundamental_presentation(x, 1).presentation
        for n in (2, 3):
            a = instances.random_cochain1(x, n, rng)
            c = cochain_to_covering(a)
            images = tuple(random_permutation(n, rng) for _ in range(p.generator_count))
            ws = polygon_weights(x, _rational_distribution(len(x.polygons), rng))
            mu_r = _rational_distribution(len(p.relators), rng)
            assert cocycle_local_defect(a).value == cochain_norm(a)
            assert cocycle_local_defect(a, ws).value == cochain_norm(a, ws)
            cases = [("cocycle", a, None, cochain_norm(a)),
                     ("cocycle", a, ws, cochain_norm(a, ws)),
                     ("cover", (c, x), None, cover_local_defect(c, x).value),
                     ("cover", (c, x), ws, cover_local_defect(c, x, ws).value),
                     ("cover_dm", (c, x), None, dm_cover_local_defect(c, x).value),
                     ("hom", (p, images), None, hom_local_defect(p, images).value),
                     ("hom", (p, images), mu_r, hom_local_defect(p, images, mu_r).value)]
            for kind, obj, weights, exact in cases:
                out = run_sampled(kind, obj, 1, seed=n, weights=weights)
                assert out.exact_rate == exact, (kind, weights is not None)
    for _ in range(20):
        height, width = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rows = rng.integers(0, 2, size=(height, width)).tolist()
        v = rng.integers(0, 2, size=width).tolist()
        for mu in (None, _rational_distribution(height, rng)):
            out = run_sampled("matrix", (rows, v), 1, seed=0, weights=mu)
            assert out.exact_rate == matrix_tester(rows, v, mu).value


def test_run_sampled_concentrates():
    x = instances.bouquet_a3()
    a = images_to_cochain([Permutation([2, 1, 3])], x)   # exact defect 2/3
    out = run_sampled("cocycle", a, 100000, seed=77)
    p = 2 / 3
    slack = 3 * math.sqrt(p * (1 - p) / out.trials)
    assert abs(float(out.empirical_rate) - p) <= slack
    assert out.exact_rate == Fraction(2, 3)


def test_run_sampled_hom_cover_matrix_kinds():
    out = run_sampled("hom", (A3, (SWAP,)), 5000, seed=3)
    assert out.rejections == 5000
    x = instances.bouquet_a3()
    c = cochain_to_covering(images_to_cochain([Permutation([2, 1, 3])], x))
    oc = run_sampled("cover", (c, x), 5000, seed=3)
    assert abs(float(oc.empirical_rate) - 2 / 3) < 0.05
    od = run_sampled("cover_dm", (c, x), 100, seed=3)
    assert od.rejections == 100
    om = run_sampled("matrix", (instances.blr_matrix(2), [1, 1, 1, 1]), 100, seed=3)
    assert om.rejections == 100


def test_run_sampled_linf():
    from permstab.complexes import presentation_complex
    y = presentation_complex(Presentation(2, ((1, 1, 1), (2, 2, 2))))
    a = images_to_cochain([Permutation([2, 1, 3]), Permutation([2, 3, 1])], y)
    out = run_sampled("cocycle", a, 50000, seed=21, linf=True)
    assert out.exact_rate == Fraction(2, 3)  # 1 - (1 - 2/3)(1 - 0)
    assert abs(float(out.empirical_rate) - 2 / 3) < 0.02
    with pytest.raises(ValueError):
        run_sampled("matrix", (instances.blr_matrix(2), [1, 1, 1, 1]), 10, seed=1, linf=True)


def test_run_sampled_validates():
    with pytest.raises(ValueError):
        run_sampled("nope", None, 10, seed=0)
    with pytest.raises(ValueError):
        run_sampled("hom", (A3, (SWAP,)), 0, seed=0)


def test_dm_equality_characterization():
    # the discrete-metric defect equals the pointwise one exactly when every
    # violated polygon has all of its lifts open
    rng = np.random.default_rng(202)
    from test_kernel_reference import _lift_tables, lift_path
    from permstab.graphs import origin

    for x in (instances.bouquet_a3(), instances.complete_complex(4)):
        for _ in range(30):
            a = instances.random_cochain1(x, 3, rng)
            c = cochain_to_covering(a)
            dm = dm_cover_local_defect(c, x).value
            cov = cover_local_defect(c, x).value
            tables = _lift_tables(c)
            fully_open = True
            for pc in x.polygons:
                x0 = origin(x.skeleton, pc.canonical[0])
                opens = [lift_path(c, pc.canonical, s, tables) != s
                         for s in c.fiber_labels[x0 - 1]]
                if any(opens) and not all(opens):
                    fully_open = False
            assert dm >= cov
            assert (dm == cov) == fully_open


# ---------------------------------------------------------------------------
# the sampled stream, pinned: every kind, plain and L-infinity mode, uniform
# and non-uniform weights, trial counts around the 4096-trial chunk border

_GOLDEN_TRIALS = (1, 4095, 4096, 4097, 3 * 4096 + 17)
_GOLDEN_SEEDS = (0, 987654321)
_K4_VALUES = ([2, 1, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [2, 1, 3, 4], [1, 2, 3, 4],
              [1, 3, 2, 4])
_HOM_P = Presentation(2, ((1, 1, 1), (1, 2, -1, -2), (2, 2), (1, 1, 2)))
_HOM_IMAGES = (Permutation([2, 3, 1, 5, 4]), Permutation([1, 3, 2, 5, 4]))
_MATRIX = ([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 1], [0, 0, 1, 1, 1]],
           [1, 0, 1, 1, 0])
_SKEWED = (Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 6))


def _golden_cases():
    """(name, kind, obj, linf, weights) for every pinned stream."""
    k4 = instances.complete_complex(4)
    a = Cochain1(k4, 4, tuple(Permutation(v) for v in _K4_VALUES))
    cover = (cochain_to_covering(a), k4)
    ws = polygon_weights(k4, _SKEWED)
    hom = (_HOM_P, _HOM_IMAGES)
    matrix_mu = (Fraction(1, 8), Fraction(0), Fraction(3, 8), Fraction(1, 2))
    return [("hom", "hom", hom, False, None),
            ("hom-mu", "hom", hom, False, _SKEWED),
            ("hom-linf", "hom", hom, True, None),
            ("cocycle", "cocycle", a, False, None),
            ("cocycle-mu", "cocycle", a, False, ws),
            ("cocycle-linf", "cocycle", a, True, None),
            ("cover", "cover", cover, False, None),
            ("cover-mu", "cover", cover, False, ws),
            ("cover-linf", "cover", cover, True, None),
            ("cover_dm", "cover_dm", cover, False, None),
            ("matrix", "matrix", _MATRIX, False, None),
            ("matrix-mu", "matrix", _MATRIX, False, matrix_mu)]


# rejections for each trial count of _GOLDEN_TRIALS, captured from the
# per-chunk Generator.choice kernel that the guide-table draw replaced
_GOLDEN = {
    ("hom", 0): (0, 1796, 1815, 1815, 5511),
    ("hom", 987654321): (1, 1838, 1832, 1833, 5525),
    ("hom-mu", 0): (0, 1312, 1279, 1279, 4016),
    ("hom-mu", 987654321): (0, 1380, 1365, 1366, 4112),
    ("hom-linf", 0): (1, 3910, 3911, 3912, 11753),
    ("hom-linf", 987654321): (1, 3896, 3897, 3898, 11702),
    ("cocycle", 0): (1, 1779, 1789, 1790, 5362),
    ("cocycle", 987654321): (1, 1759, 1784, 1785, 5360),
    ("cocycle-mu", 0): (1, 1164, 1173, 1174, 3532),
    ("cocycle-mu", 987654321): (0, 1158, 1183, 1184, 3583),
    ("cocycle-linf", 0): (1, 3860, 3862, 3863, 11560),
    ("cocycle-linf", 987654321): (1, 3864, 3865, 3866, 11587),
    ("cover", 0): (1, 1779, 1789, 1790, 5362),
    ("cover", 987654321): (1, 1759, 1784, 1785, 5360),
    ("cover-mu", 0): (1, 1164, 1173, 1174, 3532),
    ("cover-mu", 987654321): (0, 1158, 1183, 1184, 3583),
    ("cover-linf", 0): (1, 3860, 3862, 3863, 11560),
    ("cover-linf", 987654321): (1, 3864, 3865, 3866, 11587),
    ("cover_dm", 0): (1, 3087, 3088, 3089, 9273),
    ("cover_dm", 987654321): (1, 3027, 3028, 3029, 9144),
    ("matrix", 0): (1, 3102, 3103, 3104, 9284),
    ("matrix", 987654321): (1, 3094, 3095, 3095, 9322),
    ("matrix-mu", 0): (0, 2047, 2047, 2047, 6173),
    ("matrix-mu", 987654321): (1, 2076, 2077, 2077, 6231),
}


@pytest.mark.filterwarnings("ignore:mu")
def test_run_sampled_golden_stream():
    cases = _golden_cases()
    assert {(name, seed) for name, *_ in cases for seed in _GOLDEN_SEEDS} == set(_GOLDEN)
    for name, kind, obj, linf, weights in cases:
        for seed in _GOLDEN_SEEDS:
            got = tuple(run_sampled(kind, obj, trials, seed, linf=linf,
                                    weights=weights).rejections
                        for trials in _GOLDEN_TRIALS)
            assert got == _GOLDEN[name, seed], (name, seed)
    assert GENERATOR_ID == "numpy-philox4x64/seedseq-chunk4096"


@pytest.mark.parametrize("trials", [1e6, 2.0, True, np.True_, "10", None])
def test_run_sampled_refuses_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        run_sampled("hom", (A3, (SWAP,)), trials, seed=0)


@pytest.mark.parametrize("seed", [1.0, 0.5, False, "1", None, -1])
def test_run_sampled_refuses_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        run_sampled("hom", (A3, (SWAP,)), 10, seed=seed)


def test_run_sampled_takes_numpy_integers():
    out = run_sampled("hom", (A3, (SWAP,)), np.int64(10), seed=np.uint32(3))
    assert (out.trials, out.seed) == (10, 3)
    assert type(out.trials) is int and type(out.seed) is int
