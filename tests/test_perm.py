import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permstab.perm import (Permutation, all_permutations, compose,
                           cyclic_reduce, evaluate_word, free_reduce,
                           hamming_distance_with_errors, hs_distance_check,
                           invert_word, random_permutation)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([0, 1])



@pytest.mark.parametrize("images", [[2.0, 1.0], [True], [np.True_], [1, 2.5], ["1"],
                                    [Fraction(1)]])
def test_rejects_non_integer_images(images):
    with pytest.raises(ValueError, match="image"):
        Permutation(images)


@pytest.mark.parametrize("n", [2.0, True, np.True_, "3", Fraction(3)])
def test_rejects_non_integer_degrees(n):
    with pytest.raises(ValueError, match="degree"):
        Permutation.identity(n)
    with pytest.raises(ValueError, match="degree"):
        list(all_permutations(n))


def test_integer_like_images_are_stored_as_python_ints():
    for p in (Permutation(np.array([2, 1, 3])), Permutation([np.int32(2), 1]),
              Permutation.identity(np.int64(3))):
        assert all(type(v) is int for v in p.images)
    assert Permutation(np.array([2, 1, 3])) == Permutation([2, 1, 3])
    assert hash(Permutation(np.array([2, 1]))) == hash(Permutation([2, 1]))


def test_compose_identity_and_order():
    swap = Permutation([2, 1])
    assert compose(swap, Permutation.identity(2)) == swap
    cyc = Permutation([2, 3, 1])
    assert compose(compose(cyc, cyc), cyc).is_identity()


def test_compose_applies_right_factor_first():
    a = Permutation([2, 1, 3])   # (1 2)
    b = Permutation([2, 3, 1])   # (1 2 3)
    assert compose(a, b).images == (1, 3, 2)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation([2, 1]), Permutation([2, 3, 1]))


def test_inverse_and_call():
    p = Permutation([3, 1, 4, 2])
    assert compose(p, p.inverse()).is_identity()
    assert p(1) == 3 and p.inverse()(3) == 1


def test_evaluate_word_trivial_cases():
    swap = Permutation([2, 1])
    assert evaluate_word([], [swap]).is_identity()
    cyc = Permutation([2, 3, 1])
    assert evaluate_word([1, 1, 1], [cyc]).is_identity()


def test_evaluate_word_commutator():
    a = Permutation([2, 3, 1])               # (1 2 3)
    b = Permutation([2, 1, 3])               # (1 2)
    val = evaluate_word([1, 2, -1, -2], [a, b])
    assert val.images == (3, 1, 2)           # (1 3 2)


def test_evaluate_word_bad_letters():
    with pytest.raises(ValueError):
        evaluate_word([2], [Permutation([2, 1])])
    with pytest.raises(ValueError):
        evaluate_word([0], [Permutation([2, 1])])
    with pytest.raises(ValueError):
        evaluate_word([1], [Permutation([2, 1]), Permutation([2, 3, 1])])


def test_evaluate_word_names_what_is_wrong_with_the_images():
    for images, message in (((), "need at least one generator image to fix the degree"),
                            ((Permutation([2, 1]), Permutation([2, 3, 1])),
                             "generator images must share one degree")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_word([], images)


def test_hamming_distance_examples():
    assert hamming_distance_with_errors(Permutation.identity(3), Permutation.identity(3)) == 0
    # degree-2 transposition against the degree-4 identity: no agreements on [2]
    assert hamming_distance_with_errors(Permutation([2, 1]), Permutation.identity(4)) == 1
    assert hamming_distance_with_errors(Permutation([2, 1, 3]), Permutation([2, 3, 1])) == Fraction(2, 3)


def test_hamming_distance_symmetry_and_identity_of_indiscernibles():
    for a in all_permutations(3):
        for b in all_permutations(3):
            d = hamming_distance_with_errors(a, b)
            assert d == hamming_distance_with_errors(b, a)
            assert (d == 0) == (a == b)


def test_triangle_inequality_exhaustive_small_degrees():
    perms = [p for n in (2, 3, 4) for p in all_permutations(n)]
    import random
    random.seed(5)
    triples = [tuple(random.choices(perms, k=3)) for _ in range(4000)]
    # plus all same-degree triples in Sym(3)
    triples += list(itertools.product(list(all_permutations(3)), repeat=3))
    for a, b, c in triples:
        assert hamming_distance_with_errors(a, c) <= \
            hamming_distance_with_errors(a, b) + hamming_distance_with_errors(b, c)


def test_bi_invariance_fixed_degree():
    perms = list(all_permutations(3))
    for a, b, c in itertools.product(perms, repeat=3):
        d = hamming_distance_with_errors(a, b)
        assert hamming_distance_with_errors(compose(c, a), compose(c, b)) == d
        assert hamming_distance_with_errors(a.inverse(), b.inverse()) == d


def test_inverse_fixed_point_distance():
    for p in all_permutations(4):
        ident = Permutation.identity(4)
        assert hamming_distance_with_errors(p, ident) == \
            hamming_distance_with_errors(p.inverse(), ident)


def test_hs_bridge_examples():
    assert hs_distance_check(Permutation.identity(3), Permutation.identity(3)) == (0, 0.0)
    d, hs = hs_distance_check(Permutation([2, 1]), Permutation.identity(2))
    assert d == 1 and hs == pytest.approx(1.0, abs=1e-12)
    d, hs = hs_distance_check(Permutation([2, 3, 1]), Permutation([3, 1, 2]))
    assert d == 1 and hs == pytest.approx(1.0, abs=1e-12)


def test_hs_bridge_degree_mismatch():
    with pytest.raises(ValueError):
        hs_distance_check(Permutation([2, 1]), Permutation.identity(3))


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_word_evaluation_is_a_homomorphism(w1, w2):
    imgs = [Permutation([2, 3, 1]), Permutation([2, 1, 3])]
    assert evaluate_word(list(w1) + list(w2), imgs) == \
        compose(evaluate_word(w1, imgs), evaluate_word(w2, imgs))


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20))
def test_free_reduce_is_reduced_and_idempotent(word):
    r = free_reduce(word)
    assert all(a != -b for a, b in zip(r, r[1:]))
    assert free_reduce(r) == r
    c = cyclic_reduce(word)
    assert cyclic_reduce(c) == c
    assert not (len(c) >= 2 and c[0] == -c[-1])


def test_invert_word():
    assert invert_word((1, -2, 3)) == (-3, 2, -1)


def test_all_permutations_lex_order_and_count():
    perms = list(all_permutations(3))
    assert len(perms) == 6
    assert perms[0].is_identity()
    imgs = [p.images for p in perms]
    assert imgs == sorted(imgs)


def test_random_permutation_is_valid_and_seeded():
    rng = np.random.default_rng(0)
    p = random_permutation(6, rng)
    assert sorted(p.images) == list(range(1, 7))
    rng2 = np.random.default_rng(0)
    assert random_permutation(6, rng2) == p
