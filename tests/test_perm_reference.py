"""Differential tests: the unchecked library paths against a validating reference.

``compose``, ``inverse``, ``evaluate_word`` and ``path_value`` build their
results without re-checking bijectivity.  The reference below builds every
value through the validating constructor ``Permutation(...)`` and applies
factors one point at a time, so it shares no product code with the library.
"""

from hypothesis import given, strategies as st

from permstab import instances
from permstab.cochains import Cochain1, path_value
from permstab.graphs import origin, vertex_stars
from permstab.perm import Permutation, compose, evaluate_word


def ref_identity(n):
    return Permutation(range(1, n + 1))


def ref_compose(a, b):
    return Permutation([a(b(i)) for i in range(1, b.degree + 1)])


def ref_inverse(p):
    return Permutation([p.images.index(i) + 1 for i in range(1, p.degree + 1)])


def ref_word(word, images):
    acc = ref_identity(images[0].degree)
    for letter in word:
        factor = images[abs(letter) - 1]
        acc = ref_compose(acc, factor if letter > 0 else ref_inverse(factor))
    return acc


def assert_valid(r):
    assert Permutation(r.images) == r


def perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(1, 7))
    return draw(perms(n)), draw(perms(n))


@st.composite
def word_instances(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    images = [draw(perms(n)) for _ in range(k)]
    letters = [s for g in range(1, k + 1) for s in (g, -g)]
    return draw(st.lists(st.sampled_from(letters), max_size=12)), images


CORPUS = [instances.bouquet_a3(), instances.triangle_complex(),
          instances.torus_complex(), instances.complete_complex(4)]


@st.composite
def walk_instances(draw):
    """A random cochain and a random walk (a composable edge path) on it."""
    x = draw(st.sampled_from(CORPUS))
    g = x.skeleton
    n = draw(st.integers(1, 5))
    a = Cochain1(x, n, tuple(draw(perms(n)) for _ in g.edges))
    stars = vertex_stars(g)
    v = draw(st.integers(1, g.vertex_count))
    path = []
    for _ in range(draw(st.integers(0, 10))):
        s = -draw(st.sampled_from(stars[v - 1]))   # leaves v
        path.append(s)
        v = origin(g, -s)
    return a, tuple(path)


@given(perm_pairs())
def test_compose_and_inverse_match_reference(pair):
    a, b = pair
    for r, ref in ((compose(a, b), ref_compose(a, b)),
                   (a * b, ref_compose(a, b)),
                   (a.inverse(), ref_inverse(a))):
        assert r == ref
        assert_valid(r)


@given(word_instances())
def test_evaluate_word_matches_reference(inst):
    word, images = inst
    r = evaluate_word(word, images)
    assert r == ref_word(word, images)
    assert_valid(r)


@given(walk_instances())
def test_path_value_matches_reference(inst):
    a, path = inst
    r = path_value(a, path)
    assert r == ref_word(path, a.values)
    assert_valid(r)
