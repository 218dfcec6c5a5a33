"""Permutations of finite degree, signed words, and the flexible Hamming metric.

Points are 1-based, so a permutation of degree n acts on {1, ..., n}.  The
metric compares permutations of *different* degrees: agreements are counted
on the smaller domain and normalized by the larger degree, so every missing
point of the smaller permutation counts as a disagreement.  All distances are
exact rationals; floating point only enters through the Hilbert-Schmidt
cross-check.

``Permutation(...)`` validates its input: outside data (user code, files)
becomes a permutation only through that check.  Library results (products,
inverses, identities, enumerations, random draws) are bijections by
construction and are trusted: they are wrapped by ``_trusted`` without
re-checking.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

#: A word in signed generator indices: letter +k is generator k, -k its inverse.
SignedWord = tuple[int, ...]


class Permutation:
    """Bijection of {1, ..., n} stored as the image tuple (p(1), ..., p(n)).

    >>> p = Permutation([2, 3, 1])
    >>> p(1), p(3)
    (2, 1)
    >>> (p * p * p).is_identity()
    True
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(images)
        if set(map(type, imgs)) != {int}:
            imgs = tuple(_integer(v, "image") for v in imgs)
        if not imgs:
            raise ValueError("degree must be at least 1")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"images {imgs!r} are not a bijection of 1..{len(imgs)}")
        _trusted(imgs, self)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return _trusted(tuple(range(1, _check_degree(n) + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return _trusted(tuple(inv))

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images, start=1) if i == j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self.images[i - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def _trusted(images: tuple[int, ...], into: Permutation | None = None) -> Permutation:
    """The one place that sets ``images``: wrap a known bijection of 1..n unchecked.

    Fills ``into`` (the validating constructor passes itself) or a new object.
    """
    p = object.__new__(Permutation) if into is None else into
    p.images = images
    return p


def _integer(value: object, what: str) -> int:
    """``value`` as a Python int, through ``operator.index``.

    Bools are refused although they are ints, and so is every non-integral
    value (2.0 included): a ValueError names ``what``.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_degree(n: int) -> int:
    n = _integer(n, "degree")
    if n < 1:
        raise ValueError("degree must be at least 1")
    return n


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a o b)(i) = a(b(i)): the right factor acts first."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    ai = a.images
    return _trusted(tuple([ai[j - 1] for j in b.images]))


def _assignment_degree(images: Sequence[Permutation], generator_count: int) -> int:
    """The degree of a generator assignment, the one check of its shape: one
    image per generator, at least one, all of one degree."""
    if len(images) != generator_count:
        raise ValueError("need one image per generator")
    if not images:
        raise ValueError("need at least one generator image to fix the degree")
    if len({p.degree for p in images}) > 1:
        raise ValueError("generator images must share one degree")
    return images[0].degree


def evaluate_word(word: Sequence[int], images: Sequence[Permutation]) -> Permutation:
    """Image of a signed word under generator assignments.

    The word s1 s2 ... sl evaluates to images[s1] o images[s2] o ... with the
    composition convention above, i.e. the last letter acts first.  The empty
    word gives the identity.
    """
    n = _assignment_degree(images, len(images))
    acc = tuple(range(1, n + 1))
    for letter in check_word(word, len(images)):
        factor = images[letter - 1] if letter > 0 else images[-letter - 1].inverse()
        acc = tuple([acc[j - 1] for j in factor.images])
    return _trusted(acc)


def hamming_distance_with_errors(a: Permutation, b: Permutation) -> Fraction:
    """1 - (agreements on the smaller domain) / (larger degree), exact.

    Zero exactly when the permutations coincide (same degree, same images);
    for distinct degrees the value is at least 1 - n/N > 0.
    """
    n = min(a.degree, b.degree)
    big = max(a.degree, b.degree)
    agree = sum(1 for i in range(n) if a.images[i] == b.images[i])
    return Fraction(big - agree, big)


def permutation_matrix(p: Permutation) -> np.ndarray:
    """The matrix with a 1 at (p(j), j) for every j."""
    return np.eye(p.degree)[:, np.array(p.images) - 1]


def hs_distance_check(a: Permutation, b: Permutation) -> tuple[Fraction, float]:
    """Return (d_h(a, b), half the squared normalized Hilbert-Schmidt distance).

    The permutations embed as permutation matrices; with the normalized norm
    ||A||^2 = tr(A*A)/n the two entries agree to 1e-12, which ties the
    combinatorial metric to the Hilbert-space one.
    """
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")
    diff = permutation_matrix(a) - permutation_matrix(b)
    hs_sq = float(np.sum(diff * diff)) / a.degree
    return hamming_distance_with_errors(a, b), hs_sq / 2.0


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of Sym(n) in lexicographic order of image tuples (identity first)."""
    for imgs in itertools.permutations(range(1, _check_degree(n) + 1)):
        yield _trusted(imgs)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return _trusted(tuple(int(v) + 1 for v in rng.permutation(_check_degree(n))))


# ---------------------------------------------------------------------------
# signed-word utilities


def check_word(word: Sequence[int], alphabet: int) -> SignedWord:
    w = tuple(int(x) for x in word)
    for letter in w:
        if letter == 0 or abs(letter) > alphabet:
            raise ValueError(f"letter {letter} outside alphabet 1..{alphabet}")
    return w


def invert_word(word: Sequence[int]) -> SignedWord:
    return tuple(-x for x in reversed(word))


def free_reduce(word: Sequence[int]) -> SignedWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def cyclic_reduce(word: Sequence[int]) -> SignedWord:
    """Freely reduce, then cancel inverse pairs across the wrap-around."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)
