"""The randomized testers: exact rejection probabilities and Monte Carlo runs.

Every tester is a table of rejecting (constraint, orientation, point) cells
plus a distribution over constraints, and ``_reject_tables`` is the one place
that builds both for each kind.  Exact local defects (``local_defect``) are
the mu-weighted rejecting share of those tables, computed by full
enumeration; ``run_sampled`` draws cells from the same tables and exists to
model the testers as stated and for profiling.  Sampled runs are driven by
a counter-based generator (numpy Philox) with per-chunk derived seeds, so a
run is a pure function of (seed, trials).

The stream, named by ``GENERATOR_ID``, is fixed: chunk c holds at most 4096
trials, is keyed by SeedSequence(seed, spawn_key=(c,)) and reads one uniform
block, ``random((3, size))`` in plain mode and ``random((2, size, k))`` in
L-infinity mode over k constraints.  A plain trial's constraint is the index
``Generator.choice(p=mu)`` gives from the same uniform; a guide table over
4096 cells finds it without a search outside the cells that hold a step of
the cumulative distribution.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cochains import (Cochain1, _images, _moved, _mu2, _polygon_tables, _rate,
                       _require_polygons, _value_table, covering_to_cochain)
from .complexes import (PolygonalComplex, Presentation, WeightingSystem,
                        _check_distribution, uniform_distribution)
from .graphs import Covering
from .perm import Permutation, _integer

GENERATOR_ID = "numpy-philox4x64/seedseq-chunk4096"
_CHUNK = 4096
_GUIDE_CELLS = 1 << 12


@dataclass(frozen=True)
class DefectReport:
    kind: str            # hom | cocycle | cover | cover_dm | matrix
    value: Fraction
    distribution: str

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("defect must lie in [0, 1]")


@dataclass(frozen=True)
class TestOutcome:
    trials: int
    rejections: int
    empirical_rate: Fraction
    seed: int
    generator: str
    exact_rate: Fraction


def _warn(message: str) -> None:
    """Warn at the first calling line outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _check_mu(mu: Sequence[Fraction] | None, size: int, what: str) -> tuple[Fraction, ...]:
    if mu is None:
        return uniform_distribution(size)
    vec = _check_distribution(mu, size, what)
    if any(v == 0 for v in vec):
        _warn(f"{what} is not fully supported; the tester loses completeness")
    return vec


# ---------------------------------------------------------------------------
# rejection tables: one boolean array of shape (orientations, points) per
# constraint, True where the tester rejects


def _hom_tables(p: Presentation, images: Sequence[Permutation]) -> list[np.ndarray]:
    if len(images) != p.generator_count:
        raise ValueError("need one image per generator")
    if not p.relators:
        return []
    if not images:
        raise ValueError("need at least one generator image to fix the degree")
    return list(_moved(_value_table(_images(images, images[0].degree)), p.relators)[:, None, :])


def _cocycle_tables(a: Cochain1, every_orientation: bool) -> list[np.ndarray]:
    return _polygon_tables(_require_polygons(a.space), a.rows, every_orientation)


def _linf_exact(tables: list[np.ndarray]) -> Fraction:
    return 1 - math.prod(1 - Fraction(int(t.sum()), t.size) for t in tables)


# ---------------------------------------------------------------------------
# one assembly per tester kind, read exactly or by sampling

# the name of each kind's constraint distribution; cover_dm has none
_DISTRIBUTION = {"hom": "mu_R", "cocycle": "mu2", "cover": "mu2", "matrix": "mu"}


def _reject_tables(kind: str, obj, weights, every_orientation: bool
                   ) -> tuple[tuple[Fraction, ...], list[np.ndarray]]:
    """Constraint distribution and rejection tables of a tester.

    ``weights`` is a WeightingSystem for cocycle/cover kinds and a plain
    distribution over relators/rows for hom/matrix; cover_dm refuses one.
    A (covering, complex) is read as its ``covering_to_cochain``: a polygon's
    lift from sheet j closes exactly when that cochain's polygon value fixes j.
    A presentation with no relators has no tables and no distribution.
    """
    if kind in ("cover", "cover_dm"):
        c, x = obj
        obj = covering_to_cochain(c, x)
    if kind in ("cocycle", "cover", "cover_dm"):
        tables = _cocycle_tables(obj, every_orientation)
        if kind != "cover_dm":
            return _mu2(obj.space, weights), tables
        if weights is not None:
            raise ValueError("the discrete-metric cover tester takes no weights")
        # discrete metric: a polygon class rejects when any of its points does
        return uniform_distribution(len(tables)), [t.any(axis=1, keepdims=True) for t in tables]
    if kind == "matrix":   # the hom tester over Sym(2): a row rejects both points or neither
        rows, v = obj
        if any(len(row) != len(v) for row in rows):
            raise ValueError(f"rows must have length {len(v)}")
        obj = (matrix_to_presentation(rows), vector_to_images(v))
    elif kind != "hom":
        raise ValueError(f"unknown tester kind {kind!r}")
    tables = _hom_tables(*obj)
    return (_check_mu(weights, len(tables), _DISTRIBUTION[kind]) if tables else ()), tables


def local_defect(kind: str, obj, weights=None) -> DefectReport:
    """Exact rejection probability of a tester, for ``run_sampled``'s kinds,
    objects and weights.

    It reads one orientation per polygon class: moved-point counts are
    invariant under conjugation and inversion, so every orientation rejects
    at the same rate.  A presentation with no relators gives 0 and a warning.
    """
    mu, tables = _reject_tables(kind, obj, weights, every_orientation=False)
    if not tables:
        _warn("presentation has no relators; defect is trivially 0")
    return DefectReport(kind, _rate(mu, tables),
                        "uniform" if weights is None else _DISTRIBUTION[kind])


def hom_local_defect(p: Presentation, images: Sequence[Permutation],
                     mu: Sequence[Fraction] | None = None) -> DefectReport:
    """Expected distance of relator images from the identity: the rejection
    probability of sampling a relator (uniformly or by mu) and a point, and
    accepting when the relator image fixes it."""
    return local_defect("hom", (p, images), mu)


def cocycle_local_defect(a: Cochain1, weights: WeightingSystem | None = None) -> DefectReport:
    """Tester-facing name for the coboundary norm of a 1-cochain."""
    return local_defect("cocycle", a, weights)


def cover_local_defect(c: Covering, x: PolygonalComplex,
                       weights: WeightingSystem | None = None) -> DefectReport:
    """Probability that the lift of a random polygon at a random fiber point
    is open; it equals the coboundary norm of ``covering_to_cochain(c, x)``."""
    return local_defect("cover", (c, x), weights)


def dm_cover_local_defect(c: Covering, x: PolygonalComplex) -> DefectReport:
    """Discrete-metric variant: fraction of polygon classes with any open lift."""
    return local_defect("cover_dm", (c, x))


# ---------------------------------------------------------------------------
# the matrix tester (parity checks over F2)


def matrix_to_presentation(rows: Sequence[Sequence[int]]) -> Presentation:
    """One generator per column, and per row the index-ordered product of the
    generators carrying a 1."""
    m = [[int(v) for v in row] for row in rows]
    if not m or not m[0]:
        raise ValueError("matrix must be nonempty")
    width = len(m[0])
    for row in m:
        if len(row) != width:
            raise ValueError("rows have inconsistent lengths")
        if any(v not in (0, 1) for v in row):
            raise ValueError("matrix entries must be 0 or 1")
    relators = tuple(tuple(j + 1 for j, v in enumerate(row) if v) for row in m)
    return Presentation(width, relators)


def vector_to_images(v: Sequence[int]) -> tuple[Permutation, ...]:
    if any(int(bit) not in (0, 1) for bit in v):
        raise ValueError("vector entries must be 0 or 1")
    return tuple(Permutation([2, 1] if int(bit) else [1, 2]) for bit in v)


def matrix_tester(rows: Sequence[Sequence[int]], v: Sequence[int],
                  mu: Sequence[Fraction] | None = None) -> DefectReport:
    """Exact rejection probability of the parity-check tester on the vector v:
    the hom local defect of ``matrix_to_presentation(rows)`` at
    ``vector_to_images(v)`` under the same row distribution."""
    return local_defect("matrix", (rows, v), mu)


# ---------------------------------------------------------------------------
# Monte Carlo


def _constraint_guide(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chen-Asau guide table for ``Generator.choice(p=mu)`` over ``_GUIDE_CELLS`` cells.

    ``cdf`` is built exactly as ``choice`` builds it, and ``choice`` returns
    ``cdf.searchsorted(u, side="right")`` for a uniform u.  ``start[j]`` is
    that index at the left end ``j / _GUIDE_CELLS`` of cell j; it holds for
    the whole cell unless a cdf value lies strictly inside it, which
    ``mixed[j]`` marks.
    """
    cdf = mu.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
    start = cdf.searchsorted(edges[:-1], side="right")
    mixed = cdf.searchsorted(edges[1:], side="left") > start
    return cdf, start, mixed


def _draw_constraints(u: np.ndarray, cdf: np.ndarray, start: np.ndarray,
                      mixed: np.ndarray) -> np.ndarray:
    """The indices ``Generator.choice(p=mu)`` draws from the uniforms ``u``.

    ``u * _GUIDE_CELLS`` scales by a power of two, so it is exact and so is
    the cell of u; only uniforms in a cell holding a cdf step are searched.
    """
    cell = (u * _GUIDE_CELLS).astype(np.intp)
    cons = start[cell]
    if mixed.any():
        fix = np.flatnonzero(mixed[cell])
        cons[fix] = cdf.searchsorted(u[fix], side="right")
    return cons


def _sampled_rejections(mu: Sequence[Fraction], tables: list[np.ndarray], trials: int,
                        seed: int, linf: bool) -> int:
    """Rejections in ``trials`` seeded draws from the tables; see ``run_sampled``."""
    orients = np.array([t.shape[0] for t in tables], dtype=np.intp)
    points = np.array([t.shape[1] for t in tables], dtype=np.intp)
    flat = np.concatenate([t.reshape(-1) for t in tables])
    offsets = np.concatenate(([0], np.cumsum(orients * points)[:-1])).astype(np.intp)
    k = len(tables)
    if linf:
        # per-constraint counts repeated for `rows` trials, a power of two and
        # so a divisor of every full chunk: the index arithmetic then runs on
        # rows of about _CHUNK entries instead of rows of length k
        rows = 1 << max(0, (_CHUNK // k).bit_length() - 1)
        orients, points, offsets = (np.tile(v, rows) for v in (orients, points, offsets))
        # one chunk's buffers, allocated once per call: each chunk fills views
        width = min(trials, _CHUNK) * k
        uniforms, rejected = np.empty(2 * width), np.empty(width, dtype=bool)
        index, term = np.empty(width, dtype=np.intp), np.empty(width, dtype=np.intp)
        hits = np.empty(min(trials, _CHUNK), dtype=bool)
    else:
        weights = np.array([float(w) for w in mu])
        guide = _constraint_guide(weights / weights.sum())

    def run_chunk(chunk_index: int, size: int) -> int:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))))
        if linf:
            # the random((2, size, k)) block, read g trials to a row; a
            # float-to-int copy truncates, as astype does
            g = math.gcd(size, rows)
            m = g * k
            u = rng.random(out=uniforms[:2 * size * k].reshape(2, size // g, m))
            idx, add = (b[:size * k].reshape(size // g, m) for b in (index, term))
            np.copyto(idx, np.multiply(u[0], orients[:m], out=u[0]), casting="unsafe")
            idx *= points[:m]
            idx += offsets[:m]
            np.copyto(add, np.multiply(u[1], points[:m], out=u[1]), casting="unsafe")
            idx += add
            # "clip" never clips here (every index is in range) and, unlike
            # "raise", writes straight into ``out``
            rej = np.take(flat, index[:size * k], out=rejected[:size * k],
                          mode="clip").reshape(size, k)
            hit = hits[:size]
            np.copyto(hit, rej[:, 0])
            for column in rej.T[1:]:
                hit |= column
            return int(np.count_nonzero(hit))
        u = rng.random((3, size))
        cons = _draw_constraints(u[0], *guide)
        pc = points[cons]
        o = (u[1] * orients[cons]).astype(np.intp)
        i = (u[2] * pc).astype(np.intp)
        return int(np.count_nonzero(flat[offsets[cons] + o * pc + i]))

    return sum(run_chunk(idx, min(_CHUNK, trials - idx * _CHUNK))
               for idx in range((trials + _CHUNK - 1) // _CHUNK))


def run_sampled(kind: str, obj, trials: int, seed: int, linf: bool = False,
                weights=None) -> TestOutcome:
    """Seeded Monte Carlo run of a tester.

    Each 4096-trial chunk draws from Philox keyed by SeedSequence(seed,
    spawn_key=(chunk,)) and chunk results are summed in order, so the outcome
    is a pure function of (seed, trials).  A plain chunk of ``size`` trials
    reads one ``random((3, size))`` block: row 0 picks the constraint, the
    index ``Generator.choice(n, size, p=mu)`` gives from the same uniforms,
    rows 1 and 2 pick the orientation and the point.  With ``linf`` every
    constraint is sampled once per trial and a single open check rejects; a
    chunk reads one ``random((2, size, k))`` block for k constraints
    (orientations, then points).  ``exact_rate`` is the exact rejection
    probability read from the same tables the trials sample, 1 - prod(1 -
    p_c) with ``linf``, which never reads weights and so refuses them.
    ``trials`` and ``seed`` must be integers (not bools), at least 1 and 0.
    """
    trials = _integer(trials, "trials")
    seed = _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if linf and kind in ("matrix", "cover_dm"):
        raise ValueError(f"no L-infinity variant for kind {kind!r}")
    if linf and weights is not None:
        raise ValueError("the L-infinity tester checks every constraint, so it takes no weights")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mu, tables = _reject_tables(kind, obj, weights, every_orientation=True)
    if not tables:
        raise ValueError("presentation has no relators; there is nothing to sample")
    exact_rate = _linf_exact(tables) if linf else _rate(mu, tables)
    rejections = _sampled_rejections(mu, tables, trials, seed, linf)
    return TestOutcome(trials, rejections, Fraction(rejections, trials),
                       seed, GENERATOR_ID, exact_rate)
