"""The three benchmark workloads: inputs made from a seed, one pass of
operations, and the check applied to every answer.

An operation is one call into a public permstab function (or one in-process
``permstab.cli.main`` call).  Its check runs after the timed call and raises
CheckFailed; it returns the answer pinned for the default seed, if any.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import permstab as ps
from permstab import cli, fileio, instances, stability
from permstab.cochains import Cochain1
from permstab.perm import Permutation

EXACT = "exact-within-cap"
KINDS = ("hom", "cocycle", "cover")
PRESENTATION_COMPLEXES = ("bouquet-a3", "torus")


class CheckFailed(Exception):
    """An answer disagrees with the identity or pinned value it must satisfy."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    id: str
    call: Callable[[dict], object]     # call(memo), memo = this pass's results by id
    # check(result, memo) -> (answer to pin or None, exactness labels produced)
    check: Callable[[object, dict], tuple[str | None, tuple[str, ...]]]
    trials: int = 0            # Monte Carlo trials drawn by the call
    fresh_cache: bool = False  # start with the homomorphism cache empty


@dataclass
class Probe:
    """Values and words on which the permutation primitives are timed."""
    values: tuple[Permutation, ...]
    words: tuple[tuple[int, ...], ...]


@dataclass
class Setup:
    ops: list[Op]
    probes: list[Probe]
    decompositions: list[tuple[str, Callable[[], None]]] = field(default_factory=list)
    reach: list[tuple[str, str]] = field(default_factory=list)  # (op id, reach row)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def random_perm(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation((rng.permutation(n) + 1).tolist())


def corpus(name: str):
    if name.startswith("complete-"):
        return instances.complete_complex(int(name.split("-")[1]))
    return {"bouquet-a3": instances.bouquet_a3, "torus": instances.torus_complex,
            "triangle": instances.triangle_complex}[name]()


def frac(text: str) -> Fraction:
    return fileio.frac_from_str(text)


def sampled_check(out, exact: Fraction) -> None:
    """exact_rate is the exact local defect; the empirical rate is in a 6-sigma band."""
    expect(out.exact_rate == exact, f"exact_rate {out.exact_rate} != local defect {exact}")
    p = float(exact)
    slack = 6 * math.sqrt(p * (1 - p) / out.trials) + 1 / out.trials
    expect(abs(float(out.empirical_rate) - p) <= slack,
           f"empirical rate {float(out.empirical_rate)} outside band around {p}")


# The homomorphism cache is private to stability; if a later version drops
# it, there is nothing to clear and no hits or misses to count.
def clear_hom_cache() -> None:
    cached = getattr(stability, "_homomorphisms_cached", None)
    if cached is not None:
        cached.cache_clear()


def hom_cache_info() -> tuple[int, int]:
    cached = getattr(stability, "_homomorphisms_cached", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def corrupt_to_band(clean: Cochain1, band: tuple[Fraction, Fraction],
                    corrupt: Callable, rng: np.random.Generator,
                    tries: int = 200) -> tuple[Cochain1, Fraction]:
    """Corrupt edge values until the exact local defect falls in the band."""
    x = clean.space
    m = len(x.skeleton.edges)
    for _ in range(tries):
        edges = [e for e in range(m) if rng.random() < 1 / 3] or [int(rng.integers(m))]
        vals = list(clean.values)
        for e in edges:
            vals[e] = corrupt(vals[e], rng)
        alpha = Cochain1(x, clean.degree, tuple(vals))
        defect = ps.cochain_norm(alpha)
        if band[0] <= defect <= band[1]:
            return alpha, defect
    raise RuntimeError(f"no corrupted cochain with defect in {band} after {tries} tries")


def tree_trivial(x, fp, images, degree: int) -> Cochain1:
    """The cochain with the given generator images and identity on tree edges."""
    gen = {k: i for i, k in enumerate(fp.generator_edges)}
    ident = Permutation.identity(degree)
    return Cochain1(x, degree, tuple(images[gen[k]] if k in gen else ident
                                     for k in range(1, len(x.skeleton.edges) + 1)))


def restricted_images(alpha: Cochain1, fp) -> tuple[Permutation, ...]:
    normalized, _ = ps.tree_normalize(alpha, fp.tree, fp.root)
    return tuple(normalized.values[k - 1] for k in fp.generator_edges)


def probe_of(alpha: Cochain1) -> Probe:
    return Probe(alpha.values, tuple(pc.canonical for pc in alpha.space.polygons))


# ---------------------------------------------------------------------------
# local_large_n: exact local defects and translations at large degree

LOCAL_INPUTS = (("complete-8", 1000), ("complete-8", 1000), ("complete-8", 250),
                ("complete-6", 750), ("complete-6", 250), ("torus", 1000),
                ("bouquet-a3", 999))
LOCAL_INPUTS_TINY = (("complete-6", 12), ("torus", 12), ("bouquet-a3", 9))
LOCAL_BAND = (Fraction(1, 100), Fraction(3, 4))
LOCAL_TRIALS = 200_000


def _clean_cocycle(name: str, x, n: int, rng: np.random.Generator) -> Cochain1:
    """A cocycle of degree n: a coboundary on complete complexes, a
    homomorphism on the presentation complexes."""
    if name == "torus":
        a = random_perm(n, rng)
        return Cochain1(x, n, (a, ps.compose(a, a)))
    if name == "bouquet-a3":
        pts = (rng.permutation(n) + 1).tolist()
        images = list(range(1, n + 1))
        for i in range(0, n - n % 3, 3):
            p, q, r = pts[i:i + 3]
            images[p - 1], images[q - 1], images[r - 1] = q, r, p
        return Cochain1(x, n, (Permutation(images),))
    beta = [random_perm(n, rng) for _ in range(x.skeleton.vertex_count)]
    return Cochain1(x, n, tuple(ps.compose(beta[u - 1].inverse(), beta[v - 1])
                                for u, v in x.skeleton.edges))


def _sparse_corruption(value: Permutation, rng: np.random.Generator) -> Permutation:
    """Compose with a random shuffle of a random eighth of the points."""
    n = value.degree
    support = rng.choice(n, size=max(2, n // 8), replace=False)
    images = list(range(1, n + 1))
    for src, dst in zip(support, rng.permutation(support)):
        images[src] = int(dst) + 1
    return ps.compose(value, Permutation(images))


def local_generate(seed: int, tiny: bool) -> list[dict]:
    items = []
    for idx, (name, n) in enumerate(LOCAL_INPUTS_TINY if tiny else LOCAL_INPUTS):
        rng = rng_for(seed, 0, idx)
        x = corpus(name)
        clean = _clean_cocycle(name, x, n, rng)
        alpha, defect = corrupt_to_band(clean, LOCAL_BAND, _sparse_corruption, rng)
        items.append({"label": f"{name}@{n}#{idx}", "x": x, "clean": clean,
                      "alpha": alpha, "defect": defect,
                      "fp": ps.fundamental_presentation(x, 1)})
    return items


def _local_ops(it: dict, trials: int, seed: int) -> list[Op]:
    pre, x, a, clean, d, fp = (it["label"], it["x"], it["alpha"], it["clean"],
                               it["defect"], it["fp"])
    n, vcount = a.degree, x.skeleton.vertex_count
    cover_id, normal_id = pre + "/cochain_to_covering", pre + "/tree_normalize"

    def is_defect(what: str, value_of=lambda r: r):
        def check(result, memo):
            value = value_of(result)
            expect(value == d, f"{what} {value} != cocycle local defect {d}")
            return str(value), ()
        return check

    def cover_ok(c, memo):
        expect(c.degree == n and c.graph.vertex_count == vcount * n,
               "covering has the wrong degree or size")
        return None, ()

    def round_trip(back, memo):
        expect(back.values == a.values, "covering round trip changed the cochain")
        return None, ()

    def tree_trivial_ok(res, memo):
        expect(all(res[0].values[k - 1].is_identity() for k in fp.tree),
               "tree_normalize left a tree edge nontrivial")
        return None, ()

    def sampled(out, memo):
        sampled_check(out, d)
        return str(out.exact_rate), ()

    def restriction(memo):
        return tuple(memo[normal_id][0].values[k - 1] for k in fp.generator_edges)

    report = lambda r: r.value
    return [
        Op(pre + "/cochain_norm", lambda memo: ps.cochain_norm(a), is_defect("cochain_norm")),
        Op(cover_id, lambda memo: ps.cochain_to_covering(a), cover_ok),
        Op(pre + "/cover_local_defect", lambda memo: ps.cover_local_defect(memo[cover_id], x),
           is_defect("cover local defect", report)),
        Op(pre + "/covering_to_cochain",
           lambda memo: ps.covering_to_cochain(memo[cover_id], x), round_trip),
        Op(pre + "/coboundary_distance", lambda memo: ps.coboundary_distance(a, clean),
           is_defect("distance to a cocycle's coboundary")),
        Op(normal_id, lambda memo: ps.tree_normalize(a, fp.tree, fp.root), tree_trivial_ok),
        Op(pre + "/hom_local_defect",
           lambda memo: ps.hom_local_defect(fp.presentation, restriction(memo)),
           is_defect("hom local defect of the restriction", report)),
        Op(pre + "/run_sampled", lambda memo: ps.run_sampled("cocycle", a, trials, seed),
           sampled, trials=trials),
    ]


def local_setup(items: list[dict], seed: int, workdir: Path, tiny: bool) -> Setup:
    trials = 4096 if tiny else LOCAL_TRIALS
    ops = [op for it in items for op in _local_ops(it, trials, seed)]
    return Setup(ops, [probe_of(it["alpha"]) for it in items])


# ---------------------------------------------------------------------------
# search_small_n: global-defect searches at small degree (the reach grid)

SEARCH_BAND = (Fraction(1, 8), Fraction(1))
# complex, n, inputs drawn, ((cap, kinds, inputs asked), ...).  The torus at
# n=3 costs far more per question than the rest (840 homomorphisms at N=5), so
# the cheap points get more inputs and no question type takes most of a pass.
SEARCH_GRID = (
    ("bouquet-a3", 2, 5, ((3, KINDS, 5), (4, KINDS, 5))),
    ("bouquet-a3", 3, 5, ((4, KINDS, 5), (5, KINDS, 5))),
    ("torus", 3, 3, ((4, KINDS, 3), (5, ("cover",), 1))),
    ("triangle", 2, 5, ((3, KINDS, 5), (4, KINDS, 5))),
    ("triangle", 3, 5, ((4, KINDS, 5), (5, KINDS, 5))),
    ("complete-4", 2, 5, ((3, KINDS, 5), (4, KINDS, 5))),
    ("complete-4", 3, 5, ((4, KINDS, 5), (5, KINDS, 5))),
    ("complete-5", 2, 5, ((3, KINDS, 5), (4, KINDS, 5))),
    ("complete-5", 3, 5, ((4, KINDS, 5),)),
    ("complete-6", 2, 5, ((3, KINDS, 5), (4, KINDS, 5))),
)
SEARCH_GRID_TINY = (
    ("bouquet-a3", 2, 1, ((3, KINDS, 1),)),
    ("complete-4", 2, 1, ((3, KINDS, 1),)),
)
H1_CAPS = (("bouquet-a3", 4), ("torus", 4), ("triangle", 4), ("complete-4", 4),
           ("complete-5", 3), ("complete-6", 3))
H1_CAPS_TINY = (("torus", 3),)


def _random_values(value: Permutation, rng: np.random.Generator) -> Permutation:
    return random_perm(value.degree, rng)


def search_generate(seed: int, tiny: bool) -> list[dict]:
    items = []
    for gidx, (name, n, count, asks) in enumerate(SEARCH_GRID_TINY if tiny else SEARCH_GRID):
        x = corpus(name)
        fp = ps.fundamental_presentation(x, 1)
        for j in range(count):
            rng = rng_for(seed, 1, gidx, j)
            alpha, defect = corrupt_to_band(ps.identity_cochain1(x, n), SEARCH_BAND,
                                            _random_values, rng, tries=1000)
            items.append({"label": f"{name}/n{n}/#{j}", "name": name, "x": x, "fp": fp,
                          "alpha": alpha, "defect": defect,
                          "images": restricted_images(alpha, fp),
                          "cover": ps.cochain_to_covering(alpha),
                          "asks": [(cap, kinds) for cap, kinds, k in asks if j < k]})
    return items


def _check_global(kind: str, item: dict, cap: int):
    alpha, name = item["alpha"], item["name"]

    def check(res, memo):
        expect(res.kind == kind and res.n_max_searched == cap, "wrong kind or cap")
        expect(res.exactness in (EXACT, "heuristic"), f"unknown label {res.exactness!r}")
        expect(0 < res.upper_bound <= 1, f"bound {res.upper_bound} outside (0, 1]")
        pre = f"{item['label']}/cap{cap}/"
        if kind == "hom":
            phi = res.witness
            p = item["fp"].presentation
            expect(all(ps.evaluate_word(r, phi).is_identity() for r in p.relators),
                   "hom witness is not a homomorphism")
            dist = Fraction(sum(ps.hamming_distance_with_errors(u, v)
                                for u, v in zip(item["images"], phi)), len(phi))
            expect(dist == res.upper_bound, "hom witness does not realize the bound")
        elif kind == "cocycle":
            expect(ps.is_cocycle(res.witness), "cocycle witness is not a cocycle")
            expect(ps.cochain_distance(alpha, res.witness) == res.upper_bound,
                   "cocycle witness does not realize the bound")
            hom = memo.get(pre + "hom")
            if hom is not None and hom.exactness == EXACT and res.exactness == EXACT:
                if name in PRESENTATION_COMPLEXES:
                    expect(hom.upper_bound == res.upper_bound,
                           "hom and cocycle global defects differ on a presentation complex")
                else:
                    expect(hom.upper_bound >= res.upper_bound,
                           "hom bound of the restriction is below the cocycle bound")
        else:
            expect(ps.is_cocycle(ps.covering_to_cochain(res.witness, item["x"])),
                   "cover witness does not encode a cocycle")
            coc = memo.get(pre + "cocycle")
            if coc is not None:
                expect(coc.upper_bound == res.upper_bound and coc.exactness == res.exactness,
                       "cover and cocycle global bounds differ")
        return f"{res.upper_bound} {res.exactness}", (res.exactness,)

    return check


def _h1_expected(name: str, degree: int) -> bool:
    if name == "torus":
        return False
    if name == "bouquet-a3":
        return degree < 3
    return True   # the other corpus complexes are simply connected


def search_setup(items: list[dict], seed: int, workdir: Path, tiny: bool) -> Setup:
    ops: list[Op] = []
    reach = []
    for item in items:
        objs = {"hom": (item["fp"].presentation, item["images"]),
                "cocycle": item["alpha"], "cover": (item["cover"], item["x"])}
        for cap, kinds in item["asks"]:
            for kind in kinds:
                oid = f"{item['label']}/cap{cap}/{kind}"
                ops.append(Op(oid, lambda memo, kind=kind, obj=objs[kind], cap=cap:
                              ps.global_defect(kind, obj, cap),
                              _check_global(kind, item, cap), fresh_cache=True))
                reach.append((oid, f"{item['name']} n={item['alpha'].degree} cap={cap} {kind}"))

        def sampled(out, memo, d=item["defect"]):
            sampled_check(out, d)
            return str(out.exact_rate), ()

        ops.append(Op(item["label"] + "/run_sampled",
                      lambda memo, a=item["alpha"]: ps.run_sampled("cocycle", a, 4096, seed),
                      sampled, trials=4096))
    for name, ncap in H1_CAPS_TINY if tiny else H1_CAPS:
        def h1_check(reports, memo, name=name, ncap=ncap):
            expect([r.degree for r in reports] == list(range(2, ncap + 1)), "wrong degrees")
            for r in reports:
                expect(r.vanishes == _h1_expected(name, r.degree),
                       f"H1 vanishing wrong at N={r.degree}")
            return ",".join(f"{r.degree}:{r.vanishes}:{r.nontrivial_count}"
                            for r in reports), ()

        ops.append(Op(f"{name}/h1/ncap{ncap}",
                      lambda memo, x=corpus(name), ncap=ncap: ps.h1_vanishing_check(x, ncap),
                      h1_check, fresh_cache=True))
    decomps = [(f"{it['label']}/cap{cap}/cover",
                lambda it=it, cap=cap: check_cover_decomposition(it["cover"], it["x"], cap))
               for it in items if it["label"].endswith("#0")
               for cap, kinds in it["asks"] if "cover" in kinds]
    return Setup(ops, [probe_of(it["alpha"]) for it in items], decomps, reach)


def check_cover_decomposition(c, x, cap: int) -> None:
    """Re-derive global_defect("cover") from its documented public steps and
    require the same bound, label and witness."""
    hom_guard = stability.DEFAULT_HOM_GUARD
    align_guard = stability.DEFAULT_ALIGNMENT_GUARD
    composite = ps.global_defect("cover", (c, x), cap)
    alpha = ps.covering_to_cochain(c, x)
    fp = ps.fundamental_presentation(x, 1)
    best = witness = None
    exact = True
    for degree in range(alpha.degree, cap + 1):
        try:
            homs = ps.enumerate_homomorphisms(fp.presentation, degree, guard=hom_guard)
        except ps.GuardExceeded:
            exact = False
            continue
        for phi in homs:
            cand = tree_trivial(x, fp, phi, degree)
            try:
                res = ps.orbit_distance(alpha, cand, guard=align_guard)
                d, wit = res.value, res.witness
            except ps.GuardExceeded:
                exact = False
                d, wit = ps.cochain_distance(alpha, cand), cand
            if best is None or d < best:
                best, witness = d, wit
        if best == 0:
            break
    expect(best == composite.upper_bound,
           f"decomposed bound {best} != composite {composite.upper_bound}")
    expect((EXACT if exact else "heuristic") == composite.exactness,
           "decomposed label differs from the composite")
    witness_cover = ps.cochain_to_covering(witness)
    expect(witness_cover.labeled == composite.witness.labeled,
           "decomposed witness covering differs from the composite")
    if exact:
        try:
            ed = ps.edit_distance(c.labeled, witness_cover.labeled, mode="exact",
                                  leaf_guard=stability.DEFAULT_EDIT_GUARD)
        except ps.GuardExceeded:
            return
        expect(ed.value == best, f"edit distance {ed.value} != bound {best}")


# ---------------------------------------------------------------------------
# cli_session: in-process CLI calls on JSON files written during set-up

# Draw-bound tests.  At 4e6 trials the slowest call runs about 20 times in a
# 30 s run, so the 11th-largest latency (op_tail_ms) sits near its median
# rather than in the host's slow moments.
CLI_TRIALS = 4_000_000
CLI_BAND = (Fraction(1, 8), Fraction(1))


def cli_generate(seed: int, tiny: bool) -> dict:
    c4, torus = instances.complete_complex(4), instances.torus_complex()
    c4_alpha, c4_defect = corrupt_to_band(ps.identity_cochain1(c4, 3), CLI_BAND,
                                          _random_values, rng_for(seed, 2, 0), tries=1000)
    t_alpha, t_defect = corrupt_to_band(ps.identity_cochain1(torus, 3), CLI_BAND,
                                        _random_values, rng_for(seed, 2, 1), tries=1000)
    rows = instances.blr_matrix(2)
    linear = instances.linear_truth_tables(2)
    rng = rng_for(seed, 2, 2)
    vector = linear[0]
    while vector in linear:
        vector = rng.integers(0, 2, size=len(rows[0])).tolist()
    return {"c4": c4, "torus": torus, "c4_alpha": c4_alpha, "c4_defect": c4_defect,
            "t_alpha": t_alpha, "t_defect": t_defect, "rows": rows, "vector": vector}


def cli_write(state: dict, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    fileio.save_json(fileio.complex_to_dict(state["c4"]), workdir / "complete-4.json")
    fileio.save_json(fileio.complex_to_dict(state["torus"]), workdir / "torus.json")
    fileio.save_json(fileio.cochain1_to_dict(state["c4_alpha"]), workdir / "c4-cochain.json")
    fileio.save_json(fileio.cochain1_to_dict(state["t_alpha"]), workdir / "torus-cochain.json")
    fp = ps.fundamental_presentation(state["torus"], 1)
    fileio.save_json({"presentation": fileio.presentation_to_dict(fp.presentation),
                      "images": [list(p.images) for p in state["t_alpha"].values]},
                     workdir / "torus-hom.json")
    fileio.save_json({"rows": state["rows"], "vector": state["vector"]},
                     workdir / "matrix.json")


def _linf_rate(alpha: Cochain1) -> Fraction:
    """1 - prod(1 - p_c), with p_c the moved share of polygon c's value."""
    keep = Fraction(1)
    for pc in alpha.space.polygons:
        value = ps.evaluate_word(pc.canonical, alpha.values)
        keep *= Fraction(value.fixed_points(), alpha.degree)
    return 1 - keep


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_setup(state: dict, seed: int, workdir: Path, tiny: bool) -> Setup:
    trials = 20_000 if tiny else CLI_TRIALS
    w = {name: str(workdir / f"{name}.json") for name in
         ("complete-4", "torus", "c4-cochain", "torus-cochain", "torus-hom", "matrix",
          "c4-cover", "c4-back", "c4-pres")}
    c4_defect, t_defect = state["c4_defect"], state["t_defect"]
    rows, vector = state["rows"], state["vector"]
    matrix_defect = Fraction(sum(sum(r * v for r, v in zip(row, vector)) % 2 for row in rows),
                             len(rows))
    linf = _linf_rate(state["c4_alpha"])

    def ok(rc, text=""):
        def check(res, memo):
            code, out, err = res
            expect(code == rc, f"exit code {code}, stderr {err.strip()!r}")
            expect(text in out, f"missing {text!r} in output")
            return None, ()
        return check

    def parsed(res) -> dict:
        code, out, err = res
        expect(code == 0, f"exit code {code}, stderr {err.strip()!r}")
        return json.loads(out)

    def local(expected: Fraction):
        def check(res, memo):
            value = frac(parsed(res)["value"])
            expect(value == expected, f"local defect {value} != {expected}")
            return str(value), ()
        return check

    def global_(partner: str | None = None, only_if_exact: bool = False):
        """A global answer; with a partner, the two answers must agree (on the
        bound alone, and only when both are exact, if only_if_exact)."""
        def check(res, memo):
            d = parsed(res)
            bound, label = frac(d["upper_bound"]), d["exactness"]
            expect(label in (EXACT, "heuristic") and 0 < bound <= 1, f"bad answer {d}")
            if partner is not None:
                p = parsed(memo[partner])
                pbound, plabel = frac(p["upper_bound"]), p["exactness"]
                if not only_if_exact:
                    expect(plabel == label, f"label {label} != {partner} label {plabel}")
                if not only_if_exact or plabel == label == EXACT:
                    expect(pbound == bound, f"global bound {bound} != {partner} bound {pbound}")
            return f"{bound} {label}", (label,)
        return check

    def sampled(expected: Fraction):
        def check(res, memo):
            d = parsed(res)
            out = ps.TestOutcome(int(d["trials"]), int(d["rejections"]),
                                 frac(d["empirical_rate"]), int(d["seed"]), d["generator"],
                                 frac(d["exact_rate"]))
            expect(out.trials == trials, "wrong trial count")
            sampled_check(out, expected)
            return str(out.exact_rate), ()
        return check

    def round_trip(res, memo):
        ok(0)(res, memo)
        back = json.loads(Path(w["c4-back"]).read_text(encoding="utf-8"))
        orig = json.loads(Path(w["c4-cochain"]).read_text(encoding="utf-8"))
        expect(back["values"] == orig["values"], "covering round trip changed the cochain")
        return None, ()

    def presentation(res, memo):
        ok(0)(res, memo)
        d = json.loads(Path(w["c4-pres"]).read_text(encoding="utf-8"))
        expect(d["generators"] == 3 and len(d["relators"]) == 4, "wrong presentation")
        return None, ()

    def equiv(res, memo):
        code, out, err = res
        lines = out.strip().splitlines()
        expect(code == 0 and lines and all(line.startswith("PASS") for line in lines),
               f"equiv failed: {out.strip()!r}")
        return str(len(lines)), ()

    def profile(res, memo):
        code, out, err = res
        expect(code == 0, f"exit code {code}")
        rows_ = [line.split(",") for line in out.strip().splitlines()[2:]]
        expect(len(rows_) == 4, "profile should have 4 rows")
        labels = []
        for level, _, local_d, upper, label in rows_:
            if float(level) == 0:
                expect(frac(local_d) == 0 and frac(upper) == 0,
                       "uncorrupted sample is not a cocycle")
            labels.append(label)
        return ";".join(",".join(r[2:]) for r in rows_), tuple(labels)

    def h1(vanishes: str, ncap: int):
        def check(res, memo):
            code, out, err = res
            lines = out.strip().splitlines()
            expect(code == 0 and len(lines) == ncap - 1, "wrong h1check output")
            expect(all(f"vanishes={vanishes}" in line for line in lines),
                   f"expected vanishes={vanishes}: {out.strip()!r}")
            return ";".join(lines), ()
        return check

    j = ["--format", "json"]
    s = ["--seed", str(seed)]
    sessions = [
        ("validate/complex", ["validate", "--input", w["complete-4"]], ok(0, "ok: complex")),
        ("validate/cochain", ["validate", "--input", w["c4-cochain"]], ok(0, "ok: cochain")),
        ("convert/cover", ["convert", "--to", "cover", "--input", w["c4-cochain"],
                           "--output", w["c4-cover"]], ok(0)),
        ("validate/covering", ["validate", "--input", w["c4-cover"]], ok(0, "ok: covering")),
        ("convert/cochain", ["convert", "--to", "cochain", "--input", w["c4-cover"],
                             "--complex", w["complete-4"], "--output", w["c4-back"]],
         round_trip),
        ("convert/presentation", ["convert", "--to", "presentation", "--input",
                                  w["complete-4"], "--output", w["c4-pres"]], presentation),
        ("defect/local/cocycle", ["defect", "local", "--kind", "cocycle", "--input",
                                  w["c4-cochain"], *j], local(c4_defect)),
        ("defect/local/cover", ["defect", "local", "--kind", "cover", "--input", w["c4-cover"],
                                "--complex", w["complete-4"], *j], local(c4_defect)),
        ("defect/local/hom", ["defect", "local", "--kind", "hom", "--input", w["torus-hom"],
                              *j], local(t_defect)),
        ("defect/local/matrix", ["defect", "local", "--kind", "matrix", "--input",
                                 w["matrix"], *j], local(matrix_defect)),
        ("defect/global/cocycle", ["defect", "global", "--kind", "cocycle", "--input",
                                   w["c4-cochain"], "--nmax", "4", *j], global_()),
        ("defect/global/cover", ["defect", "global", "--kind", "cover", "--input",
                                 w["c4-cover"], "--complex", w["complete-4"], "--nmax", "4",
                                 *j], global_("defect/global/cocycle")),
        ("defect/global/hom", ["defect", "global", "--kind", "hom", "--input", w["torus-hom"],
                               "--nmax", "4", *j], global_()),
        ("defect/global/torus-cocycle", ["defect", "global", "--kind", "cocycle", "--input",
                                         w["torus-cochain"], "--nmax", "4", *j],
         global_("defect/global/hom", only_if_exact=True)),
        ("defect/global/cocycle-cap5", ["defect", "global", "--kind", "cocycle", "--input",
                                        w["c4-cochain"], "--nmax", "5", *j], global_()),
        ("test/cocycle", ["test", "--kind", "cocycle", "--input", w["c4-cochain"],
                          "--trials", str(trials), *s, *j], sampled(c4_defect)),
        ("test/cocycle-linf", ["test", "--kind", "cocycle", "--linf", "--input",
                               w["c4-cochain"], "--trials", str(trials), *s, *j],
         sampled(linf)),
        ("test/matrix", ["test", "--kind", "matrix", "--input", w["matrix"],
                         "--trials", str(trials), *s, *j], sampled(matrix_defect)),
        ("equiv", ["equiv", "--input", w["torus-cochain"], "--nmax", "4"], equiv),
        ("profile", ["profile", "--input", w["complete-4"], "--n", "2", "--grid", "0,0.25",
                     "--samples", "2", "--nmax", "3", *s], profile),
        ("h1check/torus", ["h1check", "--input", w["torus"], "--ncap", "4"], h1("False", 4)),
        ("h1check/complete-4", ["h1check", "--input", w["complete-4"], "--ncap", "3"],
         h1("True", 3)),
    ]
    ops = [Op(oid, lambda memo, argv=argv: _run_cli(argv), check, fresh_cache=True,
              trials=trials if oid.startswith("test/") else 0)
           for oid, argv, check in sessions]

    def decompose():
        _, c = fileio.load_object(w["c4-cover"])
        _, x = fileio.load_object(w["complete-4"])
        check_cover_decomposition(c, x, 4)

    return Setup(ops, [probe_of(state["c4_alpha"]), probe_of(state["t_alpha"])],
                 [("defect/global/cover", decompose)])


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, bool], object]
    setup: Callable[[object, int, Path, bool], Setup]
    write: Callable[[object, Path], None] | None = None


WORKLOADS = {
    "local_large_n": Workload("local_large_n", local_generate, local_setup),
    "search_small_n": Workload("search_small_n", search_generate, search_setup),
    "cli_session": Workload("cli_session", cli_generate, cli_setup, cli_write),
}
