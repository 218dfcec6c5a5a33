"""Command-line front end.

Subcommands: validate, defect, test, convert, cheeger, spectral, h1check,
weights, profile, equiv, generate; each takes only the options it reads.
All randomness flows from --seed (default 1729); identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 validation or check failure, 2 a search guard
refused the work or tripped while --no-heuristic forbade the fallback.  A
guard with no fallback refuses in h1check and cheeger, and in equiv's cover
check, whose edit search refuses when the cocycle witness was measured
without alignment because --guard-align tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fileio, instances
from .cochains import (Cochain1, cochain_to_covering, covering_to_cochain,
                       skeleton_of, tree_normalize)
from .complexes import (PolygonalComplex, fundamental_presentation,
                        polygon_weights, presentation_complex)
from .errors import GuardExceeded
from .graphs import Covering, edit_distance
from .stability import (DEFAULT_ALIGNMENT_GUARD, DEFAULT_ENUM_GUARD,
                        DEFAULT_HOM_GUARD, cheeger, global_defect,
                        h1_vanishing_check, spectral_gap, stability_profile)
from .testers import (cocycle_local_defect, cover_local_defect,
                      hom_local_defect, local_defect, run_sampled)

DEFAULT_SEED = 1729


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return fileio.frac_to_str(v)
    if isinstance(v, float):
        return f"{v:.12f}"
    if isinstance(v, list):   # space-separated, so that a CSV row keeps its columns
        return " ".join(map(str, v)) or "none"
    return str(v)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({k: _fmt(v) if isinstance(v, (Fraction, float)) else v
                          for k, v in payload.items()}, sort_keys=True))
    elif fmt == "csv":
        keys = list(payload)
        print(",".join(keys))
        print(",".join(_fmt(payload[k]) for k in keys))
    else:
        for k, v in payload.items():
            print(f"{k} = {_fmt(v)}")


def _load_weights(path: str | None, x: PolygonalComplex | None):
    """A mu2 file over the complex x, or else a mu file over relators or rows."""
    if path is None:
        return None
    d = fileio.load_json(path)
    if not isinstance(d, dict):
        raise ValueError("a weights file must hold a JSON object")
    if x is not None:
        return fileio.weights_from_dict(d, x)
    if "mu2" in d:
        raise ValueError("mu2 weights need a complex input")
    if "mu" not in d:
        raise ValueError('weights over relators or rows need a "mu" list')
    return fileio._frac_list(d["mu"], "mu")


def _parse_tree(arg: str | None) -> frozenset[int] | None:
    if arg is None:
        return None
    return frozenset(int(v) for v in arg.split(",") if v)


def _load_kind(path: str, *kinds: str):
    """Load a file of one of ``kinds``: the ``fileio.load_object`` kinds, with
    a cochain named by its dimension, ``0-cochain`` or ``1-cochain``."""
    found, obj = fileio.load_object(path)
    if found == "cochain":
        found = "1-cochain" if isinstance(obj, Cochain1) else "0-cochain"
    if found not in kinds:
        raise ValueError(f"expected a {' or '.join(kinds)} file, got a {found} file")
    return obj


# the file each tester kind reads; the cover kinds read --complex as well
_TESTER_FILE = {"hom": "hom_instance", "cocycle": "1-cochain", "cover": "covering",
                "cover_dm": "covering", "matrix": "matrix"}


def _defect_object(args) -> tuple[str, object, object]:
    """Resolve (kind, tester object, weights) from CLI arguments."""
    kind = args.kind.replace("-", "_")
    obj = _load_kind(args.input, _TESTER_FILE[kind])
    x = None
    if kind in ("cover", "cover_dm"):
        if args.complex is None:
            raise ValueError("cover defects need --complex")
        x = _load_kind(args.complex, "complex")
        obj = (obj, x)
    elif kind == "cocycle" and isinstance(obj.space, PolygonalComplex):
        x = obj.space
    elif kind == "matrix":
        rows, vector, mu = obj
        if args.weights is None:
            return kind, (rows, vector), mu
        obj = (rows, vector)
    return kind, obj, _load_weights(args.weights, x)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    """Every loader checks its file, so validating a file is loading it."""
    try:
        kind, _ = fileio.load_object(args.input)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"ok: {kind}")
    return 0


# defect's global-only options by dest; the parser leaves them None
_GLOBAL_ONLY = {"--root": "root", "--tree": "tree", "--nmax": "nmax",
                "--no-heuristic": "no_heuristic", "--guard-hom": "guard_hom",
                "--guard-align": "guard_align"}


def cmd_defect(args) -> int:
    given = [flag for flag, dest in _GLOBAL_ONLY.items() if getattr(args, dest) is not None]
    if args.scope == "local" and given:
        raise ValueError(f"defect local takes no {', '.join(given)}; "
                         "those options are read by defect global")
    if args.scope == "global" and args.weights is not None:
        raise ValueError("global defects are unweighted; --weights is for local defects")
    for flag in set(_GLOBAL_ONLY) - set(given):
        setattr(args, _GLOBAL_ONLY[flag], _FLAGS[flag].get("default"))
    kind, obj, weights = _defect_object(args)
    if args.scope == "local":
        report = local_defect(kind, obj, weights)
        _emit({"scope": "local", "kind": report.kind, "value": report.value,
               "distribution": report.distribution}, args.format)
        return 0
    if kind in ("cover_dm", "matrix"):
        raise ValueError(f"no global defect for kind {kind!r}")
    res = global_defect(kind, obj, args.nmax, root=args.root,
                        tree=_parse_tree(args.tree), hom_guard=args.guard_hom,
                        align_guard=args.guard_align)
    if res.exactness == "heuristic" and args.no_heuristic:
        print("guard exceeded and --no-heuristic given", file=sys.stderr)
        return 2
    _emit({"scope": "global", "kind": res.kind, "upper_bound": res.upper_bound,
           "n_max": res.n_max_searched, "exactness": res.exactness,
           "degrees_skipped": list(res.degrees_skipped)}, args.format)
    return 0


def cmd_test(args) -> int:
    kind, obj, weights = _defect_object(args)
    out = run_sampled(kind, obj, args.trials, args.seed, linf=args.linf,
                      weights=weights)
    _emit({"kind": kind, "trials": out.trials, "rejections": out.rejections,
           "empirical_rate": out.empirical_rate, "exact_rate": out.exact_rate,
           "seed": out.seed, "generator": out.generator}, args.format)
    return 0


def cmd_convert(args) -> int:
    if args.to == "cover":
        a = _load_kind(args.input, "1-cochain")
        cover = cochain_to_covering(a)
        fileio.save_json(fileio.covering_to_dict(cover), args.output)
    elif args.to == "cochain":
        c = _load_kind(args.input, "covering")
        x = None if args.complex is None else _load_kind(args.complex, "complex")
        a = covering_to_cochain(c, x)
        fileio.save_json(fileio.cochain1_to_dict(a), args.output)
    elif args.to == "complex":
        p = _load_kind(args.input, "presentation")
        fileio.save_json(fileio.complex_to_dict(presentation_complex(p)), args.output)
    elif args.to == "presentation":
        x = _load_kind(args.input, "complex")
        fp = fundamental_presentation(x, args.root, _parse_tree(args.tree))
        d = fileio.presentation_to_dict(fp.presentation)
        d["tree"] = sorted(fp.tree)
        d["root"] = fp.root
        d["generator_edges"] = list(fp.generator_edges)
        fileio.save_json(d, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_cheeger(args) -> int:
    obj = _load_kind(args.input, "complex", "graph")
    rep = cheeger(obj, args.dimension, args.variant, args.coeff_cap,
                  enum_guard=args.guard_enum, hom_guard=args.guard_hom,
                  align_guard=args.guard_align)
    if rep.exactness == "heuristic" and args.no_heuristic:
        print("guard exceeded and --no-heuristic given", file=sys.stderr)
        return 2
    _emit({"dimension": rep.dimension, "variant": rep.variant,
           "coeff_cap": rep.coeff_cap, "value": rep.value,
           "exactness": rep.exactness}, args.format)
    return 0


def cmd_spectral(args) -> int:
    obj = _load_kind(args.input, "graph", "complex", "0-cochain", "1-cochain")
    rep = spectral_gap(skeleton_of(getattr(obj, "space", obj)))   # a cochain's space
    _emit({"k": rep.k, "lambda2": rep.lambda2, "gamma": rep.gamma}, args.format)
    return 0


def cmd_h1check(args) -> int:
    x = _load_kind(args.input, "complex")
    reports = h1_vanishing_check(x, args.ncap, root=args.root,
                                 tree=_parse_tree(args.tree),
                                 hom_guard=args.guard_hom)
    for r in reports:
        print(f"N={r.degree} vanishes={r.vanishes} "
              f"nontrivial_homomorphisms={r.nontrivial_count}")
    return 0


def cmd_weights(args) -> int:
    x = _load_kind(args.input, "complex")
    ws = polygon_weights(x) if args.weights is None else _load_weights(args.weights, x)
    if args.format == "json":
        print(json.dumps({"mu1": [fileio.frac_to_str(v) for v in ws.mu1],
                          "expected_length": fileio.frac_to_str(ws.expected_length)},
                         sort_keys=True))
    else:
        print("edge,mu1")
        for k, v in enumerate(ws.mu1, start=1):
            print(f"{k},{fileio.frac_to_str(v)}")
        print(f"# expected_length={fileio.frac_to_str(ws.expected_length)}")
    return 0


def cmd_profile(args) -> int:
    obj = _load_kind(args.input, "complex", "presentation")
    grid = [float(v) for v in args.grid.split(",") if v]
    res = stability_profile(obj, args.n, grid, args.samples, args.seed,
                            args.nmax, root=args.root,
                            hom_guard=args.guard_hom,
                            align_guard=args.guard_align)
    csv = res.to_csv()
    if args.output:
        Path(args.output).write_text(csv, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv)
    if args.no_heuristic and any(r.exactness == "heuristic" for r in res.rows):
        return 2
    return 0


def _equiv_checks(a: Cochain1, nmax: int | None, root: int,
                  hom_guard: int, align_guard: int):
    x = a.space
    if not isinstance(x, PolygonalComplex):
        raise ValueError("equiv needs a cochain over a polygonal complex")
    # one hom and one cocycle search, both on the tree-normalised cochain; on
    # a one-vertex complex the tree is empty and that cochain is a itself
    fp = fundamental_presentation(x, root)
    normalized, _ = tree_normalize(a, fp.tree, root)
    images = tuple(normalized.values[k - 1] for k in fp.generator_edges)
    hom_local = hom_local_defect(fp.presentation, images).value
    gh = global_defect("hom", (fp.presentation, images), nmax, hom_guard=hom_guard)
    gc = global_defect("cocycle", normalized, nmax, root=root, hom_guard=hom_guard,
                       align_guard=align_guard)

    local = cocycle_local_defect(a).value
    cover = cochain_to_covering(a)
    checks = [("cover and cocycle local defects equal",
               cover_local_defect(cover, x).value == local),
              # read back through the labeled graph, not the table the covering holds
              ("covering round trip is exact", covering_to_cochain(
                  Covering(cover.labeled, cover.degree, cover.fiber_labels), x) == a)]
    if x.skeleton.vertex_count == 1:
        checks += [("hom and cocycle local defects equal",
                    hom_local == local),
                   ("hom and cocycle global defects equal within cap",
                    gh.upper_bound == gc.upper_bound)]
    # the edit search has P(N, n)^V leaves, the alignment count the cocycle
    # search tests, so it refuses exactly when the witness was not aligned
    witness_cover = cochain_to_covering(gc.witness)
    checks += [("normalized restriction matches the cocycle defect",
                hom_local == cocycle_local_defect(normalized).value),
               ("hom global bound dominates the cocycle bound",
                gh.upper_bound >= gc.upper_bound),
               ("cover and cocycle global bounds equal within cap",
                edit_distance(cover.labeled, witness_cover.labeled,
                              leaf_guard=align_guard).value == gc.upper_bound)]
    return checks


def cmd_equiv(args) -> int:
    a = _load_kind(args.input, "1-cochain")
    checks = _equiv_checks(a, args.nmax, args.root, args.guard_hom, args.guard_align)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


# the --params keys each family reads, in the order of --family's choices
_FAMILY_PARAMS = {"bouquet": ("relators", "generators"), "cycle": ("n",),
                  "complete-complex": ("d",), "torus": (), "balanced-cut": ("d",),
                  "remark64": ("d",), "random": ("d", "n", "target", "tol")}


def cmd_generate(args) -> int:
    family = args.family
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    for key in params:
        if key not in _FAMILY_PARAMS[family]:
            raise ValueError(f"family {family} takes no parameter {key!r}; it accepts "
                             f"{', '.join(_FAMILY_PARAMS[family]) or 'none'}")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, payload: dict) -> None:
        path = outdir / name
        fileio.save_json(payload, path)
        written.append(path)

    if family == "bouquet":
        relators = params.get("relators", [[1, 1, 1]])
        if not isinstance(relators, list):
            raise ValueError(f"parameter relators must be a list, got {relators!r}")
        relators = [fileio._int_list(r, "relator %d", i)
                    for i, r in enumerate(relators, start=1)]
        gens = (fileio._int(params["generators"], "parameter generators")
                if "generators" in params else None)
        x = instances.bouquet_complex(relators, gens)
        save("bouquet.json", fileio.complex_to_dict(x))
    elif family == "cycle":
        n = fileio._int(params.get("n", 4), "parameter n")
        save(f"cycle-{n}.json", fileio.graph_to_dict(instances.cycle_graph(n)))
    elif family == "complete-complex":
        d = fileio._int(params.get("d", 4), "parameter d")
        save(f"complete-{d}.json", fileio.complex_to_dict(instances.complete_complex(d)))
    elif family == "torus":
        save("torus.json", fileio.complex_to_dict(instances.torus_complex()))
    elif family in ("balanced-cut", "remark64"):
        d = fileio._int(params.get("d", 6), "parameter d")
        ci = instances.cut_instance(d)
        save(f"cut-{d}-complex.json", fileio.complex_to_dict(ci.complex))
        save(f"cut-{d}-cochain.json", fileio.cochain1_to_dict(ci.cochain))
        save(f"cut-{d}-tree.json", {"tree": sorted(ci.tree), "root": ci.root})
        save(f"cut-{d}-hom.json", {
            "presentation": fileio.presentation_to_dict(ci.presentation),
            "images": [list(p.images) for p in ci.images]})
    elif family == "random":
        d = fileio._int(params.get("d", 4), "parameter d")
        n = fileio._int(params.get("n", 2), "parameter n")
        target = fileio.frac_from_str(params.get("target", "1/4"))
        tol = fileio.frac_from_str(params.get("tol", "1/10"))
        x = instances.complete_complex(d)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=args.seed, spawn_key=(0,))))
        cochain, achieved = instances.random_cochain_at_defect(x, n, target, tol, rng)
        save("random-complex.json", fileio.complex_to_dict(x))
        save("random-cochain.json", fileio.cochain1_to_dict(cochain))
        save("random-meta.json", {"seed": args.seed,
                                  "target": fileio.frac_to_str(target),
                                  "exact_defect": fileio.frac_to_str(achieved)})
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


_FLAGS = {
    "--format": dict(choices=("text", "csv", "json"), default="text"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--root": dict(type=int, default=1),
    "--tree": dict(help="comma-separated spanning tree edge ids"),
    "--nmax": dict(type=int, default=None),
    "--weights": dict(help="weights file (mu2 for complexes, mu for rows/relators)"),
    "--no-heuristic": dict(action="store_true",
                           help="fail with exit 2 instead of returning flagged bounds"),
    "--guard-hom": dict(type=int, default=DEFAULT_HOM_GUARD),
    "--guard-align": dict(type=int, default=DEFAULT_ALIGNMENT_GUARD),
    "--guard-enum": dict(type=int, default=DEFAULT_ENUM_GUARD,
                         help="most cochains swept per coefficient degree k, one per "
                              "0-cochain orbit: k!^(V-1) in dimension 0, k!^(E-V+1) "
                              "in dimension 1"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="permstab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("defect", help="exact local or global defect")
    p.add_argument("scope", choices=("local", "global"))
    p.add_argument("--kind", required=True,
                   choices=("hom", "cocycle", "cover", "cover-dm", "matrix"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex", help="complex file (for cover kinds)")
    _add_common(p, "--format", "--weights", *_GLOBAL_ONLY)
    p.set_defaults(func=cmd_defect, **dict.fromkeys(_GLOBAL_ONLY.values()))

    p = sub.add_parser("test", help="seeded Monte Carlo tester run")
    p.add_argument("--kind", required=True,
                   choices=("hom", "cocycle", "cover", "cover-dm", "matrix"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--linf", action="store_true")
    _add_common(p, "--format", "--seed", "--weights")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("convert", help="translate between the three pictures")
    p.add_argument("--to", required=True,
                   choices=("cover", "cochain", "complex", "presentation"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex")
    p.add_argument("--output", required=True)
    _add_common(p, "--root", "--tree")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cheeger", help="expansion constants")
    p.add_argument("--input", required=True)
    p.add_argument("--dimension", type=int, default=0, choices=(0, 1))
    p.add_argument("--variant", default="classical",
                   choices=("classical", "cocycle", "coboundary"))
    p.add_argument("--coeff-cap", type=int, default=2)
    _add_common(p, "--format", "--no-heuristic", "--guard-hom", "--guard-align",
                "--guard-enum")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("spectral", help="normalized spectral gap")
    p.add_argument("--input", required=True)
    _add_common(p, "--format")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("h1check", help="first cohomology vanishing up to a degree cap")
    p.add_argument("--input", required=True)
    p.add_argument("--ncap", type=int, default=3)
    _add_common(p, "--root", "--tree", "--guard-hom")
    p.set_defaults(func=cmd_h1check)

    p = sub.add_parser("weights", help="edge distribution induced by a polygon distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, "--weights")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("profile", help="local vs global defect table on corrupted instances")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="0,0.1,0.25")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--output")
    _add_common(p, "--seed", "--root", "--nmax", "--no-heuristic", "--guard-hom",
                "--guard-align")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("equiv", help="run the translation identity checks on an instance")
    p.add_argument("--input", required=True)
    _add_common(p, "--root", "--nmax", "--guard-hom", "--guard-align")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("generate", help="write bundled instance families")
    p.add_argument("--family", required=True, choices=tuple(_FAMILY_PARAMS))
    p.add_argument("--params", help="JSON parameter object")
    p.add_argument("--output-dir", default=".")
    _add_common(p, "--seed")
    p.set_defaults(func=cmd_generate)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
