"""Command-line front end.

Subcommands: validate, defect, test, convert, cheeger, spectral, h1check,
weights, profile, equiv, generate.  All randomness flows from --seed
(default 1729); identical invocations produce byte-identical output.

Exit codes: 0 success, 1 validation or check failure, 2 a search guard
refused the work (a guard with no fallback, as in h1check or cheeger) or
tripped while --no-heuristic forbade the fallback.
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
from .complexes import (PolygonalComplex, Presentation,
                        fundamental_presentation, polygon_weights,
                        presentation_complex, validate_complex)
from .errors import GuardExceeded
from .graphs import Covering, Graph, validate_graph, validate_map
from .perm import Permutation
from .stability import (cheeger, global_defect, h1_vanishing_check,
                        spectral_gap, stability_profile)
from .testers import (cocycle_local_defect, cover_local_defect,
                      dm_cover_local_defect, hom_local_defect, matrix_tester,
                      run_sampled)

DEFAULT_SEED = 1729


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return fileio.frac_to_str(v)
    if isinstance(v, float):
        return f"{v:.12f}"
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
    if path is None:
        return None
    d = fileio.load_json(path)
    if "mu2" in d:
        if x is None:
            raise ValueError("mu2 weights need a complex input")
        return fileio.weights_from_dict(d, x)
    return [fileio.frac_from_str(v) for v in d["mu"]]


def _parse_tree(arg: str | None) -> frozenset[int] | None:
    if arg is None:
        return None
    return frozenset(int(v) for v in arg.split(",") if v)


def _load_hom_instance(path: str) -> tuple[Presentation, tuple[Permutation, ...]]:
    d = fileio.load_json(path)
    if "presentation" not in d or "images" not in d:
        raise ValueError("hom instance file needs 'presentation' and 'images'")
    p = fileio.presentation_from_dict(d["presentation"])
    images = tuple(Permutation(img) for img in d["images"])
    return p, images


def _defect_object(args) -> tuple[str, object, object]:
    """Resolve (kind, tester object, weights) from CLI arguments."""
    kind = args.kind.replace("-", "_")
    if kind == "hom":
        p, images = _load_hom_instance(args.input)
        return kind, (p, images), _load_weights(args.weights, None)
    if kind == "cocycle":
        _, a = fileio.load_object(args.input)
        if not isinstance(a, Cochain1):
            raise ValueError("cocycle defect needs a dimension-1 cochain file")
        x = a.space if isinstance(a.space, PolygonalComplex) else None
        return kind, a, _load_weights(args.weights, x)
    if kind in ("cover", "cover_dm"):
        _, c = fileio.load_object(args.input)
        if args.complex is None:
            raise ValueError("cover defects need --complex")
        _, x = fileio.load_object(args.complex)
        if not isinstance(c, Covering) or not isinstance(x, PolygonalComplex):
            raise ValueError("cover defects need a covering file and a complex file")
        return kind, (c, x), _load_weights(args.weights, x)
    if kind == "matrix":
        rows, vector, mu = fileio.matrix_from_dict(fileio.load_json(args.input))
        if args.weights is not None:
            mu = _load_weights(args.weights, None)
        return kind, (rows, vector), mu
    raise ValueError(f"unknown kind {args.kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        kind, obj = fileio.load_object(args.input)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid: {exc}")
        return 1
    if kind == "graph":
        rep = validate_graph(obj)
    elif kind == "complex":
        rep = validate_complex(obj)
    elif kind == "labeled_graph":
        rep = validate_map(obj.labeling)
    else:
        rep = validate_graph(skeleton_of(obj.space)) if isinstance(obj, Cochain1) \
            else validate_graph(obj) if isinstance(obj, Graph) else None
        if rep is None:
            print(f"ok: {kind}")
            return 0
    if rep is not None and not rep.ok:
        print(f"invalid {kind}: {rep.message}")
        return 1
    print(f"ok: {kind}")
    return 0


def cmd_defect(args) -> int:
    kind, obj, weights = _defect_object(args)
    if args.scope == "local":
        if kind == "hom":
            report = hom_local_defect(*obj, mu=weights)
        elif kind == "cocycle":
            report = cocycle_local_defect(obj, weights)
        elif kind == "cover":
            report = cover_local_defect(*obj, weights=weights)
        elif kind == "cover_dm":
            report = dm_cover_local_defect(*obj)
        else:
            report = matrix_tester(*obj, mu=weights)
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
           "n_max": res.n_max_searched, "exactness": res.exactness}, args.format)
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
        _, a = fileio.load_object(args.input)
        cover = cochain_to_covering(a)
        fileio.save_json(fileio.covering_to_dict(cover), args.output)
    elif args.to == "cochain":
        _, c = fileio.load_object(args.input)
        x = None
        if args.complex is not None:
            _, x = fileio.load_object(args.complex)
        a = covering_to_cochain(c, x)
        fileio.save_json(fileio.cochain1_to_dict(a), args.output)
    elif args.to == "complex":
        _, p = fileio.load_object(args.input)
        fileio.save_json(fileio.complex_to_dict(presentation_complex(p)), args.output)
    elif args.to == "presentation":
        _, x = fileio.load_object(args.input)
        fp = fundamental_presentation(x, args.root, _parse_tree(args.tree))
        d = fileio.presentation_to_dict(fp.presentation)
        d["tree"] = sorted(fp.tree)
        d["root"] = fp.root
        d["generator_edges"] = list(fp.generator_edges)
        fileio.save_json(d, args.output)
    else:
        raise ValueError(f"unknown target {args.to!r}")
    print(f"wrote {args.output}")
    return 0


def cmd_cheeger(args) -> int:
    _, obj = fileio.load_object(args.input)
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
    _, g = fileio.load_object(args.input)
    rep = spectral_gap(skeleton_of(g.space) if isinstance(g, Cochain1) else
                       g.skeleton if isinstance(g, PolygonalComplex) else g)
    _emit({"k": rep.k, "lambda2": rep.lambda2, "gamma": rep.gamma}, args.format)
    return 0


def cmd_h1check(args) -> int:
    _, x = fileio.load_object(args.input)
    reports = h1_vanishing_check(x, args.ncap, root=args.root,
                                 tree=_parse_tree(args.tree),
                                 hom_guard=args.guard_hom)
    for r in reports:
        print(f"N={r.degree} vanishes={r.vanishes} "
              f"nontrivial_homomorphisms={r.nontrivial_count}")
    return 0


def cmd_weights(args) -> int:
    _, x = fileio.load_object(args.input)
    if args.weights is not None:
        ws = _load_weights(args.weights, x)
    else:
        ws = polygon_weights(x)
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
    _, obj = fileio.load_object(args.input)
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
    checks: list[tuple[str, bool]] = []

    cover = cochain_to_covering(a)
    checks.append(("cover and cocycle local defects equal",
                   cover_local_defect(cover, x).value == cocycle_local_defect(a).value))
    checks.append(("covering round trip is exact",
                   covering_to_cochain(cover, x).values == a.values))

    if x.skeleton.vertex_count == 1:
        p = fundamental_presentation(x, 1).presentation
        images = a.values
        checks.append(("hom and cocycle local defects equal",
                       hom_local_defect(p, images).value == cocycle_local_defect(a).value))
        gh = global_defect("hom", (p, images), nmax, hom_guard=hom_guard)
        gc = global_defect("cocycle", a, nmax, hom_guard=hom_guard,
                           align_guard=align_guard)
        checks.append(("hom and cocycle global defects equal within cap",
                       gh.upper_bound == gc.upper_bound))

    fp = fundamental_presentation(x, root)
    normalized, _ = tree_normalize(a, fp.tree, root)
    images = tuple(normalized.values[k - 1] for k in fp.generator_edges)
    checks.append(("normalized restriction matches the cocycle defect",
                   hom_local_defect(fp.presentation, images).value
                   == cocycle_local_defect(normalized).value))
    gh = global_defect("hom", (fp.presentation, images), nmax, hom_guard=hom_guard)
    gc = global_defect("cocycle", normalized, nmax, root=root,
                       hom_guard=hom_guard, align_guard=align_guard)
    checks.append(("hom global bound dominates the cocycle bound",
                   gh.upper_bound >= gc.upper_bound))
    gcov = global_defect("cover", (cover, x), nmax, root=root, hom_guard=hom_guard,
                         align_guard=align_guard)
    gc0 = global_defect("cocycle", a, nmax, root=root, hom_guard=hom_guard,
                        align_guard=align_guard)
    checks.append(("cover and cocycle global bounds equal within cap",
                   gcov.upper_bound == gc0.upper_bound))
    return checks


def cmd_equiv(args) -> int:
    _, a = fileio.load_object(args.input)
    checks = _equiv_checks(a, args.nmax, args.root, args.guard_hom, args.guard_align)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def cmd_generate(args) -> int:
    params = json.loads(args.params) if args.params else {}
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    family = args.family
    written: list[Path] = []

    def save(name: str, payload: dict) -> None:
        path = outdir / name
        fileio.save_json(payload, path)
        written.append(path)

    if family == "bouquet":
        relators = params.get("relators", [[1, 1, 1]])
        gens = params.get("generators")
        x = instances.bouquet_complex(relators, gens)
        save("bouquet.json", fileio.complex_to_dict(x))
    elif family == "cycle":
        n = int(params.get("n", 4))
        save(f"cycle-{n}.json", fileio.graph_to_dict(instances.cycle_graph(n)))
    elif family == "complete-complex":
        d = int(params.get("d", 4))
        save(f"complete-{d}.json", fileio.complex_to_dict(instances.complete_complex(d)))
    elif family == "torus":
        save("torus.json", fileio.complex_to_dict(instances.torus_complex()))
    elif family in ("balanced-cut", "remark64"):
        d = int(params.get("d", 6))
        ci = instances.cut_instance(d)
        save(f"cut-{d}-complex.json", fileio.complex_to_dict(ci.complex))
        save(f"cut-{d}-cochain.json", fileio.cochain1_to_dict(ci.cochain))
        save(f"cut-{d}-tree.json", {"tree": sorted(ci.tree), "root": ci.root})
        save(f"cut-{d}-hom.json", {
            "presentation": fileio.presentation_to_dict(ci.presentation),
            "images": [list(p.images) for p in ci.images]})
    elif family == "random":
        d = int(params.get("d", 4))
        n = int(params.get("n", 2))
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
    else:
        raise ValueError(f"unknown family {family!r}")
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--root", type=int, default=1)
    p.add_argument("--tree", help="comma-separated spanning tree edge ids")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--weights", help="weights file (mu2 for complexes, mu for rows/relators)")
    p.add_argument("--no-heuristic", action="store_true",
                   help="fail with exit 2 instead of returning flagged bounds")
    p.add_argument("--guard-hom", type=int, default=10 ** 8)
    p.add_argument("--guard-align", type=int, default=10 ** 6)
    p.add_argument("--guard-enum", type=int, default=10 ** 6)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="permstab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("defect", help="exact local or global defect")
    p.add_argument("scope", choices=("local", "global"))
    p.add_argument("--kind", required=True,
                   choices=("hom", "cocycle", "cover", "cover-dm", "matrix"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex", help="complex file (for cover kinds)")
    _add_common(p)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("test", help="seeded Monte Carlo tester run")
    p.add_argument("--kind", required=True,
                   choices=("hom", "cocycle", "cover", "cover-dm", "matrix"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--linf", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("convert", help="translate between the three pictures")
    p.add_argument("--to", required=True,
                   choices=("cover", "cochain", "complex", "presentation"))
    p.add_argument("--input", required=True)
    p.add_argument("--complex")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cheeger", help="expansion constants")
    p.add_argument("--input", required=True)
    p.add_argument("--dimension", type=int, default=0, choices=(0, 1))
    p.add_argument("--variant", default="classical",
                   choices=("classical", "cocycle", "coboundary"))
    p.add_argument("--coeff-cap", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("spectral", help="normalized spectral gap")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("h1check", help="first cohomology vanishing up to a degree cap")
    p.add_argument("--input", required=True)
    p.add_argument("--ncap", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_h1check)

    p = sub.add_parser("weights", help="edge distribution induced by a polygon distribution")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("profile", help="local vs global defect table on corrupted instances")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="0,0.1,0.25")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--output")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("equiv", help="run the translation identity checks on an instance")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("generate", help="write bundled instance families")
    p.add_argument("--family", required=True,
                   choices=("bouquet", "cycle", "complete-complex", "torus",
                            "balanced-cut", "remark64", "random"))
    p.add_argument("--params", help="JSON parameter object")
    p.add_argument("--output-dir", default=".")
    _add_common(p)
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
