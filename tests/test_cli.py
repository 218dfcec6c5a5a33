import argparse
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from permstab import fileio, instances, stability
from permstab.cli import build_parser, main
from permstab.cochains import (Cochain0, Cochain1, cochain_to_covering,
                               identity_cochain1, images_to_cochain)
from permstab.perm import Permutation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_cut_bundle(tmp_path):
    code = main(["generate", "--family", "balanced-cut", "--params", '{"d":6}',
                 "--output-dir", str(tmp_path)])
    assert code == 0
    return tmp_path / "cut-6-cochain.json"


def test_generate_and_local_cocycle_defect(tmp_path, capsys):
    cochain = write_cut_bundle(tmp_path)
    capsys.readouterr()
    code, out, _ = run(capsys, "defect", "local", "--kind", "cocycle",
                       "--input", str(cochain))
    assert code == 0
    assert "value = 1/5" in out


def test_remark64_alias(tmp_path, capsys):
    code = main(["generate", "--family", "remark64", "--params", '{"d":4}',
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cut-4-cochain.json").exists()


def test_validate_all_generated_families(tmp_path, capsys):
    specs = [("bouquet", "{}", "bouquet.json"),
             ("cycle", '{"n":4}', "cycle-4.json"),
             ("complete-complex", '{"d":4}', "complete-4.json"),
             ("torus", "{}", "torus.json"),
             ("random", '{"d":4,"n":2,"target":"1/4","tol":"1/4"}', "random-cochain.json")]
    for family, params, name in specs:
        assert main(["generate", "--family", family, "--params", params,
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "validate", "--input", str(tmp_path / name))
        assert code == 0, (family, out)
        assert out.startswith("ok:")


def test_validate_rejects_broken_graph(tmp_path, capsys):
    fileio.save_json({"vertices": 2, "edges": [{"id": 1, "from": 5, "to": 1}]},
                     tmp_path / "bad.json")
    code, out, _ = run(capsys, "validate", "--input", str(tmp_path / "bad.json"))
    assert code == 1
    assert "dangling" in out


def test_spectral_output_format(tmp_path, capsys):
    assert main(["generate", "--family", "complete-complex", "--params", '{"d":4}',
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "spectral", "--input", str(tmp_path / "complete-4.json"))
    assert code == 0
    assert "gamma = 1.333333333333" in out


def test_convert_pipeline(tmp_path, capsys):
    x = instances.bouquet_a3()
    a = images_to_cochain([Permutation([2, 3, 1])], x)
    fileio.save_json(fileio.cochain1_to_dict(a), tmp_path / "a.json")
    code, out, _ = run(capsys, "convert", "--to", "cover",
                       "--input", str(tmp_path / "a.json"),
                       "--output", str(tmp_path / "cov.json"))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--input", str(tmp_path / "cov.json"))
    assert code == 0 and out.startswith("ok")
    code, out, _ = run(capsys, "convert", "--to", "cochain",
                       "--input", str(tmp_path / "cov.json"),
                       "--output", str(tmp_path / "back.json"))
    assert code == 0
    back = fileio.load_object(tmp_path / "back.json")[1]
    assert back.values == a.values


def test_convert_presentation_and_complex(tmp_path, capsys):
    fileio.save_json({"generators": 2, "relators": [[1, 2, -1, -2]]},
                     tmp_path / "p.json")
    code, *_ = run(capsys, "convert", "--to", "complex",
                   "--input", str(tmp_path / "p.json"),
                   "--output", str(tmp_path / "x.json"))
    assert code == 0
    code, *_ = run(capsys, "convert", "--to", "presentation",
                   "--input", str(tmp_path / "x.json"),
                   "--output", str(tmp_path / "p2.json"))
    assert code == 0
    d = fileio.load_json(tmp_path / "p2.json")
    assert d["generators"] == 2 and d["relators"] == [[1, 2, -1, -2]]
    assert d["tree"] == []


def test_convert_presentation_with_explicit_tree(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.complete_complex(4)),
                     tmp_path / "k4.json")
    tree = ",".join(str(k) for k in sorted(instances.path_tree(4)))
    code, *_ = run(capsys, "convert", "--to", "presentation",
                   "--input", str(tmp_path / "k4.json"),
                   "--tree", tree, "--output", str(tmp_path / "p.json"))
    assert code == 0
    d = fileio.load_json(tmp_path / "p.json")
    assert d["generators"] == 3 and len(d["relators"]) == 4


def test_defect_global_and_test_subcommands(tmp_path, capsys):
    fileio.save_json({"presentation": {"generators": 1, "relators": [[1, 1, 1]]},
                      "images": [[2, 1]]}, tmp_path / "hom.json")
    code, out, _ = run(capsys, "defect", "global", "--kind", "hom",
                       "--input", str(tmp_path / "hom.json"), "--nmax", "4")
    assert code == 0
    assert "upper_bound = 2/3" in out
    assert "exactness = exact-within-cap" in out

    code, out, _ = run(capsys, "test", "--kind", "hom",
                       "--input", str(tmp_path / "hom.json"),
                       "--trials", "500", "--seed", "3")
    assert code == 0
    assert "rejections = 500" in out
    code, out2, _ = run(capsys, "test", "--kind", "hom",
                        "--input", str(tmp_path / "hom.json"),
                        "--trials", "500", "--seed", "3")
    assert out == out2


def test_defect_cover_via_files(tmp_path, capsys):
    x = instances.bouquet_a3()
    a = images_to_cochain([Permutation([2, 1, 3])], x)
    fileio.save_json(fileio.cochain1_to_dict(a), tmp_path / "a.json")
    run(capsys, "convert", "--to", "cover", "--input", str(tmp_path / "a.json"),
        "--output", str(tmp_path / "cov.json"))
    fileio.save_json(fileio.complex_to_dict(x), tmp_path / "x.json")
    code, out, _ = run(capsys, "defect", "local", "--kind", "cover",
                       "--input", str(tmp_path / "cov.json"),
                       "--complex", str(tmp_path / "x.json"))
    assert code == 0 and "value = 2/3" in out
    code, out, _ = run(capsys, "defect", "local", "--kind", "cover-dm",
                       "--input", str(tmp_path / "cov.json"),
                       "--complex", str(tmp_path / "x.json"))
    assert code == 0 and "value = 1/1" in out


def test_matrix_defect(tmp_path, capsys):
    fileio.save_json({"rows": instances.blr_matrix(2), "vector": [1, 1, 1, 1]},
                     tmp_path / "m.json")
    code, out, _ = run(capsys, "defect", "local", "--kind", "matrix",
                       "--input", str(tmp_path / "m.json"))
    assert code == 0 and "value = 1/1" in out


def test_cheeger_and_h1_subcommands(tmp_path, capsys):
    fileio.save_json(fileio.graph_to_dict(instances.complete_graph(4)),
                     tmp_path / "k4.json")
    code, out, _ = run(capsys, "cheeger", "--input", str(tmp_path / "k4.json"))
    assert code == 0 and "value = 2/1" in out
    fileio.save_json(fileio.complex_to_dict(instances.torus_complex()),
                     tmp_path / "t.json")
    code, out, _ = run(capsys, "h1check", "--input", str(tmp_path / "t.json"),
                       "--ncap", "3")
    assert code == 0
    assert "N=2 vanishes=False" in out


def test_cheeger_json_carries_the_label(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.triangle_complex()),
                     tmp_path / "tri.json")
    argv = ("cheeger", "--input", str(tmp_path / "tri.json"), "--dimension", "1",
            "--variant", "cocycle", "--format", "json")
    code, out, _ = run(capsys, *argv, "--guard-align", "1")
    assert code == 0
    assert json.loads(out) == {"coeff_cap": 2, "dimension": 1, "exactness": "heuristic",
                               "value": "3/1", "variant": "cocycle"}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["exactness"] == "exact-within-cap"
    assert json.loads(out)["value"] == "3/1"
    code, _, err = run(capsys, *argv, "--guard-align", "1", "--no-heuristic")
    assert code == 2 and "--no-heuristic" in err


def test_cheeger_dim1_on_a_disconnected_skeleton_exits_1(tmp_path, capsys):
    # the sweep runs over the tree-trivial cochains of one spanning tree
    from permstab.complexes import PolygonalComplex, polygon_orbit
    from permstab.graphs import Graph

    g = Graph(6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)))
    x = PolygonalComplex(g, (polygon_orbit(g, (1, 2, 3)), polygon_orbit(g, (4, 5, 6))))
    fileio.save_json(fileio.complex_to_dict(x), tmp_path / "two.json")
    for variant in ("cocycle", "coboundary"):
        code, _, err = run(capsys, "cheeger", "--input", str(tmp_path / "two.json"),
                           "--dimension", "1", "--variant", variant)
        assert code == 1 and "disconnected" in err


def test_weights_subcommand(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.bouquet_a3()), tmp_path / "b.json")
    code, out, _ = run(capsys, "weights", "--input", str(tmp_path / "b.json"))
    assert code == 0
    assert "1,1/1" in out and "expected_length=3/1" in out


def test_weights_format_has_no_text_value(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.bouquet_a3()), tmp_path / "b.json")
    with pytest.raises(SystemExit):
        main(["weights", "--input", str(tmp_path / "b.json"), "--format", "text"])
    code, out, _ = run(capsys, "weights", "--input", str(tmp_path / "b.json"),
                       "--format", "csv")
    assert code == 0 and out.startswith("edge,mu1\n")


def test_profile_subcommand_writes_csv(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.complete_complex(4)),
                     tmp_path / "x.json")
    out_path = tmp_path / "profile.csv"
    code, *_ = run(capsys, "profile", "--input", str(tmp_path / "x.json"),
                   "--n", "2", "--grid", "0,0.4", "--samples", "2",
                   "--seed", "6", "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# seed=6")
    assert "level,sample,local_defect" in text
    code2, *_ = run(capsys, "profile", "--input", str(tmp_path / "x.json"),
                    "--n", "2", "--grid", "0,0.4", "--samples", "2",
                    "--seed", "6", "--output", str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == out_path.read_bytes()


def test_equiv_subcommand(tmp_path, capsys):
    cochain = write_cut_bundle(tmp_path)
    capsys.readouterr()
    code, out, _ = run(capsys, "equiv", "--input", str(cochain), "--nmax", "3")
    assert code == 0
    assert out.count("PASS") >= 4 and "FAIL" not in out


def test_guard_exit_code(tmp_path, capsys):
    cochain = write_cut_bundle(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, "defect", "global", "--kind", "cocycle",
                         "--input", str(cochain), "--nmax", "3",
                         "--guard-align", "2", "--no-heuristic")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["defect", "local", "--kind", "cocycle", "--nope", "x"])


def test_malformed_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "spectral", "--input", str(bad))
    assert code == 1
    assert "error" in err


def test_equiv_on_random_family(tmp_path, capsys):
    assert main(["generate", "--family", "random",
                 "--params", '{"d":4,"n":2,"target":"1/4","tol":"1/4"}',
                 "--seed", "8", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "equiv", "--input",
                       str(tmp_path / "random-cochain.json"), "--nmax", "4")
    assert code == 0 and "FAIL" not in out
    meta = json.loads((tmp_path / "random-meta.json").read_text())
    assert "exact_defect" in meta


def test_guard_without_fallback_exits_2(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.torus_complex()),
                     tmp_path / "t.json")
    code, _, err = run(capsys, "h1check", "--input", str(tmp_path / "t.json"),
                       "--guard-hom", "10")
    assert code == 2
    assert err.startswith("guard exceeded:")


ONE_VERTEX_EQUIV = """\
PASS  cover and cocycle local defects equal
PASS  covering round trip is exact
PASS  hom and cocycle local defects equal
PASS  hom and cocycle global defects equal within cap
PASS  normalized restriction matches the cocycle defect
PASS  hom global bound dominates the cocycle bound
PASS  cover and cocycle global bounds equal within cap
"""
MANY_VERTEX_EQUIV = """\
PASS  cover and cocycle local defects equal
PASS  covering round trip is exact
PASS  normalized restriction matches the cocycle defect
PASS  hom global bound dominates the cocycle bound
PASS  cover and cocycle global bounds equal within cap
"""


def _write_equiv_inputs(tmp_path):
    def save(x, rows, name):
        a = Cochain1(x, len(rows[0]), tuple(Permutation(r) for r in rows))
        fileio.save_json(fileio.cochain1_to_dict(a), tmp_path / name)
        return str(tmp_path / name)

    torus = save(instances.torus_complex(), [[1, 3, 2], [2, 1, 3]], "torus-3.json")
    c4 = save(instances.complete_complex(4),
              [[1, 2, 3], [1, 2, 3], [1, 2, 3], [3, 2, 1], [1, 2, 3], [2, 3, 1]], "c4-3.json")
    cut = str(write_cut_bundle(tmp_path))
    assert main(["generate", "--family", "random",
                 "--params", '{"d":4,"n":2,"target":"1/4","tol":"1/4"}',
                 "--seed", "8", "--output-dir", str(tmp_path)]) == 0
    return torus, c4, cut, str(tmp_path / "random-cochain.json")


def test_equiv_output_is_golden(tmp_path, capsys):
    # stdout and exit code as recorded before equiv ran each search once
    torus, c4, cut, random_ = _write_equiv_inputs(tmp_path)
    capsys.readouterr()
    for argv, expected in ((("--input", torus, "--nmax", "4"), ONE_VERTEX_EQUIV),
                           (("--input", cut, "--nmax", "3"), MANY_VERTEX_EQUIV),
                           (("--input", random_, "--nmax", "4"), MANY_VERTEX_EQUIV),
                           (("--input", c4, "--nmax", "4"), MANY_VERTEX_EQUIV),
                           (("--input", c4), MANY_VERTEX_EQUIV),
                           # degree 4 falls back to the identity alignment, but
                           # the witness is aligned at degree 3
                           (("--input", c4, "--nmax", "4", "--guard-align", "100000"),
                            MANY_VERTEX_EQUIV)):
        code, out, err = run(capsys, "equiv", *argv)
        assert (code, out, err) == (0, expected, ""), argv


def test_equiv_exits_2_when_the_witness_is_not_aligned(tmp_path, capsys):
    # with --guard-align 1 every candidate is measured at the identity
    # alignment, so the cover check's edit search refuses too
    torus, *_ = _write_equiv_inputs(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, "equiv", "--input", torus, "--nmax", "4",
                         "--guard-align", "1")
    assert code == 2 and out == ""
    assert err.startswith("guard exceeded:")


def test_each_subcommand_takes_only_the_options_it_reads():
    top = build_parser()
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in subparsers.choices.items()}
    guards = {"--guard-hom", "--guard-align"}
    assert options == {
        "validate": {"--input"},
        "defect": {"--kind", "--input", "--complex", "--format", "--root", "--tree",
                   "--nmax", "--weights", "--no-heuristic", *guards},
        "test": {"--kind", "--input", "--complex", "--trials", "--linf", "--format",
                 "--seed", "--weights"},
        "convert": {"--to", "--input", "--complex", "--output", "--root", "--tree"},
        "cheeger": {"--input", "--dimension", "--variant", "--coeff-cap", "--format",
                    "--no-heuristic", "--guard-enum", *guards},
        "spectral": {"--input", "--format"},
        "h1check": {"--input", "--ncap", "--root", "--tree", "--guard-hom"},
        "weights": {"--input", "--format", "--weights"},
        "profile": {"--input", "--n", "--grid", "--samples", "--output", "--seed",
                    "--root", "--nmax", "--no-heuristic", *guards},
        "equiv": {"--input", "--root", "--nmax", *guards},
        "generate": {"--family", "--params", "--output-dir", "--seed"},
    }
    defaults = {p.get_default(dest) for p in subparsers.choices.values()
                for dest in ("guard_hom", "guard_align", "guard_enum")} - {None}
    assert defaults == {stability.DEFAULT_HOM_GUARD, stability.DEFAULT_ALIGNMENT_GUARD,
                        stability.DEFAULT_ENUM_GUARD}


def test_covering_with_shared_lift_terminus_is_rejected(tmp_path, capsys):
    x = instances.bouquet_a3()
    cover = cochain_to_covering(images_to_cochain([Permutation([2, 1])], x))
    d = fileio.covering_to_dict(cover)
    # both lifts of the loop now end at cover vertex 1
    d["edges"] = [dict(rec, to=1) for rec in d["edges"]]
    fileio.save_json(d, tmp_path / "cov.json")
    fileio.save_json(fileio.complex_to_dict(x), tmp_path / "x.json")
    cov, cx = ("--input", str(tmp_path / "cov.json")), ("--complex", str(tmp_path / "x.json"))
    for argv in (("convert", "--to", "cochain", *cov, "--output", str(tmp_path / "a.json")),
                 ("defect", "global", "--kind", "cover", *cov, *cx),
                 ("defect", "local", "--kind", "cover", *cov, *cx),
                 ("defect", "local", "--kind", "cover-dm", *cov, *cx),
                 ("test", "--kind", "cover", *cov, *cx, "--trials", "100")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and "at vertex 1" in err, (argv, err)
    code, out, _ = run(capsys, "validate", *cov)
    assert code == 1 and "at vertex 1" in out


def test_covering_with_misplaced_fiber_labels_is_rejected(tmp_path, capsys):
    cover = cochain_to_covering(identity_cochain1(instances.triangle_complex(), 2))
    d = fileio.covering_to_dict(cover)
    # base vertex 1's labels now name the fiber over base vertex 2
    d["fiber_labels"]["1"] = d["fiber_labels"]["2"]
    fileio.save_json(d, tmp_path / "cov.json")
    code, out, _ = run(capsys, "validate", "--input", str(tmp_path / "cov.json"))
    assert code == 1 and "over vertex 1" in out


def test_a_cap_below_the_input_degree_exits_1(tmp_path, capsys):
    x = instances.torus_complex()
    a = Cochain1(x, 3, (Permutation([2, 3, 1]), Permutation([1, 3, 2])))
    fileio.save_json(fileio.complex_to_dict(x), tmp_path / "t.json")
    fileio.save_json(fileio.cochain1_to_dict(a), tmp_path / "a.json")
    fileio.save_json(fileio.covering_to_dict(cochain_to_covering(a)), tmp_path / "c.json")
    fileio.save_json({"presentation": {"generators": 2, "relators": [[1, 2, -1, -2]]},
                      "images": [[2, 3, 1], [1, 3, 2]]}, tmp_path / "h.json")
    below = "n_max 2 is below the input degree 3"
    for argv, message in [
            (("defect", "global", "--kind", "cocycle", "--input", "a.json"), below),
            (("defect", "global", "--kind", "cover", "--input", "c.json",
              "--complex", "t.json"), below),
            (("defect", "global", "--kind", "hom", "--input", "h.json"), below),
            (("equiv", "--input", "a.json"), below),
            (("profile", "--input", "t.json", "--n", "3"), below),
            (("h1check", "--input", "t.json", "--ncap", "1"), "n_cap 1")]:
        argv = [str(tmp_path / v) if v.endswith(".json") else v for v in argv]
        if argv[0] != "h1check":
            argv += ["--nmax", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and message in err, (argv, err)
        assert out == "", argv


def test_profile_levels_outside_the_unit_interval_exit_1(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.triangle_complex()), tmp_path / "x.json")
    for grid in ("2,-1", "0,nan", "0.5,1.01"):
        code, out, err = run(capsys, "profile", "--input", str(tmp_path / "x.json"),
                             "--n", "2", "--grid", grid, "--samples", "1")
        assert code == 1 and "outside [0, 1]" in err and out == "", grid


@pytest.mark.parametrize("family, params, message", [
    ("complete-complex", '{"d": 4.7}', "parameter d must be an integer, got 4.7"),
    ("complete-complex", '{"d": "5"}', "parameter d must be an integer, got '5'"),
    ("complete-complex", '{"d": true}', "parameter d must be an integer, got True"),
    ("complete-complex", '{"dd": 5}', "takes no parameter 'dd'; it accepts d"),
    ("torus", '{"d": 5}', "family torus takes no parameter 'd'; it accepts none"),
    ("cycle", '[4]', "--params must be a JSON object"),
    ("random", '{"n": 2.0}', "parameter n must be an integer"),
    ("random", '{"tol": null}', "a rational must be a number"),
    ("bouquet", '{"relators": [[1, 1.0]]}', "relator 1 entry 2 must be an integer"),
    ("bouquet", '{"relators": 5}', "parameter relators must be a list"),
    ("bouquet", '{"generators": "2"}', "parameter generators must be an integer"),
    ("balanced-cut", '{"n": 6}', "it accepts d"),
])
def test_generate_reads_its_parameters_strictly(tmp_path, capsys, family, params, message):
    code, out, err = run(capsys, "generate", "--family", family, "--params", params,
                         "--output-dir", str(tmp_path))
    assert code == 1 and message in err, err
    assert out == "" and not any(tmp_path.iterdir())


def test_generate_reads_valid_parameters(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--family", "complete-complex",
                       "--params", '{"d": 5}', "--output-dir", str(tmp_path))
    assert code == 0 and out.strip().endswith("complete-5.json")
    code, out, _ = run(capsys, "generate", "--family", "bouquet", "--params",
                       '{"relators": [[1, 2, -1, -2]], "generators": 3}',
                       "--output-dir", str(tmp_path))
    assert code == 0
    x = fileio.load_object(tmp_path / "bouquet.json")[1]
    assert len(x.skeleton.edges) == 3 and len(x.polygons) == 1


# ---------------------------------------------------------------------------
# fuzzed files of every kind

FUZZ_X = instances.triangle_complex()
FUZZ_ALPHA = Cochain1(FUZZ_X, 2, (Permutation([2, 1]), Permutation([1, 2]), Permutation([2, 1])))
FUZZ_COVER = fileio.covering_to_dict(cochain_to_covering(FUZZ_ALPHA))
FUZZ_COCHAIN = fileio.cochain1_to_dict(FUZZ_ALPHA)
FUZZ_COMPLEX = fileio.complex_to_dict(instances.torus_complex())
FUZZ_PRESENTATION = {"generators": 2, "relators": [[1, 2, -1, -2], [1, 1]]}
FUZZ_MATRIX = {"rows": instances.blr_matrix(2), "vector": [1, 0, 1, 1]}
FUZZ_GRAPH = fileio.graph_to_dict(FUZZ_X.skeleton)
FUZZ_HOM = {"presentation": FUZZ_PRESENTATION, "images": [[2, 3, 1], [1, 3, 2]]}
FUZZ_WEIGHTS = {"mu2": ["1/1"]}
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                 st.floats(-3, 12, allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(-1, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["1", "id", "x"]), st.integers(0, 2),
                                 max_size=1))


def _nodes(d, path=()):
    yield path
    items = d.items() if isinstance(d, dict) else enumerate(d) if isinstance(d, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(d, path):
    for key in path:
        d = d[key]
    return d


@st.composite
def mutated(draw, base):
    """A valid file with list entries (edges, letters, labels, rows) dropped or
    duplicated, or any node (a label, an id, a whole record or section)
    replaced by another value."""
    d = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(d))
        lists = [path for path in nodes if isinstance(_at(d, path), list) and _at(d, path)]
        if lists and draw(st.booleans()):
            seq = _at(d, draw(st.sampled_from(lists)))
            i = draw(st.integers(0, len(seq) - 1))
            if draw(st.booleans()):
                seq.pop(i)
            else:
                seq.append(copy.deepcopy(seq[i]))
            continue
        path = draw(st.sampled_from(nodes))
        value = draw(JUNK)
        if not path:
            d = value
            continue
        _at(d, path[:-1])[path[-1]] = value
    return d


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _consumers(kind, path, out, cx):
    """The commands that read a file of this kind beyond validating it."""
    return {"covering": [["defect", "local", "--kind", "cover", "--input", path,
                          "--complex", cx]],
            "cochain": [["defect", "local", "--kind", "cocycle", "--input", path]],
            "complex": [["convert", "--to", "presentation", "--input", path, "--output", out]],
            "presentation": [["convert", "--to", "complex", "--input", path, "--output", out]],
            "matrix": [["defect", "local", "--kind", "matrix", "--input", path]],
            "graph": [["spectral", "--input", path],
                      ["cheeger", "--dimension", "0", "--variant", "cocycle", "--input", path]],
            "hom_instance": [["defect", "local", "--kind", "hom", "--input", path]],
            "weights": [["weights", "--input", cx, "--weights", path]]}[kind]


def _fails_cleanly(kind, d):
    """Validate the file and consume it: exit 0 or 1 and a one-line message.
    validate is a load, so every consumer refuses a file that validate
    refuses, with the same message; a weights file needs a complex, so
    validate refuses every one and only the consumer's exit is checked.
    Returns the exit codes of validate and of each consumer."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out, cx = (str(Path(tmp) / name) for name in ("in.json", "out.json", "x.json"))
        Path(path).write_text(json.dumps(d), encoding="utf-8")
        fileio.save_json(fileio.complex_to_dict(FUZZ_X), cx)
        code, text, _ = _main(["validate", "--input", path])
        assert code in (0, 1)
        assert text.startswith("ok:" if code == 0 else "invalid: "), text
        codes = [code]
        for argv in _consumers(kind, path, out, cx):
            dcode, _, err = _main(argv)
            assert dcode in (0, 1)
            if dcode == 1:
                assert err.startswith("error:"), err
            if code == 1 and kind != "weights":
                assert (dcode, err) == (1, "error: " + text[len("invalid: "):]), (text, err)
            codes.append(dcode)
        return tuple(codes)


@settings(max_examples=150, deadline=None)
@given(mutated(FUZZ_COVER))
def test_fuzzed_covering_files_fail_cleanly(d):
    # every malformed covering file is refused with exit 1 and a one-line
    # message: no exception may escape main
    _fails_cleanly("covering", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_COCHAIN))
@example({**FUZZ_COCHAIN, "complex": ""})   # a complex path naming a directory
@example({**FUZZ_COCHAIN, "complex": "missing.json"})
def test_fuzzed_cochain_files_fail_cleanly(d):
    _fails_cleanly("cochain", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_COMPLEX))
def test_fuzzed_complex_files_fail_cleanly(d):
    _fails_cleanly("complex", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_PRESENTATION))
def test_fuzzed_presentation_files_fail_cleanly(d):
    _fails_cleanly("presentation", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_MATRIX))
@example({**FUZZ_MATRIX, "mu": ["1/0"]})   # a zero denominator
@example({**FUZZ_MATRIX, "mu": [True]})    # a bool weight
def test_fuzzed_matrix_files_fail_cleanly(d):
    _fails_cleanly("matrix", d)


BROKEN_GRAPH = {"vertices": 3, "edges": [{"id": 1, "from": 1, "to": 5}]}


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_GRAPH))
@example(BROKEN_GRAPH)   # a dangling endpoint
def test_fuzzed_graph_files_fail_cleanly(d):
    _fails_cleanly("graph", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_HOM))
def test_fuzzed_hom_instance_files_fail_cleanly(d):
    _fails_cleanly("hom_instance", d)


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_WEIGHTS))
@example({"mu2": [None]})    # a null weight
@example({"mu2": ["1/0"]})   # a zero denominator
@example({"mu": ["1"]})      # a mu file where a mu2 file belongs
def test_fuzzed_weights_files_fail_cleanly(d):
    _fails_cleanly("weights", d)


def test_broken_graph_is_refused_by_every_graph_command(tmp_path, capsys):
    # every command that reads a graph refuses it as validate does
    fileio.save_json(BROKEN_GRAPH, tmp_path / "g.json")
    for argv in (["spectral"], ["cheeger"], ["cheeger", "--dimension", "0",
                                             "--variant", "cocycle"]):
        code, _, err = run(capsys, *argv, "--input", str(tmp_path / "g.json"))
        assert (code, err) == (1, "error: invalid graph: dangling endpoint on edge 1: (1,5)\n")


def test_weights_for_relators_refuse_a_zero_denominator(tmp_path, capsys):
    fileio.save_json(FUZZ_MATRIX, tmp_path / "m.json")
    fileio.save_json({"mu": ["1/0"]}, tmp_path / "w.json")
    code, _, err = run(capsys, "defect", "local", "--kind", "matrix", "--input",
                       str(tmp_path / "m.json"), "--weights", str(tmp_path / "w.json"))
    assert (code, err) == (1, "error: '1/0' is not a finite rational\n")


@pytest.mark.parametrize("kind, base", [
    ("covering", FUZZ_COVER), ("cochain", FUZZ_COCHAIN), ("complex", FUZZ_COMPLEX),
    ("presentation", FUZZ_PRESENTATION), ("matrix", FUZZ_MATRIX)])
def test_non_integer_numbers_are_refused(kind, base):
    # a bool or a float in any integer field, 2.0 included, is refused by
    # validate and by the command that reads the file, never truncated
    assert _fails_cleanly(kind, base) == (0, 0)
    for path in _nodes(base):
        value = _at(base, path)
        if type(value) is not int:
            continue
        for bad in (float(value), value + 0.5, True, False):
            d = copy.deepcopy(base)
            _at(d, path[:-1])[path[-1]] = bad
            assert _fails_cleanly(kind, d) == (1, 1), (path, bad)


# ---------------------------------------------------------------------------
# every command on a file of every kind

KIND_FILES = {
    "covering": FUZZ_COVER,
    "labeled_graph": {k: v for k, v in FUZZ_COVER.items() if k not in ("degree", "fiber_labels")},
    "1-cochain": FUZZ_COCHAIN,
    "0-cochain": fileio.cochain0_to_dict(Cochain0(FUZZ_X, 2, FUZZ_ALPHA.values)),
    "complex": fileio.complex_to_dict(FUZZ_X),
    "presentation": FUZZ_PRESENTATION,
    "matrix": FUZZ_MATRIX,
    "graph": FUZZ_GRAPH,
    "hom_instance": FUZZ_HOM,
    "weights": FUZZ_WEIGHTS,
}


def _commands_and_kinds(path, out, cx):
    """Each command that reads --input, with the file kinds it accepts."""
    testers = (("hom", "hom_instance"), ("cocycle", "1-cochain"), ("cover", "covering"),
               ("cover-dm", "covering"), ("matrix", "matrix"))
    rows = [(["defect", "local", "--kind", kind, "--complex", cx], accepts)
            for kind, accepts in testers]
    rows += [(["test", "--kind", kind, "--complex", cx, "--trials", "10"], accepts)
             for kind, accepts in testers]
    rows += [(["defect", "global", "--kind", kind, "--complex", cx, "--nmax", "3"], accepts)
             for kind, accepts in testers[:3]]
    rows += [(["convert", "--to", "cover", "--output", out], "1-cochain"),
             (["convert", "--to", "cochain", "--output", out], "covering"),
             (["convert", "--to", "complex", "--output", out], "presentation"),
             (["convert", "--to", "presentation", "--output", out], "complex"),
             (["cheeger"], "complex or graph"),
             (["spectral"], "graph or complex or 0-cochain or 1-cochain"),
             (["h1check", "--ncap", "2"], "complex"),
             (["weights"], "complex"),
             (["profile", "--n", "2", "--samples", "1", "--grid", "0"], "complex or presentation"),
             (["equiv", "--nmax", "3"], "1-cochain")]
    return [(argv + ["--input", path], accepts) for argv, accepts in rows]


def test_every_command_reads_every_kind_of_file_without_a_traceback(tmp_path):
    # a file of the wrong kind is refused with exit 1 and one line naming the
    # kinds the command reads; a file of a kind it reads is consumed
    cx, out = str(tmp_path / "x.json"), str(tmp_path / "out.json")
    fileio.save_json(fileio.complex_to_dict(FUZZ_X), cx)
    paths = {kind: str(tmp_path / f"{kind}.json") for kind in KIND_FILES}
    for kind, d in KIND_FILES.items():
        fileio.save_json(d, paths[kind])
    for kind, path in paths.items():
        code, text, _ = _main(["validate", "--input", path])
        assert (code, text) == ((1, "invalid: weight files need a complex; load them explicitly\n")
                                if kind == "weights" else
                                (0, f"ok: {'cochain' if 'cochain' in kind else kind}\n"))
        for argv, accepts in _commands_and_kinds(path, out, cx):
            code, _, err = _main(argv)
            if kind in accepts.split(" or "):
                assert (code, err) == (0, ""), (kind, argv)
            elif kind == "weights":
                assert (code, err) == (1, "error: weight files need a complex; "
                                          "load them explicitly\n"), argv
            else:
                assert (code, err) == (1, f"error: expected a {accepts} file, "
                                          f"got a {kind} file\n"), argv
        for argv in (["defect", "local", "--kind", "cover"],
                     ["convert", "--to", "cochain", "--output", out]):
            code, _, err = _main(argv + ["--input", paths["covering"], "--complex", path])
            if kind in ("complex", "weights"):
                assert code == (0 if kind == "complex" else 1)
            else:
                assert (code, err) == (1, f"error: expected a complex file, "
                                          f"got a {kind} file\n"), argv


def test_defect_global_refuses_weights(tmp_path, capsys):
    # the global defects are unweighted, so a weights file is refused rather
    # than loaded and ignored
    path = str(write_cut_bundle(tmp_path))
    fileio.save_json({"mu2": ["1/1"] + ["0/1"] * 9}, tmp_path / "w.json")
    argv = ("defect", "global", "--kind", "cocycle", "--input", path, "--nmax", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "upper_bound = 1/15" in out
    code, out, err = run(capsys, *argv, "--weights", str(tmp_path / "w.json"))
    assert (code, out) == (1, "")
    assert err == "error: global defects are unweighted; --weights is for local defects\n"


_GLOBAL_ONLY = (("--root", "99"), ("--tree", "1,2,banana"), ("--nmax", "0"),
                ("--no-heuristic",), ("--guard-hom", "0"), ("--guard-align", "0"))


@pytest.mark.parametrize("flag", _GLOBAL_ONLY, ids=lambda flag: flag[0])
def test_defect_local_refuses_each_global_only_flag(tmp_path, capsys, flag):
    # the local scope reads none of these, so it names the flag instead of
    # printing the same value with any setting of it
    path = str(write_cut_bundle(tmp_path))
    capsys.readouterr()
    argv = ("defect", "local", "--kind", "cocycle", "--input", path)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "value = 1/5" in out
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (1, "")
    assert err == (f"error: defect local takes no {flag[0]}; "
                   "those options are read by defect global\n")


def test_defect_local_names_every_global_only_flag_given(tmp_path, capsys):
    # an explicit default (--root 1) is a given flag too
    path = str(write_cut_bundle(tmp_path))
    capsys.readouterr()
    code, out, err = run(capsys, "defect", "local", "--kind", "cocycle", "--input", path,
                         "--nmax", "0", "--guard-hom", "0", "--root", "1")
    assert (code, out) == (1, "")
    assert err == ("error: defect local takes no --root, --nmax, --guard-hom; "
                   "those options are read by defect global\n")


def test_defect_global_keeps_its_defaults(tmp_path, capsys):
    # the global scope fills the flags it was not given with their defaults
    path = str(write_cut_bundle(tmp_path))
    capsys.readouterr()
    argv = ("defect", "global", "--kind", "cocycle", "--input", path)
    explicit = ("--root", "1", "--guard-hom", str(stability.DEFAULT_HOM_GUARD),
                "--guard-align", str(stability.DEFAULT_ALIGNMENT_GUARD))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == ("scope = global\nkind = cocycle\nupper_bound = 1/15\nn_max = 4\n"
                   "exactness = heuristic\ndegrees_skipped = 3 4\n")
    assert run(capsys, *argv, *explicit) == (0, out, "")
    assert run(capsys, *argv, "--no-heuristic") == \
        (2, "", "guard exceeded and --no-heuristic given\n")


def test_weights_file_without_the_expected_key_names_it(tmp_path, capsys):
    fileio.save_json(FUZZ_COVER, tmp_path / "c.json")
    fileio.save_json(FUZZ_COCHAIN, tmp_path / "a.json")
    fileio.save_json(fileio.complex_to_dict(FUZZ_X), tmp_path / "x.json")
    fileio.save_json(FUZZ_MATRIX, tmp_path / "m.json")
    fileio.save_json({"mu": ["1/1"]}, tmp_path / "mu.json")
    fileio.save_json({"nu": ["1/1"]}, tmp_path / "nu.json")
    mu2 = 'error: weights over a complex need a "mu2" list of polygon weights\n'
    mu = 'error: weights over relators or rows need a "mu" list\n'
    for command in (["defect", "local"], ["test"]):
        for kind, path in (("cocycle", "a.json"), ("cover", "c.json")):
            code, out, err = run(capsys, *command, "--kind", kind, "--input",
                                 str(tmp_path / path), "--complex", str(tmp_path / "x.json"),
                                 "--weights", str(tmp_path / "mu.json"))
            assert (code, out, err) == (1, "", mu2), (command, kind)
        code, out, err = run(capsys, *command, "--kind", "matrix", "--input",
                             str(tmp_path / "m.json"), "--weights", str(tmp_path / "nu.json"))
        assert (code, out, err) == (1, "", mu), command


def test_cover_dm_refuses_weights(tmp_path, capsys):
    fileio.save_json(FUZZ_COVER, tmp_path / "c.json")
    fileio.save_json(fileio.complex_to_dict(FUZZ_X), tmp_path / "x.json")
    fileio.save_json({"mu2": ["1/1"]}, tmp_path / "w.json")
    for argv in (["defect", "local"], ["test"]):
        code, _, err = run(capsys, *argv, "--kind", "cover-dm", "--input",
                           str(tmp_path / "c.json"), "--complex", str(tmp_path / "x.json"),
                           "--weights", str(tmp_path / "w.json"))
        assert (code, err) == (1, "error: the discrete-metric cover tester takes no weights\n")


def test_cheeger_classical_has_no_dimension_1(tmp_path, capsys):
    fileio.save_json(fileio.graph_to_dict(instances.complete_graph(4)), tmp_path / "k4.json")
    code, out, err = run(capsys, "cheeger", "--input", str(tmp_path / "k4.json"),
                         "--dimension", "1")
    assert (code, out) == (1, "")
    assert err == "error: the classical Cheeger constant has dimension 0 only\n"
    with pytest.raises(ValueError, match="dimension 0 only"):
        stability.cheeger(instances.complete_graph(4), 1, "classical")
