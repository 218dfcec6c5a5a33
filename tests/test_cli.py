import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permstab import fileio, instances
from permstab.cli import main
from permstab.cochains import (Cochain1, cochain_to_covering, identity_cochain1,
                               images_to_cochain)
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
                               "value": "1/1", "variant": "cocycle"}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["exactness"] == "exact-within-cap"
    assert json.loads(out)["value"] == "3/1"
    code, _, err = run(capsys, *argv, "--guard-align", "1", "--no-heuristic")
    assert code == 2 and "--no-heuristic" in err


def test_weights_subcommand(tmp_path, capsys):
    fileio.save_json(fileio.complex_to_dict(instances.bouquet_a3()), tmp_path / "b.json")
    code, out, _ = run(capsys, "weights", "--input", str(tmp_path / "b.json"))
    assert code == 0
    assert "1,1/1" in out and "expected_length=3/1" in out


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


# ---------------------------------------------------------------------------
# fuzzed covering files

FUZZ_X = instances.triangle_complex()
FUZZ_COVER = fileio.covering_to_dict(cochain_to_covering(
    Cochain1(FUZZ_X, 2, (Permutation([2, 1]), Permutation([1, 2]), Permutation([2, 1])))))
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


@st.composite
def mutated_coverings(draw):
    """A valid covering file with edges dropped or duplicated, or any node
    (a label, an id, a whole record or section) replaced by another value."""
    d = copy.deepcopy(FUZZ_COVER)
    for _ in range(draw(st.integers(1, 3))):
        edges = d.get("edges") if isinstance(d, dict) else None
        if isinstance(edges, list) and edges and draw(st.booleans()):
            i = draw(st.integers(0, len(edges) - 1))
            if draw(st.booleans()):
                edges.pop(i)
            else:
                edges.append(copy.deepcopy(edges[i]))
            continue
        path = draw(st.sampled_from(list(_nodes(d))))
        value = draw(JUNK)
        if not path:
            d = value
            continue
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return d


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated_coverings())
def test_fuzzed_covering_files_fail_cleanly(d):
    # every malformed covering file is refused with exit 1 and a one-line
    # message: no exception may escape main
    with tempfile.TemporaryDirectory() as tmp:
        cov, cx = Path(tmp) / "cov.json", Path(tmp) / "x.json"
        cov.write_text(json.dumps(d), encoding="utf-8")
        fileio.save_json(fileio.complex_to_dict(FUZZ_X), cx)
        code, out, _ = _main(["validate", "--input", str(cov)])
        assert code in (0, 1)
        assert out.startswith("ok:" if code == 0 else "invalid:"), out
        dcode, _, err = _main(["defect", "local", "--kind", "cover", "--input", str(cov),
                               "--complex", str(cx)])
        assert dcode in (0, 1)
        if dcode == 1:
            assert err.startswith("error:"), err
        if code == 1:
            assert dcode == 1
