import json
from fractions import Fraction

import numpy as np
import pytest

from permstab import fileio, graphs, instances
from permstab.cochains import Cochain0, Cochain1, cochain_to_covering
from permstab.complexes import Presentation
from permstab.perm import Permutation


def test_fraction_round_trip():
    assert fileio.frac_to_str(Fraction(3, 7)) == "3/7"
    assert fileio.frac_from_str("3/7") == Fraction(3, 7)
    assert fileio.frac_from_str("2") == 2
    assert fileio.frac_from_str(5) == 5


@pytest.mark.parametrize("bad", [None, True, [1], {"1": 1}, "1/0", "0/0", float("inf")])
def test_rational_fields_refuse_what_is_not_a_finite_rational(bad):
    with pytest.raises(ValueError):
        fileio.frac_from_str(bad)


def test_hom_instance_needs_one_image_per_generator_of_one_degree():
    p = {"generators": 2, "relators": [[1, 2, -1, -2]]}
    for images in ([[2, 1]], [[2, 1], [1, 3, 2]]):
        with pytest.raises(ValueError):
            fileio.hom_instance_from_dict({"presentation": p, "images": images})


def test_graph_round_trip(tmp_path):
    g = instances.petersen_graph()
    d = fileio.graph_to_dict(g)
    assert fileio.graph_from_dict(d) == g
    path = tmp_path / "g.json"
    fileio.save_json(d, path)
    kind, loaded = fileio.load_object(path)
    assert kind == "graph" and loaded == g


def test_graph_rejects_gapped_ids():
    with pytest.raises(ValueError):
        fileio.graph_from_dict({"vertices": 2, "edges": [{"id": 2, "from": 1, "to": 2}]})


def test_complex_round_trip(tmp_path):
    x = instances.complete_complex(4)
    d = fileio.complex_to_dict(x)
    back = fileio.complex_from_dict(d)
    assert back == x
    path = tmp_path / "x.json"
    fileio.save_json(d, path)
    kind, loaded = fileio.load_object(path)
    assert kind == "complex" and loaded == x


def test_presentation_round_trip():
    p = Presentation(2, ((1, 2, -1, -2), (1, 1)))
    assert fileio.presentation_from_dict(fileio.presentation_to_dict(p)) == p


def test_cochain_round_trip_inline_and_reference(tmp_path):
    rng = np.random.default_rng(2)
    x = instances.torus_complex()
    a = instances.random_cochain1(x, 3, rng)
    d = fileio.cochain1_to_dict(a)
    back = fileio.cochain_from_dict(d)
    assert isinstance(back, Cochain1)
    assert back.values == a.values and back.space == x

    # complex by relative reference
    fileio.save_json(fileio.complex_to_dict(x), tmp_path / "complex.json")
    d["complex"] = "complex.json"
    fileio.save_json(d, tmp_path / "cochain.json")
    kind, loaded = fileio.load_object(tmp_path / "cochain.json")
    assert kind == "cochain" and loaded.values == a.values


def test_cochain0_round_trip():
    rng = np.random.default_rng(4)
    x = instances.triangle_complex()
    b = instances.random_cochain0(x, 2, rng)
    back = fileio.cochain_from_dict(fileio.cochain0_to_dict(b))
    assert isinstance(back, Cochain0)
    assert back.values == b.values


def test_cochain_missing_value_rejected():
    x = instances.bouquet_a3()
    d = {"complex": fileio.complex_to_dict(x), "n": 2, "dimension": 1, "values": {}}
    with pytest.raises(ValueError, match="missing value"):
        fileio.cochain_from_dict(d)


def test_cochain_non_bijective_value_rejected():
    x = instances.bouquet_a3()
    d = {"complex": fileio.complex_to_dict(x), "n": 2, "dimension": 1,
         "values": {"1": [1, 1]}}
    with pytest.raises(ValueError, match="not a bijection"):
        fileio.cochain_from_dict(d)


def test_covering_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x = instances.triangle_complex()
    c = cochain_to_covering(instances.random_cochain1(x, 2, rng))
    d = fileio.covering_to_dict(c)
    back = fileio.covering_from_dict(d)
    assert back.graph == c.graph
    assert back.fiber_labels == c.fiber_labels
    fileio.save_json(d, tmp_path / "cov.json")
    kind, loaded = fileio.load_object(tmp_path / "cov.json")
    assert kind == "covering"


def test_matrix_and_weights_parsing():
    rows, vec, mu = fileio.matrix_from_dict(
        {"rows": [[1, 0], [1, 1]], "vector": [1, 0], "mu": ["1/4", "3/4"]})
    assert mu == [Fraction(1, 4), Fraction(3, 4)]
    x = instances.complete_complex(4)
    ws = fileio.weights_from_dict({"mu2": ["1/4"] * 4}, x)
    assert ws.expected_length == 3


def test_detect_kind():
    assert fileio.detect_kind({"generators": 1, "relators": []}) == "presentation"
    assert fileio.detect_kind({"edges": [], "vertices": 1}) == "graph"
    with pytest.raises(ValueError):
        fileio.detect_kind({"nope": 1})


def test_save_is_deterministic(tmp_path):
    d = fileio.complex_to_dict(instances.complete_complex(4))
    fileio.save_json(d, tmp_path / "a.json")
    fileio.save_json(d, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_covering_load_validates_its_map_once(monkeypatch):
    # check_covering validates the labeling, so the loader does not do it
    # again; a labeled-graph file has no covering check and validates it itself
    calls, validate_map = [], graphs.validate_map

    def counting(f):
        calls.append(f)
        return validate_map(f)

    monkeypatch.setattr(graphs, "validate_map", counting)
    monkeypatch.setattr(fileio, "validate_map", counting)
    c = cochain_to_covering(Cochain1(instances.torus_complex(), 2,
                                     (Permutation([2, 1]), Permutation([1, 2]))))
    d = fileio.covering_to_dict(c)
    assert fileio.covering_from_dict(d) == c
    assert len(calls) == 1
    assert fileio.labeled_graph_from_dict(d).labeling == c.labeled.labeling
    assert len(calls) == 2
    d["vertex_map"][0] = 2
    with pytest.raises(ValueError, match="^not a combinatorial map: vertex 1 maps outside target$"):
        fileio.covering_from_dict(d)
    with pytest.raises(ValueError, match="^invalid labeling: vertex 1 maps outside target$"):
        fileio.labeled_graph_from_dict(d)


def test_a_covering_of_a_point_lists_each_sheet_once():
    # with no edges to lift, only the fiber check sees a repeated label
    point, sheets = graphs.Graph(1, ()), graphs.Graph(2, ())
    c = graphs.check_covering(graphs.CombinatorialMap(sheets, point, (1, 1), ()), 2)
    d = fileio.covering_to_dict(c)
    assert fileio.covering_from_dict(d) == c
    d["fiber_labels"]["1"] = [1, 1]
    with pytest.raises(ValueError, match="^fiber labels over vertex 1 are not a labeling"):
        fileio.covering_from_dict(d)
