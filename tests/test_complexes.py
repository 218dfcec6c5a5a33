from fractions import Fraction

import numpy as np
import pytest

from permstab import instances
from permstab.complexes import (PolygonClass, PolygonalComplex, Presentation,
                                fundamental_presentation, occurrence_count,
                                polygon_orbit, polygon_weights,
                                presentation_complex, uniform_distribution,
                                validate_complex)
from permstab.graphs import Graph


def test_polygon_orbit_bouquet_cube():
    g = Graph(1, ((1, 1),))
    pc = polygon_orbit(g, (1, 1, 1))
    assert pc.orientations == {(1, 1, 1), (-1, -1, -1)}
    assert pc.canonical == (-1, -1, -1)   # signed order puts -1 before 1
    assert pc.rep == (1, 1, 1)


def test_polygon_orbit_generic_and_short():
    tri = instances.triangle_complex()
    assert len(tri.polygons[0].orientations) == 6
    g = Graph(1, ((1, 1),))
    pc = polygon_orbit(g, (1,))
    assert pc.orientations == {(1,), (-1,)}


def test_polygon_orbit_rejects_bad_input():
    g = Graph(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        polygon_orbit(g, (1,))          # open path
    loop = Graph(1, ((1, 1),))
    with pytest.raises(ValueError):
        polygon_orbit(loop, (1, -1))    # not cyclically reduced
    with pytest.raises(ValueError):
        polygon_orbit(loop, ())


def test_polygon_orbit_idempotent_on_any_orientation():
    tri = instances.triangle_complex()
    pc = tri.polygons[0]
    for o in pc.orientations:
        again = polygon_orbit(tri.skeleton, o)
        assert again == pc
        assert again.orientations == pc.orientations


def test_validate_complex_cases():
    assert validate_complex(instances.triangle_complex()).ok
    loop = Graph(1, ((1, 1),))
    bad = PolygonalComplex(loop, (polygon_orbit(loop, (1, 1)),) * 2)
    rep = validate_complex(bad)
    assert not rep.ok and "duplicate pasted path" in rep.message


def test_validate_complex_reports_each_malformed_polygon_class():
    loop, arc = Graph(1, ((1, 1),)), Graph(2, ((1, 2), (2, 1)))
    for g, pc, message in (
            (arc, PolygonClass((1,), (1,), frozenset({(1,)})),
             "polygon 0: polygon path must be closed"),
            (loop, PolygonClass((1, 1), (-1, -1), frozenset({(1, 1)})),
             "polygon 0: orientation set not closed under shift/inverse"),
            (loop, PolygonClass((1, 1), (1, 1), frozenset({(1, 1), (-1, -1)})),
             "polygon 0: canonical representative not minimal")):
        rep = validate_complex(PolygonalComplex(g, (pc,)))
        assert (rep.ok, rep.message) == (False, message)


def test_presentation_complex_shapes():
    x = presentation_complex(Presentation(1, ((1, 1, 1),)))
    assert x.skeleton.vertex_count == 1 and len(x.skeleton.edges) == 1
    assert x.polygons[0].length == 3

    torus = presentation_complex(Presentation(2, ((1, 2, -1, -2),)))
    assert len(torus.skeleton.edges) == 2
    assert torus.polygons[0].length == 4

    free = presentation_complex(Presentation(2, ()))
    assert free.polygons == ()


def test_presentation_complex_reduces_and_rejects_trivial():
    x = presentation_complex(Presentation(1, ((1, -1, 1, 1, 1),)))
    assert x.polygons[0].rep == (1, 1, 1)
    with pytest.raises(ValueError):
        presentation_complex(Presentation(1, ((1, -1),)))
    with pytest.raises(ValueError):
        presentation_complex(Presentation(1, ((1, 1, 1), (-1, -1, -1))))


def test_fundamental_presentation_triangle():
    tri = instances.triangle_complex()
    fp = fundamental_presentation(tri, 1)
    assert fp.tree == frozenset({1, 2})
    assert fp.presentation.generator_count == 1
    assert fp.presentation.relators == ((1,),)
    assert fp.generator_edges == (3,)


def test_fundamental_presentation_round_trip():
    for p in (Presentation(1, ((1, 1, 1),)),
              Presentation(2, ((1, 2, -1, -2),)),
              Presentation(3, ((1, 1), (2, 3, 3, -2, 1),))):
        x = presentation_complex(p)
        fp = fundamental_presentation(x, 1)
        assert fp.tree == frozenset()
        assert fp.presentation == p


def test_fundamental_presentation_complete_complex_counts():
    x = instances.complete_complex(4)
    fp = fundamental_presentation(x, 1, instances.path_tree(4))
    assert fp.presentation.generator_count == 3   # C(4,2) - 3 non-tree edges
    assert len(fp.presentation.relators) == 4     # one per triangle


def test_polygon_weights_point_mass_and_uniform():
    tri = instances.triangle_complex()
    ws = polygon_weights(tri, [Fraction(1)])
    assert ws.mu1 == (Fraction(1, 3),) * 3
    assert ws.expected_length == 3

    # one length-3 and one length-4 polygon, uniform
    x = presentation_complex(Presentation(2, ((1, 1, 1), (1, 2, -1, -2))))
    ws2 = polygon_weights(x)
    assert ws2.expected_length == Fraction(7, 2)

    b = instances.bouquet_a3()
    ws3 = polygon_weights(b, [Fraction(1)])
    assert ws3.mu1 == (Fraction(1),)
    assert ws3.expected_length == 3
    assert occurrence_count(b.polygons[0], 1) == 3


def test_weight_sum_identity_and_validation():
    x = instances.complete_complex(4)
    ws = polygon_weights(x, [Fraction(1, 8)] * 3 + [Fraction(5, 8)])
    assert sum(Fraction(occurrence_count(pc, e + 1)) * m2
               for pc, m2 in zip(x.polygons, ws.mu2)
               for e in range(len(x.skeleton.edges))) == ws.expected_length
    assert sum(ws.mu1) == 1
    with pytest.raises(ValueError):
        polygon_weights(x, [Fraction(1)] * 3)
    with pytest.raises(ValueError):
        polygon_weights(PolygonalComplex(x.skeleton, ()))


def test_polygon_weights_equal_the_occurrence_count_formula():
    rng = np.random.default_rng(11)
    for x in instances.corpus_complexes().values():
        raw = [int(v) for v in rng.integers(0, 4, len(x.polygons))]
        raw[0] += 1
        for mu2 in (None, [Fraction(v, sum(raw)) for v in raw]):
            ws = polygon_weights(x, mu2)
            w = [sum((m2 * occurrence_count(pc, e) for m2, pc in zip(ws.mu2, x.polygons)),
                     Fraction(0)) for e in range(1, len(x.skeleton.edges) + 1)]
            assert ws.expected_length == sum(w)
            assert ws.mu1 == tuple(v / sum(w) for v in w)


def test_occurrence_counts_orientation_independent():
    x = instances.complete_complex(4)
    for pc in x.polygons:
        for e in range(1, len(x.skeleton.edges) + 1):
            base = occurrence_count(pc, e)
            for o in pc.orientations:
                assert sum(1 for s in o if abs(s) == e) == base


def test_uniform_distribution_guard():
    with pytest.raises(ValueError):
        uniform_distribution(0)
