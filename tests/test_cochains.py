import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest

from permstab import cochains, fileio, instances
from permstab.cochains import (Cochain0, Cochain1, act0on1, coboundary0,
                               coboundary1, coboundary_distance,
                               cochain_distance, cochain_norm,
                               cochain_to_covering, cochain_to_images,
                               covering_to_cochain, edge_norm,
                               identity_cochain0, identity_cochain1,
                               images_to_cochain, is_coboundary, is_cocycle,
                               orbit_distance, path_value, tree_normalize)
from permstab.complexes import PolygonalComplex
from permstab.errors import GuardExceeded
from permstab.graphs import Graph, check_covering, spanning_tree
from permstab.perm import Permutation, all_permutations, compose

ID2 = Permutation.identity(2)
SWAP = Permutation([2, 1])


def test_coboundary0_constant_is_trivial():
    tri = instances.triangle_complex()
    b = Cochain0(tri, 3, (Permutation([2, 3, 1]),) * 3)
    assert all(p.is_identity() for p in coboundary0(b).values)


def test_coboundary0_triangle_example():
    tri = instances.triangle_complex()
    b = Cochain0(tri, 2, (ID2, SWAP, SWAP))
    db = coboundary0(b)
    assert db.values[0] == SWAP      # edge 1 -> 2
    assert db.values[1] == ID2       # edge 2 -> 3
    assert db.values[2] == SWAP      # edge 3 -> 1


def test_exactness_on_corpus():
    rng = np.random.default_rng(1)
    for x in instances.corpus_complexes().values():
        for _ in range(20):
            b = instances.random_cochain0(x, int(rng.integers(2, 5)), rng)
            db = coboundary0(b)
            for pc in x.polygons:
                assert path_value(db, pc.rep).is_identity()


def test_coboundary1_examples():
    x = instances.bouquet_a3()
    a3 = images_to_cochain([Permutation([2, 3, 1])], x)
    assert coboundary1(a3, (1, 1, 1)).is_identity()
    a2 = images_to_cochain([Permutation([2, 1, 3])], x)
    assert coboundary1(a2, (1, 1, 1)) == Permutation([2, 1, 3])
    torus = instances.torus_complex()
    al = images_to_cochain([Permutation([2, 3, 1]), Permutation([2, 1, 3])], torus)
    assert coboundary1(al, torus.polygons[0].rep) == Permutation([3, 1, 2])
    assert coboundary1(al, ()).is_identity()


def test_cochain_norm_examples():
    x = instances.bouquet_a3()
    assert cochain_norm(images_to_cochain([Permutation([2, 3, 1])], x)) == 0
    assert cochain_norm(images_to_cochain([SWAP], x)) == 1
    assert cochain_norm(instances.cut_instance(6).cochain) == Fraction(1, 5)


def test_cochain_norm_single_orientation_equals_average():
    rng = np.random.default_rng(7)
    for x in (instances.triangle_complex(), instances.complete_complex(4)):
        for _ in range(25):
            a = instances.random_cochain1(x, 3, rng)
            per_class = []
            for pc in x.polygons:
                vals = [Fraction(a.degree - path_value(a, o).fixed_points(), a.degree)
                        for o in sorted(pc.orientations)]
                assert len(set(vals)) == 1          # orientation invariance
                per_class.append(vals[0])
            assert cochain_norm(a) == Fraction(sum(per_class), len(per_class))


def test_cochain_distance_examples():
    x = instances.bouquet_a3()
    a = images_to_cochain([SWAP], x)
    b = images_to_cochain([Permutation([2, 3, 1])], x)
    assert cochain_distance(a, a) == 0
    assert cochain_distance(a, b) == Fraction(2, 3)
    # two-edge complex differing on one edge by distance 1/2
    y = instances.torus_complex()
    id4 = Permutation.identity(4)
    c = images_to_cochain([id4, id4], y)
    half = images_to_cochain([id4, Permutation([2, 1, 3, 4])], y)
    assert cochain_distance(c, half) == Fraction(1, 4)


def test_act0on1_examples_and_action_laws():
    tri = instances.triangle_complex()
    alpha = images = Cochain1(tri, 2, (ID2, ID2, ID2))
    beta = Cochain0(tri, 2, (ID2, SWAP, ID2))
    out = act0on1(beta, alpha)
    assert out.values == (SWAP, SWAP, ID2)
    # constant beta conjugates and preserves the norm
    rng = np.random.default_rng(3)
    x = instances.complete_complex(4)
    for _ in range(15):
        a = instances.random_cochain1(x, 3, rng)
        b = instances.random_cochain0(x, 3, rng)
        assert cochain_norm(act0on1(b, a)) == cochain_norm(a)
    # group action: identity acts trivially, composition is compatible
    a = instances.random_cochain1(x, 3, rng)
    b1 = instances.random_cochain0(x, 3, rng)
    b2 = instances.random_cochain0(x, 3, rng)
    assert act0on1(identity_cochain0(x, 3), a).values == a.values
    prod = Cochain0(x, 3, tuple(compose(p, q) for p, q in zip(b1.values, b2.values)))
    assert act0on1(prod, a).values == act0on1(b2, act0on1(b1, a)).values


def test_act0on1_degree_mismatch():
    tri = instances.triangle_complex()
    with pytest.raises(ValueError):
        act0on1(identity_cochain0(tri, 2), Cochain1(tri, 3, (Permutation.identity(3),) * 3))


def test_tree_normalize_examples():
    tri = instances.triangle_complex()
    # values (1 2), (1 2 3), Id in Sym(3)
    alpha = Cochain1(tri, 3, (Permutation([2, 1, 3]), Permutation([2, 3, 1]),
                              Permutation.identity(3)))
    tree = frozenset({1, 2})
    out, beta = tree_normalize(alpha, tree, 1)
    assert out.values[0].is_identity() and out.values[1].is_identity()
    assert out.values[2] == Permutation([1, 3, 2])   # (2 3), worked by hand
    assert cochain_norm(out) == cochain_norm(alpha)

    # already trivial on the tree: identity normalization
    triv = Cochain1(tri, 2, (ID2, ID2, SWAP))
    out2, beta2 = tree_normalize(triv, tree, 1)
    assert out2.values == triv.values
    assert all(p.is_identity() for p in beta2.values)

    # bouquet: empty tree
    x = instances.bouquet_a3()
    a = images_to_cochain([SWAP], x)
    out3, beta3 = tree_normalize(a, frozenset(), 1)
    assert out3.values == a.values


def test_tree_normalize_on_edgeless_graph():
    alpha = Cochain1(Graph(1, ()), 3, ())
    out, beta = tree_normalize(alpha, frozenset(), 1)
    assert out.values == ()
    assert beta.values == (Permutation.identity(3),)


def test_tree_normalize_orbit_membership():
    rng = np.random.default_rng(11)
    x = instances.complete_complex(4)
    tree = spanning_tree(x.skeleton, 1)
    for _ in range(10):
        a = instances.random_cochain1(x, 3, rng)
        out, beta = tree_normalize(a, tree, 1)
        assert all(out.values[k - 1].is_identity() for k in tree)
        assert act0on1(beta, a).values == out.values


def test_cochain_covering_round_trips():
    rng = np.random.default_rng(13)
    for x in (instances.bouquet_a3(), instances.triangle_complex(),
              instances.complete_complex(4)):
        for _ in range(10):
            a = instances.random_cochain1(x, int(rng.integers(2, 5)), rng)
            cov = cochain_to_covering(a)
            check_covering(cov.labeled.labeling, cov.degree)  # passes by construction
            back = covering_to_cochain(cov, x)
            assert back.values == a.values
            again = cochain_to_covering(back)
            assert again.graph == cov.graph
            assert again.fiber_labels == cov.fiber_labels


def test_cochain_to_covering_examples():
    x = instances.bouquet_a3()
    c2 = cochain_to_covering(images_to_cochain([SWAP], x))
    assert c2.graph.edges == ((2, 1), (1, 2))        # a 2-cycle over the loop
    c3 = cochain_to_covering(images_to_cochain([Permutation([2, 3, 1])], x))
    assert sorted(c3.graph.edges) == [(1, 3), (2, 1), (3, 2)]  # a 3-cycle
    tri = instances.triangle_complex()
    triv = cochain_to_covering(Cochain1(tri, 2, (ID2, ID2, ID2)))
    from permstab.graphs import components
    assert len(components(triv.graph)) == 2          # two disjoint sheets


def test_covering_to_cochain_with_permuted_fiber_labels():
    x = instances.bouquet_a3()
    cov = cochain_to_covering(images_to_cochain([SWAP], x))
    from permstab.graphs import Covering
    relabeled = Covering(cov.labeled, 2, ((2, 1),))
    back = covering_to_cochain(relabeled, x)
    assert back.values[0] == SWAP   # conjugation-invariant value


def test_presentation_bridge():
    x = instances.bouquet_a3()
    a = images_to_cochain([SWAP], x)
    assert cochain_norm(a) == 1
    assert cochain_to_images(a) == (SWAP,)
    torus = instances.torus_complex()
    f = (Permutation([2, 3, 1]), Permutation([2, 1, 3]))
    af = images_to_cochain(list(f), torus)
    assert cochain_norm(af) == 1    # the commutator is a 3-cycle
    with pytest.raises(ValueError):
        images_to_cochain([SWAP], instances.triangle_complex())
    with pytest.raises(ValueError):
        images_to_cochain([SWAP, Permutation.identity(3)], torus)


def test_images_to_cochain_names_what_is_wrong_with_the_images():
    torus, point = instances.torus_complex(), PolygonalComplex(Graph(1, ()), ())
    for images, x, message in (
            ([SWAP], torus, "need one image per generator"),
            ([], point, "need at least one generator image to fix the degree"),
            ([SWAP, Permutation.identity(3)], torus, "generator images must share one degree")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            images_to_cochain(images, x)


def test_cochains_on_different_complexes_are_refused():
    tri, torus = instances.triangle_complex(), instances.torus_complex()
    a, b = identity_cochain1(tri, 2), identity_cochain1(torus, 2)
    for call in (lambda: act0on1(identity_cochain0(torus, 2), a),
                 lambda: cochain_distance(a, b),
                 lambda: coboundary_distance(a, b),
                 lambda: orbit_distance(a, b)):
        with pytest.raises(ValueError, match="^cochains live on different complexes$"):
            call()
    with pytest.raises(ValueError, match="^candidate degree must be at least the input degree$"):
        orbit_distance(identity_cochain1(tri, 3), a)


def test_homomorphism_images_give_cocycles():
    x = instances.bouquet_a3()
    for p in all_permutations(3):
        if compose(compose(p, p), p).is_identity():
            assert is_cocycle(images_to_cochain([p], x))


def test_is_coboundary():
    rng = np.random.default_rng(17)
    x = instances.complete_complex(4)
    for _ in range(10):
        b = instances.random_cochain0(x, 3, rng)
        ok, witness = is_coboundary(coboundary0(b))
        assert ok
        assert coboundary0(witness).values == coboundary0(b).values
    bad = images_to_cochain([SWAP], instances.bouquet_a3())
    assert is_coboundary(bad) == (False, None)


def test_orbit_distance_matches_brute_force():
    tri = instances.triangle_complex()
    rng = np.random.default_rng(23)
    for _ in range(8):
        a = instances.random_cochain1(tri, 2, rng)
        b = instances.random_cochain1(tri, 3, rng)
        res = orbit_distance(a, b)
        brute = min(
            cochain_distance(a, act0on1(Cochain0(tri, 3, combo), b))
            for combo in itertools.product(list(all_permutations(3)), repeat=3))
        assert res.value == brute
        assert cochain_distance(a, res.witness) == res.value


def test_orbit_distance_guard():
    x = instances.complete_complex(5)
    rng = np.random.default_rng(29)
    a = instances.random_cochain1(x, 2, rng)
    b = instances.random_cochain1(x, 4, rng)
    with pytest.raises(GuardExceeded):
        orbit_distance(a, b, guard=100)


def test_orbit_distance_guard_trips_before_building_injections(monkeypatch):
    # 2000*1999*1998 ~ 8e9 injections: the guard must refuse without listing them
    x = instances.torus_complex()
    a = instances.random_cochain1(x, 3, np.random.default_rng(30))

    def no_listing(*args):
        raise AssertionError("injections listed before the guard check")

    monkeypatch.setattr(cochains, "_injections", no_listing)
    with pytest.raises(GuardExceeded):
        orbit_distance(a, identity_cochain1(x, 2000))


def test_coboundary_distance_orientation_average():
    x = instances.triangle_complex()
    rng = np.random.default_rng(31)
    a = instances.random_cochain1(x, 3, rng)
    b = instances.random_cochain1(x, 3, rng)
    pc = x.polygons[0]
    expected = Fraction(0)
    from permstab.perm import hamming_distance_with_errors
    for o in sorted(pc.orientations):
        expected += hamming_distance_with_errors(path_value(a, o), path_value(b, o))
    assert coboundary_distance(a, b) == expected / len(pc.orientations)


def test_edge_norm_weighted():
    x = instances.bouquet_a3()
    a = images_to_cochain([SWAP], x)
    assert edge_norm(a) == 1
    from permstab.complexes import polygon_weights
    ws = polygon_weights(x)
    assert edge_norm(a, ws) == 1


def test_covering_to_cochain_with_reversed_stored_edges():
    # a covering file may store any orientation per edge; flipping a stored
    # edge (and negating its label) describes the same covering
    from permstab.graphs import CombinatorialMap, Covering, Graph, LabeledGraph

    x = instances.triangle_complex()
    rng = np.random.default_rng(71)
    a = instances.random_cochain1(x, 2, rng)
    cov = cochain_to_covering(a)
    g = cov.graph
    lab = cov.labeled.labeling
    edges = list(g.edges)
    edge_map = list(lab.edge_map)
    for k in (1, 4):
        u, v = edges[k - 1]
        edges[k - 1] = (v, u)
        edge_map[k - 1] = -edge_map[k - 1]
    flipped_graph = Graph(g.vertex_count, tuple(edges))
    flipped = Covering(
        LabeledGraph(flipped_graph,
                     CombinatorialMap(flipped_graph, lab.target,
                                      lab.vertex_map, tuple(edge_map))),
        cov.degree, cov.fiber_labels)
    assert covering_to_cochain(flipped, x).values == a.values


# ---------------------------------------------------------------------------
# storage: read-only rows, lazily built values and covering graphs


def test_cochains_from_permutations_and_from_rows_are_equal_and_hash_alike():
    x = instances.complete_complex(4)
    rng = np.random.default_rng(5)
    for cls, cells in ((Cochain1, len(x.skeleton.edges)), (Cochain0, x.skeleton.vertex_count)):
        values = instances.random_images(cells, 4, rng)
        rows = np.array([p.images for p in values]) - 1
        a, b = cls(x, 4, values), cls._of(x, 4, rows)
        assert a == b and hash(a) == hash(b)
        assert b.values == values and a.rows.tolist() == rows.tolist()
        assert cls._of(x, 4, rows[::-1].copy()) != a
    # equal rows of the other dimension or on another space are other cochains
    tri = instances.triangle_complex()
    rows = np.array([[1, 0], [0, 1], [1, 0]])
    assert Cochain0._of(tri, 2, rows) != Cochain1._of(tri, 2, rows.copy())
    assert Cochain1._of(tri, 2, rows) != Cochain1._of(tri.skeleton, 2, rows.copy())


def test_cochain_storage_is_read_only():
    x = instances.triangle_complex()
    a = Cochain1(x, 2, (SWAP, ID2, SWAP))
    for c in (a, tree_normalize(a, spanning_tree(x.skeleton, 1), 1)[0], coboundary0(
            Cochain0(x, 2, (ID2, SWAP, SWAP)))):
        with pytest.raises(ValueError):
            c.rows[0, 0] = 1
        with pytest.raises(AttributeError):
            c.degree = 3
    with pytest.raises(ValueError):
        covering_to_cochain(cochain_to_covering(a), x).rows[0, 0] = 1


def _eager_covering(alpha):
    """The covering graph as cochain_to_covering built it from values, eagerly."""
    from permstab.graphs import CombinatorialMap, Covering, LabeledGraph

    g = cochains.skeleton_of(alpha.space)
    n, count = alpha.degree, g.vertex_count
    cover_edges = []
    for (x, y), a in zip(g.edges, alpha.values):
        ox, oy = (x - 1) * n, (y - 1) * n
        cover_edges += zip([ox + i for i in a.images], range(oy + 1, oy + n + 1))
    cover = Graph(count * n, tuple(cover_edges))
    labeling = CombinatorialMap(cover, g, tuple(x for x in range(1, count + 1) for _ in range(n)),
                                tuple(e for e in range(1, len(g.edges) + 1) for _ in range(n)))
    fibers = tuple(tuple(range((x - 1) * n + 1, x * n + 1)) for x in range(1, count + 1))
    return Covering(LabeledGraph(cover, labeling), n, fibers)


def test_lazily_built_covering_graph_equals_the_eager_one(tmp_path):
    from permstab import fileio

    rng = np.random.default_rng(17)
    for x in (*instances.corpus_complexes().values(), instances.cycle_graph(1), Graph(2, ())):
        a = instances.random_cochain1(x, int(rng.integers(1, 5)), rng)
        lazy, eager = cochain_to_covering(a), _eager_covering(a)
        assert lazy.labeled == eager.labeled           # every field, Python ints included
        assert lazy.fiber_labels == eager.fiber_labels
        assert all(type(v) is int for e in lazy.graph.edges for v in e)
        assert lazy == eager and hash(lazy) == hash(eager)
        fileio.save_json(fileio.covering_to_dict(cochain_to_covering(a)), tmp_path / "lazy.json")
        fileio.save_json(fileio.covering_to_dict(eager), tmp_path / "eager.json")
        assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


def test_pickle_round_trips_keep_tables_read_only():
    x = instances.triangle_complex()
    a = Cochain1(x, 3, (Permutation([2, 3, 1]), Permutation([2, 1, 3]), Permutation([1, 2, 3])))
    d = fileio.covering_to_dict(cochain_to_covering(a))
    d["fiber_labels"]["1"] = d["fiber_labels"]["1"][::-1]   # not the canonical labels
    loaded = fileio.covering_from_dict(d)
    covering_to_cochain(loaded, x)   # caches the lift table it checked
    for obj, table in ((Cochain0(x, 2, (SWAP, ID2, SWAP)), "rows"), (a, "rows"),
                       (cochain_to_covering(a), "_lifts"), (loaded, "_lifts")):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj), obj
        assert np.array_equal(getattr(back, table), getattr(obj, table)), obj
        assert not getattr(back, table).flags.writeable, obj
