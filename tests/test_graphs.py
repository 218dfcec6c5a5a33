import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from permstab import graphs, instances
from permstab.cochains import cochain_to_covering, identity_cochain1, images_to_cochain
from permstab.errors import GuardExceeded
from permstab.complexes import fundamental_presentation
from permstab.graphs import (CombinatorialMap, Graph, LabeledGraph, check_covering,
                             components, edit_distance, is_connected, origin, reduce_path,
                             spanning_tree, terminus, tree_paths_to_root,
                             validate_graph, validate_map, vertex_stars)
from permstab.perm import Permutation


def triangle():
    return Graph(3, ((1, 2), (2, 3), (3, 1)))


def test_validate_graph_cases():
    assert validate_graph(Graph(1, ((1, 1),))).ok                     # one loop
    bad = validate_graph(Graph(3, ((5, 1),)))
    assert not bad.ok and "dangling" in bad.message
    assert validate_graph(instances.complete_graph(4)).ok             # K4, 6 edges
    assert len(instances.complete_graph(4).edges) == 6


def test_signed_incidence_and_stars():
    g = triangle()
    assert origin(g, 1) == 1 and terminus(g, 1) == 2
    assert origin(g, -1) == 2 and terminus(g, -1) == 1
    stars = vertex_stars(g)
    assert set(stars[0]) == {3, -1}    # edges ending at vertex 1
    loop = Graph(1, ((1, 1),))
    assert set(vertex_stars(loop)[0]) == {1, -1}


def test_reduce_path_examples():
    g = triangle()
    assert reduce_path(g, [1, -1]) == ()
    g2 = Graph(2, ((1, 2), (2, 2), (2, 1)))
    assert reduce_path(g2, [1, 2, -2, 3]) == (1, 3)
    # closed path with wrap-around cancellation
    two_loops = Graph(1, ((1, 1), (1, 1)))
    assert reduce_path(two_loops, [-1, 2, 2, 1], cyclic=True) == (2, 2)
    assert reduce_path(two_loops, [-1, 2, 2, 1], cyclic=False) == (-1, 2, 2, 1)


def test_reduce_path_cyclic_needs_closed():
    with pytest.raises(ValueError):
        reduce_path(triangle(), [1], cyclic=True)


def test_reduce_path_idempotent_and_nonincreasing():
    g = Graph(2, ((1, 2), (2, 2), (2, 1)))
    for length in range(5):
        for path in itertools.product([1, 2, -2, -1], repeat=length):
            try:
                p = list(path)
                from permstab.graphs import check_path
                check_path(g, p)
            except ValueError:
                continue
            r = reduce_path(g, p)
            assert len(r) <= len(p)
            assert reduce_path(g, r) == r


def test_spanning_tree_examples():
    assert spanning_tree(triangle(), 1) == frozenset({1, 2})
    assert spanning_tree(Graph(1, ()), 1) == frozenset()
    assert spanning_tree(Graph(2, ((1, 2), (1, 2))), 1) == frozenset({1})


def test_spanning_tree_disconnected():
    with pytest.raises(ValueError):
        spanning_tree(Graph(4, ((1, 2), (3, 4))), 1)


def test_spanning_tree_spans_without_cycles():
    for g in (instances.complete_graph(5), instances.petersen_graph(), instances.cube_graph()):
        tree = spanning_tree(g, 1)
        assert len(tree) == g.vertex_count - 1
        # union-find: no cycles, touches every vertex
        parent = list(range(g.vertex_count + 1))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        touched = set()
        for k in tree:
            u, v = g.edges[k - 1]
            ru, rv = find(u), find(v)
            assert ru != rv
            parent[ru] = rv
            touched |= {u, v}
        assert touched == set(range(1, g.vertex_count + 1))


def test_tree_paths_to_root():
    g = triangle()
    paths = tree_paths_to_root(g, {1, 2}, 1)
    assert paths[0] == ()
    assert paths[1] == (-1,)
    assert paths[2] == (-2, -1)
    with pytest.raises(ValueError):
        tree_paths_to_root(g, {1}, 1)
    with pytest.raises(ValueError):
        tree_paths_to_root(g, {1, 2, 3}, 1)


def test_a_given_tree_and_root_are_checked_against_the_graph():
    # a tree id outside 1..m used to read another edge (-1 reads the last
    # one) or raise IndexError, and a root outside 1..V was not checked
    for tree, root, message in (({-1, 1}, 1, "edge -1 not in graph"),
                                ({1, 4}, 1, "edge 4 not in graph"),
                                ({1, 2}, 0, "root 0 not a vertex"),
                                ({1, 2}, 4, "root 4 not a vertex")):
        with pytest.raises(ValueError, match=message):
            tree_paths_to_root(triangle(), tree, root)
    x = instances.complete_complex(4)
    for tree, root in (({-5, 1, 2}, 1), ({7, 1, 2}, 1), ({1, 2, 3}, 0), ({1, 2, 3}, 9)):
        with pytest.raises(ValueError, match="not in graph|not a vertex"):
            fundamental_presentation(x, root, frozenset(tree))
    assert components(Graph(0, ())) == []


def double_cover_map():
    # the 2-cycle double-covering the one-loop bouquet
    bouquet = Graph(1, ((1, 1),))
    cover = Graph(2, ((2, 1), (1, 2)))
    return CombinatorialMap(cover, bouquet, (1, 1), (1, 1))


def test_check_covering_accepts_double_cover():
    c = check_covering(double_cover_map(), 2)
    assert c.degree == 2
    assert c.fiber_labels == ((1, 2),)


def test_checked_covering_graph_is_not_kept():
    """Checking a covering keeps no reference to its graph: once the covering
    is dropped, so is the graph."""
    cover = cochain_to_covering(identity_cochain1(instances.complete_complex(4), 3))
    checked = check_covering(cover.labeled.labeling, cover.degree)
    graph = weakref.ref(checked.graph)
    del cover, checked
    gc.collect()
    assert graph() is None


def test_check_covering_rejects_broken_stars():
    bouquet = Graph(1, ((1, 1),))
    # deleting one covering edge leaves vertex stars of the wrong size
    broken = CombinatorialMap(Graph(2, ((2, 1),)), bouquet, (1, 1), (1,))
    with pytest.raises(ValueError, match="star"):
        check_covering(broken, 2)
    # two parallel source edges land on the same loop: merged star
    merged = CombinatorialMap(Graph(2, ((1, 2), (1, 2))), bouquet, (1, 1), (1, 1))
    with pytest.raises(ValueError, match="star not injective"):
        check_covering(merged, 2)


def test_check_covering_refuses_a_disconnected_target():
    two_points = Graph(2, ())
    with pytest.raises(ValueError, match="^covering target must be connected$"):
        check_covering(CombinatorialMap(two_points, two_points, (1, 2), ()), 1)


def test_check_covering_fiber_sizes():
    base = Graph(2, ((1, 2),))
    src = Graph(3, ((1, 3), (2, 3)))
    f = CombinatorialMap(src, base, (1, 1, 2), (1, 1))
    with pytest.raises(ValueError, match="star not injective|fiber"):
        check_covering(f, 2)


def test_validate_graph_refuses_non_integers():
    # Graph stores what it is given; validate_graph is the check
    for g in (Graph(2.0, ((1, 2),)), Graph(True, ()), Graph(3, ((1, 2.7),)),
              Graph(2, ((True, 2),))):
        rep = validate_graph(g)
        assert not rep.ok and "integer" in rep.message, g


def test_validate_map_catches_endpoint_violations():
    g = triangle()
    ok = CombinatorialMap(g, g, (1, 2, 3), (1, 2, 3))
    assert validate_map(ok).ok
    bad = CombinatorialMap(g, g, (1, 2, 3), (2, 2, 3))
    assert not validate_map(bad).ok


def test_validate_map_checks_both_graphs_first():
    # edge ends outside the source used to read vertex_map[-1] (edge end 0,
    # reported ok) or raise IndexError (edge end 3)
    bouquet = Graph(1, ((1, 1),))
    for edges in (((0, 2), (1, 3)), ((0, 2), (2, 1))):
        f = CombinatorialMap(Graph(2, edges), bouquet, (1, 1), (1, 1))
        rep = validate_map(f)
        assert not rep.ok and rep.message == "dangling endpoint on edge 1: (0,2)"
        with pytest.raises(ValueError, match="not a combinatorial map: dangling"):
            check_covering(f, 2)
    f = CombinatorialMap(bouquet, Graph(1, ((1, 2),)), (1,), (1,))
    assert validate_map(f).message == "dangling endpoint on edge 1: (1,2)"


# ---------------------------------------------------------------------------
# edit distance


def bouquet_cover(p: Permutation):
    x = instances.bouquet_complex([[1, 1, 1]])
    return cochain_to_covering(images_to_cochain([p], x))


def _brute_force_edit(a, b):
    """Independent oracle: enumerate all per-vertex fiber injections."""
    from collections import Counter
    base = a.base
    fib_a = [[v for v in range(1, a.graph.vertex_count + 1)
              if a.labeling.map_vertex(v) == x] for x in range(1, base.vertex_count + 1)]
    fib_b = [[v for v in range(1, b.graph.vertex_count + 1)
              if b.labeling.map_vertex(v) == x] for x in range(1, base.vertex_count + 1)]

    def oriented(lg, k):
        lbl = lg.labeling.map_edge(k)
        u, v = lg.graph.edges[k - 1]
        return (abs(lbl), (u, v) if lbl > 0 else (v, u))

    edges_a = [oriented(a, k) for k in range(1, len(a.graph.edges) + 1)]
    edges_b = [oriented(b, k) for k in range(1, len(b.graph.edges) + 1)]
    denom = max(len(edges_a), len(edges_b))
    per_vertex = []
    for fa, fb in zip(fib_a, fib_b):
        if len(fa) <= len(fb):
            per_vertex.append([dict(zip(fa, pick))
                               for pick in itertools.permutations(fb, len(fa))])
        else:
            per_vertex.append([dict(zip(pick, fb))
                               for pick in itertools.permutations(fa, len(fb))])
    best = 0
    for choice in itertools.product(*per_vertex):
        m = {}
        for d in choice:
            m.update(d)
        mapped = Counter((e, (m.get(u), m.get(v))) for e, (u, v) in edges_a)
        avail = Counter((e, ends) for e, ends in edges_b)
        matched = sum(min(c, avail[key]) for key, c in mapped.items()
                      if None not in key[1] and key in avail)
        best = max(best, matched)
    return Fraction(denom - best, denom)


def test_edit_distance_zero_on_equal():
    c = bouquet_cover(Permutation([2, 1]))
    assert edit_distance(c.labeled, c.labeled).value == 0


def test_edit_distance_bouquet_examples_against_oracle():
    a = bouquet_cover(Permutation([2, 1]))
    b = bouquet_cover(Permutation([2, 3, 1]))
    res = edit_distance(a.labeled, b.labeled)
    assert res.value == Fraction(2, 3)
    assert res.value == _brute_force_edit(a.labeled, b.labeled)

    # (1 2) against the trivial degree-2 cover: every alignment matches nothing
    c = bouquet_cover(Permutation.identity(2))
    res2 = edit_distance(a.labeled, c.labeled)
    assert res2.value == 1
    assert res2.value == _brute_force_edit(a.labeled, c.labeled)


def test_edit_distance_random_cover_pairs_match_oracle():
    import numpy as np
    from permstab.cochains import Cochain1
    from permstab.perm import random_permutation

    rng = np.random.default_rng(42)
    x = instances.triangle_complex()
    for _ in range(15):
        n, big = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        ca = cochain_to_covering(Cochain1(x, n, tuple(
            random_permutation(n, rng) for _ in range(3))))
        cb = cochain_to_covering(Cochain1(x, big, tuple(
            random_permutation(big, rng) for _ in range(3))))
        res = edit_distance(ca.labeled, cb.labeled)
        assert res.value == _brute_force_edit(ca.labeled, cb.labeled)


SMALL_BASES = [
    Graph(1, ((1, 1),)),                     # one-loop bouquet
    Graph(1, ((1, 1), (1, 1))),              # two loops
    Graph(2, ((1, 2), (2, 1), (2, 2))),      # parallel edges and a loop
    Graph(3, ((1, 2), (2, 3), (3, 1))),      # triangle
    Graph(3, ((1, 2), (2, 3))),              # path
]


@st.composite
def labeled_graphs(draw, base):
    """Any labeled graph over base: fibers of 0-3 vertices with shuffled ids,
    and edges over random base edges of either sign, joining random vertices
    of the fibers over their ends.  Coverings are rare among these."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=base.vertex_count,
                          max_size=base.vertex_count))
    owners = draw(st.permutations([x for x, k in enumerate(sizes, start=1) for _ in range(k)]))
    fibers = {x: [v for v, o in enumerate(owners, start=1) if o == x]
              for x in range(1, base.vertex_count + 1)}
    edges, labels = [], []
    for e, sign in draw(st.lists(st.tuples(st.integers(1, len(base.edges)),
                                           st.sampled_from((1, -1))), max_size=8)):
        x, y = base.edges[e - 1][::sign]
        if fibers[x] and fibers[y]:
            edges.append((draw(st.sampled_from(fibers[x])), draw(st.sampled_from(fibers[y]))))
            labels.append(sign * e)
    g = Graph(len(owners), tuple(edges))
    return LabeledGraph(g, CombinatorialMap(g, base, tuple(owners), tuple(labels)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_BASES).flatmap(
    lambda base: st.tuples(labeled_graphs(base), labeled_graphs(base))))
def test_edit_distance_on_general_labeled_graphs_matches_oracle(pair):
    a, b = pair
    assume(a.graph.edges or b.graph.edges)
    # the guard counts P(max, min) injections per fiber pair, and trips just below
    leaves = 1
    for x in range(1, a.base.vertex_count + 1):
        sizes = sorted((list(a.labeling.vertex_map).count(x),
                        list(b.labeling.vertex_map).count(x)))
        leaves *= math.perm(sizes[1], sizes[0])
    assert edit_distance(a, b, leaf_guard=leaves).value == _brute_force_edit(a, b)
    with pytest.raises(GuardExceeded):
        edit_distance(a, b, leaf_guard=leaves - 1)


def test_edit_distance_guard_trips_before_any_table(monkeypatch):
    # fibers of 20 against 10 give P(20, 10) ~ 6.7e11 alignments
    a, b = bouquet_cover(Permutation.identity(20)), bouquet_cover(Permutation.identity(10))

    def no_table(*args):
        raise AssertionError("alignment tables built before the guard check")

    monkeypatch.setattr(graphs, "_injections", no_table)
    monkeypatch.setattr(graphs, "_best_alignment", no_table)
    with pytest.raises(GuardExceeded):
        edit_distance(a.labeled, b.labeled)


def test_edit_distance_symmetry_and_iso_detection():
    perms2 = [Permutation([1, 2]), Permutation([2, 1])]
    perms3 = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    covers = [bouquet_cover(p) for p in perms2 + perms3]
    for ca, cb in itertools.product(covers, repeat=2):
        d_ab = edit_distance(ca.labeled, cb.labeled).value
        d_ba = edit_distance(cb.labeled, ca.labeled).value
        assert d_ab == d_ba


def test_edit_distance_guard_and_heuristic():
    a = bouquet_cover(Permutation([2, 3, 1]))
    b = bouquet_cover(Permutation([3, 1, 2]))
    with pytest.raises(GuardExceeded):
        edit_distance(a.labeled, b.labeled, leaf_guard=2)
    with pytest.raises(ValueError):  # "exact" is the only mode
        edit_distance(a.labeled, b.labeled, mode="heuristic")


def test_edit_distance_different_bases_rejected():
    a = bouquet_cover(Permutation([2, 1]))
    x = instances.triangle_complex()
    from permstab.cochains import identity_cochain1
    b = cochain_to_covering(identity_cochain1(x, 2))
    with pytest.raises(ValueError):
        edit_distance(a.labeled, b.labeled)


def test_connectivity_helpers():
    assert is_connected(triangle())
    assert not is_connected(Graph(4, ((1, 2), (3, 4))))


def test_edit_distance_zero_iff_isomorphic_bouquet_covers():
    # two covers of the one-loop bouquet are labeled-isomorphic exactly when
    # their monodromy permutations are conjugate, i.e. share a cycle type
    def cycle_type(p):
        return tuple(sorted(len(c) for c in p.cycles()))

    all_small = [Permutation(list(imgs))
                 for n in (1, 2, 3)
                 for imgs in itertools.permutations(range(1, n + 1))]
    for p, q in itertools.product(all_small, repeat=2):
        d = edit_distance(bouquet_cover(p).labeled, bouquet_cover(q).labeled).value
        same = p.degree == q.degree and cycle_type(p) == cycle_type(q)
        assert (d == 0) == same, (p, q, d)


def test_check_covering_rejects_single_edge_perturbations():
    import numpy as np
    from permstab.instances import random_cochain1, triangle_complex

    rng = np.random.default_rng(99)
    x = triangle_complex()
    for _ in range(5):
        cov = cochain_to_covering(random_cochain1(x, 2, rng))
        f = cov.labeled.labeling
        check_covering(f, cov.degree)
        g = cov.graph
        for k in range(1, len(g.edges) + 1):
            u, v = g.edges[k - 1]
            # reroute one endpoint to another vertex in the same fiber
            base_u = f.map_vertex(u)
            fiber = [w for w in range(1, g.vertex_count + 1)
                     if f.map_vertex(w) == base_u and w != u]
            broken_edges = list(g.edges)
            broken_edges[k - 1] = (fiber[0], v)
            broken = CombinatorialMap(Graph(g.vertex_count, tuple(broken_edges)),
                                      f.target, f.vertex_map, f.edge_map)
            with pytest.raises(ValueError):
                check_covering(broken, cov.degree)
