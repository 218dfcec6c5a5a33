"""Differential tests: the batched word kernel against per-word products.

``cochain_norm``, ``coboundary_distance`` and the testers' rejection tables
evaluate polygon and relator values in one batched numpy fold.  The
references below evaluate one word at a time with ``path_value`` /
``evaluate_word`` and lift one point at a time through the covering graph,
so they share no code with the fold.

``Covering._lifts``, the one check of the covering condition, is checked
against the vertex-star loop that ``check_covering`` ran before it, on
coverings with one entry perturbed.

Every kernel that reads and writes cochain rows (the 0-cochain action,
coboundaries, tree normalization, path values, coboundary membership, edge
norms and distances, the orbit-distance relabeling) is checked against a
small reference built from ``compose`` and ``Permutation.inverse`` loops on
``values``, the form cochains held before they held rows.

``graphs._forest``, the one walk behind components, spanning trees, tree
paths and the coboundary test, is checked through those four against the
depth-first, edge-scan and breadth-first searches they ran before, on random
multigraphs with loops, parallel edges and several components, and on paths
listed from the far end, where the scan takes one pass per vertex.

The Monte Carlo kernel of ``run_sampled`` (one uniform block per chunk and a
guide-table constraint draw) is checked against the per-chunk loop with
``Generator.choice`` that it replaced: the outcomes must be equal, not just
close.

The global-defect search's two batched passes are checked against the loops
they replaced: the block enumeration of ``stability._backtrack`` against the
recursive backtracking that folded each relator once per prefix, and
``stability._align_representatives`` (every class representative in one
kernel call, the identity with a pinned root) against a strict ``>`` loop
that builds each representative's whole alignment tensor on its own.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from permstab import fileio, instances, stability
from permstab.cochains import (Cochain0, Cochain1, _injections, _polygon_tables, _relabeling,
                               act0on1, coboundary0, coboundary_distance, cochain_distance,
                               cochain_norm, cochain_to_covering, covering_to_cochain,
                               edge_norm, is_coboundary, orbit_distance, path_value,
                               skeleton_of, tree_normalize)
from permstab.complexes import (PolygonalComplex, PolygonClass, Presentation,
                                fundamental_presentation, polygon_weights,
                                presentation_complex)
from permstab.graphs import (CombinatorialMap, Covering, Graph, LabeledGraph,
                             check_covering, components, is_connected, origin,
                             spanning_tree, terminus, tree_paths_to_root, validate_map,
                             vertex_stars)
from permstab.perm import (Permutation, all_permutations, compose, evaluate_word,
                           hamming_distance_with_errors)
from permstab.testers import (_CHUNK, _constraint_guide, _draw_constraints, _hom_tables,
                              _sampled_rejections, cover_local_defect, run_sampled)

# a bouquet whose polygons have lengths 2, 3 and 4
MIXED = presentation_complex(Presentation(2, ((1, 1, 1), (1, 2, -1, -2), (2, 2))))
SPACES = [*instances.corpus_complexes().values(), MIXED]


def _lift_tables(c):
    """out[v][base signed edge] = covering signed edge leaving v with that label."""
    out = {v: {} for v in range(1, c.graph.vertex_count + 1)}
    lab = c.labeled.labeling
    for k in range(1, len(c.graph.edges) + 1):
        lbl = lab.map_edge(k)
        out[origin(c.graph, k)][lbl] = k
        out[terminus(c.graph, k)][-lbl] = -k
    return out


def lift_path(c, path, start, tables=None):
    """End vertex of the unique lift of a base path starting at a cover vertex."""
    if tables is None:
        tables = _lift_tables(c)
    v = start
    for s in path:
        v = terminus(c.graph, tables[v][s])
    return v


def _orientations(x, every_orientation):
    if every_orientation:
        return [sorted(pc.orientations) for pc in x.polygons]
    return [[pc.canonical] for pc in x.polygons]


def _moved(value):
    return [i != j for i, j in enumerate(value.images, start=1)]


def ref_cochain_norm(a, mu2):
    return sum((w * Fraction(a.degree - path_value(a, pc.canonical).fixed_points(), a.degree)
                for w, pc in zip(mu2, a.space.polygons)), Fraction(0))


def ref_coboundary_distance(a, b, mu2):
    total = Fraction(0)
    for w, orients in zip(mu2, _orientations(a.space, True)):
        inner = sum((hamming_distance_with_errors(path_value(a, o), path_value(b, o))
                     for o in orients), Fraction(0))
        total += w * inner / len(orients)
    return total


def ref_cocycle_tables(a, every_orientation):
    return [[_moved(path_value(a, o)) for o in orients]
            for orients in _orientations(a.space, every_orientation)]


def ref_cover_tables(c, x, every_orientation):
    lift = _lift_tables(c)
    return [[[lift_path(c, o, start, lift) != start
              for start in c.fiber_labels[origin(x.skeleton, o[0]) - 1]]
             for o in orients]
            for orients in _orientations(x, every_orientation)]


def perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@st.composite
def cochains(draw, x=None, n=None):
    x = draw(st.sampled_from(SPACES)) if x is None else x
    n = draw(st.integers(1, 6)) if n is None else n
    return Cochain1(x, n, tuple(draw(perms(n)) for _ in skeleton_of(x).edges))


@st.composite
def weights(draw, x):
    """Random rational polygon weights, some of them zero, or None."""
    if draw(st.booleans()):
        return None
    raw = draw(st.lists(st.integers(0, 3), min_size=len(x.polygons),
                        max_size=len(x.polygons)))
    raw[draw(st.integers(0, len(raw) - 1))] += 1
    return polygon_weights(x, [Fraction(v, sum(raw)) for v in raw])


def _mu2(x, ws):
    return ws.mu2 if ws is not None else [Fraction(1, len(x.polygons))] * len(x.polygons)


def _lists(tables):
    return [t.tolist() for t in tables]


@pytest.mark.filterwarnings("ignore:mu")
@given(st.data())
def test_cochain_norm_matches_reference(data):
    a = data.draw(cochains())
    ws = data.draw(weights(a.space))
    assert cochain_norm(a, ws) == ref_cochain_norm(a, _mu2(a.space, ws))


@pytest.mark.filterwarnings("ignore:mu")
@given(st.data())
def test_coboundary_distance_matches_reference(data):
    a = data.draw(cochains())
    mixed = data.draw(st.booleans())
    b = data.draw(cochains(a.space, data.draw(st.integers(1, 6)) if mixed else a.degree))
    ws = data.draw(weights(a.space))
    ref = ref_coboundary_distance(a, b, _mu2(a.space, ws))
    assert coboundary_distance(a, b, ws) == ref
    assert coboundary_distance(b, a, ws) == ref


def _canonical_rows(ref_tables):
    """The one row per polygon class of a reference table read at the
    canonical representatives."""
    return [row for (row,) in ref_tables]


@given(cochains())
def test_cocycle_tables_match_reference(a):
    tables = _polygon_tables(a)
    assert _lists(tables) == _canonical_rows(ref_cocycle_tables(a, False))
    assert tables.dtype == bool


@st.composite
def hom_instances(draw):
    g = draw(st.integers(1, 3))
    letters = [s for k in range(1, g + 1) for s in (k, -k)]
    relators = draw(st.lists(st.lists(st.sampled_from(letters), max_size=6).map(tuple),
                             min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    return Presentation(g, tuple(relators)), tuple(draw(perms(n)) for _ in range(g))


@given(hom_instances())
def test_hom_tables_match_reference(inst):
    p, images = inst
    assert _lists(_hom_tables(p, images)) == [_moved(evaluate_word(r, images))
                                              for r in p.relators]


def test_hom_tables_of_empty_relators_reject_nothing():
    p = Presentation(2, ((), (1, 2, -1, -2), ()))
    images = (Permutation([2, 1, 3]), Permutation([1, 3, 2]))
    assert _lists(_hom_tables(p, images)) == [[False] * 3, [True, True, True], [False] * 3]


@pytest.mark.parametrize("letter", [0, 4, -4])
def test_polygon_letters_outside_the_alphabet_raise(letter):
    # a hand-built polygon class is not checked on construction; the fold
    # refuses its letters instead of reading the wrong table row
    x = instances.triangle_complex()
    word = (1, letter, 3)
    bad = PolygonalComplex(x.skeleton, (PolygonClass(word, word, frozenset([word])),))
    a = Cochain1(bad, 3, (Permutation([2, 3, 1]),) * 3)
    for call in (lambda: cochain_norm(a), lambda: coboundary_distance(a, a),
                 lambda: _polygon_tables(a), lambda: path_value(a, word)):
        with pytest.raises(ValueError):
            call()


@st.composite
def relabeled_coverings(draw):
    """The covering of a random cochain with every fiber's labels reordered."""
    a = draw(cochains())
    c = cochain_to_covering(a)
    fibers = tuple(tuple(draw(st.permutations(fib))) for fib in c.fiber_labels)
    return Covering(c.labeled, c.degree, fibers), a.space


@given(relabeled_coverings())
def test_cover_tables_match_point_lifts(inst):
    c, x = inst
    assert _lists(_polygon_tables(covering_to_cochain(c, x))) == \
        _canonical_rows(ref_cover_tables(c, x, False))


# ---------------------------------------------------------------------------
# malformed coverings built in code


def _rebuilt(c, edges=None, edge_map=None, fibers=None, vertex_map=None):
    graph = Graph(c.graph.vertex_count, c.graph.edges if edges is None else edges)
    lab = c.labeled.labeling
    labeling = CombinatorialMap(graph, lab.target,
                                lab.vertex_map if vertex_map is None else vertex_map,
                                lab.edge_map if edge_map is None else edge_map)
    return Covering(LabeledGraph(graph, labeling), c.degree,
                    c.fiber_labels if fibers is None else fibers)


def _with_fiber_label(c, label):
    first, *rest = c.fiber_labels
    return _rebuilt(c, fibers=((label, *first[1:]), *rest))


def _first_edge(c, edge=None, label=None):
    """c with its first covering edge or that edge's label replaced."""
    edges = c.graph.edges if edge is None else (edge,) + c.graph.edges[1:]
    labels = c.labeled.labeling.edge_map
    return _rebuilt(c, edges=edges, edge_map=labels if label is None else (label,) + labels[1:])


def _malformed():
    x = instances.triangle_complex()
    c = cochain_to_covering(Cochain1(x, 2, (Permutation([2, 1]),) * 3))
    size, m = c.graph.vertex_count, len(x.skeleton.edges)
    bouquet = instances.bouquet_a3()
    loop = cochain_to_covering(Cochain1(bouquet, 2, (Permutation([2, 1]),)))
    shared = _rebuilt(loop, edges=tuple((u, 1) for u, _ in loop.graph.edges))
    yield "fiber label 0", _with_fiber_label(c, 0), x
    yield "negative fiber label", _with_fiber_label(c, -1), x
    yield "fiber label above the vertex count", _with_fiber_label(c, size + 1), x
    yield "edge label out of range", _first_edge(c, label=m + 1), x
    yield "edge label 0", _first_edge(c, label=0), x
    yield "edge end above the vertex count", _first_edge(c, edge=(1, size + 1)), x
    yield "edge end far above the vertex count", _first_edge(c, edge=(1, size + 9)), x
    yield "negative edge end", _first_edge(c, edge=(-size - 9, 3)), x
    yield "two lifts share a terminus", shared, bouquet
    yield "degree 0", Covering(c.labeled, 0, c.fiber_labels), x
    yield "a fiber missing", Covering(c.labeled, 2, c.fiber_labels[:2]), x
    # (6, 3) joins the right sheets, but 6 lies over base vertex 3, not 1
    yield "lift leaves its fiber", _first_edge(c, edge=(6, 3)), x
    # covering vertices 1 and 3 swap base vertices, so the canonical fibers
    # no longer list what the vertex map puts over base vertices 1 and 2
    vertex_map = list(c.labeled.labeling.vertex_map)
    vertex_map[0], vertex_map[2] = vertex_map[2], vertex_map[0]
    yield "vertex map disagrees with the fibers", _rebuilt(c, vertex_map=tuple(vertex_map)), x


@pytest.mark.parametrize("case", list(_malformed()), ids=lambda case: case[0])
def test_malformed_covering_raises_value_error(case):
    _, c, x = case
    for call in (lambda: covering_to_cochain(c, x), lambda: cover_local_defect(c, x),
                 lambda: run_sampled("cover", (c, x), 10, seed=0)):
        with pytest.raises(ValueError):
            call()


def ref_is_covering(f, n):
    """The vertex-star loop: f is a combinatorial map onto a connected base,
    bijective on every vertex star, with n covering vertices over each base
    vertex."""
    if not validate_map(f).ok or not is_connected(f.target):
        return False
    src, tgt = vertex_stars(f.source), vertex_stars(f.target)
    for y in range(1, f.source.vertex_count + 1):
        images = [f.map_edge(s) for s in src[y - 1]]
        if len(set(images)) != len(images) or set(images) != set(tgt[f.map_vertex(y) - 1]):
            return False
    return all(f.vertex_map.count(x) == n for x in range(1, f.target.vertex_count + 1))


def ref_lift_table(f, fibers):
    """Per base edge e, the sheet of each lift's terminus sent to the sheet of
    its origin, read off the stars of a labeling that ``ref_is_covering``
    accepts."""
    sheet = {v: i for fib in fibers for i, v in enumerate(fib)}
    table = [[None] * len(fibers[0]) for _ in f.target.edges]
    for v, star in enumerate(vertex_stars(f.source), start=1):
        for s in star:
            if f.map_edge(s) > 0:
                table[f.map_edge(s) - 1][sheet[v]] = sheet[origin(f.source, s)]
    return table


@st.composite
def perturbed_coverings(draw):
    """The labeling, degree and fiber labels of the covering of a random
    cochain, with one edge end, edge label, vertex label or fiber label
    replaced, possibly by itself."""
    c = cochain_to_covering(draw(cochains()))
    size, lab = c.graph.vertex_count, c.labeled.labeling
    m, base_size = len(lab.target.edges), lab.target.vertex_count
    edges, edge_map, vertex_map = list(c.graph.edges), list(lab.edge_map), list(lab.vertex_map)
    fibers = [list(fib) for fib in c.fiber_labels]
    what = draw(st.sampled_from(["edge end", "edge label", "vertex label", "fiber label"]))
    if what == "edge end":
        k, j = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 1))
        ends = list(edges[k])
        ends[j] = draw(st.integers(1, size))
        edges[k] = tuple(ends)
    elif what == "edge label":
        edge_map[draw(st.integers(0, len(edge_map) - 1))] = draw(st.integers(-m - 1, m + 1))
    elif what == "vertex label":
        vertex_map[draw(st.integers(0, size - 1))] = draw(st.integers(0, base_size + 1))
    else:
        draw(st.sampled_from(fibers))[draw(st.integers(0, c.degree - 1))] = \
            draw(st.integers(0, size + 1))
    f = CombinatorialMap(Graph(size, tuple(edges)), lab.target, tuple(vertex_map),
                         tuple(edge_map))
    return f, c.degree, tuple(map(tuple, fibers))


@settings(max_examples=300, deadline=None)
@given(perturbed_coverings())
def test_covering_checks_match_the_star_loop(inst):
    f, n, fibers = inst
    ok = ref_is_covering(f, n)
    # a file also needs its stored fibers to label the fibers of the vertex map
    stored_ok = ok and all(
        sorted(fib) == [v for v, y in enumerate(f.vertex_map, start=1) if y == x]
        for x, fib in enumerate(fibers, start=1))
    d = fileio.covering_to_dict(Covering(LabeledGraph(f.source, f), n, fibers))
    for check, accepts in ((lambda: check_covering(f, n), ok),
                           (lambda: fileio.covering_from_dict(d), stored_ok)):
        if not accepts:
            with pytest.raises(ValueError):
                check()
            continue
        c = check()
        assert "_lifts" in vars(c)
        assert c._lifts.tolist() == ref_lift_table(f, c.fiber_labels)


@settings(max_examples=30)
@given(relabeled_coverings())
def test_covering_to_cochain_reads_the_lifts(inst):
    # alpha(e) sends the sheet of each lift's terminus to the sheet of its origin
    c, x = inst
    a = covering_to_cochain(c, x)
    sheet = {v: i for fib in c.fiber_labels for i, v in enumerate(fib, start=1)}
    lift = _lift_tables(c)
    for e, (u, _) in enumerate(x.skeleton.edges, start=1):
        for v in c.fiber_labels[u - 1]:
            w = terminus(c.graph, lift[v][e])
            assert a.values[e - 1](sheet[w]) == sheet[v]


# ---------------------------------------------------------------------------
# the rows kernels against compose / inverse loops on values


def ref_path_value(a, path):
    acc = Permutation.identity(a.degree)
    for s in path:
        p = a.values[abs(s) - 1]
        acc = compose(acc, p if s > 0 else p.inverse())
    return acc


def ref_act0on1(beta, alpha):
    g = skeleton_of(alpha.space)
    return tuple(compose(compose(beta.values[u - 1].inverse(), p), beta.values[v - 1])
                 for (u, v), p in zip(g.edges, alpha.values))


def ref_coboundary0(b):
    return tuple(compose(b.values[u - 1].inverse(), b.values[v - 1])
                 for u, v in skeleton_of(b.space).edges)


def ref_tree_normalize(alpha, tree, root):
    beta = Cochain0(alpha.space, alpha.degree, tuple(
        ref_path_value(alpha, p) for p in tree_paths_to_root(alpha.space.skeleton, tree, root)))
    return ref_act0on1(beta, alpha), beta.values


def ref_is_coboundary(a):
    """The breadth-first propagation from the smallest vertex of each component."""
    g = skeleton_of(a.space)
    vals = [None] * g.vertex_count
    stars = vertex_stars(g)
    for start in range(1, g.vertex_count + 1):
        if vals[start - 1] is not None:
            continue
        vals[start - 1] = Permutation.identity(a.degree)
        queue = [start]
        while queue:
            v = queue.pop(0)
            for s in stars[v - 1]:
                w = origin(g, s)
                if vals[w - 1] is None:
                    p = a.values[abs(s) - 1]
                    vals[w - 1] = compose(vals[v - 1], p.inverse() if s > 0 else p)
                    queue.append(w)
    beta = Cochain0(a.space, a.degree, tuple(vals))
    return (True, beta.values) if ref_coboundary0(beta) == a.values else (False, None)


def ref_cochain_distance(a, b, mu1):
    return sum((w * hamming_distance_with_errors(p, q)
                for w, p, q in zip(mu1, a.values, b.values)), Fraction(0))


@st.composite
def cochain0s(draw, x, n):
    return Cochain0(x, n, tuple(draw(perms(n)) for _ in range(skeleton_of(x).vertex_count)))


@given(st.data())
def test_action_and_coboundary_match_compose_loops(data):
    a = data.draw(cochains())
    b = data.draw(cochain0s(a.space, a.degree))
    assert act0on1(b, a).values == ref_act0on1(b, a)
    assert coboundary0(b).values == ref_coboundary0(b)


@given(st.data())
def test_tree_normalize_matches_path_products(data):
    a = data.draw(cochains())
    root = data.draw(st.integers(1, a.space.skeleton.vertex_count))
    tree = spanning_tree(a.space.skeleton, root)
    out, beta = tree_normalize(a, tree, root)
    assert (out.values, beta.values) == ref_tree_normalize(a, tree, root)


@given(st.data())
def test_path_value_matches_compose_loop(data):
    a = data.draw(cochains())
    m = len(a.space.skeleton.edges)
    path = data.draw(st.lists(st.integers(1, m).flatmap(lambda k: st.sampled_from([k, -k])),
                              max_size=7))
    assert path_value(a, path) == ref_path_value(a, path)


@given(st.data())
def test_is_coboundary_matches_propagation(data):
    x = data.draw(st.sampled_from(SPACES) | multigraphs())
    n = data.draw(st.integers(1, 5))
    # half the draws are coboundaries, which random cochains almost never are
    a = coboundary0(data.draw(cochain0s(x, n))) if data.draw(st.booleans()) \
        else data.draw(cochains(x, n))
    found, beta = is_coboundary(a)
    ref_found, ref_beta = ref_is_coboundary(a)
    assert found == ref_found
    assert (beta.values if found else beta) == ref_beta


@pytest.mark.filterwarnings("ignore:mu")
@given(st.data())
def test_edge_norm_and_cochain_distance_match_hamming_loops(data):
    a = data.draw(cochains())
    b = data.draw(cochains(a.space, data.draw(st.integers(1, 6))))   # mixed degrees too
    ws = data.draw(weights(a.space))
    m = len(a.space.skeleton.edges)
    mu1 = ws.mu1 if ws is not None else [Fraction(1, m)] * m
    assert cochain_distance(a, b, ws) == ref_cochain_distance(a, b, mu1)
    assert cochain_distance(b, a, ws) == ref_cochain_distance(b, a, mu1)
    ident = Cochain1(a.space, a.degree, (Permutation.identity(a.degree),) * m)
    assert edge_norm(a, ws) == ref_cochain_distance(a, ident, mu1)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_relabeling_matches_injection_extension(data):
    # beta(x) is the injection at x extended by the unused points in increasing
    # order, and the witness is beta.candidate
    x = data.draw(st.sampled_from(SPACES[:3] + [MIXED]))
    big = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, big))
    candidate = data.draw(cochains(x, big))
    v = x.skeleton.vertex_count
    flat = data.draw(st.integers(0, len(_injections(n, big)) ** v - 1))
    beta, witness = _relabeling(x, candidate.rows, n, flat)
    idx = np.unravel_index(flat, (len(_injections(n, big)),) * v)
    ref_beta = tuple(Permutation(list(m) + [p for p in range(1, big + 1) if p not in m])
                     for m in (_injections(n, big)[list(idx)] + 1).tolist())
    assert beta.values == ref_beta
    assert witness.values == ref_act0on1(beta, candidate)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_distance_witness_is_a_closest_relabeling(data):
    x = data.draw(st.sampled_from([instances.bouquet_a3(), instances.torus_complex(),
                                   instances.triangle_complex(), MIXED]))
    n = data.draw(st.integers(1, 3))
    alpha = data.draw(cochains(x, n))
    candidate = data.draw(cochains(x, data.draw(st.integers(n, 3))))
    res = orbit_distance(alpha, candidate)
    mu1 = [Fraction(1, len(x.skeleton.edges))] * len(x.skeleton.edges)
    assert res.witness.values == ref_act0on1(res.beta, candidate)
    assert ref_cochain_distance(alpha, res.witness, mu1) == res.value
    # no relabeling of the candidate comes closer
    best = min(ref_cochain_distance(alpha, Cochain1(x, candidate.degree, ref_act0on1(
                   Cochain0(x, candidate.degree, beta), candidate)), mu1)
               for beta in itertools.product(all_permutations(candidate.degree),
                                             repeat=x.skeleton.vertex_count))
    assert best == res.value


@given(st.data())
def test_covering_round_trip_on_relabeled_fibers(data):
    # the round trip returns the cochain, through the held lift table and
    # through the covering graph; listing fiber x as the vertices
    # (x-1)n + beta(x)(i) in order i = 1..n reads off beta.a instead
    a = data.draw(cochains())
    beta = data.draw(cochain0s(a.space, a.degree))
    x, n, c = a.space, a.degree, cochain_to_covering(a)
    assert covering_to_cochain(c, x) == a
    assert covering_to_cochain(Covering(c.labeled, n, c.fiber_labels), x) == a
    fibers = tuple(tuple(k * n + i for i in p.images) for k, p in enumerate(beta.values))
    relabeled = covering_to_cochain(Covering(c.labeled, n, fibers), x)
    assert relabeled == act0on1(beta, a)
    assert covering_to_cochain(cochain_to_covering(relabeled), x) == relabeled


# ---------------------------------------------------------------------------
# the one spanning-forest walk against the searches it replaced


@st.composite
def multigraphs(draw):
    """Up to 7 vertices and 10 edges at random: loops, parallel edges and
    several components are all common."""
    v = draw(st.integers(1, 7))
    ends = st.tuples(st.integers(1, v), st.integers(1, v))
    return Graph(v, tuple(draw(st.lists(ends, max_size=10))))


@st.composite
def far_end_paths(draw):
    """A path on up to 12 vertices listed from the far end, each edge in
    either orientation: the scan reaches one vertex per pass."""
    v = draw(st.integers(1, 12))
    flips = draw(st.lists(st.booleans(), min_size=v - 1, max_size=v - 1))
    return Graph(v, tuple((v - k + 1, v - k) if flip else (v - k, v - k + 1)
                          for k, flip in enumerate(flips, start=1)))


def ref_components(g):
    """The depth-first search over vertex stars."""
    seen, comps, stars = set(), [], vertex_stars(g)
    for start in range(1, g.vertex_count + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for s in stars[v - 1]:
                w = origin(g, s)
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def ref_spanning_tree(g, root):
    """The repeated ascending edge scan from the root alone."""
    if not 1 <= root <= g.vertex_count:
        raise ValueError(f"root {root} not a vertex")
    reached, tree, grew = {root}, [], True
    while grew and len(reached) < g.vertex_count:
        grew = False
        for k, (u, v) in enumerate(g.edges, start=1):
            if (u in reached) != (v in reached):
                reached |= {u, v}
                tree.append(k)
                grew = True
    if len(reached) < g.vertex_count:
        raise ValueError("graph is disconnected")
    return frozenset(tree)


def ref_tree_paths(g, tree, root):
    """The breadth-first search over the tree's edges."""
    if len(set(tree)) != g.vertex_count - 1:
        raise ValueError("edge set has wrong size for a spanning tree")
    adj = [[] for _ in range(g.vertex_count)]
    for k in sorted(set(tree)):
        u, v = g.edges[k - 1]
        adj[u - 1].append(k)
        adj[v - 1].append(-k)
    paths = [None] * g.vertex_count
    paths[root - 1] = ()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for s in adj[v - 1]:
            w = terminus(g, s)
            if paths[w - 1] is None:
                paths[w - 1] = (-s,) + paths[v - 1]
                queue.append(w)
    if any(p is None for p in paths):
        raise ValueError("edge set does not span the graph")
    return tuple(paths)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@given(st.one_of(multigraphs(), far_end_paths()), st.data())
def test_forest_walk_matches_the_searches(g, data):
    assert components(g) == ref_components(g)
    assert is_connected(g) == (len(ref_components(g)) == 1)
    for root in range(1, g.vertex_count + 1):
        tree = _outcome(ref_spanning_tree, g, root)
        assert _outcome(spanning_tree, g, root) == tree
        if isinstance(tree, frozenset):
            assert tree_paths_to_root(g, tree, root) == ref_tree_paths(g, tree, root)
    # an edge set of the right size that need not span
    ids = range(1, len(g.edges) + 1)
    if len(ids) >= g.vertex_count - 1:
        some = data.draw(st.sets(st.sampled_from(ids), min_size=g.vertex_count - 1,
                                 max_size=g.vertex_count - 1)) if ids else set()
        root = data.draw(st.integers(1, g.vertex_count))
        assert _outcome(tree_paths_to_root, g, some, root) == \
            _outcome(ref_tree_paths, g, some, root)


# ---------------------------------------------------------------------------
# the sampled kernel against the per-chunk Generator.choice loop


def ref_sampled_rejections(mu, tables, trials, seed, linf):
    """Per chunk: ``choice`` for the constraints, then one ``random`` call per
    coordinate, and ``any`` over the constraints of an L-infinity trial."""
    p = np.array([float(w) for w in mu])
    p = p / p.sum()
    orient_counts = np.array([t.shape[0] for t in tables])
    point_counts = np.array([t.shape[1] for t in tables])
    flat = np.concatenate([t.reshape(-1) for t in tables])
    offsets = np.concatenate(([0], np.cumsum(orient_counts * point_counts)[:-1]))
    total = 0
    for chunk in range((trials + _CHUNK - 1) // _CHUNK):
        size = min(_CHUNK, trials - chunk * _CHUNK)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))))
        if linf:
            o = (rng.random((size, len(tables))) * orient_counts).astype(np.int64)
            i = (rng.random((size, len(tables))) * point_counts).astype(np.int64)
            total += int(flat[offsets + o * point_counts + i].any(axis=1).sum())
            continue
        cons = rng.choice(len(tables), size=size, p=p)
        o = (rng.random(size) * orient_counts[cons]).astype(np.int64)
        i = (rng.random(size) * point_counts[cons]).astype(np.int64)
        total += int(flat[offsets[cons] + o * point_counts[cons] + i].sum())
    return total


@st.composite
def guide_weights(draw, k=None):
    """Constraint weights that stress the guide table's 4096 cells.

    Small integer ratios (zeros included) put cdf steps inside cells; whole
    multiples of 1/4096 (1/2 and 3/4096 among them) put every step on a cell
    edge; a tiny weight puts two steps in one cell.
    """
    k = draw(st.integers(1, 60)) if k is None else k
    tiny = Fraction(1, draw(st.sampled_from([10**6, 2**40, 10**15]))) \
        if k > 1 and draw(st.booleans()) else None
    size = k - 1 if tiny else k
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        raw[draw(st.integers(0, size - 1))] += 1
        mu = [Fraction(v, sum(raw)) for v in raw]
    else:
        cut = st.integers(0, 4096) | st.sampled_from([3, 2048, 3072, 4093])
        cuts = sorted(draw(st.lists(cut, min_size=size - 1, max_size=size - 1)))
        ends = [0, *cuts, 4096]
        mu = [Fraction(b - a, 4096) for a, b in zip(ends, ends[1:])]
    if tiny:
        mu = [v * (1 - tiny) for v in mu]
        mu.insert(draw(st.integers(0, size)), tiny)
    return mu


@st.composite
def sampled_inputs(draw):
    k = draw(st.integers(1, 60))
    tables = [draw(arrays(np.bool_, length)) for length in draw(
        st.lists(st.integers(1, 7), min_size=k, max_size=k))]
    trials = draw(st.sampled_from([1, 4095, 4096, 4097]) | st.integers(1, 3 * 4096 + 17))
    return draw(guide_weights(k)), tables, trials, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(sampled_inputs(), st.booleans())
def test_sampled_rejections_match_choice_loop(inputs, linf):
    # one row per constraint, which the reference reads as one orientation
    mu, tables, trials, seed = inputs
    assert _sampled_rejections(mu, tables, trials, seed, linf) == \
        ref_sampled_rejections(mu, [t[None] for t in tables], trials, seed, linf)


def test_linf_chunks_read_no_index_past_the_tables():
    # the L-infinity loop gathers with mode="clip", which reads the last
    # table entry for an index past the end instead of raising: make that the
    # only rejecting entry, with seven tables of unequal lengths (7 does not
    # divide the chunk) and a short last chunk, so a clipped index shows as
    # extra rejections against the reference's raising flat[index]
    tables = [np.zeros(length, dtype=bool) for length in (2, 5, 7, 1, 6, 3, 4)]
    tables[-1][-1] = True
    mu = [Fraction(1, len(tables))] * len(tables)
    for seed in (0, 1, 2):
        expected = ref_sampled_rejections(mu, [t[None] for t in tables],
                                          3 * _CHUNK + 123, seed, True)
        assert expected > 0
        assert _sampled_rejections(mu, tables, 3 * _CHUNK + 123, seed, True) == expected


@given(guide_weights())
def test_guide_draw_equals_choice_search_at_every_boundary(mu):
    # choice returns cdf.searchsorted(u, side="right"); a wrong side, cell or
    # fix-up shows at a cdf step or a cell edge, or one double either side
    p = np.array([float(w) for w in mu])
    cdf, start, mixed = _constraint_guide(p / p.sum())
    marks = np.concatenate([cdf, np.arange(4096) / 4096])
    u = np.concatenate([marks, np.nextafter(marks, 0), np.nextafter(marks, 1)])
    u = u[u < 1]
    assert (_draw_constraints(u, cdf, start, mixed) == cdf.searchsorted(u, side="right")).all()
    # the search runs exactly in the cells with a step strictly inside
    scaled = cdf[cdf < 1] * 4096
    inside = np.zeros(4096, dtype=bool)
    inside[scaled[scaled != np.floor(scaled)].astype(np.intp)] = True
    assert (mixed == inside).all()


# ---------------------------------------------------------------------------
# the global-defect search's batched passes against the loops they replaced


def ref_backtrack(generator_count, relators, degree):
    """Recursive backtracking: each relator is folded when its highest
    generator is assigned, once per prefix, over all rows of that generator."""
    images, inverses = stability._sym(degree)[:2]
    ident = np.arange(degree)
    by_level = [[] for _ in range(generator_count + 1)]
    for r in relators:
        by_level[max(abs(s) for s in r)].append(r)
    found, chosen = [], []

    def survivors(level):
        keep = np.ones(len(images), dtype=bool)
        for r in by_level[level]:
            acc = None
            for letter in r:
                table = images if letter > 0 else inverses
                factor = table if abs(letter) == level else table[chosen[abs(letter) - 1]]
                if acc is None:
                    acc = factor
                elif acc.ndim == 1:
                    acc = acc[factor]
                elif factor.ndim == 1:
                    acc = acc[:, factor]
                else:
                    acc = np.take_along_axis(acc, factor, axis=1)
            keep &= (acc == ident).all(axis=1)
        return np.flatnonzero(keep)

    def back(level):
        for j in survivors(level + 1).tolist():
            chosen.append(j)
            if level + 1 == generator_count:
                found.append(list(chosen))
            else:
                back(level + 1)
            chosen.pop()

    if not generator_count:
        return np.zeros((1, 0), dtype=np.intp)
    back(0)
    return np.array(found, dtype=np.intp).reshape(-1, generator_count)


@st.composite
def raw_presentations(draw):
    """1-4 generators, 0-3 relators of 1-6 letters (one-letter and freely
    reducible ones included: nothing is presolved here), degree 1-4."""
    gens = draw(st.integers(1, 4))
    letters = st.sampled_from([s for k in range(1, gens + 1) for s in (k, -k)])
    relators = draw(st.lists(st.lists(letters, min_size=1, max_size=6).map(tuple), max_size=3))
    return gens, relators, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(raw_presentations(), st.sampled_from([1 << 16, 64, 1]), st.sampled_from([1 << 12, 0]))
def test_block_enumeration_matches_recursive_backtracking(case, block, small_grid):
    # small blocks split a level into many; a zero small grid sends every
    # check through the point-0 grid pass and the survivor list
    gens, relators, degree = case
    saved = stability._BLOCK, stability._SMALL_GRID
    stability._BLOCK, stability._SMALL_GRID = block, small_grid
    try:
        rows = stability._backtrack(gens, relators, degree)
    finally:
        stability._BLOCK, stability._SMALL_GRID = saved
    expected = ref_backtrack(gens, relators, degree)
    assert rows.shape == expected.shape
    assert (rows == expected).all()


def test_block_enumeration_of_four_generators_at_degree_four():
    # 24^3 prefixes before the relators close, split over several blocks
    relators = [(1, 2, -1, -2), (3, 4, -3, -4), (1, 3, -1, -3, 2, 4, -2, -4)]
    rows = stability._backtrack(4, relators, 4)
    assert (rows == ref_backtrack(4, relators, 4)).all()


def ref_align_every_candidate(g, a, reps):
    """(best, representative, flat index): the whole P^V alignment tensor of
    each representative in turn, built from per-edge count tables, and a
    strict > over representatives, so the first of equal totals is kept."""
    n, big = a.shape[1], reps.shape[-1]
    inj = np.array(list(itertools.permutations(range(big), n)), dtype=np.intp)
    v = g.vertex_count
    best = None
    for k, b in enumerate(reps):
        total = np.zeros((len(inj),) * v, dtype=np.intp)
        for e, (x, y) in enumerate(g.edges):
            # agree[i, j]: points t with m_i(a(t)) == b(m_j(t))
            agree = np.array([[int(np.sum(mi[a[e]] == b[e][mj])) for mj in inj] for mi in inj])
            if x == y:
                shape = [1] * v
                shape[x - 1] = len(inj)
                total += np.diagonal(agree).reshape(shape)
            else:
                shape = [1] * v
                shape[x - 1] = shape[y - 1] = len(inj)
                total += (agree if x < y else agree.T).reshape(shape)
        flat = int(np.argmax(total))
        if best is None or total.flat[flat] > best[0]:
            best = (int(total.flat[flat]), k, flat)
    return best


ALIGN_SPACES = [instances.bouquet_a3(), instances.torus_complex(), instances.triangle_complex(),
                MIXED, instances.complete_complex(4)]


@st.composite
def aligned_inputs(draw):
    """An input cochain and the class representatives of one degree: random,
    the identity (many ties), or a relabeled representative (distance 0)."""
    x = draw(st.sampled_from(ALIGN_SPACES))
    g = x.skeleton
    n = draw(st.integers(1, 3))
    big = draw(st.integers(n, n + 1))
    assume(len(_injections(n, big)) ** g.vertex_count <= 2000)
    fp = fundamental_presentation(x, 1)
    rows = stability._homomorphisms_cached(fp.presentation, big, stability.DEFAULT_HOM_GUARD)
    reps = stability._tree_trivial(rows[stability._class_representatives(rows, big)],
                                   fp.generator_edges, len(g.edges), big)
    kind = draw(st.sampled_from(["random", "identity", "cocycle"]))
    if kind == "identity":
        a = np.tile(np.arange(n), (len(g.edges), 1))
    elif kind == "cocycle" and big == n:
        k = draw(st.integers(0, len(reps) - 1))
        beta = draw(cochain0s(x, n))
        a = act0on1(beta, Cochain1._of(x, n, reps[k])).rows
    else:
        a = draw(cochains(x, n)).rows
    return g, a, reps


@settings(max_examples=80, deadline=None)
@given(aligned_inputs(), st.sampled_from([1 << 16, 1]))
def test_batched_alignment_matches_the_candidate_loop(inputs, block):
    # a unit block aligns one representative per kernel call
    g, a, reps = inputs
    saved, stability._ALIGN_BLOCK = stability._ALIGN_BLOCK, block
    try:
        got = stability._align_representatives(g, a, reps)
    finally:
        stability._ALIGN_BLOCK = saved
    assert got == ref_align_every_candidate(g, a, reps)


def test_batched_alignment_ties_and_zero_distance():
    # every degree-3 torus cochain against the 8 class representatives:
    # representatives tie for the best total on many of them, and each
    # relabeled representative is found at distance 0
    x = instances.torus_complex()
    g, fp = x.skeleton, fundamental_presentation(x, 1)
    rows = stability._homomorphisms_cached(fp.presentation, 3, stability.DEFAULT_HOM_GUARD)
    reps = stability._tree_trivial(rows[stability._class_representatives(rows, 3)],
                                   fp.generator_edges, len(g.edges), 3)
    sym3 = stability._sym(3)[0]
    ties = 0
    for pair in itertools.product(range(6), repeat=2):
        a = sym3[list(pair)]
        expected = ref_align_every_candidate(g, a, reps)
        for block in (1 << 16, 1):
            saved, stability._ALIGN_BLOCK = stability._ALIGN_BLOCK, block
            try:
                assert stability._align_representatives(g, a, reps) == expected
            finally:
                stability._ALIGN_BLOCK = saved
        ties += sum(ref_align_every_candidate(g, a, reps[k:k + 1])[0] == expected[0]
                    for k in range(len(reps))) > 1
    assert ties
    for k in range(len(reps)):
        assert stability._align_representatives(g, reps[k], reps)[0] == reps[k].size
