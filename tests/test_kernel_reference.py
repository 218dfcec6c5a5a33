"""Differential tests: the batched word kernel against per-word products.

``cochain_norm``, ``coboundary_distance`` and the testers' rejection tables
evaluate polygon and relator values in one batched numpy fold.  The
references below evaluate one word at a time with ``path_value`` /
``evaluate_word`` and lift one point at a time through the covering graph,
so they share no code with the fold.

Every kernel that reads and writes cochain rows (the 0-cochain action,
coboundaries, tree normalization, path values, coboundary membership, edge
norms and distances, the orbit-distance relabeling) is checked against a
small reference built from ``compose`` and ``Permutation.inverse`` loops on
``values``, the form cochains held before they held rows.

The Monte Carlo kernel of ``run_sampled`` (one uniform block per chunk and a
guide-table constraint draw) is checked against the per-chunk loop with
``Generator.choice`` that it replaced: the outcomes must be equal, not just
close.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from permstab import instances
from permstab.cochains import (Cochain0, Cochain1, _injections, _relabeling, act0on1,
                               coboundary0, coboundary_distance, cochain_distance,
                               cochain_norm, cochain_to_covering, covering_to_cochain,
                               edge_norm, is_coboundary, orbit_distance, path_value,
                               skeleton_of, tree_normalize)
from permstab.complexes import (PolygonalComplex, PolygonClass, Presentation,
                                polygon_weights, presentation_complex)
from permstab.graphs import (CombinatorialMap, Covering, Graph, LabeledGraph,
                             origin, spanning_tree, terminus, tree_paths_to_root,
                             vertex_stars)
from permstab.perm import (Permutation, all_permutations, compose, evaluate_word,
                           hamming_distance_with_errors)
from permstab.testers import (_CHUNK, _cocycle_tables, _constraint_guide, _cover_tables,
                              _draw_constraints, _hom_tables, _sampled_rejections,
                              cover_local_defect, run_sampled)

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
    return Cochain1(x, n, tuple(draw(perms(n)) for _ in x.skeleton.edges))


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


@given(cochains(), st.booleans())
def test_cocycle_tables_match_reference(a, every_orientation):
    tables = _cocycle_tables(a, every_orientation)
    assert _lists(tables) == ref_cocycle_tables(a, every_orientation)
    assert all(t.dtype == bool for t in tables)


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
    assert _lists(_hom_tables(p, images)) == [[_moved(evaluate_word(r, images))]
                                              for r in p.relators]


def test_hom_tables_of_empty_relators_reject_nothing():
    p = Presentation(2, ((), (1, 2, -1, -2), ()))
    images = (Permutation([2, 1, 3]), Permutation([1, 3, 2]))
    assert _lists(_hom_tables(p, images)) == [[[False] * 3], [[True, True, True]],
                                              [[False] * 3]]


@pytest.mark.parametrize("letter", [0, 4, -4])
def test_polygon_letters_outside_the_alphabet_raise(letter):
    # a hand-built polygon class is not checked on construction; the fold
    # refuses its letters instead of reading the wrong table row
    x = instances.triangle_complex()
    word = (1, letter, 3)
    bad = PolygonalComplex(x.skeleton, (PolygonClass(word, word, frozenset([word])),))
    a = Cochain1(bad, 3, (Permutation([2, 3, 1]),) * 3)
    for call in (lambda: cochain_norm(a), lambda: coboundary_distance(a, a),
                 lambda: _cocycle_tables(a, True), lambda: path_value(a, word)):
        with pytest.raises(ValueError):
            call()


@st.composite
def relabeled_coverings(draw):
    """The covering of a random cochain with every fiber's labels reordered."""
    a = draw(cochains())
    c = cochain_to_covering(a)
    fibers = tuple(tuple(draw(st.permutations(fib))) for fib in c.fiber_labels)
    return Covering(c.labeled, c.degree, fibers), a.space


@given(relabeled_coverings(), st.booleans())
def test_cover_tables_match_point_lifts(inst, every_orientation):
    c, x = inst
    assert _lists(_cover_tables(c, x, every_orientation)) == \
        ref_cover_tables(c, x, every_orientation)


# ---------------------------------------------------------------------------
# malformed coverings built in code


def _rebuilt(c, edges=None, edge_map=None, fibers=None):
    graph = Graph(c.graph.vertex_count, c.graph.edges if edges is None else edges)
    lab = c.labeled.labeling
    labeling = CombinatorialMap(graph, lab.target, lab.vertex_map,
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


@pytest.mark.parametrize("case", list(_malformed()), ids=lambda case: case[0])
def test_malformed_covering_raises_value_error(case):
    _, c, x = case
    for call in (lambda: covering_to_cochain(c, x), lambda: cover_local_defect(c, x),
                 lambda: run_sampled("cover", (c, x), 10, seed=0)):
        with pytest.raises(ValueError):
            call()


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
    g = a.space.skeleton
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
    return Cochain0(x, n, tuple(draw(perms(n)) for _ in range(x.skeleton.vertex_count)))


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
    x = data.draw(st.sampled_from(SPACES))
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
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 7))
    tables = [draw(arrays(np.bool_, shape)) for shape in draw(
        st.lists(shapes, min_size=k, max_size=k))]
    trials = draw(st.sampled_from([1, 4095, 4096, 4097]) | st.integers(1, 3 * 4096 + 17))
    return draw(guide_weights(k)), tables, trials, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(sampled_inputs(), st.booleans())
def test_sampled_rejections_match_choice_loop(inputs, linf):
    mu, tables, trials, seed = inputs
    assert _sampled_rejections(mu, tables, trials, seed, linf) == \
        ref_sampled_rejections(mu, tables, trials, seed, linf)


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
