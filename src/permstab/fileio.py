"""JSON file formats for graphs, complexes, cochains, coverings, presentations.

All structures serialize to plain JSON; exact rationals are written as
"p/q" strings.  A cochain file may reference its complex either inline or as
a relative path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .cochains import Cochain0, Cochain1, skeleton_of
from .complexes import (PolygonalComplex, Presentation, polygon_orbit,
                        polygon_weights)
from .graphs import (CombinatorialMap, Covering, Graph, LabeledGraph,
                     check_covering)
from .perm import Permutation


def frac_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(s: str | int | float) -> Fraction:
    if isinstance(s, str) and "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)


# ---------------------------------------------------------------------------
# graphs


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": g.vertex_count,
            "edges": [{"id": k, "from": u, "to": v}
                      for k, (u, v) in enumerate(g.edges, start=1)]}


def graph_from_dict(d: dict[str, Any]) -> Graph:
    records = sorted(d["edges"], key=lambda r: r["id"])
    for k, rec in enumerate(records, start=1):
        if rec["id"] != k:
            raise ValueError(f"edge ids must be 1..{len(records)} without gaps")
    return Graph(int(d["vertices"]), tuple((r["from"], r["to"]) for r in records))


def labeled_graph_to_dict(lg: LabeledGraph) -> dict[str, Any]:
    out = graph_to_dict(lg.graph)
    out["base"] = graph_to_dict(lg.base)
    out["vertex_map"] = list(lg.labeling.vertex_map)
    out["edge_map"] = list(lg.labeling.edge_map)
    return out


def labeled_graph_from_dict(d: dict[str, Any]) -> LabeledGraph:
    from .graphs import validate_graph, validate_map

    g = graph_from_dict(d)
    base = graph_from_dict(d["base"])
    for which, graph in (("graph", g), ("base graph", base)):
        rep = validate_graph(graph)
        if not rep.ok:
            raise ValueError(f"invalid {which}: {rep.message}")
    labeling = CombinatorialMap(g, base, tuple(d["vertex_map"]), tuple(d["edge_map"]))
    rep = validate_map(labeling)
    if not rep.ok:
        raise ValueError(f"invalid labeling: {rep.message}")
    return LabeledGraph(g, labeling)


def covering_to_dict(c: Covering) -> dict[str, Any]:
    out = labeled_graph_to_dict(c.labeled)
    out["degree"] = c.degree
    out["fiber_labels"] = {str(x): list(fib) for x, fib in enumerate(c.fiber_labels, start=1)}
    return out


def covering_from_dict(d: dict[str, Any]) -> Covering:
    """Load a covering, checking the star bijections, fiber sizes and labels.

    Raises ValueError naming the offending vertex: the map must pass
    ``check_covering`` and each stored fiber must list exactly its fiber.
    """
    lg = labeled_graph_from_dict(d)
    degree = int(d["degree"])
    canonical = check_covering(lg.labeling, degree).fiber_labels
    fibers = tuple(tuple(d["fiber_labels"][str(x)])
                   for x in range(1, lg.base.vertex_count + 1))
    for x, (stored, fib) in enumerate(zip(fibers, canonical), start=1):
        if sorted(stored) != list(fib):
            raise ValueError(f"fiber labels over vertex {x} are not a labeling of its fiber")
    return Covering(lg, degree, fibers)


# ---------------------------------------------------------------------------
# complexes and presentations


def complex_to_dict(x: PolygonalComplex) -> dict[str, Any]:
    out = graph_to_dict(x.skeleton)
    out["polygons"] = [list(pc.rep) for pc in x.polygons]
    return out


def complex_from_dict(d: dict[str, Any]) -> PolygonalComplex:
    g = graph_from_dict(d)
    polys = tuple(polygon_orbit(g, tuple(p)) for p in d["polygons"])
    return PolygonalComplex(g, polys)


def presentation_to_dict(p: Presentation) -> dict[str, Any]:
    return {"generators": p.generator_count, "relators": [list(r) for r in p.relators]}


def presentation_from_dict(d: dict[str, Any]) -> Presentation:
    return Presentation(int(d["generators"]), tuple(tuple(r) for r in d["relators"]))


# ---------------------------------------------------------------------------
# cochains


def _space_to_value(space) -> dict[str, Any]:
    if isinstance(space, PolygonalComplex):
        return complex_to_dict(space)
    return graph_to_dict(space)


def _space_from_value(value, base_dir: Path | None):
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    if "polygons" in value:
        return complex_from_dict(value)
    return graph_from_dict(value)


def cochain1_to_dict(a: Cochain1) -> dict[str, Any]:
    return {"complex": _space_to_value(a.space), "n": a.degree, "dimension": 1,
            "values": {str(k): list(p.images)
                       for k, p in enumerate(a.values, start=1)}}


def cochain0_to_dict(b: Cochain0) -> dict[str, Any]:
    return {"complex": _space_to_value(b.space), "n": b.degree, "dimension": 0,
            "values": {str(v): list(p.images)
                       for v, p in enumerate(b.values, start=1)}}


def cochain_from_dict(d: dict[str, Any], base_dir: Path | None = None) -> Cochain0 | Cochain1:
    space = _space_from_value(d["complex"], base_dir)
    n = int(d["n"])
    dim = int(d.get("dimension", 1))
    g = skeleton_of(space)
    count = g.vertex_count if dim == 0 else len(g.edges)
    values = []
    for key in range(1, count + 1):
        if str(key) not in d["values"]:
            raise ValueError(f"missing value for cell {key}")
        values.append(Permutation(d["values"][str(key)]))
    cls = Cochain0 if dim == 0 else Cochain1
    return cls(space, n, tuple(values))


# ---------------------------------------------------------------------------
# matrices and weights


def matrix_from_dict(d: dict[str, Any]):
    rows = [[int(v) for v in row] for row in d["rows"]]
    vector = [int(v) for v in d["vector"]]
    mu = [frac_from_str(v) for v in d["mu"]] if "mu" in d else None
    return rows, vector, mu


def weights_from_dict(d: dict[str, Any], x: PolygonalComplex):
    mu2 = [frac_from_str(v) for v in d["mu2"]]
    return polygon_weights(x, mu2)


# ---------------------------------------------------------------------------
# generic entry points


def detect_kind(d: dict[str, Any]) -> str:
    if "generators" in d:
        return "presentation"
    if "rows" in d:
        return "matrix"
    if "mu2" in d:
        return "weights"
    if "values" in d and "n" in d:
        return "cochain"
    if "fiber_labels" in d:
        return "covering"
    if "vertex_map" in d:
        return "labeled_graph"
    if "polygons" in d:
        return "complex"
    if "edges" in d:
        return "graph"
    raise ValueError("unrecognized file contents")


def load_json(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_json(d: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(json.dumps(d, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_object(path: str | Path):
    """Load any supported file, dispatching on its fields.

    Malformed contents raise ValueError (or KeyError for a missing field),
    including fields that hold the wrong JSON type.
    """
    d = load_json(path)
    if not isinstance(d, dict):
        raise ValueError("file must hold a JSON object")
    kind = detect_kind(d)
    base_dir = Path(path).parent
    loaders = {
        "presentation": lambda: presentation_from_dict(d),
        "cochain": lambda: cochain_from_dict(d, base_dir),
        "covering": lambda: covering_from_dict(d),
        "labeled_graph": lambda: labeled_graph_from_dict(d),
        "complex": lambda: complex_from_dict(d),
        "graph": lambda: graph_from_dict(d),
        "matrix": lambda: matrix_from_dict(d),
    }
    if kind == "weights":
        raise ValueError("weight files need a complex; load them explicitly")
    try:
        return kind, loaders[kind]()
    except (TypeError, AttributeError) as exc:   # a field holds the wrong JSON type
        raise ValueError(f"malformed {kind} file: {exc}") from exc
