"""JSON file formats for graphs, complexes, cochains, coverings, presentations.

All structures serialize to plain JSON; exact rationals are written as
"p/q" strings.  A cochain file may reference its complex either inline or as
a relative path.  Every integer field is read strictly: a bool or a float
(2.0 included) is refused with a ValueError naming the field, never
truncated.  Every loader checks what it loads (a graph through
``validate_graph``), so loading a file is validating it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .cochains import Cochain0, Cochain1, skeleton_of
from .complexes import (PolygonalComplex, Presentation, polygon_orbit,
                        polygon_weights)
from .graphs import (CombinatorialMap, Covering, Graph, LabeledGraph, _checked_covering,
                     validate_graph, validate_map)
from .perm import Permutation


def frac_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(s: str | int | float) -> Fraction:
    """A rational field: a number or a "p/q" string; null, a bool, a list, a
    zero denominator or an infinity raise ValueError."""
    if type(s) not in (str, int, float):
        raise ValueError(f"a rational must be a number or a \"p/q\" string, got {s!r}")
    try:
        if isinstance(s, str) and "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(s)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{s!r} is not a finite rational") from exc


def _int(value: Any, field: str, *args: int) -> int:
    """An integer field as JSON holds it; bool is refused although it is an int.

    The error names the field as ``field % args``, formatted only on failure.
    """
    if type(value) is not int:
        raise ValueError(f"{field % args} must be an integer, got {value!r}")
    return value


def _int_list(value: Any, field: str, *args: int) -> list[int]:
    """A list of integers, refused as a whole when any entry is not one."""
    if not isinstance(value, list):
        raise ValueError(f"{field % args} must be a list of integers, got {value!r}")
    for i, v in enumerate(value, start=1):
        if type(v) is not int:
            raise ValueError(f"{field % args} entry {i} must be an integer, got {v!r}")
    return value


def _frac_list(value: Any, field: str) -> list[Fraction]:
    """A list of rationals, each read by ``frac_from_str``."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of rationals, got {value!r}")
    return [frac_from_str(v) for v in value]


# ---------------------------------------------------------------------------
# graphs


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": g.vertex_count,
            "edges": [{"id": k, "from": u, "to": v}
                      for k, (u, v) in enumerate(g.edges, start=1)]}


def graph_from_dict(d: dict[str, Any]) -> Graph:
    records = sorted(d["edges"], key=lambda r: _int(r["id"], "edge id"))
    for k, rec in enumerate(records, start=1):
        if rec["id"] != k:
            raise ValueError(f"edge ids must be 1..{len(records)} without gaps")
    g = Graph(_int(d["vertices"], "vertices"),
              tuple((_int(r["from"], "edge %d from", k), _int(r["to"], "edge %d to", k))
                    for k, r in enumerate(records, start=1)))
    rep = validate_graph(g)
    if not rep.ok:
        raise ValueError(f"invalid graph: {rep.message}")
    return g


def labeled_graph_to_dict(lg: LabeledGraph) -> dict[str, Any]:
    out = graph_to_dict(lg.graph)
    out["base"] = graph_to_dict(lg.base)
    out["vertex_map"] = list(lg.labeling.vertex_map)
    out["edge_map"] = list(lg.labeling.edge_map)
    return out


def _labeling_from_dict(d: dict[str, Any]) -> CombinatorialMap:
    """The labeling, with its two graphs checked but not the map."""
    return CombinatorialMap(graph_from_dict(d), graph_from_dict(d["base"]),
                            tuple(_int_list(d["vertex_map"], "vertex_map")),
                            tuple(_int_list(d["edge_map"], "edge_map")))


def labeled_graph_from_dict(d: dict[str, Any]) -> LabeledGraph:
    labeling = _labeling_from_dict(d)
    rep = validate_map(labeling)
    if not rep.ok:
        raise ValueError(f"invalid labeling: {rep.message}")
    return LabeledGraph(labeling.source, labeling)


def covering_to_dict(c: Covering) -> dict[str, Any]:
    out = labeled_graph_to_dict(c.labeled)
    out["degree"] = c.degree
    out["fiber_labels"] = {str(x): list(fib) for x, fib in enumerate(c.fiber_labels, start=1)}
    return out


def covering_from_dict(d: dict[str, Any]) -> Covering:
    """A covering with its stored fiber labels, checked once as ``check_covering``
    checks a map; raises ValueError naming the offending vertex."""
    labeling = _labeling_from_dict(d)
    fibers = tuple(tuple(_int_list(d["fiber_labels"][str(x)], "fiber labels over vertex %d", x))
                   for x in range(1, labeling.target.vertex_count + 1))
    return _checked_covering(labeling, _int(d["degree"], "degree"), fibers)


# ---------------------------------------------------------------------------
# complexes and presentations


def complex_to_dict(x: PolygonalComplex) -> dict[str, Any]:
    out = graph_to_dict(x.skeleton)
    out["polygons"] = [list(pc.rep) for pc in x.polygons]
    return out


def complex_from_dict(d: dict[str, Any]) -> PolygonalComplex:
    """Load a complex, refusing what ``validate_complex`` refuses.

    ``graph_from_dict`` checks the skeleton and ``polygon_orbit`` each
    polygon, so only repeated polygons are left to check here.
    """
    g = graph_from_dict(d)
    polys = tuple(polygon_orbit(g, tuple(_int_list(p, "polygon %d", i)))
                  for i, p in enumerate(d["polygons"], start=1))
    if len({pc.canonical for pc in polys}) != len(polys):
        raise ValueError("invalid complex: two polygons have the same pasted path")
    return PolygonalComplex(g, polys)


def presentation_to_dict(p: Presentation) -> dict[str, Any]:
    return {"generators": p.generator_count, "relators": [list(r) for r in p.relators]}


def presentation_from_dict(d: dict[str, Any]) -> Presentation:
    return Presentation(_int(d["generators"], "generators"),
                        tuple(tuple(_int_list(r, "relator %d", i))
                              for i, r in enumerate(d["relators"], start=1)))


def hom_instance_from_dict(d: dict[str, Any]) -> tuple[Presentation, tuple[Permutation, ...]]:
    """A presentation with one generator image each: {"presentation", "images"}."""
    p = presentation_from_dict(d["presentation"])
    images = tuple(Permutation(_int_list(img, "image %d", i))
                   for i, img in enumerate(d["images"], start=1))
    if len(images) != p.generator_count:
        raise ValueError("need one image per generator")
    if len({q.degree for q in images}) > 1:
        raise ValueError("values must share one degree")
    return p, images


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
        try:
            with open(path, encoding="utf-8") as fh:
                value = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read the complex file {str(path)!r}: {exc.strerror}") from exc
    if "polygons" in value:
        return complex_from_dict(value)
    return graph_from_dict(value)


def cochain1_to_dict(a: Cochain0 | Cochain1) -> dict[str, Any]:
    """A cochain of either dimension: ``cochain0_to_dict`` is this writer too."""
    return {"complex": _space_to_value(a.space), "n": a.degree,
            "dimension": 0 if isinstance(a, Cochain0) else 1,
            "values": {str(k): row for k, row in enumerate((a.rows + 1).tolist(), start=1)}}


cochain0_to_dict = cochain1_to_dict


def cochain_from_dict(d: dict[str, Any], base_dir: Path | None = None) -> Cochain0 | Cochain1:
    space = _space_from_value(d["complex"], base_dir)
    n = _int(d["n"], "n")
    dim = _int(d.get("dimension", 1), "dimension")
    if dim not in (0, 1):
        raise ValueError(f"cochain dimension must be 0 or 1, got {dim}")
    g = skeleton_of(space)
    count = g.vertex_count if dim == 0 else len(g.edges)
    values = []
    for key in range(1, count + 1):
        if str(key) not in d["values"]:
            raise ValueError(f"missing value for cell {key}")
        values.append(Permutation(_int_list(d["values"][str(key)], "value of cell %d", key)))
    cls = Cochain0 if dim == 0 else Cochain1
    return cls(space, n, tuple(values))


# ---------------------------------------------------------------------------
# matrices and weights


def matrix_from_dict(d: dict[str, Any]):
    rows = [_int_list(row, "row %d", i) for i, row in enumerate(d["rows"], start=1)]
    vector = _int_list(d["vector"], "vector")
    mu = _frac_list(d["mu"], "mu") if "mu" in d else None
    return rows, vector, mu


def weights_from_dict(d: dict[str, Any], x: PolygonalComplex):
    if "mu2" not in d:
        raise ValueError('weights over a complex need a "mu2" list of polygon weights')
    return polygon_weights(x, _frac_list(d["mu2"], "mu2"))


# ---------------------------------------------------------------------------
# generic entry points


# each kind with the fields that mark it, tried in this order
_KINDS = (("hom_instance", ("presentation", "images")), ("presentation", ("generators",)),
          ("matrix", ("rows",)), ("weights", ("mu2",)), ("cochain", ("values", "n")),
          ("covering", ("fiber_labels",)), ("labeled_graph", ("vertex_map",)),
          ("complex", ("polygons",)), ("graph", ("edges",)))


def detect_kind(d: dict[str, Any]) -> str:
    for kind, fields in _KINDS:
        if all(f in d for f in fields):
            return kind
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
        "hom_instance": lambda: hom_instance_from_dict(d),
    }
    if kind == "weights":
        raise ValueError("weight files need a complex; load them explicitly")
    try:
        return kind, loaders[kind]()
    except (TypeError, AttributeError) as exc:   # a field holds the wrong JSON type
        raise ValueError(f"malformed {kind} file: {exc}") from exc
