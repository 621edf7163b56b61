"""JSON formats for set systems, matrices, and graphs, plus the
obstruction cache.

Set system: {"ground": ["a","b"], "feasible": [[], ["a","b"]]}
Matrix:     {"labels": ["1","2"], "rows": ["01","10"]}
Graph:      {"vertices": ["a","b"], "edges": [["a","b"]], "loops": []}
Graphs also parse from a one-line edge list such as "a-b, b-c, d, c-c"
(lone name: isolated vertex; x-x: loop at x; names are non-empty and
hold no dash).  Labels are JSON strings and list fields JSON lists;
anything else raises TypeError.  A missing field, a label outside the
labels, a matrix entry other than 0 or 1 or an edge that is not two
names raises ValueError naming it.

Serialization uses canonical storage order so identical values produce
identical bytes.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from pathlib import Path
from typing import Any

from .gf2 import SymmetricBinaryMatrix
from .graphs import LoopedSimpleGraph
from .setsystem import SetSystem


def _field(data: dict[str, Any], name: str) -> Any:
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None


def _json_list(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a JSON list")
    return value


def _label_list(value: Any, field: str) -> list[str]:
    """A JSON list of string labels: numbers would reach the labels, and a
    string would be read one character at a time."""
    labels = _json_list(value, field)
    if not all(isinstance(lab, str) for lab in labels):
        raise TypeError(f"{field} must hold strings")
    return labels


def set_system_to_dict(system: SetSystem) -> dict[str, Any]:
    return {
        "ground": list(system.labels),
        "feasible": [list(fs) for fs in system.feasible_sets()],
    }


def set_system_from_dict(data: dict[str, Any]) -> SetSystem:
    feasible = [_label_list(fs, "a feasible set") for fs in _json_list(_field(data, "feasible"), "feasible")]
    return SetSystem.from_sets(_label_list(_field(data, "ground"), "ground"), feasible)


def matrix_to_dict(matrix: SymmetricBinaryMatrix) -> dict[str, Any]:
    n = matrix.size
    return {
        "labels": list(matrix.labels),
        "rows": ["".join(str(r >> j & 1) for j in range(n)) for r in matrix.rows],
    }


def matrix_from_dict(data: dict[str, Any]) -> SymmetricBinaryMatrix:
    # a string row's characters other than 0 and 1 stay strings, which from_entries refuses
    entries = [[{"0": 0, "1": 1}.get(c, c) for c in row] if isinstance(row, str) else _json_list(row, "a row")
               for row in _json_list(_field(data, "rows"), "rows")]
    return SymmetricBinaryMatrix.from_entries(_label_list(_field(data, "labels"), "labels"), entries)


def graph_to_dict(graph: LoopedSimpleGraph) -> dict[str, Any]:
    return {
        "vertices": list(graph.labels),
        "edges": [[u, v] for u, v in graph.edges()],
        "loops": list(graph.subset_labels(graph.loops)),
    }


def _edge(value: Any) -> tuple[str, str]:
    ends = _label_list(value, "an edge")
    if len(ends) != 2:
        raise ValueError(f"an edge is a pair of vertex names, not {ends!r}")
    return ends[0], ends[1]


def graph_from_dict(data: dict[str, Any]) -> LoopedSimpleGraph:
    return LoopedSimpleGraph.from_edges(
        _label_list(_field(data, "vertices"), "vertices"),
        [_edge(e) for e in _json_list(data.get("edges", []), "edges")],
        _label_list(data.get("loops", []), "loops"),
    )


def graph_from_edge_text(text: str) -> LoopedSimpleGraph:
    """Parse "a-b, b-c, d, c-c": edges, isolated vertices, loops.

    Each token is name or name-name, with non-empty names that hold no
    dash; text starting with [ or " is JSON that is not an object.
    """
    if text.lstrip().startswith(("[", '"')):
        raise ValueError("unrecognized payload: JSON payloads are objects")
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    loops: list[str] = []
    for token in text.replace(",", " ").split():
        ends = token.split("-")
        if len(ends) > 2 or "" in ends:
            raise ValueError(f"bad edge-list token {token!r} (use name or name-name)")
        for v in ends:
            if v not in vertices:
                vertices.append(v)
        if len(ends) == 2:
            u, v = ends
            if u == v:
                loops.append(u)
            else:
                edges.append((u, v))
    return LoopedSimpleGraph.from_edges(vertices, edges, loops)


def dumps(obj: SetSystem | SymmetricBinaryMatrix | LoopedSimpleGraph) -> str:
    if isinstance(obj, SetSystem):
        data = set_system_to_dict(obj)
    elif isinstance(obj, SymmetricBinaryMatrix):
        data = matrix_to_dict(obj)
    elif isinstance(obj, LoopedSimpleGraph):
        data = graph_to_dict(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(data, separators=(", ", ": "))


def loads(text: str):
    """Parse any of the three JSON payloads (or an edge-list line)."""
    text = text.strip()
    if not text.startswith("{"):
        return graph_from_edge_text(text)
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if "ground" in data:
        return set_system_from_dict(data)
    if "rows" in data:
        return matrix_from_dict(data)
    if "vertices" in data:
        return graph_from_dict(data)
    raise ValueError("unrecognized payload: expected ground/rows/vertices keys")


# ----------------------------------------------------------------------
# circle-obstruction cache

_CACHE_RESOURCE = "circle_obstructions.json"


def _cache_digest(payload: dict[str, Any]) -> str:
    body = json.dumps({"max_n": payload["max_n"], "graphs": payload["graphs"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def write_obstruction_cache(path: Path, graphs, max_n: int = 8) -> None:
    payload: dict[str, Any] = {
        "max_n": max_n,
        "graphs": [graph_to_dict(g) for g in graphs],
    }
    payload["sha256"] = _cache_digest(payload)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_obstruction_cache(path: Path | None = None) -> tuple[LoopedSimpleGraph, ...]:
    """Load the derived circle obstructions; the checksum guards against
    hand edits."""
    if path is None:
        ref = importlib.resources.files("deltamatroids") / "_data" / _CACHE_RESOURCE
        text = ref.read_text()
    else:
        text = Path(path).read_text()
    payload = json.loads(text)
    if payload.get("sha256") != _cache_digest(payload):
        raise ValueError("obstruction cache checksum mismatch")
    return tuple(graph_from_dict(d) for d in payload["graphs"])
