"""Reading and writing graphs: edge-list text, JSON records, DOT export."""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, GraphError, read_json, strict_int


def read_edge_list(text: str) -> Graph:
    """Parse "u v" pairs, one per line; '#' starts a comment.

    The vertex count is 1 + the largest id mentioned.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        top = max(top, u, v)
        edges.append((u, v))
    if top < 0:
        raise GraphError("no edges in edge list")
    return Graph(top + 1, edges)


def graph_to_json(g: Graph, meta: Optional[dict] = None) -> dict:
    record = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels:
        record["labels"] = {str(v): s for v, s in sorted(g.labels.items())}
    if meta:
        record["meta"] = meta
    return record


def graph_from_json(record: dict) -> Graph:
    labels, edges = record.get("labels", {}), record.get("edges")
    if not isinstance(labels, dict) or not isinstance(edges, list) or any(
            not isinstance(e, list) or len(e) != 2 or set(map(type, e)) != {int}
            for e in edges):
        raise GraphError("edges must be [u, v] integer pairs and labels an object")
    n = strict_int(record.get("n"), "n")
    for key, label in labels.items():
        # keys are written by graph_to_json as str(v) for a vertex v
        if not (key.isdecimal() and str(int(key)) == key and int(key) < n
                and isinstance(label, str)):
            raise GraphError(f"labels must map vertex ids 0..{n - 1} to "
                             f"strings, got {key!r}: {label!r}")
    return Graph(n, [tuple(e) for e in edges],
                 labels={int(k): v for k, v in labels.items()})


def load_graph(path: str) -> Graph:
    """Load a graph file, sniffing JSON vs edge-list by the first character."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json(read_json(text))
    return read_edge_list(text)


def to_dot(g: Graph, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        label = g.labels.get(v)
        if label is not None:
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
