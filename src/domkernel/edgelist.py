"""Plain-text edge list and white-vertex sidecar files.

An edge list holds one edge per line as two whitespace-separated vertex
ids; blank lines and lines starting with '#' are ignored, so writers can
leave a '# n m' size header for humans.  A sidecar file lists one white
vertex id per line under the same comment rules; vertices absent from the
sidecar (or when no sidecar is given) are black.
"""

from __future__ import annotations

from pathlib import Path
from typing import NoReturn

from .graph import ColoredGraph


class EdgeListError(ValueError):
    """Malformed input file, with position information."""

    def __init__(self, path, line_no: int | None, message: str) -> None:
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise EdgeListError(path, None, f"undecodable text: {exc}") from None


def _refuse(path, line_no: int, raw: str, arity: int) -> NoReturn:
    """Raise the EdgeListError for a data line of `arity` (1 or 2) vertex
    ids that fails a check.  The checks, in order: the token count,
    integer ids, non-negative ids, and for an edge no self-loop.  Called
    only for a line that fails one of them."""
    parts = raw.split()
    if len(parts) != arity:
        raise EdgeListError(
            path, line_no, f"expected {arity} vertex id(s), got {len(parts)} tokens"
        )
    try:
        ids = [int(p) for p in parts]
    except ValueError:
        raise EdgeListError(
            path, line_no, f"non-integer vertex id in {raw.strip()!r}"
        ) from None
    if min(ids) < 0:
        raise EdgeListError(path, line_no, "vertex ids must be non-negative")
    raise EdgeListError(path, line_no, f"self-loop at {ids[0]} not allowed")


def read_white_list(path) -> set[int]:
    whites = set()
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            (w,) = map(int, parts)
        except ValueError:
            _refuse(path, line_no, raw, 1)
        if w < 0:
            _refuse(path, line_no, raw, 1)
        whites.add(w)
    return whites


def load_graph(path, white_path=None) -> ColoredGraph:
    """Build the colored graph from an edge list plus optional sidecar.

    One loop over the lines checks each edge and adds it straight into
    the adjacency; duplicate and reversed edges collapse.  Vertices enter
    in order of first appearance, as ``ColoredGraph.from_edges`` adds
    them, and the graph equals ``from_edges`` of the file's edges."""
    adj: dict[int, set[int]] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            a, b = parts
            u, v = int(a), int(b)
        except ValueError:
            _refuse(path, line_no, raw, 2)
        # int() gives a negative only after a '-'
        if u == v or "-" in raw and (u < 0 or v < 0):
            _refuse(path, line_no, raw, 2)
        if u in adj:
            adj[u].add(v)
        else:
            adj[u] = {v}
        if v in adj:
            adj[v].add(u)
        else:
            adj[v] = {u}
    g = ColoredGraph()
    g.adj = adj
    g.black.update(adj)
    g._next_id = max(adj, default=-1) + 1
    if white_path is not None:
        whites = read_white_list(white_path)
        missing = whites - adj.keys()
        if missing:
            raise EdgeListError(
                white_path, None,
                f"white vertex {min(missing)} does not occur in {path}",
            )
        g.black -= whites
    return g


def write_edge_list(path, g: ColoredGraph) -> None:
    edges = g.edges()
    lines = [f"# {g.vertex_count} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    Path(path).write_text("\n".join(lines) + "\n")


def write_white_list(path, g: ColoredGraph) -> None:
    whites = sorted(g.white_vertices())
    lines = [f"# {len(whites)} white vertices"]
    lines.extend(str(w) for w in whites)
    Path(path).write_text("\n".join(lines) + "\n")
