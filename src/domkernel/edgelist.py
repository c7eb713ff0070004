"""Plain-text edge list and white-vertex sidecar files.

An edge list holds one edge per line as two whitespace-separated vertex
ids; blank lines and lines starting with '#' are ignored, so writers can
leave a '# n m' size header for humans.  A sidecar file lists one white
vertex id per line under the same comment rules; vertices absent from the
sidecar (or when no sidecar is given) are black.
"""

from __future__ import annotations

from pathlib import Path

from .graph import ColoredGraph


class EdgeListError(ValueError):
    """Malformed input file, with position information."""

    def __init__(self, path, line_no: int | None, message: str) -> None:
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _id_lines(path, arity):
    """Yield (line_no, ids) for each data line of path, where ids is a
    tuple of `arity` (1 or 2) non-negative integer vertex ids."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise EdgeListError(path, None, f"undecodable text: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != arity:
            raise EdgeListError(
                path, line_no, f"expected {arity} vertex id(s), got {len(parts)} tokens"
            )
        try:  # unpacked directly: tuple(map(int, parts)) makes loading slower
            ids = (int(parts[0]), int(parts[1])) if arity == 2 else (int(parts[0]),)
        except ValueError:
            raise EdgeListError(
                path, line_no, f"non-integer vertex id in {raw.strip()!r}"
            ) from None
        if "-" in raw and min(ids) < 0:  # int() gives a negative only after a '-'
            raise EdgeListError(path, line_no, "vertex ids must be non-negative")
        yield line_no, ids


def read_edge_list(path) -> list[tuple[int, int]]:
    """Parse the edge pairs; duplicate edges are tolerated and collapse."""
    edges = []
    for line_no, (u, v) in _id_lines(path, 2):
        if u == v:
            raise EdgeListError(path, line_no, f"self-loop at {u} not allowed")
        edges.append((u, v))
    return edges


def read_white_list(path) -> set[int]:
    return {w for _, (w,) in _id_lines(path, 1)}


def load_graph(path, white_path=None) -> ColoredGraph:
    """Build the colored graph from an edge list plus optional sidecar."""
    g = ColoredGraph.from_edges(read_edge_list(path))
    if white_path is not None:
        whites = read_white_list(white_path)
        missing = whites - g.adj.keys()
        if missing:
            raise EdgeListError(
                white_path, None,
                f"white vertex {min(missing)} does not occur in {path}",
            )
        g.black -= whites
    return g


def write_edge_list(path, g: ColoredGraph) -> None:
    lines = [f"# {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def write_white_list(path, g: ColoredGraph) -> None:
    whites = sorted(g.white_vertices())
    lines = [f"# {len(whites)} white vertices"]
    lines.extend(str(w) for w in whites)
    Path(path).write_text("\n".join(lines) + "\n")
