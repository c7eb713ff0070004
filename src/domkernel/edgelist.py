"""Plain-text edge list and white-vertex sidecar files.

An edge list holds one edge per line as two whitespace-separated vertex
ids; blank lines and lines starting with '#' are ignored, so writers can
leave a '# n m' size header for humans.  A sidecar file lists one white
vertex id per line under the same comment rules; vertices absent from the
sidecar (or when no sidecar is given) are black.

``load_graph`` gives each id value one int object, which every adjacency
set holds, so that set lookups succeed on identity.  A file in the plain
form that ``write_edge_list`` writes is parsed in bulk; any other text,
and plain text with a self-loop, is checked line by line.
"""

from __future__ import annotations

import operator
import re
from pathlib import Path
from typing import NoReturn

from .graph import ColoredGraph


class DataError(ValueError):
    """A refused input file: an edge list, a sidecar, a manifest, or a
    dataset file that failed to process.  The args are (path, line_no,
    message), line_no None where no one line is at fault, so that it
    pickles back from a pool worker."""

    def __init__(self, path, line_no: int | None, message: str) -> None:
        super().__init__(str(path), line_no, message)
        self.path, self.line_no = str(path), line_no

    def __str__(self) -> str:
        where = self.path if self.line_no is None else f"{self.path}:{self.line_no}"
        return f"{where}: {self.args[2]}"


def read_text(path) -> str:
    """The text of the file at path; undecodable text raises DataError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(path, None, f"undecodable text: {exc}") from None


def _refuse(path, line_no: int, raw: str, arity: int) -> NoReturn:
    """Raise the DataError for a data line of `arity` (1 or 2) vertex
    ids that fails a check.  The checks, in order: the token count,
    integer ids, non-negative ids, and for an edge no self-loop.  Called
    only for a line that fails one of them."""
    parts = raw.split()
    if len(parts) != arity:
        raise DataError(
            path, line_no, f"expected {arity} vertex id(s), got {len(parts)} tokens"
        )
    try:
        ids = [int(p) for p in parts]
    except ValueError:
        raise DataError(
            path, line_no, f"non-integer vertex id in {raw.strip()!r}"
        ) from None
    if min(ids) < 0:
        raise DataError(path, line_no, "vertex ids must be non-negative")
    raise DataError(path, line_no, f"self-loop at {ids[0]} not allowed")


def read_white_list(path) -> set[int]:
    whites = set()
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
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


# The leading '#' lines of a file.  A comment line holds no character at
# which str.splitlines would end it, so both routes see the same lines.
_COMMENTS = re.compile(r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n)*")
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _plain_ends(text: str) -> list[int] | None:
    """The endpoints of text's edges, flat (u1, v1, u2, v2, ...), one int
    object per id value; None unless text is in the plain form and free
    of self-loops."""
    data = text[_COMMENTS.match(text).end():]
    tokens = data.split()
    # The data is "<ASCII digits> <ASCII digits>\n" per edge exactly when
    # it ends in '\n', reads " \n" per edge once those digits are
    # deleted, and has two tokens per edge, so that no run of digits
    # before a separator is empty.
    if data and data[-1] != "\n" or (
        data.translate(_NO_DIGITS) != " \n" * (len(tokens) // 2)
    ):
        return None
    values = list(map(int, tokens))
    one: dict[int, int] = {}  # '07' and '7' get one object
    ends = list(map(one.setdefault, values, values))
    if any(map(operator.is_, ends[0::2], ends[1::2])):
        return None  # a self-loop, which the per-line scan locates
    return ends


def _checked_ends(path, text: str) -> list[int]:
    """The endpoints of any text's edges, as _plain_ends gives them; each
    line is checked, in order, and the first that fails raises its
    DataError."""
    ids: dict[int, int] = {}
    ends = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        ends += (ids.setdefault(u, u), ids.setdefault(v, v))
    return ends


def load_graph(path, white_path=None) -> ColoredGraph:
    """Build the colored graph from an edge list plus optional sidecar.

    Every id value is one int object: each adjacency set holds the dict's
    own key objects, so a set lookup succeeds on identity.  A file in the
    form write_edge_list writes (leading '#' lines, then lines of two
    ASCII-digit ids, one space apart, each ending in a newline) and
    without self-loops is parsed in bulk; any other text goes through a
    scan that checks each line and locates the first refusal.  Both feed
    one adjacency loop: duplicate and reversed edges collapse, vertices
    enter in order of first appearance, as ``ColoredGraph.from_edges``
    adds them, and the graph equals ``from_edges`` of the file's edges."""
    text = read_text(path)
    ends = _plain_ends(text)
    if ends is None:
        ends = _checked_ends(path, text)
    adj: dict[int, set[int]] = {v: set() for v in dict.fromkeys(ends)}
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u].add(v)
        adj[v].add(u)
    g = ColoredGraph()
    g.adj = adj
    g.black.update(adj)
    g._next_id = max(adj, default=-1) + 1
    if white_path is not None:
        whites = read_white_list(white_path)
        missing = whites - adj.keys()
        if missing:
            raise DataError(
                white_path, None,
                f"white vertex {min(missing)} does not occur in {path}",
            )
        g.black -= whites
    return g


def write_edge_list(path, g: ColoredGraph) -> None:
    """Write g in the plain form: a '# n m' header, then one line "u v"
    per edge with u < v, vertex by vertex in id order and each vertex's
    larger neighbours sorted, the order of ``g.edges()``.  The lines are
    formatted straight from the adjacency, with no (u, v) tuple per
    edge.  A vertex without an edge counts in n but has no line."""
    adj = g.adj
    lines = [""]  # the header, once the edges are counted
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if v > u:
                lines.append(f"{u} {v}")
    lines[0] = f"# {len(adj)} {len(lines) - 1}"
    Path(path).write_text("\n".join(lines) + "\n")


def write_white_list(path, g: ColoredGraph) -> None:
    whites = sorted(g.white_vertices())
    lines = [f"# {len(whites)} white vertices"]
    lines.extend(str(w) for w in whites)
    Path(path).write_text("\n".join(lines) + "\n")
