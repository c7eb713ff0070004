"""Edge-list and white-sidecar parsing, writing, and error positions."""

import random
from collections import Counter

import pytest

from domkernel.edgelist import (
    DataError,
    _plain_ends,
    load_graph,
    read_white_list,
    write_edge_list,
    write_white_list,
)
from domkernel.engine import ApproachConfig, kernelize
from domkernel.graph import ColoredGraph, Instance
from domkernel.plangen import canonical_groups, generate_instance

from helpers import (
    assert_interned,
    both_cover_graph,
    colored,
    golden_load_graph,
    golden_write_edge_list,
    mixed_instance_stream,
    path_graph,
    star_graph,
)


class TestReadEdgeList:
    """What load_graph reads from an edge list."""

    def test_plain_pairs(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        assert load_graph(p).edges() == [(0, 1), (1, 2)]

    def test_comments_blanks_and_header_ignored(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# 3 2\n\n0 1\n   \n# trailing note\n1 2\n")
        assert load_graph(p).edges() == [(0, 1), (1, 2)]

    def test_duplicates_tolerated_and_collapsed(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 0\n0 1\n")
        g = load_graph(p)
        assert g.edge_count == 1

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n2 2\n")
        with pytest.raises(DataError, match="self-loop at 2 not allowed") as exc:
            load_graph(p)
        assert exc.value.line_no == 2

    def test_error_is_a_value_error(self):
        assert issubclass(DataError, ValueError)


class TestWhiteList:
    def test_roundtrip(self, tmp_path):
        g = path_graph(4, white=[1, 3])
        p = tmp_path / "g.white"
        write_white_list(p, g)
        assert read_white_list(p) == {1, 3}


# The edge loader and the white-list reader check each line alike.  Per
# case: an edge list, a white list, the line both are refused at, and a
# fragment of the message.
MALFORMED = {
    "wrong-token-count": ("0 1\n1 2 3\n", "1\n1 3\n", 2, "vertex id"),
    "non-integer-id": ("a b\n", "x\n", 1, "non-integer"),
    "negative-id": ("0 -1\n", "-3\n", 1, "non-negative"),
    "after-comments-and-blanks": (
        "# 3 2\n\n0 1\n   \n# note\n1 -2\n",
        "# 2 white vertices\n\n1\n   \n# note\n-3\n",
        6,
        "non-negative",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("reader", [load_graph, read_white_list],
                         ids=["edges", "whites"])
def test_malformed_line_is_refused_with_its_position(tmp_path, reader, case):
    edges, whites, line_no, what = MALFORMED[case]
    p = tmp_path / "ids.txt"
    p.write_text(edges if reader is load_graph else whites)
    with pytest.raises(DataError, match=what) as exc:
        reader(p)
    assert exc.value.line_no == line_no
    assert f"{p}:{line_no}: " in str(exc.value)


def assert_same_graph(g, ref):
    assert list(g.adj) == list(ref.adj)
    assert g.adj == ref.adj
    assert g.black == ref.black
    assert g._next_id == ref._next_id


# Per case: an edge list as written, and the edges it names.
SAME_GRAPH = {
    "duplicate-and-reversed": ("3 1\n1 3\n0 1\n3 1\n1 0\n",
                               [(3, 1), (1, 3), (0, 1), (3, 1), (1, 0)]),
    "comments-blanks-tabs-crlf": ("# 3 2\r\n\r\n5\t1\r\n  \t\r\n# note\r\n1 \t 0\r\n",
                                  [(5, 1), (1, 0)]),
    # Pins today's int() parsing: '1_0' and '10' name one vertex.
    "signs-and-underscores": ("+2 -0\n1_0 3\n10 +2\n",
                              [(2, 0), (10, 3), (10, 2)]),
}


@pytest.mark.parametrize("case", SAME_GRAPH)
def test_load_graph_equals_from_edges(tmp_path, case):
    text, edges = SAME_GRAPH[case]
    p = tmp_path / "g.edges"
    p.write_bytes(text.encode())
    assert_same_graph(load_graph(p), ColoredGraph.from_edges(edges))


@pytest.mark.parametrize("spec", canonical_groups(1), ids=lambda spec: spec.name)
def test_load_graph_equals_from_edges_on_canonical_files(tmp_path, spec):
    g = generate_instance(spec, 0, 0)
    p = tmp_path / "g.edges"
    write_edge_list(p, g)  # one line per edge of g.edges(), in order
    assert_same_graph(load_graph(p), ColoredGraph.from_edges(g.edges()))


class TestLoadGraph:
    def test_defaults_to_all_black(self, tmp_path):
        p = tmp_path / "g.edges"
        write_edge_list(p, path_graph(3))
        g = load_graph(p)
        assert g.black == {0, 1, 2}

    def test_sidecar_colors_whites(self, tmp_path):
        source = star_graph(3, white=[2])
        e = tmp_path / "g.edges"
        w = tmp_path / "g.white"
        write_edge_list(e, source)
        write_white_list(w, source)
        g = load_graph(e, w)
        assert g.white_vertices() == {2}
        assert g.edges() == source.edges()

    def test_unknown_white_vertex_rejected(self, tmp_path):
        e = tmp_path / "g.edges"
        w = tmp_path / "g.white"
        write_edge_list(e, path_graph(3))
        w.write_text("9\n1\n7\n")
        with pytest.raises(DataError) as exc:
            load_graph(e, w)
        assert f"white vertex 7 does not occur in {e}" in str(exc.value)


class TestWriteEdgeList:
    def test_header_and_sorted_edges(self, tmp_path):
        p = tmp_path / "g.edges"
        write_edge_list(p, star_graph(3))
        assert p.read_text() == "# 4 3\n0 1\n0 2\n0 3\n"

    def test_roundtrip_preserves_structure(self, tmp_path):
        g = path_graph(6)
        g.remove_edge(2, 3)
        p = tmp_path / "g.edges"
        write_edge_list(p, g)
        back = load_graph(p)
        assert back.edges() == g.edges()

    def test_isolated_vertices_are_not_representable(self, tmp_path):
        g = path_graph(2)
        g.add_vertex(9)
        p = tmp_path / "g.edges"
        write_edge_list(p, g)
        assert sorted(load_graph(p).adj) == [0, 1]


# -- the loader against the per-line loader it replaced ------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Each form writes one data line u v in a way the plain form does not
# allow (or, for "leading-zeros", does), and reads as the edge u v.
FORMS = {
    "tab": lambda u, v: f"{u}\t{v}",
    "plus-sign": lambda u, v: f"+{u} {v}",
    "underscore": lambda u, v: f"{u}_0 {v}" if u else f"0_0 {v}",
    "arabic-indic": lambda u, v: f"{u} {v}".translate(ARABIC_INDIC),
    "trailing-spaces": lambda u, v: f"{u} {v}  ",
    "leading-space": lambda u, v: f" {u} {v}",
    "two-spaces": lambda u, v: f"{u}  {v}",
    "leading-zeros": lambda u, v: f"00{u} {v}",
    "minus-zero": lambda u, v: f"{u} -0" if v == 0 else f"{u} {v}",
}
# Lines that are no edge but that the loaders skip.
SKIPPED = {
    "comment-after-data": "# note",
    "blank": "",
    "spaces-only": "   ",
    "indented-comment": "  # note 1 2",
}
# Lines that the loaders refuse.
REFUSED = {
    "one-token": lambda u, v: f"{u}",
    "three-tokens": lambda u, v: f"{u} {v} {u}",
    "non-integer": lambda u, v: f"{u} x{v}",
    "fraction": lambda u, v: f"{u}.5 {v}",
    "negative": lambda u, v: f"-{u + 1} {v}",
    "self-loop": lambda u, v: f"{u} {u}",
    "self-loop-by-value": lambda u, v: f"{u} 0{u}",
}


def edge_list_texts(seed: int, count: int):
    """Yield (text, forms): edge lists of small and large ids, about a
    third in the plain form, the rest carrying one to three of FORMS,
    SKIPPED lines, CRLF endings, a comment line that a vertical tab
    splits, or no final newline; about a quarter also with one REFUSED
    line.  forms names what each carries."""
    rng = random.Random(seed)
    for _ in range(count):
        ids = range(rng.choice([6, 40, 300, 5000]))
        edges = [rng.sample(ids, 2) for _ in range(rng.randrange(0, 30))]
        lines = [f"{u} {v}" for u, v in edges]
        forms = set()
        kinds = [] if rng.random() < 0.35 else rng.choices(
            ["form", "skipped", "crlf", "vt", "no-newline"], k=rng.randint(1, 3))
        for kind in sorted(kinds):  # every "form" before any insertion
            if kind == "form" and lines:
                name = rng.choice(sorted(FORMS))
                i = rng.randrange(len(edges))
                lines[i] = FORMS[name](*edges[i])
                forms.add(name)
            elif kind == "skipped":
                name = rng.choice(sorted(SKIPPED))
                lines.insert(rng.randrange(len(lines) + 1), SKIPPED[name])
                forms.add(name)
            elif kind != "form":
                forms.add(kind)
        if rng.random() < 0.25:
            name = rng.choice(sorted(REFUSED))
            lines.insert(rng.randrange(len(lines) + 1),
                         REFUSED[name](*rng.sample(ids, 2)))
            forms.add(name)
        header = [f"# {len(ids)} {len(edges)}"] if rng.random() < 0.8 else []
        if "vt" in forms:
            header.append(f"# split\x0b{rng.choice(ids)} {len(ids)}")
        end = "\r\n" if "crlf" in forms else "\n"
        text = "".join(line + end for line in header + lines)
        if "no-newline" in forms:
            text = text.rstrip("\r\n")
        yield text, forms


def loaded_or_refused(loader, path):
    try:
        g = loader(path)
    except DataError as exc:
        return "refused", exc.line_no, str(exc)
    return list(g.adj), g.adj, g.black, g._next_id


def test_load_graph_matches_the_per_line_loader(tmp_path):
    p = tmp_path / "g.edges"
    seen = Counter()
    for text, forms in edge_list_texts(26, 1500):
        p.write_bytes(text.encode())
        got = loaded_or_refused(load_graph, p)
        assert got == loaded_or_refused(golden_load_graph, p), (text, forms)
        refused = got[0] == "refused"
        if not refused:
            assert_interned(load_graph(p))
        route = "bulk" if _plain_ends(p.read_text()) is not None else "checked"
        seen.update([route, "refused" if refused else "loaded"])
        seen.update(f"{route}:{form}" for form in forms)
    assert seen["bulk"] >= 300 and seen["checked"] >= 300 and seen["refused"] >= 300
    names = [*FORMS, *SKIPPED, *REFUSED, "crlf", "vt", "no-newline"]
    assert all(seen[f"checked:{name}"] for name in names if name != "leading-zeros")
    # read_text turns CRLF into '\n', and leading zeros are plain.
    assert seen["bulk:crlf"] and seen["bulk:leading-zeros"]
    # A self-loop in plain text leaves the bulk route to be located.
    assert not seen["bulk:self-loop"] and not seen["bulk:self-loop-by-value"]


# Texts one step from the plain form, each read alike by both loaders.
NEAR_PLAIN = {
    "one-token-line-and-no-final-newline": "1 \n2 3\n4",
    "no-final-newline": "1 2\n3 4",
    "vertical-tab-in-a-comment": "# 2 1\x0b5 6\n1 2\n",
    "form-feed-in-a-comment": "# 2 1\x0c5 5\n1 2\n",
    "line-separator-in-a-comment": "# 2 1\u20285 6\n1 2\n",
    "comment-without-newline": "# 0 0",
    "blank-line": "1 2\n\n",
    "space-line": " \n",
    "digits-after-the-last-newline": "1 2\n3",
    "self-loop": "1000 2000\n2000 2000\n",
    "self-loop-by-value": "1000 2000\n2000 02000\n",
    "empty": "",
}


@pytest.mark.parametrize("case", NEAR_PLAIN)
def test_near_plain_text_matches_the_per_line_loader(tmp_path, case):
    p = tmp_path / "g.edges"
    p.write_text(NEAR_PLAIN[case])
    assert loaded_or_refused(load_graph, p) == loaded_or_refused(golden_load_graph, p)


def gadget_kernel() -> ColoredGraph:
    """The off.both kernel of both_cover_graph(9): the pair rule's gadget
    gives it vertices with fresh ids."""
    inst = Instance.from_graph(both_cover_graph(9))
    kernelize(inst, ApproachConfig.from_name("off.both"))
    assert inst.stats["alber_pair_gadget"] == 1
    return inst.graph


# Per case: the graphs written, each by both writers.
WRITTEN = {
    "canonical": lambda: [generate_instance(canonical_groups(1)[3], 0, 0)],
    "empty": lambda: [ColoredGraph()],
    "gadget-kernel": lambda: [gadget_kernel()],
    # The header counts the isolated vertex 9, which has no line.
    "id-gaps-and-isolated": lambda: [
        colored([(40, 7), (7, 1000), (3, 40), (1000, 3), (12, 5)], isolated=[9])],
    "mixed-stream": lambda: list(mixed_instance_stream(33, 200, 24)),
}


@pytest.mark.parametrize("graph", ["canonical", "empty", "gadget-kernel"])
def test_write_edge_list_writes_the_plain_form(tmp_path, graph):
    (g,) = WRITTEN[graph]()
    p = tmp_path / "g.edges"
    write_edge_list(p, g)
    assert _plain_ends(p.read_text()) is not None
    assert load_graph(p).edges() == g.edges()


@pytest.mark.parametrize("graph", WRITTEN)
def test_write_edge_list_matches_the_edges_writer(tmp_path, graph):
    """The writer that formats from the adjacency writes the bytes of the
    one that listed g.edges()."""
    p, ref = tmp_path / "g.edges", tmp_path / "ref.edges"
    for g in WRITTEN[graph]():
        write_edge_list(p, g)
        golden_write_edge_list(ref, g)
        assert p.read_bytes() == ref.read_bytes()
