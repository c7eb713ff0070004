"""Edge-list and white-sidecar parsing, writing, and error positions."""

import pytest

from domkernel.edgelist import (
    EdgeListError,
    load_graph,
    read_edge_list,
    read_white_list,
    write_edge_list,
    write_white_list,
)

from helpers import path_graph, star_graph


class TestReadEdgeList:
    def test_plain_pairs(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        assert read_edge_list(p) == [(0, 1), (1, 2)]

    def test_comments_blanks_and_header_ignored(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# 3 2\n\n0 1\n   \n# trailing note\n1 2\n")
        assert read_edge_list(p) == [(0, 1), (1, 2)]

    def test_duplicates_tolerated_and_collapsed(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 0\n0 1\n")
        g = load_graph(p)
        assert g.edge_count == 1

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n2 2\n")
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(p)
        assert exc.value.line_no == 2

    def test_error_is_a_value_error(self):
        assert issubclass(EdgeListError, ValueError)


class TestWhiteList:
    def test_roundtrip(self, tmp_path):
        g = path_graph(4, white=[1, 3])
        p = tmp_path / "g.white"
        write_white_list(p, g)
        assert read_white_list(p) == {1, 3}


# Both readers share one id-line decoder.  Per case: an edge list, a white
# list, the line both are refused at, and a fragment of the message.
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
@pytest.mark.parametrize("reader", [read_edge_list, read_white_list],
                         ids=["edges", "whites"])
def test_malformed_line_is_refused_with_its_position(tmp_path, reader, case):
    edges, whites, line_no, what = MALFORMED[case]
    p = tmp_path / "ids.txt"
    p.write_text(edges if reader is read_edge_list else whites)
    with pytest.raises(EdgeListError, match=what) as exc:
        reader(p)
    assert exc.value.line_no == line_no
    assert f"{p}:{line_no}: " in str(exc.value)


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
        with pytest.raises(EdgeListError) as exc:
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
