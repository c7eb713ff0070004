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

    def test_wrong_token_count_reports_the_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2 3\n")
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(p)
        assert exc.value.line_no == 2
        assert str(p) in str(exc.value)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("a b\n")
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(p)
        assert exc.value.line_no == 1

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 -1\n")
        with pytest.raises(EdgeListError):
            read_edge_list(p)

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

    def test_one_id_per_line(self, tmp_path):
        p = tmp_path / "g.white"
        p.write_text("1 3\n")
        with pytest.raises(EdgeListError) as exc:
            read_white_list(p)
        assert exc.value.line_no == 1

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "g.white"
        p.write_text("x\n")
        with pytest.raises(EdgeListError):
            read_white_list(p)

    def test_negative_id_reports_the_line(self, tmp_path):
        p = tmp_path / "g.white"
        p.write_text("# 2 white vertices\n1\n-3\n")
        with pytest.raises(EdgeListError, match="non-negative") as exc:
            read_white_list(p)
        assert exc.value.line_no == 3
        assert f"{p}:3" in str(exc.value)


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
        w.write_text("7\n")
        with pytest.raises(EdgeListError) as exc:
            load_graph(e, w)
        assert "7" in str(exc.value)


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
        assert load_graph(p).vertices() == [0, 1]
