"""Each vertex id is one int object: every member of every adjacency set
is the dict's own key object, after each way a graph is built, loaded,
copied or rewritten."""

import pytest

from domkernel.edgelist import load_graph, write_edge_list
from domkernel.engine import ApproachConfig, kernelize
from domkernel.graph import ColoredGraph, Instance
from domkernel.plangen import GroupSpec, generate_instance

from helpers import assert_interned, both_cover_graph

SPEC = GroupSpec(2002, 6000)


def written(tmp_path, g: ColoredGraph, shift: int = 0):
    """The file write_edge_list writes for g with every id moved by shift."""
    p = tmp_path / "g.edges"
    write_edge_list(p, ColoredGraph.from_edges(
        (u + shift, v + shift) for u, v in g.edges()))
    return p


def loaded(tmp_path, text: str):
    p = tmp_path / "g.edges"
    p.write_text(text)
    return load_graph(p)


BUILDS = {
    "generate_instance": lambda tmp_path: generate_instance(SPEC, 0, 0),
    # an unthinned group, which keeps every vertex of its triangulation
    "random_maximal_planar": lambda tmp_path: generate_instance(
        GroupSpec(600, 1794), 0, 1),
    "load-canonical-file": lambda tmp_path: load_graph(
        written(tmp_path, generate_instance(SPEC, 0, 0))),
    # test_edgelist's signs-and-underscores case with its ids above 256
    "load-signs-and-underscores": lambda tmp_path: loaded(
        tmp_path, "+1002 -0\n1_010 1003\n1010 +1002\n"),
    "load-leading-zeros": lambda tmp_path: loaded(
        tmp_path, "# 3 3\n1000 0300\n300 01000\n1000 2000\n"),
    "Instance.copy": lambda tmp_path: Instance.from_graph(load_graph(
        written(tmp_path, generate_instance(SPEC, 0, 0)))).copy().graph,
}


@pytest.mark.parametrize("build", BUILDS)
def test_every_neighbour_is_its_key_object(tmp_path, build):
    g = BUILDS[build](tmp_path)
    assert any(v > 256 for v in g.adj)  # CPython shares the ints up to 256
    assert_interned(g)


def test_a_pair_gadget_firing_keeps_one_object_per_id(tmp_path):
    inst = Instance.from_graph(load_graph(written(tmp_path, both_cover_graph(9), 1000)))
    kernelize(inst, ApproachConfig.from_name("off.both"))
    assert inst.stats["alber_pair_gadget"] == 1
    assert {1011, 1012} <= inst.graph.adj.keys()
    assert_interned(inst.graph)
