import json
import random

import pytest

from qgl.errors import (
    DegreeTwoVertex,
    DisconnectedGraph,
    NonfiniteLength,
    NonpositiveLength,
    TooFewEdges,
)
from qgl.graphs import (
    MetricGraph,
    caterpillar_tree_31,
    find_bridges,
    load_graph,
    loop_chain,
    save_graph,
)
from conftest import random_multigraph


# ---------------------------------------------------------------------------
# validation


def test_degree_two_rejected():
    with pytest.raises(DegreeTwoVertex):
        MetricGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        MetricGraph(4, [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0),
                        (2, 3, 1.0), (2, 3, 1.0), (2, 3, 1.0)])


def test_single_edge_rejected():
    with pytest.raises(TooFewEdges):
        MetricGraph(2, [(0, 1, 1.0)])


def test_nonpositive_length_rejected():
    with pytest.raises(NonpositiveLength):
        MetricGraph(2, [(0, 1, 1.0), (0, 1, 0.0), (0, 1, 1.0)])


@pytest.mark.parametrize("lengths, edge", [
    ((1.0, float("inf"), 1.0), 1), ((1e308, 1e308, 1.0), 1), ((1.0, 1e308, 9e307), 2)])
def test_nonfinite_length_rejected(lengths, edge):
    # an infinite length, or lengths whose sum overflows, name the edge
    # at which the total length stops being finite
    with pytest.raises(NonfiniteLength, match=f"edge {edge} "):
        MetricGraph(4, [(0, v, l) for v, l in enumerate(lengths, start=1)])


def test_missing_vertex_rejected():
    with pytest.raises(DisconnectedGraph):
        MetricGraph(2, [(0, 1, 1.0), (0, 5, 1.0), (0, 1, 1.0)])


# ---------------------------------------------------------------------------
# structure of the curated graphs


def test_star3_structure(star3):
    t = star3.topology
    assert star3.V == 4 and star3.E == 3
    assert t.betti == 0
    assert t.boundary == (1, 2, 3) and t.interior == (0,)
    assert t.bridges == (0, 1, 2)
    assert "tree" in t.families and "(3,1)-regular-tree" in t.families
    assert t.stower == (3, 0)


def test_lasso_structure(lasso):
    t = lasso.topology
    assert t.betti == 1
    assert t.loops == (0,)
    assert t.bridges == (1,)
    assert len(t.blocks) == 1 and t.blocks[0].betti == 1
    assert t.stower == (1, 1)


def test_dumbbell_structure(dumbbell):
    t = dumbbell.topology
    assert t.betti == 2
    assert t.boundary == ()
    assert t.bridges == (2,)
    assert [b.betti for b in t.blocks] == [1, 1]
    assert "tree-of-cycles" in t.families


def test_k4_structure(k4):
    t = k4.topology
    assert k4.V == 4 and k4.E == 6
    assert t.betti == 3
    assert t.bridges == () and len(t.blocks) == 1
    assert t.blocks[0].betti == 3
    assert "tree-of-cycles" not in t.families


def test_tree31_structure(tree31):
    t = tree31.topology
    assert t.betti == 0
    assert all(tree31.degrees[v] == 3 for v in t.interior)
    assert len(t.interior) == 3
    assert "(3,1)-regular-tree" in t.families


def test_degrees_count_loops_twice():
    g = load_graph("flower3")
    assert g.V == 1 and g.degrees == (6,)
    assert g.topology.betti == 3
    assert g.topology.stower == (0, 3)


def test_directed_edge_helpers(lasso):
    assert lasso.reverse(0) == 1 and lasso.reverse(1) == 0
    assert lasso.edge_of(3) == 1
    e = lasso.edges[1]
    assert lasso.tail_of(2) == e.tail and lasso.head_of(2) == e.head
    assert lasso.tail_of(3) == e.head and lasso.head_of(3) == e.tail


# ---------------------------------------------------------------------------
# bridges and blocks against brute force


def _bridges_brute(graph: MetricGraph):
    def components_without(skip: int) -> int:
        parent = list(range(graph.V))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, e in enumerate(graph.edges):
            if i != skip:
                parent[find(e.tail)] = find(e.head)
        return len({find(v) for v in range(graph.V)})

    base = components_without(-1)
    return tuple(i for i in range(graph.E)
                 if graph.edges[i].tail != graph.edges[i].head
                 and components_without(i) > base)


def test_bridges_random_multigraphs():
    rng = random.Random(42)
    for _ in range(200):
        g = random_multigraph(rng)
        assert find_bridges(g) == _bridges_brute(g), g.to_json()


def test_block_betti_sums_to_graph_betti():
    rng = random.Random(7)
    for _ in range(200):
        g = random_multigraph(rng)
        assert sum(b.betti for b in g.topology.blocks) == g.topology.betti


def test_block_edges_partition_nonbridges():
    rng = random.Random(3)
    for _ in range(100):
        g = random_multigraph(rng)
        covered = sorted(i for b in g.topology.blocks for i in b.edges)
        expected = sorted(set(range(g.E)) - set(g.topology.bridges))
        assert covered == expected


# ---------------------------------------------------------------------------
# serialization and builders


def test_json_round_trip(tmp_path, dumbbell):
    path = tmp_path / "g.json"
    save_graph(dumbbell, path)
    g2 = load_graph(path)
    assert g2.to_json() == dumbbell.to_json()
    # the file is plain JSON with the documented keys
    obj = json.loads(path.read_text())
    assert set(obj) == {"vertices", "edges"}


def test_with_lengths(k4):
    g2 = k4.with_lengths([1.0] * 6)
    assert g2.lengths == (1.0,) * 6
    assert g2.topology == k4.topology
    with pytest.raises(ValueError):
        k4.with_lengths([1.0])


def test_loop_chain_builder():
    g = loop_chain(4)
    t = g.topology
    assert t.betti == 4
    assert len(t.loops) == 4 and len(t.bridges) == 3
    assert "tree-of-cycles" in t.families


def test_caterpillar_builder():
    g = caterpillar_tree_31(4)
    t = g.topology
    assert t.betti == 0
    assert len(t.interior) == 4
    assert "(3,1)-regular-tree" in t.families


def test_missing_json_path_does_not_load_a_builtin(tmp_path):
    # a .json path is a file or nothing; bare names load the catalog
    for path in (tmp_path / "k6.json", "/nonexistent/dir/k6.json"):
        with pytest.raises(FileNotFoundError):
            load_graph(path)
    assert load_graph("k6").E == 15


def test_builtin_catalog_loads():
    for name in ("star3", "flower3", "lasso", "dumbbell", "mandarin3",
                 "k4", "k6", "tree31_7", "chain2", "chain4", "chain8"):
        g = load_graph(name)
        assert g.E >= 2
