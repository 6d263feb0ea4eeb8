"""Discrete + metric graph model.

A graph is stored as a vertex count and a list of undirected edges
(tail, head, length).  Edge i owns the directed-edge pair (2i, 2i+1): index 2i
runs tail -> head, index 2i+1 is its reversal.  Loops are allowed and
contribute two directed edges at the same vertex; they count twice towards the
degree.  Degree-2 vertices are rejected (standing assumption), as are
disconnected graphs and graphs with fewer than two edges.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import (
    DegreeTwoVertex,
    DisconnectedGraph,
    NonpositiveLength,
    TooFewEdges,
)


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    length: float


@dataclass(frozen=True)
class Block:
    """One 2-edge-connected block of the bridge-free part of the graph."""
    edges: tuple[int, ...]       # undirected edge indices, sorted
    vertices: tuple[int, ...]
    betti: int


@dataclass(frozen=True)
class Topology:
    betti: int
    boundary: tuple[int, ...]     # degree-1 vertices
    interior: tuple[int, ...]
    loops: tuple[int, ...]        # edge indices
    bridges: tuple[int, ...]      # edge indices
    blocks: tuple[Block, ...]     # ordered by smallest contained edge index
    families: tuple[str, ...]     # e.g. ("tree", "(3,1)-regular-tree")
    stower: tuple[int, int] | None  # (tails, loops) when single-interior-vertex


class MetricGraph:
    """Immutable after construction; construction performs full validation."""

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, float]]):
        self.V = int(vertex_count)
        self.edges = tuple(Edge(int(u), int(v), float(l)) for u, v, l in edges)
        self.E = len(self.edges)
        for i, e in enumerate(self.edges):
            if not (0 <= e.tail < self.V and 0 <= e.head < self.V):
                raise DisconnectedGraph(f"edge {i} references missing vertex")
            if not e.length > 0:
                raise NonpositiveLength(f"edge {i} has length {e.length}")
        self.lengths = tuple(e.length for e in self.edges)
        self.total_length = float(sum(self.lengths))
        self.min_length = min(self.lengths) if self.edges else 0.0

        deg = [0] * self.V
        incidence: list[list[int]] = [[] for _ in range(self.V)]
        # incidence[v] lists directed edges leaving v (loops give both of them)
        for i, e in enumerate(self.edges):
            deg[e.tail] += 1
            deg[e.head] += 1
            incidence[e.tail].append(2 * i)
            incidence[e.head].append(2 * i + 1)
        self.degrees = tuple(deg)
        self.outgoing = tuple(tuple(ds) for ds in incidence)

        self.topology = validate(self)

    # -- directed-edge helpers ------------------------------------------------

    def edge_of(self, d: int) -> int:
        return d // 2

    def reverse(self, d: int) -> int:
        return d ^ 1

    def tail_of(self, d: int) -> int:
        e = self.edges[d // 2]
        return e.tail if d % 2 == 0 else e.head

    def head_of(self, d: int) -> int:
        e = self.edges[d // 2]
        return e.head if d % 2 == 0 else e.tail

    @functools.cached_property
    def scattering(self):
        """The bond scattering matrix (`secular.bond_scattering`), built on
        first use and shared by every caller, hence read-only."""
        from .secular import bond_scattering    # secular imports this module
        S = bond_scattering(self)
        S.flags.writeable = False
        return S

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": self.V,
            "edges": [[e.tail, e.head, e.length] for e in self.edges],
        }

    @staticmethod
    def from_json(obj: dict) -> "MetricGraph":
        return MetricGraph(obj["vertices"], obj["edges"])

    def with_lengths(self, lengths: Sequence[float]) -> "MetricGraph":
        if len(lengths) != self.E:
            raise ValueError(f"expected {self.E} lengths, got {len(lengths)}")
        return MetricGraph(
            self.V, [(e.tail, e.head, l) for e, l in zip(self.edges, lengths)]
        )

    def __repr__(self) -> str:
        return f"MetricGraph(V={self.V}, E={self.E}, families={self.topology.families})"


# ---------------------------------------------------------------------------


def _connected(vertex_count: int, edges: Sequence[Edge]) -> bool:
    if vertex_count == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for e in edges:
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen = [False] * vertex_count
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def find_bridges(graph: MetricGraph) -> tuple[int, ...]:
    """Edges whose removal disconnects the graph.

    Iterative low-link DFS adapted to multigraphs: the traversal tracks the
    undirected edge it arrived on (not the parent vertex), so parallel edges
    are handled correctly; loops are never bridges.
    """
    n = graph.V
    disc = [-1] * n
    low = [0] * n
    bridges: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # stack entries: (vertex, incoming undirected edge, iterator position)
        stack = [(root, -1, iter(graph.outgoing[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for d in it:
                ei = d // 2
                if ei == in_edge or graph.edges[ei].tail == graph.edges[ei].head:
                    continue
                w = graph.head_of(d)
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, ei, iter(graph.outgoing[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append(in_edge)
    return tuple(sorted(bridges))


def edge_separation(graph: MetricGraph, bridges: tuple[int, ...] | None = None) -> tuple[Block, ...]:
    """Non-trivial connected components of the graph minus its bridges.

    Components are grown edge-by-edge with a union of vertex sets; components
    without edges (isolated vertices of the bridge-free part) are dropped.
    """
    if bridges is None:
        bridges = find_bridges(graph)
    bridge_set = set(bridges)
    parent = list(range(graph.V))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, e in enumerate(graph.edges):
        if i not in bridge_set:
            parent[find(e.tail)] = find(e.head)

    groups: dict[int, list[int]] = {}
    for i, e in enumerate(graph.edges):
        if i in bridge_set:
            continue
        groups.setdefault(find(e.tail), []).append(i)

    blocks = []
    for edge_ids in groups.values():
        verts = sorted({w for i in edge_ids for w in (graph.edges[i].tail, graph.edges[i].head)})
        betti = len(edge_ids) - len(verts) + 1
        blocks.append(Block(tuple(sorted(edge_ids)), tuple(verts), betti))
    blocks.sort(key=lambda b: b.edges[0])
    return tuple(blocks)


def classify_family(graph: MetricGraph, betti: int, interior: tuple[int, ...],
                    blocks: tuple[Block, ...]) -> tuple[tuple[str, ...], tuple[int, int] | None]:
    tags: list[str] = []
    if betti == 0:
        tags.append("tree")
        if all(graph.degrees[v] == 3 for v in interior):
            tags.append("(3,1)-regular-tree")
    elif blocks and all(b.betti == 1 for b in blocks):
        tags.append("tree-of-cycles")

    stower = None
    if len(interior) == 1:
        center = interior[0]
        tails = sum(1 for e in graph.edges if e.tail != e.head)
        loops = sum(1 for e in graph.edges if e.tail == e.head)
        if all(e.tail == e.head == center or center in (e.tail, e.head)
               for e in graph.edges):
            tags.append(f"stower({tails},{loops})")
            stower = (tails, loops)
    return tuple(tags), stower


def validate(graph: MetricGraph) -> Topology:
    if graph.E <= 1:
        raise TooFewEdges(f"E = {graph.E}; need at least 2 edges")
    for v, d in enumerate(graph.degrees):
        if d == 2:
            raise DegreeTwoVertex(f"vertex {v} has degree 2")
        if d == 0:
            raise DisconnectedGraph(f"vertex {v} is isolated")
    if not _connected(graph.V, graph.edges):
        raise DisconnectedGraph("graph is not connected")

    betti = graph.E - graph.V + 1
    boundary = tuple(v for v, d in enumerate(graph.degrees) if d == 1)
    interior = tuple(v for v, d in enumerate(graph.degrees) if d > 1)
    loops = tuple(i for i, e in enumerate(graph.edges) if e.tail == e.head)
    bridges = find_bridges(graph)
    blocks = edge_separation(graph, bridges)
    families, stower = classify_family(graph, betti, interior, blocks)
    return Topology(
        betti=betti,
        boundary=boundary,
        interior=interior,
        loops=loops,
        bridges=bridges,
        blocks=blocks,
        families=families,
        stower=stower,
    )


# ---------------------------------------------------------------------------
# graph files and builtin catalog


def load_graph(path_or_name: str | Path) -> MetricGraph:
    """Load a graph JSON file; bare names fall back to the builtin catalog."""
    p = Path(path_or_name)
    if p.suffix == ".json" and p.exists():
        with open(p) as fh:
            return MetricGraph.from_json(json.load(fh))
    name = p.stem if p.suffix == ".json" else str(path_or_name)
    try:
        data = resources.files("qgl.data").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise FileNotFoundError(f"no such graph file or builtin graph: {path_or_name}")
    return MetricGraph.from_json(json.loads(data))


def save_graph(graph: MetricGraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(graph.to_json(), fh, indent=1)
        fh.write("\n")


def loop_chain(cycles: int, lengths: Sequence[float] | None = None) -> MetricGraph:
    """Chain of `cycles` loops joined in a path by bridges (tree of cycles,
    betti = cycles).  The dumbbell is the two-cycle member."""
    if cycles < 1:
        raise ValueError("need at least one cycle")
    edges: list[tuple[int, int, float]] = []
    for v in range(cycles):
        edges.append((v, v, 1.0))
    for v in range(cycles - 1):
        edges.append((v, v + 1, 1.0))
    g = MetricGraph(cycles, edges)
    if lengths is not None:
        g = g.with_lengths(lengths)
    return g


def caterpillar_tree_31(interior: int, lengths: Sequence[float] | None = None) -> MetricGraph:
    """(3,1)-regular tree: a path of `interior` degree-3 vertices, padded with
    tails so every interior degree is exactly 3."""
    if interior < 1:
        raise ValueError("need at least one interior vertex")
    edges: list[tuple[int, int, float]] = []
    nxt = interior
    for v in range(interior - 1):
        edges.append((v, v + 1, 1.0))
    for v in range(interior):
        have = sum(1 for (a, b, _) in edges if v in (a, b))
        for _ in range(3 - have):
            edges.append((v, nxt, 1.0))
            nxt += 1
    g = MetricGraph(nxt, edges)
    if lengths is not None:
        g = g.with_lengths(lengths)
    return g
