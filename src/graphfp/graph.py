"""Directed multigraphs and their admissible path words.

A word is either a single vertex (the unit at that vertex) or a nonempty
sequence of edges in which the target of each edge equals the source of the
next.  Concatenation is partial: ``w1 . w2`` exists only when the target of
``w1`` equals the source of ``w2``, and vertices act as left/right units.
All values in this module are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, FormatError

__all__ = [
    "Edge",
    "Graph",
    "PathWord",
    "load_graph",
    "graph_to_json",
    "vertex_word",
    "path_word",
    "make_word",
    "word_tokens",
    "concat",
    "enumerate_paths",
]


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    """A finite directed multigraph with string-identified vertices and edges.

    Vertex and edge identifiers live in one shared namespace so that word
    tokens are unambiguous.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _edge_map: dict = field(init=False, repr=False, compare=False)
    _out: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vertices:
            raise DomainError("graph needs at least one vertex")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise DomainError("duplicate vertex id")
        edge_map: dict[str, Edge] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.id in edge_map:
                raise DomainError(f"duplicate edge id {e.id!r}")
            if e.id in vset:
                raise DomainError(f"id {e.id!r} used for both a vertex and an edge")
            if e.src not in vset or e.dst not in vset:
                raise DomainError(f"edge {e.id!r} has a dangling endpoint")
            edge_map[e.id] = e
            out[e.src].append(e)
        object.__setattr__(self, "_edge_map", edge_map)
        object.__setattr__(self, "_out", out)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise DomainError(f"unknown edge id {edge_id!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return tuple(self._out[v])

    def require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise DomainError(f"unknown vertex id {v!r}")


def load_graph(data) -> Graph:
    """Build a Graph from its JSON object form.

    Shape: ``{"vertices": [str, ...], "edges": [{"id", "src", "dst"}, ...]}``.
    Shape violations raise FormatError; constraint violations (duplicate ids,
    dangling endpoints, empty vertex set) raise DomainError.
    """
    if not isinstance(data, dict):
        raise FormatError("graph document must be a JSON object")
    vertices = data.get("vertices")
    edges = data.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("graph 'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise FormatError("graph 'edges' must be a list")
    built = []
    for item in edges:
        if not isinstance(item, dict) or not {"id", "src", "dst"} <= set(item):
            raise FormatError(f"bad edge object: {item!r}")
        if not all(isinstance(item[k], str) for k in ("id", "src", "dst")):
            raise FormatError(f"edge fields must be strings: {item!r}")
        built.append(Edge(item["id"], item["src"], item["dst"]))
    return Graph(tuple(vertices), tuple(built))


def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
    }


@dataclass(frozen=True)
class PathWord:
    """A vertex (unit word) or an admissible nonempty edge sequence.

    Equality and hashing ignore the graph reference: words are compared by
    content.  Operations that combine words check they live over one graph.
    """

    graph: Graph = field(repr=False, compare=False)
    vertex: str | None
    edges: tuple[str, ...]

    def __post_init__(self):
        if self.vertex is not None:
            if self.edges:
                raise DomainError("a word is a vertex or an edge sequence, not both")
            self.graph.require_vertex(self.vertex)
            return
        if not self.edges:
            raise DomainError("empty edge sequence; use a vertex word for the unit")
        prev = None
        for eid in self.edges:
            e = self.graph.edge(eid)
            if prev is not None and prev.dst != e.src:
                raise DomainError(
                    f"inadmissible word: {prev.id!r} ends at {prev.dst!r} "
                    f"but {e.id!r} starts at {e.src!r}"
                )
            prev = e

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> str:
        if self.vertex is not None:
            return self.vertex
        return self.graph.edge(self.edges[0]).src

    @property
    def target(self) -> str:
        if self.vertex is not None:
            return self.vertex
        return self.graph.edge(self.edges[-1]).dst

    @property
    def is_loop(self) -> bool:
        return not self.is_vertex and self.source == self.target

    def __str__(self) -> str:
        return " ".join(word_tokens(self))


def vertex_word(graph: Graph, v: str) -> PathWord:
    return PathWord(graph, v, ())


def path_word(graph: Graph, edge_ids: Sequence[str]) -> PathWord:
    return PathWord(graph, None, tuple(edge_ids))


def make_word(graph: Graph, tokens: Sequence[str]) -> PathWord:
    """Build a word from identifier tokens: one vertex id, or edge ids."""
    if len(tokens) == 0:
        raise FormatError("empty word")
    if len(tokens) == 1 and tokens[0] in set(graph.vertices):
        return vertex_word(graph, tokens[0])
    return path_word(graph, tokens)


def word_tokens(word: PathWord) -> list[str]:
    return [word.vertex] if word.is_vertex else list(word.edges)


def _same_graph(w1: PathWord, w2: PathWord) -> None:
    if w1.graph is not w2.graph and w1.graph != w2.graph:
        raise DomainError("words come from different graphs")


def concat(w1: PathWord, w2: PathWord) -> PathWord | None:
    """Concatenate two words, or return None when the junction mismatches."""
    _same_graph(w1, w2)
    if w1.target != w2.source:
        return None
    if w1.is_vertex:
        return w2
    if w2.is_vertex:
        return w1
    # Both halves are admissible and the junction matches, so the joined
    # word needs no edge-by-edge check.
    word = object.__new__(PathWord)
    object.__setattr__(word, "graph", w1.graph)
    object.__setattr__(word, "vertex", None)
    object.__setattr__(word, "edges", w1.edges + w2.edges)
    return word


def enumerate_paths(graph: Graph, max_len: int) -> list[PathWord]:
    """All words of length <= max_len: vertices first (sorted by id), then
    paths by length and lexicographic edge-id sequence."""
    if max_len < 0:
        raise DomainError(f"max_len must be >= 0, got {max_len}")
    out: list[PathWord] = [vertex_word(graph, v) for v in sorted(graph.vertices)]
    frontier: list[tuple[str, ...]] = [()]
    for length in range(1, max_len + 1):
        grown: list[tuple[str, ...]] = []
        for seq in frontier:
            if seq:
                tail = graph.edge(seq[-1]).dst
                nexts = graph.out_edges(tail)
            else:
                nexts = graph.edges
            for e in nexts:
                grown.append(seq + (e.id,))
        grown.sort()
        out.extend(path_word(graph, seq) for seq in grown)
        frontier = grown
    return out

