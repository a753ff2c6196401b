"""Graph loading, path words and enumeration order."""

from __future__ import annotations

import pytest

from graphfp import (
    DomainError,
    FormatError,
    concat,
    enumerate_paths,
    graph_to_json,
    load_graph,
    make_word,
    path_word,
    vertex_word,
    word_tokens,
)
from graphfp.graph import PathWord

from util import loop_power


# -- loading ----------------------------------------------------------------


def test_load_rejects_bad_shapes():
    for doc in (None, [], {"vertices": "v1"}, {"vertices": [1]}, {"vertices": ["v"], "edges": [{}]}):
        with pytest.raises(FormatError):
            load_graph(doc)


def test_load_rejects_domain_violations():
    with pytest.raises(DomainError):
        load_graph({"vertices": [], "edges": []})
    with pytest.raises(DomainError):
        load_graph(
            {
                "vertices": ["a"],
                "edges": [
                    {"id": "e", "src": "a", "dst": "a"},
                    {"id": "e", "src": "a", "dst": "a"},
                ],
            }
        )
    with pytest.raises(DomainError):
        load_graph({"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "b"}]})
    # An edge id may not shadow a vertex id.
    with pytest.raises(DomainError):
        load_graph({"vertices": ["a"], "edges": [{"id": "a", "src": "a", "dst": "a"}]})


def test_json_round_trip(h):
    assert load_graph(graph_to_json(h)) == h


# -- words ------------------------------------------------------------------


def test_vertex_word_properties(h):
    w = vertex_word(h, "v1")
    assert w.is_vertex and w.length == 0
    assert w.source == w.target == "v1"
    assert not w.is_loop


def test_path_admissibility(h):
    w = path_word(h, ["e1", "e2"])
    assert (w.source, w.target, w.length) == ("v1", "v1", 2)
    assert w.is_loop
    with pytest.raises(DomainError):
        path_word(h, ["e1", "e1"])
    with pytest.raises(DomainError):
        path_word(h, ["nope"])
    with pytest.raises(DomainError):
        vertex_word(h, "nope")


def test_make_word_prefers_vertex_token(h):
    assert make_word(h, ["v2"]).is_vertex
    assert not make_word(h, ["e1"]).is_vertex
    with pytest.raises(FormatError):
        make_word(h, [])


def test_word_tokens_round_trip(h):
    for w in enumerate_paths(h, 3):
        assert make_word(h, word_tokens(w)) == w


def test_concat_is_partial(h):
    e1, e2 = path_word(h, ["e1"]), path_word(h, ["e2"])
    assert concat(e1, e2) == path_word(h, ["e1", "e2"])
    assert concat(e1, e1) is None
    assert concat(vertex_word(h, "v1"), e1) == e1
    assert concat(e1, vertex_word(h, "v2")) == e1
    assert concat(e1, vertex_word(h, "v1")) is None


def test_malformed_words_are_refused(h, fork):
    with pytest.raises(DomainError, match="a word is a vertex or an edge sequence, not both"):
        PathWord(h, "v1", ("e1",))
    with pytest.raises(DomainError, match="empty edge sequence"):
        path_word(h, [])
    with pytest.raises(DomainError, match="words come from different graphs"):
        concat(path_word(h, ["e1"]), path_word(fork, ["p"]))


def test_concat_associativity_where_defined(h, tri):
    for g in (h, tri):
        words = enumerate_paths(g, 2)
        for a in words:
            for b in words:
                for c in words:
                    ab = concat(a, b)
                    bc = concat(b, c)
                    left = concat(ab, c) if ab is not None else None
                    right = concat(a, bc) if bc is not None else None
                    if left is not None and right is not None:
                        assert left == right


def test_loop_power(h):
    l = path_word(h, ["e1", "e2"])
    assert loop_power(l, 1) == l
    assert loop_power(l, 3) == path_word(h, ["e1", "e2"] * 3)
    with pytest.raises(DomainError):
        loop_power(path_word(h, ["e1"]), 2)
    with pytest.raises(DomainError):
        loop_power(l, 0)


# -- enumeration ------------------------------------------------------------


def test_enumerate_paths_on_h(h):
    got = [str(w) for w in enumerate_paths(h, 2)]
    assert got == ["v1", "v2", "e1", "e2", "e1 e2", "e2 e1"]


def test_enumerate_paths_order_contract(tri):
    words = enumerate_paths(tri, 3)
    n_vertices = len(tri.vertices)
    assert [w.vertex for w in words[:n_vertices]] == sorted(tri.vertices)
    rest = words[n_vertices:]
    keys = [(w.length, tuple(w.edges)) for w in rest]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_enumerate_paths_counts_match_walk_matrix(tri):
    # Independent count: paths of length k = sum of entries of A^k where
    # A[i][j] = number of edges i -> j.
    idx = {v: i for i, v in enumerate(tri.vertices)}
    n = len(tri.vertices)
    a = [[0] * n for _ in range(n)]
    for e in tri.edges:
        a[idx[e.src]][idx[e.dst]] += 1
    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    expected = n  # the vertex words
    for _ in range(4):
        power = matmul(power, a)
        expected += sum(sum(row) for row in power)
    assert len(enumerate_paths(tri, 4)) == expected

