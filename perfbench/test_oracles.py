"""Tests of the benchmark's oracles: ``python3 -m pytest perfbench``.

Each oracle is checked against known closed forms and against deliberately
wrong values, which it must reject.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import oracles
from workloads import GRAPHS, terms

H, C3, SELFLOOPS, TRI = GRAPHS["h"], GRAPHS["c3"], GRAPHS["selfloops"], GRAPHS["tri"]
LOOP = terms("e1 e2 ±")  # L[e1 e2] + L*[e1 e2] on h


def arcsine_moments(order):
    """m_n of u + u* for a Haar unitary: C(2m, m) at n = 2m, zero when odd."""
    return [0 if n % 2 else math.comb(n, n // 2) for n in range(1, order + 1)]


def catalan_moments(order):
    return [0 if n % 2 else math.comb(n, n // 2) // (n // 2 + 1) for n in range(1, order + 1)]


def test_arcsine_closed_form_is_the_first_block_solution():
    assert oracles.arcsine_cumulants(10) == [0, 2, 0, -2, 0, 4, 0, -10, 0, 28]
    assert oracles.first_block_cumulants(arcsine_moments(12)) == oracles.arcsine_cumulants(12)


def test_first_block_solver_on_semicircle_and_point_mass():
    assert oracles.first_block_cumulants(catalan_moments(10)) == [0, 1] + [0] * 8
    # A point mass at 3: every cumulant but the first vanishes.
    assert oracles.first_block_cumulants([3**n for n in range(1, 8)]) == [3] + [0] * 6
    assert oracles.first_block_cumulants([Fraction(1, 2), Fraction(1, 4)]) == [Fraction(1, 2), 0]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_first_block_solver_rejects_a_wrong_moment(n):
    moments = arcsine_moments(6)
    moments[n - 1] += 1
    ks = oracles.first_block_cumulants(moments)
    assert ks != oracles.arcsine_cumulants(6)
    # The error shows first at order n and only there among orders <= n.
    assert ks[: n - 1] == oracles.arcsine_cumulants(n - 1)
    assert ks[n - 1] == oracles.arcsine_cumulants(n)[-1] + 1


def test_loop_variable_moments_are_central_binomials():
    want = [{"v1": Fraction(m)} if m else {} for m in arcsine_moments(12)]
    assert oracles.laurent_moments(H, LOOP, 12) == want
    assert oracles.ck_moments(H, LOOP, 12) == want
    # The vertex v2 sees the loop e2 e1 only, which the variable lacks.
    assert all("v2" not in m for m in want)


def test_moment_models_reject_a_dropped_or_altered_term():
    x = terms("v1; e1 e2; e1 e2 *; e1 e2 e1 e2 *; e1")
    good = oracles.laurent_moments(H, x, 10)
    assert oracles.laurent_moments(H, x[:1] + x[2:], 10) != good
    altered = [(w, s, c * 2 if w == ("e1", "e2") else c) for w, s, c in x]
    assert oracles.laurent_moments(H, altered, 10) != good
    assert oracles.ck_moments(H, altered, 10) != oracles.ck_moments(H, x, 10)


@pytest.mark.parametrize(
    "graph, template",
    [
        (H, "v1; e1 e2; e1 e2 *; e1 e2 e1 e2 *; e1"),
        (H, "v2 ; e2 ; e1 * ; e2 e1 e2"),
        (C3, "p; f1 f2 f3; f1 f2 f3 *; f1 f2 f3 f1 f2 f3; f1"),
        (C3, "q; f2 f3 *; f3 f1 f2 ±"),
        (SELFLOOPS, "u; f; f *; f f *; g"),
    ],
)
def test_laurent_model_agrees_with_ck_reduction_on_cycle_graphs(graph, template):
    x = terms(template)
    x = [(w, s, c * (i + 1)) for i, (w, s, c) in enumerate(x)]
    assert oracles.laurent_moments(graph, x, 9) == oracles.ck_moments(graph, x, 9)


def test_laurent_model_refuses_a_branching_graph():
    assert oracles.is_cycle_graph(H) and not oracles.is_cycle_graph(TRI)
    with pytest.raises(ValueError):
        oracles.laurent_moments(TRI, terms("sx ±"), 4)


def test_ck_reduction_collapses_at_the_source():
    # L[sx] L*[sx] = L[x] under the CK rule, so E((L[sx] L*[sx])^k) = 1 at x,
    # while L*[sx] L[a] = 0 (different first edges).
    assert oracles.ck_moments(TRI, terms("sx"), 2) == [{}, {}]
    x = terms("sx; sx *")
    assert oracles.ck_moments(TRI, x, 2)[1] == {"x": 2}
    assert oracles.ck_moments(TRI, terms("sx *; a"), 2)[1] == {}


def test_compression_keeps_vertex_terms_and_loops_at_the_chosen_vertices():
    x = terms("v1; v2; e1 e2; e2 e1 *; e1")
    assert oracles.compress(H, x, ["v1"]) == [x[0], x[2]]
    assert oracles.compress(H, x, ["v1", "v2"]) == x[:4]


def test_self_adjointness_and_diagram_distinctness():
    assert oracles.is_self_adjoint(H, terms("v1; e1 e2 ±"))
    assert not oracles.is_self_adjoint(H, [(("e1", "e2"), False, 1), (("e1", "e2"), True, 2)])
    assert oracles.diagram_distinct(H, terms("e1 e2 ±"), terms("e2 e1 ±"))
    # A loop and its square share the primitive root.
    assert not oracles.diagram_distinct(H, terms("e1 e2"), terms("e1 e2 e1 e2 *"))
    assert not oracles.diagram_distinct(H, terms("e1"), terms("v2; e1 *"))
