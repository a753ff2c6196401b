"""Vertex and diagonal compressions and their scalar series.

The support law (compression keeps exactly the v0 vertex term and the loops
based at v0) is checked against the projection sandwich computed by the
element algebra, and the loop moment series against a balanced-sign count.
The R-series, solved from the moment series by the scalar recursion, is
checked against the D-valued NC(n) cumulant and the scalar NC(n) sum, and
the paper's main theorem (freeness over D survives compression) is a
random property.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfp import (
    DiagonalElement,
    DomainError,
    ExactComplex,
    RandomVariable,
    annihilation,
    compress_vertex,
    compressed_moment_series,
    compressed_r_transform,
    creation,
    diagonal_compress,
    enumerate_paths,
    load_graph,
    mixed_cumulants_vanish,
    moment,
    multiply,
    path_word,
    to_general,
    trivial_cumulant,
    variable_from_json,
    vertex_word,
)

from util import (
    balanced_sign_count,
    branching_graphs,
    ck_moments_by_words,
    diagonal_part,
    random_variable,
    scalar_cumulants_from_moments,
)


def _c(g, *edges):
    return creation(path_word(g, list(edges)))


def _a(g, *edges):
    return annihilation(path_word(g, list(edges)))


def _var(letter) -> RandomVariable:
    return RandomVariable.from_letter(letter)


@pytest.fixture(scope="module")
def sampler(h):
    # 1/2 L[v1] + L[e1] + L[l] + L*[l] + 3 L[e2 e1]: one vertex term, one
    # non-loop path, a loop pair at v1 and a loop at v2.
    return RandomVariable(
        h,
        [
            ((vertex_word(h, "v1"), False), Fraction(1, 2)),
            ((path_word(h, ["e1"]), False), 1),
            ((path_word(h, ["e1", "e2"]), False), 1),
            ((path_word(h, ["e1", "e2"]), True), 1),
            ((path_word(h, ["e2", "e1"]), False), 3),
        ],
    )


@pytest.fixture(scope="module")
def loop_var(h):
    return _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))


# -- the support law -------------------------------------------------------------


def test_vertex_compression_keeps_the_based_terms(h, sampler):
    assert compress_vertex(sampler, "v1") == RandomVariable(
        h,
        [
            ((vertex_word(h, "v1"), False), Fraction(1, 2)),
            ((path_word(h, ["e1", "e2"]), False), 1),
            ((path_word(h, ["e1", "e2"]), True), 1),
        ],
    )
    assert compress_vertex(sampler, "v2") == RandomVariable(
        h, [((path_word(h, ["e2", "e1"]), False), 3)]
    )


def test_compression_is_the_projection_sandwich(h, tri, fork, selfloops):
    rng = random.Random(43)
    for g in (h, tri, fork, selfloops):
        for _ in range(12):
            a = random_variable(g, rng)
            for v0 in g.vertices:
                p = DiagonalElement(g, {v0: 1})
                sandwich = multiply(multiply(p, a), p)
                assert to_general(compress_vertex(a, v0)) == sandwich


def test_compression_diagonal_and_scalar_expectation(h, sampler):
    x = compress_vertex(sampler, "v1")
    assert diagonal_part(x) == DiagonalElement(h, {"v1": Fraction(1, 2)})
    value = compressed_moment_series(sampler, "v1", 1)[0]
    assert value.re == Fraction(1, 2) and value.im == 0


def test_compress_unknown_vertex(h, sampler):
    with pytest.raises(DomainError):
        compress_vertex(sampler, "v9")


# -- scalar series ----------------------------------------------------------------


def test_loop_moment_series_counts_balanced_signs(h, loop_var):
    series = compressed_moment_series(loop_var, "v1", 6)
    assert [x.re for x in series] == [balanced_sign_count(n) for n in range(1, 7)]
    assert [x.re for x in series] == [0, 2, 0, 6, 0, 20]


def test_loop_r_transform(h, loop_var):
    series = compressed_r_transform(loop_var, "v1", 4)
    assert [x.re for x in series] == [0, 2, 0, -2]


def test_series_away_from_the_support_vanish(h, loop_var):
    assert all(x.is_zero() for x in compressed_moment_series(loop_var, "v2", 4))


def test_one_sided_and_empty_compressions_have_zero_series(tri):
    # At x the compression keeps only the creation loop L[sx], at y only the
    # annihilation loop L*[sy], and at z nothing; the uncompressed variable
    # has a nonzero second moment at x and y.
    a = _var(_c(tri, "sx")) + _var(_a(tri, "sy")) + _var(_c(tri, "a")) + _var(_a(tri, "a"))
    assert compress_vertex(a, "x") == _var(_c(tri, "sx"))
    assert compress_vertex(a, "y") == _var(_a(tri, "sy"))
    assert compress_vertex(a, "z").is_zero()
    assert not moment([a, a]).is_zero()
    for v in ("x", "y", "z"):
        assert all(c.is_zero() for c in compressed_moment_series(a, v, 24))


def test_series_prefixes_equal_the_moments_on_two_loops():
    # Each prefix of the order-8 chain is pruned by a wider window than
    # the chain that moment([x] * n) builds, yet both keep grading 0 whole.
    data = Path(__file__).parent / "data"
    g = load_graph(json.loads((data / "loops2.json").read_text()))
    # L[s] + L*[s] + L[t] + L*[t], two loops at the one vertex v.
    x = variable_from_json(json.loads((data / "loops2_sum.json").read_text()), g)
    series = compressed_moment_series(x, "v", 8)
    assert series == [moment([x] * n).get("v") for n in range(1, 9)]
    one = (Fraction(1), Fraction(0))
    terms = [(("v", (e,), star), one) for e in ("s", "t") for star in (False, True)]
    want = ck_moments_by_words({"s": ("v", "v"), "t": ("v", "v")}, [terms] * 8)
    assert [(c.re, c.im) for c in series] == [m.get("v", (0, 0)) for m in want]


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.integers(0, 2**32 - 1), st.booleans())
def test_r_series_matches_the_nc_cumulants(g, seed, real):
    a = random_variable(g, random.Random(seed))
    if real:
        a = RandomVariable(g, {k: ExactComplex(c.re, 0) for k, c in a.terms.items()})
    for v in g.vertices:
        series = compressed_r_transform(a, v, 6)
        x = compress_vertex(a, v)
        assert series == [trivial_cumulant(x, n).get(v) for n in range(1, 7)]
        if real:
            moments = compressed_moment_series(a, v, 6)
            assert all(m.im == 0 for m in moments)
            assert [k.re for k in series] == scalar_cumulants_from_moments(
                [m.re for m in moments]
            )


def test_series_reject_bad_orders(h, loop_var):
    with pytest.raises(DomainError):
        compressed_moment_series(loop_var, "v1", 0)
    with pytest.raises(DomainError):
        compressed_r_transform(loop_var, "v1", 0)


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(branching_graphs(), st.data())
def test_moments_and_compressed_series_match_the_word_oracle(g, data):
    # Imaginary parts are often zero, so products take both the real-only and
    # the complex branch of the scalars.
    words = enumerate_paths(g, 2)
    terms = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(words),
                st.booleans(),
                _RATIONALS,
                st.one_of(st.just(Fraction(0)), _RATIONALS),
            ),
            min_size=1,
            max_size=4,
        )
    )
    x = RandomVariable(g, [((w, star), ExactComplex(re, im)) for w, star, re, im in terms])
    ends = {e.id: (e.src, e.dst) for e in g.edges}
    letters = [((w.source, w.edges, star), (re, im)) for w, star, re, im in terms]
    order = 5
    want = ck_moments_by_words(ends, [letters] * order)
    for n in range(1, order + 1):
        got = moment([x] * n)
        assert {v: (c.re, c.im) for v, c in got.entries.items()} == want[n - 1]
    for v in g.vertices:
        # The compression at v keeps the v term and the loops based at v.
        kept = [
            (letter, c)
            for letter, c in letters
            if letter[0] == v and (not letter[1] or ends[letter[1][-1]][1] == v)
        ]
        zero = (Fraction(0), Fraction(0))
        series = [m.get(v, zero) for m in ck_moments_by_words(ends, [kept] * order)]
        assert [(c.re, c.im) for c in compressed_moment_series(x, v, order)] == series


# -- diagonal compression ----------------------------------------------------------


def test_diagonal_compression_sums_the_vertex_parts(h, sampler):
    both = diagonal_compress(sampler, ["v1", "v2"])
    assert both == compress_vertex(sampler, "v1") + compress_vertex(sampler, "v2")
    only = diagonal_compress(sampler, ["v1"])
    assert only == compress_vertex(sampler, "v1")


def test_diagonal_compression_validates_the_vertex_list(h, sampler):
    with pytest.raises(DomainError):
        diagonal_compress(sampler, ["v1", "v1"])
    with pytest.raises(DomainError):
        diagonal_compress(sampler, [])


def test_loop_intersection_is_empty_across_vertices(h, sampler):
    assert sampler.loops_at("v1") == {path_word(h, ["e1", "e2"])}
    assert sampler.loops_at("v2") == {path_word(h, ["e2", "e1"])}
    assert sampler.loops_at("v1") & sampler.loops_at("v2") == set()


def test_compressions_at_distinct_vertices_multiply_to_zero(selfloops):
    rng = random.Random(47)
    for _ in range(10):
        a = random_variable(selfloops, rng)
        xu = compress_vertex(a, "u")
        xv = compress_vertex(a, "v")
        assert multiply(xu, xv).is_zero()
        assert multiply(xv, xu).is_zero()


def test_cumulants_add_over_a_diagonal_compression(selfloops):
    # The two vertex compressions live over orthogonal corners, so the
    # cumulants of their sum split.
    rng = random.Random(53)
    for _ in range(4):
        a = random_variable(selfloops, rng, max_len=1)
        xu = compress_vertex(a, "u")
        xv = compress_vertex(a, "v")
        both = diagonal_compress(a, ["u", "v"])
        for n in range(1, 5):
            assert trivial_cumulant(both, n) == trivial_cumulant(
                xu, n
            ) + trivial_cumulant(xv, n)


# -- freeness between compressions ---------------------------------------------------


def test_compressed_freeness_detects_the_loop_square(h):
    a = _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))
    b = _var(_c(h, "e1", "e2", "e1", "e2"))
    ok, witness = mixed_cumulants_vanish(
        compress_vertex(a, "v1"), compress_vertex(b, "v1"), max_order=3
    )
    assert not ok
    assert witness is not None and not witness.value.is_zero()


def test_compressions_with_disjoint_loops_are_free(h):
    a = _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))
    b = _var(_c(h, "e2", "e1")) + _var(_a(h, "e2", "e1"))
    ok, witness = mixed_cumulants_vanish(
        compress_vertex(a, "v1"), compress_vertex(b, "v1"), max_order=4
    )
    assert ok and witness is None


def test_identical_diagonal_compressions_pass_the_guard(h, sampler):
    # At v1 the path-free part of a vertex-term-only variable is diagonal:
    # the identical-variable guard lets it through, and every cumulant of
    # order >= 2 with a diagonal argument vanishes.
    d = RandomVariable(h, [((vertex_word(h, "v1"), False), 2)])
    x = compress_vertex(d, "v1")
    ok, witness = mixed_cumulants_vanish(x, x, max_order=4)
    assert ok and witness is None


@settings(max_examples=50, deadline=None)
@given(branching_graphs(), st.integers(0, 2**32 - 1))
def test_freeness_over_the_diagonal_survives_vertex_compression(g, seed):
    # The paper's main theorem: D-valued freeness implies compressed freeness.
    rng = random.Random(seed)
    a = random_variable(g, rng, max_terms=2)
    b = random_variable(g, rng, max_terms=2)
    if not mixed_cumulants_vanish(a, b, 4)[0]:
        return
    for v in g.vertices:
        ok, witness = mixed_cumulants_vanish(compress_vertex(a, v), compress_vertex(b, v), 4)
        assert ok, (v, witness)


@settings(max_examples=50, deadline=None)
@given(branching_graphs(), st.integers(0, 2**32 - 1), st.data())
def test_diagonal_compression_is_free_iff_every_vertex_compression_is(g, seed, data):
    # L[v] L[w] = 0 for v != w, so a diagonal compression is the direct sum
    # of its vertex corners.
    rng = random.Random(seed)
    a = random_variable(g, rng, max_terms=2)
    b = random_variable(g, rng, max_terms=2)
    vertices = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, unique=True))
    ok, _witness = mixed_cumulants_vanish(
        diagonal_compress(a, vertices), diagonal_compress(b, vertices), 4
    )
    assert ok == all(
        mixed_cumulants_vanish(compress_vertex(a, v), compress_vertex(b, v), 4)[0]
        for v in vertices
    )
