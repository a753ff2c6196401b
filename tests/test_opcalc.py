"""Operator word reduction, lattice paths, expectation, element algebra.

The Toeplitz normal form is an exact operator identity, so it is checked
against an independent model of the left-regular action on formal basis
vectors.  The eager-collapse mode is pinned by frozen examples on graphs
with and without parallel edges.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfp import (
    CK,
    TOEPLITZ,
    DiagonalElement,
    DomainError,
    ExactComplex,
    FormatError,
    GeneralElement,
    Monomial,
    Pair,
    RandomVariable,
    annihilation,
    concat,
    creation,
    enumerate_paths,
    expectation,
    lattice_path,
    load_graph,
    multiply,
    parse_letters,
    path_word,
    reduce_monomial,
    to_general,
    variable_from_json,
    variable_to_json,
    vertex_word,
)
from graphfp.opcalc import ck_collapse
from graphfp.scalars import I, ONE

from util import (
    LARGE_PRIMES,
    adjoint_monomial,
    branching_graphs,
    coefficient,
    diagonal_part,
    large_rational,
    pair_letters,
    random_variable,
    unit_diagonal,
    unit_variable,
)


# -- independent left-regular action oracle ----------------------------------


def _act_letter(letter, u):
    """One letter applied to the basis vector of word u; None means zero."""
    w = letter.word
    if not letter.star:
        return concat(w, u)
    if w.is_vertex:
        return u if u.source == w.vertex else None
    if u.is_vertex or u.length < w.length or u.edges[: w.length] != w.edges:
        return None
    rest = u.edges[w.length :]
    return path_word(w.graph, rest) if rest else vertex_word(w.graph, w.target)


def _act_monomial(m, u):
    for letter in reversed(m.letters):
        u = _act_letter(letter, u)
        if u is None:
            return None
    return u


def _act_form(form, u):
    if form is None:
        return None
    out = u
    if not form.beta.is_vertex:
        out = _act_letter(annihilation(form.beta), out)
        if out is None:
            return None
    return _act_letter(creation(form.alpha), out)


def _all_monomials(letters, length):
    return [Monomial(combo) for combo in product(letters, repeat=length)]


def test_toeplitz_normal_form_matches_action_oracle(h, h_letters):
    basis = enumerate_paths(h, 5)
    letters = list(h_letters.values())
    for n in (1, 2, 3, 4):
        for m in _all_monomials(letters, n):
            form = reduce_monomial(m, TOEPLITZ)
            for u in basis:
                assert _act_monomial(m, u) == _act_form(form, u), (m, u)


def test_toeplitz_normal_form_matches_action_oracle_with_parallel_edges(fork):
    letters = [creation(vertex_word(fork, v)) for v in fork.vertices]
    for e in ("p", "q", "r"):
        letters.append(creation(path_word(fork, [e])))
        letters.append(annihilation(path_word(fork, [e])))
    basis = enumerate_paths(fork, 4)
    for n in (2, 3):
        for m in _all_monomials(letters, n):
            form = reduce_monomial(m, TOEPLITZ)
            for u in basis:
                assert _act_monomial(m, u) == _act_form(form, u), (m, u)


# -- frozen reduction examples ------------------------------------------------


def _reduce_text(graph, text, mode):
    form = reduce_monomial(Monomial(parse_letters(graph, text)), mode)
    return "0" if form is None else str(form)


@pytest.mark.parametrize(
    "text,ck_form,toeplitz_form",
    [
        ("e1 e1*", "L[v1] L*[v1]", "L[e1] L*[e1]"),
        ("e1* e1", "L[v2] L*[v2]", "L[v2] L*[v2]"),
        ("e1 e2", "L[e1 e2] L*[v1]", "L[e1 e2] L*[v1]"),
        ("e2 e1", "L[e2 e1] L*[v2]", "L[e2 e1] L*[v2]"),
        ("e1 e1", "0", "0"),
        ("v1 e1", "L[e1] L*[v2]", "L[e1] L*[v2]"),
        ("v2 e1", "0", "0"),
        ("e1 v2", "L[e1] L*[v2]", "L[e1] L*[v2]"),
        ("e1 v1", "0", "0"),
        ("e1* e2*", "L[v2] L*[e2 e1]", "L[v2] L*[e2 e1]"),
        ("e1 e2 e2* e1*", "L[v1] L*[v1]", "L[e1 e2] L*[e1 e2]"),
        ("e1 e2 e1 e2 e2* e1*", "L[e1 e2] L*[v1]", "L[e1 e2 e1 e2] L*[e1 e2]"),
        ("v1 v1", "L[v1] L*[v1]", "L[v1] L*[v1]"),
        ("v1 v2", "0", "0"),
    ],
)
def test_reduction_examples_on_h(h, text, ck_form, toeplitz_form):
    assert _reduce_text(h, text, CK) == ck_form
    assert _reduce_text(h, text, TOEPLITZ) == toeplitz_form


def test_collapse_distinguishes_parallel_edges(fork):
    # L[p] L*[p] L[q] survives eager collapse but dies in Toeplitz form.
    assert _reduce_text(fork, "p p* q", CK) == "L[q] L*[w]"
    assert _reduce_text(fork, "p p* q", TOEPLITZ) == "0"
    # A shared proper suffix collapses without either side absorbing the other.
    m = Monomial((creation(path_word(fork, ["p", "r"])), annihilation(path_word(fork, ["q", "r"]))))
    assert str(reduce_monomial(m, CK)) == "L[p] L*[q]"
    assert str(reduce_monomial(m, TOEPLITZ)) == "L[p r] L*[q r]"
    # Distinct parallel edges do not collapse.
    m2 = Monomial((creation(path_word(fork, ["p"])), annihilation(path_word(fork, ["q"]))))
    assert str(reduce_monomial(m2, CK)) == "L[p] L*[q]"


def test_ck_collapse_is_idempotent_on_reduced_forms(h, h_letters):
    for m in _all_monomials(list(h_letters.values()), 3):
        form = reduce_monomial(m, CK)
        if form is not None:
            assert ck_collapse(form) == form


def test_reduce_rejects_bad_input(h):
    with pytest.raises(DomainError):
        reduce_monomial(Monomial(()))
    with pytest.raises(DomainError):
        reduce_monomial(Monomial(parse_letters(h, "e1")), mode="weak")


def test_adjoint_swaps_normal_form_sides(h, h_letters):
    for mode in (CK, TOEPLITZ):
        for n in (1, 2, 3):
            for m in _all_monomials(list(h_letters.values()), n):
                form = reduce_monomial(m, mode)
                adj = reduce_monomial(adjoint_monomial(m), mode)
                if form is None:
                    assert adj is None
                else:
                    assert adj == Pair(form.beta, form.alpha)


def test_prefix_renormalization_is_stable(h, h_letters):
    # Reducing a prefix and re-expanding its normal form changes nothing.
    letters = list(h_letters.values())
    rng = random.Random(7)
    for mode in (CK, TOEPLITZ):
        for _ in range(300):
            n = rng.randint(2, 5)
            ls = tuple(rng.choice(letters) for _ in range(n))
            k = rng.randint(1, n - 1)
            whole = reduce_monomial(Monomial(ls), mode)
            head = reduce_monomial(Monomial(ls[:k]), mode)
            if head is None:
                assert whole is None
                continue
            again = reduce_monomial(Monomial(pair_letters(head) + ls[k:]), mode)
            assert again == whole


def test_monomial_letters_must_share_graph(h, fork):
    with pytest.raises(DomainError):
        Monomial((creation(path_word(h, ["e1"])), creation(path_word(fork, ["p"]))))


# -- word expression grammar --------------------------------------------------


def test_parse_letters_grammar(h):
    ls = parse_letters(h, "e1 e2 e2* e1*")
    assert [str(l) for l in ls] == ["L[e1]", "L[e2]", "L*[e2]", "L*[e1]"]
    assert str(parse_letters(h, "v1")[0]) == "L[v1]"
    # A star on a vertex projection is the projection itself.
    assert parse_letters(h, "v1*")[0] == parse_letters(h, "v1")[0]


def test_parse_letters_errors(h):
    with pytest.raises(FormatError):
        parse_letters(h, "   ")
    with pytest.raises(DomainError):
        parse_letters(h, "e9")


# -- lattice paths ------------------------------------------------------------


def test_lattice_path_steps_and_endpoint(h):
    path = lattice_path(Monomial(parse_letters(h, "v1 e1 e2 e2* e1*")))
    assert path.steps == ((0, 1), (1, 1), (1, 1), (-1, -1), (-1, -1))
    assert path.endpoint == (0, 1)
    assert path.star_axis


def test_lattice_path_multi_edge_letters(h):
    path = lattice_path(Monomial(parse_letters(h, "e1 e2")))
    # One creation letter of a length-2 word is a single (+2, +2) step.
    m = Monomial((creation(path_word(h, ["e1", "e2"])),))
    assert lattice_path(m).steps == ((2, 2),)
    assert path.steps == ((1, 1), (1, 1))
    assert not path.star_axis


def test_lattice_path_of_vanishing_monomial_is_empty(h):
    path = lattice_path(Monomial(parse_letters(h, "e1 e1")))
    assert path.empty and path.endpoint is None and not path.star_axis


def test_lattice_path_needs_letters(h):
    with pytest.raises(DomainError):
        lattice_path(Monomial(()))


def test_star_axis_examples(h):
    assert lattice_path(Monomial(parse_letters(h, "e1 e1*"))).star_axis
    assert lattice_path(Monomial(parse_letters(h, "v1"))).star_axis
    assert not lattice_path(Monomial(parse_letters(h, "e1"))).star_axis
    assert not lattice_path(Monomial(parse_letters(h, "e1 e1"))).star_axis


# -- diagonal elements ---------------------------------------------------------


def test_diagonal_algebra(h):
    one = ExactComplex.of(1)
    d1 = DiagonalElement(h, {"v1": one, "v2": ExactComplex.of(2)})
    d2 = DiagonalElement(h, {"v1": ExactComplex.of(-1)})
    assert (d1 + d2).entries == {"v2": ExactComplex.of(2)}  # zero entries vanish
    assert (d1 * d2).entries == {"v1": ExactComplex.of(-1)}
    assert d1.scale(0).is_zero()
    assert unit_diagonal(h).get("v1") == one
    assert d2.get("v2").is_zero()
    with pytest.raises(DomainError):
        DiagonalElement(h, {"nope": one})
    with pytest.raises(TypeError):
        hash(d1)


def test_diagonal_product_refuses_another_graph(h):
    # The edgeless twin shares h's vertex names, so the entrywise product
    # would otherwise go through and keep the left graph.
    twin = load_graph({"vertices": ["v1", "v2"], "edges": []})
    x = DiagonalElement(h, {"v1": ExactComplex.of(2)})
    y = DiagonalElement(twin, {"v1": ExactComplex.of(3)})
    for left, right in ((x, y), (y, x)):
        with pytest.raises(DomainError, match="cannot multiply elements over different graphs"):
            left * right
    # An equal graph built separately is the same graph.
    same = load_graph({"vertices": ["v1", "v2"], "edges": [
        {"id": "e1", "src": "v1", "dst": "v2"}, {"id": "e2", "src": "v2", "dst": "v1"},
    ]})
    z = DiagonalElement(same, {"v1": ExactComplex.of(3)})
    assert (x * z).entries == {"v1": ExactComplex.of(6)}


def test_diagonal_conjugate():
    from graphfp import load_graph

    g = load_graph({"vertices": ["a"], "edges": []})
    d = DiagonalElement(g, {"a": ExactComplex.of(2) + ExactComplex.of(3) * ExactComplex(0, 1)})
    assert d.conjugate().entries["a"] == ExactComplex(2, -3)


# -- random variables ----------------------------------------------------------


def test_vertex_terms_ignore_star(h):
    v = vertex_word(h, "v1")
    a = RandomVariable(h, [((v, True), ExactComplex.of(1)), ((v, False), ExactComplex.of(1))])
    assert coefficient(a, v) == ExactComplex.of(2)
    assert len(a.terms) == 1


def test_adjoint_and_self_adjointness(h):
    l = path_word(h, ["e1", "e2"])
    a = RandomVariable(h, {(l, False): ExactComplex.of(1), (l, True): ExactComplex.of(1)})
    assert a.is_self_adjoint()
    b = RandomVariable.from_letter(creation(l), ExactComplex(0, 1))
    assert not b.is_self_adjoint()
    assert coefficient(b.adjoint(), l, star=True) == ExactComplex(0, -1)
    assert b.adjoint().adjoint() == b


def test_support_partitions(h):
    l = path_word(h, ["e1", "e2"])
    e1 = path_word(h, ["e1"])
    a = RandomVariable(
        h,
        {
            (vertex_word(h, "v1"), False): ExactComplex.of(1),
            (l, False): ExactComplex.of(1),
            (l, True): ExactComplex.of(2),
            (e1, False): ExactComplex.of(1),
        },
    )
    assert a.path_support() == {l, e1}
    assert a.paired_path_support() == {l}
    assert a.loops_at("v1") == {l}
    assert a.paired_loops_at("v1") == {l}
    assert a.loops_at("v2") == set()
    assert diagonal_part(a).entries == {"v1": ExactComplex.of(1)}


# -- products and expectation ---------------------------------------------------


def test_multiply_is_associative_on_random_variables(h, selfloops):
    # The eager collapse is a consistent ring identification only when no two
    # edges share a source; there it commutes with later letters and products
    # associate.  Graphs with a branching vertex are covered separately below.
    rng = random.Random(11)
    for g in (h, selfloops):
        for _ in range(40):
            a, b, c = (random_variable(g, rng) for _ in range(3))
            left = multiply(multiply(a, b), c)
            right = multiply(a, multiply(b, c))
            assert left == right


def test_branching_vertex_products_are_left_to_right(fork):
    # With two edges out of u, the collapse makes L[p]L*[p] and L[q]L*[q]
    # both act as L[u] on anything to their right, while L*[p]L[q] = 0.  The
    # two bracketings therefore disagree, and the left-to-right chain is the
    # canonical one: it agrees with monomial reduction.
    lp = RandomVariable.from_letter(creation(path_word(fork, ["p"])))
    lp_star = RandomVariable.from_letter(annihilation(path_word(fork, ["p"])))
    lq = RandomVariable.from_letter(creation(path_word(fork, ["q"])))
    left = multiply(multiply(lp, lp_star), lq)
    right = multiply(lp, multiply(lp_star, lq))
    reduced = reduce_monomial(Monomial(parse_letters(fork, "p p* q")), CK)
    assert left == to_general(lq)
    assert str(reduced) == "L[q] L*[w]"
    assert right == GeneralElement.zero(fork)
    assert left != right


def test_multiply_distributes_over_addition(h):
    rng = random.Random(13)
    for _ in range(40):
        a, b, c = (random_variable(h, rng) for _ in range(3))
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)


def test_cancelling_terms_leave_no_entry(h):
    # l = e1 e2 is a loop at v1, so L[l] L*[l] collapses to L[v1] and cancels
    # -L[v1] L[v1]; the cross terms give L[l] - L*[l].
    loop, v1 = path_word(h, ["e1", "e2"]), vertex_word(h, "v1")
    x = RandomVariable(h, {(loop, False): 1, (v1, False): -1})
    y = RandomVariable(h, {(loop, True): 1, (v1, False): 1})
    product = multiply(x, y)
    assert product == to_general(RandomVariable(h, {(loop, False): 1, (loop, True): -1}))
    assert Pair(v1, v1) not in product.terms


def _letter(word, star):
    return annihilation(word) if star else creation(word)


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.randoms(use_true_random=False))
def test_products_store_no_zero_coefficient(g, rng):
    # x = sum of s_i L[w_i] with unit s_i, y the adjoint with random signs:
    # every L[w_i] L*[w_i] collapses to the source of w_i, so about one case
    # in five cancels a vertex term.  The product must equal the merge of its
    # letter products by the validating constructor, which drops zeros.
    words = enumerate_paths(g, 2)
    units = [ONE, -ONE, I, -I]
    x = RandomVariable(
        g, [((rng.choice(words), False), rng.choice(units)) for _ in range(rng.randint(2, 4))]
    )
    y = RandomVariable(
        g,
        [((w, True), c.conjugate() * rng.choice(units[:2])) for (w, _s), c in x.terms.items()],
    )
    product = multiply(x, y)
    assert all(type(c) is ExactComplex and not c.is_zero() for c in product.terms.values())
    merged = GeneralElement(
        g,
        [
            (pair, c)
            for (w1, s1), c1 in x.terms.items()
            for (w2, s2), c2 in y.terms.items()
            for pair, c in to_general(Monomial((_letter(w1, s1), _letter(w2, s2))))
            .scale(c1 * c2)
            .terms.items()
        ],
    )
    assert product == merged


def test_unit_variable_is_neutral(h):
    rng = random.Random(17)
    unit = unit_variable(h)
    for _ in range(20):
        a = random_variable(h, rng)
        ga = to_general(a)
        assert multiply(unit, a) == ga
        assert multiply(a, unit) == ga


def test_expectation_of_normal_forms(h):
    # A monomial reduces in CK mode, and E keeps only a vertex pair: e1 e1*
    # collapses to L[v1] L*[v1], e1 e2 is L[e1 e2] L*[v1], and e1 e1 is zero.
    one = {"v1": ExactComplex.of(1)}
    assert expectation(Monomial(parse_letters(h, "v1"))).entries == one
    assert expectation(Monomial(parse_letters(h, "e1 e1*"))).entries == one
    assert expectation(Monomial(parse_letters(h, "e1 e2"))).is_zero()
    assert expectation(Monomial(parse_letters(h, "e1 e1"))).is_zero()
    with pytest.raises(DomainError):
        expectation(Monomial(()))


def test_expectation_is_diagonal_part(h):
    rng = random.Random(19)
    for _ in range(30):
        a = random_variable(h, rng)
        assert expectation(a) == diagonal_part(a)


def test_expectation_is_a_conditional_expectation(h):
    # E(d x d') = d E(x) d' for diagonal d, d'.
    rng = random.Random(23)
    for _ in range(30):
        a = random_variable(h, rng)
        d = DiagonalElement(h, {"v1": ExactComplex(1, 1)})
        dp = DiagonalElement(h, {"v1": ExactComplex.of(2), "v2": ExactComplex.of(-1)})
        sandwich = multiply(multiply(d, a), dp)
        assert expectation(sandwich) == d * expectation(a) * dp


def test_expectation_fixes_diagonals(h):
    d = DiagonalElement(h, {"v2": ExactComplex(1, -2)})
    assert expectation(d) == d
    assert expectation(to_general(d)) == d


def test_to_general_unit_monomial_rejected():
    with pytest.raises(DomainError):
        to_general(Monomial(()))
    with pytest.raises(TypeError):
        to_general(3)


def test_malformed_forms_and_terms_are_refused(h, fork):
    with pytest.raises(DomainError, match="normal form needs matching targets"):
        Pair(path_word(h, ["e1"]), vertex_word(h, "v1"))
    with pytest.raises(DomainError, match="term word belongs to a different graph"):
        RandomVariable(h, [((path_word(fork, ["p"]), False), ONE)])


def test_element_reprs_and_truth(h):
    x = RandomVariable(h, [
        ((path_word(h, ["e1"]), False), ONE),
        ((path_word(h, ["e1", "e2"]), True), ExactComplex.of(2)),
    ])
    assert repr(x) == "(1)·L[e1] + (2)·L*[e1 e2]"
    assert repr(to_general(x)) == "(1)·L[e1] L*[v2] + (2)·L[v1] L*[e1 e2]"
    assert repr(RandomVariable.zero(h)) == "0"
    assert repr(GeneralElement.zero(h)) == "0"
    assert not DiagonalElement.zero(h)
    assert DiagonalElement(h, {"v1": ONE})


def test_general_element_merges_and_drops_zeros(h):
    e1 = path_word(h, ["e1"])
    v2 = vertex_word(h, "v2")
    p = Pair(e1, e1)
    g1 = GeneralElement(h, [(p, ExactComplex.of(1)), (p, ExactComplex.of(-1))])
    assert not g1.terms
    g2 = GeneralElement(h, [(Pair(v2, v2), ExactComplex.of(2))])
    assert (g1 + g2).terms == {Pair(v2, v2): ExactComplex.of(2)}


def _keys_of_each_class(g):
    # Keys of the three shapes over g: vertex ids, (word, star) letters and
    # the normal forms L[w] L*[t], L[t] L*[w] with t the target of w.
    words = enumerate_paths(g, 2)
    target = {w: vertex_word(g, w.target) for w in words}
    return {
        DiagonalElement: list(g.vertices),
        RandomVariable: [(w, s) for w in words for s in (False, True) if not (w.is_vertex and s)],
        GeneralElement: sorted(
            {Pair(w, target[w]) for w in words} | {Pair(target[w], w) for w in words}, key=str
        ),
    }


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.randoms(use_true_random=False))
def test_the_three_combination_types_share_one_algebra(g, rng):
    # Each class keeps a sum of coefficients per key and no zero, its zero is
    # empty, it equals and adds only its own class, and it refuses to add a
    # value over a graph with the same vertex names.  Coefficient parts take distinct
    # large prime denominators, so no two terms sum to zero by accident.
    primes = rng.sample(LARGE_PRIMES, len(LARGE_PRIMES))
    twin = load_graph({"vertices": list(g.vertices), "edges": []})
    zeros = [cls.zero(g) for cls in (DiagonalElement, RandomVariable, GeneralElement)]
    for cls, keys in _keys_of_each_class(g).items():
        items, want = [], {}
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 4))):
            re, im = large_rational(rng, primes), large_rational(rng, primes)
            items.append((key, ExactComplex(re, im)))
            if rng.random() < 0.4:
                items.append((key, ExactComplex(-re, -im)))
                continue
            if rng.random() < 0.5:
                re2, im2 = large_rational(rng, primes), large_rational(rng, primes)
                items.append((key, ExactComplex(re2, im2)))
                re, im = re + re2, im + im2
            want[key] = (re, im)
        rng.shuffle(items)
        if cls is DiagonalElement:
            # A dict holds each vertex once, so repeats go through addition.
            x = DiagonalElement.zero(g)
            for key, c in items:
                x = x + DiagonalElement(g, {key: c})
        else:
            x = cls(g, items)
        assert {k: (c.re, c.im) for k, c in x.terms.items()} == want
        assert cls.zero(g).is_zero() and cls.zero(g) == cls(g)
        assert x + cls.zero(g) == x and x.scale(0) == cls.zero(g)
        assert [z for z in zeros if z == cls.zero(g)] == [cls.zero(g)]
        for z in zeros:
            if type(z) is not cls:
                with pytest.raises(TypeError):
                    x + z
        with pytest.raises(TypeError):
            hash(x)
        other = DiagonalElement(twin, x.terms) if cls is DiagonalElement else cls.zero(twin)
        with pytest.raises(DomainError, match="cannot add elements over different graphs"):
            x + other
        with pytest.raises(DomainError, match="cannot add elements over different graphs"):
            other + x


# -- JSON ------------------------------------------------------------------------


def test_variable_json_round_trip(h):
    rng = random.Random(29)
    for _ in range(20):
        a = random_variable(h, rng)
        doc = variable_to_json(a)
        assert variable_from_json(doc) == a


def test_variable_json_shape_errors(h):
    with pytest.raises(FormatError):
        variable_from_json([], h)
    with pytest.raises(FormatError):
        variable_from_json({"terms": "nope"}, h)
    with pytest.raises(FormatError):
        variable_from_json({"terms": [{"word": ["e1"], "star": "yes"}]}, h)
    with pytest.raises(FormatError):
        variable_from_json({"terms": []})
