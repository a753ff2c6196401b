"""Diagonal-valued moments, partition moments, cumulants, freeness, shape.

Frozen values were derived two ways: by hand reduction of the operator words
and, for the loop variable, by inverting the scalar moment sequence with the
independent recursion in util.scalar_cumulants_from_moments.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphfp import (
    DiagonalElement,
    DomainError,
    ExactComplex,
    Monomial,
    NoncrossingPartition,
    RandomVariable,
    annihilation,
    classify,
    compress_vertex,
    creation,
    cumulant,
    enumerate_nc,
    enumerate_paths,
    expectation,
    freeness_certificate,
    lattice_path,
    load_graph,
    mixed_cumulants_vanish,
    moment,
    multiply,
    partition_moments,
    path_word,
    to_general,
    trivial_cumulant,
    variable_from_json,
    vertex_word,
)
from graphfp.freeprob import _ChainProducts, _chain_prefixes
from graphfp.ncpart import top_weights
from graphfp.opcalc import _FormIds

from util import (
    LARGE_PRIMES,
    branching_graphs,
    catalan,
    ck_moments_by_words,
    connectivity_multiplier,
    cumulant_via_multiplier,
    freeness_scan_by_brute_force,
    is_partition_connected,
    large_rational,
    nested_cumulant,
    nonzero_variable,
    partition_moment_by_interval_search,
    random_variable,
    scalar_cumulants_from_moments,
    unbranched_graphs,
    uncached_cumulant,
    unit_diagonal,
    unit_variable,
)


def _c(g, *edges):
    return creation(path_word(g, list(edges)))


def _a(g, *edges):
    return annihilation(path_word(g, list(edges)))


def _var(letter) -> RandomVariable:
    return RandomVariable.from_letter(letter)


def _diag(g, entries) -> DiagonalElement:
    return DiagonalElement(g, entries)


@pytest.fixture(scope="module")
def loop_var(h):
    # l = e1 e2 is the loop at v1; a = L[l] + L*[l].
    return _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))


# -- moments -----------------------------------------------------------------


def test_second_moment_of_the_loop_variable(h, loop_var):
    assert moment([loop_var, loop_var]) == _diag(h, {"v1": 2})


def test_moment_accepts_diagonal_slots(h, loop_var):
    d = _diag(h, {"v1": Fraction(1, 2), "v2": 1})
    assert moment([loop_var, loop_var], [d, None]) == _diag(h, {"v1": 1})


def test_loop_moment_sequence(h, loop_var):
    values = [moment([loop_var] * n).get("v1").re for n in range(1, 7)]
    assert values == [0, 2, 0, 6, 0, 20]


def _loop_file():
    data = Path(__file__).parent / "data"
    h = load_graph(json.loads((data / "h.json").read_text()))
    return h, variable_from_json(json.loads((data / "a_loop.json").read_text()), h)


def test_long_moment_of_the_loop_file_is_arcsine():
    # All 32 slots share one factor and so one set of rows: E(a^32) is the
    # arcsine moment C(32, 16) at v1.
    h, a = _loop_file()
    assert moment([a] * 32) == _diag(h, {"v1": 601080390})


def test_moment_rejects_bad_slots(h, loop_var):
    with pytest.raises(DomainError):
        moment([])
    with pytest.raises(DomainError):
        moment([loop_var], [None, None])


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_COEFFICIENTS = st.tuples(_RATIONALS, st.one_of(st.just(Fraction(0)), _RATIONALS))

# How a slot variable draws its terms: from every word of length <= 2 with
# either star, from paths only with one star, from vertices only, or as a
# compression that keeps nothing.  Creation-only and annihilation-only
# variables have one-sided grading ranges, so their windows reach 0 from
# one side only.
_KINDS = ("any", "creation", "annihilation", "vertex", "empty")
_STARS = {"creation": st.just(False), "annihilation": st.just(True)}


@st.composite
def _slot_products(draw):
    """(variables, diagonals, factors): a product d1 x1 ... dn xn over a
    random branching graph whose xk come from a pool of distinct variables,
    and the same product as oracle factors (terms of d1, x1, d2, ...)."""
    g = draw(branching_graphs())
    words = enumerate_paths(g, 2)
    pool = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3)):
        if kind == "empty":
            v = draw(st.sampled_from(sorted(g.vertices)))
            kept = {w for w in words if w.vertex == v or (w.is_loop and w.source == v)}
            choices = [w for w in words if w not in kept]
        elif kind == "vertex":
            choices = [w for w in words if w.is_vertex]
        else:
            choices = [w for w in words if kind == "any" or not w.is_vertex]
        # On a one-vertex graph every word is kept at v: the empty
        # compression is then the compression of the zero variable.
        terms = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(choices),
                    _STARS.get(kind, st.booleans()),
                    _COEFFICIENTS,
                ),
                min_size=0 if kind == "empty" else 1,
                max_size=3,
            )
        ) if choices else []
        x = RandomVariable(g, [((w, star), ExactComplex(*c)) for w, star, c in terms])
        if kind == "empty":
            x = compress_vertex(x, v)
            assert x.is_zero()
            terms = []
        pool.append((x, [((w.source, w.edges, star), c) for w, star, c in terms]))
    if draw(st.booleans()):
        # Adjoints give products that come back to the diagonal through
        # gradings of both signs.
        pool += [
            (x.adjoint(), [((v, w, s != bool(w)), (re, -im)) for (v, w, s), (re, im) in t])
            for x, t in pool
        ]
    # Equal but distinct copies: a chain finds its factors by identity, so a
    # copy gets its own rows, which must agree with the original's.
    for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=2)):
        x, terms = pool[k]
        pool.append((RandomVariable(g, dict(x.terms)), terms))
    variables, diagonals, factors = [], [], []
    drawn: list[DiagonalElement] = []
    for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)):
        x, terms = pool[k]
        variables.append(x)
        # A diagonal slot is the unit, a new diagonal, or an earlier one
        # again, as the same object or as an equal copy.
        kind = draw(st.sampled_from(("unit", "new", "same", "copy") if drawn else ("unit", "new")))
        if kind == "unit":
            diagonals.append(None)
            factors.append(terms)
            continue
        if kind == "new":
            n = len(g.vertices)
            entries = draw(st.lists(_RATIONALS, min_size=n, max_size=n))
            d = _diag(g, dict(zip(sorted(g.vertices), entries)))
            drawn.append(d)
        else:
            d = draw(st.sampled_from(drawn))
            if kind == "copy":
                d = _diag(g, dict(d.entries))
        diagonals.append(d)
        factors.append([((v, (), False), (c.re, c.im)) for v, c in d.entries.items()])
        factors.append(terms)
    return variables, diagonals, factors


def _as_pairs(d: DiagonalElement) -> dict:
    return {v: (c.re, c.im) for v, c in d.entries.items()}


@settings(max_examples=80, deadline=None)
@given(_slot_products())
def test_moments_of_slot_sequences_match_the_word_oracle(case):
    # moment prunes its chain by grading; the one-block partition moment
    # goes through the unpruned table of chain products.
    variables, diagonals, factors = case
    g = variables[0].graph
    want = ck_moments_by_words({e.id: (e.src, e.dst) for e in g.edges}, factors)[-1]
    assert _as_pairs(moment(variables, diagonals)) == want
    top = NoncrossingPartition.top(len(variables))
    assert _as_pairs(partition_moments(variables, diagonals)[top]) == want


@settings(max_examples=80, deadline=None)
@given(_slot_products())
def test_expectation_commutes_with_the_adjoint(case):
    # (d1 x1 ... dn xn)* = xn* dn* ... d2* x1* d1*, and E(X d) = E(X) d, so
    # E(X)* = E(X*) reads as a moment of the reversed adjoint slots.
    variables, diagonals, _factors = case
    g = variables[0].graph
    first = unit_diagonal(g) if diagonals[0] is None else diagonals[0]
    star = moment(
        [x.adjoint() for x in reversed(variables)],
        [None] + [None if d is None else d.conjugate() for d in reversed(diagonals[1:])],
    )
    assert moment(variables, diagonals).conjugate() == star * first.conjugate()


def _grading(pair) -> int:
    return pair.alpha.length - pair.beta.length


def _letter_range(x: RandomVariable) -> tuple[int, int]:
    # Gradings of the variable's letters, widened to hold 0.
    gradings = [0] + [-w.length if star else w.length for w, star in x.terms]
    return min(gradings), max(gradings)


@settings(max_examples=80, deadline=None)
@given(_slot_products())
def test_chain_prefixes_keep_every_term_that_can_return_to_grading_zero(case):
    variables, diagonals, _factors = case
    ranges = [_letter_range(x) for x in variables]
    unpruned = None
    prefixes = list(_chain_prefixes(variables, diagonals))
    assert len(prefixes) == len(variables)
    for i, prefix in enumerate(prefixes):
        for f in (diagonals[i], variables[i]):
            if f is not None:
                unpruned = to_general(f) if unpruned is None else multiply(unpruned, f)
        lo = sum(r[0] for r in ranges[i + 1:])
        hi = sum(r[1] for r in ranges[i + 1:])
        assert lo <= 0 <= hi
        assert all(lo <= -_grading(p) <= hi for p in prefix.terms)
        # The prefix is the unpruned one cut to its window, so in particular
        # its grading-0 part is whole.
        assert prefix.terms == {
            p: c for p, c in unpruned.terms.items() if lo <= -_grading(p) <= hi
        }


def test_chain_prefixes_drop_what_the_later_slots_cannot_undo(h):
    # x = L[v1] + L[l] has gradings 0 and +2, so after the first of three
    # slots only grading <= 0 survives, and the last prefix keeps grading 0.
    x = _var(creation(vertex_word(h, "v1"))) + _var(_c(h, "e1", "e2"))
    first, _second, last = _chain_prefixes([x] * 3, [None] * 3)
    assert list(first.terms) == [p for p in to_general(x).terms if _grading(p) == 0]
    assert {_grading(p) for p in last.terms} == {0}
    assert moment([x] * 3) == _diag(h, {"v1": 1})


# -- partition moments ---------------------------------------------------------


def test_single_block_partition_moment_is_the_moment(h):
    rng = random.Random(23)
    for n in (2, 3, 4):
        top = NoncrossingPartition.top(n)
        for _ in range(5):
            variables = [random_variable(h, rng) for _ in range(n)]
            assert partition_moments(variables)[top] == moment(variables)


def test_nested_pair_partition_moment(h):
    # {{1,4},{2,3}} on (L[l], L[l], L*[l], L*[l]): the inner bracket gives
    # L[v1] and the outer bracket closes the remaining loop pair.
    l_c, l_a = _c(h, "e1", "e2"), _a(h, "e1", "e2")
    p = NoncrossingPartition(4, ((1, 4), (2, 3)))
    variables = [_var(x) for x in (l_c, l_c, l_a, l_a)]
    assert partition_moments(variables)[p] == _diag(h, {"v1": 1})


def test_zero_block_annihilates_the_partition_moment(h):
    # The singleton block evaluates to E(L[e1]) = 0.
    p = NoncrossingPartition(3, ((1,), (2, 3)))
    variables = [_var(x) for x in (_c(h, "e1"), _c(h, "e1"), _a(h, "e1"))]
    assert partition_moments(variables)[p].is_zero()


def _random_diagonal(g, rng) -> DiagonalElement:
    return _diag(
        g, {v: Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for v in g.vertices}
    )


def _random_slot_variable(g, rng, max_terms=3, max_len=2) -> RandomVariable:
    # Vertex terms and loops, made self-adjoint half the time, keep many
    # partition moments nonzero; the other half draws from every path.
    paths = enumerate_paths(g, max_len)
    if rng.random() < 0.5:
        return nonzero_variable(g, rng, paths, max_terms)
    based = [w for w in paths if w.is_vertex or w.is_loop]
    return nonzero_variable(g, rng, based, max_terms, self_adjoint=rng.random() < 0.5)


@settings(max_examples=80, deadline=None)
@given(
    branching_graphs(),
    st.integers(1, 5).flatmap(lambda n: st.sampled_from(enumerate_nc(n))),
    st.randoms(use_true_random=False),
)
def test_one_pass_partition_moment_matches_the_interval_search(g, p, rng):
    items = [
        (_random_diagonal(g, rng) if rng.random() < 0.5 else None,
         _random_slot_variable(g, rng))
        for _ in range(p.n)
    ]
    moments = partition_moments([a for _d, a in items], [d for d, _a in items])
    assert moments[p] == partition_moment_by_interval_search(p, items)


@settings(max_examples=80, deadline=None)
@given(branching_graphs(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_expectation_is_a_diagonal_bimodule_map(g, k, rng):
    # E(d X d') = d E(X) d' for X a product of k random variables: the law
    # that lets partition_moments eliminate blocks in any interval order.
    x = random_variable(g, rng, max_len=2, max_terms=3)
    for _ in range(k - 1):
        x = multiply(x, random_variable(g, rng, max_len=2, max_terms=3))
    d, dp = _random_diagonal(g, rng), _random_diagonal(g, rng)
    assert expectation(multiply(multiply(d, x), dp)) == d * expectation(x) * dp


# -- cumulants ---------------------------------------------------------------


def test_first_cumulant_is_the_expectation(h, loop_var):
    assert cumulant([loop_var]) == moment([loop_var])


def test_second_cumulants_of_an_edge_letter(h):
    assert cumulant([_var(_c(h, "e1")), _var(_a(h, "e1"))]) == _diag(
        h, {"v1": 1}
    )
    assert cumulant([_var(_a(h, "e1")), _var(_c(h, "e1"))]) == _diag(
        h, {"v2": 1}
    )


def test_cumulant_report_decomposition(h, loop_var):
    # What --contributions prints: the partition moments in the order of
    # enumerate_nc, with the Mobius weights of top_weights.
    moments = partition_moments([loop_var, loop_var])
    top = NoncrossingPartition.top(2)
    bottom = NoncrossingPartition.bottom(2)
    assert len(moments) == 2
    assert cumulant([loop_var, loop_var]) == _diag(h, {"v1": 2})
    assert dict(zip(moments, top_weights(2))) == {top: 1, bottom: -1}
    assert moments[top] == _diag(h, {"v1": 2})
    assert moments[bottom].is_zero()


def test_loop_cumulant_sequence_matches_the_scalar_recursion(h, loop_var):
    ks = [trivial_cumulant(loop_var, n).get("v1").re for n in range(1, 7)]
    assert ks == [0, 2, 0, -2, 0, 4]
    assert ks == scalar_cumulants_from_moments(
        [Fraction(m) for m in (0, 2, 0, 6, 0, 20)]
    )


def test_third_cumulant_detects_the_nested_loop_pair(h):
    # k3(L[l^2], L*[l], L*[l]) survives: only the full block contributes.
    k = cumulant(
        [
            _var(_c(h, "e1", "e2", "e1", "e2")),
            _var(_a(h, "e1", "e2")),
            _var(_a(h, "e1", "e2")),
        ]
    )
    assert k == _diag(h, {"v1": 1})


def test_moment_is_the_sum_of_nested_cumulants(h):
    # Moment-cumulant duality: E(a1...an) = sum over NC(n) of k_pi.
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(3):
            variables = [random_variable(h, rng) for _ in range(n)]
            total = DiagonalElement.zero(h)
            for p in enumerate_nc(n):
                total = total + nested_cumulant(p, variables)
            assert total == moment(variables)


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.integers(2, 4), st.randoms(use_true_random=False))
def test_moment_is_the_sum_of_nested_cumulants_on_branching_graphs(g, n, rng):
    # moment does not share chain products, so this checks the cumulants
    # against the plain left-to-right product chain.
    variables = [_random_slot_variable(g, rng) for _ in range(n)]
    total = DiagonalElement.zero(g)
    for p in enumerate_nc(n):
        total = total + nested_cumulant(p, variables)
    assert total == moment(variables)


def _slot_diagonals(g, rng, n) -> list[DiagonalElement | None]:
    return [_random_diagonal(g, rng) if rng.random() < 0.5 else None for _ in range(n)]


def test_cumulant_matches_the_uncached_partition_sum():
    # Two variable objects fill all n slots, so one variable comes back under
    # different pending diagonals, both given and spliced in by blocks.  Each
    # graph family runs its own examples, and a zero cumulant checks little,
    # so the nonzero ones are counted and floored.
    # Words up to length 3 give the 3-cycles of the unbranched family loops.
    nonzero: dict[str, list[bool]] = {}
    for family, max_len in ((branching_graphs, 2), (unbranched_graphs, 3)):
        counts = nonzero[family.__name__] = []

        @settings(max_examples=80, deadline=None)
        @given(family(), st.integers(1, 5), st.randoms(use_true_random=False))
        def check(g, n, rng):
            pool = [_random_slot_variable(g, rng, max_len=max_len) for _ in range(2)]
            variables = [rng.choice(pool) for _ in range(n)]
            diagonals = _slot_diagonals(g, rng, n)
            want = uncached_cumulant(variables, diagonals)
            assert cumulant(variables, diagonals) == want
            counts.append(not want.is_zero())

        check()
    for family, counts in nonzero.items():
        assert 20 * sum(counts) >= len(counts), (family, sum(counts), len(counts))


def test_first_block_recursion_matches_the_partition_sums():
    # Adjoints and a vertex compression in the pool give cumulants that the
    # recursion reaches through gap moments of both gradings and of one
    # vertex only.  The nonzero cumulants are counted and floored.
    nonzero = []

    @settings(max_examples=100, deadline=None)
    @given(branching_graphs(), st.integers(1, 5), st.randoms(use_true_random=False))
    def check(g, n, rng):
        pool = [_random_slot_variable(g, rng) for _ in range(2)]
        pool += [x.adjoint() for x in pool]
        pool.append(compress_vertex(pool[0], rng.choice(sorted(g.vertices))))
        variables = [rng.choice(pool) for _ in range(n)]
        want = uncached_cumulant(variables)
        assert _ChainProducts().kappa(variables) == want
        assert cumulant(variables) == want
        trivial = trivial_cumulant(variables[0], n)
        assert trivial == uncached_cumulant([variables[0]] * n)
        assert trivial == cumulant([variables[0]] * n)
        nonzero.append(not want.is_zero())

    check()
    assert 20 * sum(nonzero) >= len(nonzero), (sum(nonzero), len(nonzero))


def test_mobius_sum_of_the_partition_moments_is_the_cumulant():
    # The NC(n) route that --contributions prints, weighted by top_weights,
    # against the recursion that gives every cumulant value.  The nonzero
    # cumulants are counted and floored.
    nonzero = []

    @settings(max_examples=80, deadline=None)
    @given(branching_graphs(), st.integers(1, 5), st.randoms(use_true_random=False))
    def check(g, n, rng):
        pool = [_random_slot_variable(g, rng) for _ in range(2)]
        variables = [rng.choice(pool) for _ in range(n)]
        diagonals = _slot_diagonals(g, rng, n)
        moments = partition_moments(variables, diagonals)
        assert tuple(moments) == enumerate_nc(n)
        total = DiagonalElement.zero(g)
        for value, weight in zip(moments.values(), top_weights(n)):
            total = total + value.scale(weight)
        want = cumulant(variables, diagonals)
        assert total == want
        nonzero.append(not want.is_zero())

    check()
    assert 20 * sum(nonzero) >= len(nonzero), (sum(nonzero), len(nonzero))


def _large_denominator_variable(g, rng, primes) -> RandomVariable:
    # Vertex terms and loops, plus the adjoint half the time, as in
    # _random_slot_variable, keep many cumulants nonzero.  Every coefficient
    # is complex with two fresh prime denominators.
    words = [w for w in enumerate_paths(g, 2) if w.is_vertex or w.is_loop]
    items = []
    for _ in range(rng.randint(1, 3)):
        c = ExactComplex(large_rational(rng, primes), large_rational(rng, primes))
        items.append(((rng.choice(words), rng.random() < 0.5), c))
    a = RandomVariable(g, items)
    return a + a.adjoint() if rng.random() < 0.5 else a


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_large_coprime_denominators_match_the_oracles(g, n, rng):
    # The table clears each factor's denominators once and divides once per
    # block value; the oracles multiply Fractions throughout.
    primes = rng.sample(LARGE_PRIMES, len(LARGE_PRIMES))
    pool = [_large_denominator_variable(g, rng, primes) for _ in range(2)]
    variables = [rng.choice(pool) for _ in range(n)]
    diagonals = [
        _diag(g, {
            v: ExactComplex(large_rational(rng, primes), large_rational(rng, primes))
            for v in g.vertices
        })
        if rng.random() < 0.5 else None
        for _ in range(n)
    ]
    assert cumulant(variables, diagonals) == uncached_cumulant(variables, diagonals)
    assert trivial_cumulant(variables[0], n) == uncached_cumulant([variables[0]] * n)
    items = list(zip(diagonals, variables))
    p = rng.choice(enumerate_nc(n))
    moments = partition_moments(variables, diagonals)
    assert moments[p] == partition_moment_by_interval_search(p, items)


@settings(max_examples=80, deadline=None)
@given(branching_graphs(), st.randoms(use_true_random=False))
def test_form_id_values_match_the_element_algebra(g, rng):
    # A form-id value clears its denominators once and divides once, in its
    # expectation; multiply and expectation keep Fractions throughout.  Each
    # coefficient's parts have two fresh large prime denominators.
    primes = rng.sample(LARGE_PRIMES, len(LARGE_PRIMES))
    words = enumerate_paths(g, 2)

    def draw():
        return RandomVariable(g, [
            (
                (rng.choice(words), rng.random() < 0.5),
                ExactComplex(large_rational(rng, primes), large_rational(rng, primes)),
            )
            for _ in range(rng.randint(1, 4))
        ])

    x = draw()
    # Adding the adjoint keeps many products' expectations nonzero.
    y = x.adjoint() + draw() if rng.random() < 0.5 else draw()
    forms = _FormIds()
    fx, fy = forms.factor(to_general(x)), forms.factor(to_general(y))
    assert forms.expectation(fx) == expectation(x)
    assert forms.expectation(fy) == expectation(y)
    assert forms.expectation(forms.times(fx, fy, {})) == expectation(multiply(x, y))


def test_cancelling_products_store_no_zero_entry(h):
    # E(x y) = -L[v1] + L[v1]: the two vertex terms cancel exactly.
    x = _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))
    y = _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2")).scale(-1)
    assert moment([x, y]).entries == {}
    assert cumulant([x, y]).entries == {}


def test_products_reject_variables_over_different_graphs(h, fork):
    x = _var(_c(h, "e1"))
    y = _var(_c(fork, "p"))
    with pytest.raises(DomainError):
        cumulant([x, y])
    with pytest.raises(DomainError):
        moment([x, y])
    with pytest.raises(DomainError):
        partition_moments([x, y])


def test_products_reject_a_diagonal_over_another_graph(h, loop_var):
    # The edgeless graph shares h's vertex names, so the diagonal's entries
    # would read as valid vertices of h.
    other = load_graph({"vertices": ["v1", "v2"], "edges": []})
    d = _diag(other, {"v1": 1})
    message = "cannot multiply elements over different graphs"
    with pytest.raises(DomainError, match=message):
        moment([loop_var, loop_var], [None, d])
    with pytest.raises(DomainError, match=message):
        cumulant([loop_var, loop_var], [None, d])
    with pytest.raises(DomainError, match=message):
        partition_moments([loop_var, loop_var], [None, d])
    # L[e1] L[e1] chains into no closed walk, so the cumulant is zero before
    # any product, but the foreign diagonal is refused first.
    e1 = _var(_c(h, "e1"))
    assert cumulant([e1, e1]).is_zero()
    with pytest.raises(DomainError, match=message):
        cumulant([e1, e1], [None, d])


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_cumulant_of_the_mirrored_slots_is_the_adjoint(g, n, rng):
    # The scans skip a pattern whose mirror came earlier on this identity.
    pool = [_random_slot_variable(g, rng) for _ in range(2)]
    variables = [rng.choice(pool) for _ in range(n)]
    mirrored = [x.adjoint() for x in reversed(variables)]
    assert uncached_cumulant(variables).conjugate() == uncached_cumulant(mirrored)


def test_trivial_cumulants_of_the_loop_file_are_arcsine():
    h, a = _loop_file()
    # k_2m = (-1)^(m-1) 2 C_(m-1) at v1, odd cumulants 0.
    want = [0 if n % 2 else (-1) ** (n // 2 - 1) * 2 * catalan(n // 2 - 1) for n in range(2, 9)]
    got = [trivial_cumulant(a, n) for n in range(2, 9)]
    assert got == [_diag(h, {"v1": k}) for k in want]
    assert want == [2, 0, -2, 0, 4, 0, -10]


def test_trivial_cumulant_needs_a_positive_order():
    _h, a = _loop_file()
    for n in (0, -1):
        with pytest.raises(DomainError, match="at least one variable slot"):
            trivial_cumulant(a, n)


def test_freeness_scan_matches_the_uncached_brute_scan():
    # A pair with a zero variable is free and checks nothing, so the
    # examples with both variables nonzero are counted and floored.
    nonzero = []

    @settings(max_examples=40, deadline=None)
    @given(branching_graphs(), st.randoms(use_true_random=False))
    def check(g, rng):
        # Two terms at most keep the uncached scan of a free pair short.
        a, b = _random_slot_variable(g, rng, 2), _random_slot_variable(g, rng, 2)
        nonzero.append(not a.is_zero() and not b.is_zero())
        ok, witness = mixed_cumulants_vanish(a, b, 4)
        found = None if witness is None else (witness.order, witness.pattern, witness.value)
        assert (ok, found) == freeness_scan_by_brute_force(a, b, 4)

    check()
    assert sum(nonzero) >= 36, (sum(nonzero), len(nonzero))


def test_scans_visit_the_patterns_of_their_former_inline_loops(h, monkeypatch):
    # The loops that mixed_cumulants_vanish and classify each carried before
    # they shared _unmirrored_patterns, written out as the oracle.  Every
    # cumulant reads zero, so each scan visits all of its patterns; they must
    # come in the same order, or a witness would move.
    def scan_loop(max_order):
        for n in range(2, max_order + 1):
            for pattern in product(range(4), repeat=n):
                mixed = {i >> 1 for i in pattern} == {0, 1}
                if not mixed or tuple(i ^ 1 for i in reversed(pattern)) < pattern:
                    continue
                yield pattern

    def classify_loop(max_order):
        for n in range(1, max_order + 1):
            for pattern in product((False, True), repeat=n):
                alternating = n % 2 == 0 and all(
                    pattern[i] != pattern[i + 1] for i in range(n - 1)
                )
                mirror = tuple(not star for star in reversed(pattern))
                if alternating or mirror < pattern:
                    continue
                yield tuple(map(int, pattern))

    visited = []

    def kappa(self, variables):
        visited.append(list(variables))
        return DiagonalElement.zero(h)

    monkeypatch.setattr(_ChainProducts, "kappa", kappa)
    a, b = _var(_c(h, "e1")), _var(_c(h, "e2", "e1"))
    slots = [a, a.adjoint(), b, b.adjoint()]

    def indices(variables):
        return tuple(slots.index(x) for x in variables)

    for max_order in range(2, 7):
        visited.clear()
        assert mixed_cumulants_vanish(a, b, max_order) == (True, None)
        assert [indices(v) for v in visited] == list(scan_loop(max_order))
    for max_order in (2, 4, 6):
        visited.clear()
        classify(a, max_order)
        trivial, rest = visited[:max_order], visited[max_order:]
        assert trivial == [[a] * n for n in range(1, max_order + 1)]
        assert [indices(v) for v in rest] == list(classify_loop(max_order))


def test_closed_walk_check_is_exact_and_fires():
    # Compressions of one variable at two vertices u != w, their adjoints and
    # a variable on non-loop paths: many slot sequences cannot chain into a
    # closed walk, so the table's check answers zero before it builds any
    # product.  Both the answers it gives and those it leaves to the
    # recursion must match the NC(n) sum, and the check must fire often
    # enough that the property is not vacuous.  The same slots then take
    # diagonals whose supports each miss a vertex: such a diagonal projects
    # away the terms that start there, so the check also fires on sequences
    # that close with unit slots.
    fired, fired_by_diagonals = [], []

    @settings(max_examples=60, deadline=None)
    @given(branching_graphs(), st.integers(2, 4), st.randoms(use_true_random=False))
    def check(g, n, rng):
        assume(len(g.vertices) >= 2)
        # v0 always carries a loop, so the compression at u has one.
        u, w = "v0", rng.choice(sorted(v for v in g.vertices if v != "v0"))
        paths = enumerate_paths(g, 2)

        def draw(words, k):
            # Distinct words with nonzero coefficients: no term cancels.
            return RandomVariable(g, [
                ((p, rng.random() < 0.5), Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)))
                for p in rng.sample(words, min(k, len(words)))
            ])

        loop = rng.choice([p for p in paths if p.is_loop and p.source == u])
        based = [p for p in paths if (p.is_vertex or p.is_loop) and p.source in (u, w)]
        x = draw([loop], 1) + draw([p for p in based if p != loop], rng.randint(1, 3))
        pool = [compress_vertex(x, u), compress_vertex(x, w)]
        pool += [c.adjoint() for c in pool]
        walks = [p for p in paths if not p.is_vertex and not p.is_loop] or paths
        pool.append(draw(walks, rng.randint(1, 2)))
        variables = [rng.choice(pool) for _ in range(n)]
        table = _ChainProducts()
        assert table.kappa(variables) == uncached_cumulant(variables)
        fired.append(not table._products)
        diagonals = []
        for _ in range(n):
            missing = rng.choice(sorted(g.vertices))
            support = [v for v in sorted(g.vertices) if v != missing]
            diagonals.append(
                _diag(g, {v: Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                          for v in rng.sample(support, rng.randint(1, len(support)))})
                if rng.random() < 0.5 else None
            )
        projected = _ChainProducts()
        want = uncached_cumulant(variables, diagonals)
        assert projected.kappa(variables, diagonals) == want
        assert cumulant(variables, diagonals) == want
        fired_by_diagonals.append(bool(table._products) and not projected._products)
        a, b = rng.sample(pool, 2)
        ok, witness = mixed_cumulants_vanish(a, b, 3)
        found = None if witness is None else (witness.order, witness.pattern, witness.value)
        assert (ok, found) == freeness_scan_by_brute_force(a, b, 3)

    check()
    assert 4 * sum(fired) >= len(fired), (sum(fired), len(fired))
    missed = len(fired) - sum(fired)
    assert 5 * sum(fired_by_diagonals) >= missed, (sum(fired_by_diagonals), missed)


def test_scan_cumulants_of_loops_at_two_vertices_build_no_product(h):
    # The loop e1 e2 sits at v1 and e2 e1 at v2: no mixed pattern closes, so
    # every mixed cumulant is zero before a chain product is built.
    a = _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))
    b = _var(_c(h, "e2", "e1")) + _var(_a(h, "e2", "e1"))
    table = _ChainProducts()
    for n in range(2, 6):
        for pattern in product((a, b), repeat=n):
            if any(x is a for x in pattern) and any(x is b for x in pattern):
                assert table.kappa(list(pattern)).is_zero()
    assert table._products == {}
    assert mixed_cumulants_vanish(a, b, 6) == (True, None)


@settings(max_examples=40, deadline=None)
@given(branching_graphs(), st.randoms(use_true_random=False))
def test_freeness_at_unit_slots_survives_vertex_projection_insertions(g, rng):
    # Freeness over D asks mixed cumulants to vanish with diagonal arguments
    # between the slots too, but the scan puts units there.  By the bimodule
    # property a projection in front of slot 1 only multiplies the value, so
    # slots 2..n take every choice of single vertex projections.
    a, b = _random_slot_variable(g, rng, 2), _random_slot_variable(g, rng, 2)
    if not mixed_cumulants_vanish(a, b, 3)[0]:
        return
    slots = (a, a.adjoint(), b, b.adjoint())
    projections = [_diag(g, {v: 1}) for v in sorted(g.vertices)]
    for n in (2, 3):
        for pattern in product(range(4), repeat=n):
            if {i >> 1 for i in pattern} != {0, 1}:
                continue
            for inserted in product(projections, repeat=n - 1):
                value = uncached_cumulant([slots[i] for i in pattern], [None, *inserted])
                assert value.is_zero(), (pattern, inserted, value)


def test_cumulant_is_a_diagonal_bimodule_map(h):
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(5):
            variables = [random_variable(h, rng) for _ in range(n)]
            d = _diag(
                h,
                {
                    "v1": Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                    "v2": Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                },
            )
            dp = _diag(h, {"v1": rng.randint(-2, 2), "v2": rng.randint(-2, 2)})
            framed = cumulant(
                [multiply(d, variables[0])]
                + list(variables[1:-1])
                + [multiply(variables[-1], dp)]
            )
            assert framed == d * cumulant(variables) * dp


def test_diagonal_slots_match_premultiplied_variables(h):
    rng = random.Random(37)
    for _ in range(5):
        a, b = random_variable(h, rng), random_variable(h, rng)
        d = _diag(h, {"v1": Fraction(1, 3), "v2": -2})
        assert cumulant([a, b], [None, d]) == cumulant([a, multiply(d, b)])


# -- the connectivity-multiplier shortcut ----------------------------------------


def test_connectivity_of_the_alternating_pair(h):
    letters = [_c(h, "e1"), _a(h, "e1")]
    weight, connected = connectivity_multiplier(letters)
    assert weight == 1
    assert connected == [NoncrossingPartition.top(2)]
    assert is_partition_connected(NoncrossingPartition.top(2), letters)
    assert not is_partition_connected(NoncrossingPartition.bottom(2), letters)


def test_connectivity_of_the_alternating_quadruple(h):
    letters = [_c(h, "e1"), _a(h, "e1"), _c(h, "e1"), _a(h, "e1")]
    weight, connected = connectivity_multiplier(letters)
    assert weight == -1
    assert {p.blocks for p in connected} == {
        ((1, 2, 3, 4),),
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    }


def test_shortcut_cumulant_agrees_with_inversion(h, h_letters):
    letters = list(h_letters.values())
    cases = 0
    for n in (2, 3):
        for tup in product(letters, repeat=n):
            if not lattice_path(Monomial(tuple(tup))).star_axis:
                continue
            cases += 1
            direct = cumulant([_var(x) for x in tup])
            assert cumulant_via_multiplier(list(tup)) == direct
    assert cases > 10


def test_shortcut_cumulant_on_length_four_words(h):
    quad = [_c(h, "e1"), _a(h, "e1"), _c(h, "e1"), _a(h, "e1")]
    assert cumulant_via_multiplier(quad) == _diag(h, {"v1": -1})
    assert cumulant([_var(x) for x in quad]) == _diag(h, {"v1": -1})
    loop_quad = [
        _c(h, "e1", "e2"),
        _a(h, "e1", "e2"),
        _c(h, "e1", "e2"),
        _a(h, "e1", "e2"),
    ]
    assert cumulant_via_multiplier(loop_quad) == _diag(h, {"v1": -1})


def test_shortcut_requires_the_star_axis_property(h):
    with pytest.raises(DomainError):
        cumulant_via_multiplier([_c(h, "e1"), _c(h, "e2")])


# -- freeness ------------------------------------------------------------------


def test_disjoint_edge_letters_are_free(h):
    a, b = _var(_c(h, "e1")), _var(_c(h, "e2"))
    assert freeness_certificate(a, b)
    ok, witness = mixed_cumulants_vanish(a, b, max_order=4)
    assert ok and witness is None


def test_certified_pairs_have_vanishing_mixed_cumulants(h):
    # Soundness on a small corpus: supports {e1 words} vs {e2 words} share
    # no edge, and no vertex of h has two out-edges (clause (ii)), so every
    # mixed cumulant must vanish.
    rng = random.Random(41)
    pool_a = [path_word(h, ["e1"])]
    pool_b = [path_word(h, ["e2"])]
    for _ in range(6):
        a = random_variable(h, rng, words=pool_a)
        b = random_variable(h, rng, words=pool_b)
        if not (a.path_support() and b.path_support()):
            continue
        assert freeness_certificate(a, b)
        ok, _w = mixed_cumulants_vanish(a, b, max_order=3)
        assert ok


def test_loop_and_its_square_are_not_free(h):
    a = _var(_c(h, "e1", "e2"))
    b = _var(_c(h, "e1", "e2", "e1", "e2"))
    assert not freeness_certificate(a, b)
    ok, witness = mixed_cumulants_vanish(a, b, max_order=3)
    assert not ok
    assert witness.order == 3
    assert set(witness.pattern) == {"a", "b*"} or set(witness.pattern) == {
        "b",
        "a*",
    }
    assert not witness.value.is_zero()


def test_certificate_refuses_loops_at_a_branching_vertex(tri):
    # The loops sx and a b c share no edge, but both are based at x, which
    # has two out-edges: neither clause holds, and the pair is not free.
    a = _var(_c(tri, "sx")) + _var(_a(tri, "sx"))
    b = _var(_c(tri, "a", "b", "c")) + _var(_a(tri, "a", "b", "c"))
    assert not freeness_certificate(a, b)


def test_scan_witness_at_the_branching_vertex(tri):
    # The witness that the certificate must not contradict, pinned exactly:
    # the mirror skip must neither hide it nor change it.
    a = _var(_c(tri, "sx")) + _var(_a(tri, "sx"))
    b = _var(_c(tri, "a", "b", "c")) + _var(_a(tri, "a", "b", "c"))
    ok, witness = mixed_cumulants_vanish(a, b, max_order=4)
    assert not ok
    assert (witness.order, witness.pattern) == (4, ("a", "b", "b", "a"))
    assert witness.value == _diag(tri, {"x": -1})


def _pair_on_the_two_cycle(h):
    # No vertex of h branches, and the supports {e1 e2 e1} and
    # {e2 e1, e1 e2} are diagram-distinct, but they share both edges.
    a = _var(_c(h, "e1", "e2", "e1")) + _var(_a(h, "e1", "e2", "e1"))
    b = _var(_c(h, "e2", "e1")) + _var(_a(h, "e2", "e1"))
    return a, b + _var(_c(h, "e1", "e2")) + _var(_a(h, "e1", "e2"))


def test_certificate_refuses_the_edge_sharing_pair_on_the_two_cycle(h):
    # Diagram-distinct supports alone once certified this pair; the word
    # endpoints meet and the edges are shared, so neither clause holds.
    a, b = _pair_on_the_two_cycle(h)
    assert not freeness_certificate(a, b)


def test_scan_witness_of_the_certified_pair_on_the_two_cycle(h):
    # The witness of the pair that diagram-distinct supports once certified,
    # and the NC(n) oracle agrees.
    a, b = _pair_on_the_two_cycle(h)
    ok, witness = mixed_cumulants_vanish(a, b, max_order=4)
    assert not ok
    assert (witness.order, witness.pattern) == (4, ("a", "b", "a", "b"))
    assert witness.value == _diag(h, {"v1": 2, "v2": 2})
    assert uncached_cumulant([a, b, a, b]) == witness.value


def test_identical_variables_with_path_support_are_not_free(h):
    a = _var(_c(h, "e1")) + _var(_a(h, "e1"))
    ok, witness = mixed_cumulants_vanish(a, a)
    assert not ok
    assert witness.order == 2
    assert not witness.value.is_zero()


def test_diagonal_variables_are_free_from_everything(h):
    d = unit_variable(h)
    a = _var(_c(h, "e1"))
    assert freeness_certificate(d, a)
    ok, _w = mixed_cumulants_vanish(d, a, max_order=3)
    assert ok


def _certificate_pair(g, rng) -> tuple[RandomVariable, RandomVariable]:
    # Each variable takes one or two path words, mostly with their adjoints,
    # and half the time a vertex term as well.  A third of the pairs draw
    # both from every path.  A third split the edges in two and draw each
    # variable from the paths on one part, so the supports share no edge and
    # reach clause (ii).  A third split the vertices and draw each variable
    # from the paths whose two endpoints lie in one part, for clause (i).
    paths = [w for w in enumerate_paths(g, 3) if not w.is_vertex]
    pools = (paths, paths)
    mode = rng.randint(0, 2)
    if mode == 1 and len(g.edges) > 1:
        ids = [e.id for e in g.edges]
        rng.shuffle(ids)
        cut = rng.randint(1, len(ids) - 1)
        pools = tuple([w for w in paths if set(w.edges) <= set(part)]
                      for part in (ids[:cut], ids[cut:]))
    elif mode == 2:
        part = set(rng.sample(g.vertices, rng.randint(1, len(g.vertices) - 1)))
        pools = tuple([w for w in paths if {w.source, w.target} <= side]
                      for side in (part, set(g.vertices) - part))
    if not all(pools):
        pools = (paths, paths)
    pair = []
    for pool in pools:
        x = nonzero_variable(g, rng, pool, 2, self_adjoint=rng.random() < 0.75)
        if rng.random() < 0.5:
            x = x + nonzero_variable(g, rng, [vertex_word(g, v) for v in g.vertices], 1)
        pair.append(x)
    return tuple(pair)


def test_certified_pairs_scan_free_to_order_five():
    # The certificate is sound only if no certified pair has a nonvanishing
    # mixed cumulant.  Clause (i) follows from the closed-walk argument and
    # clause (ii) is checked here.  Both variables always carry paths; each
    # family floors its certified examples, and the unbranched family, where
    # clause (ii) certifies pairs whose word endpoints meet, floors those.
    certified: dict[str, list[bool]] = {}
    by_clause_two: dict[str, list[bool]] = {}
    for family, examples in ((branching_graphs, 150), (unbranched_graphs, 80)):
        counts = certified[family.__name__] = []
        second = by_clause_two[family.__name__] = []

        @settings(max_examples=examples, deadline=None)
        @given(family(), st.randoms(use_true_random=False))
        def check(g, rng):
            # One vertex is every word's endpoint: nothing there is certified.
            assume(len(g.vertices) >= 2)
            a, b = _certificate_pair(g, rng)
            counts.append(freeness_certificate(a, b))
            if not counts[-1]:
                return
            ends = [{v for w in x.path_support() for v in (w.source, w.target)} for x in (a, b)]
            second.append(bool(ends[0] & ends[1]))
            assert mixed_cumulants_vanish(a, b, 5) == (True, None)

        check()
    # Over 22 hypothesis seeds: 7-38 of the 150 branching examples were
    # certified, and 24-56 of the 80 unbranched ones, 7-39 by clause (ii).
    assert sum(certified["branching_graphs"]) >= 3, certified
    assert sum(certified["unbranched_graphs"]) >= 10, certified
    assert sum(by_clause_two["unbranched_graphs"]) >= 3, by_clause_two


def test_freeness_checks_reject_mismatched_graphs(h, fork):
    a = _var(_c(h, "e1"))
    b = _var(_c(fork, "p"))
    with pytest.raises(DomainError):
        mixed_cumulants_vanish(a, b)
    with pytest.raises(DomainError):
        freeness_certificate(a, b)
    with pytest.raises(DomainError):
        mixed_cumulants_vanish(a, a, max_order=1)


# -- classification --------------------------------------------------------------


def test_loop_variable_is_even_but_not_semicircular(h, loop_var):
    report = classify(loop_var, max_order=6)
    assert report.self_adjoint
    assert report.even
    assert not report.semicircular
    assert not report.r_diagonal
    assert report.support_hint == "loops"


def test_edge_sum_variable_is_even(h):
    a = _var(_c(h, "e1")) + _var(_a(h, "e1"))
    report = classify(a, max_order=4)
    assert report.self_adjoint and report.even
    assert not report.semicircular


def test_single_edge_letter_is_r_diagonal(h):
    report = classify(_var(_c(h, "e1")), max_order=4)
    assert not report.self_adjoint
    assert report.r_diagonal
    assert report.support_hint == "non-loop paths"


def test_classify_rejects_bad_orders(h, loop_var):
    with pytest.raises(DomainError):
        classify(loop_var, max_order=1)
    with pytest.raises(DomainError):
        classify(loop_var, max_order=5)
