"""Noncrossing partition lattice: enumeration, order, Mobius function.

Ground truth comes from independent oracles: the Catalan recurrence, a naive
quadruple-scan crossing test, brute-force set-partition enumeration, and the
poset recursion for the Mobius function.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfp import DomainError, NoncrossingPartition, enumerate_nc, mobius
from graphfp.ncpart import leq, top_weights

from util import (
    catalan,
    catalan_by_recurrence,
    has_crossing,
    mobius_by_recursion,
    set_partitions,
)


def test_counts_match_catalan_recurrence():
    for n in range(1, 10):
        assert len(enumerate_nc(n)) == catalan_by_recurrence(n)


def test_enumeration_is_canonical_and_duplicate_free():
    for n in range(1, 8):
        parts = enumerate_nc(n)
        assert len(set(parts)) == len(parts)
        keys = [p.blocks for p in parts]
        assert keys == sorted(keys)


def test_every_enumerated_partition_is_noncrossing():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert not has_crossing(p.blocks)
            assert sorted(x for b in p.blocks for x in b) == list(range(1, n + 1))


def test_enumeration_equals_noncrossing_set_partitions():
    for n in range(1, 7):
        naive = {
            tuple(sorted(tuple(sorted(b)) for b in blocks))
            for blocks in set_partitions(list(range(1, n + 1)))
            if not has_crossing(blocks)
        }
        assert {p.blocks for p in enumerate_nc(n)} == naive


def test_constructor_rejects_bad_partitions():
    with pytest.raises(DomainError):
        NoncrossingPartition(4, ((1, 3), (2, 4)))  # the crossing pair
    with pytest.raises(DomainError):
        NoncrossingPartition(3, ((1, 2),))  # 3 missing
    with pytest.raises(DomainError):
        NoncrossingPartition(2, ((1, 2), (2,)))  # duplicate element
    with pytest.raises(DomainError):
        NoncrossingPartition(0, ())


def test_constructor_canonicalizes_block_order():
    p = NoncrossingPartition(4, ((4, 3), (2, 1)))
    assert p.blocks == ((1, 2), (3, 4))


def test_enumerate_bounds():
    with pytest.raises(DomainError):
        enumerate_nc(0)
    with pytest.raises(DomainError):
        enumerate_nc(12)


def test_refinement_order():
    n = 4
    bot, top = NoncrossingPartition.bottom(n), NoncrossingPartition.top(n)
    for p in enumerate_nc(n):
        assert leq(bot, p) and leq(p, top) and leq(p, p)
    a = NoncrossingPartition(4, ((1, 2), (3,), (4,)))
    b = NoncrossingPartition(4, ((1, 2), (3, 4)))
    assert leq(a, b) and not leq(b, a)
    with pytest.raises(DomainError):
        leq(bot, NoncrossingPartition.top(3))


def test_mobius_requires_comparable_arguments():
    a = NoncrossingPartition(3, ((1, 2), (3,)))
    b = NoncrossingPartition(3, ((1,), (2, 3)))
    with pytest.raises(DomainError):
        mobius(a, b)


def test_mobius_reflexive_and_covers():
    top = NoncrossingPartition.top(5)
    assert mobius(top, top) == 1
    # A coatom differs from the top in exactly one split: mu = -1.
    coatom = NoncrossingPartition(5, ((1,), (2, 3, 4, 5)))
    assert mobius(coatom, top) == -1


def test_mobius_closed_form_bottom_to_top():
    for n in range(1, 9):
        got = mobius(NoncrossingPartition.bottom(n), NoncrossingPartition.top(n))
        assert got == (-1) ** (n - 1) * catalan(n - 1)


def test_mobius_defining_identity_exhaustive():
    # sum over z in [x, y] of mu(z, y) is 1 iff x == y, else 0.
    for n in range(1, 7):
        parts = enumerate_nc(n)
        below = {q: [z for z in parts if leq(z, q)] for q in parts}
        for y in parts:
            mu_into_y = {z: mobius(z, y) for z in below[y]}
            for x in below[y]:
                total = sum(mu_into_y[z] for z in below[y] if leq(x, z))
                assert total == (1 if x == y else 0), (n, x.blocks, y.blocks)


def test_closed_form_matches_the_recursion_on_every_comparable_pair():
    for n in range(1, 7):
        parts = enumerate_nc(n)
        pairs = [(p, q) for p in parts for q in parts if leq(p, q)]
        for p, q in pairs:
            assert mobius(p, q) == mobius_by_recursion(p, q), (p.blocks, q.blocks)
    assert len(pairs) == 1428


def test_top_weights_follow_the_enumeration_order():
    for n in range(1, 9):
        top = NoncrossingPartition.top(n)
        assert top_weights(n) == tuple(mobius(p, top) for p in enumerate_nc(n))
    with pytest.raises(DomainError):
        top_weights(12)


def _restrict(p: NoncrossingPartition, block) -> NoncrossingPartition:
    """p|_W relabelled to 1..|W|, for a block W that p refines."""
    rank = {x: i for i, x in enumerate(block, start=1)}
    inside = [b for b in p.blocks if b[0] in rank]
    return NoncrossingPartition(len(block), tuple(tuple(rank[x] for x in b) for b in inside))


@st.composite
def comparable_pairs(draw):
    """(p, q) with p <= q: q from NC(n), then a noncrossing partition of each
    block of q, relabelled into it."""
    n = draw(st.integers(2, 10))
    q = draw(st.sampled_from(enumerate_nc(n)))
    blocks = []
    for w in q.blocks:
        sub = draw(st.sampled_from(enumerate_nc(len(w))))
        blocks.extend(tuple(w[i - 1] for i in b) for b in sub.blocks)
    return NoncrossingPartition(n, tuple(blocks)), q


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10).flatmap(lambda n: st.sampled_from(enumerate_nc(n))))
def test_weights_to_the_top_sum_to_zero_above_every_partition(p):
    # sum over sigma in [p, 1_n] of mu(sigma, 1_n) is 0 unless p = 1_n.
    top = NoncrossingPartition.top(p.n)
    total = sum(mobius(s, top) for s in enumerate_nc(p.n) if leq(p, s))
    assert total == (1 if p == top else 0)


@settings(max_examples=60, deadline=None)
@given(comparable_pairs())
def test_mobius_factors_over_the_blocks_of_the_upper_partition(pair):
    p, q = pair
    assert leq(p, q)
    product = 1
    for w in q.blocks:
        product *= mobius(_restrict(p, w), NoncrossingPartition.top(len(w)))
    assert mobius(p, q) == product
