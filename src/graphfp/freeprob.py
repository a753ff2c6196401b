"""Amalgamated moments and cumulants over the vertex diagonal.

Moments are diagonal expectations of interleaved products
``E(d1 a1 d2 a2 ... dn an)``.  Partition moments evaluate a noncrossing
partition by eliminating its blocks in decreasing order of their minima,
each then an interval of the surviving positions: its bracket is evaluated
under E and the resulting diagonal value is spliced in as a left multiplier
of the next surviving position; values of blocks with nothing to their right
multiply into the final answer.  The order is immaterial because E is a
bimodule map over the diagonal, E(d X d') = d E(X) d'.  Every cumulant
value, ``cumulant`` and ``trivial_cumulant`` included, comes from the
first-block recursion (Speicher): with V = {1 = i1 < ... < is} the block of 1,

    k_n(x1, ..., xn) = E(x1 ... xn)
        - sum over V != [n] of k_s(x1, D2 x_i2, ..., Ds x_is) E(x_(is+1) ... xn),

Dt being E of the gap in front of x_it times that slot's own diagonal, split
into vertex projections since D is the functions on the vertices.  Only
``partition_moments`` walks NC(n): it evaluates E along every partition, for
the CLI's ``--contributions``, and sums nothing.

A block's value depends only on its variables and the diagonals pending in
front of them, so each top-level call (a cumulant, a freeness scan, a
classification) keeps one table of chain products and extends a stored
prefix by one slot instead of rebuilding the chain for every partition,
pattern and order.  The table is built over the call's positions, a
position being a variable and the diagonal in front of it: the scans'
patterns and a partition's blocks are tuples of positions.

A normal form L[alpha] L*[beta] sits in the vertex corner (source of alpha,
source of beta).  ``opcalc._pair_product`` gives zero when two factors'
vertices differ, a chain product keeps its first factor's left vertex and
its last factor's right vertex, and E reads only (v, v) forms.  The
recursion is multilinear in each slot, so by induction on the order a
cumulant is zero, term choice by term choice, unless one term per slot
chains into a closed walk of vertices; no associativity is assumed.  A
diagonal d in front of a slot keeps only the terms whose left vertex lies
in the support of d.  A table cuts each position's corners once, when it is
built, and returns zero without a product when no choice closes.

``moment`` and the compressed moment series build their chain directly and
prune it by grading.  A normal form L[alpha] L*[beta] has grading
|alpha| - |beta|; every reduction step adds the gradings of its factors, and
E keeps only grading-0 forms.  Each slot's range of gradings, widened to
hold 0, is summed over the slots still to come; a prefix term whose
negated grading lies outside that window can never return to grading 0 and
is dropped.  The window always holds 0, so every prefix keeps its whole
grading-0 part and its expectation stays exact.  The chain-product table
does not prune: it cannot foresee which slots will extend a prefix.

A chain step is a linear map on the span of normal forms, prefix -> prefix f.
Its row for a left pair p lists the nonzero reductions of p q, one per term
q of f, with the coefficient of q.  A moment chain keeps one dict of rows per
distinct factor, found by identity, and the table one per distinct variable
and one per pending diagonal.  A row is valid for its own factor only.  A
repeated step only multiplies coefficients and adds, and the rows go when
the call returns.
A moment chain groups its rows by the grading of the left pair: once the
window has left a grading, no later prefix holds a form of it, so the chain
deletes that grading's rows after each slot.

The table holds every factor, pending diagonal and prefix product as a
value of ``opcalc._FormIds``, which numbers each normal form the first time
the call meets it and alone knows how a value stores its exact coefficients:
Python-int numerators over one denominator, so a step takes no gcd and
hashes no ``Pair``.  A block value divides once, when it takes the
expectation.  Rows map a left form id to (form id, numerator) entries, and
the numbering goes when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .ncpart import NoncrossingPartition, enumerate_nc
from .opcalc import (
    DiagonalElement,
    Element,
    GeneralElement,
    RandomVariable,
    _FormIds,
    _grading,
    _times,
    expectation,
    to_general,
)
from .scalars import ONE

__all__ = [
    "moment",
    "partition_moments",
    "cumulant",
    "trivial_cumulant",
    "FreenessWitness",
    "mixed_cumulants_vanish",
    "freeness_certificate",
    "ClassifyReport",
    "classify",
]


def _check_slots(
    variables: Sequence[Element],
    diagonals: Sequence[DiagonalElement | None] | None,
) -> list[DiagonalElement | None]:
    if len(variables) == 0:
        raise DomainError("need at least one variable slot")
    if diagonals is None:
        return [None] * len(variables)
    if len(diagonals) != len(variables):
        raise DomainError("one diagonal multiplier per variable slot")
    return list(diagonals)


def _chain_prefixes(
    variables: Sequence[Element],
    diagonals: Sequence[DiagonalElement | None],
) -> Iterator[GeneralElement]:
    """The left-to-right products d1 a1 ... dk ak, one per variable slot,
    each cut to the gradings that the later slots can bring back to 0."""
    # Each distinct factor, found by identity, is converted once and keeps
    # one rows dict for the whole chain.
    seen: list[tuple[Element, GeneralElement, dict]] = []
    slots = []
    for d, a in zip(diagonals, variables):
        factors = []
        for f in (d, a):
            if f is not None:
                entry = next((e for e in seen if e[0] is f), None)
                if entry is None:
                    entry = (f, to_general(f), {})
                    seen.append(entry)
                factors.append(entry[1:])
        slots.append(factors)
    # A term of grading g after slot i can return to grading 0 only when -g
    # lies in the sum of the later slots' grading ranges.  Each range is
    # widened to hold 0, so every window holds 0 and contains the windows
    # after it: each prefix keeps its whole grading-0 part.
    windows = [(0, 0)]
    for factors in reversed(slots[1:]):
        lo, hi = windows[-1]
        for f, _rows in factors:
            gradings = [0, *map(_grading, f.terms)]
            lo, hi = lo + min(gradings), hi + max(gradings)
        windows.append((lo, hi))
    out: GeneralElement | None = None
    for factors, (lo, hi) in zip(slots, reversed(windows)):
        for f, rows in factors:
            out = f if out is None else _times(out, f, rows)
        out = GeneralElement._clean(
            out.graph, {p: c for p, c in out.terms.items() if lo <= -_grading(p) <= hi}
        )
        # The windows nest, so no later prefix holds a form of a grading
        # outside this one, and the rows of such left pairs are dead.
        for _f, _general, rows in seen:
            for grading in [g for g in rows if not lo <= -g <= hi]:
                del rows[grading]
        yield out


def moment(
    variables: Sequence[Element],
    diagonals: Sequence[DiagonalElement | None] | None = None,
) -> DiagonalElement:
    """E(d1 a1 d2 a2 ... dn an); a ``None`` diagonal slot is the unit."""
    for out in _chain_prefixes(variables, _check_slots(variables, diagonals)):
        pass
    return expectation(out)


class _ChainProducts:
    """The chain products of one top-level call over its positions, shared
    by all its blocks.

    A position is one slot of the call: a variable and the diagonal in
    front of it.  The table is built over the call's positions once: it
    factors each distinct variable, found by identity, with one rows dict and
    its corners; it checks each given diagonal's graph; and it stores each
    position's key item and its corners, cut to the support of its diagonal.
    ``kappa`` and ``partition_moment`` then take positions and resolve no
    variable.

    A key is a tuple of key items (slot, pending diagonal), one per block
    position.  The slot numbers the distinct variable.  The pending diagonal
    is None or the entries of the diagonal standing in front of the
    variable: a given diagonal, a block value spliced in, or in the
    recursion's own keys one vertex projection.  A table and its memo of
    cumulants live only as long as the call that made it.
    """

    def __init__(
        self,
        variables: Sequence[Element],
        diagonals: Sequence[DiagonalElement | None] | None = None,
    ) -> None:
        ds = _check_slots(variables, diagonals)
        self._forms = forms = _FormIds()
        # slot -> the distinct variable, its form-id value, its rows, and its
        # corners: left vertex of a term -> the right vertices it reaches
        self._variables: list[tuple[Element, tuple, dict, dict[str, set[str]]]] = []
        # pending diagonal -> its form-id value and rows
        self._diagonals: dict[frozenset, tuple[tuple, dict]] = {}
        # key -> [form-id value of the chain product, its expectation once a
        # block has asked for it]
        self._products: dict[tuple, list] = {}
        # key -> entries of its cumulant, from the first-block recursion
        self._cumulants: dict[tuple, dict] = {}
        # position -> its key item
        self._items: list[tuple[int, frozenset | None]] = []
        # position -> its slot's corners, cut to the support of its diagonal
        self._corners: list[dict[str, set[str]]] = []
        for x, d in zip(variables, ds):
            slot = next((i for i, s in enumerate(self._variables) if s[0] is x), None)
            if slot is None:
                slot = len(self._variables)
                value = forms.factor(to_general(x))
                corners: dict[str, set[str]] = {}
                for k in value[0]:
                    form = forms.forms[k]
                    corners.setdefault(form.alpha.source, set()).add(form.beta.source)
                self._variables.append((x, value, {}, corners))
            corners = self._variables[slot][3]
            pending = None
            if d is not None:
                # A pending diagonal is keyed by its entries, not its graph.
                if d.graph != forms.graph:
                    raise DomainError("cannot multiply elements over different graphs")
                pending = frozenset(d.entries.items())
                # A diagonal projects away the corners whose left vertex
                # lies outside its support.
                corners = {u: ws for u, ws in corners.items() if u in d.entries}
            self._items.append((slot, pending))
            self._corners.append(corners)

    def _block_value(self, key: tuple) -> DiagonalElement:
        """E(d1 a1 ... dk ak) of a key: each prefix product comes from the table
        or extends the previous prefix by one slot, and the expectation is
        stored next to the product of the whole block.  The table cannot tell
        which slots will extend a prefix, so it keeps every term."""
        forms = self._forms
        entry = self._products.get(key)
        if entry is None:
            prefix_key: tuple = ()
            for slot, pending in key:
                prefix_key += ((slot, pending),)
                cached = self._products.get(prefix_key)
                if cached is None:
                    factors = [self._variables[slot][1:3]]
                    if pending is not None:
                        diagonal = self._diagonals.get(pending)
                        if diagonal is None:
                            d = to_general(DiagonalElement(forms.graph, dict(pending)))
                            diagonal = self._diagonals[pending] = (forms.factor(d), {})
                        factors.insert(0, diagonal)
                    value = None if entry is None else entry[0]
                    for f, rows in factors:
                        value = f if value is None else forms.times(value, f, rows)
                    cached = self._products[prefix_key] = [value, None]
                entry = cached
        if entry[1] is None:
            entry[1] = forms.expectation(entry[0])
        return entry[1]

    def _kappa(self, key: tuple) -> dict:
        """Entries of the cumulant of a key, by the first-block recursion."""
        value = self._cumulants.get(key)
        if value is not None:
            return value
        n = len(key)
        value = dict(self._block_value(key).entries)
        for size in range(1, n):
            for rest in combinations(range(1, n), size - 1):
                block = (0, *rest)
                after = block[-1] + 1
                tail = self._block_value(key[after:]).entries if after < n else None
                if tail is not None and not tail:
                    continue
                # Each later position of the block, as (key item, coefficient)
                # choices: D_t split into vertex projections, None for the unit.
                choices = []
                for prev, i in zip(block, block[1:]):
                    slot, pending = key[i]
                    if prev + 1 == i:
                        choices.append((((slot, pending), None),))
                        continue
                    gap = _times_pending(self._block_value(key[prev + 1:i]).entries, pending)
                    if not gap:
                        break
                    choices.append(
                        tuple(((slot, frozenset(((v, ONE),))), c) for v, c in gap.items())
                    )
                else:
                    for combo in product(*choices):
                        inner = self._kappa((key[0], *(item for item, _c in combo)))
                        for v, k in inner.items():
                            if tail is not None:
                                if v not in tail:
                                    continue
                                k = k * tail[v]
                            for _item, c in combo:
                                if c is not None:
                                    k = c * k
                            value[v] = value[v] - k if v in value else -k
        value = self._cumulants[key] = {v: c for v, c in value.items() if not c.is_zero()}
        return value

    def kappa(self, positions: Iterable[int]) -> DiagonalElement:
        """k_n(d_i1 a_i1, ..., d_in a_in) for the call's positions
        i1, ..., in, by the recursion: a scan passes its pattern of positions
        of the table it built, and ``cumulant`` passes every position once."""
        positions = tuple(positions)
        corners = self._corners
        # The (start, end) vertices of the walks that one term per position
        # chains into; the cumulant is zero unless one of them closes.
        walks = {(u, w) for u, ws in corners[positions[0]].items() for w in ws}
        for i in positions[1:]:
            walks = {(u, w) for u, v in walks for w in corners[i].get(v, ())}
        graph = self._forms.graph
        if not any(u == w for u, w in walks):
            return DiagonalElement.zero(graph)
        key = tuple(self._items[i] for i in positions)
        return DiagonalElement._clean(graph, dict(self._kappa(key)))

    def partition_moment(self, partition: NoncrossingPartition) -> DiagonalElement:
        """E(d1 a1 ... dn an) along ``partition``, read off the call's
        positions in order: each block's key is the stored key items of its
        positions, with earlier block values spliced into the pending
        diagonals."""
        items = list(self._items)
        n = len(items)
        # after[i]: the first live position to the right of position i (n: none).
        after = list(range(1, n + 1))
        closed: DiagonalElement | None = None
        # Blocks are ordered by their minima, so when a block comes up every
        # block that starts later is gone and it is an interval of the live
        # positions; every position before it is still live.
        for block in reversed(partition.blocks):
            first, last = block[0] - 1, block[-1] - 1
            value = self._block_value(tuple(items[j - 1] for j in block))
            if value.is_zero():
                # A zero block value annihilates its enclosing bracket.
                return DiagonalElement.zero(value.graph)
            nxt = after[last]
            if nxt < n:
                slot, pending = items[nxt]
                items[nxt] = (slot, frozenset(_times_pending(value.entries, pending).items()))
            else:
                closed = value if closed is None else closed * value
            if first:
                after[first - 1] = nxt
        assert closed is not None
        return DiagonalElement(closed.graph, dict(closed.entries))


def _times_pending(entries: dict, pending: frozenset | None) -> dict:
    # The entries of a diagonal times a key item's pending diagonal.
    if pending is None:
        return entries
    own = dict(pending)
    return {v: c * own[v] for v, c in entries.items() if v in own}


def partition_moments(
    variables: Sequence[Element],
    diagonals: Sequence[DiagonalElement | None] | None = None,
) -> dict[NoncrossingPartition, DiagonalElement]:
    """E(d1 a1 ... dn an) along every partition of ``enumerate_nc(n)``, in
    that order, from one table of chain products.  ``ncpart.top_weights(n)``
    gives the Mobius weights that sum them to the cumulant."""
    table = _ChainProducts(variables, diagonals)
    return {p: table.partition_moment(p) for p in enumerate_nc(len(variables))}


def cumulant(
    variables: Sequence[Element],
    diagonals: Sequence[DiagonalElement | None] | None = None,
) -> DiagonalElement:
    """k_n(d1 a1, ..., dn an), the n-th amalgamated cumulant; a ``None``
    diagonal slot is the unit."""
    return _ChainProducts(variables, diagonals).kappa(range(len(variables)))


def trivial_cumulant(variable: Element, n: int) -> DiagonalElement:
    """k_n(a, ..., a) with unit diagonal slots."""
    return cumulant([variable] * n)


def _unmirrored_patterns(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """The patterns over range(k) of length n in product order, less each
    whose mirror (reversed, every index i flipped to i ^ 1, which swaps a
    variable and its adjoint) comes earlier.  E(X)* = E(X*) gives
    k_n(x1, ..., xn)* = k_n(xn*, ..., x1*), so a scan that has found the
    mirror zero need not look at the pattern."""
    for pattern in product(range(k), repeat=n):
        if tuple(i ^ 1 for i in reversed(pattern)) >= pattern:
            yield pattern


@dataclass
class FreenessWitness:
    """A nonvanishing mixed cumulant: its order, slot pattern, and value."""

    order: int
    pattern: tuple[str, ...]
    value: DiagonalElement


def mixed_cumulants_vanish(
    a: RandomVariable, b: RandomVariable, max_order: int = 4
) -> tuple[bool, FreenessWitness | None]:
    """Exhaustive freeness check over the diagonal.

    Scans the tuples over {a, a*, b, b*} of orders 2..max_order that use
    both letters and returns the first nonvanishing cumulant as a witness,
    skipping each tuple whose mirror came earlier.  Identical variables
    with nonempty path support are reported not free immediately (a
    variable inside the diagonal is free from everything).
    """
    if a.graph != b.graph:
        raise DomainError("variables live over different graphs")
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    table = _ChainProducts((a, a.adjoint(), b, b.adjoint()))
    if a == b and a.path_support():
        # k2(a, a*) has only nonnegative diagonal weights off the square
        # terms, so it cannot vanish when a has path support.
        return False, FreenessWitness(2, ("a", "b*"), table.kappa((0, 1)))
    labels = ("a", "a*", "b", "b*")
    for n in range(2, max_order + 1):
        for pattern in _unmirrored_patterns(4, n):
            if {i >> 1 for i in pattern} != {0, 1}:
                continue
            value = table.kappa(pattern)
            if not value.is_zero():
                return False, FreenessWitness(n, tuple(labels[i] for i in pattern), value)
    return True, None


def freeness_certificate(a: RandomVariable, b: RandomVariable) -> bool:
    """Sufficient condition for freeness over D, read off the path supports;
    vertex terms lie in D, and a cumulant of order >= 2 with an argument in
    D is zero.  Certified when (i) the word endpoints of the two supports
    are disjoint, or (ii) the supports share no edge and no vertex on an
    edge of both has two or more out-edges.  Under (i) every term of a and
    a* sits in a corner of a's endpoints and every term of b and b* in one
    of b's, so no mixed pattern chains into a closed walk (see the module
    docstring); (ii) is checked by tests, not proved.  Either clause keeps
    the CLI's label "diagram-distinct" true: two words with one path or
    primitive loop share an edge and an endpoint.  False means unknown,
    not not-free."""
    if a.graph != b.graph:
        raise DomainError("variables live over different graphs")
    graph = a.graph
    ends, edges, visits = [], [], []
    for support in (a.path_support(), b.path_support()):
        ends.append({v for w in support for v in (w.source, w.target)})
        edges.append({graph.edge(e) for w in support for e in w.edges})
        visits.append({v for e in edges[-1] for v in (e.src, e.dst)})
    if not ends[0] & ends[1]:
        return True
    branching = [v for v in visits[0] & visits[1] if len(graph.out_edges(v)) > 1]
    return not edges[0] & edges[1] and not branching


def _support_hint(a: RandomVariable) -> str:
    paths = a.path_support()
    if not paths:
        return "diagonal"
    loops = {w for w in paths if w.is_loop}
    if loops == paths:
        return "loops"
    if not loops:
        return "non-loop paths"
    return "mixed paths"


@dataclass
class ClassifyReport:
    self_adjoint: bool
    semicircular: bool
    even: bool
    r_diagonal: bool
    max_order: int
    support_hint: str


def classify(a: RandomVariable, max_order: int = 6) -> ClassifyReport:
    """Distributional shape report from trivial and mixed cumulants.

    semicircular: self-adjoint, k2 nonzero, k_n = 0 for all other n up to
    max_order.  even: self-adjoint with vanishing odd cumulants.  r_diagonal:
    every cumulant in (a, a*) vanishes except the even strictly alternating
    ones.  All checks are exact and exhaustive up to max_order.
    """
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    if max_order % 2:
        raise DomainError("max_order must be even")
    self_adjoint = a.is_self_adjoint()
    table = _ChainProducts((a, a.adjoint()))
    trivial = {n: table.kappa((0,) * n) for n in range(1, max_order + 1)}
    semicircular = (
        self_adjoint
        and not trivial[2].is_zero()
        and all(trivial[n].is_zero() for n in range(1, max_order + 1) if n != 2)
    )
    even = self_adjoint and all(
        trivial[n].is_zero() for n in range(1, max_order + 1, 2)
    )
    # The even strictly alternating patterns are the ones allowed to be nonzero.
    r_diagonal = all(
        table.kappa(pattern).is_zero()
        for n in range(1, max_order + 1)
        for pattern in _unmirrored_patterns(2, n)
        if n % 2 or any(x == y for x, y in zip(pattern, pattern[1:]))
    )
    return ClassifyReport(
        self_adjoint, semicircular, even, r_diagonal, max_order, _support_hint(a)
    )
