"""Shared test helpers: independent oracles, a seeded variable generator and
strategies for random graphs with and without a branching vertex.

Everything here is deliberately naive.  The point is to cross-check the
engine against implementations that share no code with it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from hypothesis import strategies as st

from graphfp import (
    CK,
    DiagonalElement,
    DomainError,
    ExactComplex,
    Graph,
    Monomial,
    NoncrossingPartition,
    Pair,
    RandomVariable,
    annihilation,
    concat,
    creation,
    cumulant,
    enumerate_nc,
    enumerate_paths,
    expectation,
    lattice_path,
    load_graph,
    moment,
    partition_moments,
    reduce_monomial,
    vertex_word,
)
from graphfp.graph import PathWord
from graphfp.ncpart import top_weights
from graphfp.opcalc import GeneratorLetter

# Verdict lines collected by the acceptance suite; the conftest terminal
# summary hook prints them once the run is over.
ACCEPTANCE_LINES: list[str] = []


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalan_by_recurrence(n: int) -> int:
    # C_0 = 1, C_{k+1} = sum_i C_i C_{k-i}; no closed form used.
    cs = [1]
    for k in range(n):
        cs.append(sum(cs[i] * cs[k - i] for i in range(k + 1)))
    return cs[n]


def loop_power(word: PathWord, k: int) -> PathWord:
    """The k-th concatenation power of a loop (k >= 1)."""
    if k < 1:
        raise DomainError(f"loop power must be >= 1, got {k}")
    if k > 1 and not word.is_loop:
        raise DomainError("only loops have concatenation powers above 1")
    out = word
    for _ in range(k - 1):
        out = concat(out, word)  # never None for a loop
    return out


def adjoint_monomial(m: Monomial) -> Monomial:
    return Monomial(
        tuple(l.adjoint for l in reversed(m.letters)), m.coefficient.conjugate()
    )


def pair_letters(form: Pair) -> tuple[GeneratorLetter, ...]:
    """Letters whose product reduces back to the given pair."""
    letters = [creation(form.alpha)]
    if not form.beta.is_vertex:
        letters.append(annihilation(form.beta))
    return tuple(letters)


def unit_diagonal(graph: Graph) -> DiagonalElement:
    """The identity as the sum of all vertex projections, in D_G."""
    return DiagonalElement(graph, {v: ExactComplex.of(1) for v in graph.vertices})


def unit_variable(graph: Graph) -> RandomVariable:
    """The identity as the sum of all vertex projections, as a variable."""
    return RandomVariable(
        graph, {(vertex_word(graph, v), False): ExactComplex.of(1) for v in graph.vertices}
    )


def diagonal_part(x: RandomVariable) -> DiagonalElement:
    """The vertex component of x, read off its vertex-word terms."""
    return DiagonalElement(
        x.graph, {w.vertex: c for (w, _s), c in x.terms.items() if w.is_vertex}
    )


def coefficient(x: RandomVariable, word: PathWord, star: bool = False) -> ExactComplex:
    """The coefficient of L[word] (L*[word] when star) in x."""
    return x.terms.get((word, star and not word.is_vertex), ExactComplex.of(0))


def has_crossing(blocks: Sequence[Sequence[int]]) -> bool:
    """Quadruple-scan crossing test, independent of the stack method."""
    owner = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
    points = sorted(owner)
    for a in points:
        for b in points:
            for c in points:
                for d in points:
                    if not a < b < c < d:
                        continue
                    if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
                        return True
    return False


def set_partitions(items: list[int]):
    """All set partitions of ``items`` (crossing or not), for small n."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def mobius_by_recursion(p: NoncrossingPartition, q: NoncrossingPartition) -> int:
    """Mobius function of NC(n) by the poset recursion mu(p, p) = 1,
    mu(p, q) = -sum(mu(p, t) for p <= t < q).  The interval is enumerated
    from all set partitions with the quadruple-scan crossing test, so
    nothing here touches the package's enumeration, order or closed form."""
    assert _refines(p.blocks, q.blocks)
    return _mobius_recursion(p.blocks, q.blocks)


def _refines(a, b) -> bool:
    return all(any(set(x) <= set(y) for y in b) for x in a)


@lru_cache(maxsize=None)
def _noncrossing_block_tuples(n: int) -> tuple:
    return tuple(
        tuple(sorted(tuple(sorted(b)) for b in blocks))
        for blocks in set_partitions(list(range(1, n + 1)))
        if not has_crossing(blocks)
    )


@lru_cache(maxsize=None)
def _mobius_recursion(p, q) -> int:
    if p == q:
        return 1
    n = sum(len(b) for b in p)
    return -sum(
        _mobius_recursion(p, t)
        for t in _noncrossing_block_tuples(n)
        if t != q and _refines(p, t) and _refines(t, q)
    )


def balanced_sign_count(n: int) -> int:
    """Number of +/-1 strings of length n summing to zero, by brute force."""
    return sum(1 for signs in product((1, -1), repeat=n) if sum(signs) == 0)


def scalar_cumulants_from_moments(moments: Sequence[Fraction]) -> list[Fraction]:
    """Free cumulants from scalar moments by the moment-cumulant recursion.

    moments[i] is m_{i+1}.  Solves m_n = sum over NC(n) of the product of
    k_{|B|} over blocks, order by order.
    """
    ks: list[Fraction] = []
    for n in range(1, len(moments) + 1):
        rest = Fraction(0)
        for p in enumerate_nc(n):
            if len(p.blocks) == 1:
                continue
            term = Fraction(1)
            for b in p.blocks:
                term *= ks[len(b) - 1]
            rest += term
        ks.append(Fraction(moments[n - 1]) - rest)
    return ks


def _eliminate_interval_blocks(
    partition: NoncrossingPartition, variables: Sequence, diagonals: Sequence, value_of
) -> DiagonalElement:
    """Eliminate at each step the first block (in block order) that is an
    interval of the surviving positions.  ``value_of(variables, diagonals)``
    values its bracket, and the result is spliced in as a left multiplier
    of the next surviving position."""
    n = len(variables)
    assert partition.n == n
    pending = {i + 1: d for i, d in enumerate(diagonals)}
    remaining = list(range(1, n + 1))
    blocks = list(partition.blocks)
    closed: DiagonalElement | None = None
    while blocks:
        block = next(
            b
            for b in blocks
            if [x for x in remaining if b[0] <= x <= b[-1]] == list(b)
        )
        blocks.remove(block)
        value = value_of([variables[j - 1] for j in block], [pending[j] for j in block])
        remaining = [x for x in remaining if x not in block]
        later = [x for x in remaining if x > block[-1]]
        if later:
            cur = pending[later[0]]
            pending[later[0]] = value if cur is None else value * cur
        else:
            closed = value if closed is None else closed * value
    assert closed is not None
    return closed


def nested_cumulant(
    partition: NoncrossingPartition, variables: Sequence[RandomVariable]
) -> DiagonalElement:
    """k_pi with splice semantics: eliminate interval blocks innermost-first,
    valuing each bracket with the engine cumulant."""
    return _eliminate_interval_blocks(
        partition, variables, [None] * len(variables), cumulant
    )


def partition_moment_by_interval_search(
    partition: NoncrossingPartition, items: Sequence[tuple]
) -> DiagonalElement:
    """E along a noncrossing partition by the interval search, each bracket
    a plain ``moment``.  The oracle for ``partition_moments``, which visits
    the blocks in another order and splices values into other slots."""
    return _eliminate_interval_blocks(
        partition, [a for _d, a in items], [d for d, _a in items], moment
    )


def uncached_cumulant(variables: Sequence, diagonals: Sequence | None = None) -> DiagonalElement:
    """k_n as the sum over NC(n) of mu(pi, 1_n) times the partition moment
    by interval search, each bracket a plain ``moment``: no chain product
    is shared between blocks, partitions or calls."""
    n = len(variables)
    items = list(zip(diagonals or [None] * n, variables))
    total = DiagonalElement.zero(variables[0].graph)
    for p, weight in zip(enumerate_nc(n), top_weights(n)):
        total = total + partition_moment_by_interval_search(p, items).scale(weight)
    return total


def is_partition_connected(
    partition: NoncrossingPartition, letters: Sequence[GeneratorLetter]
) -> bool:
    """True when the partition moment of the letter tuple is nonzero."""
    return not partition_moments(letters)[partition].is_zero()


def connectivity_multiplier(
    letters: Sequence[GeneratorLetter],
) -> tuple[int, list[NoncrossingPartition]]:
    """Sum of Mobius weights over the partitions that connect the letters."""
    if not letters:
        raise DomainError("need at least one letter")
    moments = partition_moments(letters)
    weights = dict(zip(moments, top_weights(len(letters))))
    connected = [p for p, value in moments.items() if not value.is_zero()]
    return sum(weights[p] for p in connected), connected


def cumulant_via_multiplier(letters: Sequence[GeneratorLetter]) -> DiagonalElement:
    """Shortcut cumulant of the earlier graph papers: connectivity weight
    times the full-word expectation.

    Requires the letter monomial to have the star-axis property; on that
    hypothesis every connecting partition evaluates to the full expectation,
    so the Mobius sum factors.
    """
    m = Monomial(tuple(letters))
    if not lattice_path(m).star_axis:
        raise DomainError("shortcut cumulant needs the star-axis property")
    weight, _connected = connectivity_multiplier(letters)
    graph = letters[0].word.graph
    return expectation(reduce_monomial(m, CK), graph).scale(weight)


def freeness_scan_by_brute_force(a: RandomVariable, b: RandomVariable, max_order: int):
    """The scan of ``mixed_cumulants_vanish``, every cumulant summed afresh by
    ``uncached_cumulant``: (True, None), or (False, (order, pattern, value))
    for the first nonvanishing mixed cumulant in the same pattern order."""
    if a == b and a.path_support():
        return False, (2, ("a", "b*"), uncached_cumulant([a, a.adjoint()]))
    slots = {"a": a, "a*": a.adjoint(), "b": b, "b*": b.adjoint()}
    for n in range(2, max_order + 1):
        for pattern in product(("a", "a*", "b", "b*"), repeat=n):
            if {label[0] for label in pattern} != {"a", "b"}:
                continue
            value = uncached_cumulant([slots[label] for label in pattern])
            if not value.is_zero():
                return False, (n, pattern, value)
    return True, None


# The primes between 999,000 and 10**6: coefficients whose parts take
# distinct ones have large, pairwise coprime denominators.
LARGE_PRIMES = [p for p in range(999_001, 10**6, 2) if all(p % d for d in range(3, 1000, 2))]


def large_rational(rng: random.Random, primes: list[int]) -> Fraction:
    """A signed rational over the next unused prime of ``primes``."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), primes.pop())


def random_variable(
    graph: Graph,
    rng: random.Random,
    max_len: int = 2,
    max_terms: int = 4,
    words=None,
) -> RandomVariable:
    """A small variable with random words, stars and rational coefficients."""
    pool = words if words is not None else enumerate_paths(graph, max_len)
    items = []
    for _ in range(rng.randint(1, max_terms)):
        w = rng.choice(pool)
        star = rng.random() < 0.5
        c = ExactComplex(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
        items.append(((w, star), c))
    return RandomVariable(graph, items)


def _nonzero_coefficient(rng: random.Random, real: bool = False) -> ExactComplex:
    # The grid of random_variable less 0: the imaginary part, drawn last,
    # is nonzero whenever the real part is 0.
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if real:
        return ExactComplex.of(re or Fraction(rng.choice((-1, 1)), rng.randint(1, 3)))
    im = rng.randint(-2, 2) if re else rng.choice((-2, -1, 1, 2))
    return ExactComplex(re, Fraction(im, rng.randint(1, 2)))


def nonzero_variable(
    graph: Graph,
    rng: random.Random,
    words: Sequence[PathWord],
    max_terms: int = 4,
    self_adjoint: bool = False,
) -> RandomVariable:
    """A variable that cannot be zero: distinct terms over ``words``, each
    with a nonzero coefficient, so none cancels.  Vertex words give diagonal
    parts.  A self-adjoint variable takes up to ``max_terms`` distinct words,
    c L[w] + conj(c) L*[w] for a path and a real c L[v] for a vertex; any
    other takes up to ``max_terms`` distinct (word, star) terms."""
    if self_adjoint:
        items = []
        for w in rng.sample(list(words), rng.randint(1, min(max_terms, len(words)))):
            c = _nonzero_coefficient(rng, real=w.is_vertex)
            items.append(((w, False), c))
            if not w.is_vertex:
                items.append(((w, True), c.conjugate()))
        return RandomVariable(graph, items)
    keys = [(w, star) for w in words for star in (False, True) if not (star and w.is_vertex)]
    chosen = rng.sample(keys, rng.randint(1, min(max_terms, len(keys))))
    return RandomVariable(graph, [(key, _nonzero_coefficient(rng)) for key in chosen])


@st.composite
def branching_graphs(draw):
    """Small random multigraphs.  Vertex v0 always carries a self-loop and a
    second out-edge, so it branches; up to two more edges land anywhere."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = [("v0", "v0"), ("v0", draw(st.sampled_from(vertices)))]
    for _ in range(draw(st.integers(0, 2))):
        ends.append((draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))))
    edges = [{"id": f"e{k}", "src": s, "dst": t} for k, (s, t) in enumerate(ends)]
    return load_graph({"vertices": vertices, "edges": edges})


@st.composite
def unbranched_graphs(draw):
    """Small random graphs with no branching vertex: a cycle v0 -> v1 -> ...
    -> v0 of length 1 to 3, and sometimes a tail of one or two edges that
    runs into it.  Every vertex has exactly one out-edge."""
    k, tail = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    vertices = [f"v{i}" for i in range(k + tail)]
    ends = [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]
    ends += [(vertices[i], vertices[i + 1]) for i in range(k, k + tail - 1)]
    if tail:
        ends.append((vertices[-1], draw(st.sampled_from(vertices[:k]))))
    edges = [{"id": f"e{j}", "src": s, "dst": t} for j, (s, t) in enumerate(ends)]
    return load_graph({"vertices": vertices, "edges": edges})


# -- the CK moment oracle ------------------------------------------------------
#
# A normal form L[alpha] L*[beta] is a tuple (alpha_src, alpha_edges,
# beta_src, beta_edges) of edge-id tuples, an empty tuple standing for the
# vertex in its source slot.  A letter is (src, edges, star), a vertex letter
# having no edges.  Coefficients are (re, im) pairs of Fractions, multiplied
# by hand, so nothing here touches the package's opcalc or scalars.


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ck_strip(form):
    # L[a s] L*[b s] = L[a] L*[b]: drop the longest common edge suffix.
    a_src, a, b_src, b = form
    k = 0
    while k < min(len(a), len(b)) and a[len(a) - 1 - k] == b[len(b) - 1 - k]:
        k += 1
    return (a_src, a[: len(a) - k], b_src, b[: len(b) - k])


def _ck_times_letter(ends, form, letter):
    """The normal form of ``form * letter``, or None for zero; ``form`` None
    is the empty product."""
    src, w, star = letter
    tgt = ends[w[-1]][1] if w else src
    if form is None:
        return _ck_strip((tgt, (), src, w) if star and w else (src, w, tgt, ()))
    a_src, a, b_src, b = form
    if star and w:
        # L*[b] L*[w] = L*[w b], defined when w ends where b starts.
        return _ck_strip((a_src, a, src, w + b)) if tgt == b_src else None
    # L*[b] L[w]: one word must extend the other from their common source.
    if src != b_src:
        return None
    if w[: len(b)] == b:
        grown = a + w[len(b):]
        return _ck_strip((a_src, grown, ends[grown[-1]][1] if grown else a_src, ()))
    if b[: len(w)] == w:
        return _ck_strip((a_src, a, tgt, b[len(w):]))
    return None


def ck_moments_by_words(ends, factors):
    """D-valued moments E(x1 ... xk) of every prefix of a product x1 ... xn,
    each factor a sum of c L[w] and c L*[w] (a diagonal is a sum of vertex
    letters L[v]).

    ``ends`` maps each edge id to its (src, dst); ``factors`` lists, for each
    factor, its terms ((src, edges, star), (re, im)).  Every letter product
    is reduced from the left under the CK rule, and the vertex pairs
    L[v] L*[v] of each prefix are read off.  Returns one {vertex: (re, im)}
    per prefix, zeros dropped."""
    zero = (Fraction(0), Fraction(0))
    forms = {None: (Fraction(1), Fraction(0))}
    out = []
    for terms in factors:
        grown: dict = {}
        for form, c in forms.items():
            for letter, d in terms:
                nxt = _ck_times_letter(ends, form, letter)
                if nxt is not None:
                    prev = grown.get(nxt, zero)
                    cd = _pair_mul(c, d)
                    grown[nxt] = (prev[0] + cd[0], prev[1] + cd[1])
        forms = {f: c for f, c in grown.items() if c != zero}
        out.append({f[0]: c for f, c in forms.items() if not f[1] and not f[3]})
    return out
