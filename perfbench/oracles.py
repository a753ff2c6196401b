"""Reference computations the benchmark checks graphfp against.

Nothing here imports graphfp.  Graphs are plain specs
``{"vertices": [...], "edges": [(id, src, dst), ...]}`` and variables are
lists of terms ``(tokens, star, coefficient)``: ``tokens`` is one vertex id or
a tuple of edge ids, ``star`` marks ``L*[w]`` and the coefficient is a real
``Fraction``.  A D-valued moment is a dict ``vertex -> Fraction`` that omits
zero entries.

* ``laurent_moments``: the Laurent-matrix model.  On a graph made only of
  cycles (one in-edge and one out-edge per vertex) the map
  ``L[w] -> z^|w| E[src, tgt]``, ``L*[w] -> z^-|w| E[tgt, src]``,
  ``L[v] -> E[v, v]`` respects the CK rewrite ``L[w] L*[w] -> L[source(w)]``,
  and ``E(x^n)`` is the diagonal of the ``z^0`` coefficient of ``X(z)^n``.
* ``ck_moments``: left-to-right reduction of letter products to normal forms
  ``L[alpha] L*[beta]`` with the CK rewrite applied after every letter, for
  any graph.  Written from the rules, not from the engine's code.
* ``first_block_cumulants``: scalar free cumulants from moments through
  ``m_n = sum_{s=1..n} k_s sum_{i_1+...+i_s=n-s} m_{i_1}...m_{i_s}``, which
  needs no noncrossing partitions.
* ``arcsine_cumulants``: ``k_{2m} = (-1)^(m-1) 2 C_{m-1}``, odd ones zero.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _edges(graph):
    return {eid: (src, dst) for eid, src, dst in graph["edges"]}


def _ends(graph, tokens):
    """(source, target, edge tuple) of a word; a vertex word has no edges."""
    if len(tokens) == 1 and tokens[0] in graph["vertices"]:
        return tokens[0], tokens[0], ()
    edges = _edges(graph)
    for left, right in zip(tokens, tokens[1:]):
        if edges[left][1] != edges[right][0]:
            raise ValueError(f"inadmissible word {tokens}")
    return edges[tokens[0]][0], edges[tokens[-1]][1], tuple(tokens)


def compress(graph, terms, vertices):
    """Terms of the diagonal compression over ``vertices``: each vertex term
    and each loop based at one of them."""
    kept = []
    for tokens, star, c in terms:
        src, tgt, edges = _ends(graph, tokens)
        if src in vertices and src == tgt:
            kept.append((tokens, star, c))
    return kept


def is_self_adjoint(graph, terms):
    """x == x* for real coefficients: every path term has its mirror."""
    coeff: dict = {}
    for tokens, star, c in terms:
        if not _ends(graph, tokens)[2]:
            star = False
        key = (tuple(tokens), star)
        coeff[key] = coeff.get(key, 0) + c
    return all(
        coeff.get((tokens, not star), 0) == c
        for (tokens, star), c in coeff.items()
        if _ends(graph, tokens)[2]
    )


def is_cycle_graph(graph):
    outs = [src for _e, src, _d in graph["edges"]]
    ins = [dst for _e, _s, dst in graph["edges"]]
    return all(outs.count(v) == 1 == ins.count(v) for v in graph["vertices"])


# -- Laurent-matrix model ----------------------------------------------------


def _poly_mul_add(acc, p, q):
    for i, a in p.items():
        for j, b in q.items():
            acc[i + j] = acc.get(i + j, 0) + a * b


def laurent_moments(graph, terms, order):
    """D-valued moments E(x^n), n = 1..order, from powers of X(z)."""
    if not is_cycle_graph(graph):
        raise ValueError("the Laurent model is faithful only on cycle graphs")
    x: dict = {}
    for tokens, star, c in terms:
        src, tgt, edges = _ends(graph, tokens)
        row, col, power = (tgt, src, -len(edges)) if star else (src, tgt, len(edges))
        entry = x.setdefault((row, col), {})
        entry[power] = entry.get(power, 0) + c
    out = []
    power_n = x
    for n in range(1, order + 1):
        if n > 1:
            nxt: dict = {}
            for (i, k), p in power_n.items():
                for (k2, j), q in x.items():
                    if k == k2:
                        _poly_mul_add(nxt.setdefault((i, j), {}), p, q)
            power_n = nxt
        out.append(
            {
                v: power_n[(v, v)][0]
                for v in graph["vertices"]
                if power_n.get((v, v), {}).get(0, 0) != 0
            }
        )
    return out


# -- CK word reduction -------------------------------------------------------


def _collapse(a_src, a_edges, b_src, b_edges):
    k = 0
    while (
        k < min(len(a_edges), len(b_edges))
        and a_edges[len(a_edges) - 1 - k] == b_edges[len(b_edges) - 1 - k]
    ):
        k += 1
    if k:
        a_edges, b_edges = a_edges[: len(a_edges) - k], b_edges[: len(b_edges) - k]
    return a_src, a_edges, b_src, b_edges


def _apply(dst, state, letter):
    """The normal form ``state * letter``, or None for zero.

    A state is ``(alpha_src, alpha_edges, beta_src, beta_edges)`` for
    ``L[alpha] L*[beta]``; a word with no edges is the vertex it sits at.
    """
    w_src, w_tgt, w_edges, star = letter
    if state is None:
        if star:
            return _collapse(w_tgt, (), w_src, w_edges)
        return _collapse(w_src, w_edges, w_tgt, ())
    a_src, a_edges, b_src, b_edges = state
    if star:
        if w_tgt != b_src:
            return None
        return _collapse(a_src, a_edges, w_src, w_edges + b_edges)
    if b_src != w_src:
        return None
    if w_edges[: len(b_edges)] == b_edges:
        grown = a_edges + w_edges[len(b_edges):]
        tgt = dst[grown[-1]] if grown else a_src
        return _collapse(a_src, grown, tgt, ())
    if b_edges[: len(w_edges)] == w_edges:
        rest = b_edges[len(w_edges):]
        return _collapse(a_src, a_edges, w_tgt, rest)
    return None


def ck_moments(graph, terms, order):
    """D-valued moments E(x^n), n = 1..order, by reducing every letter
    product of x^n from left to right under the CK rule."""
    dst = {eid: d for eid, (_s, d) in _edges(graph).items()}
    letters = []
    for tokens, star, c in terms:
        src, tgt, edges = _ends(graph, tokens)
        letters.append(((src, tgt, edges, star and bool(edges)), c))
    states: dict = {None: Fraction(1)}
    out = []
    for _ in range(order):
        nxt: dict = {}
        for state, c in states.items():
            for letter, d in letters:
                form = _apply(dst, state, letter)
                if form is not None:
                    nxt[form] = nxt.get(form, 0) + c * d
        states = {s: c for s, c in nxt.items() if c != 0}
        moment: dict = {}
        for (a_src, a_edges, b_src, b_edges), c in states.items():
            if not a_edges and not b_edges and a_src == b_src:
                moment[a_src] = moment.get(a_src, 0) + c
        out.append({v: c for v, c in moment.items() if c != 0})
    return out


# -- scalar cumulants --------------------------------------------------------


def first_block_cumulants(moments):
    """Free cumulants k_1..k_n from scalar moments m_1..m_n."""
    m = [Fraction(1)] + [Fraction(x) for x in moments]
    n_max = len(moments)
    # powers[s][r] is the z^r coefficient of M(z)^s, M(z) = sum_i m_i z^i.
    powers = [[Fraction(1)] + [Fraction(0)] * n_max]
    for _ in range(n_max):
        prev = powers[-1]
        powers.append(
            [sum(prev[i] * m[r - i] for i in range(r + 1)) for r in range(n_max + 1)]
        )
    ks: list[Fraction] = []
    for n in range(1, n_max + 1):
        rest = sum(ks[s - 1] * powers[s][n - s] for s in range(1, n))
        ks.append(m[n] - rest)
    return ks


def arcsine_cumulants(order):
    """Free cumulants of u + u* for a Haar unitary u: the arcsine law."""
    out = []
    for n in range(1, order + 1):
        if n % 2:
            out.append(Fraction(0))
        else:
            k = n // 2
            out.append(Fraction((-1) ** (k - 1) * 2 * math.comb(2 * k - 2, k - 1) // k))
    return out


def cumulants_by_vertex(graph, moments):
    """Scalar cumulants at each vertex from D-valued moments."""
    return {
        v: first_block_cumulants([m.get(v, 0) for m in moments])
        for v in graph["vertices"]
    }


# -- freeness certificate ----------------------------------------------------


def _diagram(graph, tokens):
    src, tgt, edges = _ends(graph, tokens)
    if src != tgt:
        return edges
    n = len(edges)
    for d in range(1, n + 1):
        if n % d == 0 and edges == edges[:d] * (n // d):
            return edges[:d]
    return edges


def diagram_distinct(graph, terms_a, terms_b):
    """True when no path of one support shares its diagram (primitive loop
    root, or the path itself) with a path of the other."""
    def diagrams(terms):
        return {
            _diagram(graph, tokens)
            for tokens, _s, _c in terms
            if _ends(graph, tokens)[2]
        }
    return not diagrams(terms_a) & diagrams(terms_b)
