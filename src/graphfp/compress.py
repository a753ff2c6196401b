"""Vertex and diagonal compressions of random variables.

Compressing at a vertex ``v0`` keeps exactly the terms the projection
``L[v0]`` preserves on both sides: the ``v0`` vertex term and the loop terms
based at ``v0``.  The result is a plain ``RandomVariable``, so the moment,
cumulant and freeness functions of ``freeprob`` apply to it directly; the
freeness of two compressions at ``v0`` is ``mixed_cumulants_vanish`` of the
two.  The compressed expectation is the ``v0`` entry of the diagonal
expectation, so compressed moment and cumulant series are scalar sequences.
A diagonal compression sums the vertex compressions over a set of distinct
vertices.

The compressed cumulants are scalar free cumulants.  The compression
x = L[v0] a L[v0] lives in the corner L[v0] W*(G) L[v0], where every
diagonal value is a multiple of L[v0]: a block's value spliced between two
slots is c L[v0], and x c L[v0] x = c x x.  So every partition moment is the
product of the scalar moments m_|B| of its blocks, and the cumulants solve
the scalar moment-cumulant relation.  With M(z) = 1 + sum_k m_k z^k it reads
m_n = sum_{s=1}^{n} k_s [z^(n-s)] M(z)^s (Nica-Speicher, Lecture 16), which
gives each k_n from the moments and the earlier cumulants.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .freeprob import _chain_prefixes
from .graph import PathWord
from .opcalc import ExactComplex, RandomVariable, expectation, to_general
from .scalars import ONE, ZERO

__all__ = [
    "compress_vertex",
    "compressed_moment_series",
    "compressed_r_transform",
    "diagonal_compress",
]


def _kept(word: PathWord, v0: str) -> bool:
    if word.is_vertex:
        return word.vertex == v0
    return word.is_loop and word.source == v0


def compress_vertex(a: RandomVariable, v0: str) -> RandomVariable:
    """L[v0] a L[v0]: keep the v0 term and the loops based at v0."""
    a.graph.require_vertex(v0)
    return RandomVariable(
        a.graph, {k: c for k, c in a.terms.items() if _kept(k[0], v0)}
    )


def compressed_moment_series(
    a: RandomVariable, v0: str, order: int
) -> list[ExactComplex]:
    """Scalar moments of the compression at v0, orders 1..order."""
    if order < 1:
        raise DomainError("series order must be >= 1")
    # The n-th prefix of one chain keeps the grading-0 part of the product
    # ``moment([x] * n)`` builds, so it has the same expectation.
    x = to_general(compress_vertex(a, v0))
    return [expectation(p).get(v0) for p in _chain_prefixes([x] * order, [None] * order)]


def compressed_r_transform(
    a: RandomVariable, v0: str, order: int
) -> list[ExactComplex]:
    """Scalar cumulants of the compression at v0, orders 1..order, solved
    from its moment series one order at a time."""
    m = [ONE, *compressed_moment_series(a, v0, order)]
    # rest[n]: sum of k_s [z^(n-s)] M^s over the cumulants k_s found so far;
    # [z^0] M^s = 1, so m_n = k_n + rest[n].
    rest = [ZERO] * (order + 1)
    power = [ONE] + [ZERO] * order
    out = []
    for s in range(1, order + 1):
        # M^s from M^(s-1), to the degree order - s that later orders read.
        top = order - s
        nxt = [ZERO] * (top + 1)
        for i in range(top + 1):
            if power[i]:
                for j in range(top + 1 - i):
                    if m[j]:
                        nxt[i + j] += power[i] * m[j]
        power = nxt
        k = m[s] - rest[s]
        out.append(k)
        if k:
            for j in range(1, top + 1):
                if power[j]:
                    rest[s + j] += k * power[j]
    return out


def diagonal_compress(a: RandomVariable, vertices: Sequence[str]) -> RandomVariable:
    """Sum of the vertex compressions over a set of distinct vertices."""
    if len(set(vertices)) != len(vertices):
        raise DomainError("compression vertices must be distinct")
    if not vertices:
        raise DomainError("need at least one compression vertex")
    out = RandomVariable.zero(a.graph)
    for v in vertices:
        out = out + compress_vertex(a, v)
    return out
