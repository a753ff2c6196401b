"""Noncrossing partitions of {1, ..., n}: enumeration, refinement order,
and the Mobius function of the lattice.

The Mobius function is computed in closed form through the Kreweras
complement (Kreweras 1972; Nica-Speicher, Lectures 9-10):

    mu(pi, 1_n) = prod over blocks V of K(pi) of (-1)^(|V|-1) C_{|V|-1},

where the blocks of K(pi) are the cycles of the permutation P_pi^-1 o gamma_n,
P_pi cycles each block of pi in increasing order and gamma_n = (1 2 ... n).
A general pair factors over the blocks W of the upper partition, since the
interval [pi, sigma] is the product of the lattices [pi|_W, 1_W]. The poset
recursion ``mu(p, p) = 1``, ``mu(p, q) = -sum(mu(p, t) for p <= t < q)``
lives in the tests as the independent oracle, never in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DomainError

__all__ = [
    "MAX_N",
    "NoncrossingPartition",
    "enumerate_nc",
    "leq",
    "mobius",
    "top_weights",
]

# Enumeration bound; catalan(11) = 58786 keeps desk-scale work honest.
MAX_N = 11


@dataclass(frozen=True)
class NoncrossingPartition:
    """A noncrossing partition in canonical form: blocks sorted internally
    and ordered by their minima; elements are 1-based."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"partition size must be >= 1, got {self.n}")
        canonical = tuple(sorted((tuple(sorted(b)) for b in self.blocks)))
        object.__setattr__(self, "blocks", canonical)
        seen: list[int] = []
        for b in canonical:
            if not b:
                raise DomainError("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(1, self.n + 1)):
            raise DomainError(f"blocks do not partition 1..{self.n}")
        if self._has_crossing():
            raise DomainError(f"crossing partition: {canonical}")

    def _has_crossing(self) -> bool:
        # Left-to-right scan with a stack of open blocks: every element must
        # continue the innermost open block or open a new one inside it.
        owner = self.block_index()
        maxima = {max(b): i for i, b in enumerate(self.blocks)}
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = owner[x]
            if not stack or stack[-1] != b:
                if b in stack:
                    return True
                stack.append(b)
            if maxima.get(x) == b:
                stack.pop()
        return False

    def block_index(self) -> dict[int, int]:
        """Each element -> the position of its block in ``blocks``."""
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    @classmethod
    def bottom(cls, n: int) -> "NoncrossingPartition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def top(cls, n: int) -> "NoncrossingPartition":
        return cls(n, (tuple(range(1, n + 1)),))


def leq(p: NoncrossingPartition, q: NoncrossingPartition) -> bool:
    """Refinement order: every block of p lies inside a block of q."""
    if p.n != q.n:
        raise DomainError("cannot compare partitions of different sizes")
    owner = q.block_index()
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def _nc_blocks(elements: tuple[int, ...]):
    """Yield noncrossing partitions of an increasing element tuple.

    The block of the least element is chosen first; the runs of elements
    falling strictly between its consecutive members (and after its last
    member) must then be partitioned independently, since any block joining
    two different runs would cross the chosen block.
    """
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for k in range(len(rest) + 1):
        for chosen in combinations(rest, k):
            block = (first,) + chosen
            bounds = list(block[1:]) + [None]
            runs: list[tuple[int, ...]] = []
            lo = first
            for hi in bounds:
                runs.append(
                    tuple(e for e in rest if e > lo and (hi is None or e < hi) and e not in chosen)
                )
                lo = hi if hi is not None else lo
            combos: list[tuple[tuple[int, ...], ...]] = [(block,)]
            for run in runs:
                subs = list(_nc_blocks(run))
                combos = [acc + sub for acc in combos for sub in subs]
            yield from combos


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> tuple[NoncrossingPartition, ...]:
    """All noncrossing partitions of {1..n}, in a fixed canonical order."""
    if not 1 <= n <= MAX_N:
        raise DomainError(f"partition size must be in 1..{MAX_N}, got {n}")
    parts = [
        NoncrossingPartition(n, blocks)
        for blocks in _nc_blocks(tuple(range(1, n + 1)))
    ]
    parts.sort(key=lambda p: p.blocks)
    return tuple(parts)


def _mobius_to_top(blocks, elements: tuple[int, ...]) -> int:
    """mu(pi, 1) in the lattice of noncrossing partitions of the increasing
    tuple ``elements``, for the partition ``blocks`` of that tuple."""
    # gamma cycles the elements in increasing order; P_pi^-1 steps back
    # within a block.  Their composite is the Kreweras complement.
    gamma = dict(zip(elements, elements[1:] + elements[:1]))
    back = {}
    for b in blocks:
        back.update(zip(b[1:] + b[:1], b))
    weight = 1
    seen = set()
    for start in elements:
        if start in seen:
            continue
        size = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = back[gamma[x]]
            size += 1
        # A Kreweras block of this size contributes (-1)^(size-1) C_{size-1}.
        weight *= (-1) ** (size - 1) * (comb(2 * size - 2, size - 1) // size)
    return weight


def mobius(p: NoncrossingPartition, q: NoncrossingPartition) -> int:
    """Mobius function of the noncrossing partition lattice; needs p <= q."""
    if not leq(p, q):
        raise DomainError("mobius needs p <= q in refinement order")
    owner = q.block_index()
    weight = 1
    for i, w in enumerate(q.blocks):
        inside = [b for b in p.blocks if owner[b[0]] == i]
        weight *= _mobius_to_top(inside, w)
    return weight


@lru_cache(maxsize=None)
def top_weights(n: int) -> tuple[int, ...]:
    """mu(pi, 1_n) for every pi of ``enumerate_nc(n)``, in the same order."""
    elements = tuple(range(1, n + 1))
    return tuple(_mobius_to_top(p.blocks, elements) for p in enumerate_nc(n))
