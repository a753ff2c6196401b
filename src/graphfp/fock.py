"""Truncated representation on path space by exact partial maps: the oracle.

Basis vectors are the words of length at most L, ordered exactly as
``enumerate_paths``.  Every represented letter is a 0/1 matrix with at most
one 1 per column, stored as a partial map from column to row.  A creation
``L[w]`` sends the basis vector at ``h`` to the one at ``w . h`` when the
junction matches; columns whose image falls outside the truncation are
flagged as boundary columns instead of silently dropped.  An annihilation
strips ``w`` from the front.  Comparisons are made only on interior columns,
whose vectors never escape the truncation during the product being checked,
and the error there is an integer.

This representation validates the Toeplitz relations.  The weak-closure
rewrite ``L[w] L*[w] -> L[source(w)]`` is *not* an operator identity here,
and ``verify_relations`` reports the standard counterexample
``<xi_v, L[e] L*[e] xi_v> = 0`` against the rewritten value 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import DomainError
from .graph import Graph, PathWord, concat, enumerate_paths, vertex_word
from .opcalc import (
    TOEPLITZ,
    GeneratorLetter,
    Monomial,
    Pair,
    annihilation,
    creation,
    reduce_monomial,
)

__all__ = [
    "TruncatedBasis",
    "truncated_basis",
    "basis_size",
    "PartialMap",
    "represent",
    "represent_form",
    "verify_relations",
    "cross_check_reduction",
]

# verify_relations checks the letter relations of every path word up to this
# length (and shorter than the truncation).
_RELATION_WORD_LEN = 3


@dataclass
class TruncatedBasis:
    """Words of length <= max_len with their basis positions."""

    graph: Graph
    max_len: int
    words: list[PathWord]
    index: dict[PathWord, int] = field(repr=False)
    starting: dict[str, list[int]] = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)


def truncated_basis(graph: Graph, max_len: int) -> TruncatedBasis:
    if max_len < 1:
        raise DomainError("truncation length must be >= 1")
    words = enumerate_paths(graph, max_len)
    starting: dict[str, list[int]] = {v: [] for v in graph.vertices}
    for i, w in enumerate(words):
        starting[w.source].append(i)
    return TruncatedBasis(graph, max_len, words, {w: i for i, w in enumerate(words)}, starting)


def basis_size(graph: Graph, max_len: int, cap: int) -> int:
    """Number of words of length <= max_len, counted without enumerating
    them: the words of length k starting at v number one for k = 0 and the
    sum over the out-edges v -> u of the count of length k - 1 at u.  The
    count stops once it exceeds `cap`, so a larger result is a lower bound."""
    starting = {v: 1 for v in graph.vertices}
    total = len(starting)
    for _ in range(max_len):
        if total > cap or not any(starting.values()):
            break
        starting = {v: sum(starting[e.dst] for e in graph.out_edges(v)) for v in graph.vertices}
        total += sum(starting.values())
    return total


@dataclass(frozen=True)
class PartialMap:
    """A 0/1 matrix on the truncated basis with at most one 1 per column:
    ``image[j] = i`` sends basis vector j to basis vector i, and a column
    missing from ``image`` is sent to 0.  ``boundary`` holds the columns
    whose true image left the truncation, where the map is unreliable.
    ``a @ b`` is the matrix product: ``b`` acts first."""

    image: dict[int, int]
    boundary: frozenset[int] = frozenset()

    def __matmul__(self, other: "PartialMap") -> "PartialMap":
        image = {j: self.image[k] for j, k in other.image.items() if k in self.image}
        escaped = {j for j, k in other.image.items() if k in self.boundary}
        return PartialMap(image, other.boundary | escaped)


def represent(letter: GeneratorLetter, basis: TruncatedBasis) -> PartialMap:
    """Partial map of one generator letter on the truncated basis."""
    cached = basis._cache.get(letter)
    if cached is not None:
        return cached
    w = letter.word
    if w.graph != basis.graph:
        raise DomainError("letter and basis use different graphs")
    image: dict[int, int] = {}
    boundary = set()
    # A creation acts on the words starting at its target, an annihilation
    # on those starting at its source; the vertex cases coincide.
    for j in basis.starting[w.source if letter.star else w.target]:
        h = basis.words[j]
        if w.is_vertex:
            image[j] = j
        elif not letter.star:
            if h.length + w.length <= basis.max_len:
                image[j] = basis.index[concat(w, h)]
            else:
                boundary.add(j)
        elif h.edges[: w.length] == w.edges:
            rest = h.edges[w.length:]
            g = basis.graph
            image[j] = basis.index[PathWord(g, None, rest) if rest else vertex_word(g, h.target)]
    out = PartialMap(image, frozenset(boundary))
    basis._cache[letter] = out
    return out


def represent_form(form: Pair | None, basis: TruncatedBasis) -> PartialMap:
    """Partial map of a two-sided normal form (``None``, zero, gives the empty map)."""
    if form is None:
        return PartialMap({})
    out = represent(creation(form.alpha), basis)
    if not form.beta.is_vertex:
        out = out @ represent(annihilation(form.beta), basis)
    return out


def _error(*terms: tuple[int, dict[int, int]], skip: frozenset[int] = frozenset()) -> int:
    """Largest |entry| of the signed sum of 0/1 matrices, each given as a
    column -> row map, over the columns not in `skip`."""
    table: dict[int, Counter] = {}
    for sign, image in terms:
        for col, row in image.items():
            table.setdefault(col, Counter())[row] += sign
    return max(
        (abs(n) for col, rows in table.items() if col not in skip for n in rows.values()),
        default=0,
    )


def _transpose(image: dict[int, int]) -> dict[int, int]:
    # Every represented letter is injective on the basis, so the adjoint of
    # a partial map is again one.
    return {row: col for col, row in image.items()}


def verify_relations(graph: Graph, max_len: int) -> list[dict]:
    """Check the representation relations on interior columns.

    Returns one report per relation instance with keys ``relation``,
    ``word``, ``status`` and ``max_error``.  Includes the expected failure of
    the weak-closure rewrite with its witness vector.
    """
    basis = truncated_basis(graph, max_len)
    reports: list[dict] = []

    def check(relation: str, word: str, err: int) -> None:
        reports.append(
            {
                "relation": relation,
                "word": word,
                "status": "pass" if err == 0 else "fail",
                "max_error": float(err),
            }
        )

    def proj(v: str) -> PartialMap:
        return represent(creation(vertex_word(graph, v)), basis)

    eye = {j: j for j in range(len(basis.words))}
    resolution = [(1, proj(v).image) for v in graph.vertices]
    check("vertex projections resolve the identity", "", _error(*resolution, (-1, eye)))

    for v in sorted(graph.vertices):
        p = proj(v)
        err = max(
            _error((1, (p @ p).image), (-1, p.image)),
            _error((1, p.image), (-1, _transpose(p.image))),
        )
        check("vertex projection is a self-adjoint idempotent", v, err)

    paths = [
        w
        for w in enumerate_paths(graph, min(_RELATION_WORD_LEN, max_len - 1))
        if not w.is_vertex
    ]
    for w in paths:
        cre = represent(creation(w), basis)
        ann = represent(annihilation(w), basis)
        target = proj(w.target)
        back = ann @ cre
        check(
            "annihilation after creation is the target projection",
            str(w),
            _error((1, back.image), (-1, target.image), skip=back.boundary),
        )
        twice = cre @ back
        check(
            "creation is a partial isometry",
            str(w),
            _error((1, twice.image), (-1, cre.image), skip=twice.boundary | cre.boundary),
        )
        # Annihilation never lengthens a word, so its truncation is exact on
        # every column and must be the transpose of the truncated creation.
        check(
            "annihilation is the adjoint of creation",
            str(w),
            _error((1, ann.image), (-1, _transpose(cre.image))),
        )

    # Documented gap: the weak-closure rewrite is not representation-true.
    first_edge = next((w for w in paths if w.length == 1), None)
    if first_edge is not None:
        src = first_edge.source
        j = basis.index[vertex_word(graph, src)]
        cre = represent(creation(first_edge), basis)
        collapsed = cre @ represent(annihilation(first_edge), basis)
        got = int(collapsed.image.get(j) == j)
        expected = int(proj(src).image.get(j) == j)
        reports.append(
            {
                "relation": "weak-closure rewrite creation*annihilation -> source projection",
                "word": str(first_edge),
                "status": "expected-gap",
                "max_error": float(abs(got - expected)),
                "counterexample": {
                    "vector": src,
                    "representation_value": float(got),
                    "rewritten_value": float(expected),
                },
            }
        )
    return reports


def cross_check_reduction(
    m: Monomial, graph: Graph, max_len: int, basis: TruncatedBasis | None = None
) -> bool:
    """Compare the letter-product map against the represented Toeplitz
    normal form on the interior columns of both."""
    if m.creation_weight() > max_len:
        raise DomainError("monomial creates more length than the truncation")
    if basis is None:
        basis = truncated_basis(graph, max_len)
    elif basis.graph != graph or basis.max_len != max_len:
        raise DomainError("basis does not match the requested truncation")
    product = PartialMap({j: j for j in range(len(basis.words))})
    for letter in m.letters:
        product = product @ represent(letter, basis)
    form = represent_form(reduce_monomial(m, TOEPLITZ), basis)
    skip = product.boundary | form.boundary
    return _error((1, product.image), (-1, form.image), skip=skip) == 0
