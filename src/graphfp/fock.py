"""Truncated matrix representation on path space: the numerical oracle.

Basis vectors are the words of length at most L, ordered exactly as
``enumerate_paths``.  A creation ``L[w]`` maps the basis vector at ``h`` to
the one at ``w . h`` when the junction matches; targets that fall outside
the truncation are flagged per column instead of silently dropped.  An
annihilation strips ``w`` from the front.  Comparisons are made only on
interior sub-bases, i.e. columns whose vectors cannot escape the truncation
during the product being checked.

This representation validates the Toeplitz relations.  The weak-closure
rewrite ``L[w] L*[w] -> L[source(w)]`` is *not* an operator identity here,
and ``verify_relations`` reports the standard counterexample
``<xi_v, L[e] L*[e] xi_v> = 0`` against the rewritten value 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DomainError
from .graph import Graph, PathWord, concat, enumerate_paths, vertex_word
from .opcalc import (
    TOEPLITZ,
    GeneratorLetter,
    Monomial,
    Pair,
    Zero,
    annihilation,
    creation,
    reduce_monomial,
)

__all__ = [
    "TOLERANCE",
    "TruncatedBasis",
    "truncated_basis",
    "OperatorMatrix",
    "represent",
    "represent_form",
    "verify_relations",
    "cross_check_reduction",
]

TOLERANCE = 1e-12


@dataclass
class TruncatedBasis:
    """Words of length <= max_len with their basis positions."""

    graph: Graph
    max_len: int
    words: list[PathWord]
    index: dict[PathWord, int] = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.words)

    def interior_indices(self, margin: int) -> list[int]:
        """Columns whose words keep length <= max_len under `margin` extra
        edges of creation."""
        return [i for i, w in enumerate(self.words) if w.length + margin <= self.max_len]


def truncated_basis(graph: Graph, max_len: int) -> TruncatedBasis:
    if max_len < 1:
        raise DomainError("truncation length must be >= 1")
    words = enumerate_paths(graph, max_len)
    return TruncatedBasis(graph, max_len, words, {w: i for i, w in enumerate(words)})


@dataclass
class OperatorMatrix:
    """A sparse matrix on the truncated basis plus the columns whose true
    image was cut off by the truncation."""

    matrix: sparse.csr_matrix
    boundary_columns: frozenset[int]

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        # Columns feeding a boundary column of the left factor are also
        # unreliable; tracking the union is a safe overestimate.
        return OperatorMatrix(
            self.matrix @ other.matrix,
            self.boundary_columns | other.boundary_columns,
        )


def represent(letter: GeneratorLetter, basis: TruncatedBasis) -> OperatorMatrix:
    """Sparse matrix of one generator letter on the truncated basis."""
    cached = basis._cache.get(letter)
    if cached is not None:
        return cached
    w = letter.word
    if w.graph != basis.graph:
        raise DomainError("letter and basis use different graphs")
    if w.length > basis.max_len:
        raise DomainError("letter word is longer than the truncation")
    n = basis.size
    rows, cols = [], []
    boundary = set()
    if w.is_vertex:
        for j, h in enumerate(basis.words):
            if h.source == w.vertex:
                rows.append(j)
                cols.append(j)
    elif not letter.star:
        for j, h in enumerate(basis.words):
            if h.source != w.target:
                continue
            grown = concat(w, h)
            assert grown is not None
            if grown.length <= basis.max_len:
                rows.append(basis.index[grown])
                cols.append(j)
            else:
                boundary.add(j)
    else:
        for j, h in enumerate(basis.words):
            if h.is_vertex or h.length < w.length:
                continue
            if h.edges[: w.length] == w.edges:
                rest = h.edges[w.length:]
                tail = (
                    basis.graph.edge(rest[0]).src if rest else h.target
                )
                stripped = (
                    vertex_word(basis.graph, tail)
                    if not rest
                    else PathWord(basis.graph, None, rest)
                )
                rows.append(basis.index[stripped])
                cols.append(j)
    data = np.ones(len(rows), dtype=np.complex128)
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    out = OperatorMatrix(mat, frozenset(boundary))
    basis._cache[letter] = out
    return out


def represent_form(form: Pair | Zero, basis: TruncatedBasis) -> OperatorMatrix:
    """Matrix of a two-sided normal form (zero gives the zero matrix)."""
    if isinstance(form, Zero):
        n = basis.size
        return OperatorMatrix(sparse.csr_matrix((n, n), dtype=np.complex128), frozenset())
    out = represent(creation(form.alpha), basis)
    if not form.beta.is_vertex:
        out = out @ represent(annihilation(form.beta), basis)
    return out


def _max_abs_on(matrix: sparse.csr_matrix, columns: list[int]) -> float:
    if not columns:
        return 0.0
    sub = matrix[:, columns]
    return 0.0 if sub.nnz == 0 else float(np.max(np.abs(sub.data)))


def _entry(matrix: sparse.csr_matrix, i: int, j: int) -> complex:
    return complex(matrix[i, j])


def verify_relations(graph: Graph, max_len: int, word_len: int = 3) -> list[dict]:
    """Check the representation relations on interior sub-bases.

    Returns one report per relation instance with keys ``relation``,
    ``word``, ``status`` and ``max_error``.  Includes the expected failure of
    the weak-closure rewrite with its witness vector.
    """
    basis = truncated_basis(graph, max_len)
    reports: list[dict] = []

    def check(relation: str, word: str, err: float) -> None:
        reports.append(
            {
                "relation": relation,
                "word": word,
                "status": "pass" if err <= TOLERANCE else "fail",
                "max_error": err,
            }
        )

    eye = sparse.identity(basis.size, dtype=np.complex128, format="csr")

    resolution = sum(
        (represent(creation(vertex_word(graph, v)), basis).matrix for v in graph.vertices),
        start=sparse.csr_matrix((basis.size, basis.size), dtype=np.complex128),
    )
    check("vertex projections resolve the identity", "", _max_abs_on(resolution - eye, list(range(basis.size))))

    for v in sorted(graph.vertices):
        p = represent(creation(vertex_word(graph, v)), basis).matrix
        err = max(
            _max_abs_on(p @ p - p, list(range(basis.size))),
            _max_abs_on(p - p.conjugate().transpose().tocsr(), list(range(basis.size))),
        )
        check("vertex projection is a self-adjoint idempotent", v, err)

    paths = [
        w
        for w in enumerate_paths(graph, min(word_len, max_len - 1))
        if not w.is_vertex
    ]
    for w in paths:
        interior = basis.interior_indices(w.length)
        cre = represent(creation(w), basis)
        ann = represent(annihilation(w), basis)
        target = represent(creation(vertex_word(graph, w.target)), basis)
        check(
            "annihilation after creation is the target projection",
            str(w),
            _max_abs_on(ann.matrix @ cre.matrix - target.matrix, interior),
        )
        check(
            "creation is a partial isometry",
            str(w),
            _max_abs_on(cre.matrix @ ann.matrix @ cre.matrix - cre.matrix, interior),
        )
        adj = cre.matrix.conjugate().transpose().tocsr()
        check(
            "annihilation is the adjoint of creation",
            str(w),
            _max_abs_on(ann.matrix - adj, interior),
        )

    # Documented gap: the weak-closure rewrite is not representation-true.
    first_edge = next((w for w in paths if w.length == 1), None)
    if first_edge is not None:
        src = first_edge.source
        cre = represent(creation(first_edge), basis)
        ann = represent(annihilation(first_edge), basis)
        proj = represent(creation(vertex_word(graph, src)), basis)
        j = basis.index[vertex_word(graph, src)]
        got = _entry(cre.matrix @ ann.matrix, j, j).real
        expected = _entry(proj.matrix, j, j).real
        reports.append(
            {
                "relation": "weak-closure rewrite creation*annihilation -> source projection",
                "word": str(first_edge),
                "status": "expected-gap",
                "max_error": abs(got - expected),
                "counterexample": {
                    "vector": src,
                    "representation_value": got,
                    "rewritten_value": expected,
                },
            }
        )
    return reports


def cross_check_reduction(
    m: Monomial, graph: Graph, max_len: int, basis: TruncatedBasis | None = None
) -> bool:
    """Compare the letter-product matrix against the represented Toeplitz
    normal form on the interior sub-basis."""
    margin = m.creation_weight()
    if margin > max_len:
        raise DomainError("monomial creates more length than the truncation")
    if basis is None:
        basis = truncated_basis(graph, max_len)
    elif basis.graph != graph or basis.max_len != max_len:
        raise DomainError("basis does not match the requested truncation")
    product = OperatorMatrix(
        sparse.identity(basis.size, dtype=np.complex128, format="csr"), frozenset()
    )
    for letter in m.letters:
        product = product @ represent(letter, basis)
    form = reduce_monomial(m, TOEPLITZ)
    lhs = product.matrix * complex(m.coefficient)
    rhs = represent_form(form, basis).matrix
    if not isinstance(form, Zero):
        rhs = rhs * complex(m.coefficient)
    interior = basis.interior_indices(margin)
    return _max_abs_on(lhs - rhs, interior) <= TOLERANCE
