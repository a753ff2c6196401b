"""Creation/annihilation word calculus and the diagonal expectation.

Generators: for each word ``w`` a creation operator ``L[w]`` (a projection
when ``w`` is a vertex, a partial isometry otherwise) and its adjoint
``L*[w]``.  Every letter product reduces to zero or to a two-sided normal
form ``L[alpha] L*[beta]`` with matching target vertices.

Two reduction modes:

* ``"toeplitz"`` uses only the relations that hold in the concrete left
  representation on square-summable path space.
* ``"ck"`` additionally rewrites ``L[w] L*[w] -> L[source(w)]`` eagerly after
  every multiplication step (the weak-closure identity).  The rewrite is
  applied per step, not once at the end: with parallel edges ``p, q`` the
  product ``L[p] L*[p] L[q]`` must collapse to ``L[q]`` even though the
  Toeplitz normal form is zero.

The diagonal expectation keeps the vertex component of an element; all
moment and cumulant machinery downstream evaluates it in ``"ck"`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, FormatError
from .graph import (
    Graph,
    PathWord,
    concat,
    graph_to_json,
    load_graph,
    make_word,
    path_word,
    vertex_word,
    word_tokens,
)
from .scalars import ONE, ExactComplex, scalar_from_json, scalar_to_json

__all__ = [
    "CK",
    "TOEPLITZ",
    "GeneratorLetter",
    "creation",
    "annihilation",
    "Monomial",
    "Zero",
    "ZERO_FORM",
    "Pair",
    "NormalForm",
    "reduce_monomial",
    "ck_collapse",
    "parse_letters",
    "LatticePath",
    "lattice_path",
    "DiagonalElement",
    "RandomVariable",
    "GeneralElement",
    "to_general",
    "multiply",
    "expectation",
    "variable_from_json",
    "variable_to_json",
    "diagonal_to_json",
]

CK = "ck"
TOEPLITZ = "toeplitz"
_MODES = (CK, TOEPLITZ)


@dataclass(frozen=True)
class GeneratorLetter:
    """One letter ``L[w]`` (star=False) or ``L*[w]`` (star=True).

    Vertex letters are projections, hence self-adjoint; the constructor
    normalizes their star flag to False.
    """

    word: PathWord
    star: bool = False

    def __post_init__(self):
        if self.word.is_vertex and self.star:
            object.__setattr__(self, "star", False)

    @property
    def adjoint(self) -> "GeneratorLetter":
        return GeneratorLetter(self.word, not self.star)

    def __str__(self) -> str:
        return f"L*[{self.word}]" if self.star else f"L[{self.word}]"


def creation(word: PathWord) -> GeneratorLetter:
    return GeneratorLetter(word, False)


def annihilation(word: PathWord) -> GeneratorLetter:
    return GeneratorLetter(word, True)


@dataclass(frozen=True)
class Monomial:
    """A scalar multiple of a finite letter product; empty letters = the unit."""

    letters: tuple[GeneratorLetter, ...]
    coefficient: ExactComplex = ONE

    def __post_init__(self):
        g = self.graph
        if any(l.word.graph is not g and l.word.graph != g for l in self.letters):
            raise DomainError("all letters of a monomial must share one graph")

    @property
    def graph(self) -> Graph | None:
        return self.letters[0].word.graph if self.letters else None

    def creation_weight(self) -> int:
        """Total edge length created along the product (truncation margin)."""
        return sum(l.word.length for l in self.letters if not l.star)


@dataclass(frozen=True)
class Zero:
    """The zero operator as a normal form."""

    def __str__(self) -> str:
        return "0"


ZERO_FORM = Zero()


@dataclass(frozen=True)
class Pair:
    """Normal form ``L[alpha] L*[beta]``; alpha and beta share their target."""

    alpha: PathWord
    beta: PathWord

    def __post_init__(self):
        if self.alpha.target != self.beta.target:
            raise DomainError(
                f"normal form needs matching targets, got "
                f"{self.alpha.target!r} and {self.beta.target!r}"
            )

    @property
    def is_vertex_pair(self) -> bool:
        return self.alpha.is_vertex and self.beta.is_vertex

    def __str__(self) -> str:
        return f"L[{self.alpha}] L*[{self.beta}]"


NormalForm = Union[Pair, Zero]


def _is_prefix(p: PathWord, w: PathWord) -> bool:
    # A vertex is a prefix of any word it starts; a path never prefixes a vertex.
    if p.is_vertex:
        return p.vertex == w.source
    if w.is_vertex:
        return False
    return w.edges[: len(p.edges)] == p.edges


def _strip_prefix(w: PathWord, p: PathWord) -> PathWord:
    # Remainder r with w = p . r; the remainder of an exact match is a vertex.
    if p.is_vertex:
        return w
    rest = w.edges[len(p.edges):]
    return path_word(w.graph, rest) if rest else vertex_word(w.graph, w.target)


def ck_collapse(form: NormalForm) -> NormalForm:
    """Apply ``L[w] L*[w] -> L[source(w)]`` exhaustively to a normal form.

    ``L[a.s] L*[b.s] = L[a] L[s] L*[s] L*[b] = L[a] L*[b]``, so the longest
    common suffix of the two sides is stripped; one maximal strip is
    exhaustive because afterwards the last edges differ or a side is a vertex.
    """
    if isinstance(form, Zero):
        return form
    alpha, beta = form.alpha, form.beta
    if alpha.is_vertex or beta.is_vertex:
        return form
    na, nb = len(alpha.edges), len(beta.edges)
    k = 0
    while k < min(na, nb) and alpha.edges[na - 1 - k] == beta.edges[nb - 1 - k]:
        k += 1
    if k == 0:
        return form
    g = alpha.graph
    head_a = alpha.edges[: na - k]
    head_b = beta.edges[: nb - k]
    return Pair(
        path_word(g, head_a) if head_a else vertex_word(g, alpha.source),
        path_word(g, head_b) if head_b else vertex_word(g, beta.source),
    )


def _apply_letter(state: Pair | None, letter: GeneratorLetter, mode: str) -> NormalForm:
    w = letter.word
    g = w.graph
    if state is None:
        if letter.star:
            form = Pair(vertex_word(g, w.target), w)
        else:
            form = Pair(w, vertex_word(g, w.target))
    elif not letter.star:
        alpha, beta = state.alpha, state.beta
        if _is_prefix(beta, w):
            rem = _strip_prefix(w, beta)
            grown = concat(alpha, rem)
            assert grown is not None  # targets match by the pair invariant
            form = Pair(grown, vertex_word(g, grown.target))
        elif _is_prefix(w, beta):
            form = Pair(alpha, _strip_prefix(beta, w))
        else:
            return ZERO_FORM
    else:
        grown = concat(w, state.beta)
        if grown is None:
            return ZERO_FORM
        form = Pair(state.alpha, grown)
    if mode == CK:
        form = ck_collapse(form)
    return form


def reduce_monomial(m: Monomial, mode: str = CK) -> NormalForm:
    """Reduce a letter product to its normal form in the given mode.

    The empty monomial is the abstract unit and has no single two-sided
    normal form; reducing it is a domain error.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown reduction mode {mode!r}")
    if m.coefficient.is_zero():
        return ZERO_FORM
    if not m.letters:
        raise DomainError("the empty monomial is the unit; nothing to reduce")
    state: Pair | None = None
    for letter in m.letters:
        nxt = _apply_letter(state, letter, mode)
        if isinstance(nxt, Zero):
            return ZERO_FORM
        state = nxt
    assert state is not None
    return state


def parse_letters(graph: Graph, text: str) -> tuple[GeneratorLetter, ...]:
    """Parse a word expression: whitespace-separated identifiers, each
    optionally suffixed with ``*`` for annihilation.  A vertex id denotes
    its projection.  Example: ``"e1 e2 e2*"``."""
    tokens = text.split()
    if not tokens:
        raise FormatError("empty word expression")
    letters = []
    for tok in tokens:
        star = tok.endswith("*")
        name = tok[:-1] if star else tok
        if not name:
            raise FormatError(f"bad token {tok!r}")
        letters.append(GeneratorLetter(make_word(graph, [name]), star))
    return tuple(letters)


@dataclass(frozen=True)
class LatticePath:
    """Step sequence of a monomial: vertex letters step (0, 1); a creation
    (annihilation) of an edge-length-k word steps (+k, +k) ((-k, -k)).
    Monomials that reduce to zero in ``"ck"`` mode get the empty path."""

    steps: tuple[tuple[int, int], ...]
    empty: bool = False

    @property
    def endpoint(self) -> tuple[int, int] | None:
        if self.empty:
            return None
        return (sum(dx for dx, _ in self.steps), sum(dy for _, dy in self.steps))

    @property
    def star_axis(self) -> bool:
        """True when the path exists and ends on the vertical axis."""
        end = self.endpoint
        return end is not None and end[0] == 0


EMPTY_PATH = LatticePath((), empty=True)


def lattice_path(m: Monomial) -> LatticePath:
    if not m.letters:
        raise DomainError("the empty monomial has no lattice path")
    if isinstance(reduce_monomial(m, CK), Zero):
        return EMPTY_PATH
    steps = []
    for letter in m.letters:
        k = letter.word.length
        if k == 0:
            steps.append((0, 1))
        elif letter.star:
            steps.append((-k, -k))
        else:
            steps.append((k, k))
    return LatticePath(tuple(steps))


class _Combination:
    """A finite linear combination over one graph: ``terms`` maps a key to its
    exact coefficient, and no zero coefficient is stored.

    The constructor sums the coefficients of repeated keys.  Subclasses check
    their own keys and then call it; results that are already clean skip it
    through ``_clean``.
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms: Iterable[tuple] | dict | None = None):
        self.graph = graph
        clean: dict = {}
        for key, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            coeff = ExactComplex.of(coeff)
            if key in clean:
                coeff = clean[key] + coeff
            if coeff.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _clean(cls, graph: Graph, terms: dict):
        # Internal results whose coefficients are ExactComplex and nonzero.
        out = cls.__new__(cls)
        out.graph = graph
        out.terms = terms
        return out

    @classmethod
    def zero(cls, graph: Graph):
        return cls._clean(graph, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.graph == other.graph
            and self.terms == other.terms
        )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.graph != other.graph:
            raise DomainError("cannot add elements over different graphs")
        return self._clean(
            self.graph,
            _Combination(self.graph, [*self.terms.items(), *other.terms.items()]).terms,
        )

    def scale(self, c):
        c = ExactComplex.of(c)
        if c.is_zero():
            return self.zero(self.graph)
        return self._clean(self.graph, {k: c * x for k, x in self.terms.items()})


class DiagonalElement(_Combination):
    """A finite linear combination of vertex projections, keyed by vertex id."""

    __slots__ = ()

    def __init__(self, graph: Graph, entries: dict[str, ExactComplex] | None = None):
        for v in entries or ():
            graph.require_vertex(v)
        super().__init__(graph, entries)

    @property
    def entries(self) -> dict[str, ExactComplex]:
        return self.terms

    def get(self, v: str) -> ExactComplex:
        self.graph.require_vertex(v)
        return self.terms.get(v, ExactComplex.of(0))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __mul__(self, other: "DiagonalElement") -> "DiagonalElement":
        # Vertex projections are orthogonal, so the product is entrywise.
        if self.graph is not other.graph and self.graph != other.graph:
            raise DomainError("cannot multiply elements over different graphs")
        small, large = self.terms, other.terms
        if len(large) < len(small):
            small, large = large, small
        return self._clean(
            self.graph, {v: small[v] * large[v] for v in small if v in large}
        )

    def conjugate(self) -> "DiagonalElement":
        return self._clean(self.graph, {v: x.conjugate() for v, x in self.terms.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {c}" for v, c in sorted(self.terms.items()))
        return f"DiagonalElement({{{inner}}})"


class RandomVariable(_Combination):
    """A finite linear combination of generator letters.

    Terms are keyed by ``(word, star)``; vertex terms always carry
    ``star=False``, because their letters are self-adjoint.
    """

    __slots__ = ()

    def __init__(
        self,
        graph: Graph,
        terms: Iterable[tuple[tuple[PathWord, bool], ExactComplex]] | dict | None = None,
    ):
        items = []
        for (word, star), coeff in terms.items() if isinstance(terms, dict) else terms or ():
            if word.graph != graph:
                raise DomainError("term word belongs to a different graph")
            items.append(((word, bool(star) and not word.is_vertex), coeff))
        super().__init__(graph, items)

    @classmethod
    def from_letter(cls, letter: GeneratorLetter, coeff=ONE) -> "RandomVariable":
        return cls(letter.word.graph, {(letter.word, letter.star): coeff})

    def adjoint(self) -> "RandomVariable":
        return RandomVariable(
            self.graph,
            [((w, not s), c.conjugate()) for (w, s), c in self.terms.items()],
        )

    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    # -- support partitions ------------------------------------------------

    def path_support(self) -> set[PathWord]:
        return {w for (w, _s) in self.terms if not w.is_vertex}

    def paired_path_support(self) -> set[PathWord]:
        """Paths that occur both as a creation and as an annihilation term."""
        return {
            w
            for w in self.path_support()
            if (w, False) in self.terms and (w, True) in self.terms
        }

    def loops_at(self, v: str) -> set[PathWord]:
        self.graph.require_vertex(v)
        return {w for w in self.path_support() if w.is_loop and w.source == v}

    def paired_loops_at(self, v: str) -> set[PathWord]:
        return {w for w in self.loops_at(v) if w in self.paired_path_support()}

    def __repr__(self) -> str:
        bits = []
        for (w, s), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0].length, str(kv[0][0]), kv[0][1])
        ):
            op = f"L*[{w}]" if s else f"L[{w}]"
            bits.append(f"({c})·{op}")
        return " + ".join(bits) or "0"


class GeneralElement(_Combination):
    """A finite linear combination of two-sided normal forms, keyed by ``Pair``."""

    __slots__ = ()

    def __repr__(self) -> str:
        bits = [f"({c})·{p}" for p, c in self.terms.items()]
        return " + ".join(bits) or "0"


Element = Union[RandomVariable, GeneralElement, DiagonalElement, GeneratorLetter, Monomial]


def to_general(x: Element) -> GeneralElement:
    """View any element as a combination of two-sided normal forms (CK mode)."""
    if isinstance(x, GeneralElement):
        return x
    if isinstance(x, DiagonalElement):
        # Each vertex projection is the vertex letter L[v].
        x = RandomVariable(
            x.graph, [((vertex_word(x.graph, v), False), c) for v, c in x.entries.items()]
        )
    if isinstance(x, GeneratorLetter):
        x = Monomial((x,))
    if isinstance(x, Monomial):
        if x.graph is None:
            raise DomainError("the unit monomial has no graph; expand it explicitly")
        form = reduce_monomial(x, CK)
        if isinstance(form, Zero):
            return GeneralElement.zero(x.graph)
        return GeneralElement(x.graph, [(form, x.coefficient)])
    if isinstance(x, RandomVariable):
        return GeneralElement(
            x.graph,
            [
                (_apply_letter(None, GeneratorLetter(w, star), CK), c)
                for (w, star), c in x.terms.items()
            ],
        )
    raise TypeError(f"cannot interpret {type(x).__name__} as an element")


def _pair_product(p1: Pair, p2: Pair) -> NormalForm:
    state: NormalForm = _apply_letter(p1, creation(p2.alpha), CK)
    if isinstance(state, Zero):
        return ZERO_FORM
    if not p2.beta.is_vertex:
        state = _apply_letter(state, annihilation(p2.beta), CK)
    return state


class _FormIds:
    """The normal forms of one call, numbered in the order they are first met.

    A value is a pair (numerators, denominator): Gaussian-integer numerators
    (re, im) keyed by form id over one positive denominator.  A factor's
    denominator is the lcm of its coefficients' denominators and a product's
    is the product of its factors', so a step multiplies and adds Python ints
    with no gcd and hashes no ``Pair``; a value divides once, in
    ``expectation``.  Every factor must live over the graph of the first one.
    """

    __slots__ = ("graph", "ids", "forms", "vertices")

    def __init__(self) -> None:
        self.graph: Graph | None = None
        self.ids: dict[Pair, int] = {}
        self.forms: list[Pair] = []
        # form id -> its vertex when the form is a vertex pair, else None
        self.vertices: list[str | None] = []

    def _id(self, pair: Pair) -> int:
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.forms)
            self.forms.append(pair)
            self.vertices.append(pair.alpha.vertex if pair.is_vertex_pair else None)
        return i

    def factor(self, x: GeneralElement) -> tuple[dict[int, tuple[int, int]], int]:
        """x as a value."""
        if self.graph is None:
            self.graph = x.graph
        elif x.graph != self.graph:
            raise DomainError("cannot multiply elements over different graphs")
        den = math.lcm(*(q.denominator for c in x.terms.values() for q in (c.re, c.im)))
        return {
            self._id(p): (
                c.re.numerator * (den // c.re.denominator),
                c.im.numerator * (den // c.im.denominator),
            )
            for p, c in x.terms.items()
        }, den

    def times(self, x: tuple, y: tuple, rows: dict) -> tuple:
        """The value x y, reusing and filling ``rows``: left form id -> the
        nonzero products (form id, numerator) with the terms of y, so it is
        valid for y only."""
        (prefix, den), (factor, factor_den) = x, y
        forms = self.forms
        acc: dict[int, tuple[int, int]] = {}
        for i, (a, b) in prefix.items():
            row = rows.get(i)
            if row is None:
                row = rows[i] = []
                p1 = forms[i]
                for j, c2 in factor.items():
                    form = _pair_product(p1, forms[j])
                    if form is not ZERO_FORM:
                        row.append((self._id(form), c2))
            for k, (c, d) in row:
                prev = acc.get(k)
                if prev is None:
                    acc[k] = (a * c - b * d, a * d + b * c)
                else:
                    acc[k] = (prev[0] + a * c - b * d, prev[1] + a * d + b * c)
        return {k: z for k, z in acc.items() if z[0] or z[1]}, den * factor_den

    def expectation(self, x: tuple) -> DiagonalElement:
        """E of the value x."""
        terms, den = x
        vertices = self.vertices
        return DiagonalElement._clean(
            self.graph,
            {
                vertices[k]: ExactComplex(Fraction(re, den), Fraction(im, den))
                for k, (re, im) in terms.items()
                if vertices[k] is not None
            },
        )


def _grading(pair: Pair) -> int:
    # |alpha| - |beta| of L[alpha] L*[beta]; a product adds the gradings of
    # its factors, and E keeps only grading 0.
    return len(pair.alpha.edges) - len(pair.beta.edges)


def _times(gx: GeneralElement, gy: GeneralElement, rows: dict) -> GeneralElement:
    """gx gy, reusing and filling ``rows``: grading of a left pair -> left
    pair -> its nonzero products (form, coefficient) with the terms of gy, so
    it is valid for gy only.  Rows are grouped by grading so that a moment
    chain drops all rows of a grading its window has left in one deletion."""
    if gx.graph != gy.graph:
        raise DomainError("cannot multiply elements over different graphs")
    acc: dict[Pair, ExactComplex] = {}
    for p1, c1 in gx.terms.items():
        grading = _grading(p1)
        bucket = rows.get(grading)
        if bucket is None:
            bucket = rows[grading] = {}
        row = bucket.get(p1)
        if row is None:
            row = bucket[p1] = []
            for p2, c2 in gy.terms.items():
                form = _pair_product(p1, p2)
                if form is not ZERO_FORM:
                    row.append((form, c2))
        for form, c2 in row:
            prev = acc.get(form)
            acc[form] = c1 * c2 if prev is None else prev + c1 * c2
    return GeneralElement._clean(gx.graph, {p: c for p, c in acc.items() if c})


def multiply(x: Element, y: Element) -> GeneralElement:
    """Product of two elements, reduced termwise in CK mode."""
    return _times(to_general(x), to_general(y), {})


def expectation(x: Element | NormalForm, graph: Graph | None = None) -> DiagonalElement:
    """Conditional expectation onto the span of the vertex projections.

    A normal form contributes its vertex pair ``L[v] L*[v] = L[v]``; all
    other pairs have zero diagonal component.
    """
    if isinstance(x, Zero):
        if graph is None:
            raise DomainError("expectation of the zero form needs a graph")
        return DiagonalElement.zero(graph)
    if isinstance(x, Pair):
        x = GeneralElement(x.alpha.graph, [(x, ONE)])
    gx = to_general(x)
    # Distinct terms have distinct pairs, so each vertex pair occurs once.
    return DiagonalElement(
        gx.graph,
        {pair.alpha.vertex: c for pair, c in gx.terms.items() if pair.is_vertex_pair},
    )


# -- JSON shapes -----------------------------------------------------------


def variable_from_json(data, graph: Graph | None = None) -> RandomVariable:
    """Parse ``{"graph": {...}, "terms": [...]}`` into a RandomVariable.

    Each term is ``{"word": [ids...], "star": bool, "re": str, "im": str}``.
    Pass ``graph`` to override or supply the graph (required when the
    document's ``graph`` key is a path string resolved by the caller).
    """
    if not isinstance(data, dict):
        raise FormatError("variable document must be a JSON object")
    if graph is None:
        gspec = data.get("graph")
        if not isinstance(gspec, dict):
            raise FormatError("variable document needs an inline 'graph' object")
        graph = load_graph(gspec)
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list):
        raise FormatError("variable 'terms' must be a list")
    items = []
    for term in raw_terms:
        if not isinstance(term, dict) or "word" not in term:
            raise FormatError(f"bad term object: {term!r}")
        tokens = term["word"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise FormatError(f"term 'word' must be a list of ids: {term!r}")
        star = term.get("star", False)
        if not isinstance(star, bool):
            raise FormatError(f"term 'star' must be a boolean: {term!r}")
        coeff = scalar_from_json({"re": term.get("re", "0"), "im": term.get("im", "0")})
        items.append(((make_word(graph, tokens), star), coeff))
    return RandomVariable(graph, items)


def variable_to_json(var: RandomVariable) -> dict:
    terms = []
    for (w, s), c in sorted(
        var.terms.items(), key=lambda kv: (kv[0][0].length, word_tokens(kv[0][0]), kv[0][1])
    ):
        entry = {"word": word_tokens(w), "star": s}
        entry.update(scalar_to_json(c))
        terms.append(entry)
    return {"graph": graph_to_json(var.graph), "terms": terms}


def diagonal_to_json(d: DiagonalElement) -> dict:
    return {v: scalar_to_json(c) for v, c in d.entries.items()}


def diagonal_from_json(data, graph: Graph) -> DiagonalElement:
    """Parse ``{"v1": {"re": "1", "im": "0"}, ...}`` into a DiagonalElement."""
    if not isinstance(data, dict):
        raise FormatError("diagonal document must be a JSON object")
    return DiagonalElement(
        graph, {v: scalar_from_json(c) for v, c in data.items()}
    )
