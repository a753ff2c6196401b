"""Symbolic graph-operator probability: word reduction over a directed
multigraph, diagonal expectation, amalgamated moments and cumulants on the
noncrossing-partition lattice, freeness checks, vertex/diagonal compression,
and an exact truncated path-space oracle.

The oracle lives in ``graphfp.fock`` and is imported from there.
"""

from .compress import (
    compress_vertex,
    compressed_moment_series,
    compressed_r_transform,
    diagonal_compress,
)
from .errors import DomainError, FormatError, GraphFPError
from .freeprob import (
    classify,
    cumulant,
    freeness_certificate,
    mixed_cumulants_vanish,
    moment,
    partition_moments,
    trivial_cumulant,
)
from .graph import (
    Graph,
    concat,
    enumerate_paths,
    graph_to_json,
    load_graph,
    make_word,
    path_word,
    vertex_word,
    word_tokens,
)
from .ncpart import NoncrossingPartition, enumerate_nc, leq, mobius
from .opcalc import (
    CK,
    TOEPLITZ,
    DiagonalElement,
    GeneralElement,
    Monomial,
    Pair,
    RandomVariable,
    annihilation,
    creation,
    expectation,
    lattice_path,
    multiply,
    parse_letters,
    reduce_monomial,
    to_general,
    variable_from_json,
    variable_to_json,
)
from .scalars import ExactComplex, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "CK",
    "TOEPLITZ",
    "DiagonalElement",
    "DomainError",
    "ExactComplex",
    "FormatError",
    "GeneralElement",
    "Graph",
    "GraphFPError",
    "Monomial",
    "NoncrossingPartition",
    "Pair",
    "RandomVariable",
    "annihilation",
    "classify",
    "compress_vertex",
    "compressed_moment_series",
    "compressed_r_transform",
    "concat",
    "creation",
    "cumulant",
    "diagonal_compress",
    "enumerate_nc",
    "enumerate_paths",
    "expectation",
    "format_rational",
    "freeness_certificate",
    "graph_to_json",
    "lattice_path",
    "load_graph",
    "make_word",
    "mixed_cumulants_vanish",
    "leq",
    "mobius",
    "moment",
    "multiply",
    "parse_letters",
    "parse_rational",
    "partition_moments",
    "path_word",
    "reduce_monomial",
    "to_general",
    "trivial_cumulant",
    "variable_from_json",
    "variable_to_json",
    "vertex_word",
    "word_tokens",
]
