"""Truncated path-space representation as an independent exact check.

The partial-map model is built from nothing but the left-regular action, so
agreement with the symbolic Toeplitz normal form on interior columns is a
genuine cross-validation, not a tautology.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfp
from graphfp import (
    DomainError,
    Monomial,
    annihilation,
    creation,
    enumerate_paths,
    parse_letters,
    path_word,
    vertex_word,
)
from graphfp.fock import (
    basis_size,
    cross_check_reduction,
    represent,
    truncated_basis,
    verify_relations,
)

from util import branching_graphs

ROOT = Path(__file__).resolve().parents[1]


def _letters(g, names):
    return parse_letters(g, " ".join(names))


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running `code` from the repository root."""
    src = str(Path(graphfp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return run.stdout


def test_importing_the_package_leaves_the_oracle_unloaded():
    # The oracle is exact integer work: neither the package, the oracle nor
    # the command line loads numpy or scipy.
    for module in ("graphfp", "graphfp.fock", "graphfp.cli"):
        code = f"import sys, {module}; print([m for m in ('numpy', 'scipy') if m in sys.modules])"
        assert _python(code).strip() == "[]", module


def test_the_oracle_command_runs_without_numpy_or_scipy():
    # A None entry in sys.modules makes any import of that module fail.
    code = (
        "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None; "
        "from graphfp.cli import main; sys.argv[0] = 'graphfp'; sys.exit(main(sys.argv[1:]))"
    )
    out = _python(code, "oracle", "--graph", "tests/data/h.json", "--trunc", "4")
    assert out == (ROOT / "tests" / "golden" / "oracle.json").read_text()


def test_relations_pass_on_the_two_cycle(h):
    reports = verify_relations(h, max_len=6)
    gaps = [r for r in reports if r["status"] == "expected-gap"]
    rest = [r for r in reports if r["status"] != "expected-gap"]
    assert rest and all(r["status"] == "pass" for r in rest)
    assert all(r["max_error"] == 0.0 for r in rest)
    assert len(gaps) == 1
    gap = gaps[0]
    assert gap["counterexample"]["vector"] == "v1"
    assert gap["counterexample"]["representation_value"] == 0.0
    assert gap["counterexample"]["rewritten_value"] == 1.0
    assert gap["max_error"] == 1.0


def test_relations_pass_with_parallel_edges(fork, selfloops):
    for g in (fork, selfloops):
        reports = verify_relations(g, max_len=4)
        for r in reports:
            if r["status"] == "expected-gap":
                continue
            assert r["status"] == "pass", r


def test_vertex_projection_matrix_is_diagonal(h):
    basis = truncated_basis(h, 5)
    p = represent(creation(vertex_word(h, "v1")), basis)
    assert not p.boundary
    # Self-adjoint: the transposed map (row -> column) is the map itself.
    assert {row: col for col, row in p.image.items()} == p.image
    assert (p @ p).image == p.image
    # One vertex word plus one path per positive length starts at v1, and
    # each is a fixed basis vector.
    assert sum(1 for col, row in p.image.items() if col == row) == 6


def test_reduction_matches_the_matrix_model_exhaustively(h, h_letters):
    basis = truncated_basis(h, 5)
    names = list(h_letters)
    checked = 0
    for n in (1, 2, 3):
        for combo in product(names, repeat=n):
            m = Monomial(_letters(h, combo))
            if m.creation_weight() > basis.max_len:
                continue
            assert cross_check_reduction(m, h, 5, basis=basis), combo
            checked += 1
    assert checked > 200


def test_reduction_matches_on_a_branching_graph(fork):
    basis = truncated_basis(fork, 4)
    names = ["p", "p*", "q", "q*", "r", "r*", "u", "w", "z"]
    for n in (2, 3):
        for combo in product(names, repeat=n):
            m = Monomial(_letters(fork, combo))
            if m.creation_weight() > basis.max_len:
                continue
            assert cross_check_reduction(m, fork, 4, basis=basis), combo


def test_truncation_guards(h):
    with pytest.raises(DomainError):
        truncated_basis(h, 0)
    long_word = Monomial((creation(path_word(h, ["e1", "e2"] * 3)),))
    with pytest.raises(DomainError):
        cross_check_reduction(long_word, h, 4)
    basis = truncated_basis(h, 3)
    with pytest.raises(DomainError):
        cross_check_reduction(
            Monomial(_letters(h, ["e1"])), h, 4, basis=basis
        )


def _monomials(g):
    # Words of length <= 2; at most 3 created edges keep the basis small.
    words = enumerate_paths(g, 2)
    letters = st.sampled_from([f(w) for w in words for f in (creation, annihilation)])
    return st.lists(letters, min_size=1, max_size=4).map(
        lambda ls: Monomial(tuple(ls))
    ).filter(lambda m: m.creation_weight() <= 3)


@settings(max_examples=150, deadline=None)
@given(branching_graphs().flatmap(lambda g: st.tuples(st.just(g), _monomials(g))))
def test_reduction_matches_the_partial_maps_on_branching_graphs(case):
    g, m = case
    assert cross_check_reduction(m, g, m.creation_weight() + 2), m


@settings(max_examples=60, deadline=None)
@given(branching_graphs(), st.integers(0, 6))
def test_basis_size_counts_the_enumerated_words(g, max_len):
    count = len(enumerate_paths(g, max_len))
    assert basis_size(g, max_len, cap=10**9) == count
    # Stopped early, the count is still a lower bound above the cap.
    if count > 5:
        assert 5 < basis_size(g, max_len, cap=5) <= count
