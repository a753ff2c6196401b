"""Truncated path-space representation as an independent numerical check.

The matrix model is built from nothing but the left-regular action, so
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

import graphfp
from graphfp import DomainError, Monomial, creation, parse_letters, path_word, vertex_word
from graphfp.fock import cross_check_reduction, represent, truncated_basis, verify_relations


def _letters(g, names):
    return parse_letters(g, " ".join(names))


def test_importing_the_package_leaves_the_oracle_unloaded():
    # numpy and scipy serve the oracle only; it is imported from graphfp.fock.
    src = str(Path(graphfp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, graphfp; print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_relations_pass_on_the_two_cycle(h):
    reports = verify_relations(h, max_len=6)
    gaps = [r for r in reports if r["status"] == "expected-gap"]
    rest = [r for r in reports if r["status"] != "expected-gap"]
    assert rest and all(r["status"] == "pass" for r in rest)
    assert all(r["max_error"] <= 1e-12 for r in rest)
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
    p = represent(creation(vertex_word(h, "v1")), basis).matrix
    assert (p != p.conjugate().transpose()).nnz == 0
    assert (p.multiply(p) != p).nnz == 0
    # One vertex word plus one path per positive length starts at v1.
    assert int(p.diagonal().real.sum()) == 6


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
