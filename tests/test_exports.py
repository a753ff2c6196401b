"""The package's public surface: every exported name resolves, and helpers
that only the tests use live in util, not in the package."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import graphfp

MODULES = [graphfp] + [
    importlib.import_module(f"graphfp.{info.name}")
    for info in pkgutil.iter_modules(graphfp.__path__)
]

# Helpers in util, and star_axis_property, which lattice_path(m).star_axis
# replaces: none of them may come back into the package.
TEST_ONLY_HELPERS = (
    "adjoint_monomial",
    "connectivity_multiplier",
    "cumulant_via_multiplier",
    "is_partition_connected",
    "loop_power",
    "pair_letters",
    "star_axis_property",
)

# Names that cumulant's NC(n) sum needed and that partition_moments and
# ncpart.top_weights replace, and the path-diagram functions of the former
# freeness certificate: none may come back.
REMOVED_NAMES = (
    "CumulantReport",
    "partition_moment",
    "diagram",
    "diagram_distinct",
    "diagram_distinct_sets",
    "primitive_root",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_test_only_helpers_are_not_exported(module):
    for name in TEST_ONLY_HELPERS + REMOVED_NAMES:
        assert name not in getattr(module, "__all__", ())
        assert not hasattr(module, name)
