"""The package's export lists are not stale: every name in a submodule's
`__all__` resolves, and every name `pgsurf/__init__.py` imports is there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pgsurf

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pgsurf.__path__))

# the scalar jet layer and the test-only geometry (once in a `core`
# module), deleted in favour of the array kernels, and the numerical
# stand-ins for the exact claims, deleted in favour of the sympy proofs of
# tests/test_exact_claims.py, and the hand-written family and fixture
# lists, now the one table `families.FAMILIES`, and the wrappers that only
# restated what their callers hold (`Motion`, a row of the (m, 6) motion
# array; `CrossCheckReport`, the gap and the sweep's size; `ODEProblem`,
# the arguments of `integrate`); none may come back as an export
DELETED = {
    "families": ["FAMILY_NAMES", "Fixture", "fixtures_flat_minimal", "_fixture"],
    "cli": ["_EXPECTED_FIELD", "_CAUSAL", "_random_motions"],
    "reconstruct": ["log_derivative_profile_residual", "thm31_ode_residual", "thm32_ode_residual",
                    "thm42_ode_residual", "residual_field", "ResidualReport", "CaseCoefficients",
                    "quartic_slope_coefficients", "check_quartic_slope_identity",
                    "check_linear_factor_identity", "solve_quintic_coefficient_system",
                    "_families", "specialized_grid", "ODEProblem"],
    "surface": ["Jet2", "FirstForm", "FundamentalData", "first_form", "fundamental_data",
                "jet_components", "jet_from_components", "finite_difference_jet", "_at_point",
                "PGPoint", "Character", "causal_character", "LIGHTLIKE_BAND", "pg_distance",
                "apply_motion", "apply_motion_vector", "compose", "IsoVector", "minkowski_dot",
                "Motion"],
    "factorable": ["specialized_K", "specialized_H", "k_first", "h_first", "k_second",
                   "h_second", "_at_point", "_require_kind", "LightlikeLocus", "CrossCheckReport"],
    "errors": ["LightlikeLocus"],
}


def _init_imports():
    """(module, name) for each `from .module import name` in __init__."""
    tree = ast.parse(Path(pgsurf.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_every_submodule_is_checked():
    assert {"cli", "errors", "factorable", "families", "reconstruct", "surface"} <= set(SUBMODULES)
    assert "core" not in SUBMODULES  # folded into `surface`


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pgsurf.{name}")
    exported = getattr(module, "__all__", None)
    if name == "errors":
        assert exported is None  # every class of the module is public
        return
    assert exported, name
    assert len(set(exported)) == len(exported), name
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], name


def test_package_imports_resolve():
    imports = _init_imports()
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(f"pgsurf.{module}"), name), (module, name)
        assert getattr(pgsurf, name) is getattr(importlib.import_module(f"pgsurf.{module}"), name)


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(f"pgsurf.{module}")
    for name in DELETED[module]:
        assert not hasattr(mod, name), (module, name)
        assert not hasattr(pgsurf, name), name
        assert name not in getattr(mod, "__all__", ()), (module, name)


def test_deleted_methods_are_gone():
    assert not hasattr(pgsurf.FactorableSurface, "jet")
    assert not hasattr(pgsurf.FactorableSurface, "position")
    assert not hasattr(pgsurf.ScalarC2, "derivative_gap")
