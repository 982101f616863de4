"""Every exported name resolves, and each entry point loads only the modules it needs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3cert

MODULES = ("arith", "weilpoly", "qform", "k3lattice", "condition", "cli")
LAYERS = ("arith", "weilpoly", "qform", "k3lattice", "condition")

PACKAGE_EXPORTS = {
    "INFINITE_PLACE", "Place", "SquareClass", "companion_prime", "hilbert", "is_prime", "legendre",
    "next_progression_prime", "square_class", "val_p",
    "CandidateReport", "FeasibilityVerdict", "check_candidate", "construct_witness",
    "construct_witness_even_h", "feasibility", "seed_polynomial",
    "LatticeReport", "LatticeSpec", "build_picard_lattice", "k3_ambient_invariants",
    "no_minus_two_vector", "rationalize", "verify_lattice",
    "CMFieldData", "EmbeddingReport", "HyperbolicityReport", "QuadSpace", "SpaceInvariants",
    "complement_invariants", "embedding_criterion", "hyperbolic", "hyperbolicity_check", "invariants",
    "IrreducibilityCertificate", "NewtonPolygon", "RatPoly", "cyclotomic", "cyclotomic_index_list",
    "has_cyclotomic_factor", "kronecker_certificate", "newton_polygon", "parse_poly",
    "reciprocal_transform", "squarefree_decompose", "strip_cyclotomic", "sturm_count", "unit_circle_check",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"k3cert.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"k3cert.{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from k3cert.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_resolve():
    assert len(PACKAGE_EXPORTS) == 48
    assert list(k3cert.__all__) == list(k3cert._HOME)
    assert set(k3cert.__all__) == PACKAGE_EXPORTS
    assert set(k3cert._EXPORTS) == set(LAYERS)
    for name, home in k3cert._HOME.items():
        module = importlib.import_module(f"k3cert.{home}")
        assert name in module.__all__, f"k3cert.{name} is not in k3cert.{home}.__all__"
        assert hasattr(k3cert, name), f"k3cert.{name} (from .{home}) does not resolve"
        assert getattr(k3cert, name) is getattr(module, name)
    assert PACKAGE_EXPORTS <= set(dir(k3cert))
    for layer in LAYERS:
        assert getattr(k3cert, layer) is importlib.import_module(f"k3cert.{layer}")
    with pytest.raises(AttributeError):
        k3cert.no_such_name
    namespace: dict = {}
    exec("from k3cert import *", namespace)
    assert PACKAGE_EXPORTS <= set(namespace)
    assert all(namespace[name] is getattr(k3cert, name) for name in PACKAGE_EXPORTS)


# The k3cert modules a fresh interpreter has loaded after a statement, or
# after the console entry point has run on an argv (its output discarded).
_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
target = json.loads(sys.argv[1])
if isinstance(target, str):
    exec(target)
else:
    import k3cert.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = k3cert.cli.main(target)
    if code:
        sys.exit(f"exit {code}")
print(json.dumps(sorted(m for m in sys.modules if m == "k3cert" or m.startswith("k3cert."))))
"""

POLYNOMIAL = {"k3cert.cli", "k3cert.arith", "k3cert.weilpoly", "k3cert.condition"}


@pytest.mark.parametrize(
    "target, loaded",
    [
        ("import k3cert", set()),
        ("import k3cert.cli", {"k3cert.cli"}),
        (["hilbert", "--a", "3", "--b", "5", "--place", "7"], {"k3cert.cli", "k3cert.arith"}),
        (["lattice", "--m", "9", "--n", "3"], {"k3cert.cli", "k3cert.arith", "k3cert.qform", "k3cert.k3lattice"}),
        (["strip", "--coeffs", "1,2,1"], {"k3cert.cli", "k3cert.arith", "k3cert.weilpoly"}),
        (["check", "--p", "7", "--coeffs", "1,1/7,1,1/7,1"], POLYNOMIAL),
        (["construct", "--p", "7", "--m", "2", "--h", "1"], POLYNOMIAL),
        (["feasible", "--p", "7", "--rho", "2", "--height", "1"], POLYNOMIAL),
        (["table", "--p", "7"], POLYNOMIAL),
    ],
    ids=["package", "cli", "hilbert", "lattice", "strip", "check", "construct", "feasible", "table"],
)
def test_import_footprint(target, loaded):
    # a fresh interpreter per case: modules an earlier case loaded would hide
    # an eager import
    src = str(Path(k3cert.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, json.dumps(target)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {"k3cert"} | loaded


# Standard-library modules that code generation or type hints at import
# time would load; none of them does any of the package's arithmetic.
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

_HEAVY_SCRIPT = """
import json, sys
found = {}
for name in ("k3cert.cli", "k3cert.arith", "k3cert.condition", "k3cert.k3lattice"):
    before = set(sys.modules)
    __import__(name)
    found[name] = sorted(set(sys.modules) - before)
print(json.dumps(found))
"""


def test_no_layer_imports_code_generation_or_typing():
    # -S: without site, nothing but the interpreter's own start-up is loaded
    # before the package
    src = str(Path(k3cert.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _HEAVY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["k3cert.condition"] and found["k3cert.k3lattice"]  # each import loaded its layers
    assert {name: sorted(set(new) & set(_HEAVY)) for name, new in found.items()} == dict.fromkeys(found, [])
