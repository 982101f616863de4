"""Exact certificates for K3 zeta-function building blocks over finite fields.

The package decides, with no floating point anywhere, whether a rational
polynomial qualifies as the transcendental part of a K3 surface's zeta
numerator in characteristic p (`condition.check_candidate`), constructs
passing witnesses for prescribed invariants (`condition.construct_witness`),
verifies the quadratic-form and lattice computations behind the existence
argument (`qform`, `k3lattice`), and answers (Picard number, slope height)
feasibility queries (`condition.feasibility`).  The `k3cert` console
script exposes all of it.

`import k3cert` loads none of the modules: each exported name, and each
module name, resolves on first access (PEP 562) and is then an ordinary
attribute.  The polynomial half (`weilpoly`, `condition`) and the lattice
half (`qform`, `k3lattice`) share only `arith`, and the console script
imports only what its subcommand needs.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "arith": (
        "INFINITE_PLACE",
        "Place",
        "SquareClass",
        "companion_prime",
        "hilbert",
        "is_prime",
        "legendre",
        "next_progression_prime",
        "square_class",
        "val_p",
    ),
    "condition": (
        "CandidateReport",
        "FeasibilityVerdict",
        "check_candidate",
        "construct_witness",
        "construct_witness_even_h",
        "feasibility",
        "seed_polynomial",
    ),
    "k3lattice": (
        "LatticeReport",
        "LatticeSpec",
        "build_picard_lattice",
        "k3_ambient_invariants",
        "no_minus_two_vector",
        "rationalize",
        "verify_lattice",
    ),
    "qform": (
        "CMFieldData",
        "EmbeddingReport",
        "HyperbolicityReport",
        "QuadSpace",
        "SpaceInvariants",
        "complement_invariants",
        "embedding_criterion",
        "hyperbolic",
        "hyperbolicity_check",
        "invariants",
    ),
    "weilpoly": (
        "IrreducibilityCertificate",
        "NewtonPolygon",
        "RatPoly",
        "cyclotomic",
        "cyclotomic_index_list",
        "has_cyclotomic_factor",
        "kronecker_certificate",
        "newton_polygon",
        "parse_poly",
        "reciprocal_transform",
        "squarefree_decompose",
        "strip_cyclotomic",
        "sturm_count",
        "unit_circle_check",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
