"""Even lattices for the K3 existence argument, and their rational shadows.

A lattice is described up to the data this library needs: an orthogonal
sum of copies of the even unimodular hyperbolic plane U and of rank-one
even diagonal blocks <d>.  Blocks are spelled "U" or an even integer d in
code, and "U" / {"diag": d} in JSON.

The central routine `verify_lattice` builds the rank-(22-2m) candidate
Picard block for a given case 6 <= m <= 10, takes its rational
diagonalization, computes the invariants of its orthogonal complement T
inside the K3 lattice (dimension 22, determinant -1, signature (3, 19),
Hasse support exactly {2, inf}), and runs the embedding criterion for T
against the supplied CM field data.  For the rank-2 case without square
discriminant it additionally certifies that the block <2> + <-8n>
represents 2 but not -2.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import INFINITE_PLACE, Place, SquareClass, _Record, companion_prime, square_class
from .qform import (
    CMFieldData,
    QuadSpace,
    SpaceInvariants,
    complement_invariants,
    embedding_from_invariants,
    invariants,
)

__all__ = [
    "K3_RANK",
    "LatticeReport",
    "LatticeSpec",
    "NoMinusTwoCertificate",
    "build_picard_lattice",
    "k3_ambient_invariants",
    "no_minus_two_vector",
    "rationalize",
    "verify_lattice",
]

K3_RANK = 22


class LatticeSpec(_Record):
    """Orthogonal sum of "U" blocks and even rank-one blocks <d>."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple) -> None:
        blocks = tuple(blocks)
        for b in blocks:
            if b != "U" and (not isinstance(b, int) or b == 0 or b % 2 != 0):
                raise ValueError(f"diagonal block {b!r} must be a nonzero even integer")
        if not blocks:
            raise ValueError("lattice needs at least one block")
        self._store(blocks)

    @property
    def rank(self) -> int:
        return len(self.blocks) + self.blocks.count("U")  # U has rank 2

    @property
    def signature(self) -> tuple[int, int]:
        # U has signature (1, 1), <d> the sign of d
        neg = self.blocks.count("U") + sum(1 for b in self.blocks if b != "U" and b < 0)
        return (self.rank - neg, neg)

    def to_json(self) -> dict:
        return {"blocks": [b if b == "U" else {"diag": b} for b in self.blocks]}


def k3_ambient_invariants() -> SpaceInvariants:
    """Rational invariants of the K3 lattice: dim 22, det -1, sig (3, 19), Hasse {2, inf}."""
    return SpaceInvariants(
        dim=K3_RANK,
        det=SquareClass(-1, 1),
        signature=(3, 19),
        hasse={Place._trusted(2): 1, INFINITE_PLACE: 1},
    )


# `verify_lattice` only reads it; `k3_ambient_invariants` hands each caller
# a record of its own, whose hasse dict the caller may change.  Building it
# per call would cost 4 % of `lattice`.
_K3_AMBIENT = k3_ambient_invariants()


def build_picard_lattice(m: int, fielddata: CMFieldData) -> LatticeSpec:
    """The case-table candidate Picard block of rank 22 - 2m.

    For m in {6, 9} a single hyperbolic plane plus <-4n> plus <-4>'s; for
    m in {7, 8} two auxiliary odd primes p1 (the caller-supplied nonsplit
    witness) and p2 = companion_prime(p1) pad the determinant; for m = 10
    the block is U when disc is a square and <2> + <-8n> otherwise.
    The rank 22 - 2m <= 10 is what makes the primitive embedding of the
    block into the K3 lattice automatic (Nikulin).
    """
    if not 6 <= m <= 10:
        raise ValueError("case table covers 6 <= m <= 10")
    if fielddata.degree != 2 * m:
        raise ValueError("field degree must be 2m")
    n = fielddata.n
    if m in (6, 9):
        blocks = ("U", -4 * n) + (-4,) * (19 - 2 * m)
    elif m in (7, 8):
        p1 = fielddata.nonsplit_witness
        if p1 is None:
            raise ValueError(f"case m = {m} needs a nonsplit witness prime")
        p2 = companion_prime(p1)
        if m == 7:
            blocks = ("U", -4 * n, -4, -4, -4 * p1, -4 * p2, -4 * p1 * p2)
        else:
            blocks = ("U", -4 * n, -4 * p1, -4 * p2, -4 * p1 * p2)
    elif fielddata.disc_is_square:
        blocks = ("U",)
    else:
        blocks = (2, -8 * n)
    spec = LatticeSpec(blocks)
    if spec.rank != K3_RANK - 2 * m or spec.signature != (1, 21 - 2 * m):
        raise RuntimeError("case table produced a lattice with wrong rank or signature")
    return spec


_U_ENTRIES = (Fraction(1), Fraction(-1))


def rationalize(spec: LatticeSpec) -> QuadSpace:
    """The rational quadratic space of a lattice, entries reduced modulo squares.

    U diagonalizes to <1, -1> over Q; a block <d> keeps its square class,
    e.g. <-4n> becomes <-n>.  Each distinct block is reduced once and its
    entry, one `Fraction`, is shared by every copy of the block; the two
    entries of U are made once, at import.  Sharing them is worth 1.6 % of
    `lattice`.  The space is built with `QuadSpace._trusted`: the
    representative of a square class is a nonzero integer, so every entry
    is already a nonzero `Fraction`.
    """
    entries = {b: (Fraction(square_class(b).representative()),) for b in set(spec.blocks) - {"U"}}
    entries["U"] = _U_ENTRIES
    return QuadSpace._trusted(tuple(e for b in spec.blocks for e in entries[b]))


class NoMinusTwoCertificate(_Record):
    """Proof that 2x^2 - 8ny^2 never takes the value -2, and a vector of square +2.

    The mod-4 argument: a solution would force x^2 + 1 = 4ny^2, but
    squares are 0 or 1 mod 4, so x^2 + 1 is never divisible by 4.  The
    certificate records those residues and the vector (1, 0) of square +2.
    """

    __slots__ = ("n", "mod4_square_residues", "mod4_required_residue", "plus_two_vector")

    @property
    def holds(self) -> bool:
        return self.mod4_required_residue not in self.mod4_square_residues

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "target": -2,
            "mod4": {
                "square_residues": list(self.mod4_square_residues),
                "required_residue": self.mod4_required_residue,
                "obstructed": self.holds,
            },
            "plus_two_vector": list(self.plus_two_vector),
        }


def no_minus_two_vector(n: int) -> NoMinusTwoCertificate:
    """Certify that the form 2x^2 - 8ny^2 does not represent -2.

    Any solution gives x^2 = 4ny^2 - 1 = -1 (mod 4), impossible: squares
    are 0 or 1 mod 4.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return NoMinusTwoCertificate(
        n=n,
        mod4_square_residues=(0, 1),
        mod4_required_residue=3,
        plus_two_vector=(1, 0),
    )


class LatticeReport(_Record):
    """Everything `verify_lattice` establishes about one case of the table."""

    __slots__ = (
        "lattice",
        "rank",
        "signature",
        "rational_space",
        "picard_invariants",
        "transcendental_invariants",
        "embedding",
        "no_minus2_certificate",
    )
    __hash__ = None  # it can hold a dict; see `arith._Record`


def verify_lattice(m: int, fielddata: CMFieldData) -> LatticeReport:
    """Build the case lattice for m and certify its role in the existence argument.

    Computes the complement invariants inside the K3 lattice and runs the
    embedding criterion on them; for the m = 10 non-square case, attaches
    the no-(-2)-vector certificate, with its vector of square 2, that
    replaces the hyperbolic-plane embedding.
    """
    spec = build_picard_lattice(m, fielddata)
    space = rationalize(spec)
    picard_inv = invariants(space)
    t_inv = complement_invariants(_K3_AMBIENT, picard_inv)
    embedding = embedding_from_invariants(t_inv, fielddata)
    # <2> + <-8n> represents 2 but not -2, which is what the surface-side
    # argument needs in place of U.
    no_minus2 = None if spec.blocks[0] == "U" else no_minus_two_vector(fielddata.n)
    return LatticeReport(
        lattice=spec,
        rank=spec.rank,
        signature=spec.signature,
        rational_space=space,
        picard_invariants=picard_inv,
        transcendental_invariants=t_inv,
        embedding=embedding,
        no_minus2_certificate=no_minus2,
    )
