"""Diagonal quadratic spaces over Q and their local-global invariants.

A space is a diagonal form <a_1, ..., a_n> with nonzero rational entries.
Its invariants are the dimension, the determinant as a square class, the
real signature (positive count, negative count), and the Hasse invariant
w = sum_{i<j} (a_i, a_j) at every place, stored sparsely: the map keeps
only the places with nontrivial bit, all others are implicitly 0.  The
support is finite (contained in {2, inf} and the primes dividing some
entry), so equality of Hasse invariants "at every place" is decidable.
At a place, w is read from A, the number of entries of odd valuation
there, and at an odd prime from one Euler symbol of a product of units.
`invariants` factors each distinct entry once and represents its square
class by sign * (its primes of odd exponent).  For each odd prime p of
those it keeps the list of reps that p divides: the reps are squarefree,
so that list is exactly the entries of odd valuation at p, A is its
length, and the unit product is read from it and the product of all reps,
with no pass over the other entries (`arith._odd_place_bit`).  So the odd
places cost one step per prime of a rep, not one pass over the entries
per place.  The places 2 and inf, and the general integer pairs of
`hilbert` and `complement_invariants`, are read by one pass over the
entries (`arith._hasse_bit`).  The primes dividing an odd number of reps
give the determinant's squarefree part.  Inside the kernels a place is a
plain integer (None for inf); a `Place` is built only for a place whose
bit is 1, when the report is assembled, and its prime, found by
factoring, is not proved prime again.  `invariants` and
`complement_invariants` build their `SpaceInvariants` with `_trusted`, not
through its checks: the dimension is positive, the signature counts each
entry once and every stored Hasse bit is 1 by construction.

`embedding_criterion` packages the three-part embedding test for a space
against the invariants of a CM field: determinant matching, even
signature components, and hyperbolicity of the localizations at every
prime where the field data says the reflex step degenerates.  The
hyperbolicity bullet can be undecidable from partial splitting data, so
its verdict is four-valued rather than boolean.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    Place,
    SquareClass,
    _hasse_bit,
    _odd_place_bit,
    _Record,
    _sqfree_primes,
    check_prime,
    format_rational,
    square_class,
)

__all__ = [
    "CMFieldData",
    "EmbeddingReport",
    "HyperbolicityReport",
    "QuadSpace",
    "SpaceInvariants",
    "complement_invariants",
    "embedding_criterion",
    "embedding_from_invariants",
    "hyperbolic",
    "hyperbolicity_check",
    "hyperbolicity_from_invariants",
    "invariants",
]


class QuadSpace(_Record):
    """Diagonal quadratic space <entries> over Q; entries are nonzero Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        # a Fraction is kept as it is: converting it again costs 6 % of `lattice`
        es = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)
        if not es:
            raise ValueError("a quadratic space needs at least one entry")
        if not all(es):
            raise ValueError("diagonal entries must be nonzero")
        self._store(es)

    @classmethod
    def of(cls, *entries) -> "QuadSpace":
        return cls(tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def direct_sum(self, other: "QuadSpace") -> "QuadSpace":
        return QuadSpace(self.entries + other.entries)

    def to_json(self) -> list[str]:
        return [format_rational(e) for e in self.entries]


class SpaceInvariants(_Record):
    """(dim, det, signature, Hasse bits) of a quadratic space over Q.

    hasse holds only the places with nontrivial invariant; use hasse_at
    for the total function.
    """

    __slots__ = ("dim", "det", "signature", "hasse")
    __hash__ = None  # it can hold a dict; see `arith._Record`

    def __init__(self, dim: int, det: SquareClass, signature: tuple[int, int], hasse: dict[Place, int]) -> None:
        signature, hasse = tuple(signature), dict(hasse)
        if dim < 1:
            raise ValueError("dimension must be positive")
        if sum(signature) != dim:
            raise ValueError("signature must sum to the dimension")
        if any(bit != 1 for bit in hasse.values()):
            raise ValueError("stored Hasse bits must be 1 (zeros are implicit)")
        self._store(dim, det, signature, hasse)

    def hasse_at(self, place: Place) -> int:
        return self.hasse.get(place, 0)

    @property
    def hasse_support(self) -> tuple[Place, ...]:
        return tuple(sorted(self.hasse, key=Place.sort_key))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "det": self.det.to_json(),
            "sig": list(self.signature),
            "hasse": {str(pl): 1 for pl in self.hasse_support},
        }


def _places(primes) -> tuple[int | None, ...]:
    """{2, inf} and the given primes (None, the real place, may be among
    them), as `_hasse_bit` places in `Place.sort_key` order."""
    return (*sorted({2, *primes} - {None}), None)


def invariants(space: QuadSpace) -> SpaceInvariants:
    """Dimension, determinant class, signature, and sparse Hasse map of a space."""
    # num/den and num*den differ by the square den^2; each distinct value is
    # factored once, and its class represented by sign * (its odd-exponent
    # primes): 1.5 % of the median `lattice` operation
    values = [e.numerator * e.denominator for e in space.entries]
    odd = {v: _sqfree_primes(v) for v in set(values)}
    rep = {v: math.prod(primes, start=1 if v > 0 else -1) for v, primes in odd.items()}
    reps = [rep[v] for v in values]
    # the symbol depends only on square classes, so only primes dividing
    # some class can carry a nontrivial bit besides 2 and inf.  For each
    # such p, the reps that p divides: reps are squarefree, so these are
    # exactly the entries of odd valuation at p
    divided: dict[int, list[int]] = {}
    for v, r in zip(values, reps):
        for p in odd[v]:
            divided.setdefault(p, []).append(r)
    total = math.prod(reps)
    hasse = {}
    for p in _places(divided):
        if p is None or p == 2:
            bit = _hasse_bit(reps, p)
        else:
            # u multiplies the units of the entries whose valuation parity
            # differs from A's: the A reps p divides, each over p, when A is
            # even, else all the other reps, whose product is total // q
            A, q = len(divided[p]), math.prod(divided[p])
            bit = _odd_place_bit(A, total // q if A % 2 else q // p**A, p)
        if bit:
            hasse[Place._trusted(p)] = 1
    # the primes dividing an odd number of reps divide their product, the others cancel
    det = SquareClass._trusted(1 if total > 0 else -1, math.prod(p for p, reps_p in divided.items() if len(reps_p) % 2))
    neg = sum(1 for v in values if v < 0)
    # what `SpaceInvariants` checks holds by construction: a space has at
    # least one entry, the signature counts each entry once, and hasse is
    # a new dict of 1s
    return SpaceInvariants._trusted(space.dim, det, (space.dim - neg, neg), hasse)


def hyperbolic(m: int) -> QuadSpace:
    """The hyperbolic space <1, -1>^m of dimension 2m."""
    if m < 1:
        raise ValueError("need m >= 1")
    return QuadSpace.of(*([1, -1] * m))


def complement_invariants(ambient: SpaceInvariants, sub: SpaceInvariants) -> SpaceInvariants:
    """Invariants of the orthogonal complement of sub inside ambient.

    Uses the Witt decomposition rules: dimensions and signatures subtract,
    determinants multiply (square classes are 2-torsion, so division and
    multiplication agree), and the Hasse bit picks up the correction term
    hilbert(det sub, det complement) at every place.
    """
    if sub.dim >= ambient.dim:
        raise ValueError("subspace must have strictly smaller dimension")
    pos = ambient.signature[0] - sub.signature[0]
    neg = ambient.signature[1] - sub.signature[1]
    if pos < 0 or neg < 0:
        raise ValueError("subspace signature does not fit inside the ambient space")
    det = ambient.det * sub.det
    # the primes dividing sub.det or det are those dividing sub.det or ambient.det
    odd = _sqfree_primes(math.lcm(sub.det.sqfree, ambient.det.sqfree))
    # the places where exactly one of ambient and sub has bit 1
    flipped = {pl.prime for pl in ambient.hasse} ^ {pl.prime for pl in sub.hasse}
    pair = (sub.det.representative(), det.representative())
    hasse = {Place._trusted(v): 1 for v in _places({*odd, *flipped}) if (v in flipped) ^ _hasse_bit(pair, v)}
    # the dimension is positive (checked above), pos + neg is the difference
    # of two signatures that sum to their dimensions, and hasse is a new
    # dict of 1s: what `SpaceInvariants` checks holds by construction
    return SpaceInvariants._trusted(ambient.dim - sub.dim, det, (pos, neg), hasse)


class CMFieldData(_Record):
    """The fragments of a degree-2m CM field this library consumes.

    n is a positive integer representing the discriminant square class
    of the field (up to the (-1)^m sign convention handled by callers);
    disc_is_square is derived from n, not stored.  The splitting
    side is optional: nonsplit_witness is a prime where some place of the
    real subfield is known to stay inert, and split_table records primes
    with fully known splitting behaviour (True = every place above splits).
    """

    __slots__ = ("degree", "n", "nonsplit_witness", "split_table")
    __hash__ = None  # it can hold a dict; see `arith._Record`

    def __init__(
        self, degree: int, n: int, nonsplit_witness: int | None = None, split_table: dict[int, bool] | None = None
    ) -> None:
        split_table = dict(split_table or ())
        for name, value in (("degree", degree), ("n", n)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if degree < 2 or degree % 2 != 0:
            raise ValueError("degree must be a positive even integer")
        if n < 1:
            raise ValueError("n must be a positive integer")
        if nonsplit_witness is not None:
            check_prime(nonsplit_witness)
            if nonsplit_witness == 2:
                raise ValueError("nonsplit witness must be odd")
            if split_table.get(nonsplit_witness) is True:
                raise ValueError(f"prime {nonsplit_witness} cannot be both split and a nonsplit witness")
        for q, split in split_table.items():
            check_prime(q)
            if not isinstance(split, bool):
                raise ValueError(f"split status of prime {q} must be True or False, got {split!r}")
        self._store(degree, n, nonsplit_witness, split_table)

    @classmethod
    def from_m(
        cls,
        m: int,
        n: int,
        nonsplit_witness: int | None = None,
        split_table: dict[int, bool] | None = None,
    ) -> "CMFieldData":
        """Build field data for degree 2m."""
        if type(m) is not int:  # 2 * True is an int, and 2 * "6" is "66"
            raise ValueError(f"m must be an integer, got {m!r}")
        return cls(2 * m, n, nonsplit_witness, split_table)

    @property
    def m(self) -> int:
        return self.degree // 2

    @property
    def disc_is_square(self) -> bool:
        return square_class(self.n).is_trivial

    def split_status(self, p: int) -> bool | None:
        """True/False when splitting at p is known, None when it is not."""
        if p == self.nonsplit_witness:
            return False
        return self.split_table.get(p)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "n": self.n,
            "disc_is_square": self.disc_is_square,
            "nonsplit_witness": self.nonsplit_witness,
            "split_table": {str(q): v for q, v in sorted(self.split_table.items())},
        }


class HyperbolicityReport(_Record):
    """Where a space fails to look hyperbolic, and whether field data excuses it.

    discrepancy lists the finite primes where the Hasse bit differs from
    the hyperbolic space of the same dimension.  The verdict is "pass"
    (no discrepancy), "conditional-pass" (every discrepancy prime is
    certified non-split), "needs-data" (some discrepancy prime has
    unknown splitting), or "fail" (a discrepancy prime is explicitly
    recorded as split, so the criterion genuinely fails there).
    """

    __slots__ = ("verdict", "discrepancy", "certified_nonsplit", "unknown_split", "split_conflicts")

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "conditional-pass")


def hyperbolicity_from_invariants(inv: SpaceInvariants, fielddata: CMFieldData) -> HyperbolicityReport:
    if inv.dim != fielddata.degree:
        raise ValueError("space dimension must equal the field degree")
    # <1, -1>^m has Hasse bit C(m, 2) mod 2 at 2 and inf, 0 at odd primes
    target = {2} if fielddata.m * (fielddata.m - 1) // 2 % 2 else set()
    discrepancy = tuple(sorted({pl.prime for pl in inv.hasse if pl.is_finite} ^ target))
    status = {q: fielddata.split_status(q) for q in discrepancy}
    certified = tuple(q for q in discrepancy if status[q] is False)
    conflicts = tuple(q for q in discrepancy if status[q] is True)
    unknown = tuple(q for q in discrepancy if q not in certified + conflicts)
    if conflicts:
        verdict = "fail"
    elif not discrepancy:
        verdict = "pass"
    elif not unknown:
        verdict = "conditional-pass"
    else:
        verdict = "needs-data"
    return HyperbolicityReport(verdict, discrepancy, certified, unknown, conflicts)


def hyperbolicity_check(space: QuadSpace, fielddata: CMFieldData) -> HyperbolicityReport:
    """Compare the local Hasse data of a space against the hyperbolic space.

    The underlying condition quantifies over the primes where the field
    data forces hyperbolicity; only finitely many primes can carry a
    discrepancy, so the comparison over the joint Hasse support decides it.
    """
    return hyperbolicity_from_invariants(invariants(space), fielddata)


class EmbeddingReport(_Record):
    """Three-part embedding criterion: determinant, signature parity, hyperbolicity.

    verdict is "pass" | "fail" | "needs-data".
    """

    __slots__ = (
        "verdict", "det_matches", "expected_det", "actual_det", "signature", "signature_even", "hyperbolicity"
    )

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "det": {
                "matches": self.det_matches,
                "expected": self.expected_det.to_json(),
                "actual": self.actual_det.to_json(),
            },
            "signature": {"value": list(self.signature), "even": self.signature_even},
            "hyperbolicity": self.hyperbolicity.to_json(),
        }


def embedding_from_invariants(inv: SpaceInvariants, fielddata: CMFieldData) -> EmbeddingReport:
    hyp = hyperbolicity_from_invariants(inv, fielddata)  # raises on a dimension mismatch
    # det(V) must be (-1)^m disc, and disc itself carries the (-1)^m sign,
    # so the required class is just that of n.
    expected = square_class(fielddata.n)
    det_ok = inv.det == expected
    sig_even = inv.signature[0] % 2 == 0 and inv.signature[1] % 2 == 0
    if not det_ok or not sig_even or hyp.verdict == "fail":
        verdict = "fail"
    elif hyp.verdict == "needs-data":
        verdict = "needs-data"
    else:
        verdict = "pass"
    return EmbeddingReport(verdict, det_ok, expected, inv.det, inv.signature, sig_even, hyp)


def embedding_criterion(space: QuadSpace, fielddata: CMFieldData) -> EmbeddingReport:
    """Run the embedding criterion for a diagonal space against CM field data."""
    return embedding_from_invariants(invariants(space), fielddata)
