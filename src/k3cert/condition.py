"""The six-part transcendence test for Weil-type polynomials, and witnesses.

`check_candidate(L, p)` decides whether a rational polynomial L with
L(0) = 1 and even degree 2m <= 20 qualifies as the transcendental part
of a K3 zeta numerator in characteristic p.  The six checks, in report
order:

  unit_circle            every complex root has absolute value 1
  no_root_of_unity       no cyclotomic polynomial divides L
  integral_away_from_p   every coefficient denominator is a power of p
  slope_profile          the p-adic Newton polygon is (-a/h, h), (0, 2m-2h), (a/h, h)
  prime_power_shape      L = Q^e with Q irreducible over Q (certified)
  local_factor_irreducible  the negative-slope part of Q is irreducible over Q_p
                            (pure slope: its length equals the slope denominator)

The verdict is "pass" when all six checks pass and "fail" otherwise.  A
check can be "unknown" (an inconclusive irreducibility certificate), but
only when another check fails: the premises of that certificate are the
other five checks, so the report does not repeat them.  h and a are
read off the polygon (h is the length of the negative segment,
a = -slope * h), e from the squarefree decomposition, and q = p^a names
the field where the slope profile has the shape -1/h, 0, 1/h.

Witness construction: `construct_witness(p, m, h)` perturbs a fixed
totally-real seed polynomial of degree m by p^(-a) * T^(m-h), transforms
it to a degree-2m self-reciprocal candidate, and returns the first a
(coprime to h, searched upward) whose candidate passes.  The search runs
in Z[T] on p^a times the perturbed seed and its transform, and the six
checks read that integer transform directly; the returned witness is the
only `RatPoly` the search builds.  The search hands the check one
proved fact per candidate, (F, e): the candidate is the transform of
F^e, with F squarefree and every root of F in (-2, 2).  It proves that
from the signs of the perturbed seed at the seed's own alternation
points, and only when those signs settle nothing from the Sturm chain
of F, built one member at a time up to the first member whose degree
or signs at +-2 refute it; an F it cannot prove it skips.
`feasibility` and `k3cert construct` take this direct search for every
(m, h), so each witness they return has e = 1.  `feasibility` attaches
none at p = 5 with m = 10 and odd h, where the search finds one: that
case needs discriminant control that the lattice side lacks (see
`FeasibilityVerdict`).  `construct_witness_even_h(p, h)` is the
public square route: the square of a degree-10 witness, with e = 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .arith import _json, _Record, check_prime
from .weilpoly import (
    RatPoly,
    _alternation,
    _analyse,
    _homogeneous,
    _in_window,
    _integer_multiple,
    _mul_ints,
    _psi_ints,
    _transform_ints,
)

__all__ = [
    "CandidateReport",
    "CheckResult",
    "FeasibilityVerdict",
    "WitnessSearchError",
    "check_candidate",
    "check_names",
    "construct_witness",
    "construct_witness_even_h",
    "feasibility",
    "seed_polynomial",
]

MAX_M = 10

_CHECK_NAMES = (
    "unit_circle",
    "no_root_of_unity",
    "integral_away_from_p",
    "slope_profile",
    "prime_power_shape",
    "local_factor_irreducible",
)


def check_names() -> tuple[str, ...]:
    """The six check keys, in report order."""
    return _CHECK_NAMES


class CheckResult(_Record):
    """One check of a candidate: status is "pass" | "fail" | "unknown", and
    detail holds the facts the report prints beside it."""

    __slots__ = ("status", "detail")
    __hash__ = None  # it can hold a dict; see `arith._Record`

    def to_json(self) -> dict:
        return {"status": self.status, **_json(self.detail)}


class CandidateReport(_Record):
    """What `check_candidate` found: verdict is "pass" when every check
    passes, else "fail"; h, a, e and q are None where the candidate has
    none; slope_profile is the `NewtonPolygon` and checks maps each name of
    `check_names()` to its `CheckResult`."""

    __slots__ = ("verdict", "m", "h", "a", "e", "q", "slope_profile", "checks")
    __hash__ = None  # it can hold a dict; see `arith._Record`

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name in _CHECK_NAMES if self.checks[name].status == "fail")

    @property
    def unknown_checks(self) -> tuple[str, ...]:
        return tuple(name for name in _CHECK_NAMES if self.checks[name].status == "unknown")


def check_candidate(L: RatPoly, p: int) -> CandidateReport:
    """Run the six-part test on L in characteristic p.  See the module docstring.

    L is cleared of denominators once, and the six checks are read from
    one `weilpoly._analyse` of it, which follows the descent argument in
    the `weilpoly` module docstring.
    """
    check_prime(p)
    if L.is_zero or L.constant != 1:
        raise ValueError("candidate must have constant term 1")
    if L.degree % 2 != 0 or L.degree < 2:
        raise ValueError("candidate must have even degree >= 2")
    if L.degree > 2 * MAX_M:
        raise ValueError(f"candidate degree exceeds 2*{MAX_M}")
    return _check_candidate(_integer_multiple(L), p)


def _check_candidate(f: list[int], p: int, descent: tuple[list[int], int] | None = None) -> CandidateReport:
    """`check_candidate` on the primitive integer multiple f of L, with
    f(0) > 0, so that L = f / f(0).  A caller that has proved f to be the
    transform of s^e, with s primitive and squarefree, lc(s) > 0 and every
    root of s in (-2, 2), passes descent = (s, e) (see
    `weilpoly._analyse`).

    The six checks read the fields of that one analysis once: the slope
    profile its h and a, and the local check its local, the slope of R's
    local factor in lowest terms and its length, and its verdict
    local_irreducible, which `kronecker_certificate` reads too.  The
    verdict, and prime_power_shape when e is set, are the conjunction of
    five of those facts, so no pass over the checks is made."""
    analysis = _analyse(f, p, descent)
    h, a, e, cyc, offending = analysis.h, analysis.a, analysis.e, analysis.cyc, analysis.offending
    facts = circle, no_cyc, integral, shaped, irreducible = (
        analysis.on_circle, cyc is None, not offending, h is not None, analysis.local_irreducible
    )
    status = ("fail", "pass")
    checks = {
        # r has the roots of L, each once
        "unit_circle": CheckResult(status[circle], {"squarefree_degree": len(analysis.r) - 1}),
        "no_root_of_unity": CheckResult(status[no_cyc], {} if no_cyc else {"cyclotomic_index": cyc}),
        "integral_away_from_p": CheckResult(status[integral], {} if integral else {"offending_indices": offending}),
        "slope_profile": CheckResult(
            status[shaped], {"segments": analysis.polygon.to_json(), **({"h": h, "a": a} if shaped else {})}
        ),
    }
    # e is None unless L = R^e for R = r / r(0).  Else each premise of R's
    # certificate is a check already made: the circle and cyclotomic tests
    # hold for R iff they hold for L; content(L) = content(R)^e by Gauss's
    # lemma, so R is integral away from p iff L is; and R's polygon has the
    # pure symmetric shape iff L's has the slope profile and R's local
    # factor is irreducible.  So R is certified irreducible, and the
    # verdict is a pass, iff those five facts hold.
    certified = e is not None and all(facts)
    if e is None:
        checks["prime_power_shape"] = CheckResult("fail", {"reason": "not a power of a squarefree polynomial"})
        checks["local_factor_irreducible"] = CheckResult("unknown", {"reason": "no prime-power decomposition"})
    else:
        checks["prime_power_shape"] = CheckResult("pass" if certified else "unknown", {"e": e})
        if analysis.local is None:
            checks["local_factor_irreducible"] = CheckResult(
                "fail", {"reason": "negative part is empty or splits by slope"}
            )
        else:
            rise, run, length = analysis.local
            checks["local_factor_irreducible"] = CheckResult(
                status[irreducible], {"slope": f"{rise}/{run}", "length": length}
            )
    q = p**a if a is not None else None
    return CandidateReport(status[certified], (len(f) - 1) // 2, h, a, e, q, analysis.polygon, checks)


# Seed polynomials: monic, integral, degree m, with m distinct nonzero
# real roots in (-2, 2).  Each is a product of distinct psi_k, the minimal
# polynomial of 2cos(2pi/k) (`weilpoly._psi_ints`), so the root sets are
# disjoint; k >= 3 keeps +-2 out and k != 4 keeps 0 out.  Those used are
# psi_3 = T + 1, psi_6 = T - 1, psi_8 = T^2 - 2, psi_12 = T^2 - 3,
# psi_9 = T^3 - 3T + 1 and psi_24 = T^4 - 4T^2 + 1.
_SEED_FACTORS: dict[int, tuple[int, ...]] = {
    1: (6,),
    2: (3, 6),
    3: (9,),
    4: (24,),
    5: (3, 6, 9),
    6: (3, 6, 24),
    7: (9, 24),
    8: (3, 6, 8, 24),
    9: (3, 6, 9, 24),
    10: (3, 6, 8, 12, 24),
}

# The seeds' own certificate: seed_m takes nonzero values of strictly
# alternating sign at the points n / _POINT_DENOMINATOR for n in
# _SEED_POINTS[m], from -2 up to 2, so its m roots are distinct and lie in
# (-2, 2) (the alternation argument in the `weilpoly` module docstring).
# Each inner point is the midpoint of the gap between two neighbouring
# roots, each isolated in an interval (k/64, (k+1)/64].
_POINT_DENOMINATOR = 128
_SEED_POINTS: dict[int, tuple[int, ...]] = {
    1: (-256, 256),
    2: (-256, -1, 256),
    3: (-256, -98, 121, 256),
    4: (-256, -157, 0, 157, 256),
    5: (-256, -185, -42, 86, 162, 256),
    6: (-256, -188, -98, 0, 97, 187, 256),
    7: (-256, -244, -154, -11, 56, 132, 222, 256),
    8: (-256, -214, -155, -98, 0, 97, 154, 214, 256),
    9: (-256, -244, -185, -98, -11, 56, 97, 162, 222, 256),
    10: (-256, -234, -201, -155, -98, 0, 97, 154, 201, 234, 256),
}


@lru_cache(maxsize=MAX_M)  # one entry per valid m; a raised ValueError is not cached
def _seed_ints(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(seed, values): the integer coefficients of the monic
    `seed_polynomial(m)`, and the integers D^m seed(n / D) at its points
    n in `_SEED_POINTS[m]`, D = `_POINT_DENOMINATOR`; built and verified
    once per m, which is worth 30 % of `construct`."""
    if m not in _SEED_FACTORS:
        raise ValueError(f"seed polynomials cover 1 <= m <= {MAX_M}")
    seed = [1]
    for k in _SEED_FACTORS[m]:
        seed = _mul_ints(seed, _psi_ints(k))
    points, D = _SEED_POINTS[m], _POINT_DENOMINATOR
    values = [_homogeneous(seed, n, D) for n in points]
    # construction-time verification, not just bookkeeping: m + 1 values of
    # strictly alternating sign at points from -2 up to 2 prove that the
    # seed of degree m has m simple roots, all in (-2, 2)
    ordered = all(x < y for x, y in zip(points, points[1:]))
    window = len(points) == m + 1 and points[0] == -2 * D and points[-1] == 2 * D
    if len(seed) != m + 1 or seed[0] == 0 or not (ordered and window and _alternation(values)):
        raise RuntimeError("seed polynomial must have m distinct nonzero real roots in (-2, 2)")
    return tuple(seed), tuple(values)


@lru_cache(maxsize=MAX_M)
def seed_polynomial(m: int) -> RatPoly:
    """Monic integer polynomial of degree m with m distinct nonzero real roots in (-2, 2).

    The polynomial is built and verified once per m; later calls return
    the same (immutable) polynomial.
    """
    return RatPoly(_seed_ints(m)[0])


class WitnessSearchError(RuntimeError):
    """The bounded search over the perturbation exponent a found no passing candidate."""


def construct_witness(
    p: int, m: int, h: int, a_start: int = 1, a_cap: int = 50
) -> tuple[RatPoly, CandidateReport]:
    """Smallest-a witness with invariants (m, h, e=1) in characteristic p.

    Tries F = seed + p^(-a) T^(m-h) for a = a_start, a_start+1, ...,
    skipping a with gcd(a, h) > 1, and returns the first transformed
    candidate whose report passes with the requested h.  The cap is a
    diagnostic guard; the search is expected to succeed well before it.

    The search runs in Z[T] on p^a F = p^a seed + T^(m-h), primitive as
    its coefficients include p^a and 1 mod p.  So is its transform f,
    the transform being unimodular over Z, and L = f / f(0) = f / p^a is
    the only `RatPoly` the search builds, from the first half of the
    palindrome f (`_mirrored`).

    F is the descent of L.  The search hands the check (F, 1) for each
    F it proves squarefree with every root in (-2, 2), by the alternation
    and descent arguments in the `weilpoly` module docstring, so the
    check evaluates nothing at +-2; it skips every other F before the
    transform.  First come the signs of p^a F at the seed's points, which
    need no chain: when they strictly alternate, F has m simple roots in
    (-2, 2); when an end sign is wrong, F has a real root beyond +-2, so
    L has a root off the unit circle.  Otherwise the Sturm chain of F
    decides (`_in_window`): it is built one member at a time, and the
    first member whose degree or signs at +-2 break the pattern of m
    roots in the window refutes F.  An F it does not prove is no
    witness: a squarefree F with a root outside (-2, 2) gives L a root
    off the circle, or a root +-1 when F(2) F(-2) = 0 (only p = 2
    reaches this, since q seed(+-2) = -(+-2)^(m-h) needs p | 2), and a
    repeated root gives L no e = 1.
    """
    _, f, q, report = _search(p, m, h, a_start, a_cap)
    return _mirrored(f, q), report


def _mirrored(f: list[int], q: int) -> RatPoly:
    """f / q for the palindrome f with f(0) = q: one `Fraction` per
    coefficient of its first half, mirrored into the second.  Its
    coefficients are Fractions and the last is 1, so the constructor's
    normalisation is skipped."""
    half = [Fraction(c, q) for c in f[: len(f) // 2 + 1]]
    return RatPoly._trusted(tuple(half + half[-2::-1]))


def _search(
    p: int, m: int, h: int, a_start: int, a_cap: int
) -> tuple[list[int], list[int], int, CandidateReport]:
    """`construct_witness` in Z[T]: (F, f, q, report) for the witness,
    with q = p^a, F = q seed + T^(m-h) and f the transform of F."""
    check_prime(p)
    if not 1 <= h <= m <= MAX_M:
        raise ValueError("need 1 <= h <= m <= 10")
    if a_start < 1:
        raise ValueError("a_start must be >= 1")
    if a_start > a_cap:
        raise ValueError(f"a_start = {a_start} exceeds a_cap = {a_cap}")
    seed, seed_values = _seed_ints(m)
    D = _POINT_DENOMINATOR
    # D^m (n / D)^(m-h) at each point, so that D^m F(n / D) = q * value + term
    term = [n ** (m - h) * D**h for n in _SEED_POINTS[m]]
    for a in range(a_start, a_cap + 1):
        if math.gcd(a, h) != 1:
            continue
        q = p**a
        F = [q * c for c in seed]
        F[m - h] += 1
        inside = _alternation([q * v + t for v, t in zip(seed_values, term)])
        if not (inside or (inside is None and _in_window(F))):
            continue  # F is not proved squarefree with every root in (-2, 2)
        f = _transform_ints(F)
        report = _check_candidate(f, p, (F, 1))
        if report.passed and report.h == h:
            return F, f, q, report
    raise WitnessSearchError(
        f"no witness for p={p}, m={m}, h={h} with {a_start} <= a <= {a_cap}; "
        "raise a_cap to search further"
    )


def construct_witness_even_h(
    p: int, h: int, a_start: int = 1, a_cap: int = 50
) -> tuple[RatPoly, CandidateReport]:
    """Witness with m = 10 and even h, as the square of a degree-10 witness.

    A witness with (m, h) = (5, h/2) is constructed and squared; the
    square passes with (m, h, e) = (10, h, 2) and doubled exponent a, so
    the slope profile lives over q = p^(2a), a square.

    The square is built in Z[T].  The search proved the base witness's
    descent F squarefree with every root in (-2, 2), so the square is the
    transform of F^2 and the check is handed (F, 2).  F^2 is built only
    for its transform.
    """
    if h % 2 != 0 or not 2 <= h <= 10:
        raise ValueError("this path needs even h with 2 <= h <= 10")
    F, _, q, base_report = _search(p, 5, h // 2, a_start, a_cap)
    f = _transform_ints(_mul_ints(F, F))
    report = _check_candidate(f, p, (F, 2))
    if not (report.passed and report.h == h):
        raise WitnessSearchError(
            f"squared witness for p={p}, h={h} failed verification (base a={base_report.a})"
        )
    return _mirrored(f, q * q), report


class FeasibilityVerdict(_Record):
    """Answer to: can Picard number rho coexist with slope height h over F_p?

    feasible is decided by the rank bound rho <= 22 - 2h.  For feasible
    pairs m = 11 - rho/2 names the witness degree; witness_status is
    "computed" when a witness polynomial is attached, "unsupported_case"
    when existence holds but no witness is attached (p = 5 with m = 10
    and odd h), and None when no witness was requested.  The search does
    reach that case: `construct_witness(5, 10, h)` passes for every odd
    h.  What is missing is on the lattice side, which has no control of
    a witness's discriminant class, and the m = 10 case needs it.
    reason is "artin_violation" | "theorem_case" | "witness_provided".
    m, witness, report and witness_status default to None.
    """

    __slots__ = ("p", "rho", "h", "feasible", "reason", "description", "m", "witness", "report", "witness_status")
    _defaults = (None, None, None, None)
    __hash__ = None  # it can hold a dict; see `arith._Record`


def feasibility(p: int, rho: int, h: int, want_witness: bool = False) -> FeasibilityVerdict:
    """Decide (and optionally witness) the pair (rho, h) in characteristic p >= 5."""
    check_prime(p)
    if p < 5:
        raise ValueError("feasibility requires characteristic p >= 5")
    if rho < 2 or rho % 2 != 0:
        raise ValueError("rho must be a positive even integer")
    if h < 1:
        raise ValueError("h must be a positive integer")
    verdict = partial(FeasibilityVerdict, p, rho, h)
    bound = 22 - 2 * h
    if rho > bound:
        return verdict(False, "artin_violation", f"rho = {rho} exceeds the rank bound 22 - 2h = {bound}")
    m = 11 - rho // 2  # h <= m follows from rho <= 22 - 2h
    if p == 5 and m == 10 and h % 2 == 1:
        description = (
            "feasible, but the constructive route implemented here does not "
            "reach p = 5 with m = 10 and odd h (it would need discriminant "
            "control beyond slope data); no witness is produced"
        )
        return verdict(True, "theorem_case", description, m, witness_status="unsupported_case")
    if not want_witness:
        return verdict(True, "theorem_case", f"rho = {rho} <= 22 - 2h = {bound}; witness degree m = {m}", m)
    witness, report = construct_witness(p, m, h)
    description = f"explicit degree-{2 * m} witness with slope height {h} over p^a"
    return verdict(True, "witness_provided", description, m, witness, report, "computed")
