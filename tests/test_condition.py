"""The six-part candidate check, witness construction, and feasibility queries."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import k3cert.condition as condition
import k3cert.weilpoly as weilpoly
from k3cert.condition import (
    MAX_M,
    CandidateReport,
    WitnessSearchError,
    check_candidate,
    check_names,
    construct_witness,
    construct_witness_even_h,
    feasibility,
    seed_polynomial,
)
from k3cert.weilpoly import (
    RatPoly,
    cyclotomic,
    format_poly,
    kronecker_certificate,
    parse_poly,
    poly_gcd,
    reciprocal_transform,
    squarefree_decompose,
    sturm_count,
    unit_circle_check,
)

from oracles import (
    count_real_roots_halfopen,
    fraction_slope_shape,
    fraction_squarefree_power,
    fraction_unit_circle,
)

WORKED = parse_poly("1,1/7,1,1/7,1")

ALL_CHECKS = (
    "unit_circle",
    "no_root_of_unity",
    "integral_away_from_p",
    "slope_profile",
    "prime_power_shape",
    "local_factor_irreducible",
)


def test_check_names_catalogue():
    assert check_names() == ALL_CHECKS


# ---------------------------------------------------------------------------
# the candidate check on known inputs


def test_worked_example_passes_every_check():
    report = check_candidate(WORKED, 7)
    assert report.verdict == "pass"
    assert report.passed
    assert (report.m, report.h, report.a, report.e) == (2, 1, 1, 1)
    assert report.q == 7
    assert [(str(s), l) for s, l in report.slope_profile.segments] == [
        ("-1", 1),
        ("0", 2),
        ("1", 1),
    ]
    assert all(report.checks[name].status == "pass" for name in ALL_CHECKS)
    assert report.failed_checks == ()
    assert report.unknown_checks == ()


def test_report_json_worked_example():
    doc = check_candidate(WORKED, 7).to_json()
    assert doc["verdict"] == "pass"
    assert doc["m"] == 2 and doc["h"] == 1 and doc["a"] == 1 and doc["e"] == 1
    assert doc["q"] == 7
    assert doc["slope_profile"] == [["-1", 1], ["0", 2], ["1", 1]]
    assert set(doc["checks"]) == set(ALL_CHECKS)


def test_cyclotomic_multiple_fails_root_of_unity_check():
    report = check_candidate(WORKED * cyclotomic(4), 7)
    assert report.verdict == "fail"
    assert "no_root_of_unity" in report.failed_checks
    assert report.checks["no_root_of_unity"].detail.get("cyclotomic_index") == 4
    # the roots still lie on the unit circle, so that check keeps passing
    assert report.checks["unit_circle"].status == "pass"


def test_off_p_denominator_fails_integrality_check():
    bent = RatPoly.of(1, Fraction(1, 21), 1, Fraction(1, 7), 1)
    report = check_candidate(bent, 7)
    assert report.verdict == "fail"
    assert "integral_away_from_p" in report.failed_checks
    assert 1 in report.checks["integral_away_from_p"].detail["offending_indices"]


def test_real_quadratic_fails_circle_check():
    # T^2 + T - 1 transformed... plainly: palindrome with off-circle roots
    report = check_candidate(parse_poly("1,-3,1"), 7)
    assert report.verdict == "fail"
    assert "unit_circle" in report.failed_checks


def test_asymmetric_slope_profile_fails():
    # valuations 0, -2, -1, 0, 0: polygon not symmetric
    bent = RatPoly.of(1, Fraction(1, 49), Fraction(1, 7), Fraction(2), 1)
    report = check_candidate(bent, 7)
    assert report.verdict == "fail"
    assert "slope_profile" in report.failed_checks


def test_split_negative_slope_fails_local_factor_check():
    # slopes -2 and -1: the p-adic negative part cannot be a single factor
    bent = RatPoly.of(1, Fraction(1, 49), Fraction(1, 343), Fraction(1, 49), 1)
    report = check_candidate(bent, 7)
    assert report.verdict == "fail"
    assert "local_factor_irreducible" in report.failed_checks


def test_tilted_middle_segment_fails_slope_profile():
    # slopes -1, 1/2, 1: mirrored ends around a middle that is not flat
    bent = RatPoly.of(1, Fraction(1, 7), 0, 1, 7)
    report = check_candidate(bent, 7)
    assert report.checks["slope_profile"].status == "fail"
    assert report.h is None
    # the lone negative segment is still a pure local factor, but the
    # failed slope profile leaves the irreducibility certificate open
    assert report.checks["local_factor_irreducible"].status == "pass"
    assert report.checks["prime_power_shape"].status == "unknown"


def test_squared_witness_passes_with_e_two():
    report = check_candidate(WORKED * WORKED, 7)
    assert report.verdict == "pass"
    assert (report.m, report.h, report.a, report.e) == (4, 2, 2, 2)
    assert report.q == 49
    assert report.checks["prime_power_shape"].detail["e"] == 2


def test_check_candidate_input_guards():
    with pytest.raises(ValueError):
        check_candidate(WORKED, 6)  # composite p
    with pytest.raises(ValueError):
        check_candidate(parse_poly("2,1,2"), 7)  # constant term != 1
    with pytest.raises(ValueError):
        check_candidate(parse_poly("1,1,1,1"), 7)  # odd degree
    with pytest.raises(ValueError):
        check_candidate(RatPoly.one(), 7)  # degree 0
    too_big = RatPoly.monomial(22, 1) + RatPoly.one()
    with pytest.raises(ValueError):
        check_candidate(too_big, 7)


@pytest.mark.parametrize(
    "coeffs",
    [
        "1,2,1",  # (1 + T)^2
        "1,-2,1",  # (1 - T)^2
        "1,2,2,2,1",  # (1 + T)^2 (1 + T^2)
        "1,0,-1",  # (1 + T)(1 - T)
        "1,1,0,-1,-1",  # (1 + T)(1 - T)(1 + T + T^2)
    ],
)
def test_roots_at_plus_minus_one_lie_on_the_circle(coeffs):
    # the squarefree part R has T + 1 or T - 1 as a factor, so it is not a
    # palindrome of even degree; those factors are divided out before the
    # circle test, which then agrees with the oracle and, for a palindrome
    # L, with unit_circle_check(L)
    L = parse_poly(coeffs)
    report = check_candidate(L, 7)
    assert fraction_unit_circle(L.coeffs)
    assert report.checks["unit_circle"].status == "pass"
    assert report.checks["no_root_of_unity"].status == "fail"
    if L.coeffs == L.coeffs[::-1]:
        assert unit_circle_check(L)
    decomposition = squarefree_decompose(L)
    assert (decomposition is None) == (report.e is None)
    if decomposition is not None:
        assert kronecker_certificate(decomposition[0], 7).premises["unit_circle"]


def test_check_candidate_clears_denominators_once(monkeypatch):
    # palindromic witnesses, a square, a cyclotomic multiple and a non-palindrome
    candidates = [WORKED, WORKED * WORKED, WORKED * cyclotomic(4), parse_poly("1,1/7,1,8/7,1")]
    for p, m, h in [(7, 10, 3), (5, 6, 2)]:
        candidates.append(construct_witness(p, m, h)[0])
    calls = []
    cleared = weilpoly._cleared
    monkeypatch.setattr(weilpoly, "_cleared", lambda coeffs: calls.append(coeffs) or cleared(coeffs))
    for L in candidates:
        calls.clear()
        check_candidate(L, 7)
        assert len(calls) == 1, format_poly(L)


def test_flat_candidate_has_height_zero_profile():
    # all roots of valuation 0: no negative segment, so no h to report
    report = check_candidate(parse_poly("1,1,1"), 7)  # sixth roots of unity
    assert report.verdict == "fail"  # cyclotomic
    assert report.checks["slope_profile"].status == "fail"


# ---------------------------------------------------------------------------
# seed polynomials


def test_seed_degrees_and_normalization():
    for m in range(1, MAX_M + 1):
        seed = seed_polynomial(m)
        assert seed.degree == m
        assert seed.leading == 1
        assert all(c.denominator == 1 for c in seed.coeffs)
        assert seed.constant != 0


def test_seed_roots_are_real_distinct_and_small():
    for m in range(1, MAX_M + 1):
        seed = seed_polynomial(m)
        assert poly_gcd(seed, seed.derivative()).degree == 0
        lo, hi = Fraction(-2), Fraction(2)
        inside = sturm_count(seed, lo, hi) - (1 if seed.evaluate(hi) == 0 else 0)
        if seed.evaluate(lo) == 0:
            inside -= 0  # half-open interval already excludes the left end
        assert inside == m


def test_seed_frozen_factorizations():
    assert seed_polynomial(1) == parse_poly("-1,1")
    assert seed_polynomial(2) == parse_poly("-1,0,1")
    assert seed_polynomial(5) == parse_poly("-1,0,1") * parse_poly("1,-3,0,1")
    assert seed_polynomial(10) == (
        parse_poly("-1,0,1")
        * parse_poly("-2,0,1")
        * parse_poly("-3,0,1")
        * parse_poly("1,0,-4,0,1")
    )
    with pytest.raises(ValueError):
        seed_polynomial(11)
    with pytest.raises(ValueError):
        seed_polynomial(0)


@pytest.fixture
def fresh_seeds():
    """Empty seed caches before and after the test, so that no seed built
    from a patched table outlives it."""
    for cached in (seed_polynomial, condition._seed_ints):
        cached.cache_clear()
    yield
    for cached in (seed_polynomial, condition._seed_ints):
        cached.cache_clear()


def test_seed_is_built_and_verified_once_per_m(monkeypatch, fresh_seeds):
    # one alternation check at the seed's points, and no Sturm chain
    checks = _counting(monkeypatch, "_alternation", condition)
    chains = _counting(monkeypatch, "_sturm_chain_ints", weilpoly)
    first = seed_polynomial(7)
    assert seed_polynomial(7) is first
    assert len(checks) == 1 and chains == []
    for _ in range(2):  # a bad m raises on every call, not only the first
        with pytest.raises(ValueError):
            seed_polynomial(11)


@pytest.mark.parametrize(
    "factors",
    [
        ((-2, 1), (-1, 0, 1)),  # a root at 2
        ((2, 1), (-1, 0, 1)),  # a root at -2
        ((-1, 1), (-1, 0, 1)),  # 1 is a double root
        ((-1, 1), (-5, 0, 1)),  # +-sqrt(5) lie outside [-2, 2]
    ],
)
def test_seed_verification_rejects_a_bad_factor_table(monkeypatch, factors):
    # the table names factors by index; the bad factors stand in for psi_k
    monkeypatch.setitem(condition._SEED_FACTORS, 3, tuple(range(len(factors))))
    monkeypatch.setattr(condition, "_psi_ints", factors.__getitem__)
    seed_polynomial.cache_clear()
    condition._seed_ints.cache_clear()
    with pytest.raises(RuntimeError):
        seed_polynomial(3)


def test_seed_points_are_dyadic_gap_points_of_the_seed():
    # each seed strictly alternates in sign at its points, by Fraction
    # evaluation, and the oracle finds exactly one root between neighbours
    for m in range(1, MAX_M + 1):
        seed = seed_polynomial(m)
        points = [Fraction(n, 128) for n in condition._SEED_POINTS[m]]
        assert (points[0], points[-1]) == (-2, 2)
        values = [seed.evaluate(x) for x in points]
        assert all(u * v < 0 for u, v in zip(values, values[1:])), m
        for lo, hi in zip(points, points[1:]):
            assert count_real_roots_halfopen(seed.coeffs, lo, hi) == 1, (m, lo, hi)


# Private names of `weilpoly` that `condition` may import: the one analysis,
# the integer kernels of the witness search, the sign test at the seed's
# points and its chain proof, and the psi_k the seeds are built from.  The
# descent decisions (the polygon's flat bound, the chain's sign
# variations, the circle and off-p tests) stay behind `_analyse`,
# `_alternation` and `_in_window`.
CONDITION_PRIVATE_IMPORTS = {
    "_alternation",
    "_analyse",
    "_homogeneous",
    "_in_window",
    "_integer_multiple",
    "_mul_ints",
    "_psi_ints",
    "_transform_ints",
}


def test_condition_imports_only_the_allowed_private_weilpoly_names():
    tree = ast.parse(Path(condition.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "weilpoly"
        for alias in node.names
    }
    assert "RatPoly" in imported  # the import was found at all
    assert {name for name in imported if name.startswith("_")} <= CONDITION_PRIVATE_IMPORTS


# ---------------------------------------------------------------------------
# witness construction


def test_construct_witness_reproduces_worked_example():
    L, report = construct_witness(7, 2, 1)
    assert L == WORKED
    assert report.a == 1 and report.q == 7


def test_construct_witness_frozen_small_cases():
    L, report = construct_witness(5, 1, 1)
    assert format_poly(L) == "1,-4/5,1"
    assert report.a == 1
    L, report = construct_witness(7, 3, 2)
    assert format_poly(L) == "1,0,1/7,1,1/7,0,1"
    assert report.a == 1


def test_construct_witness_h_equals_m():
    L, report = construct_witness(7, 2, 2)
    assert report.h == 2 and report.e == 1
    assert math.gcd(report.a, 2) == 1  # even a would collapse the slope


def test_construct_witness_respects_coprimality():
    for h in (2, 4, 6):
        m = max(h, 5)
        if m > MAX_M:
            continue
        _, report = construct_witness(7, m, h)
        assert math.gcd(report.a, h) == 1


def test_construct_witness_rejects_bad_ranges():
    with pytest.raises(ValueError):
        construct_witness(7, 4, 5)  # h > m
    with pytest.raises(ValueError):
        construct_witness(7, 11, 1)
    with pytest.raises(ValueError):
        construct_witness(8, 2, 1)  # composite p
    with pytest.raises(ValueError):
        construct_witness(7, 2, 1, a_start=0)
    with pytest.raises(ValueError):
        construct_witness(7, 2, 1, a_start=51)  # empty range: a_start > a_cap


def test_construct_witness_unreachable_cap():
    with pytest.raises(WitnessSearchError):
        construct_witness(7, 2, 2, a_start=2, a_cap=2)  # gcd(2, 2) > 1, nothing to try


def test_even_height_route_squares_a_degree_ten_witness():
    L, report = construct_witness_even_h(7, 2)
    assert (report.m, report.h, report.e) == (10, 2, 2)
    assert L.degree == 20
    assert report.q == 7**report.a
    # the base exponent doubles under squaring, so q is a perfect square
    assert report.a % 2 == 0
    assert math.isqrt(report.q) ** 2 == report.q


def test_even_height_route_rejects_odd_h():
    with pytest.raises(ValueError):
        construct_witness_even_h(7, 3)
    with pytest.raises(ValueError):
        construct_witness_even_h(7, 12)


ACCEPTANCE_GRID = [(p, m, h) for p in (5, 7) for m in range(1, 11) for h in range(1, m + 1)]
GOLDEN_CHECKS = Path(__file__).parent / "golden" / "check_reports.jsonl"


def _report_line(p: int, L: RatPoly, report) -> str:
    doc = {"p": p, "coeffs": format_poly(L), "report": report.to_json()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_every_a_the_degree_m_test_skips_fails_unit_circle(monkeypatch):
    # the search transforms the integer multiple p^a F of each a it keeps
    transformed: list[list[int]] = []
    transform = weilpoly._transform_ints

    def recording(F):
        transformed.append(list(F))
        return transform(F)

    monkeypatch.setattr(condition, "_transform_ints", recording)
    skipped = 0
    for p, m, h in ACCEPTANCE_GRID:
        if m == 10 and h % 2 == 0:
            continue  # the square of a (p, 5, h/2) witness, searched elsewhere in the grid
        transformed.clear()
        _, report = construct_witness(p, m, h)
        for a in range(1, report.a + 1):
            F = seed_polynomial(m) + RatPoly.monomial(m - h, Fraction(1, p**a))
            if math.gcd(a, h) == 1 and [int(c * p**a) for c in F.coeffs] not in transformed:
                skipped += 1
                L = reciprocal_transform(F)
                assert check_candidate(L, p).checks["unit_circle"].status == "fail", (p, m, h, a)
    assert skipped > 0


def _sign_outcome(p: int, m: int, h: int, a: int) -> str:
    """How the signs of F = seed + p^(-a) T^(m-h) at the seed's points,
    evaluated over Q, settle the a: "alternates", "end sign" or "chain"."""
    F = _perturbed_seed(p, m, h, a)
    values = [F.evaluate(Fraction(n, 128)) for n in condition._SEED_POINTS[m]]
    if all(u * v < 0 for u, v in zip(values, values[1:])):
        return "alternates"
    if values[-1] < 0 or (-1) ** m * values[0] < 0:
        return "end sign"
    return "chain"


def _tried(h: int, a: int) -> list[int]:
    return [b for b in range(1, a + 1) if math.gcd(b, h) == 1]


def test_witness_search_builds_one_sturm_chain_per_a(monkeypatch):
    # one chain for each a whose signs at the seed's points settle nothing,
    # and none for the others, nor for the square on the even-h route; at
    # odd p, F(2) F(-2) != 0, so the check never builds a chain of its own
    chains = _counting(monkeypatch, "_sturm_chain_ints", weilpoly)
    triples = [(7, 4, 2), (5, 10, 3), (7, 9, 4), (13, 8, 5), *ACCEPTANCE_GRID]
    fallbacks = 0
    for p, m, h in triples:
        seed_polynomial(m)
        chains.clear()
        if m == 10 and h % 2 == 0:
            _, report = construct_witness_even_h(p, h)
            m, h, a = 5, h // 2, report.a // 2
        else:
            a = construct_witness(p, m, h)[1].a
        expected = sum(1 for b in _tried(h, a) if _sign_outcome(p, m, h, b) == "chain")
        assert len(chains) == expected, (p, m, h)
        if a == 1 and (p, m, h) in ACCEPTANCE_GRID:
            assert chains == [], (p, m, h)
        fallbacks += expected
    assert fallbacks > 0


# every triple here but (7, 4, 2) has an a that the chain rejects (at
# p = 2 some F vanish at 2 or -2); only each witness reaches the check
REJECTING_TRIPLES = [(2, 3, 1), (2, 4, 3), (2, 7, 3), (7, 4, 2), (5, 10, 3)]


def _counting(monkeypatch, name: str, *modules) -> list:
    calls = []
    original = getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_witness_search_counts_the_sign_variations_once_per_chain(monkeypatch):
    # each chain's window is read once, by one `_window` call that also
    # gives G(2) G(-2); at p = 2 some F of the search vanish at 2 or -2,
    # so the chain does not prove them in the window; Phi_1 or Phi_2 then
    # divides L, and the search skips them
    chains = _counting(monkeypatch, "_sturm_chain_ints", weilpoly)
    counted = _counting(monkeypatch, "_window", weilpoly)
    checks = _counting(monkeypatch, "_check_candidate", condition)
    vanishing = 0
    for p, m, h in REJECTING_TRIPLES:
        seed_polynomial(m)
        for calls in (chains, counted, checks):
            calls.clear()
        construct_witness(p, m, h)
        assert [chain[0] for (chain,) in counted] == [G for (G,) in chains], (p, m, h)
        vanishing += sum(1 for (G,) in chains if weilpoly._at(G, 2) * weilpoly._at(G, -2) == 0)
        assert len(checks) == 1, (p, m, h)
    assert vanishing > 0


def test_witness_search_builds_no_fractions_for_a_rejected_a(monkeypatch):
    for p, m, h in REJECTING_TRIPLES:
        construct_witness(p, m, h)  # fills the per-m seed caches
    checks = _counting(monkeypatch, "_check_candidate", condition)
    cleared = _counting(monkeypatch, "_cleared", weilpoly)
    transforms = _counting(monkeypatch, "reciprocal_transform", weilpoly)
    for p, m, h in REJECTING_TRIPLES:
        for calls in (checks, cleared, transforms):
            calls.clear()
        L, report = construct_witness(p, m, h)
        assert (cleared, transforms) == ([], []), (p, m, h)
        assert len(checks) == 1, (p, m, h)  # the search checks only the witness
        # the witness is the transform of seed + p^(-a) T^(m-h), as a RatPoly
        F = seed_polynomial(m) + RatPoly.monomial(m - h, Fraction(1, p**report.a))
        assert L == reciprocal_transform(F), (p, m, h)


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)
EVERY_TRIPLE = [(p, m, h) for p in ORACLE_PRIMES for m in range(1, MAX_M + 1) for h in range(1, m + 1)]


def _perturbed_seed(p: int, m: int, h: int, a: int) -> RatPoly:
    return seed_polynomial(m) + RatPoly.monomial(m - h, Fraction(1, p**a))


def _horner(cs, x) -> Fraction:
    return sum(c * Fraction(x) ** i for i, c in enumerate(cs))


def _oracle_radical(F: RatPoly) -> tuple:
    """The squarefree part of F and its exponent, by the Fraction oracle
    (F(0) != 0)."""
    return fraction_squarefree_power([c / F.constant for c in F.coeffs])


def _oracle_root_outside_window(F: RatPoly) -> bool:
    """Whether the oracle finds a real root of F outside [-2, 2]."""
    R = _oracle_radical(F)[0]
    bound = 2 + max(abs(c / R[-1]) for c in R)  # beyond Cauchy's root bound
    below = count_real_roots_halfopen(R, -bound, -2) - (_horner(R, -2) == 0)
    return count_real_roots_halfopen(R, 2, bound) + below > 0


def test_alternation_and_end_signs_agree_with_the_oracles(monkeypatch):
    # every a that the signs at the seed's points settle, for every (m, h)
    # and each prime, up to the returned a
    outcomes = []
    alternation = condition._alternation

    def recording(values):
        outcomes.append(alternation(values))
        return outcomes[-1]

    monkeypatch.setattr(condition, "_alternation", recording)
    settled = {True: 0, False: 0}
    for p, m, h in EVERY_TRIPLE:
        seed_polynomial(m)
        outcomes.clear()
        _, report = construct_witness(p, m, h)
        tried = _tried(h, report.a)
        assert len(outcomes) == len(tried), (p, m, h)
        for a, outcome in zip(tried, outcomes):
            if outcome is None:
                continue
            settled[outcome] += 1
            F = _perturbed_seed(p, m, h, a)
            if outcome:  # m distinct roots in (-2, 2), so F is squarefree
                R, e = _oracle_radical(F)
                inside = count_real_roots_halfopen(R, -2, 2) - (_horner(R, 2) == 0)
                assert (e, inside) == (1, m), (p, m, h, a)
            else:
                assert _oracle_root_outside_window(F), (p, m, h, a)
                assert check_candidate(reciprocal_transform(F), p).checks["unit_circle"].status == "fail"
    assert settled[True] > 0 and settled[False] > 0


def test_search_returns_the_witness_of_the_chain_only_search(monkeypatch):
    # with no sign settling any a, every a takes the Sturm chain, and the
    # chains alone decide the search
    found = {t: construct_witness(*t) for t in EVERY_TRIPLE}  # also fills the seed caches
    monkeypatch.setattr(condition, "_alternation", lambda values: None)
    for t in [*EVERY_TRIPLE, *REJECTING_TRIPLES]:
        L, report = construct_witness(*t)
        expected_L, expected = found[t]
        assert (L, report.to_json()) == (expected_L, expected.to_json()), t


def _point_mutants(points: tuple[int, ...]):
    """(kind, points) for tables one mistake away from points."""
    for j in range(1, len(points) - 1):
        for moved in (points[j] - 1, points[j] + 1, (points[j - 1] + points[j]) // 2, points[j + 1] + 1):
            yield "moved", points[:j] + (moved,) + points[j + 1:]
    for j in range(len(points)):
        yield "dropped", points[:j] + points[j + 1:]
    yield "end sign", (-points[0],) + points[1:]
    yield "end sign", points[:-1] + (-points[-1],)


def test_seed_point_mutants_raise_or_keep_the_witness(monkeypatch, fresh_seeds):
    # a table that passes the seed's verification may send more a to the
    # chain, but never changes a witness
    primes = (2, 7)
    fallbacks = _counting(monkeypatch, "_in_window", condition)

    def search(m: int) -> tuple[list, int]:
        fallbacks.clear()
        found = [construct_witness(p, m, h) for p in primes for h in range(1, m + 1)]
        return [(L, report.to_json()) for L, report in found], len(fallbacks)

    kept = {"moved": 0, "dropped": 0, "end sign": 0}
    more_chains = 0
    for m in range(1, MAX_M + 1):
        expected, chains = search(m)
        for kind, points in _point_mutants(condition._SEED_POINTS[m]):
            monkeypatch.setitem(condition._SEED_POINTS, m, points)
            condition._seed_ints.cache_clear()
            try:
                condition._seed_ints(m)
            except RuntimeError:
                continue
            kept[kind] += 1
            found, mutant_chains = search(m)
            assert found == expected, (m, points)
            more_chains += mutant_chains > chains
    # dropped points and flipped ends never pass; some moved points do, and
    # some of those fall back to the chain more often
    assert kept["dropped"] == kept["end sign"] == 0
    assert kept["moved"] > 0 and more_chains > 0


def test_squared_witnesses_match_a_fresh_check():
    # the square route hands the check (F, 2) for its base witness's
    # descent F; a fresh check of the square builds its own Sturm chain
    for p in (5, 7, 11, 13):
        for h in range(2, 11, 2):
            L, report = construct_witness_even_h(p, h)
            assert check_candidate(L, p).to_json() == report.to_json(), (p, h)
            base = construct_witness(p, 5, h // 2)[0]
            assert L == base * base, (p, h)


def test_even_height_route_raises_when_the_square_fails_its_check(monkeypatch):
    check = condition._check_candidate

    def failing_square(*args):
        report = check(*args)
        if report.m != 10:
            return report
        fields = (report.m, report.h, report.a, report.e, report.q, report.slope_profile, report.checks)
        return CandidateReport("fail", *fields)

    monkeypatch.setattr(condition, "_check_candidate", failing_square)
    with pytest.raises(WitnessSearchError, match="squared witness"):
        construct_witness_even_h(7, 2)


def test_witnesses_match_their_passing_golden_lines():
    passing: dict[tuple, set[str]] = {}
    for line in GOLDEN_CHECKS.read_text().splitlines():
        doc = json.loads(line)
        r = doc["report"]
        if r["verdict"] == "pass":
            passing.setdefault((doc["p"], r["m"], r["h"], r["e"]), set()).add(line)
    for p, m, h in ACCEPTANCE_GRID:
        if m == 10 and h % 2 == 0:
            L, report = construct_witness_even_h(p, h)
        else:
            L, report = construct_witness(p, m, h)
        assert passing[(p, m, h, report.e)] == {_report_line(p, L, report)}, (p, m, h)


def test_witness_reports_are_internally_consistent():
    for p, m, h in [(7, 2, 1), (7, 5, 3), (5, 4, 1), (5, 3, 3), (7, 6, 5)]:
        L, report = construct_witness(p, m, h)
        assert report.passed
        assert L.degree == 2 * m
        assert L.constant == 1
        assert L.coeffs == tuple(reversed(L.coeffs))
        assert report.q == p**report.a
        assert math.gcd(report.a, report.h) == 1
        fresh = check_candidate(L, p)
        assert fresh.to_json() == report.to_json()


# ---------------------------------------------------------------------------
# feasibility of (rho, h) pairs


def test_feasibility_square_of_rank_bound():
    verdict = feasibility(7, 4, 9)
    assert verdict.feasible
    assert verdict.m == 9
    verdict = feasibility(7, 6, 9)
    assert not verdict.feasible
    assert verdict.reason == "artin_violation"
    assert verdict.m is None


def test_feasibility_grid_matches_rank_bound():
    for p in (5, 7):
        for rho in range(2, 21, 2):
            for h in range(1, 11):
                verdict = feasibility(p, rho, h)
                assert verdict.feasible == (rho <= 22 - 2 * h)


def test_feasibility_m_formula():
    assert feasibility(7, 10, 1).m == 6
    assert feasibility(7, 2, 1).m == 10
    assert feasibility(7, 20, 1).m == 1


def test_feasibility_witness_direct_route():
    verdict = feasibility(7, 4, 9, want_witness=True)
    assert verdict.witness is not None
    assert verdict.report.h == 9 and verdict.report.m == 9
    assert verdict.witness_status == "computed"


def test_feasibility_witness_even_h_direct_route():
    # m = 10 with even h takes the direct search: e = 1 over q = p^a, here a = 1
    verdict = feasibility(7, 2, 10, want_witness=True)
    assert verdict.report.m == 10 and verdict.report.h == 10
    assert (verdict.report.e, verdict.report.a, verdict.report.q) == (1, 1, 7)


def test_feasibility_unsupported_pocket():
    verdict = feasibility(5, 2, 9, want_witness=True)
    assert verdict.feasible
    assert verdict.witness is None
    assert verdict.witness_status == "unsupported_case"
    # the same pocket with even h is fully supported
    verdict = feasibility(5, 2, 8, want_witness=True)
    assert verdict.witness is not None
    assert verdict.report.e == 1


def test_feasibility_input_guards():
    with pytest.raises(ValueError):
        feasibility(3, 2, 1)
    with pytest.raises(ValueError):
        feasibility(4, 2, 1)
    with pytest.raises(ValueError):
        feasibility(7, 3, 1)
    with pytest.raises(ValueError):
        feasibility(7, 0, 1)
    with pytest.raises(ValueError):
        feasibility(7, 2, 0)


def test_feasibility_json_carries_witness_text():
    doc = feasibility(7, 4, 9, want_witness=True).to_json()
    assert doc["feasible"] is True
    assert isinstance(doc["witness"], str) and doc["witness"].startswith("1,")
    assert doc["report"]["verdict"] == "pass"
    doc = feasibility(7, 20, 10).to_json()
    assert doc["feasible"] is False
    assert doc["witness"] is None


# ---------------------------------------------------------------------------
# the returned witness, and the end values the search has proved

CONSTRUCT_GRID = [(p, m, h) for p in (5, 7, 11, 13) for m in range(1, MAX_M + 1) for h in range(1, m + 1)]


def _oracle_in_window(F: list[int]) -> bool:
    """Whether F, with F(0) != 0, is squarefree with every root in
    (-2, 2), by the Fraction oracles: e = 1, deg F distinct roots in
    (-2, 2] and F(2) != 0."""
    F = [Fraction(c) for c in F]
    if fraction_squarefree_power([c / F[0] for c in F])[1] != 1:
        return False
    return count_real_roots_halfopen(F, -2, 2) == len(F) - 1 and _horner(F, 2) != 0


def test_in_window_agrees_with_the_oracles():
    # every F the search builds, up to the returned a, on the grid and the
    # rejecting triples (the seeds have no root 0 and p does not divide 1,
    # so F(0) != 0), and hand cases at the window's edges
    proved = {True: 0, False: 0}
    vanishing = 0
    for p, m, h in [*CONSTRUCT_GRID, *REJECTING_TRIPLES]:
        for a in _tried(h, construct_witness(p, m, h)[1].a):
            F = [int(c * p**a) for c in _perturbed_seed(p, m, h, a).coeffs]
            assert F[0] != 0, (p, m, h, a)
            got = weilpoly._in_window(F)
            assert got == _oracle_in_window(F), (p, m, h, a)
            proved[got] += 1
            vanishing += weilpoly._at(F, 2) * weilpoly._at(F, -2) == 0
    assert min(proved.values()) > 100 and vanishing > 0, (proved, vanishing)
    hand = {
        (2, -3, 1): False,  # (T - 1)(T - 2): a root at 2
        (-2, 1, 1): False,  # (T - 1)(T + 2): a root at -2
        (1, -1, -1, 1): False,  # (T - 1)^2 (T + 1): a repeated root, all inside
        (3, -4, 1): False,  # (T - 1)(T - 3): a root beyond 2
        (1, 0, 1): False,  # T^2 + 1: no real root
        (-1, 0, 1): True,  # (T - 1)(T + 1)
    }
    for F, want in hand.items():
        assert weilpoly._in_window(list(F)) == _oracle_in_window(list(F)) == want, F


def test_witnesses_are_the_integer_palindrome_over_q():
    def palindrome_over_q(L, report, f, q, cell):
        assert q == report.q, cell
        assert L.coeffs == tuple(Fraction(c, q) for c in f), cell
        assert L.coeffs == L.coeffs[::-1] and L.constant == 1 and L.degree == 2 * cell[1], cell

    squared = 0
    for p, m, h in CONSTRUCT_GRID:
        _, f, q, _ = condition._search(p, m, h, 1, 50)
        palindrome_over_q(*construct_witness(p, m, h), f, q, (p, m, h))
        if m == 10 and h % 2 == 0:  # the public square route on the same cell
            F, _, q, _ = condition._search(p, 5, h // 2, 1, 50)
            f = weilpoly._transform_ints(weilpoly._mul_ints(F, F))
            palindrome_over_q(*construct_witness_even_h(p, h), f, q * q, (p, m, h))
            squared += 1
    assert (len(CONSTRUCT_GRID), squared) == (220, 20)


def test_the_screens_pass_only_true_factors_to_prem(monkeypatch):
    # the integer screen at N = 2^16 rules out every k but a true factor:
    # while the two cyclotomic scans run, each `_prem` leaves no
    # remainder, one per golden line that names a cyclotomic index, and
    # none on the witness search's grid
    remainders: list[list[int]] = []
    scans = 0
    prem = weilpoly._prem

    def recording(a, b):
        r = prem(a, b)
        if scanning:
            remainders.append(r)
        return r

    def scanned(scan):
        def run(f, flat):
            nonlocal scanning, scans
            scanning, scans = True, scans + 1
            try:
                return scan(f, flat)
            finally:
                scanning = False

        return run

    scanning = False
    monkeypatch.setattr(weilpoly, "_prem", recording)
    for name in ("_cyclotomic_index_ints", "_psi_index_ints"):
        monkeypatch.setattr(weilpoly, name, scanned(getattr(weilpoly, name)))
    named = 0
    for line in GOLDEN_CHECKS.read_text().splitlines():
        doc = json.loads(line)
        remainders.clear()
        check_candidate(parse_poly(doc["coeffs"]), doc["p"])
        k = doc["report"]["checks"]["no_root_of_unity"].get("cyclotomic_index")
        assert remainders == [[]] * (k is not None), (doc["coeffs"], doc["p"])
        named += k is not None
    assert named == 25
    remainders.clear()
    scans = 0
    for p, m, h in CONSTRUCT_GRID:
        construct_witness(p, m, h)
    assert remainders == [] and scans >= len(CONSTRUCT_GRID), scans


def test_the_check_evaluates_no_proved_end_value(monkeypatch):
    # the search hands the check (F, 1) for each F it proves squarefree
    # with every root in (-2, 2), by the signs or by `_in_window`, and the
    # square route hands it (F, 2); the check evaluates nothing at +-2 for
    # them, and its report is the one of the check that finds every fact
    # itself
    at, check = weilpoly._at, condition._check_candidate
    handed: list[int] = []

    def checking(f, p, descent):
        F, e = descent
        assert f == weilpoly._transform_ints(weilpoly._mul_ints(F, F) if e == 2 else F), descent
        ends: list[int] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weilpoly, "_at", lambda cs, x: (x in (2, -2) and ends.append(x)) or at(cs, x))
            report = check(f, p, descent)
        assert ends == [], descent
        handed.append(e)
        assert report == check(f, p), descent
        return report

    monkeypatch.setattr(condition, "_check_candidate", checking)
    for p, m, h in REJECTING_TRIPLES:
        construct_witness(p, m, h)
    construct_witness_even_h(7, 4)  # the square's (F, 2) for (7, 10, 4)
    assert len(handed) > 5 and set(handed) == {1, 2}, handed


def test_vanishing_F_is_never_proved_in_window_and_fails_the_root_of_unity_check(monkeypatch):
    # F(2) F(-2) = 0 (the search meets such F at p = 2): T - 1 or T + 1
    # divides L = T^m F(T + 1/T), so the chain proves nothing, the search
    # skips F, and a fresh check of L fails
    in_window = weilpoly._in_window
    proofs: list = []
    monkeypatch.setattr(condition, "_in_window", lambda F: proofs.append((F, in_window(F))) or proofs[-1][1])
    checks = _counting(monkeypatch, "_check_candidate", condition)
    for p, m, h in REJECTING_TRIPLES:
        construct_witness(p, m, h)
    monkeypatch.undo()
    vanishing = [(F, proved) for F, proved in proofs if weilpoly._at(F, 2) * weilpoly._at(F, -2) == 0]
    assert vanishing
    handed = [descent[0] for _, _, descent in checks]
    for F, proved in vanishing:
        assert not proved and F not in handed, F
        report = condition._check_candidate(weilpoly._transform_ints(F), 2)
        assert not report.passed and "no_root_of_unity" in report.failed_checks, F
        assert report.checks["no_root_of_unity"].detail["cyclotomic_index"] in (1, 2), F


# ---------------------------------------------------------------------------
# the slope profile read in Z, against the Fraction reading of the oracle


def _assert_slope_reading(L: RatPoly, p: int) -> None:
    """The flat length that `_analyse` bounds its cyclotomic scan by, the
    h, a and local of its record, the report's h, a, slope profile and
    local check, and the certificate's pure-slope premise (when L is
    squarefree) all equal the reading of `fraction_slope_shape`."""
    flats: list[int] = []

    def recording(scan):
        return lambda cs, flat: flats.append(flat) or scan(cs, flat)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_psi_index_ints", "_cyclotomic_index_ints"):
            patch.setattr(weilpoly, name, recording(getattr(weilpoly, name)))
        report = check_candidate(L, p)
    flat, h, a, symmetric, pure, local = fraction_slope_shape(L.coeffs, p, report.e or 1)
    where = (format_poly(L), p)
    assert flats == [flat], where
    analysis = weilpoly._analyse(weilpoly._integer_multiple(L), p)
    assert (analysis.h, analysis.a) == (h, a), where
    if analysis.e is None or local is None:
        assert analysis.local is None, where
    else:
        rise, run, length = analysis.local
        assert (f"{rise}/{run}", length, run == length) == local, where
    assert (report.h, report.a) == (h, a), where
    assert report.checks["slope_profile"].status == ("pass" if symmetric else "fail"), where
    check = report.checks["local_factor_irreducible"].to_json()
    if report.e is not None and local is None:
        assert check["status"] == "fail" and "reason" in check, where
    elif report.e is not None:
        slope, length, irreducible = local
        assert check == {"status": "pass" if irreducible else "fail", "slope": slope, "length": length}, where
    if report.e == 1:
        certificate = kronecker_certificate(L, p)
        assert certificate.premises["pure_negative_slope"] == pure, where
        assert (certificate.detail.get("h"), certificate.detail.get("a")) == (h, a if pure else None), where


def test_slope_reading_matches_the_oracle_over_the_golden_corpus():
    shapes = set()
    for line in GOLDEN_CHECKS.read_text().splitlines():
        doc = json.loads(line)
        L = parse_poly(doc["coeffs"])
        _assert_slope_reading(L, doc["p"])
        _, h, a, _, pure, _ = fraction_slope_shape(L.coeffs, doc["p"])
        shapes.add((h is not None, pure))
    # symmetric and pure, symmetric with gcd(a, h) > 1
    assert {(True, True), (True, False)} <= shapes


@st.composite
def _slope_draws(draw) -> tuple[RatPoly, int]:
    """(L, p) with L(0) = 1 and even degree <= 20.  L is a cloud of p-adic
    valuations in [-3, 3] with some zero coefficients, or has the hull
    (0, 0), (h1, -a), (n - h2, -a), (n, b - a) with the other coefficients
    zero or on or above it (symmetric or not, with or without a flat
    segment, gcd(a, h1) > 1 allowed), or is the square of either (e = 2)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    square = draw(st.booleans())
    n = draw(st.integers(1, 10)) * (1 if square else 2)
    units = st.sampled_from((1, -1, p + 1, 1 - p))
    coeffs = [Fraction(1)]
    if draw(st.booleans()):
        for i in range(1, n + 1):
            if i < n and draw(st.integers(0, 3)) == 0:
                coeffs.append(Fraction(0))
            else:
                coeffs.append(draw(units) * Fraction(p) ** draw(st.integers(-3, 3)))
    else:
        h1 = draw(st.integers(1, n))
        h2 = h1 if 2 * h1 <= n and draw(st.integers(0, 3)) else draw(st.integers(0, n - h1))
        a = draw(st.integers(1, 4))
        b = draw(st.sampled_from((a, a, a, a, a, a, 2 * a, a + 1)))
        vertices = {0: 0, h1: -a, n - h2: -a}
        if h2:
            vertices[n] = b - a
        for i in range(1, n + 1):
            if i in vertices:
                v = vertices[i]
            elif draw(st.booleans()):
                coeffs.append(Fraction(0))
                continue
            else:
                # the hull at i, rounded up, plus a margin
                if i < h1:
                    v = -((a * i) // h1)
                elif i <= n - h2:
                    v = -a
                else:
                    v = -a - ((-b * (i - n + h2)) // h2)
                v += draw(st.integers(0, 2))
            coeffs.append(draw(units) * Fraction(p) ** v)
    L = RatPoly(tuple(coeffs))
    return (L * L if square else L), p


@given(_slope_draws())
@settings(max_examples=300)
@example((parse_poly("1,0,1/49,0,1"), 7))  # zeros, no flat, gcd(rise, run) = 2
@example((parse_poly("1,1/49,1/343,1/343,1"), 7))  # two negative segments
@example((parse_poly("1,1/7,1/7,0,1"), 7))  # the same rise, not the same run
@example((parse_poly("1,1/7,1,1/7,1") * parse_poly("1,1/7,1,1/7,1"), 7))  # e = 2
@example((parse_poly("1,0,1/9,0,1/81,0,1/9,0,1") * parse_poly("1,0,1/9,0,1/81,0,1/9,0,1"), 3))
def test_slope_reading_matches_the_oracle_on_drawn_hulls(drawn):
    _assert_slope_reading(*drawn)


# ---------------------------------------------------------------------------
# the verdict rule, stated on the statuses of every report


def _assert_verdict_rule(report, where) -> tuple[str, str, str]:
    """The verdict is a pass exactly when all six checks pass; with e set,
    prime_power_shape passes exactly when the other five checks do and is
    unknown otherwise; local_factor_irreducible is unknown only when
    prime_power_shape fails.  Returns the statuses the rule reads."""
    status = {name: report.checks[name].status for name in ALL_CHECKS}
    shape, local = status["prime_power_shape"], status["local_factor_irreducible"]
    assert list(report.checks) == list(ALL_CHECKS), where
    assert (report.verdict == "pass") == all(s == "pass" for s in status.values()), where
    if report.e is not None:
        others = all(s == "pass" for name, s in status.items() if name != "prime_power_shape")
        assert shape == ("pass" if others else "unknown"), where
    assert local != "unknown" or shape == "fail", where
    return report.verdict, shape, local


def test_verdict_rule_over_the_golden_corpus_and_the_construct_grid(monkeypatch):
    # the grid's reports are those of every candidate the searches check
    seen = set()
    for line in GOLDEN_CHECKS.read_text().splitlines():
        doc = json.loads(line)
        seen.add(_assert_verdict_rule(check_candidate(parse_poly(doc["coeffs"]), doc["p"]), doc["coeffs"]))
    # no golden line lacks a prime-power shape: (1 + T)^2 (1 + 2T) (1 + 3T) does
    seen.add(_assert_verdict_rule(check_candidate(parse_poly("1,2,1") * parse_poly("1,5,6"), 7), "e = None"))
    reports = []
    check = condition._check_candidate
    monkeypatch.setattr(condition, "_check_candidate", lambda *args: reports.append(check(*args)) or reports[-1])
    for cell in CONSTRUCT_GRID:
        construct_witness(*cell)
    assert len(reports) == len(CONSTRUCT_GRID)
    seen.update(_assert_verdict_rule(report, "construct grid") for report in reports)
    # every branch of the rule is reached
    assert {
        ("pass", "pass", "pass"),
        ("fail", "unknown", "pass"),
        ("fail", "unknown", "fail"),
        ("fail", "fail", "unknown"),
    } <= seen, seen


@given(_slope_draws())
@settings(max_examples=200)
@example((parse_poly("1,1/7,1,1/7,1"), 7))  # a witness
@example((parse_poly("1,1/7,2,2/7,2,1/7,1"), 7))  # a witness times Phi_4
@example((parse_poly("1,2/7,1,1/7,1"), 7))  # not a palindrome
def test_verdict_rule_on_drawn_candidates(drawn):
    _assert_verdict_rule(check_candidate(*drawn), drawn)
