"""Polynomial layer: exact ops, reciprocal transforms, Sturm counting,
cyclotomic detection, Newton polygons, and the irreducibility certificate."""

import itertools
import json
import math
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import k3cert.weilpoly as weilpoly

from k3cert.arith import is_prime
from k3cert.weilpoly import (
    NewtonPolygon,
    RatPoly,
    _analyse,
    _coprime_to_derivative,
    _cyclotomic_ints,
    _descent_facts,
    _descent_ints,
    _divexact,
    _integer_multiple,
    _mul_ints,
    _psi_ints,
    _squarefree_power_ints,
    _sturm_chain_ints,
    _transform_ints,
    _window,
    cyclotomic,
    cyclotomic_index_list,
    denominators_are_p_power,
    euler_phi,
    format_poly,
    has_cyclotomic_factor,
    kronecker_certificate,
    newton_polygon,
    parse_poly,
    poly_gcd,
    reciprocal_transform,
    squarefree_decompose,
    strip_cyclotomic,
    sturm_count,
    symmetric_descent,
    unit_circle_check,
)

from oracles import (
    count_real_roots_halfopen,
    cyclotomic_factor_index,
    ddf_degree_pattern,
    descent_squarefree_counterexamples,
    fraction_cyclotomic,
    fraction_descent,
    fraction_newton_polygon,
    fraction_squarefree_power,
    fraction_strip_cyclotomic,
    fraction_unit_circle,
    naive_phi,
    proper_factor_degree_candidates,
    rational_gcd_monic,
    _q_mul,
    _q_trim,
)

WORKED = RatPoly.of(1, Fraction(1, 7), 1, Fraction(1, 7), 1)

small_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=1,
    max_size=7,
)


def _squarefree_power(L):
    """(R, e) of `_squarefree_power_ints` for L, with R = r / r(0)."""
    r, e = _squarefree_power_ints(_integer_multiple(L))
    return RatPoly(tuple(Fraction(c, r[0]) for c in r)), e


def poly(*cs):
    return RatPoly.of(*cs)


# ---------------------------------------------------------------------------
# core ring operations


def test_construction_normalizes():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0).is_zero
    assert RatPoly.zero().degree == -1
    assert RatPoly.one() == poly(1)
    assert RatPoly.monomial(3, 5) == poly(0, 0, 0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        RatPoly.monomial(-1)
    third = Fraction(1, 3)
    f = poly(1, third)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs[1] is third  # a Fraction is kept, not re-wrapped


def test_degree_and_coeff_access():
    f = poly(3, 0, Fraction(1, 2))
    assert f.degree == 2
    assert f.coeff(0) == 3
    assert f.coeff(1) == 0
    assert f.coeff(17) == 0
    assert f.leading == Fraction(1, 2)
    assert f.constant == 3
    with pytest.raises(ValueError, match="no leading coefficient"):
        RatPoly.zero().leading


def test_arithmetic_identities():
    f = poly(1, 2, 3)
    g = poly(-1, 1)
    assert f + g == poly(0, 3, 3)
    assert f - f == RatPoly.zero()
    assert f * RatPoly.zero() == RatPoly.zero()
    assert (f * g).degree == 3
    assert f * 2 == poly(2, 4, 6)


@given(small_coeffs, small_coeffs)
@example([0], [1, 2])
@example([Fraction(-3, 4)], [Fraction(1, 6), 0, -5])
@example([-1, Fraction(2, 9), Fraction(-7, 3)], [0, -4, Fraction(1, 2)])
def test_mul_matches_fraction_products(fc, gc):
    f, g = RatPoly.of(*fc), RatPoly.of(*gc)
    want = tuple(_q_trim(_q_mul(f.coeffs, g.coeffs))) if f.coeffs and g.coeffs else ()
    assert (f * g).coeffs == want
    assert (g * f).coeffs == want
    assert all(type(c) is Fraction for c in (f * g).coeffs)


def test_divmod_exact_cases():
    f = poly(-1, 0, 1)  # T^2 - 1
    g = poly(1, 1)
    q, r = divmod(f, g)
    assert q == poly(-1, 1) and r.is_zero
    with pytest.raises(ZeroDivisionError):
        divmod(f, RatPoly.zero())


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 1], [1, 2]),  # lc(b) does not divide lc(a)
        ([1, 0, 1], [1, 1]),  # a nonzero remainder
    ],
)
def test_divexact_rejects_inexact_division(a, b):
    with pytest.raises(ValueError, match="inexact polynomial division"):
        _divexact(a, b)


def test_truediv_requires_exactness():
    f = poly(-1, 0, 1)
    assert f / poly(1, 1) == poly(-1, 1)
    with pytest.raises(ValueError):
        poly(1, 1, 1) / poly(1, 1)


@given(small_coeffs, small_coeffs)
def test_divmod_is_euclidean(fc, gc):
    f, g = RatPoly.of(*fc), RatPoly.of(*gc)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


def test_poly_gcd_examples():
    f = poly(-1, 0, 1)  # (T-1)(T+1)
    g = poly(1, -2, 1)  # (T-1)^2
    assert poly_gcd(f, g) == poly(-1, 1)
    assert poly_gcd(f, poly(1)) == RatPoly.one()
    assert poly_gcd(RatPoly.zero(), g) == g.monic()


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6),
    small_coeffs,
)
@example([], [], [1])
@example([3, -2], [], [Fraction(1, 2), 0, -5])
def test_poly_gcd_matches_fraction_euclid(fc, gc, hc):
    # the shared factor h makes nontrivial gcds common
    h = RatPoly.of(*hc)
    f, g = RatPoly.of(*fc) * h, RatPoly.of(*gc) * h
    assert poly_gcd(f, g).coeffs == rational_gcd_monic(f.coeffs, g.coeffs)


def test_derivative_and_evaluate():
    f = poly(5, 0, -4, 1)
    assert f.derivative() == poly(0, -8, 3)
    assert f.evaluate(2) == 5 - 16 + 8
    assert f.evaluate(Fraction(1, 2)) == Fraction(5) - 1 + Fraction(1, 8)


def test_evaluate_worked_example():
    # direct substitution: 1 + 1/7 + 1 + 1/7 + 1 = 23/7
    assert WORKED.evaluate(1) == Fraction(23, 7)
    acc = Fraction(0)
    for c in reversed(WORKED.coeffs):
        acc = acc + c
    assert acc == Fraction(23, 7)


def test_parse_format_roundtrip():
    text = "1,1/7,1,1/7,1"
    assert parse_poly(text) == WORKED
    assert format_poly(WORKED) == text
    assert format_poly(poly(1, Fraction(-4, 5), 1)) == "1,-4/5,1"
    assert format_poly(RatPoly.zero()) == "0"
    assert repr(WORKED) == "RatPoly('1,1/7,1,1/7,1')"
    with pytest.raises(ValueError):
        parse_poly("1,,2")
    with pytest.raises(ValueError):
        parse_poly("")


# ---------------------------------------------------------------------------
# reciprocal transform and symmetric descent


def test_reciprocal_transform_worked_example():
    F = poly(-1, Fraction(1, 7), 1)  # T^2 + (1/7) T - 1
    assert reciprocal_transform(F) == WORKED


def test_reciprocal_transform_basics():
    # F = T - 2 maps to T^2 - 2T + 1... no: T(T + 1/T - 2) = T^2 - 2T + 1
    assert reciprocal_transform(poly(-2, 1)) == poly(1, -2, 1)
    assert reciprocal_transform(poly(1)) == poly(1)
    with pytest.raises(ValueError, match="zero polynomial"):
        reciprocal_transform(RatPoly.zero())


@given(small_coeffs, st.fractions(min_value=-4, max_value=4, max_denominator=4))
def test_reciprocal_transform_functional_equation(fc, t):
    F = RatPoly.of(*fc)
    if F.is_zero or t == 0:
        return
    L = reciprocal_transform(F)
    m = F.degree
    assert L.evaluate(t) == t**m * F.evaluate(t + 1 / t)
    # palindromic coefficients come for free
    assert L.coeffs == tuple(reversed(L.coeffs))


@given(small_coeffs)
def test_symmetric_descent_inverts_transform(fc):
    F = RatPoly.of(*fc)
    if F.is_zero:
        return
    assert symmetric_descent(reciprocal_transform(F)) == F


def test_symmetric_descent_rejects_asymmetric():
    assert symmetric_descent(poly(1, 2, 3)) is None
    assert symmetric_descent(poly(1, 1, 0, 1)) is None  # odd-degree palindrome
    assert symmetric_descent(WORKED) == poly(-1, Fraction(1, 7), 1)


# ---------------------------------------------------------------------------
# Sturm root counting


def test_sturm_known_root_counts():
    assert sturm_count(poly(1, -3, 0, 1), -2, 2) == 3
    assert sturm_count(poly(-2, 0, 1), 0, 2) == 1
    assert sturm_count(poly(6, -5, 1), -10, 10) == 2
    assert sturm_count(poly(1, 0, 1), -5, 5) == 0


def test_sturm_halfopen_endpoints():
    f = poly(2, -3, 1)  # roots 1 and 2
    assert sturm_count(f, 1, 2) == 1
    assert sturm_count(f, 0, 2) == 2
    assert sturm_count(f, 0, Fraction(3, 2)) == 1
    assert sturm_count(f, 2, 5) == 0


def test_sturm_rejects_bad_input():
    with pytest.raises(ValueError):
        sturm_count(poly(1, -2, 1), -5, 5)  # double root
    with pytest.raises(ValueError):
        sturm_count(poly(1, 1), 3, 3)  # empty interval
    with pytest.raises(ValueError):
        sturm_count(poly(1, 0, 1) * poly(1, 0, 1) * poly(-3, 1), -5, 5)  # repeated non-real factor
    with pytest.raises(ValueError, match="zero polynomial"):
        sturm_count(RatPoly.zero(), -5, 5)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(
    st.lists(
        # zeros often: sparse inputs make the Sturm chain skip degrees,
        # where a pseudo-division multiplies by an odd power of lc
        st.one_of(st.just(0), small_rationals),
        min_size=2,
        max_size=9,
    ),
    small_rationals,
    small_rationals,
    # put roots at the endpoints, which the half-open count must get right
    st.booleans(),
    st.booleans(),
)
@example([-1, 3, 0, -1], -6, 6, False, False)  # negative leading coefficient, no T^2 term
@example([-1, 0, 1], -1, 1, False, False)  # roots at both endpoints
@example([1, 1], Fraction(-1, 2), Fraction(3, 4), True, True)
def test_sturm_agrees_with_descartes_bisection(cs, a, b, root_at_lo, root_at_hi):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    f = RatPoly.of(*cs)
    if root_at_lo:
        f = f * poly(-lo, 1)
    if root_at_hi:
        f = f * poly(-hi, 1)
    if f.degree < 1:
        return
    if poly_gcd(f, f.derivative()).degree != 0:
        return  # squarefree inputs only
    assert sturm_count(f, lo, hi) == count_real_roots_halfopen(f.coeffs, lo, hi)


def test_sturm_versus_oracle_on_products_of_linears():
    # polynomials with known rational roots, exercised at awkward endpoints
    roots = [-2, Fraction(-1, 2), 0, Fraction(3, 2), 2]
    f = RatPoly.one()
    for r in roots:
        f = f * poly(-r, 1)
    for lo, hi, want in [
        (-2, 2, 4),  # -2 excluded by half-openness
        (Fraction(-5, 2), 2, 5),
        (0, 1, 0),
        (Fraction(-1, 2), Fraction(3, 2), 2),
    ]:
        assert sturm_count(f, lo, hi) == want
        assert count_real_roots_halfopen(f.coeffs, lo, hi) == want


def test_root_count_oracle_counts_the_roots_it_was_built_from():
    # the oracle alone, on c * prod (x - r) over distinct rational r, with
    # roots on either end of some intervals and a non-integral c
    pool = [-2, Fraction(-1, 3), 0, Fraction(2, 7), 1, 2]
    ends = [Fraction(-5, 2), -2, Fraction(-1, 3), Fraction(1, 2), 2]
    for k in range(1, 5):
        for roots in itertools.combinations(pool, k):
            cs = [Fraction(-3, 4)]
            for r in roots:  # times (x - r)
                cs = [lower - r * c for lower, c in zip([0, *cs], [*cs, 0])]
            for lo, hi in itertools.combinations(ends, 2):
                want = sum(1 for r in roots if lo < r <= hi)
                assert count_real_roots_halfopen(cs, lo, hi) == want, (roots, lo, hi)


def _oracle_window(G: RatPoly) -> int:
    """The distinct roots of G in [-2, 2]: Descartes bisection on the
    radical G / gcd(G, G') over Q, with -2 added apart."""
    radical = G / RatPoly(tuple(rational_gcd_monic(G.coeffs, G.derivative().coeffs)))
    return count_real_roots_halfopen(radical.coeffs, -2, 2) + (radical.evaluate(-2) == 0)


def test_window_matches_the_oracle_on_the_radical():
    # products of simple roots at +-2 and small integer factors, repeated
    # up to three times, none vanishing at +-2: so the last member d of
    # the chain, a multiple of gcd(G, G'), is nonzero at +-2
    rng = random.Random(14)
    seen = {"root at 2": 0, "root at -2": 0, "repeated": 0}
    for _ in range(300):
        G = RatPoly.one()
        for end in (2, -2):
            if rng.random() < 0.4:
                G = G * poly(-end, 1)
                seen[f"root at {end}"] += 1
        for _ in range(rng.randint(1, 3)):
            factor = RatPoly.of(*(rng.randint(-6, 6) for _ in range(rng.randint(1, 2))), rng.randint(1, 3))
            if factor.evaluate(2) and factor.evaluate(-2):
                times = rng.choice((1, 1, 2, 3))
                seen["repeated"] += times > 1
                for _ in range(times):
                    G = G * factor
        if G.degree < 1:
            continue
        chain = _sturm_chain_ints(_integer_multiple(G))
        d = RatPoly.of(*chain[-1])
        assert d.evaluate(2) and d.evaluate(-2), format_poly(G)
        assert _window(chain)[0] == _oracle_window(G), format_poly(G)
    assert min(seen.values()) > 50, seen


def test_window_counts_a_root_at_minus_two():
    # (T + 2)(T - 1)(T - 3): -2 and 1 lie in [-2, 2], 3 does not
    G = poly(2, 1) * poly(-1, 1) * poly(-3, 1)
    assert _window(_sturm_chain_ints(_integer_multiple(G))) == (2, 0)
    # a repeated pair +-sqrt(3) away from the ends does not hide -2
    G = poly(2, 1) * poly(-3, 0, 1) * poly(-3, 0, 1)
    assert _window(_sturm_chain_ints(_integer_multiple(G)))[0] == 3 == _oracle_window(G)


# ---------------------------------------------------------------------------
# unit circle membership


def test_unit_circle_worked_example():
    assert unit_circle_check(WORKED)


def test_unit_circle_rejects_real_quadratic():
    # T^2 - 3T + 1 has two real roots off the circle
    assert not unit_circle_check(poly(1, -3, 1))


def test_unit_circle_cyclotomic_inputs():
    assert unit_circle_check(poly(1, -1, 1))  # sixth roots of unity
    assert unit_circle_check(poly(1, 1, 2, 1, 1))  # product of two cyclotomics
    assert unit_circle_check(poly(1, 0, 1))
    # (T + 1)^2 has G = T + 2, whose root -2 lies outside the Sturm
    # interval (-2, 2] and is counted by the separate check at -2;
    # (T - 1)^2 has G = T - 2, whose root 2 the Sturm count already holds
    assert unit_circle_check(poly(1, 2, 1))
    assert unit_circle_check(poly(1, 2, 1) * poly(1, -1, 1))
    assert unit_circle_check(poly(1, -2, 1))


def test_unit_circle_rejects_non_palindromes():
    assert not unit_circle_check(poly(1, 2, 3))
    # anti-palindromic (coefficients reverse to their negatives): all roots on
    # the circle, but the symmetric-descent route conservatively says no
    assert not unit_circle_check(poly(-1, -1, 0, 1, 1))


def test_unit_circle_rejects_constants():
    # a nonzero constant has no root; the one-sided test still says no
    assert not unit_circle_check(poly(3))


def test_unit_circle_ignores_scaling():
    # scaling does not move roots: 2T^2 + 2 has roots at +-i
    assert unit_circle_check(poly(2, 0, 2))


def test_unit_circle_rejects_repeated_descent_roots():
    # every root is on the circle, but G has a repeated root, so the
    # answer is the conservative False
    assert not unit_circle_check(poly(1, 0, 1) * poly(1, 0, 1))  # G = T^2
    assert not unit_circle_check(poly(1, -1, 1) * poly(1, -1, 1))  # G = (T - 1)^2


def test_unit_circle_mixed_product():
    # circle roots times an off-circle factor must fail
    assert not unit_circle_check(WORKED * poly(1, -3, 1))


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small_table():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(4) == poly(1, 0, 1)
    assert cyclotomic(6) == poly(1, -1, 1)
    assert cyclotomic(12) == poly(1, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="must be positive"):
        cyclotomic(0)
    with pytest.raises(ValueError, match="positive integer"):
        euler_phi(0)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 15, 24, 36, 40])
def test_cyclotomic_degree_is_totient(k):
    assert cyclotomic(k).degree == naive_phi(k)


@pytest.mark.parametrize("k", [1, 2, 6, 12, 30])
def test_cyclotomic_product_identity(k):
    prod = RatPoly.one()
    for d in range(1, k + 1):
        if k % d == 0:
            prod = prod * cyclotomic(d)
    want = RatPoly.monomial(k, 1) - RatPoly.one()
    assert prod == want


def test_cyclotomic_index_list_small():
    assert cyclotomic_index_list(1) == [1, 2]
    assert cyclotomic_index_list(2) == [1, 2, 3, 4, 6]
    assert cyclotomic_index_list(0) == []
    # the totient sieve against the listing by euler_phi
    for maxdeg in range(1, 41):
        want = [k for k in range(1, 2 * maxdeg * maxdeg + 1) if euler_phi(k) <= maxdeg]
        assert cyclotomic_index_list(maxdeg) == want, maxdeg


def test_cyclotomic_index_list_versus_totient():
    for maxdeg in (4, 10, 20):
        want = [k for k in range(1, 2 * maxdeg * maxdeg + 1) if naive_phi(k) <= maxdeg]
        assert cyclotomic_index_list(maxdeg) == want


def test_cyclotomic_index_list_boundary_cases():
    # phi(66) = 20 but phi(23) = 22, so one is in and the other is out
    indices = cyclotomic_index_list(20)
    assert 66 in indices
    assert 23 not in indices


def test_has_cyclotomic_factor():
    assert has_cyclotomic_factor(poly(1, -1, 1)) == 6
    assert has_cyclotomic_factor(WORKED) is None
    assert has_cyclotomic_factor(WORKED * cyclotomic(4)) == 4
    # smallest index wins when several divide
    assert has_cyclotomic_factor(cyclotomic(6) * cyclotomic(1)) == 1
    with pytest.raises(ValueError, match="zero polynomial"):
        has_cyclotomic_factor(RatPoly.zero())


def test_cyclotomic_index_list_is_a_fresh_list():
    indices = cyclotomic_index_list(2)
    indices.clear()
    indices.append(5)
    assert cyclotomic_index_list(2) == [1, 2, 3, 4, 6]
    assert has_cyclotomic_factor(poly(1, -1, 1)) == 6


def test_has_cyclotomic_factor_matches_oracle_on_golden_candidates():
    corpus = Path(__file__).parent / "golden" / "check_reports.jsonl"
    found = 0
    for line in corpus.read_text().splitlines():
        L = parse_poly(json.loads(line)["coeffs"])
        want = cyclotomic_factor_index(L.coeffs)
        assert has_cyclotomic_factor(L) == want, format_poly(L)
        found += want is not None
    assert found > 0


def test_has_cyclotomic_factor_matches_oracle_on_dressed_witnesses():
    from k3cert.condition import construct_witness

    rng = random.Random(4)
    for k in cyclotomic_index_list(20):
        p, m = rng.choice((5, 7)), rng.randint(1, 3)
        L, _report = construct_witness(p, m, rng.randint(1, m))
        dressed = L * cyclotomic(k)
        assert has_cyclotomic_factor(L) is None
        assert has_cyclotomic_factor(dressed) == cyclotomic_factor_index(dressed.coeffs) == k


def test_cyclotomic_coefficients_match_fraction_division():
    for k in range(1, 201):
        assert _cyclotomic_ints(k) == tuple(int(c) for c in fraction_cyclotomic(k)), k


N = weilpoly._SCREEN_POINT


def _at_n(cs) -> int:
    """cs(N) for a list of integers or integral Fractions."""
    value = sum(c * N**i for i, c in enumerate(cs))
    assert value.denominator == 1
    return int(value)


def _mobius(n: int) -> int:
    out, q = 1, 2
    while n > 1:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return out


def test_cyclotomic_screen_rows_are_phi_k_at_n():
    """Each row (k, Phi_k(N)) holds the oracle's Phi_k at N, which is also
    prod_(d | k) (N^d - 1)^mu(k / d), for every k <= 200; the rows of each
    scan bound are the k with phi(k) <= the bound, in order."""
    checked = set()
    for maxdeg in (*range(21), 198):
        rows = weilpoly._cyclotomic_screen(maxdeg)
        assert [k for k, _ in rows] == cyclotomic_index_list(maxdeg), maxdeg
        for k, value in rows:
            if k <= 200:
                moebius = math.prod(Fraction(N**d - 1) ** _mobius(k // d) for d in range(1, k + 1) if k % d == 0)
                assert value == _at_n(fraction_cyclotomic(k)) == moebius > 0, k
                checked.add(k)
    assert checked == set(range(1, 201))


def test_psi_screen_rows_are_psi_k_at_n():
    """Each row (k, psi_k(N)) holds the oracle's descent of Phi_k at N, for
    the k >= 3 with phi(k) <= the scan bound, for every bound up to 20."""
    for maxdeg in range(21):
        rows = weilpoly._psi_screen(maxdeg)
        assert [k for k, _ in rows] == cyclotomic_index_list(maxdeg)[2:], maxdeg
        for k, value in rows:
            assert value == _at_n(fraction_descent(fraction_cyclotomic(k))) > 0, k


def test_psi_is_the_descent_of_phi_k():
    for k in cyclotomic_index_list(20)[2:]:
        assert _psi_ints(k) == tuple(int(c) for c in fraction_descent(fraction_cyclotomic(k))), k


def _forced_collision(cs: list[int]) -> list[int]:
    """cs + cs(N): its value at N is 2 cs(N), so the screen passes every
    k with Phi_k | cs (or psi_k | cs) on to `_prem`; the remainder of the
    division is the nonzero constant cs(N)."""
    return [cs[0] + _at_n(cs), *cs[1:]]


def _prem_divisors(monkeypatch) -> list[tuple[int, ...]]:
    """The divisors `_prem` is called with from now on."""
    divisors = []
    prem = weilpoly._prem
    monkeypatch.setattr(weilpoly, "_prem", lambda a, b: divisors.append(tuple(b)) or prem(a, b))
    return divisors


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 12, 25, 33, 66])
def test_zero_residue_without_a_cyclotomic_factor(k, monkeypatch):
    # f = Phi_k + Phi_k(N) has f(N) = 2 Phi_k(N), so the integer screen
    # cannot rule Phi_k out; only the division does.  f mod Phi_k is the
    # constant Phi_k(N), and f has no root on the unit circle at all.
    f = _forced_collision(list(_cyclotomic_ints(k)))
    assert _at_n(f) % dict(weilpoly._cyclotomic_screen(naive_phi(k)))[k] == 0
    L = RatPoly.of(*f)
    divisors = _prem_divisors(monkeypatch)
    assert has_cyclotomic_factor(L) is None
    assert _cyclotomic_ints(k) in divisors
    assert cyclotomic_factor_index(L.coeffs) is None


@pytest.mark.parametrize("k", [3, 5, 7, 12, 25, 33])
def test_zero_residue_without_a_psi_factor(k, monkeypatch):
    # s = psi_k + psi_k(N) has s(N) = 2 psi_k(N), so the integer screen
    # cannot rule psi_k out; only the division does.  s(+-2) =
    # psi_k(+-2) + psi_k(N) != 0, so the analysis reads the transform of s
    # from its chain.
    s = _forced_collision(list(_psi_ints(k)))
    assert _at_n(s) % dict(weilpoly._psi_screen(naive_phi(k)))[k] == 0
    L = reciprocal_transform(RatPoly.of(*s))
    f = _integer_multiple(L)
    assert _descent_path(L) == "squarefree"
    divisors = _prem_divisors(monkeypatch)
    assert _analyse_unbounded(f).cyc is None
    assert _psi_ints(k) in divisors
    assert cyclotomic_factor_index(L.coeffs) is None


def _seeded_products(rng: random.Random, factors: list[tuple[int, ...]], count: int) -> list[list[int]]:
    """count products of a small scalar, one or two of the factors (each
    once or twice) and a small integer polynomial, each followed by its
    forced collision at N."""
    out = []
    for _ in range(count):
        f = [rng.choice((-1, 1)) * rng.randint(1, 5)]
        for _ in range(rng.randint(1, 2)):
            factor = list(rng.choice(factors))
            for _ in range(rng.choice((1, 1, 2))):
                f = _mul_ints(f, factor)
        f = _mul_ints(f, [rng.randint(-4, 4) or 1 for _ in range(rng.randint(0, 2))] + [rng.randint(1, 4)])
        out += [f, _forced_collision(f)]
    return out


def test_integer_point_screens_match_the_oracle_below_the_flat_bound():
    """`_cyclotomic_index_ints(f, flat)` is the oracle's smallest k with
    phi(k) <= flat and Phi_k | f, and so is `_psi_index_ints(s, flat)` for
    a palindrome f with descent s, s(2) s(-2) != 0.  Inputs: the golden
    check corpus at its flat bound, the `construct` grid's 220 witnesses
    with and without a factor Phi_4, and seeded products of Phi_k or psi_k
    with repeats, with and without a forced collision, at two bounds."""
    from k3cert.condition import construct_witness

    cases = []
    for line in (Path(__file__).parent / "golden" / "check_reports.jsonl").read_text().splitlines():
        record = json.loads(line)
        L = parse_poly(record["coeffs"])
        cases.append((_integer_multiple(L), _oracle_flat_length(L, record["p"]) if L.constant else L.degree))
    for p in (5, 7, 11, 13):
        for m in range(1, 11):
            for h in range(1, m + 1):
                f = _integer_multiple(construct_witness(p, m, h)[0])
                flat = 2 * (m - h)
                cases += [(f, flat), (_mul_ints(f, [1, 0, 1]), flat + 2)]
    rng = random.Random(22)
    phis = _seeded_products(rng, [_cyclotomic_ints(k) for k in cyclotomic_index_list(6)], 40)
    psis = _seeded_products(rng, [_psi_ints(k) for k in cyclotomic_index_list(8)[2:]], 20)
    for f in phis + [_transform_ints(s) for s in psis]:
        cases += [(f, len(f) - 1), (f, rng.randint(0, len(f) - 1))]
    found = {"phi": 0, "psi": 0}
    for f, flat in cases:
        want = cyclotomic_factor_index(f, flat)
        assert weilpoly._cyclotomic_index_ints(f, flat) == want, (f, flat)
        found["phi"] += want is not None
        if len(f) % 2 and f == f[::-1]:
            s = _descent_ints(list(f))
            if weilpoly._at(s, 2) and weilpoly._at(s, -2):
                assert weilpoly._psi_index_ints(s, flat) == want, (f, flat)
                found["psi"] += want is not None
    assert found["phi"] > 300 and found["psi"] > 250, found


def test_strip_cyclotomic_worked_example():
    dressed = poly(1, -1) * poly(1, -1) * cyclotomic(3) * WORKED
    bare, removed = strip_cyclotomic(dressed)
    assert bare == WORKED
    assert removed == [1, 1, 3]


def test_strip_cyclotomic_is_idempotent():
    bare, removed = strip_cyclotomic(WORKED)
    assert bare == WORKED and removed == []
    again, more = strip_cyclotomic(bare)
    assert again == bare and more == []


def test_strip_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        strip_cyclotomic(RatPoly.zero())


def test_strip_cyclotomic_matches_the_oracle_peel():
    """Seeded products of a nonzero scalar, Phi_k with phi(k) <= 6 (with
    repeats) and factors with rational coefficients: the removed indices
    are those of a repeated `cyclotomic_factor_index` peel, the quotient is
    the oracle's, and the quotient times the removed Phi_k gives P back."""
    rng = random.Random(15)
    ks = [k for k in range(1, 19) if naive_phi(k) <= 6]
    removed_any = repeated = 0
    for _ in range(120):
        P = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            k = rng.choice(ks)
            for _ in range(rng.choice((1, 1, 2))):
                P = _q_mul(P, fraction_cyclotomic(k))
        for _ in range(rng.randint(0, 2)):
            factor = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(rng.randint(1, 3))]
            factor[0] = factor[0] or Fraction(1)
            P = _q_mul(P, factor + [Fraction(rng.randint(1, 4), rng.choice((1, 5)))])
        quotient, removed = strip_cyclotomic(RatPoly(tuple(P)))
        assert (quotient.coeffs, removed) == fraction_strip_cyclotomic(P), P
        product = list(quotient.coeffs)
        for k in removed:
            product = _q_mul(product, fraction_cyclotomic(k))
        assert tuple(_q_trim(product)) == tuple(_q_trim(P))
        removed_any += bool(removed)
        repeated += len(set(removed)) < len(removed)
    assert removed_any > 60 and repeated > 10, (removed_any, repeated)


# ---------------------------------------------------------------------------
# Newton polygons


def test_newton_polygon_worked_example():
    ng = newton_polygon(WORKED, 7)
    assert ng.segments == ((Fraction(-1), 1), (Fraction(0), 2), (Fraction(1), 1))
    assert ng.total_length == 4
    assert ng.negative_segments() == ((Fraction(-1), 1),)


def test_newton_polygon_simple_shapes():
    assert newton_polygon(poly(-7, 1), 7).segments == ((Fraction(-1), 1),)
    # (1, 0) sits above the chord from (0, 0) to (2, -2), so one segment
    assert newton_polygon(poly(1, 1, Fraction(1, 49)), 7).segments == (
        (Fraction(-1), 2),
    )
    # (1, -2) sits below the chord from (0, 0) to (2, -3): two segments
    assert newton_polygon(poly(1, Fraction(1, 49), Fraction(1, 343)), 7).segments == (
        (Fraction(-2), 1),
        (Fraction(-1), 1),
    )
    assert newton_polygon(poly(3), 5).segments == ()


def test_newton_polygon_skips_zero_coefficients():
    # 1 + T^2/25: points at 0 and 2 only
    f = poly(1, 0, Fraction(1, 25))
    assert newton_polygon(f, 5).segments == ((Fraction(-1), 2),)


def test_newton_polygon_validation():
    with pytest.raises(ValueError):
        newton_polygon(RatPoly.zero(), 7)
    with pytest.raises(ValueError):
        newton_polygon(WORKED, 6)
    with pytest.raises(ValueError):
        NewtonPolygon(((Fraction(1), 2), (Fraction(0), 1)))  # slopes must increase
    with pytest.raises(ValueError, match="lengths must be positive"):
        NewtonPolygon(((Fraction(-1), 1), (Fraction(0), 0)))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_newton_polygon_telescopes(data):
    # build a polynomial with prescribed 7-adic valuations, nonzero ends
    p = 7
    coeffs = [Fraction(s * p**v) if s else Fraction(0) for s, v in data]
    coeffs[0] = Fraction(p ** data[0][1])
    coeffs[-1] = Fraction(p ** data[-1][1])
    f = RatPoly.of(*coeffs)
    ng = newton_polygon(f, p)
    assert ng.total_length == f.degree
    drop = sum(s * length for s, length in ng.segments)
    assert drop == data[-1][1] - data[0][1]


def test_newton_polygon_reversal_negates_slopes():
    for f in (WORKED, poly(1, Fraction(1, 5), Fraction(1, 25), 2)):
        rev = RatPoly.of(*reversed(f.coeffs))
        for p in (5, 7):
            back = tuple(
                (-s, length) for s, length in reversed(newton_polygon(f, p).segments)
            )
            assert newton_polygon(rev, p).segments == back


# ---------------------------------------------------------------------------
# squarefree decomposition as a perfect power


def test_squarefree_decompose_identity():
    base, e = squarefree_decompose(WORKED)
    assert base == WORKED and e == 1
    assert squarefree_decompose(RatPoly.of(1)) == (RatPoly.of(1), 1)


def test_squarefree_decompose_powers():
    sq, e = squarefree_decompose(WORKED * WORKED)
    assert sq == WORKED and e == 2
    cube, e = squarefree_decompose(WORKED * WORKED * WORKED)
    assert cube == WORKED and e == 3


def test_squarefree_decompose_mixed_multiplicity():
    # (1-T)^2 (1+T) is not a perfect power of its radical
    f = poly(1, -1) * poly(1, -1) * poly(1, 1)
    assert squarefree_decompose(f) is None


def test_squarefree_decompose_requires_unit_constant():
    with pytest.raises(ValueError):
        squarefree_decompose(poly(2, 1))


def test_squarefree_power_and_polygon_match_fraction_oracles_on_golden_candidates():
    corpus = Path(__file__).parent / "golden" / "check_reports.jsonl"
    powers = proved = 0
    for line in corpus.read_text().splitlines():
        entry = json.loads(line)
        L, p = parse_poly(entry["coeffs"]), entry["p"]
        R, e = _squarefree_power(L)
        assert (R.coeffs, e) == fraction_squarefree_power(L.coeffs), entry["coeffs"]
        assert newton_polygon(L, p).segments == fraction_newton_polygon(L.coeffs, p)
        # the screen proves exactly the squarefree lines
        assert _coprime_to_derivative(_integer_multiple(L)) == (e == 1), entry["coeffs"]
        powers += e is not None and e > 1
        proved += e == 1
    assert powers > 0 and proved == 360


ELL = (1 << 31) - 1


@pytest.mark.parametrize(
    "L, proved, e",
    [
        # (T - 3)^2 (T + 1) / 9: gcd(f(xi), f'(xi)) = xi - 3, below xi but
        # above xi - 1 - M, so only a bound with the root radius M refuses it
        (RatPoly.of(1, Fraction(1, 3), Fraction(-5, 9), Fraction(1, 9)), False, None),
        # (T + 3)^2 / 9
        (RatPoly.of(1, Fraction(2, 3), Fraction(1, 9)), False, 2),
        # (1 + ell T)^2 (1 - T/2): a double root -1/ell, coefficients near ell^2
        (RatPoly.of(1, 2 * ELL, ELL**2) * RatPoly.of(1, Fraction(-1, 2)), False, None),
        (RatPoly.of(1, 5), True, 1),
        (RatPoly.of(1, 1, ELL), True, 1),
        # (T - 1)(T - 1 - ell) / (1 + ell): squarefree, with a double root mod ell
        (RatPoly.of(1, Fraction(-2 - ELL, 1 + ELL), Fraction(1, 1 + ELL)), True, 1),
    ],
    ids=["double_root_3", "double_root_minus_3", "square_with_ell", "degree_1", "lc_ell", "double_root_mod_ell"],
)
def test_squarefree_screen_on_fixed_inputs(L, proved, e):
    assert _coprime_to_derivative(_integer_multiple(L)) == proved
    R, got_e = _squarefree_power(L)
    assert (R.coeffs, got_e) == fraction_squarefree_power(L.coeffs)
    assert got_e == e


def _is_squarefree(f: list[int]) -> bool:
    """By `fraction_squarefree_power`: f = T^k g with g(0) != 0 is
    squarefree iff k <= 1 and g is."""
    k = next(i for i, c in enumerate(f) if c)
    g = f[k:]
    return k <= 1 and (len(g) == 1 or fraction_squarefree_power([Fraction(c, g[0]) for c in g])[1] == 1)


def test_squarefree_screen_proves_exactly_the_squarefree_products():
    """`_coprime_to_derivative(f)` holds iff f is squarefree, on seeded
    products with factors repeated or not, some with lc(f) = 0 mod ell,
    some with coefficients >= ell or >= 2^64, some with a double root
    mod ell only, and some with a double root c > 0, whose factor
    xi - c of gcd(f(xi), f'(xi)) lies just below xi."""
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        f = [Fraction(1)]
        big = rng.random() < 0.2
        for _ in range(rng.randint(1, 3)):
            bound = 2**66 if big else 5
            factor = [Fraction(rng.randint(-bound, bound)) for _ in range(rng.randint(1, 3))]
            factor.append(Fraction(rng.choice((-2, -1, 1, 3))))
            for _ in range(rng.choice((1, 1, 2))):
                f = _q_mul(f, factor)
        if rng.random() < 0.2:
            a = rng.randint(-3, 3)
            f = _q_mul(f, [Fraction(a * (a + ELL)), Fraction(-2 * a - ELL), Fraction(1)])  # (T - a)(T - a - ell)
        if rng.random() < 0.2:
            c = rng.choice((rng.randint(1, 9), rng.randint(2**64, 2**70)))
            f = _q_mul(f, [Fraction(c * c), Fraction(-2 * c), Fraction(1)])  # (T - c)^2
        f = [int(c) for c in f]
        if rng.random() < 0.2:
            f[-1] *= ELL
        if rng.random() < 0.3:
            f = [c + ELL * rng.randint(-2, 2) if i < len(f) - 1 else c for i, c in enumerate(f)]
        want = _is_squarefree(f)
        assert _coprime_to_derivative(f) == want, f
        verdicts[want] += 1
    assert verdicts == {True: 251, False: 149}, verdicts


@st.composite
def unit_constant_polys(draw, p, min_degree, max_degree):
    """1 + ... with denominators 1, p^k and off-p primes, a leading
    coefficient of either sign and often a zero interior coefficient."""
    dens = st.sampled_from([1, p, p**2, p**3, 11 * p, *(q for q in (2, 3, 5, 11) if q != p)])
    coeff = st.builds(Fraction, st.integers(-9, 9), dens)
    degree = draw(st.integers(min_degree, max_degree))
    interior = draw(st.lists(st.one_of(st.just(0), coeff), min_size=degree - 1, max_size=degree - 1))
    return RatPoly.of(1, *interior, draw(coeff.filter(bool)))


@given(st.data())
def test_squarefree_power_and_polygon_match_fraction_oracles(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    R = data.draw(unit_constant_polys(p, 1, 5))
    shape = data.draw(st.sampled_from(("R^e", "R^2 S", "R^3 S")))
    if shape == "R^e":
        L = R
        for _ in range(data.draw(st.integers(1, 4)) - 1):
            L = L * R
    elif shape == "R^2 S":
        L = R * R * data.draw(unit_constant_polys(p, 1, 3))
    else:
        # deg S = deg R, so deg L is twice the degree of its squarefree
        # part and only the power test can reject L
        L = R * R * R * data.draw(unit_constant_polys(p, R.degree, R.degree))
    got_R, got_e = _squarefree_power(L)
    assert (got_R.coeffs, got_e) == fraction_squarefree_power(L.coeffs)
    assert newton_polygon(L, p).segments == fraction_newton_polygon(L.coeffs, p)


def test_palindrome_is_squarefree_iff_its_descent_is_and_misses_plus_minus_two():
    assert descent_squarefree_counterexamples(4, 2) == []


def _seeded_candidates(seed: int, count: int) -> list[RatPoly]:
    """Products of up to four factors, drawn with repeats: (T +- 1)^2,
    alone and times Phi_5 or Phi_12, cyclotomic, off-circle, the worked
    example, random transforms, and the non-palindromes 1 - T and 1 + 2T."""
    rng = random.Random(seed)
    pool = [
        poly(1, 2, 1),
        poly(1, -2, 1),
        poly(1, 0, 1),
        poly(1, 1, 1),
        poly(1, -1, 1),
        poly(1, -3, 1),  # G = x - 3
        poly(1, Fraction(5, 2), 1),  # roots -2 and -1/2
        WORKED,
        poly(1, -1),
        poly(1, 2),
        poly(1, 2, 1) * cyclotomic(5),  # G = (x + 2)^2 psi_5
        poly(1, -2, 1) * cyclotomic(12),
    ]
    out = []
    for _ in range(count):
        L = RatPoly.one()
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                # F is monic, so its transform has constant term 1
                F = RatPoly.of(*(Fraction(rng.randint(-4, 4), rng.choice((1, 7, 49))) for _ in range(rng.randint(1, 3))), 1)
                factor = reciprocal_transform(F)
            else:
                factor = rng.choice(pool)
            L = L * factor
            if rng.random() < 0.2:
                L = L * factor
        out.append(L)
    return out


def _analyse_unbounded(f: list[int]) -> weilpoly._Analysis:
    """`_analyse` of f at the least prime dividing no nonzero coefficient
    of f.  The polygon is then one slope-0 segment over the whole degree,
    so the cyclotomic scan is not bounded."""
    p = next(q for q in itertools.count(2) if is_prime(q) and all(c % q for c in f if c))
    analysis = _analyse(f, p)
    assert analysis.polygon.segments == ((0, len(f) - 1),)
    return analysis


def _descent_path(L: RatPoly) -> str:
    """Which path of `_analyse` L should take, decided over Q: a
    palindrome of even degree whose descent G has G(2) G(-2) != 0 is read
    from the chain of G, "squarefree" or "repeated" as G is; any other L
    takes the "fallback"."""
    cs = list(L.coeffs)
    if len(cs) % 2 == 0 or cs != cs[::-1]:
        return "fallback"
    G = RatPoly(tuple(fraction_descent(cs)))
    if not (G.evaluate(2) and G.evaluate(-2)):
        return "fallback"
    return "squarefree" if len(rational_gcd_monic(G.coeffs, G.derivative().coeffs)) == 1 else "repeated"


def test_descent_analysis_matches_the_slow_path_and_the_oracles(monkeypatch):
    """The descent analysis gives the (r, e) of `_squarefree_power_ints`
    and the circle verdict and cyclotomic index of the oracles; where R has no
    root +-1, the circle verdict is also `unit_circle_check(R)`.  Only the
    fallback runs `_squarefree_power_ints`, and each path runs often."""
    slow: list = []
    squarefree_power_ints = weilpoly._squarefree_power_ints
    monkeypatch.setattr(weilpoly, "_squarefree_power_ints", lambda f: slow.append(f) or squarefree_power_ints(f))
    corpus = Path(__file__).parent / "golden" / "check_reports.jsonl"
    candidates = [parse_poly(json.loads(line)["coeffs"]) for line in corpus.read_text().splitlines()]
    candidates += _seeded_candidates(11, 300)
    candidates += [L * L for L in _seeded_candidates(12, 100) if L.degree <= 8]
    paths = {"squarefree": 0, "repeated": 0, "fallback": 0}
    for L in candidates:
        f = _integer_multiple(L)
        before = len(slow)
        analysis = _analyse_unbounded(f)
        path = _descent_path(L)
        paths[path] += 1
        assert (len(slow) > before) == (path == "fallback"), format_poly(L)
        assert (analysis.r, analysis.e) == squarefree_power_ints(f), format_poly(L)
        R = RatPoly(tuple(Fraction(c, analysis.r[0]) for c in analysis.r))
        assert analysis.on_circle == fraction_unit_circle(L.coeffs), format_poly(L)
        assert analysis.cyc == cyclotomic_factor_index(L.coeffs), format_poly(L)
        if R.evaluate(1) and R.evaluate(-1):
            assert analysis.on_circle == unit_circle_check(R), format_poly(L)
    assert min(paths.values()) > 80, paths


def test_descent_facts_carry_a_count_exactly_when_g_is_nonzero_at_both_ends():
    """`_descent_facts` of the descent G of a palindrome gives a count iff
    G(2) G(-2) != 0 over Q, and then the oracle's window count.  Facts
    whose count is None give the record of passing no facts."""
    corpus = Path(__file__).parent / "golden" / "check_reports.jsonl"
    candidates = [parse_poly(json.loads(line)["coeffs"]) for line in corpus.read_text().splitlines()]
    candidates += _seeded_candidates(15, 300)
    counted = uncounted = 0
    for L in candidates:
        f = _integer_multiple(L)
        if len(f) % 2 == 0 or f != f[::-1]:
            continue
        g, d, count = _descent_facts(weilpoly._descent_ints(list(f)))
        G = RatPoly(tuple(fraction_descent(list(L.coeffs))))
        assert (count is not None) == (G.evaluate(2) * G.evaluate(-2) != 0), format_poly(L)
        if count is None:
            uncounted += 1
        else:
            assert count == _oracle_window(G), format_poly(L)
            counted += 1
        for p in (2, 7):
            assert _analyse(f, p, (g, d, None)) == _analyse(f, p), (format_poly(L), p)
    assert counted > 100 and uncounted > 50, (counted, uncounted)


def _candidates_at_primes(seed: int, count: int) -> list[tuple[RatPoly, int]]:
    """(L, p) for p in 2, 3, 5, 7, 11, 13: products of up to three factors
    of degree <= 16 in all, drawn with repeats, from palindromes (transforms
    of monic F), cyclotomic polynomials of degree <= 4 and non-palindromes
    with constant term 1; coefficients have denominators 1, p, p^2 and one
    prime to p."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        dens = (1, p, p * p, 5 if p == 3 else 3)

        def coeffs(n):
            return [Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]

        L = RatPoly.one()
        for _ in range(rng.randint(1, 3)):
            shape = rng.random()
            if shape < 0.4:
                factor = reciprocal_transform(RatPoly.of(*coeffs(rng.randint(1, 3)), 1))
            elif shape < 0.7:
                factor = cyclotomic(rng.choice(cyclotomic_index_list(4)))
                factor = factor / factor.constant  # 1 - T for k = 1
            else:
                factor = RatPoly.of(1, *coeffs(rng.randint(1, 3)))
            for _ in range(1 + (rng.random() < 0.25)):
                if L.degree + factor.degree <= 16:
                    L = L * factor
        out.append((L, p))
    return out


def _oracle_flat_length(P: RatPoly, p: int) -> int:
    return sum(l for s, l in fraction_newton_polygon(P.coeffs, p) if s == 0)


def test_flat_segment_bound_keeps_every_cyclotomic_factor(monkeypatch):
    """Phi_k | L puts phi(k) roots of valuation 0 among those of L, so the
    scan stops at the length of the slope-0 segment.  On candidates where
    that length is below the degree, the analysis, `check_candidate` and
    `kronecker_certificate` still find the oracle's smallest k, and the
    certificate reads the bound off its own polygon and keeps its premises."""
    from k3cert.condition import check_candidate

    bounds = []
    scans = {name: getattr(weilpoly, name) for name in ("_cyclotomic_index_ints", "_psi_index_ints")}
    for name, scan in scans.items():
        monkeypatch.setattr(weilpoly, name, lambda f, flat, scan=scan: bounds.append(flat) or scan(f, flat))
    bounded = hits = 0
    for L, p in _candidates_at_primes(13, 400):
        if L.degree < 1:
            continue
        flat = _oracle_flat_length(L, p)
        bounded += flat < L.degree
        k = cyclotomic_factor_index(L.coeffs)
        hits += k is not None and flat < L.degree
        bounds.clear()
        assert _analyse(_integer_multiple(L), p).cyc == k, (format_poly(L), p)
        assert bounds == [flat], (format_poly(L), p)
        if L.degree % 2 == 0 and L.degree <= 20:
            detail = check_candidate(L, p).checks["no_root_of_unity"].detail
            assert detail.get("cyclotomic_index") == k, (format_poly(L), p)
        r = _squarefree_power_ints(_integer_multiple(L))[0]
        R = RatPoly(tuple(Fraction(c, r[0]) for c in r))
        bounds.clear()
        cert = kronecker_certificate(R, p)
        assert bounds == [_oracle_flat_length(R, p)], (format_poly(R), p)
        assert cert.premises["no_cyclotomic_factor"] == (k is None), (format_poly(R), p)
        assert cert.detail.get("cyclotomic_index") == k, (format_poly(R), p)
        with monkeypatch.context() as unbounded:
            for name, scan in scans.items():
                # a bound of 2 len(f) is above the degree of f and of the transform of f
                unbounded.setattr(weilpoly, name, lambda f, flat, scan=scan: scan(f, 2 * len(f)))
            assert kronecker_certificate(R, p).to_json() == cert.to_json(), (format_poly(R), p)
    assert bounded > 200 and hits > 100, (bounded, hits)


def test_denominators_are_p_power():
    assert denominators_are_p_power(WORKED, 7)
    assert not denominators_are_p_power(WORKED, 5)
    assert denominators_are_p_power(poly(1, 2, 3), 5)
    assert not denominators_are_p_power(poly(1, Fraction(1, 14)), 7)


# ---------------------------------------------------------------------------
# irreducibility certificate


def test_kronecker_certificate_worked_example():
    cert = kronecker_certificate(WORKED, 7)
    assert cert.certified
    assert cert.verdict == "certified"
    assert cert.premises == {
        "pure_negative_slope": True,
        "no_cyclotomic_factor": True,
        "unit_circle": True,
        "denominators_p_power": True,
    }


def test_kronecker_certificate_unknown_for_cyclotomic():
    cert = kronecker_certificate(cyclotomic(12), 7)
    assert not cert.certified
    assert cert.verdict == "unknown"
    assert cert.premises["pure_negative_slope"] is False
    assert cert.premises["no_cyclotomic_factor"] is False


def test_kronecker_certificate_unknown_for_split_slope():
    # slopes -2 and -1 of length 1 each: negative part not pure
    f = poly(
        Fraction(1), Fraction(1, 49), Fraction(1, 343), Fraction(1, 49), Fraction(1)
    )
    cert = kronecker_certificate(f, 7)
    assert not cert.certified
    assert cert.premises["pure_negative_slope"] is False


def test_kronecker_certificate_unknown_for_tilted_middle():
    # slopes -1, 1/2, 1: the ends mirror each other but the middle is not flat
    cert = kronecker_certificate(poly(1, Fraction(1, 7), 0, 1, 7), 7)
    assert cert.premises["pure_negative_slope"] is False
    assert "h" not in cert.detail


def test_kronecker_certificate_rejects_non_squarefree():
    with pytest.raises(ValueError):
        kronecker_certificate(WORKED * WORKED, 7)


def test_kronecker_certificate_rejects_a_constant_term_other_than_1():
    with pytest.raises(ValueError, match=r"R\(0\) = 1"):
        kronecker_certificate(RatPoly.of(2, 1), 7)


def test_kronecker_certified_outputs_survive_factor_sieve():
    """Independent check: clear denominators and factor mod several primes.

    A rational factor of degree d would force d to appear as a subset sum of
    the factor degree pattern mod every good prime, so an empty intersection
    across primes confirms irreducibility the slow way.
    """
    from k3cert.condition import construct_witness

    corpus = [(WORKED, 7)]
    for p, m, h in [(5, 1, 1), (7, 2, 1), (7, 3, 2), (5, 3, 2), (7, 4, 3)]:
        L, _report = construct_witness(p, m, h)
        corpus.append((L, p))
    for L, p in corpus:
        base, _e = squarefree_decompose(L)
        cert = kronecker_certificate(base, p)
        assert cert.certified
        den = lcm(*[c.denominator for c in base.coeffs])
        ints = [int(c * den) for c in base.coeffs]
        candidates = None
        for ell in range(3, 50, 2):
            if not is_prime(ell) or ell == p:
                continue
            pattern = ddf_degree_pattern(ints, ell)
            if pattern is None:
                continue
            got = proper_factor_degree_candidates(pattern)
            candidates = got if candidates is None else candidates & got
            if not candidates:
                break
        assert candidates == set(), (format_poly(base), candidates)


# ---------------------------------------------------------------------------
# the hull on symmetric and other clouds, the palindrome kernels at half
# size (the transform and descent), and the window


def _valued(rng: random.Random, p: int, v: int) -> int:
    """A random nonzero integer of p-adic valuation v."""
    u = p
    while u % p == 0:
        u = rng.randint(1, 40)
    return rng.choice((-1, 1)) * u * p**v


def _palindrome(half: list[int], n: int) -> list[int]:
    """The palindrome of degree n whose coefficients 0 ... n // 2 are half."""
    return half + (half[::-1] if n % 2 else half[-2::-1])


def _as_oracle_segments(segs):
    return tuple((Fraction(rise, run), run) for rise, run in segs)


def test_hull_matches_the_oracle_on_palindromes():
    rng = random.Random(2601)
    seen = dict.fromkeys(
        ("odd degree", "even degree", "zero coefficient", "flat", "no flat", "lowest at 0", "flat in left half"), 0
    )
    for p in (2, 3, 5, 7):
        for _ in range(400):
            n = rng.randint(0, 20)
            top = rng.randint(0, 4)
            half = [
                _valued(rng, p, rng.randint(0, top)) if i == 0 or rng.random() < 0.8 else 0
                for i in range(n // 2 + 1)
            ]
            f = _palindrome(half, n)
            segs = weilpoly._polygon_ints(f, p)
            assert _as_oracle_segments(segs) == fraction_newton_polygon(f, p), (f, p)
            vals = [weilpoly._int_val(c, p) if c else math.inf for c in half]
            lowest = [i for i, v in enumerate(vals) if v == min(vals)]
            seen["odd degree" if n % 2 else "even degree"] += 1
            seen["zero coefficient"] += 0 in f
            seen["flat" if any(rise == 0 for rise, _ in segs) else "no flat"] += 1
            seen["lowest at 0"] += lowest[0] == 0 and n > 0
            seen["flat in left half"] += len(lowest) > 1
    assert min(seen.values()) > 100, seen


def test_hull_worked_examples_on_palindromes():
    # valuations 2, 0, 0, 0, 0, 0, 2: the points x = 2 ... 4 on the flat
    # segment are no vertices
    f = [49, 1, 1, 1, 1, 1, 49]
    assert weilpoly._polygon_ints(f, 7) == [(-2, 1), (0, 4), (2, 1)]
    # valuations 2, 1, 0 | 0, 1, 2: collinear points are no vertices
    assert weilpoly._polygon_ints([9, 3, 1, 1, 3, 9], 3) == [(-2, 2), (0, 1), (2, 2)]
    # lowest at index 0, and a unique lowest middle with no flat
    assert weilpoly._polygon_ints([1, 5, 25, 5, 1], 5) == [(0, 4)]
    assert weilpoly._polygon_ints([4, 0, 1, 0, 4], 2) == [(-2, 2), (2, 2)]
    assert weilpoly._polygon_ints([3], 3) == []


def test_full_hull_matches_the_oracle_on_non_palindromes():
    rng = random.Random(2602)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            n = rng.randint(1, 20)
            f = [_valued(rng, p, rng.randint(0, 4)) if i in (0, n) or rng.random() < 0.8 else 0 for i in range(n + 1)]
            if f == f[::-1]:
                continue
            assert _as_oracle_segments(weilpoly._polygon_ints(f, p)) == fraction_newton_polygon(f, p), (f, p)


def test_half_transform_and_descent_match_the_fraction_descent():
    rng = random.Random(2603)
    rejected = 0
    for _ in range(400):
        n = rng.randint(0, 10)
        s = [rng.randint(-9, 9) if rng.random() < 0.75 else 0 for _ in range(n)] + [_valued(rng, 2, 0)]
        f = _transform_ints(s)
        assert len(f) == 2 * n + 1 and f == f[::-1]
        assert fraction_descent(f) == s  # the oracle inverts the transform
        assert _descent_ints(f) == s
        # a palindrome of odd length not built by the transform always descends
        L = _palindrome([_valued(rng, 3, 0)] + [rng.randint(-30, 30) for _ in range(n)], 2 * n)
        before = list(L)
        g = _descent_ints(L)
        assert L == before  # the argument is left alone
        assert g == fraction_descent(L) and _transform_ints(g) == L
        # anything else is in the span of no palindrome basis
        if n:
            i = rng.choice([j for j in range(2 * n + 1) if j != n])
            broken = list(L)
            broken[i] += rng.choice((-1, 1)) * rng.randint(1, 5)
            assert _descent_ints(broken) is None, broken
            assert _descent_ints(L[:n] + L[n + 1 :]) is None  # a palindrome of even length
            rejected += 1
    assert rejected > 300


def test_one_pass_window_matches_the_oracle():
    # G of both parities of degree, some with a root at 2 or -2, whose
    # chain's last member is nonzero at +-2
    rng = random.Random(2604)
    counted = 0
    for _ in range(250):
        n = rng.randint(1, 9)
        G = RatPoly(tuple(Fraction(rng.randint(-12, 12)) for _ in range(n)) + (Fraction(rng.randint(1, 3)),))
        for end in (2, -2):
            if rng.random() < 0.3:
                G = G * poly(-end, 1)
        chain = _sturm_chain_ints(_integer_multiple(G))
        if not (weilpoly._at(chain[-1], 2) and weilpoly._at(chain[-1], -2)):
            continue
        sturm = weilpoly._variations(chain, -2) - weilpoly._variations(chain, 2) + (G.evaluate(-2) == 0)
        count, ends = _window(chain)
        assert count == sturm == _oracle_window(G), format_poly(G)
        assert ends == weilpoly._at(chain[0], -2) * weilpoly._at(chain[0], 2), format_poly(G)
        counted += 1
    assert counted > 150
