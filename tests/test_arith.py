"""Exact arithmetic layer: valuations, symbols, square classes, places."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cert import arith
from k3cert.arith import (
    INF,
    INFINITE_PLACE,
    Place,
    SquareClass,
    check_prime,
    companion_prime,
    format_rational,
    hilbert,
    is_prime,
    legendre,
    next_progression_prime,
    parse_rational,
    prime_factors,
    square_class,
    support_primes,
    val_p,
)

from oracles import brute_hilbert_bit, brute_legendre, class_hilbert_bit, naive_prime_factors, squarefree_part

nonzero_rationals = st.fractions(
    min_value=-60, max_value=60, max_denominator=60
).filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# primality and valuations


def test_is_prime_small():
    primes_below_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert [n for n in range(60) if is_prime(n)] == primes_below_60


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_matches_a_sieve_below_ten_to_the_five():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, 317):  # 317^2 > 10^5
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, n, q))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_below_41_squared_needs_no_modular_power(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    assert [q for q in range(41, 200) if is_prime(q)][:3] == [41, 43, 47]
    assert is_prime(1669)
    assert calls == []
    assert not is_prime(1681) and calls  # 41^2, the first n past the shortcut


def test_is_prime_range_guard():
    with pytest.raises(ValueError):
        is_prime(2**64)
    with pytest.raises(ValueError):
        is_prime(-7)
    # check_prime rejects p < 2 itself, before is_prime's range guard
    with pytest.raises(ValueError, match=r"^-7 is not a prime$"):
        check_prime(-7)


def test_val_p_examples():
    assert val_p(Fraction(9, 4), 2) == -2
    assert val_p(Fraction(9, 4), 3) == 2
    assert val_p(Fraction(9, 4), 7) == 0
    assert val_p(56, 2) == 3
    assert val_p(Fraction(1, 7), 7) == -1


def test_val_p_zero_is_infinite():
    v = val_p(0, 5)
    assert v is INF
    assert v > 10**100
    assert not v < 0
    assert v == INF
    assert repr(INF) == "INF"
    assert INF <= INF and not INF <= 10**100
    assert INF >= INF and INF >= 10**100
    assert INF + 3 is INF and 3 + INF is INF and INF + INF is INF


def test_val_p_rejects_composite_modulus():
    with pytest.raises(ValueError):
        val_p(Fraction(1, 2), 6)


def test_val_p_additive():
    x, y = Fraction(18, 5), Fraction(10, 27)
    for p in (2, 3, 5):
        assert val_p(x * y, p) == val_p(x, p) + val_p(y, p)


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert prime_factors(97) == {97: 1}
    with pytest.raises(ValueError, match="cannot factor 0"):
        prime_factors(0)


def test_prime_factors_matches_naive_division():
    for n in range(1, 1 << 16):
        assert prime_factors(n) == naive_prime_factors(n), n
    rng = random.Random(1 << 40)
    for _ in range(100):
        n = rng.randrange(1, 1 << 40)
        assert prime_factors(-n) == naive_prime_factors(n), n


def test_prime_factors_around_the_end_of_the_prime_table():
    # 1021 is the largest prime below 2**10, and 1031 and 1033 the first above
    assert prime_factors(1021**2) == {1021: 2}
    assert prime_factors(1031**2) == {1031: 2}
    assert prime_factors(1021 * 1031) == {1021: 1, 1031: 1}
    assert prime_factors(1031 * 1033) == {1031: 1, 1033: 1}
    assert prime_factors(1025) == {5: 2, 41: 1}


def test_prime_factors_refuses_a_cofactor_it_cannot_prove_prime():
    # trial division stops at 2**20: a semiprime of two larger primes, and a
    # prime beyond the range of is_prime, are refused rather than factored
    for n in (33554467 * 33554473, 2**89 - 1):
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            prime_factors(n)


def test_prime_factors_accepts_a_proven_prime_cofactor():
    assert prime_factors(3 * (2**61 - 1)) == {3: 1, 2**61 - 1: 1}
    # or the square of one
    assert prime_factors((2**20 + 7) ** 2) == {1048583: 2}
    assert prime_factors(4 * (2**20 + 7) ** 2) == {2: 2, 1048583: 2}


# ---------------------------------------------------------------------------
# Legendre symbol


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19])
def test_legendre_matches_bruteforce(p):
    for a in range(1, p):
        assert legendre(a, p) == brute_legendre(a, p)
    assert legendre(p, p) == 0
    assert legendre(a + p, p) == legendre(a, p)


def test_legendre_multiplicative():
    p = 23
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_two():
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_quadratic_reciprocity():
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for p in odd_primes:
        for q in odd_primes:
            if p == q:
                continue
            sign = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
            assert legendre(p, q) * legendre(q, p) == sign


# ---------------------------------------------------------------------------
# square classes


def test_square_class_examples():
    assert square_class(-18) == SquareClass(-1, 2)
    assert square_class(Fraction(4, 9)) == SquareClass(1, 1)
    assert square_class(50) == SquareClass(1, 2)
    assert square_class(Fraction(-1, 7)) == SquareClass(-1, 7)
    assert str(SquareClass(-1, 2)) == "-2" and str(SquareClass(1, 1)) == "1"
    assert square_class(1).is_trivial
    assert not square_class(2).is_trivial


def test_square_class_representative_roundtrip():
    for x in (-18, Fraction(4, 9), 50, Fraction(-1, 7), 1, -1):
        cls = square_class(x)
        assert square_class(cls.representative()) == cls
        assert cls.representative() == squarefree_part(x)


def test_square_class_validation():
    with pytest.raises(ValueError):
        SquareClass(1, 4)
    with pytest.raises(ValueError):
        SquareClass(2, 1)
    with pytest.raises(ValueError):
        SquareClass(1, -2)
    with pytest.raises(ValueError, match="0 has no square class"):
        square_class(0)


def test_square_class_of_an_int_matches_the_oracle():
    # an int goes straight to its factorisation, without a Fraction
    for n in range(1, 1 << 12):
        assert square_class(n).representative() == squarefree_part(n), n
        assert square_class(-n).representative() == squarefree_part(-n), -n
    rng = random.Random(1 << 12)
    for _ in range(60):
        n = rng.randrange(1, 1 << 40) * rng.choice((-1, 1))
        assert square_class(n).representative() == squarefree_part(n), n
        assert square_class(n) == square_class(Fraction(n))


def test_square_class_of_other_inputs_keeps_the_rational_path():
    assert square_class(True) == square_class(1)
    for zero in (0, Fraction(0), False):
        with pytest.raises(ValueError, match="0 has no square class"):
            square_class(zero)
    with pytest.raises(TypeError):
        square_class(None)


def test_square_class_product_is_not_factored_again(monkeypatch):
    # (a/g)(b/g) is squarefree for squarefree a and b; two primes above 2**20
    # multiply to a number that trial division to 2**20 cannot factor
    x, y = square_class(-1048583), square_class(-1048601)
    calls = []
    real_prime_factors = arith.prime_factors
    monkeypatch.setattr(arith, "prime_factors", lambda n: calls.append(n) or real_prime_factors(n))
    z = x * y
    assert calls == []
    assert (z.sign, z.sqfree) == (1, 1048583 * 1048601)


@given(nonzero_rationals, nonzero_rationals)
def test_square_class_homomorphism(x, y):
    assert square_class(x * y) == square_class(x) * square_class(y)


@given(nonzero_rationals)
def test_square_class_kills_squares(x):
    assert square_class(x * x).is_trivial
    assert (square_class(x) * square_class(x)).is_trivial


# ---------------------------------------------------------------------------
# places


def test_place_parse_and_str():
    assert Place.parse("inf") == INFINITE_PLACE == Place.infinite()
    assert Place.parse("7") == Place.finite(7)
    assert str(Place.finite(2)) == "2"
    assert str(INFINITE_PLACE) == "inf"


def test_place_ordering():
    places = [INFINITE_PLACE, Place.finite(5), Place.finite(2)]
    ordered = sorted(places, key=lambda v: v.sort_key())
    assert ordered == [Place.finite(2), Place.finite(5), INFINITE_PLACE]


def test_place_rejects_nonprime():
    with pytest.raises(ValueError):
        Place.finite(6)
    with pytest.raises(ValueError):
        Place.parse("one")


# ---------------------------------------------------------------------------
# Hilbert symbol


def test_hilbert_textbook_values():
    assert hilbert(-1, -1, Place.finite(2)) == 1
    assert hilbert(-1, -1, INFINITE_PLACE) == 1
    assert hilbert(-1, -1, Place.finite(7)) == 0
    assert hilbert(2, 7, Place.finite(7)) == 0
    assert hilbert(3, 7, Place.finite(7)) == 1
    assert hilbert(5, 5, Place.finite(5)) == 0
    assert hilbert(7, 7, Place.finite(7)) == 1
    assert hilbert(2, 3, Place.finite(2)) == 1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert(0, 3, Place.finite(5))


def test_hilbert_matches_bruteforce_grid():
    # the fractions carry the place's prime in the numerator or the denominator
    values = [1, -1, 2, -2, 3, -3, 10, -10]
    values += [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 9), Fraction(-2, 27)]
    values += [Fraction(7, 50), Fraction(-6, 49)]
    places = (Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7), INFINITE_PLACE)
    for place in places:
        for a in values:
            for b in values:
                assert hilbert(a, b, place) == brute_hilbert_bit(a, b, place.prime), (
                    a,
                    b,
                    str(place),
                )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_hilbert_matches_bruteforce_at_powers_of_the_place(p):
    # hilbert reads num * den, so a and b reach the kernel with p^0 .. p^4
    # (both parities) in front of units of both characters
    units = [u for u in (1, -1, 2, -2, 3, -3, 6, -6, 7) if u % p]
    values = [Fraction(u * p**k) for u in units for k in range(5)]
    values += [Fraction(u, p**k) for u in units for k in range(1, 5)]
    place = Place.finite(p)
    for a in values:
        for b in values:
            want = class_hilbert_bit(squarefree_part(a), squarefree_part(b), p)
            assert hilbert(a, b, place) == want, (a, b, p)


def test_hilbert_trusts_the_prime_of_its_place(monkeypatch):
    # the Place proves its prime once; hilbert does not test it again
    with pytest.raises(ValueError, match=r"^4 is not a prime$"):
        Place.finite(4)
    places = (Place.finite(2), Place.finite(5), INFINITE_PLACE)
    calls = []
    real_is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real_is_prime(n))
    for place in places:
        hilbert(3, 5, place)
    assert calls == []


def test_hilbert_fractional_arguments():
    assert hilbert(Fraction(1, 2), Fraction(-3, 4), Place.finite(2)) == hilbert(
        2, -3, Place.finite(2)
    )


@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_symmetric(a, b):
    for place in (Place.finite(2), Place.finite(3), INFINITE_PLACE):
        assert hilbert(a, b, place) == hilbert(b, a, place)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_hilbert_bilinear(a, b1, b2):
    for place in (Place.finite(2), Place.finite(5), INFINITE_PLACE):
        lhs = hilbert(a, b1 * b2, place)
        rhs = (hilbert(a, b1, place) + hilbert(a, b2, place)) % 2
        assert lhs == rhs


@given(nonzero_rationals)
def test_hilbert_steinberg_relations(a):
    # (a, -a) and, when a != 1, (a, 1 - a) are always trivial
    for place in (Place.finite(2), Place.finite(3), Place.finite(7), INFINITE_PLACE):
        assert hilbert(a, -a, place) == 0
        if a != 1:
            assert hilbert(a, 1 - a, place) == 0


@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_product_formula(a, b):
    # the symbol vanishes at every odd prime not dividing a or b, but can be
    # nonzero at 2 and at infinity even for units, so those are always summed
    primes = sorted(support_primes([a, b]) | {2})
    places = [INFINITE_PLACE] + [Place.finite(p) for p in primes]
    assert sum(hilbert(a, b, v) for v in places) % 2 == 0


def test_support_primes():
    assert support_primes([Fraction(9, 4), 35]) == {2, 3, 5, 7}
    assert support_primes([1, -1]) == set()
    with pytest.raises(ValueError, match="support of 0 is undefined"):
        support_primes([3, Fraction(0)])


# ---------------------------------------------------------------------------
# prime searches in arithmetic progressions


def test_next_progression_prime_examples():
    assert next_progression_prime(7, 2) == 23
    assert next_progression_prime(5, 1) == 11
    assert next_progression_prime(3, 1) == 7
    with pytest.raises(ValueError, match="modulus must be an odd prime"):
        next_progression_prime(2, 1)
    with pytest.raises(ValueError, match="residue must be coprime to p"):
        next_progression_prime(7, 14)


@pytest.mark.parametrize("p,x", [(7, 2), (5, 1), (3, 1), (11, 4), (13, 6)])
def test_next_progression_prime_is_minimal(p, x):
    q = next_progression_prime(p, x)
    assert is_prime(q)
    assert q % p == x
    assert q % 4 == 3
    for smaller in range(2, q):
        assert not (is_prime(smaller) and smaller % p == x and smaller % 4 == 3)


def test_companion_prime_examples():
    assert companion_prime(7) == 11
    assert companion_prime(5) == 3
    assert companion_prime(3) == 7


@pytest.mark.parametrize("p1", [3, 5, 7, 11, 13, 19, 23])
def test_companion_prime_defining_property(p1):
    q = companion_prime(p1)
    assert is_prime(q) and q % 4 == 3 and q != p1
    want = 1 if p1 % 4 == 3 else -1
    assert legendre(q, p1) == want
    for smaller in range(3, q):
        if not is_prime(smaller) or smaller % 4 != 3 or smaller == p1:
            continue
        assert legendre(smaller, p1) != want


def test_companion_prime_rejects_even_input():
    with pytest.raises(ValueError):
        companion_prime(2)


# ---------------------------------------------------------------------------
# rational text format


def test_rational_text_roundtrip():
    for text in ("3", "-3", "1/7", "-22/7", "0"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 2/4 ") == Fraction(1, 2)
    # ASCII digits only: not 7/3 in Arabic-Indic digits, nor 10 with a digit-group underscore
    for text in ("1.5", "\u0667/\u0663", "1_0"):
        with pytest.raises(ValueError, match="cannot parse rational"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_format_rational_reads_ints_fractions_and_other_rationals_alike():
    cases = [
        (7, "7"),
        (-12, "-12"),
        (Fraction(-22, 7), "-22/7"),
        (Fraction(6, 3), "2"),
        (True, "1"),
        ("4/6", "2/3"),
        (0.5, "1/2"),
    ]
    for x, text in cases:
        assert format_rational(x) == text, x
