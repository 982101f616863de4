"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written from first principles with a
different algorithm than the code under test: Hilbert symbols by brute-force
solubility search instead of closed formulas (and, at odd primes too large
for the search, pairwise by Serre's formula on table-read Legendre symbols,
itself checked against the search at small primes; the code under test
reads one Euler symbol per place), real root counting by
Descartes/bisection instead of Sturm chains, the descent of a palindrome
by the recurrence for T^k + T^-k instead of binomial peeling, factor
degree patterns by
distinct-degree factorization over small prime fields instead of slope
arguments, gcds, cyclotomic factors and squarefree powers by Euclid and long
division over Fractions instead of integer pseudo-remainders, Newton
polygons from Fraction valuations instead of integer ones (and the slope
profile read from their Fraction slopes, not from integer rises and
runs), and values of a
binary form by a box search instead of a congruence argument.  Slow is
fine; independent is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import isqrt, lcm


# ---------------------------------------------------------------------------
# number theory


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by scanning all squares mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in _nonzero_squares(p) else -1


@cache
def _nonzero_squares(p: int) -> frozenset[int]:
    return frozenset((x * x) % p for x in range(1, p))


def naive_prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| > 0, by division by every d = 2, 3, 4, ... while d^2 <= the cofactor."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(x) -> int:
    """Signed squarefree integer in the same rational square class as x."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    v = x.numerator * x.denominator
    sign = -1 if v < 0 else 1
    v = abs(v)
    out = 1
    d = 2
    while d * d <= v:
        e = 0
        while v % d == 0:
            v //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * v


def diagonal_binary_solution(a: int, b: int, t: int, bound: int):
    """Some (x, y) with a*x^2 + b*y^2 = t and 0 <= x, y <= bound, or None.

    Scans x and solves for y by an integer square root; b must be nonzero.
    """
    for x in range(bound + 1):
        y2, r = divmod(t - a * x * x, b)
        if r == 0 and y2 >= 0:
            y = isqrt(y2)
            if y * y == y2 and y <= bound:
                return x, y
    return None


# ---------------------------------------------------------------------------
# Hilbert symbol by exhaustive local solubility
#
# The symbol (a, b) at a place v is trivial iff z^2 = a x^2 + b y^2 has a
# nonzero solution over the completion.  After replacing a and b by their
# squarefree parts (the symbol only depends on square classes) all p-adic
# valuations involved are 0 or 1, and a primitive solution can be normalized
# so that one coordinate is a unit, i.e. equals 1 after scaling.  For such
# equations a solution mod p^3 (odd p) or mod 2^6 lifts to Z_p by Hensel's
# lemma, and conversely a p-adic solution reduces, so the finite search below
# is exact, not a heuristic.


def brute_hilbert_bit(a, b, p: int | None) -> int:
    """1 if (a, b) is the nontrivial symbol at the place, else 0.

    p is a prime, or None for the real place.
    """
    a = squarefree_part(a)
    b = squarefree_part(b)
    if p is None:
        return 1 if (a < 0 and b < 0) else 0
    mod = 2**6 if p == 2 else p**3
    squares = {(z * z) % mod for z in range(mod)}
    ax = {(a * x * x) % mod for x in range(mod)}
    by = {(b * y * y) % mod for y in range(mod)}
    # z = 1:  a x^2 + b y^2 = 1
    if any((1 - v) % mod in by for v in ax):
        return 0
    # x = 1:  z^2 - b y^2 = a
    if any((a + v) % mod in squares for v in by):
        return 0
    # y = 1:  z^2 - a x^2 = b
    if any((v + b) % mod in squares for v in ax):
        return 0
    return 1


def formula_hilbert_bit(a, b, p: int) -> int:
    """The bit of (a, b)_p at an odd prime p by Serre's closed formula (III.1, Thm. 1).

    With a = p^alpha u and b = p^beta v, u and v units:
    (a, b)_p = (-1)^(alpha beta eps(p)) (u|p)^beta (v|p)^alpha, eps(p) = (p - 1)/2,
    the Legendre symbols read by `brute_legendre`.
    """
    (alpha, u), (beta, v) = _split_off(a, p), _split_off(b, p)
    bit = alpha * beta * ((p - 1) // 2)
    bit += beta * (brute_legendre(u, p) == -1) + alpha * (brute_legendre(v, p) == -1)
    return bit % 2


def _split_off(x, p: int) -> tuple[int, int]:
    """(alpha, u) with num * den of the rational x equal to p^alpha u, p not dividing u."""
    x = Fraction(x)
    u, alpha = x.numerator * x.denominator, 0
    while u % p == 0:
        u //= p
        alpha += 1
    return alpha, u


@cache
def class_hilbert_bit(a: int, b: int, p: int | None) -> int:
    """`brute_hilbert_bit` of two squarefree integers, each triple searched once per session."""
    return brute_hilbert_bit(a, b, p)


def pairwise_hasse_bit(entries, p: int | None, symbol=class_hilbert_bit) -> int:
    """Hasse invariant sum_{i<j} (a_i, a_j) of <entries> at a place, by definition.

    By default every pairwise symbol comes from `brute_hilbert_bit`, each
    distinct pair of square classes searched once (`class_hilbert_bit`);
    `symbol=formula_hilbert_bit` reads them by the closed formula at an odd p.
    """
    classes = [squarefree_part(e) for e in entries]
    bit = 0
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            bit ^= symbol(classes[i], classes[j], p)
    return bit


ODD_PRIMES_BELOW_200 = tuple(q for q in range(3, 200, 2) if all(q % d for d in range(3, q, 2)))


def space_over_odd_primes(rng, m: int) -> list[Fraction]:
    """2m seeded nonzero entries built from m + 2 odd primes below 200.

    Each prime of the sample multiplies one numerator, and each entry takes
    one more of them into its numerator or denominator (so some entries
    hold a square), with a random sign: the shape of the benchmark's
    `lattice` spaces.
    """
    support = rng.sample(ODD_PRIMES_BELOW_200, m + 2)
    num, den = [1] * (2 * m), [1] * (2 * m)
    for j, q in enumerate(support):
        num[j % (2 * m)] *= q
    for i in range(2 * m):
        q = rng.choice(support)
        # never cancel a prime: q joins the numerator when it is there already
        (num if num[i] % q == 0 or rng.random() < 0.5 else den)[i] *= q
    return [Fraction(rng.choice((-1, 1)) * a, b) for a, b in zip(num, den)]


# ---------------------------------------------------------------------------
# real root counting: Descartes bound + bisection (Vincent/Collins/Akritas)


def _horner(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _taylor_shift(cs, t):
    """Coefficients of f(x + t), by repeated synthetic division by (x - t)."""
    cs = list(cs)
    out = []
    while cs:
        if len(cs) == 1:
            out.append(cs[0])
            break
        q = [0] * (len(cs) - 1)
        carry = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            q[i] = carry
            carry = cs[i] + t * carry
        out.append(carry)
        cs = q
    return out


def _descartes_bound_01(cs):
    """Descartes bound for roots in the open interval (0, 1)."""
    rev = list(reversed(cs))          # x^n f(1/x)
    shifted = _taylor_shift(rev, 1)
    signs = [1 if c > 0 else -1 for c in shifted if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots_halfopen(coeffs, lo, hi) -> int:
    """Distinct real roots of a squarefree polynomial in (lo, hi].

    The Descartes bound D for an open interval satisfies D >= #roots and
    D == #roots mod 2, so D in {0, 1} is an exact answer; otherwise bisect.
    Termination for squarefree input is the classical VCA argument.

    The bound is read in Z: F is a positive integer multiple of f, and with
    a = A/d and b - a = W/d, d^n F(a + (b - a) x) = H(A + W x) for the
    integer H(y) = sum F_i d^(n-i) y^i, so the Taylor shift runs on
    integers.  Positive scalings leave the sign variations unchanged.
    """
    cs = [Fraction(c) for c in coeffs]
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not cs or all(c == 0 for c in cs):
        raise ValueError("zero polynomial")
    if lo >= hi:
        raise ValueError("empty interval")
    den = lcm(*(c.denominator for c in cs))
    F = [c.numerator * (den // c.denominator) for c in cs]
    n = len(F) - 1

    def open_count(a, b):
        d = lcm(a.denominator, b.denominator)
        H = [c * d ** (n - i) for i, c in enumerate(F)]
        W = int((b - a) * d)
        unit = [c * W**i for i, c in enumerate(_taylor_shift(H, int(a * d)))]
        bound = _descartes_bound_01(unit)
        if bound <= 1:
            return bound
        mid = (a + b) / 2
        here = 1 if _horner(F, mid) == 0 else 0
        return open_count(a, mid) + here + open_count(mid, b)

    return open_count(lo, hi) + (1 if _horner(F, hi) == 0 else 0)


# ---------------------------------------------------------------------------
# gcd and cyclotomic factors over Q, by Fraction long division


def _q_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _q_divmod(f, g):
    """(quotient, remainder) of coefficient lists over Q; g is nonzero and trimmed."""
    f = _q_trim(f)
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        quo[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
        while f and f[-1] == 0:
            f.pop()
    return quo, f


def rational_gcd_monic(f, g):
    """Monic gcd of two coefficient lists over Q by the Euclidean algorithm,
    as a tuple of Fractions (empty when both inputs are zero)."""
    f, g = _q_trim(f), _q_trim(g)
    while g:
        f, g = g, _q_divmod(f, g)[1]
    return tuple(c / f[-1] for c in f)


@cache
def fraction_cyclotomic(k):
    """Phi_k from T^k - 1, dividing out Phi_d for every proper divisor d of k."""
    poly = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _q_divmod(poly, fraction_cyclotomic(d))
            assert not rem, "division was not exact"
    return tuple(poly)


@cache
def _phi(k):
    return naive_phi(k)


def cyclotomic_factor_index(coeffs, maxdeg=None):
    """Smallest k with Phi_k dividing the polynomial, or None; only the k
    with phi(k) <= maxdeg count when maxdeg is given.

    A factor Phi_k has degree phi(k) <= deg, and phi(k) >= sqrt(k/2), so
    k <= 2 deg^2 bounds the search.
    """
    f = _q_trim(coeffs)
    deg = len(f) - 1
    bound = deg if maxdeg is None else min(deg, maxdeg)
    for k in range(1, 2 * deg * deg + 1):
        if _phi(k) <= bound and not _q_divmod(f, fraction_cyclotomic(k))[1]:
            return k
    return None


def fraction_strip_cyclotomic(coeffs):
    """(quotient, removed indices) over Q: peel the smallest Phi_k that
    divides the polynomial, by Fraction long division, until none does."""
    f, removed = _q_trim(coeffs), []
    while (k := cyclotomic_factor_index(f)) is not None:
        f, rem = _q_divmod(f, fraction_cyclotomic(k))
        assert not rem, "division was not exact"
        removed.append(k)
    return tuple(f), removed


# ---------------------------------------------------------------------------
# squarefree power and Newton polygon over Q, by Fraction arithmetic


def _q_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def fraction_squarefree_power(coeffs):
    """(R, e) for L(0) = 1 and deg L >= 1, over Q: R = L / gcd(L, L') with
    R(0) = 1 as a tuple of Fractions, and e with L = R^e, or None when L
    is no power of R."""
    L = _q_trim(coeffs)
    R, rem = _q_divmod(L, rational_gcd_monic(L, [i * c for i, c in enumerate(L)][1:]))
    assert not rem, "gcd(L, L') does not divide L"
    R = [c / R[0] for c in R]
    e, r = divmod(len(L) - 1, len(R) - 1)
    power = [Fraction(1)]
    for _ in range(e):
        power = _q_mul(power, R)
    return tuple(R), (e if r == 0 and power == L else None)


# ---------------------------------------------------------------------------
# the descent of a palindrome and the unit circle, over Q


def _q_axpy(a, f, g):
    """a * f + g for coefficient lists."""
    n = max(len(f), len(g))
    return [a * (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def fraction_descent(coeffs):
    """G with L = T^m G(T + 1/T) for a palindrome L of degree 2m.

    L / T^m = c_m + sum_k c_(m+k) (T^k + T^-k), and T^k + T^-k = V_k(x)
    at x = T + 1/T, with V_0 = 2, V_1 = x and V_(k+1) = x V_k - V_(k-1).
    """
    L = _q_trim(coeffs)
    m = (len(L) - 1) // 2
    assert len(L) % 2 == 1 and L == L[::-1], "not a palindrome of even degree"
    G, prev, cur = [L[m]], [Fraction(2)], [Fraction(0), Fraction(1)]
    for k in range(1, m + 1):
        G = _q_axpy(L[m + k], cur, G)
        prev, cur = cur, _q_axpy(-1, prev, [0] + cur)
    return _q_trim(G)


def _q_squarefree(f):
    return len(rational_gcd_monic(f, [i * c for i, c in enumerate(f)][1:])) == 1


def fraction_unit_circle(coeffs):
    """Whether every complex root of L, with L(0) = 1 and deg L >= 1, lies
    on the unit circle.

    The radical R = L / gcd(L, L') has the same roots, and T - 1 and
    T + 1 divide it at most once each.  The rest S has no root +-1, so its
    roots are on the circle iff they pair up as z, 1/z = conj(z): then S
    is a palindrome whose descent has all its roots real in [-2, 2],
    counted by Descartes bisection.
    """
    S = list(fraction_squarefree_power(coeffs)[0])
    for root in (1, -1):
        q, rem = _q_divmod(S, [Fraction(-root), Fraction(1)])
        if not rem:
            S = q
    if len(S) == 1:
        return True
    if len(S) % 2 == 0 or S != S[::-1]:
        return False
    G = fraction_descent(S)
    return count_real_roots_halfopen(G, -2, 2) + (_horner(G, -2) == 0) == len(G) - 1


def descent_squarefree_counterexamples(max_m, box):
    """The palindromes 1 + c_1 T + ... + c_m T^m + ... + c_1 T^(2m - 1) + T^(2m)
    with 1 <= m <= max_m and every c_i in [-box, box] for which "L is
    squarefree iff G is squarefree and G(2) G(-2) != 0" fails; L is
    squarefree iff `fraction_squarefree_power` gives e = 1."""
    out = []
    for m in range(1, max_m + 1):
        for middle in itertools.product(range(-box, box + 1), repeat=m):
            half = [1, *middle]
            L = [Fraction(c) for c in half + half[-2::-1]]
            G = fraction_descent(L)
            claim = _q_squarefree(G) and _horner(G, 2) != 0 and _horner(G, -2) != 0
            if (fraction_squarefree_power(L)[1] == 1) != claim:
                out.append(tuple(L))
    return out


def _q_val(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def fraction_newton_polygon(coeffs, p):
    """Segments (slope, length) of the lower hull of the points
    (i, v_p(c_i)), with Fraction valuations and Fraction cross-products."""
    pts = [(i, Fraction(_q_val(c, p))) for i, c in enumerate(_q_trim(coeffs)) if c != 0]
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(((y2 - y1) / (x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))


def fraction_slope_shape(coeffs, p, e=1):
    """(flat, h, a, symmetric, pure, local) read from the Fraction segments
    (s, l) of `fraction_newton_polygon`, by Fraction comparisons and
    products.

    flat is the length of the slope-0 segment (0 when there is none).
    The rest needs exactly one segment (s, l) of negative slope, and is
    (None, None, False, False, None) otherwise: symmetric says whether
    the segments of positive slope are exactly [(-s, l)]; h = l and
    a = -s * l when symmetric, else None; pure says whether it is
    symmetric with l the denominator of s; and local, for the e-th root
    of the polynomial (its polygon has every length divided by e), is
    (s as "n/d" in lowest terms, l // e, whether d == l // e).
    """
    segments = fraction_newton_polygon(coeffs, p)
    flat = sum(l for s, l in segments if s == 0)
    negative = [(s, l) for s, l in segments if s < 0]
    if len(negative) != 1:
        return flat, None, None, False, False, None
    s, l = negative[0]
    symmetric = [(t, k) for t, k in segments if t > 0] == [(-s, l)]
    h, a = (l, -s * l) if symmetric else (None, None)
    pure = symmetric and s.denominator == l
    local = (f"{s.numerator}/{s.denominator}", l // e, s.denominator == l // e)
    return flat, h, a, symmetric, pure, local


# ---------------------------------------------------------------------------
# factor degree patterns over F_ell (distinct-degree factorization)


def _fp_trim(f, ell):
    f = [c % ell for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mul(f, g, ell):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % ell
    return _fp_trim(out, ell)


def _fp_rem(f, g, ell):
    f = list(f)
    inv = pow(g[-1], -1, ell)
    while len(f) >= len(g):
        c = (f[-1] * inv) % ell
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % ell
        f = _fp_trim(f, ell)
        if not f:
            break
    return f


def _fp_divexact(f, g, ell):
    quo = [0] * (len(f) - len(g) + 1)
    f = list(f)
    inv = pow(g[-1], -1, ell)
    while len(f) >= len(g):
        c = (f[-1] * inv) % ell
        quo[len(f) - len(g)] = c
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % ell
        f = _fp_trim(f, ell)
        if not f:
            break
    assert not f, "division was not exact"
    return _fp_trim(quo, ell)


def _fp_gcd(f, g, ell):
    f, g = _fp_trim(f, ell), _fp_trim(g, ell)
    while g:
        f, g = g, _fp_rem(f, g, ell)
    if f:
        inv = pow(f[-1], -1, ell)
        f = [(c * inv) % ell for c in f]
    return f


def _fp_powmod_x(e, modpoly, ell):
    """x^e mod modpoly over F_ell, by square and multiply."""
    result = [1]
    base = _fp_rem([0, 1], modpoly, ell)
    while e:
        if e & 1:
            result = _fp_rem(_fp_mul(result, base, ell), modpoly, ell)
        base = _fp_rem(_fp_mul(base, base, ell), modpoly, ell)
        e >>= 1
    return result


def ddf_degree_pattern(int_coeffs, ell):
    """Sorted degrees (with multiplicity) of irreducible factors mod ell.

    Returns None when ell is unusable: leading coefficient vanishes mod ell
    or the reduction is not squarefree.
    """
    f = _fp_trim(int_coeffs, ell)
    if len(f) != len(int_coeffs) or len(f) < 2:
        return None
    deriv = _fp_trim([(i * c) % ell for i, c in enumerate(f)][1:], ell)
    if not deriv or len(_fp_gcd(f, deriv, ell)) > 1:
        return None
    inv = pow(f[-1], -1, ell)
    g = [(c * inv) % ell for c in f]
    degrees = []
    d = 1
    while len(g) > 1:
        if 2 * d > len(g) - 1:
            degrees.append(len(g) - 1)
            break
        h = _fp_powmod_x(ell**d, g, ell)
        h_minus_x = list(h) + [0] * max(0, 2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % ell
        fac = _fp_gcd(_fp_trim(h_minus_x, ell), g, ell)
        if len(fac) > 1:
            degrees.extend([d] * ((len(fac) - 1) // d))
            g = _fp_divexact(g, fac, ell)
        d += 1
    return sorted(degrees)


def proper_factor_degree_candidates(pattern):
    """Degrees a proper rational factor could have, given one mod-ell pattern."""
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    total = sum(pattern)
    return {s for s in sums if 0 < s < total}
