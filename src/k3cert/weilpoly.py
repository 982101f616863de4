"""Dense exact polynomials over Q and the root-location toolkit built on them.

A polynomial is a tuple of Fractions in ascending order of degree
(index i holds the coefficient of T^i); trailing zeros are trimmed and
the zero polynomial is the empty tuple, with degree -1.  In text a
polynomial is a comma-separated list of rationals starting at the
constant term, e.g. "1,1/7,1,1/7,1".

Newton polygon convention: for P with nonzero constant term, the polygon
at p is the lower convex hull of the points (i, val_p(c_i)) over the
nonzero coefficients c_i.  A segment of slope s and horizontal length l
certifies exactly l roots of P (in an algebraic closure of Q_p, counted
with multiplicity) of valuation -s.  For example T - p at p has the
single segment (-1, 1): one root of valuation +1.

Real root counting is exact, by Sturm chains.  For a squarefree f the
sign variations V(x) of the chain keep their value just right of a root
and drop by one just left of it, so V(lo) - V(hi) counts the distinct
roots in (lo, hi], endpoint roots included.  The chain is a remainder
sequence of (f, f'), so it ends in d, a constant multiple of gcd(f, f'),
and doubles as the squarefree test.  Dividing every member by d gives a
chain of the squarefree f / d, with the same V(x) wherever d(x) != 0; so
for any f the count V(lo) - V(hi) is that of the distinct roots when
d(lo) d(hi) != 0.  In particular, when d(2) d(-2) != 0, f has
V(-2) - V(2) distinct roots in (-2, 2], and one more at -2 if f(-2) = 0:
that is the window count `_window`, which reads each member by Horner's
rule at 2 and at -2.

A cheaper proof needs no chain.  If g of degree m takes nonzero values
of strictly alternating sign at points -2 = x_0 < x_1 < ... < x_m = 2,
then each (x_j, x_(j+1)) holds a root, so g has m simple roots, all in
(-2, 2): g is squarefree, g(2) g(-2) != 0, and its window count is m.
At a rational x = n / d with d > 0 the integer d^m g(n / d) has the
sign of g(x), so the test runs in Z.  The end values also refute: g has
a real root in (2, oo) when g(2) != 0 has the sign opposite to lc(g),
and one in (-oo, -2) when g(-2) != 0 has the sign opposite to
(-1)^m lc(g), as g takes the sign of its leading term far out.
`_alternation` reads both from the values; values that settle neither
prove nothing, and a Sturm chain decides.

The descent argument.  A palindrome L = T^m G(T + 1/T) of degree 2m
needs only the chain of G: its roots are the root pairs of T^2 - xT + 1
over the roots x of G, on the unit circle iff x is real in [-2, 2], and
a pair coincides only at x = +-2.  So a squarefree G whose window count
is below m gives an L with a root off the circle.  When G(2) G(-2) != 0,
the squarefree part of L is the transform of s = G / d, L is a power of
it iff G is the same power of s, L is squarefree iff d is a constant,
and all roots of L lie on the circle iff the window count of G is
deg s.  Neither T - 1 nor T + 1 divides L then, and for k >= 3,
Phi_k = T^(phi(k)/2) psi_k(T + 1/T) with psi_k irreducible, so Phi_k
divides L iff psi_k divides s, at half the degree.  Any other L (not a
palindrome, or a root of G at +-2) takes the circle test on its
squarefree part R with T - 1 and T + 1 divided out: the roots z of the
rest, none of them +-1, lie on the circle iff they pair up with
1/z = conj(z), that is iff the rest is a palindrome whose descent is
squarefree with its whole degree in the window.

The candidate analysis runs in Z[T]: its denominators are cleared once,
and the public functions wrap private kernels on primitive integer lists
obtained by positive scalings only (clearing denominators by a positive
lcm, dividing out a positive content, pseudo-dividing with the
multiplier |lc|).  A positive scaling moves neither a root nor a sign,
so every answer stays exact and equal to the one over Q.  The Newton
polygon is read in Z too: its hull has integer vertices, so each
segment is a pair (rise, run) of integers, and the slope profile, h, a
and the local irreducibility are read from those pairs.  `Fraction`
appears only in what is handed back: the slopes of the one
`NewtonPolygon` a report carries, and the squarefree part R of a
candidate.

Palindromes are read at half size.  Every L = T^m G(T + 1/T), and so
every candidate of the witness search, is a palindrome: f_i = f_(n-i)
for n = deg f.  Every basis polynomial T^(m-k) (T^2 + 1)^k of the
transform is a palindrome too, so the transform computes the upper half
of L and mirrors it, and the descent peels the upper half only.

Two integer screens run before the Z[T] kernels, and each can only rule
a fact out.  The root-of-unity screen is one remainder in Z at the
point N = 2^64.  Phi_k and psi_k are monic in Z[T], so Phi_k | f gives
f = Phi_k q with q in Z[T], and then the integer Phi_k(N) divides f(N).
Phi_k(N) > 0, as the roots of Phi_k lie on the unit circle, and
psi_k(N) > 0, as those of psi_k lie in (-2, 2).  So a nonzero f(N) mod
Phi_k(N), or s(N) mod psi_k(N), proves that Phi_k does not divide f, or
psi_k s.  A zero remainder proves nothing, and `_prem` decides.  N is a
power of two, so f(N) packs the coefficients of f into 64-bit digits
(Kronecker substitution).  A zero remainder without a factor needs the
remainder of f mod Phi_k, of degree < phi(k), to have a coefficient
near 2^63, so in practice `_prem` runs only on true factors.  The values
Phi_k(N) and psi_k(N) are cached per scan bound, never per input, and
each input is evaluated at N once.

The squarefree screen is one integer gcd at a power of two, after the
heuristic gcd GCDHEU of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
1989), used only as a one-sided proof that gcd(f, f') = 1.  With
M = max |f_i| and xi = 2^K for K = M.bit_length() + 32, every root of
f has modulus below 1 + M (Cauchy), so a primitive common factor d of
f and f' of degree >= 1, which divides both in Z[T] by Gauss's lemma,
has |d(xi)| > xi - 1 - M and divides gcd(f(xi), f'(xi)) != 0.  A gcd
of at most xi - 1 - M so proves f squarefree; a larger one proves
nothing, and the Sturm chain of f decides.  The screen's cost grows
with the bit size of f(xi).  On a degree-20 non-palindrome
`check_candidate` takes 0.09 ms at 64-bit coefficients,
0.6 ms at 1024-bit and 6.6 ms at 4096-bit ones (2-CPU x86_64 VM,
Python 3.11.7), where a Euclid of f and f' mod a 31-bit prime would
take 0.27 and 0.50 ms; the two cross between 2^384 and 2^512.  A
palindrome of that size already spends 18 and 230 ms in its Sturm
chain, and the coefficients of the search's candidates and of the
golden corpora stay below 2^32.  Only `_prem` reports a cyclotomic
factor, and only a nonconstant last member of a Sturm chain a repeated
root.

Beside the screens, the Newton polygon bounds the cyclotomic scan of the
candidate analysis: the roots of Phi_k have p-adic valuation 0, so
Phi_k | L needs phi(k) <= l_0, the length of the polygon's slope-0
segment (0 when there is none).  `has_cyclotomic_factor` has no p and
scans every k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .arith import _int_val, _Record, check_prime, format_rational, parse_rational, prime_factors

__all__ = [
    "IrreducibilityCertificate",
    "NewtonPolygon",
    "RatPoly",
    "cyclotomic",
    "cyclotomic_index_list",
    "denominators_are_p_power",
    "euler_phi",
    "format_poly",
    "has_cyclotomic_factor",
    "kronecker_certificate",
    "newton_polygon",
    "parse_poly",
    "poly_gcd",
    "reciprocal_transform",
    "squarefree_decompose",
    "strip_cyclotomic",
    "sturm_count",
    "symmetric_descent",
    "unit_circle_check",
]


class RatPoly(_Record):
    """Dense univariate polynomial over Q; immutable, normalized on construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        # a Fraction is kept as it is: converting it again costs 0.8 % of `cli` run in process
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        self._store(cs)

    @classmethod
    def of(cls, *coeffs) -> "RatPoly":
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, k: int, c=1) -> "RatPoly":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((Fraction(0),) * k + (Fraction(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RatPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            if self.is_zero or other.is_zero:
                return RatPoly(())
            # (A / D1) (B / D2) = A B / (D1 D2) for the cleared numerators A, B
            D1, a = _cleared(self.coeffs)
            D2, b = _cleared(other.coeffs)
            D = D1 * D2
            return RatPoly(tuple(Fraction(c, D) for c in _mul_ints(a, b)))
        return RatPoly(tuple(c * Fraction(other) for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, d = list(self.coeffs), other.degree
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for shift in range(len(q) - 1, -1, -1):
            factor = q[shift] = rem[shift + d] / other.leading
            if factor:
                for i, c in enumerate(other.coeffs):
                    rem[shift + i] -= factor * c
        return RatPoly(tuple(q)), RatPoly(tuple(rem[:d]))

    def __truediv__(self, other):
        """Exact division; raises when the divisor does not divide exactly."""
        if isinstance(other, RatPoly):
            q, r = divmod(self, other)
            if not r.is_zero:
                raise ValueError("inexact polynomial division")
            return q
        return RatPoly(tuple(c / Fraction(other) for c in self.coeffs))

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        return self / self.leading

    def __repr__(self) -> str:
        return f"RatPoly({format_poly(self)!r})"

    def to_json(self) -> str:
        return format_poly(self)


def _cleared(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(D, [c * D for c in coeffs]) with D > 0 the lcm of the denominators."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    D = math.lcm(*(d for _, d in ratios))
    return D, [n * (D // d) for n, d in ratios]


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by its content, the positive gcd of its entries."""
    g = math.gcd(*cs)
    # no copy at content 1, the common case: worth 3 % of `check`
    return cs if g <= 1 else [c // g for c in cs]


def _integer_multiple(P: RatPoly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of P."""
    return _primitive(_cleared(P.coeffs)[1])


def _prem(a: list[int], b: list[int] | tuple[int, ...]) -> list[int]:
    """A positive multiple of (a mod b), by pseudo-division in Z[T].

    Each step multiplies the running remainder by |lc(b)|, never by a
    negative number, so the result has the signs of the remainder over Q.
    """
    r = list(a)
    db = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) > db:
        c = r.pop()
        if c:
            shift = len(r) - db
            r = [scale * x for x in r]
            c *= sign
            for i in range(db):
                r[shift + i] -= c * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _prs(a: list[int], b: list[int]) -> list[list[int]]:
    """The primitive pseudo-remainder sequence of the primitive integer
    polynomials a and b, in Sturm's signs: a, b, then each member is the
    negated primitive part of `_prem` of the two before it, up to a
    constant or zero, and a final zero is dropped.  The last member is a
    primitive gcd of a and b, of either sign ([] if both are 0), as in
    Brown (J. ACM 18, 1971); for b = a' the sequence is a Sturm chain
    (see `_sturm_chain_ints`)."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _primitive(_prem(chain[-2], chain[-1]))])
    if not chain[-1]:
        chain.pop()
    return chain


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[T] for a primitive b dividing a over Q; by Gauss's lemma
    the quotient is then integral.  Raises ValueError otherwise."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for shift in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[shift + db], b[-1])
        if rem:
            raise ValueError("inexact polynomial division")
        q[shift] = c
        for i in range(db):
            r[shift + i] -= c * b[i]
    if any(r[:db]):
        raise ValueError("inexact polynomial division")
    return q


def _mul_ints(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (zero polynomial if both inputs are zero).

    Runs a primitive pseudo-remainder sequence on the integer multiples
    of f and g, then makes the last nonzero member monic.
    """
    return RatPoly(tuple(_prs(_integer_multiple(f), _integer_multiple(g))[-1])).monic()


def parse_poly(text: str) -> RatPoly:
    parts = [tok for tok in text.split(",")]
    if not parts or all(not tok.strip() for tok in parts):
        raise ValueError("empty coefficient list")
    return RatPoly(tuple(parse_rational(tok) for tok in parts))


def format_poly(p: RatPoly) -> str:
    if p.is_zero:
        return "0"
    return ",".join(format_rational(c) for c in p.coeffs)


@lru_cache(maxsize=None)
def _upper_row(k: int) -> tuple[tuple[int, int], ...]:
    """The pairs (t, C(k, j)) for k / 2 <= j <= k and t = 2j - k: the
    upper half of T^k (T + 1/T)^k = (T^2 + 1)^k, coefficient by coefficient
    of T^(k+t).  Cached: building each row per use costs 12 % of
    `construct` and 6 % of `check`."""
    return tuple((2 * j - k, math.comb(k, j)) for j in range((k + 1) // 2, k + 1))


def reciprocal_transform(f: RatPoly) -> RatPoly:
    """Return L(T) = T^m * f(T + 1/T) for m = deg f; L is self-reciprocal of degree 2m."""
    if f.is_zero:
        raise ValueError("cannot transform the zero polynomial")
    D, cs = _cleared(f.coeffs)
    return RatPoly(tuple(Fraction(c, D) for c in _transform_ints(cs)))


def _transform_ints(s: list[int]) -> list[int]:
    """T^n s(T + 1/T) for the nonzero integer s of degree n; `_descent_ints` inverts it.

    Each basis polynomial T^(n-k) (T^2+1)^k is a palindrome of degree 2n,
    so their sum is one too: only the coefficients of T^n ... T^2n are
    computed, and the lower half is their mirror image.
    """
    n = len(s) - 1
    # T^n (T + 1/T)^k = T^(n-k) (T^2+1)^k = sum_j C(k, j) T^(n-k+2j); top[t]
    # holds the coefficient of T^(n+t).  Skipping the zero c of the sparse
    # seeds, here and in `_descent_ints`, is worth 1 % of `construct`.
    top = [0] * (n + 1)
    for k, c in enumerate(s):
        if c:
            for t, b in _upper_row(k):
                top[t] += c * b
    return top[:0:-1] + top


def symmetric_descent(L: RatPoly) -> RatPoly | None:
    """Inverse of `reciprocal_transform`: the unique G with L = T^m * G(T + 1/T).

    Works by peeling off the basis polynomials T^(m-k) * (T^2+1)^k from the
    top degree down; returns None when L is not in their span (in
    particular whenever L is not self-reciprocal of even degree).
    """
    D, cs = _cleared(L.coeffs)
    g = _descent_ints(cs)
    return None if g is None else RatPoly(tuple(Fraction(c, D) for c in g))


def _descent_ints(f: list[int]) -> list[int] | None:
    """The integer g with sum_k g_k T^(m-k) (T^2+1)^k equal to f, of
    degree 2m; None when f is not in the span.

    Every basis polynomial is a palindrome of degree 2m, so the span holds
    only palindromes of odd length, and anything else gives None at once.
    A palindrome is always in it: peeling g_k = (the coefficient of
    T^(m+k)) times the k-th basis polynomial, from k = m down, keeps the
    rest a palindrome and clears its top coefficient, so only the upper
    half f[m:] is peeled, and its last step leaves the rest zero.
    """
    if len(f) % 2 == 0 or f != f[::-1]:
        return None
    m = len(f) // 2
    top = f[m:]  # top[t] is the coefficient of T^(m+t)
    g = [0] * (m + 1)
    for k in range(m, -1, -1):
        c = g[k] = top[k]
        if c:
            for t, b in _upper_row(k):
                top[t] -= c * b
    return g


def _sturm_chain_ints(a: list[int]) -> list[list[int]]:
    """Sturm chain of the nonzero integer polynomial a in Z[T]: each member
    is primitive and a positive multiple of the classical member, so it has
    the same signs.  The last member is a multiple of gcd(a, a'), a
    constant iff a is squarefree."""
    a = _primitive(a)
    return _prs(a, _primitive([i * c for i, c in enumerate(a)][1:]))


def _at(cs: list[int], x: int) -> int:
    """P(x) for P = cs at the integer x, by Horner's rule.  `_homogeneous`
    with d = 1 gives the same value with one more product per
    coefficient, which costs 2.5 % of `construct` and 3 % of `check`."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _homogeneous(cs: list[int], n: int, d: int) -> int:
    """d^k P(n / d) = sum_i c_i n^i d^(k-i) for P = cs of degree k; it has
    the sign of P(n / d) when d > 0."""
    acc, dk = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _variations(chain: list[list[int]], x: Fraction | int) -> int:
    return _sign_changes([_homogeneous(cs, x.numerator, x.denominator) for cs in chain])


def sturm_count(f: RatPoly, lo, hi) -> int:
    """Distinct real roots of a squarefree f in the half-open interval (lo, hi].

    Raises ValueError when f is zero or not squarefree (the chain of f
    ends in a nonconstant gcd(f, f')), or when lo >= hi.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    chain = _sturm_chain_ints(_cleared(f.coeffs)[1])
    if len(chain[-1]) > 1:
        raise ValueError("sturm_count requires a squarefree polynomial")
    return _variations(chain, lo) - _variations(chain, hi)


def unit_circle_check(L: RatPoly) -> bool:
    """A one-sided test that every complex root of L lies on the unit
    circle: True proves it.

    True needs L to be a palindrome of even degree 2m whose descent G
    (L = T^m * G(T + 1/T)) is squarefree with all m roots in [-2, 2], by
    one Sturm chain of G, so the test is exact for even-degree palindromes
    with a squarefree descent.  Any other L (odd degree, a non-palindrome
    such as an anti-palindrome, or a repeated symmetric factor) gives
    False, whatever its roots.  `check_candidate`'s `unit_circle` check
    gives the exact verdict for every candidate.
    """
    if L.is_zero or L.degree <= 0:
        return False
    return _unit_circle_ints(_cleared(L.coeffs)[1])


def _window(chain: list[list[int]]) -> tuple[int, int]:
    """(count, ends) for a Sturm chain: count is the number of distinct
    roots of chain[0] in [-2, 2] when the last member is nonzero at +-2
    (see the module docstring), and ends = chain[0](-2) chain[0](2).
    Each member is read at each end by `_at`."""
    at_two = [_at(cs, 2) for cs in chain]
    at_minus_two = [_at(cs, -2) for cs in chain]
    count = _sign_changes(at_minus_two) - _sign_changes(at_two) + (at_minus_two[0] == 0)
    return count, at_minus_two[0] * at_two[0]


def _sign_changes(values: list[int]) -> int:
    """The sign variations of values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descent_facts(g: list[int]) -> tuple[list[int], list[int], int | None]:
    """(g, d, count) for the nonzero integer g, by its Sturm chain: g made
    primitive, d the chain's last member, a primitive multiple of
    gcd(g, g'), and count the `_window` of g when g(2) g(-2) != 0, or None
    otherwise.  d divides g, so d(2) d(-2) != 0 then too.  The end values
    are those `_window` reads: g made primitive is a positive multiple of g.

    These are the descent facts `_analyse` reads, and it takes the descent
    path exactly when count is not None.  A caller that has proved them
    otherwise, g(2) g(-2) != 0 included, say by `_alternation`, hands them
    to `_analyse` with their count, and nothing is evaluated at +-2.
    """
    chain = _sturm_chain_ints(g)
    count, ends = _window(chain)
    return chain[0], chain[-1], count if ends else None


def _alternation(values: list[int]) -> bool | None:
    """What positive multiples of g(x_0), ..., g(x_m) prove, for g of
    degree m with lc(g) > 0 and points -2 = x_0 < ... < x_m = 2 (see the
    module docstring): True when they strictly alternate in sign, so g
    has m simple roots in (-2, 2); False when an end value has the wrong
    sign, so g has a real root outside [-2, 2]; None when they settle
    neither."""
    if all(u * v < 0 for u, v in zip(values, values[1:])):
        return True
    if values[-1] < 0 or (-1) ** (len(values) - 1) * values[0] < 0:
        return False
    return None


def _unit_circle_ints(f: list[int]) -> bool:
    """`unit_circle_check` on an integer multiple f of degree >= 1."""
    g = _descent_ints(f)
    if g is None:
        return False
    chain = _sturm_chain_ints(g)
    return len(chain[-1]) == 1 and _window(chain)[0] == len(chain[0]) - 1


def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError("euler_phi needs a positive integer")
    if k == 1:
        return 1
    out = 1
    for p, e in prime_factors(k).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def cyclotomic(k: int) -> RatPoly:
    """The k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    return RatPoly(_cyclotomic_ints(k))


@lru_cache(maxsize=None)
def _cyclotomic_ints(k: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_k, by the Moebius product.

    For k > 1, Phi_k = prod_{d | k} (1 - T^d)^mu(k/d): the signs of
    (T^d - 1)^mu(k/d) cancel because mu sums to 0 over the divisors.  The
    factors are units of Z[[T]], so the product runs as power series cut
    at degree phi(k), which loses nothing since Phi_k has that degree.
    Each squarefree s | k gives d = k / s and mu(s) = (-1)^(primes of s).
    Cached: `_first_factor` and `strip_cyclotomic` read Phi_k again for
    each factor they find (0.7 % of `check`).
    """
    if k == 1:
        return (-1, 1)
    primes = list(prime_factors(k))
    n = euler_phi(k)
    c = [1] + [0] * n
    for mask in range(1 << len(primes)):
        s = math.prod(q for i, q in enumerate(primes) if mask >> i & 1)
        d = k // s
        if mask.bit_count() % 2 == 0:  # times 1 - T^d
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
        else:  # times 1 / (1 - T^d) = 1 + T^d + T^2d + ...
            for i in range(d, n + 1):
                c[i] += c[i - d]
    return tuple(c)


def _cyclotomic_indices(maxdeg: int) -> tuple[int, ...]:
    # phi(k) >= sqrt(k/2) for every k >= 1, so scanning to 2*maxdeg^2 is enough;
    # a totient sieve gives every phi(k) up to there
    bound = 2 * maxdeg * maxdeg
    phi = list(range(bound + 1))
    for q in range(2, bound + 1):
        if phi[q] == q:  # q is prime: no smaller prime has touched it
            phi[q::q] = [v - v // q for v in phi[q::q]]
    return tuple(k for k in range(1, bound + 1) if phi[k] <= maxdeg)


def cyclotomic_index_list(maxdeg: int) -> list[int]:
    """All k >= 1 with euler_phi(k) <= maxdeg, ascending, as a fresh list."""
    if maxdeg < 1:
        return []
    return list(_cyclotomic_indices(maxdeg))


# The integer point of the root-of-unity screens; see the module docstring.
_SCREEN_POINT = 1 << 64


@lru_cache(maxsize=None)
def _cyclotomic_screen(maxdeg: int) -> tuple[tuple[int, int], ...]:
    """(k, Phi_k(N)) for the k with phi(k) <= maxdeg, N = `_SCREEN_POINT`."""
    return tuple((k, _at(_cyclotomic_ints(k), _SCREEN_POINT)) for k in _cyclotomic_indices(maxdeg))


def _first_factor(f: list[int], screen: tuple[tuple[int, int], ...], factor) -> int | None:
    """The first k of screen, pairs (k, P_k(N)) with N = `_SCREEN_POINT`,
    whose monic integer P_k = factor(k) divides the integer f, or None.

    f is evaluated at N once.  A nonzero f(N) mod P_k(N) rules P_k out
    (see the module docstring); a zero one proves nothing, and only
    `_prem` reports a factor.
    """
    at_n = _at(f, _SCREEN_POINT)
    for k, value in screen:
        if at_n % value == 0 and not _prem(f, factor(k)):
            return k
    return None


def has_cyclotomic_factor(L: RatPoly) -> int | None:
    """Smallest k with cyclotomic(k) dividing L, or None.

    Phi_k is monic in Z[T], so it divides L over Q iff it divides the
    integer polynomial f = D * L, where D clears the denominators of L;
    and pseudo-division by a monic divisor multiplies by 1, so `_prem`
    gives the exact remainder.  One integer screens each k first: if
    f = Phi_k * q, then q is in Z[T], so f(N) = Phi_k(N) q(N) at the
    integer point N = 2^64, where Phi_k(N) > 0.  A nonzero f(N) mod
    Phi_k(N) proves that Phi_k does not divide L; a zero one proves
    nothing and `_prem` decides, so only `_prem` reports a factor.
    """
    if L.is_zero:
        raise ValueError("zero polynomial")
    cs = _cleared(L.coeffs)[1]
    return _cyclotomic_index_ints(cs, len(cs) - 1)


def _cyclotomic_index_ints(f: list[int], flat: int) -> int | None:
    """`has_cyclotomic_factor` on a nonzero integer multiple f of L, over
    the k with phi(k) <= flat (see `_analyse`)."""
    # flat can exceed deg f: `_analyse` passes the flat length of L's
    # polygon with the squarefree part r of L = R^e, e times shorter; for
    # (1 + 2T + 3T^3)^2 at p = 7, deg r = 3 and flat = 6.  No Phi_k with
    # phi(k) > deg f divides f, so the min only bounds the scan.
    return _first_factor(f, _cyclotomic_screen(min(len(f) - 1, flat)), _cyclotomic_ints)


@lru_cache(maxsize=None)
def _psi_ints(k: int) -> tuple[int, ...]:
    """psi_k with Phi_k = T^(phi(k)/2) psi_k(T + 1/T), for k >= 3: the
    minimal polynomial of 2 cos(2 pi / k), monic in Z[x].  Cached:
    `_first_factor` reads psi_k again for each factor it finds (0.7 % of
    `check`)."""
    return tuple(_descent_ints(list(_cyclotomic_ints(k))))


@lru_cache(maxsize=None)
def _psi_screen(maxdeg: int) -> tuple[tuple[int, int], ...]:
    """(k, psi_k(N)) for the k >= 3 with phi(k) <= maxdeg, N = `_SCREEN_POINT`."""
    return tuple((k, _at(_psi_ints(k), _SCREEN_POINT)) for k in _cyclotomic_indices(maxdeg)[2:])


def _psi_index_ints(s: list[int], flat: int) -> int | None:
    """`_cyclotomic_index_ints(transform of s, flat)` for the integer s
    with s(2) s(-2) != 0, computed on s.

    The transform has no root +-1, so neither Phi_1 nor Phi_2 divides it.
    For k >= 3, Phi_k divides it iff the root 2 cos(2 pi / k) of the
    irreducible psi_k is a root of s, that is iff psi_k divides s.  The
    indices run in the same order, so the smallest k is the same.  psi_k
    is monic in Z[x], and psi_k(N) > 0 as its roots lie in (-2, 2), below
    N = 2^64, so `_first_factor` screens each k as for Phi_k.
    """
    return _first_factor(s, _psi_screen(min(2 * len(s) - 2, flat)), _psi_ints)


def strip_cyclotomic(P: RatPoly) -> tuple[RatPoly, list[int]]:
    """Divide out all cyclotomic factors, returning (quotient, removed indices).

    The removed indices form a multiset, in ascending order; P must have
    a nonzero constant term.  P is cleared once, and each Phi_k, monic in
    Z[T], divides the integer multiple exactly; each k found is the least
    one left, which keeps the order.
    """
    if P.is_zero or P.constant == 0:
        raise ValueError("strip_cyclotomic needs a nonzero constant term")
    D, f = _cleared(P.coeffs)
    removed: list[int] = []
    while (k := _cyclotomic_index_ints(f, len(f) - 1)) is not None:
        f = _divexact(f, _cyclotomic_ints(k))
        removed.append(k)
    return RatPoly(tuple(Fraction(c, D) for c in f)), removed


class NewtonPolygon(_Record):
    """Lower hull of a p-adic coefficient cloud, as (slope, length) segments.

    Slopes are strictly increasing Fractions, lengths positive integers;
    a segment (s, l) certifies l roots of valuation -s.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[Fraction, int], ...]) -> None:
        segments = tuple(segments)
        for (s1, l1), (s2, l2) in zip(segments, segments[1:]):
            if not s1 < s2:
                raise ValueError("polygon slopes must be strictly increasing")
        if any(l < 1 for _, l in segments):
            raise ValueError("polygon lengths must be positive")
        self._store(segments)

    @property
    def total_length(self) -> int:
        return sum(l for _, l in self.segments)

    def negative_segments(self) -> tuple[tuple[Fraction, int], ...]:
        """The initial run of segments with negative slope (possibly empty)."""
        return tuple((s, l) for s, l in self.segments if s < 0)

    def to_json(self) -> list:
        return [[format_rational(s), l] for s, l in self.segments]


def newton_polygon(P: RatPoly, p: int) -> NewtonPolygon:
    """Newton polygon of P at p; requires a nonzero constant term.

    The hull is built on the integer points (i, v_p(N_i)) of the cleared
    numerators N = D * P: v_p(N_i) = v_p(c_i) + v_p(D), and the shift
    v_p(D) cancels in every slope.
    """
    check_prime(p)
    if P.is_zero or P.constant == 0:
        raise ValueError("newton polygon needs a nonzero constant term")
    return _polygon(_polygon_ints(_cleared(P.coeffs)[1], p))


def _polygon_ints(f: list[int], p: int) -> list[tuple[int, int]]:
    """The segments of `newton_polygon` on a positive integer multiple f
    of P, as (rise, run): the hull's vertices are integer points, so a
    segment of slope s and length l has rise s * l in Z and run l > 0.

    The vertices of the lower convex hull of the points (i, v_p(f_i))
    over the nonzero f_i are found from left to right; a point on a
    segment between two others is no vertex.  A palindrome's hull is
    symmetric and could be built from its left half, but that saves only
    about 1 %: 0.9 us per `construct` operation and 0.4 us per `check`
    operation on perfbench's seed-7 inputs, of about 85 and 90 us each
    (2-CPU x86_64 VM, Python 3.11.7).  So every hull is read whole.
    """
    hull: list[tuple[int, int]] = []
    for x, c in enumerate(f):
        if c:
            y = _int_val(c, p)
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append((x, y))
    return [(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def _polygon(segs: list[tuple[int, int]]) -> NewtonPolygon:
    """The `NewtonPolygon` of the integer segments (rise, run) of a hull,
    whose slopes increase strictly and whose runs are positive, so the
    constructor's checks are skipped."""
    return NewtonPolygon._trusted(tuple((Fraction(rise, run), run) for rise, run in segs))


def squarefree_decompose(L: RatPoly) -> tuple[RatPoly, int] | None:
    """Write L = R^e with R squarefree and R(0) = 1, or None if impossible.

    L must satisfy L(0) = 1.  R is L divided by gcd(L, L'), rescaled so its
    constant term is 1; the exponent is then verified by exact powering.
    """
    if L.is_zero or L.constant != 1:
        raise ValueError("decomposition needs L(0) = 1")
    if L.degree == 0:
        return L, 1
    r, e = _squarefree_power_ints(_integer_multiple(L))
    return None if e is None else (RatPoly(tuple(Fraction(c, r[0]) for c in r)), e)


def _squarefree_power_ints(f: list[int]) -> tuple[list[int], int | None]:
    """(r, e) for a primitive integer f with f(0) > 0 and deg f >= 1: r is
    the primitive squarefree part of f, with the sign of lc(f), and e the
    exponent with f = r^e, or None when f is no power of r.

    One integer gcd screens f first: if `_coprime_to_derivative` holds,
    f is squarefree over Q, so r = f and e = 1.  Otherwise, which proves
    nothing, `_radical` divides f by the primitive gcd(f, f') that ends
    the Sturm chain of f.
    """
    if _coprime_to_derivative(f):
        return f, 1
    return _radical(f, _sturm_chain_ints(f)[-1])


def _radical(a: list[int], d: list[int]) -> tuple[list[int], int | None]:
    """(s, e) for a primitive integer a of degree >= 1 with lc(a) > 0 or
    a(0) > 0, and d a primitive multiple of gcd(a, a'): s = a / d, the
    squarefree part of a, and e the exponent with a = s^e, or None when a
    is no power of s.

    s is integral by Gauss's lemma, as in Yun (SYMSAC 1976), and
    primitive, as a is; its sign is that of lc(a).  So s^e and a are
    primitive and a = +-s^e over Q, if at all; a = -s^e cannot hold, since
    it gives lc(a) the sign opposite to lc(s) for odd e, and makes lc(a)
    and a(0) negative for even e.  Hence a = s^e exactly when the integer
    lists agree.
    """
    if len(d) == 1:
        # a is squarefree: returning it without a division is worth 5 % of
        # `construct` and `check`
        return a, 1
    s = _divexact(a, d)
    if (s[-1] < 0) != (a[-1] < 0):
        s = [-c for c in s]
    e, rem = divmod(len(a) - 1, len(s) - 1)
    if rem:
        return s, None
    power = s
    for _ in range(e - 1):
        power = _mul_ints(power, s)
    return s, (e if power == a else None)


def _coprime_to_derivative(f: list[int]) -> bool:
    """A one-sided proof that the integer f of degree >= 1 is squarefree
    over Q: True proves it, False proves nothing.

    With M = max |f_i|, f and f' are evaluated at xi = 2^K for
    K = M.bit_length() + 32, and True means gamma = gcd(f(xi), f'(xi))
    is at most xi - 1 - M, as in the heuristic gcd GCDHEU of Char, Geddes
    and Gonnet (J. Symbolic Comput. 7, 1989).  The proof: every root
    alpha of f has |alpha| < 1 + M (Cauchy, as |lc(f)| >= 1), so
    f(xi) != 0.  Were f not squarefree, a primitive d of degree >= 1
    would divide both f and f' in Z[T] (Gauss's lemma), so d(xi) would
    divide gamma != 0; and over the roots beta_j of d, all roots of f,
    |d(xi)| >= prod (xi - |beta_j|) > xi - 1 - M, as each factor exceeds
    xi - 1 - M >= 1.
    """
    M = max(map(abs, f))
    K = M.bit_length() + 32
    a = b = 0
    for i in range(len(f) - 1, 0, -1):
        a = (a << K) + f[i]
        b = (b << K) + i * f[i]
    a = (a << K) + f[0]
    return math.gcd(a, b) <= (1 << K) - 1 - M


def denominators_are_p_power(P: RatPoly, p: int) -> bool:
    """True when every coefficient denominator is a power of p (i.e. P is integral away from p)."""
    check_prime(p)
    D, cs = _cleared(P.coeffs)
    return not _off_p_indices(cs, D, p)


def _off_p_indices(cs: list[int], D: int, p: int) -> list[int]:
    """Indices i at which cs[i] / D, for D > 0, has a denominator that is
    not a power of p.

    With D = p^k u and u prime to p, that denominator D / gcd(cs[i], D)
    is a power of p iff u divides cs[i]; so u = 1, a D that is a power of
    p as for every witness of the search, gives [] without a scan.
    """
    u = D
    while u % p == 0:
        u //= p
    return [i for i, c in enumerate(cs) if c % u] if u > 1 else []


class IrreducibilityCertificate(_Record):
    """Outcome of the Kronecker-style irreducibility test.

    verdict is "certified" or "unknown"; premises records which of the
    four sufficient conditions held.  "unknown" makes no claim either way.
    """

    __slots__ = ("verdict", "premises", "detail")
    __hash__ = None  # it can hold a dict; see `arith._Record`

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


# What `_analyse` reads off a candidate; see there.
_Analysis = namedtuple("_Analysis", "polygon h a local local_irreducible r e on_circle cyc offending")


def _analyse(
    f: list[int], p: int, descent: tuple[list[int], list[int], int | None] | None = None
) -> _Analysis:
    """The `_Analysis` of the primitive integer multiple f of some L with
    L(0) = 1, at p:

      polygon    the Newton polygon, built once from the integer hull
      h, a       run and -rise of the hull's lone negative segment
                 (rise, run) when the hull is the symmetric shape
                 (rise, run), [(0, *)], (-rise, run); else None
      local      (rise / g, run / g, run / e) for that segment and
                 g = gcd(rise, run) when L = R^e: the slope of R's local
                 factor in lowest terms and its length, as R's polygon is
                 L's with every run divided by e; None when the negative
                 part is empty or splits by slope, or e is None
      local_irreducible
                 whether local is set and that factor is irreducible over
                 Q_p, that is its length is its slope's denominator, or
                 g = e; `check_candidate` and `kronecker_certificate` both
                 read it
      r, e       as in `_squarefree_power_ints`
      on_circle  whether every root of L lies on the unit circle
      cyc        the smallest k with Phi_k dividing L, or None
      offending  the indices of the coefficients of L whose denominator
                 is not a power of p

    The hull is read here and only here, in Z: its slope-0 segment is the
    one of rise 0, and the cyclotomic scan covers only the k with
    phi(k) <= the length of that segment (see the module docstring).  A
    local factor whose length equals the denominator of its slope is
    irreducible over Q_p: the slope is then in lowest terms over exactly
    that many roots.

    The paths are those of the descent argument in the module docstring.
    A palindrome f of even degree descends to the primitive g, and its
    descent facts (g, d, count) are those of `_descent_facts`; a caller
    that has proved them passes them, and otherwise one Sturm chain of g
    gives them.  The descent path is taken exactly when count is not
    None, that is when g(2) g(-2) != 0.  There `_radical` gives s = g / d
    and e with g = s^e (lc(g) = f(0) > 0), and r is the transform of s,
    with L = R^e because the transform is multiplicative and one-to-one;
    the cyclotomic scan runs on s (`_psi_index_ints`).
    """
    segs = _polygon_ints(f, p)
    flat = next((run for rise, run in segs if rise == 0), 0)
    if descent is None and (g := _descent_ints(f)) is not None:
        descent = _descent_facts(g)
    g, d, count = descent or (None, None, None)
    if count is not None:
        s, e = _radical(g, d)
        # for e = 1, s is g and its transform is f: worth 4 % of `construct`
        r = f if e == 1 else _transform_ints(s)
        on_circle = count == len(s) - 1
        cyc = _psi_index_ints(s, flat)
    else:
        r, e = _squarefree_power_ints(f)
        rest = r
        for root in (1, -1):  # each divides the squarefree r at most once
            if _at(rest, root) == 0:
                rest = _divexact(rest, [-root, 1])
        on_circle = len(rest) == 1 or _unit_circle_ints(rest)
        cyc = _cyclotomic_index_ints(r, flat)
    h = a = local = None
    local_irreducible = False
    # the slopes increase, so the negative segments come first
    if segs and segs[0][0] < 0 and (len(segs) == 1 or segs[1][0] >= 0):
        rise, run = segs[0]
        # the symmetric shape is (rise, run), [(0, flat)], (-rise, run)
        if len(segs) == 2 + (flat > 0) and segs[-1] == (-rise, run):
            h, a = run, -rise
        if e is not None:
            gcd = math.gcd(rise, run)
            local = rise // gcd, run // gcd, run // e
            local_irreducible = gcd == e
    return _Analysis(_polygon(segs), h, a, local, local_irreducible, r, e, on_circle, cyc, _off_p_indices(f, f[0], p))


def kronecker_certificate(R: RatPoly, p: int) -> IrreducibilityCertificate:
    """Certify that R is irreducible over Q, or report "unknown".

    R must be squarefree with R(0) = 1; `_analyse` proves that and gives
    every premise, as in `check_candidate`.
    The sufficient premises: the Newton polygon of R at p is the symmetric
    pure-slope shape with coprime (a, h); R has no cyclotomic factor; all
    roots of R lie on the unit circle; and every coefficient denominator
    is a power of p.  Together these force irreducibility: any proper factor with
    unit-root constraints would be cyclotomic by Kronecker's theorem.
    The slope premise is read from the analysis: h and a are set, and the
    local factor, here R's whole negative part, is irreducible, that is
    gcd(a, h) = 1.
    """
    check_prime(p)
    if R.is_zero or R.constant != 1:
        raise ValueError("certificate needs R(0) = 1")
    analysis = _analyse(_integer_multiple(R), p)
    if analysis.e != 1:
        raise ValueError("certificate needs a squarefree polynomial")
    detail: dict = {"segments": analysis.polygon.to_json()}
    pure = analysis.h is not None and analysis.local_irreducible
    if analysis.h is not None:
        detail.update({"h": analysis.h, "a": analysis.a if pure else None})
    if analysis.cyc is not None:
        detail["cyclotomic_index"] = analysis.cyc
    premises = {
        "pure_negative_slope": pure,
        "no_cyclotomic_factor": analysis.cyc is None,
        "unit_circle": analysis.on_circle,
        "denominators_p_power": not analysis.offending,
    }
    verdict = "certified" if all(premises.values()) else "unknown"
    return IrreducibilityCertificate(verdict, premises, detail)
