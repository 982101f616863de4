"""Exact arithmetic over Q: valuations, square classes, and local symbols.

Rationals enter as `fractions.Fraction`, so numerators and denominators
are coprime and denominators positive; Hilbert symbols are read from the
integer num * den in the square class.  In text and JSON a rational is
written "num/den", with the "/den" part omitted when the denominator is 1.

Places of Q are the finite primes together with the single real place,
spelled "inf".  Classes in the 2-torsion of a Brauer group are returned
additively as bits: 0 is the trivial class, 1 the nontrivial one, and
classes combine by XOR.  In particular `hilbert(a, b, v) == 0` means the
conic z^2 = a*x^2 + b*y^2 has a nontrivial point over the completion of
Q at v.

The package's records (`SquareClass`, `Place`, the polynomial, report and
lattice records of the other modules) derive from `_Record`: immutable
value classes that declare their fields as `__slots__`.  `_Record` owns
the writing of their fields: when a class is made, one `exec` compiles two
functions whose parameters are its slots, in order, as
`collections.namedtuple` compiles its `__new__`.  `_store(self, ...)`
stores each argument in its slot; `_trusted(...)`, a classmethod, builds a
record from its fields without calling `__init__`.  A record that checks
and normalises nothing declares only its slots (and, in `_defaults`, the
default values of its last fields), and `_store` is its `__init__`, with
real parameter names, Python's own `TypeError`s and the speed of a
hand-written one.  A record that checks or copies its arguments writes its
own `__init__`, which ends in one `self._store(...)`; a caller that has
proved what that `__init__` would check builds the record with
`_trusted`, and says in a comment why each check holds.  The callers:
`square_class` and `SquareClass.__mul__` (a product of distinct primes),
`qform.invariants` and `complement_invariants` (a `Place` of a prime found
by factoring, and the `SpaceInvariants` they compute),
`k3lattice.rationalize` (a `QuadSpace` of square-class representatives),
`weilpoly._polygon` and `condition._mirrored`.  No other code writes a
slot.  Compiling the two functions costs about 0.07 ms for two fields and
0.18 ms for eight, 1.7 ms for all sixteen record classes (Python 3.11,
2-CPU VM).
`_Record` reads the fields in slot order through one `operator.attrgetter`
and gives field-wise `==` and `hash`, the repr `Name(field=value, ...)`,
pickling by constructor call, and an `AttributeError` on any assignment
or deletion.  One rule decides hashing, by class and not by value: a
record whose class has a field that can hold a dict, directly or through
another record, sets `__hash__ = None`, so `hash` raises `TypeError`
whatever its values are, as for a dict; every other record hashes by its
fields.  One rule gives a record's JSON: `to_json` maps its fields, in
slot order, to their values converted by `_json`, which writes a record
by its own `to_json`, a tuple or list as a new list and a dict as a new
dict, their items converted in turn, and anything else as it is, so no
list or dict of a document is one the record holds.  A record whose JSON
is not that, say a bare list, other keys or a derived value, overrides
`to_json`; a `RatPoly` is the text of `weilpoly.format_poly`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress
from operator import attrgetter

__all__ = [
    "INF",
    "INFINITE_PLACE",
    "Place",
    "SquareClass",
    "check_prime",
    "companion_prime",
    "format_rational",
    "hilbert",
    "is_prime",
    "legendre",
    "next_progression_prime",
    "parse_rational",
    "prime_factors",
    "square_class",
    "support_primes",
    "val_p",
]


class _Infinity:
    """The valuation of zero: beats every integer and absorbs addition."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = _Infinity()

class _Record:
    """Base of the immutable records; a subclass names its fields in `__slots__`."""

    __slots__ = ()
    # the default values of a generated `__init__`'s last parameters
    _defaults = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        get = attrgetter(*fields)
        # the field values as a tuple, also for a single field
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))
        # the only code that writes a record's slots; its own __setattr__
        # refuses every assignment
        names = ", ".join(fields)
        stores = "".join(f"\n    _assign(self, {name!r}, {name})" for name in fields)
        namespace = {"_assign": object.__setattr__, "_new": object.__new__}
        exec(
            f"def _store(self, {names}):{stores}\n"
            f"def _trusted(cls, {names}):\n    self = _new(cls){stores}\n    return self",
            namespace,
        )
        store, trusted = namespace["_store"], namespace["_trusted"]
        plain = "__init__" not in cls.__dict__
        store.__qualname__ = f"{cls.__qualname__}.{'__init__' if plain else '_store'}"
        trusted.__qualname__ = f"{cls.__qualname__}._trusted"
        store.__module__ = trusted.__module__ = cls.__module__
        if plain:
            store.__defaults__ = cls._defaults
            cls.__init__ = store
        cls._store, cls._trusted = store, classmethod(trusted)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json(self):
        """The fields in slot order, their values converted by `_json`."""
        return {name: _json(value) for name, value in zip(self.__slots__, self._values(self))}


def _json(value):
    """A field value as JSON: a record by its `to_json`, a tuple or list as
    a new list and a dict as a new dict, their items converted; anything
    else as it is."""
    if isinstance(value, _Record):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    return value


# Witness set proven sufficient for deterministic Miller-Rabin far beyond
# 2**64; the 2**64 cap below keeps the guarantee comfortably inside the
# proven range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0 or n >= 1 << 64:
        raise ValueError(f"primality test supports 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # the witnesses are the primes below 41, and a composite n < 41^2
        # has a prime factor below sqrt(n); sparing the lattice cases'
        # auxiliary primes a Miller-Rabin run is worth 7 % of `lattice`
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    return p


def val_p(x, p: int):
    """p-adic valuation of a rational; val_p(0) is the INF sentinel."""
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        return INF
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


def _int_val(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n; the caller has checked that p is prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {0, 1, -1}; p must be an odd prime."""
    check_prime(p)
    if p == 2:
        raise ValueError("legendre symbol needs an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    marks = bytearray([1]) * bound
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if marks[p]:
            marks[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(compress(range(bound), marks))


# trial division tries the primes below 2**10, then the odd numbers above them
_SMALL_PRIMES = _sieve(1 << 10)
_TRIAL_DIVISORS = (_SMALL_PRIMES, range(_SMALL_PRIMES[-1] + 2, 1 << 20, 2))


def prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| > 0, in ascending order of the primes.

    Trial division tries the primes below 2**10, from a table sieved once
    at import, then the odd numbers up to 2**20, and stops once the
    divisor's square passes the cofactor.  When every divisor has been
    tried, the cofactor left has no factor below 2**20: it must be a
    proven prime < 2**64 or the square of one, and any other is refused
    with a `ValueError`.
    """
    number = n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    # a loop per run of divisors, not one over their chain, which costs
    # more per divisor (2 % of `lattice`)
    for divisors in _TRIAL_DIVISORS:
        for d in divisors:
            if d * d > n:
                break
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
        else:
            continue  # every divisor of the run was tried: on to the next run
        break  # the divisor's square passed the cofactor
    else:
        # every divisor below 2**20 was tried, and none divides the cofactor
        if (r := math.isqrt(n)) ** 2 == n and r < 1 << 64 and is_prime(r):
            return out | {r: 2}
        if n >= 1 << 64 or not is_prime(n):
            raise ValueError(f"cannot factor {number}: cofactor {n} is not a proven prime")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class SquareClass(_Record):
    """An element of Q*/(Q*)^2, stored as a sign and a squarefree positive part."""

    __slots__ = ("sign", "sqfree")

    def __init__(self, sign: int, sqfree: int) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sqfree < 1:
            raise ValueError("squarefree part must be positive")
        if sqfree > 1 and any(e > 1 for e in prime_factors(sqfree).values()):
            raise ValueError(f"{sqfree} is not squarefree")
        self._store(sign, sqfree)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        g = math.gcd(self.sqfree, other.sqfree)
        # (a/g)(b/g) is squarefree for squarefree a and b
        return SquareClass._trusted(self.sign * other.sign, (self.sqfree // g) * (other.sqfree // g))

    @property
    def is_trivial(self) -> bool:
        return self.sign == 1 and self.sqfree == 1

    def representative(self) -> int:
        """The canonical integer representative sign * sqfree."""
        return self.sign * self.sqfree

    def __str__(self) -> str:
        return str(self.representative())


def square_class(x) -> SquareClass:
    """Image of a nonzero rational in Q*/(Q*)^2."""
    if type(x) is int:
        # an int is its own num * den; building no Fraction for the ints of
        # `rationalize` and `CMFieldData` is worth 2 % of `lattice`
        v = x
    else:
        # num/den and num*den differ by the square den^2
        x = Fraction(x)
        v = x.numerator * x.denominator
    if v == 0:
        raise ValueError("0 has no square class")
    # a product of distinct primes is squarefree
    return SquareClass._trusted(1 if v > 0 else -1, math.prod(_sqfree_primes(v)))


def _sqfree_primes(v: int) -> list[int]:
    """The primes of odd exponent in the nonzero integer v, ascending:
    those dividing the squarefree part of its square class."""
    return [p for p, e in prime_factors(v).items() if e % 2]


class Place(_Record):
    """A place of Q: a finite prime, or the real place (prime=None)."""

    __slots__ = ("prime",)

    def __init__(self, prime: int | None = None) -> None:
        if prime is not None:
            check_prime(prime)
        self._store(prime)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def parse(cls, token: str) -> "Place":
        token = token.strip()
        if token in ("inf", "infinity", "oo"):
            return cls(None)
        if not _INTEGER_RE.match(token):
            raise ValueError(f"cannot parse place {token!r}")
        return cls.finite(int(token))

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def sort_key(self) -> tuple[int, int]:
        return (1, 0) if self.prime is None else (0, self.prime)

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


INFINITE_PLACE = Place(None)


def _hasse_bit(values, p: int | None) -> int:
    """Hasse bit sum_{i<j} (a_i, a_j)_v mod 2 of nonzero integers a_i (Serre, IV.2.1).

    The place v is the prime p, or the real place for p = None.  Places
    are plain integers here, so a caller holding primes it has just found
    (by factoring) reads a bit without building a `Place` or re-proving
    that p is prime; `hilbert` passes `place.prime`.

    Serre, *A Course in Arithmetic*, III.1, Thm. 1: at the real place the
    symbol is 1 iff both entries are negative, so the sum is C(k, 2) for k
    negative entries.  At a prime p each a_i splits once as p^alpha_i * u_i,
    and the symbol is bilinear in alpha_i mod 2 and a character chi_i of the
    unit u_i (Euler's criterion at odd p, omega at p = 2).  With A and X the
    sums of alpha_i and chi_i, the sum is A X - sum alpha_i chi_i, plus
    eps(p) C(A, 2) at odd p or C(E, 2), E = sum eps(u_i), at p = 2.

    At odd p, A X - sum alpha_i chi_i = sum_i chi_i (A - alpha_i), which mod
    2 is the sum of chi_i over the i with alpha_i != A (mod 2).  There chi
    is the character of F_p* with kernel the squares, so that sum is chi of
    the product of those u_i mod p: one Euler symbol per odd place, which
    `_odd_place_bit` closes with the eps(p) C(A, 2) term.  `qform.invariants`
    calls it directly, with A and the product read off its factorisations.
    """
    if p is None:
        k = sum(1 for a in values if a < 0)
        return k * (k - 1) // 2 % 2
    if p == 2:
        A = E = X = cross = 0
        for a in values:
            v = _int_val(a, 2)
            u, alpha = a // 2**v, v % 2
            chi = u % 8 in (3, 5)
            E += (u - 1) // 2 % 2  # eps(u)
            A, X, cross = A + alpha, X + chi, cross + alpha * chi
        return (E * (E - 1) // 2 + A * X - cross) % 2
    A = 0
    units = [1, 1]  # products mod p of the u_i with alpha_i even, odd
    for a in values:
        alpha = 0
        while a % p == 0:
            a //= p
            alpha ^= 1
        A += alpha
        units[alpha] = units[alpha] * a % p
    return _odd_place_bit(A, units[1 - A % 2], p)


def _odd_place_bit(A: int, u: int, p: int) -> int:
    """The Hasse bit at an odd prime p, from A, the number of entries of odd
    valuation there, and u, the product of the units of the entries whose
    valuation parity differs from A's: chi(u) + eps(p) C(A, 2) (see `_hasse_bit`)."""
    chi = pow(u, (p - 1) // 2, p) != 1
    return ((p - 1) // 2 * (A * (A - 1) // 2) + chi) % 2


def hilbert(a, b, place: Place) -> int:
    """Hilbert symbol of (a, b) at a place of Q, as an additive bit: `_hasse_bit` of each num * den."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    return _hasse_bit((a.numerator * a.denominator, b.numerator * b.denominator), place.prime)


def support_primes(values) -> set[int]:
    """Primes dividing the numerator or denominator of any of the values."""
    primes: set[int] = set()
    for v in values:
        v = Fraction(v)
        if v == 0:
            raise ValueError("support of 0 is undefined")
        primes.update(prime_factors(v.numerator * v.denominator))
    return primes


def next_progression_prime(p: int, x: int) -> int:
    """Smallest prime q with q = x (mod p) and q = 3 (mod 4).

    p must be an odd prime and x coprime to p; the result is automatically
    odd.  Used to pick auxiliary primes sitting in a prescribed residue
    class.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("modulus must be an odd prime")
    if x % p == 0:
        raise ValueError("residue must be coprime to p")
    r = x % p
    while r % 4 != 3:
        r += p
    q = r
    while True:
        if is_prime(q):
            return q
        q += 4 * p


def companion_prime(p1: int) -> int:
    """Smallest odd prime q = 3 (mod 4), q != p1, with the prescribed symbol mod p1.

    The prescription is legendre(q, p1) = +1 when p1 = 3 (mod 4) and -1
    when p1 = 1 (mod 4); this is what makes the auxiliary rank-3 diagonal
    block of the rank-8 and rank-6 lattice cases carry the right local
    invariants.
    """
    check_prime(p1)
    if p1 == 2:
        raise ValueError("p1 must be an odd prime")
    want = 1 if p1 % 4 == 3 else -1
    q = 3
    while True:
        if q != p1 and is_prime(q) and legendre(q, p1) == want:
            return q
        q += 4


def format_rational(x) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# An integer in text, after its blanks are stripped: ASCII digits with an
# optional sign.  `int` would also read digit-group underscores ("1_1")
# and any Unicode digit ("\u0667" is 7); `Place.parse`, `parse_rational`
# and the command line's integers all read this grammar.
_INTEGER = "[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER + r"\Z")
_RATIONAL_RE = re.compile(_INTEGER + r"(/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' with integer parts; anything else is an error.

    Decimal notation is rejected on purpose: every quantity in this package
    is exact, and a stray '0.1' should fail loudly instead of being
    reinterpreted as 1/10.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"cannot parse rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
