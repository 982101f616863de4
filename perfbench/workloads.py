"""Seeded inputs, operations and output checks for the four benchmark workloads.

Every workload yields its operations in *blocks*: one block holds one
operation of each stratum the workload mixes (degree, operation type or
subcommand), in seeded order.  A time-bounded run that stops anywhere
has therefore seen nearly the same mix as any other run, whatever the
seed, which keeps run-to-run spread low.

The inputs are built here, with this file's own exact polynomial code,
and the library only ever receives them.  The output checks use no
library code either: they compare each result with the label the input
was built with, or with an invariant computed here (square classes,
signatures, Hilbert reciprocity).  A check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

PRIMES = (5, 7, 11, 13)

# Passing witnesses are L = T^m F(T + 1/T) with F = seed_m + p^(-a) T^(m-h).
# For each p, one digit a per (m, h) in the order m = 1..10, h = 1..m: the
# exponent that makes L pass the six-part test.  These are facts about the
# polynomials, so they stay valid whatever search the constructor uses.
WITNESS_A = {
    5: "1111112111211112111113523152232111113525251314343251111",
    7: "1111112111111112111113523152211111113523151313343251111",
    11: "1111111111111111111112323152211111112323151113323211111",
    13: "1111111111111111111112323152211111112323151113323211111",
}

# Totally real seeds: monic, integral, m distinct real roots in (-2, 2).
_LINEAR = (-1, 1)
_SQ1 = (-1, 0, 1)
_SQ2 = (-2, 0, 1)
_SQ3 = (-3, 0, 1)
_CUBIC = (1, -3, 0, 1)
_QUARTIC = (1, 0, -4, 0, 1)
_SEED_FACTORS = {
    1: (_LINEAR,),
    2: (_SQ1,),
    3: (_CUBIC,),
    4: (_QUARTIC,),
    5: (_SQ1, _CUBIC),
    6: (_SQ1, _QUARTIC),
    7: (_CUBIC, _QUARTIC),
    8: (_SQ1, _SQ2, _QUARTIC),
    9: (_SQ1, _CUBIC, _QUARTIC),
    10: (_SQ1, _SQ2, _SQ3, _QUARTIC),
}

# Small cyclotomic polynomials, for the strip requests of the cli mix.
_CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}


# ---------------------------------------------------------------- polynomials
# Ascending tuples of Fractions, trimmed of trailing zeros.


def _trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(f, g) -> tuple:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def padd(f, g) -> tuple:
    n = max(len(f), len(g))
    return _trim((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def witness_a(p: int, m: int, h: int) -> int:
    return int(WITNESS_A[p][(m - 1) * m // 2 + h - 1])


def witness(p: int, m: int, h: int) -> tuple:
    """The degree-2m witness for (p, m, h): T^m F(T + 1/T)."""
    f = (Fraction(1),)
    for factor in _SEED_FACTORS[m]:
        f = pmul(f, _trim(factor))
    f = padd(f, (0,) * (m - h) + (Fraction(1, p ** witness_a(p, m, h)),))
    out: tuple = ()
    power = (Fraction(1),)  # (T^2 + 1)^k
    for k, c in enumerate(f):
        out = padd(out, pmul((0,) * (m - k) + (c,), power))
        power = pmul(power, _trim((1, 0, 1)))
    return out


def format_coeffs(cs) -> str:
    return ",".join(str(c) for c in cs)


def squarefree_part(n: int) -> int:
    n = abs(n)
    out, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def square_class(x: Fraction) -> tuple[int, int]:
    """(sign, squarefree part) of a nonzero rational, the class in Q*/Q*^2."""
    v = x.numerator * x.denominator
    return (1 if v > 0 else -1, squarefree_part(v))


def _det_class(entries) -> tuple[int, int]:
    sign, sqf = 1, 1
    for e in entries:
        s, q = square_class(Fraction(e))
        sign *= s
        sqf *= q
    return sign, squarefree_part(sqf)


def _reciprocity_problem(hasse_json: dict, what: str) -> list[str]:
    # The Hasse bits of a global space are 1 at an even number of places.
    if len(hasse_json) % 2:
        return [f"{what}: Hasse bit 1 at an odd number of places {sorted(hasse_json)}"]
    return []


class Cycle:
    """Seeded draws that run through every value before any repeats.

    Drawing (p, h) this way instead of independently keeps the cost of a
    run's operations nearly the same from seed to seed: how long a
    check takes depends on p and h.
    """

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.rng.sample(self.values, len(self.values))
        return self.pending.pop()


class Draws:
    """One (p, h) Cycle pair per stratum key, for h in 1..m."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cycles: dict = {}

    def draw(self, key, m: int) -> tuple[int, int]:
        if key not in self.cycles:
            self.cycles[key] = (Cycle(self.rng, PRIMES), Cycle(self.rng, range(1, m + 1)))
        p_cycle, h_cycle = self.cycles[key]
        return p_cycle.draw(), h_cycle.draw()


# ------------------------------------------------------------------ construct


class Construct:
    """One `construct_witness` call per operation (even_h route for m = 10, even h).

    A block holds every (p, m, h) with p in {5, 7, 11, 13} and
    1 <= h <= m <= 10, 220 operations, in seeded order.  The cost of a
    search depends on p, m and h, and the median and p90 of 110 ops drawn
    from this grid moved by 6-7 % from seed to seed; with the whole grid
    every seed costs the same.
    """

    name = "construct"

    def __init__(self, rng: random.Random, lib):
        self.rng = rng
        self.lib = lib

    def blocks(self):
        while True:
            block = [(p, m, h) for p in PRIMES for m in range(1, 11) for h in range(1, m + 1)]
            self.rng.shuffle(block)
            yield block

    def warm_up(self) -> None:
        fill_cyclotomic_cache(self.lib)
        self.run((7, 4, 2))

    def run(self, op):
        p, m, h = op
        if m == 10 and h % 2 == 0:
            return self.lib.construct_witness_even_h(p, h)
        return self.lib.construct_witness(p, m, h)

    def check(self, op, result) -> list[str]:
        p, m, h = op
        L, report = result
        e = 2 if m == 10 and h % 2 == 0 else 1
        got = (report.verdict, report.m, report.h, report.e, L.degree)
        if got != ("pass", m, h, e, 2 * m):
            return [f"construct{op}: (verdict, m, h, e, degree) = {got}"]
        if L.coeffs != L.coeffs[::-1] or L.coeffs[0] != 1:
            return [f"construct{op}: witness is not a palindrome with constant term 1"]
        return []

    def to_json(self, op, result):
        L, report = result
        return {"op": list(op), "coeffs": format_coeffs(L.coeffs), "report": report.to_json()}


def fill_cyclotomic_cache(lib) -> None:
    """Fill the cyclotomic cache up to degree 20, as any long-lived caller would."""
    lib.has_cyclotomic_factor(lib.RatPoly(witness(7, 10, 1)))


# ---------------------------------------------------------------------- check


def check_item(rng: random.Random, kind: str, p: int, m: int, h: int):
    """One labelled candidate built from the (p, m, h) witness: (coefficients, label).

    The label is (verdict, failed checks that must appear, further checks
    that may also fail, invariants (m, h, e, a) expected of a pass).
    """
    L = witness(p, m, h)
    a = witness_a(p, m, h)
    if kind == "witness":
        return L, ("pass", frozenset(), frozenset(), (m, h, 1, a))
    if kind == "squared":
        return pmul(L, L), ("pass", frozenset(), frozenset(), (2 * m, 2 * h, 2, 2 * a))
    if kind == "cyclotomic":
        # times Phi_4: still on the circle, same denominators, polygon only
        # gains a flat segment, so exactly the root-of-unity check fails
        return pmul(L, _trim(_CYCLOTOMIC[4])), ("fail", frozenset({"no_root_of_unity"}), frozenset(), None)
    if kind == "denominator":
        # scale an interior pair by an off-p prime: valuations at p are
        # unchanged, denominators are not p-powers, and the roots may move
        # off the circle or onto a root of unity
        i = rng.choice([k for k in range(1, m + 1) if L[k] != 0])
        r = rng.choice([q for q in (2, 3) + PRIMES if q != p and L[i].numerator % q])
        cs = list(L)
        cs[i] /= r
        if i != m:
            cs[2 * m - i] /= r
        label = ("fail", frozenset({"integral_away_from_p"}), frozenset({"unit_circle", "no_root_of_unity"}), None)
        return tuple(cs), label
    if kind == "palindrome":
        # multiply one coefficient off the middle by the p-adic unit 1 + p:
        # no longer palindromic, so not all roots lie on the unit circle, while
        # valuations and denominators are unchanged; the change can make a
        # root of unity a root
        i = rng.choice([k for k in range(1, 2 * m + 1) if k != m and L[k] != 0])
        cs = list(L)
        cs[i] *= 1 + p
        return tuple(cs), ("fail", frozenset({"unit_circle"}), frozenset({"no_root_of_unity"}), None)
    raise ValueError(kind)


# (kind, m) strata: degrees 2..20 for every kind that reaches them.
CHECK_STRATA = (
    [("witness", m) for m in range(1, 11)]
    + [("squared", m) for m in range(1, 6)]
    + [("cyclotomic", m) for m in range(1, 10)]
    + [("denominator", m) for m in range(1, 11)]
    + [("palindrome", m) for m in range(1, 11)]
)


def check_report_problems(what: str, label, verdict, failed, invariants) -> list[str]:
    want_verdict, must_fail, may_fail, want_invariants = label
    problems = []
    if verdict != want_verdict:
        problems.append(f"{what}: verdict {verdict}, expected {want_verdict}")
    if not must_fail <= failed or not failed <= must_fail | may_fail:
        problems.append(f"{what}: failed checks {sorted(failed)}, expected {sorted(must_fail)}")
    if want_invariants is not None and invariants != want_invariants:
        problems.append(f"{what}: (m, h, e, a) = {invariants}, expected {want_invariants}")
    return problems


class Check:
    """One `check_candidate` call per operation over a labelled corpus."""

    name = "check"

    def __init__(self, rng: random.Random, lib):
        self.rng = rng
        self.lib = lib

    def blocks(self):
        draws = Draws(self.rng)
        while True:
            block = []
            for kind, m in CHECK_STRATA:
                p, h = draws.draw((kind, m), m)
                cs, label = check_item(self.rng, kind, p, m, h)
                block.append((kind, p, self.lib.RatPoly(cs), label))
            self.rng.shuffle(block)
            yield block

    def warm_up(self) -> None:
        fill_cyclotomic_cache(self.lib)
        self.lib.check_candidate(self.lib.RatPoly(witness(7, 4, 2)), 7)

    def run(self, op):
        _, p, L, _ = op
        return self.lib.check_candidate(L, p)

    def check(self, op, report) -> list[str]:
        kind, p, L, label = op
        invariants = (report.m, report.h, report.e, report.a)
        return check_report_problems(
            f"check {kind} p={p} degree={L.degree}", label, report.verdict, set(report.failed_checks), invariants
        )

    def to_json(self, op, report):
        kind, p, L, _ = op
        return {"kind": kind, "p": p, "coeffs": format_coeffs(L.coeffs), "report": report.to_json()}


# -------------------------------------------------------------------- lattice

AUX_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47)
SPLIT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
ODD_PRIMES = tuple(q for q in range(3, 200, 2) if all(q % d for d in range(3, q, 2)))


def lattice_request(rng: random.Random, m: int):
    """(m, n, p1, split table) for the case table, with p1 only for m in {7, 8}."""
    n = rng.randint(1, 400)
    p1 = rng.choice(AUX_PRIMES) if m in (7, 8) else None
    candidates = [q for q in SPLIT_PRIMES if q != p1]
    split = {q: rng.random() < 0.5 for q in rng.sample(candidates, rng.randint(0, 3))}
    return m, n, p1, split


def space_request(rng: random.Random, m: int):
    """A diagonal space of dimension 2m and degree-2m field data.

    The entries are built from exactly m + 2 odd primes, so computing the
    space's Hasse invariants takes the same number of Hilbert symbols
    whatever the seed.
    """
    support = rng.sample(ODD_PRIMES, m + 2)
    num = [1] * (2 * m)
    den = [1] * (2 * m)
    for j, q in enumerate(support):
        num[j % (2 * m)] *= q
    for i in range(2 * m):
        q = rng.choice(support)
        # never cancel a prime: the support stays exactly m + 2 primes
        (num if num[i] % q == 0 or rng.random() < 0.5 else den)[i] *= q
    entries = tuple(Fraction(rng.choice((-1, 1)) * a, b) for a, b in zip(num, den))
    sign, sqf = _det_class(entries)
    # half the time, field data whose discriminant class matches the space
    n = sqf * rng.randint(1, 5) ** 2 if sign == 1 and rng.random() < 0.5 else rng.randint(1, 400)
    p1 = rng.choice(support) if rng.random() < 0.5 else None
    split_pool = [q for q in support if q != p1]
    split = {q: rng.random() < 0.5 for q in rng.sample(split_pool, min(len(split_pool), rng.randint(0, 3)))}
    return entries, n, p1, split


def _hyperbolicity_problems(what, hyp, split, p1) -> list[str]:
    status = dict(split)
    if p1 is not None:
        status[p1] = False
    disc = list(hyp["discrepancy"])
    certified = [q for q in disc if status.get(q) is False]
    conflicts = [q for q in disc if status.get(q) is True]
    unknown = [q for q in disc if q not in status]
    if conflicts:
        verdict = "fail"
    elif not disc:
        verdict = "pass"
    elif not unknown:
        verdict = "conditional-pass"
    else:
        verdict = "needs-data"
    want = {"certified_nonsplit": certified, "split_conflicts": conflicts, "unknown_split": unknown, "verdict": verdict}
    got = {k: hyp[k] for k in want}
    if got != want:
        return [f"{what}: hyperbolicity {got}, expected {want}"]
    return []


def _hasse_inf(negatives: int) -> int:
    # sum over pairs of the real Hilbert symbol: one per pair of negative entries
    return negatives * (negatives - 1) // 2 % 2


def verify_problems(what: str, req, doc) -> list[str]:
    """Check the JSON of a `verify_lattice` report for the request (m, n, p1, split)."""
    m, n, p1, split = req
    problems = []
    t = doc["transcendental_invariants"]
    sign, sqf = square_class(Fraction(n))
    want = {"dim": 2 * m, "sig": [2, 2 * m - 2], "det": {"sign": sign, "sqfree": sqf}}
    got = {k: t[k] for k in want}
    if got != want:
        problems.append(f"{what}: complement {got}, expected {want}")
    problems += _reciprocity_problem(doc["picard_invariants"]["hasse"], what + " picard")
    problems += _reciprocity_problem(t["hasse"], what + " complement")
    hyp = doc["embedding"]["hyperbolicity"]
    # the case table leaves discrepancies only at the nonsplit prime p1,
    # or for m = 10 without square discriminant, at 2 and the primes of n
    allowed = {p1} if m in (7, 8) else set()
    if m == 10 and sqf != 1:
        allowed = {2} | _prime_divisors(n)
    if not set(hyp["discrepancy"]) <= allowed:
        problems.append(f"{what}: discrepancy {hyp['discrepancy']} outside {sorted(allowed)}")
    return problems + _hyperbolicity_problems(what, hyp, split, p1)


class Lattice:
    """`verify_lattice` and `embedding_criterion` calls, one of each per stratum."""

    name = "lattice"

    def __init__(self, rng: random.Random, lib):
        self.rng = rng
        self.lib = lib

    def blocks(self):
        while True:
            block = [("verify", lattice_request(self.rng, m)) for m in (6, 7, 8, 9, 10) * 2]
            block += [("embedding", space_request(self.rng, m)) for m in range(1, 11)]
            self.rng.shuffle(block)
            yield block

    def warm_up(self) -> None:
        self.run(("verify", (7, 5, 11, {})))
        self.run(("embedding", space_request(random.Random(0), 4)))

    def run(self, op):
        kind, req = op
        lib = self.lib
        if kind == "verify":
            m, n, p1, split = req
            return lib.verify_lattice(m, lib.CMFieldData.from_m(m, n, p1, split))
        entries, n, p1, split = req
        m = len(entries) // 2
        return lib.embedding_criterion(lib.QuadSpace(entries), lib.CMFieldData.from_m(m, n, p1, split))

    def check(self, op, report) -> list[str]:
        kind, req = op
        doc = report.to_json()
        if kind == "verify":
            return verify_problems(f"verify_lattice{req[:3]}", req, doc)
        return self._check_embedding(req, doc)

    def _check_embedding(self, req, doc) -> list[str]:
        entries, n, p1, split = req
        m = len(entries) // 2
        what = f"embedding_criterion dim={2 * m} n={n}"
        problems = []
        sign, sqf = _det_class(entries)
        nsign, nsqf = square_class(Fraction(n))
        negatives = sum(1 for e in entries if e < 0)
        sig = [2 * m - negatives, negatives]
        det_ok = (sign, sqf) == (nsign, nsqf)
        want = {
            "actual": {"sign": sign, "sqfree": sqf},
            "expected": {"sign": nsign, "sqfree": nsqf},
            "matches": det_ok,
        }
        if doc["det"] != want:
            problems.append(f"{what}: det {doc['det']}, expected {want}")
        sig_even = sig[0] % 2 == 0 and sig[1] % 2 == 0
        if doc["signature"] != {"value": sig, "even": sig_even}:
            problems.append(f"{what}: signature {doc['signature']}, expected {sig}")
        hyp = doc["hyperbolicity"]
        # The space and the hyperbolic target both satisfy reciprocity, so
        # the places where their Hasse bits differ are even in number.
        inf_differs = _hasse_inf(negatives) != _hasse_inf(m)
        if (len(hyp["discrepancy"]) + inf_differs) % 2:
            problems.append(f"{what}: discrepancy {hyp['discrepancy']} breaks Hilbert reciprocity")
        support = {2} | {q for e in entries for q in _prime_divisors(e.numerator * e.denominator)}
        if not set(hyp["discrepancy"]) <= support:
            problems.append(f"{what}: discrepancy {hyp['discrepancy']} outside the entry support")
        problems += _hyperbolicity_problems(what, hyp, split, p1)
        if not det_ok or not sig_even or hyp["verdict"] == "fail":
            verdict = "fail"
        elif hyp["verdict"] == "needs-data":
            verdict = "needs-data"
        else:
            verdict = "pass"
        if doc["verdict"] != verdict:
            problems.append(f"{what}: verdict {doc['verdict']}, expected {verdict}")
        return problems

    def to_json(self, op, report):
        kind, (m_or_entries, n, p1, split) = op
        if kind == "embedding":
            m_or_entries = [str(e) for e in m_or_entries]
        request = [m_or_entries, n, p1, {str(q): flag for q, flag in sorted(split.items())}]
        return {"kind": kind, "request": request, "report": report.to_json()}


def _prime_divisors(n: int) -> set[int]:
    n = abs(n)
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ------------------------------------------------------------------------ cli

MALFORMED = (
    ["check", "--p", "7", "--coeffs", "1,0.1,1"],
    ["construct", "--p", "9", "--m", "2", "--h", "1"],
    ["hilbert", "--a", "3", "--b", "-1/7", "--place", "7"],
)


class Cli:
    """Sequential `python -m k3cert.cli` subprocesses over a mix of subcommands.

    Each block holds three `check --json`, two `lattice --json`, one each
    of `hilbert`, `strip`, `table` and a small `construct`, and one
    malformed request that must exit 1 with an `error:` line.
    """

    name = "cli"

    def __init__(self, rng: random.Random, root: str, lib=None):
        self.rng = rng
        self.root = root
        self.lib = lib  # the imported package, for in-process main(argv) calls
        if lib is not None:
            importlib.import_module(f"{lib.__name__}.cli")  # the package does not import it
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def blocks(self):
        rng = self.rng
        strata = Cycle(rng, [(kind, m) for kind, m in CHECK_STRATA if m <= 3])  # degree <= 12
        draws = Draws(rng)
        while True:
            block = []
            for _ in range(3):
                kind, m = strata.draw()
                p, h = draws.draw((kind, m), m)
                cs, label = check_item(rng, kind, p, m, h)
                block.append((["check", "--p", str(p), f"--coeffs={format_coeffs(cs)}", "--json"], ("check", label)))
            for _ in range(2):
                req = m, n, p1, split = lattice_request(rng, rng.randint(6, 10))
                argv = ["lattice", "--m", str(m), "--n", str(n), "--json"]
                if p1 is not None:
                    argv += ["--p1", str(p1)]
                for q, flag in sorted(split.items()):
                    argv += ["--split", f"{q}={str(flag).lower()}"]
                block.append((argv, ("lattice", req)))
            a, b = (rng.choice((-1, 1)) * rng.randint(1, 500) for _ in range(2))
            place = rng.choice(("inf", "2", "3", "5", "7", "11"))
            block.append((["hilbert", f"--a={a}", f"--b={b}/{rng.randint(1, 50)}", "--place", place], ("hilbert", None)))
            m = rng.randint(1, 6)
            L = witness(rng.choice(PRIMES), m, rng.randint(1, m))
            k = rng.choice(sorted(_CYCLOTOMIC))
            product = pmul(L, _trim(_CYCLOTOMIC[k]))
            block.append((["strip", f"--coeffs={format_coeffs(product)}"], ("strip", (format_coeffs(L), k))))
            block.append((["table", "--p", str(rng.choice(PRIMES))], ("table", None)))
            m = rng.randint(1, 4)
            h = rng.randint(1, m)
            block.append((["construct", "--p", str(rng.choice(PRIMES)), "--m", str(m), "--h", str(h)], ("construct", (m, h))))
            block.append((list(rng.choice(MALFORMED)), ("malformed", None)))
            rng.shuffle(block)
            yield block

    def warm_up(self) -> None:
        # the first call writes the bytecode caches that installed users have
        op = (["hilbert", "--a", "3", "--b", "5", "--place", "7"], ("hilbert", None))
        self.run(op)
        if self.lib is not None:
            fill_cyclotomic_cache(self.lib)
            self.run_in_process(op)

    def run(self, op):
        argv, _ = op
        proc = subprocess.run(
            [sys.executable, "-m", "k3cert.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, op):
        argv, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result) -> list[str]:
        argv, (kind, expect) = op
        code, out, err = result
        what = f"k3cert {' '.join(argv)[:80]}"
        if "Traceback" in err:
            return [f"{what}: traceback on stderr"]
        if kind == "malformed":
            if code != 1 or not err.startswith("error:"):
                return [f"{what}: exit {code}, stderr {err[:80]!r}; expected exit 1 with an error: line"]
            return []
        if code != 0:
            return [f"{what}: exit {code}, stderr {err[:200]!r}"]
        if kind in ("check", "lattice"):
            try:
                doc = json.loads(out)
            except ValueError:
                return [f"{what}: --json output does not parse"]
            if not isinstance(doc, dict) or sorted(doc) != ["command", "inputs", "result"] or doc["command"] != kind:
                return [f"{what}: envelope keys {sorted(doc) if isinstance(doc, dict) else type(doc)}"]
            report = doc["result"]["report"]
            if kind == "check":
                failed = {name for name, res in report["checks"].items() if res["status"] == "fail"}
                invariants = (report["m"], report["h"], report["e"], report["a"])
                return check_report_problems(what, expect, report["verdict"], failed, invariants)
            return verify_problems(what, expect, report)
        lines = out.splitlines()
        if kind == "hilbert":
            if len(lines) != 1 or not lines[0].startswith("hilbert(") or lines[0][-4:] not in (" = 0", " = 1"):
                return [f"{what}: output {out!r}"]
        elif kind == "strip":
            quotient, k = expect
            if lines != [f"quotient: {quotient}", f"removed cyclotomic indices: {k}"]:
                return [f"{what}: output {lines}, expected quotient {quotient} and index {k}"]
        elif kind == "table":
            if len(lines) != 12 or not lines[-1].startswith("legend:"):
                return [f"{what}: table has {len(lines)} lines"]
        elif kind == "construct":
            m, h = expect
            if len(lines) < 3 or lines[1] != "verdict: pass" or not lines[2].startswith(f"m={m} h={h} "):
                return [f"{what}: output {lines[:3]}"]
        return []

    def to_json(self, op, result):
        argv, _ = op
        code, out, err = result
        return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


def make(name: str, rng: random.Random, root: str, lib):
    if name == "cli":
        return Cli(rng, root, lib)
    return {"construct": Construct, "check": Check, "lattice": Lattice}[name](rng, lib)
