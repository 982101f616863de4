"""Acceptance suite: nine end-to-end criteria, one test and one printed
verdict line each.

Run with `pytest tests/test_acceptance.py -v`; the PASS/FAIL lines print
through the capture so they are visible in plain runs too.
"""

import ast
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from k3cert.arith import (
    INFINITE_PLACE,
    Place,
    SquareClass,
    hilbert,
    square_class,
    support_primes,
)
from k3cert.condition import (
    check_candidate,
    construct_witness,
    construct_witness_even_h,
    feasibility,
)
from k3cert.k3lattice import k3_ambient_invariants, no_minus_two_vector, verify_lattice
from k3cert.qform import CMFieldData, invariants
from k3cert.weilpoly import RatPoly, cyclotomic, parse_poly

from oracles import brute_hilbert_bit, diagonal_binary_solution


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _block(number, label):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance {number}: FAIL  {label}")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"acceptance {number}: PASS  {label} ({elapsed:.2f} s)")

    return _block


# ---------------------------------------------------------------------------


def test_acceptance_1_worked_example_certificate(announce):
    with announce(1, "worked-example certificate"):
        start = time.perf_counter()
        report = check_candidate(parse_poly("1,1/7,1,1/7,1"), 7)
        elapsed = time.perf_counter() - start
        assert report.verdict == "pass"
        assert (report.m, report.h, report.a, report.e) == (2, 1, 1, 1)
        assert report.slope_profile.segments == (
            (Fraction(-1), 1),
            (Fraction(0), 2),
            (Fraction(1), 1),
        )
        assert elapsed < 0.1


def test_acceptance_2_full_constructor_sweep(announce):
    with announce(2, "constructor sweep over 110 (p, m, h) triples"):
        start = time.perf_counter()
        for p in (5, 7):
            for m in range(1, 11):
                for h in range(1, m + 1):
                    if m == 10 and h % 2 == 0:
                        L, report = construct_witness_even_h(p, h)
                        assert report.e == 2
                        assert math.isqrt(report.q) ** 2 == report.q
                    else:
                        L, report = construct_witness(p, m, h)
                    assert report.passed, (p, m, h)
                    assert (report.m, report.h) == (m, h)
                    assert L.degree == 2 * m
        elapsed = time.perf_counter() - start
        assert elapsed < 60


def test_acceptance_3_hilbert_symbols(announce):
    with announce(3, "Hilbert symbols: product formula and solubility oracle"):
        rng = random.Random(20260815)
        for _ in range(500):
            num_a = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            num_b = rng.choice([-1, 1]) * rng.randint(1, 10**4)
            a = Fraction(num_a, rng.randint(1, 10**4))
            b = Fraction(num_b, rng.randint(1, 10**4))
            primes = sorted(support_primes([a, b]) | {2})
            places = [INFINITE_PLACE] + [Place.finite(q) for q in primes]
            assert sum(hilbert(a, b, v) for v in places) % 2 == 0

        values = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15]
        places = [Place.finite(q) for q in (2, 3, 5, 7)] + [INFINITE_PLACE]
        for a in values:
            for b in values:
                for v in places:
                    assert hilbert(a, b, v) == brute_hilbert_bit(a, b, v.prime), (
                        a,
                        b,
                        str(v),
                    )


def test_acceptance_4_ambient_and_complement_invariants(announce):
    with announce(4, "ambient lattice and case-table complement invariants"):
        ambient = k3_ambient_invariants()
        assert ambient.det == SquareClass(-1, 1)
        assert ambient.signature == (3, 19)
        assert set(ambient.hasse) == {Place.finite(2), INFINITE_PLACE}
        assert all(bit == 1 for bit in ambient.hasse.values())

        cases = [
            (6, 1, None),
            (6, 5, None),
            (7, 2, 7),
            (7, 6, 11),
            (8, 3, 7),
            (8, 5, 7),
            (9, 3, None),
            (9, 10, None),
            (10, 4, None),  # square class of n trivial: block U
            (10, 5, None),  # nonsquare: block <2> + <-8n>
        ]
        for m, n, p1 in cases:
            fd = CMFieldData.from_m(m, n, nonsplit_witness=p1)
            report = verify_lattice(m, fd)
            t = report.transcendental_invariants
            assert t.det == square_class(n)
            assert report.picard_invariants.det == square_class(-n)
            assert t.signature == (2, 2 * m - 2)
            assert t.dim == 2 * m


def test_acceptance_5_hyperbolicity_sweeps(announce):
    with announce(5, "hyperbolicity discrepancy sets, 50 seeded inputs per case"):
        start = time.perf_counter()
        rng = random.Random(1729)
        aux_primes = [3, 7, 11, 19, 23, 31, 43, 47]

        for _ in range(50):
            n = rng.randint(1, 400)
            for m in (6, 9):
                report = verify_lattice(m, CMFieldData.from_m(m, n))
                assert report.embedding.hyperbolicity.discrepancy == ()
            square_n = rng.randint(1, 20) ** 2
            report = verify_lattice(10, CMFieldData.from_m(10, square_n))
            assert report.embedding.hyperbolicity.discrepancy == ()

        for _ in range(50):
            n = rng.randint(1, 400)
            p1 = rng.choice(aux_primes)
            for m in (7, 8):
                fd = CMFieldData.from_m(m, n, nonsplit_witness=p1)
                hyp = verify_lattice(m, fd).embedding.hyperbolicity
                assert set(hyp.discrepancy) <= {p1}, (m, n, p1, hyp.discrepancy)
                assert hyp.verdict in ("pass", "conditional-pass")

        elapsed = time.perf_counter() - start
        assert elapsed < 10


def test_acceptance_6_no_minus_two_certificates(announce):
    with announce(6, "(-2)-vector exclusion for all n <= 200, +2 witness at (1,0)"):
        for n in range(1, 201):
            cert = no_minus_two_vector(n)
            # two independent routes must agree that nothing was found:
            # the mod-4 certificate and a box search over |x|, |y| <= 1000
            assert cert.mod4_required_residue == 3
            assert cert.mod4_square_residues == (0, 1)
            assert cert.holds
            assert diagonal_binary_solution(2, -8 * n, -2, 1000) is None
            # the same search finds the +2 vector, so it is not vacuous
            assert diagonal_binary_solution(2, -8 * n, 2, 1000) == cert.plus_two_vector
            assert cert.plus_two_vector == (1, 0)
            # and (1, 0) really does represent +2 in <2> + <-8n>
            assert 2 * 1 * 1 - 8 * n * 0 * 0 == 2


def test_acceptance_7_feasibility_grids(announce):
    with announce(7, "feasibility grids for p = 7 and p = 5"):
        for p in (7, 5):
            for rho in range(2, 21, 2):
                for h in range(1, 11):
                    verdict = feasibility(p, rho, h)
                    assert verdict.feasible == (rho <= 22 - 2 * h), (p, rho, h)
                    unsupported = verdict.witness_status == "unsupported_case"
                    should_be = p == 5 and rho == 2 and h % 2 == 1 and verdict.feasible
                    assert unsupported == should_be, (p, rho, h)


def _mutation_corpus():
    corpus = []
    for m in range(1, 6):
        for h in range(1, m + 1):
            corpus.append((7, m, h))
    for m, h in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4)]:
        corpus.append((5, m, h))
    return corpus


def test_acceptance_8_mutation_suite(announce):
    with announce(8, "mutation suite: 20 witnesses x 3 mutations"):
        corpus = _mutation_corpus()
        assert len(corpus) == 20
        outcomes = []
        for p, m, h in corpus:
            L, report = construct_witness(p, m, h)
            assert report.passed and report.e == 1

            # (a) multiply by a cyclotomic factor: root-of-unity check flips
            mutated = check_candidate(L * cyclotomic(4), p)
            assert mutated.verdict == "fail", (p, m, h)
            assert "no_root_of_unity" in mutated.failed_checks
            outcomes.append("cyclotomic")

            # (b) scale the first nonzero interior coefficient pair by 1/3:
            # denominators stop being powers of p (zero coefficients are
            # skipped since scaling them is a no-op)
            coeffs = list(L.coeffs)
            i = next(k for k in range(1, m + 1) if coeffs[k] != 0)
            coeffs[i] = coeffs[i] / 3
            coeffs[2 * m - i] = coeffs[2 * m - i] / 3
            mutated = check_candidate(RatPoly.of(*coeffs), p)
            assert mutated.verdict == "fail", (p, m, h)
            assert "integral_away_from_p" in mutated.failed_checks
            outcomes.append("denominator")

            # (c) square the witness: still passes, with e = 2 and doubled
            # profile data
            mutated = check_candidate(L * L, p)
            assert mutated.verdict == "pass", (p, m, h)
            assert mutated.e == 2
            assert (mutated.m, mutated.h) == (2 * m, 2 * h)
            assert mutated.a == 2 * report.a
            assert mutated.failed_checks == ()
            outcomes.append("square")
        assert len(outcomes) == 60


CORE_MODULES = sorted(
    (Path(__file__).parent.parent / "src" / "k3cert").glob("*.py")
)
MATH_WHITELIST = {"gcd", "isqrt", "lcm", "comb", "prod"}


def test_acceptance_9_exactness_audit(announce):
    with announce(9, "exact-arithmetic audit of every core module"):
        assert len(CORE_MODULES) >= 6
        for path in CORE_MODULES:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)
                ):
                    raise AssertionError(
                        f"{path.name}:{node.lineno}: numeric literal {node.value!r}"
                    )
                if isinstance(node, ast.Name) and node.id in ("float", "complex"):
                    raise AssertionError(
                        f"{path.name}:{node.lineno}: use of {node.id}()"
                    )
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                    and node.attr not in MATH_WHITELIST
                ):
                    raise AssertionError(
                        f"{path.name}:{node.lineno}: math.{node.attr} is not on the "
                        f"integer-only whitelist {sorted(MATH_WHITELIST)}"
                    )
