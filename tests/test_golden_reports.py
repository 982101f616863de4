"""Frozen `check_candidate` reports, re-checked byte for byte.

`golden/check_reports.jsonl` holds one compact sorted-key JSON line
{"coeffs", "p", "report"} per candidate, covering:

  * every candidate the acceptance-2 sweep tries, in search order: each
    a coprime to h up to the witness's, and for even h at m = 10 the
    square of the degree-10 witness (the search skips the transform of
    an a whose perturbed seed already has a root off [-2, 2]);
  * the 60 acceptance-8 mutants (cyclotomic multiple, off-p
    denominator, square) of its 20 witnesses;
  * for p = 7 and 2 <= h <= m <= 10, the transform of
    seed + 7^(-h) T^(m-h): gcd(a, h) > 1, so the slope profile passes
    while the local factor splits;
  * non-palindromes, which take the path off the descent: each witness of
    the acceptance-2 sweep with its first nonzero coefficient off the
    middle times the p-adic unit 1 + p, and the square (1 + 2T + 3T^3)^2
    at p = 7, whose squarefree part r has degree 3 below the flat length
    6 of the square's polygon.

Regenerate (only when the report contract changes on purpose) with
`PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import k3cert.weilpoly as weilpoly
from k3cert.condition import check_candidate, construct_witness, construct_witness_even_h, seed_polynomial
from k3cert.weilpoly import (
    RatPoly,
    cyclotomic,
    format_poly,
    kronecker_certificate,
    parse_poly,
    reciprocal_transform,
    squarefree_decompose,
)

CORPUS = Path(__file__).parent / "golden" / "check_reports.jsonl"


def _line(p: int, L: RatPoly) -> str:
    doc = {"p": p, "coeffs": format_poly(L), "report": check_candidate(L, p).to_json()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _searched(p: int, m: int, h: int) -> list[RatPoly]:
    """The transform of seed + p^(-a) T^(m-h) for every a coprime to h,
    from 1 up to the a of the (p, m, h) witness."""
    _, report = construct_witness(p, m, h)
    seed = seed_polynomial(m)
    return [
        reciprocal_transform(seed + RatPoly.monomial(m - h, Fraction(1, p**a)))
        for a in range(1, report.a + 1)
        if math.gcd(a, h) == 1
    ]


def _sweep_candidates() -> list[tuple[int, RatPoly]]:
    seen: list[tuple[int, RatPoly]] = []
    for p in (5, 7):
        for m in range(1, 11):
            for h in range(1, m + 1):
                if m == 10 and h % 2 == 0:
                    base = _searched(p, 5, h // 2)
                    seen += [(p, L) for L in base] + [(p, base[-1] * base[-1])]
                else:
                    seen += [(p, L) for L in _searched(p, m, h)]
    return seen


def _mutants() -> list[tuple[int, RatPoly]]:
    corpus = [(7, m, h) for m in range(1, 6) for h in range(1, m + 1)]
    corpus += [(5, m, h) for m, h in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4)]]
    out = []
    for p, m, h in corpus:
        L, _ = construct_witness(p, m, h)
        coeffs = list(L.coeffs)
        i = next(k for k in range(1, m + 1) if coeffs[k] != 0)
        coeffs[i] = coeffs[i] / 3
        coeffs[2 * m - i] = coeffs[2 * m - i] / 3
        out += [(p, L * cyclotomic(4)), (p, RatPoly.of(*coeffs)), (p, L * L)]
    return out


def _non_coprime_perturbations() -> list[tuple[int, RatPoly]]:
    out = []
    for m in range(2, 11):
        for h in range(2, m + 1):
            F = seed_polynomial(m) + RatPoly.monomial(m - h, Fraction(1, 7**h))
            out.append((7, reciprocal_transform(F)))
    return out


def _non_palindromes() -> list[tuple[int, RatPoly]]:
    out = []
    for p in (5, 7):
        for m in range(1, 11):
            for h in range(1, m + 1):
                L, _ = construct_witness_even_h(p, h) if m == 10 and h % 2 == 0 else construct_witness(p, m, h)
                coeffs = list(L.coeffs)
                i = next(k for k in range(1, 2 * m + 1) if k != m and coeffs[k] != 0)
                coeffs[i] *= 1 + p
                out.append((p, RatPoly.of(*coeffs)))
    square = RatPoly.of(1, 2, 0, 3)
    return out + [(7, square * square)]


def generate() -> list[str]:
    cases = _sweep_candidates() + _mutants() + _non_coprime_perturbations() + _non_palindromes()
    return [_line(p, L) for p, L in cases]


def _corpus() -> list[str]:
    return CORPUS.read_text().splitlines()


def test_corpus_size():
    assert len(_corpus()) == 175 + 60 + 45 + 110 + 1


def test_reports_match_corpus_bytes():
    for line in _corpus():
        doc = json.loads(line)
        assert _line(doc["p"], parse_poly(doc["coeffs"])) == line


def test_reports_match_corpus_bytes_when_the_squarefree_screen_proves_nothing(monkeypatch):
    """Off the descent path `_gcd_ints` then proves every squarefree line
    too, and every report is unchanged."""
    monkeypatch.setattr(weilpoly, "_coprime_to_derivative", lambda f: False)
    for line in _corpus():
        doc = json.loads(line)
        assert _line(doc["p"], parse_poly(doc["coeffs"])) == line


def test_premises_match_kronecker_certificate():
    """prime_power_shape passes exactly when the from-scratch certificate is certified."""
    compared = 0
    for line in _corpus():
        doc = json.loads(line)
        shape = doc["report"]["checks"]["prime_power_shape"]
        decomposition = squarefree_decompose(parse_poly(doc["coeffs"]))
        assert (decomposition is None) == ("e" not in shape)
        if decomposition is None:
            continue
        cert = kronecker_certificate(decomposition[0], doc["p"])
        assert cert.certified == (shape["status"] == "pass"), doc["coeffs"]
        compared += 1
    assert compared > 200


def test_unknown_check_comes_with_a_failed_check():
    """A check is "unknown" only beside a failed one, so the verdict is "fail"."""
    with_unknown = 0
    for line in _corpus():
        report = json.loads(line)["report"]
        statuses = [check["status"] for check in report["checks"].values()]
        if "unknown" in statuses:
            with_unknown += 1
            assert "fail" in statuses and report["verdict"] == "fail", line
    assert with_unknown > 0


if __name__ == "__main__":
    CORPUS.write_text("\n".join(generate()) + "\n")
