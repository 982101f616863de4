"""Frozen lattice-side reports, re-checked byte for byte.

`golden/lattice_reports.jsonl` holds one compact sorted-key JSON line
per request and its report:

  * {"kind": "verify", "m", "n", "p1", "split", "report"}: the
    `verify_lattice` report for m = 6..10 and n = 1..40, with the fixed
    nonsplit witness p1 = 11 for m in {7, 8} and a seeded split table;
  * {"kind": "embedding", "entries", "n", "p1", "split", "report"}: the
    `embedding_criterion` report for a seeded diagonal space of even
    dimension 2..20, first 200 whose entries carry square factors and
    2-power and odd denominators over the primes up to 17, then 100 over
    m + 2 odd primes below 200 (`oracles.space_over_odd_primes`).

Regenerate (only when the report contract changes on purpose) with
`PYTHONPATH=src python tests/test_golden_lattice.py`.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from k3cert.arith import format_rational, parse_rational, square_class, support_primes
from k3cert.k3lattice import verify_lattice
from k3cert.qform import CMFieldData, QuadSpace, embedding_criterion, invariants

from oracles import space_over_odd_primes

CORPUS = Path(__file__).parent / "golden" / "lattice_reports.jsonl"

P1 = 11
SPLIT_PRIMES = (2, 3, 5, 7, 13, 17, 19, 23)
ENTRY_PRIMES = (2, 3, 5, 7, 11, 13, 17)
SQUARES = (1, 1, 4, 9, 25, 36)
DENOMINATORS = (1, 1, 2, 4, 8, 3, 9, 5, 12, 7, 20, 27)
EMBEDDING_CASES = 200
LARGE_PRIME_CASES = 100


def _split_table(rng: random.Random, pool) -> dict[int, bool]:
    return {q: rng.random() < 0.5 for q in sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))}


def _verify_requests() -> list[dict]:
    rng = random.Random(20261018)
    out = []
    for m in range(6, 11):
        p1 = P1 if m in (7, 8) else None
        pool = [q for q in SPLIT_PRIMES if q != p1]
        for n in range(1, 41):
            out.append({"kind": "verify", "m": m, "n": n, "p1": p1, "split": _split_table(rng, pool)})
    return out


def _entry(rng: random.Random) -> Fraction:
    num = rng.choice((-1, 1)) * rng.choice(SQUARES)
    for q in rng.sample(ENTRY_PRIMES, rng.randint(0, 2)):
        num *= q
    return Fraction(num, rng.choice(DENOMINATORS))


def _embedding_requests() -> list[dict]:
    rng = random.Random(31415)
    out = []
    for _ in range(EMBEDDING_CASES):
        m = rng.randint(1, 10)
        out.append(_embedding_request(rng, [_entry(rng) for _ in range(2 * m)]))
    rng = random.Random(27182)
    for _ in range(LARGE_PRIME_CASES):
        out.append(_embedding_request(rng, space_over_odd_primes(rng, rng.randint(1, 10))))
    return out


def _embedding_request(rng: random.Random, entries: list[Fraction]) -> dict:
    det = square_class(1)
    for e in entries:
        det = det * square_class(e)
    # half the time, field data whose class of n matches the determinant
    if det.sign == 1 and rng.random() < 0.5:
        n = det.sqfree * rng.randint(1, 4) ** 2
    else:
        n = rng.randint(1, 60)
    support = sorted(q for q in support_primes(entries) if q > 2)
    p1 = rng.choice(support) if support and rng.random() < 0.5 else None
    pool = [q for q in list(SPLIT_PRIMES) + support if q != p1]
    return {
        "kind": "embedding",
        "entries": [format_rational(e) for e in entries],
        "n": n,
        "p1": p1,
        "split": _split_table(rng, sorted(set(pool))),
    }


def _report(request: dict):
    if request["kind"] == "verify":
        m = request["m"]
    else:
        space = QuadSpace(tuple(parse_rational(e) for e in request["entries"]))
        m = space.dim // 2
    fielddata = CMFieldData.from_m(m, request["n"], request["p1"], request["split"])
    if request["kind"] == "verify":
        return verify_lattice(m, fielddata)
    return embedding_criterion(space, fielddata)


def _line(request: dict) -> str:
    doc = dict(request)
    doc["split"] = {str(q): v for q, v in sorted(request["split"].items())}
    doc["report"] = _report(request).to_json()
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _request(doc: dict) -> dict:
    request = {k: v for k, v in doc.items() if k != "report"}
    request["split"] = {int(q): v for q, v in doc["split"].items()}
    return request


def generate() -> list[str]:
    return [_line(r) for r in _verify_requests() + _embedding_requests()]


def _corpus() -> list[str]:
    return CORPUS.read_text().splitlines()


def test_corpus_size():
    kinds = [json.loads(line)["kind"] for line in _corpus()]
    assert kinds.count("verify") == 5 * 40
    assert kinds.count("embedding") == EMBEDDING_CASES + LARGE_PRIME_CASES


def test_reports_match_corpus_bytes():
    for line in _corpus():
        assert _line(_request(json.loads(line))) == line


def _rebuilt(record):
    """The record built again by its checking constructor, from its fields."""
    return type(record)(*(getattr(record, name) for name in record.__slots__))


def test_trusted_builds_equal_the_constructor():
    # invariants, complement_invariants and rationalize skip the
    # constructors' checks; what they build must pass them unchanged.  The
    # reprs also compare the types, say of a Fraction entry and an equal int
    for line in _corpus():
        request = _request(json.loads(line))
        if request["kind"] == "verify":
            report = _report(request)
            spaces = (report.picard_invariants, report.transcendental_invariants, report.rational_space)
        else:
            spaces = (invariants(QuadSpace(tuple(parse_rational(e) for e in request["entries"]))),)
        for record in spaces:
            rebuilt = _rebuilt(record)
            assert rebuilt == record and repr(rebuilt) == repr(record)


if __name__ == "__main__":
    CORPUS.write_text("\n".join(generate()) + "\n")
