"""Rational quadratic space invariants, Witt-style complement arithmetic,
and the two-layer embedding criterion."""

import math
import random
from fractions import Fraction

import pytest

import k3cert.arith as arith
from k3cert.arith import INFINITE_PLACE, Place, SquareClass, hilbert, is_prime, square_class
from k3cert.k3lattice import k3_ambient_invariants
from k3cert.qform import (
    CMFieldData,
    EmbeddingReport,
    QuadSpace,
    SpaceInvariants,
    complement_invariants,
    embedding_criterion,
    hyperbolic,
    hyperbolicity_check,
    hyperbolicity_from_invariants,
    invariants,
)

from oracles import (
    ODD_PRIMES_BELOW_200,
    brute_hilbert_bit,
    class_hilbert_bit,
    formula_hilbert_bit,
    pairwise_hasse_bit,
    space_over_odd_primes,
    squarefree_part,
)


# ---------------------------------------------------------------------------
# spaces and invariants


def test_quadspace_basics():
    sp = QuadSpace.of(1, -1, Fraction(2, 3))
    assert sp.dim == 3
    assert sp.direct_sum(QuadSpace.of(5)).dim == 4
    assert sp.to_json() == ["1", "-1", "2/3"]
    with pytest.raises(ValueError):
        QuadSpace.of(1, 0, 2)
    with pytest.raises(ValueError, match="must be nonzero"):
        QuadSpace.of(Fraction(2, 3), Fraction(0))
    with pytest.raises(ValueError, match="at least one entry"):
        QuadSpace(())
    # Fraction entries are kept as given, others become Fractions
    third = Fraction(1, 3)
    sp = QuadSpace.of(third, -2)
    assert sp.entries[0] is third
    assert type(sp.entries[1]) is Fraction and sp.entries[1] == -2


def test_space_invariants_guards():
    det = SquareClass(1, 1)
    with pytest.raises(ValueError, match="dimension must be positive"):
        SpaceInvariants(0, det, (0, 0), {})
    with pytest.raises(ValueError, match="signature must sum to the dimension"):
        SpaceInvariants(2, det, (1, 0), {})
    with pytest.raises(ValueError, match="stored Hasse bits must be 1"):
        SpaceInvariants(2, det, (1, 1), {INFINITE_PLACE: 0})


def test_invariants_of_unit_form():
    inv = invariants(QuadSpace.of(1))
    assert inv.dim == 1
    assert inv.det == SquareClass(1, 1)
    assert inv.signature == (1, 0)
    assert inv.hasse == {}


def test_invariants_of_hyperbolic_plane():
    inv = invariants(hyperbolic(1))
    assert inv.dim == 2
    assert inv.det == SquareClass(-1, 1)
    assert inv.signature == (1, 1)
    assert inv.hasse == {}


def test_invariants_frozen_examples():
    inv = invariants(QuadSpace.of(1, -1, -3, -1))
    assert inv.det == SquareClass(-1, 3)
    assert inv.signature == (1, 3)
    assert inv.hasse == {Place.finite(2): 1, INFINITE_PLACE: 1}

    inv = invariants(QuadSpace.of(2, -40))
    assert inv.det == SquareClass(-1, 5)
    assert inv.signature == (1, 1)
    assert inv.hasse == {Place.finite(2): 1, Place.finite(5): 1}


def test_invariants_json_shape():
    doc = invariants(QuadSpace.of(1, -1, -3, -1)).to_json()
    assert doc == {
        "dim": 4,
        "det": {"sign": -1, "sqfree": 3},
        "sig": [1, 3],
        "hasse": {"2": 1, "inf": 1},
    }


def test_hasse_support_is_sorted_and_even():
    inv = invariants(QuadSpace.of(2, -40))
    support = inv.hasse_support
    assert support == tuple(sorted(support, key=lambda v: v.sort_key()))
    # product formula: the symbol is nontrivial at an even number of places
    assert len(inv.hasse) % 2 == 0


def test_hyperbolic_hasse_closed_form():
    # w(U^m) is the class of ((-1)^(m(m-1)/2), -1)
    for m in range(1, 11):
        inv = invariants(hyperbolic(m))
        assert inv.dim == 2 * m
        assert inv.signature == (m, m)
        assert inv.det == square_class((-1) ** m)
        a = (-1) ** (m * (m - 1) // 2)
        for place in (Place.finite(2), Place.finite(3), Place.finite(7), INFINITE_PLACE):
            assert inv.hasse_at(place) == hilbert(a, -1, place)
    with pytest.raises(ValueError, match="need m >= 1"):
        hyperbolic(0)


def _random_space(rng, dim=None):
    dim = dim or rng.randint(1, 6)
    pool = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15]
    return QuadSpace.of(*(rng.choice(pool) for _ in range(dim)))


def test_invariants_stable_under_permutation_and_scaling():
    rng = random.Random(20260815)
    for _ in range(200):
        sp = _random_space(rng)
        entries = list(sp.entries)
        rng.shuffle(entries)
        scaled = [e * rng.choice([1, 4, 9, Fraction(1, 4), Fraction(25, 9)]) for e in entries]
        assert invariants(QuadSpace.of(*scaled)) == invariants(sp)


def test_invariants_product_formula_randomized():
    rng = random.Random(7)
    for _ in range(200):
        inv = invariants(_random_space(rng))
        assert len(inv.hasse) % 2 == 0


def test_invariants_direct_sum_rule():
    rng = random.Random(99)
    for _ in range(100):
        a, b = _random_space(rng), _random_space(rng)
        got = invariants(a.direct_sum(b))
        ia, ib = invariants(a), invariants(b)
        assert got.dim == ia.dim + ib.dim
        assert got.det == ia.det * ib.det
        assert got.signature == tuple(x + y for x, y in zip(ia.signature, ib.signature))
        places = set(got.hasse) | set(ia.hasse) | set(ib.hasse)
        places |= {Place.finite(2), INFINITE_PLACE}
        for v in places:
            expected = (
                ia.hasse_at(v)
                + ib.hasse_at(v)
                + hilbert(ia.det.representative(), ib.det.representative(), v)
            ) % 2
            assert got.hasse_at(v) == expected


def test_invariants_hasse_against_bruteforce():
    # one moderately interesting space, checked symbol-by-symbol the slow way
    sp = QuadSpace.of(2, -3, 5, -1)
    inv = invariants(sp)
    for place in (Place.finite(2), Place.finite(3), Place.finite(5), INFINITE_PLACE):
        entries = list(sp.entries)
        bit = 0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                bit ^= brute_hilbert_bit(entries[i], entries[j], place.prime)
        assert inv.hasse_at(place) == bit


def test_invariants_hasse_matches_pairwise_oracle():
    # the count-based Hasse bit against the defining pairwise sum; entries
    # stay over primes <= 13 so the brute-force symbol search stays small
    rng = random.Random(60)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(60):
        entries = []
        for _ in range(rng.randint(1, 20)):
            num = rng.choice((-1, 1)) * rng.choice((1, 4, 9))
            for q in rng.sample(primes, rng.randint(0, 2)):
                num *= q
            entries.append(Fraction(num, rng.choice((1, 2, 8, 3, 25, 12))))
        inv = invariants(QuadSpace(tuple(entries)))
        _assert_det_and_signature(inv, entries)
        support = {q for q in primes if any((e.numerator * e.denominator) % q == 0 for e in entries)}
        for p in sorted(support | {2}) + [None]:
            assert inv.hasse_at(Place(p)) == pairwise_hasse_bit(entries, p), (entries, p)


def _assert_det_and_signature(inv, entries):
    # the determinant read from the parity of prime counts, against the product
    assert inv.det == square_class(math.prod(entries)), entries
    assert inv.signature == (sum(e > 0 for e in entries), sum(e < 0 for e in entries)), entries


_ODD = (3, 5, 7, 11, 13)


def _prime_power_entries(rng, p, q):
    # each value carries p^0 .. p^4 at the odd p, in the numerator or the
    # denominator, so the valuations at p reach 2, 3 and 4 and both parities
    # of alpha_i meet units of both characters in one product
    entries = []
    for _ in range(rng.randint(1, 22)):
        num, den = rng.choice((-1, 1)) * rng.choice((1, 2)), rng.choice((1, q))
        power = p ** rng.randint(0, 4)
        if rng.random() < 0.5:
            num *= power
        else:
            den *= power
        entries.append(Fraction(num, den))
    return entries


def test_invariants_hasse_matches_pairwise_oracle_at_prime_powers():
    rng = random.Random(61)
    for _ in range(40):
        p, q = rng.sample(_ODD, 2)
        entries = _prime_power_entries(rng, p, q)
        inv = invariants(QuadSpace(tuple(entries)))
        _assert_det_and_signature(inv, entries)
        for place in (2, p, q, None):
            assert inv.hasse_at(Place(place)) == pairwise_hasse_bit(entries, place), (entries, place)


def test_formula_oracle_matches_brute_search():
    # the closed-formula symbol against the solubility search, at the odd
    # primes where the search mod p^3 stays small
    rng = random.Random(62)
    for p in (3, 5, 7, 11, 13):
        units = [u for u in range(1, 16) if u % p]
        for _ in range(120):
            a, b = (rng.choice((-1, 1)) * p ** rng.randint(0, 3) * rng.choice(units) for _ in range(2))
            if rng.random() < 0.3:
                b = Fraction(b, rng.choice(units) * p ** rng.randint(0, 1))
            brute = class_hilbert_bit(squarefree_part(a), squarefree_part(b), p)
            assert formula_hilbert_bit(a, b, p) == brute, (a, b, p)


def test_invariants_hasse_matches_formula_oracle_over_primes_below_200():
    # spaces shaped like the benchmark's, over primes the brute-force search
    # cannot reach: the odd places against the closed-formula pairwise sum
    rng = random.Random(63)
    parities = set()
    for _ in range(200):
        entries = space_over_odd_primes(rng, rng.randint(1, 10))
        inv = invariants(QuadSpace(tuple(entries)))
        _assert_det_and_signature(inv, entries)
        support = [q for q in ODD_PRIMES_BELOW_200 if any(e.numerator * e.denominator % q == 0 for e in entries)]
        for p in support:
            # A, the number of entries of odd valuation at p
            parities.add(sum(1 for e in entries if squarefree_part(e) % p == 0) % 2)
            assert inv.hasse_at(Place(p)) == pairwise_hasse_bit(entries, p, formula_hilbert_bit), (entries, p)
        for place in (2, None):
            assert inv.hasse_at(Place(place)) == pairwise_hasse_bit(entries, place), (entries, place)
        assert {pl.prime for pl in inv.hasse} <= {2, None, *support}, entries
    assert parities == {0, 1}


# ---------------------------------------------------------------------------
# orthogonal complements


def test_complement_recovers_other_summand():
    rng = random.Random(4242)
    pairs = [(_random_space(rng), _random_space(rng)) for _ in range(100)]
    # summands over one odd p with p^0 .. p^4 factors flip Hasse bits at p
    for _ in range(60):
        p, q = rng.sample(_ODD, 2)
        pairs.append(tuple(QuadSpace(tuple(_prime_power_entries(rng, p, q))) for _ in range(2)))
    for sub, rest in pairs:
        ambient = invariants(sub.direct_sum(rest))
        got = complement_invariants(ambient, invariants(sub))
        assert got == invariants(rest)


def test_complement_involution():
    sub = QuadSpace.of(1, -3)
    rest = QuadSpace.of(2, 5, -1)
    ambient = invariants(sub.direct_sum(rest))
    t = complement_invariants(ambient, invariants(sub))
    assert complement_invariants(ambient, t) == invariants(sub)


def test_invariants_prove_no_factored_prime_again(monkeypatch):
    # every Hasse-support place is 2, inf or a prime that prime_factors has
    # just found, so building the report's places runs no primality test
    spaces = [QuadSpace.of(3, -5, 7, Fraction(-11, 13)), QuadSpace.of(-1, -1, 6, 10, 15), hyperbolic(3)]
    subs = [QuadSpace.of(-3, 5), QuadSpace.of(7, -11, 13)]

    def run():
        ambient = k3_ambient_invariants()
        invs = [invariants(sp) for sp in spaces + subs]
        return invs, [complement_invariants(ambient, inv) for inv in invs[len(spaces):]]

    want = run()
    assert any(pl.prime not in (None, 2) for inv in want[0] + want[1] for pl in inv.hasse)
    tested: list[int] = []
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert run() == want and tested == []
    for bad in (lambda: Place(4), lambda: Place.parse("4")):  # the public constructors still prove
        with pytest.raises(ValueError, match="not a prime"):
            bad()
    assert tested


def test_complement_dimension_guard():
    amb = invariants(QuadSpace.of(1, -1))
    with pytest.raises(ValueError):
        complement_invariants(amb, invariants(QuadSpace.of(1, 1, 1)))


def test_complement_dimension_guard_at_equal_dimensions():
    # the complement of a space in itself would have dimension 0
    space = QuadSpace.of(1, -1)
    with pytest.raises(ValueError, match="strictly smaller dimension"):
        complement_invariants(invariants(space), invariants(space))


def test_complement_signature_guard():
    amb = invariants(QuadSpace.of(1, 1))
    with pytest.raises(ValueError):
        complement_invariants(amb, invariants(QuadSpace.of(-1)))


# ---------------------------------------------------------------------------
# CM field data


def test_fielddata_from_m_derives_square_flag():
    fd = CMFieldData.from_m(2, 15)
    assert fd.degree == 4 and fd.m == 2
    assert fd.disc_is_square is False
    assert CMFieldData.from_m(3, 9).disc_is_square is True


def test_fielddata_n_and_degree_must_be_ints():
    # refused at construction: a bool passes `n >= 1`, and a float would fail only inside the case table;
    # from_m refuses m itself, as 2 * True is the degree 2 and 2 * "6" the degree "66"
    for call, message in (
        (lambda: CMFieldData.from_m(6, True), "n must be an integer, got True"),
        (lambda: CMFieldData.from_m(6, 5.0), "n must be an integer, got 5.0"),
        (lambda: CMFieldData(12.0, 5), "degree must be an integer, got 12.0"),
        (lambda: CMFieldData.from_m(True, 5), "m must be an integer, got True"),
        (lambda: CMFieldData.from_m(6.0, 5), "m must be an integer, got 6.0"),
        (lambda: CMFieldData.from_m("6", 5), "m must be an integer, got '6'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_fielddata_validation():
    with pytest.raises(ValueError):
        CMFieldData(3, 1)  # odd degree
    with pytest.raises(ValueError):
        CMFieldData(4, 0)
    with pytest.raises(ValueError):
        CMFieldData.from_m(2, 15, nonsplit_witness=2)
    with pytest.raises(ValueError):
        CMFieldData.from_m(2, 15, nonsplit_witness=3, split_table={3: True})
    with pytest.raises(ValueError):
        CMFieldData.from_m(2, 15, split_table={4: False})


def test_fielddata_split_values_must_be_bools():
    # 1 == True, so a table {2: 1} would compare equal to {2: True} while
    # `split_status` and the JSON read it as something else
    for value in (1, 0, None, "true"):
        with pytest.raises(ValueError, match="prime 2 must be True or False"):
            CMFieldData.from_m(10, 3, None, {2: value})
    assert CMFieldData.from_m(10, 3, None, {2: True}).split_status(2) is True


def test_fielddata_split_status():
    fd = CMFieldData.from_m(2, 15, nonsplit_witness=3, split_table={5: True, 7: False})
    assert fd.split_status(3) is False
    assert fd.split_status(5) is True
    assert fd.split_status(7) is False
    assert fd.split_status(11) is None


def test_fielddata_json():
    doc = CMFieldData.from_m(2, 15, nonsplit_witness=3, split_table={7: False, 5: True}).to_json()
    assert doc == {
        "degree": 4,
        "n": 15,
        "disc_is_square": False,
        "nonsplit_witness": 3,
        "split_table": {"5": True, "7": False},
    }
    assert list(doc["split_table"]) == ["5", "7"]


# ---------------------------------------------------------------------------
# hyperbolicity comparison


NEEDS_DATA_SPACE = QuadSpace.of(1, -1, 3, -5)  # det class 15, discrepancy {3, 5}


def test_hyperbolicity_pass_on_actual_hyperbolic():
    # m = 1..10 covers both parities of C(m, 2), the target's bit at 2
    for m in range(1, 11):
        report = hyperbolicity_check(hyperbolic(m), CMFieldData.from_m(m, 1))
        assert report.verdict == "pass"
        assert report.discrepancy == ()
        assert report.passed


def test_hyperbolicity_needs_data_without_split_info():
    report = hyperbolicity_check(NEEDS_DATA_SPACE, CMFieldData.from_m(2, 15))
    assert report.verdict == "needs-data"
    assert report.discrepancy == (3, 5)
    assert report.unknown_split == (3, 5)
    assert not report.passed


def test_hyperbolicity_conditional_pass_with_certificates():
    fd = CMFieldData.from_m(2, 15, nonsplit_witness=3, split_table={5: False})
    report = hyperbolicity_check(NEEDS_DATA_SPACE, fd)
    assert report.verdict == "conditional-pass"
    assert report.certified_nonsplit == (3, 5)
    assert report.unknown_split == ()
    assert report.passed


def test_hyperbolicity_fail_on_split_conflict():
    fd = CMFieldData.from_m(2, 15, split_table={3: True})
    report = hyperbolicity_check(NEEDS_DATA_SPACE, fd)
    assert report.verdict == "fail"
    assert report.split_conflicts == (3,)
    assert not report.passed


def test_hyperbolicity_dimension_mismatch():
    with pytest.raises(ValueError):
        hyperbolicity_check(hyperbolic(3), CMFieldData.from_m(2, 1))


def test_hyperbolicity_json_shape():
    doc = hyperbolicity_check(NEEDS_DATA_SPACE, CMFieldData.from_m(2, 15)).to_json()
    assert doc == {
        "verdict": "needs-data",
        "discrepancy": [3, 5],
        "certified_nonsplit": [],
        "unknown_split": [3, 5],
        "split_conflicts": [],
    }


# ---------------------------------------------------------------------------
# full embedding criterion


def test_embedding_criterion_passes_on_hyperbolic_match():
    report = embedding_criterion(hyperbolic(4), CMFieldData.from_m(4, 1))
    assert report.verdict == "pass"
    assert report.det_matches
    assert report.signature_even
    assert report.passed


def test_embedding_criterion_fails_on_odd_signature_and_det():
    report = embedding_criterion(hyperbolic(3), CMFieldData.from_m(3, 1))
    assert report.verdict == "fail"
    assert not report.det_matches  # det(U^3) = -1, expected class of 1
    assert not report.signature_even


def test_embedding_criterion_fails_on_det_mismatch_alone():
    report = embedding_criterion(hyperbolic(2), CMFieldData.from_m(2, 3))
    assert report.verdict == "fail"
    assert not report.det_matches
    assert report.signature_even


def test_embedding_criterion_needs_data_propagates():
    report = embedding_criterion(NEEDS_DATA_SPACE, CMFieldData.from_m(2, 15))
    assert report.verdict == "needs-data"
    assert report.det_matches and report.signature_even
    assert report.hyperbolicity.verdict == "needs-data"


def test_embedding_criterion_conditional_data_gives_pass_verdict():
    fd = CMFieldData.from_m(2, 15, nonsplit_witness=3, split_table={5: False})
    report = embedding_criterion(NEEDS_DATA_SPACE, fd)
    assert report.verdict == "pass"
    assert report.hyperbolicity.verdict == "conditional-pass"


def test_embedding_criterion_json_mentions_every_layer():
    doc = embedding_criterion(hyperbolic(4), CMFieldData.from_m(4, 1)).to_json()
    assert set(doc) >= {"verdict", "det", "signature", "hyperbolicity"}
    assert doc["verdict"] == "pass"
