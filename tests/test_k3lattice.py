"""Case table of candidate Picard blocks and their verification inside the
rank-22 ambient lattice."""

import random
from fractions import Fraction

import pytest

import k3cert.k3lattice as k3lattice
from k3cert.arith import Place, SquareClass, companion_prime, legendre, square_class
from k3cert.condition import construct_witness
from k3cert.k3lattice import (
    K3_RANK,
    LatticeSpec,
    build_picard_lattice,
    k3_ambient_invariants,
    no_minus_two_vector,
    rationalize,
    verify_lattice,
)
from k3cert.qform import CMFieldData, QuadSpace, invariants

from oracles import brute_legendre


def fielddata(m, n, p1=None, split=None):
    return CMFieldData.from_m(m, n, nonsplit_witness=p1, split_table=split or {})


# ---------------------------------------------------------------------------
# block specs


def test_latticespec_rank_and_signature():
    spec = LatticeSpec(("U", -12, -4))
    assert spec.rank == 4
    assert spec.signature == (1, 3)


def test_latticespec_evenness_enforced_at_construction():
    LatticeSpec((2, -40))  # even diagonal blocks are accepted
    with pytest.raises(ValueError):
        LatticeSpec((1,))
    with pytest.raises(ValueError):
        LatticeSpec(("U", -3))


def test_latticespec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(("U", 0))
    with pytest.raises(ValueError):
        LatticeSpec(("V", -4))
    with pytest.raises(ValueError):
        LatticeSpec(())


def test_latticespec_json():
    assert LatticeSpec(("U", -12)).to_json() == {"blocks": ["U", {"diag": -12}]}


# ---------------------------------------------------------------------------
# ambient lattice


def test_ambient_invariants_match_diagonal_model():
    # signature (3, 19) odd unimodular: rationally <1>^3 + <-1>^19
    model = QuadSpace.of(*([1] * 3 + [-1] * 19))
    assert k3_ambient_invariants() == invariants(model)


def test_ambient_shape():
    inv = k3_ambient_invariants()
    assert inv.dim == K3_RANK == 22
    assert inv.det == SquareClass(-1, 1)
    assert inv.signature == (3, 19)
    assert sorted(str(v) for v in inv.hasse) == ["2", "inf"]


def test_changing_an_ambient_record_leaves_verify_lattice_unchanged():
    # verify_lattice reads a record of its own, built once at import
    fd = fielddata(9, 3)
    before = verify_lattice(9, fd)
    k3_ambient_invariants().hasse.clear()
    assert verify_lattice(9, fd) == before
    assert k3_ambient_invariants().hasse_support == (Place.finite(2), Place.infinite())


# ---------------------------------------------------------------------------
# the case table


def test_case_table_frozen_blocks():
    assert build_picard_lattice(9, fielddata(9, 3)).blocks == ("U", -12, -4)
    assert build_picard_lattice(6, fielddata(6, 2)).blocks == (
        "U",
        -8,
        -4,
        -4,
        -4,
        -4,
        -4,
        -4,
        -4,
    )
    assert build_picard_lattice(8, fielddata(8, 5, p1=7)).blocks == (
        "U",
        -20,
        -28,
        -44,
        -308,
    )
    assert build_picard_lattice(7, fielddata(7, 1, p1=7)).blocks == (
        "U",
        -4,
        -4,
        -4,
        -28,
        -44,
        -308,
    )
    assert build_picard_lattice(10, fielddata(10, 1)).blocks == ("U",)
    assert build_picard_lattice(10, fielddata(10, 4)).blocks == ("U",)
    assert build_picard_lattice(10, fielddata(10, 5)).blocks == (2, -40)


def test_case_table_rank_complements_degree():
    cases = [
        (6, fielddata(6, 1)),
        (7, fielddata(7, 2, p1=11)),
        (8, fielddata(8, 3, p1=5)),
        (9, fielddata(9, 7)),
        (10, fielddata(10, 9)),
        (10, fielddata(10, 6)),
    ]
    for m, fd in cases:
        spec = build_picard_lattice(m, fd)
        assert spec.rank == K3_RANK - 2 * m
        assert spec.signature == (1, 21 - 2 * m)


def test_case_table_guards():
    with pytest.raises(ValueError):
        build_picard_lattice(5, fielddata(5, 1))
    with pytest.raises(ValueError):
        build_picard_lattice(11, fielddata(11, 1))
    with pytest.raises(ValueError):
        build_picard_lattice(7, fielddata(7, 1))  # no witness prime
    with pytest.raises(ValueError):
        build_picard_lattice(8, fielddata(7, 1, p1=7))  # degree mismatch


def test_case_table_guard_rejects_a_wrong_rank(monkeypatch):
    # every row of the table complements 2m in the rank-22 lattice, so the
    # rank and signature guard fires only against a different ambient rank
    monkeypatch.setattr(k3lattice, "K3_RANK", K3_RANK + 2)
    for m, fd in [(6, fielddata(6, 1)), (8, fielddata(8, 3, p1=5)), (10, fielddata(10, 9))]:
        with pytest.raises(RuntimeError):
            build_picard_lattice(m, fd)


def test_rationalize_reduces_to_square_classes():
    space = rationalize(LatticeSpec(("U", -12, -4)))
    assert space.entries == (Fraction(1), Fraction(-1), Fraction(-3), Fraction(-1))
    assert rationalize(LatticeSpec((2, -40))).entries == (Fraction(2), Fraction(-10))


def test_picard_det_matches_block_determinant():
    for m, fd in [(9, fielddata(9, 3)), (8, fielddata(8, 5, p1=7))]:
        spec = build_picard_lattice(m, fd)
        det = 1
        for b in spec.blocks:
            det *= -1 if b == "U" else b
        report = verify_lattice(m, fd)
        assert report.picard_invariants.det == square_class(det)


# ---------------------------------------------------------------------------
# full verification reports


def test_verify_lattice_rank9_case():
    report = verify_lattice(9, fielddata(9, 3))
    assert report.rank == 4
    assert report.signature == (1, 3)
    assert report.lattice.blocks[0] == "U"
    assert report.no_minus2_certificate is None
    t = report.transcendental_invariants
    assert t.dim == 18
    assert t.signature == (2, 16)
    assert t.det == square_class(3)
    assert report.embedding.verdict == "pass"
    assert report.embedding.hyperbolicity.discrepancy == ()


def test_verify_lattice_transcendental_complement_relation():
    for m, fd in [
        (6, fielddata(6, 2)),
        (7, fielddata(7, 3, p1=7)),
        (8, fielddata(8, 5, p1=7)),
        (9, fielddata(9, 1)),
        (10, fielddata(10, 1)),
        (10, fielddata(10, 7)),
    ]:
        report = verify_lattice(m, fd)
        t = report.transcendental_invariants
        assert t.dim == 2 * m
        assert t.signature == (2, 2 * m - 2)
        assert t.det == square_class(fd.n)
        # det(T) * det(Picard) = det(ambient) = class of -1
        assert t.det * report.picard_invariants.det == SquareClass(-1, 1)


def test_verify_lattice_aux_prime_cases_conditional():
    for m, n, p1 in [(7, 1, 7), (7, 5, 11), (8, 5, 7), (8, 2, 3)]:
        report = verify_lattice(m, fielddata(m, n, p1=p1))
        assert report.embedding.verdict == "pass"
        hyp = report.embedding.hyperbolicity
        assert hyp.verdict in ("pass", "conditional-pass")
        assert set(hyp.discrepancy) <= {p1}
        if hyp.discrepancy:
            assert hyp.certified_nonsplit == (p1,)


def test_verify_lattice_rank2_square_case():
    report = verify_lattice(10, fielddata(10, 16))
    assert report.lattice.blocks == ("U",)
    assert report.embedding.verdict == "pass"
    assert report.no_minus2_certificate is None


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_m10_even_h_witnesses_take_the_U_route(p):
    # L = T^10 F(T + 1/T), so L(1) L(-1) = F(2) F(-2): its square class is
    # read from the witness's own Fraction coefficients, with no weilpoly kernel
    for h in (2, 4, 6, 8, 10):
        L, report = construct_witness(p, 10, h)
        assert report.e == 1, h
        at_one = sum(L.coeffs)
        at_minus_one = sum(-c if i % 2 else c for i, c in enumerate(L.coeffs))
        disc = square_class(at_one * at_minus_one)
        assert disc == SquareClass(1, 1), h  # a positive square: n = 1
        report = verify_lattice(10, fielddata(10, disc.sqfree))
        assert report.lattice.blocks == ("U",) and report.embedding.verdict == "pass", h


def test_verify_lattice_rank2_nonsquare_case():
    report = verify_lattice(10, fielddata(10, 5))
    assert report.lattice.blocks == (2, -40)
    cert = report.no_minus2_certificate
    assert cert is not None and cert.holds
    assert cert.plus_two_vector == (1, 0)  # square 2 * 1**2 - 40 * 0**2 = 2
    assert report.embedding.verdict == "needs-data"
    assert report.embedding.hyperbolicity.discrepancy == (2, 5)


def test_verify_lattice_nonsquare_with_split_data():
    fd = fielddata(10, 5, split={2: False, 5: False})
    report = verify_lattice(10, fd)
    assert report.embedding.verdict == "pass"
    assert report.embedding.hyperbolicity.verdict == "conditional-pass"


def _is_local_square(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    if v % 2:
        return False
    if q == 2:
        return n % 8 == 1
    return brute_legendre(n % q, q) == 1


def test_verify_lattice_nonsquare_never_fails_outright():
    for n in range(2, 60):
        if square_class(n).is_trivial:
            continue
        report = verify_lattice(10, fielddata(10, n))
        hyp = report.embedding.hyperbolicity
        assert hyp.verdict in ("pass", "conditional-pass", "needs-data")
        assert report.embedding.verdict != "fail"
        # discrepancies only appear where n is not a local square
        for q in hyp.discrepancy:
            assert not _is_local_square(n, q), (n, q)


def test_verify_lattice_randomized_sweeps():
    rng = random.Random(1815)
    odd34 = [3, 7, 11, 19, 23, 31, 43]
    for _ in range(50):
        m = rng.choice([6, 7, 8, 9, 10])
        n = rng.randint(1, 120)
        p1 = rng.choice(odd34) if m in (7, 8) else None
        report = verify_lattice(m, fielddata(m, n, p1=p1))
        assert report.rank == K3_RANK - 2 * m <= 10
        assert report.transcendental_invariants.det == square_class(n)
        if m in (6, 9):
            assert report.embedding.verdict == "pass"


def test_report_json_shape():
    doc = verify_lattice(9, fielddata(9, 3)).to_json()
    assert set(doc) == {
        "lattice",
        "rank",
        "signature",
        "rational_space",
        "picard_invariants",
        "transcendental_invariants",
        "embedding",
        "no_minus2_certificate",
    }


# ---------------------------------------------------------------------------
# the (-2)-vector exclusion


def test_no_minus_two_certificate_structure():
    cert = no_minus_two_vector(5)
    assert cert.n == 5
    assert cert.mod4_required_residue == 3
    assert cert.holds


def test_no_minus_two_for_many_n():
    # 2x^2 - 8ny^2 = -2 reduces to x^2 + 1 = 0 mod 4, which never happens
    for n in range(1, 120):
        assert no_minus_two_vector(n).holds


def test_no_minus_two_rejects_bad_input():
    with pytest.raises(ValueError):
        no_minus_two_vector(0)


def test_companion_prime_feeds_case_table():
    # the p2 entries in the frozen blocks above come from this search
    assert companion_prime(7) == 11
    assert legendre(11, 7) == 1
