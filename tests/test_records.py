"""The contract of every public record class: construction by position,
keyword and default, equality, hashing, repr, immutability, pickling and
JSON."""

import ast
import copy
import inspect
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from k3cert.arith import Place, SquareClass
from k3cert.condition import CandidateReport, CheckResult, FeasibilityVerdict, check_candidate, feasibility
from k3cert.k3lattice import LatticeReport, LatticeSpec, NoMinusTwoCertificate
from k3cert.qform import (
    CMFieldData,
    EmbeddingReport,
    HyperbolicityReport,
    QuadSpace,
    SpaceInvariants,
)
from k3cert.weilpoly import IrreducibilityCertificate, NewtonPolygon, RatPoly, format_poly, parse_poly

POLYGON = NewtonPolygon(((Fraction(-1, 2), 2), (Fraction(0), 2), (Fraction(1, 2), 2)))
CHECK = CheckResult("pass", {"e": 1})
REPORT = CandidateReport("pass", 3, 2, 1, 1, 7, POLYGON, {"unit_circle": CHECK})
HYPERBOLICITY = HyperbolicityReport("conditional-pass", (3,), (3,), (), ())
EMBEDDING = EmbeddingReport("pass", True, SquareClass(1, 5), SquareClass(1, 5), (2, 10), True, HYPERBOLICITY)
INVARIANTS = SpaceInvariants(2, SquareClass(-1, 3), (1, 1), {Place(3): 1})

# (class, fields in order, a field and another value for it, hashable)
RECORDS = [
    (SquareClass, {"sign": -1, "sqfree": 15}, ("sign", 1), True),
    (Place, {"prime": 7}, ("prime", 11), True),
    (RatPoly, {"coeffs": (Fraction(1), Fraction(1, 7), Fraction(1))}, ("coeffs", (Fraction(2),)), True),
    (NewtonPolygon, {"segments": POLYGON.segments}, ("segments", ()), True),
    (
        IrreducibilityCertificate,
        {"verdict": "certified", "premises": {"unit_circle": True}, "detail": {"h": 2}},
        ("verdict", "unknown"),
        False,
    ),
    (CheckResult, {"status": "pass", "detail": {"e": 1}}, ("status", "fail"), False),
    (
        CandidateReport,
        {
            "verdict": "pass",
            "m": 3,
            "h": 2,
            "a": 1,
            "e": 1,
            "q": 7,
            "slope_profile": POLYGON,
            "checks": {"unit_circle": CHECK},
        },
        ("m", 4),
        False,
    ),
    (
        FeasibilityVerdict,
        {
            "p": 7,
            "rho": 2,
            "h": 1,
            "feasible": True,
            "reason": "theorem_case",
            "description": "a pair",
            "m": 10,
            "witness": RatPoly((Fraction(1), Fraction(1))),
            "report": REPORT,
            "witness_status": "computed",
        },
        ("rho", 4),
        False,
    ),
    (QuadSpace, {"entries": (Fraction(1), Fraction(-3, 2))}, ("entries", (Fraction(1),)), True),
    (
        SpaceInvariants,
        {"dim": 2, "det": SquareClass(-1, 3), "signature": (1, 1), "hasse": {Place(3): 1}},
        ("hasse", {}),
        False,
    ),
    (CMFieldData, {"degree": 12, "n": 5, "nonsplit_witness": 7, "split_table": {11: True}}, ("n", 6), False),
    (
        HyperbolicityReport,
        {
            "verdict": "needs-data",
            "discrepancy": (3, 5),
            "certified_nonsplit": (3,),
            "unknown_split": (5,),
            "split_conflicts": (),
        },
        ("verdict", "fail"),
        True,
    ),
    (
        EmbeddingReport,
        {
            "verdict": "pass",
            "det_matches": True,
            "expected_det": SquareClass(1, 5),
            "actual_det": SquareClass(1, 5),
            "signature": (2, 10),
            "signature_even": True,
            "hyperbolicity": HYPERBOLICITY,
        },
        ("signature_even", False),
        True,
    ),
    (LatticeSpec, {"blocks": ("U", -4, -20)}, ("blocks", ("U",)), True),
    (
        NoMinusTwoCertificate,
        {"n": 3, "mod4_square_residues": (0, 1), "mod4_required_residue": 3, "plus_two_vector": (1, 0)},
        ("n", 5),
        True,
    ),
    (
        LatticeReport,
        {
            "lattice": LatticeSpec(("U", -4)),
            "rank": 3,
            "signature": (1, 2),
            "rational_space": QuadSpace.of(1, -1, -1),
            "picard_invariants": INVARIANTS,
            "transcendental_invariants": INVARIANTS,
            "embedding": EMBEDDING,
            "no_minus2_certificate": None,
        },
        ("rank", 4),
        False,
    ),
]

# the parameters with a default value, for the classes that have any
DEFAULTS = {
    Place: {"prime": None},
    CMFieldData: {"nonsplit_witness": None, "split_table": None},
    FeasibilityVerdict: dict.fromkeys(("m", "witness", "report", "witness_status")),
}


@pytest.mark.parametrize("cls, fields, change, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, change, hashable):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(cls.__slots__) == list(fields)
    assert {p.kind for p in parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert {n: p.default for n, p in parameters.items() if p.default is not p.empty} == DEFAULTS.get(cls, {})
    init = cls.__init__
    assert (init.__qualname__, init.__module__) == (f"{cls.__name__}.__init__", cls.__module__)

    values = list(fields.values())
    required = [n for n, p in parameters.items() if p.default is p.empty]
    calls = [
        lambda: cls(*values, None),  # an extra positional argument
        lambda: cls(**fields, not_a_field=1),
        lambda: cls(*values, **{cls.__slots__[0]: values[0]}),  # a field given twice
    ]
    if required:
        calls.append(lambda: cls(**{n: v for n, v in fields.items() if n != required[0]}))
    for call in calls:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\)"):
            call()

    record = cls(*values)
    assert [getattr(record, name) for name in fields] == values

    by_keyword = cls(**fields)
    assert record == by_keyword and not record != by_keyword
    name, value = change
    other = cls(**{**fields, name: value})
    assert record != other and not record == other
    assert record != object() and (record == tuple(fields.values())) is False

    if hashable:
        assert hash(record) == hash(by_keyword)
        assert {record, by_keyword, other} == {record, other}
    else:
        with pytest.raises(TypeError):
            hash(record)

    text = repr(record)
    if cls is RatPoly:  # RatPoly keeps its own repr, the coefficient list
        assert text == "RatPoly('1,1/7,1')"
    else:
        assert text == cls.__name__ + "(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == by_keyword

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record


def _parts(value) -> list:
    """value and everything in it, through dicts, lists, tuples and records."""
    if isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, (list, tuple)):
        inner = value
    elif hasattr(type(value), "_values"):  # a record
        inner = value._values(value)
    else:
        inner = ()
    return [value] + [part for v in inner for part in _parts(v)]


def _dicts(value) -> list:
    """The dicts in value, itself included, through lists, tuples and records."""
    return [part for part in _parts(value) if isinstance(part, dict)]


def _mutables(value) -> list:
    """The dicts and lists in value, itself included, through lists, tuples and records."""
    return [part for part in _parts(value) if isinstance(part, (dict, list))]


def test_one_hash_rule_for_every_record_class():
    # a class whose sample holds a dict, directly or through another record,
    # is unhashable whatever its values; every other class hashes by value
    assert len(RECORDS) == 16
    for cls, fields, _, hashable in RECORDS:
        assert hashable is not bool(_dicts(cls(**fields))), cls.__name__
        assert (cls.__hash__ is None) is not hashable, cls.__name__
    # so a verdict with no report attached is unhashable too, like one with
    # a report, whose checks are dicts
    for verdict in (feasibility(7, 2, 1), feasibility(7, 2, 1, want_witness=True)):
        with pytest.raises(TypeError, match="unhashable type: 'FeasibilityVerdict'"):
            hash(verdict)
    with pytest.raises(TypeError, match="unhashable type: 'CheckResult'"):
        hash(CheckResult("pass", {}))  # an empty dict is still a dict


def test_record_defaults():
    assert Place() == Place(None) == Place.infinite()
    assert Place().prime is None
    data, again = CMFieldData(12, 5), CMFieldData(12, 5)
    assert (data.nonsplit_witness, data.split_table) == (None, {})
    assert data.split_table is not again.split_table  # a fresh table per instance
    verdict = FeasibilityVerdict(7, 2, 1, True, "theorem_case", "a pair")
    assert (verdict.m, verdict.witness, verdict.report, verdict.witness_status) == (None, None, None, None)
    assert verdict == FeasibilityVerdict(7, 2, 1, True, "theorem_case", "a pair", None, None, None, None)
    by_keyword = FeasibilityVerdict(p=7, rho=2, h=1, feasible=True, reason="theorem_case", description="a pair")
    assert verdict == by_keyword


def test_validated_records_copy_their_mutable_arguments():
    # a later change to the caller's list or dict cannot undo a check
    signature, hasse = [1, 1], {Place(3): 1}
    space = SpaceInvariants(2, SquareClass(-1, 3), signature, hasse)
    signature.append(1)
    hasse[Place(5)] = 0
    segments = list(POLYGON.segments)
    polygon = NewtonPolygon(segments)
    segments.append((Fraction(-3), 0))
    blocks = ["U", -4]
    spec = LatticeSpec(blocks)
    blocks.append(3)
    table = {13: False}
    data, from_m = CMFieldData(14, 5, 11, table), CMFieldData.from_m(7, 5, 11, table)
    table[11] = True

    assert space == INVARIANTS and space.to_json()["hasse"] == {"3": 1}
    assert polygon == POLYGON
    assert spec == LatticeSpec(("U", -4)) and spec.rank == 3
    assert data == from_m == CMFieldData(14, 5, 11, {13: False})
    assert data.split_status(11) is False


HYPERBOLICITY_JSON = {
    "verdict": "conditional-pass",
    "discrepancy": [3],
    "certified_nonsplit": [3],
    "unknown_split": [],
    "split_conflicts": [],
}
EMBEDDING_JSON = {
    "verdict": "pass",
    "det": {"matches": True, "expected": {"sign": 1, "sqfree": 5}, "actual": {"sign": 1, "sqfree": 5}},
    "signature": {"value": [2, 10], "even": True},
    "hyperbolicity": HYPERBOLICITY_JSON,
}
INVARIANTS_JSON = {"dim": 2, "det": {"sign": -1, "sqfree": 3}, "sig": [1, 1], "hasse": {"3": 1}}
POLYGON_JSON = [["-1/2", 2], ["0", 2], ["1/2", 2]]
REPORT_JSON = {
    "verdict": "pass",
    "m": 3,
    "h": 2,
    "a": 1,
    "e": 1,
    "q": 7,
    "slope_profile": POLYGON_JSON,
    "checks": {"unit_circle": {"status": "pass", "e": 1}},
}

# the JSON document of each `RECORDS` sample, keys in order; `Place` has no
# JSON of its own, and a `RatPoly` is the text of `format_poly`
RECORD_JSON = {
    SquareClass: {"sign": -1, "sqfree": 15},
    NewtonPolygon: POLYGON_JSON,
    IrreducibilityCertificate: {"verdict": "certified", "premises": {"unit_circle": True}, "detail": {"h": 2}},
    CheckResult: {"status": "pass", "e": 1},
    CandidateReport: REPORT_JSON,
    FeasibilityVerdict: {
        "p": 7,
        "rho": 2,
        "h": 1,
        "feasible": True,
        "reason": "theorem_case",
        "description": "a pair",
        "m": 10,
        "witness": "1,1",
        "report": REPORT_JSON,
        "witness_status": "computed",
    },
    QuadSpace: ["1", "-3/2"],
    SpaceInvariants: INVARIANTS_JSON,
    CMFieldData: {"degree": 12, "n": 5, "disc_is_square": False, "nonsplit_witness": 7, "split_table": {"11": True}},
    HyperbolicityReport: {
        "verdict": "needs-data",
        "discrepancy": [3, 5],
        "certified_nonsplit": [3],
        "unknown_split": [5],
        "split_conflicts": [],
    },
    EmbeddingReport: EMBEDDING_JSON,
    LatticeSpec: {"blocks": ["U", {"diag": -4}, {"diag": -20}]},
    NoMinusTwoCertificate: {
        "n": 3,
        "target": -2,
        "mod4": {"square_residues": [0, 1], "required_residue": 3, "obstructed": True},
        "plus_two_vector": [1, 0],
    },
    LatticeReport: {
        "lattice": {"blocks": ["U", {"diag": -4}]},
        "rank": 3,
        "signature": [1, 2],
        "rational_space": ["1", "-1", "-1"],
        "picard_invariants": INVARIANTS_JSON,
        "transcendental_invariants": INVARIANTS_JSON,
        "embedding": EMBEDDING_JSON,
        "no_minus2_certificate": None,
    },
}

# samples whose optional fields take their other form: defaults left as
# None, a certificate attached, lists and None in a detail
EXTRA_JSON = [
    (
        FeasibilityVerdict(5, 2, 3, False, "artin_violation", "no pair"),
        {
            "p": 5,
            "rho": 2,
            "h": 3,
            "feasible": False,
            "reason": "artin_violation",
            "description": "no pair",
            "m": None,
            "witness": None,
            "report": None,
            "witness_status": None,
        },
    ),
    (
        LatticeReport(LatticeSpec((2, -8)), 2, (1, 1), QuadSpace.of(2, -8), INVARIANTS, INVARIANTS, EMBEDDING,
                      NoMinusTwoCertificate(1, (0, 1), 3, (1, 0))),
        {
            "lattice": {"blocks": [{"diag": 2}, {"diag": -8}]},
            "rank": 2,
            "signature": [1, 1],
            "rational_space": ["2", "-8"],
            "picard_invariants": INVARIANTS_JSON,
            "transcendental_invariants": INVARIANTS_JSON,
            "embedding": EMBEDDING_JSON,
            "no_minus2_certificate": {
                "n": 1,
                "target": -2,
                "mod4": {"square_residues": [0, 1], "required_residue": 3, "obstructed": True},
                "plus_two_vector": [1, 0],
            },
        },
    ),
    (
        IrreducibilityCertificate(
            "unknown",
            {"pure_negative_slope": False, "unit_circle": True},
            {"segments": POLYGON_JSON, "h": 4, "a": None, "cyclotomic_index": 12},
        ),
        {
            "verdict": "unknown",
            "premises": {"pure_negative_slope": False, "unit_circle": True},
            "detail": {"segments": POLYGON_JSON, "h": 4, "a": None, "cyclotomic_index": 12},
        },
    ),
    (
        CheckResult("fail", {"segments": POLYGON_JSON, "h": None}),
        {"status": "fail", "segments": POLYGON_JSON, "h": None},
    ),
]


def _assert_json(record, expected) -> None:
    doc = record.to_json()
    # == tells a list from a tuple; the dump pins the order of the keys
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)
    # no dict or list of the document is one the record holds, so editing
    # the document cannot change the record
    held = {id(part) for part in _mutables(record)}
    assert not [part for part in _mutables(doc) if id(part) in held]


def test_every_record_json_literally():
    assert set(RECORD_JSON) == {cls for cls, *_ in RECORDS} - {Place, RatPoly}
    for cls, fields, _, _ in RECORDS:
        if cls in RECORD_JSON:
            _assert_json(cls(**fields), RECORD_JSON[cls])
    for record, expected in EXTRA_JSON:
        _assert_json(record, expected)



def test_editing_a_report_document_leaves_the_report():
    report = check_candidate(parse_poly("1,1/7,1,1/7,1"), 7)
    doc = report.to_json()
    doc["checks"]["slope_profile"]["segments"].append(["9", 9])
    assert report == check_candidate(parse_poly("1,1/7,1,1/7,1"), 7)


def test_polynomial_json_is_its_text():
    for poly in (RatPoly((Fraction(1), Fraction(1, 7), Fraction(1))), RatPoly.of(0, -3, Fraction(5, 2)), RatPoly(())):
        assert poly.to_json() == format_poly(poly)
    assert RatPoly.of(1, Fraction(1, 7), 1).to_json() == "1,1/7,1"


@pytest.mark.parametrize("cls, fields", [r[:2] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_trusted_construction_equals_the_constructor(cls, fields):
    trusted, record = cls._trusted(*fields.values()), cls(**fields)
    assert type(trusted) is cls and trusted == record
    assert repr(trusted) == repr(record)
    assert json.dumps(trusted.to_json()) == json.dumps(record.to_json())
    clone = pickle.loads(pickle.dumps(trusted))
    assert type(clone) is cls and clone == record


def test_trusted_construction_runs_no_check():
    # the callers of `_trusted` have proved what the constructor would check
    assert SquareClass._trusted(1, 4).sqfree == 4
    assert Place._trusted(4).prime == 4
    assert NewtonPolygon._trusted(((Fraction(1), 1), (Fraction(0), 1))).total_length == 2
    assert RatPoly._trusted((Fraction(1), Fraction(0))).coeffs == (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        SquareClass(1, 4)


def _references(path: Path) -> set[str]:
    """The names a module uses: bare, imported, and as name.attribute."""
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    return (
        {n.id for n in nodes if isinstance(n, ast.Name)}
        | {n.name for n in nodes if isinstance(n, ast.alias)}
        | {f"{n.value.id}.{n.attr}" for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    )


def test_only_arith_writes_record_slots():
    # `_Record.__init_subclass__` compiles the only code that stores fields:
    # every other module builds a record through its class
    writers = {"_assign", "arith._assign", "object.__new__", "object.__setattr__"}
    modules = {path.name: _references(path) for path in (Path(__file__).parent.parent / "src" / "k3cert").glob("*.py")}
    assert len(modules) >= 6 and {"object.__new__", "object.__setattr__"} <= modules.pop("arith.py")
    for name, references in modules.items():
        assert not references & writers, name
