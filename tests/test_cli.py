"""Command-line interface: exit codes, output shapes, and JSON stability."""

import argparse
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import k3cert.cli as cli
import k3cert.condition as condition
from k3cert.condition import WitnessSearchError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_annotation_in_the_cli_resolves():
    # annotations are strings here (PEP 563); each must name something the
    # cli module itself holds, since it loads no layer module at import
    functions = [f for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__]
    for cls in vars(cli).values():
        if inspect.isclass(cls) and cls.__module__ == cli.__name__:
            functions += [f for f in vars(cls).values() if inspect.isfunction(f)]
    assert cli._report_lines in functions and cli._Parser.error in functions
    for function in functions:
        typing.get_type_hints(function)


# ---------------------------------------------------------------------------
# happy paths, text output


def test_check_text_output(capsys):
    code, out, err = run(capsys, "check", "--p", "7", "--coeffs", "1,1/7,1,1/7,1")
    assert code == 0 and err == ""
    assert "verdict: pass" in out
    assert "m=2" in out and "h=1" in out and "q=7" in out


def test_check_double_root_at_minus_one_is_on_the_circle(capsys):
    code, out, err = run(capsys, "check", "--p", "7", "--coeffs", "1,2,1")
    assert code == 0 and err == ""
    assert "unit_circle: pass" in out and "no_root_of_unity: fail" in out


def test_construct_text_output(capsys):
    code, out, err = run(capsys, "construct", "--p", "7", "--m", "2", "--h", "1")
    assert code == 0
    assert "1,1/7,1,1/7,1" in out
    assert "verdict: pass" in out


def test_construct_even_h_direct_route(capsys):
    # m = 10 with even h takes the direct search: e = 1 and q = p^a (a = 3 here), not a square
    code, out, _ = run(capsys, "construct", "--p", "7", "--m", "10", "--h", "4")
    assert code == 0
    assert "m=10 h=4 a=3 e=1 q=343" in out


def test_lattice_text_output(capsys):
    code, out, _ = run(capsys, "lattice", "--m", "9", "--n", "3")
    assert code == 0
    assert "blocks: U, <-12>, <-4>" in out
    assert "embedding criterion: pass" in out


def test_lattice_with_aux_prime(capsys):
    code, out, _ = run(capsys, "lattice", "--m", "8", "--n", "5", "--p1", "7")
    assert code == 0
    assert "-308" in out
    assert "conditional-pass" in out or "pass" in out


def test_lattice_split_table(capsys):
    code, out, _ = run(
        capsys,
        "lattice",
        "--m",
        "10",
        "--n",
        "5",
        "--split",
        "2=false",
        "--split",
        "5=false",
    )
    assert code == 0
    assert "conditional-pass" in out


def test_feasible_text_output(capsys):
    code, out, _ = run(capsys, "feasible", "--p", "7", "--rho", "6", "--height", "9")
    assert code == 0  # a negative verdict is still a successful run
    assert "feasible: no" in out and "artin_violation" in out
    code, out, _ = run(
        capsys, "feasible", "--p", "7", "--rho", "4", "--height", "9", "--witness"
    )
    assert code == 0
    assert "witness" in out and "1," in out


def test_feasible_unsupported_case_text(capsys):
    code, out, _ = run(
        capsys, "feasible", "--p", "5", "--rho", "2", "--height", "9", "--witness"
    )
    assert code == 0
    assert "unsupported" in out


def test_table_text_output(capsys):
    code, out, _ = run(capsys, "table", "--p", "5")
    assert code == 0
    # 10 rho rows; the rho = 2 row carries the odd-h unsupported marks
    assert out.count("\n") >= 10
    assert "u" in out


def test_hilbert_text_output(capsys):
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "2")
    assert code == 0
    assert out.strip().endswith("1")
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "7")
    assert out.strip().endswith("0")
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "inf")
    assert out.strip().endswith("1")


def test_strip_text_output(capsys):
    code, out, _ = run(capsys, "strip", "--coeffs", "1,0,0,-1")
    assert code == 0
    assert "removed" in out and "1" in out and "3" in out


# ---------------------------------------------------------------------------
# JSON output


def test_check_json_matches_golden(capsys):
    code, out, _ = run(capsys, "check", "--p", "7", "--coeffs", "1,1/7,1,1/7,1", "--json")
    assert code == 0
    assert out == (GOLDEN / "check_worked.json").read_text()


def test_json_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "lattice", "--m", "8", "--n", "5", "--p1", "7", "--json"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_json_envelope_shape(capsys):
    _, out, _ = run(capsys, "feasible", "--p", "7", "--rho", "2", "--height", "1", "--json")
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "result"}
    assert doc["command"] == "feasible"
    assert doc["inputs"]["rho"] == 2
    assert doc["result"]["verdict"]["feasible"] is True


def test_construct_json_roundtrips_through_check(capsys):
    _, out, _ = run(capsys, "construct", "--p", "5", "--m", "3", "--h", "2", "--json")
    witness = json.loads(out)["result"]["coefficients"]
    code, out2, _ = run(capsys, "check", "--p", "5", "--coeffs", witness, "--json")
    assert code == 0
    assert json.loads(out2)["result"]["report"]["verdict"] == "pass"


def test_table_json_grid(capsys):
    _, out, _ = run(capsys, "table", "--p", "5", "--json")
    cells = json.loads(out)["result"]["cells"]
    assert len(cells) == 100  # rho in {2, ..., 20} x h in {1, ..., 10}
    by_pair = {(c["rho"], c["h"]): c for c in cells}
    assert by_pair[(2, 9)]["witness_status"] == "unsupported_case"
    assert by_pair[(2, 8)] == {"rho": 2, "h": 8, "feasible": True, "witness_status": None}
    assert by_pair[(20, 2)]["feasible"] is False


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_feasibility_construct_and_table_agree_on_the_whole_grid(p, capsys):
    # every feasible (rho, h) cell outside the p = 5, m = 10, odd-h pocket
    # gets from `feasibility` the witness and report of the direct search,
    # which `k3cert construct` prints, with e = 1; the table marks it "o"
    _, _, rows = cli._cmd_table(argparse.Namespace(p=p))
    witnessed = 0
    for row in rows[1:11]:
        rho, *marks = row.split()
        rho = int(rho)
        m = 11 - rho // 2
        for h, mark in enumerate(marks, start=1):
            if rho > 22 - 2 * h:
                assert mark == ".", (rho, h)
                continue
            if p == 5 and m == 10 and h % 2:
                assert mark == "u", (rho, h)
                continue
            assert mark == "o", (rho, h)
            verdict = condition.feasibility(p, rho, h, want_witness=True)
            L, report = condition.construct_witness(p, m, h)
            assert (verdict.witness, verdict.report) == (L, report), (rho, h)
            assert verdict.witness_status == "computed" and report.e == 1, (rho, h)
            code, out, _ = run(capsys, "construct", "--p", str(p), "--m", str(m), "--h", str(h), "--json")
            assert code == 0 and json.loads(out)["result"]["report"] == report.to_json(), (rho, h)
            witnessed += 1
    assert witnessed == (50 if p == 5 else 55)


def test_hilbert_json(capsys):
    # argparse needs the = form for negative non-integer values
    _, out, _ = run(capsys, "hilbert", "--a", "1/2", "--b=-3/4", "--place", "2", "--json")
    doc = json.loads(out)
    assert doc["result"]["bit"] in (0, 1)


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--p", "6", "--coeffs", "1,1,1"),  # composite p
        ("check", "--p", "7", "--coeffs", "1,2"),  # odd degree
        ("check", "--p", "7", "--coeffs", "1,x,1"),  # unparseable
        ("check", "--p", "7", "--coeffs", "1/0"),  # zero denominator
        ("construct", "--p", "7", "--m", "4", "--h", "5"),  # h > m
        ("construct", "--p", "7", "--m", "12", "--h", "1"),  # m out of range
        ("construct", "--p", "7", "--m", "3", "--h", "1", "--a-start", "60"),  # a_start > a_cap
        ("construct", "--p", "9", "--m", "2", "--h", "1"),  # composite p
        ("construct", "--p", "7", "--m", "10", "--h", "0"),  # h = 0 at m = 10
        ("lattice", "--m", "5", "--n", "1"),  # m below case table
        ("lattice", "--m", "7", "--n", "1"),  # missing p1
        ("lattice", "--m", "9", "--n", "0"),  # bad n
        ("lattice", "--m", "9", "--n", "3", "--split", "5"),  # malformed split
        ("lattice", "--m", "9", "--n", "3", "--split", "4=true"),  # composite prime
        ("lattice", "--m", "8", "--n", "5", "--p1", "7", "--split", "11=true", "--split", "11=false"),  # repeated prime
        ("feasible", "--p", "3", "--rho", "2", "--height", "1"),  # p too small
        ("feasible", "--p", "7", "--rho", "3", "--height", "1"),  # odd rho
        ("table", "--p", "4"),  # composite p
        ("table", "--p", "3"),  # p too small
        ("hilbert", "--a", "0", "--b", "1", "--place", "2"),  # zero argument
        ("hilbert", "--a", "1", "--b", "1", "--place", "9"),  # bad place
        ("strip", "--coeffs", "0"),  # zero polynomial
        ("strip", "--coeffs", "0,1"),  # zero constant term
        ("check", "--p", "-7", "--coeffs", "1,0,1"),  # negative p
        ("nonsense",),  # unknown command
        (),  # no command
    ],
)
def test_bad_inputs_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err.lower() or "usage" in err.lower()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--m", "6", "--n", "1125902456980891"), 1),  # 33554467 * 33554473: refused
        (("--m", "7", "--n", "1", "--p1", "4611686018427388039"), 0),  # a prime near 2**62
    ],
)
def test_lattice_large_inputs_return_promptly(argv, code):
    # a subprocess with a timeout, so a factoring loop that never ends fails the test
    # instead of hanging the suite
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "k3cert.cli", "lattice", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_lattice_accepts_the_square_of_a_large_prime():
    # n = (2**20 + 7)**2: the cofactor left after trial division is a prime
    # squared, so n has the trivial square class
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "k3cert.cli", "lattice", "--m", "6", "--n", "1099526307889", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]["report"]
    assert report["transcendental_invariants"]["det"] == {"sign": 1, "sqfree": 1}


@pytest.mark.parametrize("m", ["7", "8"])
def test_lattice_multiplies_classes_of_two_large_primes(m):
    # the class products reach 1048583 * 1048601, which trial division to
    # 2**20 cannot factor; a product of two classes is not factored again
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "k3cert.cli", "lattice", "--m", m, "--n", "1048583", "--p1", "1048601", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]["report"]
    assert report["transcendental_invariants"]["det"] == {"sign": 1, "sqfree": 1048583}
    assert report["embedding"]["verdict"] == "pass"


def test_lattice_json_derives_disc_square(capsys):
    for n, square in (("4", True), ("5", False)):
        code, out, _ = run(capsys, "lattice", "--m", "10", "--n", n, "--json")
        assert code == 0
        assert json.loads(out)["inputs"]["disc_square"] is square


def test_internal_failures_exit_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise WitnessSearchError("search space exhausted")

    monkeypatch.setattr(condition, "construct_witness", boom)
    code, out, err = run(capsys, "construct", "--p", "7", "--m", "2", "--h", "1")
    assert code == 2
    assert "internal error" in err


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_one_quietly(unbuffered):
    # stdout is a pipe whose read end is already closed; unbuffered, the
    # print itself fails, buffered, only a flush does
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3cert.cli", "table", "--p", "7"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_version_independent_of_locale(capsys, monkeypatch):
    # coefficient parsing must not be locale-sensitive
    monkeypatch.setenv("LC_ALL", "de_DE.UTF-8")
    code, out, _ = run(capsys, "check", "--p", "7", "--coeffs", "1,1/7,1,1/7,1")
    assert code == 0 and "pass" in out
