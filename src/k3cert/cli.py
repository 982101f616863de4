"""Command line front end.

Subcommands: construct, check, lattice, feasible, table, hilbert, strip.
Every verdict-producing run exits 0, even when the verdict itself is
negative (a failed check, an infeasible pair); exit 1 means the request
was malformed, exit 2 an internal guard tripped.  With --json the output
is a single stable document {"command": ..., "inputs": ..., "result": ...}.
A run whose stdout reader has already gone (a closed pipe) exits 1 with
nothing on stderr.

Each handler imports the layers it uses, so a call loads only what its
subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through UsageError for exit 1 instead
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="k3cert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a passing candidate for (p, m, h)")
    p_construct.add_argument("--p", type=int, required=True)
    p_construct.add_argument("--m", type=int, required=True)
    p_construct.add_argument("--h", type=int, required=True)
    p_construct.add_argument("--a-start", type=int, default=1)

    p_check = sub.add_parser("check", help="run the six-part test on given coefficients")
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument("--coeffs", type=str, required=True, help="ascending, e.g. 1,1/7,1,1/7,1")

    p_lattice = sub.add_parser("lattice", help="build and certify a case lattice")
    p_lattice.add_argument("--m", type=int, required=True)
    p_lattice.add_argument("--n", type=int, required=True)
    p_lattice.add_argument("--p1", type=int, default=None, help="nonsplit witness prime")
    p_lattice.add_argument(
        "--split",
        action="append",
        default=[],
        metavar="PRIME=BOOL",
        help="known splitting behaviour, repeatable",
    )

    p_feasible = sub.add_parser("feasible", help="decide a (rho, height) pair")
    p_feasible.add_argument("--p", type=int, required=True)
    p_feasible.add_argument("--rho", type=int, required=True)
    p_feasible.add_argument("--height", type=int, required=True)
    p_feasible.add_argument("--witness", action="store_true")

    p_table = sub.add_parser("table", help="full rho x height feasibility grid")
    p_table.add_argument("--p", type=int, required=True)

    p_hilbert = sub.add_parser("hilbert", help="Hilbert symbol of two rationals at a place")
    p_hilbert.add_argument("--a", type=str, required=True)
    p_hilbert.add_argument("--b", type=str, required=True)
    p_hilbert.add_argument("--place", type=str, required=True, help='a prime, or "inf"')

    p_strip = sub.add_parser("strip", help="divide out all cyclotomic factors")
    p_strip.add_argument("--coeffs", type=str, required=True)
    for subparser in sub.choices.values():
        subparser.add_argument("--json", action="store_true")
    return parser


def _report_lines(report) -> list[str]:
    lines = [f"verdict: {report.verdict}"]
    invs = " ".join(
        f"{k}={v}" for k, v in (("m", report.m), ("h", report.h), ("a", report.a), ("e", report.e), ("q", report.q))
        if v is not None
    )
    lines.append(invs)
    profile = ", ".join(f"slope {s} x{l}" for s, l in report.slope_profile.to_json())
    lines.append(f"newton polygon: {profile}")
    for name, res in report.checks.items():
        lines.append(f"  {name}: {res.status}")
    if report.failed_checks:
        lines.append("failed: " + ", ".join(report.failed_checks))
    if report.unknown_checks:
        lines.append("unknown: " + ", ".join(report.unknown_checks))
    return lines


def _cmd_construct(args) -> tuple[dict, dict, list[str]]:
    from .condition import construct_witness
    from .weilpoly import format_poly

    L, report = construct_witness(args.p, args.m, args.h, args.a_start)
    inputs = {"p": args.p, "m": args.m, "h": args.h, "a_start": args.a_start}
    result = {"coefficients": format_poly(L), "report": report.to_json()}
    text = [f"coefficients: {format_poly(L)}"] + _report_lines(report)
    return inputs, result, text


def _cmd_check(args) -> tuple[dict, dict, list[str]]:
    from .condition import check_candidate
    from .weilpoly import format_poly, parse_poly

    L = parse_poly(args.coeffs)
    report = check_candidate(L, args.p)
    inputs = {"p": args.p, "coeffs": format_poly(L)}
    return inputs, {"report": report.to_json()}, _report_lines(report)


def _parse_split_table(pairs: list[str]) -> dict[int, bool]:
    table: dict[int, bool] = {}
    for pair in pairs:
        try:
            prime_text, _, flag = pair.partition("=")
            prime = int(prime_text)
            if flag not in ("true", "false"):
                raise ValueError
        except ValueError:
            raise UsageError(f"--split expects PRIME=true|false, got {pair!r}") from None
        if prime in table:
            raise UsageError(f"--split gives the prime {prime} more than once")
        table[prime] = flag == "true"
    return table


def _cmd_lattice(args) -> tuple[dict, dict, list[str]]:
    from .k3lattice import verify_lattice
    from .qform import CMFieldData

    split = _parse_split_table(args.split)
    fielddata = CMFieldData.from_m(args.m, args.n, args.p1, split)
    report = verify_lattice(args.m, fielddata)
    inputs = {
        "m": args.m,
        "n": args.n,
        "disc_square": fielddata.disc_is_square,
        "p1": args.p1,
        "split": {str(k): v for k, v in sorted(split.items())},
    }
    crit = report.embedding
    text = [
        "blocks: " + ", ".join(b if b == "U" else f"<{b}>" for b in report.lattice.blocks),
        f"rank: {report.rank}  signature: ({report.signature[0]}, {report.signature[1]})",
        f"rational space: <{', '.join(report.rational_space.to_json())}>",
        f"transcendental part: {json.dumps(report.transcendental_invariants.to_json(), sort_keys=True)}",
        f"embedding criterion: {crit.verdict} "
        f"(det {'ok' if crit.det_matches else 'MISMATCH'}, "
        f"signature {'even' if crit.signature_even else 'ODD'}, "
        f"hyperbolicity {crit.hyperbolicity.verdict})",
    ]
    if crit.hyperbolicity.discrepancy:
        text.append(
            "discrepancy primes: "
            + ", ".join(str(q) for q in crit.hyperbolicity.discrepancy)
        )
    if report.no_minus2_certificate is not None:
        text.append(f"no -2 vector: holds = {report.no_minus2_certificate.holds}")
    return inputs, {"report": report.to_json()}, text


def _cmd_feasible(args) -> tuple[dict, dict, list[str]]:
    from .condition import feasibility
    from .weilpoly import format_poly

    verdict = feasibility(args.p, args.rho, args.height, want_witness=args.witness)
    inputs = {"p": args.p, "rho": args.rho, "h": args.height, "witness": args.witness}
    text = [
        f"feasible: {'yes' if verdict.feasible else 'no'} ({verdict.reason})",
        verdict.description,
    ]
    if verdict.witness is not None:
        text.append(f"witness: {format_poly(verdict.witness)}")
        text.extend(_report_lines(verdict.report))
    elif verdict.witness_status == "unsupported_case":
        text.append("witness: none (unsupported case)")
    return inputs, {"verdict": verdict.to_json()}, text


def _cmd_table(args) -> tuple[dict, dict, list[str]]:
    from .condition import feasibility

    cells = []
    rows = []
    heights = list(range(1, 11))
    rows.append("rho\\h " + " ".join(f"{h:>2}" for h in heights))
    for rho in range(2, 21, 2):
        marks = []
        for h in heights:
            verdict = feasibility(args.p, rho, h)
            cells.append(
                {
                    "rho": rho,
                    "h": h,
                    "feasible": verdict.feasible,
                    "witness_status": verdict.witness_status,
                }
            )
            if not verdict.feasible:
                marks.append(" .")
            elif verdict.witness_status == "unsupported_case":
                marks.append(" u")
            else:
                marks.append(" o")
        rows.append(f"{rho:>5} " + " ".join(marks))
    rows.append("legend: o feasible, u feasible (no witness route), . infeasible")
    return {"p": args.p}, {"cells": cells}, rows


def _cmd_hilbert(args) -> tuple[dict, dict, list[str]]:
    from .arith import Place, format_rational, hilbert, parse_rational

    a = parse_rational(args.a)
    b = parse_rational(args.b)
    place = Place.parse(args.place)
    bit = hilbert(a, b, place)
    inputs = {"a": format_rational(a), "b": format_rational(b), "place": str(place)}
    return inputs, {"bit": bit}, [f"hilbert({format_rational(a)}, {format_rational(b)}, {place}) = {bit}"]


def _cmd_strip(args) -> tuple[dict, dict, list[str]]:
    from .weilpoly import format_poly, parse_poly, strip_cyclotomic

    P = parse_poly(args.coeffs)
    quotient, removed = strip_cyclotomic(P)
    inputs = {"coeffs": format_poly(P)}
    result = {"quotient": format_poly(quotient), "removed_indices": removed}
    text = [
        f"quotient: {format_poly(quotient)}",
        "removed cyclotomic indices: " + (", ".join(map(str, removed)) if removed else "none"),
    ]
    return inputs, result, text


_HANDLERS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "lattice": _cmd_lattice,
    "feasible": _cmd_feasible,
    "table": _cmd_table,
    "hilbert": _cmd_hilbert,
    "strip": _cmd_strip,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        inputs, result, text = _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise
    except Exception as exc:  # internal guard: bounded searches, impossible states
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "json", False):
            document = {"command": args.command, "inputs": inputs, "result": result}
            print(json.dumps(document, sort_keys=True, indent=2))
        else:
            print("\n".join(text))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; the interpreter flushes stdout again at exit,
        # so point it at the null device to keep that flush from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
