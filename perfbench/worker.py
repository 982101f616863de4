"""One workload in a fresh interpreter: set up, then measure or trace.

    python3 perfbench/worker.py --workload W --seed N --mode setup|measure|trace [--seconds S]

Prints one JSON object on its last line of output.  `run.py` starts a
fresh worker for every measurement, so no cache and no peak RSS carries
over from one workload to the next.  Nothing here starts a thread.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before the library is imported: set-up starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Distinct operations per run, generated in set-up.  At least 100, so that
# p90 of the per-operation latencies has at least ten samples beyond it.
RUN_OPS = {"construct": 220, "check": 352, "lattice": 200, "cli": 100}
TRACE_OPS = {"construct": 60, "check": 88, "lattice": 40, "cli": 40}  # fixed, so counts repeat exactly
MAX_SECONDS = 120  # a slow program still ends well inside the caller's limit

# Each repeat's wall time is divided by the mean of two probes, just before
# and just after it, and expressed at the speed where a probe takes
# REFERENCE_PROBE_S.  See measure().
PROBE_TERMS = 400  # 1.1 ms at best, 2 ms typically, on a shared 2-vCPU x86_64 VM
REFERENCE_PROBE_S = 0.001


def probe() -> float:
    """Time a fixed sum of Fractions, the arithmetic k3cert spends its time in."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(i % 7 + 1, i)
    return time.perf_counter() - start


def calibrate() -> float:
    """A fixed pure-Python loop; reported beside each result, never used to rescale."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def load_library(need_import: bool):
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    if not need_import:
        return None
    import k3cert

    if not os.path.abspath(k3cert.__file__).startswith(src + os.sep):
        raise SystemExit(f"k3cert imported from {k3cert.__file__}, not from {src}")
    return k3cert


def digest_line(workload, op, result, error) -> bytes:
    if error:
        return error.encode() + b"\n"
    return json.dumps(workload.to_json(op, result), sort_keys=True).encode() + b"\n"


def call(fn, op):
    try:
        return fn(op), None
    except Exception as exc:  # an operation that should not raise: counted as failed
        return None, f"{type(exc).__name__}: {exc}"


def measure(workload, ops, seconds: float) -> dict:
    """Issue the operations in rounds until `seconds` have passed; keep each one's median time.

    Where the cores are shared with other tenants, the speed of pure
    Python can swing by up to twice, in phases that last from seconds to
    minutes, longer than a run.  A short Fraction-sum probe timed right
    before and right after an operation slows down with it.  So each
    repeat's wall time is divided by the mean of its two probes and
    multiplied by REFERENCE_PROBE_S: its time at a fixed reference speed.
    An operation's latency is the median of its scaled repeats.  Each
    operation's fastest unscaled repeat is returned too, as `raw_best`.
    Every repeat is checked.
    """
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the probes and the operations, `cli` subprocesses included
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scaled: list[list[float]] = [[] for _ in ops]
    raw_best = [float("inf")] * len(ops)
    issued = failed = rounds = 0
    problems: list[str] = []
    digest = hashlib.sha256()
    probes = []
    after = probe()
    begin = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            t = time.perf_counter()
            result, error = call(workload.run, op)
            took = time.perf_counter() - t
            before, after = after, probe()
            probes.append(after)
            raw_best[i] = min(raw_best[i], took)
            scaled[i].append(took * REFERENCE_PROBE_S * 2 / (before + after))
            issued += 1
            found = [error] if error else workload.check(op, result)
            if found:
                failed += 1
                problems.extend(found)
            if rounds == 0:
                digest.update(digest_line(workload, op, result, error))
            elapsed = time.perf_counter() - begin
            if (elapsed >= seconds and rounds >= 1) or elapsed >= MAX_SECONDS:
                return {
                    "latencies": [statistics.median(v) for v in scaled if v],
                    "raw_best": [b for b in raw_best if b != float("inf")],
                    "probe_median_s": statistics.median(probes),
                    "attempted": issued,
                    "failed": failed,
                    "rounds": issued / len(ops),
                    "problems": problems[:20],
                    "digest": digest.hexdigest(),
                }
        rounds += 1


def trace(name, seed, workload, ops, package) -> dict:
    run = workload.run_in_process if name == "cli" else workload.run

    begin = time.perf_counter()
    plain = [call(run, op) for op in ops]
    plain_s = time.perf_counter() - begin

    spans = tracer.Tracer()
    spans.install(package)
    try:
        begin = time.perf_counter()
        traced = [spans.run_op(i, call, run, op) for i, op in enumerate(ops)]
        traced_s = time.perf_counter() - begin
    finally:
        spans.uninstall()

    problems: list[str] = []
    failed = 0
    digests = []
    for results in (plain, traced):
        digest = hashlib.sha256()
        for op, (result, error) in zip(ops, results):
            found = [error] if error else workload.check(op, result)
            if found:
                failed += 1
                problems.extend(found)
            digest.update(digest_line(workload, op, result, error))
        digests.append(digest.hexdigest())
    if digests[0] != digests[1]:
        problems.append("traced results differ from untraced results")

    totals = spans.totals()
    metrics = layer_metrics(totals, spans)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    if name == "check" and metrics["condition.check_candidate.calls"] != len(ops):
        problems.append(
            f"{metrics['condition.check_candidate.calls']} check_candidate spans for {len(ops)} operations"
        )
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{name}-{seed}.tsv")
    spans.write(spans_path)
    return {
        "per_layer": metrics,
        "calls": {k: v[0] for k, v in sorted(totals.items())},
        "attempted": 2 * len(ops),
        "failed": failed,
        "problems": problems[:20],
        "digest": digests[0],
        "spans": len(spans.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }


COUNTED = (
    "arith.is_prime",
    "arith.val_p",
    "arith.prime_factors",
    "arith.hilbert",
    "arith.square_class",
    "weilpoly.poly_gcd",
    "weilpoly.sturm_count",
    "weilpoly.RatPoly.mul",
    "weilpoly.RatPoly.divmod",
    "weilpoly.has_cyclotomic_factor",
    "weilpoly.cyclotomic_index_list",
    "weilpoly.unit_circle_check",
    "weilpoly.newton_polygon",
    "weilpoly.squarefree_decompose",
    "weilpoly.kronecker_certificate",
    "weilpoly.reciprocal_transform",
    "condition.check_candidate",
    "condition.seed_polynomial",
    "qform.invariants",
    "qform.complement_invariants",
    "qform.hyperbolicity_from_invariants",
    "k3lattice.verify_lattice",
)
TIMED = (
    "arith.prime_factors",
    "arith.hilbert",
    "weilpoly.poly_gcd",
    "weilpoly.sturm_count",
    "weilpoly.RatPoly.divmod",
    "weilpoly.has_cyclotomic_factor",
    "weilpoly.cyclotomic_index_list",
    "condition.check_candidate",
    "condition.seed_polynomial",
    "qform.invariants",
    "k3lattice.no_minus_two_vector",
)


def layer_metrics(totals, spans) -> dict:
    metrics: dict[str, float] = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = sum(s for name, (_, s) in totals.items() if name.split(".")[0] == layer)
    for name in COUNTED:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0))[0]
    for name in TIMED:
        metrics[f"{name}.self_s"] = totals.get(name, (0, 0.0))[1]
    returned, checks = spans.search_counts()
    metrics["condition.construct.useful_ratio"] = returned / checks if checks else 0.0
    metrics["condition.construct.rejected"] = checks - returned
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("construct", "check", "lattice", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    package = load_library(need_import=args.workload != "cli" or args.mode == "trace")
    workload = workloads.make(args.workload, random.Random(args.seed), ROOT, package)
    count = (TRACE_OPS if args.mode == "trace" else RUN_OPS)[args.workload]
    ops = []
    for block in workload.blocks():
        ops.extend(block)
        if len(ops) >= count:
            break
    ops = ops[:count]
    workload.warm_up()
    setup_s = time.perf_counter() - _T0

    out: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        out["calibration_before_s"] = calibrate()
        if args.mode == "measure":
            out.update(measure(workload, ops, args.seconds))
        else:
            out.update(trace(args.workload, args.seed, workload, ops, package))
        out["calibration_after_s"] = calibrate()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" and args.mode == "measure" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        out["env"] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
