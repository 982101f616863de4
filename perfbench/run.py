"""k3cert benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload construct|check|lattice|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its `src/` directory.  Each workload is a single-threaded closed loop:
one caller issues each operation when the previous one has returned.

With --trace 0 a seeded list of at least 100 operations runs untraced,
in rounds, for S seconds (at least one round) in a fresh interpreter.
Each repeat's wall time is scaled to a fixed reference speed by a short
probe loop timed around it, and an operation's latency is the median of
its scaled repeats (see `worker.measure`).  Set-up is repeated in
further fresh interpreters so that `setup_s` is a median.  With --trace 1 a
fixed, seeded list of operations runs once untraced and once with every
public k3cert function wrapped in spans, and the per-layer metrics come
from the spans; the spans themselves are written under `.perfbench/`.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give each
metric with its unit, the error rate, a digest of the results and the
run environment.  The exit code is 1 when any output check failed, and
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_RUNS = 5  # set-ups per --trace 0 run, in fresh interpreters; the median is reported
STARTUP_PAIRS = 7  # bare and importing interpreters timed for cli.startup_s
DEADLINE_S = 170  # every process this run starts has ended by then

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name.endswith(".rejected"):
        return "count"
    return "ratio"


class BenchError(Exception):
    pass


def worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: worker did not finish in time") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def timed_interpreter(code: str, deadline: float) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=max(deadline - time.monotonic(), 1))
    return time.perf_counter() - start


def cli_startup_s(deadline: float) -> float:
    """Median time of a fresh interpreter importing k3cert.cli, minus a bare one."""
    bare, loaded = [], []
    for _ in range(STARTUP_PAIRS):
        bare.append(timed_interpreter("pass", deadline))
        loaded.append(timed_interpreter("import k3cert.cli", deadline))
    return statistics.median(loaded) - statistics.median(bare)


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run = worker(deadline, *common, "--mode", "measure", "--seconds", str(args.seconds))
    setups = [run["setup_s"]]
    for _ in range(SETUP_RUNS - 1):
        setups.append(worker(deadline, *common, "--mode", "setup")["setup_s"])
    latencies = run.pop("latencies")
    run["unscaled_fastest"] = latency_metrics(run.pop("raw_best"))
    metrics = {"setup_s": statistics.median(setups), **latency_metrics(latencies), "peak_rss_mb": run["peak_rss_mb"]}
    run["setup_runs_s"] = setups
    run["latency_samples"] = len(latencies)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, run


def traced(args, deadline: float) -> tuple[dict, dict]:
    run = worker(deadline, "--workload", args.workload, "--seed", str(args.seed), "--mode", "trace")
    values = run.pop("per_layer")
    values["cli.startup_s"] = cli_startup_s(deadline)
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("construct", "check", "lattice", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "k3cert", "__init__.py")):
        print(f"error: no k3cert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, run = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, m in metrics.items():
        print(f"{args.workload:>9}  {name:<44} {m['value']:>14.6g} {m['unit']}")
    error_rate = run["failed"] / run["attempted"]
    print(f"{args.workload:>9}  {'error_rate':<44} {error_rate:>14.6g} ratio")
    problems = run.pop("problems")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **run}, sort_keys=True))
    correct = run["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
