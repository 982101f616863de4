"""Checks of the traced run itself.

    python3 perfbench/selfcheck.py [--seed N]

1. Runs the traced worker twice per workload on one seed, each time in a
   fresh interpreter, and requires every call count to repeat exactly.
2. Traces the constructor sweep of acceptance criterion 2 (p in {5, 7},
   1 <= h <= m <= 10, the even-h route for m = 10) and prints its call
   counts.  They describe the library as it is and are meant to change
   when it gets faster, so they are printed, not asserted.

Exits 1 when a count differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import sys
import time

import tracer
from run import ROOT, DEADLINE_S, worker

SWEEP_COUNTS = (
    "condition.check_candidate",
    "condition.seed_polynomial",
    "condition.construct_witness",
    "condition.construct_witness_even_h",
    "weilpoly.poly_gcd",
    "weilpoly.has_cyclotomic_factor",
    "weilpoly.cyclotomic_index_list",
    "arith.prime_factors",
    "arith.is_prime",
)


def repeat_counts(seed: int) -> bool:
    same = True
    for name in ("construct", "check", "lattice", "cli"):
        args = ("--workload", name, "--seed", str(seed), "--mode", "trace")
        first, second = (worker(time.monotonic() + DEADLINE_S, *args)["calls"] for _ in range(2))
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"{name}: {len(first)} span names, {sum(first.values())} calls, "
              f"{'identical in both runs' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        same = same and not differ
    return same


def sweep_counts() -> None:
    sys.path.insert(0, f"{ROOT}/src")
    import k3cert

    spans = tracer.Tracer()
    spans.install(k3cert)
    try:
        for p in (5, 7):
            for m in range(1, 11):
                for h in range(1, m + 1):
                    if m == 10 and h % 2 == 0:
                        spans.run_op(0, k3cert.construct_witness_even_h, p, h)
                    else:
                        spans.run_op(0, k3cert.construct_witness, p, m, h)
    finally:
        spans.uninstall()
    totals = spans.totals()
    print("acceptance sweep, 110 triples:")
    for name in SWEEP_COUNTS:
        print(f"  {name}.calls = {totals.get(name, (0, 0.0))[0]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    same = repeat_counts(args.seed)
    sweep_counts()
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
