#!/usr/bin/env python3
"""Seed invariance of the work counts, from traced runs.

    python3 perfbench/invariance.py

For each workload, runs ``run.py --trace 1`` at seed 0 twice and at seed 1
once.  Every exact count (``*.calls``, ``*.terms``, ``relations.points``,
``relations.sample_draws``) must repeat exactly at seed 0, and the counts at
seed 1 must lie within a tenth of those at seed 0.  Prints one line per
count that breaks either rule and exits 1 if any does.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-all", "scaling-limits", "exact-algebra")
COUNT_SUFFIXES = (".calls", ".terms", ".points", ".sample_draws")
TOLERANCE = 0.1
SEED_A, SEED_B = 0, 1


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: traced run not correct" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main():
    bad = 0
    for workload in WORKLOADS:
        first = traced_counts(workload, SEED_A)
        again = traced_counts(workload, SEED_A)
        other = traced_counts(workload, SEED_B)
        worst = 0.0
        changed = 0
        for name, a in sorted(first.items()):
            if again[name] != a:
                changed += 1
                print("%s %s: seed %d gave %s then %s" % (workload, name, SEED_A, a, again[name]))
            b = other[name]
            if a == b == 0:
                continue
            spread = abs(b - a) / max(a, b)
            worst = max(worst, spread)
            if spread > TOLERANCE:
                bad += 1
                print("%s %s: seed %d gave %s, seed %d gave %s" % (
                    workload, name, SEED_A, a, SEED_B, b))
        bad += changed
        print("%s: %d counts, %d changed on repeat, largest seed-to-seed "
              "difference %.2f%%" % (workload, len(first), changed, 100 * worst))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
