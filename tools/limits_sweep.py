"""Write the limits suite's scaling-limit reports over a fixed seed set to OUT.

    PYTHONPATH=<tree>/src python tools/limits_sweep.py OUT

For each seed of SEEDS, OUT gets one JSON line per report:

  * "cli": every report of the CLI's limits suite (cli's runner), in order;
  * "catalog" and "reversed": the same samples checked one relation at a
    time, one limit_check per relation as a scaling-limits benchmark unit
    calls it, in catalog order and again in reversed order.

After them, for each seed of WORKLOAD_SEEDS, the "workload" lines check the
scaling-limits benchmark's own draws, sample_limit_inputs(seed, 4), one
limit_check per relation in catalog order, as its units do.

Each line is {"seed", "path", "report"}.  Run it once per tree: a change
that moves no error, order, ratio or verdict, whatever the order of the
calls, leaves the two files equal (diff old.jsonl new.jsonl).
"""

import json
import sys

from ospboson.cli import RunConfig, _suite_limits
from ospboson.degeneration import LIMIT_NAMES, limit_check, sample_limit_inputs

SEEDS = (0, 1, 2, 3, 4, 5, 7, 11, 12, 23700)
COUNT = 3  # the limits suite's samples per seed
# the scaling-limits benchmark's limit seeds and its samples per seed
WORKLOAD_SEEDS = (40, 123, 220, 361, 423, 428, 916, 1615, 1655, 1764, 1877,
                  2189, 2489, 2514, 2549, 2618)
WORKLOAD_COUNT = 4


def checks(seed, count, names):
    for s in sample_limit_inputs(seed, count):
        for name in names:
            yield limit_check(name, s["u_minus_v"], eta=s["eta"], hbar=s["hbar"],
                              c=1, digits=30)


def rows():
    for seed in SEEDS:
        for rep in _suite_limits(RunConfig(suite="limits", seed=seed)):
            yield seed, "cli", rep
        for path, names in (("catalog", LIMIT_NAMES), ("reversed", LIMIT_NAMES[::-1])):
            for rep in checks(seed, COUNT, names):
                yield seed, path, rep
    for seed in WORKLOAD_SEEDS:
        for rep in checks(seed, WORKLOAD_COUNT, LIMIT_NAMES):
            yield seed, "workload", rep


def run(out):
    lines = [json.dumps({"seed": seed, "path": path, "report": rep},
                        ensure_ascii=False, separators=(",", ":"))
             for seed, path, rep in rows()]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("%d reports" % len(lines))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(sys.argv[1])
