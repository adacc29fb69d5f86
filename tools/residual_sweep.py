"""Write the relations suite's exchange rows over a fixed seed set to OUT.

    PYTHONPATH=<tree>/src python tools/residual_sweep.py OUT

Runs the relations suite (cli's runner, default digits and tolerance) at 20
samples for each seed of SEEDS in both catalog modes, canonical and
strict-text.  Each exchange relation, and the negative control (relation
"control", with the verdict of its exchange under S = 1), becomes one
tab-separated line of OUT:

    seed  mode  relation  points  verdict  failing  passing

points is a SHA-256 digest (16 hex digits) of the sampled points as the
report prints them; failing is the residual_max of a failing row and passing that of
a passing one, "-" in the other column.  It prints the smallest and the
worst passing residual_max.  Run it once per tree: a change that moves no
point, verdict or failing residual leaves the first six columns equal,

    diff <(cut -f1-6 old.tsv) <(cut -f1-6 new.tsv)

and the printed maximum bounds the passing residuals.  A smallest of 0.0
shows a route that rounds R to the working precision before it takes the
residual: R = 1 exactly then, at every passing point.
"""

import hashlib
import json
import sys

from ospboson.cli import RunConfig, _suite_relations

SEEDS = (0, 1, 2, 3, 4, 5, 7, 11, 12, 23700)
SAMPLES = 20


def rows():
    for seed in SEEDS:
        for strict in (False, True):
            mode = "strict-text" if strict else "canonical"
            cfg = RunConfig(suite="relations", samples=SAMPLES, seed=seed,
                            strict_text=strict)
            for rep in _suite_relations(cfg):
                if rep.get("check") == "negative-control":
                    relation, points = "control", "-"
                elif rep.get("kind") == "exchange":
                    relation = rep["relation"]
                    points = hashlib.sha256(json.dumps(
                        rep["points"]).encode()).hexdigest()[:16]
                else:
                    continue
                verdict = rep.get("observed", rep["verdict"])
                passed = verdict == "pass"
                yield (str(seed), mode, relation, points, verdict,
                       "-" if passed else rep["residual_max"],
                       rep["residual_max"] if passed else "-")


def run(out):
    lines = ["\t".join(row) for row in rows()]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    passing = [r for r in (line.split("\t")[6] for line in lines) if r != "-"]
    print("%d rows, passing residual_max from %s to %s" % (
        len(lines), min(passing, key=float, default="-"),
        max(passing, key=float, default="-")))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(sys.argv[1])
