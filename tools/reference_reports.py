"""Write the six reference reports and the printer's output to OUTDIR.

    PYTHONPATH=<tree>/src python tools/reference_reports.py OUTDIR

Runs each reference command through cli.main on whichever ospboson is
imported, writes its report without the generated_at line as NAME.json,
writes every print of a kernel, a structure function (both catalog modes)
and a coproduct as print-KIND.txt, and prints each run's exit status.  Run
it once per tree and compare the two directories with diff -r: a change
that keeps every verdict and digit leaves no difference.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from ospboson.cli import main
from ospboson.hopf import GENERATOR_KINDS
from ospboson.relations import relation_catalog

REPORTS = {
    "suite-all": ["--suite", "all", "--seed", "0"],
    "relations-strict": ["--suite", "relations", "--strict-text",
                         "--samples", "20", "--seed", "5"],
    "limits": ["--suite", "limits", "--seed", "7"],
    "hopf-trace": ["--suite", "hopf", "--trace", "--convention", "-1"],
    "ope": ["--suite", "ope"],
    "ope-order-32": ["--suite", "ope", "--order", "32", "--seed", "5"],
}

CATALOG = relation_catalog()
PRINTS = {
    "kernel": [[r.rel_id] for r in CATALOG],
    "structure-function": [[r.rel_id, *flag]
                           for flag in ([], ["--strict-text"])
                           for r in CATALOG if r.kind == "exchange"],
    "coproduct": [[g] for g in GENERATOR_KINDS],
}


def run(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    for name in [k for k in os.environ if k.startswith("OSPBOSON_")]:
        del os.environ[name]  # the flags alone set each run
    for name, args in REPORTS.items():
        path = outdir / (name + ".json")
        status = main([*args, "--out", str(path)])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if '"generated_at":' not in line),
                        encoding="utf-8")
        print("%s: exit %d" % (name, status))
    for kind, commands in PRINTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            statuses = [main(["print", kind, *args]) for args in commands]
        path = outdir / ("print-%s.txt" % kind)
        path.write_text(out.getvalue(), encoding="utf-8")
        print("print %s: exit %s" % (kind, max(statuses)))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(Path(sys.argv[1]))
