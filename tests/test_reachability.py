"""Every function in src/ospboson is reached by the CLI, or is listed here
with the reason it is kept.

A child interpreter installs a sys.setprofile hook before ospboson is
imported, so calls made at import time count, and runs the suites and the
printer through cli.main.  The functions are enumerated from the sources'
syntax trees and matched to the traced code objects by file and first line.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import ospboson

SRC = Path(ospboson.__file__).resolve().parent

# qualified name -> why no CLI run calls it
ALLOWED = {
    # perfbench or demo 01 binds it
    "freefield.DeformationParams.from_sqrt": "perfbench binds it",
    "freefield.Kernel.eval_product": "perfbench binds it",
    "freefield.Kernel.near_singular": "perfbench binds it",
    "freefield.Kernel.series_from_closed_form": "perfbench binds it",
    "series.TruncatedSeries.__mul__": "perfbench and demo 01 bind it",
    "series.TruncatedSeries.one": "perfbench binds it",
    "series.TruncatedSeries.log": "perfbench binds it",
    "series.TruncatedSeries.invert": "perfbench binds it",
    "series.qpoch_log_series": "perfbench and demo 01 bind it",
    "theta.theta_terms_needed": "perfbench counts product terms with it",
    "theta._from_fixed": "Kernel.eval_product, which perfbench binds, and "
                         "QPochProduct.multiply's pole message convert through it",
    # an error path that other inputs reach
    "errors.PoleError.__init__": "raised at a sample point near a pole",
}

COMMANDS = [
    ["--suite", "all", "--seed", "0", "--samples", "10", "--out", "all.json"],
    ["--suite", "relations", "--strict-text", "--samples", "10", "--seed", "5",
     "--out", "strict.json"],
    ["--suite", "hopf", "--trace", "--convention", "-1", "--out", "hopf.json"],
    ["print", "kernel", "H+E"],
    ["print", "structure-function", "HH"],
    ["print", "structure-function", "HH", "--strict-text"],
    ["print", "coproduct", "E"],
]

CHILD = r"""
import contextlib, io, json, sys
src, commands = sys.argv[1], json.loads(sys.argv[2])
called = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
from ospboson import cli
statuses = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        statuses.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"statuses": statuses, "called": sorted(called)}))
"""


def _functions():
    """{(file, first line): qualified name} of every def and lambda in SRC."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    line = min([child.lineno] + [d.lineno for d in getattr(
                        child, "decorator_list", [])])
                    out[str(path), line] = "%s.%s%s" % (module, prefix, name)
                    visit(child, prefix + name + ".<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_every_function_is_reached_or_allowed(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(COMMANDS)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    run = json.loads(res.stdout)
    assert run["statuses"] == [1, 1, 1, 0, 0, 0, 0]
    functions = _functions()
    called = {tuple(c) for c in run["called"]}
    uncalled = {name for key, name in functions.items() if key not in called}
    assert set(ALLOWED) <= set(functions.values()), set(ALLOWED) - set(
        functions.values())
    assert uncalled - set(ALLOWED) == set()
    # an allowlisted function that the CLI now reaches leaves the list
    assert set(ALLOWED) - uncalled == set()
