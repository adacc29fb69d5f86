"""perfbench's span table still binds to the program.

``perfbench/spans.py`` names program functions and methods (``METHODS``,
``PRIVATE``) that its ``--trace 1`` run wraps, ``perfbench/workloads.py``
builds its units from the program's API, and ``perfbench/run.py`` drives
the suite-all workload through ``cli.RunConfig``, ``cli.run_suite`` and
``cli._SUITE_RUNNERS``.  Renaming or deleting one of those names breaks the
benchmark; these tests catch that in the unit suite.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_table_and_units_bind():
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    try:
        # resolves every METHODS and PRIVATE entry, or raises
        tracer.install()
        limits = workloads.UNITS["scaling-limits"](
            workloads.INPUTS["scaling-limits"](0))
        workloads.UNITS["exact-algebra"](workloads.INPUTS["exact-algebra"](0))
        ladder, one_limit = limits[-1], limits[0]
        checks = ladder()[0] + one_limit()[0]
    finally:
        tracer.uninstall()
    assert [key for key, _, _ in checks] == [
        "limits/trig-to-rational/EE#1", "limits/scaling-limit/H+E#1"]
    assert workloads.count_failed(checks) == 0
    assert tracer.metric("degeneration.limit_check", "calls") == 1


def test_suite_all_path_binds(tmp_path, monkeypatch):
    # run.py puts perfbench/ on sys.path to import workloads; undone after
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("run")
    units = run.workload_units(
        "suite-all", run.W.INPUTS["suite-all"](0), str(tmp_path))
    # the ope unit, timed and marked as a timed pass runs it
    with run.timed_runners() as times, \
            run.marks_inside_suites(run.ScaledClock()):
        row = units[0]()
    keys = [key for key, _, _ in row["checks"]]
    assert keys[0].startswith("ope/contraction-identity/")
    assert keys[-1] == "cli/exit-status/ope"
    assert run.W.count_failed(row["checks"]) == 0
    assert list(times) == ["ope"]
    assert list(tmp_path.iterdir()) == []
