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


def test_exact_algebra_units_run():
    # the EF ope unit (jet against closed form, delta decomposition) and the
    # first axioms unit, run under the tracer as the benchmark runs them
    from ospboson.relations import relation_catalog
    spans, workloads = _load("spans"), _load("workloads")
    ope_ids = [r.rel_id for r in relation_catalog() if r.kind != "invertibility"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        units = workloads.UNITS["exact-algebra"](
            workloads.INPUTS["exact-algebra"](0))
        ef, axioms = units[3 + ope_ids.index("EF")], units[3 + len(ope_ids)]
        checks = ef()[0] + axioms()[0]
    finally:
        tracer.uninstall()
    assert [key for key, _, _ in checks[:2]] == [
        "ope-jet/EF", "delta-decompose/EF"]
    assert checks[2][0] == "hopf/hopf-axiom/a1:unit#1"
    assert workloads.count_failed(checks) == 0
    assert tracer.metric("freefield.delta_decompose", "calls") == 1


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
