"""perfbench's span table still binds to the program.

``perfbench/spans.py`` names program functions and methods (``METHODS``,
``PRIVATE``) that its ``--trace 1`` run wraps, and ``perfbench/workloads.py``
builds its units from the program's API.  Renaming or deleting one of those
names breaks the benchmark; this test catches that in the unit suite.
"""

import importlib.util
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
