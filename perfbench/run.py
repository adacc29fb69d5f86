#!/usr/bin/env python3
"""Benchmark runner for ospboson.

    python3 perfbench/run.py --workload suite-all --seed 0 --seconds 36 --trace 0

Run from the root of a checkout that has ``src/ospboson`` and
``BENCHMARK.json``.  The workload seed picks inputs (see workloads.py).  A
workload is a list of short units, all run in this process: for
``suite-all`` one ``cli.run_suite`` call per suite, for the others one
``limit_check``, one OPE jet, ... each.  The timed phase repeats passes over
the units until ``--seconds`` is used up.  Each unit's times are scaled by
the host probe taken either side of it, and a metric is the sum over units
of each unit's median over the passes (see README.md, How a run is timed).
``--trace 1`` instead runs one untraced and one traced pass and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  Reports, temporary files and span
dumps go to ``.perfbench_tmp/`` in the checkout.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_RUNS = 15

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSPBOSON_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# The host probe: a fixed mpmath q-product loop, independent of the repo, that
# takes about PROBE_REF_S on a fast phase of a 2-vCPU Xeon host.  Timed
# segments are scaled by PROBE_REF_S over the probes at their ends; see
# ScaledClock.
PROBE_FACTORS = 1000
PROBE_REF_S = 0.014


def probe_s():
    import mpmath as mp

    t0 = time.perf_counter()
    with mp.workdps(50):
        acc, f, q = mp.mpc(1), mp.mpc("0.3", "0.2"), mp.mpf("0.8")
        for _ in range(PROBE_FACTORS):
            acc *= 1 - f
            f *= q
    return time.perf_counter() - t0


def host_probe_ms():
    """Median of three probes; a call before it warms up."""
    return statistics.median(probe_s() for _ in range(3)) * 1e3


class ScaledClock:
    """Wall and CPU time, scaled segment by segment by the host probe.

    ``mark()`` ends a segment: it takes a probe and scales the segment by
    PROBE_REF_S over the mean of the probes at its two ends.  The probes
    themselves are not counted.
    """

    def __init__(self):
        self.probes = [probe_s()]
        self.wall = self.cpu = self.unscaled = 0.0
        self._t, self._c = time.perf_counter(), time.process_time()

    def mark(self):
        t, c = time.perf_counter(), time.process_time()
        self.probes.append(probe_s())
        k = 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])
        self.wall += (t - self._t) * k
        self.cpu += (c - self._c) * k
        self.unscaled += t - self._t
        self._t, self._c = time.perf_counter(), time.process_time()

    def read(self):
        return self.wall, self.cpu, self.unscaled


def setup_once(workload, seed):
    """Wall time of a fresh interpreter that imports ospboson and builds the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed:\n" + proc.stderr.decode())
    return elapsed


# --------------------------------------------------------------------------
# suite-all: the suites in process, and the CLI pool child of the traced run


def cli_pool_child(inputs, tmp):
    """One ``python -m ospboson --suite all`` child, with its pool, and its own rusage.

    ``os.wait4`` gives this child's CPU time and peak RSS, including its pool
    workers, never those of earlier children.
    """
    out = os.path.join(tmp, "report.json")
    cmd = [sys.executable, "-m", "ospboson", "--suite", "all",
           "--seed", str(inputs["cli_seed"]), "--samples", str(W.CLI_SAMPLES),
           "--digits", str(W.CLI_DIGITS), "--tolerance", W.CLI_TOLERANCE,
           "--order", str(W.CLI_ORDER), "--out", out]
    with open(os.path.join(tmp, "cli.stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tmp, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    row = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024, "report_bytes": 0}
    report = None
    if code in (0, 1) and os.path.exists(out):
        row["report_bytes"] = os.path.getsize(out)
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)
    if report is None:
        checks = [(k, "crashed", W.expected_verdict(k))
                  for k in W.suite_expected_keys("all")]
    else:
        checks = W.suite_report_checks("all", report["suites"])[0]
    checks.append(("cli/exit-status/all", str(code), W.expected_exit_status("all")))
    row["checks"] = checks
    return row


def suite_unit(inputs, tmp, name):
    """``cli.run_suite`` for one suite, in process; the CLI runs a single suite without a pool."""
    from ospboson import cli

    def unit():
        out = os.path.join(tmp, "report-%s.json" % name)
        config = cli.RunConfig(
            suite=name, seed=inputs["cli_seed"], samples=W.CLI_SAMPLES,
            digits=W.CLI_DIGITS, tolerance=float(W.CLI_TOLERANCE),
            order=W.CLI_ORDER, out=out)
        code = cli.run_suite(config)
        with open(out, encoding="utf-8") as fh:
            suites = json.load(fh)["suites"]
        os.remove(out)
        checks, margin, order = W.suite_report_checks(name, suites)
        checks.append(("cli/exit-status/%s" % name, str(code),
                       W.expected_exit_status(name)))
        return checks, {"margin_digits": margin, "order_margin": order,
                        "suites": suites}
    return unit


@contextlib.contextmanager
def marks_inside_suites(clock):
    """Mark ``clock`` after each exchange and limit check the CLI's suites make.

    A suite runs for seconds, longer than a phase of the host, so it is
    scaled in these short segments instead of as a whole.
    """
    from ospboson import cli

    def marked(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                clock.mark()
        return call

    # a name the CLI no longer binds only makes the segments longer
    saved = {name: getattr(cli, name) for name in ("verify_exchange", "limit_check")
             if hasattr(cli, name)}
    for name, fn in saved.items():
        setattr(cli, name, marked(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


@contextlib.contextmanager
def timed_runners(tracer=None):
    """Time (and, with a tracer, trace) each of the CLI's suite runners."""
    from ospboson import cli

    times = {}

    def timed(name, fn):
        def runner(cfg):
            t0 = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                times[name] = time.perf_counter() - t0
        return runner

    saved = dict(cli._SUITE_RUNNERS)
    for name, fn in saved.items():
        runner = timed(name, fn)
        if tracer is not None:
            runner = tracer.wrap("cli.suite." + name, runner)
        cli._SUITE_RUNNERS[name] = runner
    try:
        yield times
    finally:
        cli._SUITE_RUNNERS.update(saved)


# --------------------------------------------------------------------------
# units and passes


def run_unit(workload, index, unit):
    """One timed call of ``unit``, which returns (checks, extra fields of the row)."""
    row = {"margin_digits": None, "order_margin": None, "suites": []}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        checks, extra = unit()
        row.update(extra)
    except Exception:
        traceback.print_exc()
        checks = [("%s/unit-%d" % (workload, index), "crashed", "pass")]
    row.update(wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - c0,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               checks=checks)
    return row


def workload_units(workload, inputs, tmp):
    """Zero-argument callables, each returning one timed row."""
    if workload == "suite-all":
        from ospboson.cli import SUITES
        units = [suite_unit(inputs, tmp, name) for name in SUITES]
    else:
        units = W.UNITS[workload](inputs)
    return [lambda i=i, u=u: run_unit(workload, i, u) for i, u in enumerate(units)]


def one_pass(units):
    """All units once, as one row."""
    rows = [unit() for unit in units]
    row = {"wall_s": sum(r["wall_s"] for r in rows),
           "checks": [c for r in rows for c in r["checks"]],
           "suites": [s for r in rows for s in r["suites"]]}
    for key in ("margin_digits", "order_margin"):
        seen = [r[key] for r in rows if r[key] is not None]
        row[key] = min(seen) if seen else None
    return row


# --------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, seed, inputs, tmp, seconds):
    """Passes over the units until ``seconds`` are used up, with one set-up
    run after each pass, so that both sample the same phases of the host.

    Every unit and set-up run is timed on a ScaledClock that is marked after
    it, which removes most of the effect of the host's fast and slow phases.
    """
    units = workload_units(workload, inputs, tmp)
    rows = [[] for _ in units]
    setups = []
    clock = ScaledClock()

    def timed(fn):
        before = clock.read()
        result = fn()
        clock.mark()
        return result, [b - a for a, b in zip(before, clock.read())]

    def per_unit_sum(key):
        return sum(statistics.median(r[key] for r in unit_rows) for unit_rows in rows)

    inside = marks_inside_suites(clock) if workload == "suite-all" else contextlib.nullcontext()
    start = time.perf_counter()
    with inside:
        while True:
            t_pass = time.perf_counter()
            for unit, unit_rows in zip(units, rows):
                row, (wall, cpu, unscaled) = timed(unit)
                row.update(wall_s=wall, cpu_s=cpu, unscaled_wall_s=unscaled)
                unit_rows.append(row)
            if len(setups) < SETUP_RUNS:
                setups.append(timed(lambda: setup_once(workload, seed))[1][0])
            now = time.perf_counter()
            if now - start + (now - t_pass) > seconds:
                break
    while len(setups) < SETUP_RUNS:
        setups.append(timed(lambda: setup_once(workload, seed))[1][0])
    flat = [r for unit_rows in rows for r in unit_rows]
    values = {
        "wall_s": per_unit_sum("wall_s"),
        "cpu_s": per_unit_sum("cpu_s"),
        "peak_rss_mb": max(r["rss_mb"] for r in flat),
        "setup_s": statistics.median(setups),
    }
    passes = len(rows[0])

    def per_pass(key):
        return " ".join("%.3f" % sum(unit_rows[k][key] for unit_rows in rows)
                        for k in range(passes))

    probes = clock.probes
    info = {"units x passes": "%d x %d" % (len(units), passes),
            "wall_s per pass": per_pass("wall_s"),
            "unscaled wall_s per pass": per_pass("unscaled_wall_s"),
            "setup_s per set-up": " ".join("%.3f" % t for t in setups),
            "probes": len(probes),
            "probe ms min/median/max": "%.2f %.2f %.2f" % (
                min(probes) * 1e3, statistics.median(probes) * 1e3, max(probes) * 1e3)}
    for key in ("margin_digits", "order_margin"):
        seen = [r[key] for r in flat if r[key] is not None]
        if seen:
            info[key] = min(seen)
    return values, [c for r in flat for c in r["checks"]], info


def _count_checks(tracer, workload, untraced):
    """Work counts the traced pass must share with the untraced outputs."""
    keys = [k for k, _, _ in untraced["checks"]]

    def n(prefix):
        return sum(1 for k in keys if k.startswith(prefix))

    if workload == "suite-all":
        exchange = [r for s in untraced["suites"] if s["name"] == "relations"
                    for r in s["reports"] if r.get("kind") == "exchange"]
        control = min(W.CLI_SAMPLES, 20)
        expect = {
            "relations.verify_exchange": len(exchange) + 1,
            "relations.sample_x": sum(len(r["points"]) for r in exchange) + control,
            "degeneration.limit_check": n("limits/scaling-limit/"),
            "hopf.search_conventions": n("hopf/hopf-convention-search/"),
        }
    elif workload == "scaling-limits":
        expect = {"degeneration.limit_check": n("limits/scaling-limit/")}
    else:
        expect = {"freefield.series_from_closed_form": n("ope-jet/"),
                  "freefield.delta_decompose": n("delta-decompose/"),
                  "hopf.search_conventions": n("hopf/hopf-convention-search/")}
    return [("trace/count/" + name, str(tracer.metric(name, "calls")), str(v))
            for name, v in sorted(expect.items())]


def traced_run(workload, inputs, tmp, per_layer):
    from spans import Tracer

    extra = {}
    checks = []
    suite_all = workload == "suite-all"

    def runners(tracer=None):
        return timed_runners(tracer) if suite_all else contextlib.nullcontext()

    with runners() as times:
        untraced = one_pass(workload_units(workload, inputs, tmp))
    tracer = Tracer().install()
    try:
        # built after install, so that the units bind the wrapped functions
        with runners(tracer):
            traced = one_pass(workload_units(workload, inputs, tmp))
        missed = tracer.unbound()
    finally:
        tracer.uninstall()
    if suite_all:
        pool = cli_pool_child(inputs, tmp)
        checks += pool["checks"]
        if [c[:2] for c in pool["checks"][:-1]] != [c[:2] for c in untraced["checks"]
                                                  if not c[0].startswith("cli/")]:
            checks.append(("trace/pool-equals-serial", "differs", "equal"))
        serial_s = sum(times.values())
        for name, t in times.items():
            extra["cli.suite.%s_s" % name] = t
        extra["cli.report_s"] = untraced["wall_s"] - serial_s
        extra["cli.report_bytes"] = pool["report_bytes"]
        extra["cli.pool_speedup"] = serial_s / pool["wall_s"]
    checks += untraced["checks"] + traced["checks"]
    if [c[:2] for c in untraced["checks"]] != [c[:2] for c in traced["checks"]]:
        checks.append(("trace/verdicts-equal", "differs", "equal"))
    checks += _count_checks(tracer, workload, untraced)
    checks.append(("trace/bindings", " ".join(missed) or "all-patched", "all-patched"))

    draws = tracer.metric("scalars.sample_annulus_point", "calls")
    points = tracer.metric("relations.sample_x", "calls")
    extra.update({
        "relations.points": points,
        "relations.sample_draws": draws,
        "relations.sample_yield": points / draws if draws else 0.0,
        "relations.margin_digits": untraced["margin_digits"] or 0.0,
        "degeneration.order_margin": untraced["order_margin"] or 0.0,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    values = {}
    for name in per_layer:
        if name in extra or name == "host.probe_ms":
            values[name] = extra.get(name)
            continue
        span, field = name.rsplit(".", 1)
        values[name] = tracer.metric(span, field)
    TMP.mkdir(exist_ok=True)
    tracer.dump(TMP / ("spans-%s-%s.json" % (workload, inputs_tag(inputs))))
    info = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"]}
    if suite_all:
        info["pool child wall_s cpu_s rss_mb"] = "%.3f %.3f %.1f" % (
            pool["wall_s"], pool["cpu_s"], pool["rss_mb"])
    info["table"] = tracer.table()
    return values, checks, info


def inputs_tag(inputs):
    return "-".join(str(inputs[k]).replace("/", "_") for k in sorted(inputs)
                    if k != "samples")


# --------------------------------------------------------------------------


def _fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import ospboson, build the inputs and exit (timed as setup_s)")
    args = ap.parse_args(argv)

    if not (SRC / "ospboson" / "__init__.py").is_file():
        return _fail("no ospboson package under %s" % SRC)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("no BENCHMARK.json at %s" % ROOT)
    sys.path.insert(0, str(SRC))
    import ospboson
    if Path(ospboson.__file__).resolve().parent != (SRC / "ospboson").resolve():
        return _fail("imported ospboson from %s, not from the checkout" % ospboson.__file__)
    if args.setup_only:
        W.INPUTS[args.workload](args.seed)
        return 0

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    TMP.mkdir(exist_ok=True)
    probes = [host_probe_ms()]
    inputs = W.INPUTS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, checks, info = traced_run(args.workload, inputs, tmp, names)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            try:
                values, checks, info = timed_run(
                    args.workload, args.seed, inputs, tmp, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                return _fail(str(exc))
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    probes.append(host_probe_ms())
    if args.trace:
        values["host.probe_ms"] = statistics.median(probes)

    failed = W.count_failed(checks)
    print("workload %s  seed %d  inputs %s" % (
        args.workload, args.seed,
        json.dumps({k: v for k, v in inputs.items() if k != "samples"})))
    for key, observed, expected in checks:
        if observed != expected:
            print("FAILED %s: observed %s, expected %s" % (key, observed, expected))
    for key, value in info.items():
        if key == "table":
            print("%-44s %8s %10s %10s" % ("span", "calls", "total_s", "self_s"))
            for row in value:
                print("%-44s %8d %10.4f %10.4f" % row)
        else:
            print("%-30s %s" % (key, value))
    print("%-30s %.3f / %.3f ms (before / after)" % ("host probe", probes[0], probes[-1]))
    print("%-30s %d" % ("ops", len(checks)))
    print("%-30s %d" % ("ops_failed", failed))
    for name in units:
        print("%-30s %s %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
