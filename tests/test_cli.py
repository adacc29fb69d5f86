import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ospboson
from ospboson import cli, degeneration, freefield
from ospboson.cli import (
    RunConfig, UsageError, _suite_hopf, main, print_object, run_suite)
from ospboson.series import TruncatedSeries


def _clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("OSPBOSON_")}
    return env


def _spawn(args, cwd, env=None):
    full = dict(_clean_env())
    if env:
        full.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ospboson", *args],
        cwd=cwd, env=full, capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# config validation


def test_config_defaults_valid():
    RunConfig().validate()


@pytest.mark.parametrize("kwargs", [
    {"order": 3},
    {"samples": 9},
    {"suite": "bogus"},
    {"convention": 0},
    {"digits": 30, "tolerance": 1e-40},
    {"tolerance": float("nan")},
    {"tolerance": float("inf")},
])
def test_config_rejects(kwargs):
    with pytest.raises(UsageError):
        RunConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# printer


def test_print_kernel_ee_has_monomial_line():
    text = print_object("kernel", "EE")
    assert "(z - w)" in text


def test_print_coproduct_e_two_terms():
    text = print_object("coproduct", "E")
    assert "E(z; 0) (x) 1" in text
    assert "H-(z*p^((1/2)*c_0); 0) (x) E(z*p^(c_0); 1)" in text


def test_print_structure_function_modes_differ():
    canonical = print_object("structure-function", "HH")
    strict = print_object("structure-function", "HH", strict_text=True)
    assert canonical != strict
    assert "theta_q2" in canonical


GOLDEN_PRINT = Path(__file__).with_name("golden_print.txt")
EXCHANGE_IDS = ("H+E", "H-E", "H+F", "H-F", "HH", "H+H-", "EE", "FF")


def test_print_golden(capsys, monkeypatch):
    # every id the printer knows; the text is exact rational arithmetic, so
    # it does not depend on the mpmath backend
    monkeypatch.delenv("OSPBOSON_STRICT_TEXT", raising=False)
    commands = [["kernel", k] for k in EXCHANGE_IDS + ("EF", "Hinv")]
    commands += [["structure-function", k, *flag]
                 for flag in ([], ["--strict-text"]) for k in EXCHANGE_IDS]
    commands += [["coproduct", g] for g in ("H+", "H-", "E", "F", "c")]
    for args in commands:
        assert main(["print", *args]) == 0
    assert capsys.readouterr().out == GOLDEN_PRINT.read_text(encoding="utf-8")


GOLDEN_HOPF = Path(__file__).with_name("golden_hopf.txt")


def test_hopf_suite_golden():
    # every hopf report with its trace, for both conventions: the lhs/rhs of
    # each axiom, the witnesses and the convention tables, one JSON line each
    lines = [
        json.dumps(rep, ensure_ascii=False, separators=(",", ":"))
        for convention in (1, -1)
        for rep in _suite_hopf(RunConfig(convention=convention, trace=True))
    ]
    assert lines == GOLDEN_HOPF.read_text(encoding="utf-8").splitlines()


GOLDEN_LIMITS = Path(__file__).with_name("golden_limits.txt")


def test_limits_suite_golden():
    # every limits report (errors, orders, ratios) as one JSON line each
    lines = [json.dumps(rep, ensure_ascii=False, separators=(",", ":"))
             for rep in cli._suite_limits(RunConfig(seed=7))]
    assert lines == GOLDEN_LIMITS.read_text(encoding="utf-8").splitlines()


def test_limits_suite_calls_limit_check_once_per_report(monkeypatch):
    # perfbench counts cli.limit_check calls against the scaling-limit
    # reports and marks its clock after each call; each sample's eight
    # consecutive checks share one elliptic side, built once per sample
    calls = []
    limit_check = cli.limit_check
    memo = degeneration._elliptic_points

    def counted(*args, **kwargs):
        calls.append(args)
        return limit_check(*args, **kwargs)

    memo.cache_clear()
    monkeypatch.setattr(cli, "limit_check", counted)
    reports = cli._suite_limits(RunConfig(seed=7))
    checks = [rep for rep in reports if rep["check"] == "scaling-limit"]
    assert len(calls) == len(checks) == 24
    info = memo.cache_info()
    assert (info.misses, info.currsize) == (3, 1)


GOLDEN_RELATIONS_POINTS = Path(__file__).with_name("golden_relations_points.txt")
POINTS_KEYS = ("relation", "mode", "points", "verdict", "fields_match")


def test_relations_points_golden():
    # the sampled points and verdicts of every relations report; residuals
    # are left out, since they depend on the theta route's rounding
    lines = [
        json.dumps({k: rep[k] for k in POINTS_KEYS if k in rep},
                   ensure_ascii=False, separators=(",", ":"))
        for rep in cli._suite_relations(RunConfig(samples=10, digits=30))
    ]
    assert lines == GOLDEN_RELATIONS_POINTS.read_text(encoding="utf-8").splitlines()


def test_print_unknown_id():
    with pytest.raises(UsageError):
        print_object("kernel", "XX")
    with pytest.raises(UsageError):
        print_object("widget", "EE")


# ---------------------------------------------------------------------------
# run_suite semantics (in process)


def test_ope_suite_three_contraction_passes(tmp_path):
    out = tmp_path / "r.json"
    code = run_suite(RunConfig(suite="ope", order=8, out=str(out)))
    assert code == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    reports = rep["suites"][0]["reports"]
    assert len(reports) == 3
    assert all(r["check"] == "contraction-identity" for r in reports)
    assert all(r["verdict"] == "pass" for r in reports)
    assert rep["overall_verdict"] == "pass"


OPE_PAIRS = ["phi,phi", "psi,psi", "phi,psi"]


def _ope_reports(tmp_path, order):
    out = tmp_path / "r.json"
    code = run_suite(RunConfig(suite="ope", order=order, out=str(out)))
    return code, json.loads(out.read_text(encoding="utf-8"))["suites"][0]["reports"]


@pytest.mark.parametrize("order", [4, 16])
def test_ope_suite_kills_bracket_without_minus_one(tmp_path, monkeypatch, order):
    # mode_bracket with p^n + p^-n in place of p^n + p^-n - 1 must fail
    # every pair at every parameter point
    bracket = freefield.mode_bracket

    def mutant(n, m, params):
        k = abs(n)
        core = params.p ** k + params.p ** -k
        return bracket(n, m, params) * core / (core - 1)

    monkeypatch.setattr(freefield, "mode_bracket", mutant)
    code, reports = _ope_reports(tmp_path, order)
    assert code == 1
    assert [(r["pair"], r["mismatched_points"], r["verdict"]) for r in reports] \
        == [(pair, 3, "fail") for pair in OPE_PAIRS]


@pytest.mark.parametrize("target", OPE_PAIRS)
def test_ope_suite_kills_changed_closed_form_c(tmp_path, monkeypatch, target):
    # one c of one closed form scaled by q fails that pair alone
    closed = cli.exp_contraction_closed

    def mutant(kind1, kind2, params):
        factors = closed(kind1, kind2, params)
        if "%s,%s" % (kind1, kind2) != target:
            return factors
        first = dataclasses.replace(factors[0], c=factors[0].c * params.q)
        return (first,) + factors[1:]

    monkeypatch.setattr(cli, "exp_contraction_closed", mutant)
    code, reports = _ope_reports(tmp_path, 4)
    assert code == 1
    assert [(r["pair"], r["mismatched_points"]) for r in reports] \
        == [(pair, 3 if pair == target else 0) for pair in OPE_PAIRS]


def test_ope_suite_runs_no_exp(tmp_path, monkeypatch):
    # the contraction identity is compared on logs
    calls = []
    exp = TruncatedSeries.exp

    def counted(self):
        calls.append(self.order)
        return exp(self)

    monkeypatch.setattr(TruncatedSeries, "exp", counted)
    code, reports = _ope_reports(tmp_path, 16)
    assert code == 0 and len(reports) == 3
    assert calls == []


def test_report_key_order(tmp_path):
    out = tmp_path / "r.json"
    run_suite(RunConfig(suite="ope", order=8, out=str(out)))
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert list(rep) == [
        "tool_version", "generated_at", "config", "suites", "overall_verdict"]
    assert list(rep["config"])[0] == "suite"


def test_report_independent_of_out_path(tmp_path):
    # the same run written to two places reads the same, timestamp aside
    texts = []
    for name in ("a.json", "sub/b.json"):
        out = tmp_path / name
        out.parent.mkdir(exist_ok=True)
        assert run_suite(RunConfig(suite="ope", order=8, out=str(out))) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        texts.append([ln for ln in lines if '"generated_at"' not in ln])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("suite", ["ope", "all"])
def test_crashed_suite_exits_3_with_error_entry(tmp_path, monkeypatch, suite):
    # a runner that raises is an internal fault, not a failed verification:
    # the report is still written, the status outranks 1, and the suites
    # run after it keep their reports, in the canonical order
    def crash(cfg):
        raise RuntimeError("boom")

    config = RunConfig(suite=suite, samples=10, digits=30,
                       out=str(tmp_path / "r.json"))
    names = cli.SUITES if suite == "all" else (suite,)
    want = [{"name": n,
             "reports": json.loads(json.dumps(cli._SUITE_RUNNERS[n](config)))}
            for n in names[1:]]
    monkeypatch.setitem(cli._SUITE_RUNNERS, "ope", crash)
    assert run_suite(config) == 3
    rep = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert rep["suites"] == [
        {"name": "ope", "error": "RuntimeError: boom", "reports": []}] + want
    assert rep["overall_verdict"] == "fail"


def test_report_write_error_exits_3(tmp_path, monkeypatch, capsys):
    # an exception outside the suite runners is an internal error, not a
    # failed verification
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", full_disk)
    out = tmp_path / "r.json"
    assert main(["--suite", "ope", "--order", "8", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: internal: OSError: [Errno 28] No space left on device"


def test_print_error_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "print_object", broken)
    assert main(["print", "kernel", "EE"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: internal: ZeroDivisionError: division by zero"


def test_hopf_suite_fails_with_witnesses(tmp_path):
    # the antipode obstruction on the odd generators is real: the suite
    # must exit 1 and still write the full report
    out = tmp_path / "r.json"
    code = run_suite(RunConfig(suite="hopf", out=str(out)))
    assert code == 1
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["overall_verdict"] == "fail"
    search = rep["suites"][0]["reports"][-1]
    assert search["check"] == "hopf-convention-search"
    assert search["universal_failures"] == ["a2:E", "a2:F"]
    assert search["corrected_antipode_annotation"]["passing_conventions"]


def test_main_usage_error_exit_2(tmp_path):
    code = main(["--tolerance", "1e-40", "--digits", "30",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert not (tmp_path / "r.json").exists()


def test_main_missing_out_dir_exit_2(tmp_path):
    # rejected before any suite runs, not after the run as a traceback
    out = tmp_path / "missing" / "r.json"
    assert main(["--suite", "ope", "--order", "8", "--out", str(out)]) == 2
    assert not out.parent.exists()


def test_main_out_directory_exit_2(tmp_path, monkeypatch):
    # an --out naming a directory (the empty one resolves to the cwd) is a
    # usage error before any suite runs, not an IsADirectoryError after it
    monkeypatch.chdir(tmp_path)
    for out in ("", ".", str(tmp_path)):
        assert main(["--suite", "ope", "--order", "8", "--out", out]) == 2
    assert list(tmp_path.iterdir()) == []


def test_main_out_unopenable_exit_2(tmp_path, capsys):
    # a file name too long to create is a usage error before any suite runs,
    # not an OSError traceback after it; nothing is left behind
    out = tmp_path / ("a" * 300 + ".json")
    assert main(["--suite", "ope", "--order", "8", "--out", str(out)]) == 2
    assert "cannot write --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_bad_env_value_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("OSPBOSON_ORDER", "abc")
    out = tmp_path / "r.json"
    assert main(["--suite", "ope", "--out", str(out)]) == 2
    assert not out.exists()


def test_main_bad_convention_exit_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    for value in ("2", "x", "0"):
        assert main(["--suite", "ope", "--convention", value,
                     "--out", str(out)]) == 2
    monkeypatch.setenv("OSPBOSON_CONVENTION", "2")
    assert main(["--suite", "ope", "--out", str(out)]) == 2
    assert not out.exists()
    assert "convention" in capsys.readouterr().err
    monkeypatch.delenv("OSPBOSON_CONVENTION")
    for value, want in (("+1", 1), ("1", 1), ("-1", -1)):
        ns = cli._build_run_parser().parse_args(["--convention", value])
        assert ns.convention == want


def test_main_bad_env_bool_exit_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    monkeypatch.setenv("OSPBOSON_TRACE", "banana")
    assert main(["--suite", "ope", "--order", "8", "--out", str(out)]) == 2
    assert not out.exists()
    monkeypatch.delenv("OSPBOSON_TRACE")
    monkeypatch.setenv("OSPBOSON_STRICT_TEXT", "ture")
    assert main(["print", "structure-function", "HH"]) == 2
    assert capsys.readouterr().out == ""
    for raw, want in (("1", True), ("True", True), (" YES ", True), ("on", True),
                      ("0", False), ("FALSE", False), ("no", False),
                      ("Off", False), ("", False)):
        monkeypatch.setenv("OSPBOSON_STRICT_TEXT", raw)
        assert cli._env_bool("STRICT_TEXT") is want, raw


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("OSPBOSON_SUITE", "ope")
    monkeypatch.setenv("OSPBOSON_ORDER", "8")
    monkeypatch.setenv("OSPBOSON_OUT", str(tmp_path / "env.json"))
    assert main([]) == 0
    rep = json.loads((tmp_path / "env.json").read_text(encoding="utf-8"))
    assert [s["name"] for s in rep["suites"]] == ["ope"]
    assert rep["config"]["order"] == 8
    # explicit flags win over the environment
    monkeypatch.setenv("OSPBOSON_ORDER", "99")
    assert main(["--order", "8", "--suite", "ope",
                 "--out", str(tmp_path / "env2.json")]) == 0
    rep2 = json.loads((tmp_path / "env2.json").read_text(encoding="utf-8"))
    assert rep2["config"]["order"] == 8


# ---------------------------------------------------------------------------
# exit codes via the spawned binary


def test_spawned_child_imports_session_package(tmp_path):
    # tests/conftest.py puts the imported tree first on PYTHONPATH; without it
    # a child run from a temp dir cannot find ospboson, or finds another copy
    res = subprocess.run(
        [sys.executable, "-c", "import ospboson; print(ospboson.__file__)"],
        cwd=tmp_path, env=_clean_env(), capture_output=True, text=True,
        timeout=60)
    assert res.returncode == 0, res.stderr
    assert (Path(res.stdout.strip()).resolve()
            == Path(ospboson.__file__).resolve())


def test_spawned_ope_exit_0(tmp_path):
    res = _spawn(["--suite", "ope", "--order", "8", "--out", "r.json"],
                 cwd=tmp_path)
    assert res.returncode == 0, res.stderr


def test_spawned_hopf_exit_1_report_written(tmp_path):
    res = _spawn(["--suite", "hopf", "--out", "r.json"], cwd=tmp_path)
    assert res.returncode == 1, res.stderr
    assert (tmp_path / "r.json").exists()


def test_spawned_bad_flag_exit_2(tmp_path):
    res = _spawn(["--suite", "nonsense"], cwd=tmp_path)
    assert res.returncode == 2, res.stderr


def test_spawned_print(tmp_path):
    res = _spawn(["print", "kernel", "EE"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "(z - w)" in res.stdout
    res = _spawn(["print", "kernel", "XX"], cwd=tmp_path)
    assert res.returncode == 2, res.stderr


def test_full_suite_deterministic(tmp_path):
    # identical config and seed, two fresh working directories: reports are
    # byte-identical apart from the timestamp line
    args = ["--samples", "10", "--digits", "30", "--seed", "3",
            "--out", "report.json"]
    dirs = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        res = _spawn(args, cwd=d)
        assert res.returncode == 1, res.stderr  # honest hopf failure
        dirs.append(d)
    texts = []
    for d in dirs:
        lines = (d / "report.json").read_text(encoding="utf-8").splitlines()
        texts.append([ln for ln in lines if '"generated_at"' not in ln])
    assert texts[0] == texts[1]
