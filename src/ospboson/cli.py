"""Batch verification driver and symbolic printer.

Two entry modes:

  ospboson [run] [flags]       run one suite (or all) and write a JSON report
  ospboson print KIND ID       render a kernel, structure function or coproduct

Every flag has an environment-variable override with the ``OSPBOSON_``
prefix (``OSPBOSON_SUITE``, ``OSPBOSON_DIGITS``, ...); explicit flags win.
Exit status: 0 all checks pass, 1 at least one verification failed (the
report is still written), 2 usage error, 3 a suite crashed (the report is
still written; that suite's entry is {name, error: "<Type>: <message>",
reports: []}) or an internal error outside the suites (the traceback and
a line "error: internal: <Type>: <message>" go to stderr).

The report is a single UTF-8 JSON document with fixed key order

    {tool_version, generated_at, config, suites: [{name, reports: [...]}],
     overall_verdict}

so two runs with the same config and seed are byte-identical except for the
``generated_at`` timestamp.  The selected suites run one after another,
in process and in the canonical suite order.
"""

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

from mpmath import mp

from . import __version__
from .degeneration import (
    LIMIT_NAMES,
    limit_check,
    rational_structure_function,
    sample_limit_inputs,
    trig_structure_function,
)
from .freefield import (
    DeformationParams,
    contraction_series,
    exp_contraction_closed,
    kernel_repr,
    ope_kernel,
)
from .hopf import (
    AXIOM_GENERATORS,
    AXIOMS,
    GENERATOR_KINDS,
    SignConvention,
    coproduct_repr,
    generator_expr,
    search_conventions,
    tau,
    verify_axiom,
)
from .relations import (
    CURRENTS,
    relation_catalog,
    structure_function_repr,
    verify_ef,
    verify_exchange,
    verify_invertibility,
)
from .scalars import sample_parameters
from .series import closed_form_log


class UsageError(ValueError):
    """Bad flags or an unknown object id; maps to exit status 2."""


SUITES = ("ope", "relations", "hopf", "limits")

ENV_PREFIX = "OSPBOSON_"

# fixed parameter point for the symbolic printers; any valid point gives the
# same factor structure, a fixed one keeps the output golden-file stable
PRINT_PARAMS = ("2/5", "1/4", "1/2")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    suite: str = "all"
    order: int = 16
    digits: int = 50
    tolerance: float = 1e-20
    seed: int = 0
    samples: int = 100
    convention: int = 1
    strict_text: bool = False
    trace: bool = False
    out: str = "ospboson-report.json"

    def validate(self):
        if self.suite not in SUITES + ("all",):
            raise UsageError("unknown suite %r" % (self.suite,))
        if self.order < 4:
            raise UsageError("order must be at least 4")
        if self.samples < 10:
            raise UsageError("samples must be at least 10")
        if self.digits < 15:
            raise UsageError("digits must be at least 15")
        if not math.isfinite(self.tolerance):
            raise UsageError("tolerance must be finite, got %r" % (self.tolerance,))
        floor = mp.mpf(10) ** (8 - self.digits)
        if mp.mpf(self.tolerance) < floor:
            raise UsageError(
                "tolerance %g is below the precision floor 1e%d"
                % (self.tolerance, 8 - self.digits)
            )
        if self.convention not in (1, -1):
            raise UsageError("convention must be +1 or -1")
        # open --out before any suite runs; leave no file where none was
        existed = os.path.exists(self.out)
        try:
            open(self.out, "a").close()
        except OSError as exc:
            raise UsageError("cannot write --out %r: %s" % (self.out, exc.strerror)) from None
        if not existed:
            os.remove(self.out)


# ---------------------------------------------------------------------------
# suite runners; each takes the RunConfig and returns JSON-ready report
# dicts only


def _suite_ope(cfg):
    reports = []
    triples = sample_parameters(cfg.seed, 3)
    for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi")):
        mismatches = 0
        for q, p, r in triples:
            P = DeformationParams(q, p, r)
            # exp<A B> = closed form, compared on logs: truncated exp and log
            # are inverse bijections between x Q[x] and 1 + x Q[x] mod
            # x^(order+1), so exp(A) = exp(B) exactly when A = B
            closed = closed_form_log(
                exp_contraction_closed(pair[0], pair[1], P), cfg.order)
            if contraction_series(pair[0], pair[1], P, cfg.order) != closed:
                mismatches += 1
        reports.append({
            "check": "contraction-identity",
            "pair": "%s,%s" % pair,
            "order": cfg.order,
            "parameter_points": [
                {"q": str(q), "p": str(p)} for q, p, _ in triples
            ],
            "arithmetic": "exact-rational",
            "mismatched_points": mismatches,
            "verdict": "pass" if mismatches == 0 else "fail",
        })
    return reports


def _suite_relations(cfg):
    P = DeformationParams(*sample_parameters(cfg.seed, 1)[0])
    mode = "strict-text" if cfg.strict_text else "canonical"
    reports = []
    ee_rel = None
    for rel in relation_catalog(mode=mode):
        if rel.kind == "exchange":
            if rel.rel_id == "EE":
                ee_rel = rel
            reports.append(verify_exchange(
                rel, P, samples=cfg.samples, digits=cfg.digits,
                tolerance=cfg.tolerance, seed=cfg.seed))
        elif rel.kind == "anticommutator-delta":
            reports.append(verify_ef(P))
        else:
            reports.append(verify_invertibility(P))
    # replacing the structure function by 1 must break the exchange
    control = verify_exchange(
        ee_rel, P, samples=min(cfg.samples, 20), digits=cfg.digits,
        tolerance=cfg.tolerance, seed=cfg.seed, unit_structure=True)
    reports.append({
        "check": "negative-control",
        "relation": "EE",
        "expected": "fail",
        "observed": control["verdict"],
        "residual_max": control["residual_max"],
        "verdict": "pass" if control["verdict"] == "fail" else "fail",
    })
    return reports


def _tau_category_report():
    failures = []
    for kind in AXIOM_GENERATORS:
        for n in range(-3, 4):
            g = generator_expr(kind, n)
            if tau(tau(g, 1, n=n), -1, n=n + 1) != g:
                failures.append([kind, n, "inverse +-"])
            if tau(tau(g, -1, n=n), 1, n=n - 1) != g:
                failures.append([kind, n, "inverse -+"])
            if tau(tau(g, 1, n=n), 1, n=n + 1) != generator_expr(kind, n + 2):
                failures.append([kind, n, "composition"])
            lhs = tau(tau(tau(g, 1, n=n), 1, n=n + 1), -1, n=n + 2)
            if lhs != tau(g, 1, n=n):
                failures.append([kind, n, "associativity"])
    return {
        "check": "tau-category-laws",
        "generators": list(AXIOM_GENERATORS),
        "index_range": [-3, 3],
        "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }


def _suite_hopf(cfg):
    conv = SignConvention(cfg.convention, -cfg.convention)
    rows = [verify_axiom(axiom, gen, conv, corrected_antipode=False, trace=cfg.trace)
            for axiom in AXIOMS for gen in AXIOM_GENERATORS]
    return [_tau_category_report(), *rows, search_conventions(rows)]


def _suite_limits(cfg):
    reports = []
    for s in sample_limit_inputs(cfg.seed, 3):
        # a sample's eight checks run one after another and so share one
        # elliptic side
        for name in LIMIT_NAMES:
            reports.append(limit_check(
                name, s["u_minus_v"], eta=s["eta"], hbar=s["hbar"], c=1, digits=30))
    # the eta -> 0 collapse to the rational algebra is quadratic in eta
    etas = (0.1, 0.05, 0.025)
    target = rational_structure_function("EE", 0.7, 0.2)
    ks = []
    for eta in etas:
        t = trig_structure_function("EE", 0.7, eta=eta, hbar=0.2)
        ks.append(float(abs(t - target) / mp.mpf(eta) ** 2))
    stable = max(ks) / min(ks) < 2
    reports.append({
        "check": "trig-to-rational",
        "relation": "EE",
        "etas": list(etas),
        "k_over_eta_sq": ks,
        "stability_ratio": max(ks) / min(ks),
        "verdict": "pass" if stable else "fail",
    })
    return reports


_SUITE_RUNNERS = {
    "ope": _suite_ope,
    "relations": _suite_relations,
    "hopf": _suite_hopf,
    "limits": _suite_limits,
}


# ---------------------------------------------------------------------------
# report assembly


def _suite_entry(name, run):
    """The report's entry for one suite; a runner that raises becomes an error."""
    try:
        return {"name": name, "reports": run()}
    except Exception as exc:
        return {"name": name, "error": "%s: %s" % (type(exc).__name__, exc),
                "reports": []}


def run_suite(config):
    """Execute the configured suites, write the report, return exit status."""
    config.validate()
    names = SUITES if config.suite == "all" else (config.suite,)
    suites = [_suite_entry(n, lambda: _SUITE_RUNNERS[n](config)) for n in names]
    crashed = any("error" in s for s in suites)
    all_pass = not crashed and all(
        rep.get("verdict") == "pass"
        for s in suites for rep in s["reports"]
    )
    # where the report is written is not part of what it reports
    settings = {k: v for k, v in dataclasses.asdict(config).items() if k != "out"}
    report = {
        "tool_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": settings,
        "suites": suites,
        "overall_verdict": "pass" if all_pass else "fail",
    }
    with open(config.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    return 3 if crashed else 0 if all_pass else 1


# ---------------------------------------------------------------------------
# symbolic printer


def print_object(kind, obj_id, *, strict_text=False):
    """Stable text rendering of a kernel, structure function or coproduct."""
    mode = "strict-text" if strict_text else "canonical"
    if kind == "kernel":
        pair = {r.rel_id: r.left for r in relation_catalog(mode="canonical")}
        if obj_id not in pair:
            raise UsageError("unknown kernel id %r; known: %s"
                             % (obj_id, ", ".join(sorted(pair))))
        P = DeformationParams(*PRINT_PARAMS)
        a, b = pair[obj_id]
        K = ope_kernel(CURRENTS[a](P), CURRENTS[b](P), P, order=6)
        return "kernel %s at q=%s, p=%s\n%s" % (
            obj_id, PRINT_PARAMS[0], PRINT_PARAMS[1], kernel_repr(K))
    if kind == "structure-function":
        rels = {r.rel_id: r for r in relation_catalog(mode=mode)}
        rel = rels.get(obj_id)
        if rel is None or rel.structure_function is None:
            raise UsageError("no structure function for id %r" % (obj_id,))
        return "structure function %s (%s)\n%s" % (
            obj_id, mode, structure_function_repr(rel.structure_function))
    if kind == "coproduct":
        if obj_id not in GENERATOR_KINDS:
            raise UsageError("unknown generator %r" % (obj_id,))
        return "coproduct of %s\n%s" % (obj_id, coproduct_repr(obj_id))
    raise UsageError("unknown object kind %r" % (kind,))


# ---------------------------------------------------------------------------
# argument handling


def _env(name):
    return os.environ.get(ENV_PREFIX + name)


def _env_bool(name):
    raw = _env(name) or ""
    if raw.strip().lower() in ("1", "true", "yes", "on"):
        return True
    if raw.strip().lower() in ("", "0", "false", "no", "off"):
        return False
    raise UsageError("%s%s must be one of 1/true/yes/on or 0/false/no/off, got %r"
                     % (ENV_PREFIX, name, raw))


# argparse settings beyond the field's type; every RunConfig field is a flag
_FLAG_KWARGS = {
    "suite": {"choices": SUITES + ("all",)},
    "convention": {"choices": (1, -1)},
}


def _build_run_parser():
    """One --flag per RunConfig field, defaulting to OSPBOSON_<FIELD>.

    A default read from the environment is a string, which argparse passes
    through the flag's type, so a bad value is a usage error like a bad flag.
    """
    ap = argparse.ArgumentParser(
        prog="ospboson",
        description="verification suites for the deformed superalgebra "
                    "realization; every flag also reads OSPBOSON_<NAME>")
    for field in dataclasses.fields(RunConfig):
        env = field.name.upper()
        flag = "--" + field.name.replace("_", "-")
        if isinstance(field.default, bool):
            ap.add_argument(flag, action="store_true", default=_env_bool(env))
            continue
        kwargs = {"type": type(field.default), **_FLAG_KWARGS.get(field.name, {})}
        ap.add_argument(flag, default=_env(env) or field.default, **kwargs)
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "print":
            ap = argparse.ArgumentParser(prog="ospboson print")
            ap.add_argument("kind",
                            choices=("kernel", "structure-function",
                                     "coproduct"))
            ap.add_argument("id")
            ap.add_argument("--strict-text", action="store_true",
                            default=_env_bool("STRICT_TEXT"))
            ns = ap.parse_args(argv[1:])
            print(print_object(ns.kind, ns.id, strict_text=ns.strict_text))
            return 0
        if argv and argv[0] == "run":
            argv = argv[1:]
        return run_suite(RunConfig(**vars(_build_run_parser().parse_args(argv))))
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        import traceback  # only on this path, to keep it off start-up
        traceback.print_exc()
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
