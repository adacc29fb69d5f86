"""Workload inputs, the timed units of each workload, and the expected verdicts.

Every workload is built so that its cost does not depend on the workload
seed: the seed only picks *which* inputs are used, from a band in which the
amount of work is fixed.  Building the inputs is a table lookup plus the
program's own sampling, so set-up costs the same for every seed too.

* ``suite-all``      the CLI north-star run, ``python -m ospboson --suite all``
                     at the default digits, tolerance and order with 10
                     samples, on a CLI ``--seed`` from ``SUITE_CLI_SEEDS``.
* ``scaling-limits`` in-process ``limit_check`` over ``LIMIT_NAMES`` at 30
                     digits on ``sample_limit_inputs`` of a seed from
                     ``LIMIT_SEEDS``, plus the trig-to-rational eta ladder.
* ``exact-algebra``  in-process exact series and tensor work at order 24 on
                     one (q, sqrt p) point whose numerators are coprime to 60,
                     so the denominators (60 and 3600) never change.

An in-process workload is a list of short units (one ``limit_check``, one
OPE jet, ...), each timed on its own; see ``run.py``.  A check is a (key,
observed, expected) triple; ``failed`` counts the ones where observed
differs from expected.
"""

import math
import random
from fractions import Fraction

from mpmath import mp

# --------------------------------------------------------------------------
# verification settings

CLI_SAMPLES = 10          # the CLI's minimum; keeps one child near 3 s
CLI_DIGITS = 50
CLI_TOLERANCE = "1e-20"
CLI_ORDER = 16
LIMIT_DIGITS = 30
LIMIT_COUNT = 4
EXACT_ORDER = 24

# suite-all band: q = 2/5, sqrt(p) in {29, 30, 31}/60
SUITE_Q = Fraction(2, 5)
SUITE_SQRT_P = frozenset(Fraction(k, 60) for k in (29, 30, 31))

# Workload seed -> program seed, as ``TABLE[seed % len(TABLE)]``.  The tables
# were made once, with the theta routing of the program at the time: a
# factor at nome t costs 3 * (ceil((digits + 10) ln 10 / -ln t) + 1) product
# terms below t = 0.9 and about 70 on the modular path above, and each limit
# sample has 20 factors on each of its two bases for each of the four
# epsilons (0.1, 0.05, 0.025, 0.0125).
#
# SUITE_CLI_SEEDS: of the CLI seeds 0..99 999, 248 have a sample_parameters
# point in the band above; these are the 16 whose limits-suite samples
# (sample_limit_inputs(s, 3)) come closest to 95 500 terms per sample, all
# within 1.4%.  CLI seed 0 (q = 2/5, p = 1/4) is in the band but 23% off, so
# it is not used.
SUITE_CLI_SEEDS = (23700, 30062, 32896, 36935, 46812, 51267, 54995, 65199,
                   72595, 76038, 77817, 82474, 88227, 90642, 91838, 95597)
# LIMIT_SEEDS: the 16 limit seeds in 0..2999 whose sample_limit_inputs(s, 4)
# come closest to the same 95 500 terms per sample, all within 0.15%.
LIMIT_SEEDS = (40, 123, 220, 361, 423, 428, 916, 1615, 1655, 1764, 1877,
               2189, 2489, 2514, 2549, 2618)

# the trig-to-rational ladder of the limits suite
TRIG_ETAS = (0.1, 0.05, 0.025)

HOPF_FAILS_BY_DESIGN = frozenset(("a2:E", "a2:F"))


# --------------------------------------------------------------------------
# inputs


def suite_all_inputs(seed):
    from ospboson.scalars import sample_parameters

    s = SUITE_CLI_SEEDS[seed % len(SUITE_CLI_SEEDS)]
    q, p, r = sample_parameters(s, 1)[0]
    if q != SUITE_Q or r not in SUITE_SQRT_P:
        raise RuntimeError("CLI seed %d is no longer in the (q, p) band: "
                           "q = %s, p = %s" % (s, q, p))
    return {"cli_seed": s, "q": str(q), "p": str(p)}


def scaling_limits_inputs(seed):
    from ospboson.degeneration import sample_limit_inputs

    s = LIMIT_SEEDS[seed % len(LIMIT_SEEDS)]
    return {"limit_seed": s, "samples": sample_limit_inputs(s, LIMIT_COUNT)}


def exact_algebra_inputs(seed):
    rng = random.Random("perfbench/exact-algebra/%d" % seed)
    numerators = [k for k in range(12, 46) if math.gcd(k, 60) == 1]
    qn, rn = rng.sample(numerators, 2)
    return {"q": "%d/60" % qn, "sqrt_p": "%d/60" % rn}


INPUTS = {
    "suite-all": suite_all_inputs,
    "scaling-limits": scaling_limits_inputs,
    "exact-algebra": exact_algebra_inputs,
}


# --------------------------------------------------------------------------
# expected verdicts


def expected_verdict(key):
    """Every check passes except the hopf failures the suite reports by design."""
    parts = key.split("/")
    if "hopf-convention-search" in parts:
        return "fail"
    if "hopf-axiom" in parts and parts[-1].split("#")[0] in HOPF_FAILS_BY_DESIGN:
        return "fail"
    return "pass"


def suite_expected_keys(suite):
    """Check keys a CLI report of ``suite`` (one of cli.SUITES, or "all") must hold."""
    from ospboson.degeneration import LIMIT_NAMES
    from ospboson.hopf import AXIOM_GENERATORS, AXIOMS

    keys = {
        "ope": ["ope/contraction-identity/%s#1" % p
                for p in ("phi,phi", "psi,psi", "phi,psi")],
        "relations": ["relations/exchange/%s#1" % n for n in LIMIT_NAMES]
        + ["relations/anticommutator-delta/EF#1",
           "relations/invertibility/Hinv#1",
           "relations/negative-control/EE#1"],
        "hopf": ["hopf/tau-category-laws/#1"]
        + ["hopf/hopf-axiom/%s:%s#1" % (a, g)
           for a in AXIOMS for g in AXIOM_GENERATORS]
        + ["hopf/hopf-convention-search/#1"],
        "limits": ["limits/scaling-limit/%s#%d" % (n, i)
                   for n in LIMIT_NAMES for i in (1, 2, 3)]
        + ["limits/trig-to-rational/EE#1"],
    }
    if suite == "all":
        return [k for name in ("ope", "relations", "hopf", "limits")
                for k in keys[name]]
    return keys[suite]


def expected_exit_status(suite):
    """The hopf suite fails by design, so its honest exit status is 1."""
    return "1" if suite in ("hopf", "all") else "0"


def _report_ident(rep):
    if rep.get("check") == "hopf-axiom":
        return "%s:%s" % (rep["axiom"], rep["generator"])
    return rep.get("relation") or rep.get("pair") or rep.get("name") or ""


def suite_report_checks(suite, suites):
    """Checks of a CLI report's ``suites`` list for ``suite`` against the expected table.

    Exchange reports must also keep ``residual_max`` at or below their
    tolerance.  Returns (checks, margin_digits, order_margin); a margin is
    None when the report has no check it applies to.
    """
    seen = {}
    checks = []
    margins = []
    orders = []
    for entry in suites:
        for rep in entry["reports"]:
            kind = rep.get("check") or rep.get("kind")
            base = "%s/%s/%s" % (entry["name"], kind, _report_ident(rep))
            seen[base] = seen.get(base, 0) + 1
            key = "%s#%d" % (base, seen[base])
            observed = rep.get("verdict")
            if kind == "exchange":
                residual = mp.mpf(rep["residual_max"])
                tolerance = mp.mpf(rep["tolerance"])
                if residual > tolerance:
                    observed = "residual-above-tolerance"
                elif residual > 0:
                    margins.append(float(mp.log10(tolerance / residual)))
            if kind == "scaling-limit" and not rep["exact"]:
                orders.append(min(rep["empirical_orders"]) - 0.8)
            checks.append((key, observed, expected_verdict(key)))
    got = {k for k, _, _ in checks}
    for key in suite_expected_keys(suite):
        if key not in got:
            checks.append((key, "missing", expected_verdict(key)))
    return checks, min(margins, default=None), min(orders, default=None)


# --------------------------------------------------------------------------
# in-process units.  ``UNITS[workload](inputs)`` returns a list of zero-argument
# callables; each returns (checks, extra fields of its timed row).  Together
# they are one pass.


def scaling_limits_units(inputs):
    from ospboson.degeneration import (
        LIMIT_NAMES, limit_check, rational_structure_function,
        trig_structure_function)

    def limit(i, s, name):
        def unit():
            rep = limit_check(name, s["u_minus_v"], eta=s["eta"],
                              hbar=s["hbar"], c=1, digits=LIMIT_DIGITS)
            key = "limits/scaling-limit/%s#%d" % (name, i)
            order = None if rep["exact"] else min(rep["empirical_orders"]) - 0.8
            return ([(key, rep["verdict"], expected_verdict(key))],
                    {"order_margin": order})
        return unit

    def ladder():
        target = rational_structure_function("EE", 0.7, 0.2)
        ks = [float(abs(trig_structure_function("EE", 0.7, eta=eta, hbar=0.2)
                        - target) / mp.mpf(eta) ** 2) for eta in TRIG_ETAS]
        key = "limits/trig-to-rational/EE#1"
        return [(key, "pass" if max(ks) / min(ks) < 2 else "fail",
                 expected_verdict(key))], {}

    units = [limit(i, s, name) for i, s in enumerate(inputs["samples"], 1)
             for name in LIMIT_NAMES]
    return units + [ladder]


def exact_algebra_units(inputs):
    from ospboson.freefield import (
        DeformationParams, contraction_series, delta_decompose,
        exp_contraction_closed, ope_kernel)
    from ospboson.errors import UnsupportedError
    from ospboson.hopf import (
        AXIOM_GENERATORS, AXIOMS, SignConvention, search_conventions,
        verify_axiom)
    from ospboson.relations import CURRENTS, relation_catalog
    from ospboson.series import TruncatedSeries, qpoch_log_series

    order = EXACT_ORDER
    P = DeformationParams.from_sqrt(Fraction(inputs["q"]),
                                    Fraction(inputs["sqrt_p"]))

    def contraction(pair):
        def unit():
            jet = contraction_series(pair[0], pair[1], P, order).exp()
            acc = TruncatedSeries.one(order)
            for f in exp_contraction_closed(pair[0], pair[1], P):
                acc = acc * qpoch_log_series(f.c, f.b, order, f.power)
            return [("contraction-identity/%s,%s" % pair,
                     "pass" if acc.coeffs == jet.coeffs else "fail", "pass")], {}
        return unit

    def ope(rel_id, a, b):
        def unit():
            K = ope_kernel(CURRENTS[a](P), CURRENTS[b](P), P, order=order)
            checks = [("ope-jet/%s" % rel_id,
                       "pass" if K.series == K.series_from_closed_form() else "fail",
                       "pass")]
            try:
                terms, discarded = delta_decompose(K)
            except UnsupportedError:
                observed = "unsupported"
            else:
                supports = sorted(t.support_x for t in terms)
                ok = supports == sorted([P.p, 1 / P.p]) and not discarded
                observed = "decomposed" if ok else "wrong-supports"
            checks.append(("delta-decompose/%s" % rel_id, observed,
                           "decomposed" if rel_id == "EF" else "unsupported"))
            return checks, {}
        return unit

    def axioms(sign, axiom):
        def unit():
            conv = SignConvention(sign, -sign)
            checks = []
            for gen in AXIOM_GENERATORS:
                key = "hopf/hopf-axiom/%s:%s#%d" % (axiom, gen, sign)
                checks.append((key, verify_axiom(axiom, gen, conv)["verdict"],
                               expected_verdict(key)))
            return checks, {}
        return unit

    def search():
        rep = search_conventions()
        observed = rep["verdict"]
        if set(rep["universal_failures"]) != HOPF_FAILS_BY_DESIGN:
            observed = "wrong-witnesses"
        return [("hopf/hopf-convention-search/#1", observed, "fail")], {}

    pairs = {}
    for rel in relation_catalog(P):
        if rel.kind != "invertibility":
            pairs[rel.rel_id] = rel.left
    units = [contraction(pair)
             for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi"))]
    units += [ope(rel_id, a, b) for rel_id, (a, b) in pairs.items()]
    units += [axioms(sign, axiom) for sign in (1, -1) for axiom in AXIOMS]
    return units + [search]


UNITS = {
    "scaling-limits": scaling_limits_units,
    "exact-algebra": exact_algebra_units,
}


def count_failed(checks):
    return sum(1 for _, observed, expected in checks if observed != expected)
