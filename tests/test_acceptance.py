"""End-to-end acceptance checks.

One check per numbered criterion, each emitting a single pass/fail line on
the real stdout (bypassing capture) so the verdicts are visible in plain
pytest output.  Failures are real failures: nothing here loosens a tolerance
to make a red check green.
"""

import json
import random
import subprocess
import sys
import time

import pytest
from mpmath import mp

from ospboson.degeneration import (
    LIMIT_NAMES,
    limit_check,
    rational_structure_function,
    sample_limit_inputs,
    trig_structure_function,
)
from ospboson.freefield import DeformationParams, contraction_series, exp_contraction_closed
from ospboson.hopf import (
    AXIOM_GENERATORS,
    CONVENTIONS,
    generator_expr,
    search_conventions,
    tau,
    verify_axiom,
)
from ospboson.relations import relation_catalog, verify_ef, verify_exchange
from ospboson.scalars import sample_parameters
from ospboson.series import TruncatedSeries, qpoch_log_series
from reference import one_factor_theta, theta_eval

SEED = 0

PARAMS = [DeformationParams(q, p, r) for q, p, r in sample_parameters(SEED, 3)]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # the verdict lines must reach the real terminal even under capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num, ok, text, t0):
    msg = ("ACCEPTANCE %d: %s - %s (%.1fs)"
           % (num, "pass" if ok else "FAIL", text, time.time() - t0))
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print("\n" + msg)
    else:
        print("\n" + msg)
    assert ok, "acceptance %d failed: %s" % (num, text)


def _catalog(mode="canonical"):
    return {r.rel_id: r for r in relation_catalog(PARAMS[0], mode=mode)}


def test_01_contraction_product_identity():
    t0 = time.time()
    order = 30
    ok = True
    for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi")):
        for P in PARAMS:
            jet = contraction_series(pair[0], pair[1], P, order).exp()
            acc = TruncatedSeries.one(order)
            for f in exp_contraction_closed(pair[0], pair[1], P):
                acc = acc * qpoch_log_series(f.c, f.b, order, f.power)
            ok = ok and len(jet.coeffs) == order + 1 and acc.coeffs == jet.coeffs
    _line(1, ok, "exp(contraction) equals closed-form product, all 31 "
          "coefficients exact, 3 parameter points per pair", t0)


def test_02_ef_delta_extraction():
    t0 = time.time()
    rep = verify_ef(PARAMS[0])
    wanted = ("delta_support_set", "coefficient_plus", "coefficient_minus",
              "intermediate_form", "h_plus_identification",
              "h_minus_identification", "bilateral_antisymmetry")
    ok = rep["verdict"] == "pass" and all(rep["checks"][k] for k in wanted)
    _line(2, ok, "anticommutator delta supports z=wp, w=zp with exact "
          "coefficients 1/(sqrt(p)+1/sqrt(p)) per support", t0)


def test_03_ef_exchange_relations():
    t0 = time.time()
    cat = _catalog()
    P = PARAMS[0]
    ok = True
    for rel_id in ("EE", "FF"):
        rep = verify_exchange(cat[rel_id], P, samples=100, digits=50,
                              tolerance=mp.mpf(10) ** -20, seed=SEED)
        ok = ok and rep["verdict"] == "pass"
    control = verify_exchange(cat["EE"], P, samples=20, digits=50,
                              tolerance=mp.mpf(10) ** -20, seed=SEED,
                              unit_structure=True)
    ok = ok and control["verdict"] == "fail"
    ok = ok and mp.mpf(control["residual_max"]) > mp.mpf(10) ** -2
    _line(3, ok, "EE and FF exchange residuals <= 1e-20 over 100 points at "
          "50 digits; unit-structure control fails above 1e-2", t0)


def test_04_h_current_relations():
    t0 = time.time()
    cat = _catalog()
    P = PARAMS[0]
    ok = True
    for rel_id in ("H+E", "H-E", "H+F", "H-F", "HH", "H+H-"):
        rep = verify_exchange(cat[rel_id], P, samples=100, digits=50,
                              tolerance=mp.mpf(10) ** -20, seed=SEED)
        ok = ok and rep["verdict"] == "pass"
    # record which H-E reading survives the kernel identity
    printed = verify_exchange(_catalog("strict-text")["H-E"], P,
                              samples=30, digits=50,
                              tolerance=mp.mpf(10) ** -20, seed=SEED)
    modes = {"printed-text": printed["verdict"], "corrected": "pass" if ok else "fail"}
    ok = ok and printed["verdict"] == "fail"
    _line(4, ok, "H-current relations pass via composite kernels; H-E modes "
          "recorded as %s" % (modes,), t0)


def test_05_hopf_family_axioms():
    t0 = time.time()
    ok = True
    for conv in CONVENTIONS:
        for gen in AXIOM_GENERATORS:
            rep = verify_axiom("a3", gen, conv)
            ok = ok and rep["verdict"] == "pass"
    search = search_conventions()
    none_pass = not search["conventions_passing_all"]
    witnesses = search["universal_failures"]
    if none_pass:
        # the honest outcome: report the minimal obstruction and the
        # annotation showing the antipode sign flip that repairs it
        ok = ok and witnesses == ["a2:E", "a2:F"]
        ok = ok and len(
            search["corrected_antipode_annotation"]["passing_conventions"]) > 0
        note = ("a3 exact for all generators/conventions; no convention "
                "satisfies a1+a2, minimal witnesses %s; corrected antipode "
                "annotation passes" % (witnesses,))
    else:
        note = ("a3 exact; conventions passing a1+a2: %s"
                % (search["conventions_passing_all"],))
    _line(5, ok, note, t0)


def test_06_tau_category_laws():
    t0 = time.time()
    ok = True
    for kind in AXIOM_GENERATORS:
        for n in range(-3, 4):
            g = generator_expr(kind, n)
            ok = ok and tau(tau(g, 1, n=n), -1, n=n + 1) == g
            ok = ok and tau(tau(g, -1, n=n), 1, n=n - 1) == g
            ok = ok and tau(tau(g, 1, n=n), 1, n=n + 1) == generator_expr(kind, n + 2)
            lhs = tau(tau(tau(g, 1, n=n), 1, n=n + 1), -1, n=n + 2)
            ok = ok and lhs == tau(g, 1, n=n)
    _line(6, ok, "shift-functor composition, inverse and associativity exact "
          "for all generators, |n| <= 3", t0)


def test_07_degeneration_limits():
    t0 = time.time()
    ok = True
    for sample in sample_limit_inputs(SEED, 5):
        for name in LIMIT_NAMES:
            rep = limit_check(name, sample["u_minus_v"], eta=sample["eta"],
                              hbar=sample["hbar"], c=1, digits=30)
            ok = (ok and rep["verdict"] == "pass" and rep["monotone"]
                  and min(rep["empirical_orders"]) >= 0.8)
    target = rational_structure_function("EE", 0.7, 0.2)
    ks = []
    for eta in (0.1, 0.05, 0.025):
        t = trig_structure_function("EE", 0.7, eta=eta, hbar=0.2)
        ks.append(abs(t - target) / mp.mpf(eta) ** 2)
    ok = ok and max(ks) / min(ks) < 2
    _line(7, ok, "all sine-ratio limits monotone with order >= 0.8 at 5 "
          "random samples; |trig-rational| = K eta^2 with K stable "
          "within factor %.3f" % float(max(ks) / min(ks)), t0)


def _annulus_point(rng, digits):
    # uniform in the annulus 0.2 <= |z| <= 0.95, wider than the package's
    # exchange sampler, so the theta checks reach closer to the unit circle
    rmin, rmax = 0.2, 0.95
    with mp.workdps(digits):
        u = rng.random()
        r = mp.sqrt(rmin * rmin + u * (rmax * rmax - rmin * rmin))
        phi = mp.mpf(2) * mp.pi * rng.random()
        return mp.mpc(r * mp.cos(phi), r * mp.sin(phi))


def test_08_theta_substrate():
    t0 = time.time()
    digits = 50
    rng = random.Random(("acceptance-theta", SEED).__repr__())
    ok = True
    bound = mp.mpf(10) ** -30
    with mp.workdps(digits + 20):
        for _ in range(100):
            q = mp.mpf(rng.uniform(0.05, 0.9))
            z = _annulus_point(rng, digits)
            lhs = theta_eval(q * z, q, digits)
            rhs = -theta_eval(z, q, digits) / z
            scale = max(abs(lhs), abs(rhs), mp.mpf(1))
            ok = ok and abs(lhs - rhs) / scale < bound
        for _ in range(25):
            q = mp.mpf(rng.uniform(0.3, 0.95))
            z = abs(_annulus_point(rng, digits))  # the transform takes z > 0
            a = theta_eval(z, q, digits)
            b = one_factor_theta(z, q, digits)
            ok = ok and abs(a - b) / max(abs(a), mp.mpf(1)) < bound
    _line(8, ok, "quasi-periodicity residual < 1e-30 at 100 points; "
          "product vs modular path < 1e-30 at real z up to q = 0.95", t0)


def test_09_full_suite_determinism(tmp_path):
    t0 = time.time()
    args = [sys.executable, "-m", "ospboson", "--seed", str(SEED),
            "--out", "report.json"]
    texts = []
    codes = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        res = subprocess.run(args, cwd=d, capture_output=True, text=True,
                             timeout=600)
        codes.append(res.returncode)
        lines = (d / "report.json").read_text(encoding="utf-8").splitlines()
        texts.append([ln for ln in lines if '"generated_at"' not in ln])
    ok = texts[0] == texts[1] and codes[0] == codes[1] and codes[0] in (0, 1)
    body = "\n".join(texts[0])
    verdict = json.loads(body)["overall_verdict"]
    _line(9, ok, "two identically seeded full-suite runs byte-identical "
          "modulo timestamp (overall verdict %r, exit %d)"
          % (verdict, codes[0]), t0)
