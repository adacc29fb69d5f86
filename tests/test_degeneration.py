from collections import Counter

import pytest
from mpmath import mp

from ospboson import degeneration, theta
from ospboson.degeneration import (
    EPSILON_LADDER,
    LIMIT_NAMES,
    eta_prime,
    limit_check,
    rational_structure_function,
    sample_limit_inputs,
    trig_structure_function,
)
from ospboson.errors import DomainError, PoleError, StructuralError
from ospboson.relations import relation_catalog, theta_bases
from reference import (
    TRIG_DISPLAY_AUDIT,
    mpc_degenerate_structure_function,
    one_factor_theta,
    theta_argument,
    theta_shift,
)


def _rel(name):
    return {r.rel_id: r for r in relation_catalog(mode="canonical")}[name]


# ---------------------------------------------------------------------------
# eta'


def test_eta_prime_examples():
    assert eta_prime(0.37, 2.1, 0) == mp.mpf(1) / (1 / mp.mpf(0.37))
    assert eta_prime(1, 1, 1) == mp.mpf("0.5")
    assert eta_prime(0.5, 2, 1) == mp.mpf("0.25")


def test_eta_prime_constraint_full_precision():
    with mp.workdps(60):
        for eta, hbar, c in ((0.31, 0.17, 1), (0.25, 0.4, 2), (0.8, -0.3, 1)):
            ep = eta_prime(eta, hbar, c)
            assert abs(1 / ep - 1 / mp.mpf(eta) - mp.mpf(hbar) * c) < mp.mpf(10) ** -55


def test_eta_prime_domain_errors():
    with pytest.raises(DomainError):
        eta_prime(0, 1, 1)
    with pytest.raises(DomainError):
        eta_prime(0.5, -2, 1)  # 1/eta + hbar*c = 0


# ---------------------------------------------------------------------------
# trigonometric structure functions


def test_trig_ee_collapses_at_zero_hbar():
    v = trig_structure_function("EE", 0.41, eta=0.3, hbar=0)
    assert abs(v + 1) < 1e-30


def test_trig_ee_golden_two_precisions():
    with mp.workdps(70):
        golden = mp.mpf("-1.33360573448147137408350764507448981562058897")
        lo = trig_structure_function("EE", "0.7", eta="0.3", hbar="0.2", digits=30)
        hi = trig_structure_function("EE", "0.7", eta="0.3", hbar="0.2", digits=60)
        assert abs(lo - golden) < 1e-28
        assert abs(hi - golden) < 1e-28
        assert abs(lo - hi) < 1e-35


def test_trig_level_sign_mirror():
    # the +-c/2 shifts mirror between H+E and H-E
    a = trig_structure_function("H+E", 0.38, eta=0.27, hbar=0.11, c=2)
    b = trig_structure_function("H-E", 0.38, eta=0.27, hbar=0.11, c=-2)
    assert abs(a - b) < 1e-30


def test_trig_pole_detection():
    with pytest.raises(PoleError):
        trig_structure_function("EE", 2 * 0.13, eta=0.3, hbar=0.13)


def test_trig_rejects_non_exchange():
    with pytest.raises(StructuralError):
        trig_structure_function("EF", 0.3, eta=0.3, hbar=0.1)
    with pytest.raises(StructuralError):
        trig_structure_function("nope", 0.3, eta=0.3, hbar=0.1)


def _base_counts(name):
    return Counter(tf.base for tf in _rel(name).structure_function.factors)


def test_half_period_invariance():
    # every base carries an even number of sine factors, so shifting u-v by
    # the half period of that base leaves the full ratio invariant
    with mp.workdps(50):
        s0 = mp.mpf("0.33")
        eta = mp.mpf("0.27")
        hbar = mp.mpf("0.13")
        T = 1 / (2 * eta)
        for name in ("EE", "H+E"):
            counts = _base_counts(name)
            assert counts["qt2"] == 0 and counts["q2"] % 2 == 0
            t0 = trig_structure_function(name, s0, eta=eta, hbar=hbar, digits=40)
            t1 = trig_structure_function(name, s0 + T, eta=eta, hbar=hbar, digits=40)
            assert abs(t0 - t1) < 1e-35
        Tp = 1 / (2 * eta_prime(eta, hbar, 1))
        for name in ("FF", "H+F"):
            counts = _base_counts(name)
            assert counts["q2"] == 0 and counts["qt2"] % 2 == 0
            t0 = trig_structure_function(name, s0, eta=eta, hbar=hbar, digits=40)
            t1 = trig_structure_function(name, s0 + Tp, eta=eta, hbar=hbar, digits=40)
            assert abs(t0 - t1) < 1e-35
        assert _base_counts("HH") == {"q2": 4, "qt2": 4}


@pytest.mark.parametrize("seeds", [range(0, 10), range(10, 20)])
def test_real_line_targets_equal_the_mpc_ones(seeds):
    # at a real u-v the targets run in mpf; each step rounds as its mpc one,
    # so every trig and rational value here equals the all-mpc reference bit
    # for bit.  mpc division rounds through 10 more bits than mpf's, so
    # elsewhere one can differ by an ulp (12 of 10 880 trig values at seeds
    # 60-399).  Off the line the targets, and limit_check, refuse u-v
    for seed in seeds:
        for smp in sample_limit_inputs(seed, 4):
            s, eta, hbar = smp["u_minus_v"], smp["eta"], smp["hbar"]
            for name in LIMIT_NAMES:
                got = trig_structure_function(name, s, eta=eta, hbar=hbar)
                want = mpc_degenerate_structure_function(name, s, hbar, 1, 30, eta)
                assert isinstance(got, mp.mpc) and got == want and got.imag == 0
                assert (rational_structure_function(name, s, hbar)
                        == mpc_degenerate_structure_function(name, s, hbar, 1, 30))
    z = mp.mpc("0.41", "0.03")
    for check in (lambda: trig_structure_function("HH", z, eta=0.3, hbar=0.12),
                  lambda: rational_structure_function("HH", 0.41 + 0.03j, 0.12),
                  lambda: limit_check("HH", z, eta=0.3, hbar=0.12)):
        with pytest.raises(DomainError, match="real u - v"):
            check()
    assert trig_structure_function("HH", mp.mpc("0.41"), eta=0.3, hbar=0.12) == (
        trig_structure_function("HH", 0.41, eta=0.3, hbar=0.12))


# ---------------------------------------------------------------------------
# rational structure functions


def test_rational_ee_values():
    with mp.workdps(45):
        assert abs(rational_structure_function("EE", 0.41, 0) + 1) < 1e-30
        # -(s+2h)(s-h)/((s-2h)(s+h)) at s=0.7, h=0.2 is -55/27
        v = rational_structure_function("EE", "0.7", "0.2")
        assert abs(v + mp.mpf(55) / 27) < 1e-30


def test_rational_ff_mirrors_ee():
    # factor lists: FF num shifts are the negated EE num shifts, so the
    # product of the two rationals is exactly 1
    ee = _rel("EE").structure_function
    ff = _rel("FF").structure_function
    ee_num = sorted(tf.p_shift for tf in ee.factors if tf.power == 1)
    ff_num = sorted(tf.p_shift for tf in ff.factors if tf.power == 1)
    assert ee_num == sorted(-s for s in ff_num)
    prod = rational_structure_function("EE", 0.37, 0.11) * rational_structure_function(
        "FF", 0.37, 0.11
    )
    assert abs(prod - 1) < 1e-30


def test_trig_to_rational_quadratic_in_eta():
    # sin-ratio -> affine ratio with error K*eta^2, K stable over the ladder
    target = rational_structure_function("EE", 0.7, 0.2)
    errs = []
    for eta in (0.1, 0.05, 0.025):
        t = trig_structure_function("EE", 0.7, eta=eta, hbar=0.2)
        errs.append(abs(t - target))
    for e0, e1 in zip(errs, errs[1:]):
        ratio = e0 / e1
        assert 3.5 < ratio < 4.5
    ks = [e / mp.mpf(eta) ** 2 for e, eta in zip(errs, (0.1, 0.05, 0.025))]
    assert max(ks) / min(ks) < mp.mpf("1.01")


# ---------------------------------------------------------------------------
# the elliptic -> trig limit


def test_limit_check_all_names_converge():
    for name in LIMIT_NAMES:
        rep = limit_check(name, 0.4, eta=0.25, hbar=0.12, c=1)
        assert rep["verdict"] == "pass", (name, rep["errors"])
        assert rep["monotone"]
        assert all(0.8 <= o <= 1.3 for o in rep["empirical_orders"]), (
            name,
            rep["empirical_orders"],
        )


def test_limit_check_negative_control():
    rep = limit_check("EE", 0.4, eta=0.25, hbar=0.12, c=1, target_name="FF")
    assert rep["verdict"] == "fail"
    assert not rep["monotone"] or min(rep["empirical_orders"]) < 0.8


def test_limit_check_catches_wrong_eta_prime(monkeypatch):
    # the elliptic side takes its nomes from the deformation's theta bases,
    # so a wrong eta' moves only the sine target and must fail there
    monkeypatch.setattr(degeneration, "eta_prime", lambda eta, hbar, c: mp.mpf(eta))
    failing = {name for name in LIMIT_NAMES
               if limit_check(name, 0.4, eta=0.25, hbar=0.12, c=1)["verdict"] == "fail"}
    assert failing == {"H+F", "H-F", "HH", "H+H-", "FF"}


def test_limit_check_level_zero_identification():
    a = limit_check("H+H-", 0.4, eta=0.25, hbar=0.12, c=0)
    b = limit_check("HH", 0.4, eta=0.25, hbar=0.12, c=0)
    assert a["errors"] == b["errors"]
    assert a["exact"] and b["exact"]
    assert a["verdict"] == "pass" and b["verdict"] == "pass"
    ta = trig_structure_function("H+H-", 0.4, eta=0.25, hbar=0.12, c=0)
    tb = trig_structure_function("HH", 0.4, eta=0.25, hbar=0.12, c=0)
    assert abs(ta - tb) < 1e-35


def test_limit_check_report_shape():
    rep = limit_check("H+E", 0.4, eta=0.25, hbar=0.12, c=1)
    assert rep["check"] == "scaling-limit"
    assert rep["epsilons"] == list(EPSILON_LADDER)
    assert len(rep["errors"]) == len(EPSILON_LADDER)
    assert len(rep["empirical_orders"]) == len(EPSILON_LADDER) - 1
    assert "nome_convention" in rep
    assert len(rep["prefactor_log"]["ratios"]) == len(EPSILON_LADDER)


# ---------------------------------------------------------------------------
# one elliptic side shared by a sample's consecutive checks


SHARED_SAMPLES = [dict(u_minus_v=0.4, eta=0.25, hbar=0.12)] + sample_limit_inputs(0, 3)
MEMO = degeneration._elliptic_points


def _own(name, **inputs):
    # the report from a cleared memo: an elliptic side built for this call
    MEMO.cache_clear()
    return limit_check(name, **inputs)


@pytest.mark.parametrize("order", [1, -1], ids=["catalog", "reversed"])
def test_shared_sample_equals_own(order):
    # the shared elliptic side gives every report to the bit, whichever
    # relation fills its entries first
    for s in SHARED_SAMPLES:
        own = {name: _own(name, **s) for name in LIMIT_NAMES}
        MEMO.cache_clear()
        for name in LIMIT_NAMES[::order]:
            assert limit_check(name, **s) == own[name], (s, name)
        assert MEMO.cache_info().misses == 1


def test_shared_sample_values_equal_per_factor_thetas():
    # the composed values against the product of each factor's own
    # one_factor_theta at x on the limit nomes, at both levels; real, as x
    # and the nomes are
    digits = 60
    for c in (1, 0):
        points = MEMO(0.4, 0.25, 0.12, c, digits)
        for name in LIMIT_NAMES:
            f = _rel(name).structure_function
            with mp.workdps(digits + 10):
                values = [point.value(f) for point in points]
                for eps, got in zip(map(mp.mpf, EPSILON_LADDER), values):
                    p = mp.e ** (eps * mp.mpf(0.12))
                    x = mp.e ** (-eps * mp.mpf(0.4))
                    bases = {k: 1 / mp.sqrt(mp.sqrt(b)) for k, b in theta_bases(
                        mp.exp(eps / mp.mpf(0.25)), p, c).items()}
                    want = mp.mpc(f.sign) * p ** f.p_exp
                    for tf in f.factors:
                        t = one_factor_theta(theta_argument(tf, x, p, c),
                                               bases[tf.base], digits)
                        want = want * t if tf.power == 1 else want / t
                    assert abs(got - want) < mp.mpf("1e-50") * abs(want), (c, name)
                    assert got.imag == 0


@pytest.mark.parametrize("names", [("H+H-", "HH"), ("HH", "H+H-")])
def test_shared_sample_level_zero_pair(names):
    inputs = dict(u_minus_v=0.4, eta=0.25, hbar=0.12, c=0)
    own = [_own(name, **inputs) for name in names]
    MEMO.cache_clear()
    reps = [limit_check(name, **inputs) for name in names]
    assert reps == own
    assert reps[0]["errors"] == reps[1]["errors"]
    assert reps[0]["exact"] and reps[1]["exact"]


def test_shared_sample_steps_each_nome_and_factor_once(monkeypatch):
    nomes, phases, factors = [], [], []
    real_nome, real_factor = theta._real_nome, theta._real_factor
    expj_fixed = theta._expj_fixed

    def counted_nome(q, wp):
        nomes.append(q)
        return real_nome(q, wp)

    def counted_expj(phi, wp):
        phases.append(phi)
        return expj_fixed(phi, wp)

    def counted_factor(w, nome, wp):
        factors.append((w, nome[0]))  # nome[0] is t
        return real_factor(w, nome, wp)

    MEMO.cache_clear()
    monkeypatch.setattr(theta, "_real_nome", counted_nome)
    monkeypatch.setattr(theta, "_expj_fixed", counted_expj)
    monkeypatch.setattr(theta, "_real_factor", counted_factor)
    s = SHARED_SAMPLES[1]
    for name in LIMIT_NAMES:
        limit_check(name, **s)
    # 2 nomes at each of the 4 eps, each with one X = e^(i log x / (2 t)),
    # told from P = e^(i log p / (4 t)) by its phase at x = e^(-eps(u-v));
    # the 8 relations have 24 distinct factors at each eps (12 shifts on
    # each base)
    with mp.workdps(40):
        logs = [-mp.mpf(eps) * s["u_minus_v"] for eps in EPSILON_LADDER]
        xs = [phi for phi in phases if any(abs(phi - l / (2 * t)) < 1e-30
                                           for l in logs for _, t in factors)]
    assert len(nomes) == 2 * len(EPSILON_LADDER) == len(set(nomes))
    assert len(xs) == 2 * len(EPSILON_LADDER) == len(set(xs))
    assert len(factors) == 24 * len(EPSILON_LADDER) == len(set(factors))


@pytest.mark.parametrize("field,value", [
    ("u_minus_v", 0.41), ("eta", 0.26), ("hbar", 0.13), ("c", 0), ("digits", 40)])
def test_shared_sample_rebuilt_for_other_inputs(field, value):
    # the memo keeps the last inputs' side only: a check at the same inputs
    # takes it, and one that changes any input builds its own, whose report
    # is the cleared memo's
    inputs = dict(u_minus_v=0.4, eta=0.25, hbar=0.12, c=1, digits=30)
    other = {**inputs, field: value}
    want = _own("EE", **other)
    MEMO.cache_clear()
    limit_check("EE", **inputs)
    limit_check("HH", **inputs)
    assert limit_check("EE", **other) == want
    info = MEMO.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


def test_shared_sample_pole_carries_first_factor():
    # u - v = hbar puts x p at the zero 1 of every theta: EE's second factor
    # (numerator, p-shift 1) and the third of H+H- (denominator, p-shift
    # 2 - c), which the shared sample meets under one entry.  The elliptic
    # side is evaluated before the EE target, whose numerator sine vanishes
    # there too, so each carries its elliptic factor
    ee = _rel("EE").structure_function.factors[1]
    hh = _rel("H+H-").structure_function.factors[2]
    cases = [("EE", None, ee), ("H+H-", "EE", hh)]
    inputs = dict(u_minus_v=0.12, eta=0.25, hbar=0.12)
    for order in (cases, cases[::-1]):
        own = []
        for name, target, factor in order:
            with pytest.raises(PoleError, match="structure function pole") as exc:
                _own(name, target_name=target, **inputs)
            own.append(exc.value.factor)
        MEMO.cache_clear()
        for (name, target, factor), own_factor in zip(order, own):
            with pytest.raises(PoleError, match="structure function pole") as got:
                limit_check(name, target_name=target, **inputs)
            assert got.value.factor == own_factor == factor


def test_vanishing_target_raises_pole_error():
    # at u - v = hbar EE's numerator sine, p-shift 1, is 0: a check whose
    # elliptic side is regular there (H+E) meets it in its EE target, and
    # the sine and rational structure functions raise where they vanish,
    # not only at a pole
    ee = _rel("EE").structure_function.factors[1]
    assert (ee.p_shift, ee.power) == (1, 1)
    with pytest.raises(PoleError, match="sine pole or zero") as exc:
        limit_check("H+E", 0.12, eta=0.25, hbar=0.12, target_name="EE")
    assert exc.value.factor == ee
    with pytest.raises(PoleError, match="sine pole or zero") as exc:
        trig_structure_function("EE", 0.12, eta=0.25, hbar=0.12)
    assert exc.value.factor == ee
    with pytest.raises(PoleError, match="rational pole or zero") as exc:
        rational_structure_function("EE", 0.12, 0.12)
    assert exc.value.factor == ee


def test_sample_limit_inputs_deterministic_and_guarded():
    a = sample_limit_inputs(11, 5)
    b = sample_limit_inputs(11, 5)
    assert a == b
    assert len(a) == 5
    shifts = set()
    for name in LIMIT_NAMES:
        for tf in _rel(name).structure_function.factors:
            shifts.add(float(theta_shift(tf, 1)))
    for sample in a:
        gap = min(abs(sample["u_minus_v"] - sh * sample["hbar"]) for sh in shifts)
        assert gap >= 0.04


def test_display_audit_covers_catalog():
    assert set(TRIG_DISPLAY_AUDIT) == set(LIMIT_NAMES) | {"EF"}
    assert TRIG_DISPLAY_AUDIT["H+F"] == "reciprocal"
    assert TRIG_DISPLAY_AUDIT["EE"] == "matches"
