"""Exchange-relation catalog and the level-1 kernel verification."""

import functools
import random
from fractions import Fraction as Fr

import mpmath as mp
import pytest

from ospboson import relations, theta
from ospboson.errors import DomainError, PoleError, StructuralError
from ospboson.freefield import DeformationParams, Kernel
from ospboson.relations import (
    DISPLAY_AUDIT,
    RelationSpec,
    StructureFunction,
    ThetaFactor,
    relation_catalog,
    structure_function_repr,
    theta_bases,
    verify_ef,
    verify_exchange,
    verify_invertibility,
)
from ospboson.scalars import fixed_to_str, sample_annulus_point, sample_parameters, to_mpf
from ospboson.theta import _GUARD_BITS, StructureFunctionPoint, _from_fixed
from reference import (
    EE_MIXED,
    FF_MIXED,
    _to_fixed,
    annulus_point,
    direct_structure_function,
    exchange_residuals,
    mpc_to_str,
    one_factor_theta,
    structure_function_value,
    swapped_relation,
    theta_argument,
    theta_eval,
    theta_shift,
)

P = DeformationParams.from_sqrt(Fr(2, 5), Fr(1, 2))  # q = 2/5, p = 1/4
DIGITS = 50


def by_id(rels):
    return {r.rel_id: r for r in rels}


def test_catalog_completeness():
    for mode in ("canonical", "strict-text"):
        rels = relation_catalog(mode=mode)
        assert len(rels) == 10
        ids = [r.rel_id for r in rels]
        assert len(set(ids)) == 10
        kinds = [r.kind for r in rels]
        assert kinds.count("exchange") == 8
        assert kinds.count("anticommutator-delta") == 1
        assert kinds.count("invertibility") == 1
        # each unordered current pair governed by exactly one schema
        pairs = sorted(tuple(sorted(r.left)) for r in rels if r.kind == "exchange")
        assert pairs == sorted([
            ("E", "H+"), ("E", "H-"), ("F", "H+"), ("F", "H-"),
            ("H+", "H+"), ("H+", "H-"), ("E", "E"), ("F", "F")])


def test_catalog_invalid_mode():
    with pytest.raises(StructuralError):
        relation_catalog(mode="loose")


@pytest.mark.parametrize("field", ["p_shift", "c_shift"])
@pytest.mark.parametrize("value", [0.1, 0.5, mp.mpf("0.5"), "1/3", Fr(1, 3), 1j])
def test_theta_factor_refuses_inexact_or_non_half_integer_shifts(field, value):
    # a float or mpf would be taken at its binary value, and a shift that is
    # not a half-integer has no integer k = 2 s; both are refused when the
    # factor is built, before any evaluator or limit reads it
    shifts = {"p_shift": 1, "c_shift": 0, field: value}
    with pytest.raises(StructuralError, match="must be a half-integer"):
        ThetaFactor("q2", 1, shifts["p_shift"], shifts["c_shift"], 1)


def test_theta_factor_keeps_doubled_shifts_as_ints():
    tf = ThetaFactor("qt2", -1, "-3/2", Fr(1, 2), 1)
    assert (tf.p_shift, tf.c_shift) == (Fr(-3, 2), Fr(1, 2))
    assert (tf.k0, tf.k1) == (-3, 1) and type(tf.k0) is type(tf.k1) is int
    assert tf == ThetaFactor("qt2", -1, Fr(-3, 2), "1/2", 1)


def test_factor_counts_balanced():
    for r in relation_catalog():
        if r.kind != "exchange":
            continue
        sf = r.structure_function
        num = [f for f in sf.factors if f.power == 1]
        assert len(num) * 2 == len(sf.factors)
        assert len(sf.factors) in (4, 8)


def test_ee_golden_value():
    # frozen from two independent runs at 50 and 70 digits; held by direct
    # products at the complex point
    rels = by_id(relation_catalog())
    with mp.workdps(60):
        q, p = mp.mpf("0.4"), mp.mpf("0.5")
        v = direct_structure_function(
            rels["EE"].structure_function, mp.mpc("0.3", "0.1"),
            p, 1, theta_bases(q, p, 1), DIGITS)
        ref = mp.mpc(
            "0.16442895360523056265674157896994931355611473",
            "0.0389497870798544890175764540518703755133117765")
        assert abs(v - ref) < mp.mpf(10) ** -40


STRUCTURE_FUNCTIONS = [
    pytest.param(r.structure_function, id="%s-%s" % (r.rel_id, mode))
    for mode in ("canonical", "strict-text") for r in relation_catalog(mode=mode)
    if r.kind == "exchange"] + [
    pytest.param(EE_MIXED, id="EE-mixed"), pytest.param(FF_MIXED, id="FF-mixed")]


def _per_factor_value(f, x, p, c, bases, digits):
    # the structure function as a product of single one_factor_theta calls
    acc = mp.mpc(f.sign) * p ** f.p_exp
    for tf in f.factors:
        v = one_factor_theta(theta_argument(tf, x, p, c), bases[tf.base], digits)
        acc = acc * v if tf.power == 1 else acc / v
    return acc


@pytest.mark.parametrize("f", STRUCTURE_FUNCTIONS)
def test_structure_function_equals_per_factor_thetas(f):
    # the whole-function evaluation (one per-nome step per base, one exp)
    # against the product of its factors' thetas, real as x is: at the
    # moduli of annulus points on the relations nomes q^2, (q p)^2 at
    # q = 2/5, p = 1/4, and at x near 1 on limits-like nomes 0.78 and 0.98
    # with p > 1
    rng = random.Random("structure-vs-thetas")
    with mp.workdps(DIGITS + 10):
        q, p = mp.mpf(2) / 5, mp.mpf(1) / 4
        cases = [(abs(annulus_point(rng, DIGITS)), p, theta_bases(q, p, 1))
                 for _ in range(3)]
        limit_p = mp.e ** (mp.mpf("0.025") * mp.mpf("0.12"))
        for xr in ("0.97", "1.02"):
            cases.append((mp.mpf(xr), limit_p,
                          {"q2": mp.mpf("0.78"), "qt2": mp.mpf("0.98")}))
        for x, p, bases in cases:
            got = structure_function_value(f, x, p, 1, bases, DIGITS)
            ref = _per_factor_value(f, x, p, 1, bases, DIGITS)
            assert abs(got - ref) < mp.mpf("1e-55") * abs(ref)
            assert got.imag == 0


@pytest.mark.parametrize("c", [0, 1, 2])
@pytest.mark.parametrize("f", STRUCTURE_FUNCTIONS)
def test_integer_shifts_equal_the_fraction_shift_plan(f, c):
    # the transform takes each factor's k = k0 + k1 c in ints; its keys
    # (base, orient, k) and, per base, its integer sums S0..S4 of power
    # times 1, k, k^2, orient and orient k equal those of the plan from the
    # Fraction shifts s = p_shift + c_shift c, k = 2 s
    with mp.workdps(DIGITS + 10):
        p = mp.mpf(1) / 4
        point = StructureFunctionPoint(p, c, theta_bases(mp.mpf(2) / 5, p, c), mp.mpf("0.7"))
        got, got_sums = point._exponent(f)
    keys, sums = [], {}
    for tf in f.factors:
        k = 2 * theta_shift(tf, c)
        keys.append((tf.base, tf.orient, k))
        t = sums.setdefault(tf.base, [0] * 5)
        for i, v in enumerate((1, k, k * k, tf.orient, tf.orient * k)):
            t[i] += tf.power * v
    assert got == keys
    assert got_sums == sums
    assert all(type(n) is int for t in got_sums.values() for n in t)


def test_evaluator_refuses_a_non_integer_level():
    with pytest.raises(StructuralError, match="integer level"):
        StructureFunctionPoint(mp.mpf(1) / 4, Fr(1, 2), {}, mp.mpf("0.7"))


@functools.lru_cache(maxsize=None)
def _direct_theta(case, base, orient, shift):
    # theta_B(x^orient p^shift) at DIRECT_CASES[case] by direct products at
    # 70 digits (reference.theta_eval, which shares no code with the
    # evaluator), taken once for every structure function that has it
    c, x, p, bases = DIRECT_CASES[case]
    with mp.workdps(80):
        return theta_eval(x ** orient * p ** shift, bases[base], 70)


def _direct_value(f, case):
    c, x, p, bases = DIRECT_CASES[case]
    with mp.workdps(80):
        acc = mp.mpc(f.sign) * p ** f.p_exp
        for tf in f.factors:
            v = _direct_theta(case, tf.base, tf.orient, theta_shift(tf, c))
            acc = acc * v if tf.power == 1 else acc / v
        return acc


def _direct_cases():
    # (x, p, bases) rounded to the evaluation's 60 digits: real x from 0.1
    # to 1.9 on the nomes of (q, sqrt p) = (2/5, 1/2) and (3/4, 1/5) (the
    # largest q^2, 0.5625, and p = 1/25, where p^-3 = 15625), and the
    # limits' x = e^(-eps(u-v)) at p = e^(eps hbar) on the nomes
    # B = b^(-1/4) at eps = 0.1 and 0.025
    with mp.workdps(DIGITS + 10):
        for c in (0, 1):
            for q, r in ((mp.mpf(2) / 5, mp.mpf(1) / 2), (mp.mpf(3) / 4, mp.mpf(1) / 5)):
                p = r * r
                for x in ("0.1001", "0.8997", "0.3003", "1.8991"):
                    yield c, mp.mpf(x), p, theta_bases(q, p, c)
            for eps in (mp.mpf("0.1"), mp.mpf("0.025")):
                p = mp.e ** (eps * mp.mpf("0.13"))
                bases = theta_bases(mp.exp(eps / mp.mpf("0.27")), p, c)
                yield c, mp.e ** (-eps * mp.mpf("0.41")), p, {
                    k: 1 / mp.sqrt(mp.sqrt(b)) for k, b in bases.items()}


DIRECT_CASES = list(_direct_cases())


def test_direct_cases_reach_the_largest_shifts():
    # the canonical H+H- at c = 1 has the shifts -3 (on q^2) and 3 (on
    # qt^2), the extremes of k = 2 s in z' = X^orient P^k
    hphm = by_id(relation_catalog())["H+H-"].structure_function
    assert {2 * theta_shift(tf, 1) for tf in hphm.factors} >= {-6, 6}
    assert {c for c, *_ in DIRECT_CASES} == {0, 1}


@pytest.mark.parametrize("f", STRUCTURE_FUNCTIONS)
def test_structure_function_matches_direct_thetas(f):
    # the errors measured here are at most 1.0e-59
    for case, (c, x, p, bases) in enumerate(DIRECT_CASES):
        with mp.workdps(DIGITS + 10):
            got = structure_function_value(f, x, p, c, bases, DIGITS)
        ref = _direct_value(f, case)
        assert abs(got - ref) < mp.mpf("1e-52") * abs(ref), (c, x)


def test_structure_functions_collapse_at_p_one():
    # at p = 1 all theta arguments coincide pairwise, leaving the sign
    with mp.workdps(40):
        x = mp.mpc("0.3", "0.2")
        bases = theta_bases(mp.mpf("0.4"), mp.mpf(1), 1)
        for r in relation_catalog():
            if r.kind != "exchange":
                continue
            v = direct_structure_function(
                r.structure_function, x, mp.mpf(1), 1, bases, 30)
            assert abs(v - r.structure_function.sign) < mp.mpf(10) ** -25


def test_hphm_collapses_to_hh_at_c_zero():
    rels = by_id(relation_catalog())
    with mp.workdps(40):
        x = mp.mpc("0.43", "-0.21")
        q, p = mp.mpf("0.37"), mp.mpf("0.29")
        bases = theta_bases(q, p, 0)
        a = direct_structure_function(rels["H+H-"].structure_function, x, p, 0, bases, 30)
        b = direct_structure_function(rels["HH"].structure_function, x, p, 0, bases, 30)
        assert abs(a - b) < mp.mpf(10) ** -25


@pytest.mark.parametrize("mixed,rel_id", [(EE_MIXED, "EE"), (FF_MIXED, "FF")])
def test_mixed_orientation_displays_agree(mixed, rel_id):
    # the two printed forms are related by theta quasi-periodicity; checked
    # numerically rather than trusting either display
    import random
    rels = by_id(relation_catalog())
    rng = random.Random(("duality", rel_id).__repr__())
    with mp.workdps(50):
        q, p = mp.mpf("0.4"), mp.mpf("0.25")
        bases = theta_bases(q, p, 1)
        for _ in range(25):
            r = 0.15 + 0.7 * rng.random()
            x = r * mp.e ** (2j * mp.pi * rng.random())
            a = direct_structure_function(mixed, x, p, 1, bases, 40)
            b = direct_structure_function(
                rels[rel_id].structure_function, x, p, 1, bases, 40)
            assert abs(a - b) / abs(b) < mp.mpf(10) ** -30


def test_display_audit_hh_constant():
    # the printed mixed-orientation HH display is p^-1 times the canonical
    # structure function (quasi-periodicity of the two inverted factors)
    can = by_id(relation_catalog(mode="canonical"))
    strict = by_id(relation_catalog(mode="strict-text"))
    assert DISPLAY_AUDIT["HH"] == ("constant", -1)
    with mp.workdps(50):
        q, p = mp.mpf("0.4"), mp.mpf("0.25")
        bases = theta_bases(q, p, 1)
        for re_, im_ in (("0.31", "0.17"), ("-0.22", "0.41")):
            x = mp.mpc(re_, im_)
            a = direct_structure_function(strict["HH"].structure_function, x, p, 1, bases, 40)
            b = direct_structure_function(can["HH"].structure_function, x, p, 1, bases, 40)
            assert abs(a / b - p ** -1) < mp.mpf(10) ** -30


def test_display_audit_hphm_inequivalent():
    # the printed H+H- display differs from the canonical function by a
    # non-constant factor, so no prefactor convention can reconcile them
    can = by_id(relation_catalog(mode="canonical"))
    strict = by_id(relation_catalog(mode="strict-text"))
    assert DISPLAY_AUDIT["H+H-"] == "inequivalent"
    with mp.workdps(50):
        q, p = mp.mpf("0.4"), mp.mpf("0.25")
        bases = theta_bases(q, p, 1)
        ratios = []
        for re_, im_ in (("0.31", "0.17"), ("-0.22", "0.41")):
            x = mp.mpc(re_, im_)
            a = direct_structure_function(strict["H+H-"].structure_function, x, p, 1, bases, 40)
            b = direct_structure_function(can["H+H-"].structure_function, x, p, 1, bases, 40)
            ratios.append(a / b)
        assert abs(ratios[0] - ratios[1]) > mp.mpf(10) ** -6


def test_pole_error_carries_factor():
    rels = by_id(relation_catalog())
    with mp.workdps(40):
        q, p = mp.mpf("0.4"), mp.mpf("0.25")
        x = q * q / (p * p)  # zero of the denominator factor theta(x p^2)
        with pytest.raises(PoleError) as exc:
            structure_function_value(
                rels["EE"].structure_function, x, p, 1, theta_bases(q, p, 1), 30)
        assert exc.value.factor is not None


def test_pole_error_at_numerator_theta_zero():
    # a theta zero in the numerator is a pole of 1/S: the evaluator guards
    # every factor, not only the denominators
    rels = by_id(relation_catalog())
    with mp.workdps(40):
        q, p = mp.mpf("0.4"), mp.mpf("0.25")
        x = q * q * p * p  # zero of the numerator factor theta(x p^-2)
        with pytest.raises(PoleError) as exc:
            structure_function_value(
                rels["EE"].structure_function, x, p, 1, theta_bases(q, p, 1), 30)
        assert exc.value.factor == ThetaFactor("q2", 1, Fr(-2), Fr(0), 1)


# strict-text H-F at P: x = 8/25 puts the numerator argument x p^(5/2) on the
# zero (q p)^2 of its theta, and no kernel factor vanishes there; x = 1/2 is
# the zero of the left kernel's factor (1 - 2x)
SF_ZERO = mp.mpf(8) / 25
KERNEL_ZERO = mp.mpf(1) / 2


def _patched_sampler(monkeypatch, poles):
    """Make the sampler return the points in poles, then its own draws;
    the draws are kept with their precision, (x, wp)."""
    ordinary = []
    real = relations.sample_annulus_point

    def fake(rng, wp):
        if poles:
            return _to_fixed(mp.mpc(poles.pop(0)), wp)
        ordinary.append((real(rng, wp), wp))
        return ordinary[-1][0]
    monkeypatch.setattr(relations, "sample_annulus_point", fake)
    return ordinary


def test_sampler_redraws_on_poles(monkeypatch):
    rel = by_id(relation_catalog(mode="strict-text"))["H-F"]
    ordinary = _patched_sampler(monkeypatch, [SF_ZERO, KERNEL_ZERO])
    rep = verify_exchange(rel, P, samples=10, digits=30, seed=0)
    # the first ordinary draw is the first point, and no draw was lost
    with mp.workdps(40):
        assert rep["points"] == [mpc_to_str(_from_fixed(x, wp), 17) for x, wp in ordinary]


def test_sampler_points_match_separate_cos_and_sin():
    # the fixed-point draw at verify_exchange's precision is the mp draw
    # r cos(phi) + i r sin(phi), each taken on its own at digits, within
    # that draw's own rounding (16 units in its last place), and prints
    # the same 17 digits
    def separate(rng, digits):
        with mp.workdps(digits):
            u = rng.random()
            r = mp.sqrt(0.1 * 0.1 + u * (0.9 * 0.9 - 0.1 * 0.1))
            phi = mp.mpf(2) * mp.pi * rng.random()
            return mp.mpc(r * mp.cos(phi), r * mp.sin(phi))

    for seed in range(300):
        for digits in (30, 50):
            want = separate(random.Random(seed), digits)
            with mp.workdps(digits + 10):
                wp = mp.mp.prec + _GUARD_BITS
                got = _from_fixed(sample_annulus_point(random.Random(seed), wp), wp)
                ulp = mp.mpf(2) ** -mp.libmp.dps_to_prec(digits)
                assert abs(got - want) <= 16 * ulp * abs(want), (seed, digits)
                assert mpc_to_str(got, 17) == mpc_to_str(want, 17), (seed, digits)


@pytest.mark.parametrize("digits", [25, 60, 130, 310])
def test_fixed_to_str_prints_as_the_mpc_reference(digits):
    # the points verify_exchange prints, from the fixed-point pair, equal
    # the reference's print of the mpc the pair rounds to, at the working
    # digits of --digits 15, 50, 120 and 300: 2500 draws each, zero, one,
    # and -1 + 2^-wp i
    rng = random.Random(("fixed-to-str", digits).__repr__())
    with mp.workdps(digits):
        wp = mp.mp.prec + _GUARD_BITS
        xs = [sample_annulus_point(rng, wp) for _ in range(2500)]
        for x in xs + [(0, 0), (1 << wp, 0), (-(1 << wp), 1)]:
            assert fixed_to_str(x, wp, 17) == mpc_to_str(_from_fixed(x, wp), 17), x


def test_sampler_gives_up_after_ten_pole_draws(monkeypatch):
    rel = by_id(relation_catalog(mode="strict-text"))["H-F"]
    ordinary = _patched_sampler(monkeypatch, [SF_ZERO, KERNEL_ZERO] * 5)
    with pytest.raises(DomainError,
                       match="could not sample away from poles in 10 tries"):
        verify_exchange(rel, P, samples=10, digits=30, seed=0)
    assert ordinary == []


def test_structure_function_repr_readable():
    rels = by_id(relation_catalog())
    s = structure_function_repr(rels["H+E"].structure_function)
    assert "theta_q2" in s and "c" in s and "/" in s


EXCHANGE_IDS = ["EE", "FF", "H+E", "H-E", "H+F", "H-F", "HH", "H+H-"]
# P, then two corners of the sample_parameters window: (q, sqrt p) = (1/5, 1/5),
# where both nomes are smallest, and (3/4, 1/5), where q^2 is largest and p
# is smallest
CORNERS = [(Fr(1, 5), Fr(1, 5)), (Fr(3, 4), Fr(1, 5))]


@pytest.mark.parametrize("rel_id,params", [
    pytest.param(r, P, id=r) for r in EXCHANGE_IDS] + [
    pytest.param(r, DeformationParams.from_sqrt(q, s), id="%s-q%s-r%s" % (r, q, s))
    for q, s in CORNERS for r in EXCHANGE_IDS])
def test_exchange_relations_hold(rel_id, params):
    rels = by_id(relation_catalog())
    rep = verify_exchange(rels[rel_id], params, samples=8, digits=DIGITS, seed=3)
    assert rep["verdict"] == "pass", rep
    assert mp.mpf(rep["residual_max"]) <= mp.mpf(10) ** -56
    assert rep["fields_match"]


@pytest.mark.parametrize("mode,rel_id,seed,unit", [
    pytest.param("canonical", "EE", seed, True, id="control-seed%d" % seed)
    for seed in (0, 5)] + [
    pytest.param("strict-text", r, 5, False, id="strict-" + r)
    for r in ("H-E", "H+F", "H-F", "HH", "H+H-")])
def test_ratio_residuals_match_two_sided_reference(mode, rel_id, seed, unit):
    # where the residuals are O(1), not rounding noise, the one ratio's
    # points, residual_max and residual_mean are, as printed, those of the
    # two sides evaluated apart at the same draws
    rel = by_id(relation_catalog(mode=mode))[rel_id]
    rep = verify_exchange(rel, P, samples=10, digits=DIGITS, seed=seed,
                          unit_structure=unit)
    assert mp.mpf(rep["residual_max"]) > mp.mpf(10) ** -3
    assert (rep["points"], rep["residual_max"], rep["residual_mean"]) == (
        exchange_residuals(rel, P, 10, DIGITS, seed, unit_structure=unit))


def test_hh_schema_covers_hminus_pair():
    rels = by_id(relation_catalog())
    hh = rels["HH"]
    hmhm = type(hh)("HH", "exchange", ("H-", "H-"), ("H-", "H-"),
                    hh.structure_function, hh.mode, hh.notes)
    rep = verify_exchange(hmhm, P, samples=6, digits=DIGITS, seed=5)
    assert rep["verdict"] == "pass"


def test_negative_control_unit_structure():
    rels = by_id(relation_catalog())
    rep = verify_exchange(rels["EE"], P, samples=6, digits=DIGITS, seed=3,
                          unit_structure=True)
    assert rep["verdict"] == "fail"
    assert mp.mpf(rep["residual_max"]) > mp.mpf(10) ** -2


def test_strict_text_hf_fails_and_canonical_passes():
    # the printed H+-F displays carry p^(-+c/2) where the realization
    # kernels require p^(+-c/2); strict-text mode preserves the print and
    # is expected to fail the kernel check
    strict = by_id(relation_catalog(mode="strict-text"))
    for rel_id in ("H+F", "H-F"):
        rep = verify_exchange(strict[rel_id], P, samples=6, digits=DIGITS, seed=3)
        assert rep["verdict"] == "fail"
        assert mp.mpf(rep["residual_max"]) > mp.mpf(10) ** -2


def test_strict_text_hme_records_field_mismatch():
    strict = by_id(relation_catalog(mode="strict-text"))
    rep = verify_exchange(strict["H-E"], P, samples=6, digits=DIGITS, seed=3)
    assert not rep["fields_match"]
    assert rep["verdict"] == "fail"
    assert "H+" in rep["notes"]


def test_verification_symmetry():
    # verifying (A,B) with S and (B,A) with 1/S(1/x) must agree
    rels = by_id(relation_catalog())
    for rel_id in ("EE", "H+E", "H+H-"):
        fwd = verify_exchange(rels[rel_id], P, samples=5, digits=DIGITS, seed=9)
        bwd = verify_exchange(swapped_relation(rels[rel_id]), P, samples=5,
                              digits=DIGITS, seed=9)
        assert fwd["verdict"] == bwd["verdict"] == "pass"


def _kernels(rel, params):
    (a, b), (bp, ap) = ([relations.CURRENTS[n](params) for n in pair]
                        for pair in (rel.left, rel.right))
    return (relations.ope_kernel(a, b, params, order=2),
            relations.ope_kernel(bp, ap, params, order=2))


@pytest.mark.parametrize("rel_id", ["EE", "HH"])
def test_verify_exchange_runs_no_transform_step(monkeypatch, rel_id):
    # S's thetas are kernel factors at the exact point: the call takes none
    # of the Jacobi transform's per-nome or per-factor steps
    def refused(*args):
        raise AssertionError("transform step in verify_exchange")

    for name in ("_real_nome", "_real_factor"):
        monkeypatch.setattr(theta, name, refused)
    rep = verify_exchange(by_id(relation_catalog())[rel_id], P, samples=10,
                          digits=DIGITS, seed=0)
    assert rep["verdict"] == "pass" and len(rep["points"]) == 10


@pytest.mark.parametrize("rel_id", ["EE", "H+F", "HH"])
def test_verify_exchange_prepares_the_kernel_bases_once(monkeypatch, rel_id):
    # one product takes both kernels and S's split thetas, whose bases q^2
    # and (q p)^2 are kernel bases: one Euler table per distinct kernel base
    calls = []
    euler_base = theta._euler_base

    def counted(b, wp):
        calls.append(b)
        return euler_base(b, wp)

    monkeypatch.setattr(theta, "_euler_base", counted)
    rel = by_id(relation_catalog())[rel_id]
    rep = verify_exchange(rel, P, samples=10, digits=DIGITS, seed=0)
    assert rep["verdict"] == "pass"
    kernel_bases = {f.b for K in _kernels(rel, P) for f in K.factors}
    assert sorted(calls) == sorted(kernel_bases)


@pytest.mark.parametrize("f", STRUCTURE_FUNCTIONS)
def test_split_thetas_equal_the_transform(f):
    # S from its thetas split into kernel factors, as the exchange ratio
    # over unit kernels (R = 1/S), at three sampled points: against direct
    # products at four annulus values of x, and against the Jacobi
    # transform at their moduli
    unit = Kernel(P, 2, 1, 0, 0, (), ())
    rng = random.Random("split-vs-transform")
    for q, p, r in sample_parameters(7, count=3):
        params = DeformationParams(q, p, r)
        with mp.workdps(DIGITS + 10):
            wp, ratio = relations._exchange_ratio(unit, unit, f, params)
            pm = to_mpf(p)
            bases = theta_bases(q, pm, 1)
            for xf in (sample_annulus_point(rng, wp) for _ in range(4)):
                x = _from_fixed(xf, wp)
                for x, evaluate in ((x, direct_structure_function),
                                    (abs(x), structure_function_value)):
                    n, d = ratio(_to_fixed(mp.mpc(x), wp))
                    got = mp.mpc(*d) / mp.mpc(*n)
                    ref = evaluate(f, x, pm, 1, bases, DIGITS)
                    assert abs(got - ref) < mp.mpf("1e-55") * abs(ref), (q, p, x)


def test_structure_function_balances_each_base():
    # (B | B) cancels from the split thetas only base by base, so two q^2
    # numerators over two (q p)^2 denominators are refused
    with pytest.raises(StructuralError, match="differ on base q2"):
        StructureFunction(1, 0, (
            ThetaFactor("q2", 1, 0, 0, 1), ThetaFactor("q2", 1, 1, 0, 1),
            ThetaFactor("qt2", 1, 0, 0, -1), ThetaFactor("qt2", 1, 1, 0, -1)))


def test_exchange_without_sqrt_p():
    # EE and FF shift by whole powers of p (even k), so a point without
    # sqrt_p verifies them; an odd k needs sqrt_p
    point = DeformationParams(Fr(2, 5), Fr(1, 4))
    rels = by_id(relation_catalog())
    for rel_id in ("EE", "FF"):
        rep = verify_exchange(rels[rel_id], point, samples=6, digits=DIGITS, seed=3)
        assert rep["verdict"] == "pass", rep
    odd = StructureFunction(1, 0, (ThetaFactor("q2", 1, "1/2", 0, 1),
                                   ThetaFactor("q2", 1, "-1/2", 0, -1)))
    rel = RelationSpec("EE", "exchange", ("E", "E"), ("E", "E"), odd)
    with pytest.raises(StructuralError, match="sqrt_p"):
        verify_exchange(rel, point, samples=2, digits=DIGITS)


def _recorded_products(monkeypatch):
    """Make relations build recording products: each appends its lists, as
    _exchange_ratio passes them, and itself to the returned list."""
    products = []

    class Recorded(theta.QPochProduct):
        def __init__(self, factors, inverse=()):
            super().__init__(factors, inverse)
            products.append((factors, inverse, self))

    monkeypatch.setattr(relations, "QPochProduct", Recorded)
    return products


def _divisors(factors, inverse):
    # the real zeros and poles 0.1 < |z| < 0.9 of (c x | b) at x, x = b^-n / c,
    # and of (c / x | b) at 1/x, x = c b^n
    out = set()
    for fs, step in ((factors, lambda f, n: 1 / (f.b ** n * f.c)),
                     (inverse, lambda f, n: f.c * f.b ** n)):
        for f in fs:
            for n in range(1 if f.b == 0 else 60):
                z = step(f, n)
                if Fr(1, 10) < abs(z) < Fr(9, 10):
                    out.add(z)
    return sorted(out)


@pytest.mark.parametrize("seed", [0, 5])
def test_exchange_residual_near_divisors(monkeypatch, seed):
    # at points off every zero and pole of the one product's factors, the
    # kernels' and the split thetas', by 1e-5 to 1e-3 relatively, the
    # residual of each canonical relation stays at the working precision;
    # taken from integer squares, it is the quotient of the pair's mpc
    # absolute values within a few ulps there, and exactly 0 where N == D
    products = _recorded_products(monkeypatch)
    params = DeformationParams(*sample_parameters(seed, 1)[0])
    checked = 0
    for rel in relation_catalog():
        if rel.kind != "exchange":
            continue
        K1, K2 = _kernels(rel, params)
        with mp.workdps(DIGITS + 10):
            ulp = mp.mpf(2) ** -mp.mp.prec
            wp, ratio = relations._exchange_ratio(K1, K2, rel.structure_function, params)
            for z in _divisors(*products[-1][:2]):
                for delta in ("1e-4", "-1e-4", "1e-5", "1e-3"):
                    x = mp.mpc(to_mpf(z) * (1 + mp.mpf(delta)))
                    try:
                        (nr, ni), (dr, di) = ratio(_to_fixed(x, wp))
                    except PoleError:
                        continue
                    checked += 1
                    residual = relations._residual(((nr, ni), (dr, di)))
                    assert residual <= mp.mpf(10) ** (5 - DIGITS), (rel.rel_id, z, delta)
                    want = (abs(mp.mpc(nr - dr, ni - di))
                            / max(abs(mp.mpc(nr, ni)), abs(mp.mpc(dr, di))))
                    assert abs(residual - want) <= 4 * ulp * want, (rel.rel_id, z, delta)
                    assert relations._residual(((nr, ni), (nr, ni))) == 0
    assert checked > 100


def _ratio_lists(monkeypatch, params):
    """{rel_id: (factors, inverse, product)} of each canonical exchange
    relation's one product at params."""
    products = _recorded_products(monkeypatch)
    out = {}
    for rel in relation_catalog():
        if rel.kind == "exchange":
            with mp.workdps(DIGITS + 10):
                relations._exchange_ratio(*_kernels(rel, params),
                                          rel.structure_function, params)
            out[rel.rel_id] = products[-1]
    return out


def test_reduction_cancels_kernel_factors_against_split_thetas(monkeypatch):
    # at CLI seed 0, 80 of the 248 factors of the 8 canonical ratios are a
    # kernel factor and the same split-theta factor at one point, of
    # opposite powers: the prepared product keeps net powers summing to 168,
    # while _exchange_ratio's lists stay whole
    lists = _ratio_lists(monkeypatch, DeformationParams(*sample_parameters(0, 1)[0]))
    whole = {r: (len(fs), len(inv)) for r, (fs, inv, _) in lists.items()}
    reduced = {r: tuple(sum(entry[2] for entry in side) for side in product._lists)
               for r, (_, _, product) in lists.items()}
    assert whole == {"H+E": (13, 13), "H-E": (13, 13), "H+F": (13, 13), "H-F": (13, 13),
                     "HH": (26, 26), "H+H-": (26, 26), "EE": (10, 10), "FF": (10, 10)}
    assert reduced == {"H+E": (9, 9), "H-E": (9, 9), "H+F": (9, 9), "H-F": (9, 9),
                       "HH": (18, 18), "H+H-": (18, 18), "EE": (6, 6), "FF": (6, 6)}
    assert sum(map(sum, whole.values())) == 248 and sum(map(sum, reduced.values())) == 168


def test_net_power_two_sums_its_series_once(monkeypatch):
    # a (c, b) of net power +-2 is one entry with its count, summed once: at
    # CLI seed 0 HH nets 17 distinct (c, b) a side and H+H- 15, so a sample
    # point sums 160 series for the 168 net powers
    params = DeformationParams(*sample_parameters(0, 1)[0])
    lists = _ratio_lists(monkeypatch, params)
    entries = {r: tuple(map(len, product._lists)) for r, (_, _, product) in lists.items()}
    assert entries == {"H+E": (9, 9), "H-E": (9, 9), "H+F": (9, 9), "H-F": (9, 9),
                       "HH": (17, 17), "H+H-": (15, 15), "EE": (6, 6), "FF": (6, 6)}
    calls = []
    real_series = theta._real_series
    monkeypatch.setattr(theta, "_real_series",
                        lambda *args: calls.append(1) or real_series(*args))
    with mp.workdps(DIGITS + 10):
        for rel in relation_catalog():
            if rel.kind == "exchange":
                wp, ratio = relations._exchange_ratio(*_kernels(rel, params),
                                                      rel.structure_function, params)
                ratio(_to_fixed(mp.mpc("0.61", "0.23"), wp))
    assert len(calls) == 160


@pytest.mark.parametrize("params", [
    pytest.param(DeformationParams(*sample_parameters(seed, 1)[0]), id="seed%d" % seed)
    for seed in (0, 5)] + [
    pytest.param(DeformationParams.from_sqrt(*CORNERS[0]), id="q1/5-r1/5")])
def test_reduced_product_equals_the_whole_lists(monkeypatch, params):
    # each ratio's reduced product against one prepared from the same lists
    # unreduced, at annulus points: within QPochProduct's error budget, each
    # factor within 2^(34 - wp) relatively, over both products' factors.  At
    # the corner q^2 = p, so some (c, b) there meets both powers and keeps a
    # net one
    lists = _ratio_lists(monkeypatch, params)
    rng = random.Random(("reduced-vs-whole", params.q, params.p).__repr__())
    checked = 0
    for rel_id, (factors, inverse, reduced) in lists.items():
        with mp.workdps(DIGITS + 10):
            with monkeypatch.context() as m:
                m.setattr(theta, "_net_factors", lambda fs: [(f, 1) for f in fs])
                whole = theta.QPochProduct(factors, inverse)
            wp = whole.wp
            bound = 2 * (len(factors) + len(inverse)) * mp.mpf(2) ** (34 - wp)
            for _ in range(5):
                x = sample_annulus_point(rng, wp)
                values = []
                for product in (reduced, whole):
                    acc = {1: (1 << wp, 0), -1: (1 << wp, 0)}
                    try:
                        product.multiply(acc, x)
                    except PoleError:
                        break
                    with mp.workprec(2 * wp):  # above both products' budgets
                        values.append(mp.mpc(*acc[1]) / mp.mpc(*acc[-1]))
                else:
                    checked += 1
                    got, want = values
                    with mp.workprec(2 * wp):
                        assert abs(got - want) <= bound * abs(want), (rel_id, x)
    assert checked >= 35


def test_reduction_keyed_on_c_alone_fails_a_relation(monkeypatch):
    # the mutant nets factors by c alone, so (c x | b) cancels or squares
    # with (c x | b') on another base; the canonical relations catch it
    def by_c(factors):
        net = {}
        for f in factors:
            entry = net.setdefault(f.c, [0, {}])
            entry[0] += f.power
            entry[1].setdefault(f.power, f)
        return [(first[1 if n > 0 else -1], abs(n)) for n, first in net.values() if n]

    monkeypatch.setattr(theta, "_net_factors", by_c)
    params = DeformationParams(*sample_parameters(0, 1)[0])
    verdicts = [verify_exchange(rel, params, samples=10, digits=DIGITS, seed=0)["verdict"]
                for rel in relation_catalog() if rel.kind == "exchange"]
    assert "fail" in verdicts


@pytest.mark.parametrize("seed", [0, 5])
def test_cancellation_keeps_the_unit_series_mutant_killed(monkeypatch, seed):
    # with every Euler series summed as 1, H-E, H-F, EE and FF each fail on
    # their own, as before the kernel factors and split thetas cancelled:
    # a cancelled pair divides out under any evaluator, so it carried no
    # evidence against this one
    monkeypatch.setattr(theta, "_real_series", lambda coeffs, yr, yi, s, wp: (1 << wp, 0))
    params = DeformationParams(*sample_parameters(seed, 1)[0])
    rels = by_id(relation_catalog())
    for rel_id in ("H-E", "H-F", "EE", "FF"):
        rep = verify_exchange(rels[rel_id], params, samples=10, digits=DIGITS, seed=seed)
        assert rep["verdict"] == "fail", rel_id


def test_residual_keeps_digits_below_the_fixed_point_step():
    # N - D = 1 + i on D = 2^wp: the residual sqrt(2) / |N| is about 1e-79,
    # near 2^-wp, and keeps 12 significant digits, which a quotient taken
    # in fixed point at 2^-wp would round off
    with mp.workdps(DIGITS + 10):
        wp = mp.mp.prec + _GUARD_BITS
        got = relations._residual((((1 << wp) + 1, 1), (1 << wp, 0)))
    with mp.workdps(100):
        want = mp.sqrt(2) / mp.sqrt(mp.mpf((1 << wp) + 1) ** 2 + 1)
        assert mp.mpf("1e-80") < want < mp.mpf("1e-78")
        assert abs(got - want) <= mp.mpf("1e-12") * want


def test_residuals_shrink_with_precision():
    rels = by_id(relation_catalog())
    r50 = verify_exchange(rels["EE"], P, samples=5, digits=50, seed=11)
    r80 = verify_exchange(rels["EE"], P, samples=5, digits=80,
                          tolerance=mp.mpf(10) ** -40, seed=11)
    assert mp.mpf(r80["residual_max"]) < mp.mpf(r50["residual_max"])


def test_tolerance_floor_enforced():
    rels = by_id(relation_catalog())
    with pytest.raises(DomainError):
        verify_exchange(rels["EE"], P, samples=2, digits=20,
                        tolerance=mp.mpf(10) ** -20)


def test_verify_exchange_rejects_no_samples():
    rels = by_id(relation_catalog())
    with pytest.raises(DomainError, match="at least one sample"):
        verify_exchange(rels["EE"], P, samples=0, digits=30)


def test_ef_exact():
    for q, p, r in sample_parameters(13, count=3):
        rep = verify_ef(DeformationParams(q, p, r))
        assert rep["verdict"] == "pass", rep
        assert all(rep["checks"].values())
        assert rep["exact"]


def test_ef_coefficients_at_p_one_limit():
    # the displayed coefficient (p^(1/2)+p^(-1/2))^-1 tends to 1/2
    assert 1 / (Fr(1) + Fr(1)) == Fr(1, 2)
    r = Fr(99, 100)
    val = 1 / (r + 1 / r)
    assert abs(val - Fr(1, 2)) < Fr(1, 1000)


def test_invertibility_flag():
    rep = verify_invertibility(P)
    assert rep["verdict"] == "pass"
