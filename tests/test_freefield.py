"""Free boson layer: mode brackets, contractions, kernels, delta extraction."""

import random
from fractions import Fraction as Fr

import mpmath as mp
import pytest

from ospboson.errors import DomainError, PoleError, StructuralError, UnsupportedError
from ospboson.freefield import (
    DeformationParams,
    E_current,
    Kernel,
    F_current,
    build_H,
    compose_normal_ordered,
    contraction_series,
    delta_decompose,
    exp_contraction_closed,
    kernel_repr,
    mode_bracket,
    ope_kernel,
    rational_product,
)
from ospboson.scalars import sample_annulus_point, sample_parameters, to_mpf
from ospboson.relations import (
    CURRENTS, StructureFunction, _exchange_ratio, relation_catalog)
from ospboson.series import (
    QPochFactor, TruncatedSeries, closed_form_log, qpoch_log_series)
from ospboson.theta import QPochProduct, _from_fixed
from reference import _to_fixed, annulus_point, product_at

PARAMS = [DeformationParams(q, p, r) for q, p, r in sample_parameters(7, count=3)]


def test_mode_bracket_reference_value():
    # hand evaluation at q = 1/2, p = 1/3:
    # (-3/2) * (-35/6) * (7/3) = 245/12
    P = DeformationParams(Fr(1, 2), Fr(1, 3))
    assert mode_bracket(1, -1, P) == Fr(245, 12)


@pytest.mark.parametrize("inexact", [0.4, mp.mpf("0.4"), 0.4 + 0j],
                         ids=["float", "mpf", "complex"])
def test_deformation_params_refuse_inexact(inexact):
    # a float, mpf or complex q, p or sqrt_p would round to another point,
    # in either constructor; ints, Fractions and exact strings are kept as
    # the rationals they spell
    for args in ((inexact, Fr(1, 4)), (Fr(2, 5), inexact), (Fr(2, 5), Fr(1, 4), inexact)):
        with pytest.raises(StructuralError, match="must be exact rationals"):
            DeformationParams(*args)
    for args in ((inexact, Fr(1, 2)), (Fr(2, 5), inexact)):
        with pytest.raises(StructuralError, match="must be exact rationals"):
            DeformationParams.from_sqrt(*args)
    want = DeformationParams(Fr(2, 5), Fr(1, 4), Fr(1, 2))
    for got in (DeformationParams("2/5", "1/4", "1/2"),
                DeformationParams("0.4", "0.25", "0.5"),
                DeformationParams.from_sqrt("2/5", "1/2"),
                DeformationParams.from_sqrt(Fr(2, 5), Fr(1, 2))):
        assert got == want and type(got.q) is type(got.p) is type(got.sqrt_p) is Fr
    with pytest.raises(DomainError, match="0 < q < 1"):  # an int is exact
        DeformationParams(1, Fr(1, 4))


def test_mode_bracket_support_and_antisymmetry():
    P = PARAMS[0]
    for n in range(1, 6):
        assert mode_bracket(n, -n, P) == -mode_bracket(-n, n, P)
        assert mode_bracket(n, n, P) == 0
        assert mode_bracket(n, -n + 1, P) == 0
    assert mode_bracket(0, 0, P) == 0


def _textbook_bracket(n, q, p):
    qp = q * p
    return Fr(1, n) * (q ** n - q ** -n) * (qp ** n - qp ** -n) * (p ** n + p ** -n - 1)


BRACKET_POINTS = [
    DeformationParams(Fr(1, 2), Fr(1, 3)),                   # no sqrt_p
    DeformationParams(*sample_parameters(23700, 1)[0]),
    DeformationParams.from_sqrt(Fr(29, 60), Fr(19, 60)),
]


@pytest.mark.parametrize("P", BRACKET_POINTS, ids=["no-sqrt", "suite-all",
                                                   "exact-algebra"])
def test_mode_bracket_matches_textbook_powers(P):
    for n in list(range(1, 25)) + list(range(-24, 0)):
        got = mode_bracket(n, -n, P)
        assert type(got) is Fr
        assert got == _textbook_bracket(n, P.q, P.p), n


@pytest.mark.parametrize("P", BRACKET_POINTS, ids=["no-sqrt", "suite-all",
                                                   "exact-algebra"])
@pytest.mark.parametrize("kinds", [("phi", "phi"), ("phi", "psi"),
                                   ("psi", "phi"), ("psi", "psi")])
def test_contraction_series_matches_textbook_powers(P, kinds):
    base = {"phi": P.q, "psi": P.q * P.p}
    b1, b2 = base[kinds[0]], base[kinds[1]]
    jet = contraction_series(kinds[0], kinds[1], P, 24)
    assert jet.coeffs[0] == 0
    for n in range(1, 25):
        ref = _textbook_bracket(n, P.q, P.p) / (
            (b1 ** n - b1 ** -n) * (b2 ** -n - b2 ** n))
        assert type(jet.coeffs[n]) is Fr
        assert jet.coeffs[n] == ref, n


def test_contraction_first_coefficients():
    q, p = Fr(1, 2), Fr(1, 4)
    P = DeformationParams(q, p)
    qp = q * p
    core = p + 1 / p - 1
    phiphi = contraction_series("phi", "phi", P, 2)
    psipsi = contraction_series("psi", "psi", P, 2)
    phipsi = contraction_series("phi", "psi", P, 2)
    assert phiphi.coeffs[0] == 0
    assert phiphi.coeffs[1] == -(qp - 1 / qp) * core / (q - 1 / q)
    assert psipsi.coeffs[1] == -(q - 1 / q) * core / (qp - 1 / qp)
    assert phipsi.coeffs[1] == -core
    assert contraction_series("psi", "phi", P, 2).coeffs == phipsi.coeffs


@pytest.mark.parametrize("pair", [("phi", "phi"), ("psi", "psi"), ("phi", "psi")])
def test_closed_form_equals_series(pair):
    # exp of the contraction jet against the infinite-product jet of the
    # closed form, exact rational arithmetic, every sampled parameter point
    N = 16
    for P in PARAMS:
        jet = contraction_series(pair[0], pair[1], P, N).exp()
        acc = TruncatedSeries.one(N)
        for f in exp_contraction_closed(pair[0], pair[1], P):
            acc = acc * qpoch_log_series(f.c, f.b, N, f.power)
        assert acc.coeffs == jet.coeffs


KERNEL_PAIRS = {r.rel_id: r.left for r in relation_catalog()
                if r.kind != "invertibility"}


@pytest.mark.parametrize("rel_id", sorted(KERNEL_PAIRS))
def test_closed_form_series_is_product_of_factor_jets(rel_id):
    # one exp of the summed factor logs against the product of each factor's
    # own jet, on every catalog kernel (the H ones have 18 factors, with base
    # 0 and power -1 among them)
    P = PARAMS[0]
    a, b = KERNEL_PAIRS[rel_id]
    K = ope_kernel(CURRENTS[a](P), CURRENTS[b](P), P, order=16)
    ref = TruncatedSeries.one(16)
    for f in K.factors:
        ref = ref * qpoch_log_series(f.c, f.b, 16, f.power)
    assert closed_form_log(K.factors, 16).exp() == ref


def test_unknown_field_pair_rejected():
    with pytest.raises(StructuralError):
        exp_contraction_closed("phi", "chi", PARAMS[0])
    with pytest.raises(StructuralError):
        contraction_series("chi", "phi", PARAMS[0], 4)


def test_kernel_ee_shape():
    P = PARAMS[0]
    E = E_current()
    K = ope_kernel(E, E, P, order=10)
    assert (K.scalar, K.z_exp, K.w_exp) == (1, 1, 0)
    # the (x | q^2) numerator factor vanishes at x = 1, i.e. K has the
    # (z - w) zero that makes E a fermionic current at coincident points;
    # the pole guard names it
    with pytest.raises(PoleError) as exc:
        K.eval_product(1, 30)
    assert exc.value.factor == QPochFactor(1, P.q * P.q, 1)
    assert "(z - w)" in kernel_repr(K)


def test_kernel_series_consistency():
    P = PARAMS[1]
    E, F = E_current(), F_current()
    for a, b in [(E, E), (E, F), (F, F)]:
        K = ope_kernel(a, b, P, order=12)
        assert K.series.coeffs == K.series_from_closed_form().coeffs


def test_kernel_charge_bookkeeping():
    for P in PARAMS:
        E, F = E_current(), F_current()
        KEF = ope_kernel(E, F, P)
        KFE = ope_kernel(F, E, P)
        # z^P from E passing e^-Q of F and vice versa
        assert KEF.z_exp == -1 and KEF.w_exp == 0
        assert KFE.z_exp == -1 and KFE.w_exp == 0
        assert KEF.scalar == 1 and KFE.scalar == 1


def test_kernel_pole_guard_relative_distance():
    # the prepared product prod(x), which the exchange check multiplies in
    # at x, raises PoleError at x within 1e-6 (relatively) of a zero
    # c*x = b^-n, n >= 0,
    # of any factor (c*x | b), carrying the factor near_singular names
    # there, and evaluates 2e-6 off it; a base-0 factor has only x = 1/c
    P = DeformationParams(Fr(2, 5), Fr(1, 4), Fr(1, 2))  # the printer's point
    E, F = E_current(), F_current()
    kernels = (ope_kernel(E, E, P, order=2), ope_kernel(E, F, P, order=2))
    assert any(f.b == 0 for f in kernels[1].factors)
    for K in kernels:
        with mp.workdps(30 + 10):
            ev = QPochProduct(K.factors)
        for f in K.factors:
            for n in range(1 if f.b == 0 else 3):
                with mp.workdps(30):
                    zero = to_mpf(f.b ** -n / f.c)
                    x = zero * (1 + mp.mpf("0.5e-6"))
                    with pytest.raises(PoleError) as exc:
                        product_at(ev, x)
                    assert exc.value.factor == K.near_singular(x)
                    x = zero * (1 + mp.mpf("2e-6"))
                    assert not K.near_singular(x)
                    assert mp.isfinite(abs(product_at(ev, x)))


def test_kernel_numeric_matches_jet():
    P = DeformationParams(Fr(2, 5), Fr(1, 4), Fr(1, 2))
    K = ope_kernel(E_current(), E_current(), P, order=60)
    with mp.workdps(50):
        x = mp.mpf("0.02")  # inside the jet's disc of convergence
        a = K.eval_product(x, 40)
        b = mp.mpf(0)
        for coeff in reversed(K.series.coeffs):  # Horner
            b = b * x + to_mpf(coeff)
        assert abs(a - b) < mp.mpf(10) ** -25


# every (A, B) whose kernel an exchange relation evaluates, in either mode
EXCHANGE_PAIRS = sorted({pair for mode in ("canonical", "strict-text")
                         for rel in relation_catalog(mode=mode)
                         if rel.kind == "exchange"
                         for pair in (rel.left, rel.right)})


def _reference_product(K, x):
    # per-factor mpmath.qp at the caller's precision, independent of theta
    acc = mp.mpf(1)
    for f in K.factors:
        a = to_mpf(f.c) * x
        v = 1 - a if f.b == 0 else mp.qp(a, to_mpf(f.b))
        acc = acc * v if f.power == 1 else acc / v
    return acc


@pytest.mark.parametrize("q,sqrt_p", [(Fr(2, 5), Fr(1, 2)), (Fr(3, 4), Fr(1, 5))])
@pytest.mark.parametrize("pair", EXCHANGE_PAIRS, ids="".join)
def test_eval_product_matches_mpmath_qp(pair, q, sqrt_p):
    # the fixed-point kernel product at 50 digits against an 80-digit
    # reference: at two annulus points and at every zero or pole of a factor
    # inside the annulus, moved off it by 2e-6 relatively (the nearest point
    # near_singular accepts); q = 3/4 gives the largest kernel base, 9/16.
    # x is rounded to the evaluation's 60 digits first, so both sides see
    # the same input.
    P = DeformationParams.from_sqrt(q, sqrt_p)
    K = ope_kernel(CURRENTS[pair[0]](P), CURRENTS[pair[1]](P), P, order=2)
    rng = random.Random(repr(("eval-product", pair, q)))
    with mp.workdps(80):
        points = [annulus_point(rng, 80) for _ in range(2)]
        for f in K.factors:
            for n in range(1 if f.b == 0 else 4):
                zero = to_mpf(f.b) ** -n / to_mpf(f.c)
                if 0.1 <= zero <= 0.9:
                    points.append(zero * (1 + mp.mpf("2e-6") * mp.expjpi(2 * rng.random())))
        for x in points:
            with mp.workdps(60):
                x = +x
            assert not K.near_singular(x)
            ref = _reference_product(K, x)
            assert abs(K.eval_product(x, 50) - ref) < mp.mpf("1e-55") * abs(ref)


@pytest.mark.parametrize("pair", EXCHANGE_PAIRS, ids="".join)
def test_kernel_lines_are_scalar_monomial_product(pair):
    # the two lines the exchange check's one ratio takes, K(1, x) = scalar
    # x^w_exp prod(x) and K(x, 1) = scalar x^z_exp prod(1/x), each alone as
    # the ratio's pair N / D over a unit kernel and S = 1, against the
    # product times the monomial formed in mpc, at two annulus points and at
    # q = 3/4; near a
    # zero of a factor, the product at x or 1/x within POLE_TOL of it, both
    # raise PoleError carrying the factor the product names there
    P = DeformationParams.from_sqrt(Fr(3, 4), Fr(1, 2))
    K = ope_kernel(CURRENTS[pair[0]](P), CURRENTS[pair[1]](P), P, order=2)
    unit_kernel = Kernel(P, 2, 1, 0, 0, (), ())
    unit_structure = StructureFunction(1, 0, ())
    rng = random.Random(repr(("kernel-lines", pair)))
    with mp.workdps(60):
        product = QPochProduct(K.factors)
        wp, w_line = _exchange_ratio(K, unit_kernel, unit_structure, P)
        _, z_ratio = _exchange_ratio(unit_kernel, K, unit_structure, P)
        scalar = to_mpf(K.scalar)
        for xf in (sample_annulus_point(rng, wp) for _ in range(2)):
            (n, d), (zn, zd), x = w_line(xf), z_ratio(xf), _from_fixed(xf, wp)
            for got, want in ((mp.mpc(*n) / mp.mpc(*d),
                               scalar * x ** K.w_exp * product_at(product, x)),
                              (mp.mpc(*zd) / mp.mpc(*zn),
                               scalar * x ** K.z_exp * product_at(product, 1 / x))):
                assert abs(got - want) < mp.mpf("1e-55") * abs(want)
        for f in K.factors:
            for n in range(1 if f.b == 0 else 2):
                y = to_mpf(f.b ** -n / f.c) * (1 + mp.mpf("0.5e-6") * mp.expjpi(
                    2 * rng.random()))
                factor = K.near_singular(y)
                assert factor is not None
                for call, x in ((w_line, y), (z_ratio, 1 / y)):
                    with pytest.raises(PoleError) as exc:
                        call(_to_fixed(x, wp))
                    assert exc.value.factor == factor


def test_eval_product_pole_error_carries_factor():
    # prod(x), K(1, x)'s product, at x within theta.POLE_TOL = 1e-6
    # (relatively) of a zero of any factor, numerator or denominator, raises
    # PoleError with that factor, and 2e-6 off it evaluates: the E F
    # kernel's base-0 factors, its numerator
    # (1 - x) at x = 1 and its denominators (1 - x p) and (1 - x/p) at 1/p
    # and p, and the q-Pochhammer (x/p | q^2) of the E E kernel at its n = 1
    # zero p/q^2
    P = DeformationParams.from_sqrt(Fr(2, 5), Fr(1, 2))
    q2, p = P.q * P.q, P.p
    KEF = ope_kernel(E_current(), F_current(), P, order=2)
    KEE = ope_kernel(E_current(), E_current(), P, order=2)
    for K, zero, factor in ((KEF, Fr(1), QPochFactor(Fr(1), Fr(0), 1)),
                            (KEF, 1 / p, QPochFactor(p, Fr(0), -1)),
                            (KEF, p, QPochFactor(1 / p, Fr(0), -1)),
                            (KEE, p / q2, QPochFactor(1 / p, q2, -1))):
        assert factor in K.factors
        with mp.workdps(40):
            ev = QPochProduct(K.factors)
            for off in (0, mp.mpf("0.5e-6"), mp.mpc(0, "-0.5e-6")):
                with pytest.raises(PoleError) as exc:
                    product_at(ev, to_mpf(zero) * (1 + off))
                assert exc.value.factor == factor
            for off in (mp.mpf("2e-6"), mp.mpc(0, "-2e-6")):
                assert mp.isfinite(abs(product_at(ev, to_mpf(zero) * (1 + off))))


def test_ef_delta_terms():
    for P in PARAMS:
        p = P.p
        E, F = E_current(), F_current()
        terms, discarded = delta_decompose(ope_kernel(E, F, P))
        assert not discarded
        assert [t.support_x for t in terms] == [p, 1 / p]
        by_support = {t.support_x: t for t in terms}
        # delta(w / (z p)) carries 1/(1+p), delta(z / (w p)) carries p/(1+p)
        assert by_support[p].residue == 1 / (1 + p)
        assert by_support[1 / p].residue == p / (1 + p)
        # eliminating z against the support turns both into w^-1 terms
        co_p, w_exp = by_support[p].coefficient_on_support()
        assert (co_p, w_exp) == (p / (1 + p), -1)
        co_ip, w_exp2 = by_support[1 / p].coefficient_on_support()
        assert (co_ip, w_exp2) == (1 / (1 + p), -1)


def test_ef_delta_matches_h_current():
    # the z = w p support of E(z) F(w) carries H+(w p^(1/2)) exactly:
    # :E(wp) F(w): has the same field content, and the scalar prefactors
    # agree after the zero-mode monomial is restricted to the support
    for P in PARAMS:
        p = P.p
        E, F = E_current(), F_current()
        comp = compose_normal_ordered((E, p), (F, Fr(1)))
        h_shift = build_H(1, P).at_multiple(P.sqrt_p)
        assert comp.same_fields(h_shift)
        # residue * support elimination vs 1/(p^(1/2) + p^(-1/2)) * (w p^(1/2))^-1
        terms, _ = delta_decompose(ope_kernel(E, F, P))
        t = next(t for t in terms if t.support_x == 1 / p)
        coeff, w_exp = t.coefficient_on_support()
        r = P.sqrt_p
        claimed = (1 / (r + 1 / r)) * (1 / r)
        assert (coeff, w_exp) == (claimed, -1)


def test_delta_decompose_rejects_nonrational():
    P = PARAMS[0]
    K = ope_kernel(E_current(), E_current(), P)
    with pytest.raises(UnsupportedError):
        delta_decompose(K)


def test_delta_decompose_rejects_repeated_pole():
    P = PARAMS[0]
    K = ope_kernel(E_current(), F_current(), P)
    bad = list(K.factors) + [QPochFactor(K.factors[0].c, Fr(0), -1)]
    K.factors = tuple(f for f in bad)
    with pytest.raises(UnsupportedError):
        delta_decompose(K)


def _rational_kernel(numerators, poles):
    factors = ([QPochFactor(c, Fr(0), 1) for c in numerators]
               + [QPochFactor(d, Fr(0), -1) for d in poles])
    return Kernel(PARAMS[0], 2, Fr(3, 2), 1, -1, factors, [])


@pytest.mark.parametrize("numerators, poles", [
    ((Fr(3, 2), Fr(-1, 4)), (Fr(2), Fr(1, 3), Fr(-5, 7))),
    ((Fr(5, 3),), (Fr(-2), Fr(4, 9))),
])
def test_delta_decompose_partial_fractions(numerators, poles):
    # with fewer numerator factors than poles the residues rebuild the
    # kernel's rational part exactly: sum_j A_j / (1 - x / support_j)
    K = _rational_kernel(numerators, poles)
    terms, discarded = delta_decompose(K)
    assert not discarded
    assert sorted(t.support_x for t in terms) == sorted(1 / d for d in poles)
    for k in range(1, 11):
        x = Fr(k, 11)
        assert sum(t.residue / (1 - x / t.support_x) for t in terms) == (
            rational_product(K.factors, x))


def test_delta_decompose_flags_discarded_polynomial():
    terms, discarded = delta_decompose(_rational_kernel((Fr(3, 2), Fr(-1, 4)), (Fr(2),)))
    assert discarded
    assert [t.support_x for t in terms] == [Fr(1, 2)]
    assert terms[0].residue == (1 - Fr(3, 4)) * (1 + Fr(1, 8))


def test_rational_product_rejects_nonzero_base():
    assert rational_product([QPochFactor(Fr(2), Fr(0), -1)], Fr(1, 4)) == 2
    with pytest.raises(UnsupportedError):
        rational_product([QPochFactor(Fr(2), Fr(1, 3), 1)], Fr(1, 4))


def test_h_current_structure():
    for P in PARAMS:
        for sign in (1, -1):
            H = build_H(sign, P)
            assert H.charge == 0 and H.momentum == 0
            assert H.u_scalar == P.p ** sign
            assert H.prefactor_z_exp == -1
            kinds = sorted(k for k, _, _ in H.field_terms)
            assert kinds == ["phi", "psi"]


def test_at_multiple_scales_prefactor():
    P = PARAMS[0]
    H = build_H(1, P)
    shifted = H.at_multiple(Fr(3, 2))
    assert shifted.prefactor_scalar == Fr(2, 3)  # (3/2 z)^-1
    assert shifted.u_scalar == H.u_scalar  # momentum 0: u unchanged


def test_half_integer_power_needs_sqrt():
    P = DeformationParams(Fr(1, 2), Fr(1, 3))
    with pytest.raises(StructuralError):
        build_H(1, P)
