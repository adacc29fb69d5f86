"""Truncated power series: ring laws, exp/log, q-Pochhammer jets."""

import math
from fractions import Fraction as Fr

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospboson.errors import DomainError, StructuralError
from ospboson.freefield import (
    DeformationParams, contraction_series, exp_contraction_closed, ope_kernel)
from ospboson.relations import CURRENTS, relation_catalog
from ospboson.scalars import sample_parameters, to_mpf
from ospboson.series import (
    QPochFactor, TruncatedSeries, closed_form_log, qpoch_log_series)

from reference import exp_reference

ORDER = 6

small_fraction = st.fractions(
    min_value=Fr(-4), max_value=Fr(4), max_denominator=6
)
series_st = st.lists(small_fraction, min_size=ORDER + 1, max_size=ORDER + 1).map(
    lambda cs: TruncatedSeries(cs, ORDER)
)


def poly_mul_trunc(a, b, order):
    # independent reference multiplication
    out = [Fr(0)] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


@given(series_st, series_st, series_st)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + -a).coeffs == [Fr(0)] * (ORDER + 1)


@given(series_st, series_st)
@settings(max_examples=60, deadline=None)
def test_mul_matches_reference(a, b):
    assert (a * b).coeffs == poly_mul_trunc(a.coeffs, b.coeffs, ORDER)


@given(series_st)
@settings(max_examples=60, deadline=None)
def test_exp_log_round_trip(a):
    coeffs = list(a.coeffs)
    coeffs[0] = Fr(0)
    s = TruncatedSeries(coeffs, ORDER)
    assert s.exp().log().coeffs == s.coeffs


@given(series_st)
@settings(max_examples=60, deadline=None)
def test_invert(a):
    coeffs = list(a.coeffs)
    coeffs[0] = Fr(1)
    s = TruncatedSeries(coeffs, ORDER)
    one = TruncatedSeries.one(ORDER)
    assert (s * s.invert()).coeffs == one.coeffs


@given(series_st)
@settings(max_examples=60, deadline=None)
def test_exp_matches_reference(a):
    coeffs = [Fr(0)] + list(a.coeffs[1:])
    assert TruncatedSeries(coeffs, ORDER).exp().coeffs == exp_reference(coeffs)


@pytest.mark.parametrize("coeffs", [
    [0],                                    # order 0
    [0, Fr(-3, 7)],                         # order 1
    [0, 0, 0, Fr(5, 6), 0, 0, Fr(-1, 4), 0, 0, 0],  # zero gaps
    [0, 2, -3, 0, 1, 5, -7],                # integer coefficients
    [0] * 9,                                # exp(0) = 1
], ids=["order0", "order1", "gaps", "integers", "zero"])
def test_exp_matches_reference_on_shapes(coeffs):
    assert TruncatedSeries(coeffs).exp().coeffs == exp_reference(coeffs)


def _nested_steps(coeffs):
    """Whether each reduced denominator of coeffs is a multiple of the lcm of
    the ones before it."""
    out, acc = [], 1
    for c in coeffs:
        out.append(c.denominator % acc == 0)
        acc = math.lcm(acc, c.denominator)
    return out


def test_exp_matches_reference_when_denominators_do_not_nest():
    # pairwise coprime denominators: the common denominator of the output
    # must grow by a factor coprime to it, not be replaced
    coeffs = [0, Fr(1, 2), Fr(1, 3), Fr(-1, 5), Fr(1, 7), Fr(2, 11), Fr(-3, 13),
              Fr(1, 17), Fr(5, 19)]
    ref = exp_reference(coeffs)
    assert not all(_nested_steps(ref))
    assert TruncatedSeries(coeffs).exp().coeffs == ref


# the suite-all point (CLI seed 23700) and the exact-algebra point (seed 0)
EXP_POINTS = {
    "suite-all": DeformationParams(*sample_parameters(23700, 1)[0]),
    "exact-algebra": DeformationParams.from_sqrt(Fr(29, 60), Fr(19, 60)),
}
KERNEL_PAIRS = {r.rel_id: r.left for r in relation_catalog()
                if r.kind != "invertibility"}


def _closed_form_log(factors, order):
    # -sum_m power c^m / (m (1 - b^m)), one factor and one m at a time
    coeffs = [Fr(0)] * (order + 1)
    for f in factors:
        for m in range(1, order + 1):
            coeffs[m] -= f.power * f.c ** m / (m * (1 - f.b ** m))
    return coeffs


def _contraction_log(kernel):
    # the summed, scaled contraction jets whose exp is Kernel.series
    coeffs = [Fr(0)] * (kernel.order + 1)
    for sgn, k1, k2, ratio in kernel._contractions:
        jet = contraction_series(k1, k2, kernel.params, kernel.order)
        for n, c in enumerate(jet.coeffs):
            coeffs[n] += sgn * c * ratio ** n
    return coeffs


@pytest.mark.parametrize("order", [16, 24])
@pytest.mark.parametrize("point", sorted(EXP_POINTS))
def test_exp_matches_reference_on_kernel_jets(point, order):
    P = EXP_POINTS[point]
    for rel_id, (a, b) in sorted(KERNEL_PAIRS.items()):
        K = ope_kernel(CURRENTS[a](P), CURRENTS[b](P), P, order=order)
        log = _closed_form_log(K.factors, order)
        ref = exp_reference(log)
        assert TruncatedSeries(log).exp().coeffs == ref, rel_id
        assert closed_form_log(K.factors, order).exp().coeffs == ref, rel_id
        contraction = _contraction_log(K)
        assert (TruncatedSeries(contraction).exp().coeffs
                == exp_reference(contraction)), rel_id


@pytest.mark.parametrize("order", [16, 24])
@pytest.mark.parametrize("point", sorted(EXP_POINTS))
def test_closed_form_log_matches_per_factor_log(point, order):
    # the per-base integer sums against one factor and one m at a time, on
    # every catalog kernel and every contraction pair
    P = EXP_POINTS[point]
    factor_lists = {rel_id: ope_kernel(CURRENTS[a](P), CURRENTS[b](P), P,
                                       order=order).factors
                    for rel_id, (a, b) in KERNEL_PAIRS.items()}
    for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi")):
        factor_lists[pair] = exp_contraction_closed(*pair, P)
    assert len(factor_lists) == 12
    for key, factors in factor_lists.items():
        log = closed_form_log(factors, order)
        assert log.order == order, key
        assert log.coeffs == _closed_form_log(factors, order), key


def test_kernel_jet_denominators_do_not_always_nest():
    # the H+E closed-form jet at order 24 at the exact-algebra point is a
    # case in which exp's common denominator must grow by a gcd step
    P = EXP_POINTS["exact-algebra"]
    K = ope_kernel(CURRENTS["H+"](P), CURRENTS["E"](P), P, order=24)
    assert not all(_nested_steps(exp_reference(_closed_form_log(K.factors, 24))))


PRIMES = [n for n in range(2, 230) if all(n % k for k in range(2, n))]


def _zero_gaps(entries):
    coeffs = [Fr(0)] * 25
    for i, c in entries.items():
        coeffs[i] = c
    return coeffs


@pytest.mark.parametrize("a, b", [
    # pairwise coprime term denominators: every term takes the lcm step
    ([Fr(1, n) for n in PRIMES[:25]],
     [Fr((-1) ** j, n) for j, n in enumerate(PRIMES[25:50])]),
    (_zero_gaps({2: Fr(1, 3), 5: Fr(-2, 5), 11: Fr(7, 6)}),
     _zero_gaps({3: Fr(5, 4), 7: Fr(-1, 9), 24: Fr(2)})),
    ([Fr(0)] * 25, _zero_gaps({0: Fr(3), 1: Fr(-1, 2)})),
], ids=["coprime", "zero-gaps", "zero"])
def test_mul_matches_reference_at_order_24(a, b):
    for x, y in ((a, b), (b, a)):
        assert ((TruncatedSeries(x) * TruncatedSeries(y)).coeffs
                == poly_mul_trunc(x, y, 24))


def test_mul_matches_reference_on_contraction_factors():
    # the per-factor product of the psi-psi contraction identity at the
    # exact-algebra point, whose term denominators nest
    acc = TruncatedSeries.one(24)
    for f in exp_contraction_closed("psi", "psi", EXP_POINTS["exact-algebra"]):
        jet = qpoch_log_series(f.c, f.b, 24, f.power)
        ref = poly_mul_trunc(acc.coeffs, jet.coeffs, 24)
        acc = acc * jet
        assert acc.coeffs == ref


@pytest.mark.parametrize("power", [1, -1])
@pytest.mark.parametrize("base", ["0", "-2/3", "q^2", "(qp)^2"])
@pytest.mark.parametrize("point", sorted(EXP_POINTS))
def test_qpoch_log_series_matches_exp_of_closed_form_log(point, base, power):
    # Euler's sums against the exp of the factor's closed-form log
    P = EXP_POINTS[point]
    b = {"0": Fr(0), "-2/3": Fr(-2, 3), "q^2": P.q ** 2,
         "(qp)^2": (P.q * P.p) ** 2}[base]
    for c in (P.p, Fr(-3, 7)):
        f = QPochFactor(c, b, power)
        ref = exp_reference(_closed_form_log((f,), 16))
        assert qpoch_log_series(c, b, 16, power).coeffs == ref


@pytest.mark.parametrize("bad", [0.1, mp.mpf("0.1"), 1j],
                         ids=["float", "mpf", "complex"])
def test_series_inputs_must_be_exact(bad):
    # nothing in series rounds: a float, an mpf or a complex is refused
    for make in (lambda: TruncatedSeries([0, bad]),
                 lambda: TruncatedSeries.one(2).scale_argument(bad),
                 lambda: QPochFactor(bad, Fr(1, 4), 1),
                 lambda: qpoch_log_series(Fr(1, 2), bad, 2),
                 lambda: qpoch_log_series(bad, Fr(1, 4), 2, power=-1)):
        with pytest.raises(StructuralError, match="^coefficients must be exact"
                           " rationals$"):
            make()


def test_closed_form_series_groups_bases_exactly():
    # shared and distinct bases, both powers, negative and zero bases
    factors = [QPochFactor(Fr(1, 3), Fr(1, 4), 1),
               QPochFactor(Fr(-2, 5), Fr(1, 4), -1),
               QPochFactor(Fr(7, 2), Fr(-2, 3), 1),
               QPochFactor(Fr(1, 6), Fr(0), -1),
               QPochFactor(Fr(3), Fr(0), 1)]
    ref = exp_reference(_closed_form_log(factors, 12))
    assert closed_form_log(factors, 12).exp().coeffs == ref


def test_closed_form_series_bad_base_message():
    factors = [QPochFactor(Fr(1, 3), Fr(1, 4), 1),
               QPochFactor(Fr(1, 3), Fr(-5, 4), 1)]
    with pytest.raises(DomainError, match=r"^need \|b\| < 1 for the infinite "
                       r"product, got -5/4$"):
        closed_form_log(factors, 8)


def test_exp_requires_zero_constant():
    s = TruncatedSeries([Fr(1), Fr(1)], 1)
    with pytest.raises(DomainError):
        s.exp()


def test_log_requires_unit_constant():
    s = TruncatedSeries([Fr(2), Fr(1)], 1)
    with pytest.raises(DomainError):
        s.log()


def test_order_mismatch_rejected():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(StructuralError):
        a + b


def test_series_times_a_scalar_rejected():
    # a series multiplies only a series of its order, on either side
    s = TruncatedSeries.one(3)
    for product in (lambda: s * 2, lambda: 2 * s, lambda: s * Fr(1, 2)):
        with pytest.raises(StructuralError, match="expected a TruncatedSeries"):
            product()


def test_scale_argument():
    s = TruncatedSeries([Fr(1), Fr(2), Fr(3)], 2)
    t = s.scale_argument(Fr(1, 2))
    assert t.coeffs == [Fr(1), Fr(1), Fr(3, 4)]
    u = t.scale_argument(Fr(2))
    assert u.coeffs == s.coeffs


def test_qpoch_log_series_linear_coefficient():
    # the infinite product has x-coefficient -c/(1-b), which no truncated
    # product reproduces exactly
    got = qpoch_log_series(Fr(1), Fr(1, 2), 3)
    assert got.coeffs[1] == Fr(-2)
    inv = qpoch_log_series(Fr(1), Fr(1, 2), 3, power=-1)
    assert (got * inv).coeffs == TruncatedSeries.one(3).coeffs


def test_qpoch_log_series_rejects_bad_factors():
    for b in (Fr(1), Fr(-1), Fr(3, 2)):
        with pytest.raises(DomainError):
            qpoch_log_series(Fr(1, 2), b, 4)
    with pytest.raises(StructuralError):
        qpoch_log_series(Fr(1, 2), Fr(1, 3), 4, power=2)


def test_qpoch_log_series_matches_numeric_product():
    # jet evaluated well inside the disc vs direct numeric product
    c, b = Fr(1, 3), Fr(1, 4)
    jet = qpoch_log_series(c, b, 40)
    with mp.workdps(40):
        x = mp.mpf("0.05")
        ref = mp.mpf(1)
        term = mp.mpf(1) / 3 * x
        for n in range(200):
            ref *= 1 - term
            term /= 4
        got = mp.mpf(0)
        for coeff in reversed(jet.coeffs):  # Horner
            got = got * x + to_mpf(coeff)
        assert abs(got - ref) < mp.mpf(10) ** -30

