"""Truncated power series: ring laws, exp/log, q-Pochhammer jets."""

from fractions import Fraction as Fr

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospboson.errors import DomainError, StructuralError
from ospboson.scalars import to_mpf
from ospboson.series import TruncatedSeries, qpoch_log_series

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

