"""Theta function evaluation: product route, modular route, and the
quasi-periodicity laws that the exchange relations depend on."""

import random
from fractions import Fraction as Fr

import mpmath as mp
import pytest

from ospboson import theta
from ospboson.degeneration import EPSILON_LADDER, sample_limit_inputs
from ospboson.errors import DomainError, PoleError
from ospboson.freefield import DeformationParams, exp_contraction_closed
from ospboson.relations import StructureFunction, ThetaFactor, relation_catalog, theta_bases
from ospboson.scalars import to_mpf
from ospboson.series import QPochFactor
from ospboson.theta import (
    _GUARD_BITS,
    POLE_TOL,
    QPochProduct,
    StructureFunctionPoint,
    _euler_base,
    _from_fixed,
    _qpoch_series,
    _real_nome,
    theta_terms_needed,
)
from reference import (
    EE_MIXED,
    FF_MIXED,
    _to_fixed,
    annulus_point,
    mp_structure_function_value,
    mpc_exponent,
    mpc_modular_nome,
    one_factor_theta,
    product_at,
    qpoch_eval,
    structure_function_value,
    theta_eval,
)

DIGITS = 50


def rel_diff(a, b):
    scale = max(abs(a), abs(b), mp.mpf(1))
    return abs(a - b) / scale


def test_qpoch_eval_reference():
    # Euler: (q; q)_inf at q = 1/2 against a long partial product
    with mp.workdps(60):
        q = mp.mpf(1) / 2
        ref = mp.mpf(1)
        for n in range(1, 250):
            ref *= 1 - q ** n
        assert abs(qpoch_eval(q, q, 50) - ref) < mp.mpf(10) ** -45


# (a, q): real and complex a and q; |a| = 625 * 0.9 (c = p^-2 at p = 1/25);
# a at relative distance 1e-6 from the zero q^-2; the extreme nomes
QPOCH_CASES = [
    ("0.37", "0.3"),
    (("0.61", "0.34"), "0.25"),
    (("0.5", "-0.2"), ("0.4", "0.3")),
    ((562.5 * mp.cos(1), 562.5 * mp.sin(1)), "0.04"),
    ((562.5 * mp.cos(1), 562.5 * mp.sin(1)), "0.5625"),
    ("near-zero", "0.3"),
    (("0.61", "0.34"), "6.4e-5"),
    (("0.5", "0.3"), "0.98"),
]


@pytest.mark.parametrize("a_spec, q_spec", QPOCH_CASES)
def test_qpoch_eval_matches_mpmath_qp(a_spec, q_spec):
    # the fixed-point product against mpmath's independent q-Pochhammer
    with mp.workdps(80):
        q = mp.mpc(*q_spec) if isinstance(q_spec, tuple) else mp.mpf(q_spec)
        if a_spec == "near-zero":
            a = q ** -2 * (1 + mp.mpf("1e-6") * mp.expjpi(mp.mpf("0.3")))
        else:
            a = mp.mpc(*a_spec) if isinstance(a_spec, tuple) else mp.mpf(a_spec)
        ref = mp.qp(a, q)
        got = qpoch_eval(a, q, DIGITS)
        assert abs(got - ref) / abs(ref) < mp.mpf("1e-55")


# the corners of the sample_parameters window, (q, sqrt p) in {1/5, 3/4}^2:
# kernel bases from (qp)^2 = 6.4e-5 to q^2 = 9/16, |c| up to p^-2 = 625
CORNERS = [(q, r) for q in (Fr(1, 5), Fr(3, 4)) for r in (Fr(1, 5), Fr(3, 4))]


@pytest.mark.parametrize("q, r", CORNERS, ids=["%s-%s" % c for c in CORNERS])
def test_qpoch_product_matches_mpmath_qp(q, r):
    # Euler's series, one factor at a time, against mpmath.qp at 60 digits:
    # the factors of exp<phi phi> and exp<psi psi>, on q^2 and (qp)^2, at
    # annulus points, at their inverses and at relative offsets 1e-5 from
    # the factor's zeros b^-n / c, n = 0, 1, 2
    P = DeformationParams.from_sqrt(q, r)
    factors = (exp_contraction_closed("phi", "phi", P)
               + exp_contraction_closed("psi", "psi", P))
    rng = random.Random(("qpoch-series", q, r).__repr__())
    with mp.workdps(60):
        xs = [annulus_point(rng, DIGITS) for _ in range(2)]
        xs += [1 / x for x in xs]
        for f in factors:
            c, b = to_mpf(f.c), to_mpf(f.b)
            near = [b ** -n / c * (1 + mp.mpf("1e-5") * mp.expjpi(2 * rng.random()))
                    for n in range(3)]
            ev = QPochProduct([f])
            for x in xs + near:
                ref = mp.qp(c * x, b) ** f.power
                assert abs(product_at(ev, x) - ref) <= mp.mpf("1e-50") * abs(ref), (f, x)


def test_qpoch_product_base_zero_is_linear():
    # a base-0 factor is 1 - c x, whether |c x| is above 1 (one shift step)
    # or not (the series' two terms)
    with mp.workdps(DIGITS + 10):
        for c in (Fr(1), Fr(25, 4), Fr(-4, 25)):
            for x in (mp.mpc("0.3", "0.2"), mp.mpc("-7", "3"), mp.mpf("0.5")):
                for power in (1, -1):
                    got = product_at(
                        QPochProduct([QPochFactor(c, Fr(0), power)]), x)
                    want = (1 - to_mpf(c) * x) ** power
                    assert abs(got - want) <= 4 * mp.eps * abs(want)


def test_qpoch_product_inverse_factors_take_the_reciprocal():
    # an inverse factor goes at 1/x into the other running product, so F at
    # x times inverse F at 1/x is 1, whatever the factors' powers, and a
    # product of both lists is the quotient of the two one-list products
    P = DeformationParams.from_sqrt(Fr(3, 4), Fr(1, 2))
    factors = (exp_contraction_closed("phi", "phi", P)
               + exp_contraction_closed("psi", "psi", P)
               + (QPochFactor(Fr(-4, 25), Fr(0), 1),))
    other = exp_contraction_closed("phi", "psi", P)
    with mp.workdps(DIGITS + 10):
        ev, inv = QPochProduct(factors), QPochProduct((), factors)
        both = QPochProduct(factors, other)
        for x in (mp.mpc("0.3", "0.2"), mp.mpc("-0.7", "0.5"), mp.mpf("0.5")):
            straight = product_at(ev, x)
            assert abs(straight * product_at(inv, 1 / x) - 1) <= mp.mpf("1e-55")
            want = straight / product_at(QPochProduct(other), 1 / x)
            assert abs(product_at(both, x) - want) <= mp.mpf("1e-55") * abs(want)


def test_series_budget_rejects_base_near_one():
    # the series' error budget fits bases up to about 0.87 at 50 digits;
    # there it still holds mpmath.qp to the working precision, and a base
    # beyond it, or a nome so small that its transformed nome is beyond it,
    # is refused when the product is prepared
    with mp.workdps(80):
        b = Fr(87, 100)
        with mp.workdps(DIGITS + 10):
            ev = QPochProduct([QPochFactor(Fr(3, 2), b, 1)])
        for x in (mp.mpc("0.61", "0.34"), mp.mpc("-40", "9")):
            ref = mp.qp(to_mpf(Fr(3, 2)) * x, to_mpf(b))
            assert abs(product_at(ev, x) - ref) <= mp.mpf("1e-55") * abs(ref)
    for b in (Fr(9, 10), Fr(99, 100), Fr(-9, 10)):
        with mp.workdps(DIGITS + 10), pytest.raises(DomainError):
            QPochProduct([QPochFactor(Fr(1), b, 1)])
    with pytest.raises(DomainError):
        one_factor_theta(mp.mpf("0.3"), mp.mpf("1e-150"), DIGITS)


def euler_series(y, b):
    # (y | b)_inf from _euler_base and _qpoch_series alone at 50 digits, y
    # rounded once to their fixed point, against mpmath.qp at 100 digits on
    # that y; and the error the series' budget allows, in 2^-wp times the
    # largest |(1 - y) .. (1 - b^(j-1) y)| of the k shift steps (or 1): the
    # recurrence's N (N + 1) / 2 and the rounding of the coefficients' 1,
    # times (-1; |b|)_inf, the dropped tail's (2 - |b|) / (1 - |b|), and two
    # truncations per shift step and for the last product
    with mp.workdps(DIGITS + 10):
        wp = mp.mp.prec + _GUARD_BITS
    with mp.workdps(100):
        yf = _to_fixed(mp.mpc(y), wp)
        y = _from_fixed(yf, wp)
        base = _euler_base(b, wp)
        got = _qpoch_series((1 << wp, 0), (yf,), base, wp)
        b = to_mpf(b)
        ab, n = abs(b), len(base[2])
        scale, k, shifted = mp.mpf(1), 0, mp.mpf(1)
        while abs(b ** k * y) > 1:
            shifted *= 1 - b ** k * y
            scale, k = max(scale, abs(shifted)), k + 1
        terms = ((n * (n + 1) // 2 + 1) * mp.qp(-1, ab) + (2 - ab) / (1 - ab)
                 + 2 * (k + 1))
        return (None if got is None else _from_fixed(got, wp), mp.qp(y, b),
                terms * scale * mp.mpf(2) ** -wp)


# the kernel bases at the north-star point q = 2/5, p = 1/4 ((q p)^2 and
# q^2) and the largest kernel base 9/16
SERIES_BASES = [Fr(1, 100), Fr(4, 25), Fr(9, 16)]


def _series_points(b):
    # y on the real axis (r^2 = 4 s, a double root), inside and outside the
    # unit circle; |y| = 1 at arguments near 0 and pi, and -1 itself; and y
    # at relative distance POLE_TOL (1 + 1e-3) from the zeros b^-k, k = 0..2
    ys = [mp.mpf(v) for v in ("0.97", "-0.999", "0.05", "3.7", "-12")]
    ys += [mp.expjpi(mp.mpf(ph)) for ph in ("0.003", "-0.01", "0.997", "-0.99", "1")]
    for k in range(3):
        for ph in ("0", "0.41", "1"):
            ys.append(to_mpf(b) ** -k
                      * (1 + POLE_TOL * (1 + mp.mpf("1e-3")) * mp.expjpi(mp.mpf(ph))))
    return ys


@pytest.mark.parametrize("b", SERIES_BASES, ids=str)
def test_series_recurrence_matches_mpmath_qp(b):
    # Knuth's two-product recurrence on a real base, within its budget
    for y in _series_points(b):
        got, ref, bound = euler_series(y, b)
        assert got is not None, y
        assert abs(got - ref) <= bound, y


def test_series_recurrence_on_base_zero():
    # base 0: (y | 0)_inf = 1 - y exactly in fixed point, on and off the
    # real axis, on the unit circle and past it; a pole at y = 1
    with mp.workdps(DIGITS + 10):
        wp = mp.mp.prec + _GUARD_BITS
        base = _euler_base(Fr(0), wp)
        one = 1 << wp
        for y in (mp.mpf("0.5"), mp.mpf("-1"), mp.mpc("0.3", "0.2"),
                  mp.expjpi(mp.mpf("0.997")), mp.mpc("-7", "3")):
            yr, yi = _to_fixed(mp.mpc(y), wp)
            assert _qpoch_series((one, 0), ((yr, yi),), base, wp) == (one - yr, -yi)
        assert _qpoch_series((one, 0), ((one, 0),), base, wp) is None


def test_terms_needed_matches_working_precision():
    # T from 53-bit floats equals T from the nome's logarithm at the
    # working precision, over nomes from 1e-600 to just below 1
    rng = random.Random("theta-terms")
    for digits in (30, 50, 80):
        with mp.workdps(digits + 10):
            for i in range(600):
                absq = (mp.mpf(10) ** (-600 * rng.random()) if i % 2
                        else mp.mpf(rng.random()))
                ref = int(mp.ceil((digits + 10) * mp.log(10) / -mp.log(absq))) + 1
                if ref > 200_000:
                    with pytest.raises(DomainError):
                        theta_terms_needed(absq, digits)
                else:
                    assert theta_terms_needed(absq, digits) == ref


def working_precision_guard(z, q, kmax=None):
    # the guards' rules with every step at the working precision.  kmax=0:
    # z within POLE_TOL (relatively) of a zero q^k, k <= 0, of (z | q), the
    # rule of each factor Euler's series sums.  kmax=None: z at a zero of
    # theta_q, that rule on the factors (z' | q') and (q'/z' | q') of the
    # Jacobi transformation, z' = e^(log z / tau), q' = e^(-2 pi i / tau),
    # tau = log q / (2 pi i)
    if kmax is None:
        tau = mp.log(q) / (2j * mp.pi)
        zp = mp.exp(mp.log(z) / tau)
        qp = mp.exp(-2j * mp.pi / tau)
        return any(working_precision_guard(y, qp, kmax=0) for y in (zp, qp / zp))
    absz = abs(mp.mpc(z))
    if absz == 0:
        return False
    if q == 0:
        ks = [0]
    else:
        k0 = mp.log(absz) / mp.log(abs(mp.mpc(q)))
        ks = range(int(mp.floor(k0)) - 2, min(int(mp.ceil(k0)) + 2, kmax) + 1)
    for k in ks:
        zk = mp.mpc(q) ** k
        if abs(z - zk) < POLE_TOL * max(abs(zk), mp.mpf(1)):
            return True
    return False


def modular_raises_pole(z, q):
    try:
        one_factor_theta(z, q, DIGITS)
    except PoleError:
        return True
    return False


def near_zero(q, k, d, side):
    # the real z > 0 near the zero q^k whose transformed argument
    # z' = e^(log z / tau) = e^(i theta) is on the unit circle at
    # |1 - z'| = d, on the side side = +-1 of 1: log z = k log q + tau i theta
    # with tau i = log q / (2 pi), so z = q^(k + theta / (2 pi))
    theta = side * 2 * mp.asin(d / 2)
    return q ** (k + theta / (2 * mp.pi))


GUARD_NOMES = ["6.4e-5", "0.01", "0.05", "0.178", "0.3", "0.5625", "0.7",
               "0.95", "0.98"]


def _check_theta_guards():
    # one_factor_theta raises PoleError exactly where the working-precision
    # rule says so: at real points whose z' is at distance POLE_TOL
    # (1 +- 1e-12) and (1 +- 1e-3) from 1, on either side, near the zeros
    # q^k, k = -3..3, on real nomes
    decisions = set()
    with mp.workdps(DIGITS + 10):
        for q in map(mp.mpf, GUARD_NOMES):
            for k in range(-3, 4):
                for f in ("1e-12", "-1e-12", "1e-3", "-1e-3"):
                    for side in (1, -1):
                        z = near_zero(q, k, POLE_TOL * (1 + mp.mpf(f)), side)
                        want = working_precision_guard(z, q)
                        assert modular_raises_pole(z, q) == want, (q, k, f, side)
                        decisions.add(want)
    assert decisions == {True, False}


def _check_qpoch_product_guard():
    # QPochProduct raises PoleError exactly where c x is within POLE_TOL
    # (relatively) of a zero b^-k, k >= 0, of (c x | b): at relative
    # distances POLE_TOL (1 +- 1e-12) and (1 +- 1e-3) from b^-k, k = 0..3
    # (k = 0 on base 0), reached along the shift steps y -> b y
    decisions = set()
    with mp.workdps(DIGITS + 10):
        for b in (Fr(0), Fr(4, 25), Fr(9, 16), Fr(87, 100)):
            for c in (Fr(1), Fr(-16, 9), Fr(5, 2)):
                factor = QPochFactor(c, b, 1)
                ev = QPochProduct([factor])
                for k in range(1 if b == 0 else 4):
                    zk = to_mpf(b) ** -k
                    for f in ("1e-12", "-1e-12", "1e-3", "-1e-3"):
                        for ph in ("0", "0.41", "1"):
                            d = POLE_TOL * zk * (1 + mp.mpf(f))
                            x = (zk + d * mp.expjpi(mp.mpf(ph))) / to_mpf(c)
                            want = working_precision_guard(to_mpf(c) * x, to_mpf(b),
                                                           kmax=0)
                            try:
                                product_at(ev, x)
                                got = False
                            except PoleError as exc:
                                assert exc.factor is factor
                                got = True
                            assert got == want, (b, c, k, f, ph)
                            decisions.add(want)
    assert decisions == {True, False}


@pytest.mark.parametrize("kmax", [None, 0])
def test_guard_matches_working_precision_rule(kmax):
    # kmax=None: the theta factors' guard, through one_factor_theta,
    # against the zeros of theta_q; kmax=0: the kernels' guard in
    # QPochProduct, against the zeros b^-k, k >= 0, of (c x | b); both are
    # the one test in the series' shift loop
    if kmax is None:
        _check_theta_guards()
    else:
        _check_qpoch_product_guard()


def test_guard_outside_float_range():
    # z that a float turns into 0 or inf: the guard reads the log the
    # transform takes, so zeros q^k at z ~ 1e-400 and 1e400 (k = +-502 on
    # q = 0.16) are found as any other, and points off them evaluate to
    # theta_q(q^k z0) = (-1)^k q^(-k(k-1)/2) z0^-k theta_q(z0), z0 ~ 1 (the
    # direct product's T terms do not reach so far)
    with mp.workdps(DIGITS + 10):
        q = mp.mpf("0.16")
        for k in (502, -502):
            for f in ("-1e-3", "1e-3"):
                z = near_zero(q, k, POLE_TOL * (1 + mp.mpf(f)), -1)
                assert modular_raises_pole(z, q) == working_precision_guard(z, q)
                assert modular_raises_pole(z, q) == (f == "-1e-3")
        for zs in ("1e-400", "1e400", "3e-310", "2e-400"):
            for z in (mp.mpf(zs), mp.mpf(zs) * 7):
                assert not working_precision_guard(z, q)
                k = int(mp.nint(mp.log(abs(z)) / mp.log(q)))
                z0 = z / q ** k
                w = (-1) ** k * q ** (-k * (k - 1) // 2) * z0 ** -k * theta_eval(
                    z0, q, DIGITS)
                v = one_factor_theta(z, q, DIGITS)
                assert abs(v - w) <= mp.mpf(10) ** -(DIGITS - 10) * abs(w), z


def test_direct_product_far_from_unit_circle():
    # the reference sizes T by |a| too: theta_eval at |z| ~ 1e-400 and 1e400
    # on q = 0.16 takes (a | q) at |a| ~ 1e400, whose factors grow for ~500
    # terms (T from |q|^T alone gave -7.6e28409 for 1.4e100317 at
    # z = 1e-400); held to quasi-periodicity, as test_guard_outside_float_range
    # holds the transform, and refused where T would pass the cap
    with mp.workdps(DIGITS + 10):
        q = mp.mpf("0.16")
        for z in (mp.mpf("1e-400"), mp.mpc("1e400", "3e399")):
            k = int(mp.nint(mp.log(abs(z)) / mp.log(q)))
            z0 = z / q ** k
            w = (-1) ** k * q ** (-k * (k - 1) // 2) * z0 ** -k * theta_eval(
                z0, q, DIGITS)
            v = theta_eval(z, q, DIGITS)
            assert abs(v - w) <= mp.mpf(10) ** -(DIGITS - 10) * abs(w), z
    with pytest.raises(DomainError, match="product terms"):
        qpoch_eval(mp.mpf("1e100000"), mp.mpf("0.99"), DIGITS)


def test_guard_window_edge():
    # in z the guard's window is relative and narrower than POLE_TOL: within
    # about POLE_TOL |ln q| / (2 pi) (3.6e-8 at q = 0.8) of a zero q^k,
    # however deep; points (1 -+ 1e-3) times that off q^64 and q^67, below
    # and above them, fall in and out of it.  The old absolute window
    # (POLE_TOL below |q^k| = 1) is gone: q^67 + 0.9 POLE_TOL and
    # q^64 + 0.5 POLE_TOL, within POLE_TOL of q^67 and q^64, and half a
    # POLE_TOL off q^64, relatively, are no poles
    with mp.workdps(DIGITS + 10):
        q = mp.mpf("0.8")
        r = POLE_TOL * -mp.log(q) / (2 * mp.pi)
        for k in (64, 67):
            for side in (1, -1):
                got = []
                for f in ("-1e-3", "1e-3"):
                    z = q ** k * (1 + side * r * (1 + mp.mpf(f)))
                    want = working_precision_guard(z, q)
                    assert modular_raises_pole(z, q) == want
                    got.append(want)
                assert got == [True, False]
        for z in (q ** 67 + POLE_TOL * mp.mpf("0.9"), q ** 64 + POLE_TOL / 2,
                  q ** 64 * (1 + POLE_TOL / 2)):
            assert not working_precision_guard(z, q)
            assert not modular_raises_pole(z, q)


@pytest.mark.parametrize("qs", ["6.4e-5", "0.178", "0.5625", "-0.03125"])
def test_modular_at_guard_edge_matches_mpmath_qp(qs):
    # just outside the guard, |1 - z'| = POLE_TOL (1 + 1e-3), the series
    # sums a y at its error budget's bound |1 - y| >= POLE_TOL, where it
    # loses about 20 bits; held to an mpmath.qp triple product at 70 digits
    # (errors up to 2.3e-53, at e^-0.03125 = e^(-0.0125/0.4))
    with mp.workdps(70):
        q = mp.exp(mp.mpf(qs)) if qs.startswith("-") else mp.mpf(qs)
        for k, side in ((0, 1), (1, -1), (-2, 1)):
            z = near_zero(q, k, POLE_TOL * (1 + mp.mpf("1e-3")), side)
            ref = mp.qp(z, q) * mp.qp(q / z, q) * mp.qp(q, q)
            v = one_factor_theta(z, q, DIGITS)
            assert abs(v - ref) < mp.mpf("1e-50") * abs(ref), (k, side)


def test_modular_at_smallest_transformed_nome():
    # the limits ladder's smallest nome B = e^(-0.0125/0.4) transforms to
    # q' ~ e^-1263, which is 0 in fixed point; the value stays finite, real,
    # and equal to the direct product's
    with mp.workdps(DIGITS + 20):
        B = mp.exp(-mp.mpf("0.0125") / mp.mpf("0.4"))
        for z in (mp.mpf("0.7"), mp.mpf("1.3"), mp.mpf("0.814")):
            v = one_factor_theta(z, B, DIGITS)
            assert mp.isfinite(v.real) and v.imag == 0
            w = theta_eval(z, B, DIGITS)
            assert abs(v - w) <= mp.mpf(10) ** -(DIGITS - 10) * abs(w)


def test_modular_where_transformed_argument_underflows():
    # on the smallest ladder nome the series' argument q' z' has
    # |q' z'| = q' ~ e^-1263, far below the fixed point's 2^-wp, so it
    # counts as 0, at z = e^-2.5123, e^-3.0071 and e^2.4939, where
    # psi = log z / (2 t) is about -253, -302 and 251 (t = 0.03125 / (2 pi));
    # e^-2.5 = B^80 itself is a zero
    with mp.workdps(DIGITS + 20):
        B = mp.exp(-mp.mpf("0.0125") / mp.mpf("0.4"))
        for phase in ("-2.5123", "-3.0071", "2.4939"):
            z = mp.exp(mp.mpf(phase))
            v = one_factor_theta(z, B, DIGITS)
            w = theta_eval(z, B, DIGITS)
            assert abs(v - w) <= mp.mpf(10) ** -(DIGITS - 10) * abs(w)


def test_theta_golden_value():
    # frozen from an independent high-precision run of the defining product
    with mp.workdps(40):
        v = theta_eval(mp.mpc("0.7", "0.2"), mp.mpf("0.3"), 35)
        re = mp.mpf("0.073865704971576037146580361634582")
        im = mp.mpf("-0.035863768208423690948931786698065")
        assert abs(v - mp.mpc(re, im)) < mp.mpf(10) ** -30


def _cross_points(qs):
    """Twelve seeded real points z > 0 for nome qs, off the zeros of theta_q."""
    q = mp.mpf(qs)
    rng = random.Random(("theta-cross", qs).__repr__())
    for _ in range(12):
        # x p^a for x in [0.1, 0.9], a in [-3, 3] and p >= 1/25
        z = mp.mpf(10) ** rng.uniform(-6, 5)
        if not working_precision_guard(z, q):
            yield z, q


# nomes the structure functions meet: 6.4e-5 and 0.178 are the smallest and
# largest (q p)^2 of the sample_parameters window, 0.01 is that of seed 0,
# and 0.5625 is the largest q^2.  The two routes agree to 5.6e-54 or better
# on these points (worst per nome: 8.8e-61 at 6.4e-5, 3.1e-56 at 0.5625,
# 5.6e-54 at 0.95), so 1e-52 notices a loss of a few digits on either side
@pytest.mark.parametrize("qs", ["6.4e-5", "0.01", "0.05", "0.178", "0.3",
                                "0.5625", "0.7", "0.95"])
def test_product_vs_modular(qs):
    with mp.workdps(DIGITS + 20):
        for z, q in _cross_points(qs):
            a = theta_eval(z, q, DIGITS)
            b = one_factor_theta(z, q, DIGITS)
            assert rel_diff(a, b) < mp.mpf("1e-52")


def test_product_vs_modular_near_one():
    # at q = 0.98 the direct product is off by up to 3.6e-42 (qpoch_eval:
    # its running product (q | q) falls to ~1e-36); 3.59e-42 on these points
    with mp.workdps(DIGITS + 20):
        for z, q in _cross_points("0.98"):
            a = theta_eval(z, q, DIGITS)
            b = one_factor_theta(z, q, DIGITS)
            assert rel_diff(a, b) < mp.mpf("3.6e-42")


# near q = 1 theta_eval is the less accurate side (at 0.98 the running
# product of (q | q) falls to ~1e-36 and it is off by 3.6e-42), so there the
# transform is held to an mpmath.qp triple product at 70 digits; mpmath.jtheta
# is no reference at such nomes (relative error 143 at q = 0.98, z = 1e5+3e4i).
# The transform takes real points: z is the modulus of each listed point
@pytest.mark.parametrize("qs,zs", [("0.95", "0.61+0.34j"), ("0.98", "0.61+0.34j"),
                                   ("0.98", "-2.3+0.7j"), ("-0.03125", "0.61+0.34j")])
def test_modular_near_one_matches_mpmath_qp(qs, zs):
    with mp.workdps(70):
        q = mp.exp(mp.mpf(qs)) if qs.startswith("-") else mp.mpf(qs)
        z = abs(mp.mpmathify(complex(zs)))
        ref = mp.qp(z, q) * mp.qp(q / z, q) * mp.qp(q, q)
        v = one_factor_theta(z, q, DIGITS)
        assert abs(v - ref) < mp.mpf("1e-55") * abs(ref)


@pytest.mark.parametrize("qs", ["0.75", "0.8", "0.85"])
def test_modular_keeps_transformed_nome_precision(qs):
    # at 50 digits q' is near 2^-wp for q near 0.8: q' z' is formed from
    # q''s mantissa, so the series' argument keeps q''s relative precision;
    # held to an mpmath.qp triple product at 70 digits
    with mp.workdps(70):
        q = mp.mpf(qs)
        for zs in ("0.5", "1.7", "12"):
            z = mp.mpf(zs)
            ref = mp.qp(z, q) * mp.qp(q / z, q) * mp.qp(q, q)
            v = one_factor_theta(z, q, DIGITS)
            assert abs(v - ref) < mp.mpf("1e-55") * abs(ref), zs


@pytest.mark.parametrize("qs", ["0.4", "0.9"])
def test_quasi_periodicity(qs):
    # theta_q(q z) = -z^-1 theta_q(z)
    with mp.workdps(DIGITS + 20):
        q = mp.mpf(qs)
        z = mp.mpc("0.61", "0.34")
        lhs = theta_eval(q * z, q, DIGITS)
        rhs = -theta_eval(z, q, DIGITS) / z
        assert rel_diff(lhs, rhs) < mp.mpf(10) ** -(DIGITS - 10)


def test_modular_real_on_real_axis():
    # theta_q(z) is real for real z and q; the limits report prints the
    # modular route's values there, so its imaginary part must be exactly 0
    with mp.workdps(DIGITS + 20):
        for qs in ("0.3", "0.95"):
            q = mp.mpf(qs)
            for z in (mp.mpf("0.37"), mp.mpf("0.8"), mp.mpf("1.9")):
                b = one_factor_theta(z, q, DIGITS)
                assert b.imag == 0
                assert rel_diff(theta_eval(z, q, DIGITS), b) < mp.mpf(10) ** -(DIGITS - 10)


def test_quasi_periodicity_extreme_nome():
    # q -> 1 territory where the plain product is hopeless; the modular
    # route must hold the identity to full precision
    with mp.workdps(80):
        q = mp.exp(-mp.mpf("0.0125"))
        z = mp.mpf("0.8")
        lhs = one_factor_theta(q * z, q, 60)
        rhs = -one_factor_theta(z, q, 60) / z
        assert rel_diff(lhs, rhs) < mp.mpf(10) ** -40


def test_inversion_symmetry():
    # theta_q(q / z) = theta_q(z)
    with mp.workdps(DIGITS + 20):
        q = mp.mpf("0.35")
        z = mp.mpc("0.5", "0.4")
        a = theta_eval(q / z, q, DIGITS)
        b = theta_eval(z, q, DIGITS)
        assert rel_diff(a, b) < mp.mpf(10) ** -(DIGITS - 10)


def test_zero_detection():
    # one_factor_theta raises PoleError at an exact zero q^k of theta_q,
    # on a real nome and the limits ladder's nome nearest 1
    with mp.workdps(DIGITS + 10):
        for q in (mp.mpf("0.5"), mp.exp(-mp.mpf("0.03125"))):
            for k in (2, -1, 0):
                with pytest.raises(PoleError, match="structure function pole"):
                    one_factor_theta(q ** k, q, DIGITS)
            assert not modular_raises_pole(mp.mpf("0.3"), q)


def test_nomes_and_bases_must_be_real():
    # the transform takes real nomes 0 < q < 1 only: a complex, a negative
    # and a nome >= 1 raise DomainError through StructureFunctionPoint,
    # and Euler's series refuses a complex or negative base where it is
    # prepared
    with mp.workdps(DIGITS + 10):
        wp = mp.mp.prec + _GUARD_BITS
        for q in (mp.mpc("0.5", "0.3"), mp.mpf("-0.6"), mp.mpf(1), mp.mpf("1.5")):
            with pytest.raises(DomainError, match="real nome"):
                one_factor_theta(mp.mpf("0.3"), q, DIGITS)
        for b in (mp.mpc("0.4", "0.3"), mp.mpc("0.5625", "1e-9"), Fr(-1, 4),
                  mp.mpf("-0.25")):
            with pytest.raises(DomainError, match="real base"):
                _euler_base(b, wp)


def _z_prime_cases():
    # (nome, p, points) at the working precision: the relations' nomes 0.04
    # to 0.56 at p = 1/4, at real points from 0.2 to 1.9; and the limits
    # ladder's extreme nomes B = e^(-eps/(2 eta)), eta = 1/4, at
    # p = e^(eps hbar), hbar = 0.12, and x = e^(-0.4 eps)
    for q in ("0.04", "0.16", "0.3", "0.56"):
        yield mp.mpf(q), mp.mpf(1) / 4, [mp.mpf(x) for x in ("0.7", "1.9", "0.2", "0.5")]
    for eps in (mp.mpf("0.1"), mp.mpf("0.0125")):
        yield mp.exp(-2 * eps), mp.exp(eps * mp.mpf("0.12")), [mp.exp(-eps * mp.mpf("0.4"))]


def test_transformed_argument_in_fixed_point(monkeypatch):
    # w = e^(i psi) = X^orient P^k, k = -4..4, formed in integers from X and
    # P in fixed point at wp, one point per x, against the complex
    # transform's e^(-log z / (2 tau)), log z = orient log x + k log p / 2,
    # at 20 digits more (reference.mpc_modular_nome).  The budget
    # (StructureFunctionPoint): a few u (1 + |l / t| + |k lam / t|) from X
    # and P rounded at the working precision's unit u, plus the fixed
    # point's 2^-wp (|k| + 1)
    ws = []
    monkeypatch.setattr(theta, "_real_factor",
                        lambda w, nome, wp: ws.append(w) or 1 << wp)
    keys = [(o, k) for o in (1, -1) for k in range(-4, 5)]
    f = StructureFunction(1, 0, tuple(
        ThetaFactor("q2", o, Fr(k, 2), Fr(0), (-1) ** i) for i, (o, k) in enumerate(keys)))
    with mp.workdps(DIGITS + 10):
        for q, p, xs in _z_prime_cases():
            for x in xs:
                point = StructureFunctionPoint(p, 0, {"q2": q}, x)
                one, u = mp.mpf(2) ** -point.wp, mp.mpf(2) ** (_GUARD_BITS - point.wp)
                ws.clear()
                point.value(f)
                with mp.workdps(DIGITS + 30):
                    inv_tau = mpc_modular_nome(q)[0]
                    l, lam = mp.log(x), mp.log(p) / 2
                    for (o, k), w in zip(keys, ws, strict=True):
                        ref = mp.exp(-(o * l + k * lam) * inv_tau / 2)
                        budget = 4 * (u * (1 + abs(l * inv_tau) + abs(k * lam * inv_tau))
                                      + one * (abs(k) + 1))
                        assert abs(mp.mpc(*w) * one - ref) <= budget, (q, x, o, k)


def test_real_nome_matches_the_complex_formulas():
    # the per-nome step's closed forms in t = -log q / (2 pi) against the
    # complex transform's tau = log q / (2 pi i) (reference.mpc_modular_nome)
    # at 20 digits more: 1/tau = -i/t, h = 1/2 + i/(2 t), kappa real,
    # log C = a + i pi/2 and the real q' (within its exp's conditioning
    # 2 pi / t), over nomes 6.4e-5 to the limits
    # ladder's e^(-0.0125/0.4); and (q' | q') against mpmath.qp
    for qs in ("6.4e-5", "0.01", "0.178", "0.5625", "0.95", "0.98", "-0.03125"):
        with mp.workdps(DIGITS + 10):
            q = mp.exp(mp.mpf(qs)) if qs.startswith("-") else mp.mpf(qs)
            wp = mp.mp.prec + _GUARD_BITS
            t, a, kappa, (b, bt, _, _), qq = _real_nome(q, wp)
            u = mp.mpf(2) ** -mp.mp.prec
        with mp.workdps(DIGITS + 30):
            inv_tau, h, kappa_c, log_c, qp_c = mpc_modular_nome(q)
            assert abs(inv_tau - mp.mpc(0, -1 / t)) <= 4 * u * abs(inv_tau), qs
            assert abs(h - mp.mpc(0.5, 1 / (2 * t))) <= 4 * u * abs(h), qs
            assert abs(kappa_c - kappa) <= 4 * u * kappa, qs
            assert abs(log_c - mp.mpc(a, mp.pi / 2)) <= 4 * u * (1 + abs(log_c)), qs
            assert abs(qp_c - mp.mpf((b, -bt))) <= 4 * u * (1 + 2 * mp.pi / t) * abs(qp_c), qs
            assert abs(mp.mpf((qq, -wp)) - mp.qp(qp_c)) <= 4 * u, qs


# theta_q(p / x) / theta_q(x p^(1/2)): a factor of each orientation and a
# shift; the real-line values against mpmath.qp over the nomes the package
# meets, from (q p)^2 = 6.4e-5 to 0.98.  (q' | q') and
# |(q' e^(2 i psi) | q')|^2 are 1 to within q', which is below e^-152, past
# 2^-wp, at every nome the limits suite draws, so dropping them moves no
# report; it fails here at the nomes up to 0.5625 (q' ~ e^-33 at 0.3, where
# theta_0.3(0.37) errs by 1.1e-14 without them and 1.8e-61 with them)
REAL_LINE_F = StructureFunction(1, 0, (ThetaFactor("q2", -1, 1, 0, 1),
                                       ThetaFactor("q2", 1, Fr(1, 2), 0, -1)))


@pytest.mark.parametrize("qs", ["6.4e-5", "0.01", "0.178", "0.3", "0.5625", "0.78",
                                "0.95", "0.98"])
def test_real_line_matches_mpmath_qp(qs):
    with mp.workdps(70):
        q, p = mp.mpf(qs), mp.mpf(1) / 4
        for xs in ("0.37", "0.9", "1.7", "23.5"):
            x = mp.mpf(xs)
            got = structure_function_value(REAL_LINE_F, x, p, 0, {"q2": q}, DIGITS)
            a, b = p / x, x * mp.sqrt(p)
            want = (mp.qp(a, q) * mp.qp(q / a, q)) / (mp.qp(b, q) * mp.qp(q / b, q))
            assert abs(got - want) < mp.mpf("1e-55") * abs(want), xs


# theta_q(1/x) / theta_q(x p) at q = 0.98, p = 1/4: a factor of each
# orientation, the second at k = 2.  The complex transform took these
# points off the real axis, where |X| = e^(2 pi arg x / |ln q|) fell below
# its fixed-point budget; the transform now takes real points only
BUDGET_F = StructureFunction(1, 0, (ThetaFactor("q2", -1, 0, 0, 1),
                                    ThetaFactor("q2", 1, 1, 0, -1)))
BUDGET_DIGITS = 40


def _budget_value(x):
    with mp.workdps(BUDGET_DIGITS + 10):
        return structure_function_value(BUDGET_F, x, mp.mpf(1) / 4,
                                        0, {"q2": mp.mpf("0.98")}, BUDGET_DIGITS)


@pytest.mark.parametrize("x", [0.5 - 0.2j, -0.5 - 0.001j])
def test_points_outside_the_fixed_point_budget_are_refused(x):
    # the points the complex transform refused, and the negative -|x| and
    # zero, are outside the transform's domain: DomainError, as for a nome
    with mp.workdps(BUDGET_DIGITS + 10):
        for bad in (mp.mpc(x), -abs(mp.mpc(x)), mp.mpf(0)):
            with pytest.raises(DomainError, match=r"real point x > 0"):
                _budget_value(bad)


@pytest.mark.parametrize("x", [0.5 + 0.2j, -0.5 + 0.001j, 0.5 - 0.05j])
def test_points_inside_the_fixed_point_budget_match_mpmath(x):
    # the moduli of the refused points' conjugates and of a point near the
    # old budget's edge, against mpmath's own q-Pochhammer products:
    # theta_q(1/x) / theta_q(x p) = (1/x; q)(q x; q) / ((x p; q)(q / (x p); q))
    with mp.workdps(BUDGET_DIGITS + 10):
        q, x = mp.mpf("0.98"), abs(mp.mpc(x))
        got = _budget_value(x)
        xp = x / 4
        want = mp.qp(1 / x, q) * mp.qp(q * x, q) / (mp.qp(xp, q) * mp.qp(q / xp, q))
        assert abs(got - want) < mp.mpf(10) ** (5 - BUDGET_DIGITS) * abs(want)


def _exponent_cases():
    # (f, x, p, c, bases): the limits suite's samples at every eps of the
    # ladder (degeneration's nome convention); the canonical and mixed
    # structure functions at the moduli of annulus points on the relations
    # nomes at q = 2/5, p = 1/4; BUDGET_F on q = 0.98 at the moduli of its
    # points
    for seed in (0, 1, 2):
        for smp in sample_limit_inputs(seed, 2):
            with mp.workdps(DIGITS + 10):
                for eps in map(mp.mpf, EPSILON_LADDER):
                    p = mp.e ** (eps * mp.mpf(smp["hbar"]))
                    bases = {k: 1 / mp.sqrt(mp.sqrt(b)) for k, b in theta_bases(
                        mp.exp(eps / mp.mpf(smp["eta"])), p, 1).items()}
                    x = mp.e ** (-eps * mp.mpf(smp["u_minus_v"]))
                    for rel in relation_catalog():
                        if rel.kind == "exchange":
                            yield rel.structure_function, x, p, 1, bases
    rng = random.Random("exponent-vs-mpc")
    q, p = mp.mpf(2) / 5, mp.mpf(1) / 4
    fs = [r.structure_function for r in relation_catalog() if r.kind == "exchange"]
    for _ in range(4):
        x = abs(annulus_point(rng, DIGITS))
        for f in fs + [EE_MIXED, FF_MIXED]:
            yield f, x, p, 1, theta_bases(q, p, 1)
    for x in (0.5 + 0.2j, -0.5 + 0.001j, 0.5 - 0.05j):
        yield BUDGET_F, abs(mp.mpc(x)), mp.mpf(1) / 4, 0, {"q2": mp.mpf("0.98")}


def test_value_holds_to_the_mpc_exponent_and_quotient():
    # value's fixed-point exponent and shifted quotient against the real
    # part of the complex transform's mpc exponent and an mpmath quotient on
    # the same steps: each is within a few u (1 + T) of the exact value,
    # relatively, with T the exponent's budget sum
    # (StructureFunctionPoint), so they agree within 8 u (1 + T)
    checked = 0
    for f, x, p, c, bases in _exponent_cases():
        got = structure_function_value(f, x, p, c, bases, DIGITS)
        want = mp_structure_function_value(f, x, p, c, bases, DIGITS)
        with mp.workdps(DIGITS + 10):
            _, budget = mpc_exponent(f, x, p, c, bases)
            u = mp.mpf(2) ** -mp.mp.prec
            assert abs(got - want) <= 8 * u * (1 + budget) * abs(want), (f, x)
        assert got.imag == 0
        checked += 1
    assert checked == 6 * 4 * 8 + 4 * 10 + 3


def test_terms_needed_monotone():
    a = theta_terms_needed(mp.mpf("0.5"), 30)
    b = theta_terms_needed(mp.mpf("0.5"), 60)
    c = theta_terms_needed(mp.mpf("0.9"), 30)
    assert a <= b
    assert a <= c


def test_bad_nome_rejected():
    with pytest.raises(DomainError):
        theta_eval(mp.mpc("0.5"), mp.mpf("1.5"), 30)
    with pytest.raises(DomainError):
        theta_eval(mp.mpc(0), mp.mpf("0.5"), 30)
