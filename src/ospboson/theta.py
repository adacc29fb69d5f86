"""Numeric q-Pochhammer products and Jacobi theta functions.

The multiplicative theta function used everywhere in this package is

    theta_q(z) = (z | q)_inf (q/z | q)_inf (q | q)_inf ,

with (a | q)_inf = prod_{n>=0} (1 - a q^n), 0 < |q| < 1.  It satisfies

    theta_q(q z) = -z^{-1} theta_q(z),      theta_q(q/z) = theta_q(z),

and vanishes exactly at z in q**Z.  Every theta factor is evaluated by the
Jacobi imaginary transformation (Whittaker-Watson ch. 21) onto a product
on the transformed nome,

    theta_q(z) = i (-i tau)^{-1/2} e^{i pi (u - u u' - u' - tau/4 + tau'/4)}
                 theta_q'(e^{2 pi i u'}),

with z = e^{2 pi i u}, q = e^{2 pi i tau} (principal logs), u' = u/tau,
tau' = -1/tau and q' = e^{2 pi i tau'}.  As q -> 1, where the direct
product would need ~1/(1-q) factors, q' -> 0 and a few terms suffice.  It
is two steps: a per-nome step (``_modular_nome``: tau, q', the
prefactor's constant part and (q' | q')_inf) and a per-argument step
(``_modular_factor``: the prefactor's exponent and the product).
``StructureFunctionEvaluator`` is the one evaluator that takes them, for
the exchange checks and the scaling limits alike: each nome's step once,
each distinct factor's step once per point, and each structure function
composed from the steps with one exp.

Kernels are products of q-Pochhammer factors (c x | b)^{+-1} with exact c,
b; ``QPochProduct`` prepares one whole for many x.  It and the evaluator
sum each factor by Euler's series (Gasper-Rahman, eq. (1.3.16)),

    (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n ,

once shift steps (y | b) = (1 - y)(b y | b) have brought |y| to 1 or less
(``_qpoch_series``), with each distinct base's coefficients prepared once
(``_euler_base``).  Its terms fall like |b|^(n^2/2): at 50 digits it takes
15 terms at b = 4/25 and 26 at 9/16, where the product takes 77 and 242
factors.  A base too near 1 for the series' error budget raises DomainError.
The tests hold the series to direct truncated products, which share no
loop with them.  Both evaluators work in fixed point: Python ints scaled by
2^wp, wp = working precision + 60 guard bits, as mpmath's own theta series
do.  Fixed point does not renormalize, so the error of a product is
relative to its smallest running product.

Each evaluator guards the poles on the value it already sums, by one test
in ``_qpoch_series``: every y the shift steps meet, and the first y with
|y| <= 1, is tested as |1 - y|^2 < POLE_TOL^2 in integers.  A y that near
1 means the factor's argument is within POLE_TOL (relatively) of a zero
b^-k of (y | b), and the series returns None.  ``QPochProduct`` then raises
PoleError carrying the kernel factor, and the structure-function evaluator
raises it carrying the theta factor.  After the transform a zero of
theta_q is z' = 1 (or a power of q' at a complex nome), so a theta factor
is a pole within about POLE_TOL |ln q| / (2 pi) of a zero q^k, relatively.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, PoleError
from .scalars import to_mpf, workdps

__all__ = [
    "QPochProduct",
    "StructureFunctionEvaluator",
    "theta_terms_needed",
]

_MAX_TERMS = 200_000

POLE_TOL = 1e-6  # relative distance from a zero that counts as a pole

_GUARD_BITS = 60      # fixed-point bits beyond the working precision
_BUDGET_BITS = 50     # of them, the most Euler's series may lose (_euler_base)
_COEF_BITS = 20       # bits beyond wp for the series' coefficient recursion
_LN2 = math.log(2)
_LN10 = math.log(10)


def theta_terms_needed(absq, digits):
    """T = ceil((digits+10) ln 10 / -ln|q|) + 1, so |q|^T < 10^-(digits+10).

    Computed in 53-bit floats from |q|'s binary mantissa and exponent, so
    nomes below float range count too; the +1 covers a 53-bit rounding of
    the ceiling.
    """
    if not 0 < absq < 1:
        raise DomainError("need 0 < |q| < 1, got |q| = %s" % absq)
    m, e = mp.frexp(absq)
    T = math.ceil((digits + 10) * _LN10 / -(math.log(m) + e * _LN2)) + 1
    if T > _MAX_TERMS:
        raise DomainError("the nome |q| = %s needs T = %d product terms, above "
                          "the cap of %d" % (absq, T, _MAX_TERMS))
    return T


class QPochProduct:
    """prod (c x | b)_inf ** power over fixed factors, prepared for many x.

    The factors are QPochFactor-like (c, b, power; b = 0 gives 1 - c x), as
    in a kernel, with exact rational c and b, |b| < 1.  Preparation takes
    each distinct b's series (_euler_base) once; a call converts x to fixed
    point once, each c x by integer division, and sums each factor's series
    (_qpoch_series).  Numerator and denominator factors are multiplied into
    one running product each, and the two are divided once as mpc values.
    A factor whose series meets a pole (c x within POLE_TOL, relatively, of
    a zero b^-k, k >= 0) raises PoleError carrying the first such factor.
    Error budget: each factor is within 2^(budget - wp) of its value,
    relatively, wherever no PoleError is raised (_qpoch_series); the budget
    is at most 30 bits, at the largest kernel base 9/16.  Each running
    product adds one truncation per factor, relative to its smallest value.
    """

    def __init__(self, factors, digits):
        self.digits = digits
        with workdps(digits + 10):
            self._wp = wp = mp.mp.prec + _GUARD_BITS
        bases = {}
        self._factors = []
        for f in factors:
            if f.b not in bases:
                bases[f.b] = _euler_base(f.b, wp)
            self._factors.append(
                (f, f.c.numerator, f.c.denominator, bases[f.b]))

    def __call__(self, x):
        wp = self._wp
        one = 1 << wp
        with workdps(self.digits + 10):
            xr, xi = _to_fixed(mp.mpc(x), wp)
            acc = {1: (one, 0), -1: (one, 0)}
            for f, n, d, base in self._factors:
                y = (n * xr) // d, (n * xi) // d
                acc[f.power] = _qpoch_series(acc[f.power], (y,), base, wp)
                if acc[f.power] is None:
                    raise PoleError("factor pole or zero at x = %s" % x,
                                    factor=f)
            return _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)


class StructureFunctionEvaluator:
    """Structure functions on fixed nomes, evaluated at many points x.

    A structure function f is f.sign * p^f.p_exp times its factors
    theta_B(x^orient p^shift(c)) ** power, in the shape of
    relations.StructureFunction and relations.ThetaFactor.  Each factor is
    evaluated on the nome B = bases[factor.base], given as mpf values
    {"q2": .., "qt2": ..}: at a deformation point they are
    relations.theta_bases(q, p, c); the scaling limits pass the nomes of
    their re-parameterization.  Preparation takes log p (p > 0).  The
    evaluator holds one cache: on first use, each base's per-nome step
    (_modular_nome; a nome below about e^-280, whose q' misses the series'
    budget, raises DomainError), and each distinct factor's key (base,
    orient and the shift at level c, equal for factors that share a theta)
    and shift * log p.

    at(x) is the evaluator at one point x.  It takes log x once and fills
    on first use each key's per-argument step (_modular_factor) from the
    log of the factor's argument, orient * log x + shift * log p, so the
    structure functions evaluated there share them.  Its imaginary part,
    that of the principal log x or its negative, lies in [-pi, pi], which
    keeps |q'|^(1/2) <= |z'| <= |q'|^(-1/2) on a real nome.  value(f)
    there raises PoleError carrying f's first factor (numerator or
    denominator) whose argument is at a theta zero, where the step is None:
    within about POLE_TOL |ln B| / (2 pi) of the zero, relatively.
    Otherwise it composes f in factor order: the steps' exponents summed,
    signed by power, under one exp, their P multiplied into a fixed-point
    numerator and denominator, and the two divided once.  The value is real
    when x and the nomes are.  The evaluator, at and value run at the
    caller's working precision, which must be digits + 10 (workdps), so
    that a caller evaluating many points enters it once.
    Error budget: _qpoch_series's over each of a factor's three
    q-Pochhammer factors on q' (24 bits for the q' <= 0.017 of nomes 6.4e-5
    and up), and one truncation per factor in the running products,
    relative to their smallest values.  The budget's |1 - y| >= POLE_TOL
    holds wherever a step returns a value.
    """

    def __init__(self, p, c, bases, digits):
        self.p = p
        self.c = c
        with workdps(digits + 10):
            self._wp = mp.mp.prec + _GUARD_BITS
        self._log_p = mp.log(p)
        self._bases = bases
        self._real_nomes = not any(mp.im(b) for b in bases.values())
        self._nomes = {}    # base name -> per-nome step
        self._factors = {}  # factor -> (key, shift * log p, per-nome step)

    def _factor(self, tf):
        entry = self._factors.get(tf)
        if entry is None:
            s = tf.shift(self.c)
            if tf.base not in self._nomes:
                self._nomes[tf.base] = _modular_nome(self._bases[tf.base],
                                                     self._wp)
            entry = self._factors[tf] = (
                (tf.base, tf.orient, *s.as_integer_ratio()),
                to_mpf(s) * self._log_p, self._nomes[tf.base])
        return entry

    def at(self, x):
        return _StructureFunctionPoint(self, x)


class _StructureFunctionPoint:
    """A StructureFunctionEvaluator at one point x (its at(x))."""

    def __init__(self, evaluator, x):
        self.evaluator = evaluator
        x = mp.mpc(x)
        self._log_x = mp.log(x)
        self._real = evaluator._real_nomes and x.imag == 0
        self._steps = {}  # factor key -> (E, P), None at a theta zero

    def value(self, f):
        ev = self.evaluator
        wp = ev._wp
        one = 1 << wp
        expo = mp.mpc(0)
        acc = {1: (one, 0), -1: (one, 0)}
        for tf in f.factors:
            key, offset, nome = ev._factor(tf)
            if key not in self._steps:
                self._steps[key] = _modular_factor(
                    tf.orient * self._log_x + offset, nome, wp)
            step = self._steps[key]
            if step is None:
                raise PoleError("structure function pole or zero", factor=tf)
            e, (vr, vi) = step
            expo = expo + e if tf.power == 1 else expo - e
            ar, ai = acc[tf.power]
            acc[tf.power] = (ar * vr - ai * vi) >> wp, (ar * vi + ai * vr) >> wp
        v = mp.mpc(f.sign) * ev.p ** f.p_exp * (
            mp.exp(expo) * _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp))
        return mp.mpc(mp.re(v)) if self._real else v


def _modular_nome(q, wp):
    """The per-nome step of the transform, as the tuple _modular_factor takes.

    With tau = log q / (2 pi i) and tau' = -1/tau: 1/tau; h = (1 - 1/tau)/2;
    k = i / (4 pi tau); log C, the log of the prefactor's constant part
    C = i (-i tau)^(-1/2) e^(i pi (tau' - tau)/4); q' = e^(2 pi i tau')
    prepared as a base of the series (_euler_base); and (q' | q')_inf in
    fixed point at wp, never at a pole: |1 - q'| >= 1 - |q'| > 0.13.
    """
    q = mp.mpc(q)
    if not (0 < abs(q) < 1):
        raise DomainError("need 0 < |q| < 1, got |q| = %s" % abs(q))
    two_pi_i = 2j * mp.pi
    tau = mp.log(q) / two_pi_i
    taup = -1 / tau
    log_c = 1j * mp.pi * (2 + taup - tau) / 4 - mp.log(-1j * tau) / 2
    qp = mp.exp(two_pi_i * taup)
    base = _euler_base(qp, wp)
    (br, bi), t = base[:2]
    qpf = br >> t - wp, bi >> t - wp  # q' in fixed point at wp
    inv_tau = -taup
    return (inv_tau, (1 - inv_tau) / 2, 1j / (4 * mp.pi * tau), log_c, base,
            _qpoch_series((1 << wp, 0), (qpf,), base, wp))


def _modular_factor(log_z, nome, wp):
    """The per-argument step: theta_q(z) = e^E P, returned as (E, P), or
    None where P's series meets a pole (_qpoch_series).

    With w = log z / tau = log z', the prefactor's exponent is
    E = log C + (log z - w)/2 + i (log z)^2 / (4 pi tau), which is
    log C + i pi (u - u u' - u') for u = log z / (2 pi i), u' = u / tau,
    and is taken as log C + log z (h + k log z).
    P = (q' | q')(z' | q')(q'/z' | q') is summed in fixed point from the
    nome's (q' | q').  q'/z' is divided, and q' z' formed (the one shift
    step of (z' | q'), taken where |z'| > 1), from q''s mantissa: q'
    rounded to 2^-wp would carry its rounding, times |z'|, into both, which
    costs up to half the bits where q' is near 2^-wp and |z'| near
    |q'|^(-1/2).
    """
    inv_tau, h, k, log_c, base, qq = nome
    w = log_z * inv_tau
    zr, zi = _to_fixed(mp.exp(w), wp)
    (br, bi), t = base[:2]
    # q'/z' = b conj(z') 2^(2 wp - t) / |z'|^2 in fixed point, q' = b 2^-t;
    # d is 0 only for |z'| < 2^-wp, where the numerator is 0 too
    d = zr * zr + zi * zi or 1
    nr, ni = br * zr + bi * zi, bi * zr - br * zi
    sh = 2 * wp - t
    if sh >= 0:
        qz = (nr << sh) // d, (ni << sh) // d
    else:
        # a tiny q': floor(floor(n 2^sh) / d) = floor(n 2^sh / d), and the
        # integers stay short
        qz = (nr >> -sh) // d, (ni >> -sh) // d
    v = _qpoch_series(qq, ((zr, zi), qz), base, wp)
    if v is None:
        return None
    return log_c + log_z * (h + log_z * k), v


def _euler_base(b, wp):
    """A base b prepared for _qpoch_series: ((br, bi), t, coefficients,
    tol2).

    b is a Fraction or an mpc with |b| < 1, and b = 0 only as a Fraction.
    b = (br + i bi) 2^-t, with a mantissa of about wp + _COEF_BITS bits,
    rounded once (exact for b = 0).  The coefficients are Euler's
    a_n = (-1)^n b^(n(n-1)/2) / (b | b)_n for n < N, highest first, in fixed
    point at wp: from the recursion a_n = -a_(n-1) b^(n-1) / (1 - b^n) at
    wp + _COEF_BITS bits, each rounded once.  N and the budget come from
    |a_n| <= |b|^(n(n-1)/2) / (|b|; |b|)_n (equal for real b > 0), in
    floats: N is the first n with |b|^n < 1/2 and that bound below 2^-wp.
    The bits the series may lose,
    log2((N + 1) (-1; |b|)_inf / (POLE_TOL (|b|; |b|)_inf)) (_qpoch_series),
    must fit in _BUDGET_BITS, else DomainError: |b| up to about 0.87 fits.
    tol2 is the pole guard's bound, POLE_TOL^2 scaled by 2^(2 wp) from
    POLE_TOL's exact binary value.
    """
    W = wp + _COEF_BITS
    tol2 = int((Fraction(POLE_TOL) * 2 ** wp) ** 2)
    if isinstance(b, Fraction):
        if not b:
            one = 1 << wp
            return (0, 0), 0, ((-one, 0), (one, 0)), tol2
        u, v = b.numerator, b.denominator
        s = max(v.bit_length() - abs(u).bit_length(), 0)
        br, bi = (u << (W + s)) // v, 0
    else:
        s = -max(_exponent(x) for x in b._mpc_)
        br, bi = _to_fixed(b, W + s)
    t = W + s
    lb = math.log2(br * br + bi * bi) / 2 - t  # log2 |b|
    if not lb < 0:
        raise DomainError("need |b| < 1, got |b| = %s" % 2 ** lb)
    ab = bk = 2 ** lb  # |b| and |b|^n in floats (0 below their range)
    log_poch = 0.0     # log2 (|b|; |b|)_n
    log_neg = 1.0      # log2 (-1; |b|)_n
    N = None
    n = 1
    while N is None or bk >= 2 ** -20:
        log_poch += math.log2(1 - bk)
        log_neg += math.log2(1 + bk)
        if log_neg - log_poch > _BUDGET_BITS:
            break
        if N is None and n * lb < -1 and n * (n - 1) / 2 * lb - log_poch < -wp:
            N = n
        bk *= ab
        n += 1
    budget = math.log2((N or n) + 1) + log_neg - log_poch - math.log2(POLE_TOL)
    if budget > _BUDGET_BITS:
        raise DomainError("the base |b| = %.5g needs %.1f bits of the series' "
                          "budget of %d" % (ab, budget, _BUDGET_BITS))
    one = 1 << W
    pr, pi = one, 0  # b^n
    ar, ai = one, 0  # a_n
    coeffs = [(1 << wp, 0)]
    for _ in range(1, N):
        xr, xi = (ar * pr - ai * pi) >> W, (ar * pi + ai * pr) >> W
        pr, pi = (pr * br - pi * bi) >> t, (pr * bi + pi * br) >> t
        dr, di = one - pr, -pi
        d = dr * dr + di * di
        ar = (-(xr * dr + xi * di) << W) // d
        ai = (-(xi * dr - xr * di) << W) // d
        coeffs.append((ar >> _COEF_BITS, ai >> _COEF_BITS))
    return (br, bi), t, tuple(reversed(coeffs)), tol2


def _exponent(x):
    """e with 2^(e-1) <= |x| < 2^e for an mpf tuple x != 0; very low for 0."""
    _, man, exp, bc = x
    return exp + bc if man else -sys.maxsize


def _qpoch_series(p, ys, base, wp):
    """p * prod over y in ys of (y | b)_inf, in complex fixed point at wp, for
    a base b from _euler_base; None where a y is at a pole.

    Shift step: while |y| > 1, p *= 1 - y and y *= b, as
    (y | b)_inf = (1 - y) (b y | b)_inf; y *= b takes b's mantissa, so it
    is relative to b however small b is.  Series step: then |y| <= 1, and
    Euler's series (Gasper-Rahman, Basic Hypergeometric Series, (1.3.16))
        (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n
    is summed to n = N - 1 by Horner.
    Pole guard: each y the shift steps meet, and the first y with |y| <= 1,
    is tested as |1 - y|^2 < POLE_TOL^2, in integers against the base's
    tol2.  |1 - b^k y| < POLE_TOL puts y within POLE_TOL (relatively) of the
    zero b^-k of (y | b), and the series returns None there.  Past the first
    |y| <= 1 no zero is near: |b^k y| <= |b| < 1 - POLE_TOL for k >= 1.
    Error budget.  The rounding of y, of the coefficients and of each
    Horner step adds at most about (N + 1) 2^-wp (-1; |b|)_inf absolutely:
    sum_n |a_n| <= (-1; |b|)_inf bounds how far a change in y moves the
    sum.  The dropped tail adds at most 2^-wp (2 - |b|) / (1 - |b|): past
    N each |a_n| falls by a factor 1/(2 - |b|) or more.  That is relative
    to |(y | b)_inf| >= |1 - y| (|b|; |b|)_inf, and the guard enforces
    |1 - y| >= POLE_TOL on the y summed.  So the series loses at most about
    log2((N + 1) (-1; |b|)_inf / (POLE_TOL (|b|; |b|)_inf)) of the 60 guard
    bits, which _euler_base keeps within _BUDGET_BITS = 50: 5 + 20 + 5 at
    b = 9/16 (N = 26).  Each shift step adds one truncation to p, as the
    callers' running products do.
    """
    (br, bi), t, coeffs, tol2 = base
    one = 1 << wp
    pr, pi = p
    for yr, yi in ys:
        while True:
            tr = one - yr
            if tr * tr + yi * yi < tol2:
                return None
            if yr * yr + yi * yi <= one * one:
                break
            pr, pi = (pr * tr + pi * yi) >> wp, (pi * tr - pr * yi) >> wp
            yr, yi = (yr * br - yi * bi) >> t, (yr * bi + yi * br) >> t
        terms = iter(coeffs)
        sr, si = next(terms)
        for ar, ai in terms:
            sr, si = (((sr * yr - si * yi) >> wp) + ar,
                      ((sr * yi + si * yr) >> wp) + ai)
        pr, pi = (pr * sr - pi * si) >> wp, (pr * si + pi * sr) >> wp
    return pr, pi


def _to_fixed(z, wp):
    """An mpc as a fixed-point pair scaled by 2^wp."""
    return mp.mp.to_fixed(z.real, wp), mp.mp.to_fixed(z.imag, wp)


def _from_fixed(p, wp):
    """A fixed-point pair as an mpc, rounded to the working precision."""
    return mp.mpc(mp.mpf((p[0], -wp)), mp.mpf((p[1], -wp)))
