"""Numeric q-Pochhammer products and Jacobi theta functions.

The multiplicative theta function used everywhere in this package is

    theta_q(z) = (z | q)_inf (q/z | q)_inf (q | q)_inf ,

with (a | q)_inf = prod_{n>=0} (1 - a q^n), 0 < |q| < 1.  It satisfies

    theta_q(q z) = -z^{-1} theta_q(z),      theta_q(q/z) = theta_q(z),

and vanishes exactly at z in q**Z.  It is evaluated two ways:

* ``theta_eval``   - direct truncated products, error O(|q|^terms); the
  reference the tests and acceptance check 8 compare the transform with;
* ``theta_eval_modular`` - the Jacobi imaginary transformation
  (Whittaker-Watson ch. 21) onto a product on the transformed nome,
      theta_q(z) = i (-i tau)^{-1/2} e^{i pi (u - u u' - u' - tau/4 + tau'/4)}
                   theta_q'(e^{2 pi i u'}),
  with z = e^{2 pi i u}, q = e^{2 pi i tau} (principal logs), u' = u/tau,
  tau' = -1/tau and q' = e^{2 pi i tau'}.  As q -> 1, where the direct
  product would need ~1/(1-q) factors, q' -> 0 and a few terms suffice.
  It is two steps: a per-nome step (tau, q', the prefactor's constant part
  and (q' | q')_inf) and a per-argument step (the prefactor's exponent and
  the product).  ``ThetaTerms`` takes the per-nome step once per distinct
  nome, keeps single transformed factors for callers that share them
  (``relations.StructureFunctionEvaluator``), and composes products from
  them with one exp; ``theta_eval_modular`` is its one-factor case.  Every
  structure-function theta takes this path, at every nome.

Kernels are products of q-Pochhammer factors (c x | b)^{+-1} with exact c,
b; ``QPochProduct`` prepares one whole for many x.  It and ``ThetaTerms``
sum each factor by Euler's series (Gasper-Rahman, eq. (1.3.16)),

    (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n ,

once shift steps (y | b) = (1 - y)(b y | b) have brought |y| to 1 or less
(``_qpoch_series``), with each distinct base's coefficients prepared once
(``_euler_base``).  Its terms fall like |b|^(n^2/2): at 50 digits it takes
15 terms at b = 4/25 and 26 at 9/16, where the product takes 77 and 242
factors.  A base too near 1 for the series' error budget raises DomainError.
``qpoch_eval`` evaluates a single (a | q) by the direct truncated product
instead; it is the reference the series are checked against, and shares no
loop with them.  All of them work in fixed point: Python ints scaled by
2^wp, wp = working precision + 60 guard bits, as mpmath's own theta series
do.  Fixed point does not renormalize, so the error of a product is
relative to its smallest running product (see ``qpoch_eval``).

Each evaluator guards the poles on the value it already sums: a point
within POLE_TOL (relatively) of a zero of a factor raises PoleError.
``QPochProduct`` tests each kernel factor's fixed-point c x along the
shift steps its series takes.  A theta factor is guarded at the log of its
argument, which the transform takes anyway (``near_theta_zero_log``): on
a real nome a float screen clears an argument far off the real axis
(proved at ``_screen_clears``), and ``near_theta_zero`` decides the rest.
``near_theta_zero`` only decides whether a relative distance is below
POLE_TOL, so it decides in Python floats and goes back to the working
precision only where a float cannot tell: a distance within 1e-9
(relatively, per power of q) of the bound, or a z, q or q^k outside the
normal float range.  Its decisions are the working-precision rule's, and
so are the screen's.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, PoleError
from .scalars import workdps

__all__ = [
    "qpoch_eval",
    "QPochProduct",
    "theta_eval",
    "theta_eval_modular",
    "ThetaTerms",
    "theta_terms_needed",
    "near_theta_zero",
    "near_theta_zero_log",
]

_MAX_TERMS = 200_000

POLE_TOL = 1e-6  # relative distance from a zero that counts as a pole
_SCREEN_TOL = POLE_TOL * (1 + 2e-6)

_GUARD_BITS = 60      # fixed-point bits beyond the working precision
_BUDGET_BITS = 50     # of them, the most Euler's series may lose (_euler_base)
_COEF_BITS = 20       # bits beyond wp for the series' coefficient recursion
_FLOAT_MARGIN = 1e-9  # float distance ratios this close to 1 are redone
_LN2 = math.log(2)
_LN10 = math.log(10)


def _screen_clears(im, absz):
    """The float screen: True only where near_theta_zero(z, q) is False for
    every real q.

    im and absz are Im z and |z| in Python floats, each within
    d max(|z|, 1) of its value, d < 1e-12 (near_theta_zero_log takes them
    with d < 2e-13).  Proof.  Write t = POLE_TOL and M = max(|z|, 1).  For
    real q every zero r = q^k of theta_q is real, so |z - r| >= |Im z|.
    near_theta_zero is True only at some such r with |z - r| < t max(|r|, 1).
    If |r| <= 1, then |Im z| < t.  If |r| > 1, then
    |r| <= |z| + |z - r| < |z| + t |r|, so |r| < |z| / (1 - t) and
    |Im z| < t |r| < t |z| / (1 - t).  Either way |Im z| < t M / (1 - t),
    and near_theta_zero is False wherever |Im z| >= t M / (1 - t).  The
    screen asks for |im| > s max(absz, 1) with s = t (1 + 2e-6).  Where it
    holds, max(absz, 1) >= (1 - d) M gives |Im z| > (s (1 - d) - d) M, and
    s (1 - d) - d exceeds t / (1 - t) = t (1 + 1e-6 + 1e-12 + ...) by
    s - t / (1 - t) - d (1 + s) > 0.99e-12 - 1.01 d > 0.  Where the screen
    fails, near_theta_zero decides.
    """
    return abs(im) > _SCREEN_TOL * max(absz, 1.0)


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


def qpoch_eval(a, q, digits):
    """(a | q)_inf by direct product, truncated where |q|^T < 10^-(digits+10).

    The reference for the evaluators below, which sum Euler's series
    instead; it shares no loop with them.  a and q are converted once to
    fixed point, the T factors multiplied as complex multiply-and-shift, and
    the result rounded to the working precision once.
    Error budget: each truncation adds at most 2^-wp to the running product
    P_n, and a q^n carries at most 2^-wp / (1 - |q|), so the rounding error
    is about T (1 + 1/(1 - |q|)) 2^-wp / min_n |P_n| relatively: relative to
    the smallest running product, which fixed point does not renormalize.
    The dropped tail adds about |a| |q|^T / (1 - |q|).  The 60 guard bits
    keep the first below the working precision's unit while every running
    product stays above about 2^-40.  Near q = 1 it does not: against
    mpmath.qp at 70 digits, theta_eval(0.61+0.34i, q, 50) is off by 1e-59 at
    q = 0.95, 7.6e-55 at e^-0.03125 and 3.6e-42 at 0.98, where (q | q) ~ 1e-36.
    """
    with workdps(digits + 10):
        q = mp.mpc(q)
        T = theta_terms_needed(abs(q), digits)
        wp = mp.mp.prec + _GUARD_BITS
        one = 1 << wp
        qr, qi = _to_fixed(q, wp)
        fr, fi = _to_fixed(mp.mpc(a), wp)
        pr, pi = one, 0
        for _ in range(T):
            # P *= 1 - f, then f *= q
            tr = one - fr
            pr, pi = (pr * tr + pi * fi) >> wp, (pi * tr - pr * fi) >> wp
            fr, fi = (fr * qr - fi * qi) >> wp, (fr * qi + fi * qr) >> wp
        return _from_fixed((pr, pi), wp)


class QPochProduct:
    """prod (c x | b)_inf ** power over fixed factors, prepared for many x.

    The factors are QPochFactor-like (c, b, power; b = 0 gives 1 - c x), as
    in a kernel, with exact rational c and b, |b| < 1.  Preparation takes
    each distinct b's series (_euler_base) once; a call converts x to fixed
    point once, each c x by integer division, and sums each factor's series
    (_qpoch_series).  Numerator and denominator factors are multiplied into
    one running product each, and the two are divided once as mpc values.
    A call is the kernels' one pole guard: a factor whose c x is within
    POLE_TOL (relatively) of a zero b^-k, k >= 0, raises PoleError carrying
    the first such factor.  |c x - b^-k| < POLE_TOL b^-k is
    |1 - b^k c x| < POLE_TOL, so the call tests y = c x at each shift step
    y -> b y that _qpoch_series takes while |y| > 1, and at the first y with
    |y| <= 1; past it |b^k y| <= |b| < 1 - POLE_TOL.  The test compares
    |1 - y|^2 in integers with POLE_TOL's exact binary value.
    Error budget: each factor is within 2^(budget - wp) of its value,
    relatively, wherever the guard passes (_qpoch_series); the budget is at
    most 30 bits, at the largest kernel base 9/16.  Each running product
    adds one truncation per factor, relative to its smallest value.
    """

    def __init__(self, factors, digits):
        self.digits = digits
        with workdps(digits + 10):
            self._wp = wp = mp.mp.prec + _GUARD_BITS
        self._tol2 = int((Fraction(POLE_TOL) * 2 ** wp) ** 2)
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
                y = yr, yi = (n * xr) // d, (n * xi) // d
                (br, bi), t, _ = base
                while True:
                    if (one - yr) ** 2 + yi * yi < self._tol2:
                        raise PoleError("factor pole or zero at x = %s" % x,
                                        factor=f)
                    if yr * yr + yi * yi <= one * one:
                        break
                    yr, yi = (yr * br - yi * bi) >> t, (yr * bi + yi * br) >> t
                acc[f.power] = _qpoch_series(acc[f.power], (y,), base, wp)
            return _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)


def theta_eval(z, q, digits):
    """theta_q(z) by direct products; accurate as qpoch_eval (to |q| ~ 0.95)."""
    with workdps(digits + 10):
        z = mp.mpc(z)
        q = mp.mpc(q)
        if z == 0:
            raise DomainError("theta argument must be nonzero")
        return (qpoch_eval(z, q, digits)
                * qpoch_eval(q / z, q, digits)
                * qpoch_eval(q, q, digits))


def theta_eval_modular(z, q, digits):
    """theta_q(z) through the Jacobi transformation; same contract as theta_eval.

    The transformed nome q' is tiny when q is near 1, and principal logs put
    |q'|^(1/2) <= |z'| <= |q'|^(-1/2), so the series need only a few terms.
    A nome so small that q' misses the series' budget (|q| below about
    e^-280, where q' is above 0.87) raises DomainError.
    """
    with workdps(digits + 10):
        z = mp.mpc(z)
        q = mp.mpc(q)
        if z == 0:
            raise DomainError("theta argument must be nonzero")
        thetas = ThetaTerms(digits)
        v = thetas.product(((thetas.term(mp.log(z), thetas.nome(q)), 1),))
        # real on the real axis; drop the transformation's rounding noise
        if mp.im(z) == 0 and mp.im(q) == 0:
            return mp.mpc(mp.re(v))
        return v


class ThetaTerms:
    """Theta factors theta_q(e^log_z) as the transform's terms (E, P), on nomes
    prepared on first use, and products composed from the terms.

    nome(q) is the per-nome step (_modular_nome), taken once per distinct q
    on the first call that needs it.  term(log_z, nome) is the per-argument
    step (_modular_factor) on a prepared nome, for log_z with its imaginary
    part in [-pi, pi] (a principal log, or minus one), which keeps
    |q'|^(1/2) <= |z'| <= |q'|^(-1/2): a caller that shares a factor
    between several products keeps its term and composes it into each.
    product(pairs) takes (term, power) pairs, power +-1, and composes them,
    in order: the exponents summed, signed by power, under one exp, the P
    multiplied as a fixed-point numerator and denominator, and the two
    divided once.
    The methods run at the caller's working precision, which must be
    digits + 10 (workdps), so that a caller taking many steps enters it once.
    Error budget: _qpoch_series's over each of a factor's three
    q-Pochhammer factors on q' (24 bits for the q' <= 0.017 of nomes 6.4e-5
    and up), and one truncation per factor in the running products,
    relative to their smallest values.  z' comes within POLE_TOL of the zero
    1 of (z' | q') only where z is within about POLE_TOL |tau| of a zero of
    theta_q, which the structure functions' guard (near_theta_zero_log)
    rejects.
    """

    def __init__(self, digits):
        with workdps(digits + 10):
            self._wp = mp.mp.prec + _GUARD_BITS
        self._nomes = {}

    def nome(self, q):
        if q not in self._nomes:
            self._nomes[q] = _modular_nome(q, self._wp)
        return self._nomes[q]

    def term(self, log_z, nome):
        return _modular_factor(log_z, nome, self._wp)

    def product(self, pairs):
        wp = self._wp
        one = 1 << wp
        expo = mp.mpc(0)
        acc = {1: (one, 0), -1: (one, 0)}
        for (e, (vr, vi)), power in pairs:
            expo = expo + e if power == 1 else expo - e
            ar, ai = acc[power]
            acc[power] = (ar * vr - ai * vi) >> wp, (ar * vi + ai * vr) >> wp
        return mp.exp(expo) * _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)


def _modular_nome(q, wp):
    """The per-nome step of the transform, as the tuple _modular_factor takes.

    With tau = log q / (2 pi i) and tau' = -1/tau: 1/tau; h = (1 - 1/tau)/2;
    k = i / (4 pi tau); log C, the log of the prefactor's constant part
    C = i (-i tau)^(-1/2) e^(i pi (tau' - tau)/4); q' = e^(2 pi i tau')
    prepared as a base of the series (_euler_base); and (q' | q')_inf in
    fixed point at wp.
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
    (br, bi), t, _ = base
    qpf = br >> t - wp, bi >> t - wp  # q' in fixed point at wp
    inv_tau = -taup
    return (inv_tau, (1 - inv_tau) / 2, 1j / (4 * mp.pi * tau), log_c, base,
            _qpoch_series((1 << wp, 0), (qpf,), base, wp))


def _modular_factor(log_z, nome, wp):
    """The per-argument step: theta_q(z) = e^E P, returned as (E, P).

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
    (br, bi), t, _ = base
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
    e = log_c + log_z * (h + log_z * k)
    return e, _qpoch_series(qq, ((zr, zi), qz), base, wp)


def _euler_base(b, wp):
    """A base b prepared for _qpoch_series: ((br, bi), t, coefficients).

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
    """
    W = wp + _COEF_BITS
    if isinstance(b, Fraction):
        if not b:
            one = 1 << wp
            return (0, 0), 0, ((-one, 0), (one, 0))
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
    return (br, bi), t, tuple(reversed(coeffs))


def _exponent(x):
    """e with 2^(e-1) <= |x| < 2^e for an mpf tuple x != 0; very low for 0."""
    _, man, exp, bc = x
    return exp + bc if man else -sys.maxsize


def _qpoch_series(p, ys, base, wp):
    """p * prod over y in ys of (y | b)_inf, in complex fixed point at wp, for
    a base b from _euler_base.

    Shift step: while |y| > 1, p *= 1 - y and y *= b, as
    (y | b)_inf = (1 - y) (b y | b)_inf; y *= b takes b's mantissa, so it
    is relative to b however small b is.  Series step: then |y| <= 1, and
    Euler's series (Gasper-Rahman, Basic Hypergeometric Series, (1.3.16))
        (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n
    is summed to n = N - 1 by Horner.
    Error budget.  The rounding of y, of the coefficients and of each
    Horner step adds at most about (N + 1) 2^-wp (-1; |b|)_inf absolutely:
    sum_n |a_n| <= (-1; |b|)_inf bounds how far a change in y moves the
    sum.  The dropped tail adds at most 2^-wp (2 - |b|) / (1 - |b|): past
    N each |a_n| falls by a factor 1/(2 - |b|) or more.  That is relative
    to |(y | b)_inf| >= |1 - y| (|b|; |b|)_inf, and the pole guards keep
    |1 - y| >= POLE_TOL: QPochProduct tests it on each kernel factor's y,
    and the structure functions' guard keeps the transform's z' about that
    far from 1 (ThetaTerms).  So the series loses at most about
    log2((N + 1) (-1; |b|)_inf / (POLE_TOL (|b|; |b|)_inf)) of the 60 guard
    bits, which _euler_base keeps within _BUDGET_BITS = 50: 5 + 20 + 5 at
    b = 9/16 (N = 26).  Each shift step adds one truncation to p, as the
    callers' running products do.
    """
    (br, bi), t, coeffs = base
    one = 1 << wp
    pr, pi = p
    for yr, yi in ys:
        while yr * yr + yi * yi > one * one:
            tr = one - yr
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


def near_theta_zero(z, q):
    """True if z lies within POLE_TOL (relatively) of a zero q^k of theta_q.

    The k tested are floor(k0) - 2 .. ceil(k0) + 2 with |z| = |q|^k0.
    """
    zf = complex(z)
    qf = complex(q)
    absz = abs(zf)
    absq = abs(qf)
    if not (_normal(absz) and _normal(absq) and absq != 1):
        return _near_theta_zero_mp(z, q)
    lnq = math.log(absq)
    k0 = math.log(absz) / lnq
    # k0 carries a few float roundings per unit of k0 (while |q| is not
    # within 1e-6 of 1); near an integer its floor and ceil are unsure
    if abs(k0 - round(k0)) < _FLOAT_MARGIN * (1 + abs(k0)):
        return _near_theta_zero_mp(z, q)
    for k in range(math.floor(k0) - 2, math.ceil(k0) + 3):
        if not abs(k * lnq) < 700:  # |q^k| beyond e^700 or e^-700
            return _near_theta_zero_mp(z, q)
        zk = qf ** k
        ratio = abs(zf - zk) / (POLE_TOL * max(abs(zk), 1.0))
        # z and q carry one float rounding each, and q^k about |k| of them;
        # each moves the ratio by about 1e-10
        if abs(ratio - 1) < _FLOAT_MARGIN * (1 + abs(k)):
            return _near_theta_zero_mp(z, q)
        if ratio < 1:
            return True
    return False


def near_theta_zero_log(log_z, q):
    """near_theta_zero(e^log_z, q), for log_z at the working precision: the
    structure functions' guard on the log their transform takes.

    On a real q (an mpf) it is screened first (_screen_clears) from the
    float exp of log_z's complex float, where |log z| < 700: rounding log z
    moves e^(log z) by about |log z| 2^-53 relatively and the exp adds a few
    units of 2^-53, so the floats of Im z and |z| are within
    (|log z| + 2) 2^-53 |z| < 2e-13 |z| of their values.  Every argument
    the screen does not clear, and every complex q, takes near_theta_zero on
    e^log_z at the working precision.  So it decides as near_theta_zero does.
    """
    if isinstance(q, mp.mpf):
        lf = complex(log_z)
        if abs(lf) < 700:
            zf = cmath.exp(lf)
            if _screen_clears(zf.imag, abs(zf)):
                return False
    return near_theta_zero(mp.exp(log_z), q)


def _normal(x):
    """True if the float x > 0 is neither subnormal nor infinite."""
    return sys.float_info.min <= x <= sys.float_info.max


def _near_theta_zero_mp(z, q):
    """near_theta_zero at the working precision, for what floats cannot hold."""
    absz = abs(mp.mpc(z))
    if absz == 0:
        return True
    k0 = mp.log(absz) / mp.log(abs(mp.mpc(q)))
    for k in range(int(mp.floor(k0)) - 2, int(mp.ceil(k0)) + 3):
        zk = mp.mpc(q) ** k
        if abs(z - zk) < POLE_TOL * max(abs(zk), mp.mpf(1)):
            return True
    return False
