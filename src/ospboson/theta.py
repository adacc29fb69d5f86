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
  product would need ~1/(1-q) factors, q' -> 0 and a few factors suffice.
  It is two steps: a per-nome step (tau, q', the prefactor's constant part
  and (q' | q')_inf) and a per-argument step (the prefactor's exponent and
  the product).  ``ThetaProduct`` prepares a product of thetas on fixed
  nomes, one per-nome step per distinct nome, and evaluates it at many
  arguments with one exp each; ``theta_eval_modular`` is its one-factor,
  one-argument case.  Every structure-function theta takes this path, at
  every nome.

Kernels are products of q-Pochhammer factors (c x | b)^{+-1} with exact c,
b; ``QPochProduct`` prepares one whole for many x, ``qpoch_eval`` evaluates
a single (a | q).  All of them multiply in one fixed-point loop,
``_qpoch_fixed``: Python ints scaled by 2^wp, wp = working precision + 60
guard bits, as mpmath's own theta series do.  Fixed point does not
renormalize, so the error of a product is relative to its smallest running
product (see ``qpoch_eval``).

The products are pure; the evaluators built on them
(``freefield.KernelEvaluator``, ``relations.StructureFunctionEvaluator``)
guard the poles with ``PoleGuard``, prepared with them once per call.  Its
one rule is ``near_theta_zero``, behind a float screen that clears an
argument far off the real axis when every zero is real (proved at
``_screen_clears``).
``near_theta_zero`` only decides whether a relative distance is below
POLE_TOL, so it decides in Python floats and goes back to the working
precision only where a float cannot tell: a distance within 1e-9
(relatively, per power of q) of the bound, or a z, q or q^k outside the
normal float range.  Its decisions are the working-precision rule's, and
so are the screen's.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

from .errors import DomainError
from .scalars import to_mpf, workdps

__all__ = [
    "qpoch_eval",
    "QPochProduct",
    "theta_eval",
    "theta_eval_modular",
    "ThetaProduct",
    "theta_terms_needed",
    "near_theta_zero",
    "PoleGuard",
]

_MAX_TERMS = 200_000

POLE_TOL = 1e-6  # relative distance from a zero that counts as a pole
_SCREEN_TOL = POLE_TOL * (1 + 2e-6)

_GUARD_BITS = 60      # fixed-point bits beyond the working precision
_FLOAT_MARGIN = 1e-9  # float distance ratios this close to 1 are redone
_LN2 = math.log(2)
_LN10 = math.log(10)


def _screen_clears(im, absz):
    """The float screen: True only where near_theta_zero(z, q, kmax) is False
    for every real q (q = 0 included) and every kmax.

    im and absz are Im z and |z| in Python floats, rounded from z.  Proof.
    Write t = POLE_TOL.  For real q every zero r of the rule (r = q^k, or
    r = 1 when q = 0) is real, so |z - r| >= |Im z|.  near_theta_zero is True
    only at some such r with |z - r| < t max(|r|, 1).  If |r| <= 1, then
    |Im z| < t.  If |r| > 1, then |r| <= |z| + |z - r| < |z| + t |r|, so
    |r| < |z| / (1 - t) and |Im z| < t |r| < t |z| / (1 - t).  Either way
    |Im z| < t max(|z|, 1) / (1 - t), and near_theta_zero is False wherever
    |Im z| >= t max(|z|, 1) / (1 - t).  The screen asks for
    |Im z| > t max(|z|, 1) (1 + 2e-6) in floats: 1 + 2e-6 exceeds
    1 / (1 - t) = 1 + 1e-6 + 1e-12 + ... by 1e-6 - 1e-12, and the floats of
    Im z and |z| are off from the working-precision values by a few units
    of 2^-53 relative to max(|z|, 1), about 1e-9 of that gap.  A float
    outside the normal range (0, inf or nan) fails the test and so clears
    nothing.  Where it fails, near_theta_zero decides.
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

    a and q are converted once to fixed point and the T factors multiplied
    by _qpoch_fixed; the result is rounded to the working precision once.
    Error budget: each truncation adds at most 2^-wp to the running product
    P_n, and a q^n carries at most 2^-wp / (1 - |q|), so the rounding error
    is about T (1 + 1/(1 - |q|)) 2^-wp / min_n |P_n| relatively: relative to
    the smallest running product, which fixed point does not renormalize.
    The dropped tail adds about |a| |q|^T / (1 - |q|).  For the few hundred
    factors of a kernel (QPochProduct) or of a transformed theta
    (ThetaProduct), which share this loop and this budget, the 60 guard
    bits keep the first below the working precision's unit while every
    running product stays above about 2^-40.  Near q = 1 it does not: against
    mpmath.qp at 70 digits, theta_eval(0.61+0.34i, q, 50) is off by 1e-59 at
    q = 0.95, 7.6e-55 at e^-0.03125 and 3.6e-42 at 0.98, where (q | q) ~ 1e-36.
    """
    with workdps(digits + 10):
        q = mp.mpc(q)
        T = theta_terms_needed(abs(q), digits)
        wp = mp.mp.prec + _GUARD_BITS
        qf = _to_fixed(q, wp)
        return _from_fixed(
            _qpoch_fixed((1 << wp, 0), (_to_fixed(mp.mpc(a), wp),), qf, T, wp), wp)


class QPochProduct:
    """prod (c x | b)_inf ** power over fixed factors, prepared for many x.

    The factors are QPochFactor-like (c, b, power; b = 0 gives 1 - c x), as
    in a kernel, with exact rational c and b.  Preparation computes each
    distinct b in fixed point (integer division, (n << wp) // d) with its T,
    once; a call converts x to fixed point once and each c x by integer
    division.  Numerator and denominator factors are multiplied into one
    running product each, and the two are divided once as mpc values.  A
    pure evaluator, like ThetaProduct: KernelEvaluator guards the poles.
    Error budget: qpoch_eval's, relative to the smallest running product of
    the numerator and of the denominator; the dropped tails add about
    |c x| |b|^T / (1 - |b|) each, which for |c x| up to ~600 is ~1e-57 at
    50 digits.
    """

    def __init__(self, factors, digits):
        self.digits = digits
        with workdps(digits + 10):
            self._wp = wp = mp.mp.prec + _GUARD_BITS
            bases = {}
            self._factors = []
            for f in factors:
                key = f.b.numerator, f.b.denominator
                if key not in bases:
                    bases[key] = (1 if f.b == 0 else
                                  theta_terms_needed(abs(to_mpf(f.b)), digits),
                                  ((key[0] << wp) // key[1], 0))
                self._factors.append(
                    (f.c.numerator, f.c.denominator) + bases[key] + (f.power,))

    def __call__(self, x):
        wp = self._wp
        with workdps(self.digits + 10):
            xr, xi = _to_fixed(mp.mpc(x), wp)
            acc = {1: (1 << wp, 0), -1: (1 << wp, 0)}
            for n, d, T, b, power in self._factors:
                cx = (n * xr) // d, (n * xi) // d
                acc[power] = _qpoch_fixed(acc[power], (cx,), b, T, wp)
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
    |q'|^(1/2) <= |z'| <= |q'|^(-1/2), so the product needs only a few terms.
    """
    with workdps(digits + 10):
        z = mp.mpc(z)
        q = mp.mpc(q)
        if z == 0:
            raise DomainError("theta argument must be nonzero")
        v = ThetaProduct(((q, 1),), digits)((mp.log(z),))
        # real on the real axis; drop the transformation's rounding noise
        if mp.im(z) == 0 and mp.im(q) == 0:
            return mp.mpc(mp.re(v))
        return v


class ThetaProduct:
    """prod theta_q(e^log_z) ** power over fixed (q, power) pairs, prepared
    for many arguments.

    Preparation takes the transform's per-nome step (_modular_nome) once per
    distinct nome.  A call takes one log_z per factor, in order, each with
    its imaginary part in [-pi, pi] (a principal log, or minus one), which
    keeps |q'|^(1/2) <= |z'| <= |q'|^(-1/2); power is +-1.  Each factor takes
    its per-argument step (_modular_factor); the prefactor exponents are
    summed, signed by power, under one exp, and the products are multiplied
    as a fixed-point numerator and denominator and divided once.  The
    products' error budget is qpoch_eval's over each factor's running
    product and over the numerator's and denominator's.
    """

    def __init__(self, nomes, digits):
        self.digits = digits
        with workdps(digits + 10):
            self._wp = wp = mp.mp.prec + _GUARD_BITS
            steps = {}
            for q, _ in nomes:
                if q not in steps:
                    steps[q] = _modular_nome(q, digits, wp)
            self._factors = [(steps[q], power) for q, power in nomes]

    def __call__(self, log_zs):
        wp = self._wp
        one = 1 << wp
        with workdps(self.digits + 10):
            expo = mp.mpc(0)
            acc = {1: (one, 0), -1: (one, 0)}
            for log_z, (nome, power) in zip(log_zs, self._factors):
                e, (vr, vi) = _modular_factor(log_z, nome, wp)
                expo = expo + e if power == 1 else expo - e
                ar, ai = acc[power]
                acc[power] = (ar * vr - ai * vi) >> wp, (ar * vi + ai * vr) >> wp
            return mp.exp(expo) * _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)


def _modular_nome(q, digits, wp):
    """The per-nome step of the transform, as the tuple _modular_factor takes.

    With tau = log q / (2 pi i) and tau' = -1/tau: 1/tau; k = i / (4 pi tau);
    log C, the log of the prefactor's constant part
    C = i (-i tau)^(-1/2) e^(i pi (tau' - tau)/4); q' = e^(2 pi i tau') in
    fixed point at wp; its T = theta_terms_needed(|q'|, digits); and
    (q' | q')_T in fixed point.
    """
    q = mp.mpc(q)
    if not (0 < abs(q) < 1):
        raise DomainError("need 0 < |q| < 1, got |q| = %s" % abs(q))
    two_pi_i = 2j * mp.pi
    tau = mp.log(q) / two_pi_i
    taup = -1 / tau
    log_c = 1j * mp.pi * (2 + taup - tau) / 4 - mp.log(-1j * tau) / 2
    qp = mp.exp(two_pi_i * taup)
    T = theta_terms_needed(abs(qp), digits)
    qf = _to_fixed(qp, wp)
    return (1 / tau, 1j / (4 * mp.pi * tau), log_c, qf, T,
            _qpoch_fixed((1 << wp, 0), (qf,), qf, T, wp))


def _modular_factor(log_z, nome, wp):
    """The per-argument step: theta_q(z) = e^E P, returned as (E, P).

    With w = log z / tau = log z', the prefactor's exponent is
    E = log C + (log z - w)/2 + i (log z)^2 / (4 pi tau), which is
    log C + i pi (u - u u' - u') for u = log z / (2 pi i), u' = u / tau.
    P = (q' | q')(z' | q')(q'/z' | q') is multiplied in fixed point from the
    nome's (q' | q'), with q'/z' divided in fixed point.
    """
    inv_tau, k, log_c, qf, T, qq = nome
    w = log_z * inv_tau
    zr, zi = _to_fixed(mp.exp(w), wp)
    qr, qi = qf
    # d is 0 only for |z'| < 2^-wp; then |q'/z'| <= |z'| is 0 in fixed point too
    d = zr * zr + zi * zi or 1
    qz = ((qr * zr + qi * zi) << wp) // d, ((qi * zr - qr * zi) << wp) // d
    e = log_c + (log_z - w) / 2 + log_z * log_z * k
    return e, _qpoch_fixed(qq, ((zr, zi), qz), qf, T, wp)


def _qpoch_fixed(p, fs, q, T, wp):
    """p * prod over f in fs of (f | q)_T, in complex fixed point.

    p, each f and q are (re, im) pairs of Python ints scaled by 2^wp; every
    product is truncated to 2^-wp.  The one product loop of the module.
    """
    one = 1 << wp
    pr, pi = p
    qr, qi = q
    for fr, fi in fs:
        for _ in range(T):
            # P *= 1 - f, then f *= q
            tr = one - fr
            pr, pi = (pr * tr + pi * fi) >> wp, (pi * tr - pr * fi) >> wp
            fr, fi = (fr * qr - fi * qi) >> wp, (fr * qi + fi * qr) >> wp
    return pr, pi


def _to_fixed(z, wp):
    """An mpc as a fixed-point pair scaled by 2^wp."""
    return mp.mp.to_fixed(z.real, wp), mp.mp.to_fixed(z.imag, wp)


def _from_fixed(p, wp):
    """A fixed-point pair as an mpc, rounded to the working precision."""
    return mp.mpc(mp.mpf((p[0], -wp)), mp.mpf((p[1], -wp)))


def near_theta_zero(z, q, kmax=None):
    """True if z lies within POLE_TOL (relatively) of a zero q^k of theta_q.

    With kmax, only the zeros q^k with k <= kmax count: kmax=0 gives the
    zeros of (z | q)_inf, and q = 0 leaves its single zero z = 1.  The k
    tested are floor(k0) - 2 .. ceil(k0) + 2 with |z| = |q|^k0.
    """
    zf = complex(z)
    qf = complex(q)
    absz = abs(zf)
    absq = abs(qf)
    if not (_normal(absz) and (_normal(absq) and absq != 1 or q == 0)):
        return _near_theta_zero_mp(z, q, kmax)
    if absq == 0:
        ks = (0,)
    else:
        lnq = math.log(absq)
        k0 = math.log(absz) / lnq
        # k0 carries a few float roundings per unit of k0 (while |q| is not
        # within 1e-6 of 1); near an integer its floor and ceil are unsure
        if abs(k0 - round(k0)) < _FLOAT_MARGIN * (1 + abs(k0)):
            return _near_theta_zero_mp(z, q, kmax)
        ks = _zero_window(math.floor(k0), math.ceil(k0), kmax)
    for k in ks:
        if absq and not abs(k * lnq) < 700:  # |q^k| beyond e^700 or e^-700
            return _near_theta_zero_mp(z, q, kmax)
        zk = qf ** k
        ratio = abs(zf - zk) / (POLE_TOL * max(abs(zk), 1.0))
        # z and q carry one float rounding each, and q^k about |k| of them;
        # each moves the ratio by about 1e-10
        if abs(ratio - 1) < _FLOAT_MARGIN * (1 + abs(k)):
            return _near_theta_zero_mp(z, q, kmax)
        if ratio < 1:
            return True
    return False


def _normal(x):
    """True if the float x > 0 is neither subnormal nor infinite."""
    return sys.float_info.min <= x <= sys.float_info.max


def _zero_window(lo, hi, kmax):
    """The k from lo - 2 to hi + 2 (at most kmax) whose q^k the guard tests."""
    hi += 2
    return range(lo - 2, (hi if kmax is None else min(hi, kmax)) + 1)


def _near_theta_zero_mp(z, q, kmax):
    """near_theta_zero at the working precision, for what floats cannot hold."""
    absz = abs(mp.mpc(z))
    if absz == 0:
        return kmax is None
    if q == 0:
        ks = (0,)
    else:
        k0 = mp.log(absz) / mp.log(abs(mp.mpc(q)))
        ks = _zero_window(int(mp.floor(k0)), int(mp.ceil(k0)), kmax)
    for k in ks:
        zk = mp.mpc(q) ** k
        if abs(z - zk) < POLE_TOL * max(abs(zk), mp.mpf(1)):
            return True
    return False


class PoleGuard:
    """near_theta_zero(x ** orient * m, q, kmax) over fixed factors,
    prepared for many x.

    entries are (label, orient, m, q): orient is +-1, and the multiplier m
    and the nome q are values at the working precision (mpf or mpc).
    first(x), for an mpc x, returns the label of the first entry whose
    argument x ** orient * m is within POLE_TOL of a zero of theta_q (of
    (. | q)_inf with kmax=0), or None.  An entry whose m and q are both mpf
    (real) is screened first (_screen_clears), from one float of x per call;
    every other entry, and every entry the screen does not clear, takes
    near_theta_zero on its argument at the working precision.  So first(x)
    decides as near_theta_zero does on every factor.
    """

    def __init__(self, entries, kmax=None):
        self._kmax = kmax
        self._entries = [(label, orient, m, q, _screen_multiplier(m, q))
                         for label, orient, m, q in entries]

    def first(self, x):
        xf = complex(x)
        y = {1: x}
        for label, orient, m, q, mf in self._entries:
            if mf is not None and xf.imag:
                a = (xf if orient == 1 else 1 / xf) * mf
                if _screen_clears(a.imag, abs(a)):
                    continue
            if orient not in y:
                y[orient] = x ** orient
            if near_theta_zero(y[orient] * m, q, self._kmax):
                return label
        return None


def _screen_multiplier(m, q):
    """m as a normal float where m and q are mpf (real), else None: no screen."""
    if isinstance(m, mp.mpf) and isinstance(q, mp.mpf):
        mf = float(m)
        if _normal(abs(mf)):
            return mf
    return None
