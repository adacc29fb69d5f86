"""Numeric q-Pochhammer products and Jacobi theta functions.

The multiplicative theta function used everywhere in this package is

    theta_q(z) = (z | q)_inf (q/z | q)_inf (q | q)_inf ,

with (a | q)_inf = prod_{n>=0} (1 - a q^n), 0 < |q| < 1.  It satisfies

    theta_q(q z) = -z^{-1} theta_q(z),      theta_q(q/z) = theta_q(z),

and vanishes exactly at z in q**Z.  Two evaluation paths are provided:

* ``theta_eval``   - direct truncated products, error O(|q|^terms); the
  transform's inner step, and (through ``qpoch_eval``) the kernels' path;
* ``theta_eval_modular`` - the Jacobi imaginary transformation
  (Whittaker-Watson ch. 21) onto the product path,
      theta_q(z) = i (-i tau)^{-1/2} e^{i pi (u - u u' - u' - tau/4 + tau'/4)}
                   theta_q'(e^{2 pi i u'}),
  with z = e^{2 pi i u}, q = e^{2 pi i tau} (principal logs), u' = u/tau,
  tau' = -1/tau and q' = e^{2 pi i tau'}.  As q -> 1, where the direct
  product would need ~1/(1-q) factors, q' -> 0 and a few factors suffice.
  Every structure-function theta takes this path, at every nome.

Both paths end in ``qpoch_eval``, which multiplies its T factors in fixed
point: Python ints scaled by 2^wp, wp = working precision + 60 guard bits, as
mpmath's own theta series do.  The pole guard ``near_theta_zero`` only decides
whether a relative distance is below POLE_TOL, so it decides in Python floats
and goes back to the working precision only where a float cannot tell: a
distance within 1e-9 (relatively, per power of q) of the bound, or a z, q or
q^k outside the normal float range.  Its decisions are the working-precision
rule's.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

from .errors import DomainError
from .scalars import workdps

__all__ = [
    "qpoch_eval",
    "theta_eval",
    "theta_eval_modular",
    "theta_terms_needed",
    "near_theta_zero",
]

_MAX_TERMS = 200_000

POLE_TOL = 1e-6  # relative distance from a zero that counts as a pole

_GUARD_BITS = 60      # fixed-point bits beyond the working precision
_FLOAT_MARGIN = 1e-9  # float distance ratios this close to 1 are redone
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
        raise DomainError(
            "|q| = %s needs %d product terms; use the modular path" % (absq, T))
    return T


def qpoch_eval(a, q, digits):
    """(a | q)_inf by direct product, truncated where |q|^T < 10^-(digits+10).

    a and q are converted once to complex fixed point with wp = working
    precision + _GUARD_BITS fractional bits, and the T factors (1 - a q^n)
    are multiplied as Python ints, each product truncated to 2^-wp.  Each
    truncation adds at most 2^-wp to the running product P_n, and a q^n
    carries at most 2^-wp / (1 - |q|), so the relative error is about
    T (1 + 1/(1 - |q|)) 2^-wp / min_n |P_n|.  For the few hundred factors
    of a kernel or a transformed theta, the 60 guard bits keep that below
    the working precision's unit while every running product stays above
    about 2^-40.  The result is rounded to the working precision once.
    """
    with workdps(digits + 10):
        a = mp.mpc(a)
        q = mp.mpc(q)
        T = theta_terms_needed(abs(q), digits)
        wp = mp.mp.prec + _GUARD_BITS
        one = 1 << wp
        fr, fi = mp.mp.to_fixed(a.real, wp), mp.mp.to_fixed(a.imag, wp)
        qr, qi = mp.mp.to_fixed(q.real, wp), mp.mp.to_fixed(q.imag, wp)
        pr, pi = one, 0
        for _ in range(T):
            # P *= 1 - f, then f *= q
            tr = one - fr
            pr, pi = (pr * tr + pi * fi) >> wp, (pi * tr - pr * fi) >> wp
            fr, fi = (fr * qr - fi * qi) >> wp, (fr * qi + fi * qr) >> wp
        return +mp.mpc(mp.ldexp(pr, -wp), mp.ldexp(pi, -wp))


def theta_eval(z, q, digits):
    """theta_q(z) by direct products."""
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
    |q'|^(1/2) <= |z'| <= |q'|^(-1/2), so theta_eval needs only a few terms.
    """
    with workdps(digits + 10):
        z = mp.mpc(z)
        q = mp.mpc(q)
        if z == 0:
            raise DomainError("theta argument must be nonzero")
        if not (0 < abs(q) < 1):
            raise DomainError("need 0 < |q| < 1, got |q| = %s" % abs(q))
        two_pi_i = 2j * mp.pi
        u = mp.log(z) / two_pi_i
        tau = mp.log(q) / two_pi_i
        up = u / tau
        taup = -1 / tau
        pref = 1j / mp.sqrt(-1j * tau) * mp.exp(
            1j * mp.pi * (u - u * up - up - tau / 4 + taup / 4))
        v = pref * theta_eval(mp.exp(two_pi_i * up), mp.exp(two_pi_i * taup), digits)
        # real on the real axis; drop the transformation's rounding noise
        if mp.im(z) == 0 and mp.im(q) == 0:
            return mp.mpc(mp.re(v))
        return v


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
