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
"""

from __future__ import annotations

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


def theta_terms_needed(absq, digits):
    """Smallest T with |q|^T < 10^-(digits+10)."""
    if not 0 < absq < 1:
        raise DomainError("need 0 < |q| < 1, got |q| = %s" % absq)
    T = int(mp.ceil((digits + 10) * mp.log(10) / (-mp.log(absq)))) + 1
    if T > _MAX_TERMS:
        raise DomainError(
            "|q| = %s needs %d product terms; use the modular path" % (absq, T))
    return T


def qpoch_eval(a, q, digits):
    """(a | q)_inf by direct product, truncated where |q|^T < 10^-(digits+10)."""
    with workdps(digits + 10):
        a = mp.mpc(a)
        q = mp.mpc(q)
        acc = mp.mpc(1)
        f = a
        for _ in range(theta_terms_needed(abs(q), digits)):
            acc *= 1 - f
            f *= q
        return acc


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
    zeros of (z | q)_inf, and q = 0 leaves its single zero z = 1.
    """
    absz = abs(mp.mpc(z))
    if absz == 0:
        return kmax is None
    if q == 0:
        ks = (0,)
    else:
        k0 = mp.log(absz) / mp.log(abs(mp.mpc(q)))
        hi = int(mp.ceil(k0)) + 2
        ks = range(int(mp.floor(k0)) - 2, hi + 1 if kmax is None else min(hi, kmax) + 1)
    for k in ks:
        zk = mp.mpc(q) ** k
        if abs(z - zk) < POLE_TOL * max(abs(zk), mp.mpf(1)):
            return True
    return False
