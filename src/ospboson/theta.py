"""Numeric q-Pochhammer products and Jacobi theta functions.

The multiplicative theta function used everywhere in this package is

    theta_q(z) = (z | q)_inf (q/z | q)_inf (q | q)_inf ,

with (a | q)_inf = prod_{n>=0} (1 - a q^n), 0 < |q| < 1.  It satisfies

    theta_q(q z) = -z^{-1} theta_q(z),      theta_q(q/z) = theta_q(z),

and vanishes exactly at z in q**Z.  Two evaluation paths are provided:

* ``theta_eval``   - direct truncated products, error O(|q|^terms);
* ``theta_eval_modular`` - through the odd Jacobi theta
      theta1(u | tau) = 2 sum_{n>=0} (-1)^n Q^{(n+1/2)^2} sin((2n+1) pi u),
  Q = e^{i pi tau}, using theta_q(z) = -i Q^{-1/4} z^{1/2} theta1(u | tau)
  with z = e^{2 pi i u}, q = e^{2 pi i tau}, and the modular transformation
      theta1(u | tau) = i (-i tau)^{-1/2} e^{-i pi u^2 / tau}
                        theta1(u/tau | -1/tau)
  when Im(tau) is small.  The second path stays accurate and cheap as
  q -> 1, where the direct product would need ~1/(1-q) factors.
"""

from __future__ import annotations

import mpmath as mp

from .errors import DomainError
from .scalars import workdps

__all__ = [
    "qpoch_eval",
    "theta_eval",
    "theta_eval_modular",
    "jtheta1",
    "theta_terms_needed",
    "near_theta_zero",
]

_MAX_TERMS = 200_000


def theta_terms_needed(absq, digits):
    """Smallest T with |q|^T < 10^-(digits+10)."""
    if not 0 < absq < 1:
        raise DomainError("need 0 < |q| < 1, got |q| = %s" % absq)
    T = int(mp.ceil((digits + 10) * mp.log(10) / (-mp.log(absq)))) + 1
    if T > _MAX_TERMS:
        raise DomainError(
            "|q| = %s needs %d product terms; use the modular path" % (absq, T))
    return T


def qpoch_eval(a, q, digits, terms=None):
    """(a | q)_inf by direct truncated product, error O(|q|^terms)."""
    with workdps(digits + 10):
        a = mp.mpc(a)
        q = mp.mpc(q)
        if terms is None:
            terms = theta_terms_needed(abs(q), digits)
        acc = mp.mpc(1)
        f = a
        for _ in range(terms):
            acc *= 1 - f
            f *= q
        return acc


def theta_eval(z, q, digits, terms=None):
    """theta_q(z) by direct products."""
    with workdps(digits + 10):
        z = mp.mpc(z)
        q = mp.mpc(q)
        if z == 0:
            raise DomainError("theta argument must be nonzero")
        if terms is None:
            terms = theta_terms_needed(abs(q), digits)
        return (qpoch_eval(z, q, digits, terms)
                * qpoch_eval(q / z, q, digits, terms)
                * qpoch_eval(q, q, digits, terms))


def _jtheta1_series(u, tau, eps):
    # Q^((n+1/2)^2) decays quadratically; stop once terms stay below eps.
    Q = mp.exp(1j * mp.pi * tau)
    acc = mp.mpc(0)
    sign = 1
    n = 0
    below = 0
    while n < 4000:
        expo = (mp.mpf(2 * n + 1) ** 2) / 4
        term = sign * (Q ** expo) * mp.sin((2 * n + 1) * mp.pi * u)
        acc += term
        bound = abs(Q) ** expo * mp.exp((2 * n + 1) * mp.pi * abs(mp.im(u)))
        below = below + 1 if bound < eps else 0
        if below >= 2:
            break
        sign = -sign
        n += 1
    return 2 * acc


def _reduce_u(u, tau):
    """Shift u by the lattice Z + Z*tau into a centered cell; return (u0, prefactor, sign).

    theta1(u + 1) = -theta1(u)
    theta1(u + m tau) = (-1)^m exp(-i pi m^2 tau - 2 pi i m u) theta1(u)
    so theta1(u) = sign * prefactor * theta1(u0).
    """
    sign = 1
    pref = mp.mpc(1)
    m2 = int(mp.nint(mp.im(u) / mp.im(tau)))
    if m2 != 0:
        u0 = u - m2 * tau
        # theta1(u0 + m2 tau) = (-1)^m2 exp(-i pi m2^2 tau - 2 pi i m2 u0) theta1(u0)
        pref *= (-1) ** m2 * mp.exp(-1j * mp.pi * m2 * m2 * tau - 2j * mp.pi * m2 * u0)
        u = u0
    m1 = int(mp.nint(mp.re(u)))
    if m1 != 0:
        u = u - m1
        sign *= (-1) ** m1
    return u, pref, sign


def jtheta1(u, tau, digits):
    """theta1(u | tau) with lattice reduction and the modular transformation.

    For Im(tau) < 1/4 the series in Q = e^{i pi tau} converges slowly, so the
    point is mapped through tau -> -1/tau where the transformed nome is tiny.
    """
    with workdps(digits + 10):
        u = mp.mpc(u)
        tau = mp.mpc(tau)
        if mp.im(tau) <= 0:
            raise DomainError("need Im(tau) > 0, got %s" % tau)
        eps = mp.mpf(10) ** (-(digits + 10))
        if mp.im(tau) < 0.25:
            taup = -1 / tau
            root = mp.sqrt(-1j * tau)  # principal; Re > 0 for Im(tau) > 0
            pref = 1j / root * mp.exp(-1j * mp.pi * u * u / tau)
            u2, pref2, sign2 = _reduce_u(u / tau, taup)
            return pref * pref2 * sign2 * _jtheta1_series(u2, taup, eps)
        u1, pref1, sign1 = _reduce_u(u, tau)
        return pref1 * sign1 * _jtheta1_series(u1, tau, eps)


def theta_eval_modular(z, q, digits):
    """theta_q(z) through the modular route; same contract as theta_eval.

    u and tau are recovered with principal logarithms; any branch ambiguity
    u -> u + 1 only hits theta1 through its exact antiperiodicity, which the
    bridge prefactor e^{i pi u} compensates, so the value is branch-free.
    The square roots in the bridge are taken coherently as Q^{-1/4} =
    e^{-i pi tau / 4} and z^{1/2} = e^{i pi u}, so the identity
    theta_q(z) = -i Q^{-1/4} z^{1/2} theta1(u | tau) holds for every (u, tau)
    with Im(tau) > 0.
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
        t1 = jtheta1(u, tau, digits)
        return -1j * mp.exp(-1j * mp.pi * tau / 4) * mp.exp(1j * mp.pi * u) * t1


def near_theta_zero(z, q, tol=1e-6, kmax=None):
    """True if z lies within tol (relatively) of a zero q^k of theta_q.

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
        if abs(z - zk) < tol * max(abs(zk), mp.mpf(1)):
            return True
    return False
