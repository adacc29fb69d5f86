"""Exact scalars, high-precision complex numbers, and deterministic samplers.

Two coefficient domains are used throughout the package:

* exact rationals (``fractions.Fraction``) for series identities that must
  hold coefficient-by-coefficient, and
* arbitrary-precision complex numbers (``mpmath.mpc``) for evaluating
  infinite products and theta functions at sample points, and complex
  fixed-point pairs of ints, the form the exchange checks draw their
  sample points in.

Identities in the deformation parameters (q, p) are checked by substituting
exact rational values drawn from a seeded sampler rather than by symbolic
bivariate arithmetic.  Because half-integer powers of p occur in the level-1
currents, the sampler draws sqrt(p) as the primitive rational and squares it,
so p**(1/2) stays inside the rational field.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_pos, round_nearest, to_str
from mpmath.libmp.libelefun import cos_sin_fixed, pi_fixed

from .errors import DomainError

__all__ = [
    "to_mpf",
    "fixed_to_str",
    "sample_parameters",
    "sample_annulus_point",
    "workdps",
]


def to_mpf(v):
    """An exact rational (or any real mpmath accepts) at the working precision."""
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    return mp.mpf(v)


def fixed_to_str(x, wp, digits):
    """A fixed-point pair x scaled by 2^wp as a decimal serialization with
    an explicit digits field.

    Each part is rounded to the precision in force, as an mpf of it is,
    then to digits' bits, as mpc(value) rounds under workdps(digits), and
    printed to digits significant digits, as nstr prints it.
    """
    prec, dprec = mp.mp.prec, dps_to_prec(digits)
    re, im = (to_str(mpf_pos(from_man_exp(v, -wp, prec, round_nearest), dprec,
                             round_nearest), digits) for v in x)
    return {"re": re, "im": im, "digits": digits}


def workdps(digits):
    """mpmath working-precision context; callers never mutate global state."""
    if digits < 10:
        raise DomainError("need at least 10 working digits, got %d" % digits)
    return mp.workdps(digits)


def sample_parameters(seed, count=3):
    """Seeded exact rational samples of the deformation parameters.

    Returns ``count`` triples (q, p, sqrt_p) with q, sqrt_p rational in a
    window that keeps every infinite product in the package absolutely
    convergent and well-conditioned: q, sqrt_p in [1/5, 3/4], q != p.
    """
    rng = random.Random(("params", seed).__repr__())
    out = []
    seen = set()
    while len(out) < count:
        q = Fraction(rng.randint(12, 45), 60)
        r = Fraction(rng.randint(12, 45), 60)  # sqrt(p)
        p = r * r
        if q == p:
            continue
        if (q, p) in seen:
            continue
        seen.add((q, p))
        out.append((q, p, r))
    return out


def sample_annulus_point(rng, wp):
    """One uniform-in-annulus complex sample x, |x| in [0.1, 0.9], as a
    fixed-point pair scaled by 2^wp.

    Two rng.random() doubles give r^2, uniform between the squared radii
    (uniform area density), and phi / (2 pi).  r is the integer square root
    of the exact double r^2 times 2^(2 wp), phi is 2 pi_fixed(wp) times the
    exact double, and cos phi, sin phi are mpmath's cos_sin_fixed: each
    part is within a few 2^-wp of r cos phi and r sin phi.
    """
    rmin, rmax = 0.1, 0.9
    n, d = (rmin * rmin + rng.random() * (rmax * rmax - rmin * rmin)).as_integer_ratio()
    r = math.isqrt((n << 2 * wp) // d)
    n, d = rng.random().as_integer_ratio()
    cos, sin = cos_sin_fixed((pi_fixed(wp) * n << 1) // d, wp)
    return (r * cos) >> wp, (r * sin) >> wp
