"""Scaling limits of the exchange structure functions.

Two successive degenerations are checked numerically:

  elliptic (two deformation parameters)  -->  trigonometric  -->  rational

The re-parameterization is q = e^{eps/eta}, p = e^{eps*hbar}, with spectral
points entering through z = e^{eps*u}, so x = w/z = e^{-eps(u-v)}.  The
second deformation nome obeys 1/eta' - 1/eta = hbar*c.  As eps -> 0 each
four-theta exchange ratio degenerates into a ratio of sines in the
arguments 2*pi*eta*(u - v + a*hbar) (eta' on the qt2 side), and as eta -> 0
each sine ratio further collapses to the ratio of its affine arguments.

Nome convention.  The printed q = e^{eps/eta} exceeds 1, where the theta
triple product diverges; the limit statement only makes sense through the
modular side.  We fix the convention once: the elliptic side reads the
deformation's own theta bases b = theta_bases(q, p, c) (q^2 and
(q p^c)^2) and evaluates each factor at the nome B = b^{-1/4}, that is
e^{-eps/(2 eta)} on base q^2 and e^{-eps/(2 eta')} on base qt^2.  This is
the unique rescaling under which theta_B(B^y) ~ sin(pi*y) reproduces the
displayed sine arguments: a factor theta(x p^a) maps to
y = ln(x p^a)/ln(B) = 2 eta (u - v - a hbar).  Only the sine target reads
eta' from eta_prime, so a wrong eta' is caught rather than shared by both
sides.  The residual exponential prefactors of the modular bridge cancel
only up to O(eps) in balanced four-theta ratios, which is exactly the
convergence rate limit_check measures; the measured elliptic/trig ratios
are logged per run so a surviving constant would be visible, not hidden.

Shared sample.  At one sample and one eps, every relation meets the same
x, p and two nomes, and the eight relations together have 24 distinct
factors theta_B(x p^s) (12 shifts on each base).  limit_check takes its
elliptic side from one theta.StructureFunctionPoint per eps, which takes
each nome's transform step and X once, when it is built, and each distinct
factor's step once, on first use, and composes each relation from them.
It is the package's one user of the Jacobi transform: the exchange checks,
on exact nomes away from 1, split their thetas into kernel factors.  The
points are a pure function of limit_check's own inputs and are remembered
for the last inputs only, so consecutive checks at one sample (the limits
suite's eight) share them and the next sample replaces them.

Real line.  u-v is real, as every limits-suite sample is, and a complex
u-v raises DomainError in limit_check and both targets.  So x is real and
positive, and each theta factor is the transform's one real product,
-2 e^(Re E) sin(psi) (q' | q') |(q' e^(2 i psi) | q')|^2 with
psi = log(x p^s) / (2 t) and B = e^(-2 pi t) (theta module): within a few
units of the working precision times the exponent's size, plus the
rounding of e^(i psi) over |sin psi|, of the exact value
(theta.StructureFunctionPoint's error budget).  The trigonometric target
is computed apart on every call, as the point forms its phases: per base,
e^(i theta) and P = e^(i delta) once, in fixed point, and each factor's
sine the imaginary part of e^(i theta) conj(P)^k in integer products, with
guard bits enough that a sine at the pole floor keeps the working precision
(trig_structure_function's error budget).  The rational target runs in mpf.
limit_check prints each elliptic/trig ratio from the real quotient, as
nstr prints the mpc of it, "(x + 0.0j)".

The trigonometric targets are derived mechanically from the canonical
relation catalog (same factor lists, same signs), not typed in from the
degenerate displays, and LIMIT_NAMES is the catalog's exchange ids.  How
the printed degenerate displays compare with these targets (the F-side
displays, H^{+-}F and FF, appear with numerator and denominator
interchanged, i.e. with u-v negated) is kept with the tests, as
tests/reference.py's TRIG_DISPLAY_AUDIT: the displays are not encoded
here, so no report can derive it.
"""

from __future__ import annotations

import functools
import random

from mpmath import mp
from mpmath.libmp import from_int, mpf_div, round_nearest
from mpmath.libmp.libelefun import cos_sin_fixed, pi_fixed

from .errors import DomainError, PoleError, StructuralError
from .relations import relation_catalog, theta_bases
from .scalars import workdps
from .theta import StructureFunctionPoint

EPSILON_LADDER = (0.1, 0.05, 0.025, 0.0125)

_SINE_GUARD_BITS = 20  # the sine target's bits beyond the working precision's
                       # and the pole floor's (trig_structure_function)


def eta_prime(eta, hbar, c):
    """Solve 1/eta' - 1/eta = hbar*c for eta'."""
    eta = mp.mpf(eta)
    if eta == 0:
        raise DomainError("eta must be nonzero")
    denom = 1 / eta + mp.mpf(hbar) * mp.mpf(c)
    if denom == 0:
        raise DomainError("1/eta + hbar*c vanishes; eta' undefined")
    return 1 / denom


def _etas(eta, hbar, c):
    """The sine scale of each theta base: eta on q^2, eta' on qt^2."""
    return {"q2": mp.mpf(eta), "qt2": eta_prime(eta, hbar, c)}


# the canonical exchange structure functions, the only ones with limits
_STRUCTURE_FUNCTIONS = {rel.rel_id: rel.structure_function
                        for rel in relation_catalog() if rel.kind == "exchange"}

LIMIT_NAMES = tuple(_STRUCTURE_FUNCTIONS)  # in catalog order


def _structure_function(name):
    if name not in _STRUCTURE_FUNCTIONS:
        raise StructuralError("%r is not an exchange relation; no "
                              "structure-function limit" % (name,))
    return _STRUCTURE_FUNCTIONS[name]


def _on_real_line(u_minus_v):
    """u-v as an mpf at the working precision; DomainError off the real line."""
    s = mp.mpc(u_minus_v)
    if s.imag:
        raise DomainError("need a real u - v, got %s" % (u_minus_v,))
    return s.real


def _degenerate_structure_function(name, u_minus_v, hbar, c, digits, eta=None):
    # sign * prod over the canonical factors of g(u-v - a*hbar)**power, with
    # g = sin(2 pi eta .) (eta' on base qt^2; _sine_ratio) or, for eta=None,
    # the identity, in mpf at the real u-v
    f = _structure_function(name)
    with workdps(digits + 10):
        s = _on_real_line(u_minus_v)
        hb = mp.mpf(hbar)
        if eta is not None:
            return _sine_ratio(f, s, hb, c, digits, _etas(eta, hbar, c))
        acc = mp.mpf(f.sign)
        floor = mp.mpf(10) ** (2 - digits)
        for tf in f.factors:
            val = s - (tf.k0 + tf.k1 * c) * hb / 2
            if abs(val) < floor:
                raise PoleError("rational pole or zero", factor=tf)
            acc = acc * val if tf.power == 1 else acc / val
        return acc


def _sine_ratio(f, s, hb, c, digits, etas):
    # the trig target of f in fixed point at wp (trig_structure_function)
    if not isinstance(c, int):
        raise StructuralError("need an integer level c, got %r" % (c,))
    up, down = 10 ** max(2 - digits, 0), 10 ** max(digits - 2, 0)  # the floor
    wp = mp.prec + down.bit_length() + _SINE_GUARD_BITS
    floor = -(-(up << wp) // down)  # |sine| < floor 2^-wp <=> |sine| < 10^(2-digits)
    two_pi, s, hb = pi_fixed(wp + 1), mp.to_fixed(s, wp), mp.to_fixed(hb, wp)
    phases = {}  # base -> (e^(i theta), [P^0, P^1, ..]), P = e^(i delta)
    for base in dict.fromkeys(tf.base for tf in f.factors):
        scale = (two_pi * mp.to_fixed(etas[base], wp)) >> wp
        phases[base] = cos_sin_fixed((scale * s) >> wp, wp), [
            (1 << wp, 0), cos_sin_fixed((scale * hb) >> wp + 1, wp)]
    num, den = f.sign, 1
    for tf in f.factors:
        k = tf.k0 + tf.k1 * c
        (er, ei), powers = phases[tf.base]
        for _ in range(len(powers), abs(k) + 1):  # P^n = P^(n-1) P
            (ar, ai), (pr, pi) = powers[-1], powers[1]
            powers.append(((ar * pr - ai * pi) >> wp, (ar * pi + ai * pr) >> wp))
        qr, qi = powers[abs(k)]
        # sin(theta - k delta) = Im(e^(i theta) conj(P)^k), P^-n = conj(P^n)
        sine = (ei * qr - er * (qi if k >= 0 else -qi)) >> wp
        if abs(sine) < floor:
            raise PoleError("sine pole or zero", factor=tf)
        if tf.power == 1:
            num *= sine
        else:
            den *= sine
    # as many sines on each side (StructureFunction), so their 2^wp cancel
    return mp.make_mpf(mpf_div(from_int(num), from_int(den), mp.prec, round_nearest))


def trig_structure_function(name, u_minus_v, *, eta, hbar, c=1, digits=30):
    """The sine-ratio structure function of the once-degenerate algebra.

    Derived factor-by-factor from the canonical elliptic catalog: a theta
    factor with argument x*p^a on base q^2 becomes sin(2 pi eta (u-v-a*hbar)),
    with eta' replacing eta on base qt^2; the overall sign survives and the
    p^{+-1} prefactor drops (p -> 1).  u-v is real (DomainError otherwise)
    and c an integer level (StructuralError otherwise).  A factor, numerator
    or denominator, within 10^(2 - digits) of zero raises PoleError carrying
    it.

    The sines run in fixed point at wp, the working precision (digits + 10)
    plus the bits of 10^(digits - 2) plus _SINE_GUARD_BITS.  Per base, with
    eta_b its eta (an mpf at the working precision, eta' from eta_prime),
    theta = 2 pi eta_b (u-v) and delta = 2 pi eta_b hbar / 2 are integer
    products of 2 pi, eta_b, u-v and hbar in fixed point, and e^(i theta)
    and P = e^(i delta) come from mpmath's cos_sin_fixed, once each.  A
    factor's sine sin(theta - k delta), k = k0 + k1 c, is the imaginary part
    of e^(i theta) conj(P)^k (P^-n = conj(P^n), P^n = P^(n-1) P in integer
    products), and the pole test is one integer comparison.  Numerator and
    denominator, the sign times their sines, are exact integer products,
    divided once and rounded to the working precision.
    Error budget, with u the working precision's unit.  A sine is within a
    few dozen 2^-wp (1 + |k|) (1 + |eta_b|) (1 + |u-v| + |hbar|) of the
    exact sine at the given u-v, hbar and eta_b: the truncations of 2 pi,
    eta_b, u-v, hbar, theta, delta and the phases, and |k| products for
    P^k.  Past the pole floor, |sine| >= 10^(2 - digits), that is below
    u 2^-14 (1 + |k|) (1 + |eta_b|) (1 + |u-v| + |hbar|) relatively, so a
    factor at the floor keeps the working precision.  The value is within
    the sum of its factors' relative errors, plus u for the quotient, of
    the exact ratio.  (eta' itself is rounded once, at u, by eta_prime.)
    """
    return _degenerate_structure_function(name, u_minus_v, hbar, c, digits, eta)


def rational_structure_function(name, u_minus_v, hbar, c=1, digits=30):
    """The eta -> 0 limit: each sine replaced by its affine argument.

    u-v is real (DomainError otherwise).  A factor, numerator or
    denominator, within 10^(2 - digits) of zero raises PoleError carrying it.
    """
    return _degenerate_structure_function(name, u_minus_v, hbar, c, digits)


@functools.lru_cache(maxsize=1, typed=True)
def _elliptic_points(u_minus_v, eta, hbar, c, digits):
    """limit_check's elliptic side, a pure function of its inputs.

    For each eps of EPSILON_LADDER, a theta.StructureFunctionPoint at
    x = e^{-eps(u-v)}, on p = e^{eps hbar} and the nomes B of the convention
    above, built at the working precision digits + 10, each on its own.  A
    point's value(f) is f's value there; a factor at a theta zero (within
    about theta.POLE_TOL |ln B| / (2 pi) of it, relatively, on its nome B)
    raises PoleError carrying the first such factor of f.  u-v is real (else
    DomainError), so x is real and positive, the one kind of point the
    transform takes.  Only the last inputs' points are kept.
    """
    with workdps(digits + 10):
        s = _on_real_line(u_minus_v)
        points = []
        for eps in map(mp.mpf, EPSILON_LADDER):
            p = mp.e ** (eps * mp.mpf(hbar))
            bases = {k: 1 / mp.sqrt(mp.sqrt(b)) for k, b in theta_bases(
                mp.exp(eps / mp.mpf(eta)), p, c).items()}
            points.append(StructureFunctionPoint(p, c, bases, mp.e ** (-eps * s)))
        return tuple(points)


def limit_check(name, u_minus_v, *, eta, hbar, c=1, digits=30, target_name=None):
    """Convergence of the elliptic structure function to its trig limit.

    Evaluates the canonical elliptic structure function at each epsilon of
    EPSILON_LADDER, under the documented nome convention, against the
    trigonometric target (by default the same relation; passing a different
    target_name gives a negative control).  Reports the error sequence,
    empirical convergence orders from successive ratios, and the measured
    elliptic/trig prefactor ratios.  The elliptic side (_elliptic_points) is
    shared with the checks before and after this one at the same
    (u-v, eta, hbar, c, digits), and is evaluated before the target, so a
    zero both sides share raises PoleError carrying the elliptic factor.  The
    trig target is never shared.  u-v is real (DomainError otherwise).
    """
    f = _structure_function(name)
    with workdps(digits + 10):
        values = [point.value(f)
                  for point in _elliptic_points(u_minus_v, eta, hbar, c, digits)]
        target = trig_structure_function(
            target_name or name, u_minus_v, eta=eta, hbar=hbar, c=c, digits=digits
        )
        errors = [float(abs(value - target)) for value in values]
        # each ratio in the report's format, that of an mpc with a zero
        # imaginary part, "(x + 0.0j)", printed from the real quotient
        ratios = ["(%s + 0.0j)" % mp.nstr(value / target, 12) for value in values]
        # one log per distinct ladder step (log 2 on the halving ladder)
        steps = [mp.mpf(x0) / mp.mpf(x1)
                 for x0, x1 in zip(EPSILON_LADDER, EPSILON_LADDER[1:])]
        log_steps = {step: mp.log(step) for step in set(steps)}
        orders = [float(mp.log(e0 / e1) / log_steps[step]) if e1 else float("inf")
                  for e0, e1, step in zip(errors, errors[1:], steps)]
        monotone = all(a > b for a, b in zip(errors, errors[1:]))
        # a degenerate-to-exact case (e.g. the H blocks at c = 0 cancel to 1
        # on both sides) has an identically-vanishing error ladder
        floor = float(mp.mpf(10) ** (5 - digits))
        exact = all(e <= floor for e in errors)
        if exact:
            verdict = "pass"
        else:
            verdict = "pass" if monotone and orders and min(orders) >= 0.8 else "fail"
    return {
        "check": "scaling-limit",
        "name": name,
        "target": target_name or name,
        "params": {
            "eta": float(eta),
            "hbar": float(hbar),
            "c": c,
            "u_minus_v": str(u_minus_v),
            "digits": digits,
        },
        "nome_convention": (
            "theta bases exp(-eps/(2*eta)) and exp(-eps/(2*eta')); "
            "x = exp(-eps*(u-v)), p = exp(eps*hbar)"
        ),
        "epsilons": list(EPSILON_LADDER),
        "errors": errors,
        "empirical_orders": orders,
        "prefactor_log": {
            "ratios": ratios,
            "note": "measured elliptic/trig ratio per epsilon; drift toward 1 "
                    "means no residual constant survives the modular bridge",
        },
        "monotone": monotone,
        "exact": exact,
        "verdict": verdict,
    }


def sample_limit_inputs(seed, count):
    """Pole-guarded random (u-v, eta, hbar) samples for limit checks.

    Keeps u-v away from every affine zero s = a*hbar of every factor of
    every exchange relation; the window sizes make the k != 0 sine zeros
    unreachable, so this single guard covers both sides of the comparison.
    """
    shifts = {tf.k0 + tf.k1 for f in _STRUCTURE_FUNCTIONS.values() for tf in f.factors}
    rng = random.Random(("limit-samples", seed, count, 1).__repr__())
    samples = []
    for _ in range(count):
        for _attempt in range(50):
            eta = rng.uniform(0.2, 0.35)
            hbar = rng.uniform(0.08, 0.18)
            s = rng.uniform(0.25, 0.65)
            if min(abs(s - k * hbar / 2) for k in shifts) >= 0.04:
                samples.append({"u_minus_v": s, "eta": eta, "hbar": hbar})
                break
        else:
            raise DomainError("could not find a pole-free sample point")
    return samples
