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
is computed apart on every call.  It and the rational target run in mpf,
where each step rounds as its mpc form would with a zero imaginary part
(mpc division rounds through 10 more bits, so a quotient can differ by an
ulp).  Both return an mpc, as value does.

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

from .errors import DomainError, PoleError, StructuralError
from .relations import relation_catalog, theta_bases
from .scalars import workdps
from .theta import StructureFunctionPoint

EPSILON_LADDER = (0.1, 0.05, 0.025, 0.0125)

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
    # g = sin(2 pi eta .) (eta' on base qt^2) or, for eta=None, the identity;
    # in mpf at the real u-v, returned as an mpc
    f = _structure_function(name)
    with workdps(digits + 10):
        s = _on_real_line(u_minus_v)
        hb = mp.mpf(hbar)
        if eta is not None:
            scales = {k: 2 * mp.pi * e for k, e in _etas(eta, hbar, c).items()}
        acc = mp.mpf(f.sign)
        floor = mp.mpf(10) ** (2 - digits)
        for tf in f.factors:
            val = s - (tf.k0 + tf.k1 * c) * hb / 2
            if eta is not None:
                val = mp.sin(scales[tf.base] * val)
            if abs(val) < floor:
                raise PoleError("%s pole or zero"
                                % ("rational" if eta is None else "sine"), factor=tf)
            acc = acc * val if tf.power == 1 else acc / val
        return mp.mpc(acc)


def trig_structure_function(name, u_minus_v, *, eta, hbar, c=1, digits=30):
    """The sine-ratio structure function of the once-degenerate algebra.

    Derived factor-by-factor from the canonical elliptic catalog: a theta
    factor with argument x*p^a on base q^2 becomes sin(2 pi eta (u-v-a*hbar)),
    with eta' replacing eta on base qt^2; the overall sign survives and the
    p^{+-1} prefactor drops (p -> 1).  u-v is real (DomainError otherwise).
    A factor, numerator or denominator, within 10^(2 - digits) of zero
    raises PoleError carrying it.
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
        ratios = [mp.nstr(value / target, 12) for value in values]
        orders = []
        steps = zip(EPSILON_LADDER, EPSILON_LADDER[1:])
        for (e0, e1), (x0, x1) in zip(zip(errors, errors[1:]), steps):
            if e1 == 0:
                orders.append(float("inf"))
            else:
                orders.append(float(mp.log(e0 / e1) / mp.log(mp.mpf(x0) / mp.mpf(x1))))
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
