"""Numeric q-Pochhammer products and Jacobi theta functions.

The multiplicative theta function used everywhere in this package is

    theta_q(z) = (z | q)_inf (q/z | q)_inf (q | q)_inf ,

with (a | q)_inf = prod_{n>=0} (1 - a q^n).  Every nome is real, 0 < q < 1,
as the deformation's are (DomainError otherwise).  It satisfies

    theta_q(q z) = -z^{-1} theta_q(z),      theta_q(q/z) = theta_q(z),

and vanishes exactly at z in q**Z.  Two routes evaluate it.  At a
deformation point a nome B is q^2 or (q p)^2 and each argument c x^{+-1}
has an exact c, so the exchange checks split every theta into two kernel
factors (c x | B) and (B/c x^-1 | B), (B | B) cancelling in a balanced
ratio, and take them in one ``QPochProduct`` with the kernels'
(relations._exchange_ratio).  The scaling limits' nomes tend to 1, where
the direct product would need ~1/(1-q) factors; there, and only there,
``StructureFunctionPoint`` takes the Jacobi imaginary transformation
(Whittaker-Watson ch. 21), at real points z = e^L > 0 only.  With
q = e^(-2 pi t), so tau = i t, it maps theta_q onto the transformed nome
q' = e^(-2 pi / t), real in (0, 1) too, and on the real line it is one
real product,

    theta_q(e^L) = -2 e^(Re E) sin(psi) (q' | q')_inf |(q' e^(2 i psi) | q')_inf|^2,

    psi = L / (2 t),   Re E = -pi/(4 t) + pi t/4 - log(t)/2 + L/2 + L^2/(4 pi t):

the transformed argument z' = e^(L / tau) = e^(-2 i psi) is on the unit
circle, so (z' | q')(q'/z' | q') = (1 - z') |(q' z' | q')|^2, and the
prefactor's phase e^(i (pi/2 + psi)) turns 1 - z' into -2 sin(psi).  As
q -> 1, q' -> 0 and a few terms suffice.  Built at one point x > 0, it
takes the transform in two steps there: per nome, when it is built
(``_real_nome``: t, the exponent's coefficients in closed form, q' and
(q' | q')_inf; then the unit-modulus X = e^(i log x / (2 t)) and
P = e^(i log p / (4 t)) in fixed point, ``_expj_fixed``), and per factor,
once each (``_real_factor``: the product at e^(i psi) = X^(+-1) P^k,
formed in fixed point, k twice the p-shift, X^-1 = conj(X)).  Each
structure function's exponents sum to a quadratic in log x, formed in
fixed point from exact integer sums over its factors and each nome's real
coefficients; value leaves fixed point once, for one exp of it times the
quotient of its running products.

Kernels are products of q-Pochhammer factors (c x | b)^{+-1} with exact c
and 0 <= b < 1; ``QPochProduct`` prepares one whole for many x, each of
its two lists, at x and at 1/x, reduced to net powers by exact (c, b)
(``_net_factors``): each distinct factor's series is summed once and
multiplied in once per unit of its net power, and a factor and its inverse
at one point, as a kernel factor and
the same split-theta factor of an exchange ratio, cancel unevaluated.  It and
the transform sum each factor by Euler's series (Gasper-Rahman, (1.3.16)),

    (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n ,

once shift steps (y | b) = (1 - y)(b y | b) have brought |y| to 1 or less
(``_qpoch_series``), with each distinct base's coefficients prepared once
(``_euler_base``), at two real products a term (``_real_series``).  Its terms
fall like b^(n^2/2): at 50 digits it takes 15 terms at b = 4/25 and 26 at
9/16, where the product takes 77 and 242 factors, and loses at most 28 and 34
bits.  A base too near 1 for the series' error budget raises DomainError.
The tests hold the series to direct truncated products, which share no
loop with them.  Both evaluators work in fixed point: Python ints scaled by
2^wp, wp = working precision + 60 guard bits, as mpmath's own theta series
do.  A product multiplies into a caller's pair of running products,
numerator and denominator (``QPochProduct.multiply``), so the exchange
check takes its two kernels and its split thetas as one ratio in one pair,
which starts at the exact integers of its rational scalar; the transform
multiplies into a pair of its own (``StructureFunctionPoint.value``).  No
evaluator takes another's prepared state.  Fixed point does not renormalize,
so a value's error is relative to the smallest running value of its pair.  A
transformed theta factor adds the rounding of e^(i psi) = X^(+-1) P^k, of X
and P at the working precision and in fixed point, over |sin(psi)|, and a
structure function that of its exponent's coefficients, at the working
precision and in fixed point (StructureFunctionPoint).

Each evaluator guards the poles by one integer test, |1 - y|^2 < POLE_TOL^2
on the base's tol2 (``_euler_base``), and raises PoleError carrying the
kernel or theta factor.  ``_qpoch_series`` takes it on the values it
already sums (a y within POLE_TOL of 1 puts the factor's argument that near
a zero b^-k of (y | b)).  A split theta's zeros are its two kernel
factors', so they are guarded within POLE_TOL relatively.  A cancelled
pair's zero is no zero of the product, and is not guarded.  After the
transform a zero of theta_q is z' = e^(2 i psi) = 1, where the test is
taken (``_real_factor``), so a transformed theta factor is a pole within
about POLE_TOL |ln q| / (2 pi) of a zero q^k, relatively.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpf_exp, mpf_mul, round_nearest

from .errors import DomainError, PoleError, StructuralError

__all__ = [
    "QPochProduct",
    "StructureFunctionPoint",
    "theta_terms_needed",
]

_MAX_TERMS = 200_000

POLE_TOL = 1e-6  # relative distance from a zero that counts as a pole

_GUARD_BITS = 60      # fixed-point bits beyond the working precision
_BUDGET_BITS = 55     # of them, the most Euler's series may lose (_euler_base)
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
    """prod (c x | b)_inf ** power / prod (c' / x | b')_inf ** power' over
    fixed factors at x and inverse factors at 1/x, prepared for many x.

    The factors are QPochFactor-like (c, b, power; b = 0 gives 1 - c x), as
    in a kernel or a split theta, with exact rational c and 0 <= b < 1.
    Preparation reduces each list to net powers by exact (c, b)
    (_net_factors): a factor and its inverse at the same point divide out
    exactly under any evaluator, so the pair is dropped unevaluated, and a
    net power +-n is one entry, its first factor of that sign with the count
    n.  It takes each distinct b of both
    lists' series (_euler_base) once, at wp (the precision
    in force, plus the guard bits).  multiply(acc, x) takes x as a
    fixed-point pair at wp, and 1/x = conj(x) 2^(2 wp) / |x|^2 from it by
    integer division where there are inverse factors, each c x or c' / x
    by integer division, and sums each entry's series (_qpoch_series),
    those at x first, into the caller's running products
    acc = {1: numerator, -1: denominator}, pairs at wp: a factor of power
    +-1 at x into acc[+-1], an inverse one into acc[-+1].  An entry of
    count n sums its series once and multiplies its shift steps and series
    value in n times, in the order n separate factors would, so its product
    is bit for bit theirs.  A factor whose
    series meets a pole (its argument within POLE_TOL, relatively, of a
    zero b^-k, k >= 0) raises PoleError carrying it, the first factor of
    its (c, b) with its net power's sign; a cancelled pair's zero is no zero
    of the product and raises nothing.  Error budget: each
    factor is within 2^(budget - wp) of its value, relatively, wherever no
    PoleError is raised (_qpoch_series); the budget is at most 34 bits, at
    the largest kernel base 9/16.  Each factor adds one truncation to its
    running product, relative to the smallest value that product takes,
    from the caller's start on.
    """

    def __init__(self, factors, inverse=()):
        self.wp = wp = mp.mp.prec + _GUARD_BITS
        bases = {}
        self._lists = [], []  # at x, at 1/x
        for fs, sign, prepared in zip((factors, inverse), (1, -1), self._lists):
            for f, count in _net_factors(fs):
                if f.b not in bases:
                    bases[f.b] = _euler_base(f.b, wp)
                prepared.append((f, sign * f.power, count, f.c.numerator,
                                 f.c.denominator, bases[f.b]))

    def multiply(self, acc, x):
        wp = self.wp
        points = [x]
        if self._lists[1]:  # 1/x = conj(x) 2^(2 wp) / |x|^2
            xr, xi = x
            s = xr * xr + xi * xi
            points.append(((xr << 2 * wp) // s, (-xi << 2 * wp) // s))
        for prepared, (xr, xi) in zip(self._lists, points):
            for f, side, count, n, d, base in prepared:
                y = (n * xr) // d, (n * xi) // d
                acc[side] = _qpoch_series(acc[side], (y,), base, wp, count)
                if acc[side] is None:
                    raise PoleError("factor pole or zero at %s"
                                    % _from_fixed((xr, xi), wp), factor=f)


def _net_factors(factors):
    """factors at one point reduced to net powers by their exact (c, b), in
    first-occurrence order: a (c, b) of net power +-n is (its first factor of
    that sign, n), and one of net power 0 is dropped."""
    net = {}  # (c, b) -> [net power, {power: first factor}]
    for f in factors:
        entry = net.setdefault((f.c, f.b), [0, {}])
        entry[0] += f.power
        entry[1].setdefault(f.power, f)
    return [(first[1 if n > 0 else -1], abs(n)) for n, first in net.values() if n]


class StructureFunctionPoint:
    """Structure functions at one real point x > 0 on fixed nomes, evaluated
    by the Jacobi transform: the scaling limits' route, for nomes near 1.
    The exchange checks split their thetas into kernel factors instead
    (relations._exchange_ratio); the tests hold the two routes equal.

    A structure function f is f.sign * p^f.p_exp times its factors
    theta_B(x^orient p^(k/2)) ** power, k = k0 + k1 c at the integer level c
    (StructuralError otherwise), in the shape of relations.StructureFunction
    and relations.ThetaFactor, on the nomes B = bases[factor.base], real
    mpf values {"q2": .., "qt2": ..} in (0, 1): the scaling limits' nomes,
    or relations.theta_bases(q, p, c) at a deformation point.  x is real,
    x > 0, and p > 0 (DomainError for a complex, zero or negative x).
    Construction takes l = log x and log p, and for every nome of bases the
    per-nome step (_real_nome; a nome that is not a real 0 < B < 1, or is
    below about e^-280, whose q' misses the series' budget, raises
    DomainError), its six exponent coefficients below, and the unit-modulus
    X = e^(i l / (2 t)) and P = e^(i log p / (4 t)) (_expj_fixed); l,
    log p, the coefficients, X and P are kept in fixed point at wp.

    Each factor is one real product (module docstring): with
    L = orient l + k lam, lam = log p / 2, and psi = L / (2 t),
    theta_B = -2 e^(Re E) sin(psi) (q' | q') |(q' e^(2 i psi) | q')|^2.
    value(f) takes each factor's key (base, orient, k; equal for factors
    that share a theta) and, on first use at this point, its step
    (_real_factor) at e^(i psi) = X^orient P^k, formed in integers (P^n by
    integer products; P^-n = conj(P^n) and X^-1 = conj(X), as |P| = |X| = 1).
    With, on each nome, the exact integer sums over f's factors
    S0 = sum power, S1 = sum power k, S2 = sum power k^2,
    S3 = sum power orient and S4 = sum power orient k (_exponent), the
    factors' Re E sum to A + B l + C l^2: each nome adds
    S0 a + S1 lam / 2 + S2 kappa lam^2 to A, S3 / 2 + 2 S4 kappa lam to B
    and S0 kappa to C, with a = -pi / (4 t) + pi t / 4 - log(t) / 2 and
    kappa = 1 / (4 pi t), and A has p_exp log p.  value forms A, B and C as
    integer dot products of the sums with the coefficients, and
    E = A + l (B + l C) in fixed point.  It multiplies the steps into a
    real fixed-point numerator and denominator at wp and divides them once
    in integers, shifted to keep wp significant bits however small or large
    the quotient is.  It then leaves fixed point once: sign times exp(E)
    times the quotient, rounded to the working precision, as an mpc with a
    zero imaginary part.  It raises PoleError carrying f's first factor at
    a theta zero, where the step is None: within about
    POLE_TOL |ln B| / (2 pi) of it, relatively.  All of it runs at the
    working precision in force at construction (wp adds the guard bits to
    it), so a caller enters it once.
    Error budget, with u the working precision's unit.  psi's phase
    e^(i psi) is within a few u (1 + |l / t| + |k lam / t|) of its value,
    as X and P each round once, after their arguments, and the fixed point
    adds a few 2^-wp (|k| + 1); sin(psi) is its imaginary part, so a step
    is off by that over |sin psi| relatively, at most 2 / POLE_TOL times it
    wherever a step returns a value (|1 - e^(2 i psi)| = 2 |sin psi|).
    (q' e^(2 i psi) | q') sums within _qpoch_series's budget at |y| = q'
    (q' <= 0.017 for nomes 6.4e-5 and up), and each step adds one
    truncation to its running product, relative to the smallest value of
    that product.  The exponent's error is the value's relative error.  Its
    coefficients, l and log p are each rounded at the working precision and
    again to 2^-wp; the integer sums add nothing, and the two products by l
    add 2^-wp each.  So it is a few u times T = |p_exp log p| + the sum over
    nomes of |S0 a| + |S1 lam| / 2 + |kappa lam^2 S2| + |l| (|S3| / 2
    + 2 |kappa lam S4|) + |kappa S0| l^2, plus a few 2^-wp (1 + |l|)^2 times
    the sum of the |S|; the factors' own exponents cancel exactly in the
    sums.  The shifted quotient is within a few 2^-wp of the running
    products' ratio, relatively, and exp(E) and its product with the
    quotient round once each, at u.
    """

    def __init__(self, p, c, bases, x):
        if not isinstance(c, int):
            raise StructuralError("need an integer level c, got %r" % (c,))
        x = mp.mpmathify(x)
        if not (isinstance(x, mp.mpf) and x > 0):
            raise DomainError("need a real point x > 0, got %s" % x)
        self.c = c
        self.wp = wp = mp.mp.prec + _GUARD_BITS
        log_p, log_x = mp.log(p), mp.log(x)
        self._log_p, self._log_x = mp.mp.to_fixed(log_p, wp), mp.mp.to_fixed(log_x, wp)
        lam = log_p / 2
        # base name -> (per-nome step, coefficients, X, [P^0, P^1, ..])
        self._nomes = {}
        for name, q in bases.items():
            nome = _real_nome(q, wp)
            t, a, kappa = nome[:3]
            # a, lam / 2, kappa lam^2 (A); 1 / 2, 2 kappa lam (B); kappa (C)
            coeffs = tuple(mp.mp.to_fixed(v, wp) for v in (
                a, lam / 2, kappa * lam * lam, mp.mpf(0.5), 2 * kappa * lam, kappa))
            self._nomes[name] = nome, coeffs, _expj_fixed(log_x / (2 * t), wp), [
                (1 << wp, 0), _expj_fixed(lam / (2 * t), wp)]
        self._steps = {}  # factor key -> step, None at a theta zero

    def _exponent(self, f):
        """f's factor keys, and per base the integer sums S0..S4 of power
        times 1, k, k^2, orient and orient k over its factors there."""
        keys, sums = [], {}
        for tf in f.factors:
            k = tf.k0 + tf.k1 * self.c
            keys.append((tf.base, tf.orient, k))
            t = sums.setdefault(tf.base, [0] * 5)
            for i, v in enumerate((1, k, k * k, tf.orient, tf.orient * k)):
                t[i] += tf.power * v
        return keys, sums

    def value(self, f):
        wp = self.wp
        keys, sums = self._exponent(f)
        e = [f.p_exp * self._log_p, 0, 0]  # A, B, C of the exponent in fixed point
        for name, t in sums.items():
            for i, n, v in zip((0, 0, 0, 1, 1, 2), t + t[:1], self._nomes[name][1]):
                e[i] += n * v
        acc = {1: 1 << wp, -1: 1 << wp}
        for tf, key in zip(f.factors, keys):
            if key not in self._steps:
                name, orient, k = key
                nome, _, (xr, xi), powers = self._nomes[name]
                for _ in range(len(powers), abs(k) + 1):  # P^n = P^(n-1) P
                    (ar, ai), (pr, pi) = powers[-1], powers[1]
                    powers.append(((ar * pr - ai * pi) >> wp, (ar * pi + ai * pr) >> wp))
                pr, pi = powers[abs(k)]
                pi, xi = pi if k >= 0 else -pi, orient * xi  # conj(P^n), conj(X)
                self._steps[key] = _real_factor(
                    ((xr * pr - xi * pi) >> wp, (xr * pi + xi * pr) >> wp), nome, wp)
            step = self._steps[key]
            if step is None:
                raise PoleError("structure function pole or zero", factor=tf)
            acc[tf.power] = (acc[tf.power] * step) >> wp
        a, b, c = e
        lx = self._log_x
        ex = a + ((lx * (b + ((lx * c) >> wp))) >> wp)  # E = A + l (B + l C)
        # sign * numerator / denominator, scaled by 2^sh to keep wp bits
        n, d = f.sign * acc[1], acc[-1]
        sh = wp + d.bit_length() - n.bit_length()
        n = (n << sh) // d if sh >= 0 else n // (d << -sh)
        prec = mp.mp.prec
        v = mpf_mul(mpf_exp(from_man_exp(ex, -wp), prec, round_nearest),
                    from_man_exp(n, -sh), prec, round_nearest)
        return mp.mp.make_mpc((v, fzero))


def _real_nome(q, wp):
    """The per-nome step of the transform, as the tuple StructureFunctionPoint
    and _real_factor take: (t, a, kappa, base, (q' | q')).

    q is a real nome, an mpf with 0 < q < 1, else DomainError.  With
    t = -log q / (2 pi) (tau = i t): a = -pi / (4 t) + pi t / 4 - log(t) / 2
    and kappa = 1 / (4 pi t), the exponent's coefficients; the real
    q' = e^(-2 pi / t) prepared as a base of the series (_euler_base); and
    (q' | q')_inf in fixed point at wp, never at a pole: 1 - q' > 0.13.
    """
    if not (isinstance(q, mp.mpf) and 0 < q < 1):
        raise DomainError("need a real nome 0 < q < 1, got %s" % q)
    t = -mp.log(q) / (2 * mp.pi)
    base = _euler_base(mp.exp(-2 * mp.pi / t), wp)
    b, bt = base[:2]
    return (t, mp.pi * (t - 1 / t) / 4 - mp.log(t) / 2, 1 / (4 * mp.pi * t), base,
            _qpoch_series((1 << wp, 0), ((b >> bt - wp, 0),), base, wp)[0])


def _real_factor(w, nome, wp):
    """The per-factor step: -2 sin(psi) (q' | q') |(q' z' | q')|^2 at
    w = e^(i psi), a fixed-point pair at wp (rounded as the evaluator's
    budget states), and z' = w^2, as a fixed-point int at wp, on the real
    q'; or None at a theta zero, where |1 - z'|^2 < tol2, the pole guard
    of _qpoch_series on the base's tol2.

    q' z' is formed from q''s mantissa, so it keeps q''s relative precision
    however small q' is.
    """
    base, qq = nome[3:]
    b, t, _, tol2 = base
    wr, wi = w
    one = 1 << wp
    zr, zi = (wr * wr - wi * wi) >> wp, (2 * wr * wi) >> wp
    if (one - zr) ** 2 + zi * zi < tol2:
        return None
    sr, si = _qpoch_series((one, 0), (((b * zr) >> t, (b * zi) >> t),), base, wp)
    return (-2 * wi * ((qq * ((sr * sr + si * si) >> wp)) >> wp)) >> wp


def _expj_fixed(phi, wp):
    """e^(i phi), phi real, as a fixed-point pair at wp."""
    return tuple(mp.mp.to_fixed(v, wp) for v in mp.cos_sin(phi))


def _euler_base(b, wp):
    """A base b prepared for _qpoch_series: (b, t, coeffs, tol2).

    b is real with 0 <= b < 1: a Fraction, or an mpf b > 0; DomainError
    otherwise.  The tuple holds b as an integer mantissa over 2^t, of about
    wp + _COEF_BITS bits, rounded once (exact for b = 0).  The
    coefficients are Euler's a_n = (-1)^n b^(n(n-1)/2) / (b | b)_n for
    n < N, in fixed point at wp, highest degree first: from the recursion
    a_n = -a_(n-1) b^(n-1) / (1 - b^n) at wp + _COEF_BITS bits, each
    rounded once.  N and the budget come from
    |a_n| = b^(n(n-1)/2) / (b; b)_n, in floats: N is the first n with
    b^n < 1/2 and |a_n| below 2^-wp.  The bits the series may lose,
    log2(N (N + 1) / 2 (-1; b)_inf / (POLE_TOL (b; b)_inf))
    (_qpoch_series), must fit in _BUDGET_BITS, else DomainError: b up to
    about 0.875 fits at 50 digits.  tol2 is the pole guard's bound,
    POLE_TOL^2 scaled by 2^(2 wp) from POLE_TOL's exact binary value.
    """
    W = wp + _COEF_BITS
    tol2 = int((Fraction(POLE_TOL) * 2 ** wp) ** 2)
    if isinstance(b, Fraction) and b >= 0:
        if not b:
            one = 1 << wp
            return 0, 0, (-one, one), tol2
        u, v = b.numerator, b.denominator
        s = max(v.bit_length() - u.bit_length(), 0)
        t = W + s
        b = (u << t) // v
    elif isinstance(b, mp.mpf) and b > 0:
        t = W - mp.mag(b)
        b = mp.mp.to_fixed(b, t)
    else:
        raise DomainError("need a real base 0 <= b < 1, got %s" % b)
    lb = math.log2(b) - t  # log2 b
    if not lb < 0:
        raise DomainError("need b < 1, got b = %s" % 2 ** lb)
    ab = bk = 2 ** lb  # b and b^n in floats (0 below their range)
    log_poch = 0.0     # log2 (b; b)_n
    log_neg = 1.0      # log2 (-1; b)_n
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
    N = N or n
    budget = math.log2(N * (N + 1) / 2) + log_neg - log_poch - math.log2(POLE_TOL)
    if budget > _BUDGET_BITS:
        raise DomainError("the base b = %.5g needs %.1f bits of the series' "
                          "budget of %d" % (ab, budget, _BUDGET_BITS))
    one = 1 << W
    bn = a = one  # b^n and a_n
    coeffs = [1 << wp]
    for _ in range(1, N):
        x = (a * bn) >> W
        bn = (bn * b) >> t
        a = (-x << W) // (one - bn)
        coeffs.append(a >> _COEF_BITS)
    return b, t, tuple(reversed(coeffs)), tol2


def _qpoch_series(p, ys, base, wp, count=1):
    """p * prod over y in ys of (y | b)_inf ** count, in complex fixed point
    at wp, for a real base b from _euler_base; None where a y is at a pole.

    Shift step: while |y| > 1, p *= 1 - y and y *= b, as
    (y | b)_inf = (1 - y) (b y | b)_inf; y *= b takes b's mantissa, so it
    is relative to b however small b is.  Series step: then |y| <= 1, and
    Euler's series (Gasper-Rahman, Basic Hypergeometric Series, (1.3.16))
        (y | b)_inf = sum_n (-1)^n b^(n(n-1)/2) y^n / (b | b)_n
    is summed to n = N - 1 by _real_series, on the real coefficients.
    Pole guard: each y the shift steps meet, and the first y with |y| <= 1,
    is tested as |1 - y|^2 < POLE_TOL^2, in integers against the base's
    tol2.  |1 - b^k y| < POLE_TOL puts y within POLE_TOL (relatively) of the
    zero b^-k of (y | b), and the series returns None there.  Past the first
    |y| <= 1 no zero is near: |b^k y| <= b < 1 - POLE_TOL for k >= 1.
    Error budget.  Each floor in _real_series moves a coefficient a_n, and
    so the sum, by at most 2^-wp (|y| <= 1); s, rounded once, adds at most
    2^-wp |c_(n+2)| at step n, |c_n| <= sum_(k>=n) |a_k| |U_(k-n)(y)| with
    U_j(y) = sum_i y^i conj(y)^(j-i), |U_j| <= j + 1.  With y's rounding
    that is at most about N (N + 1) / 2 2^-wp (-1; b)_inf absolutely, as
    sum_n |a_n| = (-1; b)_inf; the dropped tail adds at most
    2^-wp (2 - b) / (1 - b) (past N, |a_n| falls by 1/(2 - b) or more).
    That is relative to |(y | b)_inf| >= |1 - y| (b; b)_inf, and the
    guard enforces |1 - y| >= POLE_TOL.  So the series loses at most
    log2(N (N + 1) / 2 (-1; b)_inf / (POLE_TOL (b; b)_inf)) of the 60
    guard bits, which _euler_base keeps within _BUDGET_BITS = 55:
    8.5 + 20 + 5 at b = 9/16 (N = 26).  Each shift step adds one truncation
    to p, as the callers' running products do.  With count n, each y's
    shift factors 1 - y and series value multiply into p n times, in that
    order: p is bit for bit that of n separate equal ys, each y summed once.
    """
    b, t, coeffs, tol2 = base
    one = 1 << wp
    pr, pi = p
    for yr, yi in ys:
        shifts = []  # the factors 1 - y of the shift steps
        while True:
            tr = one - yr
            if tr * tr + yi * yi < tol2:
                return None
            s = yr * yr + yi * yi
            if s <= one * one:
                break
            shifts.append((tr, yi))
            yr, yi = (yr * b) >> t, (yi * b) >> t
        sr, si = _real_series(coeffs, yr, yi, s >> wp, wp)
        for _ in range(count):
            for tr, ti in shifts:
                pr, pi = (pr * tr + pi * ti) >> wp, (pi * tr - pr * ti) >> wp
            pr, pi = (pr * sr - pi * si) >> wp, (pr * si + pi * sr) >> wp
    return pr, pi


def _real_series(coeffs, yr, yi, s, wp):
    """sum_n a_n y^n, a_n real (coeffs, highest first), y = yr + i yi and
    s = |y|^2 in fixed point at wp, by Knuth's c_n = a_n + r c_(n+1) -
    s c_(n+2) with r = 2 Re y (TAOCP vol. 2, 4.6.4; y^2 = r y - s): the sum
    is a_0 + y c_1 - s c_2 = c_0 - conj(y) c_1."""
    r = 2 * yr
    c0 = c1 = 0
    for a in coeffs:
        c0, c1 = a + ((r * c0 - s * c1) >> wp), c0
    return c0 - ((yr * c1) >> wp), (yi * c1) >> wp


def _from_fixed(p, wp):
    """A fixed-point pair as an mpc, rounded to the working precision."""
    return mp.mpc(mp.mpf((p[0], -wp)), mp.mpf((p[1], -wp)))
