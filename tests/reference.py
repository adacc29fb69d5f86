"""References and helpers that only the tests use.

The references compute what a test checks the program against, apart from
the code under test.  The helpers evaluate through the program's own
structure-function evaluator, the Jacobi transform the limits suite runs,
at real points x > 0, and through direct products (theta_eval) elsewhere;
the exchange checks split their thetas into kernel factors instead, so for
them the helpers are a second route.
"""

import random
from fractions import Fraction

import mpmath as mp

from ospboson.degeneration import _SINE_GUARD_BITS, _etas, _structure_function
from ospboson.errors import DomainError, PoleError, StructuralError
from ospboson.relations import (
    RelationSpec,
    StructureFunction,
    ThetaFactor,
    _exchange_kernels,
    _sample_x,
    relation_catalog,
    theta_bases,
)
from ospboson.scalars import sample_annulus_point, to_mpf, workdps
from ospboson.theta import (
    _GUARD_BITS,
    _MAX_TERMS,
    StructureFunctionPoint,
    _from_fixed,
    theta_terms_needed,
)

# the first displays of the EE and FF relations, in mixed orientation: equal
# to the canonical forms by quasi-periodicity, which the tests check
EE_MIXED = StructureFunction(-1, 0, (
    ThetaFactor("q2", 1, -2, 0, 1), ThetaFactor("q2", -1, -1, 0, 1),
    ThetaFactor("q2", -1, -2, 0, -1), ThetaFactor("q2", 1, -1, 0, -1)))
FF_MIXED = StructureFunction(-1, 0, (
    ThetaFactor("qt2", 1, 2, 0, 1), ThetaFactor("qt2", -1, 1, 0, 1),
    ThetaFactor("qt2", -1, 2, 0, -1), ThetaFactor("qt2", 1, 1, 0, -1)))
# FF's display is the qtilde^2 block of the strict-text HH display
assert FF_MIXED.factors == tuple(
    tf for r in relation_catalog(mode="strict-text") if r.rel_id == "HH"
    for tf in r.structure_function.factors if tf.base == "qt2")

# how the printed degenerate displays compare with the mechanical limit of
# the canonical catalog (degeneration.trig_structure_function): "matches",
# or "reciprocal" for numerator and denominator swapped, i.e. u-v negated.
# The printed sine displays are not in the repository, so nothing derives it
TRIG_DISPLAY_AUDIT = {
    "H+E": "matches",
    "H-E": "matches",
    "H+F": "reciprocal",
    "H-F": "reciprocal",
    "HH": "matches",
    "H+H-": "matches",
    "EE": "matches",
    "FF": "reciprocal",
    # the 1/(2 hbar) of the EF display is normalization bookkeeping for the
    # additive delta, not derived; the relative sign of its two delta terms is
    # left unfixed by the source (the H^- -> -H^- rescaling freedom)
    "EF": "matches",
}


def mpc_to_str(value, digits):
    """An mpc as a decimal serialization with an explicit digits field: each
    part to digits significant digits, through mpmath's own mpc and nstr.

    The reference for scalars.fixed_to_str, which prints the same from a
    fixed-point pair without building the mpc.
    """
    with mp.workdps(digits):
        v = mp.mpc(value)
        return {"re": mp.nstr(v.real, digits), "im": mp.nstr(v.imag, digits), "digits": digits}


def _to_fixed(z, wp):
    """An mpc as a fixed-point pair scaled by 2^wp."""
    return mp.mp.to_fixed(z.real, wp), mp.mp.to_fixed(z.imag, wp)


def inverse_structure_function(f):
    """The structure function of the swapped relation: S'(x) = 1 / S(1/x).

    A(z)B(w) = S(w/z) B(w)A(z) is equivalent to B(z)A(w) = S'(w/z) A(w)B(z).
    """
    factors = tuple(
        ThetaFactor(tf.base, -tf.orient, tf.p_shift, tf.c_shift, -tf.power)
        for tf in f.factors
    )
    return StructureFunction(f.sign, -f.p_exp, factors)


def theta_shift(tf, c):
    """The p-exponent p_shift + c_shift c of a theta factor at level c, in
    Fraction arithmetic on its fields as written."""
    return tf.p_shift + tf.c_shift * c


def theta_argument(tf, x, p, c):
    """The argument x^orient p^(p_shift + c_shift c) of a theta factor, taken
    as written, factor by factor."""
    return x ** tf.orient * p ** theta_shift(tf, c)


def swapped_relation(rel):
    """The same exchange relation read right-to-left."""
    if rel.kind != "exchange":
        raise StructuralError("only exchange relations swap")
    return RelationSpec(
        rel.rel_id + "-swapped", "exchange", rel.right, rel.left,
        inverse_structure_function(rel.structure_function), rel.mode, rel.notes)


def exp_reference(coeffs):
    """Coefficients of exp of the jet c[0..N] (c[0] = 0), by the recurrence
    n*E_n = sum_{k=1..n} k*c_k*E_{n-k} in Fraction arithmetic throughout.

    The reference for TruncatedSeries.exp, which runs the same recurrence on
    integer numerators over a common denominator.
    """
    if coeffs[0] != 0:
        raise DomainError("exp requires zero constant term")
    a = [Fraction(c) for c in coeffs]
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for m in range(1, len(a)):
        s = Fraction(0)
        for k in range(1, m + 1):
            if a[k] != 0:
                s += k * a[k] * out[m - k]
        out[m] = s / m
    return out


def qpoch_eval(a, q, digits):
    """(a | q)_inf by direct product, truncated where |a| |q|^T and |q|^T
    are below 10^-(digits+10), or DomainError above the cap on T.

    The reference for the program's Euler series; it shares no loop with
    them.  a and q are converted once to fixed point, the T factors
    multiplied as complex multiply-and-shift, and the result rounded to the
    working precision once.
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
        a = mp.mpc(a)
        # |q|^T < 10^-(digits+10), and past the extra terms |a| |q|^n <= 1
        T = theta_terms_needed(abs(q), digits)
        if abs(a) > 1:
            T += int(mp.ceil(mp.log(abs(a)) / -mp.log(abs(q))))
        if T > _MAX_TERMS:
            raise DomainError("|a| = %s needs T = %d product terms, above the "
                              "cap of %d" % (mp.nstr(abs(a), 5), T, _MAX_TERMS))
        wp = mp.mp.prec + _GUARD_BITS
        one = 1 << wp
        qr, qi = _to_fixed(q, wp)
        fr, fi = _to_fixed(a, wp)
        pr, pi = one, 0
        for _ in range(T):
            # P *= 1 - f, then f *= q
            tr = one - fr
            pr, pi = (pr * tr + pi * fi) >> wp, (pi * tr - pr * fi) >> wp
            fr, fi = (fr * qr - fi * qi) >> wp, (fr * qi + fi * qr) >> wp
        return _from_fixed((pr, pi), wp)


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


def structure_function_value(f, x, p, c, bases, digits):
    """f at the one real point x > 0, through a StructureFunctionPoint built
    there."""
    with workdps(digits + 10):
        return StructureFunctionPoint(p, c, bases, x).value(f)


def direct_structure_function(f, x, p, c, bases, digits):
    """f at x, complex or real, by direct products: sign p^p_exp times each
    factor's theta_eval at its argument as written (theta_argument),
    multiplied and divided as mpc values.  Accurate as theta_eval, to nomes
    near 0.95; it raises no PoleError, and near a theta zero it loses what
    the zero's small value costs."""
    with workdps(digits + 10):
        acc = mp.mpc(f.sign) * p ** f.p_exp
        for tf in f.factors:
            v = theta_eval(theta_argument(tf, x, p, c), bases[tf.base], digits)
            acc = acc * v if tf.power == 1 else acc / v
        return acc


def mpc_modular_nome(q):
    """The Jacobi transform's per-nome quantities at a real nome 0 < q < 1,
    in mpc arithmetic at the working precision, as the complex transform
    took them: (1/tau, h, kappa, log C, q') with tau = log q / (2 pi i),
    tau' = -1/tau, h = (1 - 1/tau)/2, kappa = i / (4 pi tau),
    C = i (-i tau)^(-1/2) e^(i pi (tau' - tau)/4) and q' = e^(2 pi i tau').
    theta_q(z) = e^E (q' | q')(z' | q')(q'/z' | q') with z' = e^(log z / tau)
    and E = log C + log z (h + kappa log z).

    The reference for theta._real_nome's closed forms in t = -log q / (2 pi):
    tau = i t, so kappa = 1 / (4 pi t), Re h = 1/2, q' = e^(-2 pi / t) and
    Re log C = a = -pi / (4 t) + pi t / 4 - log(t) / 2."""
    two_pi_i = 2j * mp.pi
    tau = mp.log(q) / two_pi_i
    taup = -1 / tau
    log_c = 1j * mp.pi * (2 + taup - tau) / 4 - mp.log(-1j * tau) / 2
    inv_tau = -taup
    return (inv_tau, (1 - inv_tau) / 2, 1j / (4 * mp.pi * tau), log_c,
            mp.exp(two_pi_i * taup))


def mpc_exponent(f, x, p, c, bases):
    """A, B, C of f's transform prefactor exponent E = A + B l + C l^2,
    l = log x, summed in mpc at the working precision from the complex
    per-nome quantities (mpc_modular_nome), and the sum over its terms of
    |n v| |l|^deg (the exponent's error budget in units of the working
    precision, StructureFunctionPoint).

    The reference for StructureFunctionPoint.value's fixed-point exponent,
    which is its real part at a real x: the same integer sums S0..S4
    (_exponent), on each nome's coefficients times lam = log p / 2.
    """
    point = StructureFunctionPoint(p, c, bases, x)
    _, sums = point._exponent(f)
    log_p, l = mp.log(p), mp.log(x)
    lam = log_p / 2
    abc = [f.p_exp * log_p, 0, 0]
    budget = abs(abc[0])
    for name, t in sums.items():
        inv_tau, h, kappa, log_c, _ = mpc_modular_nome(bases[name])
        coeffs = log_c, h * lam, kappa * lam * lam, h, 2 * kappa * lam, kappa
        for i, n, v in zip((0, 0, 0, 1, 1, 2), t + t[:1], coeffs):
            if n:
                abc[i] += n * v
                budget += abs(n * v) * abs(l) ** i
    return abc, budget


def mp_structure_function_value(f, x, p, c, bases, digits):
    """f at the real x > 0 through the transform's own steps, with its
    exponent the real part of mpc_exponent's and its quotient in mpmath:
    sign times exp(Re (A + l (B + l C))) times numerator over denominator,
    each rounded to the working precision, from the same running products
    as StructureFunctionPoint.value.

    The reference for value's fixed-point exponent and its one crossing
    into mpmath, with its quotient shifted to keep wp significant bits."""
    with workdps(digits + 10):
        point = StructureFunctionPoint(p, c, bases, x)
        point.value(f)  # its steps; PoleError where value raises
        wp = point.wp
        keys, _ = point._exponent(f)
        acc = {1: 1 << wp, -1: 1 << wp}
        for tf, key in zip(f.factors, keys):
            acc[tf.power] = (acc[tf.power] * point._steps[key]) >> wp
        (a, b, cc), _ = mpc_exponent(f, x, p, c, bases)
        l = mp.log(x)
        return (f.sign * mp.exp(mp.re(a + l * (b + l * cc)))
                * mp.mpf((acc[1], -wp)) / mp.mpf((acc[-1], -wp)))


def mpc_rational_structure_function(name, u_minus_v, hbar, c, digits):
    """degeneration's rational target with every step in mpc, wherever u-v
    lies.

    The reference for the rational target's real-line evaluation in mpf."""
    f = _structure_function(name)
    with workdps(digits + 10):
        s = mp.mpc(u_minus_v)
        hb = mp.mpf(hbar)
        acc = mp.mpc(f.sign)
        floor = mp.mpf(10) ** (2 - digits)
        for tf in f.factors:
            val = s - (tf.k0 + tf.k1 * c) * hb / 2
            if abs(val) < floor:
                raise PoleError("rational pole or zero", factor=tf)
            acc = acc * val if tf.power == 1 else acc / val
        return acc


def mpf_trig_structure_function(name, u_minus_v, hbar, c, digits, eta):
    """degeneration's trig target in mpf at digits + 10 digits, one mp.sin a
    factor: sign times the product of sin(2 pi eta_b (u-v - k hbar / 2)) **
    power, eta_b from degeneration._etas, multiplied and divided in turn;
    PoleError carrying a factor whose sine is within 10^(2 - digits) of 0.

    The reference for trig_structure_function's fixed-point sines.  Its own
    error is trig_error_budget's second part: the rounding of k hbar / 2
    falls on u-v - k hbar / 2, so near a sine's zero at 0 this route loses
    what the cancellation costs, where the fixed-point one does not."""
    f = _structure_function(name)
    with workdps(digits + 10):
        s = mp.mpf(u_minus_v)
        hb = mp.mpf(hbar)
        scales = {k: 2 * mp.pi * e for k, e in _etas(eta, hbar, c).items()}
        acc = mp.mpf(f.sign)
        floor = mp.mpf(10) ** (2 - digits)
        for tf in f.factors:
            val = mp.sin(scales[tf.base] * (s - (tf.k0 + tf.k1 * c) * hb / 2))
            if abs(val) < floor:
                raise PoleError("sine pole or zero", factor=tf)
            acc = acc * val if tf.power == 1 else acc / val
        return acc


def trig_error_budget(name, u_minus_v, hbar, c, digits, eta):
    """The relative error budgets (program, reference) of
    trig_structure_function and of mpf_trig_structure_function at the same
    inputs and digits, each factor's sine taken at 2 digits + 40 digits; the
    two routes are within their sum of each other.

    The program's (trig_structure_function): 64 2^-wp (1 + |k|) (1 + |eta_b|)
    (1 + |u-v| + |hbar|) / |sine| a factor, plus u for the quotient.
    The reference's, a factor at arg = 2 pi eta_b (u-v - k hbar / 2): its
    argument is off by u (4 |arg| + |2 pi eta_b k hbar / 2|) (the roundings
    of 2 pi eta_b, k hbar, the difference and the product), which moves the
    sine by |cot arg| times that relatively, and its sine and its product
    or quotient round once each, at u."""
    f = _structure_function(name)
    with workdps(digits + 10):
        u = mp.mpf(2) ** -mp.mp.prec
        wp = mp.mp.prec + (10 ** max(digits - 2, 0)).bit_length() + _SINE_GUARD_BITS
        etas = _etas(eta, hbar, c)
        s, hb = mp.mpf(u_minus_v), mp.mpf(hbar)
    with workdps(2 * digits + 40):
        program, reference = u, 0
        for tf in f.factors:
            k, e = tf.k0 + tf.k1 * c, etas[tf.base]
            arg = 2 * mp.pi * e * (s - k * hb / 2)
            sine = mp.sin(arg)
            program += (64 * mp.mpf(2) ** -wp * (1 + abs(k)) * (1 + abs(e))
                        * (1 + abs(s) + abs(hb)) / abs(sine))
            reference += u * (abs(mp.cos(arg) / sine)
                              * (4 * abs(arg) + abs(mp.pi * e * k * hb)) + 2)
        return program, reference


class _Theta:
    """theta_q2(x) as a structure function: one numerator factor."""

    sign = 1
    p_exp = 0
    factors = (ThetaFactor("q2", 1, 0, 0, 1),)


def one_factor_theta(z, q, digits):
    """theta_q(z) at a real z > 0 through the transform as the suites run
    it: the one-factor product theta_q(x) at x = z and p = 1.  PoleError at
    a zero of theta_q; DomainError at a complex, zero or negative z."""
    return structure_function_value(_Theta, z, mp.mpf(1), 0, {"q2": q}, digits)


def product_at(product, x):
    """A prepared theta.QPochProduct at one x through its multiply, as
    Kernel.eval_product takes it: its factors' product at x over its inverse
    factors' at 1/x."""
    wp = product.wp
    with mp.workprec(wp - _GUARD_BITS):
        acc = {1: (1 << wp, 0), -1: (1 << wp, 0)}
        product.multiply(acc, _to_fixed(mp.mpc(x), wp))
        return _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)


def annulus_point(rng, digits):
    """The exchange checks' draw, as an mpc at digits + 10 digits: the
    sampler's fixed-point pair at the precision verify_exchange draws at."""
    with workdps(digits + 10):
        wp = mp.mp.prec + _GUARD_BITS
        return _from_fixed(sample_annulus_point(rng, wp), wp)


def exchange_sides(K1, K2, sf, x, p, bases, digits):
    """lhs = K1(1, x) and rhs = S(x) K2(x, 1), each its own value: scalar,
    monomial and product (Kernel.eval_product) multiplied as mpc values, and
    S by direct products (direct_structure_function); PoleError where a
    kernel factor is at a pole.  The two-sided evaluation verify_exchange's
    one ratio of split thetas replaces."""
    with workdps(digits + 10):
        x = mp.mpc(x)
        lhs = to_mpf(K1.scalar) * x ** K1.w_exp * K1.eval_product(x, digits)
        rhs = (to_mpf(K2.scalar) * x ** K2.z_exp * K2.eval_product(1 / x, digits)
               * direct_structure_function(sf, x, p, 1, bases, digits))
        return lhs, rhs


def exchange_residuals(rel, params, samples, digits, seed, unit_structure=False):
    """verify_exchange's points, residual_max and residual_mean, as it
    prints them, from exchange_sides at its draws: the residual is
    |lhs - rhs| / max(|lhs|, |rhs|), and a draw where a side raises
    PoleError is drawn again."""
    K1, K2, _ = _exchange_kernels(rel, params)
    sf = StructureFunction(1, 0, ()) if unit_structure else rel.structure_function
    rng = random.Random(("exchange", rel.rel_id, rel.mode, seed).__repr__())
    with workdps(digits + 10):
        wp = mp.mp.prec + _GUARD_BITS
        p = to_mpf(params.p)
        bases = theta_bases(params.q, p, 1)
        points, residuals = [], []
        for _ in range(samples):
            x, (lhs, rhs) = _sample_x(rng, wp, lambda x: exchange_sides(
                K1, K2, sf, _from_fixed(x, wp), p, bases, digits))
            points.append(mpc_to_str(_from_fixed(x, wp), 17))
            residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        return (points, mp.nstr(max(residuals), 12),
                mp.nstr(sum(residuals) / len(residuals), 12))
