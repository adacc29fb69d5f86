"""Exchange-relation catalog with elliptic structure functions, and the
numeric verifier that the level c = 1 boson realization satisfies it.

The algebra is presented by ten relation schemas among the currents H+, H-,
E, F: eight exchange relations of the form

    A(z) B(w) = S(w/z) B(w) A(z),

one anticommutator {E(z), F(w)} producing delta-function terms, and the
standing requirement that the H currents are invertible.  Every structure
function S is a signed p-power times a ratio of four (or eight) theta
factors theta_base(x^{+-1} p^{a + b c}) with base q^2 or qtilde^2, where
qtilde = q p^c.

Two catalog modes exist.  The canonical mode stores every factor in the
x-oriented form that the realization kernels actually satisfy; it is the
form all verification and degeneration code consumes.  The strict-text mode
reproduces the source displays verbatim, preserving their mixed x / x^-1
orientations, their H-F shift signs, and the right-hand current printed in
the H-E relation.  The two modes differ in documented ways (see
DISPLAY_AUDIT and the strict-text verification reports): some printed forms
are equal to the canonical ones, one pair is off by a constant p-power, and
some are not equivalent at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, PoleError, StructuralError
from .freefield import (
    E_current,
    F_current,
    build_H,
    compose_normal_ordered,
    delta_decompose,
    ope_kernel,
    rational_product,
)
from .scalars import fixed_to_str, sample_annulus_point, to_mpf, workdps
from .series import QPochFactor
from .theta import QPochProduct

__all__ = [
    "ThetaFactor",
    "StructureFunction",
    "RelationSpec",
    "relation_catalog",
    "theta_bases",
    "structure_function_repr",
    "verify_exchange",
    "verify_ef",
    "verify_invertibility",
    "CURRENTS",
    "MODES",
]

MODES = ("canonical", "strict-text")


@dataclass(frozen=True)
class ThetaFactor:
    """theta_base(x^orient * p^(p_shift + c_shift * c)) ** power.

    p_shift and c_shift are half-integers, given as ints, Fractions or exact
    strings such as "1/2"; a float, an mpf, a value of another type or a
    shift that is not a half-integer raises StructuralError.  Their doubles
    are kept as the ints k0 and k1, so at an integer level c the shift is
    k / 2 with k = k0 + k1 c, an int.
    """

    base: str        # "q2" or "qt2"
    orient: int      # +1: argument in w/z, -1: in z/w
    p_shift: Fraction
    c_shift: Fraction
    power: int       # +1 numerator, -1 denominator

    def __post_init__(self):
        if self.base not in ("q2", "qt2"):
            raise StructuralError("unknown theta base %r" % self.base)
        if self.orient not in (1, -1) or self.power not in (1, -1):
            raise StructuralError("orient and power must be +-1")
        for name, k in (("p_shift", "k0"), ("c_shift", "k1")):
            s = getattr(self, name)
            exact = Fraction(s) if isinstance(s, (int, Fraction, str)) else None
            if exact is None or exact.denominator > 2:
                raise StructuralError("%s must be a half-integer, got %r" % (name, s))
            object.__setattr__(self, name, exact)
            object.__setattr__(self, k, 2 * exact.numerator // exact.denominator)


@dataclass(frozen=True)
class StructureFunction:
    """sign * p^p_exp * prod theta factors, as many numerators as
    denominators on each base (StructuralError otherwise)."""

    sign: int
    p_exp: int
    factors: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise StructuralError("sign must be +-1")
        # (B | B) cancels from the theta splits (_exchange_lists) base by base
        for base in dict.fromkeys(f.base for f in self.factors):
            if sum(f.power for f in self.factors if f.base == base):
                raise StructuralError("numerator and denominator counts differ "
                                      "on base %s" % base)


@dataclass(frozen=True)
class RelationSpec:
    rel_id: str
    kind: str                     # exchange | anticommutator-delta | invertibility
    left: tuple = ()
    right: tuple = ()
    structure_function: StructureFunction = None
    mode: str = "canonical"
    notes: str = ""


def _block(base, num, den, c_shift=Fraction(0)):
    # num/den are p-shift lists, all factors x-oriented
    fs = [ThetaFactor(base, 1, a, c_shift, 1) for a in num]
    fs += [ThetaFactor(base, 1, a, c_shift, -1) for a in den]
    return tuple(fs)


def _sf(sign, p_exp, *blocks):
    return StructureFunction(sign, p_exp, sum(blocks, ()))


# shift patterns shared by the whole catalog
_E_NUM, _E_DEN = [-2, 1], [2, -1]    # E-side theta arguments
_F_NUM, _F_DEN = [2, -1], [-2, 1]    # F-side arguments (reciprocal pattern)


def _mixed_qt2_block(c_shift):
    # the printed H H displays write the qtilde^2 ratio with arguments
    # x p^2, x^-1 p over x^-1 p^2, x p rather than in pure x orientation
    return (
        ThetaFactor("qt2", 1, 2, c_shift, 1), ThetaFactor("qt2", -1, 1, c_shift, 1),
        ThetaFactor("qt2", -1, 2, c_shift, -1), ThetaFactor("qt2", 1, 1, c_shift, -1),
    )


def relation_catalog(params=None, mode="canonical"):
    """All ten relation schemas of the algebra at level 1.

    mode "canonical": x-oriented structure functions satisfied by the c = 1
    realization.  mode "strict-text": the displays as printed, including the
    H-E right-hand side reading E(w) H+(z) and the p^{-+c/2} shifts on the
    H-F pair; differences are audited, never silently merged.  The schemas
    do not depend on the deformation point: params is unused, and kept for
    callers that pass one.
    """
    if mode not in MODES:
        raise StructuralError("unknown catalog mode %r" % mode)
    half = Fraction(1, 2)
    strict = mode == "strict-text"

    # shift sign on H^s E is -s*c/2 in both modes; on H^s F the realization
    # needs +s*c/2 while the printed displays carry -s*c/2
    hf_sign = -1 if strict else 1

    return [
        RelationSpec(
            "H+E", "exchange", ("H+", "E"), ("E", "H+"),
            _sf(1, 1, _block("q2", _E_NUM, _E_DEN, -half)), mode),
        RelationSpec(
            "H-E", "exchange", ("H-", "E"),
            ("E", "H+") if strict else ("E", "H-"),
            _sf(1, 1, _block("q2", _E_NUM, _E_DEN, half)), mode,
            notes="printed right-hand side reads E(w) H+(z)" if strict else ""),
        RelationSpec(
            "H+F", "exchange", ("H+", "F"), ("F", "H+"),
            _sf(1, -1, _block("qt2", _F_NUM, _F_DEN, hf_sign * half)), mode),
        RelationSpec(
            "H-F", "exchange", ("H-", "F"), ("F", "H-"),
            _sf(1, -1, _block("qt2", _F_NUM, _F_DEN, hf_sign * -half)), mode),
        RelationSpec(
            "HH", "exchange", ("H+", "H+"), ("H+", "H+"),
            _sf(1, 0,
                _block("q2", _E_NUM, _E_DEN),
                _mixed_qt2_block(0) if strict
                else _block("qt2", _F_NUM, _F_DEN)),
            mode,
            notes="schema covers H+H+ and H-H-"),
        RelationSpec(
            "H+H-", "exchange", ("H+", "H-"), ("H-", "H+"),
            _sf(1, 0,
                _block("q2", _E_NUM, _E_DEN, -1),
                _mixed_qt2_block(1) if strict
                else _block("qt2", _F_NUM, _F_DEN, 1)),
            mode),
        RelationSpec(
            "EE", "exchange", ("E", "E"), ("E", "E"),
            _sf(-1, 1, _block("q2", _E_NUM, _E_DEN)), mode),
        RelationSpec(
            "FF", "exchange", ("F", "F"), ("F", "F"),
            _sf(-1, -1, _block("qt2", _F_NUM, _F_DEN)), mode),
        RelationSpec(
            "EF", "anticommutator-delta", ("E", "F"), ("H+", "H-"),
            None, mode,
            notes="{E(z),F(w)} = (p^(1/2)+p^(-1/2))^-1 [delta(z/(w p^c)) "
                  "H+(w p^(c/2)) + delta(w/(z p^c)) H-(z p^(c/2))]"),
        RelationSpec(
            "Hinv", "invertibility", ("H+", "H-"), (), None, mode,
            notes="H currents are required invertible"),
    ]


# relation id -> how the strict-text display compares with the canonical
# form: "equal", ("constant", p-exponent), or "inequivalent"
DISPLAY_AUDIT = {
    "H+E": "equal",
    "H-E": "equal",          # structure function equal; right-hand current differs
    "H+F": "inequivalent",   # printed shift -c/2, realization needs +c/2
    "H-F": "inequivalent",
    "HH": ("constant", -1),  # printed mixed form = p^-1 * canonical
    "H+H-": "inequivalent",  # mixed form with uniform +c is p^-1 * canonical;
                             # the c-signs printed on the x^-1 factors are not
    "EE": "equal",
    "FF": "equal",
}


def theta_bases(q, p, c):
    """The deformation's theta bases {"q2": q^2, "qt2": (q p^c)^2}; p is an mpf."""
    q = to_mpf(q)
    return {"q2": q * q, "qt2": (q * p ** c) ** 2}


def structure_function_repr(f):
    def one(tf):
        var = "x" if tf.orient == 1 else "x^-1"
        expo = []
        if tf.p_shift:
            expo.append(str(tf.p_shift))
        if tf.c_shift:
            expo.append("%sc" % ("" if tf.c_shift == 1 else "%s " % tf.c_shift))
        core = "%s p^(%s)" % (var, " + ".join(expo)) if expo else var
        return "theta_%s(%s)" % (tf.base, core)

    num = " ".join(one(tf) for tf in f.factors if tf.power == 1)
    den = " ".join(one(tf) for tf in f.factors if tf.power == -1)
    pref = "%sp^%d" % ("-" if f.sign < 0 else "", f.p_exp) if f.p_exp else (
        "-1" if f.sign < 0 else "1")
    return "%s * [%s] / [%s]" % (pref, num, den)


CURRENTS = {
    "E": lambda P: E_current(),
    "F": lambda P: F_current(),
    "H+": lambda P: build_H(1, P),
    "H-": lambda P: build_H(-1, P),
}


def _sample_x(rng, wp, at):
    """One accepted sample point x, a fixed-point pair at wp, and at(x).

    at raises PoleError where x is too close to a pole or zero of a
    kernel factor or of a structure-function theta factor; x is then drawn
    again, up to 10 draws.
    """
    for _ in range(10):
        x = sample_annulus_point(rng, wp)
        try:
            return x, at(x)
        except PoleError:
            pass
    raise DomainError("could not sample away from poles in 10 tries")


def _exchange_kernels(rel, params):
    """(K1, K2, fields_match) of an exchange relation A(z) B(w) = S B(w) A(z)
    at params: the order-2 kernels K1 = K_AB of its left-hand currents and
    K2 = K_BA of its right-hand ones, and whether the right-hand currents
    are the left-hand ones swapped, fields and z-prefactors alike."""
    A, B = (CURRENTS[name](params) for name in rel.left)
    Bp, Ap = (CURRENTS[name](params) for name in rel.right)
    fields_match = (A.same_fields(Ap) and B.same_fields(Bp)
                    and A.prefactor_z_exp == Ap.prefactor_z_exp
                    and B.prefactor_z_exp == Bp.prefactor_z_exp)
    return (ope_kernel(A, B, params, order=2), ope_kernel(Bp, Ap, params, order=2),
            fields_match)


def _exchange_lists(K1, K2, sf, params):
    """(r, m, at_x, at_inverse): the exact data of
    R = K1(1, x) / (S(x) K2(x, 1)) = r x^m prod at_x(x) / prod at_inverse(1/x).

    At the exact point every theta factor of S is two kernel factors,
    theta_B(y) = (y | B)(B/y | B)(B | B) (Gasper-Rahman ch. 1) on its base
    B = q^2 or (q p)^2: theta_B(c x) is (c x | B) at x and (B/c x^-1 | B)
    at 1/x, theta_B(c / x) the same two swapped, with c = p^(k/2) exact
    (sqrt_p^k for an odd k, StructuralError without sqrt_p), and (B | B)
    cancels base by base (StructureFunction).  With K = scalar z^z_exp
    w^w_exp prod(w/z), r = sign scalar1 / (scalar2 p^p_exp) and
    m = w_exp1 - z_exp2; at_x holds K1's factors, then S's at x inverse,
    and at_inverse K2's, then S's at 1/x inverse, as QPochFactors.
    """
    p, root = params.p, params.sqrt_p
    bases = {"q2": params.q ** 2, "qt2": (params.q * p) ** 2}
    at_x, at_inverse = list(K1.factors), list(K2.factors)
    for tf in sf.factors:
        k, b = tf.k0 + tf.k1, bases[tf.base]
        if k % 2 and root is None:
            raise StructuralError("the shift p^(%d/2) needs sqrt_p" % k)
        c = root ** k if k % 2 else p ** (k // 2)
        at_x.append(QPochFactor(c if tf.orient == 1 else b / c, b, -tf.power))
        at_inverse.append(QPochFactor(b / c if tf.orient == 1 else c, b, tf.power))
    return (sf.sign * K1.scalar / (K2.scalar * p ** sf.p_exp), K1.w_exp - K2.z_exp,
            at_x, at_inverse)


def _exchange_ratio(K1, K2, sf, params):
    """(wp, ratio): ratio takes x as a fixed-point pair at wp and returns
    (N, D), the fixed-point numerator and denominator of
    R = K1(1, x) / (S(x) K2(x, 1)) (_exchange_lists); wp is the precision
    in force plus theta's guard bits.  N and D start at r's numerator and
    denominator, x^|m| goes into the side m's sign names, and the two
    lists in as one QPochProduct.
    """
    r, m, at_x, at_inverse = _exchange_lists(K1, K2, sf, params)
    kernels = QPochProduct(at_x, at_inverse)
    wp = kernels.wp
    side = 1 if m > 0 else -1

    def ratio(x):
        xr, xi = x
        acc = {1: (r.numerator << wp, 0), -1: (r.denominator << wp, 0)}
        for _ in range(abs(m)):
            ar, ai = acc[side]
            acc[side] = (ar * xr - ai * xi) >> wp, (ar * xi + ai * xr) >> wp
        kernels.multiply(acc, x)
        return acc[1], acc[-1]

    return wp, ratio


def _residual(pair):
    """|N - D| / max(|N|, |D|) = |R - 1| / max(|R|, 1) on a fixed-point pair.

    Both squares are ints; one quotient and one square root are taken at
    the working precision, as a quotient in fixed point at 2^-wp would
    round off the passing residuals, which reach below 2^-wp.
    """
    (nr, ni), (dr, di) = pair
    er, ei = nr - dr, ni - di
    return mp.sqrt(mp.fdiv(er * er + ei * ei,
                           max(nr * nr + ni * ni, dr * dr + di * di)))


def verify_exchange(rel, params, *, samples=100, digits=50,
                    tolerance=None, seed=0, unit_structure=False):
    """Check A(z) B(w) = S(w/z) B(w) A(z) on the c = 1 kernels.

    Both sides reduce to closed-form kernel products because the
    normal-ordered tails agree whenever the right-hand currents are the
    left-hand ones swapped; when they are not (strict-text H-E), the field
    mismatch is reported and the kernel comparison is still carried out
    against the printed right-hand side.  unit_structure=True replaces S
    by 1 as a negative control.  Each sample point x is drawn in fixed
    point at the ratio's precision and takes one ratio
    R = K_AB(1, x) / (S(x) K_BA(x, 1)) as a fixed-point pair N / D
    (_exchange_ratio on _exchange_kernels' pair, prepared once per call),
    and |N - D| / max(|N|, |D|) is the residual
    |lhs - rhs| / max(|lhs|, |rhs|); only the residuals
    become mpmath numbers, and each point is printed from its pair
    (scalars.fixed_to_str).
    A point is drawn again where a factor raises PoleError: within
    theta.POLE_TOL (relatively) of a zero of a kernel factor, a theta
    factor's zeros among them, as S's thetas are kernel factors there.  A
    kernel factor and the same split-theta factor at one point cancel
    before any point is drawn (theta.QPochProduct), so their shared zero
    is no zero of R and draws no point again.
    """
    if rel.kind != "exchange":
        raise StructuralError("verify_exchange needs an exchange relation")
    tolerance = mp.mpf(10) ** -20 if tolerance is None else mp.mpf(tolerance)
    if tolerance < mp.mpf(10) ** (8 - digits):
        raise DomainError("tolerance %s unreachable at %d digits" % (tolerance, digits))
    if samples < 1:
        raise DomainError("need at least one sample, got %s" % (samples,))
    K1, K2, fields_match = _exchange_kernels(rel, params)
    sf = StructureFunction(1, 0, ()) if unit_structure else rel.structure_function
    rng = random.Random(("exchange", rel.rel_id, rel.mode, seed).__repr__())
    with workdps(digits + 10):
        wp, ratio = _exchange_ratio(K1, K2, sf, params)
        draws = [_sample_x(rng, wp, ratio) for _ in range(samples)]
        residuals = [_residual(pair) for _, pair in draws]
        rmax = max(residuals)
        rmean = sum(residuals) / len(residuals)
        points = [fixed_to_str(x, wp, 17) for x, _ in draws]
    verdict = bool(rmax <= tolerance) and fields_match
    return {
        "relation": rel.rel_id,
        "kind": rel.kind,
        "mode": rel.mode,
        "seed": seed,
        "samples": samples,
        "digits": digits,
        "order": None,
        "points": points,
        "residual_max": mp.nstr(rmax, 12),
        "residual_mean": mp.nstr(rmean, 12),
        "fields_match": fields_match,
        "tolerance": mp.nstr(tolerance, 5),
        "unit_structure_control": unit_structure,
        "verdict": "pass" if verdict else "fail",
        "notes": rel.notes,
    }


def verify_ef(params):
    """Exact check of the anticommutator relation on the c = 1 kernels.

    Everything here is rational arithmetic: the delta supports and residues
    from the partial-fraction extraction, the catalog coefficients
    (p^(1/2)+p^(-1/2))^-1 at their supports, the H-current identification
    of the operator parts, and the antisymmetry K_FE(w,z) = -K_EF(z,w) that
    makes the bilateral pairing collapse to delta terms.
    """
    p, r = params.p, params.sqrt_p
    if r is None:
        raise StructuralError("verify_ef needs sqrt_p")
    E = E_current()
    F = F_current()
    KEF = ope_kernel(E, F, params, order=2)
    KFE = ope_kernel(F, E, params, order=2)
    checks = {}

    terms, discarded = delta_decompose(KEF)
    checks["delta_support_set"] = sorted(t.support_x for t in terms) == sorted([p, 1 / p])
    checks["no_discarded_polynomial"] = not discarded
    by = {t.support_x: t for t in terms}

    # catalog coefficient at the z = w p^c support: (r + 1/r)^-1 (w r)^-1
    coeff_plus, w_exp_plus = by[1 / p].coefficient_on_support()
    checks["coefficient_plus"] = (coeff_plus, w_exp_plus) == ((1 / (r + 1 / r)) / r, -1)
    # and at w = z p^c: (r + 1/r)^-1 (z r)^-1
    t_minus = by[p]
    coeff_minus = t_minus.scalar * t_minus.residue * t_minus.support_x ** t_minus.w_exp
    checks["coefficient_minus"] = (
        coeff_minus, t_minus.z_exp + t_minus.w_exp) == ((1 / (r + 1 / r)) / r, -1)

    # intermediate display (p-1)/((p-p^-1) w p) equals the symmetric form
    checks["intermediate_form"] = (p - 1) / ((p - 1 / p) * p) == (1 / (r + 1 / r)) / r

    # operator parts: :E(w p)F(w): = H+(w p^(1/2)) content, :E(z)F(z p): = H-(z p^(1/2))
    Hp = build_H(1, params).at_multiple(r)
    Hm = build_H(-1, params).at_multiple(r)
    comp_plus = compose_normal_ordered((E, p), (F, Fraction(1)))
    comp_minus = compose_normal_ordered((E, Fraction(1)), (F, p))
    checks["h_plus_identification"] = comp_plus.same_fields(Hp)
    checks["h_minus_identification"] = comp_minus.same_fields(Hm)

    # bilateral pairing: K_FE(w,z) = -K_EF(z,w) as rational functions,
    # pinned exactly at 20 rational points (degrees are at most 3)
    def value(K, z, w):
        return (K.scalar * z ** K.z_exp * w ** K.w_exp
                * rational_product(K.factors, w / z))

    one = Fraction(1)
    anti = all(value(KFE, x, one) == -value(KEF, one, x)
               for x in (Fraction(k, 23) for k in range(2, 22)))
    checks["bilateral_antisymmetry"] = anti

    verdict = all(checks.values())
    return {
        "relation": "EF",
        "kind": "anticommutator-delta",
        "mode": "canonical",
        "exact": True,
        "checks": {k: bool(v) for k, v in checks.items()},
        "delta_supports": [str(t.support_x) for t in terms],
        "residues": [str(t.residue) for t in terms],
        "verdict": "pass" if verdict else "fail",
    }


def verify_invertibility(params):
    """The H kernels' normal-ordered exponentials have unit constant term,
    so H^+- are invertible as formal series; checked by expanding both
    H-current self-kernels and confirming invertible leading coefficients."""
    report = {"relation": "Hinv", "kind": "invertibility", "mode": "canonical"}
    ok = True
    for sign, name in ((1, "H+"), (-1, "H-")):
        H = build_H(sign, params)
        K = ope_kernel(H, H, params, order=4)
        lead = K.series.coeffs[0]
        ok = ok and lead != 0 and H.charge == 0
        report["lead_%s" % name] = str(lead)
    report["verdict"] = "pass" if ok else "fail"
    return report
