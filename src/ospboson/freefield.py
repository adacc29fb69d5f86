"""Free-boson currents: mode brackets, contractions, OPE kernels, delta extraction.

The deformed Heisenberg algebra underlying everything here is

    [a_n, a_m] = (1/n) (q^n - q^-n) ((qp)^n - (qp)^-n) (p^n + p^-n - 1) delta_{n+m,0},
    [P, Q] = 1,

with two normalized mode families

    s_n^+ = a_n / (q^n - q^-n),        s_n^- = a_n / ((qp)^n - (qp)^-n),

assembled into the fields phi(z) = sum_{n != 0} s_n^+ z^-n and
psi(z) = sum_{n != 0} s_n^- z^-n.  The level-1 currents are

    E(z) = e^Q z^P :exp(phi(z)):,      F(z) = e^-Q z^-P :exp(-psi(z)):,
    H^{+-}(z) = z^-1 :E(z p^{+-1/2}) F(z p^{-+1/2}): .

An OPE kernel A(z) B(w) = K(z, w) :A(z) B(w): collects (i) the exponential of
the signed pairwise contractions of the field exponents and (ii) the monomial
from commuting z^P-type zero modes past e^{+-Q} (z^A e^B = e^B z^[A,B] z^A for
central [A,B]).  Kernels are stored in closed form as lists of q-Pochhammer
factors (base 0 factors are plain 1 - c*x), so they can be expanded exactly
as jets or evaluated numerically at complex points.

Half-integer p-powers enter through the H currents, so exact parameters carry
sqrt(p) as the primitive rational (see DeformationParams).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, PoleError, StructuralError, UnsupportedError
from .scalars import workdps
from .series import QPochFactor, TruncatedSeries, closed_form_log
from .theta import QPochProduct, _from_fixed

__all__ = [
    "DeformationParams",
    "VertexOperatorSpec",
    "Kernel",
    "DeltaTerm",
    "mode_bracket",
    "contraction_series",
    "exp_contraction_closed",
    "ope_kernel",
    "delta_decompose",
    "rational_product",
    "build_H",
    "E_current",
    "F_current",
    "compose_normal_ordered",
    "kernel_repr",
]

FIELD_KINDS = ("phi", "psi")


@dataclass(frozen=True)
class DeformationParams:
    """Exact deformation point: rational q and p with 0 < q, p < 1.

    The H currents shift arguments by p^{1/2}, so anything touching them
    needs sqrt_p supplied as an exact rational (usually one draws sqrt_p
    and squares it).  Integer-power work (mode brackets, contractions,
    E/F kernels) is fine without it.  q, p and sqrt_p are ints, Fractions or
    exact strings such as "2/5"; a float, mpf or complex would be rounded
    to some other point, so it raises StructuralError.
    """

    q: Fraction
    p: Fraction
    sqrt_p: Fraction = None

    def __post_init__(self):
        for name in ("q", "p", "sqrt_p"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _exact_rational(name, value))
        if not (0 < self.q < 1):
            raise DomainError("need 0 < q < 1, got %s" % self.q)
        if not (0 < self.p < 1):
            raise DomainError("need 0 < p < 1, got %s" % self.p)
        if self.sqrt_p is not None and self.sqrt_p * self.sqrt_p != self.p:
            raise StructuralError("sqrt_p**2 != p")

    @classmethod
    def from_sqrt(cls, q, sqrt_p):
        sqrt_p = _exact_rational("sqrt_p", sqrt_p)
        return cls(q, sqrt_p * sqrt_p, sqrt_p)


def _exact_rational(name, value):
    """An int, a Fraction or an exact string as a Fraction; anything else,
    which Fraction would take at its binary value, is a StructuralError."""
    if not isinstance(value, (int, Fraction, str)):
        raise StructuralError("q, p and sqrt_p must be exact rationals, got %s = %r"
                              % (name, value))
    return Fraction(value)


def _antisym(x, n):
    """x^n - x^-n = (a^2 - b^2) / (a b) with a = num^n and b = den^n (n >= 1),
    as the integer pair (a^2 - b^2, a b)."""
    a, b = x.numerator ** n, x.denominator ** n
    return a * a - b * b, a * b


def mode_bracket(n, m, params):
    """[a_n, a_m]; nonzero only on the diagonal n + m = 0, n != 0."""
    if n + m != 0 or n == 0:
        return Fraction(0)
    k = abs(n)  # the bracket is odd in n
    qn, qd = _antisym(params.q, k)
    qpn, qpd = _antisym(params.q * params.p, k)
    c, d = params.p.numerator ** k, params.p.denominator ** k
    return Fraction((1 if n > 0 else -1) * qn * qpn * (c * c + d * d - c * d),
                    k * qd * qpd * c * d)


def contraction_series(kind1, kind2, params, order):
    """Jet of <field1(z) field2(w)> in x = w/z (exact rationals).

    The x^n coefficient is [s_n, s_-n] = [a_n, a_-n] / (N_1(n) N_2(-n)) with
    the mode normalizations N(m) = b^m - b^-m, b = q for phi and qp for psi;
    the sum starts at n = 1, so every contraction has zero constant term.
    """
    if kind1 not in FIELD_KINDS or kind2 not in FIELD_KINDS:
        raise StructuralError("unknown field kind (%r, %r)" % (kind1, kind2))
    base = {"phi": params.q, "psi": params.q * params.p}
    b1, b2 = base[kind1], base[kind2]
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        bracket = mode_bracket(n, -n, params)
        (n1, d1), (n2, d2) = _antisym(b1, n), _antisym(b2, n)
        # N_2(-n) = -N_2(n)
        coeffs[n] = Fraction(-bracket.numerator * d1 * d2,
                             bracket.denominator * n1 * n2)
    return TruncatedSeries(coeffs, order)


def exp_contraction_closed(kind1, kind2, params):
    """Closed form of exp<field1 field2> as a factor list.

    exp<phi phi> = (x p^-2 | q^2)(x q^2 p | q^2)(x | q^2)
                   / [(x (qp)^2 | q^2)(x p^-1 | q^2)(x q^2 | q^2)]
    exp<psi psi> = (x p^2 | Q)(x Q p^-1 | Q)(x | Q)
                   / [(x Q p^-2 | Q)(x p | Q)(x Q | Q)],     Q = (qp)^2
    exp<phi psi> = (1 - x p)(1 - x p^-1) / (1 - x)
    """
    q, p = params.q, params.p
    if kind1 == "phi" and kind2 == "phi":
        b = q * q
        num = [p ** -2, q * q * p, Fraction(1)]
        den = [(q * p) ** 2, p ** -1, q * q]
    elif kind1 == "psi" and kind2 == "psi":
        b = (q * p) ** 2
        num = [p * p, b * p ** -1, Fraction(1)]
        den = [b * p ** -2, p, b]
    elif {kind1, kind2} == {"phi", "psi"}:
        b = Fraction(0)
        num = [p, p ** -1]
        den = [Fraction(1)]
    else:
        raise StructuralError("unknown field pair (%r, %r)" % (kind1, kind2))
    return tuple([QPochFactor(c, b, 1) for c in num]
                 + [QPochFactor(c, b, -1) for c in den])


@dataclass(frozen=True)
class VertexOperatorSpec:
    """A normal-ordered exponential current with zero-mode bookkeeping.

    field_terms: tuple of (kind, sign, shift) meaning the exponent carries
      sign * field_kind(shift * z); shift is an exact scalar (p-power).
    charge: coefficient of Q in the zero mode, momentum: power of z^P.
    The zero-mode monomial u(z) = u_scalar * z^momentum is what passes other
    operators' e^{charge Q} factors; prefactor_* is a plain c-number monomial
    in front (the z^-1 of the H currents).
    """

    charge: int
    momentum: int
    field_terms: tuple
    prefactor_scalar: Fraction = Fraction(1)
    prefactor_z_exp: int = 0
    u_scalar: Fraction = Fraction(1)

    def at_multiple(self, mult):
        """Substitute z -> mult * z (mult an exact scalar)."""
        mult = Fraction(mult)
        fields = tuple((k, s, sh * mult) for (k, s, sh) in self.field_terms)
        return VertexOperatorSpec(
            charge=self.charge,
            momentum=self.momentum,
            field_terms=fields,
            prefactor_scalar=self.prefactor_scalar * mult ** self.prefactor_z_exp,
            prefactor_z_exp=self.prefactor_z_exp,
            u_scalar=self.u_scalar * mult ** self.momentum,
        )

    def same_fields(self, other):
        return (sorted(self.field_terms) == sorted(other.field_terms)
                and self.charge == other.charge
                and self.momentum == other.momentum)


def E_current():
    return VertexOperatorSpec(1, 1, (("phi", 1, Fraction(1)),))


def F_current():
    return VertexOperatorSpec(-1, -1, (("psi", -1, Fraction(1)),))


def build_H(sign, params):
    """H^{+-}(z) = z^-1 :E(z p^{+-1/2}) F(z p^{-+1/2}):  (sign = +1 or -1)."""
    if sign not in (1, -1):
        raise StructuralError("sign must be +1 or -1")
    if params.sqrt_p is None:
        raise StructuralError("H currents need sqrt_p")
    sp = params.sqrt_p ** sign
    sm = params.sqrt_p ** -sign
    return VertexOperatorSpec(
        charge=0,
        momentum=0,
        field_terms=(("phi", 1, sp), ("psi", -1, sm)),
        prefactor_scalar=Fraction(1),
        prefactor_z_exp=-1,
        u_scalar=sp / sm,                   # p^{sign}
    )


def compose_normal_ordered(*parts):
    """:A(m1 z) B(m2 z) ...: as one spec; parts are (spec, multiplier) pairs."""
    fields = []
    charge = momentum = 0
    pref_s = Fraction(1)
    pref_e = 0
    u_s = Fraction(1)
    for spec, mult in parts:
        s = spec.at_multiple(mult)
        fields.extend(s.field_terms)
        charge += s.charge
        momentum += s.momentum
        pref_s *= s.prefactor_scalar
        pref_e += s.prefactor_z_exp
        u_s *= s.u_scalar
    return VertexOperatorSpec(
        charge=charge,
        momentum=momentum,
        field_terms=tuple(fields),
        prefactor_scalar=pref_s,
        prefactor_z_exp=pref_e,
        u_scalar=u_s,
    )


class Kernel:
    """Closed form and exact jet of A(z) B(w) = K(z, w) :A(z) B(w): .

    K = scalar * z^z_exp * w^w_exp * prod_i (c_i * x | b_i)^{power_i},
    x = w / z.  The series attribute is the exact jet of the product part
    (the true infinite-product expansion, not a truncated product).
    """

    def __init__(self, params, order, scalar, z_exp, w_exp, factors, contractions):
        self.params = params
        self.order = order
        self.scalar = Fraction(scalar)
        self.z_exp = z_exp
        self.w_exp = w_exp
        self.factors = tuple(factors)
        self._contractions = contractions  # list of (series sign, kind1, kind2, ratio)
        self._series = None

    @property
    def series(self):
        if self._series is None:
            acc = TruncatedSeries.zero(self.order)
            for sgn, k1, k2, ratio in self._contractions:
                jet = contraction_series(k1, k2, self.params, self.order)
                jet = jet.scale_argument(ratio)
                acc = acc + (jet if sgn == 1 else -jet)
            self._series = acc.exp()
        return self._series

    def series_from_closed_form(self):
        """Exact jet of prod factors via log expansion; equals .series."""
        return closed_form_log(self.factors, self.order).exp()

    def eval_product(self, x, digits):
        """Numeric value of the factor product at complex x (theta.QPochProduct)."""
        with workdps(digits + 10):
            product = QPochProduct(self.factors)
            wp = product.wp
            acc = {1: (1 << wp, 0), -1: (1 << wp, 0)}
            x = mp.mpc(x)
            product.multiply(acc, (mp.mp.to_fixed(x.real, wp), mp.mp.to_fixed(x.imag, wp)))
            return _from_fixed(acc[1], wp) / _from_fixed(acc[-1], wp)

    def near_singular(self, x):
        """The first factor with a zero within theta.POLE_TOL of x (relatively), or None.

        Decided by the pole guard of a theta.QPochProduct prepared at the
        ambient precision.
        """
        try:
            self.eval_product(x, mp.mp.dps)
        except PoleError as exc:
            return exc.factor
        return None


def ope_kernel(a_spec, b_spec, params, order=30):
    """Kernel of A(z) B(w) for two vertex-operator specs."""
    scalar = (a_spec.prefactor_scalar * b_spec.prefactor_scalar
              * a_spec.u_scalar ** b_spec.charge)
    z_exp = a_spec.prefactor_z_exp + a_spec.momentum * b_spec.charge
    w_exp = b_spec.prefactor_z_exp
    factors = []
    contractions = []
    for (k1, e1, s1) in a_spec.field_terms:
        for (k2, e2, s2) in b_spec.field_terms:
            ratio = s2 / s1
            sgn = e1 * e2
            contractions.append((sgn, k1, k2, ratio))
            for f in exp_contraction_closed(k1, k2, params):
                factors.append(QPochFactor(f.c * ratio, f.b, f.power * sgn))
    return Kernel(params, order, scalar, z_exp, w_exp, factors, contractions)


@dataclass(frozen=True)
class DeltaTerm:
    """residue * z^z_exp * w^w_exp * delta at support w/z = support_x.

    support_x = p^k presents as delta(z / (w p^-k)) for k < 0 (support
    z = w p^-k) and delta(w / (z p^k)) for k > 0 (support w = z p^k); both
    spellings denote the same bilateral sum sum_n (x / support_x)^n.
    """

    support_x: Fraction
    residue: Fraction
    scalar: Fraction
    z_exp: int
    w_exp: int

    def coefficient_on_support(self):
        """Exact scalar coefficient after eliminating z = w/support_x.

        Returns (scalar_coefficient, w_exponent): the delta term equals
        scalar_coefficient * w**w_exponent * delta * :AB: .
        """
        coeff = self.scalar * self.residue * self.support_x ** (-self.z_exp)
        return coeff, self.z_exp + self.w_exp


def rational_product(factors, x):
    """Exact value of prod (1 - c*x)^power over base-0 factors at rational x."""
    acc = Fraction(1)
    for f in factors:
        if f.b != 0:
            raise UnsupportedError("rational_product needs base-0 factors; "
                                   "found base %s" % f.b)
        term = 1 - f.c * x
        acc = acc * term if f.power == 1 else acc / term
    return acc


def delta_decompose(kernel):
    """Bilateral partial-fraction extraction of delta terms from a rational kernel.

    For a kernel whose factors are all base-0 (a genuine rational function of
    x), the anticommutator pairing K_AB expanded in x plus K_BA expanded in
    x^-1 collapses; writing the proper part as sum_j A_j / (1 - d_j x), each
    pole contributes A_j * delta(x d_j), supported at x = 1/d_j, where A_j is
    the rational_product of all the other factors there.  Polynomial parts
    cancel between the two expansion regions and carry no delta, so they
    are dropped (recorded on the result).  Higher-order poles are not
    supported.
    """
    numerators = 0
    poles = []
    for f in kernel.factors:
        if f.b != 0:
            raise UnsupportedError("delta_decompose needs a rational kernel; "
                                   "found base %s" % f.b)
        if f.power == 1:
            numerators += 1
        elif f.c == 0:
            raise UnsupportedError("constant denominator factor")
        else:
            poles.append(f)
    if len({f.c for f in poles}) != len(poles):
        raise UnsupportedError("higher-order pole: repeated denominator root")
    terms = []
    for pole in poles:
        x0 = Fraction(1) / pole.c
        others = [f for f in kernel.factors if f is not pole]
        terms.append(DeltaTerm(support_x=x0, residue=rational_product(others, x0),
                               scalar=kernel.scalar,
                               z_exp=kernel.z_exp, w_exp=kernel.w_exp))
    discarded_poly = numerators >= len(poles) > 0
    terms.sort(key=lambda t: (t.support_x.numerator, t.support_x.denominator))
    return terms, discarded_poly


def _monomial_repr(scalar, z_exp, w_exp, factors):
    # render z^1 * (1 - x) * rest as the familiar (z - w) * rest, peeling the
    # leading 1 - x off an (x | b) factor if needed
    unit = next((f for f in factors if f.c == 1 and f.power == 1), None)
    if scalar == 1 and (z_exp, w_exp) == (1, 0) and unit is not None:
        rest = list(factors)
        rest.remove(unit)
        if unit.b != 0:
            rest.append(QPochFactor(unit.b, unit.b, 1))
        return ["(z - w)"], tuple(rest)
    parts = []
    if scalar != 1:
        parts.append(str(scalar))
    if z_exp:
        parts.append("z^%d" % z_exp)
    if w_exp:
        parts.append("w^%d" % w_exp)
    return parts, factors


def kernel_repr(kernel):
    """Human-readable closed form: monomial, then factor stack, then jet head."""
    parts, factors = _monomial_repr(kernel.scalar, kernel.z_exp, kernel.w_exp,
                                    kernel.factors)
    num = [f for f in factors if f.power == 1]
    den = [f for f in factors if f.power == -1]
    for f in list(num):  # drop factor pairs that cancel exactly
        match = next((g for g in den if (g.c, g.b) == (f.c, f.b)), None)
        if match is not None:
            num.remove(f)
            den.remove(match)

    def fmt(f):
        if f.b == 0:
            return "(1 - %s x)" % f.c if f.c != 1 else "(1 - x)"
        return "(%s x | %s)" % (f.c, f.b)

    lines = []
    if parts:
        lines.append(" * ".join(parts))
    if num:
        lines.append("numerator:   " + " ".join(fmt(f) for f in num))
    if den:
        lines.append("denominator: " + " ".join(fmt(f) for f in den))
    head = kernel.series.coeffs[: min(5, kernel.order + 1)]
    lines.append("jet: " + ", ".join(str(c) for c in head) + ", ...")
    return "\n".join(lines)
