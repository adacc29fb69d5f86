"""Truncated power series over exact rationals.

A series is a fixed-order jet: coefficients c[0..N] in the single variable
x.  All ring operations discard the tail beyond x^N, so order-N inputs
always produce order-N outputs.  Coefficients are ``fractions.Fraction``;
nothing in this module ever rounds (inputs other than int and Fraction are a
StructuralError): products and exps sum each output coefficient in integers
and normalize it once.  A product of q-Pochhammer factors (``QPochFactor``)
has a closed-form log, summed per base in integers (``closed_form_log``);
its jet is that log's one exp, and one factor's jet is Euler's sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, StructuralError

__all__ = ["TruncatedSeries", "QPochFactor", "closed_form_log",
           "qpoch_log_series"]


def _exact(value):
    """An int or a Fraction, as given; anything else is a StructuralError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise StructuralError("coefficients must be exact rationals")


class TruncatedSeries:
    """Coefficient jet c0 + c1 x + ... + cN x^N with exact arithmetic."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(_exact(c)) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise StructuralError("series order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        self.coeffs = coeffs[: order + 1]
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls([Fraction(0)], order)

    @classmethod
    def one(cls, order):
        return cls([Fraction(1)], order)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise StructuralError("expected a TruncatedSeries, got %r" % type(other))
        if other.order != self.order:
            raise StructuralError(
                "order mismatch: %d vs %d" % (self.order, other.order))

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        """Truncated product: the terms a_i b_j of x^m summed as integers over
        a common denominator d, grown to lcm(d, e) only when a term's
        denominator e does not divide it, then normalized once."""
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return TruncatedSeries([k * a for a in self.coeffs], self.order)
        self._check(other)
        n = self.order
        a = [(i, c.numerator, c.denominator)
             for i, c in enumerate(self.coeffs) if c]
        b = [(c.numerator, c.denominator) for c in other.coeffs]
        out = []
        for m in range(n + 1):
            s, d = 0, 1
            for i, an, ad in a:
                if i > m:
                    break
                bn, bd = b[m - i]
                if bn:
                    e = ad * bd
                    if d % e:
                        g = lcm(d, e)
                        s, d = s * (g // d), g
                    s += an * bn * (d // e)
            out.append(Fraction(s, d))
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse; requires a unit constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("cannot invert a series with zero constant term")
        n = self.order
        a = self.coeffs
        inv0 = Fraction(1) / a[0]
        out = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            s = Fraction(0)
            for i in range(1, k + 1):
                if a[i] != 0:
                    s += a[i] * out[k - i]
            out[k] = -inv0 * s
        return TruncatedSeries(out, n)

    def exp(self):
        """exp of a series with zero constant term.

        E' = A' E gives n*E_n = sum_{k=1..n} k*A_k*E_{n-k}, run in integers:
        W_k = k*A_k*V is an integer, V the lcm of the denominators of
        A_1..A_m (grown with m, the stored W_k scaled with it), and E_j =
        N_j / L over one common denominator L, so E_m = (sum_k W_k N_{m-k}) /
        (m V L) exactly, normalized once.  L and every N_j are then scaled by
        d / gcd(L, d), d the reduced denominator of E_m; d is not always a
        multiple of L, so L is grown, not replaced by d.
        """
        if self.coeffs[0] != 0:
            raise DomainError("exp requires zero constant term")
        n = self.order
        v, w, nums, lam, out = 1, [], [1], 1, [Fraction(1)]
        for m in range(1, n + 1):
            c = self.coeffs[m]
            if c:
                if v % c.denominator:
                    g = c.denominator // gcd(v, c.denominator)
                    v, w = v * g, [(k, wk * g) for k, wk in w]
                w.append((m, m * c.numerator * (v // c.denominator)))
            e = Fraction(sum(wk * nums[m - k] for k, wk in w), m * v * lam)
            d = e.denominator
            if lam % d:
                g = d // gcd(lam, d)
                lam *= g
                nums = [x * g for x in nums]
            nums.append(e.numerator * (lam // d))
            out.append(e)
        return TruncatedSeries(out, n)

    def log(self):
        """log of a series with unit constant term.

        A L' = A' gives n*L_n = n*A_n - sum_{k=1..n-1} k*L_k*A_{n-k}.
        """
        if self.coeffs[0] != 1:
            raise DomainError("log requires unit constant term")
        n = self.order
        a = self.coeffs
        out = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            s = m * a[m]
            for k in range(1, m):
                if out[k] != 0 and a[m - k] != 0:
                    s -= k * out[k] * a[m - k]
            out[m] = Fraction(s, m) if isinstance(s, int) else s / m
        return TruncatedSeries(out, n)

    def scale_argument(self, s):
        """x -> s*x, i.e. c_k -> c_k * s^k (s exact)."""
        s = Fraction(_exact(s))
        out, pw = [], Fraction(1)
        for c in self.coeffs:
            out.append(c * pw)
            pw *= s
        return TruncatedSeries(out, self.order)


@dataclass(frozen=True)
class QPochFactor:
    """(c*x | b)_inf ** power as a closed-form building block; b = 0 degenerates to (1 - c*x)."""

    c: Fraction
    b: Fraction
    power: int

    def __post_init__(self):
        _exact(self.c), _exact(self.b)
        if self.power not in (1, -1):
            raise StructuralError("factor power must be +1 or -1")


def closed_form_log(factors, order):
    """Exact log jet of a product of QPochFactors: their summed logs.

    log prod_n (1 - c*x*b^n) = -sum_{m>=1} (c x)^m / (m (1 - b^m)), requiring
    |b| < 1; each coefficient is a closed-form rational, so the exp of the
    result is the true jet of the infinite products, not of truncated ones.
    The factors are grouped by base: for each m, sum power * c^m over a
    group as integers over the common denominator of its c, then divide
    once by m (1 - b^m).
    """
    groups = {}
    for f in factors:
        b = Fraction(f.b)
        if abs(b) >= 1:
            raise DomainError("need |b| < 1 for the infinite product, got %s" % b)
        groups.setdefault(b, []).append((Fraction(f.c), f.power))
    coeffs = [Fraction(0)] * (order + 1)
    for b, members in groups.items():
        den = lcm(*(c.denominator for c, _ in members))
        base = [c.numerator * (den // c.denominator) for c, _ in members]
        terms = [power for _, power in members]
        bn, bd = b.numerator, b.denominator
        bnm = bdm = denm = 1
        for m in range(1, order + 1):
            terms = [t * u for t, u in zip(terms, base)]
            bnm, bdm, denm = bnm * bn, bdm * bd, denm * den
            # power c^m / (m (1 - b^m)) = power u^m bd^m / (den^m m (bd^m - bn^m))
            coeffs[m] -= Fraction(sum(terms) * bdm, denm * m * (bdm - bnm))
    return TruncatedSeries(coeffs, order)


def qpoch_log_series(c, b, order, power=1):
    """Exact jet of the infinite product prod_{n>=0} (1 - c*x*b^n)**power.

    Euler's sums (Gasper-Rahman (1.3.15)-(1.3.16)), |b| < 1, with no exp:
    t_0 = 1 and t_m = t_(m-1) (-c b^(m-1)) / (1 - b^m) for power +1,
    t_m = t_(m-1) c / (1 - b^m) for power -1.
    """
    QPochFactor(c, b, power)  # the exactness and power checks
    if abs(b) >= 1:
        raise DomainError("need |b| < 1 for the infinite product, got %s" % b)
    out = [Fraction(1)]
    for m in range(1, order + 1):
        step = c if power == -1 else -c * b ** (m - 1)
        out.append(out[-1] * step / (1 - b ** m))
    return TruncatedSeries(out, order)
