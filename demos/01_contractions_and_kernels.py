"""Free boson substrate: mode brackets, contractions, OPE kernels.

Every quantity here is exact rational arithmetic, so equality checks are
literal `==` on coefficient tables.
"""

from fractions import Fraction

from ospboson.freefield import (
    DeformationParams,
    E_current,
    F_current,
    contraction_series,
    delta_decompose,
    exp_contraction_closed,
    kernel_repr,
    mode_bracket,
    ope_kernel,
)
from ospboson.series import TruncatedSeries, qpoch_log_series

P = DeformationParams(Fraction(1, 2), Fraction(1, 3))

print("deformation point q = %s, p = %s" % (P.q, P.p))
print("[a_1, a_-1] =", mode_bracket(1, -1, P))
print()

# the two-point functions of the basic fields, as x = w/z jets
for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi")):
    jet = contraction_series(pair[0], pair[1], P, 8)
    print("<%s(z) %s(w)> jet:" % pair, jet.coeffs[:5], "...")

print()
print("exp(contraction) against closed form, order 12, exact:")
for pair in (("phi", "phi"), ("psi", "psi"), ("phi", "psi")):
    jet = contraction_series(pair[0], pair[1], P, 12).exp()
    acc = TruncatedSeries.one(12)
    for f in exp_contraction_closed(pair[0], pair[1], P):
        acc = acc * qpoch_log_series(f.c, f.b, 12, f.power)
    print("  %s,%s:" % pair, "equal" if acc.coeffs == jet.coeffs else "MISMATCH")

print()
Pr = DeformationParams(Fraction(2, 5), Fraction(1, 4), Fraction(1, 2))
E = E_current()
F = F_current()

print("E(z)E(w) kernel:")
print(kernel_repr(ope_kernel(E, E, Pr, order=6)))
print()
print("E(z)F(w) kernel:")
KEF = ope_kernel(E, F, Pr, order=6)
print(kernel_repr(KEF))
print()

# the anticommutator collapses onto two delta supports
terms, discarded = delta_decompose(KEF)
print("delta supports and residues:")
for t in terms:
    print("  x =", t.support_x, " residue", t.residue)
print("polynomial remainder discarded:", bool(discarded))
