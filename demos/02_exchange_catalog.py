"""The level-1 exchange catalog and its numerical verification.

Two catalog modes exist.  "canonical" holds the structure functions that the
realization actually satisfies (residuals at working precision); under
"strict-text" the entries follow the printed displays verbatim, and the
DISPLAY_AUDIT table records where the two disagree.
"""

from fractions import Fraction

from mpmath import mp

from ospboson.freefield import DeformationParams
from ospboson.relations import (
    DISPLAY_AUDIT,
    relation_catalog,
    structure_function_repr,
    verify_ef,
    verify_exchange,
)

P = DeformationParams(Fraction(2, 5), Fraction(1, 4), Fraction(1, 2))

print("catalog (canonical mode):")
for rel in relation_catalog(mode="canonical"):
    print("  %-5s %s" % (rel.rel_id, rel.kind))
print()

cat = {r.rel_id: r for r in relation_catalog(mode="canonical")}

print("structure function of the mixed H relation:")
print(" ", structure_function_repr(cat["H+H-"].structure_function))
print()

for rel_id in ("EE", "H+E", "HH"):
    rep = verify_exchange(cat[rel_id], P, samples=25, digits=40,
                          tolerance=mp.mpf(10) ** -20, seed=1)
    print("%-5s residual_max = %s  -> %s"
          % (rel_id, rep["residual_max"], rep["verdict"]))

rep = verify_ef(P)
print("EF    delta supports %s -> %s" % (rep["delta_supports"], rep["verdict"]))
print()

# replacing the structure function by 1 has to break the identity
control = verify_exchange(cat["EE"], P, samples=10, digits=40,
                          tolerance=mp.mpf(10) ** -20, seed=1,
                          unit_structure=True)
print("negative control (S := 1): residual_max =", control["residual_max"],
      "->", control["verdict"])
print()

print("display audit (printed text vs verified kernels):")
for rel_id, note in sorted(DISPLAY_AUDIT.items()):
    if isinstance(note, tuple):
        note = "differs by the constant p^%d" % note[1]
    print("  %-5s %s" % (rel_id, note))
