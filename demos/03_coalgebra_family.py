"""The shifted coproduct family and its axioms, symbolically.

All of this is exact: tensor words with Koszul signs, central shifts as
formal linear forms, no floating point anywhere.
"""

from ospboson.hopf import (
    AXIOM_GENERATORS,
    CONVENTIONS,
    SignConvention,
    coproduct,
    coproduct_repr,
    generator_expr,
    search_conventions,
    verify_axiom,
)

print("coproducts out of the degree-0 algebra:")
for kind in ("c", "H+", "H-", "E", "F"):
    print("  D+ %-2s = %s" % (kind, coproduct_repr(kind)))
print()

# iterating the two coproducts on E shows the three-term compatibility
e = generator_expr("E", 0)
lhs = coproduct(coproduct(e, 1, n=0), -1, slot=0, n=0)
print("(D- x id) D+ E =")
print("  ", lhs)
print()

conv = SignConvention(1, -1)
for axiom in ("a1", "a2", "a3"):
    for gen in ("H-", "E"):
        rep = verify_axiom(axiom, gen, conv)
        print("%s on %-2s under (%s): %s"
              % (axiom, gen, conv.label(), rep["verdict"]))
        for w in rep["witnesses"]:
            print("      witness:", w["difference"])
print()

search = search_conventions()
print("convention search over", len(CONVENTIONS), "sign choices,",
      len(AXIOM_GENERATORS), "generators:")
for table in search["tables"]:
    print("  %-24s all_pass=%s" % (table["convention"], table["all_pass"]))
print("universal failures:", search["universal_failures"])
note = search["corrected_antipode_annotation"]
print("antipode with flipped odd signs passes under:",
      note["passing_conventions"])
