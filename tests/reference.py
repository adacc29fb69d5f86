"""Independent references that only the tests use.

Each one computes what a test checks the program against, apart from the
code under test.
"""

from ospboson.errors import StructuralError
from ospboson.relations import RelationSpec, StructureFunction, ThetaFactor


def inverse_structure_function(f):
    """The structure function of the swapped relation: S'(x) = 1 / S(1/x).

    A(z)B(w) = S(w/z) B(w)A(z) is equivalent to B(z)A(w) = S'(w/z) A(w)B(z).
    """
    factors = tuple(
        ThetaFactor(tf.base, -tf.orient, tf.p_shift, tf.c_shift, -tf.power)
        for tf in f.factors
    )
    return StructureFunction(f.sign, -f.p_exp, factors)


def theta_argument(tf, x, p, c):
    """The argument x^orient p^(p_shift + c_shift c) of a theta factor, taken
    as written, factor by factor."""
    return x ** tf.orient * p ** tf.shift(c)


def swapped_relation(rel):
    """The same exchange relation read right-to-left."""
    if rel.kind != "exchange":
        raise StructuralError("only exchange relations swap")
    return RelationSpec(
        rel.rel_id + "-swapped", "exchange", rel.right, rel.left,
        inverse_structure_function(rel.structure_function), rel.mode, rel.notes)
