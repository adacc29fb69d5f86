"""Exact and high-precision checks for a two-parameter deformed affine
superalgebra in its free boson realization: truncated-series OPE identities,
the level-1 exchange-relation catalog, coalgebra axioms for the shifted
coproduct family, and trigonometric/rational scaling limits."""

__version__ = "0.1.0"
