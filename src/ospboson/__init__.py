"""Exact and high-precision checks for a two-parameter deformed affine
superalgebra in its free boson realization: truncated-series OPE identities,
the level-1 exchange-relation catalog, coalgebra axioms for the shifted
coproduct family, and trigonometric/rational scaling limits."""

__version__ = "0.1.0"

from .degeneration import (
    eta_prime,
    limit_check,
    rational_structure_function,
    trig_structure_function,
)
from .freefield import (
    DeformationParams,
    E_current,
    F_current,
    build_H,
    contraction_series,
    delta_decompose,
    exp_contraction_closed,
    mode_bracket,
    ope_kernel,
)
from .hopf import (
    SignConvention,
    coproduct,
    counit,
    antipode,
    search_conventions,
    verify_axiom,
)
from .relations import relation_catalog, verify_ef, verify_exchange
from .series import TruncatedSeries, qpoch_log_series
from .theta import theta_eval, theta_eval_modular

__all__ = [
    "__version__",
    "DeformationParams",
    "E_current",
    "F_current",
    "build_H",
    "contraction_series",
    "delta_decompose",
    "exp_contraction_closed",
    "mode_bracket",
    "ope_kernel",
    "TruncatedSeries",
    "qpoch_log_series",
    "theta_eval",
    "theta_eval_modular",
    "relation_catalog",
    "verify_exchange",
    "verify_ef",
    "SignConvention",
    "coproduct",
    "counit",
    "antipode",
    "verify_axiom",
    "search_conventions",
    "eta_prime",
    "trig_structure_function",
    "rational_structure_function",
    "limit_check",
]
