"""Exact character-sum kernels over small finite fields.

Gaussian hypergeometric sums evaluated exactly as integer vectors over
roots of unity, brute-force point counts for Huff, general Huff,
Weierstrass and Edwards curve models, and an audit engine that sweeps
claimed identities between the two and reports exact rational
residuals.
"""

from .audit import (
    Identity,
    IdentityReport,
    PointRecord,
    audit_identity,
    emit,
    emit_chunks,
    identity_by_key,
    registry,
    sweep,
)
from .chars import (
    Character,
    phi_at_minus_one,
    quadratic_character,
    trivial_character,
)
from .curves import (
    CurveCount,
    EdwardsParams,
    GeneralHuffParams,
    HuffParams,
    MapReport,
    ParameterError,
    WeierstrassParams,
    count_edwards_affine,
    count_general_huff,
    count_general_huff_quartic,
    count_huff,
    count_weierstrass,
    map_points,
)
from .cyclo import (
    NonRationalValueError,
    cyclotomic_polynomial,
)
from .ff import (
    Q_CAP,
    FieldContext,
    FieldError,
    make_field,
    odd_prime_powers,
)
from .hyp import (
    HypSpec,
    TwoSquares,
    cornacchia,
    hyp_eval,
    ono_value_minus1,
    two_f_one,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CurveCount",
    "EdwardsParams",
    "FieldContext",
    "FieldError",
    "GeneralHuffParams",
    "HuffParams",
    "HypSpec",
    "Identity",
    "IdentityReport",
    "MapReport",
    "NonRationalValueError",
    "ParameterError",
    "PointRecord",
    "Q_CAP",
    "TwoSquares",
    "WeierstrassParams",
    "audit_identity",
    "cornacchia",
    "count_edwards_affine",
    "count_general_huff",
    "count_general_huff_quartic",
    "count_huff",
    "count_weierstrass",
    "cyclotomic_polynomial",
    "emit",
    "emit_chunks",
    "hyp_eval",
    "identity_by_key",
    "make_field",
    "map_points",
    "odd_prime_powers",
    "ono_value_minus1",
    "phi_at_minus_one",
    "quadratic_character",
    "registry",
    "sweep",
    "trivial_character",
    "two_f_one",
]
