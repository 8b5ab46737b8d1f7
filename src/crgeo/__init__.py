"""Numerical verification engine for Tanaka-Webster and Fefferman geometry.

The package builds coordinate charts with exact (jet-based) derivatives,
computes Levi-Civita and Tanaka-Webster curvature, constructs
pseudo-Hermitian Einstein structures over Kaehler-Einstein bases, and
checks the induced Fefferman metrics and their conformal Einstein
rescalings as numerical residuals.
"""

from .chart import (
    Chart,
    Endomorphism,
    OneForm,
    ScalarField,
    SymmetricTwoTensor,
    TwoForm,
    VectorField,
    derivative,
    differential,
    exterior_derivative,
    lie_bracket,
    symmetric_product,
)
from .errors import DegeneracyError, DomainError, PreconditionError, UsageError

__all__ = [
    "Chart",
    "ScalarField",
    "VectorField",
    "OneForm",
    "TwoForm",
    "SymmetricTwoTensor",
    "Endomorphism",
    "derivative",
    "differential",
    "exterior_derivative",
    "lie_bracket",
    "symmetric_product",
    "DomainError",
    "DegeneracyError",
    "PreconditionError",
    "UsageError",
]
