"""Exact work and photon statistics for a harmonically driven cavity field."""

from .errors import (
    AmbiguousResonanceError,
    BranchTrackingError,
    CaveworkError,
    ConfigError,
    CoupledResonanceError,
    DegenerateResonanceError,
    InversionError,
    ModeValidationError,
    RootBracketingError,
    SymplecticityError,
    TraceDivergenceError,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousResonanceError",
    "BranchTrackingError",
    "CaveworkError",
    "ConfigError",
    "CoupledResonanceError",
    "DegenerateResonanceError",
    "InversionError",
    "ModeValidationError",
    "RootBracketingError",
    "SymplecticityError",
    "TraceDivergenceError",
    "__version__",
]
