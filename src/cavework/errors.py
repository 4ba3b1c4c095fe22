"""Exception types shared across the package."""

from __future__ import annotations


class CaveworkError(Exception):
    """Base class for all package-specific failures."""


class RootBracketingError(CaveworkError):
    """A Bessel root could not be bracketed or refined."""

    def __init__(self, kind, order: int, index: int, detail: str = ""):
        self.kind = kind
        self.order = order
        self.index = index
        msg = f"failed to locate root {kind} order={order} index={index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ModeValidationError(CaveworkError, ValueError):
    """Mode index incompatible with the geometry/polarization constraints."""


class AmbiguousResonanceError(CaveworkError):
    """The classification tolerance matched two conditions for one pair."""

    def __init__(self, collisions):
        self.collisions = list(collisions)
        lines = ", ".join(str(c) for c in self.collisions)
        super().__init__(
            "resonance tolerance is too coarse; conflicting matches: " + lines
        )


class DegenerateResonanceError(CaveworkError, ValueError):
    """Difference-type resonance requested for two equal frequencies."""


class SymplecticityError(CaveworkError):
    """A characteristic matrix failed the group-membership check."""


class TraceDivergenceError(CaveworkError):
    """det([J] - I) vanished; the Gaussian-operator trace is unbounded."""


class BranchTrackingError(CaveworkError):
    """The square-root branch could not be followed continuously."""


class InversionError(CaveworkError):
    """Characteristic-function inversion failed a consistency check."""


class ConfigError(CaveworkError, ValueError):
    """Bad or incomplete run configuration."""
