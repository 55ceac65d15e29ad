"""Exception taxonomy shared by all lftident modules."""

from __future__ import annotations


class LftIdentError(Exception):
    """Base class for all errors raised by lftident."""


class InvalidInput(LftIdentError, ValueError):
    """Malformed call arguments: non-finite entries, bad dimensions, duplicates."""


class ModelFormatError(LftIdentError):
    """Model file does not parse or is missing required keys."""


class ModelShapeError(LftIdentError):
    """Model matrices have inconsistent dimensions."""


class NonFiniteEntryError(LftIdentError):
    """Model data contains NaN or infinite entries."""


class RegularityViolation(LftIdentError):
    """det(lambda*E - A(theta)) vanishes identically for some admissible theta."""


class WellPosednessViolation(LftIdentError):
    """I - P(theta)*D_zv is singular for some admissible theta."""


class PoleProximity(LftIdentError):
    """Requested frequency is too close to a pole of the pencil; pick another."""


class FNRRViolation(LftIdentError):
    """G_zu fails the full-normal-row-rank hypothesis (or rank probes disagree)."""


class RankDrop(LftIdentError):
    """A transfer block loses its normal rank at this frequency; pick another."""


class GammaRankDeficient(LftIdentError):
    """Sloppiness machinery refused: the frequency set does not certify identifiability."""


class DeviationSpaceMismatch(LftIdentError):
    """The admissible first-order deviations do not span q dimensions at these frequencies."""


class ConstructionError(LftIdentError):
    """An internal self-check failed; indicates a numerical inconsistency."""


class EmptyGrid(LftIdentError):
    """Every candidate frequency was removed by the pole guard."""
