"""Exception types shared across the library, and the JSON field check."""

__all__ = [
    "SingularityError",
    "EvolutionError",
    "DegenerateUnitaryError",
    "InfeasibilityError",
    "EvaluationError",
    "TomographyError",
]


class SingularityError(ValueError):
    """A dispersive denominator fell inside the configured floor.

    Names the offending transmon, level and resonator.  ``row`` is the
    position of the offending frequency sample in a batch of samples; time
    evolution reports the sample time through :class:`EvolutionError`.
    """

    def __init__(self, message, *, transmon=None, level=None,
                 resonator_frequency=None, row=None):
        super().__init__(message)
        self.transmon = transmon
        self.level = level
        self.resonator_frequency = resonator_frequency
        self.row = row


class EvolutionError(RuntimeError):
    """Time evolution failed; names the sample time and qubit."""

    def __init__(self, message, *, time=None, transmon=None):
        super().__init__(message)
        self.time = time
        self.transmon = transmon


class DegenerateUnitaryError(ValueError):
    """A diagonal entry needed for phase fitting is (numerically) zero."""


class InfeasibilityError(RuntimeError):
    """Constraint repair exhausted its attempt budget."""


class EvaluationError(RuntimeError):
    """A fitness evaluation returned NaN; carries the offending chromosome."""

    def __init__(self, message, *, chromosome=None):
        super().__init__(message)
        self.chromosome = chromosome


class TomographyError(RuntimeError):
    """Process-matrix estimation failed (e.g. rank-deficient input set)."""


def _json_field(doc, key, where, kind=(int, float)):
    """``doc[key]``, a number (not JSON's true or false) or a list; a
    missing key or another kind is a ValueError naming ``key``."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where} lacks {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "a list" if kind is list else "a number"
        raise ValueError(f"{where}: {key} must be {noun}, got {value!r}")
    return value
