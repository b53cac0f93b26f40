"""Exception types shared across the library."""


class SingularityError(ValueError):
    """A dispersive denominator fell inside the configured floor.

    Carries enough context to name the offending transmon, level and
    resonator (and, during time evolution, the sample time).  ``row`` is the
    position of the offending frequency sample in a batch of samples.
    """

    def __init__(self, message, *, transmon=None, level=None,
                 resonator_frequency=None, time=None, row=None):
        super().__init__(message)
        self.transmon = transmon
        self.level = level
        self.resonator_frequency = resonator_frequency
        self.time = time
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
