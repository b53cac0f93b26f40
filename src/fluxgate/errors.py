"""Exception types shared across the library, and the two checks of a number
from outside: its JSON type (``_json_field``), its range (``_check_number``)."""

import math
import numbers

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


_REQUIRED = object()
_JSON_NOUNS = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def _json_field(doc, key, where, kind=float, default=_REQUIRED, null=False):
    """``doc[key]`` of ``kind``: ``float`` (a number, not true or false),
    ``int`` (one written without a point or exponent), ``bool``, ``str``,
    ``list``, ``dict`` or ``[kind]``, a list of ``kind``; a missing key
    gives ``default`` if one is given, and ``null`` lets the value be None.
    Else a missing key or another kind is a ValueError naming ``key``."""
    if not isinstance(doc, dict) or key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} lacks {key!r}")
        return default
    value = doc[key]
    if not (null and value is None):
        _check_json_kind(value, kind, f"{where}: {key}")
    return value


def _check_json_kind(value, kind, name):
    if isinstance(kind, list):
        _check_json_kind(value, list, name)
        for i, item in enumerate(value):
            _check_json_kind(item, kind[0], f"{name}[{i}]")
    elif isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ValueError(f"{name} must be {_JSON_NOUNS[kind]}, got {value!r}")


def _check_number(name, value, rule="finite"):
    """A ValueError naming ``name`` and ``value`` unless ``value`` (or each
    element of a tuple or list) is ``finite``, ``positive`` and finite, an
    ``integer`` (an Integral, not a bool or a float: 1e400 reads as inf),
    or a ``non-negative`` integer.  An integer too large for a float is
    not finite."""
    for v in value if isinstance(value, (tuple, list)) else (value,):
        if rule in ("integer", "non-negative"):
            ok = (isinstance(v, numbers.Integral) and not isinstance(v, bool)
                  and (rule == "integer" or v >= 0))
        else:
            try:
                ok = (isinstance(v, numbers.Real) and math.isfinite(v)
                      and (rule == "finite" or v > 0))
            except OverflowError:  # an integer beyond the float range
                ok = False
        if not ok:
            noun = {"finite": "finite", "positive": "positive and finite",
                    "integer": "an integer",
                    "non-negative": "a non-negative integer"}[rule]
            raise ValueError(f"{name} must be {noun}, got {value!r}")
