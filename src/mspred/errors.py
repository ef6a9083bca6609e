"""Exception taxonomy shared across the package, and the one checked JSON
form of the spec dataclasses (``DictForm``).

Every failure mode promised by an operation contract maps to one of these
classes, so callers can discriminate on type instead of message text.
"""

import math
from dataclasses import asdict, fields


class MspredError(Exception):
    """Base class for all package errors."""


class DimensionError(MspredError):
    """Operand shapes violate an operation precondition."""


class SingularityError(MspredError):
    """A matrix that must be positive definite / full rank is not.

    Attributes:
        pivot: index of the Cholesky pivot (or diagonal entry) that failed.
        matrix: index of the failing matrix when the input was a batch,
            else None.
    """

    def __init__(self, message, pivot=None, matrix=None):
        super().__init__(message)
        self.pivot = pivot
        self.matrix = matrix


class NumericError(MspredError):
    """Non-finite values or an iterative solver that failed to converge."""


class ContractError(MspredError):
    """API misuse: wrong call order, bad argument domain, unknown key."""


class ValidationError(MspredError):
    """A configuration or generator spec violates its invariants.

    Attributes:
        field: name of the offending field, when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class FormatError(MspredError):
    """A serialized artifact (dataset, checkpoint, config) is malformed."""


class ProvenanceError(MspredError):
    """Two artifacts of one run disagree on where they came from: a
    checkpoint records another dataset than the one it is analysed with."""


class TrainingAbort(MspredError):
    """Training hit a non-finite loss or gradient and stopped.

    Carries the last finite parameter state so callers can persist it.

    Attributes:
        iteration: 0-based iteration at which the abort fired.
        params: deep copy of the parameters before the failing update.
        metrics: metric records collected up to the abort.
    """

    def __init__(self, message, iteration, params=None, metrics=None):
        super().__init__(message)
        self.iteration = iteration
        self.params = params
        self.metrics = metrics if metrics is not None else []


# ---------------------------------------------------------------------------
# field checkers and the checked dict form of the spec dataclasses


def require_int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer", field=field)
    return value


def require_real(value, field):
    finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not finite:
        raise ValidationError(f"{field} must be a finite number", field=field)
    return value


def _require_range(value, field) -> tuple:
    """A (low, high) pair of finite floats; the low < high check is the spec's."""
    try:
        pair = tuple(float(x) for x in value)
    except (TypeError, ValueError, OverflowError):
        pair = ()
    if (not isinstance(value, (list, tuple)) or len(pair) != 2
            or not all(map(math.isfinite, pair))):
        raise ValidationError(f"{field} must be a pair of finite numbers", field=field)
    return pair


def _require_str(value, field):
    if not isinstance(value, str):
        raise ValidationError(f"{field} must be a string", field=field)
    return value


def _require_sizes(value, field) -> tuple:
    if not isinstance(value, list):
        raise ValidationError(f"{field} must be a list of integers", field=field)
    return tuple(require_int(size, field) for size in value)


# one checker per field annotation, as the string that ``from __future__ import
# annotations`` leaves; null is allowed only where the default is None
_CHECKERS = {
    "int": require_int,
    "int | None": lambda value, field: None if value is None else require_int(value, field),
    "float": require_real,
    "float | None": lambda value, field: None if value is None else require_real(value, field),
    "str": _require_str,
    "tuple[float, float]": _require_range,
    "tuple[int, ...]": _require_sizes,
}


class DictForm:
    """Mixin giving a spec dataclass its one JSON form.

    The config file, the dataset header and the checkpoint manifest all
    read a ``GeneratorSpec`` or ``TrainConfig`` through ``from_dict``, so
    all three apply the same type rules; the metrics log checks its rows'
    values with ``MetricsRecord``'s.
    """

    def to_dict(self) -> dict:
        """The field values, JSON-ready: tuples become lists."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc):
        """Inverse of ``to_dict``: exactly the dataclass's fields, each checked
        against its annotation. Ranges become float pairs and hidden sizes
        tuples; no other value is coerced.

        Raises:
            ValidationError: a missing, unknown or mistyped key, named as
                ``field`` (a missing or unknown key names the first one).
        """
        if not isinstance(doc, dict):
            raise ValidationError(f"a {cls.__name__} must be a JSON object", field="(root)")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in doc]
        if missing:
            raise ValidationError(f"missing key(s) {missing}", field=missing[0])
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise ValidationError(f"unknown key(s) {unknown}", field=unknown[0])
        return cls(**{f.name: _CHECKERS[f.type](doc[f.name], f.name) for f in fields(cls)})
