"""Exception taxonomy shared across the package.

Every failure mode promised by an operation contract maps to one of these
classes, so callers can discriminate on type instead of message text.
"""


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
