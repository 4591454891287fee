"""Exception types shared across the package."""


class NDError(Exception):
    """Base class for all package errors."""


class ParseError(NDError):
    """Malformed ARFF/CSV input. Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedFeature(ParseError):
    """Input uses a feature outside the supported format subset
    (sparse ARFF, string/date attributes)."""


class MissingValue(ParseError):
    """A '?' token, or an empty CSV cell, in the data; missing values are
    not supported."""


class EmptyInput(NDError):
    """Input text contains no data."""


class InvalidK(NDError):
    """Fold count incompatible with the dataset size."""


class DegenerateWeights(NDError):
    """All resampling weights are zero."""


class SingleClass(NDError):
    """A binary learner was given data containing only one class."""


class DidNotConverge(NDError):
    """Optimizer hit the iteration cap with the gradient above tolerance.

    Carries the partial model in ``model`` and the iteration count in
    ``iterations``.
    """

    def __init__(self, iterations: int, model=None):
        self.iterations = iterations
        self.model = model
        super().__init__(f"no convergence after {iterations} iterations")


class EncodingMismatch(NDError):
    """Instance values do not fit the model's attributes: the wrong count,
    a non-finite feature value, or an undeclared nominal value.  Carries the
    offending ``column``, None for a wrong count, and the ``reason``."""

    def __init__(self, reason: str, column: int | None = None):
        self.reason = reason
        self.column = column
        super().__init__(reason if column is None else f"{reason} in column {column}")


class TooFewClasses(NDError, ValueError):
    """The data holds fewer classes than the analysis needs."""


class MismatchedPlans(NDError):
    """Two CV results being compared were not produced from the same fold plan."""


class AllMembersRejected(NDError):
    """Every boosting round produced a member with weighted error >= 1/2."""


class TrainingError(NDError):
    """Learner failure during tree construction, annotated with the class
    subset of the node where it happened."""

    def __init__(self, class_subset, cause: Exception):
        self.class_subset = tuple(class_subset)
        self.cause = cause
        super().__init__(f"training failed at node {self.class_subset}: {cause}")


class InvalidParam(ValueError):
    """An option out of its range.  ``field`` names the option as the
    object that checks it spells it, ``requirement`` says what it must be,
    so a caller that knows the option by another name can say it so."""

    def __init__(self, field: str, requirement: str):
        self.field = field
        self.requirement = requirement
        super().__init__(f"{field} {requirement}")


class ConfigError(NDError):
    """Experiment configuration problem. Carries the config line number
    (0 when the problem is not tied to a specific line)."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"config line {line}: {reason}" if line else reason)
