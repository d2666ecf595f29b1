"""Exception types shared across the package."""


class MonomatError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatchError(MonomatError):
    """Two sequences that must share a length do not."""


class TiedCoordinateError(MonomatError):
    """A strict coordinatewise comparison hit two equal values."""

    def __init__(self, coordinate):
        self.coordinate = coordinate
        super().__init__(f"tied values at coordinate {coordinate}")


class IndexOutOfBoundsError(MonomatError):
    """A row or column index falls outside the matrix."""


class LeafOutOfRangeError(MonomatError):
    """A leaf number falls outside 1..2^m."""


class EmptySetError(MonomatError):
    """An operation that needs a non-empty set received an empty one."""


class DepthOutOfRangeError(MonomatError):
    """A depth falls outside the allowed range for the tree height."""


class NotPerfectError(MonomatError):
    """An induced tree expected to be a perfect binary tree is not."""


class NotPowerOfTwoError(MonomatError):
    """A sequence whose length must be a power of two has another length."""


class TooShortError(MonomatError):
    """A sequence is too short to split."""


class InsufficientLengthError(MonomatError):
    """The tree-like construction ran out of elements before the target height."""

    def __init__(self, achieved, target):
        self.achieved = achieved
        self.target = target
        super().__init__(f"construction died at height {achieved}, target {target}")


class InsufficientTreeError(MonomatError):
    """The perfect-leafset induction ran out of subtrees before the target height."""

    def __init__(self, achieved, target):
        self.achieved = achieved
        self.target = target
        super().__init__(f"induction died at height {achieved}, target {target}")


class EqualVectorsError(MonomatError):
    """Two bit vectors that must differ are equal."""


class RankOutOfRangeError(MonomatError):
    """A colex rank falls outside 1..2^t."""


class ExhaustedAttemptsError(MonomatError):
    """Rejection sampling used up its attempt budget without a valid sample."""

    def __init__(self, attempts):
        self.attempts = attempts
        super().__init__(f"no valid sample after {attempts} attempts")


class BudgetExceededError(MonomatError):
    """A brute-force search was truncated by its budget before covering the space."""


class GuaranteeUnmetError(MonomatError):
    """Guaranteed mode was requested but its preconditions do not hold."""


class InternalCheckError(MonomatError):
    """A postcondition that must always hold failed; this signals a bug."""


class FormatError(MonomatError):
    """A text artifact could not be parsed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
