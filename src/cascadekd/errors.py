"""Exception types raised by the library.

Every contract violation maps to a distinct class so callers (and the CLI
exit-code logic) can tell configuration mistakes apart from runtime/numeric
failures.
"""


class CascadeKDError(Exception):
    """Base class for all library errors."""


class ValidationError(CascadeKDError):
    """Bad inputs or configuration, detected before any work is done."""


class NumericError(CascadeKDError):
    """Runtime numeric failure (non-finite values, digest mismatch, ...)."""


# --- tensor ops ---------------------------------------------------------

class ShapeMismatchError(ValidationError):
    pass


class EmptyTensorError(ValidationError):
    pass


class AllMaskedError(ValidationError):
    pass


class LabelOutOfRangeError(ValidationError):
    pass


class NonScalarLossError(ValidationError):
    pass


class NonFiniteLossError(NumericError):
    pass


# --- encoder ------------------------------------------------------------

class InvalidConfigError(ValidationError):
    pass


class TokenOutOfRangeError(ValidationError):
    pass


class SequenceTooLongError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


# --- distillation -------------------------------------------------------

class TeacherTooShallowError(ValidationError):
    pass


class HeadCountMismatchError(ValidationError):
    pass


class DepthMismatchError(ValidationError):
    pass


class DataExhaustedError(CascadeKDError):
    pass


# --- corpus -------------------------------------------------------------

class EmptyTableError(ValidationError):
    pass


class NonPositiveSizeError(ValidationError):
    pass


class DegenerateRatioError(ValidationError):
    pass


class InvalidTargetError(ValidationError):
    pass


class InvalidDistributionError(ValidationError):
    pass


class InvalidSpecError(ValidationError):
    pass


# --- training -----------------------------------------------------------

class StepOutOfRangeError(ValidationError):
    pass


class EmptyEvalSetError(ValidationError):
    pass


# --- persistence --------------------------------------------------------

class DigestMismatchError(NumericError):
    pass


class VersionMismatchError(ValidationError):
    pass


class InconsistentColumnsError(ValidationError):
    pass
