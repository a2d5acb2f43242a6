"""Exception types raised by the library: one class per way a caller reacts.

The message says what went wrong; the class says only what to do about it.

- ``CascadeKDError``: base of every library error.
- ``ValidationError``: bad inputs, configuration or files, detected before
  the work they describe is done. The CLI exits 1 on it.
- ``NumericError``: a runtime numeric failure (non-finite values, a
  checkpoint whose bytes do not match their digest).
- ``NonFiniteLossError``: a loss that is NaN or infinite.
- ``DataExhaustedError``: a batch stream that ran dry mid-stage.

The CLI exits 1 on ``ValidationError`` and 2 on every other
``CascadeKDError``. Only ``NonFiniteLossError`` is caught by type, by
``run_stage``: it re-raises it with the stage and step that hit it, since
only the stage loop knows where it is.
"""


class CascadeKDError(Exception):
    """Base class for all library errors."""


class ValidationError(CascadeKDError):
    """Bad inputs or configuration, detected before any work is done."""


class NumericError(CascadeKDError):
    """Runtime numeric failure (non-finite values, digest mismatch, ...)."""


class NonFiniteLossError(NumericError):
    """A loss that is NaN or infinite."""


class DataExhaustedError(CascadeKDError):
    """A batch stream ran out before a stage finished."""
