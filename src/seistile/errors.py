"""Exception types shared across the library.

Each class carries the process exit code the CLI ends with when it is
raised: configuration problems exit with 1, data/format problems with 2,
runtime failures with 3.
"""


class SeistileError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class DimensionError(SeistileError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(SeistileError):
    """An API precondition was violated (misuse, not data)."""


class ParseError(SeistileError):
    """Topology DSL text could not be parsed."""

    exit_code = 1


class TopologyError(SeistileError):
    """A parsed topology violates a structural invariant."""

    exit_code = 1


class ConfigError(SeistileError):
    """A run configuration is missing, malformed, or inconsistent."""

    exit_code = 1


class FormatError(SeistileError):
    """A binary file does not match its declared format."""

    exit_code = 2


class CorruptionError(FormatError):
    """A binary file has a valid header but a truncated/oversized payload."""


class LabelError(SeistileError):
    """A label value lies outside the valid class range."""

    exit_code = 2


class DegenerateBatchError(SeistileError):
    """Batch statistics were requested over fewer than two elements."""


class DivergenceError(SeistileError):
    """Training produced non-finite values.

    ``train`` has by then written its best checkpoint so far, if any epoch
    finished, to its checkpoint path.
    """
