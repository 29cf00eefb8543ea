"""The package's four error types.

Every library failure derives from :class:`DrslError`, so callers (and the
CLI, which maps any of them to exit code 1) can tell validation and compute
problems from genuine bugs. The message names the offending value, shape,
subject or file line.
"""


class DrslError(Exception):
    """An argument or data value out of range, or data on which a result is
    undefined (a constant vector, two identical signatures)."""


class ShapeMismatch(DrslError):
    """Sizes that disagree with each other, or fall below a minimum count."""


class NonFinite(DrslError):
    """NaN or infinite entries in the data, or a run that diverged."""


class ParseError(DrslError):
    """A dataset or matrix file that is missing, malformed, or disagrees
    with its manifest; the message names the file and, where known, the line."""
