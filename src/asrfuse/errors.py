"""The one exception type for rejected outside input.

It imports no other `asrfuse` module, so every module that reads a file, a
config or a command-line value can raise it.
"""

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """Bad config, manifest, arguments or input file; maps to exit code 2.

    A `ValueError`, so library callers that catch `ValueError` keep working."""
