"""The package's three refusals: every error it raises to a caller is one of these.

The command line maps ValidationError to exit 2 and RangeError and CapError
to exit 3; any other exception is a bug and propagates.
"""


class RangeError(ValueError):
    """An integer argument lies outside the range covered by the scale."""


class ValidationError(ValueError):
    """A digit string, spec string, or atom table violates an invariant."""


class CapError(ValueError):
    """A requested transform size exceeds the hard cap."""
