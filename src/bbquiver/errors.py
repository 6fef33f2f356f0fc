"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ValidationError -> 2,
UnsupportedError -> 3, InconsistencyError -> 4.
"""


class BBQuiverError(Exception):
    """Base class for all library errors."""


class ValidationError(BBQuiverError):
    """Malformed input: unknown vertices, rank mismatches, bad files."""


class UnsupportedError(BBQuiverError):
    """Well-formed input outside the supported regime (non-coprime,
    oriented cycles, a field size whose primality cannot be certified)."""


class InconsistencyError(BBQuiverError):
    """An internal invariant failed; indicates invalid upstream data or a bug."""
