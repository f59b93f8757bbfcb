"""Exception types shared across the package."""


class ApcError(Exception):
    """Base class for every error raised by this package."""


class FormatError(ApcError, ValueError):
    """Base class for malformed instance documents."""


class MalformedHeaderError(FormatError):
    """Document structure is broken: bad magic, missing section, bad token."""


class DimensionMismatchError(FormatError):
    """Cost block does not contain exactly n rows of n entries."""


class IndexOutOfRangeError(FormatError):
    """A conflict references a node index outside [0, n)."""


class DegenerateConflictError(FormatError):
    """A conflict pair names the same edge twice."""


class DuplicateConflictError(FormatError):
    """The same (canonicalized) conflict pair appears more than once."""


class NegativeCostError(FormatError):
    """A cost entry is negative."""


class TooManyConflictsError(ApcError, ValueError):
    """Requested more conflict pairs than distinct edge pairs exist."""


class NotAPermutationError(ApcError, ValueError):
    """An assignment array is not a permutation of 0..n-1."""


class InstanceTooLargeError(ApcError, ValueError):
    """Instance exceeds the hard size guard of the exhaustive solver."""


class InfeasibleStartError(ApcError, ValueError):
    """Local search was started from a conflict-violating solution."""


class NonpositiveOptError(ApcError, ValueError):
    """Gap computation needs a strictly positive reference optimum."""


class UnknownMethodError(ApcError, ValueError):
    """Benchmark was asked to run a method it does not know."""


class MissingReferenceOptimumError(ApcError, ValueError):
    """Heuristic gaps requested but no optimum source is configured."""


class EmptyReportError(ApcError, ValueError):
    """Table emission needs at least one benchmark record."""


class IncompleteReportError(ApcError, ValueError):
    """Table emission needs a record for every (group, method) cell."""
