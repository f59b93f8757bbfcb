"""The parser's diagnostics, and the one rule for every other refusal.

A fault in instance data raises a `FormatError` subclass: in a document,
the message names the line (or says that the document ended early); costs
or conflicts handed to `Instance` raise the same subclasses. Every other
refusal raises plain ValueError with the refused value in its message, and
a non-int where an int is required raises TypeError.
"""


class FormatError(ValueError):
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
