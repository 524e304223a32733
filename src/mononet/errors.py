"""Exception hierarchy shared by all mononet modules.

Everything raised on bad input derives from :class:`Error`, so callers (and
the CLI, which maps these to exit code 2) can catch one type; that includes
command-line usage errors, which the CLI parser raises as
:class:`InvalidArgument`.  Genuine I/O problems are left to the builtin
``OSError`` family.
"""


class Error(Exception):
    """Base class for all mononet errors."""


class InvalidArgument(Error):
    """An argument lies outside its documented domain."""


class InvalidNumber(Error):
    """A coordinate, label, or weight is NaN or infinite."""


class EmptyDataset(Error):
    """A dataset with zero points was supplied."""


class DimensionMismatch(Error):
    """Coordinate counts disagree (between points, or point vs network)."""


class DuplicatePoint(Error):
    """Two dataset points have identical coordinates."""

    def __init__(self, first: int, second: int):
        super().__init__(
            f"points at input positions {first} and {second} are identical"
        )
        self.first = first
        self.second = second


class MonotoneViolation(Error):
    """A comparable pair of points carries decreasing labels.

    ``first``/``second`` are input positions with x_first <= x_second but
    y_first > y_second.
    """

    def __init__(self, first: int, second: int, detail: str = ""):
        msg = (
            f"points at input positions {first} and {second} violate "
            f"monotonicity (smaller point has larger label)"
        )
        if detail:
            msg += ": " + detail
        super().__init__(msg)
        self.first = first
        self.second = second


class NotTotallyOrdered(Error):
    """A chain-only operation received a dataset with incomparable points."""


class GridTooLarge(Error):
    """A planned sampling grid exceeds the configured point budget."""


class DimensionTooSmall(Error):
    """The requested construction needs a higher input dimension."""


class ActivationMismatch(Error):
    """An operation requires a specific activation kind the network lacks."""


class ArchitectureMismatch(Error):
    """The network shape does not fit the audited architecture class."""


class PreconditionViolated(Error):
    """An audit precondition (chain shape, strict labels, ...) fails."""


class TooLarge(Error):
    """The requested work is beyond a fixed limit, refused before allocating."""


class SchemaError(Error):
    """A serialized network or CSV document does not match the schema."""
