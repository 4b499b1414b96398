"""Exception types shared across the package."""


class DiskContactError(ValueError):
    """Base class for all domain errors."""


class EulerMismatch(DiskContactError):
    """Matching does not have the requested number of positive components."""


class BadBase(DiskContactError):
    """Invalid based label set for a basic dividing set."""


class IndexOutOfRange(DiskContactError):
    """Component position index outside 0..l."""


class ComponentMismatch(DiskContactError):
    """Operands live in different categories (different n or e)."""


class NotBasic(DiskContactError):
    """A basic dividing set was required."""


class IsBasic(DiskContactError):
    """A non-basic dividing set was required."""


class InvalidMove(DiskContactError):
    """Bypass data does not describe a realizable nontrivial attachment."""


class ShapeMismatch(DiskContactError):
    """Complexes or chain maps with incompatible shapes."""
