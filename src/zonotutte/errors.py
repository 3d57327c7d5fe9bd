"""Exception hierarchy shared by all zonotutte modules."""


class ZonotutteError(Exception):
    """Base class for all errors raised by this package."""


class DimensionDeficient(ZonotutteError):
    """The input list does not span its ambient space."""


class ListTooLarge(ZonotutteError):
    """The list is longer than the configured list-length cap."""


class DegreeTooHigh(ZonotutteError):
    """A polynomial exceeds the degree bound of a coefficient reversal."""


class DegreeMismatch(ZonotutteError):
    """A univariate polynomial does not have the expected degree."""


class BoxTooLarge(ZonotutteError):
    """An oracle count would exceed the configured cap on its work (lines of
    the bounding box times facets of the zonotope), or the dimension is
    above the largest the oracle counts in."""


class UnboundedCone(ZonotutteError):
    """No linear functional is strictly positive on every list vector."""
