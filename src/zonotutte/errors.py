"""Exception hierarchy shared by all zonotutte modules."""


class ZonotutteError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(ZonotutteError):
    """A sublist was required to have full rank n but does not."""


class DimensionDeficient(ZonotutteError):
    """The input list does not span its ambient space."""


class ListTooLarge(ZonotutteError):
    """The list exceeds the configured subset-enumeration cap."""


class DegreeTooHigh(ZonotutteError):
    """A polynomial exceeds the degree bound of a coefficient reversal."""


class DegreeMismatch(ZonotutteError):
    """A univariate polynomial does not have the expected degree."""


class BoxTooLarge(ZonotutteError):
    """The bounding box exceeds the configured enumeration cap."""


class UnboundedCone(ZonotutteError):
    """No linear functional is strictly positive on every list vector."""
