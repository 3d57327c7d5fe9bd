"""Exception hierarchy shared by all zonotutte modules.

The CLI maps each class under the base to one exit code:
DimensionDeficient to 3, CapExceeded to 4.  The default cap on the
oracle's work lives here too, so the CLI's parser reads it without
importing the oracle.
"""

MAX_BOX_POINTS = 10_000_000  # lines of the bounding box times facet rows


class ZonotutteError(Exception):
    """Base class for all errors raised by this package."""


class DimensionDeficient(ZonotutteError):
    """The input list does not span its ambient space."""


class CapExceeded(ZonotutteError):
    """The list is longer than the list-length cap, an oracle count would
    exceed the cap on its work (lines of the bounding box times facets of
    the zonotope), or the dimension is above the largest the oracle counts
    in."""
