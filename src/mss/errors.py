"""Exception hierarchy for the mss package."""


class MssError(Exception):
    """Base class for every error raised by this package."""


class Inconsistent(MssError):
    """Linear system has no solution."""


class DuplicateNode(MssError):
    """Two interpolation nodes share the same x-coordinate."""


class InvalidNode(MssError):
    """An interpolation node sits at x = 0, where the at-zero formula breaks."""


class BadInitial(MssError):
    """Initial terms do not match the recursion order or component count."""


class BadWindow(MssError):
    """Backward-recovery window is malformed."""


class ShareSpaceExhausted(MssError):
    """Could not sample pairwise-distinct binary shares; share space too small."""


class RngSuspect(MssError):
    """Repeated full-rank sampling failures; randomness source looks broken."""


class DimMismatch(MssError):
    """Matrix and vector dimensions do not agree."""


class NotBinary(MssError):
    """Vector expected over {0,1} contains another value."""


class BadShares(MssError):
    """Share list does not match the scheme parameters."""


class BadIndex(MssError):
    """Participant or secret index out of range."""


class BadQuorum(MssError):
    """Wrong number of subshadows for the requested recovery."""


class NotConsecutive(MssError):
    """Backward recovery requires consecutive participant indices."""


class ParseError(MssError):
    """Document is not a well-formed serialized object."""


class ValidationError(MssError):
    """Decoded document violates a structural invariant."""


class UnsupportedVersion(MssError):
    """Unknown format_version in a serialized document."""


class WrongDeal(MssError):
    """Share file is bound to a different bulletin."""
