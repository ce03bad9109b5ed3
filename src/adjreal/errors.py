"""Exception taxonomy shared by all adjreal modules."""


class AdjRealError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AdjRealError):
    """Malformed scalar string, matrix JSON, or certificate JSON."""


class SizeMismatch(AdjRealError):
    """Matrix dimensions incompatible with the operation or context."""


class InconsistentSystem(AdjRealError):
    """A linear system A x = b has no solution."""


class SingularMatrix(AdjRealError):
    """Inverse requested of a non-invertible matrix."""


class AlgebraMismatch(AdjRealError):
    """Element does not belong to the Lie algebra named by the context."""


class NotSemisimple(AdjRealError):
    """Operation requires a diagonalizable element."""


class NotNilpotent(AdjRealError):
    """Operation requires a nilpotent element."""


class ZeroElement(AdjRealError):
    """Operation requires a nonzero element."""


class NotRealizable(AdjRealError):
    """The requested reality level is denied, so no witness exists."""


class SpectrumNotSplit(AdjRealError):
    """Eigenvalues leave Q(i); the decision survives but no witness can
    be assembled over the ground field."""


class NotInCentralizer(AdjRealError):
    """Matrix fails to commute with the relevant sl2-triple."""


class SelfCheckFailed(AdjRealError):
    """A constructed result failed its own exact check, so it is not
    returned; unlike an ``assert``, the check survives ``python -O``."""


class SearchSpaceTooLarge(AdjRealError):
    """Brute-force enumeration would exceed the configured budget."""
