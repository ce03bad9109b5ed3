"""Exception taxonomy shared by all adjreal modules, and the base classes
of the package's value records.

The records are hand-written ``__slots__`` classes with their methods in
two shared bases here, a module every command loads, so no command
imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) or builds
methods with ``exec`` at start-up.
"""


class _Record:
    """Value record whose fields are the subclass's ``__slots__``, in order.

    Records with the same class and equal fields are equal, and ``repr``
    reads ``Name(field=value, ...)``.  A plain record is mutable, hence
    unhashable.  Subclasses define ``__init__`` with their own signature
    and pass every field, in order, to ``_Record.__init__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    """A record whose fields cannot be assigned after ``__init__``;
    hashable from its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
