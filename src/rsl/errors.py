"""Exception types raised across the toolkit, and the Record base of its
small value types.

Everything is a ValueError subclass except DivideByZero, so callers can
catch broadly or pin the exact condition.
"""


class Record:
    """A frozen value whose fields are its __slots__, set in slot order by
    Record.__init__.  Records compare and hash as their field tuple, kept
    as _key, and never equal a record of another class.  A frozen
    dataclass would do the same, but importing its module costs every
    command start-up.
    """

    __slots__ = ("_key",)

    def __init__(self, *values):
        set_field = object.__setattr__
        set_field(self, "_key", values)
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"

    def as_dict(self) -> dict:
        return dict(zip(self.__slots__, self._key))

    def replace(self, **change):
        """A copy with the given fields changed, checked by __init__."""
        return type(self)(**{**self.as_dict(), **change})


class RslError(ValueError):
    """Base class for all toolkit errors."""


class NotPrime(RslError):
    """Field characteristic is not a prime number."""


class Reducible(RslError):
    """Polynomial offered as a field modulus factors over the base."""


class SearchLimit(RslError):
    """A search gave up at its bound: the canonical modulus search at its
    cap on candidates, or factoring a group order at a piece too large to
    prove prime."""


class FieldMismatch(RslError):
    """Operands belong to different field specs."""


class DivideByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class Inconsistent(RslError):
    """Linear system has no solution."""


class Singular(RslError):
    """Matrix inverse requested for a rank-deficient square matrix."""


class LengthMismatch(RslError):
    """Sequence has the wrong length for the operation."""


class FieldTooSmall(RslError):
    """Field has too few elements for the requested code size."""


class DegenerateLambda(RslError):
    """Evaluation points yield colliding diagonal multipliers."""


class SelfRepair(RslError):
    """Node offered as a helper for its own repair."""


class WrongHelperCount(RslError):
    """Repair called with a helper count different from d."""


class WrongNodeCount(RslError):
    """Reconstruction called with a node count different from k."""


class BadSelector(RslError):
    """Row selector references unknown nodes or slots."""


class BadModel(RslError):
    """Eavesdropper model violates its constraints."""


class AsymmetricLeakage(RslError):
    """Leakage varies across models of one (l1, l2) shape."""


class CapacityZero(RslError):
    """Worst-case leakage swallows the whole message."""


class BadQuery(RslError):
    """Capacity query parameters are out of range."""


class PayloadTooLarge(RslError):
    """Framed payload does not fit the available symbols."""


class UnknownNode(RslError):
    """Node id outside the code's range, or share missing."""


class IntegrityError(RslError):
    """Cluster state inconsistent with its event log."""
