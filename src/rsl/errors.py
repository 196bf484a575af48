"""Exception types raised across the toolkit.

Everything is a ValueError subclass except DivideByZero, so callers can
catch broadly or pin the exact condition.
"""


class RslError(ValueError):
    """Base class for all toolkit errors."""


class NotPrime(RslError):
    """Field characteristic is not a prime number."""


class Reducible(RslError):
    """Polynomial offered as a field modulus factors over the base."""


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
