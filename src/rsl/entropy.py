"""Entropy of linear observations, measured as rank.

Every symbol the system emits is a known linear functional of the
uniformly random message vector, so the joint entropy of any set of
observations (in units of field symbols) is exactly the rank of their
stacked coefficient rows.  A set of observations is the Matrix of those
rows, one column per message symbol, as ProductMatrixCode.observe()
returns it.  That makes entropies integers and every identity here
checkable by elimination alone.  observed_entropy() ranks the rows that
selectors pick from a code, once per code and selector tuple.
"""

from __future__ import annotations

from .matrix import Matrix


def joint_entropy(a: Matrix) -> int:
    return a.rank()


def observed_entropy(code, *selectors) -> int:
    """joint_entropy(code.observe(*selectors)), memoized in code.ranks."""
    ranks = code.ranks
    if selectors not in ranks:
        ranks[selectors] = joint_entropy(code.observe(*selectors))
    return ranks[selectors]


def conditional_entropy(a: Matrix, given: Matrix) -> int:
    """H(a | given) = H(a, given) - H(given)."""
    return joint_entropy(Matrix.vstack((a, given))) - joint_entropy(given)


def mutual_information(a: Matrix, b: Matrix, given: Matrix | None = None) -> int:
    """I(a; b) or I(a; b | given); nonnegative and symmetric."""
    if given is None:
        given = Matrix(a.field, (), ncols=a.ncols)
    return (conditional_entropy(a, given)
            - conditional_entropy(a, Matrix.vstack((b, given))))
