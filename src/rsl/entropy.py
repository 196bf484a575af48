"""Entropy of linear observations, measured as rank.

Every symbol the system emits is a known linear functional of the
uniformly random message vector, so the joint entropy of any set of
observations (in units of field symbols) is exactly the rank of their
stacked coefficient rows.  A set of observations is the Matrix of those
rows, one column per message symbol, as ProductMatrixCode.observe()
returns it.  That makes entropies integers and every identity here
checkable by elimination alone.  observed_entropy() ranks the rows that
selectors pick from a code once per selector tuple, on its m = 1 copy:
each row touches one copy's block with copy-independent coefficients, so
up to order the rows are I_m (x) A for copy 0's rows A, of rank m*rank(A).
"""

from __future__ import annotations

from .matrix import Matrix


def joint_entropy(a: Matrix) -> int:
    return a.rank()


def observed_entropy(code, *selectors) -> int:
    """m times the rank of the selectors' rows on code.one_copy(), memoized."""
    one = code.one_copy()
    if selectors not in one.ranks:
        one.ranks[selectors] = joint_entropy(one.observe(*selectors))
    return code.params.m * one.ranks[selectors]


def conditional_entropy(a: Matrix, given: Matrix) -> int:
    """H(a | given) = H(a, given) - H(given)."""
    return joint_entropy(Matrix.vstack((a, given))) - joint_entropy(given)


def mutual_information(a: Matrix, b: Matrix, given: Matrix | None = None) -> int:
    """I(a; b) or I(a; b | given); nonnegative and symmetric."""
    if given is None:
        given = Matrix(a.field, (), ncols=a.ncols)
    return (conditional_entropy(a, given)
            - conditional_entropy(a, Matrix.vstack((b, given))))
