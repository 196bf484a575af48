"""Entropy of linear observations, measured as rank.

Every symbol the system emits is a known linear functional of the
uniformly random message vector, so the joint entropy of any set of
observations (in units of field symbols) is exactly the rank of their
stacked coefficient rows.  A set of observations is the Matrix of those
rows, one column per message symbol, as ProductMatrixCode.observe()
returns it.  That makes entropies integers, checkable by elimination
alone; a conditional entropy or a mutual information is a difference of
them, H(a | b) = H(a, b) - H(b).  observed_entropy() ranks the rows that
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

