"""Rank-as-entropy identities on random observation sets."""

import random

import pytest

from rsl import entropy
from rsl.entropy import joint_entropy, observed_entropy
from rsl.errors import LengthMismatch
from rsl.field import FieldSpec
from rsl.matrix import Matrix
from rsl.product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                                RepairTo, Stored)

from oracles import (NaiveField, conditional_entropy, mutual_information,
                     naive_rank, vstack)

GF4 = FieldSpec(2, 2)
GF16 = FieldSpec(2, 4)


def _random_obs(field, nrows, width, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(field.order) for _ in range(width)]
            for _ in range(nrows)]
    return Matrix(field, rows, ncols=width)


def test_joint_entropy_is_rank():
    nf = NaiveField(2, 2, GF4.modulus)
    for seed in range(6):
        obs = _random_obs(GF4, 4, 5, seed)
        assert joint_entropy(obs) == naive_rank(nf, [list(r)
                                                     for r in obs.rows])


def test_empty_set_has_zero_entropy():
    assert joint_entropy(Matrix(GF16, [], ncols=6)) == 0


def test_union_and_len():
    a = _random_obs(GF16, 3, 6, 1)
    b = _random_obs(GF16, 2, 6, 2)
    u = vstack((a, b))
    assert u.nrows == 5
    assert joint_entropy(u) >= joint_entropy(a)
    assert joint_entropy(u) <= joint_entropy(a) + joint_entropy(b)


def test_chain_rule():
    for seed in range(8):
        a = _random_obs(GF16, 3, 6, f"{seed}:a")
        b = _random_obs(GF16, 3, 6, f"{seed}:b")
        assert (joint_entropy(vstack((a, b)))
                == joint_entropy(b) + conditional_entropy(a, b))


def test_conditioning_reduces_entropy():
    for seed in range(8):
        a = _random_obs(GF16, 4, 6, f"{seed}:a")
        b = _random_obs(GF16, 4, 6, f"{seed}:b")
        assert conditional_entropy(a, b) <= joint_entropy(a)
        assert conditional_entropy(a, b) >= 0


def test_self_conditioning_is_zero():
    a = _random_obs(GF16, 4, 6, 3)
    assert conditional_entropy(a, a) == 0


def test_mutual_information_symmetric_and_nonnegative():
    for seed in range(8):
        a = _random_obs(GF4, 4, 6, f"{seed}:a")
        b = _random_obs(GF4, 4, 6, f"{seed}:b")
        z = _random_obs(GF4, 2, 6, f"{seed}:z")
        assert mutual_information(a, b) == mutual_information(b, a)
        assert mutual_information(a, b) >= 0
        # conditional form: submodularity of rank
        assert mutual_information(a, b, z) >= 0
        assert mutual_information(a, b, z) == mutual_information(b, a, z)


def test_identical_sets_share_all_information():
    a = _random_obs(GF16, 3, 6, 4)
    assert mutual_information(a, a) == joint_entropy(a)


def test_disjoint_coordinates_are_independent():
    a = Matrix(GF16, [[1, 2, 0, 0]], ncols=4)
    b = Matrix(GF16, [[0, 0, 3, 1]], ncols=4)
    assert mutual_information(a, b) == 0


def test_validation():
    with pytest.raises(LengthMismatch):
        Matrix(GF16, [[1, 2]], ncols=3)
    with pytest.raises(ValueError):
        Matrix(GF16, [[1, 99]], ncols=2)
    a = Matrix(GF16, [[1, 2, 3]], ncols=3)
    with pytest.raises(LengthMismatch):
        conditional_entropy(a, Matrix(GF16, [[1, 2, 3, 4]], ncols=4))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_observed_entropy_ranks_each_selector_tuple_once(monkeypatch, m):
    code = ProductMatrixCode(CodeParams(n=6, k=3, d=4, m=m), GF16)
    queries = [(Stored((1,)),), (Stored((1, 2)), RepairTo((3,))),
               (RepairTo((3,)), Stored((1, 2))), (RepairFromTo((4,), (1, 2)),),
               (Stored(()), RepairTo(())), (RepairTo((1, 2, 3)),),
               (Stored((5, 6)), RepairFromTo((1, 2, 3), (4,)))]
    # the slow path: every copy's rows, B = m * B0 columns wide
    expected = [joint_entropy(code.observe(*q)) for q in queries]
    assert code.observe(*queries[1]).ncols == code.params.message_length
    ranked = []
    rank = entropy.joint_entropy
    # the memo ranks through the module attribute a tracer would patch
    monkeypatch.setattr(entropy, "joint_entropy",
                        lambda a: ranked.append(a) or rank(a))
    assert [observed_entropy(code, *q) for q in queries * 2] == expected * 2
    assert len(ranked) == len(queries)
    # each rank runs on copy 0 alone, B0 columns wide
    assert {a.ncols for a in ranked} == {code.params.base_message_length}
    other = ProductMatrixCode(CodeParams(n=6, k=3, d=4, m=m), GF16)
    assert observed_entropy(other, *queries[1]) == expected[1]
    assert len(ranked) == len(queries) + 1
