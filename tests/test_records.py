"""The value types are frozen records (errors.Record).

Their repr strings, equality, hashing and validation messages are the
ones they had as frozen dataclasses; the expected strings below were
taken from that version.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from rsl.capacity import (CapacityQuery, CapacityValue, secrecy_capacity)
from rsl.errors import BadQuery
from rsl.field import FieldSpec
from rsl.harness import Budget, PropertyResult
from rsl.product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                                RepairTo, Stored)
from rsl.secrecy import EavesdropperModel

# (record, its repr, its field tuple)
CASES = [
    (CodeParams(5, 3, 4), "CodeParams(n=5, k=3, d=4, m=1)", (5, 3, 4, 1)),
    (CodeParams(9, 5, 8, m=2), "CodeParams(n=9, k=5, d=8, m=2)",
     (9, 5, 8, 2)),
    (Stored((3, 1, 1)), "Stored(nodes=(1, 3))", ((1, 3),)),
    (Stored(()), "Stored(nodes=())", ((),)),
    (RepairTo([2]), "RepairTo(failed=(2,))", ((2,),)),
    (RepairFromTo((4, 1), (2,)), "RepairFromTo(helpers=(1, 4), failed=(2,))",
     ((1, 4), (2,))),
    (EavesdropperModel((1,), (3, 2)),
     "EavesdropperModel(stored=(1,), repaired=(2, 3))", ((1,), (2, 3))),
    (CapacityQuery(5, 8, 9, 4, 1, 1, 1),
     "CapacityQuery(k=5, d=8, n=9, alpha=4, beta=1, l1=1, l2=1)",
     (5, 8, 9, 4, 1, 1, 1)),
    (CapacityValue(Fraction(3), "exact", 1),
     "CapacityValue(value=Fraction(3, 1), kind='exact', category=1, "
     "t=None, e=None)", (Fraction(3), "exact", 1, None, None)),
    (secrecy_capacity(CapacityQuery(5, 5, 6, 1, 1, 0, 3)),
     "CapacityValue(value=Fraction(0, 1), kind='upper_bound', category=2, "
     "t=1, e=2)", (Fraction(0), "upper_bound", 2, 1, 2)),
    (Budget(), "Budget(exhaustive_n=6, samples=80, seed=7)", (6, 80, 7)),
    (Budget(exhaustive_n=4, samples=6, seed=11),
     "Budget(exhaustive_n=4, samples=6, seed=11)", (4, 6, 11)),
    (PropertyResult("lemma.express", "n=5 k=3", True, 4),
     "PropertyResult(property='lemma.express', instance='n=5 k=3', "
     "passed=True, checks=4, witness=None, seed=None)",
     ("lemma.express", "n=5 k=3", True, 4, None, None)),
]
IDS = [f"{type(r).__name__}-{i}" for i, (r, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("record, text, values", CASES, ids=IDS)
def test_record_repr_hash_and_equality(record, text, values):
    assert repr(record) == text
    assert hash(record) == hash(values)
    again = type(record)(*values)
    assert again == record and hash(again) == hash(record)
    assert record != values
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert record.replace() == record


@pytest.mark.parametrize("record, text, values", CASES, ids=IDS)
def test_record_fields_cannot_change(record, text, values):
    name = record.__slots__[0]
    with pytest.raises(AttributeError, match=f"'{name}'"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == values[0]


def test_witness_record_repr_and_json():
    res = PropertyResult("p", "i", False, 2, {"a": [1, 2]}, 7)
    assert repr(res) == ("PropertyResult(property='p', instance='i', "
                         "passed=False, checks=2, witness={'a': [1, 2]}, "
                         "seed=7)")
    assert res.to_json() == {"property": "p", "instance": "i",
                             "passed": False, "checks": 2,
                             "witness": {"a": [1, 2]}, "seed": 7}


def test_selectors_of_different_kinds_are_distinct_keys():
    # the rank memo of entropy.observed_entropy is keyed by selectors
    stored, repair = Stored((1,)), RepairTo((1,))
    assert stored != repair and hash(stored) == hash(repair)
    memo = {stored: "stored", repair: "repair"}
    assert len(memo) == 2
    assert memo[Stored([1, 1])] == "stored"
    assert memo[RepairTo((1,))] == "repair"
    assert RepairFromTo((1,), (2,)) != EavesdropperModel((1,), (2,))


def test_replace_checks_the_new_fields():
    p = CodeParams(9, 5, 8, m=2)
    assert p.replace(m=1) == CodeParams(9, 5, 8)
    assert p.replace(n=12).n == 12 and p.n == 9
    with pytest.raises(ValueError, match="n must be >= d"):
        p.replace(n=8)
    with pytest.raises(TypeError):
        p.replace(alpha=3)


@pytest.mark.parametrize("args, message", [
    ((5, 1, 0), "k must be >= 2"),
    ((5, 3, 5), "d must be 2k-2 = 4, got 5"),
    ((4, 3, 4), "n must be >= d+1 = 5, got 4"),
    ((5, 3, 4, 0), "m must be >= 1"),
])
def test_code_params_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CodeParams(*args)


@pytest.mark.parametrize("args, message", [
    ((5, 4, 6, 2, 1, 1, 1), "need 1 <= k <= d <= n-1, got k=5 d=4 n=6"),
    ((5, 8, 8, 4, 1, 1, 1), "need 1 <= k <= d <= n-1, got k=5 d=8 n=8"),
    ((0, 8, 9, 4, 1, 0, 0), "need 1 <= k <= d <= n-1, got k=0 d=8 n=9"),
    ((5, 8, 9, 3, 1, 1, 1), "need alpha = (d-k+1)*beta, got alpha=3 beta=1"),
    ((5, 8, 9, 0, 0, 1, 1), "need alpha = (d-k+1)*beta, got alpha=0 beta=0"),
    ((5, 8, 9, 4, 1, -1, 1), "l1 and l2 must be nonnegative"),
    ((5, 8, 9, 4, 1, 2, 3), "need l1+l2 <= k-1 = 4, got 5"),
    ((5, 8, 9, 4, 1.0, 2, 1), "query parameters must be integers"),
])
def test_capacity_query_messages(args, message):
    with pytest.raises(BadQuery, match=f"^{re.escape(message)}$"):
        CapacityQuery(*args)


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 0}, "samples must be at least 1, got 0"),
    ({"exhaustive_n": -1}, "exhaustive_n must be at least 0, got -1"),
    ({"samples": -3, "exhaustive_n": -1}, "samples must be at least 1, got -3"),
])
def test_budget_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Budget(**kwargs)


def test_code_variants_are_shared():
    code = ProductMatrixCode(CodeParams(9, 4, 6, m=2), FieldSpec(2, 8))
    assert code.one_copy() is code.one_copy()
    assert code.one_copy().params == CodeParams(9, 4, 6)
    assert code.truncate() is code.truncate()
    assert code.truncate().params == CodeParams(7, 4, 6, m=2)
