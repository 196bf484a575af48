"""Closed-form capacity values, bounds, and the CSV contract."""

import hashlib
from fractions import Fraction

import pytest

from rsl.capacity import (CSV_HEADER, EXACT, UPPER_BOUND, CapacityQuery,
                          bounds_table, capacity_csv, cutset_bound, pi,
                          pi_of, render_value, secrecy_capacity)
from rsl.errors import BadQuery
from rsl.field import FieldSpec
from rsl.product_matrix import CodeParams, ProductMatrixCode
from rsl.secrecy import worst_case_leakage

GF16 = FieldSpec(2, 4)


def _q(k=3, d=4, n=5, beta=1, l1=0, l2=1):
    return CapacityQuery(k=k, d=d, n=n, alpha=(d - k + 1) * beta, beta=beta,
                         l1=l1, l2=l2)


def test_pi_exact_regime():
    v = pi_of(3, 4, 1, 1)
    assert (v.value, v.kind, v.category) == (1, EXACT, 1)
    assert v.t is None and v.e is None
    assert pi(_q(l2=1)).value == 1
    assert pi_of(3, 4, 1, 0).value == 0


def test_pi_bound_regime():
    v = pi_of(3, 4, 2, 2)
    assert (v.value, v.kind, v.category) == (3, UPPER_BOUND, 2)
    assert (v.t, v.e) == (1, 1)


def test_pi_bound_regime_fractional():
    v = pi_of(3, 6, 5, 3)
    assert v.value == Fraction(185, 16)
    assert (v.t, v.e) == (1, 2)


def test_pi_t_rule_when_beta_divides():
    # d-k+1 = 4, beta = 2 divides: t = 2; l2 = 3 lands in category 2
    v = pi_of(3, 6, 2, 3)
    assert v.category == 2
    assert v.t == 2 and v.e == 1
    # beta = 3 does not divide 4: t = floor(1 + 4/3) = 2
    w = pi_of(3, 6, 3, 3)
    assert w.t == 2 and w.e == 1


def test_secrecy_capacity_examples():
    v = secrecy_capacity(_q(l1=1, l2=1))
    assert (v.value, v.kind) == (1, EXACT)
    w = secrecy_capacity(_q(beta=2, l1=0, l2=2))
    assert (w.value, w.kind) == (1, UPPER_BOUND)
    assert (w.t, w.e) == (1, 1)


def test_integral_values_are_ints():
    # an integer by construction is an int equal to the Fraction the
    # formula gives; a category-2 value stays a Fraction, integral or not
    seen = set()
    for k in range(2, 6):
        for d in range(k, 2 * k + 1):
            for beta in (1, 2, 3):
                alpha = (d - k + 1) * beta
                for l2 in range(k):
                    v = pi_of(k, d, beta, l2)
                    seen.add(v.category)
                    if v.category == 2:
                        assert type(v.value) is Fraction
                        continue
                    assert type(v.value) is int
                    assert v.value == Fraction(l2 * beta)
                    for l1 in range(k - l2):
                        c = secrecy_capacity(CapacityQuery(
                            k, d, d + 1, alpha, beta, l1, l2))
                        assert type(c.value) is int
                        assert c.value == ((k - l1 - l2)
                                           * (alpha - Fraction(l2 * beta)))
    assert seen == {1, 2}
    for query in (_q(l2=1), _q(l2=2), _q(n=6, beta=3, l1=1, l2=1)):
        for name, value in bounds_table(query):
            if name in ("cutset", "pawar", "shah") or (
                    name == "rawat" and query.l2 == 1):
                assert type(value) is int, name
            elif value is not None and name != "this_paper":
                assert type(value) is Fraction, name


def test_bad_queries():
    with pytest.raises(BadQuery):
        _q(l1=1, l2=2)  # l1 + l2 = k
    with pytest.raises(BadQuery):
        _q(l1=-1)
    with pytest.raises(BadQuery):
        CapacityQuery(k=3, d=4, n=5, alpha=3, beta=1, l1=0, l2=1)
    with pytest.raises(BadQuery):
        CapacityQuery(k=5, d=4, n=5, alpha=0, beta=1, l1=0, l2=1)
    with pytest.raises(BadQuery):
        _q(n=4)  # n < d + 1
    with pytest.raises(BadQuery):
        CapacityQuery(k=3, d=4, n=5, alpha=2.0, beta=1, l1=0, l2=1)


def test_for_code():
    params = CodeParams(n=5, k=3, d=4, m=2)
    q = CapacityQuery.for_code(params, 0, 2)
    assert (q.alpha, q.beta) == (4, 2)


def test_cutset_bound_values():
    assert cutset_bound(_q(l1=0, l2=0)) == 6
    assert cutset_bound(_q(l1=0, l2=1)) == 4
    assert cutset_bound(_q(l1=1, l2=1)) == 2
    # wide code: alpha caps the early terms
    q = CapacityQuery(k=5, d=8, n=9, alpha=4, beta=1, l1=0, l2=0)
    assert cutset_bound(q) == sum(min(4, (8 - i + 1)) for i in range(1, 6))


def test_bounds_table_reference_row():
    table = dict(bounds_table(_q()))
    assert table["cutset"] == 4
    assert table["pawar"] == 4
    assert table["tandon"] == 3
    assert table["shah"] == 2
    assert table["rawat"] == 2
    assert table["goparaju"] == 2
    assert table["this_paper"] == 2
    assert secrecy_capacity(_q()).kind == EXACT


def test_bounds_table_concatenated_row():
    table = dict(bounds_table(_q(beta=2, l2=2)))
    assert table["goparaju"] == 1
    assert table["this_paper"] == 1
    assert table["shah"] == 0
    assert table["rawat"] == 1  # theta = 2*2 - 2/2 = 3


def test_bounds_table_eligibility():
    no_tandon = dict(bounds_table(_q(n=6)))
    assert no_tandon["tandon"] is None
    assert dict(bounds_table(_q(l1=1, l2=1)))["tandon"] is None
    assert dict(bounds_table(_q(l2=0)))["tandon"] is None
    assert dict(bounds_table(_q(l2=0)))["rawat"] is None
    q = CapacityQuery(k=5, d=8, n=9, alpha=4, beta=1, l1=0, l2=3)
    assert dict(bounds_table(q))["rawat"] is None


def test_l2_zero_rows_collapse():
    for l1 in (0, 1, 2):
        q = _q(l1=l1, l2=0)
        expected = (3 - l1) * 2
        for name, value in bounds_table(q):
            if value is not None and name != "cutset":
                assert value == expected
        assert cutset_bound(q) >= expected


def test_cat1_matches_shah_everywhere():
    for k in range(2, 7):
        d = 2 * k - 2
        for beta in (1, 2, 3):
            for l1 in range(k):
                for l2 in range(k - l1):
                    q = CapacityQuery(k=k, d=d, n=d + 1,
                                      alpha=(d - k + 1) * beta, beta=beta,
                                      l1=l1, l2=l2)
                    v = secrecy_capacity(q)
                    table = dict(bounds_table(q))
                    if v.category == 1:
                        assert v.kind == EXACT
                        assert v.value == table["shah"]
                    else:
                        assert v.kind == UPPER_BOUND
                        assert table["shah"] <= v.value


def test_collapse_to_goparaju_at_t1():
    """With t = 1 the closed form telescopes onto the geometric bound."""
    checked = 0
    for k in range(2, 7):
        d = 2 * k - 2
        for beta in (k - 1, k):  # divides d-k+1 exactly, and exceeds it
            for l2 in range(1, k):
                q = CapacityQuery(k=k, d=d, n=d + 1,
                                  alpha=(d - k + 1) * beta, beta=beta,
                                  l1=0, l2=l2)
                v = secrecy_capacity(q)
                if v.category == 2:
                    assert v.t == 1
                table = dict(bounds_table(q))
                assert v.value == table["goparaju"]
                checked += 1
    assert checked == 30


def test_cross_validation_with_measured_leakage():
    """Measured secure size meets the formula: equal in category 1,
    within the bound in category 2."""
    for m in (1, 2, 3):
        code = ProductMatrixCode(CodeParams(n=5, k=3, d=4, m=m), GF16)
        p = code.params
        B = p.message_length
        for l1 in range(3):
            for l2 in range(3 - l1):
                achieved = B - worst_case_leakage(code, l1, l2)
                v = secrecy_capacity(CapacityQuery.for_code(p, l1, l2))
                if v.category == 1:
                    assert achieved == v.value, (m, l1, l2)
                else:
                    assert achieved <= v.value, (m, l1, l2)


def test_render_value():
    assert render_value(None) == ""
    assert render_value(Fraction(4)) == "4"
    assert render_value(Fraction(3, 2)) == "3/2"
    assert render_value(Fraction(0)) == "0"


GOLDEN_CSV = (
    "k,d,n,alpha,beta,l1,l2,cutset,pawar,tandon,shah,rawat,goparaju,"
    "this_paper,kind\n"
    "3,4,5,2,1,0,0,6,6,,6,,6,6,exact\n"
    "3,4,5,2,1,0,1,4,4,3,2,2,2,2,exact\n"
    "3,4,5,2,1,0,2,2,2,3/2,0,1/2,1/2,0,exact\n"
)


def test_csv_golden():
    queries = [_q(l2=l2) for l2 in range(3)]
    assert capacity_csv(queries) == GOLDEN_CSV


# sha256 of the CSV over every query of k 2:5, d k:2k, n d+1:d+2, beta 1:3,
# l1 0:2, l2 0:3 (864 rows), frozen when every value was a Fraction
SWEEP_SHA256 = (
    "4040576527a64226e69f7ef6e56b5ebd0bc1afc0170b40f3b87bff902291ba74")


def test_csv_sweep_digest():
    queries = [CapacityQuery(k, d, n, (d - k + 1) * beta, beta, l1, l2)
               for k in range(2, 6) for d in range(k, 2 * k + 1)
               for n in (d + 1, d + 2) for beta in (1, 2, 3)
               for l1 in range(3) for l2 in range(4) if l1 + l2 < k]
    assert len(queries) == 864
    text = capacity_csv(queries)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


def test_csv_byte_stable():
    queries = [_q(l2=l2) for l2 in range(3)]
    first = capacity_csv(queries)
    again = capacity_csv([_q(l2=l2) for l2 in range(3)])
    assert first == again
    assert first.startswith(CSV_HEADER + "\n")
    assert first.endswith("\n")


def test_csv_empty():
    assert capacity_csv([]) == CSV_HEADER + "\n"
