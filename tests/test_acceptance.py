"""Acceptance gate: one test per shipped guarantee, one status line each.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
Every equality is exact finite-field or rational arithmetic; the two
runtime-sensitive criteria assert a wall-clock budget.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from rsl import (
    Budget,
    CapacityQuery,
    CodeParams,
    FieldSpec,
    ProductMatrixCode,
    RepairFromTo,
    RepairTo,
    Stored,
    bounds_table,
    capacity_csv,
    joint_entropy,
    run_property,
    secrecy_capacity,
)
from rsl.capacity import EXACT, UPPER_BOUND, pi_of
from rsl.cluster import ClusterState
from rsl.secrecy import (
    EavesdropperModel,
    achieved_secure_size,
    enumerate_models,
    leakage,
    scheme_make,
    verify_perfect,
    worst_case_leakage,
)

from oracles import conditional_entropy

GF16 = FieldSpec(2, 4)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}")


def _code(n=5, m=1, field=GF16):
    return ProductMatrixCode(CodeParams(n=n, k=3, d=4, m=m), field)


def _H(code, *selectors):
    return joint_entropy(code.observe(*selectors))


def _message(code, seed=5):
    import random

    rng = random.Random(seed)
    return [rng.randrange(code.field.order)
            for _ in range(code.params.message_length)]


def test_criterion_1_codec_correctness():
    with criterion(1, "encode/reconstruct/repair identities, < 5 s"):
        t0 = time.monotonic()
        code = _code()
        message = _message(code)
        shares = code.encode(message)
        for group in itertools.combinations(code.nodes, 3):
            got = code.reconstruct({i: shares[i - 1] for i in group})
            assert list(got) == message, group
        for failed in code.nodes:
            helpers = [i for i in code.nodes if i != failed]
            symbols = {h: code.repair_symbol(h, failed, shares[h - 1])
                       for h in helpers}
            assert code.repair(failed, symbols) == shares[failed - 1]
        wide = _code(n=6)
        wide_shares = wide.encode(_message(wide, seed=6))
        for failed in wide.nodes:
            others = [i for i in wide.nodes if i != failed]
            for helpers in itertools.combinations(others, 4):
                symbols = {h: wide.repair_symbol(h, failed,
                                                 wide_shares[h - 1])
                           for h in helpers}
                rebuilt = wide.repair(failed, symbols)
                assert rebuilt == wide_shares[failed - 1], (failed, helpers)
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_entropy_lemmas_exhaustive():
    with criterion(2, "entropy lemmas hold exhaustively, zero failures"):
        code = _code()
        nodes = list(code.nodes)
        alpha, beta, d = 2, 1, 4
        checks = 0
        # every share alone: full entropy alpha
        for i in nodes:
            assert _H(code, Stored((i,))) == alpha
            checks += 1
        # every single transmission: full entropy beta
        for i, j in itertools.permutations(nodes, 2):
            assert _H(code, RepairFromTo((i,), (j,))) == beta
            checks += 1
        # all repair traffic toward one node: rank d*beta
        for f in nodes:
            assert _H(code, RepairTo((f,))) == d * beta
            checks += 1
        # a share plus transmissions from >= d - alpha helpers pin the rest
        for i in nodes:
            others = [x for x in nodes if x != i]
            for size in range(d - alpha, len(others)):
                for first in itertools.combinations(others, size):
                    rest = tuple(x for x in others if x not in first)
                    got = conditional_entropy(
                        code.observe(RepairFromTo(rest, (i,))),
                        code.observe(Stored((i,)),
                                     RepairFromTo(first, (i,))))
                    assert got == 0, (i, first)
                    checks += 1
        # traffic toward F given shares of E and F reduces to fresh helpers G
        for triple in itertools.combinations(nodes, 3):
            for assignment in itertools.product(range(3), repeat=3):
                parts = ([], [], [])
                for node, where in zip(triple, assignment):
                    parts[where].append(node)
                stored, repaired, fresh = map(tuple, parts)
                lhs = conditional_entropy(
                    code.observe(RepairTo(repaired)),
                    code.observe(Stored(stored + repaired)))
                rhs = _H(code, RepairFromTo(fresh, repaired))
                assert lhs == rhs, (stored, repaired, fresh)
                checks += 1
        # helper identity never matters for the entropy sent toward F
        for size in (1, 2):
            for repaired in itertools.combinations(nodes, size):
                outside = [x for x in nodes if x not in repaired]
                values = {_H(code, RepairFromTo((h,), repaired))
                          for h in outside}
                assert len(values) == 1, repaired
                checks += len(outside)
        # triangular reduction of repairs for every |J| <= 3
        express = run_property("lemma.express", code, Budget())
        assert express.passed and express.checks == 85
        checks += express.checks
        assert checks == 5 + 20 + 5 + 50 + 270 + 50 + 85


def test_criterion_3_category1_capacity_equality():
    with criterion(3, "category-1 secure size equals (k-l1-l2)(alpha-l2*beta)"):
        code = _code()
        expected = {(0, 1): 2, (1, 1): 1, (2, 0): 2, (1, 0): 4, (0, 2): 0}
        for (l1, l2), size in expected.items():
            formula = (3 - l1 - l2) * (2 - l2 * 1)
            assert size == formula
            for model in enumerate_models(code, l1, l2):
                assert achieved_secure_size(code, model) == size, model
        double = _code(m=2)
        for model in enumerate_models(double, 0, 1):
            assert achieved_secure_size(double, model) == (3 - 1) * (4 - 2)


def test_criterion_4_category2_bound_respected():
    with criterion(4, "category-2 bound holds and collapses to the "
                      "(1-1/(d-k+1))^l2 form at t=1"):
        term = pi_of(3, 4, 2, 2)
        assert (term.value, term.kind, term.t, term.e) == (3, UPPER_BOUND, 1, 1)
        query = CapacityQuery(k=3, d=4, n=5, alpha=4, beta=2, l1=0, l2=2)
        cap = secrecy_capacity(query)
        assert (cap.value, cap.kind) == (1, UPPER_BOUND)
        double = _code(m=2)
        measured = 12 - worst_case_leakage(double, 0, 2)
        assert measured == 0 and measured <= cap.value
        assert dict(bounds_table(query))["goparaju"] == 1
        for k in range(2, 7):
            d, n = 2 * k - 2, 2 * k - 1
            for beta in (k - 1, k):
                alpha = (d - k + 1) * beta
                for l2 in range(1, k):
                    q = CapacityQuery(k=k, d=d, n=n, alpha=alpha,
                                      beta=beta, l1=0, l2=l2)
                    rows = dict(bounds_table(q))
                    closed = ((k - l2) * alpha
                              * (1 - Fraction(1, d - k + 1)) ** l2)
                    assert rows["this_paper"] == rows["goparaju"] == closed, q


def test_criterion_5_perfect_secrecy(tmp_path):
    with criterion(5, "sized schemes blind every eavesdropper and the "
                      "secure store round-trips, < 30 s"):
        t0 = time.monotonic()
        code = _code()
        for l1, l2 in ((0, 1), (1, 1), (2, 0), (1, 0)):
            scheme = scheme_make(code, l1, l2)
            assert scheme.ell == worst_case_leakage(code, l1, l2)
            for model in enumerate_models(code, l1, l2):
                assert verify_perfect(scheme, model), (l1, l2, model)
        cluster = ClusterState.create(
            tmp_path / "vault", CodeParams(n=5, k=3, d=4), GF16,
            b"ok", secure=(0, 1), seed=11)
        cluster.fail_repair(4)
        report = cluster.attack(stored=(), repaired=(4,))
        assert report["perfect"] is True and report["match"] is True
        assert cluster.reconstruct_payload() == b"ok"
        assert time.monotonic() - t0 < 30.0


def test_criterion_6_truncation_and_stability(tmp_path):
    with criterion(6, "extra nodes leak nothing new and repeated repairs "
                      "add zero rank"):
        wide = _code(n=6)
        trunc = wide.truncate()
        count = 0
        for l1 in range(3):
            for l2 in range(3 - l1):
                for model in enumerate_models(trunc, l1, l2):
                    assert leakage(wide, model) == leakage(trunc, model)
                    count += 1
        assert count == 51
        cluster = ClusterState.create(
            tmp_path / "plain", CodeParams(n=6, k=3, d=4), FieldSpec(2, 8),
            b"hi")
        for helpers in ([2, 3, 4, 5], [2, 3, 4, 6], [3, 4, 5, 6]):
            cluster.fail_repair(1, helpers=helpers)
        report = cluster.attack(stored=(), repaired=(1,))
        assert report["epochs"] == [1, 2, 3]
        assert report["rank_growth"] == 0


def test_criterion_7_bounds_table_reproduction():
    with criterion(7, "published bound comparison reproduced; CSV byte-stable"):
        query = CapacityQuery(k=3, d=4, n=5, alpha=2, beta=1, l1=0, l2=1)
        rows = dict(bounds_table(query))
        assert rows == {"cutset": 4, "pawar": 4, "tandon": 3, "shah": 2,
                        "rawat": 2, "goparaju": 2, "this_paper": 2}
        assert secrecy_capacity(query).kind == EXACT
        for l1 in range(3):
            q0 = CapacityQuery(k=3, d=4, n=5, alpha=2, beta=1, l1=l1, l2=0)
            zero = dict(bounds_table(q0))
            assert zero["tandon"] is None and zero["rawat"] is None
            target = (3 - l1) * 2
            for name in ("cutset", "pawar", "shah", "goparaju", "this_paper"):
                assert zero[name] == target, (l1, name)
        sweep = [CapacityQuery(k=3, d=4, n=5, alpha=2, beta=1, l1=0, l2=l2)
                 for l2 in range(3)]
        first, second = capacity_csv(sweep), capacity_csv(sweep)
        assert first == second
        assert first.splitlines()[2].endswith("4,4,3,2,2,2,2,exact")
