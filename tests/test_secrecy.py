"""Eavesdropper accounting and rank-metric wrapping.

The worst-case leakage numbers asserted here were derived by hand from
the observation structure: a stored node contributes alpha rows, the
repair traffic toward a node spans d*beta rows, and overlaps follow the
repair-determinism argument.  They are frozen as constants on purpose.
"""

import itertools
import math
import random

import pytest

from rsl.errors import (AsymmetricLeakage, BadModel, CapacityZero,
                        FieldMismatch, LengthMismatch)
from rsl.field import ExtensionSpec, FieldSpec
from rsl.matrix import Matrix
from rsl.product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                                RepairTo)
from rsl.secrecy import (EavesdropperModel, SecureScheme,
                         achieved_secure_size, attack_report, check_model,
                         eavesdropped_rows, enumerate_models, leakage,
                         scheme_make, verify_perfect, worst_case_leakage)

GF16 = FieldSpec(2, 4)


def _code(n=5, m=1):
    k = 3
    return ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2, m=m), GF16)


# leakage of every (l1, l2) shape on the base instance, derived by hand:
# stored nodes give 2 rows each; repair traffic to one node spans 4; a
# stored node's rows lie inside the span of traffic sent toward it.
BASE_LEAKAGE = {(0, 0): 0, (1, 0): 2, (2, 0): 4,
                (0, 1): 4, (1, 1): 5, (0, 2): 6}


@pytest.mark.parametrize("shape,expected", sorted(BASE_LEAKAGE.items()))
def test_worst_case_leakage_frozen(shape, expected):
    code = _code()
    assert worst_case_leakage(code, *shape) == expected


def test_leakage_uniform_across_models():
    code = _code()
    for l1, l2 in BASE_LEAKAGE:
        values = {leakage(code, model)
                  for model in enumerate_models(code, l1, l2)}
        assert len(values) <= 1


def test_achieved_secure_size():
    code = _code()
    B = code.params.message_length
    for (l1, l2), leak in BASE_LEAKAGE.items():
        for model in enumerate_models(code, l1, l2):
            assert achieved_secure_size(code, model) == B - leak


def test_concatenated_leakage():
    code = _code(m=2)  # B = 12, alpha = 4, beta = 2
    assert worst_case_leakage(code, 0, 1) == 8
    assert achieved_secure_size(
        code, EavesdropperModel((), (1,))) == 4
    assert worst_case_leakage(code, 0, 2) == 12  # everything


def test_enumerate_model_counts():
    code = _code()
    for l1, l2 in BASE_LEAKAGE:
        count = sum(1 for _ in enumerate_models(code, l1, l2))
        assert count == math.comb(5, l1) * math.comb(5 - l1, l2)
    with pytest.raises(BadModel):
        list(enumerate_models(code, 2, 1))  # l1 + l2 > k - 1


def test_model_normalization_and_shape():
    m = EavesdropperModel((3, 1, 3), (5,))
    assert m.stored == (1, 3)
    assert m.repaired == (5,)
    assert (m.l1, m.l2) == (2, 1)


def test_check_model_rejections():
    code = _code()
    with pytest.raises(BadModel):
        check_model(code, EavesdropperModel((1,), (1,)))  # overlap
    with pytest.raises(BadModel):
        check_model(code, EavesdropperModel((9,), ()))  # out of range
    with pytest.raises(BadModel):
        check_model(code, EavesdropperModel((1, 2), (3,)))  # too strong
    check_model(code, EavesdropperModel((1,), (2,)))  # fine


def test_asymmetric_leakage_detected():
    class Lopsided(ProductMatrixCode):
        """Drops one helper's traffic toward node 1 only."""

        def observation_rows(self, selector):
            if isinstance(selector, RepairTo) and selector.failed == (1,):
                selector = RepairFromTo((2, 3, 4), (1,))
            return super().observation_rows(selector)

    code = Lopsided(CodeParams(n=5, k=3, d=4), GF16)
    with pytest.raises(AsymmetricLeakage):
        worst_case_leakage(code, 0, 1)


# -- wrapping schemes


SCHEME_SIZES = {(0, 1): (4, 2), (1, 1): (5, 1), (2, 0): (4, 2), (1, 0): (2, 4)}


@pytest.mark.parametrize("shape,sizes", sorted(SCHEME_SIZES.items()))
def test_scheme_sizes(shape, sizes):
    scheme = scheme_make(_code(), *shape)
    ell, secret = sizes
    assert scheme.ell == ell
    assert scheme.secret_size == secret
    assert scheme.ext.order == 16 ** 6


def test_capacity_zero():
    with pytest.raises(CapacityZero):
        scheme_make(_code(), 0, 2)


def test_wrap_unwrap_roundtrip():
    code = _code()
    rng = random.Random(17)
    for shape in SCHEME_SIZES:
        scheme = scheme_make(code, *shape)
        for _ in range(3):
            secret = [rng.randrange(scheme.ext.order)
                      for _ in range(scheme.secret_size)]
            randomness = [rng.randrange(scheme.ext.order)
                          for _ in range(scheme.ell)]
            wrapped = scheme.wrap(secret, randomness)
            assert len(wrapped) == code.params.message_length
            assert scheme.unwrap(wrapped) == secret


def test_wrap_validation():
    scheme = scheme_make(_code(), 0, 1)
    with pytest.raises(LengthMismatch):
        scheme.wrap([1], [1, 2, 3, 4])
    with pytest.raises(LengthMismatch):
        scheme.wrap([1, 2], [1])
    with pytest.raises(LengthMismatch):
        scheme.unwrap([1, 2, 3])


def test_wrapped_message_reconstructs_through_the_code():
    """Wrapping composes with the storage layer over the extension field."""
    code = _code()
    scheme = scheme_make(code, 0, 1)
    big = ProductMatrixCode(code.params, scheme.ext, code.points)
    rng = random.Random(23)
    secret = [rng.randrange(scheme.ext.order) for _ in range(2)]
    randomness = [rng.randrange(scheme.ext.order) for _ in range(4)]
    message = scheme.wrap(secret, randomness)
    shares = big.encode(message)
    for group in itertools.combinations(big.nodes, 3):
        got = big.reconstruct({i: shares[i - 1] for i in group})
        assert scheme.unwrap(got) == secret


@pytest.mark.parametrize("shape", sorted(SCHEME_SIZES))
def test_verify_perfect_all_models(shape):
    code = _code()
    scheme = scheme_make(code, *shape)
    for model in enumerate_models(code, *shape):
        assert verify_perfect(scheme, model)


def test_verify_perfect_weaker_models_too():
    # a scheme sized for (1, 1) also blinds every weaker shape
    code = _code()
    scheme = scheme_make(code, 1, 1)
    for shape in [(0, 1), (1, 0), (0, 0)]:
        for model in enumerate_models(code, *shape):
            assert verify_perfect(scheme, model)


# B = 6 and B = 20, over the canonical moduli
@pytest.mark.parametrize("n,k,modulus", [
    (5, 3, (13, 2, 1, 0, 0, 0, 1)),
    (9, 5, (9, 8, 0, 1) + (0,) * 16 + (1,)),
])
def test_moore_from_powers_matches_frobenius(n, k, modulus):
    code = ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2), GF16)
    B = code.params.message_length
    ext = ExtensionSpec(GF16, B, modulus)
    scheme = SecureScheme(code, 0, 0, 0, ext)
    # row j, column i: (y^j)^(16^i), each entry one frobenius step on
    # the one to its left
    slow = []
    for j in range(B):
        row, v = [], 16**j
        for _ in range(B):
            row.append(v)
            v = ext.frobenius(v)
        slow.append(row)
    assert scheme.moore == Matrix(ext, slow)


def _unwrap_slow(scheme, message):
    # the reference: solve the Moore system over L by list elimination
    column = Matrix(scheme.ext, [[c] for c in message], ncols=1)
    return [row[0] for row in scheme.moore.solve(column).rows]


# (field, n, k): GF(16)^20 and GF(256)^6 run packed, GF(8)^6, GF(11)^6 and
# GF(25)^6 on lists, and GF(16)^2 is the smallest B
EXTENSIONS = pytest.mark.parametrize("field,n,k", [
    (GF16, 9, 5), (FieldSpec(2, 8), 5, 3), (FieldSpec(2, 3), 5, 3),
    (FieldSpec(11, 1), 5, 3), (FieldSpec(5, 2), 5, 3), (GF16, 3, 2),
], ids=["GF(16)^20", "GF(256)^6", "GF(8)^6", "GF(11)^6", "GF(25)^6",
        "GF(16)^2"])


@EXTENSIONS
def test_wrap_closed_form_matches_moore_product(field, n, k):
    code = ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2), field)
    B = code.params.message_length
    ext = ExtensionSpec(field, B)
    rng = random.Random(B)
    for ell in sorted({0, B // 2, B}):
        scheme = SecureScheme(code, 0, 0, ell, ext)
        u = [rng.randrange(ext.order) for _ in range(B)]
        want = scheme.moore @ Matrix(ext, [[x] for x in u], ncols=1)
        assert scheme.wrap(u[ell:], u[:ell]) == [row[0] for row in want.rows]


@EXTENSIONS
def test_unwrap_closed_form_matches_moore_solve(field, n, k):
    code = ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2), field)
    B = code.params.message_length
    ext = ExtensionSpec(field, B)
    rng = random.Random(B)
    for _ in range(2):
        message = [rng.randrange(ext.order) for _ in range(B)]
        u = _unwrap_slow(SecureScheme(code, 0, 0, 0, ext), message)
        for ell in range(B + 1):
            scheme = SecureScheme(code, 0, 0, ell, ext)
            assert scheme.unwrap(message) == u[ell:], ell
    # the Moore matrix is invertible, so unwrap undoes wrap
    for ell in sorted({0, B // 2, B - 1}):
        scheme = SecureScheme(code, 0, 0, ell, ext)
        secret = [rng.randrange(ext.order) for _ in range(B - ell)]
        randomness = [rng.randrange(ext.order) for _ in range(ell)]
        assert scheme.unwrap(scheme.wrap(secret, randomness)) == secret


def test_scheme_rejects_wrong_extension():
    code = _code()
    with pytest.raises(FieldMismatch):
        SecureScheme(code, 0, 0, 0, ExtensionSpec(GF16, 2))
    with pytest.raises(FieldMismatch):
        SecureScheme(code, 0, 0, 0, ExtensionSpec(FieldSpec(2, 1), 6))


def test_verify_perfect_negative():
    code = _code()
    ext = ExtensionSpec(GF16, code.params.message_length)
    bare = SecureScheme(code, 0, 0, 0, ext)  # no randomness at all
    assert verify_perfect(bare, EavesdropperModel((), ()))
    assert not verify_perfect(bare, EavesdropperModel((1,), ()))
    # undersized randomness against a stronger eavesdropper leaks
    small = SecureScheme(code, 1, 0, 2, ext)
    assert not verify_perfect(small, EavesdropperModel((), (1,)))


def _moore_verdicts(code):
    """(F-rank verdict, Moore-composition verdict) for every model and
    every randomness length ell in 0..B-1.

    The composition is the slow path: with u = (R || D), the view
    A @ Moore @ u is independent of D iff the composed matrix has the
    rank of its first ell (randomness) columns.
    """
    B = code.params.message_length
    ext = ExtensionSpec(code.field, B)
    moore = SecureScheme(code, 0, 0, 0, ext).moore
    models = [model for l1 in range(code.params.k)
              for l2 in range(code.params.k - l1)
              for model in enumerate_models(code, l1, l2)]
    for model in models:
        rows = eavesdropped_rows(code, model).rows
        composed = Matrix(ext, rows, ncols=B) @ moore
        full = composed.rank()
        for ell in range(B):
            left = Matrix(ext, [row[:ell] for row in composed.rows],
                          ncols=ell)
            scheme = SecureScheme(code, 0, 0, ell, ext)
            yield verify_perfect(scheme, model), full == left.rank()


@pytest.mark.parametrize("field", [GF16, FieldSpec(11, 1)],
                         ids=["GF(16)", "GF(11)"])
def test_verify_perfect_matches_moore_composition(field):
    code = ProductMatrixCode(CodeParams(n=5, k=3, d=4), field)
    verdicts = list(_moore_verdicts(code))
    for fast, slow in verdicts:
        assert fast == slow
    assert {fast for fast, _ in verdicts} == {True, False}


def test_attack_report_exact_shape():
    code = _code()
    scheme = scheme_make(code, 0, 1)
    model = EavesdropperModel((), (2,))
    report = attack_report(code, model, scheme=scheme)
    assert report["model"] == {"stored": [], "repaired": [2]}
    assert report["leakage"] == 4
    assert report["secure_size"] == 2
    assert report["perfect"] is True
    assert report["formula_value"] == "2"
    assert report["formula_kind"] == "exact"
    assert report["match"] is True


def test_attack_report_observed_leakage_and_no_scheme():
    code = _code()
    model = EavesdropperModel((1,), ())
    report = attack_report(code, model, observed_leakage=1)
    assert report["leakage"] == 1  # what the log showed
    assert report["secure_size"] == 5
    assert report["perfect"] is None
    assert report["match"] is True  # formula compares worst case, 6-2 == 4


def test_attack_report_upper_bound_kind():
    code = _code(m=2)
    report = attack_report(code, EavesdropperModel((), (1, 2)))
    assert report["formula_kind"] == "upper_bound"
    assert report["formula_value"] == "1"
    assert report["secure_size"] == 0
    assert report["match"] is True  # 0 <= 1


# -- worst_case_leakage ranks per repaired set: packed over GF(4), GF(16)
# and GF(256), on lists over GF(8), GF(9) and GF(25); GF(2) is too small a
# field for any product-matrix code, and GF(9) has distinct cubes but not
# squares, so it takes k = 4

LEAKAGE_CODES = pytest.mark.parametrize("field,n,k,m", [
    (GF16, 9, 5, 1), (FieldSpec(2, 8), 6, 3, 1), (GF16, 6, 3, 2),
    (FieldSpec(5, 2), 7, 3, 2), (FieldSpec(2, 2), 3, 2, 1),
    (FieldSpec(2, 3), 5, 3, 1), (FieldSpec(3, 2), 7, 4, 2),
], ids=["GF(16)-n9", "GF(256)-n6", "GF(16)-n6-m2", "GF(25)-n7-m2",
        "GF(4)-n3", "GF(8)-n5", "GF(9)-n7-m2"])


@LEAKAGE_CODES
def test_worst_case_leakage_is_the_model_maximum(field, n, k, m):
    # each model's own rank of its whole stack, on a code without the
    # shared bases, is the same across the shape (min = max) and is the
    # incremental ranks' common value
    def fresh():
        return ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2, m=m),
                                 field)
    for shape in [(l1, l2) for l1 in range(k) for l2 in range(k - l1)]:
        slow = fresh()
        values = {leakage(slow, model)
                  for model in enumerate_models(slow, *shape)}
        assert len(values) == 1, shape
        assert worst_case_leakage(fresh(), *shape) == values.pop(), shape


@LEAKAGE_CODES
def test_later_leakage_is_a_memo_hit(field, n, k, m, monkeypatch):
    from rsl import entropy
    calls = []
    rank = entropy.joint_entropy

    def counted(a):
        calls.append(a.nrows)
        return rank(a)
    monkeypatch.setattr(entropy, "joint_entropy", counted)
    code = ProductMatrixCode(CodeParams(n=n, k=k, d=2 * k - 2, m=m), field)
    shape = (1, 1) if k > 2 else (0, 1)
    worst = worst_case_leakage(code, *shape)
    models = list(enumerate_models(code, *shape))
    # extend_row_space ranks every model, on packed and list fields, so
    # joint_entropy never runs
    assert calls == []
    assert {leakage(code, model) for model in models} == {worst}
    assert calls == []


# GF(16) is test_asymmetric_leakage_detected's
@pytest.mark.parametrize("field", [
    FieldSpec(2, 2), FieldSpec(2, 8), FieldSpec(2, 3), FieldSpec(5, 2),
], ids=["GF(4)", "GF(256)", "GF(8)", "GF(25)"])
def test_asymmetric_leakage_detected_on_every_path(field):
    n, k = (3, 2) if field.order == 4 else (5, 3)

    class Lopsided(ProductMatrixCode):
        """Drops node n's traffic toward node 1 only."""

        def observation_rows(self, selector):
            if isinstance(selector, RepairTo) and selector.failed == (1,):
                selector = RepairFromTo(range(2, n), (1,))
            return super().observation_rows(selector)

    code = Lopsided(CodeParams(n=n, k=k, d=2 * k - 2), field)
    with pytest.raises(AsymmetricLeakage,
                       match=r"leakage varies across \(0,1\) models: "):
        worst_case_leakage(code, 0, 1)
