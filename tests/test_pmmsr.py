"""Storage code behavior against dot-product oracles on the raw layout."""

import itertools
import random

import pytest

from rsl.entropy import joint_entropy
from rsl.errors import (BadSelector, DegenerateLambda, FieldTooSmall,
                        LengthMismatch, SelfRepair, UnknownNode,
                        WrongHelperCount, WrongNodeCount)
from rsl.field import ExtensionSpec, FieldSpec
from rsl.matrix import Matrix
from rsl.product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                                RepairTo, Stored)

from oracles import naive_repair_symbol, naive_share

GF16 = FieldSpec(2, 4)
GF256 = FieldSpec(2, 8)
GF25 = FieldSpec(5, 2)


def _code(n=5, k=3, d=4, m=1, field=GF16, points=None):
    return ProductMatrixCode(CodeParams(n=n, k=k, d=d, m=m), field, points)


def _message(code, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(code.field.order)
            for _ in range(code.params.message_length)]


def test_params_arithmetic():
    p = CodeParams(n=5, k=3, d=4)
    assert (p.base_alpha, p.alpha, p.beta) == (2, 2, 1)
    assert (p.base_message_length, p.message_length) == (6, 6)
    q = CodeParams(n=5, k=3, d=4, m=3)
    assert (q.alpha, q.beta, q.message_length) == (6, 3, 18)
    big = CodeParams(n=9, k=5, d=8)
    assert (big.alpha, big.message_length) == (4, 20)


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(n=5, k=3, d=3)  # not 2k-2
    with pytest.raises(ValueError):
        CodeParams(n=4, k=3, d=4)  # n < d+1
    with pytest.raises(ValueError):
        CodeParams(n=3, k=1, d=0)  # k too small
    with pytest.raises(ValueError):
        CodeParams(n=5, k=3, d=4, m=0)


def test_default_points_frozen():
    assert _code().points == (1, 2, 4, 8, 3)


def test_points_properties():
    for n, field in [(5, GF16), (6, GF16), (15, GF16), (7, GF256)]:
        code = _code(n=n, field=field)
        assert len(code.points) == n
        assert len(set(code.points)) == n
        assert all(x != 0 for x in code.points)
        lams = {field.pow(x, code.params.base_alpha) for x in code.points}
        assert len(lams) == n


def test_field_too_small():
    with pytest.raises(FieldTooSmall):
        _code(n=17, k=9, d=16, field=GF16)
    with pytest.raises(FieldTooSmall):
        _code(n=16, k=8, d=14, field=GF16)


def test_supplied_points_validation():
    assert _code(points=(1, 2, 3, 4, 5)).points == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        _code(points=(0, 1, 2, 3, 4))  # zero point
    with pytest.raises(ValueError):
        _code(points=(1, 1, 2, 3, 4))  # repeated
    with pytest.raises(LengthMismatch):
        _code(points=(1, 2, 3))
    # distinct x with colliding x^2 happens over odd characteristic
    f25 = FieldSpec(5, 2)
    with pytest.raises(DegenerateLambda):
        ProductMatrixCode(CodeParams(n=5, k=3, d=4), f25,
                          points=(1, 4, 2, 3, 6))  # 1^2 == 4^2 == 1 mod 5


@pytest.mark.parametrize("code", [
    _code(n=12, k=4, d=6, field=GF256),
    _code(n=7, points=(3, 5, 6, 7, 9, 11, 13)),
    ProductMatrixCode(CodeParams(n=6, k=3, d=4), FieldSpec(5, 2),
                      points=(1, 2, 5, 6, 10, 11)),
], ids=["gf256-n12-k4", "gf16-supplied", "gf25-supplied"])
def test_construction_rows_are_vandermonde(code):
    # psi_i = (1, x_i, ..., x_i^(d-1)) over distinct points and phi_i is its
    # alpha0-prefix, so every alpha0 phi rows and every d psi rows are
    # independent; the codec relies on this without checking it at run time
    f, a0, d = code.field, code.params.base_alpha, code.params.d
    for x, phi, psi in zip(code.points, code.phi, code.psi):
        assert psi == tuple(f.pow(x, e) for e in range(d))
        assert phi == psi[:a0]
    for rows, size in ((code.phi, a0), (code.psi, d)):
        for pick in itertools.combinations(rows, size):
            assert Matrix(f, pick).rank() == size


def test_encode_matches_naive_layout():
    for m in (1, 2):
        code = _code(m=m)
        msg = _message(code, seed=m)
        shares = code.encode(msg)
        assert len(shares) == 5
        for node in code.nodes:
            expected = naive_share(code.field, code.params, code.points,
                                   node, msg)
            assert shares[node - 1] == expected


def test_encode_validation():
    code = _code()
    # B = 6: fewer, none, or not a whole number of codewords
    for message in ([0] * 5, [], [0] * 9):
        with pytest.raises(LengthMismatch):
            code.encode(message)
    with pytest.raises(ValueError):
        code.encode([99] * 6)


def test_repair_symbol_matches_naive_dot():
    for m in (1, 2):
        code = _code(n=6, m=m)
        msg = _message(code, seed=10 + m)
        shares = code.encode(msg)
        for helper in code.nodes:
            for failed in code.nodes:
                if helper == failed:
                    continue
                got = code.repair_symbol(helper, failed, shares[helper - 1])
                want = naive_repair_symbol(code.field, code.params,
                                           code.points, shares[helper - 1],
                                           failed)
                assert got == want
                assert len(got) == code.params.beta


def test_repair_symbol_validation():
    code = _code()
    shares = code.encode(_message(code))
    with pytest.raises(SelfRepair):
        code.repair_symbol(2, 2, shares[1])
    # alpha = 2: a share of no, or not a whole number of, codewords
    for share in (shares[0][:1], [], shares[0] * 2 + shares[0][:1]):
        with pytest.raises(LengthMismatch):
            code.repair_symbol(1, 2, share)
    with pytest.raises(UnknownNode):
        code.repair_symbol(9, 2, shares[0])


def test_repair_every_node_every_helper_set():
    code = _code(n=6)
    msg = _message(code, seed=3)
    shares = code.encode(msg)
    for failed in code.nodes:
        others = [x for x in code.nodes if x != failed]
        for helpers in itertools.combinations(others, code.params.d):
            symbols = {h: code.repair_symbol(h, failed, shares[h - 1])
                       for h in helpers}
            assert code.repair(failed, symbols) == shares[failed - 1]


def test_repair_concatenated():
    code = _code(m=2)
    msg = _message(code, seed=4)
    shares = code.encode(msg)
    for failed in code.nodes:
        helpers = [x for x in code.nodes if x != failed]
        symbols = {h: code.repair_symbol(h, failed, shares[h - 1])
                   for h in helpers}
        assert code.repair(failed, symbols) == shares[failed - 1]


def test_repair_validation():
    code = _code()
    shares = code.encode(_message(code))
    syms = {h: code.repair_symbol(h, 1, shares[h - 1]) for h in (2, 3, 4, 5)}
    short = dict(list(syms.items())[:3])
    with pytest.raises(WrongHelperCount):
        code.repair(1, short)
    bad = dict(syms)
    bad[1] = [0]
    del bad[5]
    with pytest.raises(SelfRepair):
        code.repair(1, bad)
    # helpers that send different numbers of codewords, or none
    for sent in (syms[2] * 2, []):
        with pytest.raises(LengthMismatch):
            code.repair(1, {**syms, 2: sent})


def test_reconstruct_all_subsets():
    for m in (1, 2):
        code = _code(m=m)
        msg = _message(code, seed=5 + m)
        shares = code.encode(msg)
        for group in itertools.combinations(code.nodes, code.params.k):
            picked = {i: shares[i - 1] for i in group}
            assert code.reconstruct(picked) == msg


def _reconstruct_full_system(code, shares):
    """The slow path: every stored row against all B message columns."""
    p = code.params
    rows, values = [], []
    for node in sorted(shares):
        for slot in range(p.alpha):
            rows.append(code.stored_row(node, slot))
            values.append([shares[node][slot]])
    system = Matrix(code.field, rows, ncols=p.message_length)
    sol = system.solve(Matrix(code.field, values, ncols=1))
    return [row[0] for row in sol.rows]


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("field,n,k", [(GF256, 17, 9), (GF25, 7, 4)],
                         ids=["GF(2^8)", "GF(5^2)"])
def test_reconstruct_shared_system_matches_full_system(field, n, k, m):
    code = _code(n=n, k=k, d=2 * k - 2, m=m, field=field)
    msg = _message(code, seed=m)
    shares = code.encode(msg)
    group = sorted(random.Random(f"{field!r} {m}").sample(list(code.nodes), k))
    picked = {i: shares[i - 1] for i in group}
    assert code.reconstruct(picked) == msg
    assert _reconstruct_full_system(code, picked) == msg


def test_reconstruct_validation():
    code = _code()
    shares = code.encode(_message(code))
    with pytest.raises(WrongNodeCount):
        code.reconstruct({1: shares[0], 2: shares[1]})
    with pytest.raises(UnknownNode):
        code.reconstruct({1: shares[0], 2: shares[1], 9: shares[2]})
    with pytest.raises(LengthMismatch):
        code.reconstruct({1: shares[0], 2: shares[1], 3: shares[2][:1]})
    # shares of different codeword counts
    with pytest.raises(LengthMismatch):
        code.reconstruct({1: shares[0], 2: shares[1] * 2, 3: shares[2]})


def test_message_index_is_a_bijection():
    for m in (1, 3):
        code = _code(m=m)
        p = code.params
        a0 = p.base_alpha
        seen = set()
        for copy in range(p.m):
            for half in range(2):
                for r in range(a0):
                    for s in range(r, a0):
                        seen.add(code.message_index(copy, half, r, s))
        assert seen == set(range(p.message_length))
        # symmetric access: (r, s) and (s, r) hit the same slot
        assert (code.message_index(0, 0, 0, a0 - 1)
                == code.message_index(0, 0, a0 - 1, 0))


def test_observation_rows_match_actual_symbols():
    """Every advertised coefficient row reproduces its symbol by dot product,
    for every (helper, failed) pair: on packed and list fields, with
    supplied points, and at every copy offset."""
    shapes = [dict(n=6), dict(n=6, field=GF25, points=(1, 5, 6, 7, 11, 13)),
              dict(n=12, k=4, d=6, field=GF256)]
    for shape, m in itertools.product(shapes, (1, 2, 3)):
        code = _code(m=m, **shape)
        f = code.field
        msg = _message(code, seed=8 + m)
        shares = code.encode(msg)

        def dot(row):
            acc = 0
            for c, v in zip(row, msg):
                acc = f.add(acc, f.mul(c, v))
            return acc

        for node in code.nodes:
            rows = code.observation_rows(Stored((node,)))
            assert [dot(row) for row in rows] == shares[node - 1]
        for helper, failed in itertools.permutations(code.nodes, 2):
            sent = code.repair_symbol(helper, failed, shares[helper - 1])
            rows = code.observation_rows(RepairFromTo((helper,), (failed,)))
            assert [dot(row) for row in rows] == sent, (shape, m, helper,
                                                        failed)


def test_repair_to_covers_all_helpers():
    code = _code(n=6)
    rows = code.observation_rows(RepairTo((2,)))
    assert rows == code.observation_rows(RepairFromTo((1, 3, 4, 5, 6), (2,)))
    assert len(rows) == 5 * code.params.beta


def test_selector_validation():
    code = _code()
    with pytest.raises(BadSelector):
        code.observation_rows(object())
    with pytest.raises(BadSelector):
        code.repair_row(2, 2, 0)
    with pytest.raises(BadSelector):
        code.repair_row(1, 2, 5)
    with pytest.raises(BadSelector):
        code.stored_row(1, 99)


def test_observe_entropy_sanity():
    code = _code()
    assert joint_entropy(code.observe(Stored((1,)))) == 2
    assert joint_entropy(code.observe(Stored((1, 2, 3)))) == 6
    assert joint_entropy(code.observe(RepairTo((1,)))) == 4
    assert joint_entropy(code.observe()) == 0


def test_truncate():
    code = _code(n=6)
    small = code.truncate()
    assert code.truncate() is small  # one instance, one rank memo
    assert small.params.n == 5
    assert small.points == code.points[:5]
    assert small.field == code.field
    assert small.truncate() is small  # already at n = d+1
    same = _code()
    assert same.truncate() is same


def test_one_copy():
    # points given, not picked, so one_copy() must carry them over
    code = _code(n=6, m=3, points=[9, 7, 5, 3, 2, 1])
    one = code.one_copy()
    assert code.one_copy() is one  # one instance, one rank memo
    assert one.params == CodeParams(n=6, k=3, d=4, m=1)
    assert one.points == code.points
    assert one.field == code.field
    assert one.one_copy() is one  # already at m = 1
    b0 = code.params.base_message_length
    for node in code.nodes:
        assert one.stored_row(node, 1) == code.stored_row(node, 1)[:b0]
    assert one.repair_row(2, 5, 0) == code.repair_row(2, 5, 0)[:b0]


def test_share_slices_are_copy_major():
    """Copy c occupies slots [c*a0, (c+1)*a0); repair symbol c uses them."""
    code = _code(m=2)
    msg = [0] * code.params.message_length
    # light up one slot of copy 1 only
    msg[code.message_index(1, 0, 0, 0)] = 1
    shares = code.encode(msg)
    a0 = code.params.base_alpha
    for share in shares:
        assert share[:a0] == [0] * a0  # copy 0 untouched
    sym = code.repair_symbol(1, 2, shares[0])
    assert sym[0] == 0


def test_rows_are_built_once_and_match_a_fresh_instance():
    code = _code(n=6, m=2)
    p = code.params
    stored = {(node, slot): code.stored_row(node, slot)
              for node in code.nodes for slot in range(p.alpha)}
    repair = {(h, f, c): code.repair_row(h, f, c)
              for h in code.nodes for f in code.nodes if h != f
              for c in range(p.m)}
    fresh = _code(n=6, m=2)
    for (node, slot), row in stored.items():
        assert code.stored_row(node, slot) is row  # the memo's copy
        assert fresh.stored_row(node, slot) == row
    for (h, f, c), row in repair.items():
        assert code.repair_row(h, f, c) is row
        assert fresh.repair_row(h, f, c) == row
    # bad arguments are refused on every call, never memoized
    for _ in range(2):
        with pytest.raises(BadSelector):
            code.stored_row(1, p.alpha)
        with pytest.raises(BadSelector):
            code.repair_row(3, 3, 0)


def test_row_overrides_reach_the_observation_rows():
    class Swapped(ProductMatrixCode):
        """Node 2 stores slot 1's row in slot 0; helper 3 sends nothing
        toward node 1."""

        def stored_row(self, node, slot):
            return super().stored_row(node, 1 if (node, slot) == (2, 0)
                                      else slot)

        def repair_row(self, helper, failed, copy):
            if (helper, failed) == (3, 1):
                return (0,) * self.params.message_length
            return super().repair_row(helper, failed, copy)

    code = Swapped(CodeParams(n=5, k=3, d=4), GF16)
    plain = _code()
    for _ in range(2):  # the second round reads the memo
        assert code.observation_rows(Stored((2,))) == [
            plain.stored_row(2, 1)] * 2
        rows = code.observation_rows(RepairFromTo((2, 3), (1,)))
        assert rows == [plain.repair_row(2, 1, 0),
                        (0,) * code.params.message_length]
    assert joint_entropy(code.observe(Stored((2,)))) == 1


def test_matrices_from_outside_are_still_checked():
    code = _code()
    row = list(code.stored_row(1, 0))
    with pytest.raises(ValueError):
        Matrix(GF16, [row[:-1] + [16]])
    with pytest.raises(LengthMismatch):
        Matrix(GF16, [row, row[:-1]])


# -- many codewords at once: the digit stripes of symbols of an extension


def _stripes(ext, symbols):
    """Digit s of every symbol, for each s in turn: S = t codewords."""
    return [ext.coeffs(x)[s] for s in range(ext.t) for x in symbols]


def _unstripe(ext, stripes):
    count = len(stripes) // ext.t
    return [ext.from_coeffs(stripes[j::count]) for j in range(count)]


# GF(16) and GF(256) eliminate packed, GF(8) and GF(25) on lists
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("field", [GF16, GF256, FieldSpec(2, 3), GF25],
                         ids=["GF(2^4)", "GF(2^8)", "GF(2^3)", "GF(5^2)"])
def test_stripe_codec_matches_the_codec_over_the_extension(field, m):
    # the slow path: the same code over L = field^4, whose coefficients
    # all lie in field, on the L symbols the stripes pack back into
    code = _code(n=6, m=m, field=field)
    ext = ExtensionSpec(field, 4)
    slow = ProductMatrixCode(code.params, ext, code.points)
    rng = random.Random(f"{field!r} {m}")
    message = [rng.randrange(ext.order)
               for _ in range(code.params.message_length)]
    shares = code.encode(_stripes(ext, message))
    want = slow.encode(message)
    assert [_unstripe(ext, share) for share in shares] == want
    failed, helpers = 2, (1, 3, 4, 6)
    sent = {h: code.repair_symbol(h, failed, shares[h - 1]) for h in helpers}
    for h in helpers:
        assert len(sent[h]) == ext.t * code.params.beta
        assert _unstripe(ext, sent[h]) == slow.repair_symbol(h, failed,
                                                             want[h - 1])
    assert code.repair(failed, sent) == shares[failed - 1]
    group = sorted(rng.sample(list(code.nodes), code.params.k))
    got = code.reconstruct({i: shares[i - 1] for i in group})
    assert _unstripe(ext, got) == message
    assert slow.reconstruct({i: want[i - 1] for i in group}) == message


# -- region kernels: GF(4), GF(16) and GF(256) take the packed path,
# GF(8) and GF(25) the list path; GF(2) has too few points for any code

REGION_CODES = pytest.mark.parametrize("field,n,k,m", [
    (FieldSpec(2, 2), 3, 2, 2), (GF16, 6, 3, 2), (GF256, 6, 3, 1),
    (FieldSpec(2, 3), 5, 3, 2), (GF25, 7, 3, 2),
], ids=["GF(4)", "GF(16)", "GF(256)", "GF(8)", "GF(25)"])


@REGION_CODES
def test_packed_repair_rows_match_the_list_path(field, n, k, m,
                                                monkeypatch):
    code = _code(n=n, k=k, d=2 * k - 2, m=m, field=field)
    fast = {(h, f, c): code.repair_row(h, f, c)
            for h, f in itertools.permutations(code.nodes, 2)
            for c in range(m)}
    monkeypatch.setattr(FieldSpec, "packed", lambda self: None)
    slow = _code(n=n, k=k, d=2 * k - 2, m=m, field=field)
    assert {key: slow.repair_row(*key) for key in fast} == fast


@REGION_CODES
def test_region_codec_matches_the_scalar_loop(field, n, k, m):
    # three codewords at once; slot copy*alpha0 + a of each codeword is
    # the copy-0 stored row for slot a dotted with copy's message block
    code = _code(n=n, k=k, d=2 * k - 2, m=m, field=field)
    p, one = code.params, code.one_copy()
    rng = random.Random(f"{field!r}")
    message = [rng.randrange(field.order)
               for _ in range(3 * p.message_length)]
    b0 = p.base_message_length
    blocks = [message[i:i + b0] for i in range(0, len(message), b0)]
    shares = code.encode(message)
    for node in code.nodes:
        want = []
        for block in blocks:
            for a in range(p.base_alpha):
                acc = 0
                for c, x in zip(one.stored_row(node, a), block):
                    acc = field.add(acc, field.mul(c, x))
                want.append(acc)
        assert shares[node - 1] == want, node
        # the repair symbols: per copy, its slots dotted with phi_f
        a0, share = p.base_alpha, shares[node - 1]
        for failed in code.nodes:
            if failed != node:
                sent = []
                for c in range(0, len(share), a0):
                    acc = 0
                    for x, y in zip(share[c:c + a0], code.phi[failed - 1]):
                        acc = field.add(acc, field.mul(x, y))
                    sent.append(acc)
                assert code.repair_symbol(node, failed, share) == sent


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_combine_matches_the_scalar_sum(w):
    # GF(2) hosts no code, so the region product is checked bare
    from rsl.product_matrix import _combine
    field = FieldSpec(2, w)
    rng = random.Random(w)
    for _ in range(20):
        count, length = rng.randrange(6), rng.randrange(1, 9)
        coeffs = [rng.randrange(field.order) for _ in range(count)]
        vectors = [[rng.randrange(field.order) for _ in range(length)]
                   for _ in range(count)]
        want = [0] * length
        for c, v in zip(coeffs, vectors):
            for j, y in enumerate(v):
                want[j] = field.add(want[j], field.mul(c, y))
        assert _combine(field, coeffs, vectors, length) == want
