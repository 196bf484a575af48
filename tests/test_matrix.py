"""Linear algebra against a span-counting rank oracle."""

import copy
import random

import pytest

from rsl import matrix
from rsl.errors import (FieldMismatch, Inconsistent, LengthMismatch,
                        Singular)
from rsl.field import ExtensionSpec, FieldSpec
from rsl.matrix import Matrix

from oracles import (NaiveExtension, NaiveField, gauss_jordan_rank,
                     naive_rank)

GF2 = FieldSpec(2, 1)
GF4 = FieldSpec(2, 2)
GF16 = FieldSpec(2, 4)


def _random_rows(field, nrows, ncols, seed):
    rng = random.Random(seed)
    return [[rng.randrange(field.order) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("field,p,w,shape,seed", [
    (GF2, 2, 1, (6, 8), 0), (GF2, 2, 1, (8, 5), 1), (GF2, 2, 1, (3, 3), 2),
    (GF4, 2, 2, (4, 5), 3), (GF4, 2, 2, (5, 3), 4),
    (FieldSpec(3, 1), 3, 1, (4, 4), 5),
])
def test_rank_matches_span_oracle(field, p, w, shape, seed):
    nf = NaiveField(p, w, field.modulus)
    for trial in range(4):
        rows = _random_rows(field, *shape, seed=f"{seed}:{trial}")
        assert Matrix(field, rows).rank() == naive_rank(nf, rows)


def test_rank_edge_cases():
    assert Matrix(GF16, [], ncols=4).rank() == 0
    assert Matrix(GF16, [[0, 0, 0]]).rank() == 0
    assert Matrix.identity(GF16, 5).rank() == 5
    assert Matrix(GF16, [[0] * 4] * 3).rank() == 0
    dup = Matrix(GF16, [[1, 2], [1, 2], [2, 4]])
    assert dup.rank() == 1  # third row is twice the first


def test_rank_bounds_hold():
    rng = random.Random(9)
    for _ in range(20):
        a = Matrix(GF4, _random_rows(GF4, 3, 5, rng.random()))
        b = Matrix(GF4, _random_rows(GF4, 4, 5, rng.random()))
        stacked = Matrix.vstack([a, b])
        assert max(a.rank(), b.rank()) <= stacked.rank()
        assert stacked.rank() <= a.rank() + b.rank()


def test_vandermonde_rank():
    g = GF16.generator()
    points = [GF16.pow(g, i) for i in range(5)]
    assert Matrix.vandermonde(GF16, points, 5).rank() == 5
    assert Matrix.vandermonde(GF16, points, 3).rank() == 3
    assert Matrix.vandermonde(GF16, points[:2], 4).rank() == 2


def test_matmul():
    a = Matrix(GF16, [[1, 2], [3, 4]])
    i2 = Matrix.identity(GF16, 2)
    assert a @ i2 == a
    assert i2 @ a == a
    with pytest.raises(LengthMismatch):
        a @ Matrix(GF16, [[1, 2, 3]])
    with pytest.raises(FieldMismatch):
        a @ Matrix(GF4, [[1], [1]])


def test_matmul_against_hand_product():
    # (x * x) + (x+1)*1 = x^2 + x + 1 = 7 in GF(16)
    a = Matrix(GF16, [[0x2, 0x3]])
    b = Matrix(GF16, [[0x2], [0x1]])
    assert (a @ b).rows == ((0x7,),)


def _col(field, values):
    return Matrix(field, [[v] for v in values], ncols=1)


def test_solve_unique():
    rng = random.Random(21)
    solved = 0
    for _ in range(10):
        rows = _random_rows(GF16, 4, 4, rng.random())
        a = Matrix(GF16, rows)
        if a.rank() < 4:
            continue
        x = _col(GF16, [rng.randrange(16) for _ in range(4)])
        assert a.solve(a @ x) == x
        solved += 1
    assert solved >= 5  # the seed yields mostly invertible draws


def test_solve_multicolumn():
    a = Matrix(GF16, [[1, 2], [3, 4]])
    x = Matrix(GF16, [[5, 6], [7, 0]])
    assert a.solve(a @ x) == x


def test_solve_underdetermined_free_vars_zero():
    a = Matrix(GF16, [[1, 1]])
    x = a.solve(_col(GF16, [5]))
    assert x == _col(GF16, [5, 0])
    assert a @ x == _col(GF16, [5])


def test_solve_inconsistent():
    a = Matrix(GF16, [[1, 2], [1, 2]])
    with pytest.raises(Inconsistent):
        a.solve(_col(GF16, [1, 2]))
    assert a.solve(_col(GF16, [3, 3])) == _col(GF16, [3, 0])  # x1 free, zero
    with pytest.raises(LengthMismatch):
        a.solve(_col(GF16, [1, 2, 3]))


def test_inverse():
    g = GF16.generator()
    points = [GF16.pow(g, i) for i in range(4)]
    a = Matrix.vandermonde(GF16, points, 4)
    inv = a.inverse()
    assert a @ inv == Matrix.identity(GF16, 4)
    assert inv @ a == Matrix.identity(GF16, 4)
    with pytest.raises(Singular, match=r"^rank 1 < 2$"):
        Matrix(GF16, [[1, 2], [1, 2]]).inverse()
    with pytest.raises(Singular, match=r"^rank 0 < 3$"):
        Matrix(GF16, [[0] * 3] * 3).inverse()
    for wide in (Matrix(GF16, [[1, 2]]), Matrix(GF16, [], ncols=3)):
        with pytest.raises(ValueError,
                           match=r"^inverse of a non-square matrix$"):
            wide.inverse()
    empty = Matrix(GF16, [], ncols=0).inverse()
    assert (empty.nrows, empty.ncols) == (0, 0)
    assert empty == Matrix.identity(GF16, 0)


def test_construction_validation():
    with pytest.raises(LengthMismatch):
        Matrix(GF16, [[1, 2], [1]])
    with pytest.raises(LengthMismatch):
        Matrix(GF16, [[1, 2]], ncols=3)
    with pytest.raises(ValueError):
        Matrix(GF16, [[1, 99]])
    empty = Matrix(GF16, [])
    assert empty.nrows == 0 and empty.ncols == 0 and empty.rank() == 0


def test_rref_idempotent_and_rank_consistent():
    rng = random.Random(33)
    for _ in range(10):
        a = Matrix(GF4, _random_rows(GF4, 4, 6, rng.random()))
        r = a.rref()
        assert r.rref() == r
        assert r.rank() == a.rank()


# -- sparse and block-diagonal systems, the shapes the codec and the
# leakage ranks eliminate: rank against the span oracle, then round trips

GF7 = FieldSpec(7, 1)
GF9 = FieldSpec(3, 2)
GF256 = FieldSpec(2, 8)
GF2_3 = ExtensionSpec(GF2, 3)
GF16_3 = ExtensionSpec(GF16, 3)


def _naive(field):
    if isinstance(field, ExtensionSpec):
        base = field.base
        return NaiveExtension(NaiveField(base.p, base.w, base.modulus),
                              field.modulus)
    return NaiveField(field.p, field.w, field.modulus)


def _block_diagonal(field, rng, blocks):
    """Block (r, c, k) is the product of random r x k and k x c factors,
    so its rank is at most k; the rows come out shuffled."""
    width = sum(c for _, c, _ in blocks)
    rows, col = [], 0
    for r, c, k in blocks:
        if k:
            left = Matrix(field, _random_rows(field, r, k, rng.random()))
            right = Matrix(field, _random_rows(field, k, c, rng.random()))
            block = (left @ right).rows
        else:
            block = [[0] * c for _ in range(r)]
        for row in block:
            rows.append([0] * col + list(row) + [0] * (width - col - c))
        col += c
    rng.shuffle(rows)
    return rows


def _sparse(field, rng, rank, nrows, ncols):
    """rank sparse rows, then sparse combinations of them, so the rank is
    at most rank."""
    def entry():
        return rng.randrange(1, field.order) if rng.random() < 0.3 else 0
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = [list(row) for row in basis]
    for _ in range(nrows - rank):
        row = [0] * ncols
        for b in rng.sample(basis, 2):
            f = entry()
            row = [field.add(x, field.mul(f, y)) for x, y in zip(row, b)]
        rows.append(row)
    rng.shuffle(rows)
    return rows


# (field, the largest rank whose span the oracle counts in about a second)
@pytest.mark.parametrize("field,most", [(GF256, 2), (GF9, 4), (GF7, 4),
                                        (GF2_3, 3)], ids=repr)
def test_sparse_rank_matches_span_oracle(field, most):
    nf = _naive(field)
    rng = random.Random(f"sparse rank {field!r}")
    shapes = {2: [[(2, 2, 1), (1, 1, 0), (2, 3, 1)]],
              3: [[(3, 2, 1), (2, 3, 2)], [(1, 2, 1), (2, 1, 1), (2, 3, 1)]],
              4: [[(3, 3, 2), (2, 1, 1), (1, 2, 0), (2, 2, 1)],
                  [(4, 4, 3), (3, 2, 1)]]}[most]
    for blocks in shapes:
        rows = _block_diagonal(field, rng, blocks)
        assert Matrix(field, rows).rank() == naive_rank(nf, rows), blocks
    for _ in range(2):
        rows = _sparse(field, rng, most, most + 2, 6)
        assert Matrix(field, rows).rank() == naive_rank(nf, rows)


def _is_rref(m):
    lead_cols = []
    for row in m.rows:
        nonzero = [j for j, x in enumerate(row) if x]
        if not nonzero:
            continue
        lead_cols.append(nonzero[0])
        if row[nonzero[0]] != 1:
            return False
    zero_rows_last = all(not any(row) for row in m.rows[len(lead_cols):])
    cleared = all(sum(1 for row in m.rows if row[c]) == 1 for c in lead_cols)
    return (zero_rows_last and cleared
            and lead_cols == sorted(set(lead_cols)))


def _invertible_sparse(field, rng, n):
    """Upper triangular with a nonzero diagonal, sparse above it, then
    rows and columns shuffled: invertible and sparse."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(1, field.order)
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                rows[i][j] = rng.randrange(1, field.order)
    cols = list(range(n))
    rng.shuffle(cols)
    rng.shuffle(rows)
    return [[row[j] for j in cols] for row in rows]


@pytest.mark.parametrize("field", [GF256, GF9, GF7, GF16_3], ids=repr)
def test_sparse_solve_inverse_rref_round_trip(field):
    rng = random.Random(f"sparse round trip {field!r}")
    n = 12
    for _ in range(3):
        a = Matrix(field, _invertible_sparse(field, rng, n))
        ident = Matrix.identity(field, n)
        inv = a.inverse()
        assert a @ inv == ident and inv @ a == ident
        assert a.rref() == ident
        x = Matrix(field, _random_rows(field, n, 3, rng.random()))
        assert a.solve(a @ x) == x
    for blocks in ([(4, 5, 3), (3, 3, 3), (5, 4, 2)],
                   [(6, 6, 6), (2, 4, 1), (3, 2, 0), (4, 3, 3)]):
        a = Matrix(field, _block_diagonal(field, rng, blocks))
        r = a.rref()
        assert _is_rref(r)
        # same rank and r inside a's row space: r is a's reduced form
        assert r.rank() == a.rank() == Matrix.vstack([a, r]).rank()
        x = Matrix(field, _random_rows(field, a.ncols, 2, rng.random()))
        b = a @ x
        assert a @ a.solve(b) == b


# -- the packed reduction step over GF(2^w), w | 8, and the list one:
# each against the span oracle and independent checks, then against each
# other

PACKED = [GF2, GF4, GF16, GF256]
# the largest rank whose span the oracle counts quickly
ORACLE_RANK = {GF2: 8, GF4: 5, GF16: 3, GF256: 1}


def _unreachable(*args):
    raise AssertionError("the other reduction step ran")


@pytest.fixture(params=["packed", "list"])
def kernel(request, monkeypatch):
    """Pins elimination to one reduction step; the other one fails if it
    runs."""
    if request.param == "list":
        monkeypatch.setattr(FieldSpec, "packed", lambda self: None)
        monkeypatch.setattr(matrix, "_reduce", _unreachable)
    else:
        monkeypatch.setattr(matrix, "_reduce_list", _unreachable)
    return request.param


def _low_rank(field, rng, nrows, ncols, rank):
    """A random nrows x ncols matrix of rank at most rank (at rank 0, a
    product through an empty inner dimension)."""
    left = Matrix(field, _random_rows(field, nrows, rank, rng.random()),
                  ncols=rank)
    right = Matrix(field, _random_rows(field, rank, ncols, rng.random()),
                   ncols=ncols)
    return [list(row) for row in (left @ right).rows]


def _matrices(field, rng, most):
    """Random, sparse, rank-deficient, zero-row and zero-column matrices,
    none of rank above most."""
    out = [Matrix(field, [], ncols=5), Matrix(field, [[], [], []]),
           Matrix(field, [[0] * 4] * 3), Matrix(field, [[0, 0, 1, 0]])]
    for shape in [(most, most + 3), (most + 2, most), (1, 7)]:
        if min(shape) <= most:
            out.append(Matrix(field, _random_rows(field, *shape,
                                                  rng.random())))
    if most >= 2:
        out.append(Matrix(field, _sparse(field, rng, most, most + 3, 7)))
    for rank in range(most + 1):
        out.append(Matrix(field, _low_rank(field, rng, most + 2, 6, rank)))
    out.append(Matrix(field, _block_diagonal(
        field, rng, [(2, 2, min(1, most)), (1, 3, 0), (2, 2, 0)])))
    return out


@pytest.mark.parametrize("field", PACKED, ids=repr)
def test_echelon_rank_matches_span_oracle(field, kernel):
    nf = _naive(field)
    rng = random.Random(f"echelon rank {field!r}")
    for a in _matrices(field, rng, ORACLE_RANK[field]):
        assert a.rank() == naive_rank(nf, a.rows), a.rows


def _larger(field, rng):
    """Square invertible, square singular, wide and tall matrices."""
    out = [Matrix(field, _invertible_sparse(field, rng, 9)),
           Matrix(field, _random_rows(field, 7, 7, rng.random())),
           Matrix(field, _low_rank(field, rng, 7, 7, 4)),
           Matrix(field, _random_rows(field, 5, 11, rng.random())),
           Matrix(field, _low_rank(field, rng, 10, 6, 3)),
           Matrix(field, _block_diagonal(field, rng, [(4, 5, 3), (3, 3, 3),
                                                      (5, 4, 2)])),
           Matrix(field, _sparse(field, rng, 6, 9, 8))]
    return out + _matrices(field, rng, 3)


@pytest.mark.parametrize("field", PACKED, ids=repr)
def test_echelon_rref_solve_inverse(field, kernel):
    rng = random.Random(f"echelon round trip {field!r}")
    for a in _larger(field, rng):
        r = a.rref()
        assert (r.nrows, r.ncols) == (a.nrows, a.ncols)
        assert _is_rref(r)
        if a.nrows:
            assert r.rank() == a.rank() == Matrix.vstack([a, r]).rank()
        x = Matrix(field, _random_rows(field, a.ncols, 2, rng.random()),
                   ncols=2)
        b = a @ x
        assert a @ a.solve(b) == b
        if a.nrows == a.ncols and a.rank() == a.nrows:
            inv = a.inverse()
            assert a @ inv == Matrix.identity(field, a.nrows) == inv @ a
        elif a.nrows == a.ncols:
            with pytest.raises(Singular):
                a.inverse()


@pytest.mark.parametrize("field", PACKED, ids=repr)
def test_echelon_inconsistent_and_singular(field, kernel):
    rng = random.Random(f"echelon errors {field!r}")
    # three independent rows, then their sum twice: rank 3 of 5
    basis = [row + [rng.randrange(field.order) for _ in range(2)]
             for row in _invertible_sparse(field, rng, 3)]
    total = [field.add(field.add(x, y), z) for x, y, z in zip(*basis)]
    a = Matrix(field, basis + [total, total])
    assert a.rank() == 3
    with pytest.raises(Singular):
        a.inverse()
    # rows 3 and 4 are equal: a right-hand side that tells them apart has
    # no solution, one from a @ x does
    b = a @ Matrix(field, _random_rows(field, 5, 1, rng.random()))
    assert a @ a.solve(b) == b
    broken = [list(row) for row in b.rows]
    broken[4][0] = field.add(broken[4][0], 1)
    with pytest.raises(Inconsistent):
        a.solve(Matrix(field, broken))
    with pytest.raises(Inconsistent):
        Matrix(field, [[], []]).solve(_col(field, [0, 1]))
    assert Matrix(field, [[0, 0]]).solve(_col(field, [0])) == _col(
        field, [0, 0])
    assert Matrix(field, [], ncols=0).inverse() == Matrix(field, [])


def _outcomes(a, rng):
    field = a.field
    x = Matrix(field, _random_rows(field, a.ncols, 3, rng.random()), ncols=3)
    off = Matrix(field, _random_rows(field, a.nrows, 1, rng.random()),
                 ncols=1)
    out = [a.rank(), a.rref(), a.solve(a @ x)]
    for attempt in (lambda: a.solve(off), a.inverse):
        try:
            out.append(attempt())
        except (Inconsistent, Singular, ValueError) as exc:
            out.append(type(exc))
    return out


@pytest.mark.parametrize("field", PACKED, ids=repr)
def test_packed_and_list_echelons_agree(field, monkeypatch):
    matrices = _larger(field, random.Random(f"agree {field!r}"))
    packed = [_outcomes(a, random.Random(i)) for i, a in enumerate(matrices)]
    monkeypatch.setattr(FieldSpec, "packed", lambda self: None)
    listed = [_outcomes(a, random.Random(i)) for i, a in enumerate(matrices)]
    assert packed == listed


@pytest.mark.parametrize("field", [FieldSpec(2, 3), GF9, FieldSpec(2, 12),
                                   GF16_3], ids=repr)
def test_other_fields_take_the_list_echelon(field, monkeypatch):
    assert field.packed() is None
    monkeypatch.setattr(matrix, "_reduce", _unreachable)
    a = Matrix(field, _invertible_sparse(field, random.Random(5), 6))
    assert a.rank() == 6
    assert a.rref() == Matrix.identity(field, 6)
    assert a @ a.inverse() == Matrix.identity(field, 6)
    b = _col(field, range(1, 7))
    assert a @ a.solve(b) == b


@pytest.mark.parametrize("field", PACKED + [FieldSpec(2, 3), GF9,
                                            FieldSpec(5, 2), GF16_3],
                         ids=repr)
def test_extended_row_space_ranks_the_stack(field):
    # a shared part reduced once, then extended by several others: each
    # extension has a from-scratch Gauss-Jordan's rank of the stacked
    # rows, and leaves the base alone, on packed and list fields alike
    rng = random.Random(repr(field))
    width = 9
    for trial in range(20):
        shared = _low_rank(field, rng, rng.randrange(6), width,
                           rng.randrange(5))
        base = matrix.extend_row_space(field, (), shared, width)
        assert len(base) == gauss_jordan_rank(field, shared)
        before = copy.deepcopy(base)
        for _ in range(3):
            more = _random_rows(field, rng.randrange(5), width, rng.random())
            found = matrix.extend_row_space(field, base, more, width)
            assert len(found) == gauss_jordan_rank(field,
                                                   shared + more), trial
        assert base == before


@pytest.mark.parametrize("field", [FieldSpec(2, 3), FieldSpec(5, 2)],
                         ids=repr)
def test_list_extension_leaves_the_basis_rows_alone(field, monkeypatch):
    # pivots at columns 0 and 1, both rows nonzero in the free column 2:
    # a row that opens column 2 with a leading one needs no arithmetic,
    # where a from-scratch Gauss-Jordan would clear column 2 from both
    assert field.packed() is None
    width = 5
    base = matrix.extend_row_space(field, (), [[1, 0, 2, 0, 1],
                                               [0, 1, 3, 1, 0]], width)
    calls = []

    def counted(name):
        op = getattr(FieldSpec, name)
        return lambda self, a, b: calls.append(name) or op(self, a, b)
    for name in ("mul", "sub"):
        monkeypatch.setattr(FieldSpec, name, counted(name))
    found = matrix.extend_row_space(field, base, [[0, 0, 1, 0, 0]], width)
    assert len(found) == 3
    assert calls == []


@pytest.mark.parametrize("field", [GF16, FieldSpec(5, 2), GF16_3], ids=repr)
def test_inverse_reduces_once(field, monkeypatch):
    # an invertible matrix is inverted by one solve for the identity; the
    # rank only words the error of a singular one
    a = Matrix(field, _invertible_sparse(field, random.Random(7), 5))
    monkeypatch.setattr(Matrix, "rank", _unreachable)
    assert a @ a.inverse() == Matrix.identity(field, 5)


# -- Matrix @ is the region product row by row: against the schoolbook
# triple loop, on packed, list and extension fields, through empty
# inner, row and column dimensions

def _naive_product(a, b):
    field = a.field
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for t in range(a.ncols):
                acc = field.add(acc, field.mul(a.rows[i][t], b.rows[t][j]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("field", [GF2, GF16, GF256, GF7, GF9,
                                   FieldSpec(2, 3), GF2_3, GF16_3], ids=repr)
def test_matmul_matches_the_triple_loop(field):
    rng = random.Random(f"matmul {field!r}")
    shapes = [(3, 4, 5), (1, 1, 1), (5, 2, 1), (0, 3, 4), (3, 0, 4),
              (3, 4, 0), (0, 0, 0), (2, 7, 3)]
    for rows, inner, cols in shapes:
        a = Matrix(field, _random_rows(field, rows, inner, rng.random()),
                   ncols=inner)
        b = Matrix(field, _random_rows(field, inner, cols, rng.random()),
                   ncols=cols)
        got = a @ b
        assert (got.nrows, got.ncols) == (rows, cols)
        assert got == Matrix(field, _naive_product(a, b), ncols=cols)
    # sparse factors, whose zero coefficients the region product skips
    a = Matrix(field, _sparse(field, rng, 3, 5, 6))
    b = Matrix(field, _sparse(field, rng, 2, 6, 4))
    assert a @ b == Matrix(field, _naive_product(a, b), ncols=4)
