"""Dense exact linear algebra over a field calculator.

Matrices are immutable row-major tuples of canonical integer elements,
all owned by a single field spec.  Elimination uses first-nonzero
pivoting, so results are deterministic functions of the input.
Zero-row and zero-column matrices are legal and have rank 0.

Every elimination runs one step: a row's first nonzero entry is
cancelled against a map of pivot rows until the row opens a new pivot
column or reaches zero.  Over GF(2^w) with w in {1, 2, 4, 8}, where the
field's packed kernel exists, _reduce runs it on rows packed one element
per byte into an integer, column j in byte j: scaling a row is one
bytes.translate and adding is one XOR.  Every other field, extensions
included, runs _reduce_list on element lists; both give the same reduced
rows.  The step alone is extend_row_space(), the incremental reducer
behind Matrix.rank() and worst-case leakage; solve, rref and inverse add
one back-substitution.  The region product _combine serves Matrix @ and
the codec.
"""

from __future__ import annotations

from .errors import FieldMismatch, Inconsistent, LengthMismatch, Singular


def _reduce(packed, found, x, width):
    """Reduce the packed row x into found, a map of pivot column to
    (pivot row, its bytes) with leading ones.

    x's first nonzero byte is cancelled while it lies in a pivot column.
    If x is then nonzero, it is scaled to a leading one in that new
    column and becomes its pivot row.
    """
    tables = packed.tables
    while x:
        c = ((x & -x).bit_length() - 1) >> 3
        top = found.get(c)
        if top is None:
            data = x.to_bytes(width, "little")
            lead = x >> (c << 3) & 0xFF
            if lead != 1:
                data = data.translate(tables[packed.inv[lead]])
                x = int.from_bytes(data, "little")
            found[c] = (x, data)
            return
        x ^= int.from_bytes(
            top[1].translate(tables[x >> (c << 3) & 0xFF]), "little")


def _reduce_list(field, found, row):
    """_reduce on a list of elements of field, reduced in place: found
    maps pivot column to (pivot row, the nonzero (column, value) pairs
    right of its leading one), so a cancellation pays for the pivot
    row's nonzeros, not its width."""
    sub, mul = field.sub, field.mul
    width = len(row)
    c = 0
    while True:
        while c < width and not row[c]:
            c += 1
        if c == width:
            return
        top = found.get(c)
        if top is None:
            break
        f = row[c]
        row[c] = 0
        for j, y in top[1]:
            row[j] = sub(row[j], mul(f, y))
    tail = [(j, row[j]) for j in range(c + 1, width) if row[j]]
    if row[c] != 1:
        f = field.inv(row[c])
        tail = [(j, mul(f, y)) for j, y in tail]
        row[c] = 1
        for j, y in tail:
            row[j] = y
    found[c] = (row, tail)


def extend_row_space(field, basis, rows, width: int):
    """A basis of the row space of basis and rows, rows of width elements
    of field, as a new object whose len() is the rank.

    basis is () or an earlier result, left as it was: the map of pivot
    column to pivot row that _reduce or _reduce_list keeps.  Extending
    one reduced shared part ranks many stacks for the price of the rest.
    """
    return _reduce_rows(field, field.packed(), dict(basis), rows, width)


def _reduce_rows(field, packed, found, rows, width):
    """found, with each of rows reduced into it by _reduce where packed
    is field's packed kernel, else by _reduce_list."""
    for row in rows:
        if packed is None:
            _reduce_list(field, found, list(row))
        else:
            _reduce(packed, found, int.from_bytes(bytes(row), "little"),
                    width)
    return found


def _echelon(field, rows, width):
    """(pivots, out): out is the nonzero rows of the reduced row echelon
    form of rows, each with a leading one at pivots[i], ascending.

    The rows are reduced as extend_row_space reduces them;
    back-substitution, last pivot first, then clears each pivot column
    from the pivot rows above it.
    """
    packed = field.packed()
    found = _reduce_rows(field, packed, {}, rows, width)
    pivots = sorted(found)
    out = [found[c][0] for c in pivots]
    sub, mul = field.sub, field.mul
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        if packed is None:
            tail = [(j, y) for j, y in enumerate(out[i]) if y and j > c]
            for row in out[:i]:
                f = row[c]
                if f:
                    row[c] = 0
                    for j, y in tail:
                        row[j] = sub(row[j], mul(f, y))
        else:
            shift = c << 3
            data = out[i].to_bytes(width, "little")
            for j in range(i):
                f = out[j] >> shift & 0xFF
                if f:
                    out[j] ^= int.from_bytes(data.translate(packed.tables[f]),
                                             "little")
    if packed is None:
        return pivots, out
    return pivots, [tuple(x.to_bytes(width, "little")) for x in out]


def _combine(field, coeffs, vectors, length: int):
    """sum_i coeffs[i] * vectors[i], vectors of length elements.

    Where the field has a packed kernel this is a matrix-region product
    (Plank, Greenan and Miller, FAST 2013) on vectors of element bytes:
    one bytes.translate scales a whole vector by a nonzero coefficient,
    XOR adds, and the sum is bytes.  Every other field keeps the scalar
    loop on lists, which is also the tests' reference.
    """
    packed = field.packed()
    if packed is not None:
        acc = 0
        for c, v in zip(coeffs, vectors):
            if c:
                acc ^= int.from_bytes(bytes(v).translate(packed.tables[c]),
                                      "little")
        return acc.to_bytes(length, "little")
    add, mul = field.add, field.mul
    out = [0] * length
    for c, v in zip(coeffs, vectors):
        if c:
            for j, y in enumerate(v):
                if y:
                    out[j] = add(out[j], mul(c, y))
    return out


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols: int | None = None):
        self._set(field, tuple(tuple(field.element(x) for x in row)
                               for row in rows), ncols)

    @classmethod
    def _of(cls, field, rows, ncols: int | None = None) -> "Matrix":
        """A matrix of rows already known to hold elements of field, such
        as elimination results and a code's own rows: the element check
        of __init__ is skipped, the shape check is not."""
        m = cls.__new__(cls)
        m._set(field, tuple(map(tuple, rows)), ncols)
        return m

    def _set(self, field, data, ncols):
        if data:
            width = len(data[0])
            if ncols is not None and ncols != width:
                raise LengthMismatch(f"rows have {width} columns, not {ncols}")
            for row in data:
                if len(row) != width:
                    raise LengthMismatch("ragged rows")
        else:
            width = ncols or 0
        self.field = field
        self.nrows = len(data)
        self.ncols = width
        self.rows = data

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)]
                           for i in range(n)])

    @classmethod
    def vandermonde(cls, field, points, ncols: int) -> "Matrix":
        """Row i is (1, x_i, x_i^2, ..., x_i^(ncols-1))."""
        rows = []
        for x in points:
            x = field.element(x)
            row = [1]
            for _ in range(ncols - 1):
                row.append(field.mul(row[-1], x))
            rows.append(row[:ncols])
        return cls(field, rows, ncols=ncols)

    @classmethod
    def vstack(cls, matrices) -> "Matrix":
        matrices = list(matrices)
        if not matrices:
            raise ValueError("vstack of nothing")
        first = matrices[0]
        rows = []
        for m in matrices:
            if m.field != first.field:
                raise FieldMismatch("stacking matrices over different fields")
            if m.ncols != first.ncols:
                raise LengthMismatch("stacking matrices of different widths")
            rows.extend(m.rows)
        return cls._of(first.field, rows, ncols=first.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("product of matrices over different fields")
        if self.ncols != other.nrows:
            raise LengthMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        field, rows, ncols = self.field, other.rows, other.ncols
        return Matrix._of(field, [_combine(field, row, rows, ncols)
                                  for row in self.rows], ncols=ncols)

    def rank(self) -> int:
        return len(extend_row_space(self.field, (), self.rows, self.ncols))

    def rref(self) -> "Matrix":
        out = _echelon(self.field, self.rows, self.ncols)[1]
        return Matrix._of(
            self.field, out + [(0,) * self.ncols] * (self.nrows - len(out)),
            ncols=self.ncols)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """One solution of self @ x = rhs, free variables set to zero."""
        if self.field != rhs.field:
            raise FieldMismatch("solve across different fields")
        if rhs.nrows != self.nrows:
            raise LengthMismatch(
                f"rhs has {rhs.nrows} rows, expected {self.nrows}")
        n = self.ncols
        pivots, aug = _echelon(
            self.field, [a + b for a, b in zip(self.rows, rhs.rows)],
            n + rhs.ncols)
        if pivots and pivots[-1] >= n:  # a row 0 = nonzero
            raise Inconsistent("no solution")
        out = [(0,) * rhs.ncols] * n
        for c, row in zip(pivots, aug):
            out[c] = row[n:]
        return Matrix._of(self.field, out, ncols=rhs.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        try:
            return self.solve(Matrix.identity(self.field, self.nrows))
        except Inconsistent:
            raise Singular(f"rank {self.rank()} < {self.nrows}") from None

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
