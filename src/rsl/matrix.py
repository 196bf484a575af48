"""Dense exact linear algebra over a field calculator.

Matrices are immutable row-major tuples of canonical integer elements,
all owned by a single field spec.  Elimination uses first-nonzero
pivoting, so results are deterministic functions of the input.
Zero-row and zero-column matrices are legal and have rank 0.

Over GF(2^w) with w in {1, 2, 4, 8}, where the field's packed kernel
exists, elimination runs on rows packed one element per byte into an
integer, column j in byte j: scaling a row is one bytes.translate and
subtracting is one XOR.  Every other field, extensions included, keeps
the loop on element lists, which is also the tests' reference.  The
reduced row echelon form is unique, so both give the same rows.
"""

from __future__ import annotations

from .errors import FieldMismatch, Inconsistent, LengthMismatch, Singular


def _echelon(field, rows, pivot_cols, reduced=True):
    """Row echelon form of rows, pivoting in the first pivot_cols columns.

    Returns (pivots, out).  out[i] for i < len(pivots) has a leading one
    at column pivots[i], ascending, and zeros left of it; the rows after
    those are zero in the first pivot_cols columns.  The pivot rows are
    also zero at each other's pivot columns (reduced row echelon form).
    With reduced false only the pivots are wanted: the packed path then
    skips back-substitution and returns None for out.
    """
    packed = field.packed()
    if packed is None:
        out = [list(row) for row in rows]
        return _list_echelon(field, out, pivot_cols), out
    width = len(rows[0]) if rows else 0
    pivots, out = _packed_echelon(
        packed, [int.from_bytes(bytes(row), "little") for row in rows],
        width, pivot_cols, reduced)
    if not reduced:
        return pivots, None
    return pivots, [tuple(x.to_bytes(width, "little")) for x in out]


def _packed_echelon(packed, rows, width, pivot_cols, reduced):
    """_echelon on width-byte packed rows, as a list of packed rows.

    Each row is reduced in turn against the pivot rows found so far,
    cancelling its first nonzero byte while that lies in a pivot column;
    if its first nonzero byte lies in a new column below pivot_cols, it
    is scaled to a leading one there and becomes that column's pivot
    row.  Back-substitution, last pivot first, then clears each pivot
    column from the pivot rows above it.
    """
    tables, inv = packed.tables, packed.inv
    found = {}  # pivot column -> (packed row, its bytes), leading one
    rest = []
    for x in rows:
        while x:
            c = ((x & -x).bit_length() - 1) >> 3
            top = found.get(c)
            if top is None:
                break
            x ^= int.from_bytes(
                top[1].translate(tables[x >> (c << 3) & 0xFF]), "little")
        if x and c < pivot_cols:
            data = x.to_bytes(width, "little")
            lead = x >> (c << 3) & 0xFF
            if lead != 1:
                data = data.translate(tables[inv[lead]])
                x = int.from_bytes(data, "little")
            found[c] = (x, data)
        else:
            rest.append(x)
    pivots = sorted(found)
    if not reduced:
        return pivots, None
    out = [found[c][0] for c in pivots]
    for i in range(len(pivots) - 1, 0, -1):
        shift = pivots[i] << 3
        data = out[i].to_bytes(width, "little")
        for j in range(i):
            f = out[j] >> shift & 0xFF
            if f:
                out[j] ^= int.from_bytes(data.translate(tables[f]), "little")
    return pivots, out + rest


def _list_echelon(field, rows, pivot_cols):
    """Reduce rows in place to reduced row echelon form.

    Pivots are searched only in the first pivot_cols columns; returns the
    list of pivot column indices.  Each pivot row's nonzero (column, value)
    pairs are listed once, and every other row with a nonzero entry in the
    pivot column is updated in place at those columns only, so sparse and
    block-diagonal systems pay for their nonzeros, not their width.
    """
    sub, mul, inv = field.sub, field.mul, field.inv
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_cols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        # columns left of c are zero in every row from r down
        support = [(j, top[j]) for j in range(c, len(top)) if top[j]]
        lead = top[c]
        if lead != 1:
            f = inv(lead)
            support = [(j, mul(f, y)) for j, y in support]
            for j, y in support:
                top[j] = y
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f == 0 or i == r:
                continue
            for j, y in support:
                row[j] = sub(row[j], mul(f, y))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


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
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols=ncols)

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

    def transpose(self) -> "Matrix":
        # a matrix without rows still has ncols columns, each empty
        return Matrix._of(self.field, list(zip(*self.rows)) if self.rows
                          else [()] * self.ncols, ncols=self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("product of matrices over different fields")
        if self.ncols != other.nrows:
            raise LengthMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        add, mul = self.field.add, self.field.mul
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix._of(self.field, out, ncols=other.ncols)

    def rank(self) -> int:
        return len(_echelon(self.field, self.rows, self.ncols,
                            reduced=False)[0])

    def rref(self) -> "Matrix":
        return Matrix._of(self.field,
                          _echelon(self.field, self.rows, self.ncols)[1],
                          ncols=self.ncols)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """One solution of self @ x = rhs, free variables set to zero."""
        if self.field != rhs.field:
            raise FieldMismatch("solve across different fields")
        if rhs.nrows != self.nrows:
            raise LengthMismatch(
                f"rhs has {rhs.nrows} rows, expected {self.nrows}")
        pivots, aug = _echelon(
            self.field, [a + b for a, b in zip(self.rows, rhs.rows)],
            self.ncols)
        for i in range(len(pivots), self.nrows):
            if any(aug[i][self.ncols:]):
                raise Inconsistent("no solution")
        out = [(0,) * rhs.ncols] * self.ncols
        for r, c in enumerate(pivots):
            out[c] = aug[r][self.ncols:]
        return Matrix._of(self.field, out, ncols=rhs.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [row + (0,) * i + (1,) + (0,) * (n - 1 - i)
               for i, row in enumerate(self.rows)]
        pivots, aug = _echelon(self.field, aug, n)
        if len(pivots) != n:
            raise Singular(f"rank {len(pivots)} < {n}")
        return Matrix._of(self.field, [row[n:] for row in aug], ncols=n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
