"""Dense exact linear algebra over a field calculator.

Matrices are immutable row-major tuples of canonical integer elements,
all owned by a single field spec.  Elimination uses first-nonzero
pivoting, so results are deterministic functions of the input.
Zero-row and zero-column matrices are legal and have rank 0.
"""

from __future__ import annotations

from .errors import FieldMismatch, Inconsistent, LengthMismatch, Singular


def _echelon(field, rows, pivot_cols):
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
        data = tuple(tuple(field.element(x) for x in row) for row in rows)
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
        return cls(first.field, rows, ncols=first.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [],
                      ncols=self.nrows)

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
        return Matrix(self.field, out, ncols=other.ncols)

    def rank(self) -> int:
        rows = [list(r) for r in self.rows]
        return len(_echelon(self.field, rows, self.ncols))

    def rref(self) -> "Matrix":
        rows = [list(r) for r in self.rows]
        _echelon(self.field, rows, self.ncols)
        return Matrix(self.field, rows, ncols=self.ncols)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """One solution of self @ x = rhs, free variables set to zero."""
        if self.field != rhs.field:
            raise FieldMismatch("solve across different fields")
        if rhs.nrows != self.nrows:
            raise LengthMismatch(
                f"rhs has {rhs.nrows} rows, expected {self.nrows}")
        aug = [list(a) + list(b) for a, b in zip(self.rows, rhs.rows)]
        pivots = _echelon(self.field, aug, self.ncols)
        for i in range(len(pivots), self.nrows):
            if any(aug[i][self.ncols:]):
                raise Inconsistent("no solution")
        out = [[0] * rhs.ncols for _ in range(self.ncols)]
        for r, c in enumerate(pivots):
            out[c] = aug[r][self.ncols:]
        return Matrix(self.field, out, ncols=rhs.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(row) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(self.rows)]
        pivots = _echelon(self.field, aug, n)
        if len(pivots) != n:
            raise Singular(f"rank {len(pivots)} < {n}")
        return Matrix(self.field, [row[n:] for row in aug], ncols=n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
