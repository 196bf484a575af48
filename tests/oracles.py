"""Independent reference implementations the tests trust.

Everything here is deliberately naive: coefficient-list polynomial
arithmetic, trial-division irreducibility, span counting for rank,
dot products straight off the code's documented layout.  Slow but
obviously correct, and sharing no code with the package under test,
apart from the matrix helpers at the end: stacking, the entropy
identities as differences of ranks, and the reduced row echelon form
that solve() back-substitutes, which the tests check by its shape.
"""

import functools
import itertools

from rsl import matrix
from rsl.matrix import Matrix


# -- polynomials over GF(p), coefficient lists low degree first

def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, m, p):
    a = poly_trim(a)
    m = poly_trim(m)
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = poly_trim(a)
    return a


def irreducible_over_prime(f, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    f = poly_trim(f)
    deg = len(f) - 1
    if deg < 1:
        return False
    if f[0] == 0 and deg > 1:
        return False  # divisible by x
    for ddeg in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=ddeg):
            divisor = list(tail) + [1]
            if not poly_mod(list(f), divisor, p):
                return False
    return True


def smallest_irreducible(p, w):
    """First monic irreducible of degree w in ascending constant-part order."""
    v = 0
    while True:
        digits, x = [], v
        for _ in range(w):
            digits.append(x % p)
            x //= p
        if x == 0:
            f = digits + [1]
            if irreducible_over_prime(f, p):
                return tuple(f)
        v += 1


# -- naive GF(p^w) on the canonical integer encoding

class NaiveField:
    """Field arithmetic by raw polynomial work; no tables, no bit tricks."""

    def __init__(self, p, w, modulus):
        self.p = p
        self.w = w
        self.modulus = list(modulus)
        self.order = p ** w

    def to_poly(self, a):
        digits = []
        for _ in range(self.w):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def to_int(self, cs):
        out = 0
        for c in reversed(list(cs) + [0] * (self.w - len(cs))):
            out = out * self.p + c
        return out

    def add(self, a, b):
        pa, pb = self.to_poly(a), self.to_poly(b)
        return self.to_int([(x + y) % self.p for x, y in zip(pa, pb)])

    def mul(self, a, b):
        prod = poly_mul(self.to_poly(a), self.to_poly(b), self.p)
        return self.to_int(poly_mod(prod, self.modulus, self.p))

    def neg(self, a):
        return self.to_int([(-c) % self.p for c in self.to_poly(a)])

    def inv(self, a):
        for b in range(1, self.order):
            if self.mul(a, b) == 1:
                return b
        raise ZeroDivisionError(a)

    def scale(self, c, vec):
        return tuple(self.mul(c, x) for x in vec)

    def add_vec(self, u, v):
        return tuple(self.add(x, y) for x, y in zip(u, v))


class NaiveExtension(NaiveField):
    """GF(q^t) over a NaiveField base by raw polynomial work, on the
    packed encoding: the element is the base-q number of its digits."""

    def __init__(self, base: NaiveField, modulus):
        self.base = base
        self.t = len(modulus) - 1
        self.modulus = list(modulus)
        self.order = base.order ** self.t

    def to_poly(self, a):
        digits = []
        for _ in range(self.t):
            digits.append(a % self.base.order)
            a //= self.base.order
        return digits

    def to_int(self, cs):
        out = 0
        for c in reversed(list(cs) + [0] * (self.t - len(cs))):
            out = out * self.base.order + c
        return out

    def add(self, a, b):
        pa, pb = self.to_poly(a), self.to_poly(b)
        return self.to_int([self.base.add(x, y) for x, y in zip(pa, pb)])

    def mul(self, a, b):
        K = self.base
        prod = [0] * (2 * self.t - 1)
        for i, x in enumerate(self.to_poly(a)):
            for j, y in enumerate(self.to_poly(b)):
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
        # the modulus is monic: cancel the top coefficient, highest first
        for top in range(len(prod) - 1, self.t - 1, -1):
            c = prod[top]
            for j, m in enumerate(self.modulus):
                i = top - self.t + j
                prod[i] = K.add(prod[i], K.neg(K.mul(c, m)))
        return self.to_int(prod[:self.t])


def extension_inverse(ext: NaiveExtension, a):
    """a^-1 in ext by the extended Euclidean algorithm against its
    modulus, on coefficient lists over ext.base."""
    K = ext.base

    def sub(u, v):
        u, v = u + [0] * (len(v) - len(u)), v + [0] * (len(u) - len(v))
        return poly_trim(K.add(x, K.neg(y)) for x, y in zip(u, v))

    def times(c, shift, u):
        return [0] * shift + [K.mul(c, x) for x in u]
    # invariant: r == s * a modulo the modulus, for (r0, s0) and (r1, s1)
    r0, s0 = list(ext.modulus), []
    r1, s1 = poly_trim(ext.to_poly(a)), [1]
    while len(r1) > 1:
        lead = K.inv(r1[-1])
        while len(r0) >= len(r1):
            c, shift = K.mul(r0[-1], lead), len(r0) - len(r1)
            r0 = sub(r0, times(c, shift, r1))
            s0 = sub(s0, times(c, shift, s1))
        r0, s0, r1, s1 = r1, s1, r0, s0
    # the modulus is irreducible, so the last remainder is a nonzero unit
    scale = K.inv(r1[0])
    return ext.to_int([K.mul(c, scale) for c in s1])


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 by trial division, ascending."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def span_size(nf: NaiveField, rows) -> int:
    """|span of rows| by exhaustive closure; equals order**rank."""
    width = len(rows[0]) if rows else 0
    # memoized for this call only: the field has at most order**2 sums
    add = functools.lru_cache(maxsize=None)(nf.add)
    span = {(0,) * width}
    for row in rows:
        row = tuple(row)
        if row in span:
            continue
        additions = [nf.scale(c, row) for c in range(1, nf.order)]
        span |= {tuple(map(add, s, a)) for s in span for a in additions}
    return len(span)


def naive_rank(nf: NaiveField, rows) -> int:
    size = span_size(nf, rows)
    rank = 0
    while size > 1:
        size //= nf.order
        rank += 1
    return rank


def gauss_jordan_rank(field, rows) -> int:
    """Rank by textbook Gauss-Jordan on a copy of rows, column by column,
    with only the field's sub, mul and inv: each pivot column is cleared
    from every other row."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        f = field.inv(rows[rank][c])
        rows[rank] = [field.mul(f, y) for y in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                g = row[c]
                rows[i] = [field.sub(y, field.mul(g, z))
                           for y, z in zip(row, rows[rank])]
        rank += 1
    return rank


def moore(ext):
    """The Moore matrix of the wrapping over ext = L, by definition: row j,
    column i is (y^j)^(q^i), y = ext.root and q the base field's order.
    The y^j are a basis of L over the base, so it is invertible."""
    return [[ext.frobenius(ext.pow(ext.root, j), i) for i in range(ext.t)]
            for j in range(ext.t)]


# -- product-matrix shares straight off the documented layout

def build_matrices(field, params, message):
    """The m pairs of symmetric matrices a message fills, upper rows first."""
    a0 = params.base_alpha
    half = a0 * (a0 + 1) // 2
    pairs = []
    for copy in range(params.m):
        off = copy * 2 * half
        mats = []
        for block in range(2):
            chunk = message[off + block * half: off + (block + 1) * half]
            mat = [[0] * a0 for _ in range(a0)]
            pos = 0
            for r in range(a0):
                for s in range(r, a0):
                    mat[r][s] = chunk[pos]
                    mat[s][r] = chunk[pos]
                    pos += 1
            mats.append(mat)
        pairs.append(tuple(mats))
    return pairs


def naive_share(field, params, points, node, message):
    """psi_i [S1; S2] per copy, slots of copy 0 first."""
    a0 = params.base_alpha
    x = points[node - 1]
    phi = [field.pow(x, j) for j in range(a0)]
    lam = field.pow(x, a0)
    share = []
    for s1, s2 in build_matrices(field, params, message):
        for col in range(a0):
            acc = 0
            for j in range(a0):
                acc = field.add(acc, field.mul(phi[j], s1[j][col]))
                acc = field.add(acc,
                                field.mul(lam, field.mul(phi[j], s2[j][col])))
            share.append(acc)
    return share


def naive_repair_symbol(field, params, points, helper_share, failed):
    """Per copy, the helper share dotted with phi of the failed node."""
    a0 = params.base_alpha
    x = points[failed - 1]
    phi = [field.pow(x, j) for j in range(a0)]
    out = []
    for copy in range(params.m):
        acc = 0
        for j in range(a0):
            acc = field.add(acc, field.mul(helper_share[copy * a0 + j],
                                           phi[j]))
        out.append(acc)
    return out


# -- matrices of observations, and the reduced form solve() eliminates to

def vstack(matrices):
    """The rows of matrices, one after another: one field, one width."""
    first = matrices[0]
    return Matrix(first.field, [row for m in matrices for row in m.rows],
                  ncols=first.ncols)


def conditional_entropy(a, given):
    """H(a | given) = H(a, given) - H(given), entropies as ranks."""
    return vstack((a, given)).rank() - given.rank()


def mutual_information(a, b, given=None):
    """I(a; b) or I(a; b | given) = H(a | given) - H(a | b, given)."""
    if given is None:
        given = Matrix(a.field, (), ncols=a.ncols)
    return (conditional_entropy(a, given)
            - conditional_entropy(a, vstack((b, given))))


def rref(a):
    """The reduced row echelon form of a, zero rows last: the nonzero rows
    matrix._echelon returns, padded to a's shape."""
    out = matrix._echelon(a.field, a.rows, a.ncols)[1]
    return Matrix(a.field, out + [(0,) * a.ncols] * (a.nrows - len(out)),
                  ncols=a.ncols)
