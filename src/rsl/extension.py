"""Extension fields GF(q^t) over a base field, and the moduli they need.

Only the secrecy precode leaves the base field F: it runs over L =
GF(q^B).  So this module holds what secure clusters alone run, on top
of rsl.field: the irreducibility sieve, the canonical modulus search and
ExtensionSpec.  It loads where L is built, in scheme_make and
ClusterState.scheme (for wrap, unwrap and verify_cluster), and from
rsl.field when a modulus is not in its frozen table; loading a cluster
whose stored moduli the table certifies does not load it.

The sieve and the search over GF(2^w), w in {1, 2, 4, 8}, run on
_PackedPoly, packed polynomials on rsl.field's byte tables; elsewhere
the sieve powers in the ring Field(K, f) and takes gcds on coefficient
lists.  ExtensionSpec multiplies by Field.mul, and its fixed-operand
maps, linear over the base, run on FieldSpec.packed() tables or lists.
The search gives up with SearchLimit after _SEARCH_LIMIT candidates, so
a shape whose sparse candidates are all reducible, such as GF(256)^20,
fails in seconds instead of running for hours.
"""

from __future__ import annotations

import itertools

from .errors import DivideByZero, SearchLimit
from .field import (Field, FieldSpec, _byte_map, _checked_modulus, _monic,
                    _Packed)
from .matrix import _combine

# -- the gcd of polynomials as coefficient lists (ascending degree) over K


def _ptrim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmod(K, a, m):
    """Remainder of a modulo m; m need not be monic."""
    a = list(a)
    dm = len(m) - 1
    lead_inv = K.inv(m[-1])
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = K.mul(c, lead_inv)
        shift = i - dm
        for j, cm in enumerate(m):
            if cm:
                a[shift + j] = K.sub(a[shift + j], K.mul(f, cm))
    del a[dm:]
    return _ptrim(a)


def _pgcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(K, a, b)
    if a:
        lead_inv = K.inv(a[-1])
        a = [K.mul(c, lead_inv) for c in a]
    return a


# -- packed polynomials over GF(2^w) for w in {1, 2, 4, 8}


class _PackedPoly(_Packed):
    """Polynomials over K = GF(2^w), w dividing 8, packed as in _Packed,
    whose tables this shares, for the sieve and the search.  Squaring
    (coefficient-wise in characteristic 2) is two translates and a byte
    interleave, and reducer() folds a square back below the modulus."""

    __slots__ = ("sq_lo", "sq_hi")

    def __init__(self, K):
        packed = K.packed()
        self.w, self.tables, self.inv = packed.w, packed.tables, packed.inv
        squares = _byte_map(self.w, lambda s, d: K.mul(d, d) << 2 * s)
        self.sq_lo = bytes(x & 0xFF for x in squares)
        self.sq_hi = bytes(x >> 8 for x in squares)

    def square(self, a: int) -> int:
        data = a.to_bytes((a.bit_length() + 7) >> 3, "little")
        out = bytearray(2 * len(data))
        out[0::2] = data.translate(self.sq_lo)
        out[1::2] = data.translate(self.sq_hi)
        return int.from_bytes(out, "little")

    def _rem_terms(self, a: int, monic: bytes, n: int) -> int:
        """a modulo the monic degree-n polynomial whose bytes are given,
        cancelling the leading term of a one at a time."""
        w, tables = self.w, self.tables
        top = a.bit_length()
        while top > n * w:
            d = (top - 1) // w
            a ^= int.from_bytes(monic.translate(tables[a >> d * w]),
                                "little") << (d - n) * w
            top = a.bit_length()
        return a

    def reducer(self, f: int):
        """Remainder modulo the monic packed f, as a one-argument function.

        When f's tail has degree below half of f's, x^n = tail folds every
        coefficient at or above x^n down at once, a translate per nonzero
        tail term; otherwise leading terms are cancelled one by one.
        """
        w = self.w
        n = (f.bit_length() - 1) // w
        nbits = n * w
        low = (1 << nbits) - 1
        tail = f & low
        if 2 * ((tail.bit_length() - 1) // w) >= n:
            monic = f.to_bytes((f.bit_length() + 7) >> 3, "little")
            return lambda a: self._rem_terms(a, monic, n)
        digits = [(j * w, tail >> j * w & ((1 << w) - 1)) for j in range(n)]
        terms = [(shift, self.tables[c]) for shift, c in digits if c]

        def fold(a):
            while a >> nbits:
                high = a >> nbits
                data = high.to_bytes((high.bit_length() + 7) >> 3, "little")
                a &= low
                for shift, table in terms:
                    a ^= int.from_bytes(data.translate(table),
                                        "little") << shift
            return a
        return fold

    def coprime(self, a: int, b: int) -> bool:
        """True iff gcd(a, b) is a nonzero constant (Euclid)."""
        w = self.w
        while b:
            d = (b.bit_length() - 1) // w
            if d == 0:
                return True
            lead_inv = self.tables[self.inv[b >> d * w]]
            monic = b.to_bytes((b.bit_length() + 7) >> 3,
                               "little").translate(lead_inv)
            a, b = b, self._rem_terms(a, monic, d)
        return 0 < a.bit_length() <= w

    def rootless(self, K, n: int):
        """Ascending candidates v (packed) for an irreducible x^n + v:
        those with no root in K, or every v when n = 1.

        The q candidates that differ only in the constant term c0 are
        f = c0 + g, so one evaluation of g over all of K, a translate per
        term of the region (r^j for r in K), rules out each c0 = g(r).
        """
        q, w = K.order, self.w
        if n == 1:
            yield from range(q)
            return
        powers = [bytes(K.pow(r, j) for r in K.elements())
                  for j in range(n + 1)]
        top = int.from_bytes(powers[n], "little")
        for high in range(q ** (n - 1)):
            g = top
            for j in range(1, n):
                c = high >> (j - 1) * w & (q - 1)
                if c:
                    g ^= int.from_bytes(powers[j].translate(self.tables[c]),
                                        "little")
            roots = set(g.to_bytes(q, "little"))
            for c0 in range(q):
                if c0 not in roots:
                    yield high << w | c0

    def irreducible(self, f: int) -> bool:
        """Ben-Or on monic packed f of degree n >= 1 with f(0) != 0:
        x^(q^i) by w squarings each, then gcd(x^(q^i) - x, f), i <= n/2."""
        w = self.w
        rem = self.reducer(f)
        x = h = 1 << w
        for _ in range((f.bit_length() - 1) // w // 2):
            for _ in range(w):
                h = rem(self.square(h))
            if not self.coprime(f, h ^ x):
                return False
        return True


def _kernel(K) -> _PackedPoly | None:
    """The packed polynomial kernel over K, or None where K has no packed
    byte tables (see FieldSpec.packed)."""
    return None if K.packed() is None else _PackedPoly(K)


def _sieve_irreducible(K, f) -> bool:
    """Irreducibility of monic f by hunting for factors of small degree.

    gcd(x**(q**i) - x, f) collects exactly the irreducible factors of f
    whose degree divides i, and any reducible f of degree n has a factor
    of degree at most n // 2, so checking i = 1 .. n // 2 is complete.
    Reducible candidates, which dominate a modulus search, usually fail
    at small i.  Over GF(2^w) with w dividing 8 the steps run packed.
    """
    n = len(f) - 1
    if n < 1:
        return False
    if f[0] == 0:
        return n == 1  # divisible by x
    packed = _kernel(K)
    if packed is not None:
        return packed.irreducible(
            sum(c << i * packed.w for i, c in enumerate(f)))
    return _sieve_lists(K, f)


def _sieve_lists(K, f) -> bool:
    """The Ben-Or steps for any K, f as in the caller: x^(q^i) by pow in
    the ring K[x]/(f), which needs no irreducible f; gcds on lists."""
    ring = Field(K, tuple(f))
    x = h = K.order  # the class of x: digit 1 in place 1
    for _ in range((len(f) - 1) // 2):
        h = ring.pow(h, K.order)
        if _pgcd(K, ring.coeffs(ring.sub(h, x)), f) != [1]:
            return False
    return True


# candidates the search tests (on the packed path, one Ben-Or test
# each) before it gives up: GF(256)^30 needs 23,030; GF(256)^20, whose
# sparse candidates are reducible by whole families, needs far more
_SEARCH_LIMIT = 30_000


def _find_modulus(K, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest irreducible monic polynomial of the degree.

    Candidates are ordered by the integer encoding of their low coefficients
    in base |K|, so the result is a deterministic function of (K, degree).
    This search is the definition of the canonical modulus; it caches
    nothing, and rsl.field._checked_modulus, its one caller, records what
    it finds.  It raises SearchLimit after _SEARCH_LIMIT candidates.
    """
    q = K.order
    packed = _kernel(K)
    if packed is None:
        tests = ((v, _sieve_irreducible(K, _monic(q, degree, v)))
                 for v in range(q**degree))
    else:  # v is already the packed low coefficients
        top = 1 << degree * packed.w
        tests = ((v, packed.irreducible(top | v))
                 for v in packed.rootless(K, degree))
    for v, irreducible in itertools.islice(tests, _SEARCH_LIMIT):
        if irreducible:
            return _monic(q, degree, v)
    raise SearchLimit(
        f"no canonical modulus for GF({q})^{degree}, (q, t) = ({q}, "
        f"{degree}), in {_SEARCH_LIMIT:,} candidates; the table "
        f"rsl.field._FROZEN does not list it")


class ExtensionSpec(Field):
    """GF(q^t) built over a FieldSpec with q = p^w.

    Its digit field is the base, so a base element is the extension
    element of the same integer encoding.  It multiplies by Field.mul;
    frobenius, multiplier and scale are maps linear over the base.
    """

    __slots__ = ("base", "t", "_frob")

    def __init__(self, base: FieldSpec, t: int, modulus=None):
        if not isinstance(base, FieldSpec):
            raise TypeError("extension base must be a FieldSpec")
        super().__init__(base, _checked_modulus(base, t, modulus))
        self.base, self.t, self._frob = base, t, None

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "t": self.t,
                "modulus": list(self.modulus)}

    # -- arithmetic

    mul = Field.mul  # own binding: the benchmark tracer patches vars(cls)

    def inv(self, a: int) -> int:
        """a^-1 by the norm (Lidl and Niederreiter, Finite Fields, ch. 2):
        with q = |base| and r = (q^t - 1)/(q - 1), a^(r-1) is the product
        of the conjugates a^(q^i), 0 < i < t, and N(a) = a * a^(r-1) lies
        in the base, so a^-1 = a^(r-1) * N(a)^-1."""
        if a == 0:
            raise DivideByZero("inverse of zero")
        conjugate, rest = a, 1
        for _ in range(self.t - 1):
            conjugate = self.frobenius(conjugate)
            rest = self.mul(rest, conjugate)
        return self.mul(rest, self.base.inv(self.mul(a, rest)))

    def scale(self, c: int, x: int) -> int:
        """c*x for c in the base: each digit of x times c."""
        self.base.element(c)
        self.element(x)
        packed = self.base.packed()
        if packed is None:
            return self._pack(self.base.mul(c, d) for d in self.coeffs(x))
        data = x.to_bytes((x.bit_length() + 7) >> 3, "little")
        return int.from_bytes(data.translate(packed.tables[c]), "little")

    def _linear(self, images):
        """The map x -> sum of x_s * images[s] over x's digits x_s: a
        translate of an image's bytes per nonzero digit where the base is
        packed, else one _combine over digit lists."""
        packed, element = self.base.packed(), self.element
        if packed is None:
            base, t, coeffs = self.base, self.t, self.coeffs
            vectors = [coeffs(v) for v in images]
            return lambda x: self._pack(_combine(base, coeffs(x), vectors, t))
        w, tables, from_bytes = packed.w, packed.tables, int.from_bytes
        mask, size = (1 << w) - 1, (self.t * w + 7) >> 3
        images = [v.to_bytes(size, "little") for v in images]

        def apply(x: int) -> int:
            element(x)
            acc = 0
            for image in images:
                c = x & mask
                if c:
                    acc ^= from_bytes(image.translate(tables[c]), "little")
                x >>= w
            return acc
        return apply

    # -- structure

    @property
    def root(self) -> int:
        """The class of x, a root of the modulus that generates the field."""
        return self.base.order if self.t > 1 else self.base.sub(0, self.modulus[0])

    def frobenius(self, a: int, i: int = 1) -> int:
        """a raised to the |base|^i power; fixes the base elements.

        That is i steps of x -> x^q, q = |base|, linear with images
        (y^s)^q = (y^q)^s, built on first use from one pow().
        """
        self.element(a)
        i %= self.t
        if i and self._frob is None:
            images, times = [1], self.multiplier(
                self.pow(self.root, self.base.order))
            for _ in range(self.t - 1):
                images.append(times(images[-1]))
            self._frob = self._linear(images)
        for _ in range(i):
            a = self._frob(a)
        return a

    def multiplier(self, z: int):
        """The map x -> x*z, for one z and many x; each x must be an element.

        x*z is linear in x, with images z*y^s: each is the one before
        shifted up a digit, whose top digit c folds back as c*y^t =
        -c*tail, tail the modulus below its leading term.
        """
        self.element(z)
        q, tail = self.base.order, self._tail
        top, images = q ** (self.t - 1), [z]
        for _ in range(self.t - 1):
            c, z = divmod(z, top)
            z = self.sub(z * q, self.scale(c, tail)) if c else z * q
            images.append(z)
        return self._linear(images)

    def __eq__(self, other):
        return (isinstance(other, ExtensionSpec)
                and (self.base, self.t, self.modulus)
                == (other.base, other.t, other.modulus))

    def __hash__(self):
        return hash((ExtensionSpec, self.base, self.t, self.modulus))

    def __repr__(self):
        return f"{self.base!r}^{self.t}"
