"""Exact arithmetic in finite fields GF(p^w) and extensions of them.

GF(p^w) (FieldSpec) and GF(q^t) over it with q = p^w (ExtensionSpec) are
one construction, K[x]/(f) for a digit field K and a monic irreducible f
of degree t: K is GF(p) under a FieldSpec and the base under an
ExtensionSpec.  An element is the canonical integer whose t base-|K|
digits are its residue coefficients, constant term first, so for p = 2
the encoding is plain bit packing, elements print naturally as hex, and
a base field embeds as the integers below q.  Field holds what both
share: the modulus check, the digit codec, digitwise add/sub/neg and the
multiplier on digit lists.

A spec is a calculator: a small immutable object whose methods are pure
functions of integer arguments.  Two specs built from the same (p, w,
modulus), or (base, t, modulus), compare equal and are interchangeable.
A FieldSpec of order <= 2^16 gets eager log/exp tables over a
deterministic primitive element.

Polynomials over a field run on coefficient lists, except over GF(2^w)
with w in {1, 2, 4, 8}, where a byte holds whole coefficients.  There
the packed kernel (_Packed, built on first use by FieldSpec.packed())
works on the integer of w-bit digits itself: scaling is a 256-byte
bytes.translate, addition is XOR.  The irreducibility sieve, the
canonical modulus search, ExtensionSpec.mul and matrix elimination over
the field take that path; every other (p, w), such as GF(8), GF(2^12),
GF(25) or GF(11), keeps the list path, which is also the reference the
tests compare the kernel against.

A spec built without a modulus takes the canonical one, the smallest
irreducible by encoding (_find_modulus).  Those of GF(16)^6, GF(16)^20
and GF(256)^6, the extensions of the README's secure examples and the
benchmark's secure cluster, are frozen in a table, as Conway polynomials
are, so only other (q, t) pay for the search; each process remembers what
it found.
"""

from __future__ import annotations

from .errors import DivideByZero, LengthMismatch, NotPrime, Reducible

_TABLE_LIMIT = 1 << 16

# deterministic Miller-Rabin witnesses, sound for n < 3.3e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomials as coefficient lists (ascending degree) over a calculator K


def _ptrim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _psub(K, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = K.sub(out[i], c)
    return _ptrim(out)


def _pmul(K, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = K.add(out[i + j], K.mul(ca, cb))
    return _ptrim(out)


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


def _psquare(K, a):
    """a**2, using the freshman's-dream shortcut in characteristic 2."""
    if K.char != 2 or not a:
        return _pmul(K, a, a)
    out = [0] * (2 * len(a) - 1)
    for i, c in enumerate(a):
        if c:
            out[2 * i] = K.mul(c, c)
    return _ptrim(out)


def _ppowmod(K, base, e: int, m):
    """base**e reduced modulo m, by square and multiply."""
    result = [1]
    acc = _pmod(K, base, m)
    while e:
        if e & 1:
            result = _pmod(K, _pmul(K, result, acc), m)
        acc = _pmod(K, _psquare(K, acc), m)
        e >>= 1
    return result


# -- packed polynomials over GF(2^w) for w in {1, 2, 4, 8}


class _Packed:
    """Polynomials over K = GF(2^w), w dividing 8, as packed integers.

    Coefficient i sits in bits [i*w, (i+1)*w): the base-q digits that
    ExtensionSpec elements already use.  A byte holds whole coefficients,
    so scaling by a constant is one bytes.translate through a 256-byte
    table, and squaring (coefficient-wise in characteristic 2) is two
    translates and a byte interleave (Plank, Greenan and Miller,
    "Screaming Fast Galois Field Arithmetic", FAST 2013).
    """

    __slots__ = ("w", "tables", "sq_lo", "sq_hi", "inv")

    def __init__(self, K):
        w = K.w
        # bit i of a byte is digit i // w with value 2^(i % w); every
        # table is GF(2)-linear in the byte, so eight images fill it
        bits = [(i // w * w, 1 << i % w) for i in range(8)]

        def table(images):
            out = [0]
            for image in images:
                out += [x ^ image for x in out]
            return out

        self.w = w
        if w == 8:
            # c*x = exp[log c + log x]: the logs of all bytes, 255 for
            # x = 0, translated through the exp table rotated by log c
            # whose byte 255 is 0, so each table is one translate
            exp = bytes(K._exp) * 2
            logs = bytes([255] + K._log[1:])
            self.tables = [bytes(256)] + [
                logs.translate(exp[k:k + 255] + b"\0")
                for k in K._log[1:]]
        else:
            self.tables = [bytes(table([K.mul(c, d) << s for s, d in bits]))
                           for c in range(K.order)]
        squares = table([K.mul(d, d) << 2 * s for s, d in bits])
        self.sq_lo = bytes(x & 0xFF for x in squares)
        self.sq_hi = bytes(x >> 8 for x in squares)
        self.inv = [0] + [K.inv(c) for c in range(1, K.order)]

    def scale(self, a: int, c: int) -> int:
        data = a.to_bytes((a.bit_length() + 7) >> 3, "little")
        return int.from_bytes(data.translate(self.tables[c]), "little")

    def square(self, a: int) -> int:
        data = a.to_bytes((a.bit_length() + 7) >> 3, "little")
        out = bytearray(2 * len(data))
        out[0::2] = data.translate(self.sq_lo)
        out[1::2] = data.translate(self.sq_hi)
        return int.from_bytes(out, "little")

    def product(self, a: int, b: int) -> int:
        """a*b unreduced: one translate of a per nonzero digit of b."""
        w, tables = self.w, self.tables
        data = a.to_bytes((a.bit_length() + 7) >> 3, "little")
        mask = (1 << w) - 1
        acc = shift = 0
        while b:
            c = b & mask
            if c:
                acc ^= int.from_bytes(data.translate(tables[c]),
                                      "little") << shift
            b >>= w
            shift += w
        return acc

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
        powers = [int.from_bytes(bytes(K.pow(r, j) for r in K.elements()),
                                 "little") for j in range(n + 1)]
        for high in range(q ** (n - 1)):
            g = powers[n]
            for j in range(1, n):
                c = high >> (j - 1) * w & (q - 1)
                if c:
                    g ^= self.scale(powers[j], c)
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
    packed = K.packed()
    if packed is not None:
        return packed.irreducible(
            sum(c << i * packed.w for i, c in enumerate(f)))
    return _sieve_lists(K, f)


def _sieve_lists(K, f) -> bool:
    """The Ben-Or steps on coefficient lists; any K, f as in the caller."""
    q = K.order
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):
        h = _ppowmod(K, h, q, f)
        if _pgcd(K, _psub(K, h, x), f) != [1]:
            return False
    return True


def _monic(q: int, degree: int, v: int) -> tuple[int, ...]:
    """x^degree plus the polynomial whose base-q digits v holds."""
    return tuple(v // q**i % q for i in range(degree)) + (1,)


def _find_modulus(K, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest irreducible monic polynomial of the degree.

    Candidates are ordered by the integer encoding of their low coefficients
    in base |K|, so the result is a deterministic function of (K, degree).
    This search is the definition of the canonical modulus; it caches
    nothing, and verify_cluster runs it to check a stored modulus.
    """
    q = K.order
    packed = K.packed()
    if packed is None:
        v = next(v for v in range(q**degree)
                 if _sieve_irreducible(K, _monic(q, degree, v)))
    else:  # v is already the packed low coefficients
        top = 1 << degree * packed.w
        v = next(v for v in packed.rootless(K, degree)
                 if packed.irreducible(top | v))
    return _monic(q, degree, v)


# Canonical moduli frozen in the manner of Conway-polynomial tables, for
# the secure shapes that have named traffic: GF(16)^6 is the README's
# n=5 k=3 example, GF(16)^20 the benchmark's n=9 k=5 cluster, and
# GF(256)^6 the README example over the default field, which alone takes
# seconds to search.  Keyed like the cache, by (q, base modulus, t), so
# only the canonical base hits; each value is the packed v of _monic, and
# the tests check every entry against _find_modulus.
_GF16, _GF256 = (1, 1, 0, 0, 1), (1, 1, 0, 1, 1, 0, 0, 0, 1)
_FROZEN = {(16, _GF16, 6): 0x12d, (16, _GF16, 20): 0x1089,
           (256, _GF256, 6): 0x10131}
_MODULUS_CACHE: dict = {key: _monic(key[0], key[2], v)
                        for key, v in _FROZEN.items()}


def _search_modulus(K, degree: int) -> tuple[int, ...]:
    """The canonical modulus of the degree over K: from the frozen table,
    else found by _find_modulus, and remembered for the process."""
    key = (K.order, K.modulus, degree)
    hit = _MODULUS_CACHE.get(key)
    if hit is None:
        hit = _MODULUS_CACHE[key] = _find_modulus(K, degree)
    return hit


def _checked_modulus(K, t: int, modulus) -> tuple[int, ...]:
    """The modulus of K[x]/(f) at degree t: the canonical one when none is
    given, else the given one, checked to hold t + 1 elements of K, to be
    monic and, for t >= 2, irreducible over K."""
    if t < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        return (0, 1) if t == 1 else _search_modulus(K, t)
    modulus = tuple(K.element(int(c)) for c in modulus)
    if len(modulus) != t + 1:
        raise LengthMismatch(
            f"modulus needs {t + 1} coefficients, got {len(modulus)}")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    if t >= 2 and not _sieve_irreducible(K, list(modulus)):
        raise Reducible(f"modulus {list(modulus)} factors over {K!r}")
    return modulus


class Field:
    """Shared calculator surface for FieldSpec and ExtensionSpec: both are
    K[x]/(modulus) of degree t over a digit field K (GF(p) is its own, at
    t = 1), with elements the integers of t base-|K| digits, constant term
    first.  The digit codec, digitwise add/sub/neg and the list multiplier
    work on that form for both; each class keeps its own faster mul."""

    __slots__ = ("modulus", "order", "char", "_digit_field", "_degree",
                 "_gen", "_packed")

    def element(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"field element must be int, got {type(x).__name__}")
        if not 0 <= x < self.order:
            raise ValueError(f"{x} out of range for {self!r}")
        return x

    def elements(self):
        return range(self.order)

    def packed(self) -> _Packed | None:
        """The packed kernel over this field (see FieldSpec.packed); an
        ExtensionSpec has none, so matrices over it eliminate on lists."""
        return None

    # -- representation

    def coeffs(self, a: int) -> tuple[int, ...]:
        """The t digits of a over K, constant term first."""
        self.element(a)
        q = self._digit_field.order
        out = []
        for _ in range(self._degree):
            a, c = divmod(a, q)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        """The element whose digits are cs; each must be an element of K."""
        cs = [self._digit_field.element(int(c)) for c in cs]
        if len(cs) != self._degree:
            raise LengthMismatch(
                f"need {self._degree} coefficients, got {len(cs)}")
        return self._pack(cs)

    def _pack(self, digits) -> int:
        q = self._digit_field.order
        return sum(c * q**i for i, c in enumerate(digits))

    # -- arithmetic: a field of prime order is the integers mod p

    def add(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        if self.order == self.char:
            return (a + b) % self.char
        return self._pack(map(self._digit_field.add,
                              self.coeffs(a), self.coeffs(b)))

    def sub(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        if self.order == self.char:
            return (a - b) % self.char
        return self._pack(map(self._digit_field.sub,
                              self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.char == 2:
            return a
        if self.order == self.char:
            return (-a) % self.char
        return self._pack(map(self._digit_field.neg, self.coeffs(a)))

    def _list_mul(self, a: int, b: int) -> int:
        """a*b on digit lists: the schoolbook product over K, then the
        monic modulus cancels the terms of degree t and up, highest first."""
        K, t, mod = self._digit_field, self._degree, self.modulus
        add, mul, sub = K.add, K.mul, K.sub
        da, db = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * t - 1)
        for i, ca in enumerate(da):
            if ca == 0:
                continue
            for j, cb in enumerate(db):
                if cb:
                    prod[i + j] = add(prod[i + j], mul(ca, cb))
        for i in range(len(prod) - 1, t - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            shift = i - t
            for j in range(t + 1):
                if mod[j]:
                    prod[shift + j] = sub(prod[shift + j], mul(c, mod[j]))
        return self._pack(prod[:t])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent; use inv() first")
        if a == 0:
            return 1 if e == 0 else 0
        result, acc = 1, a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def generator(self) -> int:
        """Smallest (by encoding) generator of the multiplicative group."""
        if self._gen is None:
            n = self.order - 1
            radicals = _prime_factors(n)
            # 1 generates only GF(2)'s group, where radicals is empty
            self._gen = next(c for c in range(1, self.order)
                             if all(self.pow(c, n // r) != 1
                                    for r in radicals))
        return self._gen


class FieldSpec(Field):
    """GF(p^w) with modulus coefficients ascending, monic, over GF(p)."""

    __slots__ = ("p", "w", "_mod_int", "_exp", "_log")

    def __init__(self, p: int, w: int, modulus=None):
        if not _is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        self._digit_field = self if w == 1 else FieldSpec(p, 1)
        self.p = self.char = p
        self.w = self._degree = w
        self.order = p**w
        self.modulus = _checked_modulus(self._digit_field, w, modulus)
        self._mod_int = self._pack(self.modulus)
        self._gen = self._exp = self._log = self._packed = None
        if w > 1 and self.order <= _TABLE_LIMIT:
            self._build_tables()

    def to_json(self) -> dict:
        return {"p": self.p, "w": self.w, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(data["p"], data["w"], data["modulus"])

    def packed(self) -> _Packed | None:
        """The packed kernel, built on first use, when whole coefficients
        fit in a byte: p = 2 and w in {1, 2, 4, 8}.  It serves
        polynomials over this field and the rows matrix.py eliminates."""
        if self._packed is None and self.p == 2 and 8 % self.w == 0:
            self._packed = _Packed(self)
        return self._packed

    # -- arithmetic

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("inverse of zero")
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        if self.w == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if self._exp is not None and a != 0:
            if e < 0:
                raise ValueError("negative exponent; use inv() first")
            return self._exp[self._log[a] * e % (self.order - 1)]
        return super().pow(a, e)

    def _raw_mul(self, a: int, b: int) -> int:
        if self.w == 1:
            return a * b % self.p
        if self.p == 2:
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
            top = acc.bit_length() - 1
            while top >= self.w:
                acc ^= self._mod_int << (top - self.w)
                top = acc.bit_length() - 1
            return acc
        return self._list_mul(a, b)

    # -- structure

    def _build_tables(self):
        g = self.generator()
        n = self.order - 1
        exp = [1] * n
        log = [0] * self.order
        for i in range(1, n):
            exp[i] = self._raw_mul(exp[i - 1], g)
            log[exp[i]] = i
        self._exp = exp
        self._log = log

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.w, self.modulus)
                == (other.p, other.w, other.modulus))

    def __hash__(self):
        return hash((FieldSpec, self.p, self.w, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.w == 1 else f"GF({self.p}^{self.w})"


class ExtensionSpec(Field):
    """GF(q^t) built over a FieldSpec with q = p^w.

    Its digit field is the base, so embed() of a base element is the
    identity on its integer encoding.
    """

    __slots__ = ("base", "t", "_rem")

    def __init__(self, base: FieldSpec, t: int, modulus=None):
        if not isinstance(base, FieldSpec):
            raise TypeError("extension base must be a FieldSpec")
        self.modulus = _checked_modulus(base, t, modulus)
        self.base = self._digit_field = base
        self.t = self._degree = t
        self.order = base.order**t
        self.char = base.p
        self._gen = None
        packed = self._packed = base.packed()
        self._rem = (None if packed is None
                     else packed.reducer(self._pack(self.modulus)))

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "t": self.t,
                "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "ExtensionSpec":
        return cls(FieldSpec.from_json(data["base"]), data["t"],
                   data["modulus"])

    # -- arithmetic

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._packed is not None:
            self.element(a)
            self.element(b)
            return self._rem(self._packed.product(a, b))
        return self._list_mul(a, b)

    def inv(self, a: int) -> int:
        """Extended Euclid over the base field against the modulus."""
        if a == 0:
            raise DivideByZero("inverse of zero")
        base = self.base
        # invariant: r == s * a modulo the modulus, for both (r0, s0), (r1, s1)
        r0, s0 = list(self.modulus), []
        r1, s1 = _ptrim(list(self.coeffs(a))), [1]
        while len(r1) > 1:
            lead_inv = base.inv(r1[-1])
            while len(r0) >= len(r1):
                term = [0] * (len(r0) - len(r1)) + [base.mul(r0[-1], lead_inv)]
                r0 = _psub(base, r0, _pmul(base, term, r1))
                s0 = _psub(base, s0, _pmul(base, term, s1))
            r0, s0, r1, s1 = r1, s1, r0, s0
        # the modulus is irreducible, so the last remainder is a nonzero unit
        scale = base.inv(r1[0])
        return self._pack(base.mul(c, scale) for c in s1)

    # -- structure

    @property
    def root(self) -> int:
        """The class of x, a root of the modulus that generates the field."""
        return self.base.order if self.t > 1 else self.base.neg(self.modulus[0])

    def embed(self, a: int) -> int:
        """Lift a base-field element; identity on the integer encoding."""
        return self.base.element(a)

    def frobenius(self, a: int, i: int = 1) -> int:
        """a raised to the |base|^i power; fixes embedded base elements."""
        self.element(a)
        i %= self.t
        return self.pow(a, self.base.order**i) if i else a

    def __eq__(self, other):
        return (isinstance(other, ExtensionSpec)
                and (self.base, self.t, self.modulus)
                == (other.base, other.t, other.modulus))

    def __hash__(self):
        return hash((ExtensionSpec, self.base, self.t, self.modulus))

    def __repr__(self):
        return f"{self.base!r}^{self.t}"
