"""Exact arithmetic in finite fields GF(p^w): the base field F of a code.

GF(p^w) (FieldSpec) and its extensions GF(q^t), q = p^w (ExtensionSpec,
in rsl.extension) are one construction, K[x]/(f) for a digit field K and
a monic irreducible f of degree t.  An element is the integer whose t
base-|K| digits are its residue coefficients, constant term first, so
for p = 2 the encoding is plain bit packing and a base field embeds as
the integers below q.  Field holds what both classes share.  A spec is
an immutable calculator, and specs built from the same parameters
compare equal.  A FieldSpec of order <= 2^16 gets log/exp tables.

This module holds what plain storage runs: Field, FieldSpec and, over
GF(2^w) with w in {1, 2, 4, 8}, the byte tables of _Packed, which scale
a byte of whole digits by one bytes.translate, for matrix elimination
and the codec's region products.  rsl.extension holds the rest:
polynomial arithmetic, the irreducibility sieve, the canonical modulus
search and ExtensionSpec.  It loads on first use; field.ExtensionSpec
still resolves here.

A spec built without a modulus takes the canonical one, the smallest
irreducible by encoding.  The table _FROZEN lists it for GF(16) and
GF(256) and for the extensions of the README's and the benchmark's
secure clusters, as Conway-polynomial tables do; other shapes are
searched.  The table also certifies a given modulus: one equal to a
canonical modulus the process knows needs no sieve, so loading a cluster
of a table shape sieves nothing.
"""

from __future__ import annotations

from math import gcd

from .errors import (DivideByZero, LengthMismatch, NotPrime, Reducible,
                     SearchLimit)

_TABLE_LIMIT = 1 << 16

# deterministic Miller-Rabin witnesses, the primes to 41: sound below
# psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017); no fixed-base test is proven above it
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


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


def _rho(n: int) -> int:
    """A proper factor of n, composite and free of primes below 64:
    Pollard's rho on x^2 + c with Brent's cycle search (Brent, BIT 1980),
    for c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        x = y = 2
        g, steps, power = 1, 0, 1
        while g == 1:
            if steps == power:  # save y at each power of two
                x, steps, power = y, 0, 2 * power
            y = (y * y + c) % n
            steps += 1
            g = gcd(x - y, n)
        if g != n:
            return g


def _certified(m: int) -> bool:
    """Whether a Lehmer certificate proves m prime: for every prime q of
    m - 1, some a in 2..63 has a^(m-1) = 1 and a^((m-1)/q) != 1 (mod m)
    (Brillhart, Lehmer and Selfridge, Math. Comp. 1975, Theorem 1)."""
    return all(any(pow(a, m - 1, m) == 1 and pow(a, (m - 1) // q, m) != 1
                   for a in range(2, 64)) for q in _prime_factors(m - 1))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending.

    Trial division takes the primes below 64, and rho splits the rest
    until every piece is proven prime: by _is_prime below _MR_LIMIT, and
    at or above it, for a piece that passes every witness (2^127 - 1 is
    one), by _certified, which factors the piece less one in turn; so
    the time grows as n^(1/4), not sqrt(n).  A piece no certificate
    proves prime raises SearchLimit.
    """
    found, rest, f = set(), n, 2
    while f < 64 and f * f <= rest:  # past sqrt, rest is 1 or a prime
        if rest % f == 0:
            found.add(f)
            while rest % f == 0:
                rest //= f
        f += 1
    pieces = [rest] if rest > 1 else []
    while pieces:
        m = pieces.pop()
        if m < 64 * 64:  # free of primes below 64
            found.add(m)
        elif not _is_prime(m):
            f = _rho(m)
            pieces += [f, m // f]
        elif m < _MR_LIMIT or _certified(m):
            found.add(m)
        else:
            raise SearchLimit(f"cannot factor {n}: {m} passes every "
                              f"primality witness, but no certificate "
                              f"proves it prime")
    return sorted(found)


# -- byte tables over GF(2^w) for w in {1, 2, 4, 8}


def _byte_map(w: int, image) -> list[int]:
    """The 256 values of the GF(2)-linear map on bytes of w-bit digits
    that sends digit value d at bit shift s to image(s, d): bit i of a
    byte is digit i // w with value 2^(i % w), so eight images fill it."""
    out = [0]
    for i in range(8):
        x = image(i // w * w, 1 << i % w)
        out += [y ^ x for y in out]
    return out


class _Packed:
    """Scaling over K = GF(2^w), w dividing 8, on bytes of whole digits.

    Coefficient i of a packed integer sits in bits [i*w, (i+1)*w): the
    base-q digits that extension elements already use.  Scaling by a
    constant c is one bytes.translate through tables[c], and addition is
    XOR (Plank, Greenan and Miller, "Screaming Fast Galois Field
    Arithmetic", FAST 2013).  rsl.extension adds the polynomial
    operations on top.
    """

    __slots__ = ("w", "tables", "inv")

    def __init__(self, K):
        w = self.w = K.w
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
            self.tables = [bytes(_byte_map(w, lambda s, d: K.mul(c, d) << s))
                           for c in range(K.order)]
        self.inv = [0] + [K.inv(c) for c in range(1, K.order)]


# -- canonical moduli


def _monic(q: int, degree: int, v: int) -> tuple[int, ...]:
    """x^degree plus the polynomial whose base-q digits v holds."""
    return tuple(v // q**i % q for i in range(degree)) + (1,)


# Canonical moduli frozen in the manner of Conway-polynomial tables, for
# the fields that have named traffic: GF(16) and GF(256) over GF(2), the
# base fields of every README and benchmark cluster; GF(16)^6, the
# README's n=5 k=3 example; GF(16)^20, the benchmark's n=9 k=5 cluster;
# and GF(256)^6, the README example over the default field, which alone
# takes seconds to search.  Keyed like the cache, by (q, base modulus, t),
# so only the canonical base hits; each value is the packed v of _monic,
# and the tests check every entry against _find_modulus.
_GF2, _GF16, _GF256 = (0, 1), (1, 1, 0, 0, 1), (1, 1, 0, 1, 1, 0, 0, 0, 1)
_FROZEN = {(2, _GF2, 4): 0x3, (2, _GF2, 8): 0x1b,
           (16, _GF16, 6): 0x12d, (16, _GF16, 20): 0x1089,
           (256, _GF256, 6): 0x10131}
# the moduli this process knows irreducible, read and written only by
# _checked_modulus: per (q, base modulus, t) the canonical one, the frozen
# table's and then each _find_modulus finds; and per (q, base modulus,
# modulus) each given one the sieve passed, so a cluster's stored modulus
# is sieved once, when load() checks it, and not again when L is built
_MODULUS_CACHE: dict = {key: _monic(key[0], key[2], v)
                        for key, v in _FROZEN.items()}


def _checked_modulus(K, t: int, modulus) -> tuple[int, ...]:
    """The modulus of K[x]/(f) at degree t: the canonical one when none is
    given, else the given one, checked to hold t + 1 elements of K, to be
    monic and, for t >= 2, irreducible over K: a modulus _MODULUS_CACHE
    knows is, and any other goes through rsl.extension's sieve.  It owns
    _MODULUS_CACHE, recording each canonical modulus _find_modulus finds
    and each modulus the sieve passes."""
    if t < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        if t == 1:
            return (0, 1)
        key = (K.order, K.modulus, t)
        if key not in _MODULUS_CACHE:
            from .extension import _find_modulus
            _MODULUS_CACHE[key] = _find_modulus(K, t)
        return _MODULUS_CACHE[key]
    modulus = tuple(K.element(int(c)) for c in modulus)
    if len(modulus) != t + 1:
        raise LengthMismatch(
            f"modulus needs {t + 1} coefficients, got {len(modulus)}")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    if t >= 2 and modulus != _MODULUS_CACHE.get((K.order, K.modulus, t)):
        key = (K.order, K.modulus, modulus)
        if key not in _MODULUS_CACHE:
            from .extension import _sieve_irreducible
            if not _sieve_irreducible(K, list(modulus)):
                raise Reducible(f"modulus {list(modulus)} factors over {K!r}")
            _MODULUS_CACHE[key] = modulus
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

    def _operands(self, *xs):
        """Raise element()'s error for the first non-element of xs."""
        for x in xs:
            self.element(x)

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
        """a*b on digit lists: the product over K reduced by the modulus.
        Only fields whose modulus rsl.extension sieved or searched for, or
        extensions, get here, so the import finds it loaded."""
        from .extension import _pmod, _pmul
        K = self._digit_field
        return self._pack(_pmod(K, _pmul(K, self.coeffs(a), self.coeffs(b)),
                                self.modulus))

    def pow(self, a: int, e: int) -> int:
        if not 0 <= a < self.order:
            self._operands(a)
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
        if p >= _MR_LIMIT:
            raise NotPrime(f"characteristic {p} is too large: primality is "
                           f"decided only below {_MR_LIMIT}")
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
        fit in a byte: p = 2 and w in {1, 2, 4, 8}.  It serves the rows
        matrix.py eliminates, the codec's region products and, through
        rsl.extension, polynomials over this field."""
        if self._packed is None and self.p == 2 and 8 % self.w == 0:
            self._packed = _Packed(self)
        return self._packed

    # -- arithmetic

    def mul(self, a: int, b: int) -> int:
        if not 0 <= a < self.order > b >= 0:
            self._operands(a, b)
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if not 0 < a < self.order:
            if a == 0:
                raise DivideByZero("inverse of zero")
            self._operands(a)
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        if self.w == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.order - 2)

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


def __getattr__(name):
    # ExtensionSpec is defined in rsl.extension and loads on first use;
    # it still resolves as an attribute of this module
    if name != "ExtensionSpec":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .extension import ExtensionSpec
    globals()[name] = ExtensionSpec
    return ExtensionSpec
