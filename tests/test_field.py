"""Field construction and arithmetic against naive polynomial oracles."""

import itertools
import math
import random
import re
import time

import pytest

from rsl import extension, field
from rsl.errors import (DivideByZero, LengthMismatch, NotPrime, Reducible,
                        SearchLimit)
from rsl.extension import ExtensionSpec, _sieve_irreducible, _sieve_lists
from rsl.field import FieldSpec
from rsl.product_matrix import CodeParams, ProductMatrixCode
from rsl.secrecy import scheme_make

from oracles import (NaiveExtension, NaiveField, extension_inverse,
                     irreducible_over_prime, prime_factors,
                     smallest_irreducible)

GF16 = FieldSpec(2, 4)


def test_gf16_frozen_values():
    assert GF16.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert GF16.order == 16
    assert GF16.mul(0x2, 0x2) == 0x4
    assert GF16.mul(0x3, 0x3) == 0x5
    assert GF16.mul(0x8, 0x2) == 0x3  # x^4 = x + 1
    assert GF16.inv(0x2) == 0x9
    assert GF16.pow(0x2, 15) == 1
    assert GF16.generator() == 2


@pytest.mark.parametrize("p,w", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (2, 8), (3, 1), (3, 2), (3, 3), (5, 2),
                                 (7, 2), (13, 2)])
def test_modulus_is_smallest_irreducible(p, w):
    assert FieldSpec(p, w).modulus == smallest_irreducible(p, w)


def test_known_moduli():
    assert FieldSpec(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert FieldSpec(2, 3).modulus == (1, 1, 0, 1)
    assert FieldSpec(3, 2).modulus == (1, 0, 1)
    assert FieldSpec(7, 1).modulus == (0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(Reducible):
        FieldSpec(2, 4, modulus=(1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4
    with pytest.raises(Reducible):
        FieldSpec(5, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+2)(x+3) mod 5
    # (x+1)(x+2) over GF(16); both classes name the modulus they refuse
    with pytest.raises(Reducible, match=r"modulus \[2, 3, 1\] factors over "
                                        r"GF\(2\^4\)"):
        ExtensionSpec(GF16, 2, modulus=(2, 3, 1))
    # the square of an irreducible quadratic has no root in GF(16)
    quad = ExtensionSpec(GF16, 2).modulus
    square = [0] * 5
    for i, a in enumerate(quad):
        for j, b in enumerate(quad):
            square[i + j] ^= GF16.mul(a, b)
    with pytest.raises(Reducible):
        ExtensionSpec(GF16, 4, modulus=square)


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4), (5, 3)])
def test_sieve_irreducible_matches_trial_division(p, max_degree):
    zp = FieldSpec(p, 1)
    for degree in range(max_degree + 1):
        for tail in itertools.product(range(p), repeat=degree):
            f = list(tail) + [1]
            assert _sieve_irreducible(zp, f) == irreducible_over_prime(f, p), f


# -- the packed sieve and search over GF(2^w), w in {1, 2, 4, 8}, against
# the list path


def _digits(v, q, n):
    return [v // q**i % q for i in range(n)]


@pytest.mark.parametrize("w,max_degree", [(1, 8), (2, 4), (4, 3)])
def test_packed_sieve_matches_lists_exhaustive(w, max_degree):
    K = FieldSpec(2, w)
    assert K.packed() is not None
    for degree in range(1, max_degree + 1):
        for v in range(K.order**degree):
            f = _digits(v, K.order, degree) + [1]
            if f[0]:  # f(0) = 0 is decided before either path runs
                assert _sieve_irreducible(K, f) == _sieve_lists(K, f), f


def test_packed_sieve_matches_lists_gf256_sampled():
    K = FieldSpec(2, 8)
    rng = random.Random("gf256-sieve")
    verdicts = set()
    for _ in range(300):
        degree = rng.randrange(1, 7)
        f = [rng.randrange(1, 256)] + [rng.randrange(256)
                                       for _ in range(degree - 1)] + [1]
        verdict = _sieve_irreducible(K, f)
        assert verdict == _sieve_lists(K, f), f
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("w,max_degree", [(1, 8), (2, 4), (4, 3)])
def test_rootless_yields_exactly_the_candidates_without_a_root(w, max_degree):
    K = FieldSpec(2, w)
    q = K.order

    def has_root(f):
        for r in range(q):
            acc = 0
            for c in reversed(f):
                acc = K.add(K.mul(acc, r), c)
            if acc == 0:
                return True
        return False

    kernel = extension._kernel(K)
    assert list(kernel.rootless(K, 1)) == list(range(q))
    for degree in range(2, max_degree + 1):
        expected = [v for v in range(q**degree)
                    if not has_root(_digits(v, q, degree) + [1])]
        assert list(kernel.rootless(K, degree)) == expected, degree


def _list_search(K, degree):
    # the first candidate in _find_modulus order the list path accepts
    for v in range(K.order**degree):
        f = _digits(v, K.order, degree) + [1]
        if f[0] and _sieve_lists(K, f):
            return tuple(f)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_packed_search_matches_lists(w, monkeypatch):
    monkeypatch.setattr(field, "_MODULUS_CACHE", {})
    K = FieldSpec(2, w)
    degree = 2
    while K.order**degree <= 1 << 24:
        assert (field._checked_modulus(K, degree, None)
                == _list_search(K, degree)), degree
        degree += 1


def test_packed_search_gf16_20_is_frozen(monkeypatch):
    monkeypatch.setattr(field, "_MODULUS_CACHE", {})
    (p, w), t, modulus = EXTENSIONS["GF(16)^20"]
    assert field._checked_modulus(FieldSpec(p, w), t, None) == modulus


@pytest.mark.parametrize("key", sorted(field._FROZEN),
                         ids=lambda key: f"GF({key[0]})^{key[2]}")
def test_frozen_modulus_is_the_search(key):
    # every table entry is what the uncached search finds over the
    # canonical base; GF(256)^6 takes seconds
    q, base_modulus, t = key
    K = FieldSpec(2, q.bit_length() - 1)
    assert K.modulus == base_modulus
    searched = extension._find_modulus(K, t)
    assert field._monic(q, t, field._FROZEN[key]) == searched
    assert field._checked_modulus(K, t, None) == searched


def test_search_outside_the_table(monkeypatch, search_calls):
    # GF(16)^4, the k = 2, m = 2 message length, is not frozen: it is
    # searched once, then served from the cache
    monkeypatch.setattr(field, "_MODULUS_CACHE", dict(field._MODULUS_CACHE))
    field._MODULUS_CACHE.pop((16, GF16.modulus, 4), None)
    assert ExtensionSpec(GF16, 4).modulus == (4, 2, 1, 0, 1)
    assert ExtensionSpec(GF16, 4).modulus == (4, 2, 1, 0, 1)
    assert search_calls == [(GF16, 4)]


@pytest.mark.parametrize("key", sorted(field._FROZEN),
                         ids=lambda key: f"GF({key[0]})^{key[2]}")
def test_frozen_modulus_is_certified_without_the_sieve(key, monkeypatch):
    # a given modulus equal to a table entry is the search's verdict
    # already: the base fields of every cluster and the extensions of the
    # table shapes load without sieving their stored moduli
    def no_sieve(*args):
        raise AssertionError("the sieve ran on a frozen modulus")
    monkeypatch.setattr(extension, "_sieve_irreducible", no_sieve)
    q, base_modulus, t = key
    K = FieldSpec(2, q.bit_length() - 1)
    modulus = field._monic(q, t, field._FROZEN[key])
    assert field._checked_modulus(K, t, list(modulus)) == modulus
    if q == 2:
        stored = {"p": 2, "w": t, "modulus": list(modulus)}
        assert FieldSpec.from_json(stored).modulus == modulus
    else:
        assert ExtensionSpec(K, t, modulus).modulus == modulus


def test_other_moduli_go_through_the_sieve(sieve_calls):
    calls = sieve_calls
    # x^8 + x^4 + x^3 + x^2 + 1, irreducible but not GF(256)'s canonical
    other = (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert FieldSpec(2, 8, other).modulus == other
    assert calls == [(FieldSpec(2, 1), other)]
    # the irreducible right after GF(16)^6's canonical (13, 2, 1, 0, 0, 0, 1)
    calls.clear()
    other = (14, 2, 1, 0, 0, 0, 1)
    assert ExtensionSpec(GF16, 6, other).modulus == other
    assert calls == [(GF16, other)]
    # reducible moduli are still refused, in the same words
    for build, text in (
            (lambda: FieldSpec(2, 8, (1,) + (0,) * 7 + (1,)),
             "modulus [1, 0, 0, 0, 0, 0, 0, 0, 1] factors over GF(2)"),
            (lambda: ExtensionSpec(GF16, 6, (1, 0, 0, 0, 0, 0, 1)),
             "modulus [1, 0, 0, 0, 0, 0, 1] factors over GF(2^4)")):
        with pytest.raises(Reducible, match=re.escape(text)):
            build()


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_packed_tables_are_the_gf2_linear_build(w):
    # bit i of a byte is digit i // w with value 2^(i % w), so table c is
    # the XOR span of c times those eight digits; GF(256) builds its tables
    # from the log/exp tables instead, and must give the same bytes
    K = FieldSpec(2, w)
    bits = [(i // w * w, 1 << i % w) for i in range(8)]

    def linear(c):
        out = [0]
        for s, d in bits:
            out += [x ^ K.mul(c, d) << s for x in out]
        return bytes(out)

    assert K.packed().tables == [linear(c) for c in range(K.order)]


@pytest.mark.parametrize("w", range(2, 17))
def test_binary_log_tables_step_by_bytes(w, monkeypatch):
    # the tables one product per entry builds, g^i = g * g^(i-1); over
    # GF(2^w) a rebuild multiplies only to find the images of w bits
    f = FieldSpec(2, w)
    g, n = f.generator(), f.order - 1
    exp = [1] * n
    for i in range(1, n):
        exp[i] = field.Field.mul(f, g, exp[i - 1])
    log = [0] * f.order
    for i, e in enumerate(exp):
        log[e] = i
    assert (f._exp, f._log) == (exp, log)
    calls = []
    mul = field.Field.mul
    monkeypatch.setattr(field.Field, "mul",
                        lambda *args: calls.append(args) or mul(*args))
    f._build_tables()
    assert (f._exp, f._log) == (exp, log)
    assert len(calls) <= w


def test_packed_kernel_only_where_coefficients_fit_a_byte():
    for p, w in [(2, 1), (2, 2), (2, 4), (2, 8)]:
        assert FieldSpec(p, w).packed() is not None
    for p, w in [(2, 3), (2, 12), (5, 2), (11, 1)]:
        assert FieldSpec(p, w).packed() is None


def test_alternative_modulus_accepted():
    f = FieldSpec(2, 4, modulus=(1, 1, 0, 0, 1))
    assert f == GF16
    g = FieldSpec(2, 4, modulus=(1, 0, 0, 1, 1))  # x^4 + x^3 + 1
    assert g != GF16
    assert g.mul(0x8, 0x2) == 0x9  # x^4 = x^3 + 1 under this modulus


def test_bad_characteristic():
    with pytest.raises(NotPrime):
        FieldSpec(4, 1)
    with pytest.raises(NotPrime):
        FieldSpec(6, 2)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


# psi_12 and psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 2017): the least strong pseudoprimes to every
# prime up to 37, and up to 41
PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def test_characteristic_primality():
    for p in (41, 65537, 2**31 - 1, 2**61 - 1):
        assert FieldSpec(p, 1).order == p
    # a Carmichael number, then the least strong pseudoprimes to the
    # primes up to 2, 7 and 31, and psi_12
    for n in (561, 2047, 3215031751, 3825123056546413051, PSI12):
        with pytest.raises(NotPrime, match=f"characteristic {n} is not prime"):
            FieldSpec(n, 1)
    # no fixed-base test is proven from psi_13 on, prime or not
    for n in (PSI13, 2**89 - 1):
        with pytest.raises(NotPrime, match=f"decided only below {PSI13}"):
            FieldSpec(n, 1)


def test_bad_modulus_shape():
    with pytest.raises(LengthMismatch):
        FieldSpec(2, 4, modulus=(1, 1, 1))
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 1, 2))  # 2 is no element of GF(2)
    # coefficients are elements of GF(p), not integers to reduce mod p:
    # (4, 0, 1) would reduce to the irreducible x^2 + 1
    with pytest.raises(ValueError, match="4 out of range for GF\\(3\\)"):
        FieldSpec(3, 2, modulus=(4, 0, 1))


@pytest.mark.parametrize("p,w", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1)])
def test_mul_table_matches_naive(p, w):
    f = FieldSpec(p, w)
    nf = NaiveField(p, w, f.modulus)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == nf.mul(a, b)


@pytest.mark.parametrize("p,w", [(2, 1), (2, 4), (3, 2)])
def test_add_matches_naive(p, w):
    f = FieldSpec(p, w)
    nf = NaiveField(p, w, f.modulus)
    for a in range(f.order):
        for b in range(f.order):
            assert f.add(a, b) == nf.add(a, b)
            assert f.sub(f.add(a, b), b) == a
    for a in range(f.order):
        assert f.add(a, f.sub(0, a)) == 0


def test_field_axioms_gf16():
    f = GF16
    xs = range(16)
    for a in xs:
        for b in xs:
            assert f.mul(a, b) == f.mul(b, a)
            for c in xs:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert (f.mul(a, f.add(b, c))
                        == f.add(f.mul(a, b), f.mul(a, c)))


@pytest.mark.parametrize("p,w", [(2, 4), (3, 2), (2, 8), (13, 2)])
def test_inverses_exhaustive(p, w):
    f = FieldSpec(p, w)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(DivideByZero):
        f.inv(0)


def test_pow_matches_repeated_mul():
    f = FieldSpec(3, 2)
    for a in range(f.order):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
    with pytest.raises(ValueError):
        f.pow(2, -1)


def test_generator_has_full_order():
    for p, w in [(2, 4), (2, 8), (3, 2), (7, 1)]:
        f = FieldSpec(p, w)
        g = f.generator()
        seen = set()
        x = 1
        for _ in range(f.order - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert len(seen) == f.order - 1
        assert x == 1


# safe primes p = 2q + 1 near 10^15 and 10^24: factoring p - 1 by trial
# division runs to sqrt(q)
SAFE_PRIMES = (1000000000005719, 1000000000000000000004903)


def test_prime_factors_match_trial_division(monkeypatch):
    # every n below 10^4, and every n below 10^5 free of the primes below
    # 64: the pieces rho and _is_prime see, which trial division leaves of
    # any other n below 10^5
    below_64 = math.prod(p for p in range(2, 64) if prime_factors(p) == [p])
    for n in range(1, 10**5):
        if n < 10**4 or math.gcd(n, below_64) == 1:
            assert field._prime_factors(n) == prime_factors(n), n
    # semiprimes and prime powers past trial division's reach; m31*m61 and
    # m31^2*m61 lie above psi_13, where a witness proves them composite
    m31, m61 = 2**31 - 1, 2**61 - 1
    for primes in ([998244353, 1000000007], [4294967291, 4294967291],
                   [m61], [m31, m61], [m31, m31, m61],
                   [2, (SAFE_PRIMES[0] - 1) // 2],
                   [2, (SAFE_PRIMES[1] - 1) // 2]):
        assert all(map(field._is_prime, primes))
        n = math.prod(primes)
        assert field._prime_factors(n) == sorted(set(primes))
    # a piece at or above _MR_LIMIT that passes every witness counts
    # only once a Lehmer certificate proves it prime: under a lying test,
    # what is left of n past the primes below 64 is a prime below 64^2 =
    # _MR_LIMIT, or 1 (answered right), or a prime whose certificate
    # holds (answered right), or it raises
    def free(m):
        for p in range(2, 64):
            while m % p == 0:
                m //= p
        return m

    def proven(m):
        # the lie passes rest = free(m - 1) whole, so its certificate is
        # needed too
        rest = free(m - 1)
        return prime_factors(m) == [m] and (rest < 64 * 64 or proven(rest))

    monkeypatch.setattr(field, "_MR_LIMIT", 64 * 64)
    monkeypatch.setattr(field, "_is_prime", lambda n: True)
    outcomes = set()
    for n in range(1, 2 * 10**4):
        rest = free(n)
        if rest < 64 * 64 or proven(rest):
            assert field._prime_factors(n) == prime_factors(n), n
            outcomes.add("proven" if rest >= 64 * 64 else "small")
        elif prime_factors(rest) != [rest]:
            with pytest.raises(SearchLimit, match=f"cannot factor {n}: "
                               f"{rest} passes every primality witness, "
                               "but no certificate proves it prime"):
                field._prime_factors(n)
            outcomes.add("composite")
        else:  # a composite piece of rest - 1 fails its own certificate
            with pytest.raises(SearchLimit):
                field._prime_factors(n)
            outcomes.add("unproven")
    assert outcomes == {"small", "proven", "composite", "unproven"}


@pytest.mark.parametrize("w", [89, 107, 127])
def test_mersenne_group_orders_are_certified(w):
    # 2^w - 1, GF(2^w)'s group order, is a Mersenne prime above psi_13:
    # a certificate proves it prime, so every element but 0 and 1
    # generates, and trial division never runs
    f = FieldSpec(2, w)
    start = time.perf_counter()
    assert f.generator() == 2
    assert time.perf_counter() - start < 1
    assert FieldSpec(2, 61).generator() == 2  # 2^61 - 1 lies below psi_13


def test_generator_of_a_safe_prime_field():
    p = SAFE_PRIMES[0]
    radicals = (2, (p - 1) // 2)
    g = FieldSpec(p, 1).generator()
    # the least c whose (p-1)/r-th power is not 1 for any prime r | p - 1
    assert all(pow(g, (p - 1) // r, p) != 1 for r in radicals)
    assert all(any(pow(c, (p - 1) // r, p) == 1 for r in radicals)
               for c in range(1, g))


def test_untabled_field_consistent_with_naive():
    # orders 2^17 and up are past the table threshold, so mul runs the
    # residue ring's product over GF(2)
    for w in (17, 22, 127):
        f = FieldSpec(2, w)
        nf = NaiveField(2, w, f.modulus)
        if w < 64:  # trial division to degree w/2
            assert irreducible_over_prime(list(f.modulus), 2)
        rng = random.Random(f"GF(2^{w})")
        pairs = [(3, 5), (70000, 12345), (131071, 131071), (1, 99999),
                 (f.order - 1, f.order - 1)]
        pairs += [(rng.randrange(f.order), rng.randrange(f.order))
                  for _ in range(8)]
        for a, b in pairs:
            assert f.mul(a, b) == nf.mul(a, b), (w, a, b)
            if a:
                assert nf.mul(a, f.inv(a)) == 1, (w, a)


def test_untabled_odd_field_consistent_with_naive():
    # order 3^11 = 177,147 is past the table threshold, so add and sub
    # run digit by digit and mul on digit lists
    f = FieldSpec(3, 11)
    nf = NaiveField(3, 11, f.modulus)
    assert irreducible_over_prime(list(f.modulus), 3)
    rng = random.Random("GF(3^11)")
    edges = [0, 1, 2, 3, f.order - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(f.order), rng.randrange(f.order))
              for _ in range(25)]
    for a, b in pairs:
        assert f.mul(a, b) == nf.mul(a, b), (a, b)
        assert f.add(a, b) == nf.add(a, b), (a, b)
        assert f.sub(a, b) == nf.add(a, nf.neg(b)), (a, b)
        assert f.sub(0, a) == nf.neg(a), a
        if a:
            assert nf.mul(a, f.inv(a)) == 1, a


# K[x]/(f) for monic f, irreducible or not: x^4 + 1 = (x + 1)^4 in
# characteristic 2 and (x + 1)^4 over GF(3) and GF(5) written out, x^4,
# and a tail of degree t - 1, whose fold takes several rounds
RINGS = {
    "GF(2)": ((2, 1), [(1, 1, 0, 0, 1), (1, 0, 0, 0, 1), (0, 0, 0, 0, 1),
                       (1, 1, 1, 1, 1, 1, 1, 1, 1)]),
    "GF(3)": ((3, 1), [(1, 0, 1), (1, 1, 0, 1, 1), (0, 0, 0, 0, 1),
                       (1, 2, 0, 2, 2, 1)]),
    "GF(16)": ((2, 4), [(13, 2, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1),
                        (0, 0, 0, 0, 1), (7, 0, 3, 15, 12, 1)]),
    "GF(25)": ((5, 2), [(5, 0, 1), (1, 4, 1, 4, 1), (0, 0, 0, 0, 1),
                        (3, 0, 7, 24, 1)]),
    "GF(256)": ((2, 8), [(49, 1, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1),
                         (0, 0, 0, 0, 1), (0x53, 0, 0xca, 0xff, 1)]),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_residue_ring_product_matches_oracle(name):
    (p, w), moduli = RINGS[name]
    K = FieldSpec(p, w)
    for f in moduli:
        ring, t = field.Field(K, f), len(f) - 1
        naive = (NaiveField(p, t, f) if w == 1 else
                 NaiveExtension(NaiveField(p, w, K.modulus), f))
        assert ring.order == naive.order == K.order**t
        rng = random.Random(f"{name} {f}")
        edges = [0, 1, K.order - 1, K.order, ring.order - 1]
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rng.randrange(ring.order), rng.randrange(ring.order))
                  for _ in range(20)]
        for a, b in pairs:
            assert ring.mul(a, b) == naive.mul(a, b), (f, a, b)
        for a in edges + [b for _, b in pairs[-4:]]:
            power = 1
            for e in range(9):
                assert ring.pow(a, e) == power, (f, a, e)
                power = naive.mul(power, a)


def test_coeffs_roundtrip():
    f = FieldSpec(3, 3)
    for a in range(f.order):
        assert f.from_coeffs(f.coeffs(a)) == a
    assert f.coeffs(5) == (2, 1, 0)
    with pytest.raises(LengthMismatch):
        f.from_coeffs((1, 2))
    # digits are checked against GF(3), as an extension checks its base's
    for bad in ((3, 0, 0), (0, -1, 0)):
        with pytest.raises(ValueError):
            f.from_coeffs(bad)


def test_json_roundtrip():
    for f in (GF16, FieldSpec(3, 2), FieldSpec(2, 8)):
        data = f.to_json()
        assert data["p"] == f.p and data["w"] == f.w
        assert FieldSpec.from_json(data) == f
    assert GF16.to_json()["modulus"] == [1, 1, 0, 0, 1]


def test_element_validation():
    with pytest.raises(ValueError):
        GF16.element(16)
    with pytest.raises(ValueError):
        GF16.element(-1)
    with pytest.raises(TypeError):
        GF16.element(1.0)
    assert list(GF16.elements()) == list(range(16))


@pytest.mark.parametrize("name", ["GF(16)", "GF(256)", "GF(11)", "GF(25)",
                                  "GF(16)^6"])
def test_operands_out_of_range_raise_the_element_error(name):
    # a log-table index, a bare residue or the zero shortcut must not
    # answer for an operand outside the field, a zero partner included
    F = {"GF(16)": GF16, "GF(256)": FieldSpec(2, 8),
         "GF(11)": FieldSpec(11, 1), "GF(25)": FieldSpec(5, 2),
         "GF(16)^6": ExtensionSpec(GF16, 6)}[name]
    q = F.order
    for bad in (q, q + 1, 99 * q, -1):
        text = re.escape(f"{bad} out of range for {F!r}")
        for call in (lambda: F.mul(bad, 3), lambda: F.mul(3, bad),
                     lambda: F.mul(bad, 0), lambda: F.mul(0, bad),
                     lambda: F.inv(bad), lambda: F.pow(bad, 2),
                     lambda: F.pow(bad, 0)):
            with pytest.raises(ValueError, match=text):
                call()
    assert F.mul(q - 1, 0) == F.mul(0, q - 1) == 0
    assert F.mul(q - 1, 1) == q - 1 and F.pow(q - 1, 0) == 1
    with pytest.raises(DivideByZero):
        F.inv(0)


# -- extension towers


def test_extension_basic():
    L = ExtensionSpec(GF16, 3)
    assert L.order == 16 ** 3
    assert L.char == 2
    # base elements, the integers below 16, are fixed by frobenius
    for a in range(16):
        assert L.frobenius(a) == a
    # frobenius is the q-power map
    for v in (17, 4095, 2**12 - 3):
        assert L.frobenius(v) == L.pow(v, 16)
        assert L.frobenius(v, 2) == L.pow(L.pow(v, 16), 16)
        assert L.frobenius(v, 3) == v  # full circle at degree 3


def test_extension_modulus_irreducible_by_trial_division():
    L = ExtensionSpec(GF16, 3)
    nf = NaiveField(2, 4, GF16.modulus)
    # divide by every monic linear polynomial over the base field
    for c in range(16):
        # f(x) = x^3 + m2 x^2 + m1 x + m0 evaluated at x = c must be nonzero
        m0, m1, m2 = L.modulus[0], L.modulus[1], L.modulus[2]
        val = nf.add(nf.add(nf.mul(nf.mul(c, c), c),
                            nf.mul(m2, nf.mul(c, c))),
                     nf.add(nf.mul(m1, c), m0))
        assert val != 0


def test_extension_arithmetic():
    L = ExtensionSpec(GF16, 2)
    # exhaustive inverse check over all 256 elements
    for a in range(1, L.order):
        assert L.mul(a, L.inv(a)) == 1
    # frobenius is additive and multiplicative
    vals = [3, 17, 255, 100, 42]
    for a in vals:
        for b in vals:
            assert (L.frobenius(L.add(a, b))
                    == L.add(L.frobenius(a), L.frobenius(b)))
            assert (L.frobenius(L.mul(a, b))
                    == L.mul(L.frobenius(a), L.frobenius(b)))


# stored moduli, as meta.json carries them (the first two are the
# canonical ones, whose search takes seconds)
EXTENSIONS = {
    "GF(16)^20": ((2, 4), 20, (9, 8, 0, 1) + (0,) * 16 + (1,)),
    "GF(256)^6": ((2, 8), 6, (49, 1, 1, 0, 0, 0, 1)),
    "GF(5)^3": ((5, 1), 3, (1, 1, 0, 1)),
    "GF(25)^2": ((5, 2), 2, (5, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extension_inverse_matches_pow(name):
    (p, w), t, modulus = EXTENSIONS[name]
    L = ExtensionSpec(FieldSpec(p, w), t, modulus)
    rng = random.Random(name)
    samples = [1, L.base.order - 1, L.base.order, L.order - 1]
    samples += [rng.randrange(1, L.order) for _ in range(12)]
    for a in samples:
        assert L.inv(a) == L.pow(a, L.order - 2), (name, a)


# the benchmark's and the README's secure shapes, and two list bases
INVERSE_TOWERS = {"GF(16)^20": ((2, 4), 20), "GF(256)^6": ((2, 8), 6),
                  "GF(25)^3": ((5, 2), 3), "GF(8)^4": ((2, 3), 4)}


@pytest.mark.parametrize("name", sorted(INVERSE_TOWERS))
def test_extension_inverse_matches_euclid(name):
    (p, w), t = INVERSE_TOWERS[name]
    base = FieldSpec(p, w)
    L = ExtensionSpec(base, t)
    naive = NaiveExtension(NaiveField(p, w, base.modulus), L.modulus)
    rng = random.Random(name)
    samples = [1, base.order - 1, base.order, L.order - 1]
    samples += [rng.randrange(1, L.order) for _ in range(12)]
    for a in samples:
        assert L.inv(a) == extension_inverse(naive, a), (name, a)


@pytest.mark.parametrize("name", ["GF(16)^20", "GF(256)^6"])
def test_packed_inverse_runs_no_list_polynomials(name, monkeypatch):
    (p, w), t = INVERSE_TOWERS[name]
    L = ExtensionSpec(FieldSpec(p, w), t)

    def refuse(*args):
        raise AssertionError("a list polynomial helper ran")
    for helper in ("_pmod", "_pgcd", "_ptrim"):
        monkeypatch.setattr(extension, helper, refuse)
    rng = random.Random(name)
    for a in [1, L.order - 1] + [rng.randrange(1, L.order) for _ in range(8)]:
        assert L.mul(a, L.inv(a)) == 1, (name, a)


# the stored moduli, two small packed towers with canonical moduli and
# a characteristic-2 tower on the list path
MUL_TOWERS = {**EXTENSIONS, "GF(2)^8": ((2, 1), 8, None),
              "GF(4)^5": ((2, 2), 5, None), "GF(8)^4": ((2, 3), 4, None)}


@pytest.mark.parametrize("name", sorted(MUL_TOWERS))
def test_extension_mul_matches_naive(name):
    (p, w), t, modulus = MUL_TOWERS[name]
    base = FieldSpec(p, w)
    L = ExtensionSpec(base, t, modulus)
    # GF(8) digits straddle bytes, so its tower takes the list path
    assert (L.base.packed() is not None) == (p == 2 and 8 % w == 0)
    naive = NaiveExtension(NaiveField(p, w, base.modulus), L.modulus)
    q = base.order
    rng = random.Random(name)
    edges = [0, 1, q - 1, q, L.order - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(L.order), rng.randrange(L.order))
              for _ in range(15)]
    for a, b in pairs:
        assert L.mul(a, b) == naive.mul(a, b), (name, a, b)
    # naive, not mul (which is the multiplier), is scale's reference
    xs = edges + [b for _, b in pairs[-3:]]
    for c in range(q):
        assert [L.scale(c, x) for x in xs] == [naive.mul(c, x) for x in xs], c
    for bad in (L.order, -1):
        with pytest.raises(ValueError):
            L.mul(bad, 1)
        with pytest.raises(ValueError):
            L.mul(1, bad)


@pytest.mark.parametrize("name,t,modulus", [
    ("GF(16)^20", 20, None), ("GF(25)^2", 2, (5, 0, 1)), ("GF(11)^1", 1, None),
    ("GF(11)^1", 1, (5, 1)), ("GF(16)^1", 1, (7, 1)),
])
def test_extension_root_is_a_root_of_the_modulus(name, t, modulus):
    base = {"GF(16)": GF16, "GF(25)": FieldSpec(5, 2),
            "GF(11)": FieldSpec(11, 1)}[name.split("^")[0]]
    L = ExtensionSpec(base, t, modulus)
    value = 0
    for coeff in reversed(L.modulus):
        value = L.add(L.mul(value, L.root), coeff)
    assert value == 0
    if t > 1:  # x itself, the digit 1 in place 1
        assert L.coeffs(L.root) == (0, 1) + (0,) * (t - 2)


def test_extension_coeffs_and_json():
    L = ExtensionSpec(GF16, 2)
    for a in (0, 1, 15, 16, 255):
        assert L.from_coeffs(L.coeffs(a)) == a
    assert L.coeffs(0x12) == (2, 1)
    data = L.to_json()
    assert data["t"] == 2
    rebuilt = ExtensionSpec(FieldSpec.from_json(data["base"]), data["t"],
                            data["modulus"])
    assert rebuilt == L


def test_extension_generator_order():
    L = ExtensionSpec(GF16, 2)
    g = L.generator()
    # order divides 255 = 3 * 5 * 17; a generator rejects all proper divisors
    for prime in (3, 5, 17):
        assert L.pow(g, (L.order - 1) // prime) != 1
    assert L.pow(g, L.order - 1) == 1


def test_extension_validation():
    with pytest.raises(TypeError):
        ExtensionSpec("GF16", 2)
    with pytest.raises(ValueError):
        ExtensionSpec(GF16, 0)
    with pytest.raises(Reducible):
        # x^2 + 1 = (x+1)^2 in characteristic 2
        ExtensionSpec(GF16, 2, modulus=(1, 0, 1))


# -- Frobenius and the fixed-z multiplier, maps linear over the base: on
# byte tables over GF(2), GF(4), GF(16) and GF(256), on digit lists over
# GF(8) and GF(25)

KERNEL_EXTENSIONS = pytest.mark.parametrize("p,w,t", [
    (2, 1, 7), (2, 2, 5), (2, 4, 6), (2, 8, 6), (2, 3, 4), (5, 2, 3),
], ids=["GF(2)^7", "GF(4)^5", "GF(16)^6", "GF(256)^6", "GF(8)^4",
        "GF(25)^3"])


def _samples(L, count=12):
    rng = random.Random(repr(L))
    return [0, 1, L.root, L.order - 1] + [rng.randrange(L.order)
                                          for _ in range(count)]


@KERNEL_EXTENSIONS
def test_frobenius_is_the_power(p, w, t):
    L = ExtensionSpec(FieldSpec(p, w), t)
    assert (L.base.packed() is not None) == (p == 2 and 8 % w == 0)
    q = L.base.order
    for a in _samples(L):
        for i in range(t + 1):
            assert L.frobenius(a, i) == L.pow(a, q**i), (a, i)


@pytest.mark.parametrize("p,w,t", [(2, 3, 4), (5, 2, 3), (2, 4, 6), (2, 8, 6)],
                         ids=["GF(8)^4", "GF(25)^3", "GF(16)^6", "GF(256)^6"])
def test_list_frobenius_applies_its_basis_images(p, w, t, monkeypatch):
    # on digit lists and on byte tables alike, y^q is taken by one power
    # and the images (y^q)^s of the basis built from it once; every later
    # step only scales and adds them
    L = ExtensionSpec(FieldSpec(p, w), t)
    q = L.base.order
    want = {(a, i): L.pow(a, q**i) for a in _samples(L) for i in range(t + 1)}
    L.frobenius(1)

    def refuse(*args):
        raise AssertionError("frobenius took a power")
    monkeypatch.setattr(ExtensionSpec, "pow", refuse)
    assert {key: L.frobenius(*key) for key in want} == want


@KERNEL_EXTENSIONS
def test_multiplier_is_mul(p, w, t):
    L = ExtensionSpec(FieldSpec(p, w), t)
    xs = _samples(L)
    for z in _samples(L, count=4):
        times = L.multiplier(z)
        assert [times(x) for x in xs] == [L.mul(x, z) for x in xs], z
        with pytest.raises(ValueError):
            times(L.order)
        with pytest.raises(TypeError):
            times(1.0)
    with pytest.raises(ValueError):
        L.multiplier(-1)


# the benchmark's and the README's secure shapes and two list towers,
# each with the code its wrap needs; t = B = k(k-1)m is never 3, so
# GF(25)^3 runs the arithmetic alone
LINEAR_TOWERS = {"GF(16)^20": ((2, 4), 20, ((9, 5, 8), (1, 1))),
                 "GF(256)^6": ((2, 8), 6, ((5, 3, 4), (0, 1))),
                 "GF(25)^3": ((5, 2), 3, None),
                 "GF(25)^6": ((5, 2), 6, ((5, 3, 4), (0, 1)))}


@pytest.mark.parametrize("name", sorted(LINEAR_TOWERS))
def test_extension_arithmetic_builds_no_polynomial_kernel(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a packed polynomial kernel was built")
    monkeypatch.setattr(extension, "_PackedPoly", refuse)
    (p, w), t, code_shape = LINEAR_TOWERS[name]
    base = FieldSpec(p, w)
    L = ExtensionSpec(base, t)
    naive = NaiveExtension(NaiveField(p, w, base.modulus), L.modulus)
    q = base.order
    xs = _samples(L, count=4)
    for z in xs:
        times = L.multiplier(z)
        assert [times(x) for x in xs] == [naive.mul(x, z) for x in xs], z
        assert [L.mul(x, z) for x in xs] == [naive.mul(x, z) for x in xs], z
        assert L.frobenius(z) == L.pow(z, q), z
        assert L.scale(q - 1, z) == naive.mul(q - 1, z), z
        if z:
            assert naive.mul(z, L.inv(z)) == 1, z
    if code_shape is not None:
        params, (l1, l2) = code_shape
        scheme = scheme_make(ProductMatrixCode(CodeParams(*params), base),
                             l1, l2)
        assert scheme.ext == L
        rng = random.Random(name)
        secret = [rng.randrange(L.order) for _ in range(scheme.secret_size)]
        randomness = [rng.randrange(L.order) for _ in range(scheme.ell)]
        assert scheme.unwrap(scheme.wrap(secret, randomness)) == secret


def test_modulus_search_gives_up_at_its_limit(monkeypatch):
    # GF(16)^4 (packed) and GF(25)^2 (lists) are not in the table; each
    # is found at exactly its candidate count and refused one below it
    for K, t in ((GF16, 4), (FieldSpec(5, 2), 2)):
        modulus = extension._find_modulus(K, t)
        v = sum(c * K.order**i for i, c in enumerate(modulus[:-1]))
        packed = extension._kernel(K)
        needed = (v + 1 if packed is None
                  else list(packed.rootless(K, t)).index(v) + 1)
        monkeypatch.setattr(extension, "_SEARCH_LIMIT", needed)
        assert extension._find_modulus(K, t) == modulus
        monkeypatch.setattr(extension, "_SEARCH_LIMIT", needed - 1)
        with pytest.raises(SearchLimit) as caught:
            extension._find_modulus(K, t)
        text = str(caught.value)
        assert f"(q, t) = ({K.order}, {t})" in text
        assert "rsl.field._FROZEN" in text
