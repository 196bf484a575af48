"""Closed-form secure-capacity values and comparison bounds.

All arithmetic is exact, never floats: a value that is an integer by
construction is an int, any other a fractions.Fraction, imported only
where one is built.
A query fixes the code shape (k, d, n, alpha, beta at the minimum-storage
point alpha = (d-k+1)beta) and the eavesdropper strength (l1 nodes read
at rest, l2 nodes observed through every repair sent to them).

Two regimes.  When l2 < 1 + (d-k+1)/beta, the repair data aimed at the
observed nodes carries exactly pi = l2*beta symbols of fresh entropy
beyond what helps reconstruction, and the secure capacity
(k-l1-l2)(alpha - pi) is exact.  Otherwise only a lower bound on pi is
available:

    pi >= t*beta + beta*(d-k-t+1) * (1 - ((d-k)/(d-k+1))**e)

with t = (d-k+1)/beta when beta divides d-k+1, else
t = floor(1 + (d-k+1)/beta), and e = l2 - t >= 1; the derived capacity
value is then an upper bound.
"""

from __future__ import annotations

from .errors import BadQuery, Record

EXACT = "exact"
UPPER_BOUND = "upper_bound"


class CapacityQuery(Record):
    __slots__ = ("k", "d", "n", "alpha", "beta", "l1", "l2")

    def __init__(self, k: int, d: int, n: int, alpha: int, beta: int,
                 l1: int, l2: int):
        super().__init__(k, d, n, alpha, beta, l1, l2)
        if not all(isinstance(v, int) for v in self._key):
            raise BadQuery("query parameters must be integers")
        if k < 1 or d < k or n < d + 1:
            raise BadQuery(f"need 1 <= k <= d <= n-1, got k={k} d={d} n={n}")
        if beta < 1 or alpha != (d - k + 1) * beta:
            raise BadQuery(
                f"need alpha = (d-k+1)*beta, got alpha={alpha} beta={beta}")
        if l1 < 0 or l2 < 0:
            raise BadQuery("l1 and l2 must be nonnegative")
        if l1 + l2 > k - 1:
            raise BadQuery(f"need l1+l2 <= k-1 = {k - 1}, got {l1 + l2}")

    @classmethod
    def for_code(cls, params, l1: int, l2: int) -> "CapacityQuery":
        return cls(params.k, params.d, params.n, params.alpha, params.beta,
                   l1, l2)


class CapacityValue(Record):
    """value is an int in category 1 and a Fraction in category 2; kind is
    EXACT or UPPER_BOUND; t and e are set in category 2 only."""

    __slots__ = ("value", "kind", "category", "t", "e")

    def __init__(self, value: int | Fraction, kind: str, category: int,
                 t: int | None = None, e: int | None = None):
        super().__init__(value, kind, category, t, e)


def pi_of(k: int, d: int, beta: int, l2: int) -> CapacityValue:
    """Entropy of the repair data beyond the reconstruction view.

    Exact in category 1; in category 2 the value is a lower bound on pi,
    equivalently an upper-bound ingredient for the capacity, hence kind
    UPPER_BOUND.  Takes the four shape numbers directly: pi is defined
    for any l2 >= 0, including values too large for a well-formed query.
    """
    dk1 = d - k + 1
    if beta * (l2 - 1) < dk1:
        return CapacityValue(l2 * beta, EXACT, 1)
    from fractions import Fraction  # category 2 alone needs division
    if dk1 % beta == 0:
        t = dk1 // beta
    else:
        t = dk1 // beta + 1
    e = l2 - t
    shrink = Fraction(d - k, dk1)
    value = t * beta + beta * (d - k - t + 1) * (1 - shrink**e)
    return CapacityValue(value, UPPER_BOUND, 2, t=t, e=e)


def pi(query: CapacityQuery) -> CapacityValue:
    return pi_of(query.k, query.d, query.beta, query.l2)


def secrecy_capacity(query: CapacityQuery) -> CapacityValue:
    """(k - l1 - l2) * (alpha - pi); exact iff the query is category 1."""
    term = pi(query)
    value = (query.k - query.l1 - query.l2) * (query.alpha - term.value)
    return CapacityValue(value, term.kind, term.category, term.t, term.e)


def cutset_bound(query: CapacityQuery) -> int:
    """Secure cut-set bound: sum of min(alpha, (d-i+1)beta) over i > l1+l2."""
    return sum(min(query.alpha, (query.d - i + 1) * query.beta)
               for i in range(query.l1 + query.l2 + 1, query.k + 1))


def bounds_table(
        query: CapacityQuery) -> list[tuple[str, int | Fraction | None]]:
    """Named comparison values for one query, in fixed column order.

    None marks a bound that does not apply to the query's shape (and an
    empty CSV cell).
    """
    from fractions import Fraction  # tandon, rawat at l2 = 2, goparaju
    k, d, n = query.k, query.d, query.n
    alpha, beta = query.alpha, query.beta
    l1, l2 = query.l1, query.l2
    survivors = k - l1 - l2

    pawar = survivors * alpha
    tandon = None
    if n == d + 1 and l1 == 0 and 1 <= l2 < k:
        tandon = (k - l2) * (1 - Fraction(1, d)) * alpha
    shah = survivors * (alpha - l2 * beta)
    rawat = None
    if l2 == 1:
        rawat = survivors * (alpha - beta)
    elif l2 == 2:
        theta = 2 * beta - Fraction(beta, d + 1 - k)
        rawat = survivors * (alpha - theta)
    goparaju = survivors * (1 - Fraction(1, d + 1 - k))**l2 * alpha
    return [
        ("cutset", cutset_bound(query)),
        ("pawar", pawar),
        ("tandon", tandon),
        ("shah", shah),
        ("rawat", rawat),
        ("goparaju", goparaju),
        ("this_paper", secrecy_capacity(query).value),
    ]


def render_value(value: int | Fraction | None) -> str:
    if value is None:
        return ""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


CSV_HEADER = ("k,d,n,alpha,beta,l1,l2,cutset,pawar,tandon,shah,rawat,"
              "goparaju,this_paper,kind")


def capacity_csv(queries) -> str:
    """Deterministic CSV over the queries, rationals rendered as p/q."""
    lines = [CSV_HEADER]
    for q in queries:
        cells = [str(v) for v in (q.k, q.d, q.n, q.alpha, q.beta, q.l1, q.l2)]
        cells += [render_value(v) for _, v in bounds_table(q)]
        cells.append(secrecy_capacity(q).kind)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
