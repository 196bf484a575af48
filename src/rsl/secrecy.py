"""Eavesdropper accounting and information-theoretic secure wrapping.

An eavesdropper model (E, F) reads the shares of the nodes in E and all
repair traffic ever sent toward the nodes in F -- from every potential
helper, since over enough epochs every other node will have helped.
Its knowledge is a set of linear observation rows; the leakage is their
rank, and B minus that rank is the secure message size the instance
actually achieves against that model.

To use that capacity, wrap() pre-codes the payload with a maximum-rank-
distance code over the extension L of degree B: the message becomes
c_j = sum_i u_i * g_j^(|F|^i) with g_j = y^(j-1) for y the class of x
(ExtensionSpec.root), i.e. Moore-matrix evaluations of u = (R || D),
where R is ell fresh random symbols and ell is the worst-case leakage
over all models of shape (l1, l2).  worst_case_leakage() ranks every one
of them, grouped by repaired set F, through rsl.matrix's incremental
reducer on any field: F's repair rows are reduced once and each stored
set's rows extend that basis.  wrap() builds no Moore matrix: c_j =
sum_i u_i * z_i^(j-1) with z_i = y^(|F|^i), from one running power per
u_i, taken through ExtensionSpec.multiplier(z_i), and one Frobenius step
per i.  The eavesdropper's rows A have entries in F, so A @ Moore is the
Moore matrix of the h_s = sum_j a_sj y^j, whose first ell columns have
rank min(rank_F A, ell): the view is independent of D iff rank_F A <=
ell, which perfect() checks over F alone.  unwrap() inverts the
Moore matrix in closed form, through the basis of L dual to the y^j
(Lidl and Niederreiter, ch. 2), for the secret rows alone.
"""

from __future__ import annotations

import itertools

from .errors import (AsymmetricLeakage, BadModel, CapacityZero,
                     LengthMismatch, Record)
from .matrix import extend_row_space
from .product_matrix import (ProductMatrixCode, RepairTo, Stored,
                             check_precode)


class EavesdropperModel(Record):
    """Nodes read at rest (stored) and nodes whose repairs are observed."""

    __slots__ = ("stored", "repaired")

    def __init__(self, stored, repaired):
        super().__init__(tuple(sorted(set(stored))),
                         tuple(sorted(set(repaired))))

    @property
    def l1(self) -> int:
        return len(self.stored)

    @property
    def l2(self) -> int:
        return len(self.repaired)


def check_model(code: ProductMatrixCode, model: EavesdropperModel):
    p = code.params
    for node in model.stored + model.repaired:
        if not 1 <= node <= p.n:
            raise BadModel(f"node {node} not in 1..{p.n}")
    overlap = set(model.stored) & set(model.repaired)
    if overlap:
        raise BadModel(f"nodes {sorted(overlap)} both stored and repaired")
    if model.l1 + model.l2 > p.k - 1:
        raise BadModel(
            f"l1+l2 = {model.l1 + model.l2} exceeds k-1 = {p.k - 1}")


def leakage(code: ProductMatrixCode, model: EavesdropperModel) -> int:
    from .entropy import observed_entropy  # secure reconstruct never ranks
    check_model(code, model)
    return observed_entropy(code, Stored(model.stored),
                            RepairTo(model.repaired))


def achieved_secure_size(code: ProductMatrixCode,
                         model: EavesdropperModel) -> int:
    return code.params.message_length - leakage(code, model)


def _all_subsets(pool, size: int, label: str):
    return itertools.combinations(pool, size)


def enumerate_models(code: ProductMatrixCode, l1: int, l2: int,
                     choose=_all_subsets):
    """All (E, F) with |E|=l1, |F|=l2, disjoint, over the code's nodes.

    choose(pool, size, label) picks the E sets from all nodes, then the F
    sets from the nodes outside each E.  The default takes every subset;
    the harness passes a sampler, which seeds itself on the label
    ("E{l1},{l2}", or "F{l1},{l2}:{E}" with E as a tuple).
    """
    if l1 < 0 or l2 < 0 or l1 + l2 > code.params.k - 1:
        raise BadModel(f"(l1={l1}, l2={l2}) out of range for k={code.params.k}")
    nodes = list(code.nodes)
    for stored in choose(nodes, l1, f"E{l1},{l2}"):
        rest = [x for x in nodes if x not in stored]
        for repaired in choose(rest, l2, f"F{l1},{l2}:{stored}"):
            yield EavesdropperModel(stored, repaired)


def worst_case_leakage(code: ProductMatrixCode, l1: int, l2: int) -> int:
    """Common leakage across all models of the shape; must not vary.

    Every model is ranked, into the memo leakage() reads: each repaired
    set's rows are reduced once, and each stored set's rows extend that
    basis.
    """
    from .entropy import observed_entropy
    one = code.one_copy()
    width = one.params.message_length
    bases = {}  # repaired set -> its rows reduced, see extend_row_space
    values = set()
    for model in enumerate_models(code, l1, l2):
        key = Stored(model.stored), RepairTo(model.repaired)
        if key not in one.ranks:
            base = bases.get(key[1])
            if base is None:
                base = bases[key[1]] = extend_row_space(
                    one.field, (), one.observation_rows(key[1]), width)
            one.ranks[key] = len(extend_row_space(
                one.field, base, one.observation_rows(key[0]), width))
        values.add(observed_entropy(code, *key))
    if len(values) > 1:
        lo, hi = min(values), max(values)
        raise AsymmetricLeakage(
            f"leakage varies across ({l1},{l2}) models: {lo}..{hi}")
    return values.pop() if values else 0


class SecureScheme:
    """Moore-matrix pre-coding sized for one eavesdropper shape.

    ext is the degree-B extension L of the code's field that the message
    symbols live in; scheme_make() builds it, and ClusterState.scheme
    reads it back from meta.json when unwrap or verify_cluster first
    needs it.
    """

    def __init__(self, code: ProductMatrixCode, l1: int, l2: int, ell: int,
                 ext):
        check_precode(code, ell, ext.base, ext.t)
        self.code = code
        self.l1 = l1
        self.l2 = l2
        self.ell = ell
        self.ext = ext

    @property
    def secret_size(self) -> int:
        return self.code.params.message_length - self.ell

    def wrap(self, secret, randomness) -> list[int]:
        """Message symbols over L for (randomness || secret)."""
        ext = self.ext
        secret = [ext.element(x) for x in secret]
        randomness = [ext.element(x) for x in randomness]
        if len(secret) != self.secret_size:
            raise LengthMismatch(
                f"secret needs {self.secret_size} symbols, got {len(secret)}")
        if len(randomness) != self.ell:
            raise LengthMismatch(
                f"randomness needs {self.ell} symbols, got {len(randomness)}")
        out, z = [0] * ext.t, ext.root
        for v in randomness + secret:
            times = ext.multiplier(z)
            for j in range(ext.t):
                if j:
                    v = times(v)
                out[j] = ext.add(out[j], v)
            z = ext.frobenius(z)
        return out

    def unwrap(self, message) -> list[int]:
        """Secret symbols back out of a wrapped message.

        The Moore matrix is the transposed Vandermonde matrix on the roots
        z_i = y^(q^i) of the modulus f, so Lagrange inverts it: u_i = sum_j c_j
        (b_j / f'(y))^(q^i) with f(x)/(x - y) = sum_j b_j x^j, the b_j /
        f'(y) being the basis dual to the y^j.  Each b_j is sum_{k>j} f_k
        y^(k-j-1) with f_k in F, so u_i = E(z_i) / f'(z_i) for the
        polynomial E(x) = sum_m e_m x^m, e_m = sum_j f_(j+m+1) c_j: one
        Horner evaluation per row i >= ell, the rows the secret sits in.
        """
        ext = self.ext
        message = [ext.element(x) for x in message]
        B = self.code.params.message_length
        if len(message) != B:
            raise LengthMismatch(
                f"message needs {B} symbols, got {len(message)}")
        base, f = ext.base, ext.modulus
        mul, add = ext.mul, ext.add
        e = [0] * B
        for k in range(1, B + 1):
            if f[k]:
                for j in range(k):
                    e[k - 1 - j] = add(e[k - 1 - j], mul(f[k], message[j]))
        derivative = ext.from_coeffs(base.mul(k % base.p, f[k])
                                     for k in range(1, B + 1))
        z = ext.frobenius(ext.root, self.ell)
        g = ext.frobenius(ext.inv(derivative), self.ell)
        secret = []
        for _ in range(self.ell, B):
            acc, times = 0, ext.multiplier(z)
            for coeff in reversed(e):
                acc = add(times(acc), coeff)
            secret.append(mul(acc, g))
            z, g = ext.frobenius(z), ext.frobenius(g)
        return secret


def scheme_make(code: ProductMatrixCode, l1: int, l2: int) -> SecureScheme:
    """Scheme with enumerated worst-case randomness for shape (l1, l2)."""
    ell = worst_case_leakage(code, l1, l2)
    if ell >= code.params.message_length:
        raise CapacityZero(
            f"worst-case leakage {ell} swallows the whole message")
    from .extension import ExtensionSpec
    return SecureScheme(code, l1, l2, ell,
                        ExtensionSpec(code.field, code.params.message_length))


def perfect(code: ProductMatrixCode, model: EavesdropperModel,
            ell: int) -> bool:
    """True iff the model's view is independent of a secret wrapped with
    ell random symbols.

    The view A @ Moore @ u is independent of the data iff its first ell
    (randomness) columns have the rank of the whole, which for A over F
    is min(rank_F A, ell) against rank_F A: the F-rank must not exceed ell.
    """
    return leakage(code, model) <= ell


def verify_perfect(scheme: SecureScheme, model: EavesdropperModel) -> bool:
    """perfect() for the scheme's code and randomness ell."""
    return perfect(scheme.code, model, scheme.ell)


def attack_report(code: ProductMatrixCode, model: EavesdropperModel,
                  observed_leakage: int | None = None,
                  ell: int | None = None) -> dict:
    """JSON-ready summary of what a model learns, vs. the formula value.

    observed_leakage, when given, is the rank actually accumulated (for
    example from an event log); the formula comparison always uses the
    worst case over all potential helpers.  ell, when given, is the
    randomness of the scheme the message is wrapped in, and "perfect"
    is perfect()'s verdict for it: that needs only the F-rank, so the
    report builds nothing over the extension L.
    """
    from . import capacity as cap  # only attacks compare with the formula
    worst = leakage(code, model)
    leak = worst if observed_leakage is None else observed_leakage
    B = code.params.message_length
    query = cap.CapacityQuery.for_code(code.params, model.l1, model.l2)
    formula = cap.secrecy_capacity(query)
    achieved = B - worst
    if formula.kind == cap.EXACT:
        match = formula.value == achieved
    else:
        match = achieved <= formula.value
    report = {
        "model": {"stored": list(model.stored),
                  "repaired": list(model.repaired)},
        "leakage": leak,
        "secure_size": B - leak,
        "perfect": None if ell is None else perfect(code, model, ell),
        "formula_value": cap.render_value(formula.value),
        "formula_kind": formula.kind,
        "match": bool(match),
    }
    return report
