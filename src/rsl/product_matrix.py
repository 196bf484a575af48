"""Exact-repair storage codes built from symmetric product matrices.

The base construction works at d = 2k-2, where each node stores
alpha0 = k-1 symbols.  The message fills two symmetric alpha0 x alpha0
matrices S1, S2 (upper triangles, row-major, S1 first), stacked into a
d x alpha0 matrix M.  Node i holds psi_i^T M, where psi_i is row i of
the n x d Vandermonde matrix on the evaluation points x_i, so any d of
them are linearly independent.  Its first alpha0 entries are phi_i and
the next is lambda_i = x_i^alpha0, so psi_i = (phi_i | lambda_i * phi_i).

Repair of node f: every helper i sends the single symbol
dot(share_i, phi_f), so its repair row is the phi_f-combination of its
stored rows.  Any d such symbols invert to M phi_f, and the lost share
is phi_f^T S1 + lambda_f * phi_f^T S2 by symmetry of S1 and S2.
The symbol a helper sends depends only on (helper, failed node, its own
share), never on which other helpers were chosen, which is what makes
repeated repairs leak nothing new to an eavesdropper.

Wider codes concatenate m independent copies over the same evaluation
points: per-node storage alpha = m*alpha0, per-link repair beta = m.
Every stored and repair row touches one copy's block of the message, so
repair solves one d x d system and reconstruct one k*alpha0 x k*alpha0
system of copy 0, each with one right-hand column per copy, and
entropy.observed_entropy() ranks the rows of copy 0 alone, on one_copy().
The codec takes any positive whole number of codewords at once, read off
the input length; codeword s holds copies s*m .. s*m + m - 1.  A secure
cluster runs it on the B base-field digit stripes of its symbols.

Over GF(2^w), w | 8, where the field has the packed kernel, every vector
the codec takes or returns is bytes, one element per byte, checked whole
(_vector); other fields keep lists, the tests' reference.  Encode is the
region product Psi M: each of M's d rows, gathered across every copy
into a share's slot layout, is scaled by psi_i[r] for node i.  Repair
symbols, the rebuilt share and repair rows are sums of scaled vectors
too.  All go through rsl.matrix's _combine, where on packed fields one
bytes.translate scales a whole vector.

Every stored or transmitted symbol is a linear functional of the message,
exposed as its coefficient row: observation_rows() lists the rows one
selector picks, and observe() stacks the rows of several selectors into
the Matrix the entropy oracle takes the rank of.
"""

from __future__ import annotations

from .errors import (BadSelector, DegenerateLambda, FieldMismatch,
                     FieldTooSmall, LengthMismatch, Record, SelfRepair,
                     UnknownNode, WrongHelperCount, WrongNodeCount)
from .matrix import Matrix, _combine


class CodeParams(Record):
    __slots__ = ("n", "k", "d", "m")

    def __init__(self, n: int, k: int, d: int, m: int = 1):
        super().__init__(n, k, d, m)
        if k < 2:
            raise ValueError("k must be >= 2")
        if d != 2 * k - 2:
            raise ValueError(f"d must be 2k-2 = {2 * k - 2}, got {d}")
        if n < d + 1:
            raise ValueError(f"n must be >= d+1 = {d + 1}, got {n}")
        if m < 1:
            raise ValueError("m must be >= 1")

    @property
    def base_alpha(self) -> int:
        return self.k - 1

    @property
    def alpha(self) -> int:
        return self.m * self.base_alpha

    @property
    def beta(self) -> int:
        return self.m

    @property
    def base_message_length(self) -> int:
        return self.k * self.base_alpha

    @property
    def message_length(self) -> int:
        return self.k * self.alpha


# -- observation selectors

class Stored(Record):
    """Shares of the listed nodes."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        super().__init__(tuple(sorted(set(nodes))))


class RepairTo(Record):
    """Repair symbols sent to each listed node by all its potential helpers."""

    __slots__ = ("failed",)

    def __init__(self, failed):
        super().__init__(tuple(sorted(set(failed))))


class RepairFromTo(Record):
    """Repair symbols from the helper set to each failed node (helper != failed)."""

    __slots__ = ("helpers", "failed")

    def __init__(self, helpers, failed):
        super().__init__(tuple(sorted(set(helpers))),
                         tuple(sorted(set(failed))))


def _codewords(counts, unit: int, what: str) -> int:
    """The codewords in each of counts symbols, unit per codeword."""
    if not counts[0] or counts[0] % unit or len(set(counts)) > 1:
        raise LengthMismatch(
            f"{what} needs one positive multiple of {unit} symbols, got "
            f"{'/'.join(map(str, sorted(set(counts))))}")
    return counts[0] // unit


def _vector(field, v):
    """v, a sequence of elements of field, as the codec carries it: bytes
    where field has the packed kernel, else a list.  Only a vector that
    holds a non-element is walked, so that element()'s error names the
    first one."""
    if field.packed() is None:
        return [field.element(x) for x in v]
    try:
        data = v if type(v) is bytes else (
            bytes(v) if set(map(type, v)) <= {int} else None)
    except ValueError:  # an int outside 0..255
        data = None
    if data is None or field.order < 256 and data.translate(
            None, bytes(range(field.order))):
        for x in v:
            field.element(x)
        data = bytes(v)  # int subclasses, which element() accepts
    return data


def _gather(field, parts, step: int):
    """The vector, of _vector's kind, whose entries j, j + step, j + 2*step,
    ... are those of parts[j], for step parts of one length."""
    packed = field.packed() is not None
    size = len(parts[0]) * step
    out = bytearray(size) if packed else [0] * size
    for j, part in enumerate(parts):
        out[j::step] = part
    return bytes(out) if packed else out


class ProductMatrixCode:
    """An (n, k, d=2k-2) exact-repair code instance over a field."""

    def __init__(self, params: CodeParams, field, points=None):
        if field.order <= params.n:
            raise FieldTooSmall(
                f"need more than n={params.n} elements, {field!r} has "
                f"{field.order}")
        a0 = params.base_alpha
        if points is None:
            points = self._pick_points(field, params.n, a0)
        else:
            points = [field.element(x) for x in points]
            if len(points) != params.n:
                raise LengthMismatch(
                    f"need {params.n} points, got {len(points)}")
            if 0 in points or len(set(points)) != params.n:
                raise ValueError("points must be distinct and nonzero")
        psi = Matrix.vandermonde(field, points, params.d).rows
        if len({row[a0] for row in psi}) != params.n:
            raise DegenerateLambda("alpha0-th powers of the points collide")
        self._adopt(params, field, points, psi)

    def _adopt(self, params: CodeParams, field, points, psi):
        """Set up the code on checked points and their psi rows."""
        a0 = params.base_alpha
        self.params = params
        self.field = field
        self.points = tuple(points)
        self.psi = psi
        self.phi = tuple(row[:a0] for row in psi)
        self.lam = tuple(row[a0] for row in psi)  # x^alpha0 per point
        # entry (r, a) of M = (S1 over S2) sits at _cells[r][a] of a copy's
        # block of B0 message symbols
        self._cells = tuple(tuple(self.message_index(0, r // a0, r % a0, a)
                                  for a in range(a0))
                            for r in range(params.d))
        self.ranks = {}  # selector tuple -> rank, see entropy.observed_entropy
        self._rows = {}  # stored_row / repair_row arguments -> row
        self._variants = {}  # params -> code, see _variant()

    @staticmethod
    def _pick_points(field, n: int, a0: int):
        # greedy over generator powers, skipping lambda collisions
        g = field.generator()
        points, seen, x = [], set(), 1
        for _ in range(field.order - 1):
            lam = field.pow(x, a0)
            if lam not in seen:
                seen.add(lam)
                points.append(x)
                if len(points) == n:
                    return points
            x = field.mul(x, g)
        raise DegenerateLambda(
            f"cannot find {n} points with distinct alpha0-th powers in {field!r}")

    # -- node bookkeeping

    @property
    def nodes(self) -> range:
        return range(1, self.params.n + 1)

    def _node_index(self, node: int, err=UnknownNode) -> int:
        if not isinstance(node, int) or not 1 <= node <= self.params.n:
            raise err(f"node {node} not in 1..{self.params.n}")
        return node - 1

    # -- message layout

    def message_index(self, copy: int, half: int, r: int, s: int) -> int:
        """Index of entry (r, s) of copy's symmetric matrix S1 (half=0) or S2."""
        a0 = self.params.base_alpha
        if r > s:
            r, s = s, r
        tri = r * a0 - r * (r - 1) // 2 + (s - r)
        half_size = a0 * (a0 + 1) // 2
        return copy * 2 * half_size + half * half_size + tri

    # -- codec

    def encode(self, message) -> list:
        """All n shares, alpha symbols per codeword, copies consecutive.

        Node i's share is the region product psi_i^T M: row r of M, entry
        a of every copy, gathered into the slots a, a + alpha0, ... of a
        share, is scaled by psi_i[r].  Slot copy*alpha0 + a is so the
        copy-0 stored row for slot a (on one_copy(), as observed_entropy()
        ranks it) applied to copy's block of B0 message symbols.
        """
        p, field = self.params, self.field
        message = _vector(field, message)
        count = p.m * _codewords([len(message)], p.message_length, "message")
        a0, b0 = p.base_alpha, p.base_message_length
        rows = [_gather(field, [message[x::b0] for x in cells], a0)
                for cells in self._cells]
        return [_combine(field, psi, rows, count * a0) for psi in self.psi]

    def repair_symbol(self, helper: int, failed: int, helper_share):
        """The beta symbols per codeword the helper sends to the failed node.

        A pure function of (helper, failed, helper's share): helper choice
        elsewhere in the system cannot change what this node transmits.
        """
        hi = self._node_index(helper)
        fi = self._node_index(failed)
        if hi == fi:
            raise SelfRepair(f"node {failed} cannot help repair itself")
        p = self.params
        share = _vector(self.field, helper_share)
        copies = p.m * _codewords([len(share)], p.alpha, "share")
        a0 = p.base_alpha
        return _combine(self.field, self.phi[fi],
                        [share[j::a0] for j in range(a0)], copies)

    def repair(self, failed: int, helper_symbols):
        """Rebuild the failed share from d helpers' repair symbols.

        helper_symbols maps helper id -> the beta symbols per codeword it sent.
        """
        fi = self._node_index(failed)
        helpers = sorted(helper_symbols)
        if len(helpers) != self.params.d:
            raise WrongHelperCount(
                f"need exactly d={self.params.d} helpers, got {len(helpers)}")
        if failed in helpers:
            raise SelfRepair(f"node {failed} cannot help repair itself")
        rows = [self.psi[self._node_index(h)] for h in helpers]
        field, p = self.field, self.params
        system = Matrix._of(field, rows)
        a0 = p.base_alpha
        columns = [_vector(field, helper_symbols[h]) for h in helpers]
        copies = p.m * _codewords([len(c) for c in columns], p.beta,
                                  "repair symbols of each helper")
        rhs = Matrix._of(field, columns)  # d x copies, copy per column
        # d distinct Vandermonde rows: the system is always invertible
        sol = system.solve(rhs).rows  # rows of M phi_f, per copy
        # slot a is (S1 phi_f)_a + lambda_f * (S2 phi_f)_a in every copy
        return _gather(field, [_combine(field, (1, self.lam[fi]),
                                        (sol[a], sol[a0 + a]), copies)
                               for a in range(a0)], a0)

    def reconstruct(self, shares):
        """Recover the message from any k complete shares.

        All copies share one decode system: row (node, a) is the node's
        stored row for slot a on one_copy(), over copy 0's B0 = k*alpha0
        message symbols, and right-hand column c holds slot c*alpha0 + a.
        """
        p, field = self.params, self.field
        nodes = sorted(shares)
        if len(nodes) != p.k:
            raise WrongNodeCount(f"need exactly k={p.k} shares, got {len(nodes)}")
        for node in nodes:
            self._node_index(node)
        a0, b0 = p.base_alpha, p.base_message_length
        one = self.one_copy()
        shares = [_vector(field, shares[node]) for node in nodes]
        copies = p.m * _codewords([len(s) for s in shares], p.alpha,
                                  "each share")
        rows, values = [], []
        for node, share in zip(nodes, shares):
            for a in range(a0):
                rows.append(one.stored_row(node, a))
                values.append(share[a::a0])
        system = Matrix._of(field, rows, ncols=b0)
        # k distinct nodes always give rank B0, so solve() finds the one
        # solution; column c is copy c's block of the message_index layout
        sol = system.solve(Matrix._of(field, values, ncols=copies))
        return _gather(field, sol.rows, b0)

    # -- observation rows: each built once per instance, on first use

    def stored_row(self, node: int, slot: int) -> tuple[int, ...]:
        """Coefficient row of the node's stored symbol in the given slot."""
        row = self._rows.get((node, slot))
        if row is not None:
            return row
        i = self._node_index(node, BadSelector)
        p = self.params
        if not 0 <= slot < p.alpha:
            raise BadSelector(f"slot {slot} not in 0..{p.alpha - 1}")
        copy, a = divmod(slot, p.base_alpha)
        row = [0] * p.message_length
        base = copy * p.base_message_length
        # psi_i = (phi_i | lambda_i * phi_i) against column a of M
        for c, cells in zip(self.psi[i], self._cells):
            row[base + cells[a]] = c
        row = self._rows[node, slot] = tuple(row)
        return row

    def repair_row(self, helper: int, failed: int, copy: int) -> tuple[int, ...]:
        """Coefficient row of one repair symbol (one per copy): the
        phi_f-combination of the helper's stored rows for copy, as
        repair_symbol() combines its share.  The rows are read through
        this class's memo, so a subclass's stored_row() cannot alter them."""
        row = self._rows.get((helper, failed, copy))
        if row is not None:
            return row
        fi = self._node_index(failed, BadSelector)
        if self._node_index(helper, BadSelector) == fi:
            raise BadSelector("helper and failed node coincide")
        p = self.params
        if not 0 <= copy < p.m:
            raise BadSelector(f"copy {copy} not in 0..{p.m - 1}")
        stored = [ProductMatrixCode.stored_row(self, helper,
                                               copy * p.base_alpha + a)
                  for a in range(p.base_alpha)]
        row = self._rows[helper, failed, copy] = tuple(
            _combine(self.field, self.phi[fi], stored, p.message_length))
        return row

    def observation_rows(self, selector) -> list[tuple[int, ...]]:
        """Coefficient rows of the symbols one selector picks.

        Stored rows come node by node in slot order; repair rows come per
        failed node, then helper, then copy.
        """
        p = self.params
        out = []
        if isinstance(selector, RepairTo):
            selector = RepairFromTo(self.nodes, selector.failed)
        if isinstance(selector, Stored):
            for node in selector.nodes:
                self._node_index(node, BadSelector)
                for slot in range(p.alpha):
                    out.append(self.stored_row(node, slot))
        elif isinstance(selector, RepairFromTo):
            for f in selector.failed:
                self._node_index(f, BadSelector)
                for h in selector.helpers:
                    self._node_index(h, BadSelector)
                    if h == f:
                        continue
                    for copy in range(p.m):
                        out.append(self.repair_row(h, f, copy))
        else:
            raise BadSelector(f"unknown selector {type(selector).__name__}")
        return out

    def observe(self, *selectors) -> Matrix:
        """The selectors' rows stacked in order, B columns wide."""
        rows = []
        for sel in selectors:
            rows.extend(self.observation_rows(sel))
        return Matrix._of(self.field, rows, ncols=self.params.message_length)

    def truncate(self) -> "ProductMatrixCode":
        """The same code restricted to nodes 1..d+1; one instance on
        repeat calls, so its rank memo is shared."""
        p = self.params
        return self if p.n == p.d + 1 else self._variant(n=p.d + 1)

    def one_copy(self) -> "ProductMatrixCode":
        """The same code at m=1; one instance on repeat calls.  Each row
        here touches one copy's block with copy-independent coefficients,
        so the rows selectors pick here are I_m (x) A, up to order, for
        the rows A they pick there, and rank(I_m (x) A) = m * rank(A)."""
        return self if self.params.m == 1 else self._variant(m=1)

    def _variant(self, **change) -> "ProductMatrixCode":
        """The code at changed params on this code's first n points, whose
        psi rows, and so distinct alpha0-th powers, it takes as they are."""
        p = self.params.replace(**change)
        if p not in self._variants:
            code = self._variants[p] = object.__new__(type(self))
            code._adopt(p, self.field, self.points[:p.n], self.psi[:p.n])
        return self._variants[p]

    def __repr__(self):
        p = self.params
        return (f"ProductMatrixCode(n={p.n}, k={p.k}, d={p.d}, m={p.m}, "
                f"field={self.field!r})")


def check_precode(code: ProductMatrixCode, ell: int, base, t: int):
    """Raise unless a secrecy precode of ell random symbols over the
    degree-t extension of base fits code: 0 <= ell <= B, base is the
    code's field and t = B.  SecureScheme checks the extension it is
    given; ClusterState.load() checks meta.json's without building it."""
    B = code.params.message_length
    if not 0 <= ell <= B:
        raise ValueError(f"ell must be in 0..{B}")
    if base != code.field or t != B:
        raise FieldMismatch(
            f"wrapping needs an extension of degree {B} over "
            f"{code.field!r}, got {base!r}^{t}")
