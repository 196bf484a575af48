"""Exact-repair storage codes built from symmetric product matrices.

The base construction works at d = 2k-2, where each node stores
alpha0 = k-1 symbols.  The message fills two symmetric alpha0 x alpha0
matrices S1, S2 (upper triangles, row-major, S1 first), stacked into a
d x alpha0 matrix M.  Node i holds psi_i^T M for the evaluation row
psi_i = (phi_i | lambda_i * phi_i), with phi_i = (1, x_i, ..., x_i^(alpha0-1))
and lambda_i = x_i^alpha0, so psi_i is a full Vandermonde row and any d
of them are linearly independent.

Repair of node f: every helper i sends the single symbol
dot(share_i, phi_f).  Any d such symbols invert to M phi_f, and the lost
share is phi_f^T S1 + lambda_f * phi_f^T S2 by symmetry of S1 and S2.
The symbol a helper sends depends only on (helper, failed node, its own
share), never on which other helpers were chosen, which is what makes
repeated repairs leak nothing new to an eavesdropper.

Wider codes concatenate m independent copies over the same evaluation
points: per-node storage alpha = m*alpha0, per-link repair beta = m.
Every stored and repair row touches one copy's block of the message, so
repair solves one d x d system and reconstruct one k*alpha0 x k*alpha0
system of copy 0, each with m right-hand columns, one per copy, and
entropy.observed_entropy() ranks the rows of copy 0 alone, on one_copy().

Every stored or transmitted symbol is a linear functional of the message,
exposed as its coefficient row: observation_rows() lists the rows one
selector picks, and observe() stacks the rows of several selectors into
the Matrix the entropy oracle takes the rank of.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import (BadSelector, DegenerateLambda, FieldTooSmall,
                     LengthMismatch, SelfRepair, UnknownNode,
                     WrongHelperCount, WrongNodeCount)
from .matrix import Matrix


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    m: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.d != 2 * self.k - 2:
            raise ValueError(f"d must be 2k-2 = {2 * self.k - 2}, got {self.d}")
        if self.n < self.d + 1:
            raise ValueError(f"n must be >= d+1 = {self.d + 1}, got {self.n}")
        if self.m < 1:
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

@dataclass(frozen=True)
class Stored:
    """Shares of the listed nodes."""

    nodes: tuple[int, ...]

    def __init__(self, nodes):
        object.__setattr__(self, "nodes", tuple(sorted(set(nodes))))


@dataclass(frozen=True)
class RepairTo:
    """Repair symbols sent to each listed node by all its potential helpers."""

    failed: tuple[int, ...]

    def __init__(self, failed):
        object.__setattr__(self, "failed", tuple(sorted(set(failed))))


@dataclass(frozen=True)
class RepairFromTo:
    """Repair symbols from the helper set to each failed node (helper != failed)."""

    helpers: tuple[int, ...]
    failed: tuple[int, ...]

    def __init__(self, helpers, failed):
        object.__setattr__(self, "helpers", tuple(sorted(set(helpers))))
        object.__setattr__(self, "failed", tuple(sorted(set(failed))))


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
            if len({field.pow(x, a0) for x in points}) != params.n:
                raise DegenerateLambda(
                    "alpha0-th powers of the points collide")
        self.params = params
        self.field = field
        self.points = tuple(points)
        self.phi = tuple(self._powers(x, a0) for x in self.points)
        self.lam = tuple(field.pow(x, a0) for x in self.points)
        self.psi = tuple(
            phi + tuple(field.mul(lam, c) for c in phi)
            for phi, lam in zip(self.phi, self.lam))
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

    def _powers(self, x: int, count: int) -> tuple[int, ...]:
        out = [1]
        for _ in range(count - 1):
            out.append(self.field.mul(out[-1], x))
        return tuple(out[:count])

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

    def encode(self, message) -> list[list[int]]:
        """All n shares, alpha symbols each, copies consecutive.

        Slot copy*alpha0 + a of a node is its copy-0 stored row for slot
        a (on one_copy(), as observed_entropy() ranks it) applied to
        copy's block of B0 message symbols.
        """
        p = self.params
        message = [self.field.element(x) for x in message]
        if len(message) != p.message_length:
            raise LengthMismatch(
                f"message needs {p.message_length} symbols, got {len(message)}")
        add, mul = self.field.add, self.field.mul
        one, b0 = self.one_copy(), p.base_message_length
        blocks = [message[c * b0:(c + 1) * b0] for c in range(p.m)]
        shares = []
        for node in self.nodes:
            rows = [[(i, c) for i, c in enumerate(one.stored_row(node, a)) if c]
                    for a in range(p.base_alpha)]
            share = []
            for block in blocks:
                for row in rows:
                    acc = 0
                    for i, c in row:
                        acc = add(acc, mul(c, block[i]))
                    share.append(acc)
            shares.append(share)
        return shares

    def repair_symbol(self, helper: int, failed: int, helper_share) -> list[int]:
        """The beta symbols the helper sends toward the failed node.

        A pure function of (helper, failed, helper's share): helper choice
        elsewhere in the system cannot change what this node transmits.
        """
        hi = self._node_index(helper)
        fi = self._node_index(failed)
        if hi == fi:
            raise SelfRepair(f"node {failed} cannot help repair itself")
        p = self.params
        share = [self.field.element(x) for x in helper_share]
        if len(share) != p.alpha:
            raise LengthMismatch(
                f"share needs {p.alpha} symbols, got {len(share)}")
        add, mul = self.field.add, self.field.mul
        a0 = p.base_alpha
        phi_f = self.phi[fi]
        out = []
        for copy in range(p.m):
            acc = 0
            for j in range(a0):
                acc = add(acc, mul(share[copy * a0 + j], phi_f[j]))
            out.append(acc)
        return out

    def repair(self, failed: int, helper_symbols) -> list[int]:
        """Rebuild the failed share from d helpers' repair symbols.

        helper_symbols maps helper id -> the beta symbols it sent.
        """
        fi = self._node_index(failed)
        helpers = sorted(helper_symbols)
        if len(helpers) != self.params.d:
            raise WrongHelperCount(
                f"need exactly d={self.params.d} helpers, got {len(helpers)}")
        if failed in helpers:
            raise SelfRepair(f"node {failed} cannot help repair itself")
        rows = [self.psi[self._node_index(h)] for h in helpers]
        system = Matrix._of(self.field, rows)
        p = self.params
        a0 = p.base_alpha
        columns = []
        for h in helpers:
            sym = [self.field.element(x) for x in helper_symbols[h]]
            if len(sym) != p.beta:
                raise LengthMismatch(
                    f"helper {h} sent {len(sym)} symbols, expected {p.beta}")
            columns.append(sym)
        rhs = Matrix._of(self.field, columns)  # d x m, copy per column
        # d distinct Vandermonde rows: the system is always invertible
        sol = system.solve(rhs)  # rows of M phi_f, per copy
        add, mul = self.field.add, self.field.mul
        lam_f = self.lam[fi]
        share = []
        for copy in range(p.m):
            for a in range(a0):
                s1_part = sol.rows[a][copy]
                s2_part = sol.rows[a0 + a][copy]
                share.append(add(s1_part, mul(lam_f, s2_part)))
        return share

    def reconstruct(self, shares) -> list[int]:
        """Recover the message from any k complete shares.

        The m copies share one decode system: row (node, a) is the node's
        stored row for slot a on one_copy(), over copy 0's B0 = k*alpha0
        message symbols, and right-hand column c holds slot c*alpha0 + a.
        """
        p = self.params
        nodes = sorted(shares)
        if len(nodes) != p.k:
            raise WrongNodeCount(f"need exactly k={p.k} shares, got {len(nodes)}")
        for node in nodes:
            self._node_index(node)
        a0, b0 = p.base_alpha, p.base_message_length
        one = self.one_copy()
        rows, values = [], []
        for node in nodes:
            share = [self.field.element(x) for x in shares[node]]
            if len(share) != p.alpha:
                raise LengthMismatch(
                    f"share of node {node} has {len(share)} symbols, "
                    f"expected {p.alpha}")
            for a in range(a0):
                rows.append(one.stored_row(node, a))
                values.append(share[a::a0])
        system = Matrix._of(self.field, rows, ncols=b0)
        # k distinct nodes always give rank B0, so solve() finds the one
        # solution; column c is copy c's block of the message_index layout
        sol = system.solve(Matrix._of(self.field, values, ncols=p.m))
        return [row[c] for c in range(p.m) for row in sol.rows]

    # -- observation rows: each built once per instance, on first use

    def stored_row(self, node: int, slot: int) -> tuple[int, ...]:
        """Coefficient row of the node's stored symbol in the given slot."""
        row = self._rows.get((node, slot))
        if row is None:
            row = self._rows[node, slot] = self._stored_row(node, slot)
        return row

    def _stored_row(self, node: int, slot: int) -> tuple[int, ...]:
        i = self._node_index(node, BadSelector)
        p = self.params
        if not 0 <= slot < p.alpha:
            raise BadSelector(f"slot {slot} not in 0..{p.alpha - 1}")
        copy, a = divmod(slot, p.base_alpha)
        add, mul = self.field.add, self.field.mul
        row = [0] * p.message_length
        phi, lam = self.phi[i], self.lam[i]
        for j in range(p.base_alpha):
            c = phi[j]
            if c == 0:
                continue
            i1 = self.message_index(copy, 0, j, a)
            row[i1] = add(row[i1], c)
            i2 = self.message_index(copy, 1, j, a)
            row[i2] = add(row[i2], mul(lam, c))
        return tuple(row)

    def repair_row(self, helper: int, failed: int, copy: int) -> tuple[int, ...]:
        """Coefficient row of one repair symbol (one per copy)."""
        row = self._rows.get((helper, failed, copy))
        if row is None:
            row = self._rows[helper, failed, copy] = self._repair_row(
                helper, failed, copy)
        return row

    def _repair_row(self, helper: int, failed: int,
                    copy: int) -> tuple[int, ...]:
        hi = self._node_index(helper, BadSelector)
        fi = self._node_index(failed, BadSelector)
        if hi == fi:
            raise BadSelector("helper and failed node coincide")
        p = self.params
        if not 0 <= copy < p.m:
            raise BadSelector(f"copy {copy} not in 0..{p.m - 1}")
        add, mul = self.field.add, self.field.mul
        row = [0] * p.message_length
        phi_h, lam_h = self.phi[hi], self.lam[hi]
        phi_f = self.phi[fi]
        for j in range(p.base_alpha):
            if phi_h[j] == 0:
                continue
            for l in range(p.base_alpha):
                c = mul(phi_h[j], phi_f[l])
                if c == 0:
                    continue
                i1 = self.message_index(copy, 0, j, l)
                row[i1] = add(row[i1], c)
                i2 = self.message_index(copy, 1, j, l)
                row[i2] = add(row[i2], mul(lam_h, c))
        return tuple(row)

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
        p = dataclasses.replace(self.params, **change)
        if p not in self._variants:
            self._variants[p] = type(self)(p, self.field, self.points[:p.n])
        return self._variants[p]

    def __repr__(self):
        p = self.params
        return (f"ProductMatrixCode(n={p.n}, k={p.k}, d={p.d}, m={p.m}, "
                f"field={self.field!r})")
