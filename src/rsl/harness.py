"""Executable property checks over code instances.

A property is a generator registered under its id with @_property.  It
takes the code and a draw(pool, size, label) sampler and yields once per
check: None when the check passes, or a witness dict when it fails.  A
property with nothing to check may return a note, which becomes the
witness of its passing result.  The driver counts the checks, stops at
the first witness and builds the PropertyResult; REGISTRY and
PROPERTY_IDS list the properties in definition order.

draw() enumerates every subset when there are at most budget.samples
of them and otherwise samples deterministically from a fixed seed, which
the result then records.  Six properties run on the code's
truncation to nodes 1..d+1, enumerate every case there and ignore the
budget: lemma.truncation and the five whose statement presumes n = d+1.

check_all() returns results in registry order; report_jsonl() renders
them byte-stably, one JSON object per line.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from . import secrecy
from .entropy import observed_entropy
from .errors import AsymmetricLeakage, Record
from .product_matrix import ProductMatrixCode, RepairFromTo, RepairTo, Stored


class Budget(Record):
    __slots__ = ("samples", "seed")

    def __init__(self, samples: int = 80, seed: int = 7):
        super().__init__(samples, seed)
        # a property with no draws would pass on zero checks
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")


class PropertyResult(Record):
    __slots__ = ("property", "instance", "passed", "checks", "witness",
                 "seed")

    def __init__(self, property: str, instance: str, passed: bool,
                 checks: int, witness: dict | None = None,
                 seed: int | None = None):
        super().__init__(property, instance, passed, checks, witness, seed)

    def to_json(self) -> dict:
        return self.as_dict()


def _describe(code: ProductMatrixCode) -> str:
    p = code.params
    return f"n={p.n} k={p.k} d={p.d} m={p.m} field={code.field!r}"


def _subsets(pool, size: int, budget: Budget, label: str):
    """All size-subsets, or a deterministic sample when too many."""
    pool = sorted(pool)
    if math.comb(len(pool), size) <= budget.samples:
        return list(itertools.combinations(pool, size)), None
    rng = random.Random(f"{budget.seed}:{label}")
    picked = {tuple(sorted(rng.sample(pool, size)))
              for _ in range(budget.samples)}
    return sorted(picked), budget.seed


class _Draws:
    """One property run's subset draws; remembers whether any sampled."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.sampled = False

    def __call__(self, pool, size: int, label: str):
        subsets, seed = _subsets(pool, size, self.budget, label)
        self.sampled |= seed is not None
        return subsets


REGISTRY: list[tuple[str, object]] = []
PROPERTY_IDS: list[str] = []


def _property(pid: str):
    """Register a check generator as property pid (see the module doc)."""
    def register(checks):
        def run(code: ProductMatrixCode, budget: Budget) -> PropertyResult:
            draw = _Draws(budget)
            pending = checks(code, draw)
            count = 0
            while True:
                try:
                    witness = next(pending)
                except StopIteration as done:
                    passed, witness = True, done.value
                    break
                count += 1
                if witness is not None:
                    passed = False
                    break
            return PropertyResult(pid, _describe(code), passed, count,
                                  witness,
                                  budget.seed if draw.sampled else None)
        REGISTRY.append((pid, run))
        PROPERTY_IDS.append(pid)
        return checks
    return register


def _shape_pairs(k: int):
    for l1 in range(k):
        for l2 in range(k - l1):
            yield l1, l2


def _models(code, shapes, draw=None, label: str = ""):
    """secrecy.enumerate_models over the (l1, l2) shapes: every model,
    lazily, or given draw, E and F drawn up front so the seed is kept."""
    def choose(pool, size, what):
        return draw(pool, size, f"{label}:{what}")
    picks = () if draw is None else (choose,)
    models = (model for l1, l2 in shapes
              for model in secrecy.enumerate_models(code, l1, l2, *picks))
    return models if draw is None else list(models)


def _ranks(code, cases):
    """One check per (witness fields, expected rank, *selectors) case."""
    for fields, expected, *selectors in cases:
        got = observed_entropy(code, *selectors)
        yield None if got == expected else {**fields, "observed": got,
                                            "expected": expected}


@_property("msr.node_entropy")
def node_entropy(code, draw):
    """Each share alone carries full entropy alpha."""
    yield from _ranks(code, (({"node": i}, code.params.alpha, Stored((i,)))
                             for i in code.nodes))


@_property("msr.link_entropy")
def link_entropy(code, draw):
    """Each single repair transmission carries full entropy beta."""
    pairs = itertools.permutations(code.nodes, 2)  # every i != j, in order
    yield from _ranks(code, (({"helper": i, "failed": j}, code.params.beta,
                              RepairFromTo((i,), (j,))) for i, j in pairs))


@_property("msr.reconstruction")
def reconstruction(code, draw):
    """Any k shares determine the whole message."""
    p = code.params
    groups = draw(code.nodes, p.k, "reconstruction")
    yield from _ranks(code, (({"nodes": list(g)}, p.message_length, Stored(g))
                             for g in groups))


@_property("lemma.repair_independence")
def repair_independence(code, draw):
    """All repair data toward one node has rank exactly d*beta."""
    p = code.params
    yield from _ranks(code, (({"failed": f}, p.d * p.beta, RepairTo((f,)))
                             for f in code.nodes))


@_property("lemma.repair_determinism")
def repair_determinism(code, draw):
    """Given a share and k-1 helper transmissions, the rest add nothing."""
    t = code.truncate()
    for i in t.nodes:
        others = [x for x in t.nodes if x != i]
        full = observed_entropy(t, Stored((i,)), RepairFromTo(others, (i,)))
        for first in itertools.combinations(others, t.params.k - 1):
            base = observed_entropy(t, Stored((i,)), RepairFromTo(first, (i,)))
            yield None if base == full else {
                "node": i, "first_helpers": list(first),
                "with_first": base, "with_all": full}


@_property("lemma.secure_size")
def secure_size(code, draw):
    """H(repairs to F | shares of E and F) equals H(repairs from G to F)."""
    t = code.truncate()
    k = t.params.k
    for model in _models(t, _shape_pairs(k)):
        stored, repaired = model.stored, model.repaired
        rest = [x for x in t.nodes if x not in stored + repaired]
        given = Stored(stored + repaired)
        lhs = (observed_entropy(t, RepairTo(repaired), given)
               - observed_entropy(t, given))
        for group in itertools.combinations(rest, k - model.l1 - model.l2):
            rhs = observed_entropy(t, RepairFromTo(group, repaired))
            yield None if lhs == rhs else {
                "stored": list(stored), "repaired": list(repaired),
                "fresh": list(group), "conditional": lhs, "direct": rhs}


@_property("lemma.helper_symmetry")
def helper_symmetry(code, draw):
    """Every helper's transmissions toward F carry the same entropy."""
    t = code.truncate()
    for model in _models(t, [(0, size) for size in range(1, t.params.k)]):
        repaired = model.repaired
        outside = [x for x in t.nodes if x not in repaired]
        values = {h: observed_entropy(t, RepairFromTo((h,), repaired))
                  for h in outside}
        # one check per helper; the last compares them all
        yield from [None] * (len(outside) - 1)
        yield None if len(set(values.values())) == 1 else {
            "repaired": list(repaired), "values": values}


@_property("lemma.express")
def express(code, draw):
    """Repairs to a set J of up to three nodes reduce triangularly: later
    failures need only helpers outside the earlier ones."""
    t = code.truncate()
    nodes = list(t.nodes)  # d+1 >= 3 of them
    for size in range(1, 4):
        for group in itertools.combinations(nodes, size):
            full = observed_entropy(t, RepairTo(group))
            for order in itertools.permutations(group):
                selectors = []
                for idx, j in enumerate(order):
                    helpers = [x for x in nodes if x not in order[:idx + 1]]
                    selectors.append(RepairFromTo(helpers, (j,)))
                reduced = observed_entropy(t, *selectors)
                yield None if reduced == full else {
                    "order": list(order), "full": full,
                    "triangular": reduced}


@_property("thm.scalar_repair_rank")
def scalar_repair_rank(code, draw):
    """In the exact regime, one helper's view of repairs to F has rank |F|beta."""
    t = code.truncate()
    p = t.params
    exact = [(0, size) for size in range(1, p.k)  # only claimed there
             if p.beta * (size - 1) < p.d - p.k + 1]
    yield from _ranks(t, (({"helper": h, "repaired": list(model.repaired)},
                           model.l2 * p.beta,
                           RepairFromTo((h,), model.repaired))
                          for model in _models(t, exact)
                          for h in t.nodes if h not in model.repaired))


@_property("thm.simple_bound")
def simple_bound(code, draw):
    """Achieved secure size never exceeds (k-l1-l2)(alpha - H(one helper's view))."""
    p = code.params
    for model in _models(code, _shape_pairs(p.k), draw, "simple_bound"):
        achieved = secrecy.achieved_secure_size(code, model)
        survivors = p.k - model.l1 - model.l2
        outside = [x for x in code.nodes
                   if x not in model.stored and x not in model.repaired]
        for g in outside:
            view = (observed_entropy(code, RepairFromTo((g,), model.repaired))
                    if model.repaired else 0)
            bound = survivors * (p.alpha - view)
            yield None if achieved <= bound else {
                "stored": list(model.stored),
                "repaired": list(model.repaired), "fresh": g,
                "achieved": achieved, "bound": bound}


@_property("cor.capacity_exact")
def capacity_exact(code, draw):
    """Exact-regime models achieve (k-l1-l2)(alpha - l2*beta) exactly."""
    p = code.params
    for model in _models(code, _shape_pairs(p.k), draw, "capacity_exact"):
        if p.beta * (model.l2 - 1) >= p.d - p.k + 1:
            continue
        achieved = secrecy.achieved_secure_size(code, model)
        expected = ((p.k - model.l1 - model.l2)
                    * (p.alpha - model.l2 * p.beta))
        yield None if achieved == expected else {
            "stored": list(model.stored), "repaired": list(model.repaired),
            "achieved": achieved, "expected": expected}


@_property("def.stability")
def stability(code, draw):
    """Repair reproduces the lost share exactly, whatever helpers are used."""
    p = code.params
    rng = random.Random(draw.budget.seed)
    message = [rng.randrange(code.field.order)
               for _ in range(p.message_length)]
    shares = code.encode(message)
    for f in code.nodes:
        others = [x for x in code.nodes if x != f]
        for helpers in draw(others, p.d, f"stability:{f}"):
            symbols = {h: code.repair_symbol(h, f, shares[h - 1])
                       for h in helpers}
            rebuilt = code.repair(f, symbols)
            yield None if rebuilt == shares[f - 1] else {
                "failed": f, "helpers": list(helpers)}


@_property("lemma.truncation")
def truncation(code, draw):
    """Dropping nodes beyond d+1 changes no model's leakage."""
    p = code.params
    if p.n == p.d + 1:
        return {"note": "n == d+1, nothing to truncate"}
    small = code.truncate()
    for model in _models(small, _shape_pairs(p.k)):
        full = secrecy.leakage(code, model)
        reduced = secrecy.leakage(small, model)
        yield None if full == reduced else {
            "stored": list(model.stored), "repaired": list(model.repaired),
            "full": full, "truncated": reduced}


@_property("scheme.perfect_secrecy")
def perfect_secrecy(code, draw):
    """Worst-case-sized wrapping is independent of every model's view."""
    for l1, l2 in _shape_pairs(code.params.k):
        try:
            ell = secrecy.worst_case_leakage(code, l1, l2)
        except AsymmetricLeakage:
            # no single ell covers the shape; every rank is memoized now
            leaks = {secrecy.leakage(code, model)
                     for model in _models(code, [(l1, l2)])}
            yield {"l1": l1, "l2": l2, "lowest": min(leaks),
                   "highest": max(leaks)}
            return
        if ell >= code.params.message_length:
            continue  # nothing can be stored at this shape
        for model in _models(code, [(l1, l2)], draw, "shape"):
            yield None if secrecy.perfect(code, model, ell) else {
                "l1": l1, "l2": l2, "stored": list(model.stored),
                "repaired": list(model.repaired)}


def run_property(property_id: str, code: ProductMatrixCode,
                 budget: Budget | None = None) -> PropertyResult:
    budget = budget or Budget()
    for name, fn in REGISTRY:
        if name == property_id:
            return fn(code, budget)
    raise KeyError(f"unknown property {property_id!r}")


def check_all(code: ProductMatrixCode,
              budget: Budget | None = None) -> list[PropertyResult]:
    budget = budget or Budget()
    return [fn(code, budget) for _, fn in REGISTRY]


def report_jsonl(results) -> str:
    lines = [json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
             for r in results]
    return "\n".join(lines) + "\n"
