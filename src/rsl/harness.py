"""Executable property checks over code instances.

Each registered property enumerates its claim exhaustively when the node
count is small (n <= budget.exhaustive_n) and otherwise samples subsets
deterministically from a fixed seed, which is then recorded in the
result.  Properties whose statement presumes n = d+1 run on the code's
truncation to nodes 1..d+1.

check_all() returns results in registry order; report_jsonl() renders
them byte-stably, one JSON object per line.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from . import secrecy
from .entropy import conditional_entropy, joint_entropy
from .product_matrix import ProductMatrixCode, RepairFromTo, RepairTo, Stored


@dataclass(frozen=True)
class Budget:
    exhaustive_n: int = 6
    samples: int = 80
    seed: int = 7
    express_limit: int = 3


@dataclass
class PropertyResult:
    property: str
    instance: str
    passed: bool
    checks: int
    witness: dict | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "instance": self.instance,
            "passed": self.passed,
            "checks": self.checks,
            "witness": self.witness,
            "seed": self.seed,
        }


def _describe(code: ProductMatrixCode) -> str:
    p = code.params
    return f"n={p.n} k={p.k} d={p.d} m={p.m} field={code.field!r}"


def _subsets(pool, size: int, budget: Budget, label: str):
    """All size-subsets, or a deterministic sample when too many."""
    pool = sorted(pool)
    if len(pool) <= budget.exhaustive_n \
            or math.comb(len(pool), size) <= budget.samples:
        return list(itertools.combinations(pool, size)), None
    rng = random.Random(f"{budget.seed}:{label}")
    picked = {tuple(sorted(rng.sample(pool, size)))
              for _ in range(budget.samples)}
    return sorted(picked), budget.seed


def _entropy(code, *selectors) -> int:
    return joint_entropy(code.observe(*selectors))


def _shape_pairs(k: int):
    for l1 in range(k):
        for l2 in range(k - l1):
            yield l1, l2


def _sampled_models(code, shapes, budget: Budget, label: str):
    """secrecy.enumerate_models over the (l1, l2) shapes, with E and F
    subsets sampled deterministically when the budget calls for it."""
    seeds = set()

    def choose(pool, size, draw):
        subsets, seed = _subsets(pool, size, budget, f"{label}:{draw}")
        seeds.add(seed)
        return subsets

    models = [model for l1, l2 in shapes
              for model in secrecy.enumerate_models(code, l1, l2, choose)]
    return models, (budget.seed if budget.seed in seeds else None)


def check_node_entropy(code, budget: Budget) -> PropertyResult:
    """Each share alone carries full entropy alpha."""
    alpha = code.params.alpha
    checks = 0
    for i in code.nodes:
        got = _entropy(code, Stored((i,)))
        checks += 1
        if got != alpha:
            return PropertyResult("msr.node_entropy", _describe(code), False,
                                  checks, {"node": i, "observed": got,
                                           "expected": alpha})
    return PropertyResult("msr.node_entropy", _describe(code), True, checks)


def check_link_entropy(code, budget: Budget) -> PropertyResult:
    """Each single repair transmission carries full entropy beta."""
    beta = code.params.beta
    checks = 0
    for i in code.nodes:
        for j in code.nodes:
            if i == j:
                continue
            got = _entropy(code, RepairFromTo((i,), (j,)))
            checks += 1
            if got != beta:
                return PropertyResult(
                    "msr.link_entropy", _describe(code), False, checks,
                    {"helper": i, "failed": j, "observed": got,
                     "expected": beta})
    return PropertyResult("msr.link_entropy", _describe(code), True, checks)


def check_reconstruction(code, budget: Budget) -> PropertyResult:
    """Any k shares determine the whole message."""
    p = code.params
    subsets, seed = _subsets(code.nodes, p.k, budget, "reconstruction")
    checks = 0
    for group in subsets:
        got = _entropy(code, Stored(group))
        checks += 1
        if got != p.message_length:
            return PropertyResult(
                "msr.reconstruction", _describe(code), False, checks,
                {"nodes": list(group), "observed": got,
                 "expected": p.message_length}, seed)
    return PropertyResult("msr.reconstruction", _describe(code), True,
                          checks, None, seed)


def check_repair_independence(code, budget: Budget) -> PropertyResult:
    """All repair data toward one node has rank exactly d*beta."""
    p = code.params
    expected = p.d * p.beta
    checks = 0
    for f in code.nodes:
        got = _entropy(code, RepairTo((f,)))
        checks += 1
        if got != expected:
            return PropertyResult(
                "lemma.repair_independence", _describe(code), False, checks,
                {"failed": f, "observed": got, "expected": expected})
    return PropertyResult("lemma.repair_independence", _describe(code), True,
                          checks)


def check_repair_determinism(code, budget: Budget) -> PropertyResult:
    """Given a share and k-1 helper transmissions, the rest add nothing."""
    t = code.truncate()
    p = t.params
    checks = 0
    for i in t.nodes:
        others = [x for x in t.nodes if x != i]
        for first in itertools.combinations(others, p.k - 1):
            base = _entropy(t, Stored((i,)), RepairFromTo(first, (i,)))
            full = _entropy(t, Stored((i,)), RepairFromTo(others, (i,)))
            checks += 1
            if base != full:
                return PropertyResult(
                    "lemma.repair_determinism", _describe(code), False,
                    checks, {"node": i, "first_helpers": list(first),
                             "with_first": base, "with_all": full})
    return PropertyResult("lemma.repair_determinism", _describe(code), True,
                          checks)


def check_secure_size(code, budget: Budget) -> PropertyResult:
    """H(repairs to F | shares of E and F) equals H(repairs from G to F)."""
    t = code.truncate()
    k = t.params.k
    nodes = list(t.nodes)
    checks = 0
    for l1, l2 in _shape_pairs(k):
        g = k - l1 - l2
        for model in secrecy.enumerate_models(t, l1, l2):
            stored, repaired = model.stored, model.repaired
            rest = [x for x in nodes if x not in stored + repaired]
            lhs = conditional_entropy(t.observe(RepairTo(repaired)),
                                      t.observe(Stored(stored + repaired)))
            for group in itertools.combinations(rest, g):
                rhs = _entropy(t, RepairFromTo(group, repaired))
                checks += 1
                if lhs != rhs:
                    return PropertyResult(
                        "lemma.secure_size", _describe(code), False,
                        checks, {"stored": list(stored),
                                 "repaired": list(repaired),
                                 "fresh": list(group),
                                 "conditional": lhs, "direct": rhs})
    return PropertyResult("lemma.secure_size", _describe(code), True, checks)


def check_helper_symmetry(code, budget: Budget) -> PropertyResult:
    """Every helper's transmissions toward F carry the same entropy."""
    t = code.truncate()
    nodes = list(t.nodes)
    checks = 0
    for size in range(1, t.params.k):
        for repaired in itertools.combinations(nodes, size):
            outside = [x for x in nodes if x not in repaired]
            values = {}
            for helper in outside:
                values[helper] = _entropy(
                    t, RepairFromTo((helper,), repaired))
                checks += 1
            if len(set(values.values())) > 1:
                return PropertyResult(
                    "lemma.helper_symmetry", _describe(code), False, checks,
                    {"repaired": list(repaired), "values": values})
    return PropertyResult("lemma.helper_symmetry", _describe(code), True,
                          checks)


def check_express(code, budget: Budget) -> PropertyResult:
    """Repairs to a set J reduce triangularly: later failures need only
    helpers outside the earlier ones."""
    t = code.truncate()
    nodes = list(t.nodes)
    checks = 0
    for size in range(1, budget.express_limit + 1):
        if size > len(nodes):
            break
        for group in itertools.combinations(nodes, size):
            full = _entropy(t, RepairTo(group))
            for order in itertools.permutations(group):
                selectors = []
                for idx, j in enumerate(order):
                    helpers = [x for x in nodes if x not in order[:idx + 1]]
                    selectors.append(RepairFromTo(helpers, (j,)))
                reduced = _entropy(t, *selectors)
                checks += 1
                if reduced != full:
                    return PropertyResult(
                        "lemma.express", _describe(code), False, checks,
                        {"order": list(order), "full": full,
                         "triangular": reduced})
    return PropertyResult("lemma.express", _describe(code), True, checks)


def check_scalar_repair_rank(code, budget: Budget) -> PropertyResult:
    """In the exact regime, one helper's view of repairs to F has rank |F|beta."""
    t = code.truncate()
    p = t.params
    nodes = list(t.nodes)
    checks = 0
    for size in range(1, p.k):
        if p.beta * (size - 1) >= p.d - p.k + 1:
            continue  # only claimed in the exact regime
        for repaired in itertools.combinations(nodes, size):
            for helper in nodes:
                if helper in repaired:
                    continue
                got = _entropy(t, RepairFromTo((helper,), repaired))
                checks += 1
                if got != size * p.beta:
                    return PropertyResult(
                        "thm.scalar_repair_rank", _describe(code), False,
                        checks, {"helper": helper, "repaired": list(repaired),
                                 "observed": got,
                                 "expected": size * p.beta})
    return PropertyResult("thm.scalar_repair_rank", _describe(code), True,
                          checks)


def check_simple_bound(code, budget: Budget) -> PropertyResult:
    """Achieved secure size never exceeds (k-l1-l2)(alpha - H(one helper's view))."""
    p = code.params
    models, seed = _sampled_models(code, _shape_pairs(p.k), budget,
                                   "simple_bound")
    checks = 0
    for model in models:
        achieved = secrecy.achieved_secure_size(code, model)
        survivors = p.k - model.l1 - model.l2
        outside = [x for x in code.nodes
                   if x not in model.stored and x not in model.repaired]
        for g in outside:
            view = (_entropy(code, RepairFromTo((g,), model.repaired))
                    if model.repaired else 0)
            bound = survivors * (p.alpha - view)
            checks += 1
            if achieved > bound:
                return PropertyResult(
                    "thm.simple_bound", _describe(code), False, checks,
                    {"stored": list(model.stored),
                     "repaired": list(model.repaired), "fresh": g,
                     "achieved": achieved, "bound": bound}, seed)
    return PropertyResult("thm.simple_bound", _describe(code), True, checks,
                          None, seed)


def check_capacity_exact(code, budget: Budget) -> PropertyResult:
    """Exact-regime models achieve (k-l1-l2)(alpha - l2*beta) exactly."""
    p = code.params
    models, seed = _sampled_models(code, _shape_pairs(p.k), budget,
                                   "capacity_exact")
    checks = 0
    for model in models:
        if p.beta * (model.l2 - 1) >= p.d - p.k + 1:
            continue
        achieved = secrecy.achieved_secure_size(code, model)
        expected = ((p.k - model.l1 - model.l2)
                    * (p.alpha - model.l2 * p.beta))
        checks += 1
        if achieved != expected:
            return PropertyResult(
                "cor.capacity_exact", _describe(code), False, checks,
                {"stored": list(model.stored),
                 "repaired": list(model.repaired),
                 "achieved": achieved, "expected": expected}, seed)
    return PropertyResult("cor.capacity_exact", _describe(code), True,
                          checks, None, seed)


def check_stability(code, budget: Budget) -> PropertyResult:
    """Repair reproduces the lost share exactly, whatever helpers are used."""
    p = code.params
    rng = random.Random(budget.seed)
    message = [rng.randrange(code.field.order)
               for _ in range(p.message_length)]
    shares = code.encode(message)
    checks = 0
    seed_used = None
    for f in code.nodes:
        others = [x for x in code.nodes if x != f]
        groups, seed = _subsets(others, p.d, budget, f"stability:{f}")
        if seed is not None:
            seed_used = seed
        for helpers in groups:
            symbols = {h: code.repair_symbol(h, f, shares[h - 1])
                       for h in helpers}
            rebuilt = code.repair(f, symbols)
            checks += 1
            if rebuilt != shares[f - 1]:
                return PropertyResult(
                    "def.stability", _describe(code), False, checks,
                    {"failed": f, "helpers": list(helpers)}, seed_used)
    return PropertyResult("def.stability", _describe(code), True, checks,
                          None, seed_used)


def check_truncation(code, budget: Budget) -> PropertyResult:
    """Dropping nodes beyond d+1 changes no model's leakage."""
    p = code.params
    if p.n == p.d + 1:
        return PropertyResult("lemma.truncation", _describe(code), True, 0,
                              {"note": "n == d+1, nothing to truncate"})
    small = code.truncate()
    checks = 0
    for l1, l2 in _shape_pairs(p.k):
        for model in secrecy.enumerate_models(small, l1, l2):
            full = secrecy.leakage(code, model)
            reduced = secrecy.leakage(small, model)
            checks += 1
            if full != reduced:
                return PropertyResult(
                    "lemma.truncation", _describe(code), False, checks,
                    {"stored": list(model.stored),
                     "repaired": list(model.repaired),
                     "full": full, "truncated": reduced})
    return PropertyResult("lemma.truncation", _describe(code), True, checks)


def check_perfect_secrecy(code, budget: Budget) -> PropertyResult:
    """Worst-case-sized wrapping is independent of every model's view."""
    checks = 0
    seed_used = None
    for l1, l2 in _shape_pairs(code.params.k):
        ell = secrecy.worst_case_leakage(code, l1, l2)
        if ell >= code.params.message_length:
            continue  # nothing can be stored at this shape
        models, seed = _sampled_models(code, [(l1, l2)], budget, "shape")
        if seed is not None:
            seed_used = seed
        for model in models:
            # verify_perfect's F-rank criterion, for a scheme of size ell
            ok = secrecy.leakage(code, model) <= ell
            checks += 1
            if not ok:
                return PropertyResult(
                    "scheme.perfect_secrecy", _describe(code), False, checks,
                    {"l1": l1, "l2": l2, "stored": list(model.stored),
                     "repaired": list(model.repaired)}, seed_used)
    return PropertyResult("scheme.perfect_secrecy", _describe(code), True,
                          checks, None, seed_used)


REGISTRY: list[tuple[str, object]] = [
    ("msr.node_entropy", check_node_entropy),
    ("msr.link_entropy", check_link_entropy),
    ("msr.reconstruction", check_reconstruction),
    ("lemma.repair_independence", check_repair_independence),
    ("lemma.repair_determinism", check_repair_determinism),
    ("lemma.secure_size", check_secure_size),
    ("lemma.helper_symmetry", check_helper_symmetry),
    ("lemma.express", check_express),
    ("thm.scalar_repair_rank", check_scalar_repair_rank),
    ("thm.simple_bound", check_simple_bound),
    ("cor.capacity_exact", check_capacity_exact),
    ("def.stability", check_stability),
    ("lemma.truncation", check_truncation),
    ("scheme.perfect_secrecy", check_perfect_secrecy),
]

PROPERTY_IDS = [name for name, _ in REGISTRY]


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
