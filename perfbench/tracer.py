"""Span and counter recorders patched onto rsl's public functions.

``spans`` mode wraps one function per layer boundary.  Each call appends
``[name, parent index, start, end]`` to an in-memory list, and the list is
written as JSONL when the command returns; run.py turns it into self times
(a span's duration minus what its child spans cover).  Counters for the
quantities the paper cares about (symbols read, d*beta repair symbols sent,
k*alpha symbols read per reconstruct, rows eliminated) ride on the same
wrappers.

``counts`` mode counts field multiplications and inversions only.  Those
run millions of times per call, so they are counted in a separate process
and their wrapper cost never inflates a span's self time.

Names are patched where callers look them up: methods on their classes,
functions in every module that imported them by name (``joint_entropy``
is bound in entropy, secrecy and harness), and the harness registry
entries in place.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from time import perf_counter

import rsl.cli
from rsl import capacity, cluster, entropy, field, harness, matrix, secrecy
from rsl import product_matrix


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def span(self, fn, name, after=None):
        """Wrap fn in a span; name may be a function of the call's args."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name(args) if callable(name) else name,
                     stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def count(self, fn, after):
        """Wrap fn with a counter hook only, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper


def _patch(owner, attr, make):
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _ext(m) -> str:
    return "ext_" if isinstance(m.field, field.ExtensionSpec) else ""


def install_spans(rec: Recorder):
    c = rec.counters
    span, count = rec.span, rec.count

    def on(owner, attr, name, after=None):
        _patch(owner, attr, lambda fn: span(fn, name, after))

    # field
    on(field.FieldSpec, "__init__", "field.spec_build")
    on(field.ExtensionSpec, "__init__", "field.ext_build")

    # matrix: over F and over an extension L, told apart by the field
    def matrix_op(attr, op, cells=None):
        def after(args, result):
            if cells is not None:
                c[f"matrix.{_ext(args[0])}elim_cells"] += cells(args)
        on(matrix.Matrix, attr, lambda args: f"matrix.{_ext(args[0])}{op}",
           after)
    matrix_op("rank", "rank", lambda a: a[0].nrows * a[0].ncols)
    matrix_op("solve", "solve",
              lambda a: a[0].nrows * (a[0].ncols + a[1].ncols))
    matrix_op("inverse", "inverse", lambda a: a[0].nrows * 2 * a[0].ncols)
    matrix_op("__matmul__", "matmul")

    # entropy, bound by name in three modules
    joint = span(entropy.joint_entropy, "entropy.joint_entropy")
    for module in (entropy, secrecy, harness):
        module.joint_entropy = joint

    # product_matrix
    pmc = product_matrix.ProductMatrixCode
    on(pmc, "__init__", "product_matrix.init")
    on(pmc, "encode", "product_matrix.encode")
    on(pmc, "repair", "product_matrix.repair")
    on(pmc, "reconstruct", "product_matrix.reconstruct")

    def sent(args, result):
        if rec.inside("cluster.fail_repair"):
            c["cluster.repair_symbols_sent"] += len(result)
    on(pmc, "repair_symbol", "product_matrix.repair_symbol", sent)

    def emitted(args, result):
        c["product_matrix.rows_emitted"] += len(result)
    on(pmc, "observation_rows", "product_matrix.observation_rows", emitted)

    # secrecy
    on(secrecy.SecureScheme, "__init__", "secrecy.scheme_init")
    on(secrecy.SecureScheme, "wrap", "secrecy.wrap")
    on(secrecy.SecureScheme, "unwrap", "secrecy.unwrap")
    for fn in ("leakage", "worst_case_leakage", "verify_perfect",
               "attack_report"):
        on(secrecy, fn, f"secrecy.{fn}")

    # capacity
    def formula(args, result):
        c["capacity.secrecy_capacity_count"] += 1
    _patch(capacity, "secrecy_capacity", lambda fn: count(fn, formula))

    # harness: registry entries replaced in place
    def checks(args, result):
        c["harness.checks"] += result.checks
    for i, (pid, fn) in enumerate(harness.REGISTRY):
        harness.REGISTRY[i] = (pid, span(fn, f"harness.{pid}", checks))

    # cluster
    cs = cluster.ClusterState
    for attr in ("load", "create", "fail_repair", "reconstruct_payload",
                 "attack", "verify_cluster"):
        on(cs, attr, f"cluster.{attr}")

    def read(args, result):
        c["cluster.read_share_count"] += 1
        c["cluster.symbols_read"] += len(result)
        if rec.inside("cluster.reconstruct_payload"):
            c["cluster.reconstruct_symbols_read"] += len(result)
    _patch(cs, "read_share", lambda fn: count(fn, read))

    def parsed(args, result):
        c["cluster.events_parsed"] += len(result)
    _patch(cs, "events", lambda fn: count(fn, parsed))


def install_counts() -> dict:
    """Count field multiplications and inversions; returns the counters."""
    counters = {"field.base_mul_count": itertools.count(),
                "field.ext_mul_count": itertools.count(),
                "field.inv_count": itertools.count()}

    def counted(fn, tick):
        @functools.wraps(fn)
        def wrapper(self, *args):
            tick()
            return fn(self, *args)
        return wrapper

    for cls, mul in ((field.FieldSpec, "field.base_mul_count"),
                     (field.ExtensionSpec, "field.ext_mul_count")):
        _patch(cls, "mul", lambda fn: counted(fn, counters[mul].__next__))
        _patch(cls, "inv",
               lambda fn: counted(fn, counters["field.inv_count"].__next__))
    return counters


def run(mode: str, out: str, import_s: float, argv) -> int:
    """Run rsl.cli.main(argv) under the recorders of mode; write to out."""
    if mode == "spans":
        rec = Recorder()
        install_spans(rec)
        main = rec.span(rsl.cli.main, "cli.main")
    else:
        counters = install_counts()
        main = rsl.cli.main
    try:
        return main(argv)
    finally:
        with open(out, "w") as fh:
            if mode == "spans":
                head = {"import_s": import_s, "counters": dict(rec.counters)}
                fh.write(json.dumps(head) + "\n")
                for name, parent, start, end in rec.spans:
                    fh.write(json.dumps([name, parent, start, end]) + "\n")
            else:
                # next() on a fresh count returns how many ticks came before
                fh.write(json.dumps({k: next(v) for k, v in counters.items()})
                         + "\n")
