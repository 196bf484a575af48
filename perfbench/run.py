#!/usr/bin/env python3
"""Benchmark of the rsl command line: fresh-process flows on three clusters.

    python3 perfbench/run.py --workload plain-cluster --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one fresh ``rsl`` process
at a time, launched through rslcall.py, and the next starts only after the
previous one has exited.  Inputs come from --seed only.  Every call's
output is checked.  --trace 0 prints the end-to-end metrics, --trace 1
replays the same operations through the span and counter recorders in
tracer.py and prints the per-layer metrics.  The last line of stdout is
one JSON object; the lines above it list every metric with its unit.
README.md in this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WRAPPER = HERE / "rslcall.py"

CALL_TIMEOUT_S = 60.0   # a call that runs longer counts as failed
HARD_LIMIT_S = 160.0    # no call runs past this, counted from start-up
SETUPS = 3              # set-ups per timed run; setup_s is their median

# The host this runs on shares its CPUs, and its speed drifts by a third
# over minutes, moving every call of a run together.  A timed run therefore
# also times a fixed reference process before every call: interpreter
# start-up plus GF(256) table arithmetic in plain Python, the same kind of
# work rsl does, with no rsl code in it.  Each wall time is scaled by
# REFERENCE_S / (median of the five reference times nearest to it), so
# timing metrics read as seconds on a host where the reference takes
# REFERENCE_S; the raw values are printed beside them.
REFERENCE_S = 0.075
REFERENCE = """
exp, log, x = [0] * 512, [0] * 256, 1
for i in range(255):
    exp[i] = exp[i + 255] = x
    log[x] = i
    x = (x << 1) ^ (0x11d if x & 0x80 else 0)
acc = 0
for _ in range(4):
    for a in range(1, 256):
        for b in range(1, 256):
            acc ^= exp[log[a] + log[b]]
"""


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    d: int
    m: int
    field: str
    secure: tuple[int, int] | None
    payload_bytes: int  # the cluster's whole capacity minus 4 framing bytes
    verify: bool


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "plain-cluster": Workload(17, 9, 16, 4, "2,8", None, 284, False),
    "secure-cluster": Workload(9, 5, 8, 1, "2,4", (1, 1), 86, False),
    "verify": Workload(6, 3, 4, 1, "2,8", None, 2, True),
}

KINDS = ("encode", "repair", "reconstruct", "attack", "verify")

# Every metric a run prints, with its unit.  The final JSON line carries
# the ones BENCHMARK.json lists; README.md says why the others are left out.
END_TO_END = {
    "reference_s": "s", "setup_s": "s", "encode_p50_s": "s", "repair_p50_s": "s",
    "reconstruct_p50_s": "s", "attack_p50_s": "s", "verify_p50_s": "s",
    "ops_per_s": "1/s", "error_rate": "ratio",
    "stored_bytes_per_payload_byte": "B/B", "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: "_s" is a total self time, "_count"
# a number of calls, both summed over the traced calls.
_HARNESS = ("msr.node_entropy", "msr.link_entropy", "msr.reconstruction",
            "lemma.repair_independence", "lemma.repair_determinism",
            "lemma.secure_size", "lemma.helper_symmetry", "lemma.express",
            "thm.scalar_repair_rank", "thm.simple_bound",
            "cor.capacity_exact", "def.stability", "lemma.truncation",
            "scheme.perfect_secrecy")
_UNITS = {
    "cluster.symbols_read": "symbols", "cluster.repair_symbols_sent": "symbols",
    "cluster.reconstruct_symbols_read": "symbols",
    "product_matrix.rows_emitted": "rows", "matrix.elim_cells": "cells",
    "matrix.ext_elim_cells": "cells", "trace.overhead": "ratio",
    "trace.accounted": "ratio", "trace.in_layers": "ratio",
}
PER_LAYER = {name: _UNITS.get(name, "s" if name.endswith("_s") else "count")
             for name in (
    "cli.interpreter_s", "cli.import_s", "cli.main_s", "cli.process_s",
    "cluster.load_count", "cluster.load_s", "cluster.create_s",
    "cluster.fail_repair_s", "cluster.reconstruct_payload_s",
    "cluster.attack_s", "cluster.verify_cluster_s",
    "cluster.read_share_count", "cluster.symbols_read",
    "cluster.events_parsed", "cluster.repair_symbols_sent",
    "cluster.reconstruct_symbols_read",
    "product_matrix.init_count", "product_matrix.init_s",
    "product_matrix.encode_s", "product_matrix.repair_symbol_s",
    "product_matrix.repair_s", "product_matrix.reconstruct_count",
    "product_matrix.reconstruct_s", "product_matrix.observation_rows_s",
    "product_matrix.rows_emitted",
    "secrecy.scheme_init_count", "secrecy.scheme_init_s", "secrecy.wrap_s",
    "secrecy.unwrap_s", "secrecy.leakage_count", "secrecy.leakage_s",
    "secrecy.worst_case_leakage_s", "secrecy.verify_perfect_count",
    "secrecy.verify_perfect_s", "secrecy.attack_report_s",
    "entropy.joint_entropy_count", "entropy.joint_entropy_s",
    "matrix.rank_count", "matrix.rank_s", "matrix.solve_count",
    "matrix.solve_s", "matrix.inverse_s", "matrix.matmul_s",
    "matrix.elim_cells", "matrix.ext_rank_s", "matrix.ext_solve_s",
    "matrix.ext_inverse_s", "matrix.ext_matmul_s", "matrix.ext_elim_cells",
    "field.spec_build_count", "field.spec_build_s", "field.ext_build_count",
    "field.ext_build_s", "field.base_mul_count", "field.ext_mul_count",
    "field.inv_count",
    "capacity.secrecy_capacity_count",
    "harness.checks", *(f"harness.{pid}_s" for pid in _HARNESS),
    "trace.calls", "trace.overhead", "trace.accounted", "trace.in_layers",
)}


class SetupFailed(Exception):
    pass


# -- the seeded operation script

def generation(w: Workload, rng: random.Random) -> dict:
    gen = {"payload": rng.randbytes(w.payload_bytes)}
    if w.secure is not None:
        gen["seed"] = rng.randrange(1 << 31)
    return gen


def make_script(name: str, seed: int):
    """First generation, then an endless stream of cycles, all from seed.

    A cycle repairs a seeded node from a seeded d-helper set, reconstructs
    from a seeded k-subset, attacks with a seeded (1,1) model whose
    repaired node is the one just repaired, verifies on the verify
    workload, and encodes the next generation's fresh cluster.  The fixed
    op order keeps each op type's share of calls the same on every seed.
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    first = generation(w, rng)

    def cycles():
        nodes = range(1, w.n + 1)
        while True:
            failed = rng.choice(nodes)
            others = [x for x in nodes if x != failed]
            yield {"failed": failed,
                   "helpers": sorted(rng.sample(others, w.d)),
                   "nodes": sorted(rng.sample(nodes, w.k)),
                   "stored": rng.choice(others),
                   "next": generation(w, rng)}
    return first, cycles()


def script_digest(name: str, seed: int, cycles: int = 16) -> str:
    first, stream = make_script(name, seed)
    h = hashlib.sha256(repr(first).encode())
    for _ in range(cycles):
        h.update(repr(next(stream)).encode())
    return h.hexdigest()


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def encode_args(w: Workload, cluster: str, gen: dict, payload: str):
    args = ["encode", "--cluster", cluster, "--n", str(w.n), "--k", str(w.k),
            "--d", str(w.d), "--m", str(w.m), "--field", w.field]
    if w.secure is not None:
        args += ["--secure", _ints(w.secure), "--seed", str(gen["seed"])]
    return args + [payload]


def cycle_ops(w: Workload, index: int, cyc: dict):
    """(kind, cluster the op reads or writes, rsl arguments) in order."""
    here, nxt = f"g{index}", f"g{index + 1}"
    ops = [
        ("repair", here, ["fail-repair", "--cluster", here, "--node",
                          str(cyc["failed"]), "--helpers",
                          _ints(cyc["helpers"])]),
        ("reconstruct", here, ["reconstruct", "--cluster", here, "--nodes",
                               _ints(cyc["nodes"])]),
        ("attack", here, ["attack", "--cluster", here, "--stored",
                          str(cyc["stored"]), "--repair", str(cyc["failed"]),
                          "--json"]),
    ]
    if w.verify:
        ops.append(("verify", here, ["verify", "--cluster", here]))
    ops.append(("encode", nxt,
                encode_args(w, nxt, cyc["next"], f"../inputs/{nxt}.bin")))
    return ops


# -- running and checking calls

@dataclass
class Result:
    wall: float
    rc: int | None
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0  # this process's own peak resident set

    @property
    def timed_out(self) -> bool:
        return self.rc is None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _env()

    def run(self, cmd, cwd: Path) -> Result:
        """Run cmd to its end; os.wait4 gives this process's own rusage."""
        timeout = min(CALL_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Result(0.0, None, b"", b"no time left")
        with open(self.work / "call.out", "w+b") as out, \
                open(self.work / "call.err", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            fired = []

            def kill():
                fired.append(True)
                os.kill(proc.pid, signal.SIGKILL)
            killer = threading.Timer(timeout, kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if fired:
                return Result(wall, None, b"", b"timeout")
            out.seek(0)
            err.seek(0)
            return Result(wall, proc.returncode, out.read(), err.read(),
                          usage.ru_maxrss)

    def rsl(self, args, where: str = "run", mode: str | None = None,
            out: Path | None = None) -> Result:
        cmd = [sys.executable, str(WRAPPER)]
        if mode is not None:
            cmd += [f"--{mode}", str(out)]
        return self.run(cmd + list(args), self.work / where)

    def reference(self) -> float:
        return self.run([sys.executable, "-c", REFERENCE], self.work).wall


def snapshot(cluster: Path) -> dict[str, bytes]:
    if not cluster.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(cluster.iterdir())}


def _shares(snap: dict) -> int:
    return sum(len(v) for k, v in snap.items() if k.startswith("share_"))


def check(w: Workload, kind: str, res: Result, before: dict, after: dict,
          cyc: dict | None, payload: bytes | None) -> str | None:
    """Why the call's output is wrong, or None when it is right."""
    if res.timed_out:
        return f"timed out ({res.stderr.decode()})"
    if res.rc != 0 or b"Traceback" in res.stderr:
        return f"exit {res.rc}: {res.stderr.decode(errors='replace')[-300:]}"
    if kind == "encode":
        shares = [k for k in after if k.startswith("share_")]
        if len(shares) != w.n or "meta.json" not in after:
            return f"encode left {len(shares)} share files"
    elif kind == "repair":
        share = f"share_{cyc['failed']}.bin"
        if after.get(share) != before.get(share):
            return f"repair changed {share}"
        added = (after.get("events.jsonl", b"").count(b"\n")
                 - before.get("events.jsonl", b"").count(b"\n"))
        if added != 1:
            return f"repair appended {added} event lines"
    elif kind == "reconstruct":
        if res.stdout != payload:
            return "reconstructed payload differs"
    elif kind == "attack":
        try:
            report = json.loads(res.stdout)
        except ValueError:
            return "attack --json printed no JSON"
        if report.get("match") is not True:
            return "attack reports match: false"
        if w.secure is not None and report.get("perfect") is not True:
            return "attack reports perfect: false on a secure cluster"
    elif kind == "verify":
        if any(line.startswith(b"FAIL") for line in res.stdout.splitlines()):
            return "verify printed FAIL"
    return None


class Session:
    """One workload's work directory, script and call bookkeeping."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float,
                 passes=("run",)):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.runner = Runner(work, deadline)
        self.passes = passes
        self.digest = hashlib.sha256()
        self.payloads = {}
        self.attempted = self.failed = 0
        self.problems = []
        self.cycle = 0
        for sub in ("inputs",) + tuple(passes):
            (work / sub).mkdir(parents=True, exist_ok=True)

    def write_payload(self, cluster: str, gen: dict):
        self.payloads[cluster] = gen["payload"]
        (self.work / "inputs" / f"{cluster}.bin").write_bytes(gen["payload"])

    def record(self, kind, args, res: Result, after: dict):
        h = self.digest
        h.update(f"{kind} {' '.join(args)}\n".encode())
        h.update(res.stdout)
        for fname, blob in after.items():
            h.update(fname.encode() + b"\0" + blob)

    def setup(self, cluster: str):
        """Seeded inputs plus the starting cluster; returns its snapshot."""
        first, _ = make_script(self.name, self.seed)
        self.write_payload("g0", first)
        args = encode_args(self.w, cluster, first, "../inputs/g0.bin")
        res = self.runner.rsl(args)
        after = snapshot(self.work / "run" / cluster)
        why = check(self.w, "encode", res, {}, after, None, None)
        if why is not None:
            raise SetupFailed(f"set-up encode: {why}")
        return args, res, after

    def drop(self, cluster: str, passes):
        for sub in passes:
            shutil.rmtree(self.work / sub / cluster, ignore_errors=True)

    def problem(self, kind: str, why: str):
        self.problems.append(f"cycle {self.cycle} {kind}: {why}")

    def cycles(self, seconds: float, call) -> int:
        """Run seeded cycles while less than seconds has passed.

        call(kind, cluster, args) runs one op and returns the Result to
        check.  A failed call skips the rest of its cycle, except the
        encode of the next generation.  Only set-up and cycle 0 feed the
        digest, so every run of a seed prints the same digest however many
        cycles fit in its time.  Returns the number of cycles run.
        """
        _, stream = make_script(self.name, self.seed)
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               and time.perf_counter() < self.runner.deadline):
            cyc = next(stream)
            self.write_payload(f"g{self.cycle + 1}", cyc["next"])
            skip = False
            for kind, cluster, args in cycle_ops(self.w, self.cycle, cyc):
                if skip and kind != "encode":
                    continue
                path = self.work / "run" / cluster
                before = snapshot(path)
                res = call(kind, cluster, args)
                after = snapshot(path)
                self.attempted += 1
                why = check(self.w, kind, res, before, after, cyc,
                            self.payloads[cluster])
                if why is not None:
                    self.failed += 1
                    skip = True
                    self.problem(kind, why)
                if self.cycle == 0:
                    self.record(kind, args, res, after)
            self.drop(f"g{self.cycle}", self.passes)
            self.cycle += 1
        return self.cycle

    def outcome(self, metrics: dict) -> dict:
        return {"cycles": self.cycle, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems,
                "metrics": metrics, "digest": self.digest.hexdigest()}


# -- the timed run

def _median(values):
    return statistics.median(values) if values else 0.0


def timed_run(name: str, seed: int, seconds: float, deadline,
              work: Path) -> dict:
    s = Session(name, seed, work, deadline)
    w = s.w
    s.runner.rsl(["--help"])  # compile rsl's bytecode before any timing
    references = []
    timings = []  # (kind, wall time, index of the reference just before)
    rss_kb = []   # each timed rsl call's own peak resident set
    for i in range(SETUPS):
        cluster = "g0" if i == 0 else f"setup{i}"
        references.append(s.runner.reference())
        start = time.perf_counter()
        args, res, after = s.setup(cluster)
        # the set-up's encode is one more encode sample
        timings.append(("setup", time.perf_counter() - start,
                        len(references) - 1))
        timings.append(("encode", res.wall, len(references) - 1))
        rss_kb.append(res.maxrss_kb)
        if i == 0:
            s.record("encode", args, res, after)
            first = after
        else:
            if after != first:
                s.problems.append(f"set-up {i} differs from set-up 0")
            s.drop(cluster, ["run"])
    stored_ratio = _shares(first) / w.payload_bytes
    loop_from = len(timings)

    def call(kind, cluster, args):
        references.append(s.runner.reference())
        res = s.runner.rsl(args)
        timings.append((kind, res.wall, len(references) - 1))
        rss_kb.append(res.maxrss_kb)
        return res
    s.cycles(seconds, call)
    references.append(s.runner.reference())  # the one after the last call

    raw, scaled = defaultdict(list), defaultdict(list)
    busy = busy_scaled = 0.0  # the loop's calls, without the references
    for n, (kind, wall, i) in enumerate(timings):
        near = _median(references[max(0, i - 2):i + 3]) or REFERENCE_S
        raw[kind].append(wall)
        scaled[kind].append(wall * REFERENCE_S / near)
        if n >= loop_from:
            busy += wall
            busy_scaled += scaled[kind][-1]
    completed = s.attempted - s.failed
    metrics = {
        "reference_s": (_median(references), f"median of {len(references)}"),
        "ops_per_s": (completed / busy_scaled if busy else 0.0,
                      f"raw {completed / busy if busy else 0:.6g}, "
                      f"{completed} completed calls in {busy:.2f} s"),
        "error_rate": (s.failed / s.attempted if s.attempted else 0.0,
                       f"{s.failed} of {s.attempted}"),
        "stored_bytes_per_payload_byte": (
            stored_ratio, f"{_shares(first)} B of shares per "
                          f"{w.payload_bytes} B"),
        "peak_rss_mb": (max(rss_kb) / 1024,
                        f"largest ru_maxrss of {len(rss_kb)} rsl calls"),
    }
    for kind in ("setup",) + KINDS:
        if raw[kind]:
            name_ = "setup_s" if kind == "setup" else f"{kind}_p50_s"
            metrics[name_] = (_median(scaled[kind]),
                              f"raw {_median(raw[kind]):.6g}, "
                              f"n={len(raw[kind])}" + _tail_note(raw[kind]))
    return s.outcome(metrics)


def _tail_note(values) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return f", p{pct}={q:.4f} s"
    return ", no tail percentile (fewer than 10 samples beyond p90)"


# -- the traced run

PASSES = ("run", "spans", "counts")


def _self_times(path: Path):
    """(import_s, counters, {span name: [calls, total self time]})."""
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, _, start, end) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - covered[i]
    return head["import_s"], head["counters"], out


def traced_run(name: str, seed: int, seconds: float, deadline,
               work: Path) -> dict:
    s = Session(name, seed, work, deadline, PASSES)
    warm = work / "warm.jsonl"
    s.runner.rsl(["--help"], mode="spans", out=warm)
    args, res, after = s.setup("g0")
    s.record("encode", args, res, after)

    layer = Counter()          # metric name -> summed value
    wall = Counter()           # interpreter, untraced and traced wall time
    spans_file = work / "spans.jsonl"
    counts_file = work / "counts.json"

    def call(kind, cluster, args):
        for sub in PASSES[1:]:
            s.drop(cluster, [sub])
            if (work / "run" / cluster).is_dir():
                shutil.copytree(work / "run" / cluster, work / sub / cluster)
        spans_file.unlink(missing_ok=True)
        counts_file.unlink(missing_ok=True)
        interp = s.runner.run([sys.executable, "-c", "pass"], work).wall
        # alternate which of the pair runs first, so that drift in host
        # speed does not bias trace.overhead
        if s.attempted % 2:
            res_sp = s.runner.rsl(args, "spans", "spans", spans_file)
            res = s.runner.rsl(args)
        else:
            res = s.runner.rsl(args)
            res_sp = s.runner.rsl(args, "spans", "spans", spans_file)
        res_ct = s.runner.rsl(args, "counts", "counts", counts_file)
        run_after = snapshot(work / "run" / cluster)
        for sub, r in (("spans", res_sp), ("counts", res_ct)):
            if ((r.stdout, r.rc, snapshot(work / sub / cluster))
                    != (res.stdout, res.rc, run_after)):
                s.problem(kind, f"{sub} output differs from the untraced call")
        if not (spans_file.exists() and counts_file.exists()):
            s.problem(kind, "a traced call wrote no trace")
            return res
        wall["calls"] += 1
        wall["interpreter"] += interp
        wall["untraced"] += res.wall
        wall["traced"] += res_sp.wall
        import_s, counters, selfs = _self_times(spans_file)
        layer["cli.import_s"] += import_s
        layer.update(counters)
        for span, (count, total) in selfs.items():
            layer[f"{span}_count"] += count
            layer[f"{span}_s"] += total
        layer.update(json.loads(counts_file.read_text()))
        return res
    s.cycles(seconds, call)

    span_self = sum(v for k, v in layer.items()
                    if k.endswith("_s") and k != "cli.import_s")
    traced = wall["traced"]
    layer["cli.interpreter_s"] = wall["interpreter"]
    layer["cli.process_s"] = traced
    layer["trace.calls"] = wall["calls"]
    layer["trace.overhead"] = (traced / wall["untraced"] - 1
                               if wall["untraced"] else 0.0)
    if traced:
        # cli.main is the root span and takes all time no other span
        # covers, so accounted is about 1 by construction; in_layers is
        # the share the named layers below cli.main account for
        layer["trace.accounted"] = (wall["interpreter"] + layer["cli.import_s"]
                                    + span_self) / traced
        layer["trace.in_layers"] = (span_self - layer["cli.main_s"]) / traced
    return s.outcome({m: (layer.get(m, 0), "") for m in PER_LAYER})


# -- reporting

def report(name: str, seed: int, trace: bool, out: dict, units: dict,
           carried: set) -> dict:
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"cycles {out['cycles']}  calls {out['attempted']}  "
          f"failed {out['failed']}")
    print(f"script_digest {script_digest(name, seed)}")
    print(f"digest {out['digest']}")
    for problem in out["problems"]:
        print(f"problem {problem}")
    shown = {}
    for metric, unit in units.items():
        if metric not in out["metrics"]:
            continue
        value, note = out["metrics"][metric]
        print(f"metric {metric:36} {value:>16.6g} {unit:8} {note}")
        if metric in carried:
            shown[metric] = {"value": value, "unit": unit}
    return shown


def run_workload(name, seed, seconds, trace, deadline, carried):
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        fn = traced_run if trace else timed_run
        out = fn(name, seed, seconds, deadline, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = report(name, seed, trace, out,
                     PER_LAYER if trace else END_TO_END, carried)
    correct = out["failed"] == 0 and not out["problems"]
    return {"correct": correct, "attempted": max(out["attempted"], 1),
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rsl" / "cli.py").is_file():
        print(f"error: no rsl sources at {SRC}", file=sys.stderr)
        return 2
    # a terminated run kills its running call and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    carried = {m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace),
                                         time.perf_counter() + HARD_LIMIT_S,
                                         carried)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
