"""Smoke test of the benchmark: every workload at minimal length.

    python3 -m pytest perfbench/test_smoke.py

Each run is one cycle, since the loop checks the time only before a cycle.
Checks that every metric is printed with its unit, that no call failed,
that the final JSON line carries exactly the metrics BENCHMARK.json
declares, that the same seed gives the same output digest, and that
plain-cluster never touches an extension field.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(workload, trace=0, seed=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.001", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    printed = {}
    digest = None
    for line in lines[:-1]:
        word, _, rest = line.partition(" ")
        if word == "metric":
            name, value, unit = rest.split()[:3]
            printed[name] = (float(value), unit)
        elif word == "digest":
            digest = rest
    return printed, json.loads(lines[-1]), digest


def _expected(units, workload):
    return {name: unit for name, unit in units.items()
            if name != "verify_p50_s" or workload == "verify"}


def _carried(final, kind):
    """The JSON line carries exactly BENCHMARK.json's metrics and units."""
    return ({k: v["unit"] for k, v in final["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[kind]})


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_timed_run_prints_every_metric(workload):
    printed, final, _ = _bench(workload)
    assert {k: u for k, (_, u) in printed.items()} == _expected(
        run.END_TO_END, workload)
    assert printed["error_rate"][0] == 0
    assert final["correct"] and final["failed"] == 0
    assert _carried(final, "end_to_end")


def test_traced_plain_cluster_never_builds_an_extension():
    printed, final, _ = _bench("plain-cluster", trace=1)
    assert {k: u for k, (_, u) in printed.items()} == _expected(
        run.PER_LAYER, "plain-cluster")
    assert final["correct"] and final["failed"] == 0
    assert _carried(final, "per_layer")
    assert printed["field.ext_build_count"][0] == 0
    assert printed["field.ext_mul_count"][0] == 0


def test_same_seed_same_digest():
    _, _, first = _bench("plain-cluster", seed=3)
    _, _, second = _bench("plain-cluster", seed=3)
    assert first == second
    assert run.script_digest("plain-cluster", 3) != run.script_digest(
        "plain-cluster", 4)
