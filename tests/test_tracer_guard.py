"""The benchmark tracer still finds every name it patches.

perfbench/tracer.py reads patched methods from the defining class's own
namespace (vars(cls)[name]), so moving one of them (mul, inv, __init__,
...) into a base class breaks `run.py --trace 1`.  Installing both
recorders in a fresh process catches that here.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from rsl.cli import main
from rsl.harness import PROPERTY_IDS

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str):
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_tracer_installs_on_current_tree():
    done = _run("import tracer; tracer.install_spans(tracer.Recorder()); "
                "tracer.install_counts()")
    assert done.returncode == 0, done.stderr


def test_traced_verify_spans_every_property_and_the_rank(tmp_path):
    # `--trace 1` must still see each harness property and the entropy
    # rank beneath them, however the harness drives and memoizes them
    out = tmp_path / "spans.jsonl"
    argv = ["verify", "--n", "5", "--k", "3", "--d", "4", "--field", "2,4"]
    done = _run(f"import sys, tracer; "
                f"sys.exit(tracer.run('spans', {str(out)!r}, 0.0, {argv!r}))")
    assert done.returncode == 0, done.stderr
    names = Counter(json.loads(line)[0]
                    for line in out.read_text().splitlines()[1:])
    assert len(PROPERTY_IDS) == 14
    for pid in PROPERTY_IDS:
        assert names[f"harness.{pid}"] == 1, pid
    assert names["entropy.joint_entropy"] >= 1


def test_counted_secure_reconstruct_multiplies_in_the_extension(tmp_path):
    # the packed kernel must stay behind ExtensionSpec.mul, where `--trace 1`
    # counts multiplications over L
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"ok")
    vault = str(tmp_path / "vault")
    assert main(["encode", "--cluster", vault, "--n", "5", "--k", "3",
                 "--d", "4", "--field", "2,4", "--secure", "0,1",
                 "--seed", "42", str(payload)]) == 0
    out = tmp_path / "counts.json"
    argv = ["reconstruct", "--cluster", vault,
            "--output", str(tmp_path / "back.bin")]
    done = _run(f"import sys, tracer; "
                f"sys.exit(tracer.run('counts', {str(out)!r}, 0.0, {argv!r}))")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "back.bin").read_bytes() == b"ok"
    assert json.loads(out.read_text())["field.ext_mul_count"] > 0
