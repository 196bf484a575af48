"""A command loads only the modules it runs.

rsl/__init__.py resolves its public names on first use, cli.py imports
the harness and the capacity formulas inside the commands that run them,
cluster.py imports secrecy on the secure and attack paths only, and
secrecy imports capacity inside attack_report.  So a plain encode,
fail-repair or reconstruct never imports harness, capacity or secrecy,
and a secure one never imports capacity (nor the fractions and decimal
it pulls in).  Value types derive from errors.Record, so no command
imports dataclasses or the inspect it pulls in.

Each flow runs in a fresh interpreter and reports the modules each step
added to sys.modules since start-up, so what site preloads never counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsl

ROOT = Path(__file__).resolve().parents[1]

# argv: vault payload [encode options]; prints per step the modules added
FLOW = """
import json, sys
before = set(sys.modules)
from rsl.cli import main
vault, payload, *options = sys.argv[1:]
steps = [
    ["encode", "--cluster", vault, "--n", "5", "--k", "3", "--d", "4",
     "--field", "2,8", *options, payload],
    ["fail-repair", "--cluster", vault, "--node", "2"],
    ["reconstruct", "--cluster", vault, "--output", payload + ".out"],
    ["attack", "--cluster", vault, "--stored", "1", "--repair", "2",
     "--json"],
]
codes, added = [], []
for argv in steps:
    codes.append(main(argv))
    added.append(sorted(set(sys.modules) - before))
print(json.dumps({"codes": codes, "added": added}))
"""

SECURE = ["--secure", "0,1", "--seed", "5"]


def _python(script, *args):
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _flow(tmp_path, options=()):
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    got = _python(FLOW, tmp_path / "vault", payload, *options)
    assert got["codes"] == [0, 0, 0, 0]
    assert (tmp_path / "data.bin.out").read_bytes() == b"ok"
    return got["added"]


def test_plain_flow_loads_no_harness_capacity_or_secrecy(tmp_path):
    encode, repair, reconstruct, attack = _flow(tmp_path)
    for module in ("rsl.harness", "rsl.capacity", "rsl.secrecy"):
        assert module not in reconstruct


@pytest.mark.parametrize("options", [[], SECURE], ids=["plain", "secure"])
def test_cluster_flow_loads_no_dataclasses(tmp_path, options):
    added = _flow(tmp_path, options)[-1]
    assert "rsl.cli" in added
    for module in ("dataclasses", "inspect"):
        assert module not in added


def test_secure_flow_loads_capacity_only_to_attack(tmp_path):
    encode, repair, reconstruct, attack = _flow(tmp_path, SECURE)
    assert "rsl.secrecy" in encode
    for module in ("rsl.capacity", "fractions", "decimal"):
        assert module not in reconstruct
    assert "rsl.capacity" in attack  # the report prints the formula value


def test_bare_import_loads_no_submodule():
    got = _python("import json, sys, rsl; print(json.dumps(sorted("
                  "m for m in sys.modules if m.startswith('rsl'))))")
    assert got == ["rsl"]


def test_every_public_name_resolves():
    assert rsl.__all__[-1] == "__version__"
    for name in rsl.__all__:
        namespace = {}
        exec(f"from rsl import {name}", namespace)
        assert namespace[name] is getattr(rsl, name)
    from rsl import capacity, harness, secrecy  # submodules still import
    assert rsl.check_all is harness.check_all
    assert rsl.pi is capacity.pi
    assert rsl.scheme_make is secrecy.scheme_make


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rsl.no_such_name
    assert not hasattr(rsl, "check_al")
    with pytest.raises(ImportError):
        exec("from rsl import no_such_name", {})
