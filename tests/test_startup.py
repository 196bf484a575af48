"""A command loads only the modules it runs.

rsl/__init__.py resolves its public names on first use, cli.py imports
the harness and the capacity formulas inside the commands that run them,
and cluster.py imports secrecy on the secure and attack paths only.  So a
plain encode, fail-repair or reconstruct never imports them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsl

ROOT = Path(__file__).resolve().parents[1]

PLAIN_FLOW = """
import json, sys
from rsl.cli import main
vault, payload = sys.argv[1], sys.argv[2]
codes = [
    main(["encode", "--cluster", vault, "--n", "5", "--k", "3", "--d", "4",
          "--field", "2,8", payload]),
    main(["fail-repair", "--cluster", vault, "--node", "2"]),
    main(["reconstruct", "--cluster", vault, "--output", payload + ".out"]),
]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("rsl"))}))
"""


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


def test_plain_flow_loads_no_harness_capacity_or_secrecy(tmp_path):
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    got = _python(PLAIN_FLOW, tmp_path / "vault", payload)
    assert got["codes"] == [0, 0, 0]
    assert (tmp_path / "data.bin.out").read_bytes() == b"ok"
    for module in ("rsl.harness", "rsl.capacity", "rsl.secrecy"):
        assert module not in got["loaded"]


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
