"""The benchmark tracer still finds every name it patches.

perfbench/tracer.py reads patched methods from the defining class's own
namespace (vars(cls)[name]), so moving one of them (mul, inv, __init__,
...) into a base class breaks `run.py --trace 1`.  Installing both
recorders in a fresh process catches that here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_current_tree():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = ("import tracer; tracer.install_spans(tracer.Recorder()); "
              "tracer.install_counts()")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
