"""A command loads only the modules it runs.

rsl/__init__.py resolves its public names on first use, cli.py imports
the harness and the capacity formulas inside the commands that run them,
cluster.py imports secrecy where the precode is built and inside attack,
and entropy inside attack, and secrecy imports entropy inside the
functions that rank and capacity inside attack_report.  The extension
field L exists only for the secrecy precode, so rsl.extension
(polynomials, the sieve, the modulus search, ExtensionSpec) loads only
where L is computed in: to wrap, to unwrap and to verify a secure
cluster.  ClusterState.load checks a secure meta.json without it, and
attack decides perfect secrecy from the stored ell.  What each command
loads, beyond cli, cluster, field, matrix, product_matrix and errors:
  - plain encode, fail-repair, reconstruct, and secure fail-repair:
    nothing;
  - secure encode: secrecy, entropy (to size the precode), extension;
  - secure reconstruct: secrecy, extension;
  - attack: secrecy, entropy and capacity, never extension; fractions
    and decimal only for a fractional formula value (category 2);
  - capacity-table: capacity, fractions and decimal;
  - verify: the harness, secrecy and entropy, and extension on a secure
    cluster.
A base field outside rsl.field's frozen table, such as GF(25), also loads
extension, to find or sieve its modulus.
Value types derive from errors.Record, so no command imports dataclasses
or the inspect it pulls in.  A secure cluster at a frozen-table shape
loads its stored moduli without a sieve or a search.

Each flow runs in a fresh interpreter and reports the modules each step
added to sys.modules since start-up, so what site preloads never counts.
main() parses a well-formed command line from cli._TABLE without
importing argparse (or the gettext and locale its texts load), and hands
anything else to the argparse parser built from the same table; the
help, usage and error texts of that parser, some of them for forms only
it reads, are frozen below and must not change.
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


def _stdout(script, *args):
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _python(script, *args):
    return json.loads(_stdout(script, *args).splitlines()[-1])


def _flow(tmp_path, options=()):
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    got = _python(FLOW, tmp_path / "vault", payload, *options)
    assert got["codes"] == [0, 0, 0, 0]
    assert (tmp_path / "data.bin.out").read_bytes() == b"ok"
    return got["added"]


def test_plain_flow_loads_no_harness_capacity_or_secrecy(tmp_path):
    encode, repair, reconstruct, attack = _flow(tmp_path)
    for module in ("rsl.harness", "rsl.capacity", "rsl.secrecy",
                   "rsl.entropy"):
        assert module not in reconstruct
    assert "rsl.extension" not in attack  # nor earlier: the lists grow


def test_secure_flow_loads_the_extension(tmp_path):
    encode, repair, reconstruct, attack = _flow(tmp_path, SECURE)
    assert "rsl.extension" in encode


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


# argv: rsl's arguments; runs them in a fresh interpreter and prints the
# exit code and the modules added since start-up
FRESH = """
import json, sys
before = set(sys.modules)
from rsl.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("options", [[], SECURE], ids=["plain", "secure"])
def test_well_formed_commands_load_no_argparse(tmp_path, options):
    # the plain-form parser reads them; argparse, with the gettext and
    # locale its texts load, is for help and errors
    steps = _flow(tmp_path, options)
    verify = _python(FRESH, "verify", "--cluster", tmp_path / "vault")
    assert verify["code"] == 0
    for added in [*steps, verify["added"]]:
        for module in ("argparse", "gettext", "locale"):
            assert module not in added


@pytest.mark.parametrize("options", [[], SECURE], ids=["plain", "secure"])
def test_attack_loads_no_rational_arithmetic(tmp_path, options):
    # category 1: the formula value (k-l1-l2)(alpha - l2*beta) is an int
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    vault = tmp_path / "vault"
    assert _python(FRESH, "encode", "--cluster", vault, "--n", "5", "--k",
                   "3", "--d", "4", *options, payload)["code"] == 0
    for argv in (["--stored", "1", "--repair", "2", "--json"],
                 ["--repair", "2"]):
        got = _python(FRESH, "attack", "--cluster", vault, *argv)
        assert got["code"] == 0 and "rsl.capacity" in got["added"]
        for module in ("fractions", "decimal"):
            assert module not in got["added"]


def test_capacity_table_loads_rational_arithmetic():
    got = _python(FRESH, "capacity-table", "--k", "3", "--d", "4", "--n",
                  "5", "--beta", "1", "--l1", "0", "--l2", "0:2")
    assert got["code"] == 0
    for module in ("rsl.capacity", "fractions", "decimal"):
        assert module in got["added"]


# argv: modules to refuse, comma-separated, then rsl's arguments; runs them
# with each refused module None in sys.modules, so importing it raises
# ImportError, and prints the exit code and the rsl modules loaded
REFUSING = """
import json, sys
refused, *argv = sys.argv[1:]
for name in filter(None, refused.split(",")):
    sys.modules[name] = None
from rsl.cli import main
code = main(argv)
print(json.dumps({"code": code, "loaded": sorted(
    name for name, module in sys.modules.items()
    if name.startswith("rsl.") and module is not None)}))
"""


def test_secure_repair_and_reconstruct_load_no_entropy(tmp_path):
    # each in its own interpreter: in one flow, encode's ranks would have
    # loaded rsl.entropy already
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    vault = tmp_path / "vault"
    assert _python("import json, sys\nfrom rsl.cli import main\n"
                   "print(json.dumps(main(sys.argv[1:])))", "encode",
                   "--cluster", vault, "--n", "5", "--k", "3", "--d", "4",
                   "--field", "2,8", *SECURE, payload) == 0
    assert _python(REFUSING, "rsl.entropy", "fail-repair", "--cluster",
                   vault, "--node", "2")["code"] == 0
    assert _python(REFUSING, "rsl.entropy", "reconstruct", "--cluster",
                   vault, "--output", tmp_path / "data.out")["code"] == 0
    assert (tmp_path / "data.out").read_bytes() == b"ok"


def _refusing(*args):
    """stdout of REFUSING before its last line, and that line's record."""
    *printed, last = _stdout(REFUSING, *args).splitlines(keepends=True)
    return "".join(printed), json.loads(last)


def _files(cluster):
    return {path.name: path.read_bytes() for path in cluster.iterdir()}


def test_secure_repair_and_attack_build_no_extension(tmp_path):
    # the benchmark's secure shape, GF(16)^20: only wrap and unwrap compute
    # in L, so fail-repair loads what a plain one does, and attack, whose
    # verdict needs ell alone, loads no rsl.extension
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    plain, vault = tmp_path / "plain", tmp_path / "vault"
    shape = ["--n", "9", "--k", "5", "--d", "8", "--field", "2,4"]
    for cluster, options in ((plain, []),
                             (vault, ["--secure", "1,1", "--seed", "3"])):
        _, got = _refusing("", "encode", "--cluster", cluster, *shape,
                           *options, payload)
        assert got["code"] == 0
    assert "rsl.extension" in got["loaded"]
    _, plain_repair = _refusing("", "fail-repair", "--cluster", plain,
                                "--node", "3")
    _, repair = _refusing("rsl.extension,rsl.secrecy", "fail-repair",
                          "--cluster", vault, "--node", "3")
    assert repair == plain_repair == {
        "code": 0, "loaded": ["rsl.cli", "rsl.cluster", "rsl.errors",
                              "rsl.field", "rsl.matrix",
                              "rsl.product_matrix"]}
    before = _files(vault)
    attack = ["attack", "--cluster", vault, "--stored", "1", "--repair",
              "3", "--json"]
    free = _refusing("", *attack)
    assert _files(vault) == before
    refused = _refusing("rsl.extension", *attack)
    assert refused == free and free[1]["code"] == 0
    assert json.loads(free[0])["perfect"] is True
    assert "rsl.secrecy" in free[1]["loaded"]
    assert "rsl.extension" not in free[1]["loaded"]
    assert _files(vault) == before
    _, got = _refusing("", "reconstruct", "--cluster", vault, "--output",
                       tmp_path / "data.out")
    assert got["code"] == 0 and "rsl.extension" in got["loaded"]
    assert (tmp_path / "data.out").read_bytes() == b"ok"


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
    # conditional_entropy and mutual_information are test oracles, in
    # tests/oracles.py, and not library names
    for name in ("no_such_name", "conditional_entropy", "mutual_information"):
        with pytest.raises(AttributeError, match=name):
            getattr(rsl, name)
        assert name not in rsl.__all__
        with pytest.raises(ImportError):
            exec(f"from rsl import {name}", {})
    assert not hasattr(rsl, "check_al")


# argv: vault; fail-repair and reconstruct with every path to a sieve or
# a modulus search replaced by one that raises
NO_SIEVE = """
import json, sys
from rsl import extension
from rsl.cli import main

def refuse(*args):
    raise AssertionError("sieve or modulus search")
for name in ("_sieve_irreducible", "_sieve_lists", "_find_modulus"):
    setattr(extension, name, refuse)
vault = sys.argv[1]
codes = [main(["fail-repair", "--cluster", vault, "--node", "2"]),
         main(["reconstruct", "--cluster", vault, "--output",
               vault + ".out"])]
print(json.dumps(codes))
"""


# GF(256)^6 and GF(16)^20, the README's and the benchmark's frozen shapes
@pytest.mark.parametrize("shape", [
    ["--n", "5", "--k", "3", "--d", "4", "--secure", "0,1"],
    ["--n", "9", "--k", "5", "--d", "8", "--field", "2,4", "--secure", "1,1"],
], ids=["GF(256)^6", "GF(16)^20"])
def test_secure_load_at_a_table_shape_sieves_nothing(tmp_path, shape):
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    vault = tmp_path / "vault"
    encode = ["encode", "--cluster", str(vault), *shape, "--seed", "5",
              str(payload)]
    assert _python("import json, sys\nfrom rsl.cli import main\n"
                   "print(json.dumps(main(sys.argv[1:])))", *encode) == 0
    assert _python(NO_SIEVE, vault) == [0, 0]
    assert (tmp_path / "vault.out").read_bytes() == b"ok"


# stdout, stderr and exit code of the full parser's help, usage and error
# texts, frozen from the parser that built every subcommand on each call
_USAGE = ("usage: rsl [-h]\n           {encode,fail-repair,reconstruct,"
          "attack,capacity-table,verify} ...\n")
_REPAIR_USAGE = ("usage: rsl fail-repair [-h] --cluster CLUSTER --node NODE "
                 "[--helpers I,J,...]\n")
GOLDEN_TEXTS = {
    "help": (["--help"], _USAGE + """
regenerating-code clusters with secure wrapping

positional arguments:
  {encode,fail-repair,reconstruct,attack,capacity-table,verify}
    encode              create a cluster from a payload
    fail-repair         fail a node and repair it
    reconstruct         decode the payload from k nodes
    attack              measure what an eavesdropper learned
    capacity-table      tabulate secrecy-capacity bounds
    verify              run the property checks, and the integrity checks when
                        given a cluster

options:
  -h, --help            show this help message and exit
""", "", 0),
    "fail-repair-help": (["fail-repair", "--help"], _REPAIR_USAGE + """
options:
  -h, --help         show this help message and exit
  --cluster CLUSTER
  --node NODE
  --helpers I,J,...  defaults to the first d live nodes
""", "", 0),
    "missing-node": (["fail-repair", "--cluster", "x"], "", _REPAIR_USAGE
                     + "rsl fail-repair: error: the following arguments are "
                       "required: --node\n", 2),
    "unknown-command": (["frob"], "", _USAGE
                        + "rsl: error: argument command: invalid choice: "
                          "'frob' (choose from 'encode', 'fail-repair', "
                          "'reconstruct', 'attack', 'capacity-table', "
                          "'verify')\n", 2),
    "no-command": ([], "", _USAGE + "rsl: error: the following arguments are "
                                    "required: command\n", 2),
    # forms the plain-form parser leaves to argparse
    "bad-int": (["fail-repair", "--cluster", "x", "--node", "one"], "",
                _REPAIR_USAGE + "rsl fail-repair: error: argument --node: "
                                "invalid int value: 'one'\n", 2),
    "equals-value": (["fail-repair", "--node=1"], "", _REPAIR_USAGE
                     + "rsl fail-repair: error: the following arguments are "
                       "required: --cluster\n", 2),
    "abbreviation": (["fail-repair", "--clus", "x"], "", _REPAIR_USAGE
                     + "rsl fail-repair: error: the following arguments are "
                       "required: --node\n", 2),
    "repeated": (["fail-repair", "--cluster", "x", "--node", "1", "--node",
                  "two"], "", _REPAIR_USAGE + "rsl fail-repair: error: "
                                              "argument --node: invalid int "
                                              "value: 'two'\n", 2),
    "unrecognized": (["fail-repair", "--cluster", "x", "--node", "1",
                      "--bogus"], "", _USAGE + "rsl: error: unrecognized "
                                               "arguments: --bogus\n", 2),
}

# argv: 'main' or 'full', then rsl's arguments; exits as rsl would
TEXTS = """
import sys
from rsl import cli
how, argv = sys.argv[1], sys.argv[2:]
if how == "main":
    sys.exit(cli.main(argv))
cli._build_parser().parse_args(argv)
"""


def _texts(how, argv):
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", TEXTS, how, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    return done.stdout, done.stderr, done.returncode


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXTS))
def test_texts_are_the_full_parsers(name):
    # on any Python: main's texts are the full parser's, including for
    # the forms the plain-form parser leaves to it
    argv = GOLDEN_TEXTS[name][0]
    assert _texts("main", argv) == _texts("full", argv)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="frozen from CPython 3.11's argparse wording")
@pytest.mark.parametrize("name", sorted(GOLDEN_TEXTS))
def test_texts_golden(name):
    argv, *expected = GOLDEN_TEXTS[name]
    assert _texts("main", argv) == tuple(expected)


# bare verify parses (no option of verify is required) and only then
# finds no target: its usage error is the verify subparser's own
_VERIFY_NEEDS_TARGET = (
    "usage: rsl verify [-h] [--cluster CLUSTER] [--n N] [--k K] [--d D] "
    "[--m M]\n                  [--field P,W] [--samples SAMPLES] "
    "[--seed SEED]\n                  [--report REPORT]\n"
    "rsl verify: error: verify needs --cluster or --n/--k/--d\n")


def test_bare_verify_prints_the_subparsers_usage():
    out, err, code = _texts("main", ["verify"])
    assert (out, code) == ("", 2)
    assert err.startswith("usage: rsl verify ")
    if sys.version_info[:2] == (3, 11):
        assert err == _VERIFY_NEEDS_TARGET
