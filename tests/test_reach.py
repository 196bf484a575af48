"""Every function of src/rsl is reached, or listed with its reason.

A name in src/ stays if one of these reaches it: a command, with valid or
invalid input; a harness property; the README's library example; an
rsl.__all__ name the README documents.  Anything else belongs in
tests/oracles.py, where a test still needs it, or nowhere.  This test
runs the README's command-line block and library example, and the
commands _calls() lists, in process under sys.setprofile.  It records
every module-level function and class method of src/rsl that runs, and
the ones that never run must be exactly the keys of ALLOWED.  So
restoring a deleted function fails here, and so does adding one that
nothing reaches.
"""

import importlib
import pkgutil
import shlex
import sys
from functools import cached_property
from pathlib import Path

import rsl
from rsl import field
from rsl.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

_DOCUMENTED = "documented in the README"
_PATCHED = ("; perfbench/tracer.py patches it out of the class namespace, "
            "vars(Matrix)[name]")
_PROTOCOL = "a Python protocol method"
ALLOWED = {
    # the README's "rank, solve and inverse over any of those fields"
    "matrix.Matrix.inverse": _DOCUMENTED + _PATCHED,
    "matrix.Matrix.identity": "inverse() solves for it",
    "matrix.Matrix.__matmul__": "the README's matrix products" + _PATCHED,
    "field.Field.packed": "an extension's answer to matrix elimination, "
                          "which no command runs over an extension",
    "field.Field._operands": "raises for a non-element given to the "
                             "library; every command passes elements",
    "field.__getattr__": "resolves field.ExtensionSpec, which "
                         "perfbench/tracer.py patches",
    "harness.run_property": "an rsl.__all__ name",
    "harness._property": "runs only at import, registering each property; "
                         "verify imports the harness",
    "errors.Record.__setattr__": _PROTOCOL + "; refuses to change a field",
    "errors.Record.__reduce__": _PROTOCOL + "; copy and pickle",
    "errors.Record.__repr__": _PROTOCOL,
    "field.FieldSpec.__hash__": _PROTOCOL,
    "extension.ExtensionSpec.__eq__": _PROTOCOL,
    "extension.ExtensionSpec.__hash__": _PROTOCOL,
    "matrix.Matrix.__eq__": _PROTOCOL,
    "matrix.Matrix.__hash__": _PROTOCOL,
    "matrix.Matrix.__repr__": _PROTOCOL,
    "product_matrix.ProductMatrixCode.__repr__": _PROTOCOL,
}


def _readme_block(heading: str, fence: str) -> str:
    section = _README[_README.index(heading):]
    block = section[section.index(fence) + len(fence):]
    return block[:block.index("```")]


def _readme_commands(work: Path):
    """(argv, exit code) of the README's command-line block, in order;
    its `echo -n X > F` lines write F under work."""
    block = _readme_block("## Command line", "```sh\n")
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:2] == ["echo", "-n"]:
            (work / words[4]).write_text(words[2])
        elif words:
            assert words[0] == "rsl", line
            yield words[1:], 0


def _calls(work: Path, payload: str):
    """(argv, exit code) of the commands the README does not run."""
    secure, plain = str(work / "secure"), str(work / "plain")
    report = str(work / "report.jsonl")
    shape = ["--n", "5", "--k", "3", "--d", "4"]
    # a secure cluster over GF(25), a field outside the frozen table
    yield ["encode", "--cluster", secure, *shape, "--field", "5,2",
           "--secure", "0,1", "--seed", "1", payload], 0
    yield ["fail-repair", "--cluster", secure, "--node", "4"], 0
    yield ["reconstruct", "--cluster", secure], 0
    yield ["attack", "--cluster", secure, "--repair", "4",
           "--epochs", "1:1"], 0
    yield ["verify", "--cluster", secure], 0
    # a plain two-copy cluster
    yield ["encode", "--cluster", plain, "--n", "7", "--k", "3", "--d", "4",
           "--m", "2", payload], 0
    yield ["fail-repair", "--cluster", plain, "--node", "2",
           "--helpers", "1,3,5,7"], 0
    yield ["attack", "--cluster", plain, "--stored", "1", "--repair", "2",
           "--json"], 0
    yield ["capacity-table", "--k", "3:5", "--d", "4:8", "--n", "6:9",
           "--beta", "1", "--l1", "0:1", "--l2", "0:3"], 0
    yield ["verify", *shape, "--field", "2,3", "--report", report], 0
    yield ["verify", "--n", "4", "--k", "2", "--d", "2", "--field", "7,1",
           "--report", report], 0
    # 2^22 - 1 = 3 * 23 * 89 * 683: rho splits 89 * 683; and 2^127 - 1
    # is a prime that only a certificate proves
    for w in (22, 127):
        yield ["encode", "--cluster", str(work / f"gf{w}"), *shape,
               "--field", f"2,{w}", payload], 0
    # invalid input
    yield ["encode", "--cluster", str(work / "none"), payload], 2
    yield ["reconstruct", "--cluster", str(work / "missing")], 1
    yield ["verify"], 2
    yield ["--help"], 0


def _defined():
    """{qualified name: code} of every module-level function and class
    method of src/rsl, with every module imported first, so code that
    runs only at import counts as reached by nothing."""
    out = {}
    names = [m.name for m in pkgutil.iter_modules(rsl.__path__)]
    for module in [rsl] + [importlib.import_module(f"rsl.{name}")
                           for name in names]:
        prefix = module.__name__.removeprefix("rsl.")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    out[f"{prefix}.{member.__qualname__}"] = code
    return out


def _forget(monkeypatch):
    """Put back what a fresh process holds in the caches that outlive a
    call, so the trace does not depend on the tests run before it: the
    lazily resolved names of rsl and rsl.field, and the canonical moduli
    found beyond the frozen table."""
    for name in rsl._HOME:
        monkeypatch.delattr(rsl, name, raising=False)
    monkeypatch.delattr(field, "ExtensionSpec", raising=False)
    monkeypatch.setattr(field, "_MODULUS_CACHE", {
        key: value for key, value in field._MODULUS_CACHE.items()
        if key in field._FROZEN})


def test_everything_unreached_is_allowed(tmp_path, monkeypatch,
                                         capsysbinary):
    defined = _defined()
    _forget(monkeypatch)
    monkeypatch.chdir(tmp_path)
    payload = tmp_path / "data.bin"
    payload.write_bytes(b"ok")
    calls = [*_readme_commands(tmp_path), *_calls(tmp_path, str(payload))]
    library = compile(_readme_block("## Library", "```python\n"),
                      "README.md", "exec")
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, code in calls:
            try:
                got = main(argv)
            except SystemExit as exc:  # argparse's help and usage errors
                got = exc.code
            assert got == code, (argv, capsysbinary.readouterr().err)
        exec(library, {})
    finally:
        sys.setprofile(previous)
    unreached = {name for name, code in defined.items()
                 if code not in reached}
    assert unreached == set(ALLOWED)
