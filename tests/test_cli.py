"""Command-line flows end to end, in process."""

import ast
import hashlib
import json
import os
import shlex
import time
from pathlib import Path

import pytest

from rsl import cli, extension, field, harness, secrecy
from rsl.capacity import CapacityQuery, capacity_csv
from rsl.cli import main
from rsl.cluster import ClusterState
from rsl.errors import AsymmetricLeakage
from rsl.field import ExtensionSpec, FieldSpec
from rsl.matrix import Matrix
from rsl.product_matrix import ProductMatrixCode

GF16 = FieldSpec(2, 4)


def _encode(tmp_path, name="c", payload=b"xy", extra=()):
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    argv = ["encode", "--cluster", str(tmp_path / name),
            "--n", "6", "--k", "3", "--d", "4", *extra, str(src)]
    return main(argv)


def _log_refusal(argv, capsys) -> str:
    """What a command says of a refused event log, newline-terminated:
    fail-repair and attack stop with an error line; verify reports a
    failed events check and still runs the rest."""
    out, err = capsys.readouterr()
    if argv[0] != "verify":
        assert err.startswith("error: "), argv
        return err.removeprefix("error: ")
    assert err == "" and "PASS cluster.agreement" in out, argv
    prefix = "FAIL cluster.events: "
    return next(line.removeprefix(prefix) for line in out.splitlines(True)
                if line.startswith(prefix))


def test_encode_reconstruct_roundtrip(tmp_path, capsys):
    assert _encode(tmp_path) == 0
    assert "encoded 2 bytes into 6 shares (plain)" in capsys.readouterr().out
    out = tmp_path / "out.bin"
    rc = main(["reconstruct", "--cluster", str(tmp_path / "c"),
               "--nodes", "2,4,6", "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"xy"


# safe primes p = 2q + 1: the generator the points are powers of needs the
# prime factors of p - 1, which trial division took 4 s to find at 10^15
@pytest.mark.parametrize("p,seconds", [(1000000000005719, 1),
                                       (1000000000000000000004903, 5)])
def test_encode_over_a_safe_prime_field(tmp_path, p, seconds):
    assert field._is_prime(p) and field._is_prime((p - 1) // 2)
    start = time.perf_counter()
    assert _encode(tmp_path, extra=["--field", f"{p},1"]) == 0
    assert time.perf_counter() - start < seconds
    out = tmp_path / "out.bin"
    assert main(["reconstruct", "--cluster", str(tmp_path / "c"),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == b"xy"


def test_reconstruct_to_stdout(tmp_path, capsysbinary):
    _encode(tmp_path, payload=b"ab")
    capsysbinary.readouterr()
    rc = main(["reconstruct", "--cluster", str(tmp_path / "c")])
    assert rc == 0
    assert capsysbinary.readouterr().out == b"ab"


def test_stdin_payload(tmp_path, monkeypatch):
    import io
    import sys

    fake = io.BytesIO(b"zz")
    monkeypatch.setattr(sys, "stdin",
                        type("S", (), {"buffer": fake})())
    rc = main(["encode", "--cluster", str(tmp_path / "c"),
               "--n", "5", "--k", "3", "--d", "4", "-"])
    assert rc == 0
    out = tmp_path / "out.bin"
    main(["reconstruct", "--cluster", str(tmp_path / "c"),
          "--output", str(out)])
    assert out.read_bytes() == b"zz"


def test_fail_repair_and_attack_json(tmp_path, capsys):
    _encode(tmp_path)
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    with open(tmp_path / "c" / "events.jsonl", "a") as fh:
        fh.write("\n")  # a blank line in the log is skipped
    assert main(["fail-repair", "--cluster", cluster, "--node", "1",
                 "--helpers", "2,3,4,6"]) == 0
    capsys.readouterr()
    rc = main(["attack", "--cluster", cluster, "--repair", "1", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leakage"] == 4
    assert report["rank_growth"] == 0
    assert report["epochs"] == [1, 2]
    assert report["match"] is True


def test_fail_repair_cleans_up_when_the_share_write_fails(tmp_path, capsys,
                                                          monkeypatch):
    # os.replace fails once the repaired share is in its temporary file:
    # the command stops with one error line and leaves the cluster as it
    # was, with no temporary file and no lock
    _encode(tmp_path)
    root = tmp_path / "c"
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    assert "events.jsonl" in before and "share_1.bin" in before
    written = []

    def refuse(src, dst):
        written.append(Path(src).read_bytes())
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert main(["fail-repair", "--cluster", str(root), "--node", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 28] No space left on device\n"
    assert written == [before["share_1.bin"]]
    assert not list(root.glob("*.tmp")) and not (root / ".lock").exists()
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before


def test_attack_human_readable(tmp_path, capsys):
    _encode(tmp_path)
    cluster = str(tmp_path / "c")
    main(["fail-repair", "--cluster", cluster, "--node", "2"])
    capsys.readouterr()
    rc = main(["attack", "--cluster", cluster, "--stored", "1",
               "--repair", "2", "--epochs", "1:"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "leakage: 5 of 6 symbols" in out
    assert "consistent" in out


def test_secure_flow(tmp_path, capsys):
    src = tmp_path / "secret.bin"
    src.write_bytes(b"s!")
    cluster = str(tmp_path / "s")
    rc = main(["encode", "--cluster", cluster, "--n", "5", "--k", "3",
               "--d", "4", "--field", "2,4", "--secure", "0,1",
               "--seed", "42", str(src)])
    assert rc == 0
    assert "(secure)" in capsys.readouterr().out
    main(["fail-repair", "--cluster", cluster, "--node", "4"])
    capsys.readouterr()
    rc = main(["attack", "--cluster", cluster, "--repair", "4", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["perfect"] is True
    assert main(["attack", "--cluster", cluster, "--repair", "4"]) == 0
    assert ("wrapping perfect against this model: True"
            in capsys.readouterr().out)
    out = tmp_path / "rec.bin"
    rc = main(["reconstruct", "--cluster", cluster, "--nodes", "1,2,3",
               "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"s!"


def test_capacity_table_stdout_matches_library(tmp_path, capsys):
    rc = main(["capacity-table", "--k", "3", "--d", "4", "--n", "5",
               "--beta", "1", "--l1", "0", "--l2", "0:2"])
    assert rc == 0
    out = capsys.readouterr().out
    queries = [CapacityQuery(k=3, d=4, n=5, alpha=2, beta=1, l1=0, l2=l2)
               for l2 in range(3)]
    assert out == capacity_csv(queries)


def test_capacity_table_csv_file_and_sweep(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc = main(["capacity-table", "--k", "2:4", "--d", "2:6", "--n", "7",
               "--beta", "1:2", "--l1", "0:1", "--l2", "0:2",
               "--csv", str(target)])
    assert rc == 0
    text = target.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("k,d,n,alpha,")
    # every emitted row satisfies the MSR relation and the model bound
    for line in lines[1:]:
        k, d, n, alpha, beta, l1, l2 = map(int, line.split(",")[:7])
        assert alpha == (d - k + 1) * beta
        assert d == 2 * k - 2 or d >= k  # valid queries only
        assert l1 + l2 <= k - 1
    # the same sweep again produces identical bytes
    target2 = tmp_path / "again.csv"
    main(["capacity-table", "--k", "2:4", "--d", "2:6", "--n", "7",
          "--beta", "1:2", "--l1", "0:1", "--l2", "0:2",
          "--csv", str(target2)])
    assert target2.read_text() == text


def test_capacity_table_empty_sweep(tmp_path, capsys):
    rc = main(["capacity-table", "--k", "3", "--d", "4", "--n", "3",
               "--beta", "1", "--l1", "0", "--l2", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == ("k,d,n,alpha,beta,l1,l2,cutset,pawar,tandon,shah,rawat,"
                   "goparaju,this_paper,kind\n")


def test_verify_cluster_ok(tmp_path, capsys):
    _encode(tmp_path)
    main(["fail-repair", "--cluster", str(tmp_path / "c"), "--node", "3"])
    capsys.readouterr()
    rc = main(["verify", "--cluster", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "PASS cluster.replay" in out
    assert "PASS scheme.perfect_secrecy" in out
    # a plain cluster has no wrapping to check
    assert "cluster.extension" not in out and "cluster.wrapping" not in out


def test_verify_cluster_agreement_fails_on_bad_frame(tmp_path, capsys):
    # every share consistently encodes a message whose length prefix
    # claims far more bytes than the cluster stores
    _encode(tmp_path)
    state = ClusterState.load(tmp_path / "c")
    shares = state.code.encode([0xff, 0xff, 0xff, 0xff, 0, 0])
    for node in state.code.nodes:
        state.write_share(node, shares[node - 1])
    checks = {c["check"]: c for c in state.verify_cluster()}
    assert checks["replay"]["passed"] is True
    assert checks["agreement"]["passed"] is False
    assert checks["agreement"]["detail"] == \
        "framed length 4294967295 exceeds 2 stored bytes"
    capsys.readouterr()
    assert main(["verify", "--cluster", str(tmp_path / "c")]) == 1
    assert "FAIL cluster.agreement" in capsys.readouterr().out


def test_verify_params_builds_no_extension(monkeypatch, capsys):
    # B = 12: a search for GF(256^12) would run for over ten minutes;
    # only GF(256) itself may be searched for, over GF(2)
    search = extension._find_modulus

    def prime_base_only(K, degree):
        if K.order != K.char:
            raise AssertionError(f"modulus search over {K!r}")
        return search(K, degree)
    monkeypatch.setattr(extension, "_find_modulus", prime_base_only)
    rc = main(["verify", "--n", "8", "--k", "3", "--d", "4", "--m", "2"])
    assert rc == 0
    assert "PASS scheme.perfect_secrecy" in capsys.readouterr().out


def test_plain_flows_build_no_extension(tmp_path, monkeypatch):
    # only secure clusters wrap over an extension L; plain base fields and
    # every plain command run over F alone
    def refuse(self, *args, **kwargs):
        raise AssertionError("a plain flow built an ExtensionSpec")
    monkeypatch.setattr(ExtensionSpec, "__init__", refuse)
    for p, w in [(2, 8), (2, 4), (3, 2), (2, 17)]:
        FieldSpec(p, w)
    cluster = str(tmp_path / "c")
    assert _encode(tmp_path) == 0
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["reconstruct", "--cluster", cluster,
                  "--output", str(tmp_path / "out.bin")],
                 ["attack", "--cluster", cluster, "--repair", "2", "--json"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 0, argv
    assert (tmp_path / "out.bin").read_bytes() == b"xy"


def test_secure_flows_build_nothing_over_the_extension(tmp_path,
                                                     monkeypatch):
    # a secure cluster runs the code over F on the digit stripes of its
    # symbols; only wrap and unwrap compute in L, on no Matrix
    init, store, built = ProductMatrixCode.__init__, Matrix._set, []

    def code_over_f(self, params, field, *rest):
        if isinstance(field, ExtensionSpec):
            built.append(f"a code over {field!r}")
            raise AssertionError(built[-1])
        init(self, params, field, *rest)

    def matrix_over_f(self, field, *rest):
        if isinstance(field, ExtensionSpec):
            built.append(f"a Matrix over {field!r}")
            raise AssertionError(built[-1])
        store(self, field, *rest)
    monkeypatch.setattr(ProductMatrixCode, "__init__", code_over_f)
    monkeypatch.setattr(Matrix, "_set", matrix_over_f)
    cluster = str(tmp_path / "c")
    assert _encode(tmp_path, extra=["--field", "2,4", "--secure", "0,1",
                                    "--seed", "5"]) == 0
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["reconstruct", "--cluster", cluster,
                  "--output", str(tmp_path / "out.bin")],
                 ["attack", "--cluster", cluster, "--repair", "2", "--json"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 0, argv
    assert (tmp_path / "out.bin").read_bytes() == b"xy"
    assert built == []


def test_secure_load_repair_and_attack_build_no_extension(tmp_path,
                                                         monkeypatch):
    # load checks meta.json's secure section without building L; of the
    # commands below, reconstruct's unwrap alone computes in L
    assert _encode(tmp_path, extra=["--field", "2,4", "--secure", "0,1",
                                    "--seed", "5"]) == 0

    def refuse(self, *args, **kwargs):
        raise AssertionError("built an ExtensionSpec")
    monkeypatch.setattr(ExtensionSpec, "__init__", refuse)
    cluster = str(tmp_path / "c")
    ClusterState.load(cluster)
    assert main(["fail-repair", "--cluster", cluster, "--node", "2"]) == 0
    assert main(["attack", "--cluster", cluster, "--repair", "2",
                 "--json"]) == 0
    with pytest.raises(AssertionError, match="built an ExtensionSpec"):
        main(["reconstruct", "--cluster", cluster])


def test_refused_encode_creates_nothing(tmp_path, capsys):
    # a shape out of range, then a payload too large for the cluster
    assert _encode(tmp_path, name="c6/deep/er",
                   extra=["--secure", "2,1"]) == 1
    assert _encode(tmp_path, name="big", payload=b"x" * 100) == 1
    assert capsys.readouterr().err.count("error:") == 2
    assert [path.name for path in tmp_path.iterdir()] == ["payload.bin"]


def test_verify_cluster_fails_on_corruption(tmp_path, capsys):
    _encode(tmp_path)
    share = tmp_path / "c" / "share_2.bin"
    blob = bytearray(share.read_bytes())
    blob[0] ^= 4
    share.write_bytes(bytes(blob))
    rc = main(["verify", "--cluster", str(tmp_path / "c")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_params_only(tmp_path, capsys):
    rc = main(["verify", "--n", "5", "--k", "3", "--d", "4",
               "--field", "2,4", "--report", str(tmp_path / "report.jsonl")])
    assert rc == 0
    lines = (tmp_path / "report.jsonl").read_text().strip().split("\n")
    assert len(lines) == 14
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_needs_target(capsys):
    assert main(["verify"]) == 2
    assert "error" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, capsys):
    _encode(tmp_path)
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "99"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["reconstruct", "--cluster", str(tmp_path / "nope")]) == 1
    capsys.readouterr()
    # payload too large for the plain symbol budget
    big = tmp_path / "big.bin"
    big.write_bytes(b"x" * 100)
    rc = main(["encode", "--cluster", str(tmp_path / "c9"), "--n", "5",
               "--k", "3", "--d", "4", str(big)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # malformed arguments: exit 1 with a message, never a traceback
    small = str(tmp_path / "payload.bin")
    fresh = ["encode", "--cluster", str(tmp_path / "c8")]
    for argv in (fresh + ["--n", "6", "--k", "1", "--d", "0", small],
                 fresh + ["--n", "6", "--k", "3", "--d", "4",
                          "--secure", "1", small],
                 fresh + ["--n", "6", "--k", "3", "--d", "4",
                          "--field", "2", small],
                 ["attack", "--cluster", cluster, "--repair", "a"],
                 # an empty or inverted epoch window would report no events
                 ["attack", "--cluster", cluster, "--repair", "3",
                  "--epochs", "3:1"],
                 ["attack", "--cluster", cluster, "--repair", "3",
                  "--epochs", "0:2"],
                 # an inverted range would print only the CSV header
                 ["capacity-table", "--k", "5:2", "--d", "4", "--n", "6",
                  "--beta", "1", "--l1", "0", "--l2", "1"],
                 # a sample budget below one would pass on zero checks
                 ["verify", "--n", "9", "--k", "5", "--d", "8",
                  "--field", "2,4", "--samples", "0"],
                 ["verify", "--n", "9", "--k", "5", "--d", "8",
                  "--field", "2,4", "--samples", "-3"],
                 # an empty list names no node, as ',,' does; it is not
                 # the default set
                 ["fail-repair", "--cluster", cluster, "--node", "3",
                  "--helpers", ""],
                 ["reconstruct", "--cluster", cluster, "--nodes", ""]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # a field with too few distinct alpha0-th powers; and psi_12, a
    # composite that is a strong pseudoprime to every prime below 41
    psi12 = "318665857834031151167461"
    for argv, where in (
            (fresh + ["--n", "5", "--k", "3", "--d", "4", "--field", "7,1",
                      small],
             "cannot find 5 points with distinct alpha0-th powers in GF(7)"),
            (fresh + ["--n", "6", "--k", "3", "--d", "4", "--field",
                      f"{psi12},1", small],
             f"characteristic {psi12} is not prime")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err, argv
    # GF(2^127), whose group order 2^127 - 1 is a prime above psi_13 that
    # a certificate proves, stores and returns a payload
    assert main(fresh + ["--n", "6", "--k", "3", "--d", "4", "--field",
                         "2,127", small]) == 0
    back = tmp_path / "back.bin"
    assert main(["reconstruct", "--cluster", str(tmp_path / "c8"),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == (tmp_path / "payload.bin").read_bytes()
    capsys.readouterr()
    # a truncated share names the file and both sizes
    _encode(tmp_path, name="z")
    short = tmp_path / "z" / "share_2.bin"
    short.write_bytes(short.read_bytes()[:1])
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", str(tmp_path / "z"),
                  "--node", "1"],
                 ["reconstruct", "--cluster", str(tmp_path / "z")]):
        assert main(argv) == 1, argv
        assert ("share_2.bin has 1 bytes, expected 2"
                in capsys.readouterr().err), argv
    assert main(["verify", "--cluster", str(tmp_path / "z")]) == 1
    assert ("FAIL cluster.shares: share_2.bin has 1 bytes, expected 2"
            in capsys.readouterr().out)
    # a torn last line in the event log names the line
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    with open(tmp_path / "c" / "events.jsonl", "a") as fh:
        fh.write('{"epoch":2,"eve')
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["attack", "--cluster", cluster, "--repair", "1"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 1, argv
        assert "events.jsonl line 2" in _log_refusal(argv, capsys), argv
    # valid JSON that lacks keys: meta.json, then an event line
    _encode(tmp_path, name="m")
    meta = str(tmp_path / "m")
    (tmp_path / "m" / "meta.json").write_text('{"layout": 1}\n')
    _encode(tmp_path, name="j")
    (tmp_path / "j" / "meta.json").write_text('[1,2]\n')
    _encode(tmp_path, name="e")
    log = str(tmp_path / "e")
    assert main(["fail-repair", "--cluster", log, "--node", "1"]) == 0
    with open(tmp_path / "e" / "events.jsonl", "a") as fh:
        fh.write('{"epoch": 1}\n')
    capsys.readouterr()
    for argv, where in (
            (["reconstruct", "--cluster", meta], "meta.json lacks 'params'"),
            (["fail-repair", "--cluster", meta, "--node", "1"], "meta.json"),
            (["attack", "--cluster", meta, "--repair", "1"], "meta.json"),
            (["verify", "--cluster", meta], "meta.json"),
            (["reconstruct", "--cluster", str(tmp_path / "j")],
             "meta.json is not a JSON object")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err, argv
    for argv in (["fail-repair", "--cluster", log, "--node", "2"],
                 ["attack", "--cluster", log, "--repair", "1"],
                 ["verify", "--cluster", log]):
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys).startswith(
            "events.jsonl line 2 lacks 'event'"), argv
    assert (tmp_path / "e" / "events.jsonl").read_text().count("\n") == 2
    # values of the wrong type: a parameter, then an event line's epoch
    _encode(tmp_path, name="n")
    _edit_meta(tmp_path / "n", lambda meta: meta["params"].update(n="6"))
    _encode(tmp_path, name="t")
    typed = str(tmp_path / "t")
    assert main(["fail-repair", "--cluster", typed, "--node", "1"]) == 0
    first = json.loads((tmp_path / "t" / "events.jsonl").read_text())
    with open(tmp_path / "t" / "events.jsonl", "a") as fh:
        fh.write(json.dumps(dict(first, epoch="1")) + "\n")
    capsys.readouterr()
    assert main(["reconstruct", "--cluster", str(tmp_path / "n")]) == 1
    assert ("meta.json params 'n' must be an integer"
            in capsys.readouterr().err)
    for argv in (["fail-repair", "--cluster", typed, "--node", "2"],
                 ["attack", "--cluster", typed, "--repair", "1"],
                 ["verify", "--cluster", typed]):
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys).startswith(
            "events.jsonl line 2 'epoch' must be an integer"), argv
    assert (tmp_path / "t" / "events.jsonl").read_text().count("\n") == 2
    # event lines whose symbols lack a helper, with fewer than d helpers,
    # with a symbol that is not hex, or naming a node outside the cluster
    hexless = {"2": ["zz"], "3": ["0x1"], "4": ["0x1"], "5": ["0x1"]}
    for name, edit, where in (
            ("s", {"symbols": {}}, ""),
            ("h", {"helpers": [2], "symbols": {"2": ["0x1"]}}, ""),
            ("x", {"symbols": hexless}, " symbols of helper 2 must be 1 hex "
             "strings of field elements"),
            ("f", {"failed": 99}, " failed node 99 not in 1..6")):
        _encode(tmp_path, name=name)
        assert main(["fail-repair", "--cluster", str(tmp_path / name),
                     "--node", "1"]) == 0
        log = tmp_path / name / "events.jsonl"
        first = json.loads(log.read_text())
        with open(log, "a") as fh:
            fh.write(json.dumps(dict(first, epoch=2, **edit)) + "\n")
        before = log.read_bytes()
        capsys.readouterr()
        for argv in (["fail-repair", "--cluster", str(tmp_path / name),
                      "--node", "2"],
                     ["attack", "--cluster", str(tmp_path / name),
                      "--repair", "1"],
                     ["verify", "--cluster", str(tmp_path / name)]):
            assert main(argv) == 1, argv
            assert _log_refusal(argv, capsys).startswith(
                "events.jsonl line 2" + where), argv
        assert log.read_bytes() == before


def _frozen_moduli_only(monkeypatch):
    """Leave the moduli a fresh process knows: the frozen table alone."""
    monkeypatch.setattr(field, "_MODULUS_CACHE",
                        {key: field._MODULUS_CACHE[key]
                         for key in field._FROZEN})


def _edit_meta(cluster, edit):
    path = cluster / "meta.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


# a stored precode that load() must refuse on every command, with the
# texts ExtensionSpec and SecureScheme gave when load() built them: an
# extension that is reducible, of the wrong degree or over another base
# field, and randomness outside 0..B, at B = 6
SECURE_FAULTS = {
    "reducible": (
        lambda sec: sec["extension"].update(modulus=[0, 0, 0, 0, 0, 0, 1]),
        "modulus [0, 0, 0, 0, 0, 0, 1] factors over GF(2^4)"),
    "degree": (
        lambda sec: sec["extension"].update(
            t=2, modulus=list(ExtensionSpec(GF16, 2).modulus)),
        "wrapping needs an extension of degree 6 over GF(2^4), got "
        "GF(2^4)^2"),
    "base": (
        lambda sec: sec["extension"].update(
            base={"p": 2, "w": 1, "modulus": [0, 1]},
            modulus=[1, 1, 0, 0, 0, 0, 1]),
        "wrapping needs an extension of degree 6 over GF(2^4), got GF(2)^6"),
    "ell-above-B": (lambda sec: sec.update(ell=7), "ell must be in 0..6"),
    "ell-negative": (lambda sec: sec.update(ell=-1), "ell must be in 0..6"),
}


@pytest.mark.parametrize("fault", sorted(SECURE_FAULTS))
def test_secure_meta_faults_exit_1_on_every_command(tmp_path, capsys, fault):
    edit, text = SECURE_FAULTS[fault]
    assert _encode(tmp_path, extra=["--field", "2,4", "--secure", "0,1",
                                    "--seed", "42"]) == 0
    cluster = tmp_path / "c"
    _edit_meta(cluster, lambda meta: edit(meta["secure"]))
    before = _snapshot(cluster)
    capsys.readouterr()
    for argv in (["fail-repair", "--node", "2"],
                 ["attack", "--repair", "2", "--json"],
                 ["reconstruct"], ["verify"]):
        assert main([argv[0], "--cluster", str(cluster), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: meta.json secure: "
                                           f"{text}\n"), argv
    assert _snapshot(cluster) == before


def _snapshot(cluster):
    return {path.name: path.read_bytes() for path in cluster.iterdir()}


# spellings int(s, 16) reads as a field element that fail_repair() never
# writes: it writes format(s, "#x")
@pytest.mark.parametrize("spelling", [" 0X0013 ", "13", "-0"])
def test_event_symbols_must_be_canonical_hex(tmp_path, capsys, spelling):
    assert _encode(tmp_path) == 0
    cluster = str(tmp_path / "c")
    for _ in range(2):
        assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    commands = (["fail-repair", "--cluster", cluster, "--node", "2"],
                ["attack", "--cluster", cluster, "--repair", "1"],
                ["verify", "--cluster", cluster])
    assert main(commands[-1]) == 0  # the log as written passes
    log = tmp_path / "c" / "events.jsonl"
    first, second = log.read_text().splitlines()
    event = json.loads(second)
    helper = str(event["helpers"][0])
    event["symbols"][helper] = [spelling]
    log.write_text(f"{first}\n{json.dumps(event)}\n")
    before = _snapshot(tmp_path / "c")
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys) == (
            f"events.jsonl line 2 symbols of helper {helper} must be 1 hex "
            f"strings of field elements\n"), argv
    assert _snapshot(tmp_path / "c") == before


def test_unknown_mode_is_refused(tmp_path, capsys):
    # a mode that is neither plain nor secure must not load as plain
    for name, extra in (("p", ()),
                        ("s", ["--field", "2,4", "--secure", "0,1"])):
        assert _encode(tmp_path, name=name, extra=extra) == 0
        _edit_meta(tmp_path / name, lambda meta: meta.update(mode="bogus"))
        cluster = str(tmp_path / name)
        capsys.readouterr()
        for argv in (["fail-repair", "--cluster", cluster, "--node", "1"],
                     ["reconstruct", "--cluster", cluster],
                     ["attack", "--cluster", cluster, "--repair", "1"],
                     ["verify", "--cluster", cluster]):
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert "PASS" not in out, argv
            assert err.startswith("error:") and "'mode'" in err, argv
        assert (tmp_path / name / "events.jsonl").read_text() == ""


def test_verify_cluster_checks_extension(tmp_path, capsys):
    assert _encode(tmp_path, extra=["--field", "2,4", "--secure", "0,1",
                                    "--seed", "42"]) == 0
    cluster = tmp_path / "c"
    capsys.readouterr()
    assert main(["verify", "--cluster", str(cluster)]) == 0
    assert capsys.readouterr().out.count("cluster.extension") == 1
    # the reciprocal of the canonical modulus, made monic: irreducible,
    # so load accepts it, but not the one the modulus search picks
    canonical = ExtensionSpec(GF16, 6).modulus
    scale = GF16.inv(canonical[0])
    other = [GF16.mul(scale, c) for c in reversed(canonical)]
    _edit_meta(cluster,
               lambda meta: meta["secure"]["extension"].update(modulus=other))
    assert main(["verify", "--cluster", str(cluster)]) == 1
    assert "FAIL cluster.extension" in capsys.readouterr().out


def test_verify_cluster_searches_the_modulus_once(tmp_path, monkeypatch,
                                                  search_calls):
    # cluster.extension asks rsl.field for the canonical modulus: the
    # frozen table answers GF(16)^6, GF(16)^20 and GF(256)^6, and a
    # GF(16)^12 outside it is searched once, as in a fresh process
    src = tmp_path / "payload.bin"
    src.write_bytes(b"xy")
    for shape, searched in (
            (["--n", "5", "--k", "3", "--d", "4", "--field", "2,4",
              "--secure", "0,1"], []),
            (["--n", "9", "--k", "5", "--d", "8", "--field", "2,4",
              "--secure", "1,1"], []),
            (["--n", "5", "--k", "3", "--d", "4", "--secure", "0,1"], []),
            (["--n", "7", "--k", "3", "--d", "4", "--m", "2", "--field", "2,4",
              "--secure", "1,1"], [(GF16, 12)])):
        cluster = tmp_path / "-".join(shape)
        assert main(["encode", "--cluster", str(cluster), *shape,
                     "--seed", "42", str(src)]) == 0, shape
        _frozen_moduli_only(monkeypatch)
        search_calls.clear()
        checks = {c["check"]: c
                  for c in ClusterState.load(cluster).verify_cluster()}
        assert checks["extension"]["passed"], shape
        assert search_calls == searched, shape


# (field, n, k, m, shape) at the frozen GF(16)^6, GF(16)^20 and GF(256)^6
@pytest.mark.parametrize("fld,n,k,m,shape", [
    ("2,4", 5, 3, 1, "0,1"), ("2,4", 9, 5, 1, "1,1"), ("2,8", 5, 3, 1, "0,1"),
])
def test_secure_encode_at_table_shapes_searches_nothing(tmp_path, capsys,
                                                        monkeypatch, fld, n,
                                                        k, m, shape):
    _frozen_moduli_only(monkeypatch)
    FieldSpec(*map(int, fld.split(",")))  # its own modulus, over GF(2)

    def no_search(*args):
        raise AssertionError("modulus search during a secure encode")
    monkeypatch.setattr(extension, "_find_modulus", no_search)
    src = tmp_path / "payload.bin"
    src.write_bytes(b"s")
    cluster = tmp_path / "c"
    assert main(["encode", "--cluster", str(cluster), "--n", str(n),
                 "--k", str(k), "--d", str(2 * k - 2), "--m", str(m),
                 "--field", fld, "--secure", shape, "--seed", "5", str(src)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--cluster", str(cluster)]) == 0


def test_verify_cluster_checks_wrapping(tmp_path, capsys, monkeypatch):
    # ell = 4 fits (0,1); meta.json may claim another shape for it
    assert _encode(tmp_path, extra=["--field", "2,4", "--secure", "0,1",
                                    "--seed", "42"]) == 0
    cluster = tmp_path / "c"
    capsys.readouterr()
    assert main(["verify", "--cluster", str(cluster)]) == 0
    assert ("PASS cluster.wrapping: ell 4, worst-case (0,1) leakage 4\n"
            in capsys.readouterr().out)
    _edit_meta(cluster, lambda meta: meta["secure"].update(l1=1, l2=1))
    assert main(["verify", "--cluster", str(cluster)]) == 1
    assert ("FAIL cluster.wrapping: ell 4, worst-case (1,1) leakage 5\n"
            in capsys.readouterr().out)
    # a shape out of range, or one no single ell covers: a FAIL line too
    _edit_meta(cluster, lambda meta: meta["secure"].update(l1=2, l2=1))
    assert main(["verify", "--cluster", str(cluster)]) == 1
    out = capsys.readouterr().out
    assert "FAIL cluster.wrapping: (l1=2, l2=1) out of range for k=3" in out

    def lopsided(code, l1, l2):
        raise AsymmetricLeakage("leakage varies across (2,1) models: 4..5")
    monkeypatch.setattr(secrecy, "worst_case_leakage", lopsided)
    state = ClusterState.load(cluster)
    checks = {c["check"]: c for c in state.verify_cluster()}
    assert checks["wrapping"] == {
        "check": "wrapping", "passed": False,
        "detail": "leakage varies across (2,1) models: 4..5"}


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# -- the plain-form parser against argparse's

ROOT = Path(__file__).resolve().parents[1]


def _literal_argvs(path):
    """Every list literal in a test file that starts with a command name,
    each word that is not a string literal read as "1" (a path or an int
    alike) and each starred part left out."""
    argvs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in cli._TABLE):
            argvs.append([elt.value if isinstance(elt, ast.Constant)
                          else "1" for elt in node.elts
                          if not isinstance(elt, ast.Starred)])
    return argvs


def _readme_argvs():
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("rsl ")]


def _readme_demo():
    """The Command line section's fenced block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = section[section.index("```sh\n") + 6:]
    return block[:block.index("```")].replace("\\\n", " ").splitlines()


def test_readme_demo_runs_as_written(tmp_path, monkeypatch, capsysbinary):
    # each line in order, in a fresh directory: `echo -n X > F` writes F,
    # and every rsl command exits 0
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _readme_demo():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[:2] == ["echo", "-n"]:
            assert words[3] == ">" and len(words) == 5, line
            Path(words[4]).write_text(words[2])
            continue
        assert words[0] == "rsl", line
        assert main(words[1:]) == 0, (line, capsysbinary.readouterr().err)
        ran += 1
    assert ran == len(_readme_argvs())


# the benchmark's calls, one cycle of each workload
_BENCH = ["--cluster", "g1"]
BENCH_ARGVS = [
    ["encode", *_BENCH, "--n", "17", "--k", "9", "--d", "16", "--m", "4",
     "--field", "2,8", "../inputs/g1.bin"],
    ["encode", *_BENCH, "--n", "9", "--k", "5", "--d", "8", "--m", "1",
     "--field", "2,4", "--secure", "1,1", "--seed", "3", "../inputs/g1.bin"],
    ["encode", *_BENCH, "--n", "6", "--k", "3", "--d", "4", "--m", "1",
     "--field", "2,8", "../inputs/g1.bin"],
    ["fail-repair", *_BENCH, "--node", "3", "--helpers",
     "1,2,4,5,6,7,8,9,10,11,12,13,14,15,16,17"],
    ["fail-repair", *_BENCH, "--node", "2", "--helpers", "1,3,4,5,6,7,8,9"],
    ["reconstruct", *_BENCH, "--nodes", "1,2,3,4,5,6,7,8,9"],
    ["reconstruct", *_BENCH, "--nodes", "2,4,6"],
    ["attack", *_BENCH, "--stored", "5", "--repair", "3", "--json"],
    ["verify", *_BENCH],
]

# (argv, whether the plain form takes it)
_REPAIR = ["fail-repair", "--cluster", "c", "--node", "1"]
MUTATIONS = [
    (["encode", "in", "--d", "4", "--k", "3", "--n", "6", "--cluster", "c"],
     True),
    (["attack", "--json", "--repair", "2", "--cluster", "c"], True),
    (["verify", "--seed", "2", "--n", "5", "--k", "3", "--d", "4"], True),
    (_REPAIR + ["--node", "2"], False),
    (["fail-repair", "--cluster", "c", "--node=1"], False),
    (["fail-repair", "--clus", "c", "--node", "1"], False),
    (["encode", "--cluster", "c", "--n", "6", "--k", "3", "--d", "4",
      "--seed", "-5", "in"], False),
    (["encode", "--cluster", "c", "--n", "6", "--k", "3", "--d", "4", "-"],
     False),
    (_REPAIR + ["--helpers", ""], True),
    (["verify", "--n", " 3", "--k", "2", "--d", "2"], True),
    (["verify", "--n", "x"], False),
    (_REPAIR + ["--"], False),
    (["attack", "--cluster", "c", "--json", "--json"], False),
    (["attack", "--cluster", "c", "--json", "x"], False),
    (["encode", "--cluster", "c", "--n", "6", "--k", "3", "--d", "4", "a",
      "b"], False),
    (["reconstruct", "--cluster", "c", "out"], False),
    (["reconstruct", "--cluster", "c", "--output"], False),
    (["reconstruct", "--cluster", "c", "-h"], False),
    (["capacity-table", "--k", "3", "--d", "4"], False),
    (["--help"], False),
    ([], False),
]


def test_plain_form_parses_as_argparse():
    argvs = [argv for path in sorted((ROOT / "tests").glob("*.py"))
             for argv in _literal_argvs(path)]
    assert len(argvs) > 100
    argvs += _readme_argvs() + BENCH_ARGVS
    argvs += [argv for argv, _ in MUTATIONS]
    parsed = 0
    for argv in argvs:
        got = cli._parse(argv)
        if got is not None:
            assert vars(got) == vars(cli._build_parser().parse_args(argv)), \
                argv
            parsed += 1
    assert parsed > 100
    for argv in _readme_argvs() + BENCH_ARGVS:
        assert cli._parse(argv) is not None, argv
    for argv, plain in MUTATIONS:
        assert (cli._parse(argv) is not None) == plain, argv


# sha256 of every cluster file after encode and one fail-repair, and the
# attack --json line, frozen from the implementation before observe()
# returned a Matrix; a change to the codec, the framing, the wrapping or
# the event log format shows here as a changed digest
GOLDEN_CLUSTERS = {
    "plain": {
        "encode": ["--n", "6", "--k", "3", "--d", "4"],
        "payload": b"xy",
        "node": "1",
        "files": {
            "events.jsonl": "f5a8ca6a232af87812454af9584acc90"
                            "309ff710d4b41ec49cd72ce0e74977fb",
            "meta.json": "82d239bb85b65071f9305436cfc3e9fc"
                         "f66f1df070c21d96bb767d14bc310c4a",
            "share_1.bin": "925f0a0871fd0fec7761ff83f8e684c8"
                           "4c464db824059816e1138e96806bc8a0",
            "share_2.bin": "0e815e9ef44babc943f1e4dc88e11c7f"
                           "64a7ab7b5f1731879c7a6e1964520862",
            "share_3.bin": "00cc90312f156a7f6525915b33ba687e"
                           "140626462a1fa7f0abb6843cdbc8d567",
            "share_4.bin": "b8eb7736978a95ebde7113007502d45c"
                           "b9c89e6a83b1eee61b384de61c4f2fdc",
            "share_5.bin": "9ab37c470ef0491d721d8b164abbfcd3"
                           "8b0ebc8fddc58d1c3d960da9027d6778",
            "share_6.bin": "b2b79717f4225259153284e6477c05e2"
                           "cb9244b5a144ce38102f2222c065a5ad",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "2", "leakage": 4, "match": true, '
                  '"model": {"repaired": [1], "stored": []}, '
                  '"perfect": null, "rank_growth": 0, "secure_size": 2}\n',
    },
    # beta = 2 with a spare node, frozen from the implementation before
    # ranks ran on copy 0 alone
    "plain-m2": {
        "encode": ["--n", "7", "--k", "3", "--d", "4", "--m", "2"],
        "payload": b"wide!",
        "node": "2",
        "files": {
            "events.jsonl": "75ef9a7ddb6acbf8f505d6e275277de3"
                            "bdc0e2b3bfc58e80d4cd1b8603e04650",
            "meta.json": "afa8d4c306f707f8a933188be8c2be2c"
                         "db1c24bd47437813dd8de23080822bde",
            "share_1.bin": "a5239f5930f69f4d68d4db51adc05b63"
                           "8dc6f3e95af9c82eadfb32d841da2927",
            "share_2.bin": "41b5a4f6f584347147261f67cc093310"
                           "0c5c925106d9048ede337ed88b7ffe9c",
            "share_3.bin": "6b74d42ce80bcfc4bf9855c0e6878a69"
                           "d3fed3f4f32f3c5400640bc9dea9dd81",
            "share_4.bin": "ccc0eb28c7f33b5b40bdce782c029379"
                           "7b8e9a82a5e38e265e3564e0ea9a3132",
            "share_5.bin": "9a191bddf8ddf749c31bbfd8c24d3658"
                           "d3ca43e39cd69d07724baf469431574f",
            "share_6.bin": "8e1ed29a6383ef04c517affa694628ee"
                           "87ff254b6d8b9ed95e46ca8f29d46715",
            "share_7.bin": "cb9b93663eb3a0512ff8fa2e44f02c62"
                           "2a8005854c930944d3c77020519e33f2",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "4", "leakage": 8, "match": true, '
                  '"model": {"repaired": [2], "stored": []}, '
                  '"perfect": null, "rank_growth": 0, "secure_size": 4}\n',
    },
    "secure": {
        "encode": ["--n", "5", "--k", "3", "--d", "4", "--field", "2,4",
                   "--secure", "0,1", "--seed", "42"],
        "payload": b"s!",
        "node": "4",
        "files": {
            "events.jsonl": "eab6681dea0af6b90bd59546d8a5e9f2"
                            "a18817b0f5e5c7f2c8b77967647181c5",
            "meta.json": "219e8cbd814a175e834705692b9d859f"
                         "5156a61df11f66443dc945729d9dfd95",
            "share_1.bin": "2f5149c2d62bd01a680c0f0385da5908"
                           "67440d4c142b065f9669f21d1559b132",
            "share_2.bin": "7fe948999105feaa4c180cf1a8e3becc"
                           "3eb55b3f6a25b0a488f7661e8de5baf7",
            "share_3.bin": "ecf70fa4a82dc6b50f9a5cf9737ee0b4"
                           "9295cf84d117ccc272705b7ad945a787",
            "share_4.bin": "fe2093d0deb1f5fc76c17a974540a824"
                           "b692142b64a8ef062de23f42b7961f14",
            "share_5.bin": "44e443804e573fefc1af909fcc4379ab"
                           "c36485aea3eafa1b6311bd2bc12f606a",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "2", "leakage": 4, "match": true, '
                  '"model": {"repaired": [4], "stored": []}, '
                  '"perfect": true, "rank_growth": 0, "secure_size": 2}\n',
    },
    # the secure benchmark shape: B = 20, ell = 11, over GF(16)^20
    "secure-n9": {
        "encode": ["--n", "9", "--k", "5", "--d", "8", "--field", "2,4",
                   "--secure", "1,1", "--seed", "7"],
        "payload": b"n=9 secure golden",
        "node": "3",
        "files": {
            "events.jsonl": "bb233799fec4fad72f134ca42cb50815"
                            "9dfc1e91ac732c7a91d5245c5cecc674",
            "meta.json": "695500543eb1e4b257061ff9a51acda6"
                         "2c900d14181ffbffc9e48503581d71bc",
            "share_1.bin": "0e3a6a8ba035003ed05b6f9f37963d15"
                           "dd2cf5d2f5dafc68cf0a7af3d5e4a2aa",
            "share_2.bin": "136ac9b1d17d749a41f884dcfd670b6e"
                           "dc6845db4f20e5620d05bce8bdac8fa1",
            "share_3.bin": "980146b03b7d3885a445a2e73eaf833c"
                           "a253e1ff0184f5e35cf1f8fc7ef61bc6",
            "share_4.bin": "58d262bafa73aac10f4da14ed62d2aa8"
                           "c429800bdd770b0079450882c0a1cb4f",
            "share_5.bin": "df4a191a2b56ebcb3107c50b4fa9912e"
                           "52baa5e80d2e1b22290f0d32b8520a31",
            "share_6.bin": "395880885c36077040f61e46fb2318be"
                           "b4d9d6798a6479f20f329e46f2c661c3",
            "share_7.bin": "2ef8f1540615a691b1df10303438c3e2"
                           "e53d9dfd2d920403a75f8c1038911857",
            "share_8.bin": "714837dbf3e34e068f14e03601bf811f"
                           "bff86d39c6fccb0e1f36826597c0c607",
            "share_9.bin": "06929123ab419291edbaa5f9c1a642f0"
                           "b2976d9125a8cc1c88cc608f275768d3",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "12", "leakage": 8, "match": true, '
                  '"model": {"repaired": [3], "stored": []}, '
                  '"perfect": true, "rank_growth": 0, "secure_size": 12}\n',
    },
    # secure with beta = 2, over GF(16)^12: a wrong copy order across the
    # base-field digit stripes of the L symbols shows here; frozen from the
    # implementation that ran a second codec over L
    "secure-m2": {
        "encode": ["--n", "6", "--k", "3", "--d", "4", "--m", "2",
                   "--field", "2,4", "--secure", "0,1", "--seed", "5"],
        "payload": b"m2",
        "node": "2",
        "files": {
            "events.jsonl": "8cf9c0704af8065d6f2a23453a4b9fa1"
                            "4534e86880ca05fc7d0e36e53a3bd485",
            "meta.json": "2d7af58b7e08b9917e988ab48835364e"
                         "4e8788b59cdcc4c3a051fe16abd2bba8",
            "share_1.bin": "5631963cf0772e8dd9e9f6a73fc7efe0"
                           "8271e27166bf9e9382ea7d9b34d1d979",
            "share_2.bin": "6ade9ae0ba6509a202a34f074e8c7f1f"
                           "6d4ef53329df4dd8a91ae4f17da4ff4a",
            "share_3.bin": "fd87733e0a3394033c67d4a9f06a2ff0"
                           "5e322916ae52bdd656b0efe7c69b5b5a",
            "share_4.bin": "78ea22f53eac584e08c3722232e303cd"
                           "b6a4bd8f2fe3f395a46eb280899adc33",
            "share_5.bin": "232bb51d6a1a430d2db4cf6fcf818dd1"
                           "b837e491ffe5836413f1b44f7d58f585",
            "share_6.bin": "7ef3979dd9f8f0215cb2f6f4b7d94b79"
                           "052d8c26d00ee7e84cb458754e4edbcd",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "4", "leakage": 8, "match": true, '
                  '"model": {"repaired": [2], "stored": []}, '
                  '"perfect": true, "rank_growth": 0, "secure_size": 4}\n',
    },
    # secure over GF(25)^12 at beta = 2: a base field of odd
    # characteristic, whose digits are not packed bits; frozen likewise
    "secure-gf25": {
        "encode": ["--n", "7", "--k", "3", "--d", "4", "--m", "2",
                   "--field", "5,2", "--secure", "0,1", "--seed", "4"],
        "payload": b"25",
        "node": "5",
        "files": {
            "events.jsonl": "eb815af06d3425f5775e60224a6e927d"
                            "74d9714d933e0638db7eca97f325a682",
            "meta.json": "2394e906f83f0463e380999f431adb86"
                         "9a50eaf0fa3fa0e7aab4dd7c3aa24d2a",
            "share_1.bin": "f862f73e0db0ea8be46c8df6dfa85d2e"
                           "54b9da33c4574141240a486ded929695",
            "share_2.bin": "fc23edab3e2dd190ddfc0ef10bb0452d"
                           "cd9a035dc09a6ab45482dce14e141ea4",
            "share_3.bin": "f0d4dc458461898c41c9c6d0156a82c3"
                           "a5dc762bad9f66102292d38189e941d5",
            "share_4.bin": "54b2b26406a167a66d5143c52f6dc4ab"
                           "76526f2541eb8fa86e92598e3a5731ec",
            "share_5.bin": "71c58722c30d043de477f73d12524f94"
                           "266bc973e9a95ad8aab3401c67d2ae60",
            "share_6.bin": "cb9340e2546644c4660be8fd463dd17f"
                           "cb62675d83db70cd5fa942836038734d",
            "share_7.bin": "b2fc4c2f2d419165b154ae336004a04b"
                           "1f4d320521f5f131287d0727b15ed546",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "4", "leakage": 8, "match": true, '
                  '"model": {"repaired": [5], "stored": []}, '
                  '"perfect": true, "rank_growth": 0, "secure_size": 4}\n',
    },
    # secure over GF(8)^12: a characteristic-2 base with no packed
    # kernel, so the list codec, the sieve and the modulus search run
    # on a stored modulus outside the frozen table
    "secure-gf8": {
        "encode": ["--n", "7", "--k", "3", "--d", "4", "--m", "2",
                   "--field", "2,3", "--secure", "0,1", "--seed", "6"],
        "payload": b"g8",
        "node": "2",
        "files": {
            "events.jsonl": "8bfb778b4d99e9a50b90115d9e2d0052"
                            "a51cdba55f809b018b9284b259bf0e86",
            "meta.json": "870f4d8ec39d8c91d60d63f288fe7741"
                         "e377995f867d14a514cabea6c1bf0a13",
            "share_1.bin": "f5a32eb3165974359a34ca2e33d10ac8"
                           "a5663ba46ed174f1edb6270bdfcb83de",
            "share_2.bin": "72e694baadf222c182424ee668a0d603"
                           "ef495b5cbd924f8f98f58dd3ca4c7cd9",
            "share_3.bin": "c7cf344ec55de3caa70ca3d0930e42f9"
                           "a2d99f566560048fab5e505ef5fa9c83",
            "share_4.bin": "6c98294842cf0ecdf928bd0731d74ad3"
                           "372d18aa2b2c6275de47eef6880a2ec6",
            "share_5.bin": "8737069de49773ff670a7f099f4737b4"
                           "e16cd4e86c4fb490579d639479c5d808",
            "share_6.bin": "5a6cdc6df2a6e7f43d6bbd2d62a875c1"
                           "5bd54791715c10a41c49b3ebe0abf9fe",
            "share_7.bin": "54b79d7bc7e57bf59bb7a47340c5d3b8"
                           "08dfe4d9f9ee9d7ee16886ceb768b395",
        },
        "attack": '{"epochs": [1], "formula_kind": "exact", '
                  '"formula_value": "4", "leakage": 8, "match": true, '
                  '"model": {"repaired": [2], "stored": []}, '
                  '"perfect": true, "rank_growth": 0, "secure_size": 4}\n',
    },
}


def _golden_cluster(tmp_path, name) -> str:
    """The named golden cluster, encoded and with its node repaired."""
    want = GOLDEN_CLUSTERS[name]
    src = tmp_path / "payload.bin"
    src.write_bytes(want["payload"])
    cluster = str(tmp_path / name)
    assert main(["encode", "--cluster", cluster, *want["encode"],
                 str(src)]) == 0
    assert main(["fail-repair", "--cluster", cluster,
                 "--node", want["node"]]) == 0
    return cluster


@pytest.mark.parametrize("name", sorted(GOLDEN_CLUSTERS))
def test_cluster_bytes_golden(tmp_path, capsys, name):
    want = GOLDEN_CLUSTERS[name]
    cluster = _golden_cluster(tmp_path, name)
    capsys.readouterr()
    assert main(["attack", "--cluster", cluster, "--repair",
                 want["node"], "--json"]) == 0
    assert capsys.readouterr().out == want["attack"]
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in (tmp_path / name).iterdir()}
    assert got == want["files"]
    out = tmp_path / "out.bin"
    assert main(["reconstruct", "--cluster", cluster,
                 "--output", str(out)]) == 0
    assert out.read_bytes() == want["payload"]


def test_unknown_event_kind_is_refused(tmp_path, capsys):
    # only "repair" events are written; another kind would hide its
    # traffic from attack while verify replayed it as a repair
    assert _encode(tmp_path) == 0
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    log = tmp_path / "c" / "events.jsonl"
    event = json.loads(log.read_text())
    assert event["event"] == "repair"
    log.write_text(json.dumps(dict(event, event="scrub")) + "\n")
    before = log.read_bytes()
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["attack", "--cluster", cluster, "--repair", "1", "--json"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys) == (
            'events.jsonl line 1 \'event\' must be "repair", got "scrub"\n'
        ), argv
    assert log.read_bytes() == before


def test_fail_repair_takes_helper_checks_from_the_codec(tmp_path, capsys):
    # too few helpers and the failed node among them: the codec's repair
    # names the self-repair first, and nothing is written
    assert _encode(tmp_path) == 0
    root = tmp_path / "c"
    files = {path.name: path.read_bytes() for path in root.iterdir()}
    capsys.readouterr()
    for helpers, err in (("1,2,3", "node 1 cannot help repair itself"),
                         ("2,3,4", "need exactly d=4 helpers, got 3")):
        assert main(["fail-repair", "--cluster", str(root), "--node", "1",
                     "--helpers", helpers]) == 1, helpers
        assert capsys.readouterr() == ("", f"error: {err}\n"), helpers
    assert {path.name: path.read_bytes() for path in root.iterdir()} == files


def test_fail_repair_decodes_only_the_last_event(tmp_path, capsys,
                                                 monkeypatch):
    # fail-repair needs the last epoch alone: on a 200-event log it decodes
    # one line, so damage above it is left to verify and attack to report
    assert _encode(tmp_path) == 0
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    log = tmp_path / "c" / "events.jsonl"
    event = json.loads(log.read_text())
    lines = [json.dumps(dict(event, epoch=e)) for e in range(1, 201)]
    lines[99] = '{"epoch":100,"eve'
    log.write_text("\n".join(lines) + "\n\n")
    decoded = []
    parse = ClusterState._event

    def counted(self, number, line):
        decoded.append(number)
        return parse(self, number, line)
    monkeypatch.setattr(ClusterState, "_event", counted)
    assert main(["fail-repair", "--cluster", cluster, "--node", "2"]) == 0
    assert decoded == [200]
    assert json.loads(log.read_text().splitlines()[-1])["epoch"] == 201
    capsys.readouterr()
    for argv in (["attack", "--cluster", cluster, "--repair", "1"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys) == (
            "events.jsonl line 100 is not valid JSON (torn write?)\n"), argv


# a damaged event log: what the events check reports for it
_DAMAGED_LOGS = {
    "torn": (b'{"epoch":2,"eve',
             "events.jsonl line 2 is not valid JSON (torn write?)"),
    "keys": (b'{"epoch": 2}\n', "events.jsonl line 2 lacks 'event', "
             "'failed', 'helpers', 'symbols'"),
    "bytes": (b"\xff\n",
              "events.jsonl line 2 is not valid JSON (torn write?)"),
    "missing": (None, "events.jsonl is missing"),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_LOGS))
def test_verify_reports_a_damaged_event_log(tmp_path, capsys, damage):
    # the events check fails with the log's fault; every other cluster
    # check and all 14 properties still run
    tail, detail = _DAMAGED_LOGS[damage]
    assert _encode(tmp_path) == 0
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    log = tmp_path / "c" / "events.jsonl"
    if tail is None:
        log.unlink()
    else:
        with open(log, "ab") as fh:
            fh.write(tail)
    capsys.readouterr()
    assert main(["verify", "--cluster", cluster]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [
        "PASS cluster.shares", "PASS cluster.replay", "FAIL cluster.events",
        "PASS cluster.agreement"]
    assert detail in lines[2]
    assert [line.split()[1] for line in lines[4:]] == harness.PROPERTY_IDS
    assert len(harness.PROPERTY_IDS) == 14


def test_missing_event_log_is_named_without_the_path(tmp_path, capsys):
    # the same text from all three commands, and none names where the
    # cluster lies; exit code 1
    assert _encode(tmp_path) == 0
    cluster = str(tmp_path / "c")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    (tmp_path / "c" / "events.jsonl").unlink()
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["attack", "--cluster", cluster, "--repair", "1", "--json"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 1, argv
        assert _log_refusal(argv, capsys) == "events.jsonl is missing\n", argv
    assert not (tmp_path / "c" / "events.jsonl").exists()


def test_undecodable_cluster_files_name_the_file(tmp_path, capsys):
    # meta.json that is not JSON or not UTF-8, and an event line that is
    # not UTF-8, are refused by name, not with the parser's text
    for name, blob in (("j", b"x"), ("u", b"\xff")):
        assert _encode(tmp_path, name=name) == 0
        (tmp_path / name / "meta.json").write_bytes(blob)
        cluster = str(tmp_path / name)
        capsys.readouterr()
        for argv in (["reconstruct", "--cluster", cluster],
                     ["fail-repair", "--cluster", cluster, "--node", "1"],
                     ["attack", "--cluster", cluster, "--repair", "1"],
                     ["verify", "--cluster", cluster]):
            assert main(argv) == 1, argv
            assert capsys.readouterr() == (
                "", "error: meta.json is not valid JSON\n"), argv
    assert _encode(tmp_path, name="e") == 0
    cluster = str(tmp_path / "e")
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    with open(tmp_path / "e" / "events.jsonl", "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["attack", "--cluster", cluster, "--repair", "1"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: events.jsonl line 2 is "
                                       "not valid JSON (torn write?)\n")


# a stored modulus that factors: the frozen table certifies only the
# canonical ones, so these still reach the sieve and fail as before
@pytest.mark.parametrize("extra,where,modulus,err", [
    ([], ("field",), [1, 0, 0, 0, 0, 0, 0, 0, 1],
     "error: modulus [1, 0, 0, 0, 0, 0, 0, 0, 1] factors over GF(2)\n"),
    (["--field", "2,4", "--secure", "0,1", "--seed", "5"],
     ("secure", "extension"), [1, 0, 0, 0, 0, 0, 1],
     "error: meta.json secure: modulus [1, 0, 0, 0, 0, 0, 1] factors over "
     "GF(2^4)\n"),
], ids=["plain-base", "secure-extension"])
def test_reducible_stored_modulus_exits_1(tmp_path, capsys, extra, where,
                                          modulus, err):
    assert _encode(tmp_path, extra=extra) == 0
    path = tmp_path / "c" / "meta.json"
    meta = json.loads(path.read_text())
    node = meta
    for key in where:
        node = node[key]
    node["modulus"] = modulus
    path.write_text(json.dumps(meta))
    share = (tmp_path / "c" / "share_2.bin").read_bytes()
    capsys.readouterr()
    # every command that loads the cluster refuses it alike
    for argv in (["fail-repair", "--node", "2"],
                 ["reconstruct", "--output", str(tmp_path / "out.bin")]):
        assert main([argv[0], "--cluster", str(tmp_path / "c"),
                     *argv[1:]]) == 1, argv
        assert capsys.readouterr() == ("", err), argv
    assert (tmp_path / "c" / "share_2.bin").read_bytes() == share


def test_fail_repair_sieves_each_stored_modulus_once(tmp_path, monkeypatch,
                                                     sieve_calls):
    # GF(8) and GF(8)^12 are outside the frozen table, and meta.json
    # stores GF(8)'s modulus twice, as the field and as L's base
    cluster = _golden_cluster(tmp_path, "secure-gf8")
    meta = json.loads((tmp_path / "secure-gf8" / "meta.json").read_text())
    _frozen_moduli_only(monkeypatch)
    sieve_calls.clear()
    assert main(["fail-repair", "--cluster", cluster, "--node", "3"]) == 0
    assert sieve_calls == [
        (FieldSpec(2, 1), tuple(meta["field"]["modulus"])),
        (FieldSpec(2, 3), tuple(meta["secure"]["extension"]["modulus"]))]


@pytest.mark.parametrize("argv", [["reconstruct"], ["verify"]])
def test_secure_call_sieves_a_stored_modulus_once(tmp_path, capsys,
                                                  monkeypatch, sieve_calls,
                                                  argv):
    # GF(16)^12 is outside the frozen table: load() sieves it, and building
    # L for the unwrap (and verify's checks) reuses that verdict
    cluster = _golden_cluster(tmp_path, "secure-m2")
    meta = json.loads((tmp_path / "secure-m2" / "meta.json").read_text())
    _frozen_moduli_only(monkeypatch)
    sieve_calls.clear()
    capsys.readouterr()
    assert main([*argv, "--cluster", cluster]) == 0
    assert sieve_calls == [
        (GF16, tuple(meta["secure"]["extension"]["modulus"]))]


@pytest.mark.parametrize("name", ["plain", "secure-gf8"])
def test_verify_cluster_reads_each_share_once_and_decodes_once(
        tmp_path, capsys, monkeypatch, name):
    cluster = _golden_cluster(tmp_path, name)
    reads, decodes = [], []
    read_share, reconstruct = (ClusterState.read_share,
                               ProductMatrixCode.reconstruct)

    def counted_read(self, node):
        reads.append(node)
        return read_share(self, node)

    def counted_decode(self, shares):
        decodes.append(sorted(shares))
        return reconstruct(self, shares)
    monkeypatch.setattr(ClusterState, "read_share", counted_read)
    monkeypatch.setattr(ProductMatrixCode, "reconstruct", counted_decode)
    capsys.readouterr()
    assert main(["verify", "--cluster", cluster]) == 0
    assert "PASS cluster.agreement" in capsys.readouterr().out
    n = len(list((tmp_path / name).glob("share_*.bin")))
    assert sorted(reads) == list(range(1, n + 1))
    assert decodes == [[1, 2, 3]]


def test_modulus_search_limit_exits_1(tmp_path, capsys, monkeypatch):
    # GF(16)^4, the n=3 k=2 m=2 message length, is not frozen
    _frozen_moduli_only(monkeypatch)
    extra = ["--n", "3", "--k", "2", "--d", "2", "--m", "2",
             "--field", "2,4", "--secure", "1,0", "--seed", "1"]
    src = tmp_path / "payload.bin"
    src.write_bytes(b"")
    encode = ["encode", "--cluster", str(tmp_path / "c"), *extra, str(src)]
    limit = extension._SEARCH_LIMIT
    monkeypatch.setattr(extension, "_SEARCH_LIMIT", 1)
    assert main(encode) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no canonical modulus for GF(16)^4")
    assert "(q, t) = (16, 4)" in err and "rsl.field._FROZEN" in err
    assert not (tmp_path / "c").exists()
    # encoded under the default limit, the cluster fails verify's
    # extension check under the lowered one, with the same text
    monkeypatch.setattr(extension, "_SEARCH_LIMIT", limit)
    assert main(encode) == 0
    monkeypatch.setattr(extension, "_SEARCH_LIMIT", 1)
    # as in a fresh process, which does not know the modulus encode found
    _frozen_moduli_only(monkeypatch)
    capsys.readouterr()
    assert main(["verify", "--cluster", str(tmp_path / "c")]) == 1
    out = capsys.readouterr().out
    assert f"FAIL cluster.extension: {err[len('error: '):]}" in out
    assert "PASS cluster.replay" in out
