"""Command-line flows end to end, in process."""

import json

import pytest

from rsl.capacity import CapacityQuery, capacity_csv
from rsl.cli import main


def _encode(tmp_path, name="c", payload=b"xy", extra=()):
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    argv = ["encode", "--cluster", str(tmp_path / name),
            "--n", "6", "--k", "3", "--d", "4", *extra, str(src)]
    return main(argv)


def test_encode_reconstruct_roundtrip(tmp_path, capsys):
    assert _encode(tmp_path) == 0
    assert "encoded 2 bytes into 6 shares (plain)" in capsys.readouterr().out
    out = tmp_path / "out.bin"
    rc = main(["reconstruct", "--cluster", str(tmp_path / "c"),
               "--nodes", "2,4,6", "--output", str(out)])
    assert rc == 0
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
                 ["attack", "--cluster", cluster, "--repair", "a"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # a torn last line in the event log names the line
    assert main(["fail-repair", "--cluster", cluster, "--node", "1"]) == 0
    with open(tmp_path / "c" / "events.jsonl", "a") as fh:
        fh.write('{"epoch":2,"eve')
    capsys.readouterr()
    for argv in (["fail-repair", "--cluster", cluster, "--node", "2"],
                 ["attack", "--cluster", cluster, "--repair", "1"],
                 ["verify", "--cluster", cluster]):
        assert main(argv) == 1, argv
        assert "events.jsonl line 2" in capsys.readouterr().err, argv


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
