"""On-disk cluster behavior: framing, event log, attack, integrity."""

import json
import os
import random
import re

import pytest

from rsl import entropy, extension
from rsl.cluster import (ClusterState, bits_per_symbol, bytes_to_symbols,
                         element_width, frame_payload, symbols_to_bytes,
                         unframe_payload)
from rsl.errors import (BadModel, IntegrityError, PayloadTooLarge, SelfRepair,
                        UnknownNode, WrongHelperCount, WrongNodeCount)
from rsl.field import FieldSpec
from rsl.matrix import Matrix
from rsl.product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                                RepairTo, Stored)
from rsl.secrecy import EavesdropperModel, leakage

GF16 = FieldSpec(2, 4)
GF256 = FieldSpec(2, 8)
PARAMS = CodeParams(n=5, k=3, d=4)


# -- framing and packing


def test_symbol_measurements():
    assert bits_per_symbol(GF256) == 8
    assert bits_per_symbol(GF16) == 4
    assert element_width(GF256) == 1
    assert element_width(GF16) == 1
    ext = FieldSpec(2, 13)
    assert bits_per_symbol(ext) == 13
    assert element_width(ext) == 2


def test_frame_roundtrip():
    for payload in (b"", b"a", b"hello world", bytes(range(256))):
        framed = frame_payload(payload)
        assert framed[:4] == len(payload).to_bytes(4, "big")
        assert unframe_payload(framed) == payload
        # extra zero padding after the frame is ignored
        assert unframe_payload(framed + b"\0\0\0") == payload


def test_unframe_rejects_truncation():
    framed = frame_payload(b"hello")
    with pytest.raises(IntegrityError):
        unframe_payload(framed[:6])
    with pytest.raises(IntegrityError):
        unframe_payload(b"\0\0")


def test_pack_roundtrip_varied_widths():
    data = b"\x12\x34\x56\x78\x9a"
    for bits in (4, 8, 13, 24):
        count = (len(data) * 8 + bits - 1) // bits + 2
        symbols = bytes_to_symbols(data, bits, count)
        assert len(symbols) == count
        assert all(0 <= s < (1 << bits) for s in symbols)
        assert symbols_to_bytes(symbols, bits)[:len(data)] == data


def test_pack_is_big_endian_bit_order():
    assert bytes_to_symbols(b"\xab", 4, 2) == [0xA, 0xB]
    assert bytes_to_symbols(b"\x80", 1, 8) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_symbols(b"\xff\x00", 12, 2) == [0xFF0, 0]


def test_pack_overflow():
    with pytest.raises(PayloadTooLarge):
        bytes_to_symbols(b"abc", 8, 2)


# -- cluster lifecycle


def _plain(tmp_path, payload=b"xy", n=5, field=GF256):
    params = CodeParams(n=n, k=3, d=4)
    return ClusterState.create(tmp_path / "c", params, field, payload)


def _secure(tmp_path, payload=b"s", shape=(0, 1), seed=99):
    return ClusterState.create(tmp_path / "c", PARAMS, GF16, payload,
                               secure=shape, seed=seed)


def test_create_writes_layout(tmp_path):
    state = _plain(tmp_path)
    root = tmp_path / "c"
    meta = json.loads((root / "meta.json").read_text())
    assert meta["layout"] == 1
    assert meta["params"] == {"n": 5, "k": 3, "d": 4, "m": 1}
    assert meta["mode"] == "plain"
    assert meta["secure"] is None
    assert meta["field"] == {"p": 2, "w": 8,
                             "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}
    assert len(meta["points"]) == 5
    for i in range(1, 6):
        blob = (root / f"share_{i}.bin").read_bytes()
        assert len(blob) == 2  # alpha=2 symbols, 1 byte each
    assert (root / "events.jsonl").read_text() == ""
    assert not (root / ".lock").exists()
    assert state.reconstruct_payload() == b"xy"


def test_create_refuses_overwrite(tmp_path):
    _plain(tmp_path)
    with pytest.raises(IntegrityError):
        _plain(tmp_path)


def test_load_roundtrip(tmp_path):
    _plain(tmp_path)
    state = ClusterState.load(tmp_path / "c")
    assert state.meta["mode"] == "plain"
    assert state.reconstruct_payload() == b"xy"
    with pytest.raises(IntegrityError):
        ClusterState.load(tmp_path / "nowhere")


def test_load_rejects_unknown_layout(tmp_path):
    _plain(tmp_path)
    meta_path = tmp_path / "c" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["layout"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IntegrityError):
        ClusterState.load(tmp_path / "c")


@pytest.mark.parametrize("layout,error", [
    (True, "meta.json 'layout' must be an integer, got true"),
    (1.0, "meta.json 'layout' must be an integer, got 1.0"),
    ("1", 'meta.json \'layout\' must be an integer, got "1"'),
    (2, "unknown layout 2"),
], ids=["true", "float", "string", "two"])
def test_load_requires_an_integer_layout(tmp_path, layout, error):
    # true == 1 == 1.0 in Python, but only the integer 1 is layout 1
    _plain(tmp_path)
    meta_path = tmp_path / "c" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["layout"] = layout
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IntegrityError, match=f"^{re.escape(error)}$"):
        ClusterState.load(tmp_path / "c")


def test_empty_payload(tmp_path):
    state = _plain(tmp_path, payload=b"")
    assert state.reconstruct_payload() == b""


def test_payload_capacity_boundary(tmp_path):
    # B = 6 byte-wide symbols; 4 go to the length prefix
    _plain(tmp_path, payload=b"ab")  # exactly fits
    with pytest.raises(PayloadTooLarge):
        ClusterState.create(tmp_path / "c2", PARAMS, GF256, b"abc")


def test_secure_roundtrip_and_meta(tmp_path):
    state = _secure(tmp_path)
    meta = state.meta
    assert meta["mode"] == "secure"
    sec = meta["secure"]
    assert (sec["l1"], sec["l2"], sec["ell"], sec["seed"]) == (0, 1, 4, 99)
    assert sec["extension"]["t"] == 6
    width = element_width(state.scheme.ext)
    assert width == 3  # 24-bit extension symbols
    blob = (tmp_path / "c" / "share_1.bin").read_bytes()
    assert len(blob) == 2 * width
    assert state.reconstruct_payload() == b"s"
    loaded = ClusterState.load(tmp_path / "c")
    assert loaded.reconstruct_payload() == b"s"


# GF(16)^6, and GF(25)^12 at m = 2: digits of odd characteristic, in
# symbols of 7 bytes that can hold a value above the order |L| = 25^12
def _secure_gf25(tmp_path):
    return ClusterState.create(tmp_path / "c", CodeParams(n=7, k=3, d=4, m=2),
                               FieldSpec(5, 2), b"25", secure=(0, 1), seed=4)


@pytest.mark.parametrize("make", [_secure, _secure_gf25],
                         ids=["GF(16)^6", "GF(25)^12"])
def test_stripes_are_the_digits_over_f(tmp_path, make):
    # the cluster splits and packs base-q digits from q and B alone; they
    # must be the digits ExtensionSpec.coeffs gives, stripe by stripe
    state = make(tmp_path)
    ext = state.scheme.ext
    rng = random.Random(5)
    symbols = [rng.randrange(ext.order) for _ in range(3)] + [0, ext.order - 1]
    stripes = state._stripes(symbols)
    assert stripes == [x for stripe in zip(*map(ext.coeffs, symbols))
                       for x in stripe]
    assert state._symbols(stripes) == symbols


def test_out_of_range_share_symbol_names_the_symbol_field(tmp_path):
    # L's name, GF(5^2)^12, without building L; F's on a plain cluster
    _secure_gf25(tmp_path / "s")
    ClusterState.create(tmp_path / "p" / "c", CodeParams(n=5, k=3, d=4, m=2),
                        GF16, b"")
    for where, bad, name in (("s", 25**12, "GF(5^2)^12"),
                             ("p", 16, "GF(2^4)")):
        state = ClusterState.load(tmp_path / where / "c")
        share = tmp_path / where / "c" / "share_2.bin"
        alpha = state.code.params.alpha
        width = len(share.read_bytes()) // alpha
        share.write_bytes(bad.to_bytes(width, "little") * alpha)
        with pytest.raises(ValueError, match=f"^{bad} out of range for "
                                             f"{re.escape(name)}$"):
            state.read_share(2)


def test_secure_load_runs_no_search(tmp_path, monkeypatch):
    _secure(tmp_path, payload=b"s")

    def no_search(*args):
        raise AssertionError("modulus search during load")
    monkeypatch.setattr(extension, "_find_modulus", no_search)
    state = ClusterState.load(tmp_path / "c")
    assert state.reconstruct_payload() == b"s"
    state.fail_repair(3)
    assert state.attack([], [3])["perfect"] is True


def test_secure_seed_reproducible(tmp_path):
    a = ClusterState.create(tmp_path / "a", PARAMS, GF16, b"z",
                            secure=(0, 1), seed=5)
    b = ClusterState.create(tmp_path / "b", PARAMS, GF16, b"z",
                            secure=(0, 1), seed=5)
    for i in range(1, 6):
        assert a.read_share(i) == b.read_share(i)
    c = ClusterState.create(tmp_path / "d", PARAMS, GF16, b"z",
                            secure=(0, 1), seed=6)
    assert any(a.read_share(i) != c.read_share(i) for i in range(1, 6))


def test_secure_capacity(tmp_path):
    # two 24-bit symbols hold 6 bytes; 4 are the prefix
    _secure(tmp_path, payload=b"ab")
    with pytest.raises(PayloadTooLarge):
        ClusterState.create(tmp_path / "c2", PARAMS, GF16, b"abc",
                            secure=(0, 1), seed=1)


# -- repair and the event log


def test_fail_repair_records_event(tmp_path):
    state = _plain(tmp_path, n=6)
    before = state.read_share(2)
    event = state.fail_repair(2)
    assert state.read_share(2) == before
    assert event["epoch"] == 1
    assert event["failed"] == 2
    assert event["helpers"] == [1, 3, 4, 5]  # first d live nodes
    assert set(event["symbols"]) == {"1", "3", "4", "5"}
    for sent in event["symbols"].values():
        assert all(s.startswith("0x") for s in sent)
    log = state.events()
    assert len(log) == 1 and log[0] == event


def test_fail_repair_stability_across_helper_sets(tmp_path):
    state = _plain(tmp_path, n=6)
    before = state.read_share(1)
    first = state.fail_repair(1, [2, 3, 4, 5])
    second = state.fail_repair(1, [2, 3, 4, 6])
    assert state.read_share(1) == before
    assert second["epoch"] == 2
    # shared helpers sent byte-identical symbols in both epochs
    for h in ("2", "3", "4"):
        assert first["symbols"][h] == second["symbols"][h]


def test_fail_repair_validation(tmp_path):
    state = _plain(tmp_path)
    with pytest.raises(WrongHelperCount):
        state.fail_repair(1, [2, 3, 4])
    with pytest.raises(SelfRepair):
        state.fail_repair(1, [1, 2, 3, 4])
    with pytest.raises(UnknownNode):
        state.fail_repair(9)
    with pytest.raises(UnknownNode):
        state.fail_repair(1, [2, 3, 4, 9])
    assert state.events() == []  # nothing was logged


def test_fail_repair_detects_corrupt_helper(tmp_path):
    state = _plain(tmp_path)
    path = state.share_path(3)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        state.fail_repair(1)  # helper 3 lies, rebuilt share mismatches
    assert not (tmp_path / "c" / ".lock").exists()  # lock released


def test_fail_repair_keeps_share_when_repair_raises(tmp_path, monkeypatch):
    state = _plain(tmp_path)
    root = tmp_path / "c"
    files = {path.name: path.read_bytes() for path in root.iterdir()}

    def crash(*args):
        raise RuntimeError("repair crashed")
    monkeypatch.setattr(state.code, "repair", crash)
    with pytest.raises(RuntimeError):
        state.fail_repair(1)
    # the share is untouched, and no lock or temporary file is left
    assert {path.name: path.read_bytes() for path in root.iterdir()} == files


def test_lock_blocks_writers(tmp_path):
    state = _plain(tmp_path)
    lock = tmp_path / "c" / ".lock"
    lock.touch()
    with pytest.raises(IntegrityError, match=r"\(holder unknown\)"):
        state.fail_repair(1)
    lock.write_text("4242")
    with pytest.raises(IntegrityError,
                       match=r"locked by another writer \(pid 4242\)"):
        state.fail_repair(1)
    lock.unlink()
    lock.mkdir()  # present but unreadable as a file
    with pytest.raises(IntegrityError, match=r"\(holder unknown\)"):
        state.fail_repair(1)
    lock.rmdir()
    # the writer's own pid while it holds the lock; no lock once it is done
    seen = []
    repair = state.code.repair

    def spy(*args):
        seen.append(lock.read_text())
        return repair(*args)
    state.code.repair = spy
    state.fail_repair(1)
    assert seen == [str(os.getpid())]
    assert not lock.exists()


def test_reconstruct_subsets(tmp_path):
    state = _plain(tmp_path, payload=b"ok", n=6)
    assert state.reconstruct_payload([2, 4, 6]) == b"ok"
    assert state.reconstruct_payload([1, 2, 3]) == b"ok"
    with pytest.raises(WrongNodeCount):
        state.reconstruct_payload([1, 2])
    with pytest.raises(UnknownNode):
        state.reconstruct_payload([1, 2, 9])


# -- attack reports


def test_attack_matches_model_leakage(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(1)
    report = state.attack([], [1])
    code = state.code
    model = EavesdropperModel((), (1,))
    assert report["leakage"] == leakage(code, model) == 4
    assert report["secure_size"] == 2
    assert report["rank_growth"] == 0
    assert report["epochs"] == [1]
    assert report["perfect"] is None  # plain cluster has no wrapping
    assert report["match"] is True


def test_attack_rank_growth_zero_across_epochs(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(1, [2, 3, 4, 5])
    state.fail_repair(1, [2, 3, 4, 6])
    state.fail_repair(1, [3, 4, 5, 6])
    report = state.attack([], [1])
    assert report["epochs"] == [1, 2, 3]
    assert report["leakage"] == 4
    assert report["rank_growth"] == 0


def test_attack_epoch_window(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(1)
    state.fail_repair(2)
    state.fail_repair(1)
    report = state.attack([], [1], epochs=(2, 2))
    assert report["epochs"] == []  # epoch 2 repaired node 2, not node 1
    assert report["leakage"] == 0
    full = state.attack([], [1], epochs=(1, 3))
    assert full["epochs"] == [1, 3]
    assert full["leakage"] == 4


def test_attack_with_stored_nodes(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(2)
    report = state.attack([1], [2])
    assert report["leakage"] == 5  # hand value: alpha + d*beta - overlap
    assert report["secure_size"] == 1


def test_attack_secure_cluster_perfect(tmp_path):
    state = _secure(tmp_path)
    state.fail_repair(3)
    report = state.attack([], [3])
    assert report["perfect"] is True
    assert report["match"] is True
    assert report["leakage"] == 4


def _full_width_attack_ranks(state, model, epochs):
    """(rank of all picked rows, rank with each node's first event only,
    worst-case leakage), ranked over all m copies' rows, B columns wide."""
    code = state.code
    lo, hi = epochs or (1, None)
    picked = [e for e in state.events() if e["failed"] in model.repaired
              and e["epoch"] >= lo and (hi is None or e["epoch"] <= hi)]
    stored_rows = code.observation_rows(Stored(model.stored))
    first_rows = dict.fromkeys(model.repaired, [])
    event_rows = []
    for e in picked:
        rows = [row for h in e["helpers"] for row in code.observation_rows(
            RepairFromTo((h,), (e["failed"],)))]
        event_rows += rows
        if not first_rows[e["failed"]]:
            first_rows[e["failed"]] = rows
    baseline = stored_rows + [r for rows in first_rows.values() for r in rows]
    width = code.params.message_length
    return (Matrix(code.field, stored_rows + event_rows, ncols=width).rank(),
            Matrix(code.field, baseline, ncols=width).rank(),
            code.observe(Stored(model.stored),
                         RepairTo(model.repaired)).rank())


@pytest.mark.parametrize("shape", [(7, 3, 4, 2), (8, 4, 6, 3)])
def test_attack_multi_copy_matches_full_width_ranks(tmp_path, shape):
    n, k, d, m = shape
    state = ClusterState.create(tmp_path / "c", CodeParams(n, k, d, m),
                                GF256, b"wide")
    others = [x for x in range(1, n + 1) if x != 1]
    state.fail_repair(1, others[:d])
    state.fail_repair(2)
    state.fail_repair(1, others[-d:])
    state.fail_repair(1, others[1:d + 1])
    B = state.code.params.message_length
    models = [((), (1,)), ((3,), (1,)), ((n,), (2,)), ((), (1, 2))]
    if k > 3:
        models.append(((3,), (1, 2)))
    for stored, repaired in models:
        model = EavesdropperModel(stored, repaired)
        for epochs in (None, (1, 1), (2, 4), (3, None), (4, 4)):
            report = state.attack(stored, repaired, epochs=epochs)
            observed, base, worst = _full_width_attack_ranks(state, model,
                                                             epochs)
            assert report["leakage"] == observed, (stored, repaired, epochs)
            assert report["rank_growth"] == observed - base
            assert report["secure_size"] == B - observed
            assert report["match"] is True
            assert leakage(state.code, model) == worst


def test_attack_single_event_ranks_twice_on_copy_zero(tmp_path, monkeypatch):
    state = ClusterState.create(tmp_path / "c", CodeParams(7, 3, 4, 2),
                                GF256, b"wide")
    state.fail_repair(2)
    ranked = []
    rank = entropy.joint_entropy
    monkeypatch.setattr(entropy, "joint_entropy",
                        lambda a: ranked.append(a) or rank(a))
    report = state.attack([1], [2])
    # all events and first events share one memo entry; the worst case
    # over every potential helper is the other rank
    assert len(ranked) == 2
    assert {a.ncols for a in ranked} == {state.code.params.base_message_length}
    assert report["rank_growth"] == 0
    assert report["leakage"] == 2 * 5


def test_attack_rejects_bad_model(tmp_path):
    state = _plain(tmp_path)
    with pytest.raises(BadModel):
        state.attack([1], [1])
    with pytest.raises(BadModel):
        state.attack([1, 2], [3])


# -- integrity verification


def test_verify_cluster_clean(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(4)
    checks = {c["check"]: c["passed"] for c in state.verify_cluster()}
    assert checks == {"shares": True, "replay": True, "events": True,
                      "agreement": True}


def test_verify_cluster_catches_corruption(tmp_path):
    state = _plain(tmp_path, n=6)
    state.fail_repair(4)
    path = state.share_path(5)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x10
    path.write_bytes(bytes(blob))
    checks = {c["check"]: c["passed"] for c in state.verify_cluster()}
    assert checks["shares"] is True  # right size, wrong content
    assert not all(checks.values())


def test_verify_cluster_propagates_programming_errors(tmp_path, monkeypatch):
    # replay and agreement record data faults, each an RslError and so a
    # ValueError; a bug in the codec surfaces instead of a FAIL line
    state = _plain(tmp_path, n=6)

    def broken(*args):
        raise TypeError("reconstruct is broken")
    monkeypatch.setattr(ProductMatrixCode, "reconstruct", broken)
    with pytest.raises(TypeError, match="reconstruct is broken"):
        state.verify_cluster()


def test_verify_cluster_catches_missing_share(tmp_path):
    state = _plain(tmp_path)
    state.share_path(2).unlink()
    checks = state.verify_cluster()
    assert checks[0]["check"] == "shares"
    assert checks[0]["passed"] is False


def test_verify_cluster_catches_forged_log(tmp_path):
    state = _plain(tmp_path, n=6)
    event = state.fail_repair(3)
    forged = dict(event, epoch=2,
                  symbols={h: list(reversed(v)) if h == "1" else v
                           for h, v in event["symbols"].items()})
    # reversed list of one hex symbol is identical; flip a digit instead
    forged["symbols"]["1"] = ["0x0" if s != "0x0" else "0x1"
                              for s in event["symbols"]["1"]]
    with open(tmp_path / "c" / "events.jsonl", "a") as fh:
        fh.write(json.dumps(forged) + "\n")
    checks = {c["check"]: c["passed"] for c in state.verify_cluster()}
    assert checks["events"] is False


def test_verify_cluster_catches_stale_epoch(tmp_path):
    state = _plain(tmp_path, n=6)
    event = state.fail_repair(3)
    with open(tmp_path / "c" / "events.jsonl", "a") as fh:
        fh.write(json.dumps(event) + "\n")  # replayed epoch number
    checks = {c["check"]: c["passed"] for c in state.verify_cluster()}
    assert checks["events"] is False
