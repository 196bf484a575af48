"""Directory-backed cluster simulation.

A cluster directory holds meta.json (code shape, field, points, secure
wrapping parameters), one share_<i>.bin per node (alpha elements, fixed
width, little-endian), and events.jsonl, an append-only log of repair
events carrying the exact symbols each helper sent.  Replaying the log
over a re-encode of the reconstructed message must reproduce the share
files byte for byte; verify_cluster() checks that, which is what catches
a corrupted share.

A secure share holds alpha symbols of the degree-B extension L, each B
digits over the base field F.  The code only scales by coefficients in F
and adds, so it runs over F on the B digit stripes: _stripes() and
_symbols() split and pack base-q digits, q = |F|, at the share-file and
event-log boundary, from q and B alone; on a plain cluster a symbol is
one digit and they are the identity.  A share travels as the codec's
vector, bytes over a field with the packed kernel, from read_share()
through the codec to write_share().  load() makes every check that
building ExtensionSpec and SecureScheme from meta.json's secure section
makes, but builds no L: encode builds it to wrap, and
ClusterState.scheme on first use, for reconstruct's unwrap and
verify_cluster(); attack decides perfect secrecy from the stored ell.

Payloads are framed with a 4-byte big-endian length prefix, then packed
big-endian-bit-first into field symbols; whatever capacity is left is
zero padding.  Mutating operations take an advisory lock file that holds
the writer's pid.  The secrecy, entropy and extension modules load inside
the operations that use them, by the rule the README's "Library" section
states and tests/test_startup.py enforces.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import (IntegrityError, PayloadTooLarge, SearchLimit, UnknownNode,
                     WrongNodeCount)
from .field import FieldSpec, _checked_modulus
from .product_matrix import (CodeParams, ProductMatrixCode, RepairFromTo,
                             Stored, _vector, check_precode)

LAYOUT_VERSION = 1

# what _require checks a key's value to be; None accepts any value
_INT, _INTS = "an integer", "a list of integers"
_FIELD_KEYS = {"p": _INT, "w": _INT, "modulus": _INTS}
_EVENT_KEYS = {"epoch": _INT, "event": None, "failed": _INT,
               "helpers": _INTS, "symbols": None}


def bits_per_symbol(field) -> int:
    """Payload bits that always fit in one element encoding; field is a
    field, or a ClusterState, whose order is that of its symbols."""
    return field.order.bit_length() - 1


def element_width(field) -> int:
    """Bytes per element in share files; field as in bits_per_symbol."""
    return ((field.order - 1).bit_length() + 7) // 8


def frame_payload(payload: bytes) -> bytes:
    if len(payload) >= 1 << 32:
        raise PayloadTooLarge("payload too long for a 4-byte length prefix")
    return len(payload).to_bytes(4, "big") + payload


def bytes_to_symbols(data: bytes, bits: int, count: int) -> list[int]:
    """Pack a byte stream into count symbols, big-endian bit order."""
    total_bits = len(data) * 8
    if total_bits > count * bits:
        raise PayloadTooLarge(
            f"{len(data)} framed bytes exceed {count} symbols of {bits} bits")
    value = int.from_bytes(data, "big") << (count * bits - total_bits)
    mask = (1 << bits) - 1
    return [(value >> ((count - 1 - i) * bits)) & mask for i in range(count)]


def symbols_to_bytes(symbols, bits: int) -> bytes:
    """Unpack symbols back to the longest whole-byte prefix of the stream."""
    value = 0
    for s in symbols:
        value = (value << bits) | s
    total_bits = len(symbols) * bits
    nbytes = total_bits // 8
    value >>= total_bits - nbytes * 8
    return value.to_bytes(nbytes, "big") if nbytes else b""


def unframe_payload(stream: bytes) -> bytes:
    if len(stream) < 4:
        raise IntegrityError("stream shorter than its length prefix")
    length = int.from_bytes(stream[:4], "big")
    if 4 + length > len(stream):
        raise IntegrityError(
            f"framed length {length} exceeds {len(stream) - 4} stored bytes")
    return stream[4:4 + length]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(record, keys: dict, where: str) -> dict:
    """record itself, once it is a JSON object holding every key of keys
    with a value of the kind keys maps it to (_INT, _INTS or None)."""
    if not isinstance(record, dict):
        raise IntegrityError(f"{where} is not a JSON object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise IntegrityError(
            f"{where} lacks {', '.join(repr(key) for key in missing)}")
    for key, kind in keys.items():
        value = record[key]
        if (kind == _INT and not _is_int(value)
                or kind == _INTS and not (isinstance(value, list)
                                          and all(map(_is_int, value)))):
            raise IntegrityError(f"{where} {key!r} must be {kind}, "
                                 f"got {json.dumps(value)}")
    return record


def _hex_below(text, order: int) -> bool:
    """True iff text is format(s, "#x") of some 0 <= s < order, the one
    spelling fail_repair() writes."""
    try:
        value = int(text, 16)
    except (TypeError, ValueError):
        return False
    return 0 <= value < order and text == hex(value)


def _replace_bytes(path: Path, blob: bytes):
    """Write blob to path through a temporary file and os.replace, so
    that path holds either its old bytes or all of the new ones."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _lock(path: Path):
    lock = path / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            holder = f"pid {int(lock.read_text())}"
        except (OSError, ValueError):
            holder = "holder unknown"
        raise IntegrityError(
            f"cluster {path} is locked by another writer ({holder})") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        yield
    finally:
        os.unlink(lock)


class ClusterState:
    def __init__(self, path: Path, meta: dict, code: ProductMatrixCode,
                 scheme=None):
        self.path = Path(path)
        self.meta = meta
        self.code = code        # code over the base field F
        # meta.json's secure section, as load() checked it, or None
        self._secure = meta["secure"] if meta["mode"] == "secure" else None
        self._scheme = scheme
        # a stored symbol is t digits over F, q = |F|: one of L, t = B,
        # on a secure cluster, one of F, t = 1, on a plain one
        self._q = code.field.order
        self._t = 1 if self._secure is None else code.params.message_length
        self.order = self._q ** self._t

    @property
    def scheme(self):
        """The SecureScheme over L, or None on a plain cluster.  create()
        passes the one it wraps with; after load(), which checks the
        stored precode without building L, it is built here on first
        use, by unwrap and verify_cluster(), the paths that compute in L."""
        if self._scheme is None and self._secure is not None:
            from . import secrecy
            from .extension import ExtensionSpec
            sec = self._secure  # its base is the code's field, by load()
            self._scheme = secrecy.SecureScheme(
                self.code, sec["l1"], sec["l2"], sec["ell"],
                ExtensionSpec(self.code.field, self._t,
                              sec["extension"]["modulus"]))
        return self._scheme

    # -- symbols and their F digit stripes

    def _stripes(self, symbols):
        """Digit s of every symbol, constant digit first, for s = 0 ..
        t-1 in turn; on a plain cluster, the symbols themselves."""
        if self._t == 1:
            return symbols
        q = self._q
        return [x // q**s % q for s in range(self._t) for x in symbols]

    def _symbols(self, stripes):
        """The symbols whose digit stripes _stripes() lists."""
        if self._t == 1:
            return stripes
        count = len(stripes) // self._t
        out = stripes[:count]
        for s in range(1, self._t):
            weight = self._q**s
            out = [x + y * weight
                   for x, y in zip(out, stripes[s * count:(s + 1) * count])]
        return out

    # -- creation and loading

    @classmethod
    def create(cls, path, params: CodeParams, field: FieldSpec,
               payload: bytes, secure=None, seed=None) -> "ClusterState":
        path = Path(path)
        if (path / "meta.json").exists():
            raise IntegrityError(f"cluster already exists at {path}")
        code = ProductMatrixCode(params, field)
        meta = {
            "layout": LAYOUT_VERSION,
            "params": {"n": params.n, "k": params.k, "d": params.d,
                       "m": params.m},
            "field": field.to_json(),
            "points": list(code.points),
            "mode": "plain",
            "secure": None,
        }
        scheme, capacity = None, params.message_length
        if secure is not None:
            from . import secrecy
            l1, l2 = secure
            scheme = secrecy.scheme_make(code, l1, l2)
            capacity = scheme.secret_size
            if seed is None:
                import secrets
                seed = secrets.randbits(63)
            meta["mode"] = "secure"
            meta["secure"] = {"l1": l1, "l2": l2, "ell": scheme.ell,
                              "seed": seed,
                              "extension": scheme.ext.to_json()}
        state = cls(path, meta, code, scheme)
        framed = frame_payload(payload)
        bits = bits_per_symbol(state)
        data_symbols = bytes_to_symbols(framed, bits, capacity)
        if scheme is None:
            message = data_symbols
        else:
            import random
            rng = random.Random(seed)
            randomness = [rng.randrange(scheme.ext.order)
                          for _ in range(scheme.ell)]
            message = scheme.wrap(data_symbols, randomness)
        shares = code.encode(state._stripes(message))
        path.mkdir(parents=True, exist_ok=True)
        with _lock(path):
            _replace_bytes(path / "meta.json", (json.dumps(
                meta, sort_keys=True, indent=1) + "\n").encode())
            (path / "events.jsonl").write_text("")
            for node in code.nodes:
                state.write_share(node, shares[node - 1])
        return state

    @classmethod
    def load(cls, path) -> "ClusterState":
        path = Path(path)
        try:
            meta = json.loads((path / "meta.json").read_text("utf-8"))
        except FileNotFoundError:
            raise IntegrityError(f"no cluster at {path}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise IntegrityError("meta.json is not valid JSON") from None
        _require(meta, {"layout": _INT}, "meta.json")
        if meta["layout"] != LAYOUT_VERSION:
            raise IntegrityError(f"unknown layout {meta['layout']}")
        _require(meta, {"params": None, "field": None, "points": _INTS,
                        "mode": None}, "meta.json")
        if meta["mode"] not in ("plain", "secure"):
            raise IntegrityError(
                "meta.json 'mode' must be plain or secure, got "
                f"{json.dumps(meta['mode'])}")
        shape = _require(meta["params"], dict.fromkeys("nkdm", _INT),
                         "meta.json params")
        params = CodeParams(shape["n"], shape["k"], shape["d"], shape["m"])
        field = FieldSpec.from_json(
            _require(meta["field"], _FIELD_KEYS, "meta.json field"))
        code = ProductMatrixCode(params, field, meta["points"])
        if meta["mode"] == "secure":
            sec = _require(meta.get("secure"),
                           {"l1": _INT, "l2": _INT, "ell": _INT,
                            "extension": None}, "meta.json secure")
            ext = _require(sec["extension"],
                           {"base": None, "t": _INT, "modulus": _INTS},
                           "meta.json secure extension")
            _require(ext["base"], _FIELD_KEYS,
                     "meta.json secure extension base")
            # what ExtensionSpec and SecureScheme check, in their order,
            # with no arithmetic in L: the stored modulus is checked
            # irreducible, not searched for again (verify_cluster() checks
            # that it is the canonical one), and L is built on first use;
            # a base stored as the code's field is not built twice
            try:
                base = (field if ext["base"] == meta["field"]
                        else FieldSpec.from_json(ext["base"]))
                _checked_modulus(base, ext["t"], ext["modulus"])
                check_precode(code, sec["ell"], base, ext["t"])
            except ValueError as exc:
                raise IntegrityError(f"meta.json secure: {exc}") from None
        return cls(path, meta, code)

    # -- share files

    def share_path(self, node: int) -> Path:
        self.code._node_index(node)
        return self.path / f"share_{node}.bin"

    def write_share(self, node: int, stripes):
        symbols = self._symbols(stripes)
        width = element_width(self)
        blob = (bytes(symbols) if width == 1 else
                b"".join(s.to_bytes(width, "little") for s in symbols))
        _replace_bytes(self.share_path(node), blob)

    def read_share(self, node: int):
        """The node's share as the code's digit stripes, a vector of the
        kind the codec returns: bytes over a field with the packed kernel,
        else a list."""
        width = element_width(self)
        try:
            blob = self.share_path(node).read_bytes()
        except FileNotFoundError:
            raise UnknownNode(f"share of node {node} is missing")
        alpha = self.code.params.alpha
        if len(blob) != alpha * width:
            raise IntegrityError(
                f"share_{node}.bin has {len(blob)} bytes, "
                f"expected {alpha * width}")
        symbols = (blob if width == 1 else
                   [int.from_bytes(blob[i:i + width], "little")
                    for i in range(0, len(blob), width)])
        # a plain cluster's symbols are the stripes, which _vector checks
        if self._secure is not None:
            for x in symbols:
                if x >= self.order:
                    raise ValueError(f"{x} out of range for "
                                     f"{self.code.field!r}^{self._t}")
        return _vector(self.code.field, self._stripes(symbols))

    # -- event log

    def _log_lines(self) -> list[bytes]:
        try:
            return (self.path / "events.jsonl").read_bytes().splitlines()
        except FileNotFoundError:
            raise IntegrityError("events.jsonl is missing") from None

    def events(self) -> list[dict]:
        """Every event of the log, each line checked in full."""
        return [self._event(number, line)
                for number, line in enumerate(self._log_lines(), 1)
                if line.strip()]

    def _last_epoch(self) -> int:
        """The epoch of the log's last event, or 0 for an empty log; only
        that line is decoded and checked, as events() checks each one."""
        lines = self._log_lines()
        number = len(lines)
        while number and not lines[number - 1].strip():
            number -= 1
        return self._event(number, lines[number - 1])["epoch"] if number else 0

    def _event(self, number: int, line: bytes) -> dict:
        """The event on the log's line number, once it is a JSON object
        whose keys, nodes and symbols fit this cluster's code."""
        where = f"events.jsonl line {number}"
        try:
            event = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise IntegrityError(
                f"{where} is not valid JSON (torn write?)") from None
        _require(event, _EVENT_KEYS, where)
        p, nodes = self.code.params, self.code.nodes
        if event["event"] != "repair":
            raise IntegrityError(f"{where} 'event' must be \"repair\", got "
                                 f"{json.dumps(event['event'])}")
        failed, helpers = event["failed"], event["helpers"]
        if failed not in nodes:
            raise IntegrityError(
                f"{where} failed node {failed} not in 1..{p.n}")
        distinct = set(helpers)
        if (len(helpers) != p.d or len(distinct) != p.d or failed in distinct
                or not all(h in nodes for h in distinct)):
            raise IntegrityError(
                f"{where} helpers {helpers} are not d={p.d} distinct nodes "
                f"of 1..{p.n} other than {failed}")
        symbols = event["symbols"]
        if (not isinstance(symbols, dict)
                or sorted(symbols) != sorted(map(str, helpers))):
            raise IntegrityError(
                f"{where} 'symbols' must have exactly the helpers as keys")
        for h, sent in symbols.items():
            if not (isinstance(sent, list) and len(sent) == p.beta
                    and all(_hex_below(s, self.order) for s in sent)):
                raise IntegrityError(
                    f"{where} symbols of helper {h} must be {p.beta} hex "
                    f"strings of field elements")
        return event

    def _append_event(self, event: dict):
        with open(self.path / "events.jsonl", "a") as fh:
            fh.write(json.dumps(event, sort_keys=True,
                                separators=(",", ":")) + "\n")

    # -- operations

    def fail_repair(self, failed: int, helpers=None) -> dict:
        code = self.code
        if helpers is None:
            helpers = [x for x in code.nodes if x != failed][:code.params.d]
        helpers = sorted(set(helpers))
        with _lock(self.path):
            epoch = self._last_epoch() + 1
            before = self.read_share(failed)
            sent = {h: code.repair_symbol(h, failed, self.read_share(h))
                    for h in helpers}
            rebuilt = code.repair(failed, sent)
            if rebuilt != before:
                raise IntegrityError(
                    f"repair of node {failed} did not reproduce its share; "
                    f"a helper share is corrupt")
            self.write_share(failed, rebuilt)
            event = {"epoch": epoch, "event": "repair", "failed": failed,
                     "helpers": helpers,
                     "symbols": {str(h): [format(s, "#x")
                                          for s in self._symbols(sent[h])]
                                 for h in helpers}}
            self._append_event(event)
        return event

    def reconstruct_payload(self, nodes=None) -> bytes:
        code = self.code
        if nodes is None:
            nodes = list(code.nodes)[:code.params.k]
        nodes = sorted(set(nodes))
        if len(nodes) != code.params.k:
            raise WrongNodeCount(
                f"need exactly k={code.params.k} nodes, got {len(nodes)}")
        return self._payload(
            code.reconstruct({n: self.read_share(n) for n in nodes}))

    def _payload(self, stripes) -> bytes:
        """The payload that a decoded message's digit stripes frame."""
        message = self._symbols(stripes)
        if self.scheme is not None:
            message = self.scheme.unwrap(message)
        return unframe_payload(symbols_to_bytes(message,
                                                bits_per_symbol(self)))

    def attack(self, stored, repaired, epochs=None) -> dict:
        from . import secrecy
        from .entropy import observed_entropy
        code = self.code
        model = secrecy.EavesdropperModel(stored, repaired)
        secrecy.check_model(code, model)
        lo, hi = epochs if epochs is not None else (1, None)
        picked = [e for e in self.events() if e["failed"] in model.repaired
                  and e["epoch"] >= lo and (hi is None or e["epoch"] <= hi)]
        # failed node -> helpers of all its picked events, and of the first;
        # a repair row depends on the helper and the failed node alone
        seen, first = {}, {}
        for e in picked:
            seen.setdefault(e["failed"], set()).update(e["helpers"])
            first.setdefault(e["failed"], e["helpers"])
        rank_all, rank_base = (observed_entropy(
            code, Stored(model.stored),
            *(RepairFromTo(h, (f,)) for f, h in helpers.items()))
            for helpers in (seen, first))
        ell = None if self._secure is None else self._secure["ell"]
        report = secrecy.attack_report(code, model,
                                       observed_leakage=rank_all, ell=ell)
        report["rank_growth"] = rank_all - rank_base
        report["epochs"] = [e["epoch"] for e in picked]
        return report

    def verify_cluster(self) -> list[dict]:
        checks = []

        def record(name, passed, detail=""):
            checks.append({"check": name, "passed": bool(passed),
                           "detail": detail})

        if self.scheme is not None:
            from . import secrecy
            ext = self.scheme.ext
            try:
                canonical = _checked_modulus(ext.base, ext.t, None)
                ok = canonical == ext.modulus
                record("extension", ok,
                       f"{ext!r} modulus is the canonical one" if ok
                       else f"{ext!r} modulus {list(ext.modulus)} is not "
                            f"the canonical {list(canonical)}")
            except SearchLimit as exc:
                record("extension", False, str(exc))
            # load() takes ell as stored; check it against its (l1, l2)
            s = self.scheme
            try:
                worst = secrecy.worst_case_leakage(self.code, s.l1, s.l2)
                record("wrapping", worst == s.ell,
                       f"ell {s.ell}, worst-case ({s.l1},{s.l2}) leakage "
                       f"{worst}")
            except ValueError as exc:  # BadModel, AsymmetricLeakage
                record("wrapping", False, str(exc))

        code = self.code
        try:
            shares = {n: self.read_share(n) for n in code.nodes}
            record("shares", True, f"{code.params.n} share files read")
        except (UnknownNode, IntegrityError, ValueError) as exc:
            record("shares", False, str(exc))
            return checks

        try:
            message = code.reconstruct(
                {n: shares[n] for n in list(code.nodes)[:code.params.k]})
            expected = code.encode(message)
            bad = [n for n in code.nodes if expected[n - 1] != shares[n]]
            record("replay", not bad,
                   f"shares differ from re-encode at nodes {bad}" if bad
                   else "all shares match the re-encode")
        except ValueError as exc:  # RslError; a programming error propagates
            record("replay", False, str(exc))
            return checks

        last = 0
        log_ok, log_detail = True, "event log consistent"
        try:
            events = self.events()
        except (IntegrityError, OSError) as exc:
            log_ok, log_detail, events = False, str(exc), []
        for e in events:
            if e["epoch"] <= last:
                log_ok, log_detail = False, f"epoch {e['epoch']} not increasing"
                break
            last = e["epoch"]
            f = e["failed"]
            for h in e["helpers"]:
                sent = [int(s, 16) for s in e["symbols"][str(h)]]
                want = code.repair_symbol(h, f, expected[h - 1])
                if sent != list(self._symbols(want)):
                    log_ok = False
                    log_detail = (f"epoch {e['epoch']}: helper {h} symbols "
                                  f"disagree with its share")
                    break
            if not log_ok:
                break
        record("events", log_ok, log_detail)

        # replay showed every share is encode(message), and any k nodes
        # decode it, so unframing replay's decode speaks for all of them
        try:
            self._payload(message)
            record("agreement", True, "k-subset payload unframes")
        except ValueError as exc:
            record("agreement", False, str(exc))
        return checks
