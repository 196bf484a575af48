"""Command-line entry points.

Subcommands operate on cluster directories (encode, fail-repair,
reconstruct, attack, verify) or are pure computations (capacity-table,
verify without --cluster).  Everything prints deterministic output; all
randomness is seeded and the seed is recorded in cluster metadata.
The harness and the capacity formulas are imported by the commands that
run them, so the cluster commands start without loading them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .cluster import ClusterState
from .errors import BadQuery
from .field import FieldSpec
from .product_matrix import CodeParams, ProductMatrixCode


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '2:5' -> [2, 3, 4, 5]."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _parse_epochs(text: str):
    lo, colon, hi = text.partition(":")
    low = int(lo) if lo else 1
    high = (int(hi) if hi else None) if colon else low
    if low < 1 or high is not None and high < low:
        raise ValueError(f"--epochs needs 1 <= A <= B, got {text!r}")
    return (low, high)


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    values = _parse_ints(text)
    if len(values) != 2:
        raise ValueError(f"{what} takes two integers A,B, got {text!r}")
    return values[0], values[1]


def _parse_field(text: str) -> FieldSpec:
    return FieldSpec(*_parse_pair(text, "--field"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="regenerating-code clusters with secure wrapping")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="create a cluster from a payload")
    enc.add_argument("--cluster", required=True)
    enc.add_argument("--n", type=int, required=True)
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--d", type=int, required=True)
    enc.add_argument("--m", type=int, default=1)
    enc.add_argument("--field", default="2,8", metavar="P,W")
    enc.add_argument("--secure", metavar="L1,L2",
                     help="wrap against an (l1,l2)-eavesdropper")
    enc.add_argument("--seed", type=int,
                     help="seed for the wrapping randomness")
    enc.add_argument("input", help="payload file, or - for stdin")

    rep = sub.add_parser("fail-repair", help="fail a node and repair it")
    rep.add_argument("--cluster", required=True)
    rep.add_argument("--node", type=int, required=True)
    rep.add_argument("--helpers", metavar="I,J,...",
                     help="defaults to the first d live nodes")

    rec = sub.add_parser("reconstruct", help="decode the payload from k nodes")
    rec.add_argument("--cluster", required=True)
    rec.add_argument("--nodes", metavar="I,J,...")
    rec.add_argument("--output", help="defaults to stdout")

    atk = sub.add_parser("attack", help="measure what an eavesdropper learned")
    atk.add_argument("--cluster", required=True)
    atk.add_argument("--stored", default="", metavar="I,J,...")
    atk.add_argument("--repair", default="", metavar="I,J,...")
    atk.add_argument("--epochs", metavar="A:B")
    atk.add_argument("--json", action="store_true")

    cap = sub.add_parser("capacity-table",
                         help="tabulate secrecy-capacity bounds")
    for flag in ("--k", "--d", "--n", "--beta", "--l1", "--l2"):
        cap.add_argument(flag, required=True, metavar="A[:B]")
    cap.add_argument("--csv", help="write CSV here instead of stdout")

    ver = sub.add_parser("verify",
                         help="run the property checks, and the integrity "
                              "checks when given a cluster")
    ver.add_argument("--cluster")
    ver.add_argument("--n", type=int)
    ver.add_argument("--k", type=int)
    ver.add_argument("--d", type=int)
    ver.add_argument("--m", type=int, default=1)
    ver.add_argument("--field", default="2,8", metavar="P,W")
    ver.add_argument("--samples", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--report", help="write the JSONL report here")
    return parser


def _cmd_encode(args) -> int:
    if args.input == "-":
        payload = sys.stdin.buffer.read()
    else:
        payload = Path(args.input).read_bytes()
    params = CodeParams(n=args.n, k=args.k, d=args.d, m=args.m)
    secure = _parse_pair(args.secure, "--secure") if args.secure else None
    state = ClusterState.create(args.cluster, params, _parse_field(args.field),
                                payload, secure=secure, seed=args.seed)
    mode = state.meta["mode"]
    print(f"encoded {len(payload)} bytes into {params.n} shares "
          f"({mode}) at {args.cluster}")
    return 0


def _cmd_fail_repair(args) -> int:
    state = ClusterState.load(args.cluster)
    helpers = _parse_ints(args.helpers) if args.helpers else None
    event = state.fail_repair(args.node, helpers)
    print(f"epoch {event['epoch']}: repaired node {event['failed']} "
          f"from helpers {event['helpers']}")
    return 0


def _cmd_reconstruct(args) -> int:
    state = ClusterState.load(args.cluster)
    nodes = _parse_ints(args.nodes) if args.nodes else None
    payload = state.reconstruct_payload(nodes)
    if args.output:
        Path(args.output).write_bytes(payload)
        print(f"wrote {len(payload)} bytes to {args.output}")
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def _cmd_attack(args) -> int:
    state = ClusterState.load(args.cluster)
    epochs = _parse_epochs(args.epochs) if args.epochs else None
    report = state.attack(_parse_ints(args.stored), _parse_ints(args.repair),
                          epochs=epochs)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    model = report["model"]
    print(f"eavesdropper: stored {list(model['stored'])}, "
          f"repairs of {list(model['repaired'])}")
    print(f"leakage: {report['leakage']} of "
          f"{state.codec.params.message_length} symbols "
          f"(rank growth {report['rank_growth']} over epochs "
          f"{report['epochs']})")
    print(f"secure size achieved: {report['secure_size']}")
    if report["perfect"] is not None:
        print(f"wrapping perfect against this model: {report['perfect']}")
    print(f"formula: {report['formula_value']} ({report['formula_kind']}), "
          f"{'consistent' if report['match'] else 'VIOLATED'}")
    return 0 if report["match"] else 1


def _cmd_capacity_table(args) -> int:
    from .capacity import CapacityQuery, capacity_csv
    queries = []
    for k, d, n, beta, l1, l2 in itertools.product(
            _parse_range(args.k), _parse_range(args.d), _parse_range(args.n),
            _parse_range(args.beta), _parse_range(args.l1),
            _parse_range(args.l2)):
        try:
            queries.append(CapacityQuery(k=k, d=d, n=n,
                                         alpha=(d - k + 1) * beta,
                                         beta=beta, l1=l1, l2=l2))
        except BadQuery:
            continue
    text = capacity_csv(queries)
    if args.csv:
        Path(args.csv).write_text(text)
        print(f"wrote {len(queries)} rows to {args.csv}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from . import harness
    given = {"samples": args.samples, "seed": args.seed}
    budget = harness.Budget(**{k: v for k, v in given.items()
                               if v is not None})
    ok = True
    if args.cluster:
        state = ClusterState.load(args.cluster)
        code = state.base
        for check in state.verify_cluster():
            ok &= check["passed"]
            tag = "PASS" if check["passed"] else "FAIL"
            print(f"{tag} cluster.{check['check']}: {check['detail']}")
    else:
        if args.n is None or args.k is None or args.d is None:
            print("error: verify needs --cluster or --n/--k/--d",
                  file=sys.stderr)
            return 2
        params = CodeParams(n=args.n, k=args.k, d=args.d, m=args.m)
        code = ProductMatrixCode(params, _parse_field(args.field))
    results = harness.check_all(code, budget)
    for res in results:
        ok &= res.passed
        tag = "PASS" if res.passed else "FAIL"
        extra = "" if res.witness is None else f"  witness: {res.witness}"
        print(f"{tag} {res.property} ({res.checks} checks){extra}")
    if args.report:
        Path(args.report).write_text(harness.report_jsonl(results))
    return 0 if ok else 1


_COMMANDS = {
    "encode": _cmd_encode,
    "fail-repair": _cmd_fail_repair,
    "reconstruct": _cmd_reconstruct,
    "attack": _cmd_attack,
    "capacity-table": _cmd_capacity_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # RslError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
