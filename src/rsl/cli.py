"""Command-line entry points.

Subcommands operate on cluster directories (encode, fail-repair,
reconstruct, attack, verify) or are pure computations (capacity-table,
verify without --cluster).  Everything prints deterministic output; all
randomness is seeded and the seed is recorded in cluster metadata.

Each process compiles only what its command runs, by the rule the
README's "Library" section states and tests/test_startup.py enforces.
_TABLE describes every command and option once.  main() parses a
well-formed command line from it directly (_parse), so a plain call
never imports argparse, whose import and parser build cost more than
most commands' own work; anything else (help, abbreviations, errors)
goes to the argparse parser _build_parser() makes from the same table,
so every help, usage and error text is argparse's own.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .cluster import ClusterState
from .errors import BadQuery
from .field import FieldSpec
from .product_matrix import CodeParams, ProductMatrixCode


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _parse_range(text: str, flag: str) -> list[int]:
    """'3' -> [3]; '2:5' -> [2, 3, 4, 5]."""
    lo, colon, hi = text.partition(":")
    low = int(lo)
    high = int(hi) if colon else low
    if high < low:
        raise ValueError(f"{flag} needs A <= B, got {text!r}")
    return list(range(low, high + 1))


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


# each command once, as (help, {name: add_argument keywords}):
# _build_parser builds argparse's parser from it and _parse reads it
_RANGE = {"required": True, "metavar": "A[:B]"}
_TABLE = {
    "encode": ("create a cluster from a payload", {
        "--cluster": {"required": True},
        "--n": {"type": int, "required": True},
        "--k": {"type": int, "required": True},
        "--d": {"type": int, "required": True},
        "--m": {"type": int, "default": 1},
        "--field": {"default": "2,8", "metavar": "P,W"},
        "--secure": {"metavar": "L1,L2",
                     "help": "wrap against an (l1,l2)-eavesdropper"},
        "--seed": {"type": int, "help": "seed for the wrapping randomness"},
        "input": {"help": "payload file, or - for stdin"},
    }),
    "fail-repair": ("fail a node and repair it", {
        "--cluster": {"required": True},
        "--node": {"type": int, "required": True},
        "--helpers": {"metavar": "I,J,...",
                      "help": "defaults to the first d live nodes"},
    }),
    "reconstruct": ("decode the payload from k nodes", {
        "--cluster": {"required": True},
        "--nodes": {"metavar": "I,J,..."},
        "--output": {"help": "defaults to stdout"},
    }),
    "attack": ("measure what an eavesdropper learned", {
        "--cluster": {"required": True},
        "--stored": {"default": "", "metavar": "I,J,..."},
        "--repair": {"default": "", "metavar": "I,J,..."},
        "--epochs": {"metavar": "A:B"},
        "--json": {"action": "store_true"},
    }),
    "capacity-table": ("tabulate secrecy-capacity bounds", {
        "--k": _RANGE,
        "--d": _RANGE,
        "--n": _RANGE,
        "--beta": _RANGE,
        "--l1": _RANGE,
        "--l2": _RANGE,
        "--csv": {"help": "write CSV here instead of stdout"},
    }),
    "verify": ("run the property checks, and the integrity checks when "
               "given a cluster", {
        "--cluster": {},
        "--n": {"type": int},
        "--k": {"type": int},
        "--d": {"type": int},
        "--m": {"type": int, "default": 1},
        "--field": {"default": "2,8", "metavar": "P,W"},
        "--samples": {"type": int},
        "--seed": {"type": int},
        "--report": {"help": "write the JSONL report here"},
    }),
}


def _build_parser(subcommand=None):
    """The rsl parser, or that of its subcommand, for help, usage and
    errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="regenerating-code clusters with secure wrapping")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _TABLE.items():
        cmd = sub.add_parser(command, help=text)
        for name, keywords in options.items():
            cmd.add_argument(name, **keywords)
    return parser if subcommand is None else sub.choices[subcommand]


def _parse(argv):
    """What argparse would parse from argv if argv is in the plain form,
    else None.

    The plain form is the command name, then each option at most once as
    two words, --flag value, or one for a store_true flag, and encode's
    input among them, with no value or input starting with "-".  Every
    required option is there and every int option's value passes int().
    Anything else (help, an abbreviation, --flag=value, a repeat, "--",
    a value starting with "-", a bad int) is left to argparse.
    """
    if not argv or argv[0] not in _TABLE:
        return None
    options = _TABLE[argv[0]][1]
    given, words = {}, iter(argv[1:])
    for word in words:
        name, value = word, True
        if not word.startswith("-"):  # encode's input
            name = next((n for n in options if not n.startswith("-")), None)
            value = word
        elif options.get(word, {}).get("action") != "store_true":
            value = next(words, "-")
        if (name not in options or name in given
                or value is not True and value.startswith("-")):
            return None
        given[name] = value
    values = {"command": argv[0]}
    for name, keywords in options.items():
        if name in given:
            value = given[name]
            if keywords.get("type") is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        elif keywords.get("required") or not name.startswith("-"):
            return None
        else:
            value = keywords.get("default",
                                 False if "action" in keywords else None)
        values[name.lstrip("-")] = value
    return SimpleNamespace(**values)


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
    helpers = None if args.helpers is None else _parse_ints(args.helpers)
    event = state.fail_repair(args.node, helpers)
    print(f"epoch {event['epoch']}: repaired node {event['failed']} "
          f"from helpers {event['helpers']}")
    return 0


def _cmd_reconstruct(args) -> int:
    state = ClusterState.load(args.cluster)
    nodes = None if args.nodes is None else _parse_ints(args.nodes)
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
          f"{state.code.params.message_length} symbols "
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
    ranges = [_parse_range(getattr(args, name[2:]), name)
              for name, keywords in _TABLE["capacity-table"][1].items()
              if keywords is _RANGE]
    for k, d, n, beta, l1, l2 in itertools.product(*ranges):
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
        code = state.code
        for check in state.verify_cluster():
            ok &= check["passed"]
            tag = "PASS" if check["passed"] else "FAIL"
            print(f"{tag} cluster.{check['check']}: {check['detail']}")
    else:
        if args.n is None or args.k is None or args.d is None:
            try:
                _build_parser("verify").error(
                    "verify needs --cluster or --n/--k/--d")
            except SystemExit as exc:  # argparse's usage and error text
                return exc.code
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # RslError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
