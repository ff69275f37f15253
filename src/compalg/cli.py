"""Command-line front end.

Exit codes: 0 success, 1 parse/semantic error in the workspace document,
2 operation error (e.g. a chain junction mismatch), 3 validation failure.
Data goes to stdout, errors to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import dsl, engine, model
from .algebra import AlgebraKind, make_algebra, verify_axioms
from .errors import CompalgError, NotADistribution
from .dsl import ParseError, SemanticError


def _emit(args, obj, text_lines=None) -> None:
    """Write obj as canonical JSON, or text_lines with ``--format text``.

    A result holding an infinite or NaN float (float coefficients whose
    products overflow) is not written: it is a validation failure, exit 3.
    """
    try:
        data = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise SystemExit2("result is not finite: the float coefficients overflow", 3) \
            from None
    if args.format == "text" and text_lines is not None:
        sys.stdout.write("\n".join(text_lines) + "\n")
    else:
        sys.stdout.write(data + "\n")


def _need_workspace(args) -> dsl.Workspace:
    if not args.workspace:
        raise SystemExit2("this command needs --workspace", 1)
    try:
        with open(args.workspace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise SystemExit2(f"cannot read workspace: {exc}", 1)
    base = os.path.dirname(os.path.abspath(args.workspace))
    workspace = dsl.parse(text, base_dir=base)
    if hasattr(sys, "set_int_max_str_digits"):  # exact results print in full; main restores it
        sys.set_int_max_str_digits(0)
    return workspace


class SystemExit2(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise SystemExit2(f"unknown {kind} {name!r}", 1)
    return table[name]


def _parse_block(text: str) -> frozenset:
    """A detector block given as "{a, b}" or "a, b"; argparse type of --source."""
    inner = text.strip()
    if inner.startswith("{") and inner.endswith("}"):
        inner = inner[1:-1]
    if "{" in inner or "}" in inner:
        raise argparse.ArgumentTypeError(f"unbalanced or nested braces in block {text!r}")
    if not inner.strip():
        raise argparse.ArgumentTypeError(f"empty block {text!r}")
    ids = [x.strip() for x in inner.split(",")]
    if "" in ids or len(set(ids)) < len(ids):
        raise argparse.ArgumentTypeError(f"empty or repeated element id in block {text!r}")
    return frozenset(ids)


def cmd_classify(args) -> int:
    ws = _need_workspace(args)
    p = _lookup(ws.paths, args.path, "path")
    flags = model.classify(p)
    _emit(args, flags.to_json(), [
        f"cyclic: {flags.cyclic}", f"symmetric: {flags.symmetric}",
        f"trivial: {flags.trivial}", f"possible: {flags.possible}",
        f"igps: {list(flags.igps)}"])
    return 0


def _path_command(op, operands):
    """A handler applying op to the named workspace paths and printing its result."""
    def run(args) -> int:
        ws = _need_workspace(args)
        result = op(*(_lookup(ws.paths, getattr(args, name), "path") for name in operands))
        if isinstance(result, list):
            _emit(args, [model.path_to_json(p) for p in result], [repr(p) for p in result])
        else:
            _emit(args, model.path_to_json(result), [repr(result)])
        return 0
    return run


def cmd_enumerate(args) -> int:
    ws = _need_workspace(args)
    if args.what == "partitions":
        items = model.enumerate_partitions(_lookup(ws.grounds, args.name, "ground set"))
        count, to_json = len(items), model.measurement_to_json
    else:
        s = _lookup(ws.sequences, args.name, "sequence")
        items = () if args.count_only else model.enumerate_paths(s)  # bounded, listed to print
        count, to_json = model.path_count(s), model.path_to_json
    if args.count_only:
        sys.stdout.write(f"{count}\n")
        return 0
    _emit(args, {"count": count, "items": [to_json(x) for x in items]},
          [f"count: {count}"] + [repr(x) for x in items])
    return 0


def cmd_prob(args) -> int:
    ws = _need_workspace(args)
    p = _lookup(ws.paths, args.path, "path")
    asg = _lookup(ws.assignments, args.assignment, "assignment")
    result = engine.probability_of(p, asg)
    _emit(args, result.to_json(), [
        f"amplitude: [{', '.join(map(str, result.amplitude.coeffs))}]",
        f"probability: {result.probability}"])
    return 0


def cmd_sum_rule(args) -> int:
    ws = _need_workspace(args)
    s = _lookup(ws.sequences, args.sequence, "sequence")
    asg = _lookup(ws.assignments, args.assignment, "assignment")
    total = engine.total_probability(s, args.source, asg)
    _emit(args, {"total_probability": engine.coeff_json(total)}, [f"total: {total}"])
    return 0


def cmd_verify_algebra(args) -> int:
    try:
        kind = AlgebraKind.from_label(args.algebra)
    except ValueError as exc:
        raise SystemExit2(str(exc), 1)
    report = verify_axioms(make_algebra(kind), samples=args.samples,
                           seed=args.seed)
    lines = [f"{c.name}: {'pass' if c.passed else 'FAIL'}" for c in report.checks]
    _emit(args, report.to_json(), [f"algebra: {kind.label}"] + lines)
    return 0


def cmd_sample(args) -> int:
    ws = _need_workspace(args)
    s = _lookup(ws.sequences, args.sequence, "sequence")
    asg = _lookup(ws.assignments, args.assignment, "assignment")
    rows = engine.sample_rows(s, args.source, asg, args.n, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["path", "count", "probability"])
    for p, count, prob in rows:
        writer.writerow([
            json.dumps(model.path_to_json(p), sort_keys=True, separators=(",", ":")),
            count,
            engine.coeff_json(prob),
        ])
    return 0


def _non_negative_int(text: str, below=None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if below is not None and value >= below:
        raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compalg",
        description="Partition-path calculus over real composition algebras")
    parser.add_argument("-w", "--workspace", help="DSL document to load")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if formats:
            p.add_argument("--format", choices=["json", "text"], default="json")
        return p

    p = add("classify", cmd_classify, help="print path classification flags")
    p.add_argument("path")
    for name, op, operands, help_text in (
            ("normalize", model.normal_form, ("path",), "print the nonredundant form"),
            ("chain", model.chain, ("left", "right"), "chain two paths"),
            ("coarsen", model.coarsen, ("left", "right"), "coarsen two paths"),
            ("refine", model.refine, ("left", "right"), "refine two paths"),
            ("reverse", model.reverse, ("path",), "reverse a path"),
            ("factorize", model.factorize, ("path",), "split at interior atomic steps")):
        p = add(name, _path_command(op, operands), help=help_text)
        for operand in operands:
            p.add_argument(operand)
    p = add("enumerate", cmd_enumerate, help="enumerate partitions or paths")
    p.add_argument("what", choices=["partitions", "paths"])
    p.add_argument("name")
    p.add_argument("--count-only", action="store_true")
    p = add("prob", cmd_prob, help="amplitude and probability of a path")
    p.add_argument("path")
    p.add_argument("--assignment", required=True)
    p = add("sum-rule", cmd_sum_rule, help="total probability from a source")
    p.add_argument("sequence")
    p.add_argument("--assignment", required=True)
    p.add_argument("--source", type=_parse_block, required=True)
    p = add("verify-algebra", cmd_verify_algebra, help="axiom report for an algebra")
    p.add_argument("algebra")
    p.add_argument("--samples", type=_non_negative_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p = add("sample", cmd_sample, formats=False, help="draw paths from the exact distribution")
    p.add_argument("sequence")
    p.add_argument("--assignment", required=True)
    p.add_argument("--source", type=_parse_block, required=True)
    p.add_argument("-n", type=lambda t: _non_negative_int(t, engine.MAX_DRAWS), required=True)
    p.add_argument("--seed", type=_non_negative_int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        return args.fn(args)
    except (ParseError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotADistribution as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except CompalgError as exc:
        print(f"operation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
