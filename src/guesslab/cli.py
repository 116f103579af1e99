"""Command-line surface.

Exit codes: 0 success, 1 negative verdict (unsolvable / incompatible /
proved not linearly solvable), 2 input error, 3 exact-search bound hit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .coding import CodingFunction, fixed_points
from .coding import reduce_sequence as reduce_fn_sequence
from .digraph import Digraph, is_compatible, reduce_sequence, symmetrized
from .errors import GuesslabError, ParseError, PreconditionError, ResourceBoundError
from .guessing import (
    _solvability,
    guessing_number,
    h_loops,
    is_routing_solvable,
    strict_guessing_number,
)
from .linear import (
    NOT_LINEARLY_SOLVABLE,
    linear_guessing,
    prove_not_linearly_solvable,
)
from .serialize import emit_dot, emit_json, parse
from .unicast import UnicastInstance, to_guessing_digraph

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc


def _load(path):
    return parse(_read(path))


def _write_out(text, out):
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_obj(obj, as_json, out):
    if isinstance(obj, Digraph) and not as_json:
        _write_out(emit_dot(obj), out)
    else:
        _write_out(emit_json(obj) + "\n", out)


def _vertex_list(spec):
    try:
        return [int(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad vertex list {spec!r}") from exc


def _report(args, payload, human_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _cmd_reduce(args):
    obj = _load(args.file)
    seq = _vertex_list(args.vertices)
    if isinstance(obj, Digraph):
        reduced, relabel = reduce_sequence(obj, seq)
    elif isinstance(obj, CodingFunction):
        reduced, relabel = reduce_fn_sequence(obj, seq)
    else:
        raise PreconditionError("reduce expects a digraph or a coding function")
    print(f"relabel: {relabel}", file=sys.stderr)
    _emit_obj(reduced, args.json, args.output)
    return EXIT_OK


def _cmd_fix(args):
    obj = _load(args.file)
    if not isinstance(obj, CodingFunction):
        raise PreconditionError("fix expects a coding function")
    pts = fixed_points(obj)
    payload = {"count": len(pts), "fixed_points": [list(p) for p in pts]}
    lines = [f"fixed points: {len(pts)}"] + [
        ",".join(str(d) for d in p) for p in pts
    ]
    _report(args, payload, lines)
    return EXIT_OK


def _require_graph(obj, what):
    if not isinstance(obj, Digraph):
        raise PreconditionError(f"{what} expects a digraph")
    return obj


def _cmd_guess(args):
    g = _require_graph(_load(args.file), "guess")
    report = (strict_guessing_number if args.strict else guessing_number)(g, args.q)
    payload = {
        "kind": report.kind,
        "q": args.q,
        "max_fix": report.max_fix,
        "value": report.value,
        "method": report.method,
        "stats": dataclasses.asdict(report.stats) if report.stats else None,
    }
    _report(
        args,
        payload,
        [
            f"max |Fix| = {report.max_fix}",
            f"value (log_q) = {payload['value']:g}",
            f"kind = {report.kind}  method = {report.method}",
        ],
    )
    return EXIT_OK


def _cmd_hloops(args):
    g = _require_graph(_load(args.file), "hloops")
    report = h_loops(g, args.q)
    payload = {
        "kind": report.kind,
        "q": args.q,
        "max_fix": report.max_fix,
        "value": report.value,
    }
    _report(
        args,
        payload,
        [f"max |Fix| = {report.max_fix}", f"value (log_q) = {payload['value']:g}"],
    )
    return EXIT_OK


def _cmd_linear(args):
    g = _require_graph(_load(args.file), "linear")
    mode = "h" if args.strict else "g"
    report = linear_guessing(g, args.q, mode)
    payload = {
        "mode": mode,
        "q": args.q,
        "max_fix": report.max_fix,
        "dim": report.dim,
        "witness": [list(r) for r in report.witness.rows] if report.witness else None,
        "scanned": report.scanned,
        "closed_by": report.closed_by,
    }
    _report(
        args,
        payload,
        [
            f"max |Fix| = {report.max_fix}",
            f"dimension = {report.dim}",
            f"witness rows = {payload['witness']}",
            f"scanned = {report.scanned} ({report.closed_by})",
        ],
    )
    return EXIT_OK


def _cmd_solvable(args):
    g = _require_graph(_load(args.file), "solvable")
    negative = False
    payload = {}
    lines = []
    if args.prove_nonlinear:
        cert = prove_not_linearly_solvable(g)
        payload["linear_verdict"] = cert.verdict
        lines.append(f"linear verdict: {cert.verdict}")
        if cert.verdict == NOT_LINEARLY_SOLVABLE:
            negative = True
    if args.routing:
        ok = is_routing_solvable(g)
        payload["routing_solvable"] = ok
        lines.append(f"routing solvable: {ok}")
        if not ok:
            negative = True
    if args.q is not None:
        ok, k = _solvability(g, args.q)
        payload["solvable"] = ok
        payload["q"] = args.q
        payload["k"] = k
        lines.append(f"solvable over q={args.q}: {ok}")
        if not ok:
            negative = True
    if not payload:
        raise PreconditionError("solvable needs -q, --routing or --prove-nonlinear")
    _report(args, payload, lines)
    return EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_compat(args):
    g = _require_graph(_load(args.file), "compat")
    vertices = _vertex_list(args.set)
    ok = is_compatible(g, vertices, args.mode)
    _report(
        args,
        {"mode": args.mode, "set": vertices, "compatible": ok},
        [f"{args.mode} compatible: {ok}"],
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_construct(args):
    from .constructions import named

    try:
        params = [int(p) for p in args.params]
    except ValueError as exc:
        raise ParseError(f"construct parameters must be integers: {args.params}") from exc
    arity = {"gk": 1, "clique": 1, "biclique": 2}.get(args.family)
    if arity is not None and len(params) != arity:
        raise PreconditionError(f"{args.family} takes {arity} parameter(s), got {len(params)}")
    if args.family == "gk":
        g = named("gk", *params, "minimal" if args.minimal else "maximal").graph
    else:
        key = {
            "clique": "K",
            "empty": "E",
            "tournament": "T",
            "instar": "iS",
            "outstar": "oS",
            "star": "S",
            "cycle": "C",
            "biclique": "K",
        }.get(args.family, args.family)
        g = named(key, *params).graph
        if args.undirected:
            g = symmetrized(g)
    _emit_obj(g, args.json, args.output)
    return EXIT_OK


def _cmd_convert(args):
    obj = _load(args.file)
    if not isinstance(obj, UnicastInstance):
        raise PreconditionError("convert expects a unicast instance")
    _emit_obj(to_guessing_digraph(obj), args.json, args.output)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="guesslab",
        description="Exact guessing numbers, reductions and linear solvability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("reduce", _cmd_reduce, help="reduce a graph or coding function")
    p.add_argument("file")
    p.add_argument("--vertices", required=True, help="comma-separated original labels")
    p.add_argument("-o", "--output")

    p = add("fix", _cmd_fix, help="enumerate fixed points of a coding function")
    p.add_argument("file")

    p = add("guess", _cmd_guess, help="guessing number report")
    p.add_argument("file")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--strict", action="store_true")

    p = add("hloops", _cmd_hloops, help="strict value of the loop-full closure")
    p.add_argument("file")
    p.add_argument("-q", type=int, required=True)

    p = add("linear", _cmd_linear, help="exhaustive linear guessing report")
    p.add_argument("file")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--strict", action="store_true")

    p = add("solvable", _cmd_solvable, help="solvability verdicts")
    p.add_argument("file")
    p.add_argument("-q", type=int)
    p.add_argument("--routing", action="store_true")
    p.add_argument("--prove-nonlinear", action="store_true")

    p = add("compat", _cmd_compat, help="weak/strong compatibility of a set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=("weak", "strong"), default="strong")

    p = add("construct", _cmd_construct, help="emit a named graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--minimal", action="store_true", help="minimal gk variant")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("-o", "--output")

    p = add("convert", _cmd_convert, help="unicast instance to merged digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    return parser


@functools.cache
def _parser():
    """The process's one parser, built on first use: building costs ~25x parsing."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except GuesslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND if isinstance(exc, ResourceBoundError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
