"""Command-line front end.

Subcommands mirror the library: path enumeration, word reduction, lattice
paths, expectation, moments, cumulants, freeness checks, classification,
compressions, scalar series, the exact path-space oracle and a
noncrossing-partition debug view.  Output is canonical JSON (sorted keys,
compact separators, rational-string scalars) or an aligned table.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .compress import compressed_moment_series, compressed_r_transform, diagonal_compress
from .errors import DomainError, FormatError
from .fock import basis_size, verify_relations
from .freeprob import classify, cumulant, freeness_certificate, mixed_cumulants_vanish
from .freeprob import moment, partition_moments
from .graph import Graph, enumerate_paths, load_graph, word_tokens
from .ncpart import NoncrossingPartition, enumerate_nc, mobius, top_weights
from .opcalc import (
    CK,
    TOEPLITZ,
    DiagonalElement,
    Monomial,
    RandomVariable,
    Zero,
    diagonal_from_json,
    diagonal_to_json,
    expectation,
    lattice_path,
    parse_letters,
    reduce_monomial,
    variable_from_json,
    variable_to_json,
)
from .scalars import ExactComplex, format_rational

# Desk-scale bounds: cumulant and classify values come from the first-block
# recursion, and cumulant --contributions evaluates every partition of
# NC(n); the freeness scan runs the recursion over the {a, a*, b, b*}
# patterns of each order (4^n of them, half skipped as mirrors), and the
# oracle's basis and the path listing hold every word of length <= the bound.
ORDER_LIMIT = 8
FREE_ORDER_LIMIT = 6
NC_LIMIT = 10
BASIS_LIMIT = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not SystemExit."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# -- input loading ----------------------------------------------------------


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_graph(path: str) -> Graph:
    return load_graph(_read_json(path))


def _load_variable(path: str) -> RandomVariable:
    doc = _read_json(path)
    # The "graph" key may be a path, resolved against the document's folder.
    if isinstance(doc, dict) and isinstance(doc.get("graph"), str):
        gpath = Path(path).parent / doc["graph"]
        return variable_from_json(doc, _load_graph(str(gpath)))
    return variable_from_json(doc)


def _load_diagonals(paths: Sequence[str], graph, n: int) -> list | None:
    if not paths:
        return None
    if len(paths) > n:
        raise DomainError(f"got {len(paths)} diagonal files for order {n}")
    ds = [diagonal_from_json(_read_json(p), graph) for p in paths]
    return ds + [None] * (n - len(ds))


def _require_order(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    if n > limit:
        raise DomainError(f"{what} {n} exceeds the supported bound {limit}")


# -- rendering --------------------------------------------------------------


def _diag_lines(d: DiagonalElement) -> list[str]:
    if d.is_zero():
        return ["(zero)"]
    return [f"{v}  {c}" for v, c in sorted(d.entries.items())]


def _coeff_pair(c: ExactComplex) -> list[str]:
    return [format_rational(c.re), format_rational(c.im)]


# -- subcommand handlers (payload, table lines) -----------------------------


def _require_basis(graph: Graph, max_len: int, flag: str) -> None:
    size = basis_size(graph, max_len, BASIS_LIMIT)
    if size > BASIS_LIMIT:
        raise DomainError(
            f"{flag} {max_len} needs at least {size} basis words, "
            f"above the supported bound {BASIS_LIMIT}"
        )


def _cmd_paths(args):
    graph = _load_graph(args.graph)
    _require_basis(graph, args.max_len, "--max-len")
    words = enumerate_paths(graph, args.max_len)
    literals = [str(w) for w in words]
    return literals, literals


def _cmd_reduce(args):
    graph = _load_graph(args.graph)
    m = Monomial(parse_letters(graph, args.word))
    form = reduce_monomial(m, args.mode)
    if isinstance(form, Zero):
        return {"kind": "zero"}, ["0"]
    payload = {
        "kind": "pair",
        "alpha": word_tokens(form.alpha),
        "beta": word_tokens(form.beta),
    }
    return payload, [f"L[{form.alpha}] L*[{form.beta}]"]


def _cmd_lattice(args):
    graph = _load_graph(args.graph)
    path = lattice_path(Monomial(parse_letters(graph, args.word)))
    end = path.endpoint
    payload = {
        "empty": path.empty,
        "steps": [list(s) for s in path.steps],
        "endpoint": list(end) if end is not None else None,
        "star_axis": path.star_axis,
    }
    lines = [
        "empty" if path.empty else "steps: " + " ".join(f"({dx},{dy})" for dx, dy in path.steps),
        f"endpoint: {end}",
        f"star-axis: {'yes' if path.star_axis else 'no'}",
    ]
    return payload, lines


def _cmd_expect(args):
    var = _load_variable(args.var)
    value = expectation(var)
    return diagonal_to_json(value), _diag_lines(value)


def _cmd_moment(args):
    var = _load_variable(args.var)
    _require_order(args.n, 10**6, "moment order")
    ds = _load_diagonals(args.d, var.graph, args.n)
    value = moment([var] * args.n, ds)
    payload = {"n": args.n, "value": diagonal_to_json(value)}
    return payload, [f"n = {args.n}"] + _diag_lines(value)


def _cmd_cumulant(args):
    var = _load_variable(args.var)
    _require_order(args.n, ORDER_LIMIT, "cumulant order")
    ds = _load_diagonals(args.d, var.graph, args.n)
    value = cumulant([var] * args.n, ds)
    payload = {"n": args.n, "value": diagonal_to_json(value)}
    lines = [f"n = {args.n}"] + _diag_lines(value)
    if args.contributions:
        moments = partition_moments([var] * args.n, ds)
        weights = dict(zip(moments, top_weights(args.n)))
        entries = [
            {
                "partition": [list(b) for b in part.blocks],
                "mobius": str(weights[part]),
                "value": diagonal_to_json(moments[part]),
            }
            for part in sorted(moments, key=lambda p: (len(p.blocks), p.blocks))
        ]
        payload["contributions"] = entries
        lines.append(f"contributions: {len(entries)} partitions")
    return payload, lines


def _cmd_free(args):
    a = _load_variable(args.var)
    b = _load_variable(args.var2)
    _require_order(args.max_order, FREE_ORDER_LIMIT, "max order")
    certified = freeness_certificate(a, b)
    ok, witness = mixed_cumulants_vanish(a, b, args.max_order)
    payload = {
        "certificate": "diagram-distinct" if certified else "unknown",
        "brute_force_ok": ok,
    }
    lines = [
        f"certificate: {payload['certificate']}",
        f"mixed cumulants vanish to order {args.max_order}: {'yes' if ok else 'no'}",
    ]
    if witness is not None:
        payload["witness"] = {
            "order": witness.order,
            "pattern": list(witness.pattern),
            "value": diagonal_to_json(witness.value),
        }
        lines.append(f"witness: k{witness.order}({', '.join(witness.pattern)}) != 0")
    return payload, lines


def _cmd_classify(args):
    var = _load_variable(args.var)
    _require_order(args.max_order, ORDER_LIMIT, "max order")
    report = classify(var, args.max_order)
    payload = {
        "self_adjoint": report.self_adjoint,
        "semicircular": report.semicircular,
        "even": report.even,
        "r_diagonal": report.r_diagonal,
        "max_order": report.max_order,
        "support": report.support_hint,
    }
    lines = [f"{k}: {v}" for k, v in payload.items()]
    return payload, lines


def _split_vertices(text: str) -> list[str]:
    vs = [v.strip() for v in text.split(",") if v.strip()]
    if not vs:
        raise FormatError("no vertices given")
    return vs


def _cmd_compress(args):
    var = _load_variable(args.var)
    vs = _split_vertices(args.vertices)
    out = diagonal_compress(var, vs)
    payload = variable_to_json(out)
    lines = [
        f"L[{w}]{'*' if s else ''}  {c}"
        for (w, s), c in sorted(
            out.terms.items(), key=lambda kv: (kv[0][0].length, word_tokens(kv[0][0]), kv[0][1])
        )
    ] or ["(zero)"]
    return payload, lines


def _cmd_series(args):
    var = _load_variable(args.var)
    _require_order(args.order, 10**6, f"{args.kind} series order")
    fn = compressed_r_transform if args.kind == "rtransform" else compressed_moment_series
    coeffs = fn(var, args.vertex, args.order)
    payload = {
        "vertex": args.vertex,
        "kind": args.kind,
        "coefficients": [_coeff_pair(c) for c in coeffs],
    }
    width = len(str(args.order))
    lines = [f"n={i + 1:<{width}}  {c}" for i, c in enumerate(coeffs)]
    return payload, lines


def _cmd_oracle(args):
    graph = _load_graph(args.graph)
    _require_basis(graph, args.trunc, "--trunc")
    reports = verify_relations(graph, args.trunc)
    lines = [
        f"{r['status']:<12}  {r['max_error']:.3e}  {r['relation']}"
        + (f" [{r['word']}]" if r["word"] else "")
        for r in reports
    ]
    return reports, lines


def _cmd_nc_debug(args):
    _require_order(args.n, NC_LIMIT, "n")
    parts = enumerate_nc(args.n)
    mu = mobius(NoncrossingPartition.bottom(args.n), NoncrossingPartition.top(args.n))
    payload = {"n": args.n, "count": len(parts), "mobius_bottom_top": str(mu)}
    lines = [
        f"n = {args.n}",
        f"noncrossing partitions: {len(parts)}",
        f"mobius(bottom, top) = {mu}",
    ]
    return payload, lines


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphfp", description=__doc__.splitlines()[0])
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("paths", parents=[fmt], help="enumerate words up to a length")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("reduce", parents=[fmt], help="normal form of a word expression")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--mode", choices=(CK, TOEPLITZ), default=CK)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lattice", parents=[fmt], help="lattice path and *-axis verdict")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("expect", parents=[fmt], help="diagonal expectation of a variable")
    p.add_argument("--var", required=True)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("moment", parents=[fmt], help="amalgamated moment of order n")
    p.add_argument("--var", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--d", action="append", default=[], help="diagonal multiplier file (repeatable)")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("cumulant", parents=[fmt], help="amalgamated cumulant of order n")
    p.add_argument("--var", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--d", action="append", default=[], help="diagonal multiplier file (repeatable)")
    p.add_argument("--contributions", action="store_true", help="include per-partition terms")
    p.set_defaults(func=_cmd_cumulant)

    p = sub.add_parser("free", parents=[fmt], help="freeness certificate and brute-force check")
    p.add_argument("--var", required=True)
    p.add_argument("--var2", required=True)
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("classify", parents=[fmt], help="semicircular / even / R-diagonal report")
    p.add_argument("--var", required=True)
    p.add_argument("--max-order", type=int, default=6)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compress", parents=[fmt], help="vertex or diagonal compression")
    p.add_argument("--var", required=True)
    p.add_argument("--vertices", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("series", parents=[fmt], help="compressed moment or R series")
    p.add_argument("--var", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("moment", "rtransform"), default="moment")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("oracle", parents=[fmt], help="truncated Fock representation checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--trunc", type=int, default=6)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("nc-debug", parents=[fmt], help="noncrossing partition counts")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_nc_debug)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        payload, lines = args.func(args)
    except FormatError as exc:
        print(f"graphfp: malformed input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"graphfp: domain error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
