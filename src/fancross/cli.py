"""Command-line interface: one thin adapter per library operation.

Exit codes: 0 = success or predicate true; 1 = predicate false or a
verification failure (a JSON report still goes to standard output); 2 =
usage error; 3 = input parse or format error.  All output is deterministic
for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from . import fixtures
from .cluster import Certificate, min_ell, search_certificate, verify_certificate
from .drawing import Drawing, _require_valid, crossing_graph, is_k_planar, validate
from .errors import CapExceeded, Infeasible, InvariantBroken
from .graphs import Graph
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
    model_from_json,
    model_to_json,
    synthresult_to_json,
    transduction_from_json,
    transduction_to_json,
)
from .minors import find_model_bruteforce, verify_model
from .synth import pipeline_theorem2, synthesize
from .transduce import (
    eval_formula,
    roundtrip,
    transduce_clustered,
    transduce_kplanar,
)

OK, FALSE, USAGE, PARSE = 0, 1, 2, 3


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ===== I/O helpers =====


def _emit(obj: Any, out: Optional[str] = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(PARSE, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(PARSE, f"bad json in {path}: {exc}") from exc


def _load_drawing(path: str) -> Drawing:
    return _require_valid(drawing_from_json(_load_json(path)))


def _load_cert(path: str, base: Graph) -> Certificate:
    return certificate_from_json(_load_json(path), base)


def _parse_x(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise _CliError(USAGE, f"bad vertex list {text!r}") from exc


def _x_edges(args: argparse.Namespace) -> dict[int, tuple[int, ...]]:
    """Each ``--x`` vertex with its neighbours in the ``--graph`` graph."""
    xs = _parse_x(args.x)
    if not xs:
        return {}
    if not args.graph:
        raise _CliError(USAGE, "--x needs --graph with the full graph")
    h = _full_graph(args)
    for v in xs:
        if not h.has_vertex(v):
            raise _CliError(PARSE, f"--x vertex {v} is not a vertex of {args.graph}")
    return {v: h.neighbors(v) for v in xs}


def _full_graph(args: argparse.Namespace) -> Graph:
    return graph_from_json(_load_json(args.graph))


# ===== Subcommands =====


def _cmd_validate(args: argparse.Namespace) -> int:
    errs = validate(drawing_from_json(_load_json(args.drawing)))
    _emit({"ok": not errs, "errors": errs})
    return OK if not errs else FALSE


def _cmd_crossgraph(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    plan = None
    if args.cert:
        plan = _load_cert(args.cert, d.base).plan
    cg = crossing_graph(d, plan)
    _emit(
        {
            "nodes": [{"edge": a.edge, "lo": a.lo, "hi": a.hi} for a in cg.nodes],
            "edges": [[i, j] for i, j in cg.edges],
            "crossings": [list(xs) for xs in cg.crossings],
            "components": [list(c) for c in cg.components(nontrivial=True)],
        }
    )
    return OK


def _cmd_kplanar(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    verdict = is_k_planar(d, args.k)
    worst = max((len(xs) for xs in d.edge_crossings.values()), default=0)
    _emit({"kplanar": verdict, "k": args.k, "maxCrossingsPerEdge": worst})
    return OK if verdict else FALSE


def _cmd_cluster_check(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    cert = _load_cert(args.cert, d.base)
    report = verify_certificate(d, cert, strong=args.strong)
    _emit(
        {
            "verdict": report.verdict,
            "failures": list(report.failures),
            "stats": report.stats,
        }
    )
    return OK if report.verdict else FALSE


def _cmd_cluster_search(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    cert = search_certificate(d, args.k, args.ell, strong=args.strong, cap=args.cap)
    if cert is None:
        _emit({"found": False, "k": args.k, "ell": args.ell, "strong": args.strong})
        return FALSE
    out = certificate_to_json(cert, d.base)
    out["found"] = True
    _emit(out, args.out)
    return OK


def _cmd_cluster_min_ell(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    _emit({"k": args.k, "minEll": min_ell(d, args.k, cap=args.cap)})
    return OK


def _cmd_model_verify(args: argparse.Namespace) -> int:
    m = model_from_json(_load_json(args.model))
    violations = verify_model(m)
    _emit({"ok": not violations, "violations": violations})
    return OK if not violations else FALSE


def _cmd_model_find(args: argparse.Namespace) -> int:
    host = graph_from_json(_load_json(args.host))
    pattern = graph_from_json(_load_json(args.pattern))
    m = find_model_bruteforce(host, pattern, args.c, args.d, cap=args.cap)
    if m is None:
        _emit({"found": False})
        return FALSE
    out = model_to_json(m)
    out["found"] = True
    _emit(out, args.out)
    return OK


def _cmd_synth(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    m = model_from_json(_load_json(args.model))
    try:
        res = synthesize(d, m)
    except InvariantBroken as exc:
        _emit({"ok": False, "error": str(exc)})
        return FALSE
    _emit(synthresult_to_json(res), args.out)
    return OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    host_plus = graph_from_json(_load_json(args.host_plus))
    m = model_from_json(_load_json(args.model))
    try:
        dropped, res = pipeline_theorem2(host_plus, args.apex, d, m, args.k)
    except InvariantBroken as exc:
        _emit({"ok": False, "error": str(exc)})
        return FALSE
    _emit(
        {"dropped": list(dropped), "result": synthresult_to_json(res)}, args.out
    )
    return OK


def _cmd_transduce(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    xe = _x_edges(args)
    try:
        if args.mode == "kplanar":
            out = transduce_kplanar(d, xe, args.k)
        else:
            if not args.cert:
                raise _CliError(USAGE, "clustered mode needs --cert")
            cert = _load_cert(args.cert, d.base)
            out = transduce_clustered(d, cert, xe, args.k)
    except (Infeasible, InvariantBroken) as exc:
        _emit({"ok": False, "error": str(exc)})
        return FALSE
    _emit(transduction_to_json(out), args.out)
    return OK


def _cmd_eval(args: argparse.Namespace) -> int:
    out = transduction_from_json(_load_json(args.transduction))
    _emit(graph_to_json(eval_formula(out)), args.out)
    return OK


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    xs = list(_x_edges(args))
    h = _full_graph(args) if args.graph else d.base
    cert = _load_cert(args.cert, d.base) if args.cert else None
    try:
        ok = roundtrip(h, d, xs, args.k, args.mode, cert)
    except (Infeasible, InvariantBroken) as exc:
        _emit({"roundtrip": False, "error": str(exc)})
        return FALSE
    _emit({"roundtrip": ok})
    return OK if ok else FALSE


def _cmd_gen(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig1a":
        obj: Any = drawing_to_json(fixtures.fig1a())
    elif name == "fig1a-cert":
        obj = certificate_to_json(fixtures.fig1a_certificate(), fixtures.fig1a().base)
    elif name == "fig1b":
        obj = drawing_to_json(fixtures.fig1b(args.m))
    elif name == "fig3":
        obj = drawing_to_json(fixtures.fig3())
    elif name == "random-kplanar":
        obj = drawing_to_json(fixtures.random_kplanar(args.n, args.k, args.seed))
    else:
        raise _CliError(USAGE, f"unknown fixture {name!r}")
    _emit(obj, args.out)
    return OK


def _dot_text(d: Drawing) -> str:
    owner = {pe: be for be, pes in d.trace.items() for pe in pes}
    lines = ["graph plan {"]
    for pv in d.plan.vertices:
        lines.append(f'  {pv} [kind="{d.kind[pv]}"];')
    for pe, (a, b) in enumerate(d.plan.edges):
        lines.append(f"  {a} -- {b} [base={owner[pe]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args: argparse.Namespace) -> int:
    d = _load_drawing(args.drawing)
    if args.format == "json":
        _emit(drawing_to_json(d), args.out)
        return OK
    text = _dot_text(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return OK


# ===== Parser =====


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fancross",
        description="k-planar and clustered fan-crossing drawings: check, "
        "search, synthesize, and transduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = cmd("validate", _cmd_validate, "check a drawing document's invariants")
    p.add_argument("drawing")

    p = cmd("crossgraph", _cmd_crossgraph, "arcs, crossings, and components")
    p.add_argument("drawing")
    p.add_argument("--cert", help="take subdivision cuts from this certificate")

    p = cmd("kplanar", _cmd_kplanar, "is every edge crossed at most k times?")
    p.add_argument("drawing")
    p.add_argument("--k", type=int, required=True)

    p = cmd("cluster-check", _cmd_cluster_check, "verify a clustered certificate")
    p.add_argument("drawing")
    p.add_argument("--cert", required=True)
    p.add_argument("--strong", action="store_true")

    p = cmd("cluster-search", _cmd_cluster_search, "exact certificate search")
    p.add_argument("drawing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--out")

    p = cmd("cluster-min-ell", _cmd_cluster_min_ell, "smallest feasible ell for k")
    p.add_argument("drawing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=12)

    p = cmd("model-verify", _cmd_model_verify, "check a minor model document")
    p.add_argument("model")

    p = cmd("model-find", _cmd_model_find, "brute-force a shallow minor model")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--out")

    p = cmd("synth", _cmd_synth, "draw a model's pattern with a certificate")
    p.add_argument("drawing", help="crossing-free drawing of the model's host")
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    p = cmd("pipeline", _cmd_pipeline, "split a universal apex, then synthesize")
    p.add_argument("drawing", help="crossing-free drawing of the host minus apex")
    p.add_argument("--host-plus", required=True, dest="host_plus")
    p.add_argument("--apex", type=int, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")

    p = cmd("transduce", _cmd_transduce, "compile a drawing into colors + formula")
    p.add_argument("drawing")
    p.add_argument("--mode", choices=("kplanar", "clustered"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cert")
    p.add_argument("--graph", help="full graph (needed when --x is nonempty)")
    p.add_argument("--x", default="", help='deleted vertices, e.g. "3,7"')
    p.add_argument("--out")

    p = cmd("eval", _cmd_eval, "evaluate the edge-recovery formula")
    p.add_argument("transduction")
    p.add_argument("--out")

    p = cmd("roundtrip", _cmd_roundtrip, "does eval(transduce(D)) equal H?")
    p.add_argument("drawing")
    p.add_argument("--mode", choices=("kplanar", "clustered"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cert")
    p.add_argument("--graph")
    p.add_argument("--x", default="")

    p = cmd("gen", _cmd_gen, "emit a shipped or seeded fixture")
    p.add_argument(
        "name", help="fig1a | fig1a-cert | fig1b | fig3 | random-kplanar"
    )
    p.add_argument("--m", type=int, default=6, help="bent edges for fig1b")
    p.add_argument("--n", type=int, default=10, help="vertices for random-kplanar")
    p.add_argument("--k", type=int, default=2, help="crossing bound for random-kplanar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = cmd("export-dot", _cmd_export_dot, "export a drawing's plan graph")
    p.add_argument("drawing")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return USAGE if code not in (0, None) else OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE if isinstance(exc, CapExceeded) else PARSE


if __name__ == "__main__":
    sys.exit(main())
