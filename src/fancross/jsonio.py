"""JSON wire formats for all package value types.

The formats are stable: keys are fixed, lists are emitted in deterministic
order, and loading is strict (malformed documents raise ``ValueError``).
Every integer field must hold an integer: ``1.5``, ``2.0``, ``"2"`` and
``true`` are refused, never truncated, and edge ids must name an edge.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .cluster import Certificate
from .drawing import Drawing, SubdivisionPlan
from .graphs import ColoredGraph, ColorLabel, Fan, Graph
from .minors import MinorModel
from .synth import RegionTag, SynthResult
from .transduce import TransductionFormula, TransductionOutput


# ===== Graph =====


def graph_to_json(g: Graph) -> dict[str, Any]:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_json(obj: Mapping[str, Any]) -> Graph:
    try:
        vertices = _ints("graph", "vertex", obj["vertices"])
        edges = obj["edges"]
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"bad graph document: edge {e!r} is not a pair")
        _ints("graph", "edge", [v for e in edges for v in e])
        return Graph.make(vertices, edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad graph document: {exc}") from exc


# ===== ColoredGraph =====


def colored_to_json(c: ColoredGraph) -> dict[str, Any]:
    out = graph_to_json(c.graph)
    out["colors"] = {
        str(v): sorted(str(l) for l in c.colors[v]) for v in sorted(c.colors)
    }
    return out


def colored_from_json(obj: Mapping[str, Any]) -> ColoredGraph:
    """A document names few distinct labels, so each text is parsed once."""
    g = graph_from_json(obj)
    parsed: dict[str, ColorLabel] = {}

    def label(text: Any) -> ColorLabel:
        if not isinstance(text, str):
            return ColorLabel.parse(text)  # which refuses it
        got = parsed.get(text)
        if got is None:
            got = parsed[text] = ColorLabel.parse(text)
        return got

    try:
        colors = {
            int(v): frozenset(map(label, labels))
            for v, labels in obj.get("colors", {}).items()
        }
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"bad colors document: {exc}") from exc
    return ColoredGraph(g, colors)


# ===== Drawing =====


def drawing_to_json(d: Drawing) -> dict[str, Any]:
    """``outers`` is written only when it names a face, so a drawing whose
    plan has one component with edges keeps its one-outer-face document."""
    out = {
        "base": graph_to_json(d.base),
        "plan": graph_to_json(d.plan),
        "rotation": {str(v): list(d.rotation[v]) for v in sorted(d.rotation)},
        "kind": {str(v): d.kind[v] for v in sorted(d.kind)},
        "trace": {str(e): list(d.trace[e]) for e in sorted(d.trace)},
        "outer": d.outer,
    }
    if d.outers:
        out["outers"] = list(d.outers)
    return out


def drawing_from_json(obj: Mapping[str, Any]) -> Drawing:
    try:
        base = graph_from_json(obj["base"])
        plan = graph_from_json(obj["plan"])
        rotation = {int(v): _ints("drawing", "rotation", r) for v, r in obj["rotation"].items()}
        kind = {int(v): str(k) for v, k in obj["kind"].items()}
        trace = {int(e): _ints("drawing", "trace", t) for e, t in obj["trace"].items()}
        outer = _int("drawing", "outer", obj["outer"])
        outers = _ints("drawing", "outers", obj.get("outers", ()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad drawing document: {exc}") from exc
    return Drawing(base, plan, rotation, kind, trace, outer, outers)


def _ints(doc: str, field: str, entries: Any, bound: Optional[int] = None) -> tuple[int, ...]:
    """A list of integers, each in ``range(bound)`` if a bound is given.

    ``bool`` is refused although it is an int.
    """
    ids = tuple(entries)
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"bad {doc} document: {field} entry {i!r} is not an integer")
        if bound is not None and not 0 <= i < bound:
            raise ValueError(f"bad {doc} document: {field} entry {i} is out of range")
    return ids


def _int(doc: str, field: str, value: Any, bound: Optional[int] = None) -> int:
    return _ints(doc, field, (value,), bound)[0]


def _key(doc: str, field: str, key: Any, bound: Optional[int] = None) -> int:
    """An object key naming an integer; JSON keys are text, so ``"7"`` is 7."""
    if isinstance(key, str):
        try:
            key = int(key)
        except ValueError:
            pass  # refused by _int below
    return _int(doc, field, key, bound)


# ===== Certificate =====


def certificate_to_json(cert: Certificate, base: Graph) -> dict[str, Any]:
    """Fans are serialized by edge id, so the base graph is required."""
    covers = {
        str(cid): [
            {
                "center": f.center,
                "edges": sorted(base.edge_id(u, v) for u, v in f.edges),
            }
            for f in fans
        ]
        for cid, fans in sorted(cert.covers.items())
    }
    assignment = [
        {"edge": e, "piece": p, "center": c}
        for (e, p), c in sorted(cert.assignment.items())
    ]
    return {
        "k": cert.k,
        "ell": cert.ell,
        "cuts": {str(e): list(g) for e, g in sorted(cert.plan.cuts.items())},
        "covers": covers,
        "assignment": assignment,
    }


def certificate_from_json(obj: Mapping[str, Any], base: Graph) -> Certificate:
    doc = "certificate"
    try:
        cuts = {
            _key(doc, "cuts", e, base.m): _ints(doc, "cut", g)
            for e, g in obj.get("cuts", {}).items()
        }
        covers = {
            _key(doc, "covers", cid): tuple(
                Fan(
                    _int(doc, "center", f["center"]),
                    tuple(base.edges[e] for e in _ints(doc, "fan edge", f["edges"], base.m)),
                )
                for f in fans
            )
            for cid, fans in obj.get("covers", {}).items()
        }
        assignment = {
            (_int(doc, "edge", a["edge"], base.m), _int(doc, "piece", a["piece"])):
                _int(doc, "center", a["center"])
            for a in obj.get("assignment", [])
        }
        k, ell = _int(doc, "k", obj["k"]), _int(doc, "ell", obj["ell"])
        return Certificate(k, ell, SubdivisionPlan(cuts), covers, assignment)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad certificate document: {exc}") from exc


# ===== Minor models =====


def model_to_json(m: MinorModel) -> dict[str, Any]:
    return {
        "host": graph_to_json(m.host),
        "pattern": graph_to_json(m.pattern),
        "branch": {str(v): sorted(vs) for v, vs in sorted(m.branch.items())},
        "c": m.c,
        "d": m.d,
    }


def model_from_json(obj: Mapping[str, Any]) -> MinorModel:
    try:
        return MinorModel(
            graph_from_json(obj["host"]),
            graph_from_json(obj["pattern"]),
            {
                _key("model", "branch", v): _ints("model", "branch", vs)
                for v, vs in obj.get("branch", {}).items()
            },
            _int("model", "c", obj["c"]),
            _int("model", "d", obj["d"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad model document: {exc}") from exc


# ===== Transduction outputs =====


def transduction_to_json(t: TransductionOutput) -> dict[str, Any]:
    out = colored_to_json(t.colored)
    out["embed"] = {str(h): g for h, g in sorted(t.embed.items())}
    out["formula"] = {"k": t.formula.k, "mode": t.formula.mode}
    out["X"] = list(t.x)
    return out


def transduction_from_json(obj: Mapping[str, Any]) -> TransductionOutput:
    colored = colored_from_json(obj)
    try:
        embed = {
            _key("transduction", "embed", h): _int("transduction", "embed", g)
            for h, g in obj["embed"].items()
        }
        formula = TransductionFormula.for_mode(
            _int("transduction", "k", obj["formula"]["k"]), str(obj["formula"]["mode"])
        )
        x = tuple(sorted(_ints("transduction", "X", obj["X"])))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad transduction document: {exc}") from exc
    return TransductionOutput(colored, embed, formula, x)


# ===== Synthesis results =====


def synthresult_to_json(r: SynthResult) -> dict[str, Any]:
    return {
        "drawing": drawing_to_json(r.drawing),
        "cert": certificate_to_json(r.cert, r.drawing.base),
        "kPrime": r.kPrime,
        "tags": {
            str(pv): {"kind": t.kind, "ref": list(t.ref)}
            for pv, t in sorted(r.tags.items())
        },
        "routes": {str(e): list(p) for e, p in sorted(r.routes.items())},
    }


def synthresult_from_json(obj: Mapping[str, Any]) -> SynthResult:
    doc = "synthesis"
    try:
        drawing = drawing_from_json(obj["drawing"])
        cert = certificate_from_json(obj["cert"], drawing.base)
        tags = {
            _key(doc, "tags", pv): RegionTag(str(t["kind"]), _ints(doc, "ref", t["ref"]))
            for pv, t in obj.get("tags", {}).items()
        }
        routes = {
            _key(doc, "routes", e): _ints(doc, "route", p)
            for e, p in obj.get("routes", {}).items()
        }
        return SynthResult(drawing, cert, _int(doc, "kPrime", obj["kPrime"]), tags, routes)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad synthesis document: {exc}") from exc
