"""k-planar drawings, clustered fan-crossing certificates, shallow minors,
and first-order transductions of planar graphs."""

from __future__ import annotations

from .cluster import (
    Certificate,
    ClusterReport,
    min_ell,
    search_certificate,
    verify_certificate,
)
from .drawing import (
    ArcRef,
    CrossingGraph,
    Drawing,
    SubdivisionPlan,
    crossing_graph,
    is_k_planar,
    planarize,
    subdivide_with_map,
    validate,
)
from .errors import CapExceeded, Infeasible, InvariantBroken
from .graphs import (
    ColoredGraph,
    ColorLabel,
    Fan,
    Graph,
    add_universal_vertex,
    radius_center,
)
from .minors import (
    MinorModel,
    find_model_bruteforce,
    strip_universal,
    verify_model,
)
from .synth import RegionTag, SynthResult, pipeline_theorem2, synthesize
from .transduce import (
    TransductionFormula,
    TransductionOutput,
    eval_formula,
    render_formula,
    roundtrip,
    transduce_clustered,
    transduce_kplanar,
)

__version__ = "0.1.0"

__all__ = [
    "ArcRef",
    "CapExceeded",
    "Certificate",
    "ClusterReport",
    "ColorLabel",
    "ColoredGraph",
    "CrossingGraph",
    "Drawing",
    "Fan",
    "Graph",
    "Infeasible",
    "InvariantBroken",
    "MinorModel",
    "RegionTag",
    "SubdivisionPlan",
    "SynthResult",
    "TransductionFormula",
    "TransductionOutput",
    "add_universal_vertex",
    "crossing_graph",
    "eval_formula",
    "find_model_bruteforce",
    "is_k_planar",
    "min_ell",
    "pipeline_theorem2",
    "planarize",
    "radius_center",
    "render_formula",
    "roundtrip",
    "search_certificate",
    "strip_universal",
    "subdivide_with_map",
    "synthesize",
    "transduce_clustered",
    "transduce_kplanar",
    "validate",
    "verify_certificate",
    "verify_model",
    "__version__",
]
