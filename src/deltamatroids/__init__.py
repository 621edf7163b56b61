"""Set systems, delta-matroids, twisted duality, and the graph bridge."""

from .setsystem import (
    ElementClass,
    Op,
    SetSystem,
    UnrealizableMinorError,
    canonical_key,
)
from .exchange import (
    ExchangeWitness,
    check_symmetric_exchange,
    is_delta_matroid,
    is_even,
    is_normal,
)
from .duality import (
    Orbit,
    dual_pivot,
    find_catalog_3_minor,
    is_vf_safe,
    is_vf_safe_via_obstruction,
    orbit,
    twisted_duals_wrt,
)
from .gf2 import (
    SymmetricBinaryMatrix,
    is_basic_binary,
    is_binary,
    reconstruct_basic_matrix,
)
from .graphs import (
    ChordDiagram,
    LoopedSimpleGraph,
    circle_obstructions,
    find_circle_obstructions,
    is_circle_graph,
    is_ribbon_graphic,
    is_vertex_minor,
)
from . import catalog, formats, verify

__all__ = [
    "ChordDiagram",
    "ElementClass",
    "ExchangeWitness",
    "LoopedSimpleGraph",
    "Op",
    "Orbit",
    "SetSystem",
    "SymmetricBinaryMatrix",
    "UnrealizableMinorError",
    "canonical_key",
    "catalog",
    "check_symmetric_exchange",
    "circle_obstructions",
    "dual_pivot",
    "find_catalog_3_minor",
    "find_circle_obstructions",
    "formats",
    "is_basic_binary",
    "is_binary",
    "is_circle_graph",
    "is_delta_matroid",
    "is_even",
    "is_normal",
    "is_ribbon_graphic",
    "is_vertex_minor",
    "is_vf_safe",
    "is_vf_safe_via_obstruction",
    "orbit",
    "reconstruct_basic_matrix",
    "twisted_duals_wrt",
    "verify",
]
