"""graphenergy: exact adjacency spectra, graph energy, and small-graph censuses.

The public surface re-exports the main value types and operations; see the
README for the CLI.
"""

from .canon import aut_order, canonical_label
from .census import (
    GraphClassCensus,
    census_cache_load,
    census_cache_store,
    enumerate_connected,
    get_census,
)
from .classify import (
    BipartiteCheck,
    ClassKind,
    ClassLabel,
    classify,
    is_bipartite,
    is_edge_cut,
)
from .errors import (
    CacheMissError,
    CorruptCacheError,
    FamilyParseError,
    GraphEnergyError,
    Graph6ParseError,
    InvalidFamilyError,
    NotAnEdgeError,
    QuadratureAccuracyError,
    ScaleError,
)
from .graph6 import graph6_decode, graph6_encode
from .graphs import (
    Graph,
    delete_edges,
    disjoint_union,
    family_graph,
    make_b_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_s_graph,
    make_star,
    make_wheel,
)
from .spectral import (
    CoulsonEnergy,
    Spectrum,
    b_coeffs,
    char_poly,
    char_polys,
    closed_form_charpoly,
    energy,
    energy_coulsons,
    spectra,
)
from .verify import CheckContext, CheckResult, RankReport, rank_class, run_checks

__version__ = "0.1.0"

__all__ = [
    "BipartiteCheck",
    "CacheMissError",
    "CheckContext",
    "CheckResult",
    "ClassKind",
    "ClassLabel",
    "CorruptCacheError",
    "CoulsonEnergy",
    "FamilyParseError",
    "Graph",
    "Graph6ParseError",
    "GraphClassCensus",
    "GraphEnergyError",
    "InvalidFamilyError",
    "NotAnEdgeError",
    "QuadratureAccuracyError",
    "RankReport",
    "ScaleError",
    "Spectrum",
    "aut_order",
    "b_coeffs",
    "canonical_label",
    "census_cache_load",
    "census_cache_store",
    "char_poly",
    "char_polys",
    "classify",
    "closed_form_charpoly",
    "delete_edges",
    "disjoint_union",
    "energy",
    "energy_coulsons",
    "enumerate_connected",
    "family_graph",
    "get_census",
    "graph6_decode",
    "graph6_encode",
    "is_bipartite",
    "is_edge_cut",
    "make_b_graph",
    "make_complete",
    "make_complete_bipartite",
    "make_cycle",
    "make_s_graph",
    "make_star",
    "make_wheel",
    "rank_class",
    "run_checks",
    "spectra",
]
