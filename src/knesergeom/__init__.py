"""Kneser graphs, neighborhood geometries, rank-r incidence geometries
built from subset disjointness, and exact certificates of their structure.

The ground set is 0-indexed throughout and capped at 64 points, so every
subset is a single machine word.
"""

__version__ = "0.1.0"

from .subsets import (
    GroundSet,
    KSubset,
    disjoint,
    enumerate_k_subsets,
)
from .graphs import (
    Graph,
    Graph6Error,
    INF,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_bipartite,
    odd_girth,
    shortest_odd_cycle,
)
from .isomorphism import (
    are_isomorphic,
    is_automorphism,
    verify_isomorphism,
)
from .incidence import (
    BuekenhoutDiagram,
    DIGON,
    FlagError,
    IncidenceSystem,
    NEITHER,
    PARTIAL_LINEAR_SPACE,
    RankTwoSummary,
    buekenhout_diagram,
    flags_of_type,
    incidence_graph,
    is_geometry,
    is_residually_connected,
    is_thick,
    rank2_summary,
    residue,
    residue_mask,
    satisfies_ip2,
)
from .kneser import (
    KneserParams,
    kneser_graph,
    kneser_neighborhood_geometry,
    neighborhood_geometry,
    predicted_diameter,
    predicted_gonality,
    predicted_odd_girth,
)
from .kneser_geometry import (
    GeometryParams,
    KneserGeometry,
    build_geometry,
    chamber_count,
    predicted_diagram,
)
from .group_action import (
    adjacent_transpositions,
    chamber_orbit_size,
    flag_orbit_count,
    is_type_preserving_automorphism,
    level_orbits,
    permutation_group_order,
    point_tables,
    symmetry_witness,
    type_swap_map,
)
from .locally_x import (
    LocallyXReport,
    is_locally_x,
    residue_reference_graph,
)
