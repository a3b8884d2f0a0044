"""Kneser graphs, neighborhood geometries, rank-r incidence geometries
built from subset disjointness, and exact certificates of their structure.

The ground set is 0-indexed throughout and capped at 64 points, so every
subset is a single machine word.
"""

__version__ = "0.1.0"

from .subsets import (
    GroundSet,
    KSubset,
    colex_rank,
    colex_unrank,
    disjoint,
    enumerate_k_subsets,
    intersection_size,
)
from .graphs import (
    Graph,
    Graph6Error,
    INF,
    bfs_distances,
    bipartite_double_cover,
    diameter,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_bipartite,
    is_connected,
    odd_girth,
    shortest_odd_cycle,
)
from .isomorphism import (
    CanonicalForm,
    are_isomorphic,
    canonical_form,
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
    is_firm,
    is_geometry,
    is_residually_connected,
    is_thick,
    rank2_summary,
    residue,
    residue_mask,
    satisfies_ip2,
    truncation,
    vertex_edge_geometry,
)
from .kneser import (
    KneserParams,
    construct_even_path,
    construct_odd_path,
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
    incidence_graph_degree,
    predicted_diagram,
)
from .group_action import (
    Permutation,
    act_on_element,
    adjacent_transpositions,
    chamber_orbit_size,
    element_action,
    flag_orbit_count,
    is_type_preserving_automorphism,
    permutation_group_order,
    type_swap_map,
)
from .locally_x import (
    LocallyXReport,
    is_locally_x,
    neighborhood_graph,
    residue_reference_graph,
)
