import random
import tracemalloc
from itertools import combinations

import networkx as nx
from hypothesis import given, settings, strategies as st

from knesergeom import (
    GeometryParams,
    Graph,
    are_isomorphic,
    build_geometry,
    induced_subgraph,
    residue_reference_graph,
    verify_isomorphism,
)
from knesergeom.graphs import _iter_bits
from knesergeom.isomorphism import (
    _edge_check,
    _ReferencePath,
    _color_partition,
    _refine,
    _search,
    color_refine,
    normalize_colors,
    wl_signature,
)
from helpers import (
    adjacency,
    brute_force_isomorphism,
    edge_check_oracle,
    graph_from_nx,
    induced_subgraph_oracle,
    random_graph,
    refine_scan_all_oracle,
    wl_refine_oracle,
)

C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_C3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_c5_relabel_invariance():
    rng = random.Random(1)
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        h = relabel(C5, perm)
        mapping = are_isomorphic(C5, h)
        assert mapping is not None and verify_isomorphism(C5, h, mapping)


def test_same_degree_sequence_distinguished():
    assert are_isomorphic(C6, TWO_C3) is None


def test_desargues_vs_dodecahedron(desargues):
    dod = graph_from_nx(nx.dodecahedral_graph())
    assert are_isomorphic(desargues, dod) is None
    assert are_isomorphic(desargues, graph_from_nx(nx.desargues_graph())) is not None


def test_self_isomorphism(petersen, desargues):
    for g in [C5, C6, TWO_C3, petersen, desargues]:
        mapping = are_isomorphic(g, g)
        assert mapping is not None
        assert verify_isomorphism(g, g, mapping)


def test_petersen_vs_two_k5(petersen):
    two_k5 = Graph(
        10,
        [(i, j) for i in range(5) for j in range(i + 1, 5)]
        + [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)],
    )
    assert are_isomorphic(petersen, two_k5) is None


def test_relabel_closure_on_corpus(petersen, desargues):
    rng = random.Random(42)
    corpus = [C5, C6, TWO_C3, petersen, desargues, random_graph(rng, 9, 0.4)]
    for g in corpus:
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            mapping = are_isomorphic(g, h)
            assert mapping is not None and verify_isomorphism(g, h, mapping)


def test_colors_pin_classes():
    # path 0-1-2: classes {endpoint, endpoint+middle} cannot be matched when
    # one graph puts the middle vertex in the paired class
    g = Graph(3, [(0, 1), (1, 2)])
    assert are_isomorphic(g, g, [0, 0, 1], [0, 1, 0]) is None
    assert are_isomorphic(g, g, [0, 1, 2], [0, 1, 2]) is not None
    assert are_isomorphic(g, g, [0, 1, 0], [0, 1, 0]) is not None
    # reversing both the path and the colors is still color-respecting
    mapping = are_isomorphic(g, g, [0, 1, 2], [2, 1, 0])
    assert mapping == [2, 1, 0]


def test_color_refine_stable():
    colors = color_refine(C6.neighbor_masks, (0,) * 6)
    assert len(set(colors)) == 1  # vertex-transitive, nothing to split
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    colors = color_refine(star.neighbor_masks, (0,) * 4)
    assert colors[0] != colors[1] and colors[1] == colors[2] == colors[3]


def test_wl_signature_prefilter(petersen):
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert wl_signature(star) != wl_signature(path)
    assert wl_signature(petersen) == wl_signature(relabel(petersen, list(reversed(range(10)))))
    # regular graphs can collide on the signature; the full search still
    # separates them
    assert wl_signature(C6) == wl_signature(TWO_C3)
    assert are_isomorphic(C6, TWO_C3) is None


def test_brute_force_agreement_small():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randrange(0, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        h = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        ours = are_isomorphic(g, h)
        brute = brute_force_isomorphism(g, h)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert verify_isomorphism(g, h, ours)


@st.composite
def relabelled_pair(draw):
    """A graph on up to 12 vertices, a relabelling of it, and the same
    relabelling with one edge moved onto a non-edge (None when the graph is
    empty or complete)."""
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, b in zip(pairs, bits) if b]
    non_edges = [p for p, b in zip(pairs, bits) if not b]
    perm = draw(st.permutations(range(n)))
    g = Graph(n, edges)
    h = relabel(g, perm)
    near = None
    if edges and non_edges:
        moved = draw(st.sampled_from(edges))
        added = draw(st.sampled_from(non_edges))
        near = relabel(Graph(n, [e for e in edges if e != moved] + [added]), perm)
    return g, h, near


def _nx(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    return nxg


@settings(max_examples=200, deadline=None)
@given(relabelled_pair())
def test_are_isomorphic_matches_networkx_property(case):
    g, h, near = case
    mapping = are_isomorphic(g, h)
    assert mapping is not None and verify_isomorphism(g, h, mapping)
    if near is not None:
        found = are_isomorphic(g, near)
        assert (found is not None) == nx.is_isomorphic(_nx(g), _nx(near))
        if found is not None:
            assert verify_isomorphism(g, near, found)


@st.composite
def colored_relabelled(draw):
    """A graph on up to 14 vertices with a coloring in at most 4 colors, and
    a permutation pi of its vertices."""
    n = draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [p for p, b in zip(pairs, bits) if b]), colors, perm


@settings(max_examples=300, deadline=None)
@given(colored_relabelled())
def test_color_refine_matches_wl_oracle_property(case):
    g, colors, perm = case
    ids = color_refine(g.neighbor_masks, colors)
    oracle = wl_refine_oracle(adjacency(g), colors)
    # the same set partition: cell ids and oracle colors correspond 1-1
    assert len(set(zip(ids, oracle))) == len(set(ids)) == len(set(oracle))
    relabelled_colors = [0] * g.n
    for v in range(g.n):
        relabelled_colors[perm[v]] = colors[v]
    new_ids = color_refine(relabel(g, perm).neighbor_masks, relabelled_colors)
    assert all(new_ids[perm[v]] == ids[v] for v in range(g.n))


@st.composite
def refine_cases(draw):
    """(masks, cells, queue) twice over one vertex set of up to 14: a random
    graph, the cells of a coloring in at most 3 colours, and as the queue
    either every cell or, as a search level makes it, one vertex split off
    its cell; the second graph is the first relabelled or another one."""
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def case(g):
        colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        cells = _color_partition(normalize_colors(colors, n))
        v = draw(st.none() | st.integers(0, n - 1))
        if v is not None:
            ci = next(i for i, cell in enumerate(cells) if cell >> v & 1)
            if cells[ci] != 1 << v:
                cells[ci] ^= 1 << v
                return g.neighbor_masks, [*cells, 1 << v], [len(cells)]
        return g.neighbor_masks, cells, list(range(len(cells)))

    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, b in zip(pairs, bits) if b])
    other = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    h = relabel(g, draw(st.permutations(range(n)))) if draw(st.booleans()) else \
        Graph(n, [p for p, b in zip(pairs, other) if b])
    return case(g), case(h)


@settings(max_examples=300, deadline=None)
@given(refine_cases())
def test_refine_matches_the_unfiltered_scan_property(cases):
    # a one-vertex splitter visits only the cells its neighbourhood cuts;
    # the traces and the cells left must be those of a visit to every cell
    # the neighbourhood touches, with and without an expected trace, which
    # is taken from the second graph and may depart from the first's
    (masks, cells, queue), (h_masks, h_cells, h_queue) = cases
    expected = refine_scan_all_oracle(h_masks, h_cells, h_queue)
    for exp in (None, expected):
        ours, theirs = list(cells), list(cells)
        trace = _refine(masks, ours, list(queue), exp)
        assert trace == refine_scan_all_oracle(masks, theirs, list(queue), exp)
        assert ours == theirs


def cayley_z4xz4(connection):
    """Cayley graph on Z4 x Z4 with a symmetric connection set."""
    elems = [(a, b) for a in range(4) for b in range(4)]
    index = {e: i for i, e in enumerate(elems)}
    edges = {
        tuple(sorted((index[(a, b)], index[((a + c) % 4, (b + d) % 4)])))
        for a, b in elems
        for c, d in connection
    }
    return Graph(16, edges)


def test_rook_vs_shrikhande_backtracks():
    # both are SRG(16, 6, 2, 2): 1-WL cannot tell them apart, so the search
    # has to individualize and backtrack before it rejects the pair
    rook = cayley_z4xz4([(a, 0) for a in (1, 2, 3)] + [(0, b) for b in (1, 2, 3)])
    shrikhande = cayley_z4xz4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    for g in (rook, shrikhande):
        assert all(g.degree(v) == 6 for v in range(16)) and g.n_edges == 48
        for u, v in combinations(range(16), 2):
            common = (g.neighbor_masks[u] & g.neighbor_masks[v]).bit_count()
            assert common == 2
    assert wl_signature(rook) == wl_signature(shrikhande)
    assert are_isomorphic(rook, shrikhande) is None
    assert are_isomorphic(shrikhande, rook) is None
    # in their disjoint union 1-WL sees one cell, so a candidate from the
    # wrong component fails only after individualization and is backtracked
    union = Graph(32, rook.edges() + [(u + 16, v + 16) for u, v in shrikhande.edges()])
    rng = random.Random(16)
    for g in (rook, shrikhande, union):
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            mapping = are_isomorphic(g, h)
            assert mapping is not None and verify_isomorphism(g, h, mapping)


def test_deep_search_has_no_recursion_limit():
    # an edgeless graph is never split by refinement, so the search
    # individualizes one vertex per level, n - 1 levels deep
    g = Graph(1200)
    mapping = are_isomorphic(g, Graph(1200))
    assert mapping is not None and verify_isomorphism(g, Graph(1200), mapping)


def _search_neighborhood(g, v, x):
    """The in-place search of N(v) against x, as is_locally_x runs it."""
    masks = g.neighbor_masks
    return _search(masks, masks[v], [masks[v]], _ReferencePath(x, (0,) * x.n))


def _moved_edge(g, rng):
    """g with one edge moved onto a non-edge so that the result is not
    isomorphic to g, or None if no tried move does that."""
    edges = g.edges()
    non_edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    if not edges or not non_edges:
        return None
    for _ in range(20):
        moved, added = rng.choice(edges), rng.choice(non_edges)
        near = Graph(g.n, [e for e in edges if e != moved] + [added])
        if not nx.is_isomorphic(_nx(g), _nx(near)):
            return near
    return None


@st.composite
def graph_and_rng(draw):
    n = draw(st.integers(1, 13))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, bits) if b]), draw(st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None)
@given(graph_and_rng())
def test_in_place_search_matches_are_isomorphic_on_neighborhood_property(case):
    # against N(v) relabelled at random and against a graph of the same
    # order and size that is not isomorphic to it, the search on g's masks
    # returns exactly what are_isomorphic returns on the built subgraph
    g, rng = case
    for v in range(g.n):
        nbhd = induced_subgraph_oracle(g, adjacency(g)[v])
        perm = list(range(nbhd.n))
        rng.shuffle(perm)
        relabelled = relabel(nbhd, perm)
        found = _search_neighborhood(g, v, relabelled)
        assert found is not None
        assert found == are_isomorphic(induced_subgraph(g, _iter_bits(g.neighbor_masks[v]))[0], relabelled)
        near = _moved_edge(nbhd, rng)
        if near is not None:
            assert _search_neighborhood(g, v, near) is None
            assert are_isomorphic(induced_subgraph(g, _iter_bits(g.neighbor_masks[v]))[0], near) is None


def test_in_place_edge_check_rejects_swaps_and_ignores_outside_neighbors():
    geom = build_geometry(GeometryParams(5, 2, 3))
    g, x = geom.incidence_system().graph, residue_reference_graph(geom)
    masks = g.neighbor_masks
    domain = masks[0]
    mapping = _search_neighborhood(g, 0, x)
    assert mapping is not None
    # every vertex of N(0) is adjacent to 0, which lies outside N(0): the
    # check reads masks[u] & domain and still accepts the map
    vs = adjacency(g)[0]
    assert all(masks[u] & ~domain for u in vs)
    assert _edge_check(masks, domain, x, mapping)
    # swapping the images of i and j keeps an isomorphism iff i and j are
    # twins in N(0); every swap of a non-twin pair is rejected
    non_twins = 0
    for i, j in combinations(range(len(vs)), 2):
        a, b = vs[i], vs[j]
        twins = (masks[a] & domain) & ~(1 << b) == (masks[b] & domain) & ~(1 << a)
        swapped = list(mapping)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert _edge_check(masks, domain, x, swapped) == twins
        non_twins += not twins
    assert non_twins > 0


def test_edge_check_holds_nothing_of_host_width():
    # X is N(0) of the 9,520-vertex (9,4,4) incidence graph, read in place
    # on g's rows; a table of one host-width preimage bit per vertex of X
    # peaked at about 2.8 MB
    g = build_geometry(GeometryParams(9, 4, 4)).incidence_system().graph
    masks = g.neighbor_masks
    x = induced_subgraph(g, _iter_bits(masks[0]))[0]
    mapping = list(range(x.n))
    tracemalloc.start()
    try:
        ok = _edge_check(masks, masks[0], x, mapping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and x.n == 2145
    assert peak < 1 << 20, peak


@st.composite
def edge_check_cases(draw):
    """A random graph g, a sub-domain of its vertices (whose members may
    have neighbours outside it), a graph h on as many vertices and a map:
    a relabelling of g's induced subgraph with its map, with two images
    swapped, against a random h, or not a bijection at all."""
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, b in zip(pairs, bits) if b])
    vs = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else [])
    domain = sum(1 << v for v in vs)
    m = len(vs)
    perm = draw(st.permutations(range(m)))
    h = Graph(m, [(perm[i], perm[j]) for i, j in combinations(range(m), 2)
                  if g.has_edge(vs[i], vs[j])])
    mapping = list(perm)
    kind = draw(st.sampled_from(["iso", "swap", "random", "repeat", "short", "outside"]))
    if kind == "swap" and m >= 2:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        mapping[i], mapping[j] = mapping[j], mapping[i]
    elif kind == "random":
        hp = [(i, j) for i in range(m) for j in range(i + 1, m)]
        hb = draw(st.lists(st.booleans(), min_size=len(hp), max_size=len(hp)))
        h = Graph(m, [p for p, b in zip(hp, hb) if b])
    elif kind == "repeat" and m >= 2:
        mapping[draw(st.integers(1, m - 1))] = mapping[0]
    elif kind == "short" and m >= 1:
        mapping.pop()
    elif kind == "outside" and m >= 1:
        mapping[draw(st.integers(0, m - 1))] = m
    return g, domain, h, mapping, kind


@settings(max_examples=300, deadline=None)
@given(edge_check_cases())
def test_mask_row_edge_check_matches_neighbour_list_loop_property(case):
    g, domain, h, mapping, kind = case
    masks = g.neighbor_masks
    found = _edge_check(masks, domain, h, mapping)
    assert found == edge_check_oracle(masks, domain, h, mapping)
    if kind == "iso":  # the map that made h from the induced subgraph
        assert found


def test_search_gives_up_past_its_node_cap():
    # 5K1 against itself: the root and one node per individualized vertex
    # until one vertex is left, five nodes in all
    g = Graph(5)
    masks, full = g.neighbor_masks, (1 << 5) - 1
    assert _search(masks, full, [full], _ReferencePath(g, (0,) * 5), 4) is None
    assert _search(masks, full, [full], _ReferencePath(g, (0,) * 5), 5) == [0, 1, 2, 3, 4]
