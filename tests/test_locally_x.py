import random
from itertools import combinations
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from knesergeom import (
    GeometryParams,
    Graph,
    KneserParams,
    adjacent_transpositions,
    are_isomorphic,
    bipartite_double_cover,
    build_geometry,
    incidence_graph,
    induced_subgraph,
    is_locally_x,
    is_type_preserving_automorphism,
    kneser_graph,
    neighborhood_graph,
    point_tables,
    residue,
    residue_reference_graph,
    symmetry_witness,
)
from knesergeom.group_action import SymmetryWitness
from knesergeom.subsets import GroundSet, enumerate_k_subsets


def kneser_like(m, k):
    """Disjointness graph on the k-subsets of m points, any m; the local
    reference for Kneser self-similarity (may be edgeless)."""
    masks = [s.bits for s in enumerate_k_subsets(GroundSet(m), k)]
    edges = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[i] & masks[j] == 0
    ]
    return Graph(len(masks), edges)


def test_neighborhood_graph_fixtures(petersen):
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for v in range(4):
        nbhd, mapping = neighborhood_graph(k4, v)
        assert nbhd.n == 3 and nbhd.n_edges == 3
        assert v not in mapping
    nbhd, _ = neighborhood_graph(petersen, 0)
    assert nbhd.n == 3 and nbhd.n_edges == 0


def test_complete_graph_locally_complete():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    report = is_locally_x(k4, triangle)
    assert report.ok and report.passed == 4 and report.failures == ()


def test_c4_not_locally_k2():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k2 = Graph(2, [(0, 1)])
    report = is_locally_x(c4, k2)
    assert not report.ok
    assert report.failures == (0, 1, 2, 3)


def test_kneser_self_similarity():
    # neighborhoods in KG(n,k) induce the disjointness graph on n-k points
    for k in (1, 2, 3, 4):
        for n in range(2 * k + 1, 11):
            g = kneser_graph(KneserParams(n, k))
            ref = kneser_like(n - k, k)
            report = is_locally_x(g, ref)
            assert report.ok, (n, k, report.failures[:3])


def test_locally_petersen(petersen):
    g = kneser_graph(KneserParams(7, 2))
    report = is_locally_x(g, petersen)
    assert report.ok and report.total == 21


def test_reference_residue_graphs(desargues):
    ref = residue_reference_graph(build_geometry(GeometryParams(5, 2, 3)))
    assert ref.n == 20 and are_isomorphic(ref, desargues) is not None
    ref6 = residue_reference_graph(build_geometry(GeometryParams(6, 2, 3)))
    dc6 = bipartite_double_cover(kneser_graph(KneserParams(6, 2)))
    assert ref6.n == 30 and are_isomorphic(ref6, dc6) is not None
    with pytest.raises(ValueError):
        residue_reference_graph(build_geometry(GeometryParams(5, 2, 2)))


def test_locally_desargues(desargues):
    params = GeometryParams(5, 2, 3)
    g = incidence_graph(build_geometry(params).incidence_system()).graph
    report = is_locally_x(g, desargues)
    assert report.ok and report.total == 63


def test_report_json_shape(petersen):
    report = is_locally_x(kneser_graph(KneserParams(7, 2)), petersen)
    doc = report.to_json()
    assert set(doc) == {"graph", "reference", "total", "passed", "failed"}
    assert doc["total"] == 21 and doc["failed"] == []


def _geometry_523():
    geom = build_geometry(GeometryParams(5, 2, 3))
    tables = point_tables(geom, adjacent_transpositions(7))
    return geom.incidence_system(), residue_reference_graph(geom), tables


def test_verified_tables_same_report_fewer_searches(monkeypatch):
    from knesergeom import graphs, incidence, locally_x

    sys_, x, tables = _geometry_523()
    subgraphs = []
    subgraph = graphs.induced_subgraph

    def built(*args):
        subgraphs.append(args)
        return subgraph(*args)

    for module in (graphs, incidence, locally_x):
        monkeypatch.setattr(module, "induced_subgraph", built)
    plain = is_locally_x(sys_.graph, x)
    searches = []
    search = locally_x._search

    def counted(masks, domain, *args):
        searches.append(domain)
        return search(masks, domain, *args)

    monkeypatch.setattr(locally_x, "_search", counted)
    carried = is_locally_x(sys_.graph, x, tables)
    assert carried.to_json() == plain.to_json()
    assert carried.ok and carried.total == 63
    assert len(searches) == 3  # one per type
    assert subgraphs == []  # every neighborhood is searched in place


def test_non_automorphism_tables_change_nothing():
    # a cyclic shift inside each type is type-preserving with one orbit per
    # type, but not an automorphism: its carried maps fail their edge
    # checks and every vertex is searched as with no tables
    sys_, x, _ = _geometry_523()
    per = sys_.n_elements // sys_.rank
    shift = tuple(e - e % per + (e + 1) % per for e in range(sys_.n_elements))
    assert not is_type_preserving_automorphism(sys_, shift)
    assert is_locally_x(sys_.graph, x, [shift]) == is_locally_x(sys_.graph, x)


def test_carried_maps_are_edge_checked():
    # the point tables of the intact geometry are not automorphisms of the
    # graph with one edge removed; carrying maps along them must not make
    # a damaged neighborhood pass
    sys_, x, tables = _geometry_523()
    edges = sys_.graph.edges()
    damaged = Graph(sys_.graph.n, edges[1:])
    plain = is_locally_x(damaged, x)
    assert plain.failures == (0, 26, 56, 61, 62)
    assert is_locally_x(damaged, x, tables).failures == plain.failures


def test_witness_tables_are_checked_unless_on_their_own_graph(monkeypatch):
    from knesergeom import locally_x

    geom = build_geometry(GeometryParams(5, 2, 3))
    g, x = geom.incidence_system().graph, residue_reference_graph(geom)
    witness = symmetry_witness(geom, adjacent_transpositions(7))
    plain = is_locally_x(g, x)
    checked = []
    is_automorphism = locally_x.is_automorphism
    monkeypatch.setattr(locally_x, "is_automorphism",
                        lambda h, t: checked.append(h) or is_automorphism(h, t))
    # on its own graph the witness's tables are taken as they are
    assert is_locally_x(g, x, witness) == plain and checked == []
    # an equal graph that is another object, and a damaged one, check each
    # table on themselves; the damaged graph fails as with no tables
    copy = Graph(g.n, g.edges())
    assert is_locally_x(copy, x, witness).to_json() == plain.to_json()
    assert checked == [copy] * 6
    damaged = Graph(g.n, g.edges()[1:])
    assert is_locally_x(damaged, x, witness).failures == (0, 26, 56, 61, 62)
    assert checked[6:] == [damaged] * 6


def test_hand_built_witness_tables_are_checked():
    # a SymmetryWitness built by hand, or edited from a verified one, is
    # checked like plain tables: the cyclic shift is no automorphism of the
    # damaged graph, so it is dropped and the 5 failures stand (not all 63)
    sys_, x, _ = _geometry_523()
    per = sys_.n_elements // sys_.rank
    shift = tuple(e - e % per + (e + 1) % per for e in range(sys_.n_elements))
    damaged = Graph(sys_.graph.n, sys_.graph.edges()[1:])
    plain = is_locally_x(damaged, x)
    assert plain.failures == (0, 26, 56, 61, 62)
    assert is_locally_x(damaged, x, SymmetryWitness(damaged, (shift,), {})) == plain
    geom = build_geometry(GeometryParams(5, 2, 3))
    edited = symmetry_witness(geom, adjacent_transpositions(7))._replace(
        graph=damaged, tables=(shift,))
    assert type(edited) is SymmetryWitness
    assert is_locally_x(damaged, x, edited) == plain


@pytest.mark.parametrize(
    "n, k, r", [(5, 2, 3), (6, 2, 3), (6, 2, 4), (7, 3, 3), (5, 2, 5), (9, 4, 3), (7, 3, 4)]
)
def test_reference_is_the_rank_below_geometry(n, k, r):
    # X = Γ(KG(n,k), r-1), built directly, is the residue of element 0 index
    # for index
    geom = build_geometry(GeometryParams(n, k, r))
    sub, _ = residue(geom.incidence_system(), (0,))
    assert residue_reference_graph(geom) == sub.graph


def test_tables_must_be_permutations():
    sys_, x, tables = _geometry_523()
    with pytest.raises(ValueError):
        is_locally_x(sys_.graph, x, [tables[0][:-1]])
    with pytest.raises(ValueError):
        is_locally_x(sys_.graph, x, [(0,) * sys_.graph.n])


def test_reference_is_refined_once(monkeypatch):
    from knesergeom import isomorphism

    sys_, x, _ = _geometry_523()
    isomorphism._reference_path.cache_clear()
    on_x = []
    refine = isomorphism._refine

    def recorded(masks, *args):
        if masks is x.neighbor_masks:
            on_x.append(len(masks))
        return refine(masks, *args)

    monkeypatch.setattr(isomorphism, "_refine", recorded)
    report = is_locally_x(sys_.graph, x)
    assert report.ok and report.total == 63
    depth = len(isomorphism._reference_path(x, (0,) * x.n).levels) - 1
    assert 1 <= len(on_x) <= depth + 1


def _record_searches(monkeypatch):
    """Wrap locally_x._search; returns {"whole": [...], "neighborhood": [...]}
    with the result of every search of all of g and of one N(v)."""
    from knesergeom import locally_x

    found = {"whole": [], "neighborhood": []}
    search = locally_x._search

    def recorded(masks, domain, *args):
        result = search(masks, domain, *args)
        found["whole" if domain == (1 << len(masks)) - 1 else "neighborhood"].append(result)
        return result

    monkeypatch.setattr(locally_x, "_search", recorded)
    return found


def test_reference_path_of_g_is_refined_once(monkeypatch):
    # every discovery search individualizes the matched root on the
    # reference side, so all of them follow one memoised path of g, which
    # stays cached next to X's
    from knesergeom import isomorphism

    sys_, x, _ = _geometry_523()
    g = sys_.graph
    isomorphism._reference_path.cache_clear()
    searches, on_g = _record_searches(monkeypatch), []
    refine = isomorphism._refine

    def recorded(masks, *args):
        if masks is g.neighbor_masks and len(args) == 2:  # no expected trace
            on_g.append(len(masks))
        return refine(masks, *args)

    monkeypatch.setattr(isomorphism, "_refine", recorded)
    report = is_locally_x(g, x)
    assert report.ok and report.total == 63
    assert len(searches["whole"]) >= 2
    root_colors = tuple(int(v == 0) for v in range(g.n))
    depth = len(isomorphism._reference_path(g, root_colors).levels) - 1
    assert 1 <= len(on_g) <= depth + 1


def _relabelled(g, rng):
    label = list(range(g.n))
    rng.shuffle(label)
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


def test_discovery_on_the_relabelled_pair(monkeypatch):
    # the (5,2,4)/(5,2,3) pair relabelled from seed 12, as the locally-x
    # CLI test pins it: one neighborhood search, and a few discovered
    # automorphisms carry its map to every other vertex
    rng = random.Random(12)
    g, x = (
        _relabelled(build_geometry(GeometryParams(n, k, r)).incidence_system().graph, rng)
        for n, k, r in ((5, 2, 4), (5, 2, 3))
    )
    searches = _record_searches(monkeypatch)
    report = is_locally_x(g, x)
    assert report.ok and report.total == 144
    assert len(searches["neighborhood"]) == 1
    assert 1 <= len(searches["whole"]) <= 3
    assert None not in searches["whole"]


def test_no_discovery_when_x_is_small_next_to_g(monkeypatch):
    # x.n ** 2 <= g.n: a whole-graph search would cost more than the
    # neighborhood searches it saves
    cubic = nx.random_regular_graph(3, 2000, seed=7)
    cases = [
        (Graph(2000, [(i, (i + 1) % 2000) for i in range(2000)]), Graph(2)),
        (Graph(2000, list(cubic.edges())), Graph(3)),
    ]
    for g, x in cases:
        searches = _record_searches(monkeypatch)
        report = is_locally_x(g, x)
        assert searches["whole"] == [] and len(searches["neighborhood"]) == g.n
        assert report.failures == _nx_failures(g, x)


def test_discovery_gives_up_at_the_first_failure(monkeypatch):
    # the centre of the star K_{1,1100} matches X = 1100K1 and becomes the
    # root; no automorphism moves it to a leaf, which the first refinement
    # of the one discovery search already shows, so every leaf is searched
    from knesergeom import isomorphism

    g = Graph(1101, [(0, i) for i in range(1, 1101)])
    searches = _record_searches(monkeypatch)
    host_refines = []
    refine = isomorphism._refine

    def recorded(masks, cells, queue, expected=None):
        trace = refine(masks, cells, queue, expected)
        # a search node after the centre's own search, before discovery ends
        if expected is not None and searches["neighborhood"] and not searches["whole"]:
            host_refines.append(trace)
        return trace

    monkeypatch.setattr(isomorphism, "_refine", recorded)
    report = is_locally_x(g, Graph(1100))
    assert report.passed == 1 and report.failures == tuple(range(1, 1101))
    assert searches["whole"] == [None]
    assert len(searches["neighborhood"]) == 1101
    assert host_refines == [None]


def _nx_failures(g, x):
    """The vertices whose neighborhood networkx finds not isomorphic to x."""
    nxg, nxx = nx.Graph(g.edges()), nx.Graph(x.edges())
    nxg.add_nodes_from(range(g.n))
    nxx.add_nodes_from(range(x.n))
    return tuple(
        v for v in range(g.n)
        if not nx.is_isomorphic(nxg.subgraph(g.adj[v]), nxx)
    )


def _circulant(n, jumps):
    return Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def _rook_and_shrikhande():
    """The 4x4 rook's graph (locally 2K3) on 0..15 next to the Shrikhande
    graph (locally C6) on 16..31: both strongly regular (16,6,2,2)."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    rook = [(i, j) for i, (a, b) in enumerate(cells) for j, (c, d) in enumerate(cells)
            if i < j and (a == c or b == d)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = [(16 + i, 16 + j) for i, (a, b) in enumerate(cells)
                  for j, (c, d) in enumerate(cells)
                  if i < j and ((c - a) % 4, (d - b) % 4) in steps]
    return Graph(32, rook + shrikhande)


@st.composite
def graph_and_local_x(draw):
    """A random small graph, a circulant or the rook's graph next to the
    Shrikhande graph, and X induced on one vertex's neighborhood, relabelled."""
    kind = draw(st.sampled_from(["random", "circulant", "rook+shrikhande"]))
    if kind == "random":
        n = draw(st.integers(1, 12))
        pairs = list(combinations(range(n), 2))
        bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [p for p, b in zip(pairs, bits) if b])
    elif kind == "circulant":
        n = draw(st.integers(3, 16))
        g = _circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1)))
    else:
        g = _rook_and_shrikhande()
    v = draw(st.integers(0, g.n - 1))
    x, _ = induced_subgraph(g, g.adj[v])
    return g, _relabelled(x, draw(st.randoms(use_true_random=False)))


@settings(max_examples=120, deadline=None)
@given(graph_and_local_x())
def test_failures_match_networkx_property(case):
    g, x = case
    assert is_locally_x(g, x).failures == _nx_failures(g, x)


def test_discovery_stops_at_another_orbit(monkeypatch):
    # rooted in the rook's graph, discovery finds automorphisms until the
    # first Shrikhande vertex, where none exists; every Shrikhande vertex
    # is then searched and fails
    g = _rook_and_shrikhande()
    x, _ = induced_subgraph(g, g.adj[0])
    searches = _record_searches(monkeypatch)
    report = is_locally_x(g, x)
    assert report.failures == tuple(range(16, 32)) == _nx_failures(g, x)
    assert searches["whole"][-1] is None and None not in searches["whole"][:-1]
    assert len(searches["neighborhood"]) == 17


def _oracle_automorphism(nxg, a, b):
    """An automorphism of nxg that maps a to b, as a table, or None: the
    first isomorphism networkx's VF2 finds with a and b pinned."""
    from networkx.algorithms.isomorphism import GraphMatcher

    pinned_a, pinned_b = nxg.copy(), nxg.copy()
    nx.set_node_attributes(pinned_a, {a: True}, "pin")
    nx.set_node_attributes(pinned_b, {b: True}, "pin")
    matcher = GraphMatcher(pinned_a, pinned_b,
                           node_match=lambda p, q: p.get("pin") == q.get("pin"))
    found = next(matcher.isomorphisms_iter(), None)
    return None if found is None else tuple(found[v] for v in range(len(nxg)))


def _orbit_count(n, tables):
    """Orbits of the group the tables generate, by union-find."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for t in tables:
        for v in range(n):
            parent[root(v)] = root(t[v])
    return len({root(v) for v in range(n)})


@st.composite
def graph_x_and_tables(draw):
    """A random small graph or a circulant, X induced on one vertex's
    neighborhood (relabelled), automorphisms from the networkx oracle that
    move drawn vertices, and the first transposition that is not one
    (None if every transposition is)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        pairs = list(combinations(range(n), 2))
        bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [p for p, b in zip(pairs, bits) if b])
    else:
        n = draw(st.integers(3, 14))
        g = _circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1)))
    v = draw(st.integers(0, g.n - 1))
    x, _ = induced_subgraph(g, g.adj[v])
    x = _relabelled(x, draw(st.randoms(use_true_random=False)))
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    moves = draw(st.lists(st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)),
                          min_size=1, max_size=3))
    tables = [t for a, b in moves if (t := _oracle_automorphism(nxg, a, b)) is not None]
    swaps = (tuple(b if w == a else a if w == b else w for w in range(g.n))
             for a, b in combinations(range(g.n), 2))
    bad = next((t for t in swaps if any(
        (t[p], t[q]) not in nxg.edges for p, q in nxg.edges)), None)
    return g, x, tables, bad


@settings(max_examples=100, deadline=None)
@given(graph_x_and_tables())
def test_one_search_per_orbit_of_the_verified_tables_property(case):
    from knesergeom import locally_x

    g, x, tables, bad = case
    searches = []
    search = locally_x._search

    def recorded(*args):
        searches.append(args[1])
        return search(*args)

    given_tables = tables + ([bad] if bad is not None else [])
    assert given_tables
    with mock.patch.object(locally_x, "_search", recorded):
        report = is_locally_x(g, x, given_tables)
    assert report.failures == is_locally_x(g, x).failures == _nx_failures(g, x)
    # tables are given (a drawn move a -> a finds the identity, and a graph
    # with no bad transposition has every permutation as an automorphism),
    # so nothing is discovered; the non-automorphism is dropped, and each
    # orbit of the oracle's tables takes one neighborhood search
    assert len(searches) == _orbit_count(g.n, tables)


def test_a_failing_verdict_spreads_around_its_orbit(monkeypatch):
    # every neighborhood of C_n is two non-adjacent vertices, not K2: the
    # search of vertex 0 fails, and the rotation copies that to the rest
    n = 12
    g = _circulant(n, {1})
    rotation = tuple((v + 1) % n for v in range(n))
    searches = _record_searches(monkeypatch)
    report = is_locally_x(g, Graph(2, [(0, 1)]), [rotation])
    assert searches == {"whole": [], "neighborhood": [None]}
    assert report.passed == 0 and report.failures == tuple(range(n))
