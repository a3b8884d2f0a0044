import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from knesergeom import (
    Graph,
    are_isomorphic,
    verify_isomorphism,
)
from knesergeom.isomorphism import color_refine, wl_signature
from helpers import brute_force_isomorphism, graph_from_nx, random_graph

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
    colors = color_refine(C6.adj, (0,) * 6)
    assert len(set(colors)) == 1  # vertex-transitive, nothing to split
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    colors = color_refine(star.adj, (0,) * 4)
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
