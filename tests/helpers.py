"""Independent oracles, corpus generators and fixture geometries shared
across the tests.

Every oracle here deliberately avoids the code paths it is used to check:
girth by edge-deletion BFS, odd girth by boolean adjacency powers,
eccentricities and odd girth by one BFS per source instead of one sweep
for all sources, isomorphism by exhaustive backtracking over consistent
injections, group order by listing every element, colour refinement by
recomputing every vertex's neighbour-colour multiset each round, the
refinement kernel's skip of cells a one-vertex splitter cannot split by
the kernel that visits every cell the splitter touches, flags by
itertools.product over the per-type element lists, residue connectivity
and the geometry test (maximal cliques) by networkx, diagram uniformity by
building every corank-1 and corank-2 residue with residue(), Kneser graphs,
disjointness tables and disjointness geometries by a loop over pairs of
subsets, the rank-2 summary of a neighborhood geometry on the built
double cover, the tensor K_r x G by a loop over pairs of typed vertices
and its eccentricities at r = 2 by one BFS per source on it,
graph6 by packing each six-bit slice of the column bit string, the 4-cycle
test of a rank-2 residue by comparing every pair of one side, block
automorphisms by a pairwise check of the factor, graph digests by
hashlib over the whole text in one string, the build command's
geometry JSON by one json.dumps with every incidence pair spliced in, and
the edge check of a map by or'ing its preimages along neighbour lists made
from the edge list.
"""

import hashlib
import itertools
import json
import math
import random
from collections import deque

import networkx as nx
from hypothesis import strategies as st

from knesergeom import (
    DIGON,
    GeometryParams,
    KneserParams,
    NEITHER,
    PARTIAL_LINEAR_SPACE,
    Graph,
    IncidenceSystem,
    KSubset,
    build_geometry,
    enumerate_k_subsets,
    flags_of_type,
    rank2_summary,
    residue,
)
from knesergeom.incidence import _restriction


# Subset arithmetic that no command reads: the tests build subsets from their
# elements and check that a subset's colex rank is its enumeration index.

def subset_from_elements(elems) -> KSubset:
    """The subset of the given elements; ValueError on a repeated one."""
    bits = 0
    for e in elems:
        b = 1 << e
        if bits & b:
            raise ValueError(f"repeated element {e}")
        bits |= b
    return KSubset(bits)


def validate_subset(ground, s: KSubset) -> None:
    """Raise ValueError unless every set bit of s lies in the ground set."""
    if s.bits & ~ground.full_mask:
        raise ValueError("subset out of range")


def colex_rank(ground, s: KSubset) -> int:
    """Index of s in enumerate_k_subsets(ground, s.k), by the combinadic sum."""
    validate_subset(ground, s)
    return sum(math.comb(e, i + 1) for i, e in enumerate(s.elements()))


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def graph_from_nx(nxg):
    nodes = sorted(nxg.nodes())
    pos = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(pos[u], pos[v]) for u, v in nxg.edges()])


def adjacency(g):
    """Each vertex's neighbours as an ascending tuple, from the edge list."""
    rows = [[] for _ in range(g.n)]
    for u, v in g.edges():
        rows[u].append(v)
        rows[v].append(u)
    return tuple(tuple(sorted(row)) for row in rows)


def bfs_dist_oracle(adj, src, skip_edge=None):
    n = len(adj)
    dist = [-1] * n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if skip_edge in ((u, w), (w, u)):
                continue
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def girth_oracle(g):
    """Shortest cycle through each edge: delete the edge, find the distance
    between its endpoints, add one."""
    best, adj = math.inf, adjacency(g)
    for u, v in g.edges():
        d = bfs_dist_oracle(adj, u, skip_edge=(u, v))[v]
        if d >= 0:
            best = min(best, d + 1)
    return best


def odd_girth_oracle(g):
    """Smallest odd L with a closed walk of length L, via 0/1 powers of the
    adjacency matrix; a minimal odd closed walk is an odd cycle."""
    import numpy as np

    if g.n == 0:
        return math.inf
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    two_step = ((a @ a) > 0).astype(np.int64)
    walk = a.copy()  # exact-length-L walk indicator, L odd
    for length in range(1, g.n + 2, 2):
        if walk.diagonal().any():
            return length
        walk = ((walk @ two_step) > 0).astype(np.int64)
    return math.inf


def _iter_bits(x):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def per_source_eccentricities(g):
    """Eccentricities by one bitmask BFS per source; math.inf where some
    vertex is unreachable."""
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    out = []
    for s in range(g.n):
        visited = 1 << s
        cur = visited
        d = 0
        while cur:
            nxt = 0
            for v in _iter_bits(cur):
                nxt |= masks[v]
            nxt &= ~visited
            if not nxt:
                break
            d += 1
            visited |= nxt
            cur = nxt
        out.append(d if visited == full else math.inf)
    return out


def per_source_odd_girth(g):
    """Odd girth as the minimum over sources s of the distance from (s, even)
    to (s, odd) in the parity-layered graph, one bitmask BFS per source."""
    masks = g.neighbor_masks
    n = g.n
    best = math.inf
    for s in range(n):
        target = 1 << (s + n)
        visited = 1 << s
        cur = visited
        d = 0
        while cur:
            if d + 1 >= best:
                break
            nxt = 0
            for i in _iter_bits(cur):
                if i < n:
                    nxt |= masks[i] << n
                else:
                    nxt |= masks[i - n]
            nxt &= ~visited
            d += 1
            if nxt & target:
                best = d
                break
            if not nxt:
                break
            visited |= nxt
            cur = nxt
        if best == 3:
            break
    return best


def preserves_incidence_oracle(incident, n, mapping):
    """Pairwise check that mapping is a bijection of 0..n-1 with
    incident(x, y) == incident(mapping[x], mapping[y]) for every pair."""
    if sorted(mapping) != list(range(n)):
        return False
    return all(
        incident(x, y) == incident(mapping[x], mapping[y])
        for x in range(n)
        for y in range(x + 1, n)
    )


def colex_point_table(geom, pi):
    """Element table of a ground-set permutation, an image tuple, computed
    through the element layout: the image of e is its type's offset plus
    the colex rank of the pointwise image of its subset."""
    ground, per = geom.params.ground, geom.params.per_type
    return tuple(
        geom.type_of(e) * per
        + colex_rank(ground, subset_from_elements(pi[x] for x in geom.subset_of(e).elements()))
        for e in range(geom.n_elements)
    )


def tuple_orbit_group_order(gens):
    """Order of the group generated by image tuples, as the orbit size of
    the identity tuple under composition: the action on tuples is regular,
    so the orbit is the whole group.  Only for small degree."""
    start = tuple(range(len(gens[0])))
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for pi in gens:
            img = tuple(pi[x] for x in t)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return len(seen)


def wl_refine_oracle(adj, colors):
    """Stable 1-WL refinement of the given coloring.

    Every round rebuilds each vertex's key (old color, sorted neighbor
    colors) and re-ranks the distinct keys, until the number of colors
    stops growing.
    """
    n = len(adj)
    colors = list(colors)
    ncls = len(set(colors))
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(n)
        ]
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [ids[k] for k in keys]
        if len(ids) == ncls:
            return tuple(new)
        colors, ncls = new, len(ids)


def refine_scan_all_oracle(masks, cells, queue, expected=None):
    """isomorphism._refine as it was before it skipped cells that a one-vertex
    splitter cannot split: each splitter visits every live cell its
    neighbourhood touches.  Its trace and cells are the reference for the
    filtered kernel's."""
    queued, trace = set(queue), []
    live = [i for i, x in enumerate(cells) if x & (x - 1)]
    while queue:
        queued.discard(s := queue.pop())
        x = cells[s]
        planes, touched = [0] * x.bit_count().bit_length(), 0
        while x:
            b = x & -x
            x ^= b
            carry, j = masks[b.bit_length() - 1], 0
            touched |= carry
            while carry:
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
        high_first = range(len(planes) - 1, -1, -1)
        for ci in [i for i in live if cells[i] & touched]:
            cell = cells[ci]
            frags, common = [(cell, 0)], 0
            for j in high_first:
                p = planes[j] & cell
                if p == cell:
                    common |= 1 << j
                elif p:
                    bit = 1 << j
                    frags = [(f, c) for x, c0 in frags
                             for f, c in ((x & ~p, c0), (x & p, c0 | bit)) if f]
            if len(frags) == 1:
                continue
            entry = (ci, tuple((c | common, f.bit_count()) for f, c in frags))
            if expected is not None and expected[len(trace):len(trace) + 1] != [entry]:
                return None
            trace.append(entry)
            cells[ci] = first = frags[0][0]
            if not first & (first - 1):
                live.remove(ci)
            new = list(range(len(cells), len(cells) + len(frags) - 1))
            live.extend(i for i, (f, _) in zip(new, frags[1:]) if f & (f - 1))
            cells.extend(f for f, _ in frags[1:])
            if ci not in queued:
                new = [ci] + new
                del new[max(range(len(frags)), key=lambda j: entry[1][j][1])]
            queue.extend(new)
            queued.update(new)
    return None if expected is not None and len(trace) != len(expected) else trace


def edge_check_oracle(masks, domain, h, mapping):
    """isomorphism._edge_check as a loop over h's neighbour lists: the
    bijection's inverse must map each neighbourhood of h onto that of the
    preimage, read as masks[u] & domain."""
    n = h.n
    if domain.bit_count() != n or len(mapping) != n or set(mapping) != set(range(n)):
        return False
    preimage, rest = [0] * n, domain
    for a in mapping:
        b = rest & -rest
        rest ^= b
        preimage[a] = b
    for a, row in enumerate(adjacency(h)):
        img = 0
        for b in row:
            img |= preimage[b]
        if img != masks[preimage[a].bit_length() - 1] & domain:
            return False
    return True


def brute_force_isomorphism(g, h):
    """Exhaustive backtracking over all adjacency-consistent injections.

    Returns one isomorphism as a list, or None.  Only structural pruning is
    adjacency consistency with already-mapped vertices, so the search space
    is the full permutation tree.
    """
    if g.n != h.n:
        return None
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def extend(u):
        if u == n:
            return True
        for v in range(n):
            if used[v]:
                continue
            ok = True
            for w in range(u):
                if g.has_edge(u, w) != h.has_edge(v, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(u + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    return list(mapping) if extend(0) else None


def isomorphism_corpus(seed=99):
    """About 500 graphs on at most 8 vertices, all densities, weighted
    toward small orders so that exhaustive pairwise brute force stays
    cheap."""
    rng = random.Random(seed)
    corpus = []
    # all graphs on <= 3 vertices, exhaustively
    for n in range(1, 4):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            corpus.append(Graph(n, [e for t, e in enumerate(pairs) if bits >> t & 1]))
    sizes = [(4, 150), (5, 190), (6, 100), (7, 40), (8, 12)]
    densities = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
    for n, count in sizes:
        for i in range(count):
            corpus.append(random_graph(rng, n, densities[i % len(densities)]))
    return corpus


# ---------------------------------------------------------------------------
# residue checks
# ---------------------------------------------------------------------------

@st.composite
def typed_systems(draw, max_rank=4):
    """A typed incidence system of rank 2 to max_rank with arbitrary int
    type labels and 1 to 3 elements per type.  Incidences are either every
    incidence of a few drawn chambers (often a geometry), a drawn subset of
    the cross-type pairs, or all of them but a few (often thick and
    connected), so both verdicts of every residue check occur."""
    rank = draw(st.integers(2, max_rank))
    labels = st.lists(st.integers(0, 9), min_size=rank, max_size=rank, unique=True)
    types = sorted(draw(labels))
    counts = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    type_of = [t for t, c in zip(types, counts) for _ in range(c)]
    n = len(type_of)
    pairs = [
        (x, y) for x, y in itertools.combinations(range(n), 2) if type_of[x] != type_of[y]
    ]
    mode = draw(st.sampled_from(["chambers", "subset", "all_but"]))
    if mode == "chambers":
        of_type = [[e for e in range(n) if type_of[e] == t] for t in types]
        chamber = st.tuples(*map(st.sampled_from, of_type))
        chambers = draw(st.lists(chamber, min_size=1, max_size=6))
        incid = {pair for c in chambers for pair in itertools.combinations(c, 2)}
    else:
        drawn = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        incid = drawn if mode == "subset" else set(pairs) - drawn
    return IncidenceSystem(types, type_of, sorted(incid))


@st.composite
def labelled_typed_systems(draw, max_rank=4):
    """A typed incidence system of rank 2 to max_rank whose elements carry
    labels from "abc", one to three per type, the same set for every type
    or one set per type.  Elements (s, x) and (t, y) of distinct types are
    incident when {x, y} lies in the label relation drawn for the type pair
    {s, t} out of one or two relations, and then up to two drawn element
    pairs flip, so the label-pairing type swaps are valid for all, some or
    none of the type permutations."""
    rank = draw(st.integers(2, max_rank))
    types = sorted(draw(st.lists(st.integers(0, 9), min_size=rank, max_size=rank, unique=True)))
    label_sets = st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)
    if draw(st.booleans()):
        per_type = [sorted(draw(label_sets))] * rank
    else:
        per_type = [sorted(draw(label_sets)) for _ in types]
    elements = [(t, x) for t, labels in zip(types, per_type) for x in labels]
    label_pairs = [frozenset(p) for p in itertools.combinations_with_replacement("abc", 2)]
    relations = draw(st.lists(st.sets(st.sampled_from(label_pairs)), min_size=1, max_size=2))
    relation_of = {tt: draw(st.sampled_from(relations)) for tt in itertools.combinations(types, 2)}
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(elements)), 2)
        if elements[i][0] != elements[j][0]
    ]
    incid = {
        (i, j)
        for i, j in pairs
        if frozenset((elements[i][1], elements[j][1])) in relation_of[elements[i][0], elements[j][0]]
    }
    incid ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return IncidenceSystem(
        types, [t for t, _ in elements], sorted(incid), labels=[x for _, x in elements]
    )


def nx_incidence_graph(sys):
    g = nx.Graph()
    g.add_nodes_from(range(sys.n_elements))
    g.add_edges_from(sys.graph.edges())
    return g


def flags_oracle(g, type_of, J):
    """Flags of type J, sorted: one element per type of J, pairwise
    adjacent in the networkx incidence graph g."""
    per_type = [[e for e in g if type_of[e] == t] for t in J]
    return sorted(
        tuple(sorted(c))
        for c in itertools.product(*per_type)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
    )


def residue_oracle(g, flag):
    """The elements outside the flag incident to every flag element, on the
    networkx incidence graph g."""
    res = set(g)
    for f in flag:
        res &= set(g[f])
    return res - set(flag)


def classify_oracle(g, type_of, elements, pair):
    """Digon / partial linear space / neither for the rank-2 system on the
    given elements, by counting common neighbours on both sides."""
    a = [e for e in elements if type_of[e] == pair[0]]
    b = [e for e in elements if type_of[e] == pair[1]]
    if len(a) >= 2 and len(b) >= 2 and all(g.has_edge(x, y) for x in a for y in b):
        return DIGON
    for side in (a, b):
        for x, y in itertools.combinations(side, 2):
            if len(set(g[x]) & set(g[y]) & set(elements)) >= 2:
                return NEITHER
    return PARTIAL_LINEAR_SPACE


def classify_pairwise_oracle(sys, cand, pair):
    """incidence._classify by the pairwise scan: digon / partial linear
    space / neither for the elements of the bitmask cand, whose types are
    pair, where a 4-cycle is two elements of the first side whose
    neighbour masks within cand share two bits."""
    masks = sys.element_masks
    a_mask, b_mask = cand & sys.type_mask(pair[0]), cand & sys.type_mask(pair[1])
    side = [masks[e] & b_mask for e in range(sys.n_elements) if a_mask >> e & 1]
    if len(side) >= 2 and b_mask.bit_count() >= 2 and all(m == b_mask for m in side):
        return DIGON
    for i, mi in enumerate(side):
        for mj in side[i + 1:]:
            if (mi & mj).bit_count() >= 2:
                return NEITHER
    return PARTIAL_LINEAR_SPACE


@st.composite
def bipartite_systems(draw, max_side=6):
    """A rank-2 system of 0 to max_side elements of each of two drawn type
    labels, incident along every cross pair, all but a few, a drawn subset
    of them, or a few, so digons, partial linear spaces and 4-cycles all
    occur."""
    types = draw(st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True))
    sizes = draw(st.lists(st.integers(0, max_side), min_size=2, max_size=2))
    type_of = [types[0]] * sizes[0] + [types[1]] * sizes[1]
    pairs = [(x, y) for x in range(sizes[0]) for y in range(sizes[0], len(type_of))]
    mode = draw(st.sampled_from(["all", "all_but", "subset", "few"]))
    if mode == "all" or not pairs:
        incid = pairs
    elif mode == "subset":
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        incid = [pair for b, pair in enumerate(pairs) if bits >> b & 1]
    else:
        drawn = set(draw(st.lists(st.sampled_from(pairs), max_size=max_side)))
        incid = sorted(set(pairs) - drawn) if mode == "all_but" else sorted(drawn)
    return IncidenceSystem(types, type_of, incid)


@st.composite
def small_graphs(draw, max_n=12):
    """A graph on 0 to max_n vertices, any or with every edge across a drawn
    two-colouring (so bipartite), with each vertex pair drawn or only a few
    edges: connected, disconnected and isolated-vertex cases all occur."""
    n = draw(st.integers(0, max_n))
    colouring = draw(st.integers(0, (1 << n) - 1)) if draw(st.booleans()) else None
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if colouring is None or (colouring >> i ^ colouring >> j) & 1
    ]
    if not pairs:
        return Graph(n)
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        return Graph(n, [e for b, e in enumerate(pairs) if bits >> b & 1])
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=n + 2)))


def residue_verdicts_oracle(sys):
    """Brute-force verdicts of the residue checks: geometry (every maximal
    clique of the incidence graph is a chamber), residual connectivity,
    ip2 and thickness, plus the sorted (flag, size) list of the
    rank-1 residues."""
    g = nx_incidence_graph(sys)
    types, rank = sys.types, sys.rank
    cliques = list(nx.find_cliques(g))

    def flags_of_corank(c):
        for J in itertools.combinations(types, rank - c):
            for flag in flags_oracle(g, sys.type_of, J):
                yield flag, residue_oracle(g, flag), tuple(t for t in types if t not in J)

    connected = all(
        not res or nx.is_connected(g.subgraph(res))
        for c in range(2, rank + 1)
        for _, res, _ in flags_of_corank(c)
    )
    ip2 = all(
        classify_oracle(g, sys.type_of, res, pair) != NEITHER
        for _, res, pair in flags_of_corank(2)
    )
    rank1 = sorted((flag, len(res)) for flag, res, _ in flags_of_corank(1))
    return {
        "geometry": bool(cliques) and all(len(c) == rank for c in cliques),
        "residually_connected": connected,
        "ip2": ip2,
        "thick": all(size >= 3 for _, size in rank1),
        "rank1_sizes": rank1,
    }


def restricted_orbits_oracle(flags, tables):
    """(smallest flag, size) of each orbit of flags under involutive element
    tables, where an image that is not among the flags is dropped: the
    components of the graph joining each flag to each of its images that is
    a flag.  With involutions that graph is the orbit relation."""
    flags = set(flags)
    g = nx.Graph()
    g.add_nodes_from(flags)
    for flag in flags:
        for table in tables:
            img = tuple(sorted(table[e] for e in flag))
            if img in flags:
                g.add_edge(flag, img)
    return sorted((min(comp), len(comp)) for comp in nx.connected_components(g))


def residue_diagram_mismatches(sys, diagram):
    """Every residue that disagrees with the diagram, as (flag, value)
    pairs: each corank-1 residue against its type's order, and the
    rank2_summary of each corank-2 residue against its pair's edge (no edge
    for a generalised digon).  Every flag is visited, none is assumed to
    stand for another."""
    bad = []
    for i in sys.types:
        for flag in flags_of_type(sys, [t for t in sys.types if t != i]):
            order = residue(sys, flag)[0].n_elements - 1
            if order != diagram.orders[i]:
                bad.append((flag, order))
    for pair in itertools.combinations(sys.types, 2):
        for flag in flags_of_type(sys, [t for t in sys.types if t not in pair]):
            s = rank2_summary(residue(sys, flag)[0])
            if diagram.edges.get(pair) != (None if s.classification == DIGON else s):
                bad.append((flag, s))
    return bad


def kneser_graph_oracle(n, k):
    """KG(n, k) from a loop over the pairs of k-subsets in colex order."""
    masks = [s.bits for s in enumerate_k_subsets(KneserParams(n, k).ground, k)]
    edges = [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[i] & masks[j] == 0
    ]
    return Graph(len(masks), edges)


def neighborhood_summary_oracle(g, cover_eccentricities):
    """kneser.neighborhood_summary by the cover path: the rank-2 summary of
    the built neighborhood geometry, typed_copies of g on K_2 x g, given
    each vertex's cover eccentricity for both of its copies."""
    from knesergeom.incidence import _summary_of
    from knesergeom.kneser import neighborhood_geometry

    return _summary_of(neighborhood_geometry(g), list(cover_eccentricities) * 2)


def disjointness_table_oracle(subsets):
    """Each subset's neighbour mask by a pairwise disjointness test."""
    return [
        sum(1 << j for j, t in enumerate(subsets) if s & t == 0)
        for s in subsets
    ]


def incidence_system_oracle(n, k, r):
    """The rank-r disjointness geometry from a loop over the pairs of
    elements of different types, type-major with colex order in a type."""
    p = GeometryParams(n, k, r)
    per = p.per_type
    subsets = [s.bits for s in enumerate_k_subsets(p.ground, k)]
    masks = subsets * r
    incid = [
        (x, y)
        for x in range(len(masks))
        for y in range((x // per + 1) * per, len(masks))
        if masks[x] & masks[y] == 0
    ]
    labels = [f"{subsets[e % per]:#x}" for e in range(len(masks))]
    return IncidenceSystem(range(r), [e // per for e in range(len(masks))], incid, labels)


def graph6_encode_oracle(g):
    """graph6 for n <= 258047 by packing each six-bit slice of the column
    bit string into one byte; column j is bits 0..j-1 of vertex j's mask,
    lowest first."""
    n, masks = g.n, g.neighbor_masks
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126] + [(n >> s & 63) + 63 for s in (12, 6, 0)])
    bits = "".join(format(masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))


def complete_tensor_oracle(g, r):
    """K_r x g from a loop over the pairs of vertices (v, t), (w, u): an edge
    iff t != u and v ~ w, with (v, t) numbered t*n + v."""
    n = g.n
    edges = [
        (t * n + v, u * n + w)
        for t in range(r)
        for u in range(t + 1, r)
        for v in range(n)
        for w in range(n)
        if g.has_edge(v, w)
    ]
    return Graph(r * n, edges)


def cover_eccentricities_oracle(g):
    """The eccentricity of (v,0) in K_2 x g for each vertex v of g, by one
    BFS per source on the cover built pair by pair."""
    return per_source_eccentricities(complete_tensor_oracle(g, 2))[:g.n]


def induced_subgraph_oracle(g, vertices):
    """The subgraph induced on vertices by renumbering each edge inside them."""
    vs = sorted(set(vertices))
    pos = {old: new for new, old in enumerate(vs)}
    return Graph(len(vs), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


def block_automorphism_oracle(factor, r, table):
    """Is the table of K_r x factor, (t, v) at t*factor.n + v, of block
    form (t, v) -> (t, pi v) with pi an automorphism of the factor, the
    factor checked pair by pair?"""
    n = factor.n
    pi = list(table[:n])
    blocks = [off + x for off in range(0, r * n, n) for x in pi]
    return list(table) == blocks and preserves_incidence_oracle(factor.has_edge, n, pi)


def graph_digest_oracle(g):
    """sha256 of the whole digest text, built in one string: n followed by
    ",u-v" for every edge u < v in ascending order."""
    text = str(g.n) + "".join(f",{u}-{v}" for u, v in sorted(g.edges()))
    return hashlib.sha256(text.encode()).hexdigest()


# one incidence pair as json.dumps(indent=2) lays it out in a geometry document
_PAIR = "[\n        %d,\n        %d\n      ]"


def geometry_json_oracle(n, k, r):
    """The build command's geometry/1 document for (n, k, r), built whole:
    json.dumps of the document with an empty incidence list, that list then
    replaced by every edge (a, b), a < b, of Graph.edges as one string."""
    sys = build_geometry(GeometryParams(n, k, r)).incidence_system()
    geometry = {
        "rank": sys.rank,
        "types": list(sys.types),
        "elements": [
            {"id": e, "type": sys.type_of[e], "label": sys.label_of(e)}
            for e in range(sys.n_elements)
        ],
        "incidences": [],
    }
    doc = {"schema": "geometry/1", "params": {"n": n, "k": k, "r": r}, "geometry": geometry}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    body = ",\n      ".join([_PAIR % pair for pair in sys.graph.edges()])
    return text.replace('"incidences": []', f'"incidences": [\n      {body}\n    ]', 1).encode()


def vertex_edge_geometry(g):
    """The rank-2 geometry of a graph: type 0 = vertices, type 1 = edges,
    incidence = containment."""
    edges = g.edges()
    n = g.n
    incid = []
    labels = [f"v{v}" for v in range(n)]
    for idx, (u, v) in enumerate(edges):
        incid.append((u, n + idx))
        incid.append((v, n + idx))
        labels.append(f"e{u}-{v}")
    return IncidenceSystem((0, 1), [0] * n + [1] * len(edges), incid, labels)


def truncation(sys, J):
    """Restriction of an incidence system to the elements whose types lie
    in J, renumbered in ascending order, labels and type labels kept."""
    J = set(J)
    if not J <= set(sys.types):
        raise ValueError(f"types {sorted(J)} not a subset of {sys.types}")
    keep = [e for e in range(sys.n_elements) if sys.type_of[e] in J]
    return _restriction(sys, keep, tuple(sorted(J)))


# Kneser path witnesses: explicit walks of the closed-form lengths, read
# by the Kneser and acceptance tests, each re-verified before it is returned.

def _ceil_div(a, b):
    return -(-a // b)


def _chunks(elems, size):
    return [elems[i:i + size] for i in range(0, len(elems), size)]


def _check_walk(p: KneserParams, walk, expected_len) -> None:
    if len(walk) - 1 != expected_len:
        raise RuntimeError(
            f"constructed walk has length {len(walk) - 1}, expected {expected_len}"
        )
    for s in walk:
        validate_subset(p.ground, s)
        if s.k != p.k:
            raise RuntimeError(f"walk vertex {s} is not a {p.k}-subset")
    for a, b in zip(walk, walk[1:]):
        if a.bits & b.bits:
            raise RuntimeError(f"consecutive walk vertices {a}, {b} intersect")


def construct_even_path(A: KSubset, B: KSubset, p: KneserParams) -> list[KSubset]:
    """An even walk from A to B of length exactly 2*ceil((k-c)/(n-2k)).

    Split A\\B into chunks X_1..X_l and B\\A into Y_1..Y_l of size n-2k
    (the last pair possibly shorter) and swap one chunk pair per two steps:
    the even positions carry Y_1..Y_i, X_{i+1}..X_l and A&B; the odd
    positions carry X_1..X_i, Y_{i+2}..Y_l padded from the complement of
    A|B, which is large enough exactly because chunks have size <= n-2k.
    """
    validate_subset(p.ground, A)
    validate_subset(p.ground, B)
    if A.k != p.k or B.k != p.k:
        raise ValueError(f"path endpoints must be {p.k}-subsets")
    if A == B:
        return [A]
    k, d = p.k, p.n - 2 * p.k
    c = (A.bits & B.bits).bit_count()
    l = _ceil_div(k - c, d)
    xs = _chunks(KSubset(A.bits & ~B.bits).elements(), d)
    ys = _chunks(KSubset(B.bits & ~A.bits).elements(), d)
    common = A.bits & B.bits
    outside = KSubset(p.ground.full_mask & ~(A.bits | B.bits)).elements()

    def mask_of(parts):
        bits = 0
        for part in parts:
            for e in part:
                bits |= 1 << e
        return bits

    walk = []
    for i in range(l + 1):
        even = mask_of(ys[:i]) | mask_of(xs[i:]) | common
        walk.append(KSubset(even))
        if i < l:
            pad = c + len(ys[i])
            odd = mask_of(xs[:i]) | mask_of(ys[i + 1:])
            for e in outside[:pad]:
                odd |= 1 << e
            walk.append(KSubset(odd))
    _check_walk(p, walk, 2 * l)
    if walk[0] != A or walk[-1] != B:
        raise RuntimeError("walk endpoints do not match")
    return walk


def construct_odd_path(A: KSubset, B: KSubset, p: KneserParams) -> list[KSubset]:
    """An odd walk from A to B of length exactly 2*ceil(c/(n-2k)) + 1.

    Pivot through A' = (B\\A) plus c elements borrowed from the complement
    of A|B; A and A' are disjoint and |A' & B| = k-c, so the even
    constructor finishes the job.
    """
    validate_subset(p.ground, A)
    validate_subset(p.ground, B)
    if A.k != p.k or B.k != p.k:
        raise ValueError(f"path endpoints must be {p.k}-subsets")
    d = p.n - 2 * p.k
    c = (A.bits & B.bits).bit_count()
    outside = KSubset(p.ground.full_mask & ~(A.bits | B.bits)).elements()
    pivot = B.bits & ~A.bits
    for e in outside[:c]:
        pivot |= 1 << e
    walk = [A] + construct_even_path(KSubset(pivot), B, p)
    _check_walk(p, walk, 2 * _ceil_div(c, d) + 1)
    if walk[0] != A or walk[-1] != B:
        raise RuntimeError("walk endpoints do not match")
    return walk
