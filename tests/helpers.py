"""Independent oracles and corpus generators shared across the tests.

Every oracle here deliberately avoids the code paths it is used to check:
girth by edge-deletion BFS, odd girth by boolean adjacency powers,
eccentricities and odd girth by one BFS per source instead of one sweep
for all sources, isomorphism by exhaustive backtracking over consistent
injections, group order by listing every element, colour refinement by
recomputing every vertex's neighbour-colour multiset each round.
"""

import math
import random
from collections import deque

from knesergeom import Graph, KSubset, colex_rank


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def graph_from_nx(nxg):
    nodes = sorted(nxg.nodes())
    pos = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(pos[u], pos[v]) for u, v in nxg.edges()])


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
    best = math.inf
    for u, v in g.edges():
        d = bfs_dist_oracle(g.adj, u, skip_edge=(u, v))[v]
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
    """Element table of a ground-set Permutation computed through the
    element layout: the image of e is its type's offset plus the colex rank
    of the pointwise image of its subset."""
    ground, per = geom.params.ground, geom.params.per_type
    return tuple(
        geom.type_of(e) * per
        + colex_rank(ground, KSubset.from_elements(pi(x) for x in geom.subset_of(e).elements()))
        for e in range(geom.n_elements)
    )


def tuple_orbit_group_order(gens):
    """Order of the group generated by Permutations, as the orbit size of
    the identity tuple under composition: the action on tuples is regular,
    so the orbit is the whole group.  Only for small degree."""
    start = tuple(range(gens[0].m))
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for pi in gens:
            img = tuple(pi(x) for x in t)
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
