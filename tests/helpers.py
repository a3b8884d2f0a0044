"""Independent oracles and corpus generators shared across the tests.

Every oracle here deliberately avoids the code paths it is used to check:
girth by edge-deletion BFS, odd girth by boolean adjacency powers,
isomorphism by exhaustive backtracking over consistent injections.
"""

import math
import random
from collections import deque

from knesergeom import Graph


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
