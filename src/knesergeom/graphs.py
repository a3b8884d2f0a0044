"""Finite simple undirected graphs with exact metric algorithms.

Everything here is deterministic and exact: BFS distances, girth, odd girth,
diameter, connectivity, bipartiteness, induced subgraphs, the bipartite
double cover, and graph6 I/O.  Girth-type searches run one BFS per source
over per-vertex neighbor bitmasks, which keeps the inner loops in word
operations; infinity is represented by math.inf.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque

INF = math.inf


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self._masks = None

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(sum(1 << u for u in row) for row in self.adj)
        return self._masks

    @property
    def n_edges(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return self.neighbor_masks[u] >> v & 1 == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


def _iter_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def graph_digest(g: Graph) -> str:
    """Deterministic identity digest of (n, edge set); not isomorphism-invariant."""
    h = hashlib.sha256()
    h.update(str(g.n).encode())
    for u, v in g.edges():
        h.update(f",{u}-{v}".encode())
    return h.hexdigest()


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact shortest-path distances from source; unreachable vertices get -1."""
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def eccentricities(g: Graph):
    """Per-vertex eccentricity; math.inf where some vertex is unreachable."""
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
        out.append(d if visited == full else INF)
    return out


def diameter(g: Graph):
    """Max eccentricity; 0 for n <= 1, math.inf when disconnected."""
    if g.n <= 1:
        return 0
    return max(eccentricities(g))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return bfs_distances(g, 0).count(-1) == 0


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        q = deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    q.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def girth(g: Graph):
    """Length of the shortest cycle, math.inf for forests.

    One layered BFS per source.  An edge inside layer d witnesses a cycle of
    length <= 2d+1; a layer-(d+1) vertex with two parents in layer d
    witnesses one of length <= 2d+2.  Minimized over all sources both bounds
    are attained, so the minimum is exact.
    """
    masks = g.neighbor_masks
    best = INF
    for s in range(g.n):
        visited = 1 << s
        cur = visited
        d = 0
        while cur and 2 * d + 1 < best:
            nxt = 0
            intra = False
            for v in _iter_bits(cur):
                av = masks[v]
                if av & cur:
                    best = 2 * d + 1
                    intra = True
                    break
                nxt |= av
            if intra:
                break
            nxt &= ~visited
            if nxt and 2 * d + 2 < best:
                for v in _iter_bits(nxt):
                    if (masks[v] & cur).bit_count() >= 2:
                        best = 2 * d + 2
                        break
            visited |= nxt
            cur = nxt
            d += 1
        if best == 3:
            break
    return best


def odd_girth(g: Graph):
    """Length of the shortest odd cycle; math.inf iff the graph is bipartite.

    For each source s this finds the shortest odd closed walk through s as
    the distance from (s, even) to (s, odd) in the parity-layered graph; the
    minimum over sources is the odd girth.
    """
    masks = g.neighbor_masks
    n = g.n
    best = INF
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


def shortest_odd_cycle(g: Graph):
    """An explicit odd cycle of length odd_girth(g), or None if bipartite.

    Plain parent-tracking BFS on the parity-layered graph; the closed walk
    recovered at the minimizing source is simple, hence a cycle.
    """
    n = g.n
    best_len = INF
    best_cycle = None
    for s in range(n):
        start = s
        target = s + n
        parent = {start: -1}
        q = deque([start])
        found = False
        while q and not found:
            x = q.popleft()
            v, p = (x, 0) if x < n else (x - n, 1)
            for w in g.adj[v]:
                y = w + n if p == 0 else w
                if y not in parent:
                    parent[y] = x
                    if y == target:
                        found = True
                        break
                    q.append(y)
        if not found:
            continue
        walk = []
        x = target
        while x != -1:
            walk.append(x % n)
            x = parent[x]
        walk.reverse()  # s, ..., s of odd length
        length = len(walk) - 1
        if length < best_len:
            best_len = length
            best_cycle = walk[:-1]
    return best_cycle


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the given vertices, relabeled 0..len-1 in ascending
    original order; returns (subgraph, mapping) with mapping[new] = old."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {old: new for new, old in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u in vs for v in g.adj[u] if v in pos and u < v]
    return Graph(len(vs), edges), tuple(vs)


def bipartite_double_cover(g: Graph) -> Graph:
    """Tensor product with a single edge: (v,0) at index v, (v,1) at n+v,
    and an edge {(u,0),(v,1)} for each edge {u,v} of g, both orientations."""
    n = g.n
    edges = []
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    return Graph(2 * n, edges)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_HEADER = b">>graph6<<"
_G6_MAX_N = 68719476735  # 2^36 - 1


class Graph6Error(ValueError):
    """Malformed graph6 input; .offset is the byte position of the defect."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        chunks = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return bytes([126] + [c + 63 for c in chunks])
    chunks = [(n >> (6 * i)) & 63 for i in range(5, -1, -1)]
    return bytes([126, 126] + [c + 63 for c in chunks])


def graph6_encode(g: Graph) -> bytes:
    """Standard header-less graph6: N(n) then the upper triangle in
    column-major order, packed 6 bits per byte, each byte offset by 63."""
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph6 supports at most {_G6_MAX_N} vertices")
    out = bytearray(_g6_encode_n(g.n))
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.neighbor_masks[j]
        for i in range(j):
            bits = (bits << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = 0
                nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


def graph6_decode(data) -> Graph:
    """Decode a graph6 byte string (optional '>>graph6<<' prefix tolerated)."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(
                f"non-ASCII character {data[exc.start]!r}", offset=exc.start
            ) from None
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 input", offset=0)

    def val(i):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", offset=i)
        return b - 63

    pos = 0
    if val(0) == 63:  # 126 -> extended size
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise Graph6Error("truncated 8-byte size field", offset=len(data))
            n = 0
            for i in range(2, 8):
                n = (n << 6) | val(i)
            pos = 8
        else:
            if len(data) < 4:
                raise Graph6Error("truncated 4-byte size field", offset=len(data))
            n = 0
            for i in range(1, 4):
                n = (n << 6) | val(i)
            pos = 4
    else:
        n = val(0)
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} payload bytes for n={n}, got {len(data) - pos}",
            offset=pos,
        )
    edges = []
    bit = 0
    i, j = 0, 1
    for b in range(pos, len(data)):
        x = val(b)
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if x >> shift & 1:
                    raise Graph6Error("nonzero padding bits", offset=b)
                continue
            if x >> shift & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, edges)
