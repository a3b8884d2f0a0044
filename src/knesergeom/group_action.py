"""Permutation actions on the disjointness geometries, orbits, and group
orders.

Ground-set permutations and element tables are both image tuples.  Point
permutations act on elements by mapping subsets pointwise inside each type,
type permutations by relabeling the copies.  symmetry_witness verifies the
block-form point_tables once, on the Kneser factor of K_r x KG(m, k); its
SymmetryWitness is what every symmetry shortcut reads.
Every orbit is closed once, by one BFS over table images inside a pool that
it consumes, _orbit.  level_orbits certifies transitivity on the flags of a
type set from one flag, level by level through stabilisers, so one flag or
residue stands for all of them; flag_orbit_count and chamber_orbit_size
enumerate every flag and serve as test oracles.
Label-pairing type swaps compose, so they are valid for the adjacent type
transpositions exactly when they are valid for every type permutation.  The
order of a group of ground-set permutations is computed exactly from a base
and strong generating set (deterministic Schreier-Sims), never by listing
the group's elements.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

from .graphs import Graph, _iter_bits
from .incidence import IncidenceSystem, flags_of_type, residue_mask
from .isomorphism import is_automorphism
from .kneser_geometry import KneserGeometry


def _permutation(images) -> tuple[int, ...]:
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise ValueError("image array is not a permutation")
    return images


def adjacent_transpositions(m: int) -> list[tuple[int, ...]]:
    """The standard generating set (i i+1), i = 0..m-2, of the symmetric
    group on m points, as image tuples."""
    return [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, m)) for i in range(m - 1)]


def point_tables(geom: KneserGeometry, perms) -> list[tuple[int, ...]]:
    """One element table per ground-set permutation: element e goes to the
    element of its type whose subset is the pointwise image of e's subset,
    so each table repeats one type's subset permutation in every type."""
    perms = [_permutation(pi) for pi in perms]
    if any(len(pi) != geom.params.ground_size for pi in perms):
        raise ValueError("permutation degree does not match the ground set")
    subsets = geom.subsets
    index = {mask: i for i, mask in enumerate(subsets)}
    offsets = range(0, geom.n_elements, len(subsets))
    blocks = [[index[sum(1 << pi[p] for p in _iter_bits(s))] for s in subsets] for pi in perms]
    return [tuple([off + i for off in offsets for i in block]) for block in blocks]


class SymmetryWitness(namedtuple("SymmetryWitness", "graph tables levels")):
    """Type-preserving automorphism tables of graph, with their level_orbits
    for every nonempty type set.  Only one that symmetry_witness returned
    has verified tables; one built by hand is checked like plain tables."""

    __slots__ = ()


class _VerifiedWitness(SymmetryWitness):
    """What symmetry_witness returns; an edited copy is a plain witness."""

    __slots__ = ()

    def _replace(self, **fields):
        return SymmetryWitness(*self)._replace(**fields)


def _is_block_automorphism(factor: Graph, r: int, table) -> bool:
    """Is the table of K_r x factor, (t, v) at t*factor.n + v, of block form
    (t, v) -> (t, pi v) with pi an automorphism of the factor?"""
    pi = list(table[: factor.n])
    blocks = [off + x for off in range(0, r * factor.n, factor.n) for x in pi]
    return list(table) == blocks and is_automorphism(factor, pi)


def symmetry_witness(geom: KneserGeometry, perms) -> SymmetryWitness | None:
    """The point tables of the ground-set permutations, verified, and their
    level_orbits for every nonempty type set; None if a table fails.

    The incidence graph is K_r x G for the checked factor G = KG(m, k).  For
    r >= 2 a block table (t, v) -> (t, pi v), which fixes every type, is an
    automorphism of K_r x G exactly when pi is one of G, since (s, v) ~ (t, w)
    iff s != t and v ~ w (the direct product; Hammack, Imrich and Klavzar,
    Handbook of Product Graphs, 2011).  So each table's block form is checked
    over every element, and pi edge by edge on the factor only."""
    sys_, r = geom.incidence_system(), geom.params.r
    tables = point_tables(geom, perms)
    if not all(_is_block_automorphism(geom.factor, r, t) for t in tables):
        return None
    types = [J for size in range(1, r + 1) for J in combinations(sys_.types, size)]
    levels = {J: level_orbits(sys_, tables, J) for J in types}
    return _VerifiedWitness(sys_.graph, tuple(tables), levels)


def is_type_preserving_automorphism(sys: IncidenceSystem, table) -> bool:
    """Full check, on the whole incidence graph of any system, that the
    element table is a type-preserving bijection that maps incident pairs
    to incident pairs and non-incident pairs to non-incident pairs."""
    type_of = sys.type_of
    return is_automorphism(sys.graph, table) and all(
        type_of[img] == t for img, t in zip(table, type_of)
    )


def _orbit(tables, start, pool) -> int:
    """Size of the orbit of the sorted flag start under the group the
    element tables generate, closed by BFS over table images inside pool, a
    dict that maps each flag of a set holding start to itself.  Only flags
    still in the pool are reached, and each is popped from it when reached,
    so no second set is built, and the queue holds the pool's own tuples
    rather than copies of them."""
    del pool[start]
    queue = [start]
    for flag in queue:  # grows while it is scanned
        for table in tables:
            img = pool.pop(tuple(sorted([table[e] for e in flag])), None)
            if img is not None:
                queue.append(img)
    return len(queue)


def chamber_orbit_size(sys: IncidenceSystem, tables, start) -> int:
    """Size of the orbit of a chamber under the group the element tables
    generate, closed inside the chambers."""
    start = tuple(sorted(start))
    chambers = {c: c for c in flags_of_type(sys, sys.types)}
    if start not in chambers:
        raise ValueError("start flag is not a chamber")
    return _orbit(tables, start, chambers)


def flag_orbit_count(sys: IncidenceSystem, tables, J) -> list[tuple[tuple[int, ...], int]]:
    """Partition the flags of type J into orbits of the group the element
    tables generate; returns one (representative, size) pair per orbit, the
    representative being the orbit's smallest flag.  The flags are sorted
    once, and each orbit is closed inside the flags not yet assigned to an
    earlier one, from the first flag left in sorted order."""
    flags = sorted(flags_of_type(sys, J))
    pool = {f: f for f in flags}
    return [(f, _orbit(tables, f, pool)) for f in flags if f in pool]


def level_orbits(sys: IncidenceSystem, tables, J) -> list[tuple[int, int]]:
    """One (orbit size, candidate count) pair per level of F, the first
    flag of type J that flags_of_type yields: level i closes F[i] under the
    tables that fix every element of F[:i], inside its candidates, the
    elements of F[i]'s type incident to all of F[:i].

    If the tables are type-preserving automorphisms and every orbit fills
    its candidates, they are transitive on the flags of type J, which
    number the product of the orbit sizes.  By induction on i: a flag that
    agrees with F on F[:i] holds a candidate of level i, which a word in
    the tables fixing F[:i] maps onto F[i]."""
    F = next(flags_of_type(sys, J), None)
    if F is None:
        raise ValueError(f"no flag of type {tuple(sorted(J))}")
    levels = []
    for i, e in enumerate(F):
        fixing = [t for t in tables if all(t[x] == x for x in F[:i])]
        cand = residue_mask(sys, F[:i]) & sys.type_mask(sys.type_of[e])
        pool = {(c,): (c,) for c in range(sys.n_elements) if cand >> c & 1}
        levels.append((_orbit(fixing, (e,), pool), cand.bit_count()))
    return levels


def type_swap_map(sys: IncidenceSystem, sigma) -> tuple[tuple[int, ...] | None, bool]:
    """The element bijection induced by a permutation sigma of the types,
    pairing elements with equal labels across types; returns (mapping,
    valid) where valid means the map exists and preserves incidence.

    For the disjointness geometries the labels are the subset masks, so the
    map is (type i, S) -> (sigma(i), S) and is an automorphism for every
    sigma; for a general labeled system it is invalid whenever some label
    has no partner of the target type.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(sys.rank)):
        raise ValueError("sigma is not a permutation of the types")
    tmap = {sys.types[i]: sys.types[sigma[i]] for i in range(sys.rank)}
    by_type_label = {}
    for e in range(sys.n_elements):
        key = (sys.type_of[e], sys.label_of(e))
        if key in by_type_label:
            return None, False  # ambiguous labels; no canonical pairing
        by_type_label[key] = e
    mapping = []
    for e in range(sys.n_elements):
        key = (tmap[sys.type_of[e]], sys.label_of(e))
        if key not in by_type_label:
            return None, False
        mapping.append(by_type_label[key])
    mapping = tuple(mapping)
    if not is_automorphism(sys.graph, mapping):
        return None, False
    return mapping, True


def _compose(a, b):
    """The permutation a then b, on image tuples."""
    return tuple([b[x] for x in a])


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: its base point, the strong
    generators that fix every earlier base point, and the transversal
    {point: (u, u^-1)} where u maps the base point to point.  Transversal
    entries are only ever added, never replaced, so a Schreier generator
    that once sifted to the identity (recorded in sifted as a (point,
    generator index) pair) still does after later levels grow."""

    __slots__ = ("base", "gens", "transversal", "sifted")

    def __init__(self, base, identity):
        self.base = base
        self.gens = []
        self.transversal = {base: (identity, identity)}
        self.sifted = set()

    def add_generator(self, g):
        """Append g and close the basic orbit under all generators."""
        self.gens.append(g)
        transversal = self.transversal
        points = list(transversal)
        for p in points:  # grows while it is scanned
            u = transversal[p][0]
            for s in self.gens:
                q = s[p]
                if q not in transversal:
                    v = _compose(u, s)
                    transversal[q] = (v, _inverse(v))
                    points.append(q)


def _sift(levels, g, start):
    """Strip g through levels[start:]; returns (residue, level index where
    stripping stopped).  The residue fixes the base points of the levels it
    passed, and it is the identity with index len(levels) exactly when g
    lies in the group those levels describe."""
    for j in range(start, len(levels)):
        level = levels[j]
        entry = level.transversal.get(g[level.base])
        if entry is None:
            return g, j
        g = _compose(g, entry[1])
    return g, len(levels)


def _first_moved(g):
    return next(x for x, y in enumerate(g) if x != y)


def permutation_group_order(gens) -> int:
    """Order of the group generated by ground-set permutations, computed
    exactly by deterministic Schreier-Sims (Seress, Permutation Group
    Algorithms, 2003; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 4.4).

    The generators give a base b_0, b_1, ... (each one moves some base
    point) and the first strong generators of each level.  Working from the
    last level up, every Schreier generator u_p s u_{p^s}^-1 of a level is
    sifted through the levels after it; a nontrivial residue joins the
    strong generators of the levels it passed and of the level where it
    stopped (a new last level if it passed them all), and the work resumes
    there.  When every Schreier generator of every level sifts to the
    identity, the group's order is the product of the basic orbit lengths.
    Polynomial in the degree; nothing is estimated or sampled.
    """
    if not gens:
        raise ValueError("need at least one generator")
    gens = [_permutation(pi) for pi in gens]
    m = len(gens[0])
    if any(len(pi) != m for pi in gens):
        raise ValueError("generators act on different point counts")
    identity = tuple(range(m))
    levels = []
    for g in gens:
        if g == identity:
            continue
        j = next((j for j, lv in enumerate(levels) if g[lv.base] != lv.base), None)
        if j is None:
            levels.append(_Level(_first_moved(g), identity))
            j = len(levels) - 1
        for level in levels[: j + 1]:
            level.add_generator(g)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        residue = None
        for p, (u, _) in level.transversal.items():
            for idx, s in enumerate(level.gens):
                if (p, idx) in level.sifted:
                    continue
                h = _compose(_compose(u, s), level.transversal[s[p]][1])
                y, j = _sift(levels, h, i + 1)
                if y != identity:
                    residue = y, j
                    break
                level.sifted.add((p, idx))
            if residue is not None:
                break
        if residue is None:
            i -= 1
            continue
        y, j = residue
        if j == len(levels):
            levels.append(_Level(_first_moved(y), identity))
        for deeper in levels[i + 1 : j + 1]:
            deeper.add_generator(y)
        i = j
    return math.prod(len(level.transversal) for level in levels)
