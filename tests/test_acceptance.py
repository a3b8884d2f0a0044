"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserted here is exact; there are no tolerances.
"""

import math
import random
from itertools import combinations

from knesergeom import (
    GeometryParams,
    KneserParams,
    adjacent_transpositions,
    are_isomorphic,
    bipartite_double_cover,
    buekenhout_diagram,
    build_geometry,
    chamber_count,
    chamber_orbit_size,
    construct_even_path,
    construct_odd_path,
    diameter,
    flag_orbit_count,
    flags_of_type,
    girth,
    incidence_graph,
    is_bipartite,
    is_geometry,
    is_locally_x,
    is_residually_connected,
    is_thick,
    is_type_preserving_automorphism,
    kneser_graph,
    kneser_neighborhood_geometry,
    odd_girth,
    permutation_group_order,
    predicted_diagram,
    predicted_diameter,
    predicted_gonality,
    predicted_odd_girth,
    rank2_summary,
    residue,
    residue_reference_graph,
    satisfies_ip2,
    shortest_odd_cycle,
    type_swap_map,
    verify_isomorphism,
    vertex_edge_geometry,
)
from helpers import brute_force_isomorphism, isomorphism_corpus


def report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def ceil_div(a, b):
    return -(-a // b)


def test_criterion_01_petersen_fixed_point(petersen):
    ok = (
        petersen.n == 10
        and petersen.n_edges == 15
        and girth(petersen) == 5
        and odd_girth(petersen) == 5
        and diameter(petersen) == 2
    )
    d = buekenhout_diagram(vertex_edge_geometry(petersen), verify_uniformity=True)
    s = d.edges[(0, 1)]
    ok = (
        ok
        and d.orders == {0: 1, 1: 2}
        and d.counts == {0: 10, 1: 15}
        and (s.diameters[0], s.gonality, s.diameters[1]) == (5, 5, 6)
    )
    report("criterion 1: Petersen fixed point (10/15, girth 5, diagram 5-5-6)", ok)


def test_criterion_02_desargues_fixed_point(petersen, desargues):
    ng = kneser_neighborhood_geometry(KneserParams(5, 2))
    d = buekenhout_diagram(ng, verify_uniformity=True)
    s = d.edges[(0, 1)]
    ok = (
        d.orders == {0: 2, 1: 2}
        and d.counts == {0: 10, 1: 10}
        and (s.diameters[0], s.gonality, s.diameters[1]) == (5, 3, 5)
    )
    tig = incidence_graph(ng).graph
    ok = (
        ok
        and tig == desargues
        and tig.n == 20
        and all(tig.degree(v) == 3 for v in range(20))
        and is_bipartite(tig)
        and girth(tig) == 6
    )
    report("criterion 2: Desargues fixed point (diagram 5-3-5, double cover)", ok)


def test_criterion_03_odd_girth_formula():
    mismatches = []
    for k in range(1, 5):
        for n in range(2 * k + 1, 13):
            p = KneserParams(n, k)
            g = kneser_graph(p)
            got = odd_girth(g)
            want = predicted_odd_girth(p)
            if got != want:
                mismatches.append((n, k, got, want, shortest_odd_cycle(g)))
    report(
        "criterion 3: odd girth = 2*ceil(k/(n-2k))+1 for k<=4, 2k+1<=n<=12",
        not mismatches,
        f"mismatches with witness cycles: {mismatches}" if mismatches else "28 graphs",
    )


def test_criterion_04_path_parity_lemma():
    rng = random.Random(20250810)
    checked = 0
    for n, k in [(7, 3), (8, 3)]:
        p = KneserParams(n, k)
        from knesergeom.subsets import GroundSet, enumerate_k_subsets

        subs = enumerate_k_subsets(GroundSet(n), k)
        d = n - 2 * k
        for _ in range(200):
            a, b = rng.choice(subs), rng.choice(subs)
            c = (a.bits & b.bits).bit_count()
            even = construct_even_path(a, b, p)
            odd = construct_odd_path(a, b, p)
            assert len(even) - 1 == 2 * ceil_div(k - c, d)
            assert len(odd) - 1 == 2 * ceil_div(c, d) + 1
            for walk in (even, odd):
                assert walk[0] == a and walk[-1] == b
                for x, y in zip(walk, walk[1:]):
                    assert x.bits & y.bits == 0
                    assert x.k == y.k == k
            checked += 1
    report(
        "criterion 4: even/odd path constructions (KG(7,3), KG(8,3))",
        checked == 400,
        f"{checked} sampled pairs",
    )


def test_criterion_05_gonality_diameter_formulas():
    bad = []
    for k in range(1, 5):
        for n in range(2 * k + 1, 13):
            p = KneserParams(n, k)
            s = rank2_summary(kneser_neighborhood_geometry(p))
            if s.gonality != predicted_gonality(p):
                bad.append((n, k, "gonality", s.gonality))
            if s.diameters != (predicted_diameter(p),) * 2:
                bad.append((n, k, "diameters", s.diameters))
    report(
        "criterion 5: neighborhood-geometry gonality/diameters match closed forms",
        not bad,
        str(bad) if bad else "28 geometries",
    )


def test_criterion_06_full_certificate_523(desargues):
    params = GeometryParams(5, 2, 3)
    geom = build_geometry(params)
    sys_ = geom.incidence_system()
    ok = sys_.n_elements == 63 and all(
        len(sys_.elements_of_type(t)) == 21 for t in range(3)
    )
    ok = ok and is_geometry(sys_).ok
    ok = ok and is_residually_connected(sys_).ok
    ok = ok and is_thick(sys_)

    ref = incidence_graph(kneser_neighborhood_geometry(params.kneser))
    for e in range(63):
        sub, _ = residue(sys_, (e,))
        tig = incidence_graph(sub)
        mapping = are_isomorphic(tig.graph, ref.graph, tig.type_colors, ref.type_colors)
        ok = ok and mapping is not None

    d = buekenhout_diagram(sys_, verify_uniformity=True)
    ok = ok and d.orders == {0: 2, 1: 2, 2: 2}
    ok = ok and d == predicted_diagram(params)
    ok = ok and set(d.edges) == {(0, 1), (0, 2), (1, 2)}

    gens = adjacent_transpositions(7)
    ok = ok and chamber_count(params) == 630
    start = next(flags_of_type(geom.incidence_system(), range(3)))
    ok = ok and chamber_orbit_size(geom, gens, start) == 630
    for size in range(1, 4):
        for J in combinations(range(3), size):
            count, _ = flag_orbit_count(geom, gens, J)
            ok = ok and count == 1
    report("criterion 6: full certificate for the (5,2,3) geometry", ok)


def test_criterion_07_locally_x_main_theorem(desargues):
    cases = [
        (GeometryParams(5, 2, 3), desargues, 63),
        (
            GeometryParams(6, 2, 3),
            bipartite_double_cover(kneser_graph(KneserParams(6, 2))),
            84,
        ),
        (GeometryParams(5, 2, 4), None, 144),
    ]
    details = []
    ok = True
    for params, reference, total in cases:
        if reference is None:
            reference = residue_reference_graph(params)
        g = incidence_graph(build_geometry(params).incidence_system()).graph
        rep = is_locally_x(g, reference)
        ok = ok and rep.ok and rep.total == total
        details.append(f"({params.n},{params.k},{params.r}): {rep.passed}/{rep.total}")
    report("criterion 7: incidence graphs are locally-residue", ok, "; ".join(details))


def test_criterion_08_ip2_dichotomy():
    expectations = [
        (GeometryParams(5, 2, 3), True),
        (GeometryParams(7, 3, 3), True),
        (GeometryParams(6, 2, 3), False),
        (GeometryParams(7, 2, 3), False),
    ]
    ok = True
    details = []
    for params, expected in expectations:
        got = satisfies_ip2(build_geometry(params).incidence_system()).ok
        ok = ok and got == expected
        details.append(f"({params.n},{params.k},{params.r})={got}")
    report("criterion 8: rank-2 intersection property iff n = 2k+1", ok, "; ".join(details))


def test_criterion_09_locally_petersen(petersen):
    rep = is_locally_x(kneser_graph(KneserParams(7, 2)), petersen)
    report(
        "criterion 9: KG(7,2) is locally Petersen",
        rep.ok and rep.total == 21,
        f"{rep.passed}/{rep.total}",
    )


def test_criterion_10_isomorphism_soundness():
    corpus = isomorphism_corpus()
    assert len(corpus) >= 500
    by_n = {}
    for g in corpus:
        by_n.setdefault(g.n, []).append(g)
    pairs = disagreements = 0
    for n, graphs in sorted(by_n.items()):
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                g, h = graphs[i], graphs[j]
                ours = are_isomorphic(g, h)
                brute = brute_force_isomorphism(g, h)
                pairs += 1
                if (ours is None) != (brute is None):
                    disagreements += 1
                if ours is not None:
                    assert verify_isomorphism(g, h, ours)
    # cross-order pairs: no bijection exists, both engines agree by counting
    report(
        "criterion 10: engine agrees with brute force on the small-graph corpus",
        disagreements == 0,
        f"{len(corpus)} graphs, {pairs} same-order pairs checked",
    )


def test_criterion_11_automorphism_lower_bound():
    params = GeometryParams(5, 2, 3)
    geom = build_geometry(params)
    gens = adjacent_transpositions(7)
    ok = all(is_type_preserving_automorphism(geom, pi) for pi in gens)
    from itertools import permutations

    swaps = list(permutations(range(3)))
    ok = ok and all(type_swap_map(geom, sigma)[1] for sigma in swaps)
    point_order = permutation_group_order(gens)
    ok = ok and point_order == math.factorial(7)
    witness_order = point_order * len(swaps)
    ok = ok and witness_order == 5040 * 6
    report(
        "criterion 11: verified automorphism subgroup of order 7!*3! acting"
        " (lower-bound witness only)",
        ok,
        f"order {witness_order}",
    )
