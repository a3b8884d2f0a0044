import errno
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import knesergeom
from knesergeom import (
    GeometryParams,
    build_geometry,
    graph6_decode,
    graph6_encode,
    incidence_graph,
    kneser_graph,
    KneserParams,
)
from knesergeom.group_action import adjacent_transpositions, symmetry_witness

from helpers import geometry_json_oracle, vertex_edge_geometry


# the child process imports the same package as the tests, whether it
# comes from PYTHONPATH or from pytest's pythonpath setting
_PKG_ROOT = str(Path(knesergeom.__file__).resolve().parents[1])
_CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (_PKG_ROOT, os.environ.get("PYTHONPATH")) if p),
)


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "knesergeom.cli", *args],
        capture_output=True,
        timeout=300,
        env=_CHILD_ENV,
        **kw,
    )


def test_build_graph6(tmp_path):
    res = run_cli("build", "--n", "5", "--k", "2", "--r", "3", "--format", "graph6")
    assert res.returncode == 0
    g = graph6_decode(res.stdout.strip())
    assert g.n == 63
    expected = incidence_graph(build_geometry(GeometryParams(5, 2, 3)).incidence_system()).graph
    assert g == expected


def test_build_bad_params_exit2():
    res = run_cli("build", "--n", "4", "--k", "2", "--r", "3")
    assert res.returncode == 2
    assert b"n must exceed 2k" in res.stderr


def test_build_dot():
    res = run_cli("build", "--n", "5", "--k", "2", "--r", "2", "--format", "dot")
    assert res.returncode == 0
    out = res.stdout.decode()
    assert "5-3-5" in out and "s=2, n=10" in out


def test_build_json_deterministic():
    a = run_cli("build", "--n", "5", "--k", "2", "--r", "3")
    b = run_cli("build", "--n", "5", "--k", "2", "--r", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["schema"] == "geometry/1"
    assert len(doc["geometry"]["elements"]) == 63


def test_verify_all_523():
    res = run_cli("verify", "--n", "5", "--k", "2", "--r", "3", "--all")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["schema"] == "cert/1"
    assert cert["pass"] is True
    names = [c["name"] for c in cert["checks"]]
    assert names == [
        "geometry",
        "residual-connectivity",
        "thickness",
        "diagram",
        "ip2",
        "flag-transitivity",
        "locally-x",
        "odd-girth",
        "gonality",
        "diameter",
    ]
    ft = next(c for c in cert["checks"] if c["name"] == "flag-transitivity")
    assert ft["details"]["orbit_size"] == 630
    assert ft["details"]["verified_subgroup_order"] == 5040 * 6
    assert ft["details"]["aut_lower_bound_only"] is True


def test_verify_ip2_failure_exit1():
    res = run_cli("verify", "--n", "6", "--k", "2", "--r", "3", "--check", "ip2")
    assert res.returncode == 1
    cert = json.loads(res.stdout)
    assert cert["pass"] is False
    assert cert["checks"][0]["pass"] is False


def test_verify_diagram_only():
    res = run_cli("verify", "--n", "5", "--k", "2", "--r", "2", "--check", "diagram")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    labels = [e["label"] for e in cert["checks"][0]["details"]["computed"]["edges"]]
    assert labels == ["5-3-5"]


def test_verify_deterministic_certificates():
    a = run_cli("verify", "--n", "5", "--k", "2", "--r", "2", "--all")
    b = run_cli("verify", "--n", "5", "--k", "2", "--r", "2", "--all")
    assert a.stdout == b.stdout


def test_locally_x_files(tmp_path, petersen):
    g72 = kneser_graph(KneserParams(7, 2))
    gf = tmp_path / "kg72.g6"
    rf = tmp_path / "petersen.g6"
    gf.write_bytes(graph6_encode(g72) + b"\n")
    rf.write_bytes(graph6_encode(petersen) + b"\n")
    res = run_cli("locally-x", str(gf), str(rf))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["passed"] == 21 and doc["failed"] == []


def test_locally_x_failure_exit1(tmp_path):
    from knesergeom import Graph

    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k2 = Graph(2, [(0, 1)])
    gf = tmp_path / "c4.g6"
    rf = tmp_path / "k2.g6"
    gf.write_bytes(graph6_encode(c4) + b"\n")
    rf.write_bytes(graph6_encode(k2) + b"\n")
    res = run_cli("locally-x", str(gf), str(rf))
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["failed"] == [0, 1, 2, 3]


def test_locally_x_deep_search_reports(tmp_path):
    # the centre of the star K_{1,1100} has 1,100 isolated neighbours, like
    # X; matching them takes a search 1,099 levels deep
    from knesergeom import Graph

    gf = tmp_path / "star.g6"
    rf = tmp_path / "x.g6"
    gf.write_bytes(graph6_encode(Graph(1101, [(0, i) for i in range(1, 1101)])) + b"\n")
    rf.write_bytes(graph6_encode(Graph(1100)) + b"\n")
    res = run_cli("locally-x", str(gf), str(rf))
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["total"] == 1101 and doc["passed"] == 1
    assert doc["failed"] == list(range(1, 1101))


def test_locally_x_relabelled_pair_is_byte_identical(tmp_path):
    # the pair the locally-x-g6 workload checks, (5,2,4) against the
    # (5,2,3) reference, each relabelled from one fixed seed: the report and
    # every vertex's bijection N(v) -> X are pinned, so a change to the
    # search order or to what the search returns shows up here
    from knesergeom import Graph, cli
    from knesergeom.isomorphism import _ReferencePath, _search

    rng = random.Random(12)
    paths = []
    for n, k, r in ((5, 2, 4), (5, 2, 3)):
        g = build_geometry(GeometryParams(n, k, r)).incidence_system().graph
        label = list(range(g.n))
        rng.shuffle(label)
        paths.append(tmp_path / f"{n}{k}{r}.g6")
        paths[-1].write_bytes(
            graph6_encode(Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])) + b"\n"
        )
    out = tmp_path / "report.json"
    assert cli.main(["locally-x", *map(str, paths), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1d576b9f16c8350ce20e87476ba284febe3bdf4610b243ef49b5fc6ddac9feaa"
    )
    g, x = (graph6_decode(path.read_bytes().strip()) for path in paths)
    masks, ref = g.neighbor_masks, _ReferencePath(x, (0,) * x.n)
    maps = [_search(masks, masks[v], [masks[v]], ref) for v in range(g.n)]
    assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == (
        "e6f258fa362657c8c53a1e74bce6486170c262ddc4efcd3b6fc1f9ea63b6ecb2"
    )


def test_locally_x_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\x01\x02\x03\n")
    ok = tmp_path / "ok.g6"
    ok.write_bytes(b"@\n")
    res = run_cli("locally-x", str(bad), str(ok))
    assert res.returncode == 2


def test_locally_x_missing_file_exit3(tmp_path):
    ok = tmp_path / "ok.g6"
    ok.write_bytes(b"@\n")
    res = run_cli("locally-x", str(tmp_path / "absent.g6"), str(ok))
    assert res.returncode == 3


def test_verify_locally_x_needs_rank3():
    res = run_cli("verify", "--n", "5", "--k", "2", "--r", "2", "--check", "locally-x")
    assert res.returncode == 2


def test_out_file(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli(
        "verify", "--n", "5", "--k", "2", "--r", "2", "--check", "gonality",
        "--out", str(out),
    )
    assert res.returncode == 0 and res.stdout == b""
    cert = json.loads(out.read_text())
    assert cert["pass"] is True


def test_usage_error_exit2():
    res = run_cli("build", "--n", "5")
    assert res.returncode == 2


def test_build_out_io_error_exit3(tmp_path):
    res = run_cli(
        "build", "--n", "5", "--k", "2", "--r", "2",
        "--out", str(tmp_path / "no" / "such" / "dir" / "out.json"),
    )
    assert res.returncode == 3


def _recording(results, fn):
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    return recorded


def test_verify_locally_x_one_search(monkeypatch, tmp_path):
    from knesergeom import cli, graphs, group_action, incidence, isomorphism, locally_x

    searches, whole_checks, tables_in_check, subgraphs, edge_checks = [], [], [], [], []
    monkeypatch.setattr(locally_x, "_search", _recording(searches, locally_x._search))
    monkeypatch.setattr(locally_x, "is_automorphism",
                        _recording(tables_in_check, locally_x.is_automorphism))
    monkeypatch.setattr(group_action, "is_type_preserving_automorphism",
                        _recording(whole_checks, group_action.is_type_preserving_automorphism))
    assert not hasattr(locally_x, "induced_subgraph")
    for module in (graphs, incidence):  # every name it is called by
        monkeypatch.setattr(module, "induced_subgraph",
                            _recording(subgraphs, graphs.induced_subgraph))
    edge_check = isomorphism._edge_check

    def recorded_edge_check(masks, domain, *args):
        ok = edge_check(masks, domain, *args)
        # (rows, whole graph, verdict)
        edge_checks.append((len(masks), domain == (1 << len(masks)) - 1, ok))
        return ok

    monkeypatch.setattr(isomorphism, "_edge_check", recorded_edge_check)
    in_check = []
    check_locally_x = cli.is_locally_x

    def counted(*args):
        before = len(subgraphs), len(edge_checks), len(tables_in_check)
        report = check_locally_x(*args)
        in_check.append((len(subgraphs) - before[0], edge_checks[before[1]:],
                         len(tables_in_check) - before[2]))
        return report

    monkeypatch.setattr(cli, "is_locally_x", counted)
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "6", "--k", "2", "--r", "3", "--all", "--out", str(out)])
    assert code == 1  # ip2 fails at n > 2k+1
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["locally-x"]
    assert check["pass"]
    assert check["details"]["total"] == check["details"]["passed"] == 84
    # one in-place search; the other 83 vertices copy its verdict along the
    # witness's tables, which swap types too, with no edge check of their
    # own: the only neighborhood edge check is the search's leaf
    assert len(searches) == 1 and all(m is not None for m in searches)
    [(subgraphs_in_check, checks_in_check, tables_checked_in_check)] = in_check
    assert subgraphs_in_check == 0
    assert [whole for _, whole, _ in checks_in_check] == [False] * len(searches)
    # the witness verifies the 7 adjacent-transposition tables of the 8
    # ground points once, on the subset masks of KG(8,2), and the 2 type
    # swaps in block form, and is_locally_x takes them as they are, so no
    # whole-graph edge check runs at all
    assert tables_checked_in_check == 0 and tables_in_check == []
    assert whole_checks == []
    whole = [(rows, ok) for rows, whole, ok in edge_checks if whole]
    assert whole == []
    assert len(edge_checks) == len(whole) + len(searches)


@pytest.mark.parametrize("n, k, r, code", [(6, 2, 3, 1), (5, 2, 6, 0)])
def test_verify_all_runs_one_locally_x_search(monkeypatch, tmp_path, n, k, r, code):
    from knesergeom import cli, isomorphism, locally_x

    searches, whole = [], []
    monkeypatch.setattr(locally_x, "_search", _recording(searches, locally_x._search))
    edge_check = isomorphism._edge_check

    def recorded_edge_check(masks, domain, *args):
        if domain == (1 << len(masks)) - 1:
            whole.append(len(masks))
        return edge_check(masks, domain, *args)

    monkeypatch.setattr(isomorphism, "_edge_check", recorded_edge_check)
    out = tmp_path / "cert.json"
    assert cli.main(["verify", "--n", str(n), "--k", str(k), "--r", str(r), "--all",
                     "--out", str(out)]) == code
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["locally-x"]
    assert check["pass"] and check["details"]["passed"] == check["details"]["total"]
    # the witness's point tables and type swaps reach every vertex from the
    # first, so one neighborhood search decides all, and no table or map is
    # edge-checked on the whole graph
    assert len(searches) == 1 and searches[0] is not None
    assert whole == []


def test_verify_all_enumerates_no_flag_orbit(monkeypatch, tmp_path):
    from knesergeom import cli, group_action, incidence

    orbit_counts, orbit_sizes, summaries, pairings, whole_swaps = [], [], [], [], []
    for module in (cli, group_action):
        for name, calls in [("flag_orbit_count", orbit_counts),
                            ("chamber_orbit_size", orbit_sizes)]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _recording(calls, getattr(module, name)))
    monkeypatch.setattr(incidence, "rank2_summary",
                        _recording(summaries, incidence.rank2_summary))
    monkeypatch.setattr(group_action, "_label_pairing",
                        _recording(pairings, group_action._label_pairing))
    monkeypatch.setattr(group_action, "type_swap_map",
                        _recording(whole_swaps, group_action.type_swap_map))
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "6", "--k", "2", "--r", "3", "--all", "--out", str(out)])
    assert code == 1  # ip2 fails at n > 2k+1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    ft = checks["flag-transitivity"]
    assert ft["pass"] and ft["details"]["orbit_size"] == ft["details"]["total"]
    assert checks["diagram"]["pass"]
    # the level witness replaces every flag partition and chamber closure;
    # the diagram summarises the first residue of each of the 3 type pairs,
    # and the r - 1 = 2 adjacent type transpositions stand for all 3! swaps,
    # each checked in block form by the witness, with no whole-graph check
    assert orbit_counts == [] and orbit_sizes == []
    assert len(summaries) == 3
    assert len(pairings) == 2 and whole_swaps == []


def test_verify_all_builds_no_adjacency_lists_of_the_geometry(monkeypatch, tmp_path):
    from knesergeom import cli, graphs

    # graphs._walks is the one place that makes neighbour lists of a graph
    built = []
    walks = graphs._walks
    monkeypatch.setattr(graphs, "_walks", lambda g: (built.append(g.n), walks(g))[1])
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "6", "--k", "2", "--r", "4", "--all", "--out", str(out)])
    assert code == 1  # ip2 fails at n > 2k+1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    ft = checks["flag-transitivity"]
    assert ft["pass"] and ft["details"]["type_swaps_valid"] and checks["locally-x"]["pass"]
    # no check reads the 180-vertex incidence graph K_4 x KG(10,2), its
    # 45-vertex factor, KG(6,2) or the 84-vertex reference X through lists;
    # they are made only for the walk sweeps of the diagram's 30-vertex
    # rank-2 residues
    assert set(built) == {30}


def test_type_swap_that_moves_a_vertex_fails(monkeypatch, tmp_path):
    from knesergeom import cli, group_action
    from knesergeom.isomorphism import is_automorphism

    pairing, moved = group_action._label_pairing, []

    def moving(sys_, sigma):
        mapping = list(pairing(sys_, sigma))
        mapping[0], mapping[1] = mapping[1], mapping[0]
        moved.append((sys_, mapping))
        return tuple(mapping)

    monkeypatch.setattr(group_action, "_label_pairing", moving)
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "5", "--k", "2", "--r", "3",
                     "--check", "flag-transitivity", "--out", str(out)])
    assert code == 1
    [check] = json.loads(out.read_text())["checks"]
    # the witness checks the swaps, so a bad one leaves no verified symmetry
    assert not check["pass"] and check["details"]["automorphisms"] is False
    sys_, mapping = moved[0]
    assert not is_automorphism(sys_.graph, mapping)


def test_dropped_generator_leaves_a_counter_witness(monkeypatch, tmp_path):
    from knesergeom import cli

    # without (1 2) the tables generate Sym{0,1} x Sym{2..6}, which fixes the
    # first element {0,1} of every type: level 0 covers 1 of 21 candidates
    dropped = (0, 2, 1, 3, 4, 5, 6)
    real = cli.symmetry_witness
    monkeypatch.setattr(cli, "symmetry_witness",
                        lambda geom, perms: real(geom, [p for p in perms if p != dropped]))
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "5", "--k", "2", "--r", "3", "--check", "diagram",
                     "--check", "flag-transitivity", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    diagram = checks["diagram"]
    assert not diagram["pass"]
    assert diagram["details"]["uniformity_certified"] is False
    # the first residues still read as predicted; only uniformity is unproved
    assert diagram["details"]["computed"] == diagram["details"]["predicted"]
    ft = checks["flag-transitivity"]["details"]
    assert not checks["flag-transitivity"]["pass"] and not ft["transitive"]
    assert ft["generators_checked"] == 6
    assert ft["uncovered_level"] == {"types": [0], "level": 0, "orbit_size": 1, "candidates": 21}
    assert set(ft["flag_orbit_counts"].values()) == {None} and len(ft["flag_orbit_counts"]) == 7


def test_gap_at_level_one_leaves_a_counter_witness(monkeypatch, tmp_path):
    from knesergeom import cli

    # x -> x + 1 and x -> 3x mod 7 generate AGL(1,7), which is 2-transitive
    # on the points, so level 0 is full; neither generator fixes {0, 1}, so
    # level 1 covers 1 of 10 candidates and only the single types are covered
    agl = [tuple((x + 1) % 7 for x in range(7)), tuple(3 * x % 7 for x in range(7))]
    real = cli.symmetry_witness
    monkeypatch.setattr(cli, "symmetry_witness", lambda geom, perms: real(geom, agl))
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "5", "--k", "2", "--r", "3", "--check", "diagram",
                     "--check", "flag-transitivity", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["diagram"]["pass"]
    assert checks["diagram"]["details"]["uniformity_certified"] is False
    ft = checks["flag-transitivity"]["details"]
    assert not checks["flag-transitivity"]["pass"] and not ft["transitive"]
    assert ft["uncovered_level"] == {"types": [0, 1], "level": 1, "orbit_size": 1, "candidates": 10}
    assert ft["flag_orbit_counts"] == {"0": 1, "1": 1, "2": 1,
                                       "0,1": None, "0,2": None, "1,2": None, "0,1,2": None}
    assert (ft["orbit_size"], ft["total"]) == (21, 630)


def test_assume_transitive_is_an_unknown_argument(capsys):
    from knesergeom import cli

    code = cli.main(["verify", "--n", "5", "--k", "2", "--r", "3",
                     "--check", "locally-x", "--assume-transitive"])
    assert code == 2
    assert "--assume-transitive" in capsys.readouterr().err


def test_gonality_and_diameter_share_one_rank2_summary(monkeypatch, tmp_path):
    from knesergeom import cli, graphs, kneser, kneser_geometry, subsets

    # the bench's rank2-metrics op: KG(12,5) is proved vertex-transitive on
    # its subset masks, so vertex 0's walk sets give the odd girth and both
    # diameters with no all-source sweep; the rank-2 checks read the geom
    # that verify built, so the subsets are enumerated and the factor's
    # disjointness table is made once; the one summary the gonality and
    # diameter checks share builds no cover and no adjacency lists
    sweeps, sources, summaries, covers, enumerations, factors = [], [], [], [], [], []
    walks = graphs._walks
    monkeypatch.setattr(graphs, "_walks", lambda g: (sweeps.append(g), walks(g))[1])
    monkeypatch.setattr(cli, "walk_metrics_from", _recording(sources, cli.walk_metrics_from))
    summary = cli.neighborhood_summary
    monkeypatch.setattr(cli, "neighborhood_summary",
                        lambda g, *a, **kw: (summaries.append(g), summary(g, *a, **kw))[1])
    monkeypatch.setattr(kneser, "neighborhood_geometry",
                        _recording(covers, kneser.neighborhood_geometry))
    monkeypatch.setattr(kneser_geometry, "enumerate_k_subsets",
                        _recording(enumerations, subsets.enumerate_k_subsets))
    monkeypatch.setattr(kneser_geometry, "disjointness_table",
                        _recording(factors, kneser.disjointness_table))
    monkeypatch.setattr(kneser, "enumerate_k_subsets",
                        lambda *a: pytest.fail("a second enumeration of the subsets"))
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "12", "--k", "5", "--r", "2", "--check", "odd-girth",
                     "--check", "gonality", "--check", "diameter", "--out", str(out)])
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["odd-girth", "gonality", "diameter"]
    assert sweeps == [] and sources == [(7, 7)]
    assert len(enumerations) == 1 and len(enumerations[0]) == math.comb(12, 5)
    [table], [kg] = factors, summaries
    assert kg.n == 792
    assert graphs.Graph.from_masks(table) == kg  # the checked constructor as oracle
    assert checks[1]["details"]["summary"] == checks[2]["details"]["summary"]
    assert covers == []


def test_rank2_checks_fail_closed_without_the_transitivity_proof(monkeypatch, tmp_path):
    from knesergeom import cli

    # the rank-2 metrics are read from vertex 0 only because KG(n,k) is
    # proved vertex-transitive; a failed proof stops verify before any
    # certificate is written, at r = 2 and through the rank-2 geometry at r = 3
    monkeypatch.setattr(cli, "factor_is_vertex_transitive", lambda geom: False)
    for n, k, r in [(12, 5, 2), (7, 3, 2), (6, 2, 3)]:
        for check in ("odd-girth", "gonality", "diameter"):
            out = tmp_path / f"{n}-{k}-{r}-{check}.json"
            with pytest.raises(RuntimeError, match="vertex-transitivity"):
                cli.main(["verify", "--n", str(n), "--k", str(k), "--r", str(r),
                          "--check", check, "--out", str(out)])
            assert not out.exists()


def test_odd_girth_mismatch_witness_builds_kneser_graph_once(monkeypatch, tmp_path):
    from knesergeom import Graph, cli, kneser, kneser_geometry

    tables = []
    monkeypatch.setattr(kneser_geometry, "disjointness_table",
                        _recording(tables, kneser.disjointness_table))
    monkeypatch.setattr(cli, "predicted_odd_girth", lambda kp: 3)
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "7", "--k", "3", "--r", "2", "--check", "odd-girth",
                     "--out", str(out)])
    assert code == 1 and len(tables) == 1
    details = json.loads(out.read_text())["checks"][0]["details"]
    assert details["predicted"] == 3 and details["computed"] == 7
    cyc, g = details["witness_cycle"], Graph.from_masks(tables[0])  # checked, as oracle
    assert g == kneser_graph(KneserParams(7, 3))
    assert len(cyc) == 7 == len(set(cyc))
    for i in range(len(cyc)):
        assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])


def test_kneser_checks_share_one_checked_kneser_graph(monkeypatch, tmp_path):
    from knesergeom import Graph, cli, kneser, kneser_geometry

    tables = []
    monkeypatch.setattr(kneser_geometry, "disjointness_table",
                        _recording(tables, kneser.disjointness_table))
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "12", "--k", "5", "--r", "2", "--check", "odd-girth",
                     "--check", "gonality", "--check", "diameter", "--out", str(out)])
    assert code == 0
    assert [len(t) for t in tables] == [math.comb(12, 5)]  # 792 rows, made once
    assert Graph.from_masks(tables[0]) == kneser_graph(KneserParams(12, 5))  # checked oracle
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d9bbfa01d1f1ba47e8471fb896e16dcf03efa109d5af07b38ad640a24320238e"
    )


def test_rank2_checks_build_no_cover(monkeypatch, tmp_path):
    from knesergeom import cli, graphs, incidence, kneser, kneser_geometry

    # the gonality and diameter checks read K_2 x KG(12,5) from KG's own
    # masks, and the vertex-transitivity proof lets vertex 0 stand for its
    # side in the one 4-cycle scan and the one girth search
    for module, name in [(kneser, "typed_copies"), (kneser_geometry, "typed_copies"),
                         (kneser, "neighborhood_geometry"), (kneser, "complete_tensor"),
                         (graphs, "complete_tensor")]:
        monkeypatch.setattr(module, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
    scans, sources = [], []
    classify, girth = incidence._classify, incidence._girth
    monkeypatch.setattr(incidence, "_classify",
                        lambda masks, a, b, scan=None: (scans.append(scan),
                                                        classify(masks, a, b, scan))[1])
    monkeypatch.setattr(incidence, "_girth",
                        lambda rows, srcs, floor: (sources.append(list(srcs)),
                                                   girth(rows, sources[-1], floor))[1])
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "12", "--k", "5", "--r", "2", "--check", "gonality",
                     "--check", "diameter", "--out", str(out)])
    assert code == 0
    assert scans == [1] and sources == [[0]]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b1a190882d68b61f40fbaf1386cb48cb08ed9c5a998b2b143db2ab8f40599bba"
    )


def test_rank2_checks_run_in_bounded_memory(tmp_path):
    from knesergeom import cli

    # the (12,5) rank-2 checks hold O(C(12,5)) words: the subsets, the
    # factor's 792 masks and the walk sets of one vertex; checking the
    # factor's symmetry on bit strings and building the 1,584-vertex cover
    # peaked at about 1.4 MB
    out = tmp_path / "cert.json"
    argv = ["verify", "--n", "12", "--k", "5", "--r", "2", "--check", "odd-girth",
            "--check", "gonality", "--check", "diameter", "--out", str(out)]
    assert cli.main(argv) == 0  # first-use imports stay out of the count
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 300 << 10, peak
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d9bbfa01d1f1ba47e8471fb896e16dcf03efa109d5af07b38ad640a24320238e"
    )


def test_locally_x_check_runs_in_bounded_memory():
    from knesergeom import cli

    # at (5,2,8) the 1,088-vertex incidence graph is searched against the
    # 952-vertex X on their masks alone; edge-checking through neighbour
    # lists of X, cached on the Graph, peaked at about 10 MB
    run = cli._Run(GeometryParams(5, 2, 8))
    run.geom.incidence_system()
    run.witness  # held by the run; the residue checks share it
    tracemalloc.start()  # X is built and refined inside the count
    try:
        ok, details = cli._check_locally_x(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and details["total"] == details["passed"] == 1088
    assert peak < 3 << 20, peak


def test_verify_leaves_no_geometry_or_reference_path_alive(tmp_path):
    import gc

    from knesergeom import cli
    from knesergeom.isomorphism import _ReferencePath
    from knesergeom.kneser_geometry import KneserGeometry

    # the facts the checks share are held by the run: once main returns,
    # neither geometry, the run's nor the rank-2 one of its walk checks, nor
    # a reference path of its locally-x search is left anywhere
    gc.collect()
    paths_before = [o for o in gc.get_objects() if isinstance(o, _ReferencePath)]
    out = tmp_path / "cert.json"
    assert cli.main(["verify", "--all", "--n", "8", "--k", "3", "--r", "3",
                     "--out", str(out)]) == 1  # ip2 fails off n = 2k + 1
    gc.collect()
    objects = gc.get_objects()
    geometries = [(o.params.n, o.params.k, o.params.r)
                  for o in objects if isinstance(o, KneserGeometry)]
    assert (8, 3, 3) not in geometries and (8, 3, 2) not in geometries
    paths = [o for o in objects if isinstance(o, _ReferencePath)]
    assert not [o for o in paths if not any(o is p for p in paths_before)]


def test_rank2_checks_never_build_the_symmetry_witness(monkeypatch, tmp_path):
    from knesergeom import cli

    # the run builds its witness on first use; the rank-2 metrics read
    # KG(n,k) and its transitivity proof alone
    monkeypatch.setattr(cli, "symmetry_witness", lambda *a: pytest.fail("witness built"))
    out = tmp_path / "cert.json"
    assert cli.main(["verify", "--n", "12", "--k", "5", "--r", "2", "--check", "odd-girth",
                     "--check", "gonality", "--check", "diameter", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d9bbfa01d1f1ba47e8471fb896e16dcf03efa109d5af07b38ad640a24320238e"
    )


def test_rank2_diagram_reads_the_shared_summary(monkeypatch, tmp_path):
    from knesergeom import cli, incidence

    # at r = 2 the diagram's one edge is the summary of the whole geometry,
    # which the gonality and diameter checks share; no all-source sweep of
    # the cover and no restriction is made
    summaries = []
    summary = cli.neighborhood_summary
    monkeypatch.setattr(cli, "neighborhood_summary",
                        lambda *a, **kw: (summaries.append(a[0].n), summary(*a, **kw))[1])
    for name in ("rank2_summary", "eccentricities", "_restriction"):
        monkeypatch.setattr(incidence, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
    out = tmp_path / "all.json"
    code = cli.main(["verify", "--all", "--n", "12", "--k", "5", "--r", "2", "--out", str(out)])
    assert code == 1  # ip2 fails off n = 2k + 1, as the paper predicts
    assert summaries == [792]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "00769702fe802c068739332d6777ca8718487363fbac84b69a959aa94829f8fc"
    )


@pytest.mark.parametrize("n, k", [(7, 3), (12, 5)])
def test_rank2_ip2_reads_the_shared_summary(monkeypatch, tmp_path, n, k):
    from knesergeom import cli
    from knesergeom.incidence import satisfies_ip2

    # at r = 2 the one rank-2 residue is the whole geometry, whose class the
    # shared summary holds; scanning every element of one side is the oracle
    expected = satisfies_ip2(build_geometry(GeometryParams(n, k, 2)).incidence_system())
    monkeypatch.setattr(cli, "satisfies_ip2", lambda *a: pytest.fail("ip2 scanned the geometry"))
    out = tmp_path / "ip2.json"
    code = cli.main(["verify", "--n", str(n), "--k", str(k), "--r", "2", "--check", "ip2",
                     "--out", str(out)])
    [check] = json.loads(out.read_text())["checks"]
    assert code == (0 if expected.ok else 1) and check["pass"] == expected.ok == (n == 2 * k + 1)
    details = check["details"]
    assert details.get("failing_pair") == (None if expected.ok else list(expected.failing_pair))
    assert details.get("failing_flag") == (None if expected.ok else list(expected.failing_flag))


def test_uncertified_rank2_diagram_summarises_the_geometry(monkeypatch, tmp_path):
    from knesergeom import cli

    # at r = 2 the one residue is the whole geometry whatever the witness
    # covers, so a witness that covers no type still reads the shared
    # summary; the check fails only because uniformity is not certified
    certified = tmp_path / "certified.json"
    assert cli.main(["verify", "--n", "7", "--k", "3", "--r", "2", "--check", "diagram",
                     "--out", str(certified)]) == 0
    dropped = (0, 2, 1, 3, 4, 5, 6)  # leaves Sym{0,1} x Sym{2..6}: 5 of 35 subsets at level 0
    real = cli.symmetry_witness
    monkeypatch.setattr(cli, "symmetry_witness",
                        lambda geom, perms: real(geom, [p for p in perms if p != dropped]))
    out = tmp_path / "cert.json"
    assert cli.main(["verify", "--n", "7", "--k", "3", "--r", "2", "--check", "diagram",
                     "--out", str(out)]) == 1
    [got], [want] = (json.loads(p.read_text())["checks"] for p in (out, certified))
    assert got["details"]["uniformity_certified"] is False
    assert got["details"]["computed"] == want["details"]["computed"]


def test_thickness_reports_computed_minimum(monkeypatch):
    from types import SimpleNamespace

    from knesergeom import Graph, cli

    # the vertex-edge geometry of the path 1-0-2-3: an end vertex lies on one
    # edge, so the smallest rank-1 residue has one element (C(n-k,k) = 3
    # here), though the first residue of each cotype has two
    path = Graph(4, [(0, 1), (0, 2), (2, 3)])
    stand_in = SimpleNamespace(incidence_system=lambda: vertex_edge_geometry(path))
    # the only witness at hand is the verified one of the real (5,2,3)
    # geometry, transitive on every type set but of another graph: every
    # flag of the stand-in is read
    params = GeometryParams(5, 2, 3)
    witness = symmetry_witness(build_geometry(params), adjacent_transpositions(params.ground_size))
    assert witness.covered >= 1
    run = cli._Run(params)
    run.geom, run.witness = stand_in, witness
    ok, details = cli._check_thickness(run)
    assert ok is False
    assert details == {"rank1_residue_size": 1, "thick": False}


_RESIDUE_CHECKS = ("geometry", "residual-connectivity", "thickness", "ip2")


def test_residue_checks_read_one_flag_per_type_set(monkeypatch):
    from knesergeom import cli, incidence

    residues, read = incidence._residues, []

    def counted(sys_, J):
        for item in residues(sys_, J):
            read.append(tuple(J))
            yield item

    monkeypatch.setattr(incidence, "_residues", counted)
    singles, pairs = [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]
    for n, ip2_reads in [(5, singles), (6, singles[:1])]:
        run = cli._Run(GeometryParams(n, 2, 3))
        # built before the reads are counted, which are each check's own
        assert run.witness.covered >= 2  # singles and pairs
        per_check = {}
        for name in _RESIDUE_CHECKS:
            del read[:]
            ok, _ = cli._CHECKS[name](run)
            per_check[name] = (ok, list(read))
        # 7 + 4 + 3 + 3 flags, one per type set; at (6,2,3) ip2 fails, as
        # predicted, at the first flag of its first type set
        assert per_check == {
            "geometry": (True, [(), *singles, *pairs]),
            "residual-connectivity": (True, [(), *singles]),
            "thickness": (True, pairs),
            "ip2": (n == 5, ip2_reads),
        }


def _cycle_and_transposition(geom, perms):
    """The cycle (0 1 ... m-1) and (0 1): they generate the whole symmetric
    group, so every level 0 is full, but only (0 1) fixes the first subset
    {0, 1}, and it fixes every subset disjoint from it, so no deeper level
    is."""
    m = len(perms[0])
    return symmetry_witness(geom, [tuple((p + 1) % m for p in range(m)), perms[0]])


def test_partial_witness_certificates_equal_the_full_walk(monkeypatch, tmp_path):
    from knesergeom import cli
    from helpers import residue_verdicts_oracle

    out = tmp_path / "cert.json"
    argv = [arg for name in _RESIDUE_CHECKS for arg in ("--check", name)]

    def certificate(params, witness):
        monkeypatch.setattr(cli, "symmetry_witness", witness)
        code = cli.main(["verify", "--n", str(params.n), "--k", str(params.k),
                         "--r", str(params.r), *argv, "--out", str(out)])
        return code, out.read_bytes()

    def dropping(i):
        return lambda geom, perms: symmetry_witness(geom, perms[:i] + perms[i + 1:])

    witnesses = (dropping(0), dropping(1), _cycle_and_transposition)
    for params in [GeometryParams(5, 2, 3), GeometryParams(6, 2, 3), GeometryParams(5, 2, 4)]:
        # with generator 0 or 1 dropped only the empty type set is covered;
        # with the cycle and (0 1) the single types are, and no larger set
        geom = build_geometry(params)
        perms = adjacent_transpositions(params.ground_size)
        assert [w(geom, perms).covered for w in witnesses] == [0, 0, 1]
        full = certificate(params, lambda geom, perms: None)  # no witness: every flag
        for witness in witnesses:
            assert certificate(params, witness) == full, params
        want = residue_verdicts_oracle(geom.incidence_system())
        checks = {c["name"]: c for c in json.loads(full[1])["checks"]}
        assert checks["geometry"]["pass"] == want["geometry"]
        assert checks["residual-connectivity"]["pass"] == want["residually_connected"]
        assert checks["ip2"]["pass"] == want["ip2"]
        assert checks["thickness"]["pass"] == want["thick"]
        smallest = min(size for _, size in want["rank1_sizes"])
        assert checks["thickness"]["details"]["rank1_residue_size"] == smallest


def test_verify_all_builds_the_geometry_once(monkeypatch, tmp_path):
    from knesergeom import KneserGeometry, cli

    built = []
    real_init = KneserGeometry.__init__

    def counted(self, params):
        built.append(params)
        real_init(self, params)

    monkeypatch.setattr(KneserGeometry, "__init__", counted)
    out = tmp_path / "cert.json"
    code = cli.main(["verify", "--n", "5", "--k", "2", "--r", "3", "--all", "--out", str(out)])
    assert code == 0
    assert built.count(GeometryParams(5, 2, 3)) == 1


def test_flag_transitivity_point_group_order_past_degree_8():
    res = run_cli(
        "verify", "--n", "5", "--k", "2", "--r", "4", "--check", "flag-transitivity",
    )
    assert res.returncode == 0
    details = json.loads(res.stdout)["checks"][0]["details"]
    assert details["point_group_order"] == math.factorial(9)


def test_flag_transitivity_and_diagram_at_the_frontier():
    # (5,2,5) has 1,247,400 chambers; both checks read one flag per type set
    res = run_cli(
        "verify", "--n", "5", "--k", "2", "--r", "5",
        "--check", "flag-transitivity", "--check", "diagram",
    )
    assert res.returncode == 0
    checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["diagram"]["pass"] and checks["flag-transitivity"]["pass"]
    assert checks["flag-transitivity"]["details"]["orbit_size"] == 1247400


# stdout sha256 of `verify --all`: certificates are byte-reproducible, so a
# refactor that changes any byte of one fails here
GOLDEN_VERIFY_ALL = [
    ("5", "2", "3", 0, "174325a1a208315c908c7d5076f8b362e2de54a9388888b3c631a7ba82280cec"),
    ("6", "2", "3", 1, "d600c162b7e5252fa9407722500e802d5fc20fc0e250129cece7205f84cb1f14"),
    ("5", "2", "4", 0, "846b918fa3263dc4f338014d5cedb851e7a8b0f4bff9702a367f29d6bb2538a5"),
    ("6", "2", "4", 1, "c18bdc2098fb9e4dc939dff0f37cfb552a9d1cccd30d2ff4d6174035c1fe8864"),
    ("7", "3", "3", 0, "1708ba2818c5a796a2c09813ce5289396f45f4700874f3fdc634148dc84c36ab"),
    # the frontier, where every residue check reads one flag per type set
    ("5", "2", "5", 0, "befa05ac1e098e34b01c7871c06b2fa40db6925ff3e033926b181011c3b1896e"),
    ("9", "4", "3", 0, "cb616c38547e7afe59af5299087d1270b3a62f82d7a77aa072ebd2cd99aafbf9"),
    ("7", "3", "4", 0, "9caf1473ff7b731c4a889ac22077411eab43ca7d8c6a98d63d13e2f73e7029ec"),
    # 255 type sets, each covered by the chamber type's levels
    ("5", "2", "8", 0, "163838c0141a628c522577b81ce679b3ce6e348d9df5dac2cca3d033cad5b303"),
]


def test_verify_all_golden_certificates():
    for n, k, r, code, digest in GOLDEN_VERIFY_ALL:
        res = run_cli("verify", "--n", n, "--k", k, "--r", r, "--all")
        assert res.returncode == code
        assert hashlib.sha256(res.stdout).hexdigest() == digest, (n, k, r)


# stdout sha256 of the rank-2 certificates, `verify --all` in the argument
# order of the bench's verify-rank3 op, the rank-4 locally-x, residue and
# flag-transitivity checks and the json/dot/graph6 exports, under the same rule
GOLDEN_OUTPUTS = [
    (("verify", "--n", "7", "--k", "3", "--r", "2", "--all"), 0,
     "12f25d5b03786b308be04331b13026c30d8122dedc93a30e5466ae6a680130b1"),
    (("verify", "--n", "12", "--k", "5", "--r", "2", "--check", "odd-girth",
      "--check", "gonality", "--check", "diameter"), 0,
     "d9bbfa01d1f1ba47e8471fb896e16dcf03efa109d5af07b38ad640a24320238e"),
    (("verify", "--n", "5", "--k", "2", "--r", "4", "--check", "locally-x"), 0,
     "2b55cda67c193bd0606dd81f99d9ffca81abcf4a4bcf0694587842d7a1f1c15c"),
    (("verify", "--n", "5", "--k", "2", "--r", "4", "--check", "geometry",
      "--check", "residual-connectivity", "--check", "thickness", "--check", "diagram",
      "--check", "ip2"), 0,
     "ca647f13c31062bd5a3d7176e206f6052d6fa7c7643d9c4cd6e0dac2a7e52cd6"),
    (("build", "--n", "5", "--k", "2", "--r", "3", "--format", "json"), 0,
     "302fd3f62e30309c60c7b2c9c07a3315cb97c907f400885fcee647bdefb94094"),
    (("build", "--n", "5", "--k", "2", "--r", "3", "--format", "dot"), 0,
     "924138eadd19d975feb034c5b96776bb4b7038af740ee95b2be976bcf6d8f1c0"),
    (("verify", "--all", "--n", "6", "--k", "2", "--r", "3"), 1,
     "d600c162b7e5252fa9407722500e802d5fc20fc0e250129cece7205f84cb1f14"),
    (("verify", "--n", "5", "--k", "2", "--r", "4", "--check", "flag-transitivity"), 0,
     "6e7bc6d60ef45d016c4e23ded69d251812c48f077180640ec16b3cdabff6b407"),
    (("build", "--n", "5", "--k", "2", "--r", "3", "--format", "graph6"), 0,
     "141e8e8216139860352cbee8de800ce96b73980610645aae0f02173fcb329879"),
    (("build", "--format", "graph6", "--n", "9", "--k", "4", "--r", "3"), 0,
     "114eb85f871a83282eaa7011ab61fd6a1c932aae483a8610583ed1e10d58a7d5"),
    (("build", "--format", "json", "--n", "9", "--k", "4", "--r", "3"), 0,
     "0cca6cb106a08367ed2d1c5313b999753e46d120ba780f240431cbd9ce1a4a05"),
    # the three checks that read the symmetry witness, at the frontier
    (("verify", "--n", "9", "--k", "4", "--r", "3", "--check", "locally-x",
      "--check", "flag-transitivity", "--check", "diagram"), 0,
     "362a6186fdda792cdc830439fba47266ac50012f6115bba67b11f8025214fc77"),
    (("verify", "--n", "7", "--k", "3", "--r", "4", "--check", "locally-x",
      "--check", "flag-transitivity", "--check", "diagram"), 0,
     "d58b914dc8ace208c7c9b3221aba528b7d5fbf973cebd60e5ae1bad340a984be"),
    # streamed exports, against the bytes of the whole-payload writer
    (("build", "--format", "json", "--n", "5", "--k", "2", "--r", "2"), 0,
     "7a72ad35100470f7e65c2a25c9c421ea367ae5ec635b081f7a8cb05fc9de0f13"),
    (("build", "--format", "graph6", "--n", "6", "--k", "2", "--r", "4"), 0,
     "52a8e146445f108ec4d8ee455d6e60233c54eb89c2fdc03dc103e8003d31dc83"),
    (("build", "--format", "json", "--n", "7", "--k", "3", "--r", "3"), 0,
     "2973c8250e3b8bf27da4cc5f2020f9fb9da96e2b3fadd118927092b3544acdb2"),
]


def test_golden_outputs():
    for argv, code, digest in GOLDEN_OUTPUTS:
        res = run_cli(*argv)
        assert res.returncode == code
        assert hashlib.sha256(res.stdout).hexdigest() == digest, argv


def test_golden_outputs_in_one_process(capsysbinary):
    # the memoised witness, rank-2 geometry, walk metrics and summary hold
    # one entry each, so runs that alternate between parameters, and between
    # rank 3, rank 4 and rank 2, keep replacing them; each stdout must still
    # be that of a fresh process
    from knesergeom import cli

    golden = {("verify", "--n", n, "--k", k, "--r", r, "--all"): (code, digest)
              for n, k, r, code, digest in GOLDEN_VERIFY_ALL}
    golden.update((argv, (code, digest)) for argv, code, digest in GOLDEN_OUTPUTS)
    ladder = [("5", "2", "3"), ("6", "2", "3"), ("5", "2", "3"), ("5", "2", "4"),
              ("7", "3", "2"), ("5", "2", "3"), ("5", "2", "4")]
    runs = [("verify", "--n", n, "--k", k, "--r", r, "--all") for n, k, r in ladder]
    capsysbinary.readouterr()
    for argv in runs:
        code = cli.main(list(argv))
        out = capsysbinary.readouterr().out
        assert (code, hashlib.sha256(out).hexdigest()) == golden[argv], argv


def test_build_graph6_goes_from_masks_to_bytes(monkeypatch, tmp_path):
    from knesergeom import Graph, cli

    # the export builds no graph from an edge list and never the adjacency
    # tuples of the one it streams
    edge_lists, encoded_graphs = [], []
    monkeypatch.setattr(Graph, "__init__", _recording(edge_lists, Graph.__init__))
    pieces = cli.graph6_pieces
    monkeypatch.setattr(cli, "graph6_pieces", lambda g: encoded_graphs.append(g) or pieces(g))
    out = tmp_path / "943.g6"
    code = cli.main(["build", "--format", "graph6", "--n", "9", "--k", "4", "--r", "3",
                     "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "114eb85f871a83282eaa7011ab61fd6a1c932aae483a8610583ed1e10d58a7d5"
    )
    assert edge_lists == []
    (g,) = encoded_graphs
    assert g.n == 2145


def test_build_json_matches_whole_document_oracle(tmp_path):
    from knesergeom import cli

    out = tmp_path / "geometry.json"
    for n, k, r in ((5, 2, 2), (5, 2, 3), (6, 2, 4)):
        assert cli.main(["build", "--n", str(n), "--k", str(k), "--r", str(r),
                         "--out", str(out)]) == 0
        expected = geometry_json_oracle(n, k, r)
        assert out.read_bytes() == expected, (n, k, r)
        # the spliced pairs are json's own layout
        assert cli._dump(json.loads(expected)).encode() == expected


def test_build_out_bytes_equal_stdout(tmp_path):
    for fmt in ("json", "graph6"):
        argv = ("build", "--format", fmt, "--n", "7", "--k", "3", "--r", "3")
        out = tmp_path / f"733.{fmt}"
        piped, written = run_cli(*argv), run_cli(*argv, "--out", str(out))
        assert piped.returncode == written.returncode == 0 and written.stdout == b""
        assert out.read_bytes() == piped.stdout, fmt


def test_build_exports_stream_in_bounded_memory(monkeypatch, tmp_path):
    from knesergeom import cli

    # graph6 is 383 KB and the json 11.8 MB at (9,4,3); the whole-payload
    # writer's export phase peaked at about 2.0 and 62 MB above the geometry
    tracemalloc.start()
    try:
        geom = build_geometry(GeometryParams(9, 4, 3))
        geom.incidence_system()
        monkeypatch.setattr(cli, "build_geometry", lambda params: geom)
        for fmt, bound, digest in (
            ("graph6", 512 << 10, "114eb85f871a83282eaa7011ab61fd6a1c932aae483a8610583ed1e10d58a7d5"),
            ("json", 4 << 20, "0cca6cb106a08367ed2d1c5313b999753e46d120ba780f240431cbd9ce1a4a05"),
        ):
            out = tmp_path / f"943.{fmt}"
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = cli.main(["build", "--format", fmt, "--n", "9", "--k", "4", "--r", "3",
                             "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1] - held
            assert code == 0
            assert peak < bound, (fmt, peak)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, fmt
    finally:
        tracemalloc.stop()


def test_closed_stdout_exit3():
    # sh closes the child's stdout, so Python starts with sys.stdout None
    for argv in (("verify", "--all", "--n", "5", "--k", "2", "--r", "3"),
                 ("build", "--n", "5", "--k", "2", "--r", "3")):
        res = subprocess.run(
            ["sh", "-c", 'exec "$0" -m knesergeom.cli "$@" >&-', sys.executable, *argv],
            capture_output=True, timeout=300, env=_CHILD_ENV,
        )
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith(b"error: cannot write output"), res.stderr


class _FullAfter(io.RawIOBase):
    """A raw stream that takes `room` writes, then fails each with ENOSPC."""

    def __init__(self, room):
        self.room, self.taken = room, []

    def writable(self):
        return True

    def write(self, data):
        if len(self.taken) == self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.taken.append(bytes(data))
        return len(data)


def test_write_error_midstream_stops_the_stream_exit3(monkeypatch, capsys):
    from knesergeom import cli

    made = []

    def pieces():
        for i in range(6):
            made.append(i)
            yield b"%02d" % i * 8

    raw = _FullAfter(2)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw, 4)))
    assert cli._write(pieces(), None) == cli.EXIT_IO
    # each piece went out as it was made, and none was made past the failure
    assert raw.taken == [b"00" * 8, b"01" * 8] and made == [0, 1, 2]
    assert capsys.readouterr().err.startswith("error: cannot write output")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_build_to_a_full_device_exit3():
    argv = ("build", "--format", "graph6", "--n", "9", "--k", "4", "--r", "3")
    with open("/dev/full", "wb") as full:
        piped = subprocess.run([sys.executable, "-m", "knesergeom.cli", *argv], stdout=full,
                               stderr=subprocess.PIPE, timeout=300, env=_CHILD_ENV)
    written = run_cli(*argv, "--out", "/dev/full")
    for res in (piped, written):
        assert res.returncode == 3 and res.stderr.startswith(b"error: cannot write output")


def test_locally_x_second_graph6_line_exit2(tmp_path):
    two = tmp_path / "two.g6"
    two.write_bytes("@\n\nCé\n".encode())
    ok = tmp_path / "ok.g6"
    ok.write_bytes(b"@\n")
    res = run_cli("locally-x", str(two), str(ok))
    assert res.returncode == 2
    assert res.stdout == b""
    assert str(two).encode() in res.stderr and b"line 3" in res.stderr


# argv, exit code, and what the last line of stderr (the error) must name;
# for exit 0, what stdout must hold
_PARAMS = ["--n", "5", "--k", "2", "--r", "3"]
USAGE_CASES = [
    (["build", "--n", "5", "--r", "3"], 2, ("--k",)),
    (["build", "--n", "x", "--k", "2", "--r", "3"], 2, ("--n", "'x'")),
    (["verify", *_PARAMS, "--check", "nope"], 2, ("--check", "'nope'")),
    (["build", *_PARAMS, "--format", "svg"], 2, ("--format", "'svg'")),
    (["locally-x", "g.g6", "x.g6", "extra.g6"], 2, ("extra.g6",)),
    (["frob"], 2, ("'frob'",)),
    ([], 2, ("command",)),
    (["--help"], 0, ("usage:", "locally-x")),
    (["-h"], 0, ("usage:", "locally-x")),
    (["verify", "--help"], 0, ("usage:", "--check")),
]


@pytest.mark.parametrize("argv, code, needles", USAGE_CASES)
def test_cli_usage_parity(capsys, argv, code, needles):
    from knesergeom import cli

    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        last = err.strip().splitlines()[-1]
        assert "error:" in last and all(s in last for s in needles), err
    else:
        assert all(s in out for s in needles), out


def test_cli_version(capsys):
    from knesergeom import cli

    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == "0.1.0\n"


# pairs of argv that must print the same bytes: an option's value joined by
# "=" or given apart, a unique prefix of an option, options after positionals
SPELLING_PAIRS = [
    (["verify", "--n=6", "--k", "2", "--r", "2", "--check", "odd-girth"],
     ["verify", "--n", "6", "--k", "2", "--r", "2", "--check", "odd-girth"]),
    (["build", "--form", "graph6", *_PARAMS], ["build", "--format", "graph6", *_PARAMS]),
    (["verify", "--ch=gonality", "--c", "diameter", "--n", "5", "--k", "2", "--r", "2"],
     ["verify", "--check", "gonality", "--check", "diameter", "--n", "5", "--k", "2", "--r", "2"]),
]


@pytest.mark.parametrize("one, other", SPELLING_PAIRS)
def test_cli_spellings_print_the_same_bytes(capsysbinary, one, other):
    from knesergeom import cli

    outs = []
    for argv in (one, other):
        assert cli.main(argv) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize("posixly_correct", [False, True])
def test_locally_x_options_after_positionals(tmp_path, petersen, monkeypatch, capsys,
                                             posixly_correct):
    # options are read after positionals whatever the environment says, and
    # everything after "--" is a positional
    from knesergeom import cli

    if posixly_correct:
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
    g6 = tmp_path / "p.g6"
    g6.write_bytes(graph6_encode(petersen) + b"\n")
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert cli.main(["locally-x", "--out", str(before), str(g6), str(g6)]) == 1
    assert cli.main(["locally-x", str(g6), str(g6), "--out", str(after)]) == 1
    assert before.read_bytes() == after.read_bytes()
    assert cli.main(["locally-x", str(g6), "--out", str(after), "--", str(g6)]) == 1
    assert before.read_bytes() == after.read_bytes()
    capsys.readouterr()
    assert cli.main(["locally-x", str(g6), "--", str(g6), "--out", str(after)]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
