"""The four workloads of the knesergeom benchmark.

Each workload names the CLI arguments of one op, writes whatever input
files the op reads, and checks one op's stdout.  Every expected value is
computed here from closed forms or with networkx, never with knesergeom,
so a wrong answer from the program cannot also be the value it is checked
against.  networkx is imported only to check outputs, after the timed ops:
a child's peak RSS, as wait4 reports it, is at least the peak RSS of the
process that started it, so the benchmark keeps its own peak small until
the ops have run.  Why each workload exists, and which layer should move it, is
written down in bench/README.md.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHECK_ORDER = [
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


def ground_size(n: int, k: int, r: int) -> int:
    return n + k * (r - 2)


def chamber_count(n: int, k: int, r: int) -> int:
    m = ground_size(n, k, r)
    return math.prod(math.comb(m - t * k, k) for t in range(r))


def odd_girth_closed_form(n: int, k: int) -> int:
    """Odd girth of KG(n, k), and the diameter of both sides of its
    neighbourhood geometry: 2*ceil(k/(n-2k)) + 1."""
    return 2 * math.ceil(k / (n - 2 * k)) + 1


def gonality_closed_form(n: int, k: int) -> int:
    return 3 if n == 2 * k + 1 else 2


def ip2_holds(n: int, k: int) -> bool:
    """The paper's dichotomy: the geometry satisfies (IP)_2 iff n = 2k+1."""
    return n == 2 * k + 1


def incidence_edges(n: int, k: int, r: int) -> tuple[int, list]:
    """Vertex count and edges of the rank-r disjointness geometry's incidence
    graph, built from its definition: r typed copies of the k-subsets of
    n + k(r-2) points, elements of different types adjacent when their
    subsets are disjoint."""
    masks = [sum(1 << x for x in c)
             for c in itertools.combinations(range(ground_size(n, k, r)), k)]
    per = len(masks)
    edges = [
        (t * per + i, u * per + j)
        for t, u in itertools.combinations(range(r), 2)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if not a & b
    ]
    return r * per, edges


def graph6(n: int, edges) -> bytes:
    """Header-less graph6 line of a graph on 0..n-1, for n < 258048."""
    head = [n] if n < 63 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    pairs = n * (n - 1) // 2
    bits = [0] * (pairs + -pairs % 6)  # padded to whole 6-bit bytes
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    body = [int("".join(map(str, bits[p:p + 6])), 2) for p in range(0, len(bits), 6)]
    return bytes(b + 63 for b in head + body) + b"\n"


def write_relabelled_graph6(n: int, edges, rng: random.Random, path: Path) -> None:
    label = list(range(n))
    rng.shuffle(label)
    path.write_bytes(graph6(n, [(label[u], label[v]) for u, v in edges]))


class CheckFailed(Exception):
    """An op's output disagrees with the workload's oracle."""


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Workload:
    name: str
    exit_code: int
    # Expected values, all from closed forms.  The self-test adds 1 to
    # expect[wrong_key] so that every op must fail the check.
    expect: dict
    wrong_key: str
    # (seed, work dir) -> CLI arguments of every op; writes any input files.
    prepare: Callable[[int, Path], list]
    # (stdout, expect) -> None, or raises CheckFailed.
    check: Callable[[bytes, dict], None]


def _cert(out: bytes, n: int, k: int, r: int) -> dict:
    cert = json.loads(out)
    expect_equal("params", cert["params"], {"n": n, "k": k, "r": r})
    return cert


# --- verify-rank3: verify --all --n 6 --k 2 --r 3 -------------------------

def _rank3_prepare(seed: int, work: Path) -> list:
    return ["verify", "--all", "--n", "6", "--k", "2", "--r", "3"]


def _rank3_check(out: bytes, e: dict) -> None:
    cert = _cert(out, 6, 2, 3)
    checks = {c["name"]: c for c in cert["checks"]}
    expect_equal("check names", [c["name"] for c in cert["checks"]], CHECK_ORDER)
    failing = sorted(name for name, c in checks.items() if not c["pass"])
    expect_equal("failing checks", failing, e["failing"])
    expect_equal("certificate pass", cert["pass"], not e["failing"])
    ft = checks["flag-transitivity"]["details"]
    expect_equal("flag-transitivity orbit_size", ft["orbit_size"], e["chambers"])
    expect_equal("flag-transitivity total", ft["total"], e["chambers"])
    lx = checks["locally-x"]["details"]
    expect_equal("locally-x total", lx["total"], e["elements"])
    expect_equal("locally-x passed", lx["passed"], e["elements"])
    expect_equal("locally-x failed", lx["failed"], [])


# --- rank2-metrics: odd girth, gonality, diameter of KG(12, 5) ------------

def _rank2_prepare(seed: int, work: Path) -> list:
    return ["verify", "--n", "12", "--k", "5", "--r", "2",
            "--check", "odd-girth", "--check", "gonality", "--check", "diameter"]


def _rank2_check(out: bytes, e: dict) -> None:
    cert = _cert(out, 12, 5, 2)
    checks = {c["name"]: c for c in cert["checks"]}
    expect_equal("check names", [c["name"] for c in cert["checks"]],
                 ["odd-girth", "gonality", "diameter"])
    expect_equal("certificate pass", cert["pass"], True)
    expect_equal("odd girth", checks["odd-girth"]["details"]["computed"], e["odd_girth"])
    expect_equal("gonality", checks["gonality"]["details"]["summary"]["gonality"],
                 e["gonality"])
    expect_equal("diameters", checks["diameter"]["details"]["summary"]["diameters"],
                 [e["diameter"], e["diameter"]])


# --- locally-x-g6: (5,2,4) incidence graph against its rank-3 residue -----

def _locally_x_prepare(seed: int, work: Path) -> list:
    rng = random.Random(seed)
    graph, reference = work / "G.g6", work / "X.g6"
    write_relabelled_graph6(*incidence_edges(5, 2, 4), rng, graph)
    write_relabelled_graph6(*incidence_edges(5, 2, 3), rng, reference)
    return ["locally-x", str(graph), str(reference)]


def _locally_x_check(out: bytes, e: dict) -> None:
    report = json.loads(out)
    expect_equal("total", report["total"], e["vertices"])
    expect_equal("passed", report["passed"], e["vertices"])
    expect_equal("failed", report["failed"], [])


# --- build-export: graph6 of the (9,4,3) incidence graph ------------------

def _build_prepare(seed: int, work: Path) -> list:
    return ["build", "--format", "graph6", "--n", "9", "--k", "4", "--r", "3"]


def _build_check(out: bytes, e: dict) -> None:
    import networkx as nx

    lines = out.splitlines()
    expect_equal("graph6 lines", len(lines), 1)
    try:
        g = nx.from_graph6_bytes(lines[0])
    except nx.NetworkXError as exc:
        raise CheckFailed(f"graph6 decode: {exc}") from exc
    expect_equal("vertices", g.number_of_nodes(), e["vertices"])
    expect_equal("edges", g.number_of_edges(), e["edges"])
    expect_equal("degrees", sorted({d for _, d in g.degree}), [e["degree"]])


def _build_expect(n: int, k: int, r: int) -> dict:
    m = ground_size(n, k, r)
    per_type, disjoint = math.comb(m, k), math.comb(m - k, k)
    return {
        "vertices": r * per_type,
        "edges": r * per_type * (r - 1) * disjoint // 2,
        "degree": (r - 1) * disjoint,
    }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="verify-rank3",
            exit_code=1,  # ip2 fails, correctly, because n != 2k+1
            expect={
                "chambers": chamber_count(6, 2, 3),
                "elements": 3 * math.comb(ground_size(6, 2, 3), 2),
                "failing": [] if ip2_holds(6, 2) else ["ip2"],
            },
            wrong_key="chambers",
            prepare=_rank3_prepare,
            check=_rank3_check,
        ),
        Workload(
            name="rank2-metrics",
            exit_code=0,
            expect={
                "odd_girth": odd_girth_closed_form(12, 5),
                "diameter": odd_girth_closed_form(12, 5),
                "gonality": gonality_closed_form(12, 5),
            },
            wrong_key="odd_girth",
            prepare=_rank2_prepare,
            check=_rank2_check,
        ),
        Workload(
            name="locally-x-g6",
            exit_code=0,
            expect={"vertices": 4 * math.comb(ground_size(5, 2, 4), 2)},
            wrong_key="vertices",
            prepare=_locally_x_prepare,
            check=_locally_x_check,
        ),
        Workload(
            name="build-export",
            exit_code=0,
            expect=_build_expect(9, 4, 3),
            wrong_key="edges",
            prepare=_build_prepare,
            check=_build_check,
        ),
    ]
}
