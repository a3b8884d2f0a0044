import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_assume_transitive_checks_orbit_reps():
    res = run_cli(
        "verify", "--n", "5", "--k", "2", "--r", "3",
        "--check", "locally-x", "--assume-transitive",
    )
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    details = cert["checks"][0]["details"]
    assert details["total"] == 3  # one representative per type
    assert details["orbit_representatives"] == [0, 21, 42]


# stdout sha256 of `verify --all`: certificates are byte-reproducible, so a
# refactor that changes any byte of one fails here
GOLDEN_VERIFY_ALL = [
    ("5", "2", "3", 0, "174325a1a208315c908c7d5076f8b362e2de54a9388888b3c631a7ba82280cec"),
    ("6", "2", "3", 1, "d600c162b7e5252fa9407722500e802d5fc20fc0e250129cece7205f84cb1f14"),
]


def test_verify_all_golden_certificates():
    for n, k, r, code, digest in GOLDEN_VERIFY_ALL:
        res = run_cli("verify", "--n", n, "--k", k, "--r", r, "--all")
        assert res.returncode == code
        assert hashlib.sha256(res.stdout).hexdigest() == digest, (n, k, r)


def test_locally_x_second_graph6_line_exit2(tmp_path):
    two = tmp_path / "two.g6"
    two.write_bytes("@\n\nCé\n".encode())
    ok = tmp_path / "ok.g6"
    ok.write_bytes(b"@\n")
    res = run_cli("locally-x", str(two), str(ok))
    assert res.returncode == 2
    assert res.stdout == b""
    assert str(two).encode() in res.stderr and b"line 3" in res.stderr
