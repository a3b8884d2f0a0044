"""Command-line interface: build geometries, verify their properties,
run locally-X checks on graph6 files.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 I/O error.  Results go to stdout (or --out); diagnostics to stderr.
Certificates are JSON with sorted keys and fixed element order, so a given
invocation is byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .graphs import (
    Graph6Error,
    graph6_decode,
    graph6_encode,
    odd_girth,
    shortest_odd_cycle,
)
from .group_action import (
    adjacent_transpositions,
    permutation_group_order,
    symmetry_witness,
    type_swap_map,
)
from .incidence import (
    _rank1_residue_sizes,
    buekenhout_diagram,
    diagram_to_dot,
    diagram_to_json,
    is_geometry,
    is_residually_connected,
    rank2_summary,
    satisfies_ip2,
    summary_to_json,
    system_to_json,
)
from .kneser import (
    kneser_graph,
    neighborhood_geometry,
    predicted_diameter,
    predicted_gonality,
    predicted_odd_girth,
)
from .kneser_geometry import (
    GeometryParams,
    build_geometry,
    chamber_count,
    predicted_diagram,
)
from .locally_x import is_locally_x, residue_reference_graph

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# one incidence pair as _dump lays it out inside a geometry document
_PAIR = "[\n        %d,\n        %d\n      ]"


def _write(text, out_path) -> int:
    data = text if isinstance(text, bytes) else text.encode()
    try:
        if out_path is None:
            if hasattr(sys.stdout, "buffer"):
                sys.stdout.buffer.write(data)
            else:  # captured/redirected text stream
                sys.stdout.write(data.decode("utf-8", errors="replace"))
            sys.stdout.flush()
        else:
            with open(out_path, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    try:
        params = GeometryParams(args.n, args.k, args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    geom = build_geometry(params)
    if args.format == "graph6":
        payload = graph6_encode(geom.incidence_system().graph) + b"\n"
        return _write(payload, args.out)
    if args.format == "dot":
        diagram = buekenhout_diagram(geom.incidence_system())
        return _write(diagram_to_dot(diagram), args.out)
    geometry = system_to_json(geom.incidence_system())
    pairs, geometry["incidences"] = geometry["incidences"], []
    doc = {
        "schema": "geometry/1",
        "params": {"n": params.n, "k": params.k, "r": params.r},
        "geometry": geometry,
    }
    text = _dump(doc)
    if pairs:  # the same bytes without json's pure-Python pass over each pair
        body = ",\n      ".join([_PAIR % pair for pair in pairs])
        text = text.replace('"incidences": []', f'"incidences": [\n      {body}\n    ]', 1)
    return _write(text, args.out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_geometry(params, geom):
    ok, witness = is_geometry(geom.incidence_system())
    details = {"elements": geom.n_elements, "per_type": params.per_type}
    if witness is not None:
        details["witness_flag"] = list(witness)
    return ok, details


def _check_residual_connectivity(params, geom):
    ok, failing = is_residually_connected(geom.incidence_system())
    details = {}
    if failing is not None:
        details["failing_flag"] = list(failing)
    return ok, details


def _check_thickness(params, geom):
    """Thick iff every rank-1 residue has at least three elements; reports
    the smallest size found."""
    smallest = min(size for _, size in _rank1_residue_sizes(geom.incidence_system()))
    thick = smallest >= 3
    return thick, {"rank1_residue_size": smallest, "thick": thick}


@functools.lru_cache(maxsize=1)
def _symmetry_witness(params, geom):
    """symmetry_witness of the ground set's adjacent transpositions, memoised
    so that the diagram, flag-transitivity and locally-x checks share it."""
    return symmetry_witness(geom, adjacent_transpositions(params.ground_size))


def _check_diagram(params, geom):
    witness = _symmetry_witness(params, geom)
    # the first residue of each kind stands for all when the verified group
    # is transitive on the flags of every corank-1 and corank-2 type set
    # (the empty type set has one flag)
    certified = witness is not None and all(
        s == c
        for J, lv in witness.levels.items() if params.r - 2 <= len(J) < params.r
        for s, c in lv
    )
    computed = buekenhout_diagram(geom.incidence_system())
    predicted = predicted_diagram(params)
    details = {
        "computed": diagram_to_json(computed),
        "predicted": diagram_to_json(predicted),
        "order_closed_form": "C(n-k,k)-1",
    }
    if not certified:
        details["uniformity_certified"] = False
    return certified and computed == predicted, details


def _check_ip2(params, geom):
    ok, pair, flag = satisfies_ip2(geom.incidence_system())
    details = {"closed_form_predicts": params.n == 2 * params.k + 1}
    if pair is not None:
        details["failing_pair"] = list(pair)
        details["failing_flag"] = list(flag)
    return ok, details


def _check_flag_transitivity(params, geom):
    gens = adjacent_transpositions(params.ground_size)
    witness = _symmetry_witness(params, geom)
    if witness is None:
        return False, {"generators_checked": len(gens), "automorphisms": False}
    levels = witness.levels
    total = chamber_count(params)
    # (type set, level, orbit size, candidates) of each level not filled
    gaps = [(J, i, s, c) for J, lv in levels.items() for i, (s, c) in enumerate(lv) if s != c]
    uncovered = {gap[0] for gap in gaps}
    # with every level full, the chambers number the product of the chamber
    # type's level orbits
    orbit = math.prod(size for size, _ in levels[tuple(range(params.r))])
    transitive = orbit == total and not gaps
    # label-pairing maps compose, so the adjacent type transpositions are
    # valid exactly when every type permutation is
    sys_ = geom.incidence_system()
    swaps_ok = all(type_swap_map(sys_, t)[1] for t in adjacent_transpositions(params.r))
    details = {
        "orbit_size": orbit,
        "total": total,
        "transitive": transitive,
        "generators_checked": len(gens),
        "flag_orbit_counts": {
            ",".join(map(str, J)): None if J in uncovered else 1 for J in levels
        },
        "type_swaps_valid": swaps_ok,
        "verified_subgroup_order": math.factorial(params.ground_size)
        * math.factorial(params.r),
        "aut_lower_bound_only": True,
        "point_group_order": permutation_group_order(gens),
    }
    if gaps:
        keys = ("types", "level", "orbit_size", "candidates")
        details["uncovered_level"] = dict(zip(keys, gaps[0]))
    return transitive and swaps_ok, details


def _check_locally_x(params, geom):
    if params.r < 3:
        return True, {"skipped": "rank 2: rank-1 residues are edgeless"}
    g, witness = geom.incidence_system().graph, _symmetry_witness(params, geom)
    report = is_locally_x(g, residue_reference_graph(geom), witness or ())
    return report.ok, report.to_json()


@functools.lru_cache(maxsize=1)
def _kneser_graph(kp):
    """KG(n,k), memoised so that the odd-girth, gonality and diameter checks
    share one checked graph."""
    return kneser_graph(kp)


def _check_odd_girth(params, geom):
    kp = params.kneser
    predicted = predicted_odd_girth(kp)
    g = _kneser_graph(kp)
    computed = odd_girth(g)
    details = {"predicted": predicted, "computed": computed if computed != math.inf else "inf"}
    if computed != predicted:
        details["witness_cycle"] = shortest_odd_cycle(g)
    return computed == predicted, details


@functools.lru_cache(maxsize=1)
def _neighborhood_summary(kp):
    """rank2_summary of the neighborhood geometry of the shared KG(n,k);
    memoised so that the gonality and diameter checks share one build."""
    return rank2_summary(neighborhood_geometry(_kneser_graph(kp)))


def _check_gonality(params, geom):
    kp = params.kneser
    s = _neighborhood_summary(kp)
    predicted = predicted_gonality(kp)
    return s.gonality == predicted, {
        "predicted": predicted,
        "summary": summary_to_json(s),
    }


def _check_diameter(params, geom):
    kp = params.kneser
    s = _neighborhood_summary(kp)
    predicted = predicted_diameter(kp)
    ok = s.diameters == (predicted, predicted)
    return ok, {"predicted": predicted, "summary": summary_to_json(s)}


_CHECKS = {
    "geometry": _check_geometry,
    "residual-connectivity": _check_residual_connectivity,
    "thickness": _check_thickness,
    "diagram": _check_diagram,
    "ip2": _check_ip2,
    "flag-transitivity": _check_flag_transitivity,
    "locally-x": _check_locally_x,
    "odd-girth": _check_odd_girth,
    "gonality": _check_gonality,
    "diameter": _check_diameter,
}
CHECK_NAMES = list(_CHECKS)


def cmd_verify(args) -> int:
    try:
        params = GeometryParams(args.n, args.k, args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    selected = CHECK_NAMES if args.all or not args.check else args.check
    if "locally-x" in (args.check or []) and params.r < 3:
        print("error: locally-x verification needs r >= 3", file=sys.stderr)
        return EXIT_USAGE
    geom = build_geometry(params)
    checks = []
    all_ok = True
    for name in CHECK_NAMES:
        if name not in selected:
            continue
        ok, details = _CHECKS[name](params, geom)
        checks.append({"name": name, "pass": ok, "details": details})
        all_ok = all_ok and ok
    cert = {
        "schema": "cert/1",
        "params": {"n": params.n, "k": params.k, "r": params.r},
        "checks": checks,
        "pass": all_ok,
    }
    code = _write(_dump(cert), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# locally-x on graph6 files
# ---------------------------------------------------------------------------

def _read_graph6_file(path):
    """The one graph in a graph6 file; blank lines are ignored, a second
    graph6 line is an error."""
    with open(path, "rb") as fh:
        lines = [(no, line.strip()) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise Graph6Error(f"no graph6 line in {path}", offset=0)
    if len(lines) > 1:
        no, extra = lines[1]
        raise Graph6Error(
            f"{path} holds more than one graph6 line; extra line {no}: "
            f"{extra.decode('ascii', 'backslashreplace')}"
        )
    return graph6_decode(lines[0][1])


def cmd_locally_x(args) -> int:
    try:
        g = _read_graph6_file(args.graph)
        x = _read_graph6_file(args.reference)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = is_locally_x(g, x)
    code = _write(_dump(report.to_json()), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knesergeom",
        description="Construct and certify Kneser-graph incidence geometries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=int, required=True, help="ground parameter n (n > 2k)")
        p.add_argument("--k", type=int, required=True, help="subset size k >= 1")
        p.add_argument("--r", type=int, required=True, help="rank r >= 2")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_build = sub.add_parser("build", help="build a geometry and export it")
    add_params(p_build)
    p_build.add_argument(
        "--format",
        choices=["json", "graph6", "dot"],
        default="json",
        help="geometry JSON, incidence-graph graph6, or diagram DOT",
    )
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run structural checks, emit a certificate")
    add_params(p_verify)
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument(
        "--check",
        action="append",
        choices=CHECK_NAMES,
        help="run this check (repeatable); default is --all",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_lx = sub.add_parser("locally-x", help="check a graph6 graph against a reference")
    p_lx.add_argument("graph", help="graph6 file with the graph to check")
    p_lx.add_argument("reference", help="graph6 file with the reference X")
    p_lx.add_argument("--out", help="write the report to this path")
    p_lx.set_defaults(func=cmd_locally_x)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    return args.func(args)


def entry():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
