"""Command-line interface: build geometries, verify their properties,
run locally-X checks on graph6 files.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 I/O error.  Results go to stdout (or --out); diagnostics to stderr.
Certificates are JSON with sorted keys and fixed element order, so a given
invocation is byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import combinations, permutations

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
    chamber_orbit_size,
    element_action,
    flag_orbit_count,
    is_type_preserving_automorphism,
    permutation_group_order,
    type_swap_map,
)
from .incidence import (
    buekenhout_diagram,
    diagram_to_dot,
    diagram_to_json,
    flags_of_type,
    is_geometry,
    is_residually_connected,
    is_thick,
    satisfies_ip2,
    system_to_json,
)
from .kneser import (
    kneser_graph,
    kneser_neighborhood_geometry,
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
from .incidence import rank2_summary, summary_to_json
from .locally_x import is_locally_x, residue_reference_graph

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

CHECK_NAMES = [
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


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _geometry_params(args) -> GeometryParams:
    return GeometryParams(args.n, args.k, args.r)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    try:
        params = _geometry_params(args)
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
    doc = {
        "schema": "geometry/1",
        "params": {"n": params.n, "k": params.k, "r": params.r},
        "geometry": system_to_json(geom.incidence_system()),
    }
    return _write(_dump(doc), args.out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_geometry(params, geom, args):
    ok, witness = is_geometry(geom.incidence_system())
    details = {"elements": geom.n_elements, "per_type": params.per_type}
    if witness is not None:
        details["witness_flag"] = list(witness)
    return ok, details


def _check_residual_connectivity(params, geom, args):
    ok, failing = is_residually_connected(geom.incidence_system())
    details = {}
    if failing is not None:
        details["failing_flag"] = list(failing)
    return ok, details


def _check_thickness(params, geom, args):
    sys_ = geom.incidence_system()
    thick = is_thick(sys_)
    expected = math.comb(params.n - params.k, params.k)
    return thick, {"rank1_residue_size": expected, "thick": thick}


def _check_diagram(params, geom, args):
    computed = buekenhout_diagram(geom.incidence_system(), verify_uniformity=True)
    predicted = predicted_diagram(params)
    ok = computed == predicted
    return ok, {
        "computed": diagram_to_json(computed),
        "predicted": diagram_to_json(predicted),
        "order_closed_form": "C(n-k,k)-1",
    }


def _check_ip2(params, geom, args):
    ok, pair, flag = satisfies_ip2(geom.incidence_system())
    details = {"closed_form_predicts": params.n == 2 * params.k + 1}
    if pair is not None:
        details["failing_pair"] = list(pair)
        details["failing_flag"] = list(flag)
    return ok, details


def _check_flag_transitivity(params, geom, args):
    gens = adjacent_transpositions(params.ground_size)
    sys_, tables = element_action(geom, gens)
    if not all(is_type_preserving_automorphism(sys_, t) for t in tables):
        return False, {"generators_checked": len(gens), "automorphisms": False}
    total = chamber_count(params)
    start = next(flags_of_type(sys_, range(params.r)))
    orbit = chamber_orbit_size(sys_, tables, start)
    orbit_counts = {}
    transitive = orbit == total
    for size in range(1, params.r + 1):
        for J in combinations(range(params.r), size):
            count, _ = flag_orbit_count(sys_, tables, J)
            orbit_counts[",".join(map(str, J))] = count
            transitive = transitive and count == 1
    swaps_ok = all(type_swap_map(sys_, sigma)[1] for sigma in permutations(range(params.r)))
    details = {
        "orbit_size": orbit,
        "total": total,
        "transitive": transitive,
        "generators_checked": len(gens),
        "flag_orbit_counts": orbit_counts,
        "type_swaps_valid": swaps_ok,
        "verified_subgroup_order": math.factorial(params.ground_size)
        * math.factorial(params.r),
        "aut_lower_bound_only": True,
    }
    if params.ground_size <= 8:
        details["point_group_order"] = permutation_group_order(gens)
    return transitive and swaps_ok, details


def _check_locally_x(params, geom, args):
    if params.r < 3:
        return True, {"skipped": "rank 2: rank-1 residues are edgeless"}
    reference = residue_reference_graph(params)
    vertices = None
    extra = {}
    if getattr(args, "assume_transitive", False):
        # one vertex per orbit of the type-preserving point action; falls
        # back to the full check if some type splits into several orbits
        sys_, tables = element_action(geom, adjacent_transpositions(params.ground_size))
        reps = []
        single = True
        for t in range(params.r):
            count, rs = flag_orbit_count(sys_, tables, (t,))
            single = single and count == 1
            reps.extend(e for (e,) in rs)
        if single:
            vertices = sorted(reps)
            extra["orbit_representatives"] = vertices
    report = is_locally_x(geom.incidence_system().graph, reference, vertices=vertices)
    details = report.to_json()
    details.update(extra)
    return report.ok, details


def _check_odd_girth(params, geom, args):
    kp = params.kneser
    predicted = predicted_odd_girth(kp)
    computed = odd_girth(kneser_graph(kp))
    details = {"predicted": predicted, "computed": computed if computed != math.inf else "inf"}
    if computed != predicted:
        cycle = shortest_odd_cycle(kneser_graph(kp))
        details["witness_cycle"] = cycle
    return computed == predicted, details


def _check_gonality(params, geom, args):
    kp = params.kneser
    s = rank2_summary(kneser_neighborhood_geometry(kp))
    predicted = predicted_gonality(kp)
    return s.gonality == predicted, {
        "predicted": predicted,
        "summary": summary_to_json(s),
    }


def _check_diameter(params, geom, args):
    kp = params.kneser
    s = rank2_summary(kneser_neighborhood_geometry(kp))
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


def cmd_verify(args) -> int:
    try:
        params = _geometry_params(args)
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
        ok, details = _CHECKS[name](params, geom, args)
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
    p_verify.add_argument(
        "--assume-transitive",
        action="store_true",
        help="locally-x: check one vertex per verified orbit instead of all",
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
