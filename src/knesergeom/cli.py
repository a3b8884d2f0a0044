"""Command-line interface: build geometries, verify their properties,
run locally-X checks on graph6 files.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 I/O error (an input file that cannot be read, stdout closed, or a write
failing partway).  Every result goes through one writer to stdout (or
--out), a piece at a time as it is made, so build never holds a whole
export; diagnostics go to stderr.  Certificates are JSON with sorted keys
and fixed element order, so a given invocation is byte-reproducible.

The command line is read by getopt from one table, _COMMANDS.  Neither
argparse nor json is imported: _dump lays out JSON as json.dumps would.
"""

from __future__ import annotations

import functools
import getopt
import math
import sys
from itertools import chain, combinations
from types import SimpleNamespace

from . import __version__
from .graphs import (
    Graph6Error,
    _upper_rows,
    graph6_decode,
    graph6_pieces,
    shortest_odd_cycle,
    walk_metrics_from,
)
from .group_action import (
    adjacent_transpositions,
    factor_is_vertex_transitive,
    permutation_group_order,
    symmetry_witness,
)
from .incidence import (
    NEITHER,
    _rank1_residue_sizes,
    buekenhout_diagram,
    diagram_to_dot,
    diagram_to_json,
    is_geometry,
    is_residually_connected,
    satisfies_ip2,
    summary_to_json,
    system_to_json,
)
from .kneser import (
    neighborhood_summary,
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

# json's escapes of the ASCII characters it does not print as they are
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(32), 127)} | {
    8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\"}


def _json(obj, pad) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) lays it out, pad the
    newline and indent of its line.  A dict with str keys, list, tuple, ASCII
    str, int, bool or None, of exactly that type; any other, which json might
    write otherwise, raises TypeError."""
    t = type(obj)
    if t is str and obj.isascii():
        return f'"{obj.translate(_ESCAPES)}"'
    if t is int:
        return str(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if t is dict and all(type(key) is str and key.isascii() for key in obj):
        items = [f'"{key.translate(_ESCAPES)}": {_json(obj[key], inner)}' for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if t is list or t is tuple:
        items = [_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"a result holds no {t.__name__} value: {obj!r}")


def _dump(obj) -> str:
    return _json(obj, "\n") + "\n"


def _write(output, out_path) -> int:
    """Write output, a str, bytes or an iterable of byte pieces, to out_path
    or stdout, each piece as it comes; exit 3 if it cannot be written."""
    if isinstance(output, (str, bytes)):
        output = (output if isinstance(output, bytes) else output.encode(),)
    try:
        if out_path is not None:
            with open(out_path, "wb") as fh:
                fh.writelines(output)
            return EXIT_OK
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.writelines(output)
        else:  # captured/redirected text stream
            sys.stdout.writelines(p.decode("utf-8", errors="replace") for p in output)
        sys.stdout.flush()
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
        return _write(chain(graph6_pieces(geom.incidence_system().graph), (b"\n",)), args.out)
    if args.format == "dot":
        diagram = buekenhout_diagram(geom.incidence_system())
        return _write(diagram_to_dot(diagram), args.out)
    sys_ = geom.incidence_system()
    doc = {
        "schema": "geometry/1",
        "params": {"n": params.n, "k": params.k, "r": params.r},
        "geometry": dict(system_to_json(sys_), incidences=[]),
    }
    return _write(_with_incidences(_dump(doc), sys_.graph), args.out)


# an incidence pair as _dump lays it out, with the comma before it, cut in two
_PAIR_HEAD, _PAIR_TAIL = b",\n      [\n        %d,\n        ", b"%d\n      ]"


def _with_incidences(text, g):
    """text, a dumped geometry document, with its empty incidence list filled
    by g's edges u < v (a geometry has one), row by row, as _dump would."""
    head, tail = text.encode().split(b'"incidences": []')
    rows = _upper_rows(g, [_PAIR_TAIL % v for v in range(g.n)], _PAIR_HEAD)
    yield head + b'"incidences": [' + next(rows)[1:]  # the first pair without its comma
    yield from rows
    yield b"\n    ]" + tail


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _Run:
    """One verify run: params, the geometry built from them, and the facts
    that several checks share, each computed on first use and dropped with
    the run."""

    def __init__(self, params):
        self.params, self.geom = params, build_geometry(params)

    @functools.cached_property
    def witness(self):
        """symmetry_witness of the ground set's adjacent transpositions,
        which every check that reads it, the residue checks too, shares."""
        return symmetry_witness(self.geom, adjacent_transpositions(self.params.ground_size))

    @functools.cached_property
    def kneser(self):
        """The rank-2 KneserGeometry of (n, k), whose factor is KG(n, k) on
        its subsets: geom itself at r = 2, so a rank-2 verify builds KG once."""
        p = self.params
        return self.geom if p.r == 2 else build_geometry(GeometryParams(p.n, p.k, 2))

    @functools.cached_property
    def walks(self):
        """The odd girth of KG(n,k) and the eccentricities of K_2 x KG, shared
        by the odd-girth, gonality and diameter checks: the factor is proved
        vertex-transitive on its subset masks, so vertex 0's walk sets decide
        every vertex.  A failed proof raises, so no certificate is written
        from one vertex of a factor that is not known to be transitive."""
        factor = self.kneser.factor
        if not factor_is_vertex_transitive(self.kneser):
            raise RuntimeError("KG(n,k) failed its vertex-transitivity check")
        odd, ecc = walk_metrics_from(factor, 0)
        return odd, [ecc] * factor.n

    @functools.cached_property
    def summary(self):
        """The rank-2 summary of the neighborhood geometry of KG(n,k), with its
        diameters from the shared walk metrics, which hold the factor's proof
        of vertex-transitivity, so vertex 0 stands for every vertex in the
        4-cycle scan and girth search too; shared by the gonality, diameter
        and rank-2 diagram and ip2 checks."""
        return neighborhood_summary(self.kneser.factor, self.walks[1], transitive=True)


def _check_geometry(run):
    ok, witness = is_geometry(run.geom.incidence_system(), run.witness)
    details = {"elements": run.geom.n_elements, "per_type": run.params.per_type}
    if witness is not None:
        details["witness_flag"] = list(witness)
    return ok, details


def _check_residual_connectivity(run):
    ok, failing = is_residually_connected(run.geom.incidence_system(), run.witness)
    details = {}
    if failing is not None:
        details["failing_flag"] = list(failing)
    return ok, details


def _check_thickness(run):
    """Thick iff every rank-1 residue has at least three elements; reports
    the smallest size found."""
    sizes = _rank1_residue_sizes(run.geom.incidence_system(), run.witness)
    smallest = min(size for _, size in sizes)
    thick = smallest >= 3
    return thick, {"rank1_residue_size": smallest, "thick": thick}


def _check_diagram(run):
    params, witness = run.params, run.witness
    # first residues stand for all once the type sets of r - 1 types are covered
    certified = witness is not None and witness.covered >= params.r - 1
    # at r = 2 the one pair's only residue is the whole geometry, the
    # typed_copies of KG(n,k), whose summary the rank-2 checks share
    known = {(0, 1): run.summary} if params.r == 2 else None
    computed = buekenhout_diagram(run.geom.incidence_system(), known)
    predicted = predicted_diagram(params)
    details = {
        "computed": diagram_to_json(computed),
        "predicted": diagram_to_json(predicted),
        "order_closed_form": "C(n-k,k)-1",
    }
    if not certified:
        details["uniformity_certified"] = False
    return certified and computed == predicted, details


def _check_ip2(run):
    params = run.params
    if params.r == 2:  # the one rank-2 residue, of the empty flag, is the shared summary's
        ok = run.summary.classification != NEITHER
        pair, flag = (None, None) if ok else ((0, 1), ())
    else:
        ok, pair, flag = satisfies_ip2(run.geom.incidence_system(), run.witness)
    details = {"closed_form_predicts": params.n == 2 * params.k + 1}
    if pair is not None:
        details["failing_pair"] = list(pair)
        details["failing_flag"] = list(flag)
    return ok, details


def _check_flag_transitivity(run):
    params, witness = run.params, run.witness
    gens = adjacent_transpositions(params.ground_size)
    if witness is None:
        return False, {"generators_checked": len(gens), "automorphisms": False}
    covered, total = witness.covered, chamber_count(params)
    # with every level full, the chambers number the product of the orbits
    orbit = math.prod(size for size, _ in witness.levels)
    transitive = orbit == total and covered == params.r
    details = {
        "orbit_size": orbit,
        "total": total,
        "transitive": transitive,
        "generators_checked": len(gens),
        "flag_orbit_counts": {
            ",".join(map(str, J)): 1 if size <= covered else None
            for size in range(1, params.r + 1) for J in combinations(range(params.r), size)
        },
        # the witness's adjacent type swaps are block maps of its typed rows
        "type_swaps_valid": True,
        "verified_subgroup_order": math.factorial(params.ground_size)
        * math.factorial(params.r),
        "aut_lower_bound_only": True,
        "point_group_order": permutation_group_order(gens),
    }
    if covered < params.r:
        # the first type set with a level not full is the prefix 0..covered
        keys, gap = ("types", "level", "orbit_size", "candidates"), witness.levels[covered]
        details["uncovered_level"] = dict(zip(keys, (list(range(covered + 1)), covered, *gap)))
    return transitive, details


def _check_locally_x(run):
    if run.params.r < 3:
        return True, {"skipped": "rank 2: rank-1 residues are edgeless"}
    g, witness = run.geom.incidence_system().graph, run.witness
    report = is_locally_x(g, residue_reference_graph(run.geom), witness or ())
    return report.ok, report.to_json()


def _check_odd_girth(run):
    predicted = predicted_odd_girth(run.params.kneser)
    computed = run.walks[0]
    details = {"predicted": predicted, "computed": computed if computed != math.inf else "inf"}
    if computed != predicted:
        details["witness_cycle"] = shortest_odd_cycle(run.kneser.factor)
    return computed == predicted, details


def _check_gonality(run):
    s, predicted = run.summary, predicted_gonality(run.params.kneser)
    return s.gonality == predicted, {"predicted": predicted, "summary": summary_to_json(s)}


def _check_diameter(run):
    s, predicted = run.summary, predicted_diameter(run.params.kneser)
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
    if "locally-x" in args.check and params.r < 3:
        print("error: locally-x verification needs r >= 3", file=sys.stderr)
        return EXIT_USAGE
    run = _Run(params)
    checks = []
    all_ok = True
    for name in CHECK_NAMES:
        if name not in selected:
            continue
        ok, details = _CHECKS[name](run)
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

USAGE = f"""\
usage: knesergeom build --n N --k K --r R [--format json|graph6|dot] [--out F]
       knesergeom verify --n N --k K --r R [--all | --check NAME ...] [--out F]
       knesergeom locally-x GRAPH REFERENCE [--out F]
       knesergeom --version | --help

Construct and certify Kneser-graph incidence geometries.  build exports one as
JSON (the default), its incidence graph as graph6 or its diagram as DOT; verify
certifies each check named by --check, or every check with --all or none named;
locally-x checks the graph in graph6 file GRAPH against the one in REFERENCE.

  --n, --k, --r  ground size n > 2k, subset size k >= 1, rank r >= 2
  --out F        write the output to file F instead of stdout
  --check NAME   {", ".join(CHECK_NAMES[:5])},
                 {", ".join(CHECK_NAMES[5:])}

Options may be shortened to a unique prefix, and take --opt V or --opt=V."""

# command -> (handler, its long options as getopt takes them, its positionals)
_COMMANDS = {
    "build": (cmd_build, ["n=", "k=", "r=", "out=", "format="], ()),
    "verify": (cmd_verify, ["n=", "k=", "r=", "out=", "all", "check="], ()),
    "locally-x": (cmd_locally_x, ["out="], ("graph", "reference")),
}
_CHOICES = {"--format": ["json", "graph6", "dot"], "--check": CHECK_NAMES}


def _usage_error(message) -> int:
    print(USAGE.partition("\n\n")[0], f"knesergeom: error: {message}", sep="\n", file=sys.stderr)
    return EXIT_USAGE


def _invalid_choice(name, value, choices) -> int:
    listed = ", ".join(map(repr, choices))
    return _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _options_anywhere(args, longopts):
    """(options, positionals) of args, options read wherever they stand, not
    only up to the first positional as getopt.getopt reads them (and
    getopt.gnu_getopt under POSIXLY_CORRECT); all after "--" are positionals."""
    cut = args.index("--") if "--" in args else len(args)
    opts, positionals, rest = [], [], args[:cut]
    while rest:
        found, rest = getopt.getopt(rest, "h", longopts)
        opts, positionals, rest = opts + found, positionals + rest[:1], rest[1:]
    return opts, positionals + args[cut + 1 :]


def _parse(argv):
    """(handler, args) of argv, or the exit code once argv has asked for the
    help or the version, or has failed as a command line."""
    try:
        opts, rest = getopt.getopt(argv, "h", ["help", "version"])
        if opts:  # the first of them is acted on
            print(__version__ if opts[0][0] == "--version" else USAGE)
            return EXIT_OK
        if not rest:
            return _usage_error("the following arguments are required: command")
        if rest[0] not in _COMMANDS:
            return _invalid_choice("command", rest[0], _COMMANDS)
        func, longopts, positionals = _COMMANDS[rest[0]]
        opts, rest = _options_anywhere(rest[1:], [*longopts, "help"])
    except getopt.GetoptError as exc:
        return _usage_error(exc.msg)
    args = {"out": None, "format": "json", "all": False, "check": []}
    for opt, value in opts:
        if opt in ("-h", "--help"):
            print(USAGE)
            return EXIT_OK
        if opt in ("--n", "--k", "--r"):
            try:
                value = int(value)
            except ValueError:
                return _usage_error(f"argument {opt}: invalid int value: {value!r}")
        elif opt in _CHOICES and value not in _CHOICES[opt]:
            return _invalid_choice(opt, value, _CHOICES[opt])
        if opt == "--check":
            value = [*args["check"], value]
        args[opt[2:]] = True if opt == "--all" else value
    missing = [f"--{o}" for o in "nkr" if f"{o}=" in longopts and o not in args]
    missing += positionals[len(rest):]
    if missing:
        return _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if len(rest) > len(positionals):
        return _usage_error(f"unrecognized arguments: {' '.join(rest[len(positionals):])}")
    args.update(zip(positionals, rest))
    return func, SimpleNamespace(**args)


def main(argv=None) -> int:
    parsed = _parse(sys.argv[1:] if argv is None else argv)
    return parsed if isinstance(parsed, int) else parsed[0](parsed[1])


def entry():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
