"""Run one knesergeom CLI invocation with a span around every call into the
layers the benchmark reports, then write the spans as JSON lines.

    python bench/traced_cli.py SPANS_FILE RSS_FILE OP_ID CLI_ARG...

The wrappers are installed from here by rebinding each function wherever a
knesergeom module looks it up (``knesergeom.locally_x.are_isomorphic`` as
well as ``knesergeom.isomorphism.are_isomorphic``); the package itself is
not modified.  Per-element functions such as ``act_on_element`` and
``colex_rank`` are left unwrapped, because a span per element would cost
more than the work it measures.  Spans and counters are kept in memory and
written once, when the invocation ends, and the peak RSS is written to
RSS_FILE as bench/peak_rss.py does.  The exit code and stdout are those of
the CLI.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import peak_rss

# (module, attribute path) of every traced function; the span is named
# "<module>.<last attribute>".
SPANS = [
    ("cli", "main"),
    ("subsets", "enumerate_k_subsets"),
    ("kneser_geometry", "build_geometry"),
    ("kneser_geometry", "KneserGeometry.incidence_system"),
    ("incidence", "incidence_graph"),
    ("graphs", "graph6_encode"),
    ("graphs", "graph6_decode"),
    ("incidence", "is_geometry"),
    ("incidence", "is_residually_connected"),
    ("incidence", "is_thick"),
    ("incidence", "satisfies_ip2"),
    ("incidence", "buekenhout_diagram"),
    ("incidence", "rank2_summary"),
    ("kneser", "kneser_graph"),
    ("kneser", "kneser_neighborhood_geometry"),
    ("graphs", "odd_girth"),
    ("graphs", "girth"),
    ("graphs", "eccentricities"),
    ("group_action", "is_type_preserving_automorphism"),
    ("group_action", "chamber_orbit_size"),
    ("group_action", "flag_orbit_count"),
    ("group_action", "type_swap_map"),
    ("group_action", "permutation_group_order"),
    ("locally_x", "is_locally_x"),
    ("locally_x", "residue_reference_graph"),
    ("isomorphism", "wl_signature"),
    ("isomorphism", "are_isomorphic"),
    ("isomorphism", "color_refine"),
]

# span name -> (counter name, value read from the call's return value)
COUNTERS = {
    "group_action.chamber_orbit_size": ("group_action.chamber_orbit.size", lambda size: size),
    "locally_x.is_locally_x": ("locally_x.vertices_checked", lambda report: report.total),
}


def span_names() -> list:
    return [f"{module}.{path.rpartition('.')[2]}" for module, path in SPANS]


class Recorder:
    """Spans as (name, start, end, parent index) in call order, and counter
    totals.  Calls are assumed to come from one thread; the CLI's
    per-vertex thread pool is only used with --threads > 1."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; a span would time only its creation")
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                key, value = counter
                self.counters[key] = self.counters.get(key, 0) + value(result)
            return result

        return traced

    def dump(self, path, op_id):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for key, value in sorted(self.counters.items()):
                fh.write(json.dumps({"op": op_id, "counter": key, "value": value}) + "\n")


def install(recorder: Recorder) -> None:
    import knesergeom.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for name, m in sys.modules.items()
               if name == "knesergeom" or name.startswith("knesergeom.")]
    for (module, path), name in zip(SPANS, span_names()):
        owner = sys.modules[f"knesergeom.{module}"]
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        traced = recorder.wrap(name, original)
        if owners:  # a method: rebinding it on its class reaches every caller
            setattr(owner, attr, traced)
            continue
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                setattr(m, key, traced)


def main() -> int:
    spans_path, rss_path, op_id, *cli_args = sys.argv[1:]
    peak_rss.report_at_exit(rss_path)
    recorder = Recorder()
    install(recorder)
    import knesergeom.cli

    try:
        return knesergeom.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, int(op_id))


if __name__ == "__main__":
    sys.exit(main())
