"""Benchmark of the knesergeom command-line certifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--self-test]

Run from the root of a checkout.  One client drives the CLI in a closed
loop: each op is one ``python -m knesergeom.cli ...`` in a fresh process
(run through bench/peak_rss.py, which records its peak RSS),
started only after the previous one has ended, so no cache survives from
one op to the next, as for a user running ``knesergeom verify``.  Ops are
started for S seconds, each with a time budget after which it is killed and
counted as failed.  Every op's stdout is checked against the workload's
oracle (bench/workloads.py) and its sha256 must equal that of every other
op of the workload and seed, in this run and in earlier runs in the same
checkout.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones: ops_per_s, op_s_p50, op_cpu_s_p50 (child user+sys CPU
from wait4), peak_rss_mb (median of the child's own VmHWM) and setup_s.
With --trace 1 every second op runs under bench/traced_cli.py and the
metrics are per layer: seconds, self seconds and calls per op of each
traced function, a few counters, and the tracing overhead.  Per-op records,
and with --trace 1 every span, are written under .bench_work/.

Every time in the JSON metrics is in seconds at a reference speed: the
reference task of bench/calibrate.py runs before and after each op and
each group of set-ups, and the times measured between two of its runs are
scaled by how fast it ran (see that file).  The raw seconds are printed
too and kept in ops.jsonl.

--self-test raises one expected value by 1, so every op must fail its
check; the run exits 0 only if all of them did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import calibrate
import traced_cli
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 15
SETUPS_PER_CALIBRATION = 5
# Seconds after which an op is killed and counted as failed: about ten
# times the longest op.
OP_BUDGET_S = 30.0
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Op:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    wall_scale: float  # seconds -> seconds at the reference speed
    cpu_scale: float
    rss_mb: Optional[float]  # None when the child did not exit by itself
    exit_code: Optional[int]  # None when killed at the time budget
    sha256: Optional[str]
    failure: Optional[str] = None


def run_child(cmd, env, cwd, out_path: Path, budget_s: float):
    """Run cmd with stdout to out_path until it exits or budget_s passes.

    Returns (wall seconds, user+sys CPU seconds of the child, exit code or
    None if it was killed at the budget).  The child is reaped with wait4
    so that its own CPU time is read, not the benchmark's.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = bool(select.select([pidfd], [], [], budget_s)[0])
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode if finished else None


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # Let the package's bytecode be cached after the warm-up, as it is for
    # an installed package, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_hashes(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def save_hashes(path: Path, hashes: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def judge(ops, outputs, workload, expect, reference):
    """Set op.failure for every op that timed out, exited with another code,
    failed the oracle or printed other bytes than the reference output.
    Each distinct output is checked once.  Returns the reference sha256:
    the given one, or else that of the first op that passed."""
    verdicts = {}
    for op in ops:
        if op.exit_code is None:
            op.failure = f"killed at the {OP_BUDGET_S:g} s time budget"
            continue
        if op.exit_code != workload.exit_code:
            op.failure = f"exit code {op.exit_code}, expected {workload.exit_code}"
            continue
        if op.sha256 not in verdicts:
            try:
                workload.check(outputs[op.sha256], expect)
                verdicts[op.sha256] = None
            except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[op.sha256] = f"output check: {type(exc).__name__}: {exc}"
        op.failure = verdicts[op.sha256]
        if op.failure is None:
            if reference is None:
                reference = op.sha256
            elif op.sha256 != reference:
                op.failure = f"stdout sha256 {op.sha256} differs from {reference}"
    return reference


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(ops, setup_s) -> dict:
    """Times at the reference speed; ops_per_s is passed ops per second of
    their summed wall time."""
    passed = [op for op in ops if op.failure is None] or ops
    op_time = sum(op.wall_s * op.wall_scale for op in passed)
    return {
        "ops_per_s": sum(op.failure is None for op in ops) / op_time,
        "op_s_p50": median_or_zero(op.wall_s * op.wall_scale for op in passed),
        "op_cpu_s_p50": median_or_zero(op.cpu_s * op.cpu_scale for op in passed),
        "peak_rss_mb": median_or_zero(op.rss_mb for op in passed),
        "setup_s": setup_s,
    }


def layer_metric_units() -> dict:
    units = {}
    for name in traced_cli.span_names():
        units[f"{name}.s"] = "s"
        units["cli.self.s" if name == "cli.main" else f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["group_action.chamber_orbit.size"] = "count"
    units["locally_x.vertices_checked"] = "count"
    units["locally_x.ir_searches_per_vertex"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def op_layer_values(records, scale) -> dict:
    """Per-layer values of one op from its span and counter records, with
    span times multiplied by scale.  A function's seconds count only its
    outermost spans; self seconds are each span's duration minus that of
    its direct children."""
    spans = [r for r in records if "name" in r]
    duration = [(r["end"] - r["start"]) * scale for r in spans]
    children = [0.0] * len(spans)
    for r, d in zip(spans, duration):
        if r["parent"] is not None:
            children[r["parent"]] += d
    values = {f"{name}.{kind}": 0 for name in traced_cli.span_names()
              for kind in ("s", "self_s", "calls")}
    for i, r in enumerate(spans):
        name = r["name"]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += duration[i] - children[i]
        ancestor = r["parent"]
        while ancestor is not None and spans[ancestor]["name"] != name:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            values[f"{name}.s"] += duration[i]
    values["cli.self.s"] = values.pop("cli.main.self_s")
    counters = {r["counter"]: r["value"] for r in records if "counter" in r}
    values["group_action.chamber_orbit.size"] = counters.get("group_action.chamber_orbit.size", 0)
    checked = counters.get("locally_x.vertices_checked", 0)
    values["locally_x.vertices_checked"] = checked
    values["locally_x.ir_searches_per_vertex"] = (
        values["isomorphism.are_isomorphic.calls"] / checked if checked else 0.0
    )
    return values


def layer_metrics(ops, spans_by_op) -> dict:
    traced = [op for op in ops if op.traced and op.failure is None]
    plain = [op for op in ops if not op.traced and op.failure is None]
    per_op = [op_layer_values(spans_by_op[op.index], op.wall_scale) for op in traced]
    metrics = {name: statistics.median_low(v[name] for v in per_op) if per_op else 0
               for name in layer_metric_units() if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(op.wall_s * op.wall_scale for op in traced)
        - statistics.median(op.wall_s * op.wall_scale for op in plain)
        if traced and plain else 0.0
    )
    return metrics


def percentile_line(walls) -> str:
    """The highest percentile of op wall time with ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return f"n={n}: no percentile has ten samples beyond it"
    ordered = sorted(walls)
    return f"n={n}: p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s (10 samples beyond)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="expect one wrong value; succeed only if every op fails")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "knesergeom" / "cli.py").is_file():
        print(f"error: {root} has no src/knesergeom/cli.py; run from the root of a "
              "knesergeom checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expect = dict(workload.expect)
    if args.self_test:
        expect[workload.wrong_key] += 1

    work_root = root / ".bench_work"
    work = work_root / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    out_path = work / "op.out"
    spans_path = work / "op.spans.jsonl"
    rss_path = work / "op.rss_kb"
    cli = [sys.executable, "-m", "knesergeom.cli"]
    plain_cmd = [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(rss_path), "knesergeom.cli"]
    traced_cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), str(rss_path)]

    # Set-up: write the inputs and start the CLI once (interpreter start and
    # package import).  The untimed first start compiles the bytecode.
    run_child(cli + ["--version"], env, root, out_path, 60)
    setups, raw_setups = [], []
    speed = calibrate.measure()
    for _ in range(SETUP_REPEATS // SETUPS_PER_CALIBRATION):
        group = []
        for _ in range(SETUPS_PER_CALIBRATION):
            start = time.perf_counter()
            cli_args = workload.prepare(args.seed, work)
            _, _, code = run_child(cli + ["--version"], env, root, out_path, 60)
            group.append(time.perf_counter() - start)
            if code != 0:
                print(f"error: knesergeom --version exited {code}", file=sys.stderr)
                return 2
        speed, before = calibrate.measure(), speed
        wall_scale, _ = calibrate.scales(before, speed)
        setups += [s * wall_scale for s in group]
        raw_setups += group

    ops, outputs, spans_by_op = [], {}, {}
    start = time.perf_counter()
    while len(ops) < 1 + args.trace or time.perf_counter() - start + ops[-1].wall_s <= args.seconds:
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        cmd = traced_cmd + [str(index)] + cli_args if traced else plain_cmd + cli_args
        spans_path.unlink(missing_ok=True)
        rss_path.unlink(missing_ok=True)
        wall, cpu, code = run_child(cmd, env, root, out_path, OP_BUDGET_S)
        speed, before = calibrate.measure(), speed
        wall_scale, cpu_scale = calibrate.scales(before, speed)
        data = out_path.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        outputs.setdefault(sha, data)
        rss = int(rss_path.read_text()) / 1024 if rss_path.exists() else None
        ops.append(Op(index, traced, wall, cpu, wall_scale, cpu_scale, rss, code,
                      sha if code is not None else None))
        if traced and spans_path.exists():
            spans_by_op[index] = [json.loads(line) for line in spans_path.open()]
    loop_s = time.perf_counter() - start

    hashes_path = work_root / "stdout_sha256.json"
    hashes = load_hashes(hashes_path)
    key = f"{workload.name} seed={args.seed}"
    reference = judge(ops, outputs, workload, expect, hashes.get(key))
    if reference is not None and key not in hashes and not args.self_test:
        hashes[key] = reference
        save_hashes(hashes_path, hashes)

    with open(work / "ops.jsonl", "w") as fh:
        for op in ops:
            fh.write(json.dumps(asdict(op)) + "\n")
    if args.trace:
        with open(work / "spans.jsonl", "w") as fh:
            for index in sorted(spans_by_op):
                for record in spans_by_op[index]:
                    fh.write(json.dumps(record) + "\n")

    failed = sum(op.failure is not None for op in ops)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          f"{' self-test' if args.self_test else ''}: {len(ops)} ops in {loop_s:.2f} s")
    print(f"  failed_frac {failed / len(ops):.4g} fraction ({failed} failed of {len(ops)} attempted)")
    for op in ops:
        if op.failure is not None:
            print(f"  op {op.index} failed: {op.failure}")
    plain = [op for op in ops if not op.traced]
    print(f"  op wall time {percentile_line([op.wall_s * op.wall_scale for op in plain])}"
          " at the reference speed")
    print(f"  raw seconds: op wall p50 {median_or_zero(op.wall_s for op in plain):.4f},"
          f" op CPU p50 {median_or_zero(op.cpu_s for op in plain):.4f},"
          f" setup p50 {statistics.median(raw_setups):.4f};"
          f" reference task {calibrate.REFERENCE_S} s,"
          f" took {median_or_zero(1 / op.wall_scale for op in ops):.3f}x that between ops")
    print(f"  stdout sha256 {reference}")
    if args.trace:
        metrics = layer_metrics(ops, spans_by_op)
        units = layer_metric_units()
    else:
        metrics = end_to_end_metrics(ops, statistics.median(setups))
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  per-op records in {work.relative_to(root) / 'ops.jsonl'}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    if args.self_test:
        return 0 if failed == len(ops) else 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
