"""A fixed pure-Python reference task that measures how fast the machine is
running right now, so that op times can be reported at a reference speed.

On a shared host the speed at which the same Python code runs drifts by
more than a third within tens of seconds, wall and CPU time alike, as other
tenants come and go.  The benchmark therefore runs this task between ops
(never while an op runs) and scales each op's times by

    REFERENCE_S / (the task's time, averaged over the runs before and after the op)

which turns them into seconds at the speed where the task takes
REFERENCE_S.  A change to knesergeom cannot move the task: it is
breadth-first search over the disjointness graph of the 4-subsets of 12
points, written here with lists, dicts and sets, the same kind of work the
CLI does, and it imports nothing from the package.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

# Seconds the task takes at the reference speed: its median on the 2-vCPU
# Intel Xeon (2.1 GHz) virtual machine, Python 3.11, where the benchmark was
# defined.  A fixed number, so the scaled times of two commits compare.
REFERENCE_S = 0.15
# Breadth-first searches per task run, about REFERENCE_S at that speed.
SEARCHES = 140


def _disjointness_graph(points: int, k: int) -> list:
    masks = [sum(1 << x for x in c) for c in itertools.combinations(range(points), k)]
    return [[j for j, b in enumerate(masks) if not a & b] for a in masks]


_ADJ = _disjointness_graph(12, 4)  # 495 vertices of degree 70


def _task() -> int:
    total = 0
    for i in range(SEARCHES):
        source = i * 37 % len(_ADJ)
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u] + 1
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = du
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


@dataclass
class Speed:
    """One run of the task: its wall and CPU seconds."""

    wall_s: float
    cpu_s: float


def measure() -> Speed:
    wall, cpu = time.perf_counter(), time.process_time()
    _task()
    return Speed(time.perf_counter() - wall, time.process_time() - cpu)


def scales(before: Speed, after: Speed) -> tuple[float, float]:
    """Factors that turn wall and CPU seconds measured between the two task
    runs into seconds at the reference speed."""
    return (2 * REFERENCE_S / (before.wall_s + after.wall_s),
            2 * REFERENCE_S / (before.cpu_s + after.cpu_s))
