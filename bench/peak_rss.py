"""Run a module as ``python -m`` would, and write the process's own peak
RSS when it exits.

    python bench/peak_rss.py OUT_FILE MODULE ARG...

The peak is VmHWM from /proc/self/status, in kB.  wait4's ru_maxrss cannot
be used for a child: the kernel carries the peak RSS of the process that
started it across exec, so a child never reads below the benchmark's own
peak.  VmHWM covers only the child's own address space.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def vm_hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def report_at_exit(path: str) -> None:
    def write():
        with open(path, "w") as fh:
            fh.write(f"{vm_hwm_kb()}\n")

    atexit.register(write)


if __name__ == "__main__":
    out_file, module, *args = sys.argv[1:]
    report_at_exit(out_file)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)
