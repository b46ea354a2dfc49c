"""The host: its speed, and the processes and memory of a repetition.

The benchmark runs on shared machines whose speed changes by up to 2x
from one second to the next and drifts from one minute to the next (on
the tuning VM the two CPUs differed by up to 1.7x with no CPU steal
recorded, so other tenants shared their physical cores).  Such a change
moves the program and a fixed reference computation alike, so the
runner divides it out.  While a run's repetitions execute,
:class:`SpeedSampler` times one short burst of the reference computation
every :data:`PERIOD_S`, on each CPU in turn; the run's times are scaled
by :data:`REFERENCE_S` over the mean burst time, which expresses them at
the speed of the host the constant was measured on.  Sampling during the
repetitions, rather than between them, sees the host in the seconds the
program ran.  The reference is pure-Python work of the kind the program
does (dicts, canonical JSON, hashing, float arithmetic) and never calls
the program, so no change to the program can move it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import threading
import time
from pathlib import Path

#: A typical burst time on both CPUs of the otherwise idle 2-vCPU x86-64
#: VM (CPython 3.11) the benchmark was tuned on; measured there between
#: 6 and 10 ms.  It only fixes the scale of the rescaled figures.
REFERENCE_S = 0.0080

#: Seconds between bursts.  A burst takes about 8 ms, so sampling costs
#: about 3% of one CPU, the same share on every run.
PERIOD_S = 0.25


def burst() -> int:
    """One burst of the reference computation."""
    table: dict[tuple[int, str], float] = {}
    total = 0
    for i in range(1200):
        name = f"n{i % 13}"
        record = {"capacity_mb": i / 100.0, "tier_pairs": 1 << (i % 4),
                  "network": name, "precision_bits": 4 + 4 * (i & 1)}
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        total += hashlib.sha256(text.encode("utf-8")).digest()[0]
        key = (i % 97, name)
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0) * 1e-3
    return total + len(table)


class SpeedSampler(threading.Thread):
    """Appends the wall time of one :func:`burst` to ``samples`` every
    :data:`PERIOD_S`, pinned to each CPU in turn, from entry until exit.

    The CPUs of one virtual machine can differ in speed, so every CPU is
    sampled.  Only this thread is pinned: processes the main thread
    starts keep its CPU set.  At least one sample is always taken.

    Repetitions run at the lowest priority (:mod:`perfbench.rep`), so a
    burst preempts one on its own CPU.  A busy other CPU still slows a
    burst by 15-40% on the tuning VM (the CPUs share hardware), so a
    change in how many CPUs the program keeps busy moves the rescaled
    figures by up to that much in its favour.
    """

    def __init__(self, samples: list[float]) -> None:
        super().__init__(name="perfbench-host-speed", daemon=True)
        self.samples = samples
        self._halt = threading.Event()

    def run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for turn in itertools.count():
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            start = time.perf_counter()
            burst()
            self.samples.append(time.perf_counter() - start)
            if self._halt.wait(PERIOD_S):
                return

    def __enter__(self) -> SpeedSampler:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._halt.set()
        self.join()


def process_group(group: int) -> list[int]:
    """Pids of the live (non-zombie) processes in process group ``group``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue                      # exited while we looked
        if int(fields[2]) == group and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB; 0 if gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) / 1024.0 if match else 0.0
