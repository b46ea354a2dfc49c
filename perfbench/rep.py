"""One benchmark repetition in a fresh process.

    python -m perfbench.rep --workload NAME --seed N --trace 0|1 --t0 T

``--t0`` is the launcher's ``time.time()`` just before it started this
process, so set-up time counts interpreter start and imports.  The
repetition's record (:meth:`perfbench.workloads.Repetition.to_jsonable`)
is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Lowest scheduling priority; nothing else in the VM competes with a
#: repetition except the sampler, so this does not slow it otherwise.
NICENESS = 19


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    # Below the launcher's host-speed sampler (perfbench.host), whose
    # bursts then preempt this repetition and time the host alone rather
    # than a share of a CPU this repetition holds.  Children (the server,
    # the pool) inherit the niceness.
    os.nice(NICENESS)

    from perfbench import workloads

    workdir = Path(".perfbench-work") / f"rep-{os.getpid()}"
    rep = workloads.run(args.workload, args.seed, bool(args.trace),
                        args.t0, workdir.resolve())
    try:
        workdir.parent.rmdir()
    except OSError:
        pass                          # not empty: another run's scratch
    sys.stdout.write(json.dumps(rep.to_jsonable()) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
