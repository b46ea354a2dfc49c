"""``repro serve`` with the server-side probes of the traced run.

    python -m perfbench.serve_traced SPANS_PATH serve [repro serve flags]

Runs the ``repro`` command line in this process with
:func:`perfbench.probes.serve_probes` installed.  ``SIGUSR1`` discards
the spans folded so far (the client sends it after its warm-up).  Once
the server has drained and returned, the span totals are written to
``SPANS_PATH`` as JSON.
"""

from __future__ import annotations

import json
import signal
import sys

from perfbench.probes import SpanTotals, serve_probes
from repro.cli import main as repro_main


def main(argv: list[str] | None = None) -> int:
    spans_path, *cli_args = sys.argv[1:] if argv is None else argv
    totals = SpanTotals()
    signal.signal(signal.SIGUSR1, lambda signum, frame: totals.reset())
    with serve_probes(totals):
        code = repro_main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(totals.to_jsonable(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
