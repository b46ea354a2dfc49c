"""Vectorized batch evaluation of design specs (ROADMAP item 3).

Public surface:

* :class:`~repro.batch.kernel.BatchKernel` — batched ``evaluate_spec``
  with delta-evaluation between neighboring sweep points, running the
  simulator's own per-layer cost model (:mod:`repro.perf.layer_cost`)
  on numpy arrays.
"""

from repro.batch.kernel import BatchKernel
from repro.batch.pack import DesignRow, UnsupportedSpec, pack_point, spec_call_key

__all__ = [
    "BatchKernel",
    "DesignRow",
    "UnsupportedSpec",
    "pack_point",
    "spec_call_key",
]
