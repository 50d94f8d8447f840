"""Batched HConv runtime: plan caching + vectorized batch passes.

The execution layer between the protocol and the transform kernels:

* :class:`PlanCache` -- bounded, byte-accounted LRU cache for NTT/FFT plans
  and precomputed weight spectra.
* :class:`BatchedHConvEngine` -- clear-domain batched convolution through
  the coefficient encoding (bit-identical to the per-call pipelines).
* :class:`BatchedNttBackend` / :class:`BatchedFftBackend` -- the exact
  and approximate polynomial-multiplication backends of the encrypted
  path: ``multiply_many`` batches the transforms (one pass per RNS limb).
* :class:`SparseBatchedFftBackend` -- the FLASH sparse dataflow in the hot
  path: weight transforms run compiled per-pattern skipping/merging plans
  (:class:`repro.sparse.plan.SparsePlan`), bit-identical to the per-call
  sparse oracles, with realized-vs-model mult reduction in ``last_stats``.
"""

from repro.runtime.engine import (
    BatchedFftBackend,
    BatchedHConvEngine,
    BatchedNttBackend,
    RuntimeStats,
    SparseBatchedFftBackend,
)
from repro.runtime.plan_cache import (
    PlanCache,
    approx_config_key,
    estimate_nbytes,
    value_digest,
)

__all__ = [
    "BatchedFftBackend",
    "BatchedHConvEngine",
    "BatchedNttBackend",
    "PlanCache",
    "RuntimeStats",
    "SparseBatchedFftBackend",
    "approx_config_key",
    "estimate_nbytes",
    "value_digest",
]
