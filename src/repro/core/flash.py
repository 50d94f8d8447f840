"""The FLASH facade: one object tying protocol, datapath and cost models.

This is the library's primary entry point::

    from repro.core import Flash

    flash = Flash()                         # paper-default configuration
    result = flash.private_conv2d(x, w, shape, rng)   # encrypted HConv
    estimate = flash.estimate_layer(shape)  # energy / latency / sparsity
    dse = flash.explore(shape, budget=100)  # per-layer Pareto search
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import FlashConfig
from repro.dse.explore import LayerDseResult, explore_layer
from repro.encoding.conv_encoding import ConvShape
from repro.encoding.linear_encoding import LinearShape
from repro.hw.accelerator import ChamModel, FlashAccelerator
from repro.hw.energy import hconv_energy_pj
from repro.hw.workload import (
    LayerWorkload,
    conv_layer_workload,
    linear_layer_workload,
)
from repro.protocol.hybrid import (
    HybridConvProtocol,
    HybridLinearProtocol,
    ProtocolResult,
    make_session,
)
from repro.runtime import PlanCache


@dataclass
class LayerEstimate:
    """Cost estimate of one layer on FLASH vs the NTT baseline."""

    workload: LayerWorkload
    flash_latency_s: float
    cham_latency_s: float
    flash_energy_pj: Dict[str, float]

    @property
    def speedup(self) -> float:
        if self.flash_latency_s == 0:
            return float("inf")
        return self.cham_latency_s / self.flash_latency_s

    @property
    def sparsity_saving(self) -> float:
        return self.workload.weight_sparsity_saving


class Flash:
    """High-level FLASH system object.

    Args:
        config: a :class:`FlashConfig`; the paper's default build
            (N=4096, 27-bit datapath, k=5 twiddles, 60x4 approximate BUs)
            when omitted.
    """

    def __init__(self, config: Optional[FlashConfig] = None):
        self.config = config or FlashConfig()
        self.accelerator = FlashAccelerator(self.config.design)
        self._cham = ChamModel(n=self.config.n)
        self._session = None
        self._batched_backends: Dict = {}
        # One transform pipeline per (ring degree, weight config), shared
        # by the flash and sparse backends.
        self._pipelines = PlanCache(max_entries=16)
        self._cluster_executors: Dict = {}

    def close(self) -> None:
        """Shut down any cluster worker pools this facade spawned."""
        for executor in self._cluster_executors.values():
            executor.close()
        self._cluster_executors.clear()
        self._batched_backends.clear()
        self._pipelines.clear()

    def __enter__(self) -> "Flash":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Private inference (actual cryptography)
    # ------------------------------------------------------------------

    def session(self, rng: np.random.Generator):
        """Lazily created key material, shared across layer evaluations."""
        if self._session is None:
            self._session = make_session(self.config.params, rng)
        return self._session

    def _cluster_executor(self, cluster):
        """Resolve the ``cluster=`` argument of :meth:`private_conv2d`.

        An ``int`` is a pool width: the facade builds (and caches, so the
        pool and its workers' warm plan caches persist across layer calls)
        a :class:`repro.cluster.ClusterExecutor`.  Anything else is
        treated as a ready executor owned by the caller.
        """
        if cluster is None:
            return None
        if isinstance(cluster, int):
            if cluster < 1:
                raise ValueError(f"cluster width must be >= 1, got {cluster}")
            if cluster not in self._cluster_executors:
                from repro.cluster import make_executor

                self._cluster_executors[cluster] = make_executor(
                    workers=cluster
                )
            return self._cluster_executors[cluster]
        return cluster

    def _batched_backend(
        self, kind: str, max_workers: Optional[int], cluster=None
    ):
        """Backend instance, cached so plan/spectrum caches persist across
        layer calls (the whole point of the runtime's PlanCache)."""
        executor = self._cluster_executor(cluster)
        key = (kind, max_workers, executor)
        if key not in self._batched_backends:
            if kind == "exact":
                backend = self.config.exact_backend(
                    max_workers, cluster=executor
                )
            else:
                factory = (
                    self.config.sparse_backend if kind == "sparse"
                    else self.config.flash_backend
                )
                backend = factory(
                    max_workers, cluster=executor, plan_cache=self._pipelines
                )
            self._batched_backends[key] = backend
        return self._batched_backends[key]

    def private_conv2d(
        self,
        x: np.ndarray,
        w: np.ndarray,
        shape: ConvShape,
        rng: np.random.Generator,
        exact: bool = False,
        batch: bool = False,
        sparse: bool = False,
        max_workers: Optional[int] = None,
        cluster=None,
        transport=None,
        guard=None,
    ):
        """Run one private convolution through the hybrid protocol.

        Every call runs on the facade's cached backend for its mode
        (:mod:`repro.runtime`): plans and weight spectra persist across
        calls and all transform work runs in vectorized batch passes; a
        single input is a batch of one.

        Args:
            x: clear activation (secret-shared internally).  With
                ``batch=True`` this is a ``B x C x H x W`` stack and one
                :class:`ProtocolResult` is returned per item.
            w: server weights.
            shape: convolution geometry.
            rng: randomness.
            exact: use the exact NTT backend instead of the approximate
                FFT (the baseline accelerators' computation).
            batch: ``x`` is a batch; returns ``List[ProtocolResult]``.
            sparse: run the weight transforms through compiled sparse
                plans (:class:`repro.runtime.SparseBatchedFftBackend`) --
                the paper's skipping/merging dataflow in the hot path.
                Works with or without ``batch``; incompatible with
                ``exact``.  Realized-vs-model mult reduction lands in the
                result stats.
            max_workers: worker-pool width for the runtime backend
                (``None`` keeps the deterministic serial fallback).
            cluster: shard the batched products across supervised worker
                *processes* (:mod:`repro.cluster`): an ``int`` pool width
                (the facade owns the pool; call :meth:`close` when done)
                or a ready :class:`repro.cluster.ClusterExecutor`.
                Bit-identical to the in-process path, with crash recovery
                and the supervision counters in the result stats.
            transport: optional :class:`repro.faults.ResilientSession`
                carrying the ciphertext traffic over its checksummed
                channel (retry/timeout counts land in the result stats).
            guard: optional :class:`repro.faults.BudgetGuard` degrading
                the approximate path when the noise budget runs out.
        """
        if sparse and exact:
            raise ValueError("sparse=True is incompatible with exact=True")
        kind = "exact" if exact else ("sparse" if sparse else "flash")
        protocol = HybridConvProtocol(
            self.config.params, shape,
            self._batched_backend(kind, max_workers, cluster),
            transport=transport, guard=guard,
        )
        if batch:
            return protocol.run_batch(x, w, rng, session=self.session(rng))
        return protocol.run(x, w, rng, session=self.session(rng))

    def private_linear(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        exact: bool = False,
        transport=None,
        guard=None,
    ) -> ProtocolResult:
        """Run one private fully-connected layer (``transport`` and
        ``guard`` as on :meth:`private_conv2d`)."""
        shape = LinearShape(in_features=w.shape[1], out_features=w.shape[0])
        protocol = HybridLinearProtocol(
            self.config.params, shape,
            self._batched_backend("exact" if exact else "flash", None),
            transport=transport, guard=guard,
        )
        return protocol.run(x, w, rng, session=self.session(rng))

    # ------------------------------------------------------------------
    # Modeling
    # ------------------------------------------------------------------

    def estimate_layer(self, shape) -> LayerEstimate:
        """Workload + latency + energy estimate for one layer shape."""
        if isinstance(shape, ConvShape):
            workload = conv_layer_workload(shape, self.config.n)
        elif isinstance(shape, LinearShape):
            workload = linear_layer_workload(shape, self.config.n)
        else:
            raise TypeError(f"unsupported shape type {type(shape).__name__}")
        return LayerEstimate(
            workload=workload,
            flash_latency_s=self.accelerator.layer_latency_s(workload),
            cham_latency_s=self._cham.layer_latency_s(workload),
            flash_energy_pj=hconv_energy_pj(
                workload,
                "flash",
                dw=self.config.data_width,
                k=self.config.twiddle_k,
            ),
        )

    def explore(
        self, shape: ConvShape, budget: int = 60, seed: int = 0
    ) -> LayerDseResult:
        """Per-layer accuracy/power design-space exploration (Figure 10)."""
        return explore_layer(
            shape, n=self.config.n, budget=budget, seed=seed
        )

    def describe(self) -> str:
        return self.config.describe()
