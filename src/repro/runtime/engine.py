"""Batched HConv execution engine (the CPU-side runtime of the system).

Every HConv used to run one ciphertext at a time through freshly built FFT
plans.  This module stacks many polynomial pairs into 2-D arrays and runs
the NTT / approximate-FFT butterflies over the batch axis in single
vectorized numpy passes, amortizing:

* **plans** -- twiddle tables and pipelines come from a bounded
  :class:`repro.runtime.plan_cache.PlanCache`;
* **weight transforms** -- each distinct weight polynomial's spectrum is
  computed once and shared by every batch item (the Section III-B sharing
  argument, applied across the batch as well as across tiles);
* **activation transforms** -- computed once per input tile and reused by
  all output channels.

Independent RNS limbs and output-channel groups fan out across a
``concurrent.futures`` thread pool (numpy releases the GIL inside the
vectorized kernels); results are reassembled by index so ordering is
deterministic and byte-identical to the serial fallback.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    decompose_strided,
    iter_row_bands,
    pad_input,
)
from repro.faults.inject import FaultRecovery
from repro.fftcore.approx_pipeline import ApproxNegacyclic, ApproxSpectrum
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import PolyMulBackend
from repro.he.poly import RingPoly
from repro.ntt import find_ntt_primes, get_ntt
from repro.ntt.modmath import centered, from_centered, mulmod
from repro.obs import trace as obs_trace
from repro.runtime.plan_cache import PlanCache, approx_config_key

#: Float64 keeps integers exact below this; larger rounded values take the
#: slow Python-int path so results match the per-call reference exactly.
_FLOAT_EXACT = float(1 << 53)

#: Default byte budget for the bounded weight-spectrum caches.  Generous for
#: every test/benchmark workload, but finite: an unbounded cache would grow
#: without limit across a long-running inference service.
DEFAULT_SPECTRUM_CACHE_BYTES = 64 << 20


def fan_out(
    jobs: Sequence,
    fn: Callable,
    max_workers: Optional[int],
    recovery: Optional["FaultRecovery"] = None,
) -> list:
    """Run ``fn`` over ``jobs`` with deterministic result ordering.

    Serial fallback when ``max_workers`` is ``None``/``0``/``1`` or there is
    at most one job; otherwise a thread pool of ``max_workers`` threads.
    Results are collected in submission order, so the output list is
    identical to the serial path for pure ``fn``.

    With a :class:`repro.faults.inject.FaultRecovery`, a job whose first
    execution raises (a dying worker, a poisoned task) is retried once in
    the submitting thread and the fault is recorded; the kernels are pure,
    so the retried result is bit-identical.  A job that fails its retry
    too propagates -- faults are survived, real bugs are not masked.
    """
    jobs = list(jobs)
    if not jobs:
        return []

    def run_recovered(job):
        try:
            return fn(job)
        except Exception as exc:
            if recovery is None:
                raise
            recovery.record(exc)
            return fn(job)

    if not max_workers or max_workers <= 1 or len(jobs) == 1:
        return [run_recovered(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        results = []
        for job, future in zip(jobs, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                if recovery is None:
                    raise
                recovery.record(exc)
                results.append(fn(job))
        return results


def _split_groups(items: Sequence, groups: int) -> List[list]:
    """Split ``items`` into at most ``groups`` contiguous non-empty chunks."""
    items = list(items)
    groups = max(1, min(groups, len(items)))
    size = -(-len(items) // groups)
    return [items[i : i + size] for i in range(0, len(items), size)]


@dataclass
class RuntimeStats:
    """Per-run accounting: stage timings, work counts, cache behaviour.

    The ``weight_mults_*`` counters track weight-transform multiplication
    work per *requested* transform (deterministic regardless of cache
    warmth): ``realized`` is what the executed plans actually perform,
    ``dense`` is the dense-butterfly count for the same transforms, and
    ``model`` is the analytical :mod:`repro.sparse.opcount` prediction.
    """

    mode: str = "ntt"
    batch: int = 0
    products: int = 0
    workers: int = 1
    worker_faults: int = 0
    weight_transforms: int = 0
    weight_mults_realized: int = 0
    weight_mults_dense: int = 0
    weight_mults_model: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    #: supervision counters of the run when it executed on a
    #: :class:`repro.cluster.ClusterExecutor` (dispatches, worker deaths,
    #: respawns, requeues, serial fallbacks, ...); empty on in-process runs.
    cluster: Dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def realized_mult_reduction(self) -> float:
        """Fraction of dense weight-FFT mults removed by the executed plans."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_realized / self.weight_mults_dense

    @property
    def model_mult_reduction(self) -> float:
        """The :mod:`repro.sparse.opcount` prediction for the same transforms."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_model / self.weight_mults_dense

    def describe(self) -> str:
        lines = [
            f"mode={self.mode} batch={self.batch} "
            f"products={self.products} workers={self.workers}"
            + (
                f" worker_faults={self.worker_faults} (recovered serially)"
                if self.worker_faults
                else ""
            )
        ]
        for stage, seconds in sorted(
            self.stage_seconds.items(), key=lambda kv: -kv[1]
        ):
            frac = seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"  {stage:<22} {seconds * 1e3:9.2f} ms  ({frac:5.1%})")
        if self.weight_mults_dense:
            lines.append(
                f"  weight mults: {self.weight_mults_realized}"
                f"/{self.weight_mults_dense} dense "
                f"({self.realized_mult_reduction:.1%} removed; "
                f"model {self.model_mult_reduction:.1%}) over "
                f"{self.weight_transforms} transforms"
            )
        if self.cache:
            lines.append(
                "  plan cache: "
                f"{self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses "
                f"(hit rate {self.cache.get('hit_rate', 0.0):.1%}), "
                f"{self.cache.get('cached_bytes', 0) / 1024:.1f} KiB held"
            )
        if self.cluster:
            lines.append(
                "  cluster: "
                f"{self.cluster.get('workers', 0)} workers, "
                f"{self.cluster.get('dispatches', 0)} dispatches, "
                f"{self.cluster.get('recoveries', 0)} recoveries "
                f"({self.cluster.get('worker_deaths', 0)} deaths, "
                f"{self.cluster.get('hang_timeouts', 0)} hangs, "
                f"{self.cluster.get('jobs_requeued', 0)} requeued, "
                f"{self.cluster.get('serial_fallback_jobs', 0)} serial)"
            )
        return "\n".join(lines)


class _Timer:
    """Stage timer that doubles as a ``runtime.<stage>`` trace span.

    The span is a no-op singleton while tracing is disabled, so the
    stage-accounting hot path stays as cheap as before.
    """

    def __init__(self, stats: RuntimeStats, stage: str):
        self._stats = stats
        self._stage = stage

    def __enter__(self):
        self._span = obs_trace.tracer.span("runtime." + self._stage)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._stats.add(self._stage, time.perf_counter() - self._t0)
        self._span.end("error" if exc and exc[0] is not None else "ok")
        return False


def _round_rows_exact(rows: np.ndarray) -> np.ndarray:
    """Round a float ``(J, n)`` batch to int64, bit-compatible with the
    per-call path's ``int(round(float(v)))`` (both round half-to-even)."""
    if rows.size and float(np.max(np.abs(rows))) >= _FLOAT_EXACT:
        return np.array(
            [[int(round(float(v))) for v in row] for row in rows],
            dtype=np.int64,
        )
    return np.rint(rows).astype(np.int64)


class BatchedHConvEngine:
    """Clear-domain batched HConv over the coefficient encoding.

    The batched counterpart of :func:`repro.core.hconv.hconv_ntt` /
    ``hconv_fft`` / ``hconv_flash``: bit-identical results (exact engines)
    computed in vectorized passes over the whole batch.

    Thread-safety contract (checked by ``repro lint --concurrency`` and
    the runtime stress tests): the engine object is confined to the
    submitting thread -- ``last_stats`` and the per-run ``RuntimeStats``
    are only ever written between ``fan_out`` calls, and worker jobs
    close over locals.  The only state shared *with* workers is
    ``plan_cache``, which synchronizes internally.

    Args:
        mode: ``"ntt"`` (exact), ``"fft"`` (float64 folded FFT),
            ``"flash"`` (approximate fixed-point weight transforms) or
            ``"sparse"`` (flash with compiled sparse weight plans: the
            structural zero pattern of each channel tile drives the
            skipping/merging dataflow of :class:`repro.sparse.plan
            .SparsePlan`, bit-identical to per-call
            :class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic`).
        weight_config: fixed-point configuration for ``mode="flash"`` /
            ``"sparse"``.
        plan_cache: shared :class:`PlanCache`; a fresh bounded cache with
            entry-integrity checking when omitted (a tampered cached
            spectrum is evicted and recomputed rather than served).
        max_workers: thread-pool width for the pointwise/inverse stage;
            ``None``/``0``/``1`` selects the serial fallback.
        fault_injector: optional
            :class:`repro.faults.inject.WorkerFaultInjector` poisoning
            parallel jobs (chaos testing); recovered faults appear in
            ``last_stats.worker_faults``.
        cluster: optional :class:`repro.cluster.ClusterExecutor`; batched
            calls shard across its supervised worker processes
            (bit-identical to the in-process path, crash recovery and
            serial degradation included) and ``last_stats.cluster``
            carries the per-call supervision counters.
    """

    MODES = ("ntt", "fft", "flash", "sparse")

    def __init__(
        self,
        mode: str = "ntt",
        weight_config: Optional[ApproxFftConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        fault_injector=None,
        cluster=None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if mode in ("flash", "sparse") and weight_config is None:
            raise ValueError(f"mode={mode!r} needs a weight_config")
        if mode not in ("flash", "sparse"):
            weight_config = None
        self.mode = mode
        self.weight_config = weight_config
        # Note: "plan_cache or ..." would discard an *empty* shared cache
        # (PlanCache defines __len__), so test identity explicitly.
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(capacity_bytes=64 << 20, check_integrity=True)
        )
        self.max_workers = max_workers
        self.fault_injector = fault_injector
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode=mode)

    def _maybe_poison(self, tag) -> None:
        if self.fault_injector is not None:
            self.fault_injector.poison(tag)

    # -- plan / spectrum helpers ----------------------------------------

    def _ntt_plan(self, n: int, q: int):
        return self.plan_cache.get_or_build(
            ("ntt-plan", n, q), lambda: get_ntt(n, q)
        )

    def _fft_pipeline(self, n: int) -> ApproxNegacyclic:
        cfg = self.weight_config
        key = ("fft-plan", n, approx_config_key(cfg))
        return self.plan_cache.get_or_build(
            key, lambda: ApproxNegacyclic(n, cfg)
        )

    def _ntt_weight_spectrum(self, plan, q: int, w_poly: np.ndarray):
        w_poly = np.ascontiguousarray(w_poly, dtype=np.int64)
        key = ("ntt-wspec", plan.n, q, w_poly.tobytes())
        return self.plan_cache.get_or_build(
            key, lambda: plan.forward(from_centered(w_poly, q))
        )

    def _fft_weight_spectrum(self, pipe: ApproxNegacyclic, w_poly: np.ndarray):
        w_poly = np.ascontiguousarray(w_poly, dtype=np.int64)
        key = (
            "fft-wspec",
            pipe.n,
            approx_config_key(self.weight_config),
            w_poly.tobytes(),
        )
        return self.plan_cache.get_or_build(
            key, lambda: pipe.weight_forward(w_poly)
        )

    def _sparse_plan(self, n: int, folded_pattern: np.ndarray):
        """Compiled sparse plan for one folded pattern (cached, digested)."""
        from repro.sparse.plan import SparsePlan

        cfg = self.weight_config
        key = (
            "sparse-plan",
            n // 2,
            approx_config_key(cfg),
            folded_pattern.tobytes(),
        )
        return self.plan_cache.get_or_build(
            key, lambda: SparsePlan(cfg, folded_pattern, sign=+1)
        )

    def _sparse_poly_spectrum(self, n: int, w_poly: np.ndarray):
        """Sparse spectrum of one standalone weight polynomial.

        Without encoder tile metadata the structural pattern is the
        polynomial's own support (a superset never changes the result,
        so this is exact for any weight).
        """
        from repro.sparse.patterns import fold_valid_indices
        from repro.sparse.plan import SparseWeightPipeline

        w_poly = np.ascontiguousarray(w_poly, dtype=np.int64)
        pattern = fold_valid_indices(np.nonzero(w_poly)[0], n)
        plan = self._sparse_plan(n, pattern)
        key = (
            "sparse-wspec",
            n,
            approx_config_key(self.weight_config),
            pattern.tobytes(),
            w_poly.tobytes(),
        )
        return self.plan_cache.get_or_build(
            key,
            lambda: SparseWeightPipeline(
                n, self.weight_config, pattern, plan=plan
            ).weight_forward(w_poly),
        )

    def _sparse_weight_specs(
        self,
        n: int,
        enc: Conv2dEncoder,
        pairs: List[Tuple[int, int]],
        w_polys: Dict[Tuple[int, int], np.ndarray],
        stats: RuntimeStats,
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Sparse weight spectra for every ``(tile, m)`` pair of a band.

        All output channels of a tile share one structural pattern
        (:meth:`Conv2dEncoder.weight_valid_indices`), hence one compiled
        plan; cache-missing spectra of a tile are computed in a single
        batched plan execution.  Mult counters are charged per requested
        transform so the accounting is cache-warmth independent.
        """
        from repro.sparse.opcount import sparse_fft_mults
        from repro.sparse.patterns import fold_valid_indices
        from repro.sparse.plan import SparseWeightPipeline

        cfg_key = approx_config_key(self.weight_config)
        w_specs: Dict[Tuple[int, int], np.ndarray] = {}
        for tile in sorted({t for t, _ in pairs}):
            pattern = fold_valid_indices(enc.weight_valid_indices(tile), n)
            plan = self._sparse_plan(n, pattern)
            pipe_s = SparseWeightPipeline(
                n, self.weight_config, pattern, plan=plan
            )
            group = [pair for pair in pairs if pair[0] == tile]
            keys = {
                pair: (
                    "sparse-wspec",
                    n,
                    cfg_key,
                    pattern.tobytes(),
                    np.ascontiguousarray(
                        w_polys[pair], dtype=np.int64
                    ).tobytes(),
                )
                for pair in group
            }
            missing = [p for p in group if keys[p] not in self.plan_cache]
            built: Dict[Tuple[int, int], ApproxSpectrum] = {}
            if missing:
                stack = np.stack([w_polys[p] for p in missing])
                spec = pipe_s.weight_forward_batch(stack)
                built = {
                    p: ApproxSpectrum(
                        values=spec.values[i], scale=float(spec.scale[i])
                    )
                    for i, p in enumerate(missing)
                }
            for pair in group:
                value = self.plan_cache.get_or_build(
                    keys[pair],
                    # Evicted between the contains check and here: rebuild
                    # as a batch of one (bit-identical by construction).
                    lambda p=pair: built[p]
                    if p in built
                    else pipe_s.weight_forward(w_polys[p]),
                )
                w_specs[pair] = value.values
            stats.weight_transforms += len(group)
            stats.weight_mults_realized += plan.mults * len(group)
            stats.weight_mults_dense += plan.dense_mults * len(group)
            stats.weight_mults_model += sparse_fft_mults(
                tuple(int(v) for v in pattern), n // 2
            ) * len(group)
        return w_specs

    # -- batched polynomial products ------------------------------------

    def polymul_batch(self, a_batch, w_poly, value_bound: int) -> np.ndarray:
        """Batched negacyclic products of ``(B, n)`` ints by one weight.

        Args:
            a_batch: signed integer activations, ``(B, n)``.
            w_poly: signed integer weight polynomial, ``(n,)``.
            value_bound: bound on result magnitudes (sizes the NTT prime).
        """
        a_batch = np.atleast_2d(np.asarray(a_batch, dtype=np.int64))
        w_poly = np.asarray(w_poly, dtype=np.int64)
        n = a_batch.shape[-1]
        if self.mode == "ntt":
            q = self._modulus_for(n, value_bound)
            plan = self._ntt_plan(n, q)
            w_spec = self._ntt_weight_spectrum(plan, q, w_poly)
            spec = mulmod(plan.forward_batch(from_centered(a_batch, q)), w_spec, q)
            return centered(plan.inverse_batch(spec), q)
        pipe = self._fft_pipeline(n)
        if self.mode == "sparse":
            w_spec = self._sparse_poly_spectrum(n, w_poly)
        else:
            w_spec = self._fft_weight_spectrum(pipe, w_poly)
        a_spec = pipe.activation_forward_batch(a_batch.astype(np.float64))
        return _round_rows_exact(
            pipe.multiply_spectra_batch(w_spec.values, a_spec)
        )

    @staticmethod
    def _modulus_for(n: int, value_bound: int) -> int:
        bits = max(20, min(39, (2 * value_bound + 1).bit_length() + 1))
        if (2 * value_bound + 1) >> 38:
            raise ValueError("results exceed the single-prime NTT range")
        (q,) = find_ntt_primes(bits, n)
        return q

    # -- batched convolution --------------------------------------------

    @obs_trace.traced("runtime.conv2d_batch")
    def conv2d_batch(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        shape: ConvShape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Batched ``conv2d`` through the coefficient encoding.

        Args:
            xs: ``B x C x H x W`` integer inputs.
            w: ``M x C x kh x kw`` integer kernel (shared across the batch).
            shape: convolution geometry of one batch item.
            n: polynomial degree.
            deadline_s: optional remaining request-SLO budget; on the
                cluster path it becomes each job's ``deadline_ms`` hang
                deadline, on the in-process path it is ignored (the call
                is already synchronous and uninterruptible).

        Returns:
            ``B x M x out_h x out_w`` int64 outputs, bit-identical to
            running the per-call pipeline on each item.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim == 3:
            xs = xs[None]
        w = np.asarray(w, dtype=np.int64)
        if self.cluster is not None:
            return self._conv2d_batch_cluster(
                xs, w, shape, n, deadline_s=deadline_s
            )
        stats = RuntimeStats(mode=self.mode, workers=self._workers())
        batch = xs.shape[0]
        stats.batch = batch

        bound = int(np.abs(w).sum() * max(1, int(np.abs(xs).max() if xs.size else 1)))
        xp = np.stack([pad_input(x, shape.padding) for x in xs])
        padded_shape = ConvShape(
            in_channels=shape.in_channels,
            height=shape.padded_height,
            width=shape.padded_width,
            out_channels=shape.out_channels,
            kernel_h=shape.kernel_h,
            kernel_w=shape.kernel_w,
            stride=shape.stride,
            padding=0,
        )
        total = np.zeros(
            (batch, shape.out_channels, shape.out_height, shape.out_width),
            dtype=np.int64,
        )
        s = shape.stride
        for phase, a, b in decompose_strided(padded_shape):
            x_phase = xp[:, :, a::s, b::s][:, :, : phase.height, : phase.width]
            w_phase = w[:, :, a::s, b::s]
            for row_start, band in iter_row_bands(phase, n):
                x_band = x_phase[:, :, row_start : row_start + band.height, :]
                self._run_band(
                    x_band, w_phase, band, n, bound, shape, row_start,
                    total, stats,
                )
        stats.cache = self.plan_cache.stats()
        self.last_stats = stats
        return total

    def _workers(self) -> int:
        return self.max_workers if self.max_workers and self.max_workers > 1 else 1

    def _conv2d_batch_cluster(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        shape: ConvShape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Shard the batch across the supervised worker processes.

        Each worker runs this same engine code on its contiguous batch
        shard (items are independent), so the reassembled output is
        bit-identical to the in-process call; ``last_stats`` sums the
        worker-side job stats and carries the supervision counters.
        """
        out = self.cluster.conv2d_batch(
            self.mode, self.weight_config, xs, w, shape, n,
            deadline_s=deadline_s,
        )
        job_stats = self.cluster.last_job_stats
        self.last_stats = RuntimeStats(
            mode=self.mode,
            batch=xs.shape[0],
            workers=self.cluster.policy.workers,
            products=job_stats.get("products", 0),
            weight_transforms=job_stats.get("weight_transforms", 0),
            weight_mults_realized=job_stats.get("weight_mults_realized", 0),
            weight_mults_dense=job_stats.get("weight_mults_dense", 0),
            weight_mults_model=job_stats.get("weight_mults_model", 0),
            cluster=dict(self.cluster.last_cluster),
        )
        return out

    def _run_band(
        self,
        x_band: np.ndarray,
        w_phase: np.ndarray,
        band: ConvShape,
        n: int,
        bound: int,
        shape: ConvShape,
        row_start: int,
        total: np.ndarray,
        stats: RuntimeStats,
    ) -> None:
        batch = x_band.shape[0]
        with _Timer(stats, "encode"):
            enc = Conv2dEncoder(band, n)
            in_rows = []
            for item in range(batch):
                in_rows.extend(enc.encode_input(x_band[item]))
            tiles = len(in_rows) // batch
            a_stack = np.stack(in_rows)  # (B * tiles, n)
            w_polys = enc.encode_weights(w_phase)
        pairs = sorted(w_polys.keys())  # (tile, m), deterministic order

        if self.mode == "ntt":
            q = self._modulus_for(n, bound)
            plan = self._ntt_plan(n, q)
            with _Timer(stats, "weight_transform"):
                w_specs = {
                    pair: self._ntt_weight_spectrum(plan, q, w_polys[pair])
                    for pair in pairs
                }
            with _Timer(stats, "activation_transform"):
                a_spec = plan.forward_batch(from_centered(a_stack, q))

            def group_job(group: List[Tuple[int, int]]) -> np.ndarray:
                a_idx = [
                    item * tiles + tile
                    for item in range(batch)
                    for tile, _ in group
                ]
                w_rows = np.stack([w_specs[pair] for pair in group] * batch)
                spec = mulmod(a_spec[a_idx], w_rows, q)
                return centered(plan.inverse_batch(spec), q)

        else:
            pipe = self._fft_pipeline(n)
            with _Timer(stats, "weight_transform"):
                if self.mode == "sparse":
                    w_specs = self._sparse_weight_specs(
                        n, enc, pairs, w_polys, stats
                    )
                else:
                    w_specs = {
                        pair: self._fft_weight_spectrum(
                            pipe, w_polys[pair]
                        ).values
                        for pair in pairs
                    }
                    if self.mode == "flash":
                        # Dense fixed-point weight FFT: every butterfly
                        # multiplies, so realized == dense == model.
                        stages = (n // 2).bit_length() - 1
                        dense = (n // 4) * stages * len(pairs)
                        stats.weight_transforms += len(pairs)
                        stats.weight_mults_realized += dense
                        stats.weight_mults_dense += dense
                        stats.weight_mults_model += dense
            with _Timer(stats, "activation_transform"):
                a_spec = pipe.activation_forward_batch(
                    a_stack.astype(np.float64)
                )

            def group_job(group: List[Tuple[int, int]]) -> np.ndarray:
                a_idx = [
                    item * tiles + tile
                    for item in range(batch)
                    for tile, _ in group
                ]
                w_rows = np.stack([w_specs[pair] for pair in group] * batch)
                coeffs = pipe.multiply_spectra_batch(w_rows, a_spec[a_idx])
                return _round_rows_exact(coeffs)

        groups = _split_groups(pairs, self._workers())
        recovery = FaultRecovery()

        def indexed_job(group_index: int) -> np.ndarray:
            self._maybe_poison(("group", group_index))
            return group_job(groups[group_index])

        with _Timer(stats, "pointwise+inverse"):
            group_rows = fan_out(
                range(len(groups)), indexed_job, self.max_workers,
                recovery=recovery,
            )
        stats.worker_faults += recovery.faults
        stats.products += len(pairs) * batch

        with _Timer(stats, "decode"):
            oh, ow = shape.out_height, shape.out_width
            for item in range(batch):
                products: Dict[Tuple[int, int], np.ndarray] = {}
                for group, rows in zip(groups, group_rows):
                    base = item * len(group)
                    for offset, pair in enumerate(group):
                        products[pair] = rows[base + offset]
                y = enc.decode_output(products)
                r0 = row_start
                r1 = min(r0 + y.shape[1], oh)
                total[item, :, r0:r1, :ow] += y[:, : r1 - r0, :ow]


# ---------------------------------------------------------------------------
# Batched backends for the encrypted (RNS ciphertext) path
# ---------------------------------------------------------------------------


def _cluster_multiply_many(backend, kind, pattern, polys, weights_list):
    """Shared cluster delegation of a backend's ``multiply_many``.

    Serializes the polynomials through the protocol wire format, shards
    them across the backend's :class:`repro.cluster.ClusterExecutor`, and
    rebuilds ``last_stats`` from the worker-side job stats plus the
    per-call supervision counters.
    """
    cluster = backend.cluster
    outs = cluster.multiply_many(
        kind,
        getattr(backend, "weight_config", None),
        pattern,
        polys,
        weights_list,
    )
    job_stats = cluster.last_job_stats
    backend.last_stats = RuntimeStats(
        mode=kind,
        batch=len(polys),
        products=job_stats.get("products", 0),
        workers=cluster.policy.workers,
        weight_transforms=job_stats.get("weight_transforms", 0),
        weight_mults_realized=job_stats.get("weight_mults_realized", 0),
        weight_mults_dense=job_stats.get("weight_mults_dense", 0),
        weight_mults_model=job_stats.get("weight_mults_model", 0),
        cluster=dict(cluster.last_cluster),
    )
    return outs


class BatchedNttBackend(PolyMulBackend):
    """Exact product via the per-prime negacyclic NTT (the baseline).

    ``multiply_many`` stacks every polynomial's residues per RNS limb and
    runs one ``forward_batch`` / ``inverse_batch`` pass per limb, with limbs
    fanned across the worker pool.  Each distinct weight polynomial's
    per-prime spectra are computed once and cached as one
    ``8 * n * limbs``-byte entry of the :class:`PlanCache` (integrity
    checked by default: tampered spectra are evicted and recomputed).  A
    worker that raises mid-limb is retried serially -- bit-identical
    output, fault recorded in ``last_stats.worker_faults``.

    Figure 1's trade -- "pre-compute and store the weight polynomials in
    the NTT domain ... 23 GB for a 4-bit ResNet-50" -- is this backend
    over a ``PlanCache(capacity_bytes=..., on_full="error")``: exceeding
    the budget raises :class:`MemoryError` (the paper's infeasibility
    point) instead of evicting.
    """

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        fault_injector=None,
        cluster=None,
    ):
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(capacity_bytes=64 << 20, check_integrity=True)
        )
        self.max_workers = max_workers
        self.fault_injector = fault_injector
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode="ntt")

    def _maybe_poison(self, tag) -> None:
        if self.fault_injector is not None:
            self.fault_injector.poison(tag)

    def _weight_spectra(self, basis, weights: np.ndarray) -> np.ndarray:
        """``(limbs, n)`` NTT spectra of one weight polynomial (cached)."""
        key = ("rns-wspec", basis.n, tuple(basis.primes), weights.tobytes())
        return self.plan_cache.get_or_build(
            key,
            lambda: np.stack(
                [
                    get_ntt(basis.n, prime).forward(
                        (weights % np.int64(prime)).astype(np.uint64)
                    )
                    for prime in basis.primes
                ]
            ),
        )

    @obs_trace.traced("runtime.multiply_many")
    def multiply_many(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        """Batched exact plaintext products.

        Args:
            polys: ring polynomials sharing one RNS basis.
            weights_list: one signed weight vector per polynomial (repeats
                hit the spectrum cache).
        """
        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        if not polys:
            return []
        if self.cluster is not None:
            return _cluster_multiply_many(
                self, "ntt", None, polys, weights_list
            )
        basis = polys[0].basis
        count = len(polys)
        # Weight spectra are built serially (deterministic cache order);
        # limb jobs below only read the plain (limbs, count, n) stack.
        w_spectra = np.stack(
            [
                self._weight_spectra(
                    basis, np.ascontiguousarray(w, dtype=np.int64)
                )
                for w in weights_list
            ],
            axis=1,
        )

        def limb_job(limb: int) -> np.ndarray:
            self._maybe_poison(("limb", limb))
            prime = basis.primes[limb]
            plan = get_ntt(basis.n, prime)
            rows = np.stack([p.residues[limb] for p in polys])
            spec = mulmod(plan.forward_batch(rows), w_spectra[limb], prime)
            return plan.inverse_batch(spec)

        recovery = FaultRecovery()
        limb_rows = fan_out(
            range(len(basis.primes)), limb_job, self.max_workers,
            recovery=recovery,
        )
        self.last_stats = RuntimeStats(
            mode="ntt",
            batch=count,
            products=count,
            workers=self.max_workers or 1,
            worker_faults=recovery.faults,
        )
        return [
            RingPoly(basis, [limb_rows[l][i] for l in range(len(basis.primes))])
            for i in range(count)
        ]


class BatchedFftBackend(PolyMulBackend):
    """Approximate product via the FLASH folded-FFT pipeline.

    Ciphertext polynomials are CRT-lifted to centered integers, multiplied
    in the FFT domain (weight transform on the approximate fixed-point
    path, everything else float64), rounded, and reduced back into RNS.
    ``multiply_many`` stacks the centered lifts of every polynomial and
    runs the activation transforms, pointwise products and inverse
    transforms as single batched passes; the CRT lift and the final
    rounding/reduction stay in exact Python-int arithmetic, so every row
    is bit-identical to a one-polynomial call.

    Weight spectra are cached: in an HConv the same weight polynomial
    multiplies both ciphertext components of every input tile, so hardware
    computes the weight transform once (this is also why the second
    approach of Section III-B wins -- activation transforms are shared
    along output channels).

    Args:
        weight_config: fixed-point configuration for the weight-transform
            butterflies; ``None`` runs the weight path in float64 (the
            "FFT (FP)" ablation arm).
        max_workers: thread-pool width for the lift/reduce stages.
        fault_injector: optional worker-fault injector (chaos testing).
        cluster: optional :class:`repro.cluster.ClusterExecutor`.
        spectrum_cache_bytes: LRU byte budget for cached weight spectra
            (``None`` disables the bound); the cache never exceeds it.
            Entries are integrity-checked: a tampered cached spectrum is
            evicted and recomputed rather than served.
        plan_cache: optional shared :class:`PlanCache` for the transform
            pipelines themselves (one :class:`ApproxNegacyclic` per ring
            degree and weight configuration across every backend sharing
            it).
    """

    _stats_mode = "flash"

    def __init__(
        self,
        weight_config: Optional[ApproxFftConfig] = None,
        max_workers: Optional[int] = None,
        fault_injector=None,
        cluster=None,
        spectrum_cache_bytes: Optional[int] = DEFAULT_SPECTRUM_CACHE_BYTES,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.weight_config = weight_config
        self.max_workers = max_workers
        self.fault_injector = fault_injector
        self.cluster = cluster
        self._pipelines = (
            plan_cache if plan_cache is not None
            else PlanCache(max_entries=16)
        )
        self._spectrum_cache = PlanCache(
            capacity_bytes=spectrum_cache_bytes, check_integrity=True
        )
        self.last_stats = RuntimeStats(mode=self._stats_mode)

    def _maybe_poison(self, tag) -> None:
        if self.fault_injector is not None:
            self.fault_injector.poison(tag)

    def pipeline(self, n: int) -> ApproxNegacyclic:
        cfg = self.weight_config
        if cfg is not None and cfg.n != n // 2:
            raise ValueError(
                f"weight core is {cfg.n}-point but ring needs {n // 2}"
            )
        return self._pipelines.get_or_build(
            ("fft-plan", n, approx_config_key(cfg)),
            lambda: ApproxNegacyclic(n, cfg),
        )

    @obs_trace.traced("he.weight_spectrum")
    def weight_spectrum(self, n: int, weights: np.ndarray) -> ApproxSpectrum:
        """Cached approximate forward transform of a weight polynomial."""
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        pipeline = self.pipeline(n)
        return self._spectrum_cache.get_or_build(
            (n, weights.tobytes()),
            lambda: pipeline.weight_forward(weights),
        )

    @property
    def cache_stats(self) -> dict:
        """Hit/miss/byte statistics of the weight-spectrum cache."""
        return self._spectrum_cache.stats()

    def clear_cache(self) -> None:
        self._spectrum_cache.clear()

    def _weight_rows(
        self, n: int, weights_list: List[np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Stacked weight spectra plus mult accounting for one call.

        Subclasses override this to change how spectra are produced (the
        sparse backend swaps in compiled plans); the accounting dict feeds
        the ``weight_mults_*`` fields of ``last_stats`` and is returned
        (not stored on ``self``) so concurrent calls stay race-free.
        """
        rows = np.stack(
            [
                self.weight_spectrum(n, np.asarray(w)).values
                for w in weights_list
            ]
        )
        return rows, {}

    @obs_trace.traced("runtime.multiply_many")
    def multiply_many(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        if not polys:
            return []
        if self.cluster is not None:
            return _cluster_multiply_many(
                self, self._stats_mode, getattr(self, "pattern", None),
                polys, weights_list,
            )
        basis = polys[0].basis
        n, q = basis.n, basis.modulus
        pipe = self.pipeline(n)
        w_rows, mult_stats = self._weight_rows(n, weights_list)

        def lift_job(index: int) -> np.ndarray:
            self._maybe_poison(("lift", index))
            # Centered lift loses only bits beyond float64's 53-bit
            # mantissa -- exactly the LSB error the approximate scheme is
            # designed to absorb.
            return np.array(
                [float(v) for v in polys[index].to_centered()],
                dtype=np.float64,
            )

        recovery = FaultRecovery()
        lifts = fan_out(
            range(len(polys)), lift_job, self.max_workers, recovery=recovery
        )
        a_spec = pipe.activation_forward_batch(np.stack(lifts))
        products = pipe.multiply_spectra_batch(w_rows, a_spec)

        def reduce_job(index: int) -> RingPoly:
            self._maybe_poison(("reduce", index))
            ints = [int(round(float(v))) % q for v in products[index]]
            return RingPoly(
                basis, basis.to_rns(np.array(ints, dtype=object))
            )

        out = fan_out(
            range(len(products)), reduce_job, self.max_workers,
            recovery=recovery,
        )
        self.last_stats = RuntimeStats(
            mode=self._stats_mode,
            batch=len(polys),
            products=len(polys),
            workers=self.max_workers or 1,
            worker_faults=recovery.faults,
            **mult_stats,
        )
        return out


class SparseBatchedFftBackend(BatchedFftBackend):
    """Batched FLASH backend whose weight transforms run compiled sparse plans.

    Identical to :class:`BatchedFftBackend` except that each weight's
    spectrum is produced by a :class:`repro.sparse.plan.SparsePlan`
    compiled for its structural zero pattern -- by default the weight's
    own support (``np.nonzero``), optionally a fixed layer ``pattern``.
    Weights sharing a folded pattern share one plan and are transformed
    in one batched execution; every spectrum is bit-identical to per-call
    :meth:`repro.sparse.sparse_fxp.SparseApproxNegacyclic.weight_forward`
    with the same pattern.

    ``last_stats`` reports realized/dense/model multiplication counts per
    *distinct* weight in the call (c0/c1 and cross-item repeats dedupe by
    spectrum key), so the accounting is deterministic and cache-warmth
    independent.
    """

    _stats_mode = "sparse"

    def __init__(
        self,
        weight_config: Optional[ApproxFftConfig] = None,
        pattern: Optional[Sequence[int]] = None,
        max_workers: Optional[int] = None,
        fault_injector=None,
        **kwargs,
    ):
        super().__init__(
            weight_config=weight_config,
            max_workers=max_workers,
            fault_injector=fault_injector,
            **kwargs,
        )
        if self.weight_config is None:
            raise ValueError("SparseBatchedFftBackend needs a weight_config")
        self.pattern = (
            None
            if pattern is None
            else np.array(sorted({int(v) for v in pattern}), dtype=np.int64)
        )
        # Compiled plans get their own byte-accounted, digest-checked cache:
        # per-weight support inference can produce many more patterns than
        # the small ``_pipelines`` entry bound was sized for.
        self.plan_cache = PlanCache(
            capacity_bytes=32 << 20, check_integrity=True
        )

    def _sparse_plan(self, n: int, folded_pattern: np.ndarray):
        from repro.sparse.plan import SparsePlan

        cfg = self.weight_config
        key = (
            "sparse-plan",
            n // 2,
            approx_config_key(cfg),
            folded_pattern.tobytes(),
        )
        return self.plan_cache.get_or_build(
            key, lambda: SparsePlan(cfg, folded_pattern, sign=+1)
        )

    def _weight_rows(
        self, n: int, weights_list: List[np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        from repro.sparse.opcount import sparse_fft_mults
        from repro.sparse.patterns import fold_valid_indices
        from repro.sparse.plan import SparseWeightPipeline

        weights = [
            np.ascontiguousarray(w, dtype=np.int64) for w in weights_list
        ]
        folded = []
        for w in weights:
            support = self.pattern if self.pattern is not None else (
                np.nonzero(w)[0]
            )
            folded.append(fold_valid_indices(support, n))
        # Group indices by folded pattern; within a group, dedupe weights
        # by bytes so repeated weights (c0/c1 of one ciphertext, shared
        # kernels across a batch) are transformed and counted once.
        groups: Dict[bytes, List[int]] = {}
        for i, fp in enumerate(folded):
            groups.setdefault(fp.tobytes(), []).append(i)
        rows = np.empty((len(weights), n // 2), dtype=np.complex128)
        realized = dense = model = transforms = 0
        for idxs in groups.values():
            fp = folded[idxs[0]]
            plan = self._sparse_plan(n, fp)
            pipe_s = SparseWeightPipeline(
                n, self.weight_config, fp, plan=plan
            )
            keys = {
                i: ("sparse-wspec", n, fp.tobytes(), weights[i].tobytes())
                for i in idxs
            }
            unique: Dict[Hashable, List[int]] = {}
            for i in idxs:
                unique.setdefault(keys[i], []).append(i)
            missing = [
                key for key in unique if key not in self._spectrum_cache
            ]
            built: Dict[Hashable, ApproxSpectrum] = {}
            if missing:
                stack = np.stack([weights[unique[k][0]] for k in missing])
                spec = pipe_s.weight_forward_batch(stack)
                built = {
                    k: ApproxSpectrum(
                        values=spec.values[j], scale=float(spec.scale[j])
                    )
                    for j, k in enumerate(missing)
                }
            for key, shared in unique.items():
                value = self._spectrum_cache.get_or_build(
                    key,
                    lambda k=key, i=shared[0]: built[k]
                    if k in built
                    else pipe_s.weight_forward(weights[i]),
                )
                for i in shared:
                    rows[i] = value.values
            mults_model = sparse_fft_mults(
                tuple(int(v) for v in fp), n // 2
            )
            transforms += len(unique)
            realized += plan.mults * len(unique)
            dense += plan.dense_mults * len(unique)
            model += mults_model * len(unique)
        return rows, {
            "weight_transforms": transforms,
            "weight_mults_realized": realized,
            "weight_mults_dense": dense,
            "weight_mults_model": model,
        }
