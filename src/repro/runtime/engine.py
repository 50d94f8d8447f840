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

Everything runs in the calling thread: the parallelism is inside the
batched kernels (the NTT and FFT transforms are BLAS GEMMs and vectorized
butterflies), and multi-core scale-out with crash recovery is the job of
the supervised worker processes of :mod:`repro.cluster`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvBand,
    ConvShape,
    iter_conv_bands,
)
from repro.fftcore.approx_pipeline import ApproxNegacyclic, ApproxSpectrum
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import PolyMulBackend
from repro.he.poly import RingPoly
from repro.ntt import get_ntt, single_prime_modulus
from repro.ntt.modmath import centered, from_centered, mulmod
from repro.obs import trace as obs_trace
from repro.runtime.plan_cache import PlanCache, approx_config_key

#: Rounded values at or beyond this magnitude do not fit int64.
_INT64_LIMIT = float(1 << 63)

#: Default byte budget for the bounded weight-spectrum caches.  Generous for
#: every test/benchmark workload, but finite: an unbounded cache would grow
#: without limit across a long-running inference service.
DEFAULT_SPECTRUM_CACHE_BYTES = 64 << 20


def batched_weight_spectra(
    cache: PlanCache,
    keys: Sequence[Hashable],
    weights: Sequence[np.ndarray],
    forward_batch: Callable[[np.ndarray], ApproxSpectrum],
) -> List[ApproxSpectrum]:
    """Cached weight spectra, with every miss of the call in one batch.

    ``keys[i]`` is the cache key of ``weights[i]``.  The weights whose keys
    are missing from ``cache`` are deduplicated by key and transformed in
    one ``forward_batch`` call; each key is then fetched with
    ``cache.get_or_build`` in order, so hit/miss counts are those of one
    lookup per requested weight.  An entry evicted between the miss check
    and its lookup is rebuilt as a batch of one -- bit-identical, since
    every row of a batched transform is independent of its batch.
    """
    first: Dict[Hashable, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    missing = [key for key in first if key not in cache]
    built: Dict[Hashable, ApproxSpectrum] = {}
    if missing:
        spec = forward_batch(np.stack([weights[first[k]] for k in missing]))
        built = {k: _spectrum_row(spec, j) for j, k in enumerate(missing)}

    def build(key: Hashable) -> ApproxSpectrum:
        if key in built:
            return built[key]
        return _spectrum_row(forward_batch(weights[first[key]][None, :]), 0)

    return [cache.get_or_build(key, lambda k=key: build(k)) for key in keys]


def _spectrum_row(spec: ApproxSpectrum, row: int) -> ApproxSpectrum:
    """Row ``row`` of a batched spectrum (its scale may be a scalar)."""
    scale = np.broadcast_to(spec.scale, spec.values.shape[:1])
    return ApproxSpectrum(values=spec.values[row], scale=float(scale[row]))


def _keyed_weight_spectra(
    cache: PlanCache,
    key_prefix: Tuple,
    weights: Sequence[np.ndarray],
    forward_batch: Callable[[np.ndarray], ApproxSpectrum],
) -> List[ApproxSpectrum]:
    """:func:`batched_weight_spectra` keyed by ``key_prefix`` plus each
    weight's int64 bytes."""
    weights = [np.ascontiguousarray(w, dtype=np.int64) for w in weights]
    keys = [key_prefix + (w.tobytes(),) for w in weights]
    return batched_weight_spectra(cache, keys, weights, forward_batch)


def fft_pipeline(
    cache: PlanCache, cfg: Optional[ApproxFftConfig], n: int
) -> ApproxNegacyclic:
    """Cached folded-FFT pipeline for ring degree ``n`` (``cfg=None``:
    float64 weight path)."""
    if cfg is not None and cfg.n != n // 2:
        raise ValueError(
            f"weight core is {cfg.n}-point but ring needs {n // 2}"
        )
    return cache.get_or_build(
        ("fft-plan", n, approx_config_key(cfg)),
        lambda: ApproxNegacyclic(n, cfg),
    )


def sparse_weight_spectra(
    plan_cache: PlanCache,
    spectrum_cache: PlanCache,
    cfg: ApproxFftConfig,
    n: int,
    key_prefix: Tuple,
    weights: Sequence[np.ndarray],
    patterns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse weight spectra, one compiled plan per folded pattern.

    ``patterns[i]`` is the folded structural zero pattern of
    ``weights[i]``.  Weights are grouped by pattern (first-appearance
    order); each group fetches or compiles its plan once from
    ``plan_cache`` and runs its misses in ``spectrum_cache`` (keys
    ``key_prefix + (pattern bytes, weight bytes)``) through one
    ``SparseWeightPipeline.weight_forward_batch`` call.  Every spectrum is
    bit-identical to per-call
    :meth:`repro.sparse.sparse_fxp.SparseApproxNegacyclic.weight_forward`
    with the same pattern.

    Returns:
        the ``(len(weights), n // 2)`` spectra, and an int64
        ``(len(weights), 3)`` array of the realized, dense and
        :mod:`repro.sparse.opcount` model mult counts of each input's plan
        (see :meth:`RuntimeStats.charge_weight_mults`).
    """
    from repro.sparse.opcount import sparse_fft_mults
    from repro.sparse.plan import SparsePlan, SparseWeightPipeline

    cfg_key = approx_config_key(cfg)
    groups: Dict[bytes, List[int]] = {}
    for i, pattern in enumerate(patterns):
        groups.setdefault(pattern.tobytes(), []).append(i)
    rows = np.empty((len(weights), n // 2), dtype=np.complex128)
    mults = np.empty((len(weights), 3), dtype=np.int64)
    for pattern_bytes, idxs in groups.items():
        pattern = patterns[idxs[0]]
        plan = plan_cache.get_or_build(
            ("sparse-plan", n // 2, cfg_key, pattern_bytes),
            lambda: SparsePlan(cfg, pattern, sign=+1),
        )
        pipe = SparseWeightPipeline(n, cfg, pattern, plan=plan)
        specs = _keyed_weight_spectra(
            spectrum_cache,
            key_prefix + (pattern_bytes,),
            [weights[i] for i in idxs],
            pipe.weight_forward_batch,
        )
        for i, spec in zip(idxs, specs):
            rows[i] = spec.values
        mults[idxs] = (
            plan.mults,
            plan.dense_mults,
            sparse_fft_mults(tuple(int(v) for v in pattern), n // 2),
        )
    return rows, mults


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

    @classmethod
    def from_cluster(cls, cluster, mode: str, batch: int) -> "RuntimeStats":
        """Stats of the call that just ran on ``cluster``: the summed
        worker-side job stats plus the call's supervision counters."""
        job_stats = cluster.last_job_stats
        return cls(
            mode=mode,
            batch=batch,
            workers=cluster.policy.workers,
            cluster=dict(cluster.last_cluster),
            **{
                name: job_stats.get(name, 0)
                for name in (
                    "products",
                    "weight_transforms",
                    "weight_mults_realized",
                    "weight_mults_dense",
                    "weight_mults_model",
                )
            },
        )

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def charge_weight_mults(self, mults: np.ndarray) -> None:
        """Charge one weight transform per row of a ``(k, 3)`` array of
        realized, dense and model mult counts."""
        realized, dense, model = (int(v) for v in mults.sum(axis=0))
        self.weight_transforms += len(mults)
        self.weight_mults_realized += realized
        self.weight_mults_dense += dense
        self.weight_mults_model += model

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
    per-call path's ``int(round(float(v)))`` (both round half-to-even;
    doubles of magnitude ``>= 2**53`` are already integral).

    Raises:
        OverflowError: a rounded value lies outside ``[-2**63, 2**63)``.
    """
    rounded = np.rint(rows)
    if rounded.size and (
        rounded.max() >= _INT64_LIMIT or rounded.min() < -_INT64_LIMIT
    ):
        raise OverflowError("rounded coefficient does not fit int64")
    return rounded.astype(np.int64)


class BatchedHConvEngine:
    """Clear-domain batched HConv over the coefficient encoding.

    The batched counterpart of :func:`repro.core.hconv.hconv_ntt` /
    ``hconv_fft`` / ``hconv_flash``: bit-identical results (exact engines)
    computed in vectorized passes over the whole batch.

    Thread-safety contract (checked by ``repro lint --concurrency`` and
    the runtime stress tests): the engine object is confined to its
    calling thread -- ``last_stats`` and the per-run ``RuntimeStats`` are
    written by that thread only.  In the shipped code ``plan_cache`` is
    confined to one thread too (serve's coalescer thread owns all
    execution); it still synchronizes internally, so a caller that shares
    one across threads stays correct.

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
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode=mode)

    # -- plan / spectrum helpers ----------------------------------------

    def _ntt_plan(self, n: int, q: int):
        return self.plan_cache.get_or_build(
            ("ntt-plan", n, q), lambda: get_ntt(n, q)
        )

    def _ntt_weight_spectrum(self, plan, q: int, w_poly: np.ndarray):
        w_poly = np.ascontiguousarray(w_poly, dtype=np.int64)
        key = ("ntt-wspec", plan.n, q, w_poly.tobytes())
        return self.plan_cache.get_or_build(
            key, lambda: plan.forward(from_centered(w_poly, q))
        )

    def _sparse_weight_rows(
        self,
        n: int,
        enc: Conv2dEncoder,
        pairs: List[Tuple[int, int]],
        w_polys: Dict[Tuple[int, int], np.ndarray],
        stats: RuntimeStats,
    ) -> np.ndarray:
        """Sparse weight spectra of a band's ``(tile, m)`` pairs, in order.

        All output channels of a tile share its structural pattern
        (:meth:`Conv2dEncoder.weight_valid_indices`), hence one compiled
        plan and one batched execution of the tile's misses
        (:func:`sparse_weight_spectra`).  Mult counters are charged per
        requested transform so the accounting is cache-warmth independent.
        """
        from repro.sparse.patterns import fold_valid_indices

        key_prefix = ("sparse-wspec", n, approx_config_key(self.weight_config))
        rows = []
        for tile in sorted({t for t, _ in pairs}):
            group = [w_polys[pair] for pair in pairs if pair[0] == tile]
            pattern = fold_valid_indices(enc.weight_valid_indices(tile), n)
            tile_rows, mults = sparse_weight_spectra(
                self.plan_cache, self.plan_cache, self.weight_config, n,
                key_prefix, group, [pattern] * len(group),
            )
            rows.append(tile_rows)
            stats.charge_weight_mults(mults)
        return np.concatenate(rows)

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
        stats = RuntimeStats(mode=self.mode)
        batch = xs.shape[0]
        stats.batch = batch

        bound = int(np.abs(w).sum() * max(1, int(np.abs(xs).max() if xs.size else 1)))
        total = np.zeros(
            (batch, shape.out_channels, shape.out_height, shape.out_width),
            dtype=np.int64,
        )
        for band in iter_conv_bands(shape, n, xs, w):
            self._run_band(band, n, bound, total, stats)
        stats.cache = self.plan_cache.stats()
        self.last_stats = stats
        return total

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
        self.last_stats = RuntimeStats.from_cluster(
            self.cluster, self.mode, xs.shape[0]
        )
        return out

    def _run_band(
        self,
        band: ConvBand,
        n: int,
        bound: int,
        total: np.ndarray,
        stats: RuntimeStats,
    ) -> None:
        batch = band.inputs.shape[0]
        with _Timer(stats, "encode"):
            enc = Conv2dEncoder(band.shape, n)
            in_rows = []
            for item in range(batch):
                in_rows.extend(enc.encode_input(band.inputs[item]))
            tiles = len(in_rows) // batch
            a_stack = np.stack(in_rows)  # (B * tiles, n)
            w_polys = enc.encode_weights(band.weights)
        pairs = sorted(w_polys.keys())  # (tile, m), deterministic order

        if self.mode == "ntt":
            q = single_prime_modulus(n, bound)
            plan = self._ntt_plan(n, q)
            with _Timer(stats, "weight_transform"):
                w_rows = np.stack([
                    self._ntt_weight_spectrum(plan, q, w_polys[pair])
                    for pair in pairs
                ])
            with _Timer(stats, "activation_transform"):
                a_spec = plan.forward_batch(from_centered(a_stack, q))

            def pointwise_inverse(w_batch, a_idx):
                spec = mulmod(a_spec[a_idx], w_batch, q)
                return centered(plan.inverse_batch(spec), q)

        else:
            pipe = fft_pipeline(self.plan_cache, self.weight_config, n)
            with _Timer(stats, "weight_transform"):
                if self.mode == "sparse":
                    w_rows = self._sparse_weight_rows(
                        n, enc, pairs, w_polys, stats
                    )
                else:
                    specs = _keyed_weight_spectra(
                        self.plan_cache,
                        ("fft-wspec", n, approx_config_key(self.weight_config)),
                        [w_polys[pair] for pair in pairs],
                        pipe.weight_forward_batch,
                    )
                    w_rows = np.stack([spec.values for spec in specs])
                    if self.mode == "flash":
                        # Dense fixed-point weight FFT: every butterfly
                        # multiplies, so realized == dense == model.
                        stages = (n // 2).bit_length() - 1
                        stats.charge_weight_mults(
                            np.full((len(pairs), 3), (n // 4) * stages)
                        )
            with _Timer(stats, "activation_transform"):
                a_spec = pipe.activation_forward_batch(
                    a_stack.astype(np.float64)
                )

            def pointwise_inverse(w_batch, a_idx):
                coeffs = pipe.multiply_spectra_batch(w_batch, a_spec[a_idx])
                return _round_rows_exact(coeffs)

        with _Timer(stats, "pointwise+inverse"):
            # Item-major rows: row ``item * len(pairs) + k`` is pair k.  The
            # activation rows are gathered inside ``pointwise_inverse`` so
            # the gather is freed before the inverse transform allocates.
            a_idx = [
                item * tiles + tile
                for item in range(batch)
                for tile, _ in pairs
            ]
            rows = pointwise_inverse(np.concatenate([w_rows] * batch), a_idx)
        stats.products += len(pairs) * batch

        with _Timer(stats, "decode"):
            for item in range(batch):
                base = item * len(pairs)
                products = {
                    pair: rows[base + k] for k, pair in enumerate(pairs)
                }
                total[item][band.out] += band.crop(enc.decode_output(products))


# ---------------------------------------------------------------------------
# Batched backends for the encrypted (RNS ciphertext) path
# ---------------------------------------------------------------------------


def _cluster_multiply_many(backend, kind, polys, weights_list):
    """Shared cluster delegation of a backend's ``multiply_many``.

    Serializes the polynomials through the protocol wire format, shards
    them across the backend's :class:`repro.cluster.ClusterExecutor`, and
    rebuilds ``last_stats`` with :meth:`RuntimeStats.from_cluster`.
    """
    cluster = backend.cluster
    outs = cluster.multiply_many(
        kind, getattr(backend, "weight_config", None), polys, weights_list
    )
    backend.last_stats = RuntimeStats.from_cluster(cluster, kind, len(polys))
    return outs


class BatchedNttBackend(PolyMulBackend):
    """Exact product via the per-prime negacyclic NTT (the baseline).

    ``multiply_many`` stacks every polynomial's residues per RNS limb and
    runs one ``forward_batch`` / ``inverse_batch`` pass per limb.  Each
    distinct weight polynomial's per-prime spectra are computed once and
    cached as one ``8 * n * limbs``-byte entry of the :class:`PlanCache`
    (integrity checked by default: tampered spectra are evicted and
    recomputed).

    Figure 1's trade -- "pre-compute and store the weight polynomials in
    the NTT domain ... 23 GB for a 4-bit ResNet-50" -- is this backend
    over a ``PlanCache(capacity_bytes=..., on_full="error")``: exceeding
    the budget raises :class:`MemoryError` (the paper's infeasibility
    point) instead of evicting.
    """

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        cluster=None,
    ):
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(capacity_bytes=64 << 20, check_integrity=True)
        )
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode="ntt")

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
            return _cluster_multiply_many(self, "ntt", polys, weights_list)
        basis = polys[0].basis
        count = len(polys)
        w_spectra = np.stack(
            [
                self._weight_spectra(
                    basis, np.ascontiguousarray(w, dtype=np.int64)
                )
                for w in weights_list
            ],
            axis=1,
        )

        # One call per limb: a limb's temporaries are freed before the next
        # limb allocates its own.
        def limb_product(limb: int, prime: int) -> np.ndarray:
            plan = get_ntt(basis.n, prime)
            rows = np.stack([p.residues[limb] for p in polys])
            spec = mulmod(plan.forward_batch(rows), w_spectra[limb], prime)
            return plan.inverse_batch(spec)

        limb_rows = [
            limb_product(limb, prime)
            for limb, prime in enumerate(basis.primes)
        ]
        self.last_stats = RuntimeStats(
            mode="ntt", batch=count, products=count
        )
        return [
            RingPoly(basis, [limb_rows[l][i] for l in range(len(basis.primes))])
            for i in range(count)
        ]


def _reduce_float_row(
    row: np.ndarray, primes: Sequence[int]
) -> List[np.ndarray]:
    """Residues of ``round(row)`` modulo each prime.

    The float remainder is exact for every finite double (``fmod`` plus one
    exact ``+p`` for negative values), so this equals reducing
    ``int(round(float(v)))`` mod ``q`` and then per prime, including
    products beyond ``2**63``.

    Raises:
        OverflowError: a coefficient is infinite or NaN.
    """
    rounded = np.rint(row)
    if not np.isfinite(rounded).all():
        raise OverflowError("product coefficient is not finite")
    return [np.mod(rounded, float(p)).astype(np.uint64) for p in primes]


class BatchedFftBackend(PolyMulBackend):
    """Approximate product via the FLASH folded-FFT pipeline.

    Ciphertext polynomials are CRT-lifted to centered integers, multiplied
    in the FFT domain (weight transform on the approximate fixed-point
    path, everything else float64), rounded, and reduced back into RNS.
    ``multiply_many`` stacks the centered lifts of every polynomial and
    runs the activation transforms, pointwise products and inverse
    transforms as single batched passes; the CRT lift (exact int64 Garner
    recombination) and the final rounding/reduction (exact ``fmod`` per
    prime) are per-row, so every row is bit-identical to a one-polynomial
    call.

    Weight spectra are cached: in an HConv the same weight polynomial
    multiplies both ciphertext components of every input tile, so hardware
    computes the weight transform once (this is also why the second
    approach of Section III-B wins -- activation transforms are shared
    along output channels).

    Args:
        weight_config: fixed-point configuration for the weight-transform
            butterflies; ``None`` runs the weight path in float64 (the
            "FFT (FP)" ablation arm).
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
        cluster=None,
        spectrum_cache_bytes: Optional[int] = DEFAULT_SPECTRUM_CACHE_BYTES,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.weight_config = weight_config
        self.cluster = cluster
        self._pipelines = (
            plan_cache if plan_cache is not None
            else PlanCache(max_entries=16)
        )
        self._spectrum_cache = PlanCache(
            capacity_bytes=spectrum_cache_bytes, check_integrity=True
        )
        self.last_stats = RuntimeStats(mode=self._stats_mode)

    def pipeline(self, n: int) -> ApproxNegacyclic:
        return fft_pipeline(self._pipelines, self.weight_config, n)

    @obs_trace.traced("he.weight_spectrum")
    def weight_spectra(
        self, n: int, weights_list: List[np.ndarray]
    ) -> List[ApproxSpectrum]:
        """Cached approximate forward transforms of weight polynomials
        (the call's misses run as one batch)."""
        return _keyed_weight_spectra(
            self._spectrum_cache,
            (n,),
            weights_list,
            self.pipeline(n).weight_forward_batch,
        )

    @property
    def cache_stats(self) -> dict:
        """Hit/miss/byte statistics of the weight-spectrum cache."""
        return self._spectrum_cache.stats()

    def clear_cache(self) -> None:
        self._spectrum_cache.clear()

    def _weight_rows(
        self, n: int, weights_list: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked weight spectra plus their mult counts for one call.

        Subclasses override this to change how spectra are produced (the
        sparse backend swaps in compiled plans); the ``(k, 3)`` counts are
        charged to ``last_stats`` (:meth:`RuntimeStats.charge_weight_mults`).
        """
        specs = self.weight_spectra(n, weights_list)
        return (
            np.stack([spec.values for spec in specs]),
            np.empty((0, 3), dtype=np.int64),
        )

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
                self, self._stats_mode, polys, weights_list
            )
        basis = polys[0].basis
        n = basis.n
        pipe = self.pipeline(n)
        w_rows, mults = self._weight_rows(n, weights_list)

        # Centered lift loses only bits beyond float64's 53-bit mantissa --
        # exactly the LSB error the approximate scheme is designed to
        # absorb.  Both int64 and Python ints round to nearest-even on the
        # way to float64.
        lift = basis.centered_int64 if basis.exact_int64 else basis.centered
        lifts = [lift(p.residues).astype(np.float64) for p in polys]
        a_spec = pipe.activation_forward_batch(np.stack(lifts))
        products = pipe.multiply_spectra_batch(w_rows, a_spec)
        out = [
            RingPoly(basis, _reduce_float_row(row, basis.primes))
            for row in products
        ]
        stats = RuntimeStats(
            mode=self._stats_mode, batch=len(polys), products=len(polys)
        )
        stats.charge_weight_mults(mults)
        self.last_stats = stats
        return out


class SparseBatchedFftBackend(BatchedFftBackend):
    """Batched FLASH backend whose weight transforms run compiled sparse plans.

    Identical to :class:`BatchedFftBackend` except that each weight's
    spectrum is produced by a :class:`repro.sparse.plan.SparsePlan`
    compiled for its structural zero pattern, here the weight's own
    support (``np.nonzero``).  The spectra come from
    :func:`sparse_weight_spectra`, the helper the clear-domain
    :class:`BatchedHConvEngine` uses with its encoder tiles' patterns:
    weights sharing a folded pattern share one plan and are transformed
    in one batched execution, and every spectrum is bit-identical to
    per-call
    :meth:`repro.sparse.sparse_fxp.SparseApproxNegacyclic.weight_forward`
    with the same pattern.

    ``last_stats`` reports realized/dense/model multiplication counts per
    *distinct* weight in the call (c0/c1 and cross-item repeats dedupe by
    weight bytes), so the accounting is deterministic and cache-warmth
    independent.
    """

    _stats_mode = "sparse"

    def __init__(
        self, weight_config: Optional[ApproxFftConfig] = None, **kwargs
    ):
        super().__init__(weight_config=weight_config, **kwargs)
        if self.weight_config is None:
            raise ValueError("SparseBatchedFftBackend needs a weight_config")
        # Compiled plans get their own byte-accounted, digest-checked cache:
        # per-weight support inference can produce many more patterns than
        # the small ``_pipelines`` entry bound was sized for.
        self.plan_cache = PlanCache(
            capacity_bytes=32 << 20, check_integrity=True
        )

    def _weight_rows(
        self, n: int, weights_list: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        from repro.sparse.patterns import fold_valid_indices

        # Repeated weights (c0/c1 of one ciphertext, shared kernels across
        # a batch) are transformed and counted once.
        weights = [
            np.ascontiguousarray(w, dtype=np.int64) for w in weights_list
        ]
        unique: Dict[bytes, np.ndarray] = {}
        for w in weights:
            unique.setdefault(w.tobytes(), w)
        rows, mults = sparse_weight_spectra(
            self.plan_cache,
            self._spectrum_cache,
            self.weight_config,
            n,
            ("sparse-wspec", n),
            list(unique.values()),
            [fold_valid_indices(np.nonzero(w)[0], n) for w in unique.values()],
        )
        slot = {key: i for i, key in enumerate(unique)}
        return rows[[slot[w.tobytes()] for w in weights]], mults
