"""Concurrency regression tier: the worker pool must never change results.

Every fan-out in the runtime (RNS limbs, output-channel groups, batch
lifts) must produce byte-identical outputs for 1, 2 and 8 workers and for
the serial fallback -- including oversubscription, where the job count
exceeds the worker count and where workers exceed jobs.
"""

import numpy as np
import pytest

from repro.encoding.conv_encoding import ConvShape
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.runtime import (
    BatchedFftBackend,
    BatchedHConvEngine,
    BatchedNttBackend,
    fan_out,
)

WORKER_GRID = [None, 1, 2, 8]


class TestFanOut:
    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_order_preserved(self, workers):
        jobs = list(range(23))
        assert fan_out(jobs, lambda j: j * j, workers) == [
            j * j for j in jobs
        ]

    def test_empty_jobs(self):
        assert fan_out([], lambda j: j, 4) == []


class TestEngineConcurrency:
    def test_worker_counts_byte_identical(self):
        shape = ConvShape(
            in_channels=3, height=7, width=7, out_channels=5,
            kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        rng = np.random.default_rng(0)
        xs = rng.integers(-7, 8, size=(6, 3, 7, 7))
        w = rng.integers(-4, 5, size=(5, 3, 3, 3))
        reference = None
        for mode, cfg in (
            ("ntt", None),
            ("flash", ApproxFftConfig(n=64, stage_widths=27, twiddle_k=18,
                                      twiddle_max_shift=24)),
        ):
            outs = []
            for workers in WORKER_GRID:
                engine = BatchedHConvEngine(
                    mode=mode, weight_config=cfg, max_workers=workers
                )
                outs.append(engine.conv2d_batch(xs, w, shape, 128))
            for other in outs[1:]:
                assert np.array_equal(outs[0], other), mode
            if mode == "ntt":
                reference = outs[0]
        assert reference is not None


class TestBackendConcurrency:
    @pytest.fixture(scope="class")
    def basis(self):
        # 4 limbs: workers=2 oversubscribes limbs, workers=8 oversubscribes
        # the pool.
        return RnsBasis.generate(64, [30, 30, 31, 32])

    @pytest.fixture(scope="class")
    def workload(self, basis):
        rng = np.random.default_rng(5)
        polys = [
            RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 62, basis.n)))
            for _ in range(7)
        ]
        weights = [rng.integers(-6, 7, size=basis.n) for _ in range(7)]
        return polys, weights

    def test_ntt_backend_workers_byte_identical(self, basis, workload):
        polys, weights = workload
        refs = [
            p * RingPoly.from_signed(basis, w)
            for p, w in zip(polys, weights)
        ]
        for workers in WORKER_GRID:
            backend = BatchedNttBackend(max_workers=workers)
            outs = backend.multiply_many(polys, weights)
            for out, ref in zip(outs, refs):
                for a, b in zip(out.residues, ref.residues):
                    assert np.array_equal(a, b), workers

    def test_fft_backend_workers_byte_identical(self, basis, workload):
        polys, weights = workload
        cfg = ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )
        ref = BatchedFftBackend(weight_config=cfg).multiply_many(
            polys, weights
        )
        for workers in WORKER_GRID[1:]:
            backend = BatchedFftBackend(weight_config=cfg, max_workers=workers)
            outs = backend.multiply_many(polys, weights)
            for out, expect in zip(outs, ref):
                for a, b in zip(out.residues, expect.residues):
                    assert np.array_equal(a, b), workers

    def test_shared_plan_cache_thread_safety(self, basis, workload):
        """One PlanCache shared by concurrent multiply_many calls keeps
        deterministic results (first-insert-wins builds)."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.runtime import PlanCache

        polys, weights = workload
        cache = PlanCache(capacity_bytes=8 << 20)
        backend = BatchedNttBackend(plan_cache=cache, max_workers=2)
        ref = backend.multiply_many(polys, weights)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(4)
            ]
            for future in futures:
                for out, expect in zip(future.result(), ref):
                    for a, b in zip(out.residues, expect.residues):
                        assert np.array_equal(a, b)
        assert cache.hits > 0

    @pytest.mark.slow
    def test_shared_plan_cache_race_free_under_sanitizer(
        self, basis, workload
    ):
        """The dynamic race sanitizer observes the same stress and finds
        no happens-before violation on the cache's shared state."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.lint import instrument
        from repro.runtime import PlanCache

        polys, weights = workload
        cache = PlanCache(capacity_bytes=8 << 20)
        san = instrument(
            cache,
            fields=("hits", "misses", "evictions", "corruptions", "_bytes"),
            mutable_fields=("_entries",),
        )
        backend = BatchedNttBackend(plan_cache=cache, max_workers=2)
        san.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(8)
            ]
            for future in futures:
                future.result()
        san.join_all()
        assert cache.hits > 0
        assert san.races == [], san.describe()
