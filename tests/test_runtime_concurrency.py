"""Concurrency regression tier: the shared-cache lock under threads.

In the shipped code every runtime object, :class:`repro.runtime.PlanCache`
included, is confined to one thread: serve's coalescer thread owns all
execution and cluster workers are separate processes.  ``PlanCache``
still synchronizes internally, so a caller that shares one backend across
threads stays correct; these tests exercise that lock directly.
Concurrent ``multiply_many`` calls must stay byte-identical to a
single-threaded call, and the cache's shared state must be race-free
under the dynamic sanitizer.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.runtime import BatchedFftBackend, BatchedNttBackend, PlanCache


class TestBackendConcurrency:
    @pytest.fixture(scope="class")
    def basis(self):
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

    def test_ntt_backend_matches_ring_product(self, basis, workload):
        polys, weights = workload
        refs = [
            p * RingPoly.from_signed(basis, w)
            for p, w in zip(polys, weights)
        ]
        outs = BatchedNttBackend().multiply_many(polys, weights)
        for out, ref in zip(outs, refs):
            for a, b in zip(out.residues, ref.residues):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [2, 8])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("kind", ["ntt", "fft"])
    def test_shared_plan_cache_thread_safety(
        self, basis, workload, kind, warm, threads
    ):
        """Concurrent multiply_many calls on one backend, over a cold or a
        warm cache, keep the single-threaded result (first-insert-wins
        builds)."""
        polys, weights = workload
        cfg = ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )

        def make():
            if kind == "ntt":
                backend = BatchedNttBackend(
                    plan_cache=PlanCache(capacity_bytes=8 << 20)
                )
                return backend, backend.plan_cache
            backend = BatchedFftBackend(weight_config=cfg)
            return backend, backend._spectrum_cache

        ref = make()[0].multiply_many(polys, weights)
        backend, cache = make()
        if warm:
            backend.multiply_many(polys, weights)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(threads)
            ]
            for future in futures:
                for out, expect in zip(future.result(), ref):
                    for a, b in zip(out.residues, expect.residues):
                        assert np.array_equal(a, b)
        if warm:
            assert cache.hits > 0

    @pytest.mark.slow
    def test_shared_plan_cache_race_free_under_sanitizer(
        self, basis, workload
    ):
        """The dynamic race sanitizer observes the same stress and finds
        no happens-before violation on the cache's shared state."""
        from repro.lint import instrument

        polys, weights = workload
        cache = PlanCache(capacity_bytes=8 << 20)
        san = instrument(
            cache,
            fields=("hits", "misses", "evictions", "corruptions", "_bytes"),
            mutable_fields=("_entries",),
        )
        backend = BatchedNttBackend(plan_cache=cache)
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

