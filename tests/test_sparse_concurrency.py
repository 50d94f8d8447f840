"""Concurrency tier for the batched sparse runtime.

The shipped code confines every runtime object to one thread (serve's
coalescer owns execution), but the sparse-plan :class:`PlanCache` keeps
its lock so a shared :class:`SparseBatchedFftBackend` stays correct.
These tests exercise that lock: concurrent callers get byte-identical
results, and the cache survives an 8-thread stress run under the dynamic
race sanitizer with no happens-before violation.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly
from repro.lint import instrument
from repro.ntt import RnsBasis
from repro.runtime import SparseBatchedFftBackend


class TestSparseBackendConcurrency:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    @pytest.fixture(scope="class")
    def cfg(self, basis):
        return ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )

    @pytest.fixture(scope="class")
    def workload(self, basis):
        # 7 weights over 3 distinct supports: the plan cache is shared
        # across concurrent calls.
        rng = np.random.default_rng(23)
        supports = [
            np.sort(rng.choice(basis.n, size=k, replace=False))
            for k in (6, 10, 14)
        ]
        polys, weights = [], []
        for i in range(7):
            coeffs = rng.integers(0, 1 << 20, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            sup = supports[i % len(supports)]
            w = np.zeros(basis.n, dtype=np.int64)
            w[sup] = rng.integers(1, 6, size=sup.size)
            weights.append(w)
        return polys, weights

    @pytest.mark.parametrize("threads", [2, 8])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_concurrent_calls_share_plan_cache(
        self, basis, cfg, workload, warm, threads
    ):
        """Concurrent multiply_many calls against one backend, over a cold
        or a warm plan cache, keep the single-threaded result
        (first-insert-wins plan builds)."""
        polys, weights = workload
        ref = SparseBatchedFftBackend(weight_config=cfg).multiply_many(
            polys, weights
        )
        backend = SparseBatchedFftBackend(weight_config=cfg)
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
            assert backend.plan_cache.hits > 0

    @pytest.mark.slow
    def test_sparse_plan_cache_race_free_under_sanitizer(
        self, basis, cfg, workload
    ):
        """8 threads hammering the sparse-plan cache: the dynamic race
        sanitizer observes the stress and finds no happens-before
        violation on the cache's shared state."""
        polys, weights = workload
        backend = SparseBatchedFftBackend(weight_config=cfg)
        san = instrument(
            backend.plan_cache,
            fields=("hits", "misses", "evictions", "corruptions", "_bytes"),
            mutable_fields=("_entries",),
        )
        san.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(8)
            ]
            for future in futures:
                future.result()
        san.join_all()
        assert backend.plan_cache.hits > 0
        assert san.races == [], san.describe()
