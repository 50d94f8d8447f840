"""Property tests for the compiled sparse-plan layer.

Hypothesis drives the two compile-time contracts the batched sparse
runtime rests on:

* the **tag algebra** of :func:`repro.sparse.plan.butterfly_tags` -- ZERO
  absorbs (skipping), SCALED chains compose exponents (merging), GENERAL
  is terminal;
* **plan-compilation determinism** -- the same pattern always compiles to
  a byte-identical :class:`repro.sparse.plan.SparsePlan`, whose replay is
  bit-identical to the per-call :class:`SparseFixedPointFft` walk.

Plus the :class:`repro.runtime.PlanCache` integration: byte accounting via
``plan_bytes``, content digests via ``digest_payload``, and eviction of
tampered cached plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.runtime import PlanCache
from repro.runtime.plan_cache import estimate_nbytes, value_digest
from repro.sparse import (
    GENERAL,
    ZERO,
    SparsePlan,
    butterfly_tags,
    compile_sparse_plan,
    scaled,
)
from repro.sparse.sparse_fxp import SparseFixedPointFft

N_CORE = 32
CFG = ApproxFftConfig(
    n=N_CORE, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)

scaled_tags = st.builds(
    scaled,
    st.integers(0, N_CORE - 1),
    st.integers(0, 4 * N_CORE),
    st.sampled_from([1, -1]),
)
any_tag = st.one_of(st.just(ZERO), st.just(GENERAL), scaled_tags)
exponents = st.integers(0, N_CORE - 1)


def patterns(min_size=1):
    return st.sets(
        st.integers(0, N_CORE - 1), min_size=min_size, max_size=N_CORE
    ).map(lambda s: tuple(sorted(s)))


class TestTagAlgebra:
    @given(tag=any_tag, exponent=exponents)
    @settings(max_examples=50, deadline=None)
    def test_zero_absorbs(self, tag, exponent):
        """A ZERO second operand degenerates the butterfly to a copy:
        no new GENERAL values appear and SCALED chains pass unchanged."""
        out_u, out_v = butterfly_tags(tag, ZERO, exponent)
        if tag == ZERO:
            assert (out_u, out_v) == (ZERO, ZERO)
        elif tag[0] == "scaled":
            assert out_u == tag and out_v == tag
        else:
            assert (out_u, out_v) == (GENERAL, GENERAL)

    @given(tag=scaled_tags, e1=exponents, e2=exponents)
    @settings(max_examples=50, deadline=None)
    def test_scaled_chains_compose_exponents(self, tag, e1, e2):
        """Two consecutive merges accumulate both butterfly exponents on
        the chain (reduced mod n only at materialization) and track the
        sign flip of the difference output."""
        _, src, e0, sgn = tag
        u1, v1 = butterfly_tags(ZERO, tag, e1)
        assert u1 == scaled(src, e0 + e1, sgn)
        assert v1 == scaled(src, e0 + e1, -sgn)
        u2, _ = butterfly_tags(ZERO, v1, e2)
        assert u2 == scaled(src, e0 + e1 + e2, -sgn)
        # mod-n reduction at consumption matches composing reduced steps
        assert u2[2] % N_CORE == (e0 + e1 + e2) % N_CORE

    @given(other=any_tag, exponent=exponents)
    @settings(max_examples=50, deadline=None)
    def test_general_is_terminal(self, other, exponent):
        """Once a node carries a computed value, every butterfly it feeds
        (against any non-ZERO operand) produces GENERAL outputs."""
        if other == ZERO:
            return
        assert butterfly_tags(GENERAL, other, exponent) == (GENERAL, GENERAL)
        assert butterfly_tags(other, GENERAL, exponent) == (GENERAL, GENERAL)

    @given(tag_u=any_tag, tag_v=any_tag, exponent=exponents)
    @settings(max_examples=100, deadline=None)
    def test_transition_is_total_and_closed(self, tag_u, tag_v, exponent):
        """Every operand pair transitions, and outputs stay in the tag
        language (ZERO / SCALED / GENERAL)."""
        out_u, out_v = butterfly_tags(tag_u, tag_v, exponent)
        for out in (out_u, out_v):
            assert out[0] in ("zero", "scaled", "general")
        # ZERO outputs only ever come from two ZERO inputs.
        if ZERO in (out_u, out_v):
            assert tag_u == ZERO and tag_v == ZERO


class TestPlanDeterminism:
    @given(pattern=patterns())
    @settings(max_examples=25, deadline=None)
    def test_same_pattern_byte_identical_plan(self, pattern):
        a = compile_sparse_plan(CFG, pattern)
        b = compile_sparse_plan(CFG, pattern)
        assert a.to_bytes() == b.to_bytes()
        assert a.mults == b.mults
        assert value_digest(a) == value_digest(b)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_distinct_patterns_distinct_plans(self, data):
        p1 = data.draw(patterns())
        p2 = data.draw(patterns())
        if p1 == p2:
            return
        a = compile_sparse_plan(CFG, p1)
        b = compile_sparse_plan(CFG, p2)
        assert a.to_bytes() != b.to_bytes()

    @given(pattern=patterns())
    @settings(max_examples=20, deadline=None)
    def test_plan_replay_bit_identical_to_per_call(self, pattern):
        rng = np.random.default_rng(sum(pattern) + len(pattern))
        plan = SparsePlan(CFG, pattern)
        engine = SparseFixedPointFft(CFG, sign=1)
        x = np.zeros((3, N_CORE), dtype=np.complex128)
        cols = np.array(pattern)
        x[:, cols] = (
            rng.uniform(-0.5, 0.5, size=(3, cols.size))
            + 1j * rng.uniform(-0.5, 0.5, size=(3, cols.size))
        )
        got = plan.execute(x)
        for row, got_row in zip(x, got):
            ref = engine.run(row, valid=cols)
            assert np.array_equal(got_row, ref.values)
            assert plan.mults == ref.mults

    def test_rejects_input_outside_valid_set(self):
        plan = SparsePlan(CFG, (0, 3, 5))
        x = np.zeros(N_CORE, dtype=np.complex128)
        x[7] = 0.25
        with pytest.raises(ValueError, match="outside the valid set"):
            plan.execute(x)


class TestPlanCacheIntegration:
    def test_plan_bytes_accounting(self):
        plan = compile_sparse_plan(CFG, (0, 4, 8, 12))
        assert plan.plan_bytes > 0
        assert estimate_nbytes(plan) == plan.plan_bytes
        cache = PlanCache(capacity_bytes=8 << 20)
        cache.put("p", plan)
        assert cache.cached_bytes == plan.plan_bytes

    def test_digest_covers_plan_content(self):
        plan = compile_sparse_plan(CFG, (0, 4, 8, 12))
        digest = value_digest(plan)
        assert digest is not None
        other = compile_sparse_plan(CFG, (0, 4, 8, 13))
        assert value_digest(other) != digest

    def test_tampered_cached_plan_is_evicted(self):
        cache = PlanCache(capacity_bytes=8 << 20, check_integrity=True)
        key = ("sparse-plan", N_CORE, (0, 4, 8))
        plan = cache.get_or_build(
            key, lambda: compile_sparse_plan(CFG, (0, 4, 8))
        )
        assert cache.get(key) is plan
        plan._raw_tw[0] += 0.5  # corrupt the compiled twiddle table
        assert cache.get(key) is None
        assert cache.corruptions == 1
        rebuilt = cache.get_or_build(
            key, lambda: compile_sparse_plan(CFG, (0, 4, 8))
        )
        assert rebuilt is not plan

    def test_every_plan_array_is_covered_by_the_digest(self):
        # The plan's arrays live in a few packed buffers; a flipped byte in
        # any one of them must still be detected and evicted.
        cache = PlanCache(capacity_bytes=8 << 20, check_integrity=True)
        key = ("sparse-plan", N_CORE, (0, 3, 8, 9, 21))
        plan = cache.get_or_build(
            key, lambda: compile_sparse_plan(CFG, (0, 3, 8, 9, 21))
        )
        flipped = 0
        for name, arr in plan._iter_arrays():
            if not arr.size:
                continue
            raw = arr.reshape(-1).view(np.uint8)
            raw[-1] ^= 0x01
            assert cache.get(key) is None, name
            raw[-1] ^= 0x01
            cache.put(key, plan)
            assert cache.get(key) is plan
            flipped += 1
        assert flipped >= 20
        assert cache.corruptions == flipped
