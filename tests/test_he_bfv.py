"""Tests for the BFV scheme: correctness, homomorphism, noise, backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import (
    BfvContext,
    BfvParameters,
    cham_preset,
    cheetah_preset,
    flash_backend,
    fp_fft_backend,
    preset,
    toy_preset,
)
from repro.ntt import negacyclic_convolution_naive
from repro.runtime import BatchedNttBackend, PlanCache


@pytest.fixture(scope="module")
def ctx():
    return BfvContext(toy_preset())


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen(np.random.default_rng(42))


def _random_message(ctx, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ctx.params.t, size=ctx.params.n, dtype=np.int64)


class TestParameters:
    def test_cheetah_preset(self):
        p = cheetah_preset()
        assert p.n == 4096
        assert p.t == 1 << 21
        assert p.q.bit_length() in (59, 60)
        assert p.delta == p.q // p.t

    def test_cham_preset_single_39bit_prime(self):
        p = cham_preset()
        assert len(p.basis.primes) == 1
        assert p.basis.primes[0].bit_length() == 39

    def test_noise_ceiling(self):
        p = toy_preset()
        assert p.noise_ceiling == p.q // (2 * p.t)

    def test_preset_lookup(self):
        assert preset("toy").n == 64
        with pytest.raises(KeyError):
            preset("nonexistent")

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            BfvParameters(n=64, plain_modulus=1 << 35, q_bits=(30,))

    def test_describe(self):
        assert "n=64" in toy_preset().describe()


class TestEncryptDecrypt:
    def test_roundtrip_public_key(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 0)
        ct = ctx.encrypt(pk, m, np.random.default_rng(1))
        assert np.array_equal(ctx.decrypt(sk, ct), m)

    def test_roundtrip_symmetric(self, ctx, keys):
        sk, _ = keys
        m = _random_message(ctx, 2)
        ct = ctx.encrypt_symmetric(sk, m, np.random.default_rng(3))
        assert np.array_equal(ctx.decrypt(sk, ct), m)

    def test_decrypt_signed_centers(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m = np.array([0, 1, t - 1, t // 2] + [0] * (ctx.params.n - 4))
        ct = ctx.encrypt(pk, m, np.random.default_rng(4))
        signed = ctx.decrypt_signed(sk, ct)
        assert signed[1] == 1
        assert signed[2] == -1
        assert signed[3] == -(t // 2)

    def test_fresh_noise_budget_positive(self, ctx, keys):
        sk, pk = keys
        ct = ctx.encrypt(pk, _random_message(ctx, 5), np.random.default_rng(6))
        budget = ctx.noise_budget(sk, ct)
        assert budget > 10

    def test_symmetric_noise_smaller_than_public(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 7)
        rng = np.random.default_rng(8)
        ct_pk = ctx.encrypt(pk, m, rng)
        ct_sym = ctx.encrypt_symmetric(sk, m, rng)
        assert ctx.noise_infinity(sk, ct_sym) <= ctx.noise_infinity(sk, ct_pk)

    def test_wrong_length_rejected(self, ctx, keys):
        _, pk = keys
        with pytest.raises(ValueError):
            ctx.encrypt(pk, np.zeros(5), np.random.default_rng(0))

    def test_message_reduced_mod_t(self, ctx, keys):
        sk, pk = keys
        m = np.full(ctx.params.n, ctx.params.t + 3, dtype=np.int64)
        ct = ctx.encrypt(pk, m, np.random.default_rng(9))
        assert np.all(ctx.decrypt(sk, ct) == 3)


class TestHomomorphism:
    def test_add(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 10), _random_message(ctx, 11)
        rng = np.random.default_rng(12)
        ct = ctx.add(ctx.encrypt(pk, m1, rng), ctx.encrypt(pk, m2, rng))
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 + m2) % t)

    def test_sub(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 13), _random_message(ctx, 14)
        rng = np.random.default_rng(15)
        ct = ctx.sub(ctx.encrypt(pk, m1, rng), ctx.encrypt(pk, m2, rng))
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 - m2) % t)

    def test_negate(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 16)
        ct = ctx.negate(ctx.encrypt(pk, m, np.random.default_rng(17)))
        assert np.array_equal(ctx.decrypt(sk, ct), (-m) % ctx.params.t)

    def test_add_plain(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 18), _random_message(ctx, 19)
        ct = ctx.add_plain(ctx.encrypt(pk, m1, np.random.default_rng(20)), m2)
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 + m2) % t)

    def test_sub_plain(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 21), _random_message(ctx, 22)
        ct = ctx.sub_plain(ctx.encrypt(pk, m1, np.random.default_rng(23)), m2)
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 - m2) % t)

    def test_add_plain_adds_almost_no_noise(self, ctx, keys):
        # Message wrap mod t perturbs the phase by at most q mod t per
        # wrapped slot (Delta*t = q - (q mod t)); otherwise noise-free.
        sk, pk = keys
        m = _random_message(ctx, 24)
        ct = ctx.encrypt(pk, m, np.random.default_rng(25))
        before = ctx.noise_infinity(sk, ct)
        after = ctx.noise_infinity(sk, ctx.add_plain(ct, m))
        assert after <= before + ctx.params.q % ctx.params.t

    def test_zero_ciphertext(self, ctx, keys):
        sk, _ = keys
        assert np.all(ctx.decrypt(sk, ctx.zero_ciphertext()) == 0)


class TestMultiplyPlain:
    def _check_multiply(self, ctx, keys, backend, atol=0):
        sk, pk = keys
        t, n = ctx.params.t, ctx.params.n
        rng = np.random.default_rng(26)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
        expected = negacyclic_convolution_naive(m, w, modulus=t)
        if atol == 0:
            assert np.array_equal(out.astype(np.uint64), expected)
        else:
            diff = np.abs(out.astype(np.int64) - expected.astype(np.int64))
            diff = np.minimum(diff, t - diff)  # wrap-aware distance
            assert diff.max() <= atol

    def test_ntt_backend_exact(self, ctx, keys):
        self._check_multiply(ctx, keys, BatchedNttBackend())

    def test_fp_fft_backend_exact(self, ctx, keys):
        self._check_multiply(ctx, keys, fp_fft_backend())

    def test_flash_backend_close(self, ctx, keys):
        backend = flash_backend(ctx.params.n, stage_widths=24, twiddle_k=6)
        self._check_multiply(ctx, keys, backend, atol=2)

    def test_flash_backend_default_errors_confined_to_lsbs(self, ctx, keys):
        # k=5 twiddles (the paper's post-training setting) leave errors in
        # the low bits of the message -- tolerated at layer/network level,
        # not bit-exact.  Allow ~4 LSBs of the 10-bit toy plaintext.
        backend = flash_backend(ctx.params.n)
        self._check_multiply(ctx, keys, backend, atol=ctx.params.t // 64)

    def test_flash_backend_error_shrinks_with_k(self, ctx, keys):
        sk, pk = keys
        n, t = ctx.params.n, ctx.params.t
        rng = np.random.default_rng(33)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        expected = negacyclic_convolution_naive(m, w, modulus=t).astype(np.int64)
        worst = []
        for k in (2, 5, 12):
            backend = flash_backend(n, stage_widths=30, twiddle_k=k)
            out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
            diff = np.abs(out - expected)
            worst.append(int(np.minimum(diff, t - diff).max()))
        assert worst[2] <= worst[1] <= worst[0]
        assert worst[2] <= 1

    def test_noise_grows_with_weight_norm(self, ctx, keys):
        sk, pk = keys
        n = ctx.params.n
        m = _random_message(ctx, 27)
        ct = ctx.encrypt(pk, m, np.random.default_rng(28))
        small = np.zeros(n, dtype=np.int64)
        small[0] = 1
        big = np.zeros(n, dtype=np.int64)
        big[:16] = 7
        noise_small = ctx.noise_infinity(sk, ctx.multiply_plain(ct, small))
        noise_big = ctx.noise_infinity(sk, ctx.multiply_plain(ct, big))
        assert noise_big > noise_small

    def test_weight_length_validated(self, ctx, keys):
        _, pk = keys
        ct = ctx.encrypt(pk, _random_message(ctx, 29), np.random.default_rng(30))
        with pytest.raises(ValueError):
            ctx.multiply_plain(ct, np.ones(5))

    def test_fft_backend_spectrum_cache(self, ctx, keys):
        backend = fp_fft_backend()
        _, pk = keys
        n = ctx.params.n
        w = np.zeros(n)
        w[0] = 1
        ct = ctx.encrypt(pk, _random_message(ctx, 31), np.random.default_rng(32))
        ctx.multiply_plain(ct, w, backend)
        assert len(backend._spectrum_cache) == 1
        ctx.multiply_plain(ct, w, backend)
        assert len(backend._spectrum_cache) == 1
        backend.clear_cache()
        assert len(backend._spectrum_cache) == 0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_property_roundtrip(self, seed):
        local_ctx = BfvContext(toy_preset())
        rng = np.random.default_rng(seed)
        sk, pk = local_ctx.keygen(rng)
        m = rng.integers(0, local_ctx.params.t, size=local_ctx.params.n)
        ct = local_ctx.encrypt(pk, m, rng)
        assert np.array_equal(local_ctx.decrypt(sk, ct), m % local_ctx.params.t)


class TestCachedNttBackend:
    """Figure 1's stored-NTT-weights trade: the exact backend over a
    ``PlanCache`` with the ``on_full="error"`` memory-wall policy."""

    @staticmethod
    def _backend(capacity_bytes=None):
        return BatchedNttBackend(
            plan_cache=PlanCache(
                capacity_bytes=capacity_bytes, on_full="error",
                check_integrity=True,
            )
        )

    def test_exact_and_caches(self, ctx, keys):
        sk, pk = keys
        backend = self._backend()
        n, t = ctx.params.n, ctx.params.t
        rng = np.random.default_rng(40)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
        expected = negacyclic_convolution_naive(m, w, modulus=t)
        assert np.array_equal(out.astype(np.uint64), expected)
        # One miss for the first component, then hits (c1, repeats).
        assert backend.plan_cache.misses == 1
        ctx.multiply_plain(ct, w, backend)
        assert backend.plan_cache.hits >= 3

    def test_memory_accounting(self, ctx, keys):
        _, pk = keys
        backend = self._backend()
        n = ctx.params.n
        rng = np.random.default_rng(41)
        ct = ctx.encrypt(pk, _random_message(ctx, 42), rng)
        w = np.zeros(n, dtype=np.int64)
        w[0] = 1
        ctx.multiply_plain(ct, w, backend)
        # One cached polynomial: n words per RNS prime, 8 bytes each.
        primes = len(ctx.params.basis.primes)
        assert backend.plan_cache.cached_bytes == 8 * n * primes

    def test_capacity_enforced(self, ctx, keys):
        _, pk = keys
        backend = self._backend(capacity_bytes=100)
        rng = np.random.default_rng(43)
        ct = ctx.encrypt(pk, _random_message(ctx, 44), rng)
        w = np.zeros(ctx.params.n, dtype=np.int64)
        w[0] = 1
        with pytest.raises(MemoryError):
            ctx.multiply_plain(ct, w, backend)
