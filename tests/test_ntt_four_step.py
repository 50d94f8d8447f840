"""Conformance tier for the four-step GEMM NTT and the modmath kernels.

The reference is the radix-2 decimation-in-time butterfly NTT that the
four-step transform replaced (bit-reversal gather, ``log2 n`` stages, a
20-bit-split ``mulmod``, ``np.where`` add/sub), kept here verbatim with
its own kernels so it shares no arithmetic with the code under test.
Every output must be bit-identical to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt import NegacyclicNtt, find_ntt_primes, get_ntt, modmath
from repro.ntt.modmath import bit_reverse_indices, invmod, root_of_unity
from repro.ntt.ntt import FLOAT_EXACT_BITS
from repro.obs import trace as obs_trace

_SPLIT = 20
_MASK = np.uint64((1 << _SPLIT) - 1)


def _ref_mulmod(a, b, q):
    """The 20-bit split product: every intermediate below 2**63."""
    qa = np.uint64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    hi = (a * (b >> np.uint64(_SPLIT))) % qa
    return ((hi << np.uint64(_SPLIT)) + a * (b & _MASK)) % qa


def _ref_addmod(a, b, q):
    s = a + b
    return np.where(s >= np.uint64(q), s - np.uint64(q), s)


def _ref_submod(a, b, q):
    return np.where(a >= b, a - b, a + np.uint64(q) - b)


class ButterflyNtt:
    """Radix-2 butterfly negacyclic NTT (the pre-four-step kernel)."""

    def __init__(self, n, q):
        self.n, self.q = n, q
        self.stages = n.bit_length() - 1
        psi = root_of_unity(2 * n, q)
        omega = psi * psi % q
        self.psi = self._table(psi)
        self.psi_inv = self._table(invmod(psi, q))
        self.omega = self._table(omega)
        self.omega_inv = self._table(invmod(omega, q))
        self.n_inv = invmod(n, q)
        self.rev = bit_reverse_indices(n)

    def _table(self, base):
        out, acc = [], 1
        for _ in range(self.n):
            out.append(acc)
            acc = acc * base % self.q
        return np.array(out, dtype=np.uint64)

    def _cyclic(self, a, omega_pows):
        n, q = self.n, self.q
        lead = np.asarray(a).shape[:-1]
        x = np.asarray(a, dtype=np.uint64)[..., self.rev].reshape(-1)
        for s in range(1, self.stages + 1):
            m = 1 << s
            half = m >> 1
            w = omega_pows[:: n // m][:half]
            x = x.reshape(-1, m)
            lo = x[:, :half]
            hi = _ref_mulmod(x[:, half:], w, q)
            x = np.concatenate(
                [_ref_addmod(lo, hi, q), _ref_submod(lo, hi, q)], axis=1
            ).reshape(-1)
        return x.reshape(lead + (n,))

    def forward(self, a):
        return self._cyclic(_ref_mulmod(a, self.psi, self.q), self.omega)

    def inverse(self, a_hat):
        x = self._cyclic(a_hat, self.omega_inv)
        x = _ref_mulmod(x, self.n_inv, self.q)
        return _ref_mulmod(x, self.psi_inv, self.q)


def _smallest_prime(n):
    """The NTT prime for ``n`` at the smallest width that has one."""
    bits = (2 * n).bit_length()
    while True:
        try:
            return find_ntt_primes(bits, n)[0]
        except ValueError:
            bits += 1


SIZES = [1 << k for k in range(1, 14)]  # 2 .. 8192
CASES = [
    (n, q)
    for n in SIZES
    for q in (_smallest_prime(n), find_ntt_primes(40, n)[0])
]


def _inputs(n, q, shape, seed):
    rng = np.random.default_rng(seed)
    return {
        "zeros": np.zeros(shape, dtype=np.uint64),
        "q-1": np.full(shape, q - 1, dtype=np.uint64),
        "random": rng.integers(0, q, size=shape, dtype=np.uint64),
    }


CASE_IDS = [f"n{n}-{q.bit_length()}b" for n, q in CASES]


@pytest.mark.parametrize("n,q", CASES, ids=CASE_IDS)
class TestBitIdenticalToButterflies:
    def test_limb_bound_below_2_53(self, n, q):
        plan = NegacyclicNtt(n, q)
        assert plan.n1 * plan.n2 == n and plan.n1 >= plan.n2
        assert plan.limbs * plan.limb_bits >= q.bit_length()
        bound = max(plan.n1, plan.n2) * (1 << plan.limb_bits) * q
        assert bound < 1 << 53
        # One spare bit for Horner's acc * 2**b term.
        assert bound <= 1 << FLOAT_EXACT_BITS == 1 << 52

    @pytest.mark.parametrize("shape", ["1d", "rows", "grid"])
    def test_forward_inverse(self, n, q, shape):
        plan, ref = NegacyclicNtt(n, q), ButterflyNtt(n, q)
        dims = {"1d": (n,), "rows": (3, n), "grid": (2, 3, n)}[shape]
        for kind, a in _inputs(n, q, dims, seed=n).items():
            if shape == "1d":
                got_f, got_i = plan.forward(a), plan.inverse(a)
            else:
                got_f, got_i = plan.forward_batch(a), plan.inverse_batch(a)
            assert got_f.dtype == np.uint64 and got_f.shape == dims
            assert np.array_equal(got_f, ref.forward(a)), kind
            assert np.array_equal(got_i, ref.inverse(a)), kind

    def test_batch_rows_match_single_calls(self, n, q):
        plan = NegacyclicNtt(n, q)
        a = _inputs(n, q, (5, n), seed=1)["random"]
        batch = plan.forward_batch(a)
        for row, out in zip(a, batch):
            assert np.array_equal(plan.forward(row), out)
        assert np.array_equal(plan.inverse_batch(batch), a)

    def test_multiply_batch_broadcast_weight(self, n, q):
        plan, ref = NegacyclicNtt(n, q), ButterflyNtt(n, q)
        rng = np.random.default_rng(2)
        a = rng.integers(0, q, size=(4, n), dtype=np.uint64)
        w = rng.integers(0, q, size=n, dtype=np.uint64)
        w_rows = np.broadcast_to(w, a.shape)
        assert w_rows.strides[0] == 0
        expected = ref.inverse(
            _ref_mulmod(ref.forward(a), ref.forward(w), q)
        )
        assert np.array_equal(plan.multiply_batch(a, w_rows), expected)
        assert np.array_equal(plan.multiply_batch(a, w), expected)
        assert np.array_equal(plan.multiply(a[0], w), expected[0])


def test_tall_batch_spans_blocks():
    """Batches taller than one block give the per-row results."""
    (q,) = find_ntt_primes(30, 64)
    plan = NegacyclicNtt(64, q)
    rows = 3 * (4096 // 64) + 5
    rng = np.random.default_rng(3)
    a = rng.integers(0, q, size=(rows, 64), dtype=np.uint64)
    ref = ButterflyNtt(64, q)
    assert np.array_equal(plan.forward_batch(a), ref.forward(a))
    assert np.array_equal(plan.inverse_batch(a), ref.inverse(a))


def test_plan_bytes_counts_tables():
    (q,) = find_ntt_primes(30, 4096)
    plan = NegacyclicNtt(4096, q)
    matrices = 2 * (plan.n1 * plan.n1 + plan.n2 * plan.n2) * 8
    twiddles = 4 * plan.n * 8
    assert plan.plan_bytes == matrices + twiddles + 2 * plan.n * 8


def test_cold_plan_build_is_one_ntt_plan_span():
    # A (n, q) pair no other test builds, so the cache misses once.
    q = find_ntt_primes(23, 16, count=3)[2]
    tracer = obs_trace.tracer
    tracer.enable(capacity=64)
    tracer.clear()
    try:
        plan = get_ntt(16, q)
        assert get_ntt(16, q) is plan
        records = tracer.drain()
    finally:
        tracer.disable()
    assert [(r["name"], r["attrs"]) for r in records] == [
        ("ntt.plan", {"n": 16, "q": q})
    ]


# -- modmath kernels against Python-int % --------------------------------

_KERNELS = {
    "mulmod": (modmath.mulmod, lambda a, b, q: a * b % q),
    "addmod": (modmath.addmod, lambda a, b, q: (a + b) % q),
    "submod": (modmath.submod, lambda a, b, q: (a - b) % q),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernels_exhaustive_small_moduli(name):
    kernel, exact = _KERNELS[name]
    for q in range(2, 98):
        a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        a, b = a.ravel().astype(np.uint64), b.ravel().astype(np.uint64)
        got = kernel(a, b, q).tolist()
        assert got == [exact(int(x), int(y), q) for x, y in zip(a, b)], q


def test_negmod_exhaustive_small_moduli():
    for q in range(2, 98):
        a = np.arange(q, dtype=np.uint64)
        assert modmath.negmod(a, q).tolist() == [(-x) % q for x in range(q)]


_WIDE = {2: 3}
_WIDE.update({bits: find_ntt_primes(bits, 64)[0] for bits in (20, 30, 39, 40)})


@st.composite
def _operands(draw):
    q = _WIDE[draw(st.sampled_from(sorted(_WIDE)))]
    edge = st.sampled_from([0, 1, q - 2, q - 1])
    residue = st.one_of(edge, st.integers(0, q - 1))
    return q, draw(residue), draw(residue)


@given(_operands())
@settings(max_examples=300, deadline=None)
def test_kernels_match_python_ints_by_width(case):
    q, a, b = case
    av = np.array([a], dtype=np.uint64)
    for kernel, exact in _KERNELS.values():
        assert int(kernel(av, b, q)[0]) == exact(a, b, q)
    assert int(modmath.negmod(av, q)[0]) == (-a) % q
