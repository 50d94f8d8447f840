"""RNS-native BFV client arithmetic against Python-int reference formulas.

The client (encrypt, decrypt, noise measurement) and the FFT backend's
lift/reduce run on exact uint64/int64 residue arithmetic.  Every check
here compares them with the big-integer formulas they replaced, which are
kept below as the reference: CRT by ``sum r_i * q_hat_inv_i * q_hat_i``,
round-half-away ``(2a + b) // 2b`` division, and the per-coefficient
noise loop.
"""

import math

import numpy as np
import pytest

from repro.core import Flash
from repro.core.config import FlashConfig
from repro.encoding.conv_encoding import ConvShape
from repro.he import bfv as bfv_module
from repro.he import (
    BfvContext,
    BfvParameters,
    Ciphertext,
    cham_preset,
    cheetah_preset,
    toy_preset,
    uniform_poly,
)
from repro.ntt.rns import RnsBasis
from repro.obs import trace as obs_trace
from repro.runtime.engine import (
    BatchedFftBackend,
    _reduce_float_row,
    _round_rows_exact,
)

# ---------------------------------------------------------------------------
# Python-int reference formulas
# ---------------------------------------------------------------------------


def ref_from_rns(basis, residues):
    """CRT into [0, q) on Python ints."""
    q = basis.modulus
    out = []
    for i in range(len(residues[0])):
        v = 0
        for res, p in zip(residues, basis.primes):
            q_hat = q // p
            v += (int(res[i]) * pow(q_hat % p, -1, p) % p) * q_hat
        out.append(v % q)
    return out


def ref_centered(basis, residues):
    q = basis.modulus
    return [v - q if v > q // 2 else v for v in ref_from_rns(basis, residues)]


def ref_round_div(a, b):
    """Round-to-nearest integer division, ties away from zero (b > 0)."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def ref_phase(ctx, sk, ct):
    return ref_centered(ctx.basis, (ct.c0 + ct.c1 * sk.s).residues)


def ref_decrypt(ctx, phase):
    q, t = ctx.params.q, ctx.params.t
    return [ref_round_div(v * t, q) % t for v in phase]


def ref_noise_infinity(ctx, phase, message):
    q, delta = ctx.params.q, ctx.params.delta
    worst = 0
    for v, m in zip(phase, message):
        residual = (v - delta * m) % q
        if residual > q // 2:
            residual -= q
        worst = max(worst, abs(residual))
    return worst


def ref_budget(ctx, noise):
    ceiling = ctx.params.noise_ceiling
    if noise == 0:
        return float(math.log2(ceiling))
    return float(math.log2(ceiling) - math.log2(noise))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

PARAMS = {
    "cheetah": lambda: cheetah_preset(4096),
    "cham": lambda: cham_preset(4096),
    "toy": lambda: toy_preset(64),
    # Three primes below 2**62: exact Garner with two mixed-radix digits.
    "rns3-int64": lambda: BfvParameters(
        n=64, plain_modulus=1 << 10, q_bits=(20, 20, 20)
    ),
    # Three primes above 2**62: the Python big-int path.
    "rns3-bigint": lambda: BfvParameters(
        n=64, plain_modulus=1 << 10, q_bits=(30, 30, 30)
    ),
}

_CACHE = {}


def _setup(name):
    if name not in _CACHE:
        params = PARAMS[name]()
        ctx = BfvContext(params)
        rng = np.random.default_rng(1234)
        sk, _ = ctx.keygen(rng)
        n, t = params.n, params.t
        fresh = ctx.encrypt_symmetric(
            sk, rng.integers(0, t, size=n), rng
        )
        product = ctx.multiply_plain(fresh, rng.integers(-8, 8, size=n))
        garbage = Ciphertext(uniform_poly(params.basis, rng), fresh.c1)
        cts = {"fresh": fresh, "multiply_plain": product, "garbage": garbage}
        _CACHE[name] = (ctx, sk, cts)
    return _CACHE[name]


@pytest.fixture(params=sorted(PARAMS))
def setup(request):
    return _setup(request.param)


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------


class TestCrt:
    def test_exact_int64_flag(self):
        assert cheetah_preset(4096).basis.exact_int64
        assert cham_preset(4096).basis.exact_int64
        assert toy_preset(64).basis.exact_int64
        assert not PARAMS["rns3-bigint"]().basis.exact_int64

    def test_from_rns_and_centered_match_reference(self, setup):
        ctx, _, _ = setup
        basis = ctx.basis
        rng = np.random.default_rng(5)
        residues = [
            rng.integers(0, p, size=basis.n, dtype=np.uint64)
            for p in basis.primes
        ]
        # Edges: 0, q-1 and the centering boundary (q-1)/2, (q+1)/2.
        q = basis.modulus
        edges = [0, q - 1, q // 2, q // 2 + 1]
        for i, v in enumerate(edges):
            for res, p in zip(residues, basis.primes):
                res[i] = v % p
        assert [int(v) for v in basis.from_rns(residues)] == ref_from_rns(
            basis, residues
        )
        expected = ref_centered(basis, residues)
        assert [int(v) for v in basis.centered(residues)] == expected
        if basis.exact_int64:
            got = basis.centered_int64(residues)
            assert got.dtype == np.int64
            assert got.tolist() == expected
        else:
            with pytest.raises(OverflowError):
                basis.centered_int64(residues)

    def test_centered_int64_batched_shape(self):
        basis = cheetah_preset(4096).basis
        rng = np.random.default_rng(8)
        stack = [
            rng.integers(0, p, size=(3, basis.n), dtype=np.uint64)
            for p in basis.primes
        ]
        got = basis.centered_int64(stack)
        assert got.shape == (3, basis.n)
        for row in range(3):
            rows = [r[row] for r in stack]
            assert got[row].tolist() == ref_centered(basis, rows)

    def test_single_prime_basis_is_identity_then_centered(self):
        basis = RnsBasis([cham_preset(64).basis.primes[0]], 64)
        p = basis.primes[0]
        r = np.arange(64, dtype=np.uint64) * np.uint64(p // 64)
        assert basis.centered_int64([r]).tolist() == ref_centered(basis, [r])


# ---------------------------------------------------------------------------
# Decryption and noise
# ---------------------------------------------------------------------------


class TestDecryptAndNoise:
    @pytest.mark.parametrize("which", ["fresh", "multiply_plain", "garbage"])
    def test_matches_reference(self, setup, which):
        ctx, sk, cts = setup
        ct = cts[which]
        phase = ref_phase(ctx, sk, ct)
        message = ref_decrypt(ctx, phase)
        noise = ref_noise_infinity(ctx, phase, message)
        assert ctx.decrypt(sk, ct).tolist() == message
        assert ctx.noise_infinity(sk, ct) == noise
        assert ctx.noise_budget(sk, ct) == ref_budget(ctx, noise)
        m, budget = ctx.decrypt_with_budget(sk, ct)
        assert m.dtype == np.int64
        assert m.tolist() == message
        assert budget == ref_budget(ctx, noise)

    def test_decrypt_with_budget_is_one_he_decrypt_span(self):
        ctx, sk, cts = _setup("toy")
        tracer = obs_trace.tracer
        tracer.enable(capacity=64)
        tracer.clear()
        try:
            ctx.decrypt_with_budget(sk, cts["fresh"])
            records = tracer.drain()
        finally:
            tracer.disable()
        assert [(r["name"], r["attrs"].get("n")) for r in records] == [
            ("he.decrypt", 1)
        ]

    def test_garbage_exhausts_the_budget(self, setup):
        # A uniformly random phase rounds to *some* message, so its
        # measured noise sits right at the q/2t ceiling.
        ctx, sk, cts = setup
        assert ctx.noise_budget(sk, cts["garbage"]) < 0.1
        assert ctx.noise_budget(sk, cts["fresh"]) > 10

    def test_phase_extremes(self):
        # Phases at +-(q-1)/2 and next to every rounding boundary.
        ctx, sk, _ = _setup("cheetah")
        q, t, n = ctx.params.q, ctx.params.t, ctx.params.n
        rng = np.random.default_rng(3)
        k = rng.integers(-t // 2, t // 2, size=n)
        values = [(2 * int(ki) + 1) * q // (2 * t) + int(d)
                  for ki, d in zip(k, rng.integers(-2, 3, size=n))]
        values[:2] = [(q - 1) // 2, -(q - 1) // 2]
        v = np.array(values, dtype=np.int64)
        assert ctx._scale_round(v).tolist() == [
            ref_round_div(int(x) * t, q) % t for x in values
        ]

    def test_encode_residues(self, setup):
        ctx, _, _ = setup
        t, delta = ctx.params.t, ctx.params.delta
        rng = np.random.default_rng(9)
        m = rng.integers(-3 * t, 3 * t, size=ctx.params.n)
        got = ctx._encode(m)
        for res, p in zip(got.residues, ctx.basis.primes):
            assert res.dtype == np.uint64
            assert res.tolist() == [delta * (int(v) % t) % p for v in m]
        # Unsigned and object inputs reduce the same way.
        assert ctx._encode((m % t).astype(np.uint64)) == got
        assert ctx._encode(np.array([int(v) for v in m], dtype=object)) == got

    def test_secret_key_spectrum_products(self, setup):
        ctx, sk, cts = setup
        a = cts["fresh"].c1
        got = ctx.basis.mul_spectrum(a.residues, sk.spectrum)
        for x, y in zip(got, (a * sk.s).residues):
            assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# FFT backend lift/reduce and rounding helpers
# ---------------------------------------------------------------------------


class TestFftLiftReduce:
    @pytest.mark.parametrize("name", ["cheetah", "toy", "rns3-bigint"])
    def test_products_above_2_63(self, name):
        ctx, _, cts = _setup(name)
        basis, n, q = ctx.basis, ctx.params.n, ctx.params.q
        rng = np.random.default_rng(21)
        w = rng.integers(-(1 << 20), 1 << 20, size=n)
        poly = cts["fresh"].c0
        backend = BatchedFftBackend()
        (out,) = backend.multiply_many([poly], [w])
        # Reference: float() of the big-int centered lift, then
        # int(round(.)) % q and per-prime reduction on Python ints.
        pipe = backend.pipeline(n)
        lift = np.array(
            [float(v) for v in ref_centered(basis, poly.residues)]
        )
        (spec,) = backend.weight_spectra(n, [w])
        products = pipe.multiply_spectra_batch(
            spec.values[None], pipe.activation_forward_batch(lift[None])
        )[0]
        assert np.max(np.abs(products)) > 2.0**63
        ints = [int(round(float(v))) % q for v in products]
        for res, p in zip(out.residues, basis.primes):
            assert res.tolist() == [v % p for v in ints]

    def test_reduce_float_row_edges(self):
        primes = cheetah_preset(64).basis.primes
        row = np.array(
            [0.0, -0.0, 0.5, 1.5, -0.5, -2.5, 2.0**53 + 2, -(2.0**62),
             2.0**63, -(2.0**63), 2.0**70 + 2.0**20, -(2.0**90), 1e300],
        )
        got = _reduce_float_row(row, primes)
        for res, p in zip(got, primes):
            assert res.dtype == np.uint64
            assert res.tolist() == [int(round(float(v))) % p for v in row]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_reduce_float_row_rejects_non_finite(self, bad):
        with pytest.raises(OverflowError):
            _reduce_float_row(np.array([1.0, bad]), (97,))


class TestRoundRowsExact:
    def test_above_2_53_is_exact(self):
        rows = np.array(
            [[2.0**53 + 2, -(2.0**53) - 2, 2.0**62 + 2.0**40, 0.5],
             [1.5, -2.5, 2.0**63 - 1024, -(2.0**63)]]
        )
        got = _round_rows_exact(rows)
        assert got.dtype == np.int64
        assert got.tolist() == [
            [int(round(float(v))) for v in row] for row in rows
        ]

    @pytest.mark.parametrize("bad", [2.0**63, -(2.0**63) - 2048, 2.0**70, np.inf])
    def test_overflow_raises(self, bad):
        with pytest.raises(OverflowError):
            _round_rows_exact(np.array([[1.0, bad]]))

    def test_empty(self):
        assert _round_rows_exact(np.zeros((0, 4))).shape == (0, 4)


# ---------------------------------------------------------------------------
# Protocol level
# ---------------------------------------------------------------------------


def test_min_noise_budget_golden():
    """Budgets recorded from the Python-int implementation (cheetah, N=4096)."""
    shape = ConvShape(in_channels=4, height=6, width=6, out_channels=2,
                      kernel_h=3, kernel_w=3, stride=1, padding=1)
    rng = np.random.default_rng(2024)
    x = rng.integers(-8, 8, size=(4, 6, 6))
    w = rng.integers(-8, 8, size=(2, 4, 3, 3))
    flash = Flash()
    exact = flash.private_conv2d(x, w, shape, np.random.default_rng(99), exact=True)
    assert exact.stats.min_noise_budget == 10.87749002007375
    assert exact.max_error == 0
    approx = flash.private_conv2d(x, w, shape, np.random.default_rng(99))
    assert approx.stats.min_noise_budget == 6.930842744168331e-05


def _raise(*args, **kwargs):
    raise AssertionError("Python big-int path used on an int64-exact basis")


def test_hot_path_uses_no_big_int_conversion(monkeypatch):
    monkeypatch.setattr(RnsBasis, "from_rns", _raise)
    monkeypatch.setattr(RnsBasis, "centered", _raise)
    monkeypatch.setattr(bfv_module, "_round_div", _raise)
    shape = ConvShape(in_channels=2, height=4, width=4, out_channels=2,
                      kernel_h=3, kernel_w=3, stride=1, padding=1)
    rng = np.random.default_rng(6)
    x = rng.integers(-4, 4, size=(2, 2, 4, 4))
    w = rng.integers(-3, 4, size=(2, 2, 3, 3))
    flash = Flash(FlashConfig(params=toy_preset(64)))
    for mode in (dict(exact=True), dict(), dict(sparse=True)):
        single = flash.private_conv2d(x[0], w, shape, rng, **mode)
        assert np.isfinite(single.stats.min_noise_budget)
        batch = flash.private_conv2d(x, w, shape, rng, batch=True, **mode)
        assert len(batch) == 2
    lin = flash.private_linear(
        rng.integers(-4, 4, size=16), rng.integers(-3, 4, size=(4, 16)), rng
    )
    assert np.isfinite(lin.stats.min_noise_budget)
