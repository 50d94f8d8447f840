"""Differential conformance tier for the batched runtime.

Every batched path must agree with the per-call reference it replaces:

* batched NTT results are **bit-identical** to the per-call pipeline over a
  randomized grid of convolution shapes and batch sizes;
* the batched approximate-FFT path is bit-identical to per-call
  ``hconv_flash`` / ``hconv_fft``, and its deviation from the exact
  convolution stays within the :mod:`repro.he.noise` error budget;
* the encrypted ``multiply_many`` backends match one-polynomial
  references word for word: the exact ``RingPoly`` product, and the
  per-call :class:`ApproxNegacyclic` pipeline with Python-int rounding.
"""

import numpy as np
import pytest

from repro.core.hconv import hconv_fft, hconv_flash, hconv_ntt
from repro.encoding.conv_encoding import ConvShape
from repro.encoding.plain_eval import conv2d_direct, conv2d_via_polynomials
from repro.fftcore.approx_pipeline import ApproxNegacyclic
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.noise import fft_error_tolerance
from repro.he.params import toy_preset
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.protocol.hybrid import HybridConvProtocol, make_session
from repro.runtime import (
    BatchedFftBackend,
    BatchedHConvEngine,
    BatchedNttBackend,
)

N = 128
FLASH_CFG = ApproxFftConfig(
    n=N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)


def per_call_fft_product(
    pipe: ApproxNegacyclic, poly: RingPoly, weights
) -> RingPoly:
    """One-polynomial approximate product: the per-call pipeline methods on
    the centered lift, then exact Python-int round-and-reduce mod q."""
    basis = poly.basis
    q = basis.modulus
    w_spec = pipe.weight_forward(np.asarray(weights, dtype=np.int64))
    lift = np.array([float(v) for v in poly.to_centered()], dtype=np.float64)
    product = pipe.multiply_spectra(w_spec, pipe.activation_forward(lift))
    ints = [int(round(float(v))) % q for v in product]
    return RingPoly(basis, basis.to_rns(np.array(ints, dtype=object)))


def random_shape_grid(seed: int, count: int):
    """Randomized ConvShape grid: channels, kernel, stride and padding."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        size = int(rng.integers(max(kh, kw), 8))
        shapes.append(
            ConvShape(
                in_channels=int(rng.integers(1, 4)),
                height=size,
                width=size,
                out_channels=int(rng.integers(1, 4)),
                kernel_h=kh,
                kernel_w=kw,
                stride=int(rng.choice([1, 2])),
                padding=int(rng.integers(0, 2)),
            )
        )
    return shapes


def random_batch(rng, shape: ConvShape, batch: int) -> np.ndarray:
    return rng.integers(
        -7, 8, size=(batch, shape.in_channels, shape.height, shape.width)
    )


def random_kernel(rng, shape: ConvShape) -> np.ndarray:
    return rng.integers(
        -4, 5,
        size=(
            shape.out_channels, shape.in_channels,
            shape.kernel_h, shape.kernel_w,
        ),
    )


class TestClearDomainDifferential:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_batched_ntt_bit_identical_to_per_call(self, batch):
        engine = BatchedHConvEngine(mode="ntt")
        rng = np.random.default_rng(batch)
        for shape in random_shape_grid(seed=11, count=6):
            xs = random_batch(rng, shape, batch)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            ref = np.stack([hconv_ntt(x, w, shape, N) for x in xs])
            assert np.array_equal(got, ref), shape

    @pytest.mark.parametrize("batch", [1, 4])
    def test_batched_fft_bit_identical_to_per_call(self, batch):
        engine = BatchedHConvEngine(mode="fft")
        rng = np.random.default_rng(batch + 10)
        for shape in random_shape_grid(seed=13, count=4):
            xs = random_batch(rng, shape, batch)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            ref = np.stack([hconv_fft(x, w, shape, N) for x in xs])
            assert np.array_equal(got, ref), shape

    @pytest.mark.parametrize("batch", [1, 4])
    def test_batched_flash_bit_identical_to_per_call(self, batch):
        engine = BatchedHConvEngine(mode="flash", weight_config=FLASH_CFG)
        rng = np.random.default_rng(batch + 20)
        for shape in random_shape_grid(seed=17, count=4):
            xs = random_batch(rng, shape, batch)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            ref = np.stack(
                [hconv_flash(x, w, shape, N, FLASH_CFG) for x in xs]
            )
            assert np.array_equal(got, ref), shape

    def test_batched_flash_error_within_noise_budget(self):
        """Approximate-FFT deviation from the exact convolution stays
        within the tolerance the HE noise budget can absorb."""
        params = toy_preset(n=N, share_bits=16)
        tol = fft_error_tolerance(params)
        assert tol >= 1.0  # the budget leaves real headroom at this preset
        engine = BatchedHConvEngine(mode="flash", weight_config=FLASH_CFG)
        rng = np.random.default_rng(5)
        for shape in random_shape_grid(seed=19, count=4):
            xs = random_batch(rng, shape, 3)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            exact = np.stack(
                [
                    conv2d_via_polynomials(x, w, shape, N)
                    for x in xs.astype(np.int64)
                ]
            )
            assert int(np.abs(got - exact).max()) <= tol, shape


class TestEncryptedDifferential:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    def test_batched_ntt_backend_matches_serial(self, basis):
        rng = np.random.default_rng(0)
        batched = BatchedNttBackend()
        polys, weights = [], []
        for _ in range(6):
            coeffs = rng.integers(0, 1 << 62, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            weights.append(rng.integers(-5, 6, size=basis.n))
        outs = batched.multiply_many(polys, weights)
        for poly, w, out in zip(polys, weights, outs):
            ref = poly * RingPoly.from_signed(basis, w)
            for a, b in zip(out.residues, ref.residues):
                assert np.array_equal(a, b)

    def test_batched_fft_backend_matches_serial(self, basis):
        rng = np.random.default_rng(1)
        cfg = ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )
        pipe = ApproxNegacyclic(basis.n, cfg)
        batched = BatchedFftBackend(weight_config=cfg)
        polys, weights = [], []
        for _ in range(5):
            coeffs = rng.integers(0, 1 << 20, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            weights.append(rng.integers(-5, 6, size=basis.n))
        outs = batched.multiply_many(polys, weights)
        for poly, w, out in zip(polys, weights, outs):
            ref = per_call_fft_product(pipe, poly, w)
            for a, b in zip(out.residues, ref.residues):
                assert np.array_equal(a, b)

    def test_run_batch_matches_serial_fallback(self):
        params = toy_preset()
        shape = ConvShape(
            in_channels=2, height=6, width=6, out_channels=3,
            kernel_h=3, kernel_w=3, stride=2, padding=1,
        )
        rng = np.random.default_rng(7)
        w = rng.integers(-3, 4, size=(3, 2, 3, 3))
        xs = rng.integers(-7, 8, size=(3, 2, 6, 6))
        # The default (exact) backend against a pooled one.
        plain = HybridConvProtocol(params, shape, backend=None)
        batched = HybridConvProtocol(
            params, shape, backend=BatchedNttBackend(max_workers=2)
        )
        r_plain = plain.run_batch(xs, w, np.random.default_rng(42))
        r_batch = batched.run_batch(xs, w, np.random.default_rng(42))
        for a, b in zip(r_plain, r_batch):
            assert np.array_equal(a.reconstructed, b.reconstructed)
            assert a.exact and b.exact


@pytest.mark.slow
class TestEncryptedRoundTripSlow:
    """Nightly-tier round trip: share -> encrypt -> batched HConv ->
    decrypt -> reconstruct, against the exact plaintext convolution."""

    SHAPE = ConvShape(
        in_channels=2, height=10, width=10, out_channels=4,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )

    def _data(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(-4, 5, size=(4, 2, 10, 10))
        w = rng.integers(-3, 4, size=(4, 2, 3, 3))
        return xs, w

    def test_ntt_backend_round_trip_exact(self):
        params = toy_preset(n=256, share_bits=17)
        xs, w = self._data()
        protocol = HybridConvProtocol(
            params, self.SHAPE, backend=BatchedNttBackend(max_workers=2)
        )
        session = make_session(params, np.random.default_rng(9))
        results = protocol.run_batch(
            xs, w, np.random.default_rng(10), session=session
        )
        for x, result in zip(xs, results):
            expected = conv2d_direct(x, w, stride=1, padding=1)
            assert np.array_equal(result.expected, expected)
            assert result.exact
            assert result.stats.min_noise_budget > 0

    def test_flash_backend_round_trip_small_error(self):
        # The encrypted approximate path transforms full-range (~60-bit)
        # ciphertext coefficients, so -- as in the per-call protocol tests
        # -- exact twiddles keep the error to at most one LSB.
        params = toy_preset(n=256, share_bits=17)
        cfg = ApproxFftConfig(
            n=params.n // 2, stage_widths=30, twiddle_k=0
        )
        xs, w = self._data()
        protocol = HybridConvProtocol(
            params, self.SHAPE, backend=BatchedFftBackend(weight_config=cfg)
        )
        session = make_session(params, np.random.default_rng(9))
        results = protocol.run_batch(
            xs, w, np.random.default_rng(10), session=session
        )
        for result in results:
            assert result.max_error <= 1
