"""Differential conformance tier for the batched runtime.

Every batched path must agree with the per-call reference it replaces:

* batched NTT results are **bit-identical** to the per-call pipeline over a
  randomized grid of convolution shapes and batch sizes;
* the batched approximate-FFT path is bit-identical to per-call
  ``hconv_flash`` / ``hconv_fft``, and its deviation from the exact
  convolution stays within the :mod:`repro.he.noise` error budget;
* the encrypted ``multiply_many`` backends match one-polynomial
  references word for word: the exact ``RingPoly`` product, and the
  per-call :class:`ApproxNegacyclic` pipeline with Python-int rounding;
* a call's result never depends on how its work was grouped: one
  ``multiply_many`` over a list equals the concatenated calls over any
  chunking of it, a banded ``conv2d_batch`` equals the per-item calls,
  and the weight-mult accounting is the same on a cold and a warm cache.
"""

import numpy as np
import pytest

from repro.core.hconv import hconv_fft, hconv_flash, hconv_ntt
from repro.encoding.conv_encoding import ConvShape, iter_row_bands
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
    SparseBatchedFftBackend,
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
        # The default (exact) backend against an explicit batched one.
        plain = HybridConvProtocol(params, shape, backend=None)
        batched = HybridConvProtocol(
            params, shape, backend=BatchedNttBackend()
        )
        r_plain = plain.run_batch(xs, w, np.random.default_rng(42))
        r_batch = batched.run_batch(xs, w, np.random.default_rng(42))
        for a, b in zip(r_plain, r_batch):
            assert np.array_equal(a.reconstructed, b.reconstructed)
            assert a.exact and b.exact


def make_backend(kind: str, basis: RnsBasis):
    cfg = ApproxFftConfig(
        n=basis.n // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
    )
    if kind == "ntt":
        return BatchedNttBackend()
    if kind == "fft":
        return BatchedFftBackend(weight_config=cfg)
    return SparseBatchedFftBackend(weight_config=cfg)


#: Banded geometry: a 16x11 padded plane exceeds n=64, so every pass runs
#: several row bands into one accumulator; the stride-2 case adds phases.
BAND_N = 64
BAND_CFG = ApproxFftConfig(
    n=BAND_N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)
BAND_SHAPES = [
    ConvShape(
        in_channels=3, height=14, width=9, out_channels=4,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    ),
    ConvShape(
        in_channels=2, height=13, width=10, out_channels=3,
        kernel_h=3, kernel_w=3, stride=2, padding=1,
    ),
]


class TestBatchComposition:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    @pytest.fixture(scope="class")
    def workload(self, basis):
        # 7 products over 3 distinct sparse weights: repeats share one
        # cached spectrum within a call and across chunked calls.
        rng = np.random.default_rng(31)
        distinct = []
        for k in (5, 9, 13):
            w = np.zeros(basis.n, dtype=np.int64)
            support = rng.choice(basis.n, size=k, replace=False)
            w[support] = rng.integers(-5, 6, size=k)
            distinct.append(w)
        polys = [
            RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, basis.n)))
            for _ in range(7)
        ]
        weights = [distinct[i % 3] for i in range(7)]
        return polys, weights

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ntt", "fft", "sparse"])
    def test_multiply_many_independent_of_chunking(
        self, basis, workload, kind, chunk
    ):
        polys, weights = workload
        whole = make_backend(kind, basis).multiply_many(polys, weights)
        chunked_backend = make_backend(kind, basis)
        chunked = []
        for start in range(0, len(polys), chunk):
            chunked.extend(
                chunked_backend.multiply_many(
                    polys[start : start + chunk],
                    weights[start : start + chunk],
                )
            )
        assert len(chunked) == len(whole)
        for got, expect in zip(chunked, whole):
            for a, b in zip(got.residues, expect.residues):
                assert np.array_equal(a, b), (kind, chunk)

    @pytest.mark.parametrize("mode", ["ntt", "fft", "flash", "sparse"])
    def test_banded_batch_equals_per_item_calls(self, mode):
        engine = BatchedHConvEngine(mode=mode, weight_config=BAND_CFG)
        rng = np.random.default_rng(41)
        for shape in BAND_SHAPES:
            padded = ConvShape(
                in_channels=shape.in_channels,
                height=shape.padded_height,
                width=shape.padded_width,
                out_channels=shape.out_channels,
                kernel_h=shape.kernel_h,
                kernel_w=shape.kernel_w,
            )
            if shape.stride == 1:
                assert len(iter_row_bands(padded, BAND_N)) > 1
            xs = random_batch(rng, shape, 3)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, BAND_N)
            batch_products = engine.last_stats.products
            singles, single_products = [], 0
            for x in xs:
                singles.append(engine.conv2d_batch(x[None], w, shape, BAND_N))
                single_products += engine.last_stats.products
            assert np.array_equal(got, np.concatenate(singles)), shape
            assert batch_products == single_products, shape

    @pytest.mark.parametrize("mode", ["flash", "sparse"])
    def test_weight_mult_stats_independent_of_cache_warmth(self, mode):
        """Mult accounting is charged per requested transform, never per
        cache state: a warm rerun reports what the cold run did."""
        shape = BAND_SHAPES[0]
        rng = np.random.default_rng(43)
        xs = random_batch(rng, shape, 2)
        w = random_kernel(rng, shape)
        engine = BatchedHConvEngine(mode=mode, weight_config=BAND_CFG)
        counts = []
        for _ in range(2):
            engine.conv2d_batch(xs, w, shape, BAND_N)
            st = engine.last_stats
            counts.append(
                (
                    st.weight_transforms,
                    st.weight_mults_realized,
                    st.weight_mults_dense,
                    st.weight_mults_model,
                )
            )
        assert engine.plan_cache.hits > 0
        assert counts[0] == counts[1]
        assert counts[0][1] > 0


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
            params, self.SHAPE, backend=BatchedNttBackend()
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
