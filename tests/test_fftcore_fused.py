"""Conformance of the fused in-place FLASH datapath kernels.

The fixed-point weight transform (:class:`FixedPointFft`), the float64
FP-unit transform (:func:`fft_dit_batch`) and the batched weight-spectrum
misses of the runtime are checked against the straightforward
implementations they replaced, which are kept here as references:

* :func:`ref_quantize_complex` -- two-pass ``quantize(re) + 1j *
  quantize(im)`` with ``rint(x / ulp)``;
* :func:`ref_fixed_point` -- the out-of-place butterfly loop that
  quantizes ``(lo +- w * hi) * 0.5`` after every stage;
* :func:`ref_fft_dit_batch` -- the out-of-place float64 butterfly loop.

The fused kernels equal their references under ``np.array_equal`` (the
fixed-point path may differ only in the sign of an exact zero) and
byte-for-byte on the FP path.
"""

import numpy as np
import pytest

from repro.fftcore import ApproxFftConfig, ApproxNegacyclic, FixedPointFft
from repro.fftcore.fixed_point import FxpFormat
from repro.fftcore.reference import (
    BLOCK_ELEMS,
    fft_dit,
    fft_dit_batch,
    stage_twiddles,
)
from repro.fftcore.twiddle_quant import TwiddleRom
from repro.ntt.modmath import bit_reverse_indices
from repro.runtime import BatchedHConvEngine, PlanCache
from repro.runtime.engine import batched_weight_spectra, fft_pipeline
from repro.encoding import ConvShape, conv2d_direct


# ---------------------------------------------------------------------------
# References (the implementations the fused kernels replaced)
# ---------------------------------------------------------------------------


def ref_quantize(fmt: FxpFormat, x) -> np.ndarray:
    scaled = np.rint(np.asarray(x, dtype=np.float64) / fmt.ulp)
    limit = 2.0**fmt.frac_bits
    return np.clip(scaled, -limit, limit - 1) * fmt.ulp


def ref_quantize_complex(fmt: FxpFormat, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    return ref_quantize(fmt, x.real) + 1j * ref_quantize(fmt, x.imag)


def ref_stage_twiddles(cfg: ApproxFftConfig, sign: int):
    if cfg.twiddle_k:
        rom = TwiddleRom(cfg.n, cfg.twiddle_k, cfg.twiddle_max_shift, sign)
        return [rom.stage_values(s) for s in range(1, cfg.stages + 1)]
    return [stage_twiddles(cfg.n, s, sign) for s in range(1, cfg.stages + 1)]


def ref_fixed_point(cfg: ApproxFftConfig, sign: int, x, twiddles=None):
    """Out-of-place fixed-point DIT transform of one length-n row."""
    twiddles = twiddles or ref_stage_twiddles(cfg, sign)
    x = np.asarray(x, dtype=np.complex128)
    if cfg.input_width is not None:
        x = ref_quantize_complex(FxpFormat(cfg.input_width), x)
    out = x[bit_reverse_indices(cfg.n)].copy()
    for s in range(1, cfg.stages + 1):
        m = 1 << s
        half = m >> 1
        w = twiddles[s - 1]
        out = out.reshape(-1, m)
        lo = out[:, :half].copy()
        hi = out[:, half:] * w
        out[:, :half] = (lo + hi) * 0.5
        out[:, half:] = (lo - hi) * 0.5
        out = out.reshape(-1)
        out = ref_quantize_complex(FxpFormat(cfg.stage_widths[s - 1]), out)
    return out


def ref_fft_dit_batch(x, sign: int = -1) -> np.ndarray:
    """Out-of-place float64 DIT transform over the last axis."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    lead = x.shape[:-1]
    out = x[..., bit_reverse_indices(n)].reshape(-1)
    for s in range(1, n.bit_length()):
        m = 1 << s
        half = m >> 1
        w = stage_twiddles(n, s, sign)
        out = out.reshape(-1, m)
        lo = out[:, :half].copy()
        hi = out[:, half:] * w
        out[:, :half] = lo + hi
        out[:, half:] = lo - hi
        out = out.reshape(-1)
    return out.reshape(lead + (n,))


def same_up_to_zero_sign(a, b) -> bool:
    """Byte equality after mapping -0.0 to +0.0 (stricter than array_equal:
    it also pins dtype and layout)."""
    a = np.asarray(a) + 0.0
    b = np.asarray(b) + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def edge_rows(n: int, ulp: float, rng) -> np.ndarray:
    """Rows: random, all zeros, +-(1 - ulp) and -1 (the range edges)."""
    top = 1.0 - ulp
    edge = np.where(np.arange(n) % 2 == 0, top, -1.0)
    return np.stack(
        [
            rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n),
            np.zeros(n, dtype=np.complex128),
            edge + 1j * edge[::-1],
            -top + 1j * np.full(n, top),
        ]
    )


def widths_of(kind: str, stages: int):
    if kind == "uniform27":
        return 27
    if kind == "mixed":
        return [12 + (5 * s) % 17 for s in range(stages)]
    return [2 + s % 2 for s in range(stages)]  # 2-3 bits: saturates


def _cases():
    cases = []
    for n in (2, 4, 8, 32, 256):
        for kind in ("uniform27", "mixed", "saturating"):
            for k in (0, 5):
                for iw in (None, 10):
                    for sign in (-1, 1):
                        cases.append((n, kind, k, iw, sign))
    cases += [
        (4096, "uniform27", 5, None, 1),
        (4096, "mixed", 0, 10, -1),
        (4096, "saturating", 5, None, -1),
        (4096, "uniform27", 0, None, 1),
    ]
    return cases


# ---------------------------------------------------------------------------
# Fixed-point quantizer and transform
# ---------------------------------------------------------------------------


class TestQuantizeComplex:
    @pytest.mark.parametrize("bits", [2, 3, 8, 27, 40])
    def test_matches_two_pass_reference(self, bits):
        fmt = FxpFormat(bits)
        rng = np.random.default_rng(bits)
        x = np.concatenate(
            [
                edge_rows(64, fmt.ulp, rng).reshape(-1),
                (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 4,
                np.array([0.5 * fmt.ulp, -0.5 * fmt.ulp, 1.5 * fmt.ulp]),
            ]
        )
        before = x.copy()
        out = fmt.quantize_complex(x)
        assert np.array_equal(x, before)  # input untouched
        assert np.array_equal(out, ref_quantize_complex(fmt, x))
        assert same_up_to_zero_sign(out, ref_quantize_complex(fmt, x))

    def test_non_contiguous_and_2d_inputs(self):
        fmt = FxpFormat(9)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        view = x[:, ::3]
        assert np.array_equal(
            fmt.quantize_complex(view), ref_quantize_complex(fmt, view)
        )

    def test_real_quantize_matches_reference(self):
        fmt = FxpFormat(5)
        x = np.linspace(-3, 3, 101)
        assert np.array_equal(fmt.quantize(x), ref_quantize(fmt, x))


class TestFixedPointKernel:
    @pytest.mark.parametrize("n,kind,k,iw,sign", _cases())
    def test_matches_out_of_place_reference(self, n, kind, k, iw, sign):
        stages = n.bit_length() - 1
        cfg = ApproxFftConfig(
            n=n,
            stage_widths=widths_of(kind, stages),
            twiddle_k=k,
            twiddle_max_shift=16,
            input_width=iw,
        )
        fxp = FixedPointFft(cfg, sign=sign)
        rng = np.random.default_rng([n, k, sign + 1])
        rows = edge_rows(n, FxpFormat(iw or 27).ulp, rng)
        twiddles = ref_stage_twiddles(cfg, sign)
        refs = np.stack([ref_fixed_point(cfg, sign, r, twiddles) for r in rows])
        batch = fxp.batch(rows)
        assert np.array_equal(batch, refs)
        assert same_up_to_zero_sign(batch, refs)
        for r, ref in zip(rows, refs):
            assert np.array_equal(fxp(r), ref)  # 1-D: a batch of one
        cube = fxp.batch(rows.reshape(2, 2, n))
        assert cube.shape == (2, 2, n)
        assert np.array_equal(cube.reshape(4, n), refs)

    @pytest.mark.parametrize("delta", [-1, 0, 1, BLOCK_ELEMS // 2048 + 1])
    def test_rows_across_a_block_boundary(self, delta):
        n = 2048
        cfg = ApproxFftConfig(n=n, stage_widths=27, twiddle_k=5)
        fxp = FixedPointFft(cfg, sign=1)
        count = BLOCK_ELEMS // n + delta
        rng = np.random.default_rng(count)
        rows = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
        twiddles = ref_stage_twiddles(cfg, 1)
        refs = np.stack([ref_fixed_point(cfg, 1, r, twiddles) for r in rows])
        assert np.array_equal(fxp.batch(rows), refs)

    def test_input_is_not_modified(self):
        cfg = ApproxFftConfig(n=16, stage_widths=6, input_width=4)
        x = np.linspace(-0.9, 0.9, 16) * (1 + 0.5j)
        before = x.copy()
        FixedPointFft(cfg).batch(x[None])
        FixedPointFft(cfg)(x)
        assert x.tobytes() == before.tobytes()

    def test_call_rejects_wrong_shape(self):
        fxp = FixedPointFft(ApproxFftConfig(n=8, stage_widths=10))
        with pytest.raises(ValueError, match="expected shape"):
            fxp(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="last axis"):
            fxp.batch(np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# FP-unit transform (must stay byte-identical)
# ---------------------------------------------------------------------------


class TestFftDitBytes:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 512, 4096])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_byte_identical_to_reference(self, n, sign):
        rng = np.random.default_rng([n, sign + 1])
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        x[1] = 0.0
        x[2, ::2] = -0.0
        ref = ref_fft_dit_batch(x, sign)
        assert fft_dit_batch(x, sign).tobytes() == ref.tobytes()
        assert fft_dit(x[0], sign).tobytes() == ref[0].tobytes()
        cube = fft_dit_batch(x[:2].reshape(2, 1, n), sign)
        assert cube.shape == (2, 1, n)
        assert cube.tobytes() == ref[:2].tobytes()

    @pytest.mark.parametrize("delta", [-1, 0, 1, BLOCK_ELEMS // 1024 + 3])
    def test_rows_across_a_block_boundary(self, delta):
        n = 1024
        count = BLOCK_ELEMS // n + delta
        rng = np.random.default_rng(count)
        x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        assert fft_dit_batch(x, 1).tobytes() == ref_fft_dit_batch(x, 1).tobytes()

    def test_real_input_and_shape_checks(self):
        x = np.arange(16.0)
        assert fft_dit(x).tobytes() == ref_fft_dit_batch(x).tobytes()
        with pytest.raises(ValueError):
            fft_dit(np.zeros((2, 8)))
        with pytest.raises(ValueError):
            fft_dit_batch(np.zeros((2, 12)))


# ---------------------------------------------------------------------------
# Batched weight-spectrum misses (repro.runtime.engine)
# ---------------------------------------------------------------------------

N = 64
CFG = ApproxFftConfig(n=N // 2, stage_widths=27, twiddle_k=5)


class _Counting:
    """``forward_batch`` wrapper recording the rows of every call."""

    def __init__(self, pipe):
        self.pipe = pipe
        self.calls = []

    def __call__(self, stack):
        self.calls.append(len(stack))
        return self.pipe.weight_forward_batch(stack)


def _weights(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(-8, 8, N) for _ in range(count)]


def _assert_matches_per_call(pipe, specs, weights):
    for spec, w in zip(specs, weights):
        one = pipe.weight_forward(w)
        assert np.array_equal(spec.values, one.values)
        assert spec.scale == one.scale
        assert type(spec.scale) is float


class TestBatchedWeightSpectra:
    @pytest.mark.parametrize("config", [CFG, None])
    def test_equals_per_call_with_duplicates(self, config):
        pipe = ApproxNegacyclic(N, config)
        weights = _weights(4)
        weights.insert(2, weights[0].copy())  # duplicated within one call
        keys = [w.tobytes() for w in weights]
        cache = PlanCache()
        fwd = _Counting(pipe)
        specs = batched_weight_spectra(cache, keys, weights, fwd)
        assert fwd.calls == [4]  # one batch of the distinct misses
        assert specs[0] is specs[2]
        _assert_matches_per_call(pipe, specs, weights)
        assert cache.stats()["misses"] == 4 and cache.stats()["hits"] == 1
        again = batched_weight_spectra(cache, keys, weights, fwd)
        assert fwd.calls == [4]  # all hits: no transform
        assert all(a is b for a, b in zip(again, specs))

    def test_entry_evicted_between_check_and_get_is_rebuilt(self):
        pipe = ApproxNegacyclic(N, CFG)
        a, b = _weights(2, seed=3)
        cache = PlanCache(max_entries=1)
        fwd = _Counting(pipe)
        batched_weight_spectra(cache, [b"a"], [a], fwd)
        # "a" is cached at the miss check; inserting "b" evicts it before
        # its lookup, so it is rebuilt as a batch of one.
        specs = batched_weight_spectra(cache, [b"b", b"a"], [b, a], fwd)
        assert fwd.calls == [1, 1, 1]
        assert cache.evictions >= 1
        _assert_matches_per_call(pipe, specs, [b, a])

    @pytest.mark.parametrize("mode", ["flash", "fft", "sparse"])
    @pytest.mark.parametrize("capacity", [None, 1])
    def test_engine_band_with_duplicated_weight(self, mode, capacity):
        shape = ConvShape.square(2, 4, 3, 3, padding=1)
        rng = np.random.default_rng(11)
        xs = rng.integers(-4, 4, size=(2, 2, 4, 4))
        w = rng.integers(-3, 4, size=(3, 2, 3, 3))
        w[2] = w[0]  # two output channels share one weight polynomial
        cfg = ApproxFftConfig(n=N // 2, stage_widths=40)
        cache = PlanCache(max_entries=capacity) if capacity else None
        engine = BatchedHConvEngine(
            mode, weight_config=None if mode == "fft" else cfg, plan_cache=cache
        )
        out = engine.conv2d_batch(xs, w, shape, N)
        for item, x in enumerate(xs):
            assert np.array_equal(out[item], conv2d_direct(x, w, 1, 1))
        if mode == "flash":
            # Spectra equal per-call weight_forward on the same pipeline.
            fresh = BatchedHConvEngine(mode, weight_config=cfg)
            fresh.conv2d_batch(xs, w, shape, N)
            pipe = fft_pipeline(fresh.plan_cache, cfg, N)
            for key in fresh.plan_cache.keys():
                if key[0] != "fft-wspec":
                    continue
                poly = np.frombuffer(key[-1], dtype=np.int64)
                spec = fresh.plan_cache.get(key)
                assert np.array_equal(
                    spec.values, pipe.weight_forward(poly).values
                )
