"""Tests for the Cheetah convolution coefficient encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import (
    Conv2dEncoder,
    ConvShape,
    conv2d_direct,
    conv2d_via_polynomials,
    decompose_strided,
    pad_input,
)


def _rand_case(rng, shape: ConvShape, w_range=8, x_range=16):
    x = rng.integers(-x_range, x_range, size=(shape.in_channels, shape.height, shape.width))
    w = rng.integers(
        -w_range,
        w_range,
        size=(shape.out_channels, shape.in_channels, shape.kernel_h, shape.kernel_w),
    )
    return x, w


class TestConvShape:
    def test_output_dims(self):
        s = ConvShape.square(3, 8, 4, 3, stride=2, padding=1)
        assert (s.out_height, s.out_width) == (4, 4)

    def test_macs(self):
        s = ConvShape.square(2, 4, 3, 3)
        assert s.macs == 3 * 2 * 2 * 2 * 3 * 3

    def test_rejects_kernel_too_large(self):
        with pytest.raises(ValueError):
            ConvShape.square(1, 2, 1, 5)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            ConvShape(1, 4, 4, 1, 3, 3, padding=-1)


class TestEncodingRoundtrip:
    @pytest.mark.parametrize(
        "c,size,m,k,n",
        [
            (1, 4, 1, 3, 64),
            (2, 4, 3, 3, 64),   # multi-channel, single tile
            (4, 4, 2, 2, 32),   # two tiles of 2 channels
            (3, 5, 2, 3, 64),   # non-power-of-two spatial size
            (5, 4, 1, 1, 16),   # 1x1 kernels, 5 tiles
        ],
    )
    def test_matches_direct_conv(self, c, size, m, k, n):
        rng = np.random.default_rng(c * 1000 + size * 100 + m * 10 + k)
        shape = ConvShape.square(c, size, m, k)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, n)
        expected = conv2d_direct(x, w)
        assert np.array_equal(got, expected)

    def test_with_padding(self):
        rng = np.random.default_rng(7)
        shape = ConvShape.square(2, 4, 2, 3, padding=1)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, padding=1)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_with_stride(self, stride):
        rng = np.random.default_rng(stride)
        shape = ConvShape.square(2, 7, 2, 3, stride=stride, padding=1)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, stride=stride, padding=1)
        assert np.array_equal(got, expected)

    def test_stride2_resnet_downsample_1x1(self):
        rng = np.random.default_rng(11)
        shape = ConvShape.square(4, 8, 8, 1, stride=2)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, stride=2)
        assert np.array_equal(got, expected)

    def test_fft_polymul_backend(self):
        from repro.fftcore import negacyclic_multiply_folded, round_to_integers

        def fft_mul(a, b):
            out = round_to_integers(negacyclic_multiply_folded(a, b))
            return np.array([int(v) for v in out], dtype=np.int64)

        rng = np.random.default_rng(13)
        shape = ConvShape.square(2, 4, 2, 3)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64, polymul=fft_mul)
        assert np.array_equal(got, conv2d_direct(x, w))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_property_random_shapes(self, data):
        c = data.draw(st.integers(1, 3))
        size = data.draw(st.integers(3, 6))
        m = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, min(3, size)))
        stride = data.draw(st.integers(1, 2))
        padding = data.draw(st.integers(0, 1))
        shape = ConvShape.square(c, size, m, k, stride=stride, padding=padding)
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 16)))
        x, w = _rand_case(rng, shape, w_range=4, x_range=8)
        got = conv2d_via_polynomials(x, w, shape, 128)
        expected = conv2d_direct(x, w, stride=stride, padding=padding)
        assert np.array_equal(got, expected)


class TestEncoderInternals:
    def test_tiling_counts(self):
        shape = ConvShape.square(8, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        assert enc.channels_per_tile == 4
        assert enc.num_tiles == 2
        assert list(enc.tile_channels(1)) == [4, 5, 6, 7]

    def test_ragged_last_tile_zero_padded(self):
        # Tiles are uniform: the last tile extends into zero-padded
        # virtual channels so extraction indices match across tiles.
        shape = ConvShape.square(5, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        assert enc.num_tiles == 2
        assert list(enc.tile_channels(1)) == [4, 5, 6, 7]
        polys = enc.encode_input(np.ones((5, 4, 4), dtype=np.int64))
        # Virtual channels of the last tile stay zero.
        assert polys[1][16:].sum() == 0

    def test_rejects_plane_too_large(self):
        with pytest.raises(ValueError):
            Conv2dEncoder(ConvShape.square(1, 16, 1, 3), 64)

    def test_rejects_strided(self):
        with pytest.raises(ValueError):
            Conv2dEncoder(ConvShape.square(1, 4, 1, 3, stride=2), 64)

    def test_weight_valid_indices_count(self):
        shape = ConvShape.square(2, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        idx = enc.weight_valid_indices(0)
        assert len(idx) == 2 * 3 * 3
        assert len(set(idx.tolist())) == len(idx)

    def test_weight_valid_indices_cover_encoded_nonzeros(self):
        rng = np.random.default_rng(17)
        shape = ConvShape.square(2, 4, 2, 3)
        enc = Conv2dEncoder(shape, 64)
        w = rng.integers(1, 8, size=(2, 2, 3, 3))  # strictly nonzero
        polys = enc.encode_weights(w)
        valid = set(enc.weight_valid_indices(0).tolist())
        for poly in polys.values():
            assert set(np.nonzero(poly)[0].tolist()) <= valid

    def test_weight_sparsity_high_for_large_planes(self):
        # ResNet-ish: one 58x58 channel per 4096-degree polynomial, 3x3 kernel.
        shape = ConvShape.square(64, 56, 64, 3, padding=1)
        enc = Conv2dEncoder(shape, 4096)
        assert enc.channels_per_tile == 1
        assert enc.weight_sparsity() > 0.99

    def test_valid_index_structure_k_contiguous_per_row(self):
        # Section IV-B: k contiguous valid values within intervals of Wp.
        shape = ConvShape.square(1, 8, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        idx = enc.weight_valid_indices(0)
        rows = {int(i) // 8 for i in idx}
        assert rows == {0, 1, 2}
        for r in rows:
            cols = sorted(int(i) % 8 for i in idx if int(i) // 8 == r)
            assert cols == [0, 1, 2]

    def test_input_encoding_layout(self):
        shape = ConvShape.square(2, 2, 1, 1)
        enc = Conv2dEncoder(shape, 16)
        x = np.arange(8).reshape(2, 2, 2)
        (poly,) = enc.encode_input(x)
        assert poly[:8].tolist() == list(range(8))

    def test_transforms_per_hconv(self):
        shape = ConvShape.square(8, 4, 8, 3)
        enc = Conv2dEncoder(shape, 64)  # 2 tiles of 4 channels
        counts = enc.transforms_per_hconv()
        # Inverse transforms happen once per output channel: partial
        # products accumulate across channel tiles before the inverse.
        assert counts == {
            "input_forward": 2,
            "weight_forward": 16,
            "inverse": 8,
        }

    def test_encode_input_validates_shape(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.encode_input(np.zeros((2, 4, 4)))

    def test_encode_weights_validates_shape(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.encode_weights(np.zeros((1, 1, 2, 2)))

    def test_tile_out_of_range(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.tile_channels(5)

    @pytest.mark.parametrize("channels,size,kernel,padding", [
        (8, 4, 3, 0), (5, 4, 3, 1), (1, 6, 1, 0), (3, 5, 2, 1),
    ])
    def test_output_indices_match_output_index(
        self, channels, size, kernel, padding
    ):
        shape = ConvShape.square(channels, size, 2, kernel, padding=padding)
        enc = Conv2dEncoder(shape, 256)
        for tile in range(enc.num_tiles):
            expected = [
                enc.output_index(tile, i, j)
                for i in range(shape.out_height)
                for j in range(shape.out_width)
            ]
            got = enc.output_indices(tile)
            assert got.dtype == np.int64
            assert got.tolist() == expected
            assert not got.flags.writeable


def _conv2d_loop(x, w, stride, padding):
    """Per-pixel loop reference for :func:`conv2d_direct`."""
    xp = pad_input(x, padding)
    m, _, kh, kw = w.shape
    oh = (xp.shape[1] - kh) // stride + 1
    ow = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((m, oh, ow), dtype=np.int64)
    for om in range(m):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                out[om, i, j] = int(np.sum(patch.astype(np.int64) * w[om]))
    return out


def _encode_weights_loop(enc: Conv2dEncoder, w):
    """Per-coefficient loop reference for :meth:`Conv2dEncoder.encode_weights`."""
    s = enc.shape
    wp = s.padded_width
    cw = enc.channels_per_tile
    out = {}
    for tile in range(enc.num_tiles):
        for m in range(s.out_channels):
            poly = np.zeros(enc.n, dtype=np.int64)
            for local, c in enumerate(enc.tile_channels(tile)):
                if c >= s.in_channels:
                    continue  # zero-padded virtual channel
                base = (cw - 1 - local) * enc.plane
                for u in range(s.kernel_h):
                    for v in range(s.kernel_w):
                        idx = base + (s.kernel_h - 1 - u) * wp + (s.kernel_w - 1 - v)
                        poly[idx] = w[m, c, u, v]
            out[(tile, m)] = poly
    return out


class TestEncodeWeightsVectorized:
    @pytest.mark.parametrize(
        "shape,n",
        [
            (ConvShape.square(8, 4, 3, 3), 64),  # 4 channels/tile, 2 tiles
            (ConvShape.square(5, 4, 2, 3), 64),  # ragged: virtual channels
            (ConvShape(3, 5, 7, 2, 2, 3, padding=1), 128),  # non-square
            (ConvShape.square(7, 6, 4, 1), 64),  # 1x1 kernel, C > per tile
            (ConvShape.square(100, 6, 16, 3, padding=1), 4096),
        ],
    )
    def test_matches_loop_reference(self, shape, n):
        enc = Conv2dEncoder(shape, n)
        rng = np.random.default_rng(n + shape.in_channels)
        _, w = _rand_case(rng, shape)
        got = enc.encode_weights(w)
        ref = _encode_weights_loop(enc, w)
        assert list(got) == list(ref)  # same (tile, m) order
        for key, poly in ref.items():
            assert got[key].dtype == np.int64
            assert got[key].tobytes() == poly.tobytes()
        for tile in range(enc.num_tiles):
            support = np.flatnonzero(
                np.any([got[(tile, m)] for m in range(shape.out_channels)], axis=0)
            )
            assert np.isin(support, enc.weight_valid_indices(tile)).all()


class TestConv2dDirect:
    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(1, 3),
        h=st.integers(3, 9), width=st.integers(3, 9),
        stride=st.integers(1, 3), padding=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_matches_loop_reference(self, c, m, k, h, width, stride, padding, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-100, 100, size=(c, h, width))
        w = rng.integers(-8, 8, size=(m, c, k, k))
        got = conv2d_direct(x, w, stride=stride, padding=padding)
        expected = _conv2d_loop(x, w, stride, padding)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_small_int_dtypes(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-128, 127, size=(3, 6, 6)).astype(np.int8)
        w = rng.integers(-128, 127, size=(2, 3, 3, 3)).astype(np.int8)
        assert np.array_equal(
            conv2d_direct(x, w, padding=1), _conv2d_loop(x, w, 1, 1)
        )

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_direct(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))


class TestDecomposeStrided:
    @pytest.mark.parametrize("padding", [0, 1])
    def test_stride1_identity(self, padding):
        s = ConvShape.square(1, 4, 1, 3, padding=padding)
        # One padding-free phase over the padded input.
        phase = ConvShape.square(1, 4 + 2 * padding, 1, 3)
        assert decompose_strided(s) == [(phase, 0, 0)]

    def test_stride2_has_four_phases(self):
        s = ConvShape.square(1, 8, 1, 3, stride=2)
        phases = decompose_strided(s)
        assert len(phases) == 4
        for phase, _, _ in phases:
            assert phase.stride == 1
            assert phase.out_height >= s.out_height

    def test_phase_kernel_partition(self):
        # Phase kernels must partition the original kernel taps.
        s = ConvShape.square(1, 8, 1, 3, stride=2)
        total_taps = sum(
            p.kernel_h * p.kernel_w for p, _, _ in decompose_strided(s)
        )
        assert total_taps == 9


class TestPadInput:
    def test_zero_padding_noop(self):
        x = np.ones((1, 2, 2))
        assert pad_input(x, 0) is x

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_padding_shape_and_content(self, lead):
        x = np.ones(lead + (1, 2, 2), dtype=np.int64)
        out = pad_input(x, 1)
        assert out.shape == lead + (1, 4, 4)
        assert out.sum() == 4 * int(np.prod(lead))
        assert out[..., 0, 0, 0].sum() == 0
