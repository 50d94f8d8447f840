"""Tests for the FLASH facade, HConv pipelines and analysis profiles."""

import numpy as np
import pytest

from repro.analysis import (
    CpuCostModel,
    format_bar_chart,
    format_fractions,
    format_table,
    latency_profile,
    ntt_domain_weight_storage_gb,
    raw_weight_storage_gb,
    residual_block_profile,
)
from repro.core import (
    Flash,
    FlashConfig,
    hconv_fft,
    hconv_flash,
    hconv_ntt,
    ntt_polymul_factory,
)
from repro.encoding import ConvShape, LinearShape, conv2d_direct
from repro.fftcore import ApproxFftConfig
from repro.he import toy_preset


@pytest.fixture(scope="module")
def small_case():
    rng = np.random.default_rng(0)
    shape = ConvShape.square(2, 4, 2, 3)
    x = rng.integers(-8, 8, size=(2, 4, 4))
    w = rng.integers(-8, 8, size=(2, 2, 3, 3))
    return shape, x, w


class TestHconvPipelines:
    def test_ntt_pipeline_exact(self, small_case):
        shape, x, w = small_case
        got = hconv_ntt(x, w, shape, 64)
        assert np.array_equal(got, conv2d_direct(x, w))

    def test_fft_pipeline_exact(self, small_case):
        shape, x, w = small_case
        got = hconv_fft(x, w, shape, 64)
        assert np.array_equal(got, conv2d_direct(x, w))

    def test_flash_pipeline_high_precision_exact(self, small_case):
        shape, x, w = small_case
        cfg = ApproxFftConfig(n=32, stage_widths=40)
        got = hconv_flash(x, w, shape, 64, cfg)
        assert np.array_equal(got, conv2d_direct(x, w))

    def test_flash_pipeline_low_precision_close(self, small_case):
        shape, x, w = small_case
        cfg = ApproxFftConfig(n=32, stage_widths=14, twiddle_k=4)
        got = hconv_flash(x, w, shape, 64, cfg)
        exact = conv2d_direct(x, w)
        assert np.abs(got - exact).max() <= np.abs(exact).max() * 0.2 + 4

    def test_ntt_factory_rejects_overflow(self):
        with pytest.raises(ValueError):
            ntt_polymul_factory(64, 1 << 50)


class TestFlashConfig:
    def test_default_matches_paper(self):
        cfg = FlashConfig()
        assert cfg.n == 4096
        assert cfg.data_width == 27
        assert cfg.twiddle_k == 5
        assert cfg.design.approx_pes == 60

    def test_weight_fft_config_core_size(self):
        cfg = FlashConfig(params=toy_preset(n=64))
        assert cfg.weight_fft_config().n == 32

    def test_stage_width_override(self):
        widths = [12] * 5
        cfg = FlashConfig(params=toy_preset(n=64), stage_widths=widths)
        assert cfg.weight_fft_config().stage_widths == widths

    def test_backends(self):
        from repro.runtime import (
            BatchedFftBackend,
            BatchedNttBackend,
            SparseBatchedFftBackend,
        )

        cfg = FlashConfig(params=toy_preset(n=64))
        assert isinstance(cfg.exact_backend(), BatchedNttBackend)
        flash = cfg.flash_backend()
        assert type(flash) is BatchedFftBackend
        assert flash.weight_config == cfg.weight_fft_config()
        sparse = cfg.sparse_backend(pattern=[0, 1])
        assert isinstance(sparse, SparseBatchedFftBackend)
        assert sparse.weight_config == cfg.weight_fft_config()
        assert list(sparse.pattern) == [0, 1]

    def test_describe(self):
        assert "k=5" in FlashConfig(params=toy_preset()).describe()


class TestFlashFacade:
    @pytest.fixture(scope="class")
    def flash(self):
        return Flash(FlashConfig(params=toy_preset(n=64, share_bits=16)))

    def test_private_conv_end_to_end(self, flash, small_case):
        shape, x, w = small_case
        rng = np.random.default_rng(1)
        result = flash.private_conv2d(x, w, shape, rng)
        # Approximate backend with default 27-bit datapath: LSB errors only.
        assert result.max_error <= flash.config.params.t >> 6

    def test_private_conv_exact_backend(self, flash, small_case):
        shape, x, w = small_case
        rng = np.random.default_rng(2)
        result = flash.private_conv2d(x, w, shape, rng, exact=True)
        assert result.exact

    def test_private_linear(self, flash):
        rng = np.random.default_rng(3)
        x = rng.integers(-20, 20, size=16)
        w = rng.integers(-8, 8, size=(4, 16))
        result = flash.private_linear(x, w, rng, exact=True)
        assert result.exact

    def test_session_reused(self, flash):
        rng = np.random.default_rng(4)
        assert flash.session(rng) is flash.session(rng)

    def test_estimate_layer_conv(self):
        flash = Flash()
        est = flash.estimate_layer(ConvShape.square(64, 28, 64, 3, padding=1))
        assert est.speedup > 1
        assert 0 < est.sparsity_saving < 1
        assert est.flash_energy_pj["weight"] > 0

    def test_estimate_layer_linear(self):
        flash = Flash()
        est = flash.estimate_layer(LinearShape(512, 1000))
        assert est.sparsity_saving == 0.0

    def test_estimate_rejects_unknown(self):
        with pytest.raises(TypeError):
            Flash().estimate_layer("conv")

    def test_explore_smoke(self):
        flash = Flash(FlashConfig(params=toy_preset(n=256, share_bits=16)))
        res = flash.explore(ConvShape.square(2, 8, 4, 3), budget=16, seed=0)
        assert len(res.run.points) == 16


class TestProfiles:
    @pytest.fixture(scope="class")
    def cost(self):
        return CpuCostModel(n=4096, ntt_seconds=1e-3, pointwise_seconds=1e-5)

    def test_measure_returns_positive(self):
        cost = CpuCostModel.measure(n=256, repeats=2)
        assert cost.ntt_seconds > 0
        assert cost.pointwise_seconds > 0

    def test_residual_block_weight_ntt_dominates(self, cost):
        # Figure 1's claim: weight NTTs are the main cost of the block.
        profile = residual_block_profile("resnet50", cost=cost)
        frac = profile.fractions()
        assert frac["weight_ntt"] > 0.5
        assert profile.computation_s > profile.communication_s

    def test_latency_profile_totals(self, cost):
        from repro.hw import conv_layer_workload

        wl = [conv_layer_workload(ConvShape.square(2, 4, 2, 3), 64)]
        profile = latency_profile(wl, cost=cost)
        assert profile.total_s == pytest.approx(
            profile.computation_s + profile.communication_s
        )
        assert sum(profile.fractions().values()) == pytest.approx(1.0)

    def test_ntt_weight_storage_matches_paper(self):
        # Paper: ~23 GB for ResNet-50 weights in the NTT domain.
        gb = ntt_domain_weight_storage_gb("resnet50")
        assert 15 < gb < 30

    def test_storage_blowup_over_1000x(self):
        blowup = ntt_domain_weight_storage_gb("resnet50") / (
            raw_weight_storage_gb("resnet50", bits=4)
        )
        assert blowup > 1000


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["name", "value"], [["a", 1.5], ["long-name", 2.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_bar_chart(self):
        out = format_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_format_fractions(self):
        out = format_fractions({"x": 0.25, "y": 0.75})
        assert "75" in out

    def test_zero_values(self):
        out = format_bar_chart(["a"], [0.0])
        assert "0" in out


class TestFacadeOneBackendPath:
    """Every facade call runs on its mode's facade-cached backend; a single
    input is a batch of one."""

    CONFIG = FlashConfig(params=toy_preset(n=64, share_bits=16))

    @pytest.mark.parametrize("mode", ["ntt", "flash", "sparse"])
    def test_single_is_batch_of_one(self, small_case, mode):
        shape, x, w = small_case
        kw = {"exact": mode == "ntt", "sparse": mode == "sparse"}
        facade = Flash(self.CONFIG)
        single = facade.private_conv2d(
            x, w, shape, np.random.default_rng(11), **kw
        )
        (batched,) = Flash(self.CONFIG).private_conv2d(
            x[None], w, shape, np.random.default_rng(11), batch=True, **kw
        )
        for name in ("reconstructed", "client_share", "server_share"):
            assert np.array_equal(getattr(single, name), getattr(batched, name))
        assert single.stats == batched.stats
        # The single call ran on the facade-cached backend.
        kind = "exact" if mode == "ntt" else mode
        assert facade._batched_backend(kind, None).last_stats.products > 0

    def test_one_pipeline_per_ring_and_config(self, small_case, monkeypatch):
        from repro.fftcore.approx_pipeline import ApproxNegacyclic
        from repro.runtime import approx_config_key

        built = []
        original = ApproxNegacyclic.__init__

        def counting_init(self, n, weight_config=None, *args, **kwargs):
            built.append((n, approx_config_key(weight_config)))
            original(self, n, weight_config, *args, **kwargs)

        monkeypatch.setattr(ApproxNegacyclic, "__init__", counting_init)
        shape, x, w = small_case
        flash = Flash(self.CONFIG)
        rng = np.random.default_rng(12)
        for sparse in (False, True):
            flash.private_conv2d(x, w, shape, rng, sparse=sparse)
            flash.private_conv2d(x[None], w, shape, rng, batch=True, sparse=sparse)
        flash.private_linear(
            rng.integers(-8, 8, size=16), rng.integers(-8, 8, size=(4, 16)), rng
        )
        n = self.CONFIG.n
        assert built == [(n, approx_config_key(self.CONFIG.weight_fft_config()))]
        pipe = flash._batched_backend("flash", None).pipeline(n)
        assert flash._batched_backend("sparse", None).pipeline(n) is pipe
