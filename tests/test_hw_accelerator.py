"""Tests for workload extraction, the FLASH architecture model, energy."""

import numpy as np
import pytest

from repro.encoding import ConvShape, LinearShape, iter_row_bands
from repro.hw import (
    ChamModel,
    FlashAccelerator,
    FlashDesign,
    WEIGHT_ARMS,
    ablation_table,
    aggregate,
    conv_layer_workload,
    efficiency_ratios,
    f1_baseline_energy_mj,
    flash_vs_f1_reduction,
    hconv_energy_pj,
    linear_layer_workload,
    network_energy_mj,
    network_workload,
    spatial_tiles,
    table3_rows,
)


@pytest.fixture(scope="module")
def wl50():
    return network_workload("resnet50", 4096)


@pytest.fixture(scope="module")
def wl18():
    return network_workload("resnet18", 4096)


class TestSpatialTiles:
    def test_small_plane_no_tiling(self):
        shape = ConvShape.square(1, 32, 1, 3)
        band, count = spatial_tiles(shape, 4096)
        assert count == 1 == len(iter_row_bands(shape, 4096))
        assert band is shape

    def test_large_plane_banded(self):
        shape = ConvShape.square(3, 224, 64, 7)
        band, count = spatial_tiles(shape, 4096)
        assert count > 1
        assert count == len(iter_row_bands(shape, 4096))
        assert band.height * band.width <= 4096
        # Bands overlap by kernel_h - 1 rows and must cover all outputs.
        effective = band.height - (shape.kernel_h - 1)
        assert count * effective >= shape.height - shape.kernel_h + 1

    def test_rejects_strided(self):
        with pytest.raises(ValueError):
            spatial_tiles(ConvShape.square(1, 64, 1, 3, stride=2), 64)

    def test_rejects_impossible_rows(self):
        with pytest.raises(ValueError):
            spatial_tiles(ConvShape.square(1, 128, 1, 5), 128)


class TestWorkloads:
    def test_simple_layer_counts(self):
        shape = ConvShape.square(2, 4, 3, 3)  # 1 tile, 3 out channels
        w = conv_layer_workload(shape, 64)
        assert w.weight_transforms == 3
        assert w.input_transforms == 1
        assert w.inverse_transforms >= 1
        assert w.pointwise_products == 3
        assert w.weight_mults_sparse < w.weight_mults_dense

    def test_strided_layer_has_phase_transforms(self):
        s1 = conv_layer_workload(ConvShape.square(1, 8, 1, 3, padding=1), 64)
        s2 = conv_layer_workload(
            ConvShape.square(1, 8, 1, 3, stride=2, padding=1), 64
        )
        assert s2.weight_transforms == 4 * s1.weight_transforms

    def test_linear_layer_no_sparsity(self):
        w = linear_layer_workload(LinearShape(64, 8), 64)
        assert w.weight_sparsity_saving == 0.0

    def test_resnet50_weight_transforms_dominate(self, wl50):
        total = aggregate(wl50)
        assert total.weight_transforms > 10 * total.input_transforms
        assert total.weight_transforms > 10 * total.inverse_transforms

    def test_resnet50_high_sparsity_saving(self, wl50):
        total = aggregate(wl50)
        # Abstract: >86% of weight-transform computations skipped --
        # measured against the N-point NTT dense count; within the N/2
        # core the saving is lower but still dominant.
        assert total.weight_sparsity_saving > 0.75
        ntt_dense = 2048 * 12
        assert 1 - total.weight_mults_sparse / ntt_dense > 0.86

    def test_resnet18_lower_sparsity_than_50(self, wl18, wl50):
        # ResNet-50 is 1x1-conv heavy -> sparser weight polys.
        assert (
            aggregate(wl50).weight_sparsity_saving
            > aggregate(wl18).weight_sparsity_saving
        )

    def test_merge_weighted_average(self):
        from repro.hw import LayerWorkload

        a = LayerWorkload(weight_transforms=1, weight_mults_sparse=100.0,
                          weight_mults_dense=1000)
        b = LayerWorkload(weight_transforms=3, weight_mults_sparse=200.0,
                          weight_mults_dense=1000)
        a.merge(b)
        assert a.weight_transforms == 4
        assert a.weight_mults_sparse == pytest.approx(175.0)


class TestFlashAccelerator:
    @pytest.fixture(scope="class")
    def acc(self):
        return FlashAccelerator()

    def test_component_breakdown(self, acc):
        names = {c.name for c in acc.component_costs()}
        assert names == {"approx_bu", "fp_bu", "fp_mul", "fp_acc", "mem_ctrl"}

    def test_weight_subsystem_near_paper(self, acc):
        # Paper: 0.74 mm^2 / 0.27 W; the component model must land within
        # a factor of ~2 without any fitted constants.
        area = acc.area_mm2("approx_bu")
        power = acc.power_w("approx_bu")
        assert 0.37 < area < 1.5
        assert 0.14 < power < 0.6

    def test_all_transforms_near_paper(self, acc):
        assert 2.0 < acc.area_mm2() < 8.5
        assert 1.3 < acc.power_w() < 5.2

    def test_weight_rate_improves_with_sparsity(self, acc):
        assert acc.weight_transform_rate(1000) > acc.weight_transform_rate(5000)

    def test_rate_validates(self, acc):
        with pytest.raises(ValueError):
            acc.weight_transform_rate(0)

    def test_custom_design(self):
        small = FlashAccelerator(FlashDesign(approx_pes=30))
        big = FlashAccelerator(FlashDesign(approx_pes=60))
        assert small.weight_transform_rate(1000) < big.weight_transform_rate(1000)
        assert small.area_mm2("approx_bu") < big.area_mm2("approx_bu")

    def test_dse_stage_widths_accepted(self):
        widths = [16] * 11
        acc = FlashAccelerator(FlashDesign(stage_widths=widths))
        assert acc.design.weight_fft_config().stage_widths == widths


class TestTable3:
    def test_rows_complete(self, wl50):
        rows = table3_rows(workloads=wl50)
        names = [r["name"] for r in rows]
        assert names[:5] == ["HEAX", "CHAM", "F1", "BTS", "ARK"]
        assert names[5].startswith("FLASH")

    def test_baseline_efficiencies_match_paper(self, wl50):
        rows = {r["name"]: r for r in table3_rows(workloads=wl50)}
        assert rows["F1"]["power_eff"] == pytest.approx(7.60, abs=0.01)
        assert rows["BTS"]["area_eff"] == pytest.approx(10.28, abs=0.01)
        assert rows["ARK"]["power_eff"] == pytest.approx(8.42, abs=0.01)

    def test_flash_wins_power_efficiency(self, wl50):
        ratios = efficiency_ratios(table3_rows(workloads=wl50))
        weight = ratios["FLASH (weight transforms)"]
        # Paper: 81.8-90.7x.  Model (unfitted): same winner, tens-of-x.
        assert weight["power_eff_min"] > 20
        all_t = ratios["FLASH (all transforms)"]
        # Paper: 8.7-9.7x.
        assert 3 < all_t["power_eff_min"] < 20

    def test_flash_wins_area_efficiency(self, wl50):
        ratios = efficiency_ratios(table3_rows(workloads=wl50))
        assert ratios["FLASH (weight transforms)"]["area_eff_min"] > 5
        assert ratios["FLASH (all transforms)"]["area_eff_min"] > 1


class TestEnergy:
    def test_ablation_ordering(self, wl50):
        table = ablation_table(wl50)
        w = {arm: table[arm]["weight_vs_fft_fp"] for arm in WEIGHT_ARMS}
        assert w["fft_fp"] == pytest.approx(1.0)
        # Each single optimization lands near the paper's ~10%; combined
        # near ~1-3%.
        assert 0.05 < w["sparse"] < 0.35
        assert 0.05 < w["approx"] < 0.35
        assert w["flash"] < 0.08
        assert w["flash"] < min(w["sparse"], w["approx"])

    def test_flash_beats_f1_by_large_margin(self, wl50, wl18):
        # Paper: ~87.3% energy reduction; model lands within ten points.
        assert flash_vs_f1_reduction(wl50) > 0.75
        assert flash_vs_f1_reduction(wl18) > 0.70

    def test_energy_breakdown_keys(self, wl50):
        energy = hconv_energy_pj(wl50[0], "flash")
        assert set(energy) == {"weight", "activation", "inverse", "pointwise"}
        assert all(v >= 0 for v in energy.values())

    def test_network_energy_positive(self, wl18):
        total = network_energy_mj(wl18, "flash")
        assert sum(total.values()) > 0

    def test_unknown_arm_rejected(self, wl18):
        with pytest.raises(ValueError):
            network_energy_mj(wl18, "bogus")

    def test_f1_energy_far_above_flash(self, wl50):
        f1 = f1_baseline_energy_mj(wl50)
        flash = sum(network_energy_mj(wl50, "flash").values())
        assert f1 > 3 * flash


class TestTable4Latency:
    def test_speedups_in_paper_ballpark(self, wl18, wl50):
        acc, cham = FlashAccelerator(), ChamModel()
        s18 = cham.network_latency_s(wl18) / acc.network_latency_s(wl18)
        s50 = cham.network_latency_s(wl50) / acc.network_latency_s(wl50)
        # Paper: 21.84x and 64.02x; model (unfitted) keeps the ordering
        # and double-digit magnitude.
        assert s18 > 5
        assert s50 > s18

    def test_flash_latency_milliseconds(self, wl50):
        acc = FlashAccelerator()
        assert acc.network_latency_s(wl50) < 0.1  # paper: 4.96 ms

    def test_cham_latency_hundreds_of_ms(self, wl50):
        cham = ChamModel()
        assert 0.05 < cham.network_latency_s(wl50) < 1.0  # paper: 317 ms
