"""Error budgets and network-wide design-space exploration.

The paper's constrained formulation (Section IV-C2) is ``min power s.t.
error < T_err`` per layer.  This module derives each layer's ``T_err``
from the network itself -- the re-quantization step after a layer discards
``shift`` LSBs, so HConv output errors below a fraction of ``2^shift``
cannot change the re-quantized activation -- and runs the per-layer DSE
under those budgets, yielding one approximate-FFT configuration per layer
plus the aggregate power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.explore import LayerDseResult, explore_layer, stride1_phase
from repro.dse.space import DesignPoint
from repro.encoding.conv_encoding import ConvShape
from repro.hw.workload import spatial_tiles


def requant_error_budget(shift: int, confidence_sigmas: float = 3.0) -> float:
    """Error variance tolerated by a ``shift``-bit re-quantization.

    The rounding threshold is half the step ``2^shift``; errors whose
    ``confidence_sigmas``-sigma range stays below it leave the
    re-quantized value unchanged with high probability.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    threshold = 0.5 * (1 << shift)
    return (threshold / confidence_sigmas) ** 2


@dataclass
class LayerPlan:
    """Chosen configuration for one layer."""

    name: str
    shape: ConvShape
    error_budget: float
    point: Optional[DesignPoint]
    power_mw: float
    error_variance: float

    @property
    def feasible(self) -> bool:
        return self.point is not None


@dataclass
class NetworkPlan:
    """Per-layer DSE outcome for a whole network."""

    layers: List[LayerPlan]

    @property
    def total_power_mw(self) -> float:
        return sum(l.power_mw for l in self.layers if l.feasible)

    @property
    def all_feasible(self) -> bool:
        return all(l.feasible for l in self.layers)

    def summary_rows(self) -> List[List[str]]:
        rows = []
        for plan in self.layers:
            if plan.feasible:
                widths = plan.point.stage_widths
                rows.append(
                    [plan.name, f"{plan.error_budget:.2e}",
                     f"{min(widths)}..{max(widths)}", str(plan.point.twiddle_k),
                     f"{plan.power_mw:.3f}"]
                )
            else:
                rows.append(
                    [plan.name, f"{plan.error_budget:.2e}", "-", "-",
                     "infeasible"]
                )
        return rows


def explore_network(
    layers: Sequence[Tuple[str, ConvShape, int]],
    n: int = 4096,
    budget_per_layer: int = 40,
    confidence_sigmas: float = 3.0,
    seed: int = 0,
    dedupe: bool = True,
) -> NetworkPlan:
    """Run the constrained DSE for every layer of a network.

    Args:
        layers: ``(name, shape, requant_shift)`` triples; strided shapes
            are reduced to their dominant stride-1 phase.
        n: ring degree.
        budget_per_layer: DSE evaluations per distinct layer geometry.
        confidence_sigmas: error-budget confidence (see
            :func:`requant_error_budget`).
        seed: search randomness.
        dedupe: reuse search results across layers that share geometry
            (ResNets repeat block shapes many times).

    Returns:
        a :class:`NetworkPlan`; layers whose budget no explored point
        meets are marked infeasible (raise the budget or the search
        effort).
    """
    plans: List[LayerPlan] = []
    cache: Dict[Tuple, LayerDseResult] = {}
    for index, (name, shape, shift) in enumerate(layers):
        phase, _ = spatial_tiles(stride1_phase(shape), n)
        key = (
            phase.in_channels, phase.height, phase.width,
            phase.kernel_h, phase.kernel_w,
        )
        if not dedupe or key not in cache:
            cache[key] = explore_layer(
                phase, n=n, budget=budget_per_layer, seed=seed + index
            )
        result = cache[key]
        threshold = requant_error_budget(shift, confidence_sigmas)
        best = result.best_under_error(threshold)
        if best is None:
            plans.append(
                LayerPlan(
                    name=name, shape=phase, error_budget=threshold,
                    point=None, power_mw=float("nan"),
                    error_variance=float("nan"),
                )
            )
            continue
        power, error = result.problem.objective(best)
        plans.append(
            LayerPlan(
                name=name, shape=phase, error_budget=threshold,
                point=best, power_mw=power, error_variance=error,
            )
        )
    return NetworkPlan(layers=plans)


def uniform_fallback_plan(
    layers: Sequence[Tuple[str, ConvShape, int]],
    n: int = 4096,
    data_width: int = 27,
    twiddle_k: int = 5,
) -> NetworkPlan:
    """The no-DSE baseline: one uniform configuration for every layer."""
    from repro.dse.explore import LayerDseProblem

    plans = []
    for name, shape, shift in layers:
        phase, _ = spatial_tiles(stride1_phase(shape), n)
        problem = LayerDseProblem(shape=phase, n=n)
        point = problem.space.uniform_point(data_width, twiddle_k)
        power, error = problem.objective(point)
        plans.append(
            LayerPlan(
                name=name, shape=phase,
                error_budget=requant_error_budget(shift),
                point=point, power_mw=power, error_variance=error,
            )
        )
    return NetworkPlan(layers=plans)
