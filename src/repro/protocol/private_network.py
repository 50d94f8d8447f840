"""Whole-network private inference through the real BFV protocol.

Drives a :class:`repro.nn.model.QuantizedCnn` layer by layer: every conv
and linear layer runs through the one-round hybrid HE/2PC protocol
(encrypt share -> homomorphic multiply -> re-share), while ReLU, pooling
and re-quantization execute on secret shares' reconstruction -- standing
in for the 2PC sub-protocols (garbled circuits / OT) that the hybrid
scheme uses for non-linear layers and that are orthogonal to FLASH.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.encoding.conv_encoding import ConvShape
from repro.encoding.linear_encoding import LinearShape
from repro.he.backend import PolyMulBackend
from repro.he.params import BfvParameters
from repro.nn.model import QuantizedCnn
from repro.nn.quant import requantize_shift
from repro.protocol.hybrid import (
    HybridConvProtocol,
    HybridLinearProtocol,
    ProtocolStats,
    make_session,
)


@dataclass
class PrivateInferenceTrace:
    """Outcome of one private network evaluation."""

    logits: np.ndarray
    expected_logits: np.ndarray
    layer_stats: List[ProtocolStats] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        return int(self.logits.argmax())

    @property
    def matches_plain(self) -> bool:
        return bool(np.array_equal(self.logits, self.expected_logits))

    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.layer_stats)

    @property
    def total_ciphertexts(self) -> int:
        return sum(
            s.ciphertexts_sent + s.ciphertexts_returned
            for s in self.layer_stats
        )

    @property
    def min_noise_budget(self) -> float:
        return min(
            (s.min_noise_budget for s in self.layer_stats),
            default=float("inf"),
        )

    @property
    def total_retries(self) -> int:
        """Transport retries across all layers (resilient sessions only)."""
        return sum(s.retries for s in self.layer_stats)

    @property
    def degraded_layers(self) -> int:
        """Layers that fell back from the approximate to the exact path."""
        return sum(1 for s in self.layer_stats if s.degraded)


class PrivateCnnEvaluator:
    """Run a quantized CNN privately, one HE round per compute layer.

    Args:
        net: the quantized network.
        params: BFV parameters; the plaintext ring must hold every layer's
            worst-case sum-product (checked at construction).
        backend: polynomial-multiplication backend (exact NTT default;
            pass a FLASH backend for the approximate datapath).
        transport: optional :class:`repro.faults.ResilientSession`; every
            layer's ciphertext traffic then crosses its checksummed
            channel with bounded retry (counts appear in the trace's
            per-layer stats).
        guard: optional :class:`repro.faults.BudgetGuard`; approximate
            layers whose noise budget is predicted or observed exhausted
            degrade per the guard's policy (``"fallback"`` reruns the
            layer on the exact NTT backend).
    """

    def __init__(
        self,
        net: QuantizedCnn,
        params: BfvParameters,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
    ):
        from repro.nn.quant import sum_product_bits

        self.net = net
        self.params = params
        self.backend = backend
        self.transport = transport
        self.guard = guard
        worst = sum_product_bits(
            net.a_bits, net.w_bits, net.max_sum_product_terms()
        )
        if params.t.bit_length() - 1 < worst:
            raise ValueError(
                f"plaintext ring (2^{params.t.bit_length() - 1}) cannot hold "
                f"{worst}-bit sum-products; use select_parameters()"
            )

    def infer(
        self, image: np.ndarray, rng: np.random.Generator
    ) -> PrivateInferenceTrace:
        """Privately classify one float image (a batch of one).

        Every compute layer executes through the hybrid protocol on the
        *current* integer activation; the returned trace carries the
        protocol statistics and the exact-pipeline logits for comparison.
        """
        return self.infer_batch(np.asarray(image)[None], rng)[0]

    def infer_batch(
        self, images: np.ndarray, rng: np.random.Generator
    ) -> List[PrivateInferenceTrace]:
        """Privately classify a batch of float images in one pass.

        Convolution layers run through
        :meth:`repro.protocol.hybrid.HybridConvProtocol.run_batch`, so
        weight encodings are shared across the batch and all transform
        work executes in vectorized batch passes.  Non-linear layers
        (residual joins included) apply to the whole activation stack at
        once.
        """
        session = make_session(self.params, rng)
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        expected = [self.net.forward_with_kernels(img) for img in images]

        x = self.net.input_params.quantize(images)
        layer_stats: List[List[ProtocolStats]] = [[] for _ in images]
        skip_stack: List[np.ndarray] = []
        for op in self.net.ops:
            if op[0] == "conv":
                spec = op[1]
                m, c, kh, kw = spec.weight_q.shape
                shape = ConvShape(
                    in_channels=c,
                    height=x.shape[2],
                    width=x.shape[3],
                    out_channels=m,
                    kernel_h=kh,
                    kernel_w=kw,
                    stride=spec.stride,
                    padding=spec.padding,
                )
                protocol = HybridConvProtocol(
                    self.params, shape, self.backend,
                    transport=self.transport, guard=self.guard,
                    layer_name=f"layer{len(layer_stats[0])}:conv",
                )
                results = protocol.run_batch(
                    x, spec.weight_q, rng, session=session
                )
                for item, result in enumerate(results):
                    layer_stats[item].append(result.stats)
                sp = np.stack(
                    [
                        self.net._add_bias(r.reconstructed, spec)
                        for r in results
                    ]
                )
                x = requantize_shift(sp, spec.requant_shift, spec.act_bits)
            elif op[0] == "linear":
                spec = op[1]
                shape = LinearShape(
                    in_features=spec.weight_q.shape[1],
                    out_features=spec.weight_q.shape[0],
                )
                protocol = HybridLinearProtocol(
                    self.params, shape, self.backend,
                    transport=self.transport, guard=self.guard,
                    layer_name=f"layer{len(layer_stats[0])}:linear",
                )
                outs = []
                for item in range(len(x)):
                    result = protocol.run(
                        x[item], spec.weight_q, rng, session=session
                    )
                    layer_stats[item].append(result.stats)
                    sp = self.net._add_bias(result.reconstructed, spec)
                    outs.append(
                        requantize_shift(sp, spec.requant_shift, spec.act_bits)
                    )
                x = np.stack(outs)
            elif op[0] == "res_push":
                skip_stack.append(x.copy())
            elif op[0] == "res_add":
                x = self.net._res_add(x, skip_stack.pop(), op[1])
            else:
                # Non-linear layers: evaluated by the 2PC sub-protocols in
                # the hybrid scheme; computed on the reconstructed shares
                # here (identical values, orthogonal machinery).
                x = self.net._apply_aux_batch(op, x)
        return [
            PrivateInferenceTrace(
                logits=x[item],
                expected_logits=expected[item],
                layer_stats=layer_stats[item],
            )
            for item in range(len(images))
        ]

    def accuracy(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
        max_samples: int = 8,
    ) -> float:
        """Private top-1 accuracy over (a subset of) a dataset."""
        count = min(max_samples, len(images))
        correct = 0
        for i in range(count):
            trace = self.infer(images[i], rng)
            if trace.prediction == labels[i]:
                correct += 1
        return correct / count
