"""Seeded inputs, integer references and the three benchmark workloads.

Every workload drives the public API from outside -- ``Flash.private_conv2d``,
``Flash.private_linear`` and ``BatchedHConvEngine.conv2d_batch`` -- with the
paper defaults (``FlashConfig()``: dw=27, k=5, ``cheetah_preset(4096)``),
serially, as one closed-loop client.  A request is one pass over the
workload's layer list in one mode:

* ``ntt``    -- exact NTT backends;
* ``flash``  -- dense approximate fixed-point FFT;
* ``sparse`` -- compiled sparse weight plans.

Inputs come only from the seed; the program sees the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

MODES = ("ntt", "flash", "sparse")


@dataclass(frozen=True)
class Slice:
    """A channel slice of one ResNet-18 conv layer (spatial size, kernel,
    stride and padding are the layer's own)."""

    layer: str
    in_channels: int
    out_channels: int


@dataclass(frozen=True)
class FcSlice:
    """A row slice of the ResNet-18 FC layer (full 512-wide input)."""

    in_features: int
    out_features: int


# Stage 1 (56x56, 3x3/1), stage 2 (56->28, 1x1/2), stage 3 (14x14,
# 3x3/1), stage 4 (7x7, 3x3/1).  Input channels fill one ciphertext tile
# (two for the 56x56 plane, which holds one channel per tile).
PRIVATE_SLICES: Tuple[Slice, ...] = (
    Slice("layer1.0.conv1", 2, 1),
    Slice("layer2.0.downsample", 5, 1),
    Slice("layer3.1.conv1", 16, 2),
    Slice("layer4.1.conv1", 50, 1),
)
FC_SLICE = FcSlice(512, 8)
# Six layers over all four stages, both kernels and both strides; about
# 150 distinct weight polynomials per request.
STREAM_SLICES: Tuple[Slice, ...] = (
    Slice("layer1.0.conv1", 8, 4),
    Slice("layer2.0.conv1", 8, 4),
    Slice("layer2.0.downsample", 10, 8),
    Slice("layer3.1.conv1", 32, 8),
    Slice("layer4.0.downsample", 64, 16),
    Slice("layer4.1.conv1", 100, 16),
)

#: Items per ``private-conv`` / ``hconv-stream`` request.
BATCH = 2
#: Distinct activation sets cycled through by the requests.
ACTIVATION_SETS = 3


def conv_shapes(slices: Sequence[Slice], toy: bool) -> list:
    """Resolve slices against ``resnet18_conv_layers()`` into ``ConvShape``s.

    ``toy`` shrinks each spatial size so the layer fits a 256-coefficient
    ring (the harness smoke test); kernel, stride and padding stay.
    """
    from repro.nn.resnet import resnet18_conv_layers

    table = {layer.name: layer.shape for layer in resnet18_conv_layers()}
    shapes = []
    for s in slices:
        shape = replace(
            table[s.layer],
            in_channels=s.in_channels,
            out_channels=s.out_channels,
        )
        if toy:
            size = min(shape.height, 8 if shape.stride == 1 else 12)
            shape = replace(shape, height=size, width=size)
        shapes.append(shape)
    return shapes


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def quantized_weights(rng: np.random.Generator, shape) -> np.ndarray:
    """He-init floats quantized to 4 bits with ``repro.nn.quant.calibrate``
    (max-abs PTQ: ~20-25% of taps round to zero)."""
    from repro.nn.quant import calibrate

    fan_in = int(np.prod(shape[1:]))
    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return calibrate(w, bits=4).quantize(w)


def relu_activations(rng: np.random.Generator, shape) -> np.ndarray:
    """Post-ReLU activations as 4-bit unsigned codes in ``[0, 15]``.

    A symmetric 5-bit quantizer of non-negative data yields exactly the
    unsigned 4-bit range.
    """
    from repro.nn.quant import calibrate

    a = np.maximum(rng.normal(0.0, 1.0, size=shape), 0.0)
    return calibrate(a, bits=5).quantize(a)


def conv_weights(rng, shapes) -> List[np.ndarray]:
    return [
        quantized_weights(
            rng, (s.out_channels, s.in_channels, s.kernel_h, s.kernel_w)
        )
        for s in shapes
    ]


def conv_activations(rng, shapes, batch: Optional[int]) -> List[np.ndarray]:
    lead = () if batch is None else (batch,)
    return [
        relu_activations(rng, lead + (s.in_channels, s.height, s.width))
        for s in shapes
    ]


# ---------------------------------------------------------------------------
# The benchmark's own integer reference (never the program's oracle)
# ---------------------------------------------------------------------------


def conv_reference(x: np.ndarray, w: np.ndarray, stride: int, padding: int):
    """Exact integer ``conv2d`` of ``C x H x W`` (or ``B x C x H x W``)."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    batched = x.ndim == 4
    if not batched:
        x = x[None]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    y = np.einsum("bchwij,mcij->bmhw", win, w, optimize=True)
    return y if batched else y[0]


def matvec_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.asarray(w, dtype=np.int64) @ np.asarray(x, dtype=np.int64)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class CallOutcome:
    """One layer call of a request: outputs (or the exception it raised)."""

    outputs: List[np.ndarray]
    reference: List[np.ndarray]
    ciphertexts: int = 0
    wire_bytes: int = 0
    error: Optional[str] = None

    @property
    def wrong(self) -> bool:
        if self.error is not None:
            return True
        return any(
            out.shape != ref.shape or bool(np.any(out != ref))
            for out, ref in zip(self.outputs, self.reference)
        )

    @property
    def max_abs_error(self) -> int:
        worst = 0
        for out, ref in zip(self.outputs, self.reference):
            if out.shape == ref.shape and out.size:
                diff = np.abs(out.astype(np.int64) - ref)
                worst = max(worst, int(diff.max()))
        return worst


def _call(fn, *args, **kwargs):
    """``fn``'s result, or the exception it raised (the call counts as
    wrong; its message lands on the run's ``#`` lines)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _outcome(result, reference: List[np.ndarray], protocol: bool):
    if isinstance(result, Exception):
        return CallOutcome([], reference, error=repr(result))
    if not protocol:
        return CallOutcome([result], reference)
    results = result if isinstance(result, list) else [result]
    return CallOutcome(
        [r.reconstructed for r in results],
        reference,
        ciphertexts=sum(
            r.stats.ciphertexts_sent + r.stats.ciphertexts_returned
            for r in results
        ),
        wire_bytes=sum(
            r.stats.bytes_sent + r.stats.bytes_received for r in results
        ),
    )


class Workload:
    """Base: seeded inputs, a fresh system per :meth:`setup`, one pass per
    :meth:`request`.  The pass returns raw outputs; checking happens after
    the timed region (:meth:`outcomes`)."""

    name = ""

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.rng = np.random.default_rng([seed, 0x5EED])
        self.system = None

    def config(self):
        from repro.core.config import FlashConfig

        if self.toy:
            from repro.he.params import toy_preset

            return FlashConfig(params=toy_preset(n=256, share_bits=20))
        return FlashConfig()

    def setup(self) -> None:
        """Build a fresh system (the encrypted workloads: a ``Flash``
        facade, whose first request runs keygen)."""
        from repro.core import Flash

        self.system = Flash(self.config())

    def close(self) -> None:
        self.system = None

    def prepare(self, index: int) -> None:
        """Untimed input preparation before request ``index``."""

    def request(self, mode: str, index: int) -> list:
        raise NotImplementedError

    def outcomes(self, raw: list, index: int) -> List[CallOutcome]:
        raise NotImplementedError


class EncryptedWorkload(Workload):
    """The hybrid HE/2PC protocol over the encrypted slices."""

    #: activations per request (``None``: one image, unbatched path)
    batch: Optional[int] = None
    with_fc = False

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.shapes = conv_shapes(PRIVATE_SLICES, toy)
        self.weights = conv_weights(self.rng, self.shapes)
        if self.with_fc:
            self.fc_weight = quantized_weights(
                self.rng, (FC_SLICE.out_features, FC_SLICE.in_features)
            )
        self.activations, self.fc_inputs = [], []
        #: per activation set, per call: one reference array per image
        self.references = []
        for _ in range(ACTIVATION_SETS):
            acts = conv_activations(self.rng, self.shapes, self.batch)
            refs = [
                conv_reference(x, w, s.stride, s.padding)
                for x, w, s in zip(acts, self.weights, self.shapes)
            ]
            refs = [list(r) if self.batch else [r] for r in refs]
            if self.with_fc:
                x_fc = relu_activations(self.rng, (FC_SLICE.in_features,))
                self.fc_inputs.append(x_fc)
                refs.append([matvec_reference(x_fc, self.fc_weight)])
            self.activations.append(acts)
            self.references.append(refs)

    def request_rng(self, index: int, mode: str) -> np.random.Generator:
        # index -1 is the set-up (warm-up) pass
        return np.random.default_rng(
            [self.seed, index + 1, MODES.index(mode)]
        )

    def request(self, mode: str, index: int) -> list:
        flash, rng = self.system, self.request_rng(index, mode)
        which = index % ACTIVATION_SETS
        out = [
            _call(
                flash.private_conv2d, x, w, s, rng,
                exact=mode == "ntt", batch=self.batch is not None,
                sparse=mode == "sparse",
            )
            for x, w, s in zip(
                self.activations[which], self.weights, self.shapes
            )
        ]
        if self.with_fc:
            # private_linear has no sparse path: the sparse mode's FC layer
            # runs on the dense approximate backend.
            out.append(_call(
                flash.private_linear, self.fc_inputs[which], self.fc_weight,
                rng, exact=mode == "ntt",
            ))
        return out

    def outcomes(self, raw: list, index: int) -> List[CallOutcome]:
        refs = self.references[index % ACTIVATION_SETS]
        return [_outcome(r, ref, protocol=True) for r, ref in zip(raw, refs)]


class PrivateConv(EncryptedWorkload):
    """Encrypted hybrid protocol, batched: B activations per request, fixed
    per-layer weights (a server with a fixed model)."""

    name = "private-conv"
    batch = BATCH


class PrivateLayerB1(EncryptedWorkload):
    """One image per request through the unbatched protocol path, ending
    with the sliced ResNet-18 FC layer through ``private_linear``."""

    name = "private-layer-b1"
    with_fc = True


class HConvStream(Workload):
    """Clear-domain ``BatchedHConvEngine.conv2d_batch``; every request brings
    weights the process has not seen, so weight transforms run each time
    while plans and sparse per-tile patterns stay cached."""

    name = "hconv-stream"

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.shapes = conv_shapes(STREAM_SLICES, toy)
        self.activations = [
            conv_activations(self.rng, self.shapes, BATCH)
            for _ in range(ACTIVATION_SETS)
        ]
        self._index: Optional[int] = None

    def prepare(self, index: int) -> None:
        """Draw request ``index``'s fresh weights and references.

        Weights come from a generator keyed by the request index, so
        request ``i`` sees the same weights in every mode and every run.
        """
        if index == self._index:
            return
        rng = np.random.default_rng([self.seed, 0x57AE, index + 1])
        self.weights = conv_weights(rng, self.shapes)
        acts = self.activations[index % ACTIVATION_SETS]
        self.references = [
            [conv_reference(x, w, s.stride, s.padding)]
            for x, w, s in zip(acts, self.weights, self.shapes)
        ]
        self._index = index

    def setup(self) -> None:
        from repro.runtime import BatchedHConvEngine

        cfg = self.config()
        self.n = cfg.n
        self.system = {
            mode: BatchedHConvEngine(
                mode,
                weight_config=None if mode == "ntt" else cfg.weight_fft_config(),
            )
            for mode in MODES
        }

    def request(self, mode: str, index: int) -> list:
        engine = self.system[mode]
        acts = self.activations[index % ACTIVATION_SETS]
        return [
            _call(engine.conv2d_batch, x, w, s, self.n)
            for x, w, s in zip(acts, self.weights, self.shapes)
        ]

    def outcomes(self, raw: list, index: int) -> List[CallOutcome]:
        return [
            _outcome(y, ref, protocol=False)
            for y, ref in zip(raw, self.references)
        ]


WORKLOADS = {w.name: w for w in (PrivateConv, PrivateLayerB1, HConvStream)}
