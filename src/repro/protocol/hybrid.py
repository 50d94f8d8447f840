"""One-round hybrid HE/2PC linear-layer protocols (Figure 1 of the paper).

The client encrypts its activation share and sends it; the server
homomorphically reconstructs the activation, multiplies by its plaintext
weights, subtracts a fresh random mask (its output share), and returns the
ciphertexts; the client decrypts to obtain the other output share:

    server computes  (Enc({x}^C) boxplus {x}^S) boxtimes w  boxminus s
    client holds     {y}^C = y - s

Both convolution and fully-connected layers are provided; the polynomial
multiplication backend is pluggable (exact NTT vs FLASH's approximate FFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    decompose_strided,
    iter_row_bands,
    pad_input,
)
from repro.encoding.linear_encoding import LinearEncoder, LinearShape
from repro.he.backend import PolyMulBackend
from repro.he.bfv import BfvContext, Ciphertext
from repro.he.params import BfvParameters
from repro.obs import trace as obs_trace
from repro.protocol.secret_sharing import ShareRing
from repro.protocol.wire import ciphertext_bytes
from repro.runtime.engine import BatchedFftBackend, BatchedNttBackend


@dataclass
class ProtocolStats:
    """Traffic and workload accounting for one protocol run."""

    ciphertexts_sent: int = 0
    ciphertexts_returned: int = 0
    weight_transforms: int = 0
    input_transforms: int = 0
    inverse_transforms: int = 0
    # Weight-transform multiplication accounting, populated when the
    # backend runs compiled sparse plans (repro.runtime's
    # SparseBatchedFftBackend): realized = executed by the plans, dense =
    # dense-butterfly equivalent, model = repro.sparse.opcount prediction.
    weight_mults_realized: int = 0
    weight_mults_dense: int = 0
    weight_mults_model: int = 0
    min_noise_budget: float = float("inf")
    bytes_sent: int = 0
    bytes_received: int = 0
    # Transport resilience (populated when traffic routes through a
    # repro.faults.ResilientSession) and graceful degradation.
    retries: int = 0
    timeouts: int = 0
    checksum_failures: int = 0
    dead_letters: int = 0
    degraded: bool = False
    # Supervised multi-process execution (populated when the batched
    # products ran on a repro.cluster executor): per-run supervision
    # counters of the backend calls attributed to this layer/item.
    cluster_dispatches: int = 0
    cluster_worker_deaths: int = 0
    cluster_jobs_requeued: int = 0
    cluster_serial_fallback_jobs: int = 0
    cluster_recoveries: int = 0

    @property
    def total_transforms(self) -> int:
        return (
            self.weight_transforms
            + self.input_transforms
            + self.inverse_transforms
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def realized_mult_reduction(self) -> float:
        """Fraction of dense weight-FFT mults removed by executed plans."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_realized / self.weight_mults_dense

    @property
    def model_mult_reduction(self) -> float:
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_model / self.weight_mults_dense


@dataclass
class ProtocolResult:
    """Outcome of one private linear-layer evaluation."""

    client_share: np.ndarray
    server_share: np.ndarray
    reconstructed: np.ndarray
    expected: np.ndarray
    stats: ProtocolStats = field(default_factory=ProtocolStats)

    @property
    def max_error(self) -> int:
        """Worst absolute deviation from the exact plaintext result."""
        return int(
            np.max(np.abs(self.reconstructed.astype(np.int64) - self.expected))
        )

    @property
    def exact(self) -> bool:
        return self.max_error == 0


class _PartyPair:
    """Shared key material and ring for one client/server session."""

    def __init__(self, params: BfvParameters, rng: np.random.Generator):
        if params.t & (params.t - 1):
            raise ValueError("hybrid protocol needs a power-of-two plaintext modulus")
        self.params = params
        self.ctx = BfvContext(params)
        self.ring = ShareRing(params.t.bit_length() - 1)
        self.sk, self.pk = self.ctx.keygen(rng)


class _ResilientProtocolMixin:
    """Transport routing and budget-guard helpers shared by the protocols.

    Expects ``self.params``, ``self.backend``, ``self.transport`` and
    ``self.guard`` attributes on the concrete protocol class.
    """

    def _transfer_ct(self, ct: Ciphertext, stats: ProtocolStats) -> Ciphertext:
        """Route one ciphertext through the resilient transport.

        Identity when no transport is configured.  Retry/timeout/checksum
        counters accumulated by the session during this transfer are
        attributed to ``stats`` (per-layer / per-item accounting).
        """
        if self.transport is None:
            return ct
        with obs_trace.tracer.span("protocol.transfer"):
            return self._transfer_ct_routed(ct, stats)

    def _transfer_ct_routed(
        self, ct: Ciphertext, stats: ProtocolStats
    ) -> Ciphertext:
        before = self.transport.stats
        base = (
            before.retries,
            before.timeouts,
            before.checksum_failures + before.decode_failures,
            before.dead_letters,
        )
        try:
            return self.transport.transfer_ciphertext(ct, self.params)
        finally:
            after = self.transport.stats
            stats.retries += after.retries - base[0]
            stats.timeouts += after.timeouts - base[1]
            stats.checksum_failures += (
                after.checksum_failures + after.decode_failures - base[2]
            )
            stats.dead_letters += after.dead_letters - base[3]

    def _guarded(self) -> bool:
        """Degradation applies only where an exact fallback exists: the
        approximate-FFT backends (the exact paths have nothing to fall
        back to -- undersized parameters there are a hard error)."""
        return self.guard is not None and isinstance(
            self.backend, BatchedFftBackend
        )

    def _absorb_backend_mults(self, *stats: ProtocolStats) -> None:
        """Attribute the backend's weight-transform mult accounting.

        Reads the ``last_stats`` left by the most recent ``multiply_many``
        call (the sparse runtime backend reports realized/dense/model
        counts there); call sites invoke this immediately after the
        batched product call.  Counts are per logical layer workload, so
        -- like ``weight_transforms`` -- each item of a batch is charged
        the full shared-transform count.
        """
        last = getattr(self.backend, "last_stats", None)
        if last is None:
            return
        cluster = getattr(last, "cluster", None) or {}
        for st in stats:
            st.weight_mults_realized += getattr(
                last, "weight_mults_realized", 0
            )
            st.weight_mults_dense += getattr(last, "weight_mults_dense", 0)
            st.weight_mults_model += getattr(last, "weight_mults_model", 0)
            st.cluster_dispatches += int(cluster.get("dispatches", 0))
            st.cluster_worker_deaths += int(cluster.get("worker_deaths", 0))
            st.cluster_jobs_requeued += int(cluster.get("jobs_requeued", 0))
            st.cluster_serial_fallback_jobs += int(
                cluster.get("serial_fallback_jobs", 0)
            )
            st.cluster_recoveries += int(cluster.get("recoveries", 0))


class HybridConvProtocol(_ResilientProtocolMixin):
    """Private convolution via coefficient-encoded BFV (Cheetah-style).

    Args:
        params: BFV parameters; ``t`` must be a power of two.
        shape: convolution shape (stride/padding supported).
        backend: polynomial multiplication backend (exact NTT default).
        transport: optional :class:`repro.faults.ResilientSession`; all
            ciphertext traffic (client->server activations, server->client
            results) then crosses its checksummed channel with bounded
            retry, and the retry/timeout/dead-letter counts land in
            :class:`ProtocolStats`.
        guard: optional :class:`repro.faults.BudgetGuard` watching the
            approximate path for noise-budget exhaustion (predicted via
            :mod:`repro.he.noise` before the run, observed after); under
            the ``"fallback"`` policy the layer transparently reruns on
            the exact NTT backend.  Ignored for exact backends.
        layer_name: label used in guard degradation events.
    """

    def __init__(
        self,
        params: BfvParameters,
        shape: ConvShape,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
        layer_name: str = "conv",
    ):
        self.params = params
        self.shape = shape
        self.backend = backend if backend is not None else BatchedNttBackend()
        self.transport = transport
        self.guard = guard
        self.layer_name = layer_name

    def _fallback_protocol(self) -> "HybridConvProtocol":
        return HybridConvProtocol(
            self.params,
            self.shape,
            self.guard.fallback_backend(),
            transport=self.transport,
            layer_name=self.layer_name,
        )

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> ProtocolResult:
        """Evaluate ``conv(x, w)`` privately and verify against plaintext.

        A batch of one: :meth:`run_batch` on the ``C x H x W`` input, with
        the same randomness order and budget-guard behaviour.

        Args:
            x: clear activation tensor ``C x H x W`` (signed ints); it is
                secret-shared internally before the protocol starts.
            w: server weights ``M x C x kh x kw`` (signed ints).
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material (reuse across
                layers).
        """
        return self.run_batch(x, w, rng, session=session)[0]

    @obs_trace.traced("protocol.conv_batch")
    def run_batch(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> List[ProtocolResult]:
        """Evaluate ``conv(x_i, w)`` privately for a whole batch of inputs.

        Every phase/band builds its encoder and weight polynomials once for
        the whole batch, and all homomorphic plaintext products of a band
        (items x channels x tiles x 2 ciphertext components) go through
        one ``backend.multiply_many`` call, so the transform work is
        batched and the weight spectra are computed once.

        Args:
            xs: clear activations ``B x C x H x W`` (or ``C x H x W``).
            w: server weights ``M x C x kh x kw``.
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material.

        Returns:
            one :class:`ProtocolResult` per batch item, in order.
        """
        party = session or _PartyPair(self.params, rng)
        if self._guarded():
            if self.guard.preflight(
                w,
                num_accumulated=self.shape.in_channels,
                layer=self.layer_name,
            ):
                results = self._fallback_protocol().run_batch(
                    xs, w, rng, session=party
                )
                for result in results:
                    result.stats.degraded = True
                return results
        results = self._run_batch_once(xs, w, rng, party)
        worst = max((r.max_error for r in results), default=0)
        if self._guarded() and self.guard.observe(worst, layer=self.layer_name):
            results = self._fallback_protocol().run_batch(
                xs, w, rng, session=party
            )
            for result in results:
                result.stats.degraded = True
        return results

    def _run_batch_once(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        party: _PartyPair,
    ) -> List[ProtocolResult]:
        from repro.encoding.plain_eval import conv2d_direct

        ring = party.ring

        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim == 3:
            xs = xs[None]
        w = np.asarray(w, dtype=np.int64)
        batch = xs.shape[0]
        stats = [ProtocolStats() for _ in range(batch)]
        expected = [
            conv2d_direct(x, w, stride=self.shape.stride, padding=self.shape.padding)
            for x in xs
        ]
        for e in expected:
            if not ring.fits_signed(e):
                raise ValueError(
                    "convolution output overflows the sharing ring; "
                    "increase the plaintext modulus"
                )

        shares = [ring.share(x, rng) for x in xs]
        xc_pads = [
            pad_input(ring.to_signed(c), self.shape.padding) for c, _ in shares
        ]
        xs_pads = [
            pad_input(ring.to_signed(sv), self.shape.padding) for _, sv in shares
        ]

        padded_shape = ConvShape(
            in_channels=self.shape.in_channels,
            height=self.shape.padded_height,
            width=self.shape.padded_width,
            out_channels=self.shape.out_channels,
            kernel_h=self.shape.kernel_h,
            kernel_w=self.shape.kernel_w,
            stride=self.shape.stride,
            padding=0,
        )

        y_clients = [np.zeros_like(e) for e in expected]
        y_servers = [np.zeros_like(e) for e in expected]
        oh, ow = expected[0].shape[1], expected[0].shape[2]
        s = self.shape.stride
        for phase, a, b in decompose_strided(padded_shape):
            xc_phase = [
                xp[:, a::s, b::s][:, : phase.height, : phase.width]
                for xp in xc_pads
            ]
            xs_phase = [
                xp[:, a::s, b::s][:, : phase.height, : phase.width]
                for xp in xs_pads
            ]
            w_phase = w[:, :, a::s, b::s]
            for row_start, band in iter_row_bands(phase, self.params.n):
                enc = Conv2dEncoder(band, self.params.n)
                rows = slice(row_start, row_start + band.height)
                ys = self._run_phase_batch(
                    party, enc,
                    [xc[:, rows, :] for xc in xc_phase],
                    [xv[:, rows, :] for xv in xs_phase],
                    w_phase, rng, stats,
                )
                for item, (yc, yv) in enumerate(ys):
                    r1 = min(row_start + yc.shape[1], oh)
                    pad_rows = r1 - row_start
                    if pad_rows <= 0:
                        continue
                    yc_full = np.zeros_like(y_clients[item])
                    ys_full = np.zeros_like(y_servers[item])
                    yc_full[:, row_start:r1, :ow] = yc[:, :pad_rows, :ow]
                    ys_full[:, row_start:r1, :ow] = yv[:, :pad_rows, :ow]
                    y_clients[item] = ring.add(y_clients[item], yc_full)
                    y_servers[item] = ring.add(y_servers[item], ys_full)

        return [
            ProtocolResult(
                client_share=y_clients[item],
                server_share=y_servers[item],
                reconstructed=ring.reconstruct(y_clients[item], y_servers[item]),
                expected=expected[item],
                stats=stats[item],
            )
            for item in range(batch)
        ]

    @obs_trace.traced("protocol.phase_batch")
    def _run_phase_batch(
        self,
        party: _PartyPair,
        enc: Conv2dEncoder,
        xc_items: List[np.ndarray],
        xs_items: List[np.ndarray],
        w: np.ndarray,
        rng: np.random.Generator,
        stats: List[ProtocolStats],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        ctx, ring = party.ctx, party.ring
        t = self.params.t
        batch = len(xc_items)

        w_polys = enc.encode_weights(w)  # shared by the whole batch
        counts = enc.transforms_per_hconv()

        # Client side: encrypt every item's tiles (same rng order as
        # serial runs of the same item list).
        all_full_cts: List[List[Ciphertext]] = []
        for item in range(batch):
            client_polys = enc.encode_input(xc_items[item])
            cts = [
                ctx.encrypt_symmetric(party.sk, poly % t, rng)
                for poly in client_polys
            ]
            stats[item].ciphertexts_sent += len(cts)
            stats[item].bytes_sent += len(cts) * ciphertext_bytes(self.params)
            stats[item].input_transforms += len(cts)
            stats[item].weight_transforms += counts["weight_forward"]
            stats[item].inverse_transforms += counts["inverse"]
            # Client -> server hop (resilient transport when configured).
            cts = [self._transfer_ct(ct, stats[item]) for ct in cts]
            server_polys = enc.encode_input(xs_items[item])
            all_full_cts.append(
                [
                    ctx.add_plain(ct, server_polys[tile] % t)
                    for tile, ct in enumerate(cts)
                ]
            )

        # Server side: every (item, channel, tile) product in one batch.
        out_channels = enc.shape.out_channels
        tiles = len(all_full_cts[0])
        pairs = [(m, tile) for m in range(out_channels) for tile in range(tiles)]
        polys, weights = [], []
        for item in range(batch):
            for m, tile in pairs:
                w_poly = w_polys[(tile, m)]
                polys.extend(
                    (all_full_cts[item][tile].c0, all_full_cts[item][tile].c1)
                )
                weights.extend((w_poly, w_poly))
        outs = self.backend.multiply_many(polys, weights)
        self._absorb_backend_mults(*stats)
        products: Dict[Tuple[int, int, int], Ciphertext] = {}
        for item in range(batch):
            for i, (m, tile) in enumerate(pairs):
                k = 2 * (item * len(pairs) + i)
                products[(item, m, tile)] = Ciphertext(outs[k], outs[k + 1])

        results: List[Tuple[np.ndarray, np.ndarray]] = []
        oh, ow = enc.shape.out_height, enc.shape.out_width
        for item in range(batch):
            y_client = np.zeros((out_channels, oh, ow), dtype=np.int64)
            y_server = np.zeros_like(y_client)
            for m in range(out_channels):
                acc = None
                for tile in range(tiles):
                    prod = products[(item, m, tile)]
                    acc = prod if acc is None else ctx.add(acc, prod)
                r = ring.random(self.params.n, rng)
                ct_out = ctx.sub_plain(acc, r)
                stats[item].ciphertexts_returned += 1
                stats[item].bytes_received += ciphertext_bytes(self.params)
                # Server -> client hop.
                ct_out = self._transfer_ct(ct_out, stats[item])
                stats[item].min_noise_budget = min(
                    stats[item].min_noise_budget,
                    ctx.noise_budget(party.sk, ct_out),
                )
                y_client[m] = ring.reduce(
                    enc.extract_output(ctx.decrypt(party.sk, ct_out))
                )
                y_server[m] = ring.reduce(enc.extract_output(r))
            results.append((y_client, y_server))
        return results


class HybridLinearProtocol(_ResilientProtocolMixin):
    """Private fully-connected layer ``y = W @ x`` (same one-round flow).

    ``transport`` and ``guard`` behave as on :class:`HybridConvProtocol`.
    """

    def __init__(
        self,
        params: BfvParameters,
        shape: LinearShape,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
        layer_name: str = "linear",
    ):
        self.params = params
        self.shape = shape
        self.backend = backend if backend is not None else BatchedNttBackend()
        self.transport = transport
        self.guard = guard
        self.layer_name = layer_name

    def _fallback_protocol(self) -> "HybridLinearProtocol":
        return HybridLinearProtocol(
            self.params,
            self.shape,
            self.guard.fallback_backend(),
            transport=self.transport,
            layer_name=self.layer_name,
        )

    @obs_trace.traced("protocol.linear")
    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> ProtocolResult:
        party = session or _PartyPair(self.params, rng)
        if self._guarded():
            if self.guard.preflight(w, num_accumulated=1, layer=self.layer_name):
                result = self._fallback_protocol().run(x, w, rng, session=party)
                result.stats.degraded = True
                return result
        result = self._run_once(x, w, rng, party)
        if self._guarded() and self.guard.observe(
            result.max_error, layer=self.layer_name
        ):
            result = self._fallback_protocol().run(x, w, rng, session=party)
            result.stats.degraded = True
        return result

    def _run_once(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        party: _PartyPair,
    ) -> ProtocolResult:
        ring, ctx = party.ring, party.ctx
        stats = ProtocolStats()
        t = self.params.t

        x = np.asarray(x, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        expected = (w @ x).astype(np.int64)
        if not ring.fits_signed(expected):
            raise ValueError("matvec output overflows the sharing ring")

        x_client, x_server = ring.share(x, rng)
        enc = LinearEncoder(self.shape, self.params.n)

        client_polys = enc.encode_input(ring.to_signed(x_client))
        server_polys = enc.encode_input(ring.to_signed(x_server))
        w_polys = enc.encode_weights(w)
        counts = enc.transforms_per_matvec()
        stats.weight_transforms += counts["weight_forward"]
        stats.inverse_transforms += counts["inverse"]

        cts = [
            ctx.encrypt_symmetric(party.sk, poly % t, rng)
            for poly in client_polys
        ]
        stats.ciphertexts_sent += len(cts)
        stats.bytes_sent += len(cts) * ciphertext_bytes(self.params)
        stats.input_transforms += len(cts)
        # Client -> server hop (resilient transport when configured).
        cts = [self._transfer_ct(ct, stats) for ct in cts]

        # Server: every (chunk, group) product in one batched call, then
        # one fresh mask per product, drawn in (chunk, group) order.
        keys = [
            (chunk, group)
            for chunk in range(len(cts))
            for group in range(enc.num_row_groups)
        ]
        full = [
            ctx.add_plain(ct, server_polys[chunk] % t)
            for chunk, ct in enumerate(cts)
        ]
        polys, weights = [], []
        for chunk, group in keys:
            polys.extend((full[chunk].c0, full[chunk].c1))
            weights.extend((w_polys[(chunk, group)],) * 2)
        outs = self.backend.multiply_many(polys, weights)
        self._absorb_backend_mults(stats)
        masked = {}
        masks = {}
        for i, key in enumerate(keys):
            r = ring.random(self.params.n, rng)
            masked[key] = ctx.sub_plain(
                Ciphertext(outs[2 * i], outs[2 * i + 1]), r
            )
            masks[key] = r
        stats.ciphertexts_returned += len(masked)
        stats.bytes_received += len(masked) * ciphertext_bytes(self.params)

        client_products = {}
        for key, ct_out in masked.items():
            # Server -> client hop.
            ct_out = self._transfer_ct(ct_out, stats)
            stats.min_noise_budget = min(
                stats.min_noise_budget, ctx.noise_budget(party.sk, ct_out)
            )
            client_products[key] = ctx.decrypt(party.sk, ct_out)
        y_client = ring.reduce(enc.decode_output(client_products))
        y_server = ring.reduce(enc.decode_output(masks))

        return ProtocolResult(
            client_share=y_client,
            server_share=y_server,
            reconstructed=ring.reconstruct(y_client, y_server),
            expected=expected,
            stats=stats,
        )


def make_session(params: BfvParameters, rng: np.random.Generator) -> _PartyPair:
    """Generate reusable key material for a sequence of protocol runs."""
    return _PartyPair(params, rng)
