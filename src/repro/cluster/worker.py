"""Worker-process side of the cluster executor.

:func:`worker_main` is the process entry point: a loop that receives
CRC32-framed job envelopes over its pipe, executes them against a
per-process :class:`WorkerState` (cached engines/backends with their own
integrity-checked plan caches) and replies with framed results.

Every reply carries a cumulative snapshot of the worker's local fault
counters -- wire decode errors from :func:`repro.protocol.wire
.deserialize_poly` and plan-cache integrity evictions -- so the
supervisor folds them into its :class:`~repro.cluster.supervisor
.ClusterStats` incrementally.  A worker that dies (SIGKILL, OOM) loses at
most the counters accumulated since its last reply, not its whole
history.

:func:`execute_job` is deliberately a pure module-level function shared
with the supervisor's in-process serial fallback: the degraded path runs
*exactly* the code a worker would have run, which is what makes the
fallback a bit-identical oracle rather than a second implementation.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from repro.cluster.jobs import (
    MSG_ERROR,
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TAMPER,
    MSG_WARMUP,
    WireBasisParams,
    WireDecodeError,
    basis_from_wire,
    config_from_wire,
    decode_message,
    encode_message,
    shape_from_wire,
)
from repro.faults.channel import ChecksumError
from repro.obs import trace as obs_trace


class WorkerState:
    """Per-process execution state: cached engines, backends, counters."""

    def __init__(self):
        self._engines: Dict[tuple, Any] = {}
        self._backends: Dict[tuple, Any] = {}
        self.jobs_done = 0
        self.wire_errors = 0

    # -- lazily built execution objects ---------------------------------

    def engine(self, mode: str, config_wire):
        key = ("engine", mode, config_wire)
        if key not in self._engines:
            from repro.runtime.engine import BatchedHConvEngine

            self._engines[key] = BatchedHConvEngine(
                mode=mode,
                weight_config=config_from_wire(config_wire),
            )
        return self._engines[key]

    def backend(self, kind: str, config_wire, pattern):
        key = ("backend", kind, config_wire,
               None if pattern is None else tuple(pattern))
        if key not in self._backends:
            from repro.runtime.engine import (
                BatchedFftBackend,
                BatchedNttBackend,
                SparseBatchedFftBackend,
            )

            if kind == "ntt":
                backend = BatchedNttBackend()
            elif kind == "flash":
                backend = BatchedFftBackend(
                    weight_config=config_from_wire(config_wire)
                )
            elif kind == "sparse":
                backend = SparseBatchedFftBackend(
                    weight_config=config_from_wire(config_wire),
                    pattern=pattern,
                )
            else:
                raise ValueError(f"unknown backend kind {kind!r}")
            self._backends[key] = backend
        return self._backends[key]

    # -- fault counters ---------------------------------------------------

    def _caches(self):
        for engine in self._engines.values():
            yield engine.plan_cache
        for backend in self._backends.values():
            for attr in ("plan_cache", "_spectrum_cache", "_pipelines"):
                cache = getattr(backend, attr, None)
                if cache is not None and hasattr(cache, "stats"):
                    yield cache

    def cache_corruptions(self) -> int:
        """Total integrity evictions across every cache this process owns."""
        return sum(cache.stats().get("corruptions", 0) for cache in self._caches())

    def counters(self) -> Dict[str, int]:
        """Cumulative per-process counter snapshot (attached to replies)."""
        return {
            "jobs": self.jobs_done,
            "wire_errors": self.wire_errors,
            "cache_corruptions": self.cache_corruptions(),
        }

    def tamper_one_cache_entry(self) -> int:
        """Chaos/test hook: flip bytes inside cached arrays in place.

        Returns how many entries were mutated.  The next integrity-checked
        lookup of each mutated entry must detect the damage, evict it and
        recompute -- which the campaign verifies by bit-comparing results.
        """
        tampered = 0
        for cache in self._caches():
            if not getattr(cache, "check_integrity", False):
                continue
            for key in cache.keys():
                value = cache.get(key)
                arrays = []
                if isinstance(value, np.ndarray):
                    arrays.append(value)
                values = getattr(value, "values", None)
                if isinstance(values, np.ndarray):
                    arrays.append(values)
                for arr in arrays:
                    if arr.size:
                        flat = arr.view(np.uint8).reshape(-1)
                        flat[0] ^= 0xFF
                        tampered += 1
                        break
                if arrays:
                    break
        return tampered


# ---------------------------------------------------------------------------
# Job execution (shared with the supervisor's serial fallback)
# ---------------------------------------------------------------------------


def execute_job(kind: str, payload: Dict[str, Any], state: WorkerState) -> dict:
    """Execute one job payload; returns the reply payload.

    Raises:
        WireDecodeError: a serialized polynomial in the payload failed
            :func:`~repro.protocol.wire.deserialize_poly` validation.
        Exception: any real execution bug propagates (the supervisor
            retries, then reproduces it loudly on the serial path).
    """
    if kind == MSG_JOB_CONV:
        return _execute_conv(payload, state)
    if kind == MSG_JOB_MUL:
        return _execute_mul(payload, state)
    raise ValueError(f"unknown job kind {kind!r}")


def _execute_conv(payload: Dict[str, Any], state: WorkerState) -> dict:
    engine = state.engine(payload["mode"], payload["config"])
    shape = shape_from_wire(payload["shape"])
    out = engine.conv2d_batch(payload["x"], payload["w"], shape, payload["n"])
    stats = engine.last_stats
    state.jobs_done += 1
    return {
        "out": out,
        "stats": {
            "products": stats.products,
            "weight_transforms": stats.weight_transforms,
            "weight_mults_realized": stats.weight_mults_realized,
            "weight_mults_dense": stats.weight_mults_dense,
            "weight_mults_model": stats.weight_mults_model,
        },
    }


def _execute_mul(payload: Dict[str, Any], state: WorkerState) -> dict:
    from repro.protocol.wire import deserialize_poly, serialize_poly

    basis = basis_from_wire(payload["basis"])
    params = WireBasisParams(basis)
    polys = []
    for i, blob in enumerate(payload["polys"]):
        try:
            poly, _ = deserialize_poly(blob, params)
        except ValueError as exc:
            state.wire_errors += 1
            raise WireDecodeError(
                f"job polynomial {i} failed wire validation: {exc}"
            ) from exc
        polys.append(poly)
    backend = state.backend(
        payload["backend"], payload["config"], payload["pattern"]
    )
    outs = backend.multiply_many(polys, payload["weights"])
    stats = backend.last_stats
    state.jobs_done += 1
    return {
        "polys": [serialize_poly(p) for p in outs],
        "stats": {
            "products": stats.products,
            "weight_transforms": stats.weight_transforms,
            "weight_mults_realized": stats.weight_mults_realized,
            "weight_mults_dense": stats.weight_mults_dense,
            "weight_mults_model": stats.weight_mults_model,
        },
    }


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def worker_main(conn, slot: int, incarnation: int) -> None:
    """Receive-execute-reply loop of one cluster worker process.

    Args:
        conn: the worker end of the supervisor's duplex pipe.
        slot: pool slot index (stable across respawns; for diagnostics).
        incarnation: how many processes have occupied this slot before.
    """
    # A forked child may inherit the parent's tracer with its lock held
    # by another thread; rebind a fresh one before anything can touch it.
    obs_trace.reset_for_fork()
    state = WorkerState()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        try:
            kind, job_id, payload = decode_message(data)
        except (ChecksumError, ValueError) as exc:
            # The job frame itself was damaged in transit: report the wire
            # fault loudly so the supervisor requeues; never guess.
            state.wire_errors += 1
            _safe_send(conn, encode_message(MSG_ERROR, 0, {
                "error": str(exc), "fault": "wire", "counters": state.counters(),
            }))
            continue
        if kind == MSG_SHUTDOWN:
            break
        if kind == MSG_PING:
            _safe_send(conn, encode_message(MSG_PONG, job_id, {
                "slot": slot, "incarnation": incarnation,
                "counters": state.counters(),
            }))
            continue
        if kind == MSG_TAMPER:
            tampered = state.tamper_one_cache_entry()
            _safe_send(conn, encode_message(MSG_RESULT, job_id, {
                "data": {"tampered": tampered}, "counters": state.counters(),
            }))
            continue

        # Injected-fault decorations (chaos campaigns / recovery tests)
        # and supervisor-side scheduling metadata: all are envelope-level
        # keys the execution code must never see.
        hang_s = 0.0
        duplicate = False
        trace_ctx = None
        if isinstance(payload, dict):
            hang_s = float(payload.pop("_inject_hang_s", 0.0))
            duplicate = bool(payload.pop("_inject_duplicate", False))
            payload.pop("deadline_ms", None)  # armed supervisor-side
            trace_ctx = obs_trace.pop_trace_context(payload)
        if hang_s > 0.0:
            time.sleep(hang_s)  # simulated hang: the supervisor's deadline fires

        spans = None
        try:
            if kind == MSG_WARMUP:
                execute_job(payload["job_kind"], payload["job"], state)
                reply = {"warmed": True}
            elif trace_ctx is not None:
                reply, spans = _traced_execute(
                    kind, payload, state, trace_ctx, slot
                )
            else:
                reply = execute_job(kind, payload, state)
        except WireDecodeError as exc:
            _safe_send(conn, encode_message(MSG_ERROR, job_id, {
                "error": str(exc), "fault": "wire", "counters": state.counters(),
            }))
            continue
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            _safe_send(conn, encode_message(MSG_ERROR, job_id, {
                "error": f"{type(exc).__name__}: {exc}", "fault": "exec",
                "counters": state.counters(),
            }))
            continue
        envelope = {"data": reply, "counters": state.counters()}
        if spans:
            # Spans travel beside -- never inside -- the result data, so
            # traced results stay byte-identical to untraced runs.
            envelope["spans"] = spans
        message = encode_message(MSG_RESULT, job_id, envelope)
        _safe_send(conn, message)
        if duplicate:
            _safe_send(conn, message)  # exercises exactly-once discard
    conn.close()


def _traced_execute(kind, payload, state, trace_ctx, slot):
    """Run one job under a ``cluster.job`` span parented to the caller.

    The worker-local tracer is enabled only for the duration of the job;
    its buffer is drained into the reply so the supervisor can stitch
    the worker's spans (engine stage timers included, via the per-thread
    span stack) into the request's trace.
    """
    tracer = obs_trace.tracer
    was_enabled = tracer.enabled
    if not was_enabled:
        tracer.enable(capacity=512)
        tracer.clear()
    try:
        with tracer.span("cluster.job", parent=trace_ctx, kind=kind,
                         slot=slot):
            reply = execute_job(kind, payload, state)
    finally:
        spans = tracer.drain()
        if not was_enabled:
            tracer.disable()
    return reply, spans


def _safe_send(conn, data: bytes) -> bool:
    try:
        conn.send_bytes(data)
        return True
    except (BrokenPipeError, OSError):
        return False
