"""Measurement loop, metric catalogue and result assembly.

One run = set-up, then a closed loop of requests for ``seconds``: each
round sends one request per mode (``ntt``, ``flash``, ``sparse``, in an
order rotated every round) on the same seeded inputs, times each with
``time.perf_counter``, and checks every output against the benchmark's own
integer reference after the timed region.

* ``trace=False``: end-to-end metrics.  Set-up runs ``SETUP_REPS`` times on
  a fresh system and reports the median; tracing is off throughout.
* ``trace=True``: per-layer metrics.  One traced set-up, then rounds
  alternate untraced and traced; the traced rounds give the span tree,
  the untraced ones the base of ``trace_overhead_frac``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import calibration
from layers import (
    NO_SPANS, REQUEST_SPAN, Instrumentation, request_span, self_times,
)
from workloads import MODES, WORKLOADS

SETUP_REPS = 3
#: Index of the warm-up request made by every set-up.
WARMUP = -1

ALL = MODES
APPROX = ("flash", "sparse")
SPARSE = ("sparse",)

#: (name, unit, better, bound) -- measured with tracing off.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_ms.ntt", "ms", "lower", 0.25),
    ("pass_ms.flash", "ms", "lower", 0.25),
    ("pass_ms.sparse", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Per-pass layer metrics: (base name, unit, better, modes that run it).
PER_PASS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("he.noise_ms", "ms", "lower", ALL),
    ("he.noise_calls", "count", "lower", ALL),
    ("he.decrypt_ms", "ms", "lower", ALL),
    ("he.decrypt_calls", "count", "lower", ALL),
    ("he.encrypt_ms", "ms", "lower", ALL),
    ("he.encrypt_calls", "count", "lower", ALL),
    ("he.plain_ms", "ms", "lower", ALL),
    ("he.multiply_ms", "ms", "lower", ALL),
    ("he.multiply_calls", "count", "lower", ALL),
    ("ntt.crt_ms", "ms", "lower", ALL),
    ("ntt.crt_calls", "count", "lower", ALL),
    ("ntt.transform_ms", "ms", "lower", ALL),
    ("ntt.transforms", "count", "lower", ALL),
    ("protocol.oracle_ms", "ms", "lower", ALL),
    ("protocol.share_ms", "ms", "lower", ALL),
    ("protocol.self_ms", "ms", "lower", ALL),
    ("protocol.ciphertexts", "count", "lower", ALL),
    ("protocol.wire_bytes", "bytes", "lower", ALL),
    ("protocol.max_abs_error", "int", "lower", ALL),
    ("runtime.multiply_many_ms", "ms", "lower", ALL),
    ("runtime.multiply_many_polys", "count", "lower", ALL),
    ("runtime.conv2d_batch_ms", "ms", "lower", ALL),
    ("runtime.cache_hits", "count", "higher", ALL),
    ("runtime.cache_misses", "count", "lower", ALL),
    ("runtime.cache_hit_rate", "ratio", "higher", ALL),
    ("runtime.cache_evictions", "count", "lower", ALL),
    ("runtime.cache_bytes", "bytes", "lower", ALL),
    ("encoding.encode_ms", "ms", "lower", ALL),
    ("encoding.extract_ms", "ms", "lower", ALL),
    ("fftcore.weight_fft_ms", "ms", "lower", APPROX),
    ("fftcore.weight_ffts", "count", "lower", APPROX),
    ("fftcore.act_fft_ms", "ms", "lower", APPROX),
    ("fftcore.pointwise_inverse_ms", "ms", "lower", APPROX),
    ("fftcore.rom_build_ms", "ms", "lower", APPROX),
    ("sparse.execute_ms", "ms", "lower", SPARSE),
    ("sparse.mults_realized", "count", "lower", SPARSE),
    ("sparse.mults_dense", "count", "lower", SPARSE),
    ("sparse.mult_reduction", "ratio", "higher", SPARSE),
    ("wrong_frac", "ratio", "lower", ALL),
    ("pass_wall_ms", "ms", "lower", ALL),
    ("unattributed_frac", "ratio", "lower", ALL),
    ("trace_overhead_frac", "ratio", "lower", ALL),
]

#: Set-up layer metrics, from the traced set-up (inclusive times).
SETUP_LAYER: List[Tuple[str, str, str]] = [
    ("he.keygen_ms", "ms", "lower"),
    ("sparse.compile_ms.sparse", "ms", "lower"),
    ("sparse.compiles.sparse", "count", "lower"),
]

#: Exact per-request counters; they must repeat bit-for-bit per seed.
EXACT_COUNTERS = (
    "protocol.ciphertexts",
    "protocol.wire_bytes",
    "ntt.transforms",
    "fftcore.weight_ffts",
    "sparse.compiles",
    "sparse.mults_realized",
    "sparse.mults_dense",
    "runtime.cache_hits",
    "runtime.cache_misses",
    "he.encrypt_calls",
    "he.decrypt_calls",
)

#: Spans the program itself opens for the runtime's clear-domain engine.
_RUNTIME_ENGINE_SPANS = (
    "runtime.conv2d_batch", "runtime.encode", "runtime.weight_transform",
    "runtime.activation_transform", "runtime.pointwise+inverse",
    "runtime.decode",
)
_HE_MULTIPLY_SPANS = ("he.ntt_multiply", "he.fft_multiply",
                      "he.cached_ntt_multiply")
_OWN_PROTOCOL_METRICS = ("protocol.oracle", "protocol.share")


def per_layer_names() -> List[Tuple[str, str, str]]:
    names = [
        (f"{base}.{mode}", unit, better)
        for base, unit, better, modes in PER_PASS
        for mode in modes
    ]
    return names + list(SETUP_LAYER) + [("calibration_ms", "ms", "lower")]


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_layer_metrics(records: List[dict], counters: Dict[str, float]):
    """Per-layer numbers of one traced pass."""
    st = self_times(records)

    def ms(*names):
        return 1e3 * sum(st.get(n, NO_SPANS).self_s for n in names)

    def spans(*names):
        return sum(st.get(n, NO_SPANS).spans for n in names)

    def work(*names):
        return sum(st.get(n, NO_SPANS).work for n in names)

    protocol_spans = [
        n for n in st
        if n.startswith("protocol.") and n not in _OWN_PROTOCOL_METRICS
    ]
    hits = counters.get("runtime.cache_hits", 0)
    misses = counters.get("runtime.cache_misses", 0)
    realized = counters.get("sparse.mults_realized", 0)
    dense = counters.get("sparse.mults_dense", 0)
    root = request_span(records)
    unattributed = (
        st[REQUEST_SPAN].self_s / root["dur"]
        if root and root["dur"] > 0 else 1.0
    )
    return {
        "he.noise_ms": ms("he.noise"),
        "he.noise_calls": work("he.noise"),
        "he.decrypt_ms": ms("he.decrypt"),
        "he.decrypt_calls": work("he.decrypt"),
        "he.encrypt_ms": ms("he.encrypt"),
        "he.encrypt_calls": work("he.encrypt"),
        "he.plain_ms": ms("he.plain"),
        "he.multiply_ms": ms(*_HE_MULTIPLY_SPANS),
        "he.multiply_calls": spans(*_HE_MULTIPLY_SPANS),
        "ntt.crt_ms": ms("ntt.crt"),
        "ntt.crt_calls": work("ntt.crt"),
        "ntt.transform_ms": ms("ntt.transform"),
        "ntt.transforms": work("ntt.transform"),
        "protocol.oracle_ms": ms("protocol.oracle"),
        "protocol.share_ms": ms("protocol.share"),
        "protocol.self_ms": ms(*protocol_spans),
        "runtime.multiply_many_ms": ms("runtime.multiply_many"),
        "runtime.multiply_many_polys": counters.get(
            "runtime.multiply_many_polys", 0),
        "runtime.conv2d_batch_ms": ms(*_RUNTIME_ENGINE_SPANS),
        "runtime.cache_hits": hits,
        "runtime.cache_misses": misses,
        "runtime.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.cache_evictions": counters.get("runtime.cache_evictions", 0),
        "runtime.cache_bytes": counters.get("runtime.cache_bytes", 0),
        "encoding.encode_ms": ms("encoding.encode"),
        "encoding.extract_ms": ms("encoding.extract"),
        "fftcore.weight_fft_ms": ms("fftcore.weight_fft"),
        "fftcore.weight_ffts": work("fftcore.weight_fft"),
        "fftcore.act_fft_ms": ms("fftcore.act_fft"),
        "fftcore.pointwise_inverse_ms": ms("fftcore.pointwise_inverse"),
        "fftcore.rom_build_ms": ms("fftcore.rom_build"),
        "sparse.execute_ms": ms("sparse.execute"),
        "sparse.compiles": work("sparse.compile"),
        "sparse.mults_realized": realized,
        "sparse.mults_dense": dense,
        "sparse.mult_reduction": 1.0 - realized / dense if dense else 0.0,
        "unattributed_frac": unattributed,
    }


class Tally:
    """Correctness and exact-count bookkeeping of one mode."""

    def __init__(self):
        self.calls = 0
        self.wrong = 0
        self.raised = 0
        self.max_abs_error = 0
        self.errors: List[str] = []

    def add(self, outcomes) -> Tuple[int, int]:
        cts = wire = 0
        for call in outcomes:
            self.calls += 1
            if call.wrong:
                self.wrong += 1
            if call.error is not None:
                self.raised += 1
                self.errors.append(call.error)
            self.max_abs_error = max(self.max_abs_error, call.max_abs_error)
            cts += call.ciphertexts
            wire += call.wire_bytes
        return cts, wire


class Run:
    """One benchmark run of one workload (see module docstring)."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, toy: bool = False,
                 trace_dir: Optional[str] = None):
        self.workload = WORKLOADS[workload](seed, toy)
        self.seconds = seconds
        self.trace = trace
        self.trace_dir = trace_dir
        self.trace_path: Optional[str] = None
        self.tallies = {mode: Tally() for mode in MODES}
        self.warmup_tallies = {mode: Tally() for mode in MODES}
        #: ``(wall_s, calibration_s)`` per untraced / traced pass and set-up
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.traced_samples: Dict[str, List[Tuple[float, float]]] = (
            defaultdict(list)
        )
        self.setups: List[Tuple[float, float]] = []
        self.layer_samples: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        #: exact counters of every traced request, in request order
        self.counter_log: List[Tuple[int, str, Dict[str, float]]] = []
        self.setup_layer: Dict[str, float] = {}
        self._chrome_records: List[dict] = []
        self.rounds = 0
        #: instrumentation targets missing from the program (traced run)
        self.skipped_targets: List[str] = []

    # -- pieces ----------------------------------------------------------

    def _setup(self, instr: Optional[Instrumentation], tracer) -> None:
        wl = self.workload
        wl.close()
        gc.collect()
        wl.prepare(WARMUP)
        kernel = calibration.kernel_seconds()
        if instr is not None:
            instr.install()
            tracer.enable(capacity=1 << 20)
        start = time.perf_counter()
        wl.setup()
        raw = {mode: wl.request(mode, WARMUP) for mode in MODES}
        self.setups.append((time.perf_counter() - start, kernel))
        if instr is not None:
            tracer.disable()
            records = tracer.drain()
            instr.uninstall()
            self._chrome_records.extend(records)
            st = self_times(records)
            keygen = st.get("he.keygen", NO_SPANS)
            compile_ = st.get("sparse.compile", NO_SPANS)
            # inclusive: the NTTs and ROM builds these cold paths trigger
            self.setup_layer = {
                "he.keygen_ms": 1e3 * keygen.total_s,
                "sparse.compile_ms.sparse": 1e3 * compile_.total_s,
                "sparse.compiles.sparse": compile_.work,
            }
        for mode in MODES:
            self.warmup_tallies[mode].add(wl.outcomes(raw[mode], WARMUP))

    def _timed(self, mode: str, index: int):
        """``((wall_s, calibration_s), outputs)`` of one untraced pass."""
        kernel = calibration.kernel_seconds()
        start = time.perf_counter()
        raw = self.workload.request(mode, index)
        return (time.perf_counter() - start, kernel), raw

    def _traced(self, mode: str, index: int, instr, tracer):
        kernel = calibration.kernel_seconds()
        instr.install()
        instr.begin_pass()
        tracer.enable()
        with tracer.span(REQUEST_SPAN, workload=self.workload.name,
                         mode=mode, index=index):
            start = time.perf_counter()
            raw = self.workload.request(mode, index)
            elapsed = time.perf_counter() - start
        tracer.disable()
        records = tracer.drain()
        counters = instr.end_pass()
        instr.uninstall()
        return (elapsed, kernel), raw, records, counters

    # -- the run ---------------------------------------------------------

    def execute(self) -> "Run":
        from repro.obs import trace as obs_trace

        tracer = obs_trace.tracer
        instr = Instrumentation(obs_trace) if self.trace else None
        try:
            self._execute(instr, tracer)
        finally:
            tracer.disable()
            tracer.clear()
            if instr is not None:
                instr.uninstall()
                self.skipped_targets = list(instr.skipped)
        if self.trace_dir:
            self._write_trace()
        return self

    def _execute(self, instr, tracer) -> None:
        for _ in range(1 if self.trace else SETUP_REPS):
            self._setup(instr, tracer)
        chrome_modes = set()
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            traced_round = self.trace and index % 2 == 1
            self.workload.prepare(index)
            gc.collect()
            shift = index % len(MODES)
            for mode in MODES[shift:] + MODES[:shift]:
                if traced_round:
                    sample, raw, records, counters = self._traced(
                        mode, index, instr, tracer
                    )
                else:
                    sample, raw = self._timed(mode, index)
                cts, wire = self.tallies[mode].add(
                    self.workload.outcomes(raw, index)
                )
                if not traced_round:
                    self.samples[mode].append(sample)
                    continue
                self.traced_samples[mode].append(sample)
                layer = _pass_layer_metrics(records, counters)
                layer["protocol.ciphertexts"] = cts
                layer["protocol.wire_bytes"] = wire
                self.layer_samples[mode].append(layer)
                self.counter_log.append(
                    (index, mode, {k: layer[k] for k in EXACT_COUNTERS})
                )
                if mode not in chrome_modes:
                    chrome_modes.add(mode)
                    self._chrome_records.extend(records)
            index += 1
            self.rounds = index
            if time.perf_counter() >= deadline and index >= (
                2 if self.trace else 1
            ):
                break

    def _write_trace(self) -> None:
        from repro.obs.export import write_chrome_trace

        os.makedirs(self.trace_dir, exist_ok=True)
        wl = self.workload
        self.trace_path = os.path.join(
            self.trace_dir, f"{wl.name}-seed{wl.seed}.trace.json"
        )
        write_chrome_trace(self.trace_path, self._chrome_records)

    # -- results ---------------------------------------------------------

    @property
    def raised(self) -> int:
        return sum(t.raised for t in self.tallies.values())

    @property
    def correct(self) -> bool:
        ntt_wrong = self.tallies["ntt"].wrong + self.warmup_tallies["ntt"].wrong
        return ntt_wrong == 0 and self.raised == 0

    @property
    def attempted(self) -> int:
        return sum(t.calls for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return self.raised + self.tallies["ntt"].wrong

    def _scale(self) -> float:
        kernels = [k for _, k in self.setups]
        for pairs in list(self.samples.values()) + list(
            self.traced_samples.values()
        ):
            kernels.extend(k for _, k in pairs)
        return calibration.scale(kernels)

    def _pass_ms(self, mode: str, traced: bool = False) -> float:
        pairs = (self.traced_samples if traced else self.samples)[mode]
        return 1e3 * statistics.median(w for w, _ in pairs) * self._scale()

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        setup = statistics.median(w for w, _ in self.setups) * self._scale()
        out = {"setup_s": (setup, "s")}
        for mode in MODES:
            out[f"pass_ms.{mode}"] = (self._pass_ms(mode), "ms")
        out["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        return out

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for base, unit, _, modes in PER_PASS:
            for mode in modes:
                tally = self.tallies[mode]
                if base == "wrong_frac":
                    value = tally.wrong / tally.calls
                elif base == "protocol.max_abs_error":
                    value = tally.max_abs_error
                elif base == "trace_overhead_frac":
                    value = (self._pass_ms(mode, traced=True)
                             / self._pass_ms(mode) - 1.0)
                elif base == "pass_wall_ms":
                    value = 1e3 * statistics.median(
                        wall for wall, _ in self.samples[mode]
                    )
                else:
                    value = statistics.median(
                        row[base] for row in self.layer_samples[mode]
                    )
                out[f"{base}.{mode}"] = (value, unit)
        for name, unit, _ in SETUP_LAYER:
            out[name] = (self.setup_layer.get(name, 0.0), unit)
        out["calibration_ms"] = (
            1e3 * calibration.REFERENCE_S / self._scale(), "ms"
        )
        return out

    def sample_counts(self) -> Dict[str, int]:
        return {mode: len(self.samples[mode]) for mode in MODES}
