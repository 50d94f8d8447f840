"""Per-layer attribution for the benchmark's traced run.

The traced run wraps the entry points of each layer of the private-conv
path (``core`` -> ``protocol`` -> ``encoding`` / ``he`` -> ``runtime`` ->
``ntt`` / ``fftcore`` / ``sparse``) in spans of
:data:`repro.obs.trace.tracer`, from this file, so the program's own spans
(``protocol.conv_batch``, ``runtime.multiply_many``, ``he.ntt_multiply``,
...) nest with them.  Wrappers are installed only around traced passes;
untraced passes run the unmodified program.

A span's *self time* is its duration minus the part of it covered by its
child spans (``noise_budget`` calls ``decrypt``, which calls
``from_rns``), so per-layer times add up to the request's wall time and
the remainder, the request span's own self time, is unattributed.
"""

from __future__ import annotations

import importlib
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Root span of one timed request (one pass over a workload's layer list).
REQUEST_SPAN = "bench.request"


def _rows(arg) -> int:
    """Polynomials in a ``(..., n)`` batch argument."""
    shape = getattr(arg, "shape", None)
    if not shape or len(shape) < 2:
        return 1
    rows = 1
    for dim in shape[:-1]:
        rows *= int(dim)
    return rows


def _one(args) -> int:
    return 1


def _batch_rows(args) -> int:
    return _rows(args[1])


# (module, attribute path, span name, count of work items per outermost call)
SPAN_TARGETS: List[Tuple[str, str, str, Callable]] = [
    ("repro.core.flash", "Flash.private_conv2d", "core.private_conv2d", _one),
    ("repro.core.flash", "Flash.private_linear", "core.private_linear", _one),
    ("repro.he.bfv", "BfvContext.keygen", "he.keygen", _one),
    ("repro.he.bfv", "BfvContext.encrypt", "he.encrypt", _one),
    ("repro.he.bfv", "BfvContext.encrypt_symmetric", "he.encrypt", _one),
    ("repro.he.bfv", "BfvContext.decrypt", "he.decrypt", _one),
    ("repro.he.bfv", "BfvContext.noise_budget", "he.noise", _one),
    ("repro.he.bfv", "BfvContext.add_plain", "he.plain", _one),
    ("repro.he.bfv", "BfvContext.sub_plain", "he.plain", _one),
    ("repro.he.bfv", "BfvContext._encode", "he.plain", _one),
    ("repro.ntt.rns", "RnsBasis.to_rns", "ntt.crt", _one),
    ("repro.ntt.rns", "RnsBasis.from_rns", "ntt.crt", _one),
    ("repro.ntt.rns", "RnsBasis.centered", "ntt.crt", _one),
    ("repro.ntt.ntt", "NegacyclicNtt.forward", "ntt.transform", _one),
    ("repro.ntt.ntt", "NegacyclicNtt.inverse", "ntt.transform", _one),
    ("repro.ntt.ntt", "NegacyclicNtt.forward_batch", "ntt.transform", _batch_rows),
    ("repro.ntt.ntt", "NegacyclicNtt.inverse_batch", "ntt.transform", _batch_rows),
    # multiply = two forward transforms and one inverse
    ("repro.ntt.ntt", "NegacyclicNtt.multiply", "ntt.transform", lambda a: 3),
    ("repro.encoding.plain_eval", "conv2d_direct", "protocol.oracle", _one),
    ("repro.protocol.secret_sharing", "ShareRing.share", "protocol.share", _one),
    ("repro.protocol.secret_sharing", "ShareRing.reconstruct", "protocol.share", _one),
    ("repro.protocol.secret_sharing", "ShareRing.random", "protocol.share", _one),
    ("repro.protocol.secret_sharing", "ShareRing.reduce", "protocol.share", _one),
    ("repro.protocol.secret_sharing", "ShareRing.add", "protocol.share", _one),
    ("repro.protocol.secret_sharing", "ShareRing.to_signed", "protocol.share", _one),
    ("repro.encoding.conv_encoding", "Conv2dEncoder.encode_input", "encoding.encode", _one),
    ("repro.encoding.conv_encoding", "Conv2dEncoder.encode_weights", "encoding.encode", _one),
    ("repro.encoding.linear_encoding", "LinearEncoder.encode_input", "encoding.encode", _one),
    ("repro.encoding.linear_encoding", "LinearEncoder.encode_weights", "encoding.encode", _one),
    ("repro.encoding.conv_encoding", "Conv2dEncoder.extract_output", "encoding.extract", _one),
    ("repro.encoding.conv_encoding", "Conv2dEncoder.decode_output", "encoding.extract", _one),
    ("repro.encoding.linear_encoding", "LinearEncoder.decode_output", "encoding.extract", _one),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.weight_forward", "fftcore.weight_fft", _one),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.weight_forward_batch", "fftcore.weight_fft", _batch_rows),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.activation_forward", "fftcore.act_fft", _one),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.activation_forward_batch", "fftcore.act_fft", _one),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.multiply_spectra", "fftcore.pointwise_inverse", _one),
    ("repro.fftcore.approx_pipeline", "ApproxNegacyclic.multiply_spectra_batch", "fftcore.pointwise_inverse", _one),
    ("repro.fftcore.twiddle_quant", "TwiddleRom.__init__", "fftcore.rom_build", _one),
    ("repro.sparse.plan", "SparsePlan.__init__", "sparse.compile", _one),
    ("repro.sparse.plan", "SparsePlan.execute", "sparse.execute", _one),
]

#: Already traced by the program; hooked only to count their work.
COUNT_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.runtime.engine", "BatchedNttBackend.multiply_many", "multiply_many"),
    ("repro.runtime.engine", "BatchedFftBackend.multiply_many", "multiply_many"),
    ("repro.runtime.engine", "BatchedHConvEngine.conv2d_batch", "conv2d_batch"),
]


def _resolve(module: str, path: str):
    """``(owner, attribute, original)`` or ``None`` when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Instrumentation:
    """Installs/removes the span and counter wrappers.

    Counts are charged only by the outermost call of a span name, so a
    ``centered`` that calls ``from_rns`` is one CRT conversion.
    """

    def __init__(self, tracer_module):
        self._obs = tracer_module
        self._patches: List[Tuple[object, str, object]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self._caches = weakref.WeakSet()
        self._new_caches: list = []
        self._cache_base: Dict[int, Tuple[int, int, int]] = {}
        self.skipped: List[str] = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name: str, count: Callable):
        obs, depth = self._obs, self._depth

        def wrapper(*args, **kwargs):
            tracer = obs.tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            work = count(args) if depth[name] == 0 else 0
            depth[name] += 1
            try:
                with tracer.span(name, n=work):
                    return fn(*args, **kwargs)
            finally:
                depth[name] -= 1

        return wrapper

    def _count_wrapper(self, fn, kind: str):
        counters = self.counters

        def wrapper(self_, *args, **kwargs):
            out = fn(self_, *args, **kwargs)
            if kind == "multiply_many":
                counters["runtime.multiply_many_polys"] += len(args[0])
            stats = getattr(self_, "last_stats", None)
            counters["sparse.mults_realized"] += int(
                getattr(stats, "weight_mults_realized", 0)
            )
            counters["sparse.mults_dense"] += int(
                getattr(stats, "weight_mults_dense", 0)
            )
            return out

        return wrapper

    def _cache_init_wrapper(self, fn):
        caches, new = self._caches, self._new_caches

        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            caches.add(self_)
            new.append(self_)

        return wrapper

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        self.skipped = []
        targets = [
            (module, path, lambda fn, n=name, c=count: self._span_wrapper(fn, n, c))
            for module, path, name, count in SPAN_TARGETS
        ] + [
            (module, path, lambda fn, k=kind: self._count_wrapper(fn, k))
            for module, path, kind in COUNT_TARGETS
        ] + [
            ("repro.runtime.plan_cache", "PlanCache.__init__",
             self._cache_init_wrapper),
        ]
        for module, path, make in targets:
            found = _resolve(module, path)
            if found is None:
                self.skipped.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-pass accounting ---------------------------------------------

    def begin_pass(self) -> None:
        self.counters.clear()
        self._new_caches.clear()
        self._cache_base = {
            id(c): (c.hits, c.misses, c.evictions) for c in list(self._caches)
        }

    def end_pass(self) -> Dict[str, float]:
        """Exact counters of the pass since :meth:`begin_pass`."""
        new = {id(c) for c in self._new_caches}
        caches = {id(c): c for c in list(self._caches) + self._new_caches}
        hits = misses = evictions = held = 0
        for key, cache in caches.items():
            base = (0, 0, 0) if key in new else self._cache_base[key]
            dh, dm = cache.hits - base[0], cache.misses - base[1]
            if dh or dm:  # bytes of the caches this pass used
                held += cache.cached_bytes
            hits += dh
            misses += dm
            evictions += cache.evictions - base[2]
        self._new_caches.clear()
        out = dict(self.counters)
        out["runtime.cache_hits"] = hits
        out["runtime.cache_misses"] = misses
        out["runtime.cache_evictions"] = evictions
        out["runtime.cache_bytes"] = held
        return out


# ---------------------------------------------------------------------------
# Span-tree analysis
# ---------------------------------------------------------------------------


class SpanTotals(NamedTuple):
    """Aggregate of the spans sharing one name."""

    self_s: float  # durations minus the time covered by child spans
    spans: int
    work: int  # work items charged by the outermost calls
    total_s: float  # plain durations


NO_SPANS = SpanTotals(0.0, 0, 0, 0.0)


def self_times(records: List[dict]) -> Dict[str, SpanTotals]:
    """Per span name: self time, span count, work count and total time.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it.
    """
    spans = [r for r in records if r.get("kind", "span") == "span"]
    children: Dict[object, List[dict]] = defaultdict(list)
    for r in spans:
        if r.get("parent") is not None:
            children[r["parent"]].append(r)
    out: Dict[str, SpanTotals] = defaultdict(lambda: NO_SPANS)
    for r in spans:
        start, end = r["ts"], r["ts"] + r["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(r["span"], ()), key=lambda c: c["ts"]):
            lo = max(c["ts"], cursor)
            hi = min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        agg = out[r["name"]]
        out[r["name"]] = SpanTotals(
            agg.self_s + max(0.0, r["dur"] - covered),
            agg.spans + 1,
            agg.work + int((r.get("attrs") or {}).get("n", 0) or 0),
            agg.total_s + r["dur"],
        )
    return dict(out)


def request_span(records: List[dict]) -> Optional[dict]:
    for r in records:
        if r.get("name") == REQUEST_SPAN and r.get("parent") is None:
            return r
    return None
