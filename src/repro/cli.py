"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro tables                # Tables II, III, IV
    python -m repro sparsity --network resnet50
    python -m repro ablation --network resnet18
    python -m repro dse --layer 41 --budget 60
    python -m repro profile               # Figure 1
    python -m repro demo                  # one private convolution
    python -m repro bench-runtime         # batched HConv runtime benchmark
    python -m repro bench-check --baseline b.json --current c.json
    python -m repro lint src/repro        # domain-aware static analysis
    python -m repro chaos --seed 0        # randomized fault campaign
    python -m repro serve --duration 5    # multi-tenant inference front end
    python -m repro loadgen --json BENCH_serve.json   # load + verdict
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# Exit-code convention, shared by every subcommand:
#   0 -- success / all gates passed
#   1 -- the command ran but its gate or verdict failed (regression,
#        failed campaign, lint findings, loadgen verdict FAIL)
#   2 -- usage error (bad flag combination, unreadable input, invalid
#        parameter value); argparse's own errors also exit 2
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def usage_error(command: str, message: str) -> int:
    """Report a usage problem on stderr; returns :data:`EXIT_USAGE`."""
    print(f"{command}: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.hw import (
        ChamModel,
        FlashAccelerator,
        efficiency_ratios,
        network_workload,
        table2_rows,
        table3_rows,
    )

    print("=== Table II: multiplier hardware cost ===")
    print(
        format_table(
            ["multiplier", "bits", "tech", "area um^2", "power mW"],
            [
                [label, bits, tech, f"{cost.area_um2:.0f}", f"{cost.power_mw:.2f}"]
                for label, bits, tech, cost, _, _ in table2_rows()
            ],
        )
    )
    wl50 = network_workload("resnet50", 4096)
    wl18 = network_workload("resnet18", 4096)
    print("\n=== Table III: efficiency (ResNet-50 HConv workload) ===")
    rows = table3_rows(workloads=wl50)
    print(
        format_table(
            ["accelerator", "thr MOPS", "area mm^2", "power W", "MOPS/W"],
            [
                [r["name"], f"{r['norm_throughput_mops']:.2f}",
                 f"{r['area_mm2']:.2f}" if r["area_mm2"] else "-",
                 f"{r['power_w']:.2f}" if r["power_w"] else "-",
                 f"{r['power_eff']:.2f}" if r["power_eff"] else "-"]
                for r in rows
            ],
        )
    )
    for name, ratio in efficiency_ratios(rows).items():
        print(f"  {name}: {ratio['power_eff_min']:.1f}-"
              f"{ratio['power_eff_max']:.1f}x power eff vs ASIC baselines")
    print("\n=== Table IV: linear-layer latency ===")
    acc, cham = FlashAccelerator(), ChamModel()
    print(
        format_table(
            ["network", "CHAM ms", "FLASH ms", "speedup"],
            [
                [name,
                 f"{cham.network_latency_s(wl) * 1e3:.1f}",
                 f"{acc.network_latency_s(wl) * 1e3:.2f}",
                 f"{cham.network_latency_s(wl) / acc.network_latency_s(wl):.1f}x"]
                for name, wl in (("resnet18", wl18), ("resnet50", wl50))
            ],
        )
    )
    return 0


def _cmd_sparsity(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.dse import stride1_phase
    from repro.encoding import Conv2dEncoder
    from repro.hw import spatial_tiles
    from repro.nn import conv_layers
    from repro.sparse import classify_pattern, conv_weight_pattern, sparse_fft_mults

    rows = []
    n = args.n
    for layer in conv_layers(args.network):
        phase = stride1_phase(layer.shape)
        if phase.padded_height * phase.padded_width > n:
            phase, _ = spatial_tiles(phase, n)
        enc = Conv2dEncoder(phase, n)
        pattern = conv_weight_pattern(enc)
        sparse = sparse_fft_mults(pattern, n // 2)
        dense = (n // 4) * ((n // 2).bit_length() - 1)
        stats = classify_pattern(enc.weight_valid_indices(0), n)
        rows.append(
            [layer.index, layer.name, f"{enc.weight_sparsity(0):.4f}",
             stats.kind, f"{1 - sparse / dense:.1%}"]
        )
    print(
        format_table(
            ["#", "layer", "sparsity", "pattern", "mults saved"], rows
        )
    )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.hw import (
        WEIGHT_ARMS,
        ablation_table,
        flash_vs_f1_reduction,
        network_workload,
    )

    workloads = network_workload(args.network, args.n)
    table = ablation_table(workloads)
    print(
        format_table(
            ["arm", "weight mJ", "total mJ", "weight vs FP-FFT"],
            [
                [arm, f"{table[arm]['weight']:.2f}",
                 f"{table[arm]['total']:.2f}",
                 f"{table[arm]['weight_vs_fft_fp']:.1%}"]
                for arm in WEIGHT_ARMS
            ],
        )
    )
    print(f"energy reduction vs F1: {flash_vs_f1_reduction(workloads):.1%}")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.dse import explore_layer, stride1_phase
    from repro.hw import spatial_tiles
    from repro.nn import get_layer

    layer = get_layer(args.network, args.layer)
    phase = stride1_phase(layer.shape)
    if phase.padded_height * phase.padded_width > args.n:
        phase, _ = spatial_tiles(phase, args.n)
    print(f"exploring layer {args.layer} ({layer.name}) "
          f"with budget {args.budget}...")
    result = explore_layer(
        phase, n=args.n, budget=args.budget, seed=args.seed
    )
    points, front = result.front()
    print(
        format_table(
            ["power mW", "error var", "dw range", "k"],
            [
                [f"{p:.3f}", f"{e:.3e}",
                 f"{min(pt.stage_widths)}..{max(pt.stage_widths)}",
                 pt.twiddle_k]
                for pt, (p, e) in zip(points, front)
            ],
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis import (
        CpuCostModel,
        format_fractions,
        ntt_domain_weight_storage_gb,
        residual_block_profile,
    )

    cost = CpuCostModel.measure(n=args.n)
    profile = residual_block_profile(args.network, n=args.n, cost=cost)
    print(f"one {args.network} residual block, modeled on this machine: "
          f"{profile.total_s:.1f} s")
    print(format_fractions(profile.fractions()))
    print(f"NTT-domain weight storage for {args.network}: "
          f"{ntt_domain_weight_storage_gb(args.network, args.n):.1f} GB")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import generate_report, print_report_summary

    text = generate_report(path=args.out, n=args.n)
    if args.out:
        print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    print(print_report_summary(text))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import Flash, FlashConfig
    from repro.encoding import ConvShape
    from repro.he import toy_preset

    rng = np.random.default_rng(args.seed)
    flash = Flash(
        FlashConfig(
            params=toy_preset(n=256, share_bits=20),
            twiddle_k=18,
            twiddle_max_shift=26,
        )
    )
    shape = ConvShape.square(2, 8, 4, 3, padding=1)
    x = rng.integers(-8, 8, size=(2, 8, 8))
    w = rng.integers(-8, 8, size=(4, 2, 3, 3))
    result = flash.private_conv2d(x, w, shape, rng)
    print(flash.describe())
    print(f"private conv: max error {result.max_error} "
          f"(outputs up to {abs(result.expected).max()}), "
          f"{result.stats.total_bytes / 1024:.1f} KiB of traffic")
    return 0


def _cmd_bench_runtime(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.core.hconv import hconv_flash, hconv_ntt, hconv_sparse
    from repro.encoding import ConvShape
    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.runtime import BatchedHConvEngine

    for name in ("batch", "n", "channels", "out_channels", "size", "kernel"):
        if getattr(args, name) < 1:
            return usage_error(
                "bench-runtime", f"--{name.replace('_', '-')} must be >= 1"
            )
    if args.cluster_workers < 0:
        return usage_error("bench-runtime", "--cluster-workers must be >= 0")

    rng = np.random.default_rng(args.seed)
    shape = ConvShape.square(
        args.channels, args.size, args.out_channels, args.kernel,
        padding=args.kernel // 2,
    )
    xs = rng.integers(
        -8, 8, size=(args.batch, args.channels, args.size, args.size)
    )
    w = rng.integers(
        -8, 8,
        size=(args.out_channels, args.channels, args.kernel, args.kernel),
    )
    cfg = ApproxFftConfig(
        n=args.n // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
    )
    cluster_workers = getattr(args, "cluster_workers", 0) or 0
    executor = None
    if cluster_workers:
        from repro.cluster import make_executor

        executor = make_executor(workers=cluster_workers)
    print(
        f"layer {args.channels}x{args.size}x{args.size} -> "
        f"{args.out_channels} ch, {args.kernel}x{args.kernel} kernel, "
        f"n={args.n}, batch={args.batch}"
        + (f", cluster={cluster_workers} processes" if cluster_workers else "")
    )
    if args.mode == "both":
        modes = ["ntt", "flash"]
    elif args.mode == "all":
        modes = ["ntt", "flash", "sparse"]
    else:
        modes = [args.mode]
    trajectory = {
        "params": {
            "mode": args.mode,
            "batch": args.batch,
            "n": args.n,
            "channels": args.channels,
            "out_channels": args.out_channels,
            "size": args.size,
            "kernel": args.kernel,
            "cluster_workers": cluster_workers,
            "seed": args.seed,
        },
        "modes": {},
    }
    trace_enabled_s = 0.0
    trace_disabled_s = 0.0
    trace_identical = True
    for mode in modes:
        engine = BatchedHConvEngine(
            mode=mode,
            weight_config=cfg if mode in ("flash", "sparse") else None,
            cluster=executor,
        )
        engine.conv2d_batch(xs[:1], w, shape, args.n)  # warm the plan cache
        t0 = time.perf_counter()
        batched = engine.conv2d_batch(xs, w, shape, args.n)
        batched_s = time.perf_counter() - t0

        if mode == "ntt":
            per_call = hconv_ntt
        elif mode == "sparse":
            per_call = lambda x, w_, s_, n_: hconv_sparse(x, w_, s_, n_, cfg)
        else:
            per_call = lambda x, w_, s_, n_: hconv_flash(x, w_, s_, n_, cfg)
        t0 = time.perf_counter()
        serial = np.stack(
            [per_call(x, w, shape, args.n) for x in xs]
        )
        serial_s = time.perf_counter() - t0

        print(f"\n=== mode={mode} ===")
        print(engine.last_stats.describe())
        identical = bool(np.array_equal(batched, serial))
        match = (
            "bit-identical"
            if identical
            else f"MISMATCH (max |diff| {np.abs(batched - serial).max()})"
        )
        print(
            f"  per-call loop {serial_s * 1e3:9.2f} ms   "
            f"batched {batched_s * 1e3:9.2f} ms   "
            f"speedup {serial_s / batched_s:.2f}x   [{match}]"
        )
        stats = engine.last_stats
        trajectory["modes"][mode] = {
            "serial_ms": serial_s * 1e3,
            "batched_ms": batched_s * 1e3,
            "speedup": serial_s / batched_s,
            "bit_identical": identical,
            "stage_seconds": dict(stats.stage_seconds),
            "products": stats.products,
            "cache": engine.plan_cache.stats(),
            "weight_mults": {
                "transforms": stats.weight_transforms,
                "realized": stats.weight_mults_realized,
                "dense": stats.weight_mults_dense,
                "model": stats.weight_mults_model,
                "realized_reduction": stats.realized_mult_reduction,
                "model_reduction": stats.model_mult_reduction,
            },
            "cluster": dict(stats.cluster),
        }
        if args.trace:
            from repro.obs import trace as obs_trace

            # Measured-overhead methodology: interleaved traced/untraced
            # repeats (so clock drift and scheduler noise hit both arms
            # equally), min-of-N per arm, plus a bit-compare of all three
            # result paths.
            tracer = obs_trace.tracer
            reps = max(1, args.trace_reps)
            enabled_times = []
            disabled_times = []
            traced_out = None
            untraced_out = None
            for rep in range(reps):
                tracer.enable(capacity=65536)
                t0 = time.perf_counter()
                with tracer.span("bench.run", mode=mode, rep=rep):
                    traced_out = engine.conv2d_batch(xs, w, shape, args.n)
                enabled_times.append(time.perf_counter() - t0)
                tracer.disable()
                t0 = time.perf_counter()
                untraced_out = engine.conv2d_batch(xs, w, shape, args.n)
                disabled_times.append(time.perf_counter() - t0)
            identical_traced = bool(
                np.array_equal(traced_out, batched)
                and np.array_equal(untraced_out, batched)
            )
            trace_enabled_s += min(enabled_times)
            trace_disabled_s += min(disabled_times)
            trace_identical = trace_identical and identical_traced
            trajectory["modes"][mode]["trace_bit_identical"] = (
                identical_traced
            )
    if executor is not None:
        executor.close()
    if args.trace:
        from repro.obs import trace as obs_trace
        from repro.obs.export import write_chrome_trace

        tracer = obs_trace.tracer
        records = tracer.drain()
        # Disabled-path cost: every instrumented call site pays one no-op
        # span() while tracing is off; project that onto the span count
        # of a full traced sweep to bound the disabled overhead fraction.
        noop_calls = 100000
        noop_best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(noop_calls):
                tracer.span("bench.noop")
            noop_best = min(
                noop_best, (time.perf_counter() - t0) / noop_calls
            )
        reps = max(1, args.trace_reps)
        spans_per_sweep = len(records) / float(reps)
        if trace_disabled_s > 0:
            enabled_frac = max(
                0.0, trace_enabled_s / trace_disabled_s - 1.0
            )
            disabled_frac = (
                spans_per_sweep * noop_best / trace_disabled_s
            )
        else:
            enabled_frac = 0.0
            disabled_frac = 0.0
        written = write_chrome_trace(args.trace, records)
        trajectory["tracing"] = {
            "enabled_ms": trace_enabled_s * 1e3,
            "disabled_ms": trace_disabled_s * 1e3,
            "enabled_overhead_frac": enabled_frac,
            "disabled_overhead_frac": disabled_frac,
            "noop_span_ns": noop_best * 1e9,
            "spans_per_run": spans_per_sweep,
            "bit_identical": trace_identical,
        }
        print(
            f"\ntracing: {written} spans -> {args.trace}; "
            f"traced {trace_enabled_s * 1e3:.2f} ms vs "
            f"untraced {trace_disabled_s * 1e3:.2f} ms "
            f"(+{enabled_frac:.1%} enabled); noop span "
            f"{noop_best * 1e9:.0f} ns "
            f"({disabled_frac:.3%} disabled overhead)"
        )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    """Compare a ``bench-runtime --json`` trajectory against a baseline.

    The standing perf-regression gate: deterministic metrics
    (bit-identity, product counts, weight-transform mult counts) must
    match exactly; the realized mult reduction must stay within
    ``--mult-tolerance`` of the analytical opcount model; timings gate
    relatively through ``--speed-tolerance`` (generous by default -- CI
    machines vary, silent 10x regressions do not) *and* absolutely
    through explicit speedup floors -- the baseline's ``gates`` section
    (``min_speedup`` / ``min_mult_reduction`` per mode), overridable via
    ``--min-speedup [MODE=]X``.  Any violation fails the build (exit 1).
    """
    import json

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(args.current, "r", encoding="utf-8") as handle:
            current = json.load(handle)
    except (OSError, ValueError) as exc:
        return usage_error("bench-check", str(exc))

    if baseline.get("params") != current.get("params"):
        print("bench-check: params mismatch between baseline and current:",
              file=sys.stderr)
        print(f"  baseline: {baseline.get('params')}", file=sys.stderr)
        print(f"  current:  {current.get('params')}", file=sys.stderr)
        return EXIT_USAGE

    if "serve" in baseline or "serve" in current:
        return _bench_check_serve(args, baseline, current)

    gates = baseline.get("gates", {})
    speedup_floors = dict(gates.get("min_speedup", {}))
    reduction_floors = dict(gates.get("min_mult_reduction", {}))
    for spec in args.min_speedup or []:
        mode_name, sep, value = spec.partition("=")
        if not sep:
            mode_name, value = "*", spec
        try:
            speedup_floors[mode_name] = float(value)
        except ValueError:
            return usage_error(
                "bench-check",
                f"bad --min-speedup {spec!r} (expected X or MODE=X)",
            )

    failures = []

    def check(mode: str, label: str, ok: bool, detail: str) -> None:
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {mode}/{label}: {detail}")
        if not ok:
            failures.append(f"{mode}/{label}: {detail}")

    for mode, base in sorted(baseline.get("modes", {}).items()):
        cur = current.get("modes", {}).get(mode)
        print(f"mode={mode}")
        if cur is None:
            check(mode, "present", False, "missing from current run")
            continue
        check(
            mode, "bit_identical", bool(cur.get("bit_identical")),
            f"batched vs per-call: {cur.get('bit_identical')}",
        )
        check(
            mode, "products", cur.get("products") == base.get("products"),
            f"{cur.get('products')} (baseline {base.get('products')})",
        )
        base_wm = base.get("weight_mults", {})
        cur_wm = cur.get("weight_mults", {})
        for field in ("transforms", "realized", "dense", "model"):
            check(
                mode, f"weight_mults.{field}",
                cur_wm.get(field) == base_wm.get(field),
                f"{cur_wm.get(field)} (baseline {base_wm.get(field)})",
            )
        if cur_wm.get("dense"):
            gap = abs(
                cur_wm.get("realized_reduction", 0.0)
                - cur_wm.get("model_reduction", 0.0)
            )
            check(
                mode, "realized_vs_model",
                gap <= args.mult_tolerance,
                f"reduction gap {gap:.4f} "
                f"(tolerance {args.mult_tolerance})",
            )
        floor = base.get("speedup", 0.0) * (1.0 - args.speed_tolerance)
        check(
            mode, "speedup",
            cur.get("speedup", 0.0) >= floor,
            f"{cur.get('speedup', 0.0):.2f}x "
            f"(floor {floor:.2f}x = baseline "
            f"{base.get('speedup', 0.0):.2f}x - {args.speed_tolerance:.0%})",
        )
        abs_floor = speedup_floors.get(mode, speedup_floors.get("*"))
        if abs_floor is not None:
            check(
                mode, "min_speedup",
                cur.get("speedup", 0.0) >= abs_floor,
                f"{cur.get('speedup', 0.0):.2f}x "
                f"(explicit floor {abs_floor:.2f}x)",
            )
        red_floor = reduction_floors.get(mode)
        if red_floor is not None:
            check(
                mode, "min_mult_reduction",
                cur_wm.get("realized_reduction", 0.0) >= red_floor,
                f"{cur_wm.get('realized_reduction', 0.0):.4f} "
                f"(explicit floor {red_floor:.4f})",
            )
        if cur.get("cluster"):
            recoveries = cur["cluster"].get("recoveries", 0)
            check(
                mode, "cluster_recoveries", recoveries == 0,
                f"{recoveries} recovery events in a clean bench run",
            )

    tracing = current.get("tracing")
    if tracing is not None:
        # Tracing-overhead gate (ISSUE 10): tracing must be
        # off-by-default-cheap and bit-transparent when on.
        max_disabled = gates.get(
            "max_trace_overhead_disabled", args.max_trace_overhead
        )
        max_enabled = gates.get(
            "max_trace_overhead_enabled", args.max_traced_overhead
        )
        print("tracing")
        check(
            "tracing", "bit_identical",
            bool(tracing.get("bit_identical")),
            f"traced vs untraced results: {tracing.get('bit_identical')}",
        )
        disabled_frac = float(tracing.get("disabled_overhead_frac", 1.0))
        check(
            "tracing", "disabled_overhead",
            disabled_frac <= max_disabled,
            f"{disabled_frac:.4%} projected from "
            f"{tracing.get('noop_span_ns', 0.0):.0f} ns noop spans "
            f"(ceiling {max_disabled:.0%})",
        )
        enabled_frac = float(tracing.get("enabled_overhead_frac", 1.0))
        check(
            "tracing", "enabled_overhead",
            enabled_frac <= max_enabled,
            f"{enabled_frac:.2%} measured traced-vs-untraced "
            f"(ceiling {max_enabled:.0%})",
        )

    if failures:
        print(f"\nbench-check: {len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return EXIT_FAIL
    print("\nbench-check: all metrics within thresholds")
    return EXIT_OK


def _bench_check_serve(
    args: argparse.Namespace, baseline: dict, current: dict
) -> int:
    """Gate a ``loadgen --json`` serve trajectory against a baseline.

    The baseline's ``gates`` section sets absolute ceilings --
    ``max_p50_ms`` / ``max_p99_ms`` (latency SLO), ``max_shed_rate``
    (admission headroom on a clean run) and ``max_breaker_trips``
    (a clean run must not trip the breaker) -- and the current run's own
    verdict (zero silent drops, bit-identical replay) must hold.
    """
    if "serve" not in current:
        return usage_error(
            "bench-check",
            "baseline is a serve trajectory but current is not",
        )
    gates = baseline.get("gates", {})
    serve = current.get("serve", {})
    verdict = current.get("verdict", {})
    failures = []

    def check(label: str, ok: bool, detail: str) -> None:
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] serve/{label}: {detail}")
        if not ok:
            failures.append(f"serve/{label}: {detail}")

    check(
        "verdict", bool(verdict.get("ok")),
        f"loadgen verdict ok={verdict.get('ok')}",
    )
    check(
        "silent_drops", verdict.get("silent_drops", 1) == 0,
        f"{verdict.get('silent_drops')} unaccounted requests",
    )
    check(
        "replay", verdict.get("replay_mismatches", 1) == 0,
        f"{verdict.get('replay_mismatches')} mismatches over "
        f"{verdict.get('replay_checked')} replayed results",
    )
    for gate, key, unit in (
        ("max_p50_ms", "p50_ms", "ms"),
        ("max_p99_ms", "p99_ms", "ms"),
    ):
        ceiling = gates.get(gate)
        if ceiling is not None:
            value = serve.get(key, float("inf"))
            check(
                key, value <= ceiling,
                f"{value:.1f} {unit} (ceiling {ceiling:.1f} {unit})",
            )
    if gates.get("max_shed_rate") is not None:
        rate = verdict.get("shed_rate", 1.0)
        check(
            "shed_rate", rate <= gates["max_shed_rate"],
            f"{rate:.3f} (ceiling {gates['max_shed_rate']:.3f})",
        )
    if gates.get("max_breaker_trips") is not None:
        trips = verdict.get("breaker_trips", 0)
        check(
            "breaker_trips", trips <= gates["max_breaker_trips"],
            f"{trips} trips (ceiling {gates['max_breaker_trips']})",
        )

    if failures:
        print(f"\nbench-check: {len(failures)} serve regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return EXIT_FAIL
    print("\nbench-check: serve metrics within thresholds")
    return EXIT_OK


def _trace_artifact_path(json_path: str) -> str:
    """Flight-recorder dump path derived from a ``--json`` report path
    (``CHAOS_foo.json`` -> ``CHAOS_foo_trace.json``)."""
    import os.path

    root, ext = os.path.splitext(json_path)
    return root + "_trace" + (ext or ".json")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_campaign
    from repro.obs import trace as obs_trace

    # The campaign runs with the flight recorder armed so a failed
    # verdict ships the spans leading up to the failure, not just a
    # summary count.
    tracer = obs_trace.tracer
    tracer.enable(capacity=16384)
    tracer.clear()
    try:
        report = run_campaign(
            seed=args.seed,
            iterations=args.iterations,
            max_rate=args.max_rate,
            n=args.n,
            cluster=args.cluster,
            cluster_workers=args.cluster_workers,
        )
    except ValueError as exc:
        tracer.disable()
        return usage_error("chaos", str(exc))
    records = tracer.drain()
    tracer.disable()
    print(report.describe())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    trace_path = args.trace
    if not trace_path and args.json and not report.survived:
        trace_path = _trace_artifact_path(args.json)
    if trace_path:
        from repro.obs.export import write_chrome_trace

        written = write_chrome_trace(trace_path, records)
        print(f"wrote {trace_path} ({written} spans/events)")
    return EXIT_OK if report.survived else EXIT_FAIL


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the inference front end in the foreground for ``--duration``.

    Without a network transport the server is in-process: this command
    stands it up (optionally over a supervised worker cluster), polls its
    own health/readiness probes on the serve wire, and exits cleanly --
    the smoke-testable shape of the long-running service.  Drive traffic
    into a server with ``python -m repro loadgen``.
    """
    import json
    import time as _time

    from repro.serve import InferenceServer, ServeConfig
    from repro.serve.messages import decode_reply, ping_request

    if args.duration <= 0:
        return usage_error("serve", "--duration must be > 0 seconds")
    if args.cluster_workers < 0:
        return usage_error("serve", "--cluster-workers must be >= 0")
    try:
        config = ServeConfig(
            slo_ms=args.slo_ms,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            tenant_queue_limit=args.tenant_queue_limit,
            server_queue_limit=args.server_queue_limit,
            breaker_failures=args.breaker_failures,
            breaker_recovery_s=args.breaker_recovery_s,
        )
    except ValueError as exc:
        return usage_error("serve", str(exc))

    executor = None
    if args.cluster_workers:
        from repro.cluster import make_executor

        executor = make_executor(workers=args.cluster_workers)
    server = InferenceServer(config, cluster=executor)
    print(
        f"serve: up (slo {config.slo_ms:.0f} ms, "
        f"tenant rate {config.tenant_rate:.0f}/s, "
        + (f"cluster {args.cluster_workers} workers)" if executor
           else "serial execution)")
    )
    deadline = _time.monotonic() + args.duration
    probe_id = 0
    try:
        while _time.monotonic() < deadline:
            probe_id += 1
            _, _, body = decode_reply(
                server.submit(ping_request(probe_id))
            )
            health = body["health"]
            print(
                f"  health: {health['status']} ready={health['ready']} "
                f"breaker={health['breaker']} depth={health['depth']} "
                f"p50={health['p50_ms']:.1f}ms p99={health['p99_ms']:.1f}ms"
            )
            _time.sleep(min(args.probe_interval, args.duration))
    finally:
        server.close()
        if executor is not None:
            executor.close()
    stats = server.stats_dict()
    print(server.stats.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"wrote {args.json}")
    unaccounted = stats["accounting"]["unaccounted"]
    if unaccounted != 0:
        print(
            f"serve: {unaccounted} unaccounted request(s) at shutdown",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Closed-loop load generation + no-silent-drop verdict (see
    :mod:`repro.serve.loadgen`); exits 1 when the verdict fails."""
    import json

    from repro.serve import LoadgenConfig, run_loadgen

    try:
        config = LoadgenConfig(
            seed=args.seed,
            clients=args.clients,
            requests_per_client=args.requests,
            tenants=args.tenants,
            mode=args.mode,
            n=args.n,
            channels=args.channels,
            size=args.size,
            out_channels=args.out_channels,
            kernel=args.kernel,
            slo_ms=args.slo_ms,
            think_ms=args.think_ms,
            duration_s=args.duration or None,
            flood_clients=args.flood_clients,
            slow_client_rate=args.slow_rate,
            chaos_kill_rate=args.chaos_kill_rate,
            cluster_workers=args.cluster_workers,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            breaker_failures=args.breaker_failures,
            breaker_recovery_s=args.breaker_recovery_s,
        )
    except ValueError as exc:
        return usage_error("loadgen", str(exc))

    from repro.obs import trace as obs_trace

    tracer = obs_trace.tracer
    tracer.enable(capacity=32768)
    tracer.clear()
    try:
        report = run_loadgen(config, progress=print)
    finally:
        records = tracer.drain()
        tracer.disable()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"wrote {args.json}")
    ok = bool(report["verdict"]["ok"])
    trace_path = args.trace
    if not trace_path and args.json and not ok:
        trace_path = _trace_artifact_path(args.json)
    if trace_path:
        from repro.obs.export import write_chrome_trace

        written = write_chrome_trace(trace_path, records)
        print(f"wrote {trace_path} ({written} spans/events)")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect / convert a recorded Chrome-trace JSON (see repro.obs)."""
    import json

    from repro.obs.export import (
        from_chrome_trace,
        summarize,
        write_folded,
    )

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return usage_error("obs", str(exc))
    records = from_chrome_trace(doc)
    if not records:
        print("obs: empty trace")
        return EXIT_OK
    summary = summarize(records)
    print(
        f"{summary['spans']} spans / {summary['events']} events across "
        f"{summary['traces']} traces ({summary['processes']} processes, "
        f"{summary['orphans']} orphan spans, "
        f"{summary['truncated']} truncated)"
    )
    rows = sorted(
        summary["by_name"].items(),
        key=lambda kv: -kv[1]["self_ms"],
    )
    for name, agg in rows:
        print(
            f"  {name:<32} count {agg['count']:>6}   "
            f"total {agg['total_ms']:10.2f} ms   "
            f"self {agg['self_ms']:10.2f} ms"
        )
    if args.folded:
        lines = write_folded(args.folded, records)
        print(f"wrote {args.folded} ({lines} folded stacks)")
    if args.check_stitch and summary["orphans"]:
        print(
            f"obs: {summary['orphans']} orphan span(s) -- trace does not "
            f"stitch into rooted trees", file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        CONCURRENCY_RULE_IDS,
        all_rules,
        analyze_default_configs,
        get_rule,
        lint_paths,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.severity.value}]  {rule.description}")
        print(
            "BW001   [error]  approximate-FFT stage whose worst-case "
            "intermediate exceeds its register width (bit-width analyzer)"
        )
        print(
            "SUP001  [warning]  suppression comment names an unknown rule "
            "ID (disables nothing)"
        )
        print(
            "SUP002  [warning]  suppression comment carries no "
            "justification"
        )
        return 0

    if args.concurrency and args.select:
        return usage_error(
            "repro lint",
            "--concurrency and --select are mutually exclusive "
            "(--concurrency is shorthand for selecting the RACE/LOCK/DET "
            "rules)",
        )

    rules = None
    if args.concurrency:
        rules = [get_rule(rid) for rid in CONCURRENCY_RULE_IDS]
    elif args.select:
        try:
            rules = [get_rule(rid) for rid in args.select.split(",") if rid]
        except KeyError as exc:
            return usage_error("repro lint", str(exc.args[0]))

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        for p in missing[:-1]:
            print(f"repro lint: no such path: {p}", file=sys.stderr)
        return usage_error("repro lint", f"no such path: {missing[-1]}")
    result = lint_paths(args.paths, rules=rules)
    if result.files_checked == 0:
        return usage_error(
            "repro lint",
            "no Python files found under: " + " ".join(args.paths),
        )

    bitwidth_reports = {}
    if not args.no_bitwidth and not args.concurrency:
        bitwidth_reports = analyze_default_configs(include_space=args.space)
        # Only the deployed default gates the run; DSE-space corners are
        # informational (the space intentionally contains bad points).
        result.findings.extend(bitwidth_reports["flash-default"].findings())

    if args.format == "json":
        payload = {
            label: report.to_dict()
            for label, report in bitwidth_reports.items()
        }
        print(render_json(result, bitwidth=payload or None))
    else:
        summary = None
        if bitwidth_reports:
            lines = [
                f"bitwidth {label}: "
                f"{'ok' if report.ok else 'OVERFLOW'} "
                f"(margin {report.margin_bits:+.4f}b)"
                for label, report in sorted(bitwidth_reports.items())
            ]
            summary = "\n".join(lines)
        print(render_text(result, bitwidth_summary=summary))
    return EXIT_OK if result.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLASH reproduction: tables, sparsity, DSE, demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables II, III and IV")

    p = sub.add_parser("sparsity", help="per-layer weight sparsity (Fig 7)")
    p.add_argument("--network", default="resnet50",
                   choices=["resnet18", "resnet50"])
    p.add_argument("--n", type=int, default=4096)

    p = sub.add_parser("ablation", help="energy ablation (Fig 11 d/e)")
    p.add_argument("--network", default="resnet50",
                   choices=["resnet18", "resnet50"])
    p.add_argument("--n", type=int, default=4096)

    p = sub.add_parser("dse", help="layer design-space exploration (Fig 11 b/c)")
    p.add_argument("--network", default="resnet50",
                   choices=["resnet18", "resnet50"])
    p.add_argument("--layer", type=int, default=41)
    p.add_argument("--budget", type=int, default=60)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("profile", help="Cheetah latency profile (Fig 1)")
    p.add_argument("--network", default="resnet50",
                   choices=["resnet18", "resnet50"])
    p.add_argument("--n", type=int, default=4096)

    p = sub.add_parser("report", help="write a full REPORT.md")
    p.add_argument("--out", default="REPORT.md")
    p.add_argument("--n", type=int, default=4096)

    p = sub.add_parser("demo", help="run one private convolution")
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "bench-runtime",
        help="batched HConv runtime benchmark (stage timings, cache stats)",
    )
    p.add_argument(
        "--mode",
        choices=["ntt", "flash", "sparse", "both", "all"],
        default="both",
        help="'both' = ntt+flash, 'all' = ntt+flash+sparse",
    )
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--out-channels", type=int, default=8)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--cluster-workers", type=int, default=0,
                   help="shard across N supervised worker processes "
                        "(repro.cluster; 0 = in-process)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default="", metavar="PATH",
                   help="also write the benchmark trajectory as JSON")
    p.add_argument("--trace", default="", metavar="PATH",
                   help="re-run each mode with tracing enabled, write a "
                        "Chrome-trace JSON, and record the measured "
                        "tracing overhead in the trajectory")
    p.add_argument("--trace-reps", type=int, default=5,
                   help="interleaved traced/untraced repeats for the "
                        "overhead measurement (min per arm; default 5)")

    p = sub.add_parser(
        "bench-check",
        help="gate a bench-runtime --json trajectory against a baseline",
    )
    p.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="committed baseline trajectory (bench-runtime --json output)",
    )
    p.add_argument(
        "--current", required=True, metavar="PATH",
        help="freshly recorded trajectory to check",
    )
    p.add_argument(
        "--mult-tolerance", type=float, default=0.02,
        help="max |realized - model| mult-reduction gap (default 0.02)",
    )
    p.add_argument(
        "--speed-tolerance", type=float, default=0.6,
        help="allowed relative speedup regression vs baseline "
             "(default 0.6: generous, catches order-of-magnitude drops)",
    )
    p.add_argument(
        "--min-speedup", action="append", default=None, metavar="[MODE=]X",
        help="explicit absolute speedup floor (repeatable; MODE=X for one "
             "mode, bare X for all); extends the baseline's 'gates' "
             "section and fails the build when violated",
    )
    p.add_argument(
        "--max-trace-overhead", type=float, default=0.03,
        help="ceiling on the projected disabled-tracing overhead "
             "fraction when the current run carries a 'tracing' section "
             "(default 0.03)",
    )
    p.add_argument(
        "--max-traced-overhead", type=float, default=0.10,
        help="ceiling on the measured enabled-tracing overhead fraction "
             "(default 0.10)",
    )

    p = sub.add_parser(
        "chaos",
        help="randomized fault campaign (transport, degradation, sparse "
             "cache)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument(
        "--max-rate", type=float, default=0.2,
        help="upper bound on drop/corrupt/truncate/duplicate rates",
    )
    p.add_argument("--n", type=int, default=64,
                   help="polynomial degree of the probe parameters")
    p.add_argument("--cluster", action="store_true",
                   help="also run the cluster probe: SIGKILL/hang random "
                        "supervised worker processes mid-campaign and "
                        "bit-compare against the serial path")
    p.add_argument("--cluster-workers", type=int, default=2,
                   help="pool width for the cluster probe")
    p.add_argument("--json", default="", metavar="PATH",
                   help="also write the campaign report as JSON")
    p.add_argument("--trace", default="", metavar="PATH",
                   help="always dump the flight recorder as Chrome-trace "
                        "JSON (a FAILED verdict with --json dumps to "
                        "<json>_trace.json automatically)")

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant inference front end in the foreground",
    )
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds to stay up (health-probing itself)")
    p.add_argument("--probe-interval", type=float, default=0.5,
                   help="seconds between self health probes")
    p.add_argument("--slo-ms", type=float, default=500.0)
    p.add_argument("--tenant-rate", type=float, default=200.0,
                   help="per-tenant token-bucket rate (requests/s)")
    p.add_argument("--tenant-burst", type=int, default=16)
    p.add_argument("--tenant-queue-limit", type=int, default=32)
    p.add_argument("--server-queue-limit", type=int, default=128)
    p.add_argument("--breaker-failures", type=int, default=3,
                   help="consecutive cluster failures that trip the breaker")
    p.add_argument("--breaker-recovery-s", type=float, default=0.25)
    p.add_argument("--cluster-workers", type=int, default=0,
                   help="execute batches on N supervised worker processes")
    p.add_argument("--json", default="", metavar="PATH",
                   help="write the final ServeStats snapshot as JSON")

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load generation with a no-silent-drop verdict",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=int, default=4,
                   help="closed-loop polite clients")
    p.add_argument("--requests", type=int, default=25,
                   help="requests per client")
    p.add_argument("--tenants", type=int, default=2)
    p.add_argument("--mode", choices=["ntt", "fft", "flash", "sparse"],
                   default="sparse")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--out-channels", type=int, default=1)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--slo-ms", type=float, default=500.0)
    p.add_argument("--think-ms", type=float, default=2.0,
                   help="mean exponential think time of polite clients")
    p.add_argument("--duration", type=float, default=0.0,
                   help="wall-clock cap in seconds (0 = run to completion)")
    p.add_argument("--flood-clients", type=int, default=0,
                   help="chaos: zero-think clients flooding one tenant")
    p.add_argument("--slow-rate", type=float, default=0.0,
                   help="chaos: fraction of requests whose deadline is "
                        "mostly spent client-side before submission")
    p.add_argument("--chaos-kill-rate", type=float, default=0.0,
                   help="chaos: worker SIGKILL probability per dispatched "
                        "job (needs --cluster-workers)")
    p.add_argument("--cluster-workers", type=int, default=0)
    p.add_argument("--tenant-rate", type=float, default=200.0)
    p.add_argument("--tenant-burst", type=int, default=16)
    p.add_argument("--breaker-failures", type=int, default=2)
    p.add_argument("--breaker-recovery-s", type=float, default=0.2)
    p.add_argument("--json", default="", metavar="PATH",
                   help="write the BENCH_serve.json report")
    p.add_argument("--trace", default="", metavar="PATH",
                   help="always dump the flight recorder as Chrome-trace "
                        "JSON (a FAILED verdict with --json dumps to "
                        "<json>_trace.json automatically)")

    p = sub.add_parser(
        "obs",
        help="inspect/convert a recorded Chrome-trace JSON "
             "(per-span profile, flamegraph folds, stitch check)",
    )
    p.add_argument(
        "trace", metavar="TRACE_JSON",
        help="Chrome-trace JSON written by --trace or a flight-recorder "
             "incident dump",
    )
    p.add_argument(
        "--folded", default="", metavar="PATH",
        help="also write flamegraph-folded stacks (flamegraph.pl / "
             "speedscope input)",
    )
    p.add_argument(
        "--check-stitch", action="store_true",
        help="exit 1 if any span's parent is missing from the trace "
             "(orphan): cross-process stitching verification",
    )

    p = sub.add_parser(
        "lint", help="domain-aware static analysis (MOD/DTYPE/HYG/BW rules)"
    )
    p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format",
    )
    p.add_argument(
        "--select", default="",
        help="comma-separated rule IDs to run (default: all)",
    )
    p.add_argument(
        "--concurrency", action="store_true",
        help="run only the concurrency rules (RACE/LOCK/DET), skipping "
             "the bit-width analyzer",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p.add_argument(
        "--no-bitwidth", action="store_true",
        help="skip the bit-width dataflow check of the default datapath",
    )
    p.add_argument(
        "--space", action="store_true",
        help="also report bit-width margins at the DSE search-space corners",
    )

    return parser


_COMMANDS = {
    "tables": _cmd_tables,
    "sparsity": _cmd_sparsity,
    "ablation": _cmd_ablation,
    "dse": _cmd_dse,
    "profile": _cmd_profile,
    "demo": _cmd_demo,
    "report": _cmd_report,
    "bench-runtime": _cmd_bench_runtime,
    "bench-check": _cmd_bench_check,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "obs": _cmd_obs,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
