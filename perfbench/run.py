"""Paper-scale private-convolution benchmark (see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload private-conv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload hconv-stream --seed 1 --seconds 10 --report

``--trace 0`` prints the end-to-end metrics (tracing off), ``--trace 1``
the per-layer metrics of a separate traced run; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--report`` runs both and prints every metric by name with its unit.
The exit code is non-zero when an exact (``ntt``) output is wrong or a
call raises.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Serial execution: keep numpy's thread pools to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(location) != SRC:
        raise SystemExit(f"perfbench: imported repro from {location}")


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run untraced and traced; print every metric")
    parser.add_argument("--toy", action="store_true",
                        help="toy_preset ring (harness smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _describe(run, stream) -> None:
    wl = run.workload
    counts = run.sample_counts()
    print(
        f"# {wl.name} seed={wl.seed} rounds={run.rounds} "
        f"untraced samples per mode={counts} "
        f"set-ups={len(run.setups)} trace={int(run.trace)}",
        file=stream,
    )
    for mode, tally in run.tallies.items():
        print(
            f"#   {mode:<6} calls={tally.calls} wrong={tally.wrong} "
            f"raised={tally.raised} max_abs_error={tally.max_abs_error}",
            file=stream,
        )
        walls = " ".join(f"{1e3 * w:.1f}" for w, _ in run.samples[mode])
        kernels = " ".join(f"{1e3 * k:.2f}" for _, k in run.samples[mode])
        print(f"#     pass wall ms: {walls}", file=stream)
        print(f"#     calibration ms: {kernels}", file=stream)
        for error in tally.errors[:3]:
            print(f"#     error: {error}", file=stream)
    for target in run.skipped_targets:
        print(f"# not instrumented (missing): {target}", file=stream)
    if run.trace_path:
        print(f"# chrome trace: {run.trace_path}", file=stream)


def _result(runs, metrics) -> dict:
    return {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from harness import Run

    def one(trace: bool):
        run = Run(args.workload, args.seed, args.seconds, trace=trace,
                  toy=args.toy, trace_dir=TRACE_DIR if trace else None)
        run.execute()
        _describe(run, sys.stdout)
        return run

    if args.report:
        runs = [one(False), one(True)]
        metrics = dict(runs[0].end_to_end())
        metrics.update(runs[1].per_layer())
        width = max(len(name) for name in metrics)
        for name, (value, unit) in metrics.items():
            print(f"{name:<{width}}  {value:>16.6g}  {unit}")
    else:
        runs = [one(bool(args.trace))]
        metrics = runs[0].per_layer() if args.trace else runs[0].end_to_end()
    result = _result(runs, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
