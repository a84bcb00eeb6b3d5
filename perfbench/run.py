#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload paper --seed 2022 --seconds 10 --trace 0

The program under test is the ``repro`` package in the checkout's
``src/`` directory; nothing needs installing.  A run repeats whole
passes of the workload until ``--seconds`` have elapsed (at least one
pass) and checks every pass's outputs outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
passes).  With ``--trace 1`` it makes one pass with every layer entry
point wrapped (see ``layertrace.py``) and reports the per-layer metrics
derived from that pass's spans.  The spans are written to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the metrics, their units and why each workload
exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import statistics
import time
from pathlib import Path

import workloads
from layertrace import (
    BUILD_WORLD_SPAN,
    LAYER_ENTRY_POINTS,
    Patches,
    SpanLog,
    patch_layers,
    self_time_metric,
    wrapper_cost,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Per-layer metrics that count the calls of one span name.
_CALLS = {
    "scan.ecs.scans": "scan.ecs.scan",
    "relay.active_set_calls": "relay.active_set",
}

#: Per-layer metrics that are a count recorded at a span boundary.
_COUNTS = (
    "scan.ecs.queries",
    "scan.checkpoint.bytes",
    "relay.rounds",
    "quic.targets",
)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in
    ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def import_program():
    """Import ``repro`` from this checkout's ``src/``, never from
    anywhere else on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    # Import what the workloads use up front, so that no pass pays for it.
    import repro.analysis
    import repro.cli
    import repro.scan
    import repro.worldgen.deployment  # noqa: F401


def run_stamp(workload: str, seed: int, scale: float) -> dict:
    """Where and on what this result was measured."""
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
    }


def layer_metrics(log, done, per_call: float) -> dict[str, float]:
    self_times = log.self_times()
    spans = {BUILD_WORLD_SPAN} | {name for _, name, _ in LAYER_ENTRY_POINTS}
    metrics = {self_time_metric(span): self_times.get(span, 0.0) for span in spans}
    for name, span in _CALLS.items():
        metrics[name] = len(log.durations(span))
    for name in _COUNTS:
        metrics[name] = log.counts.get(name, 0)
    metrics["scan.delta.round_s"] = log.median_duration("scan.delta.round")
    full_cost = log.counts.get("scan.delta.round_full_cost", 0)
    metrics["scan.delta.queries_frac"] = (
        log.counts.get("scan.delta.round_queries", 0) / full_cost if full_cost else 0.0
    )
    rescan_s = done.outputs.get("full_rescan_s", 0.0)
    metrics["scan.delta.full_rescan_s"] = rescan_s
    metrics["scan.delta.round_over_rescan"] = (
        metrics["scan.delta.round_s"] / rescan_s if rescan_s else 0.0
    )
    metrics["scan.delta.detection_rounds"] = (
        workloads.detection_rounds(done) if "records" in done.outputs else 0
    )
    metrics["process.cpu_s"] = done.cpu_s
    metrics["trace.overhead_s"] = per_call * len(log.spans)
    return metrics


def one_pass(workload: str, seed: int, scale: float, log=None):
    """Run one pass and check its outputs."""
    harness = workloads.Harness(OUT / "work", log)
    with Patches() as patches:
        if log is not None:
            patch_layers(patches, log)
        done = workloads.RUNNERS[workload](harness, seed, scale)
    checks = workloads.check(workload, done, seed, scale, log)
    harness.worlds.clear()
    gc.collect()
    return done, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "campaign", "delta"))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="world scale (default: the workload's own)")
    args = parser.parse_args(argv)

    import_program()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    scale = args.scale if args.scale is not None else workloads.SCALES[args.workload]
    stamp = run_stamp(args.workload, args.seed, scale)
    OUT.mkdir(exist_ok=True)

    log = SpanLog() if args.trace else None
    passes, attempted, failures = [], 0, []
    started = time.perf_counter()
    # A traced run makes one pass: its spans, not its wall time, matter.
    while not passes or (log is None and time.perf_counter() - started < args.seconds):
        done, checks = one_pass(args.workload, args.seed, scale, log)
        passes.append(done)
        attempted += checks.attempted
        failures += checks.failures

    if log is None:
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "run_s": statistics.median(p.run_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "queries_sent": statistics.median(p.queries_sent for p in passes),
        }
    else:
        metrics = layer_metrics(log, passes[0], wrapper_cost())
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        log.write(spans_path, stamp)
        print(f"spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json names unmeasured metrics {missing}")

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "stamp": stamp,
        "passes": [{"setup_s": p.setup_s, "run_s": p.run_s} for p in passes],
    }))
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
