"""Span recording around calls into the ``repro`` layers.

The benchmark does not instrument the program.  Instead, for a traced
run, :class:`Patches` replaces public functions and methods of the
``repro`` modules with wrappers that record one span per call (name,
start, end, parent) into a :class:`SpanLog` kept in memory.  The spans
are written out once, when the run ends, and every per-layer metric is
derived from them as a self time, a duration or a count.

Patching happens before the workload runs, on the attribute the caller
looks up: a function imported by name into another module is patched in
that module (``repro.worldgen.world.build_egress``), a method on its
class.  Everything is restored when the patch set is closed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


class SpanLog:
    """Spans of one run, in call order.

    Each span is a list ``[name, start, end, parent]`` where ``parent``
    is the index of the enclosing span (or -1).  Calls are synchronous
    and nested, so a child's interval lies inside its parent's.
    """

    def __init__(self) -> None:
        #: Calls made while inactive (the pass's checks) record nothing.
        self.active = True
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median_duration(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def write(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "stamp": stamp,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def wrapper_cost(calls: int = 50_000) -> float:
    """Seconds one traced call adds over a plain call, measured here.

    Times ``calls`` calls of a no-op with and without the span wrapper
    (the best of three rounds each) and returns the difference per call.
    """

    def noop():
        return None

    wrapped = traced(SpanLog(), "calibration", noop)

    def best(fn) -> float:
        rounds = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            rounds.append(time.perf_counter() - start)
        return min(rounds)

    return max(best(wrapped) - best(noop), 0.0) / calls


def traced(log: SpanLog, name: str, fn, on_call=None):
    """``fn`` wrapped to record one span per call.

    ``on_call(log, args, kwargs, result)`` runs after the call, outside
    the span, to record counts taken from the arguments or the result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        index = log.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.end(index)
        if on_call is not None:
            on_call(log, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """A set of attribute replacements, undone by :meth:`close`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, make) -> None:
        """Replace ``module[:Class].attr`` by ``make(original)``."""
        path, attr = target.rsplit(".", 1)
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _count_scan(log, args, kwargs, result) -> None:
    log.count("scan.ecs.queries", result.queries_sent)


def _count_relay(log, args, kwargs, result) -> None:
    log.count("relay.rounds", len(result.rounds))


def _count_quic(log, args, kwargs, result) -> None:
    targets = args[1] if len(args) > 1 else kwargs["addresses"]
    log.count("quic.targets", len(targets))


def _count_checkpoint_bytes(log, args, kwargs, result) -> None:
    log.count("scan.checkpoint.bytes", result.stat().st_size)


def _count_round(log, args, kwargs, result) -> None:
    log.count("scan.delta.round_queries", result.queries_sent)
    log.count("scan.delta.round_full_cost", result.full_cost)


#: The span around each ``build_world`` call, recorded by the harness
#: (which also times it for ``setup_s``) rather than by a patch here.
BUILD_WORLD_SPAN = "worldgen"


def self_time_metric(span: str) -> str:
    """The per-layer metric holding a span name's total self time."""
    return "worldgen.other_s" if span == BUILD_WORLD_SPAN else f"{span}_s"


#: (patch target, span name, post-call counter) for every layer entry
#: point the benchmark times.  ``module:Class.method`` patches a method.
LAYER_ENTRY_POINTS = (
    # worldgen: build_world and the phases it calls by module global.
    ("repro.worldgen.world.build_internet", "worldgen.internet", None),
    ("repro.worldgen.world.build_egress", "worldgen.egress", None),
    ("repro.worldgen.world.build_assignment", "worldgen.assignment", None),
    ("repro.worldgen.world.build_probes", "worldgen.probes", None),
    # scan: the ECS kernel's range core (full scans and delta regions).
    ("repro.scan.ecs_scanner:EcsScanner.scan_ranges", "scan.ecs.scan", _count_scan),
    ("repro.scan.longitudinal:IngressArchive.record", "scan.archive.record", None),
    # dns: answer replay programs and the rate limiter.
    ("repro.dns.answer_cache:ScopeAnswerCache.replay_program", "dns.replay", None),
    ("repro.dns.ratelimit:TokenBucket.take_many", "dns.ratelimit", None),
    # scan: the checkpoint codec, and the one atomic-write helper.
    ("repro.scan.campaign.encode_result", "scan.checkpoint.encode", None),
    ("repro.scan.campaign.decode_result", "scan.checkpoint.decode", None),
    ("repro.scan.checkpoint:CampaignCheckpointer.save", "scan.checkpoint.save",
     _count_checkpoint_bytes),
    ("repro.scan.checkpoint:CampaignCheckpointer.load", "scan.checkpoint.load", None),
    ("repro.scan.checkpoint.atomic_write_json", "faults.storage.write", None),
    ("repro.scan.incremental.atomic_write_json", "faults.storage.write", None),
    # scan: the delta engine.
    ("repro.scan.incremental:DeltaScanEngine.seed", "scan.delta.seed", None),
    ("repro.scan.incremental:DeltaScanEngine.run_round", "scan.delta.round",
     _count_round),
    ("repro.scan.incremental:DeltaScanEngine.accumulated", "scan.delta.accumulated",
     None),
    ("repro.scan.incremental:SnapshotStore.save", "scan.delta.snapshot_save", None),
    # atlas.
    ("repro.scan.atlas_scanner:AtlasIngressScanner.validate_against_ecs",
     "atlas.validate", None),
    ("repro.scan.atlas_scanner:AtlasIngressScanner.measure_ingress_v6", "atlas.v6",
     None),
    ("repro.scan.classify_blocking", "atlas.blocking", None),
    # relay.
    ("repro.scan.relay_scanner:RelayScanner.run", "relay.scan", _count_relay),
    ("repro.relay.ingress:IngressFleet.active_addresses", "relay.active_set", None),
    # quic.
    ("repro.scan.quic_scanner:QuicScanner.scan", "quic.scan", _count_quic),
    # analysis: the functions the paper pipeline imports from repro.analysis.
    ("repro.analysis.build_table1", "analysis.table1", None),
    ("repro.analysis.build_table2", "analysis.table2", None),
    ("repro.analysis.build_table3", "analysis.table3", None),
    ("repro.analysis.build_table4", "analysis.table4", None),
    ("repro.analysis.build_egress_facts", "analysis.egress_facts", None),
    ("repro.analysis.build_location_cdfs", "analysis.location_cdfs", None),
    ("repro.analysis.build_rotation_report", "analysis.rotation", None),
    ("repro.analysis.build_overlap_report", "analysis.overlap", None),
)


def patch_layers(patches: Patches, log: SpanLog) -> None:
    """Wrap every layer entry point so that each call records a span."""
    for target, name, on_call in LAYER_ENTRY_POINTS:
        patches.replace(
            target,
            lambda original, name=name, on_call=on_call: traced(
                log, name, original, on_call
            ),
        )
