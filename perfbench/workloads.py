"""The benchmark's three workloads and the checks on their outputs.

Each workload function runs one pass against a freshly generated world
and returns a :class:`Pass`: its wall times, the ECS queries route53
received, and the outputs the checks need.  World builds go through
:meth:`Harness.build_world`, which is the only boundary the untraced
run times inside a pass (``setup_s``); everything else is ``run_s``.
Checks run after the pass, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import BUILD_WORLD_SPAN, Patches

#: Default world scale of each workload.
SCALES = {"paper": 0.1, "campaign": 0.1, "delta": 0.2}

#: Delta workload shape: steady rounds, then the churn drill's rounds.
STEADY_ROUNDS = 3
CHURN_ROUNDS = 3
REFRESH_ROUNDS = 3

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Spans every traced pass of a workload must record.  A listed span
#: with no calls means a patch no longer reaches the layer it times,
#: and counts as a failed check rather than a layer reading 0.
_COMMON_SPANS = (
    BUILD_WORLD_SPAN,
    "worldgen.internet",
    "worldgen.egress",
    "worldgen.assignment",
    "worldgen.probes",
    "scan.ecs.scan",
    "dns.replay",
    "dns.ratelimit",
)
EXPECTED_SPANS = {
    "paper": _COMMON_SPANS + (
        "atlas.validate",
        "atlas.v6",
        "atlas.blocking",
        "relay.scan",
        "relay.active_set",
        "quic.scan",
        "analysis.table1",
        "analysis.table2",
        "analysis.table3",
        "analysis.table4",
        "analysis.egress_facts",
        "analysis.location_cdfs",
        "analysis.rotation",
        "analysis.overlap",
    ),
    "campaign": _COMMON_SPANS + (
        "scan.archive.record",
        "scan.checkpoint.encode",
        "scan.checkpoint.save",
        "scan.checkpoint.load",
        "scan.checkpoint.decode",
        "faults.storage.write",
    ),
    "delta": _COMMON_SPANS + (
        "scan.archive.record",
        "scan.delta.seed",
        "scan.delta.round",
        "scan.delta.accumulated",
        "scan.delta.snapshot_save",
        "faults.storage.write",
    ),
}


@dataclass
class Checks:
    """Output checks of one pass: how many were made, which failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class Pass:
    """One pass of a workload: timings, cost and the outputs to check."""

    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    queries_sent: int = 0
    outputs: dict = field(default_factory=dict)


class Harness:
    """Times world builds and holds what one pass needs.

    ``log`` is the span log of a traced pass (None when untraced); world
    builds then record a ``worldgen`` span around ``build_world``.
    """

    def __init__(self, scratch: Path, log=None) -> None:
        self.scratch = scratch
        self.log = log
        self.setup_s = 0.0
        self.setup_cpu_s = 0.0
        self.worlds: list = []

    def timed(self, build):
        """``build`` (a ``build_world``) wrapped to time each call."""

        def build_world(*args, **kwargs):
            cpu0 = time.process_time()
            start = time.perf_counter()
            index = self.log.begin(BUILD_WORLD_SPAN) if self.log is not None else None
            try:
                world = build(*args, **kwargs)
            finally:
                if index is not None:
                    self.log.end(index)
                self.setup_s += time.perf_counter() - start
                self.setup_cpu_s += time.process_time() - cpu0
            self.worlds.append(world)
            return world

        return build_world

    def build_world(self, seed: int, scale: float):
        from repro import WorldConfig, build_world

        return self.timed(build_world)(WorldConfig(seed=seed, scale=scale))

    def workdir(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _finish(harness: Harness, started: float, cpu0: float, queries: int) -> Pass:
    """End the pass's timed region (and its tracing)."""
    wall = time.perf_counter() - started
    if harness.log is not None:
        harness.log.active = False
    return Pass(
        setup_s=harness.setup_s,
        run_s=wall - harness.setup_s,
        cpu_s=time.process_time() - cpu0 - harness.setup_cpu_s,
        queries_sent=queries,
    )


def digest(result) -> str:
    """A short hash of one scan result's rotation-independent state."""
    from repro.scan.incremental import result_digest

    canonical = json.dumps(result_digest(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# paper: the real `repro-relay reproduce` entry point
# ----------------------------------------------------------------------


def run_paper(harness: Harness, seed: int, scale: float) -> Pass:
    from repro import cli

    output = harness.workdir("paper") / "report.md"
    with Patches() as patches:
        # The pipeline imports build_world from the package at run time.
        patches.replace("repro.build_world", harness.timed)
        cpu0 = time.process_time()
        started = time.perf_counter()
        code = cli.main(
            ["reproduce", "--scale", repr(scale), "--seed", str(seed),
             "--output", str(output)]
        )
        done = _finish(harness, started, cpu0, 0)
    if code != 0:
        raise RuntimeError(f"repro-relay reproduce exited with {code}")
    (world,) = harness.worlds
    done.queries_sent = world.route53.stats.ecs_queries
    done.outputs["lines"] = output.read_text(encoding="utf-8").splitlines()
    return done


def report_lines(lines: list[str]) -> list[str]:
    """The report without its wall-time line (the only line that varies
    between two runs of one seed and scale)."""
    return [line for line in lines if not line.startswith("Generated by ")]


def _claim_cells(line: str) -> list[str] | None:
    """The four cells of a claims-table row, or None for other lines."""
    if not line.startswith("| ") or line.startswith("| Artefact") or "---" in line:
        return None
    cells = [cell.strip() for cell in line.strip("|").split(" | ")]
    return cells if len(cells) == 4 else None


def check_paper(done: Pass, reference: dict | None, template: dict, checks: Checks):
    lines = report_lines(done.outputs["lines"])
    if reference is not None:
        expected = reference["lines"]
        checks.expect(
            len(lines) == len(expected),
            f"report has {len(lines)} lines, reference {len(expected)}",
        )
        for index, line in enumerate(expected):
            got = lines[index] if index < len(lines) else None
            checks.expect(got == line, f"report line {index + 1}: {got!r} != {line!r}")
        return
    # No reference for this seed and scale: every claim row of the
    # reference template must be present, in order, with the same
    # artefact, quantity and paper value and a non-empty measurement.
    if template is None:
        checks.expect(False, "no paper reference template is recorded")
        return
    expected_rows = [c for c in map(_claim_cells, template["lines"]) if c]
    got_rows = [c for c in map(_claim_cells, lines) if c]
    checks.expect(
        len(got_rows) == len(expected_rows),
        f"report has {len(got_rows)} claim rows, template {len(expected_rows)}",
    )
    for want, got in zip(expected_rows, got_rows):
        checks.expect(
            got[:3] == want[:3] and got[3] != "",
            f"claim row {want[:2]}: got {got}",
        )


# ----------------------------------------------------------------------
# campaign: Jan–Apr with a checkpoint each month, then a full resume
# ----------------------------------------------------------------------


class Milestones:
    """A campaign event sink that only counts each milestone's events
    (``ScanCampaign.events`` takes any object with ``emit``)."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def emit(self, event: str, **fields) -> None:
        self.counts[event] += 1


def _campaign(world, seed: int, scale: float, directory: Path, resume: bool,
              events: Milestones):
    from repro.scan import EcsScanSettings, ScanCampaign

    return ScanCampaign(
        world.route53,
        world.routing,
        world.clock,
        EcsScanSettings(workers=1, campaign_seed=seed),
        checkpoint_dir=directory,
        resume=resume,
        checkpoint_meta={"world_seed": seed, "world_scale": scale},
        events=events,
    )


def _month_scans(months) -> list:
    scans = []
    for month in months:
        scans.append(month.default)
        if month.fallback is not None:
            scans.append(month.fallback)
    return scans


def run_campaign(harness: Harness, seed: int, scale: float) -> Pass:
    directory = harness.workdir("campaign")
    cpu0 = time.process_time()
    started = time.perf_counter()
    world = harness.build_world(seed, scale)
    writing, resuming = Milestones(), Milestones()
    with _campaign(world, seed, scale, directory, False, writing) as campaign:
        written = campaign.run(world.scan_months())
    queries = world.route53.stats.ecs_queries
    del world, campaign
    harness.worlds.clear()
    fresh = harness.build_world(seed, scale)
    with _campaign(fresh, seed, scale, directory, True, resuming) as campaign:
        resumed = campaign.run(fresh.scan_months())
    done = _finish(harness, started, cpu0, queries)
    done.outputs["written"] = [digest(scan) for scan in _month_scans(written)]
    done.outputs["resumed"] = [digest(scan) for scan in _month_scans(resumed)]
    done.outputs["restored"] = fresh.route53.stats.ecs_queries
    done.outputs["months"] = len(written)
    done.outputs["writing"] = writing.counts
    done.outputs["resuming"] = resuming.counts
    return done


def check_campaign(done: Pass, reference: dict | None, checks: Checks) -> None:
    written, resumed = done.outputs["written"], done.outputs["resumed"]
    months = done.outputs["months"]
    writing, resuming = done.outputs["writing"], done.outputs["resuming"]
    checks.expect(len(written) == 7, f"{len(written)} scans written, expected 7")
    checks.expect(
        writing["month_started"] == months and writing["checkpoint_written"] == months,
        f"the first campaign scanned {writing['month_started']} and checkpointed "
        f"{writing['checkpoint_written']} of {months} months",
    )
    # A resume that restores nothing rescans, and a rescan is
    # deterministic, so the digests alone cannot tell it apart.
    checks.expect(
        resuming["month_restored"] == months and resuming["month_started"] == 0,
        f"the resume restored {resuming['month_restored']} of {months} months "
        f"and rescanned {resuming['month_started']}",
    )
    checks.expect(len(resumed) == len(written), "resume restored a different month count")
    for index, (w, r) in enumerate(zip(written, resumed)):
        checks.expect(w == r, f"scan {index}: resumed digest {r} != written {w}")
    if reference is not None:
        for index, (w, ref) in enumerate(zip(written, reference["digests"])):
            checks.expect(w == ref, f"scan {index}: digest {w} != reference {ref}")
        checks.expect(
            done.queries_sent == reference["queries_sent"],
            f"{done.queries_sent} queries, reference {reference['queries_sent']}",
        )
    checks.expect(
        done.outputs["restored"] == done.queries_sent,
        f"restored server stats count {done.outputs['restored']} queries, "
        f"the written campaign sent {done.queries_sent}",
    )


# ----------------------------------------------------------------------
# delta: continuous monitoring with a churn drill
# ----------------------------------------------------------------------


def run_delta(harness: Harness, seed: int, scale: float) -> Pass:
    from repro.scan import EcsScanSettings, ScanCampaign
    from repro.worldgen.deployment import DeploymentChurn

    directory = harness.workdir("delta")
    cpu0 = time.process_time()
    started = time.perf_counter()
    world = harness.build_world(seed, scale)
    campaign = ScanCampaign(
        world.route53,
        world.routing,
        world.clock,
        EcsScanSettings(workers=1, campaign_seed=seed),
        mode="delta",
        snapshot_dir=directory,
        refresh_rounds=REFRESH_ROUNDS,
        checkpoint_meta={"world_seed": seed, "world_scale": scale},
    )
    steady = campaign.run_continuous(2022, 1, STEADY_ROUNDS)
    churn = DeploymentChurn(world.assignment, world.ingress_v4, world.clock.now)
    records = churn.inject_standard(seed=seed)
    after = campaign.run_continuous(2022, 1, CHURN_ROUNDS)
    done = _finish(harness, started, cpu0, world.route53.stats.ecs_queries)

    # The check's fresh full rescan of the churned world.
    engine = campaign.delta_engine()
    accumulated, rescans = {}, {}
    rescan_s = 0.0
    for domain in engine.domains:
        accumulated[domain] = digest(engine.accumulated(domain))
        start = time.perf_counter()
        fresh = engine.executor.scan(domain)
        rescan_s += time.perf_counter() - start
        rescans[domain] = digest(fresh)
    campaign.close()
    done.outputs.update(
        rounds=len(steady) + len(after),
        records=[(r.kind, str(r.prefix), r.block_value) for r in records],
        detected=[
            {event.value for event in rnd.events} for rnd in after
        ],
        accumulated=accumulated,
        rescans=rescans,
        full_rescan_s=rescan_s,
    )
    return done


def detection_rounds(done: Pass) -> int:
    """The most rounds any injected churn kind needed to surface; one
    more than the rounds run when a change was never detected."""
    detected = done.outputs["detected"]
    return max(
        next((i + 1 for i, values in enumerate(detected) if value in values),
             len(detected) + 1)
        for _, _, value in done.outputs["records"]
    )


def check_delta(done: Pass, checks: Checks) -> None:
    out = done.outputs
    checks.expect(
        out["rounds"] == STEADY_ROUNDS + CHURN_ROUNDS,
        f"{out['rounds']} delta rounds ran",
    )
    checks.expect(len(out["records"]) == 4, f"{len(out['records'])} churn kinds injected")
    for kind, prefix, value in out["records"]:
        checks.expect(
            any(value in values for values in out["detected"][:REFRESH_ROUNDS]),
            f"{kind} at {prefix} undetected after {REFRESH_ROUNDS} delta rounds",
        )
    for domain, acc in out["accumulated"].items():
        checks.expect(
            acc == out["rescans"][domain],
            f"{domain}: delta-accumulated state diverges from a fresh full rescan",
        )


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def load_reference(workload: str, seed: int, scale: float) -> dict | None:
    path = REFERENCE_DIR / f"{workload}-seed{seed}-scale{scale!r}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check(workload: str, done: Pass, seed: int, scale: float, log=None) -> Checks:
    """The output checks of one pass, plus, for a traced pass (``log``),
    that every span the workload must record was recorded."""
    checks = Checks()
    if log is not None:
        called = {span[0] for span in log.spans}
        for name in EXPECTED_SPANS[workload]:
            checks.expect(name in called, f"the traced pass recorded no {name} span")
    reference = load_reference(workload, seed, scale)
    if workload == "paper":
        template = load_reference("paper", 2022, 1.0)
        check_paper(done, reference, template, checks)
    elif workload == "campaign":
        check_campaign(done, reference, checks)
    else:
        check_delta(done, checks)
    return checks


RUNNERS = {"paper": run_paper, "campaign": run_campaign, "delta": run_delta}
