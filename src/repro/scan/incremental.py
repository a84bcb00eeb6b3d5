"""Incremental delta-scan engine: continuous monitoring under a budget.

A full ECS scan re-enumerates every routed scope block every month, yet
month over month the overwhelming majority of blocks answer identically
— deployment churn is bursty and localized.  This module turns the scan
layer into a monitoring loop that exploits that:

* a durable :class:`SnapshotStore` (the ``checkpoint.py`` atomic-write
  machinery, extended) persists the remembered scope blocks and answer
  fingerprints of each domain between rounds and between processes;

* each round, the :class:`DeltaScanEngine` probes **one canonical
  subnet per remembered scope block** — the block's start, which is a
  walk landing position in every full scan.  An unchanged block answers
  with its remembered scope, the scope skip covers the whole block, and
  one query has re-verified (and fully re-enumerated) it.  A changed
  block answers differently, and because the probe *is* a scan of the
  block's coverage range, the walk descends into the refined structure
  automatically — re-enumeration and classification are the same
  queries;

* a deterministic round-robin **refresh wheel** guarantees every block
  is re-probed within ``refresh_rounds`` rounds (content-keyed like
  ``faults/plan.py``, so the schedule is process- and worker-
  independent), while blocks whose answers changed recently carry a
  churn weight that keeps them probed every round until they go quiet;

* an explicit per-round **query budget** caps the probe volume; blocks
  due but beyond the budget are deferred (and counted), and the wheel's
  age rule pulls them back as overdue next round, preserving the
  coverage bound.

Change classification is rotation-robust: answers rotate through a
pod's relay roster, so two probes of an unchanged block rarely return
the same window.  The engine learns supplier rosters with a union-find
over answer windows (consecutive windows of one pod overlap, chaining
into one roster), and classifies a probed window against the block's
remembered roster: a window drawn from the same roster is rotation, a
disjoint window is a pod move.

Budget arithmetic.  Both relay domains share one assignment partition,
so their remembered block sets are identical.  The primary (QUIC)
domain runs its wheel at ``refresh_rounds``; the fallback domain
stretches its wheel by ``secondary_stretch`` and instead receives the
primary's changed ranges *in the same round* (cross-domain hot
propagation), keeping steady-state rounds well under the budget gate
while still detecting assignment-level churn within ``refresh_rounds``
on both domains.  (A change visible *only* on the secondary domain is
detected within ``refresh_rounds * secondary_stretch``.)
"""

from __future__ import annotations

import functools
import gc
import json
import time
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from repro.errors import CheckpointError
from repro.faults.plan import MASK64, MIX_MULT_A, MIX_MULT_B, fault_key
from repro.faults.storage import (
    InjectedStorageFault,
    atomic_write_json,
    count_handled,
)
from repro.scan.checkpoint import payload_crc, quarantine_warning
from repro.netmodel.addr import IPAddress, Prefix
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import EcsResponse, EcsScanResult, merge_ranges
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Bump when the snapshot layout changes; mismatched files are treated
#: as absent (the domain is simply re-seeded), not as errors.
SNAPSHOT_VERSION = 1

#: Detection-latency histogram bounds, in rounds.
DETECTION_BOUNDS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def _mix64(x: int) -> int:
    """The fault plane's splitmix64 finalizer (same published constants).

    Spreads the crc32 content key over 64 bits so the wheel residue
    ``key % period`` is uniform — rows sharing a residue class would
    otherwise cluster by address locality.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * MIX_MULT_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_MULT_B) & MASK64
    return (x ^ (x >> 31)) & MASK64


def _row_key(domain: str, value: int) -> int:
    """Content-keyed wheel position of one remembered block.

    Depends only on the domain and the block's address — never on
    discovery order or worker count — so every process computes the
    same refresh schedule.
    """
    return _mix64(fault_key(f"{domain}:{value}"))


#: Sort and search key: a row's start value.
_VALUE = attrgetter("value")

#: Past every IPv4 value: ``(value, _SPACE_END)`` sorts after any span
#: starting at ``value``.
_SPACE_END = 1 << 32


def _without_gc(method):
    """``method`` run with cyclic GC suspended (and restored after).

    Seeds and rounds allocate tens of thousands of short-lived, acyclic
    row objects that refcounting reclaims on its own, while every
    generational collection they trigger re-traverses the whole world
    graph — the scan kernel suspends GC for the same reason.
    """

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return method(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


#: One routed answer as the engine consumes it: ``(value, scope,
#: (addresses, asn))`` — a kernel column row joined with its table entry.
Answer = tuple[int, int, tuple[tuple[IPAddress, ...], int | None]]


def _answers(result: EcsScanResult) -> list[Answer]:
    """A scan's routed answers in address order, without row objects.

    Columnar results (the batch kernel, the sharded merge) are read
    straight off their chunks; only results of the list-building kernels
    fall back to the ``responses`` list.
    """
    columnar = result.columnar_view()
    if columnar is None:
        return [
            (r.subnet.value, r.scope, (r.addresses, r.answer_asn))
            for r in result.responses
        ]
    out: list[Answer] = []
    for values, scopes, refs, table in columnar.chunks:
        out.extend(zip(values, scopes, map(table.__getitem__, refs)))
    return out


@dataclass(slots=True)
class BlockRow:
    """One remembered scope block: a walk landing and its last answer."""

    value: int
    scope: int
    addresses: tuple[IPAddress, ...]
    asn: int | None
    #: Roster id (union-find leaf; resolve through ``DomainSnapshot.find``).
    rid: int
    #: Round the block was last probed (-1 = only the seeding full scan).
    refreshed: int
    #: Round the block's answer last changed (-1 = never since seed).
    changed: int
    #: Churn weight: probed every round while positive, decremented on
    #: each quiet probe.
    weight: int
    #: Wheel position (content-keyed, recomputed on load, not persisted).
    key: int


@dataclass(slots=True)
class SparseRow:
    """One answered sparse probe of unrouted space."""

    value: int
    scope: int
    addresses: tuple[IPAddress, ...]
    asn: int | None


def _sparse_rows(
    kept: list[SparseRow], result: EcsScanResult
) -> list[SparseRow]:
    """``kept`` plus a scan's answered sparse probes, in address order."""
    fresh = [
        SparseRow(r.subnet.value, r.scope, r.addresses, r.answer_asn)
        for r in result.sparse_responses
    ]
    return sorted(kept + fresh, key=_VALUE)


@dataclass(frozen=True, slots=True)
class ChangeEvent:
    """One detected answer change at a remembered block."""

    domain: str
    value: int
    scope: int
    #: ``structure`` (scope/AS/partition changed), ``answers`` (same
    #: structure, answers from a different roster — a pod move), or
    #: ``removed`` (the block boundary vanished).
    kind: str
    round: int
    #: Rounds since the block was last verified — the detection latency.
    latency: int

    @classmethod
    def removed(cls, domain: str, row: BlockRow, index: int) -> ChangeEvent:
        """A remembered block that vanished in round ``index``."""
        latency = index - row.refreshed
        return cls(domain, row.value, row.scope, "removed", index, latency)


@dataclass
class DomainSnapshot:
    """Everything the delta engine remembers about one domain.

    ``rows`` tile the routed spans (every walk landing of the last full
    enumeration), ``sparse_rows`` are the answered unrouted probes, and
    ``rosters`` is the learned supplier-roster partition of all answer
    addresses (union-find: ``parent`` over roster ids, ``addr_rid``
    from address to leaf id).
    """

    domain: str
    source_len: int
    round: int
    seeded_at: float
    spans: list[tuple[int, int]]
    gaps: list[tuple[int, int]]
    rows: list[BlockRow] = field(default_factory=list)
    sparse_rows: list[SparseRow] = field(default_factory=list)
    rosters: list[set[IPAddress]] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    addr_rid: dict[IPAddress, int] = field(default_factory=dict)
    #: Sparse probe positions a full scan of the current gaps issues
    #: (exact while every sparse probe answers, as in this world).
    sparse_positions: int = 0
    #: Largest answer window ever observed for this domain.  A row whose
    #: window is *smaller* is served by a supplier whose whole roster
    #: fits one window — its window set is rotation-invariant, giving an
    #: exact per-row change fingerprint (see :meth:`classify`).
    window_max: int = 0

    # -- union-find over answer rosters ---------------------------------

    def find(self, rid: int) -> int:
        """Root roster id, with path compression."""
        parent = self.parent
        root = rid
        while parent[root] != root:
            root = parent[root]
        while parent[rid] != root:
            parent[rid], rid = root, parent[rid]
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge roster ``b`` into ``a`` (both roots); returns ``a``."""
        self.parent[b] = a
        self.rosters[a] |= self.rosters[b]
        self.rosters[b] = set()
        return a

    def absorb(self, addresses: tuple[IPAddress, ...]) -> int:
        """Fold one answer window into the rosters; returns its roster.

        Windows of one supplier chain together: consecutive rotation
        windows share all but one address, so any overlap unions their
        rosters.  A window with no known address starts a new roster.
        """
        rid = -1
        for address in addresses:
            known = self.addr_rid.get(address)
            if known is None:
                continue
            known = self.find(known)
            if rid < 0:
                rid = known
            elif known != rid:
                rid = self._union(rid, known)
        if rid < 0:
            rid = len(self.rosters)
            self.rosters.append(set())
            self.parent.append(rid)
        roster = self.rosters[rid]
        for address in addresses:
            roster.add(address)
            self.addr_rid[address] = rid
        return rid

    def classify(
        self, row: BlockRow, addresses: tuple[IPAddress, ...]
    ) -> str:
        """A probed window against the block's remembered answers.

        Saturated rings first: a window shorter than the domain's
        maximum is its supplier's *entire* roster, so rotation can never
        change it as a set — any set change is a supplier change
        (``moved``).  This stays exact even where the roster partition
        below has been chained together by spilled suppliers.

        Otherwise, the learned roster partition: ``same`` — every
        address known (pure rotation); ``grow`` — some known (rotation
        exposing new roster members); ``moved`` — none known (answers
        from a disjoint supplier: a pod move).
        """
        old = row.addresses
        if addresses is old:
            # The relay service memoises windows; a row's own window is
            # always inside its roster, so either branch says "same".
            return "same"
        if len(old) < self.window_max or len(addresses) < self.window_max:
            return "same" if set(addresses) == set(old) else "moved"
        roster = self.rosters[self.find(row.rid)]
        if roster.issuperset(addresses):
            return "same"
        if roster.isdisjoint(addresses):
            return "moved"
        return "grow"


# ----------------------------------------------------------------------
# Snapshot persistence (the checkpoint codec, extended)
# ----------------------------------------------------------------------


def encode_snapshot(snapshot: DomainSnapshot) -> dict:
    """One domain snapshot as a JSON-safe dict.

    Answer windows are deduplicated into a table (rows of one supplier
    share windows heavily); rosters are compacted to their union-find
    roots in first-use order, so the encoding is independent of merge
    history.
    """
    table_index: dict[tuple, int] = {}
    table: list = []
    roster_index: dict[int, int] = {}
    rosters: list = []
    # Rows share window tuples (the relay service memoises rotation
    # windows) and roster leaves, so each distinct object is resolved
    # once; the rows keep the tuples alive, so their ids are stable.
    refs_by_id: dict[int, int] = {}
    rids_by_leaf: dict[int, int] = {}

    def window_ref(addresses: tuple[IPAddress, ...]) -> int:
        ref = refs_by_id.get(id(addresses))
        if ref is None:
            key = tuple((a.version, a.value) for a in addresses)
            ref = table_index.get(key)
            if ref is None:
                ref = table_index[key] = len(table)
                table.append([list(pair) for pair in key])
            refs_by_id[id(addresses)] = ref
        return ref

    def roster_ref(leaf: int) -> int:
        rid = rids_by_leaf.get(leaf)
        if rid is None:
            root = snapshot.find(leaf)
            rid = roster_index.get(root)
            if rid is None:
                rid = roster_index[root] = len(rosters)
                rosters.append(
                    sorted([a.version, a.value] for a in snapshot.rosters[root])
                )
            rids_by_leaf[leaf] = rid
        return rid

    rows = [
        [
            row.value,
            row.scope,
            window_ref(row.addresses),
            row.asn,
            roster_ref(row.rid),
            row.refreshed,
            row.changed,
            row.weight,
        ]
        for row in snapshot.rows
    ]
    sparse = [
        [row.value, row.scope, window_ref(row.addresses), row.asn]
        for row in snapshot.sparse_rows
    ]
    return {
        "domain": snapshot.domain,
        "source_len": snapshot.source_len,
        "round": snapshot.round,
        "seeded_at": snapshot.seeded_at,
        "spans": [list(span) for span in snapshot.spans],
        "gaps": [list(gap) for gap in snapshot.gaps],
        "table": table,
        "rows": rows,
        "sparse": sparse,
        "rosters": rosters,
        "sparse_positions": snapshot.sparse_positions,
        "window_max": snapshot.window_max,
    }


def decode_snapshot(data: dict) -> DomainSnapshot:
    """Rebuild a :func:`encode_snapshot` snapshot (wheel keys recomputed)."""
    domain = data["domain"]
    snapshot = DomainSnapshot(
        domain=domain,
        source_len=data["source_len"],
        round=data["round"],
        seeded_at=data["seeded_at"],
        spans=[tuple(span) for span in data["spans"]],
        gaps=[tuple(gap) for gap in data["gaps"]],
        sparse_positions=data["sparse_positions"],
        window_max=data["window_max"],
    )
    windows = [
        tuple(IPAddress(version, value) for version, value in pairs)
        for pairs in data["table"]
    ]
    for pairs in data["rosters"]:
        rid = len(snapshot.rosters)
        roster = {IPAddress(version, value) for version, value in pairs}
        snapshot.rosters.append(roster)
        snapshot.parent.append(rid)
        for address in roster:
            snapshot.addr_rid[address] = rid
    snapshot.rows = [
        BlockRow(
            value=value,
            scope=scope,
            addresses=windows[ref],
            asn=asn,
            rid=rid,
            refreshed=refreshed,
            changed=changed,
            weight=weight,
            key=_row_key(domain, value),
        )
        for value, scope, ref, asn, rid, refreshed, changed, weight in data["rows"]
    ]
    snapshot.sparse_rows = [
        SparseRow(value=value, scope=scope, addresses=windows[ref], asn=asn)
        for value, scope, ref, asn in data["sparse"]
    ]
    return snapshot


_COMPACT = (",", ":")


def _document_text(document: dict) -> str:
    """The on-disk JSON of ``document`` with its ``crc`` field appended.

    Byte-identical to compact-dumping ``{**document, "crc":
    payload_crc(document)}``, but each top-level value is serialised
    once and that text serves both the file and the canonical form the
    crc covers.  The two forms differ only in dict key order, so only
    dict values are dumped twice — exact while no list value contains a
    dict, as in every snapshot field.
    """
    plain: list[tuple[str, str]] = []
    canonical: dict[str, str] = {}
    for key, value in document.items():
        text = json.dumps(value, separators=_COMPACT)
        plain.append((json.dumps(key), text))
        if isinstance(value, dict):
            text = json.dumps(value, sort_keys=True, separators=_COMPACT)
        canonical[key] = text
    body = ",".join(
        f"{json.dumps(key)}:{canonical[key]}" for key in sorted(canonical)
    )
    crc = zlib.crc32(f"{{{body}}}".encode("utf-8"))
    plain.append((json.dumps("crc"), str(crc)))
    return "{" + ",".join(f"{key}:{text}" for key, text in plain) + "}"


class SnapshotStore:
    """Durable per-domain snapshots (atomic writes, fingerprint-guarded).

    Same contract as :class:`~repro.scan.checkpoint.CampaignCheckpointer`:
    temp file + ``os.replace`` so a kill mid-write never leaves a torn
    snapshot; missing/torn/version-mismatched files read as None (the
    domain is re-seeded); a *fingerprint* mismatch raises
    :class:`~repro.errors.CheckpointError` — resuming a delta loop
    against different result-affecting settings (or a different campaign
    mode) would silently corrupt the accumulated state.
    """

    def __init__(
        self,
        directory: str | Path,
        fingerprint: dict,
        *,
        gate=None,
        registry=None,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.gate = gate
        self.registry = registry

    def path_for(self, domain: str) -> Path:
        """Where one domain's snapshot lives."""
        return self.directory / f"snapshot-{domain.strip('.')}.json"

    def save(self, snapshot: DomainSnapshot, attempt: int = 0) -> Path:
        """Durably and atomically persist one domain snapshot.

        ``attempt`` keys the storage fault gate's draw: the engine's
        degraded-mode retry loop passes fresh attempt numbers, so an
        injected failure is transient — exactly like a retried query in
        the packet plane.
        """
        path = self.path_for(snapshot.domain)
        document = {
            "version": SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            **encode_snapshot(snapshot),
        }
        atomic_write_json(
            path,
            _document_text(document),
            gate=self.gate,
            surface="snapshot",
            item=f"{snapshot.domain}:{snapshot.round}",
            attempt=attempt,
            registry=self.registry,
        )
        return path

    def load(self, domain: str) -> DomainSnapshot | None:
        """One domain's snapshot, or None when it must be re-seeded."""
        path = self.path_for(domain)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            quarantine_warning(path, f"unparseable JSON ({exc})")
            return None
        except OSError:
            return None
        if not isinstance(document, dict):
            quarantine_warning(path, "not a JSON object")
            return None
        if document.get("version") != SNAPSHOT_VERSION:
            return None
        crc = document.get("crc")
        if crc is not None and crc != payload_crc(document):
            quarantine_warning(path, "checksum mismatch (bit flip?)")
            return None
        if document.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"snapshot {path} was written under different "
                "result-affecting settings (or campaign mode); refusing "
                "to resume from it"
            )
        return decode_snapshot(document)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass
class DeltaRound:
    """One monitoring round's outcome and accounting."""

    index: int
    started_at: float
    finished_at: float = 0.0
    #: Queries actually issued this round (routed probes + sparse).
    queries_sent: int = 0
    sparse_queries: int = 0
    #: Due blocks pushed to the next round by the query budget.
    budget_deferred: int = 0
    #: What a full rescan of every domain would have cost.
    full_cost: int = 0
    #: Remembered blocks re-probed this round.
    refreshed_blocks: int = 0
    changed_blocks: int = 0
    new_blocks: int = 0
    removed_blocks: int = 0
    events: list[ChangeEvent] = field(default_factory=list)
    #: Accumulated per-domain state, as full-scan-shaped results.
    results: dict[str, EcsScanResult] = field(default_factory=dict)

    @property
    def queries_frac(self) -> float:
        """This round's cost as a fraction of a full rescan."""
        if not self.full_cost:
            return 0.0
        return self.queries_sent / self.full_cost


class DeltaScanEngine:
    """Plans and executes delta-scan rounds over persisted snapshots.

    ``executor`` is anything with the campaign scan front-end shape —
    an :class:`~repro.scan.ecs_scanner.EcsScanner` or a
    :class:`~repro.scan.sharding.ShardedCampaignExecutor` — exposing
    ``scan()`` (seeding) and ``scan_regions()`` (rounds).
    """

    def __init__(
        self,
        executor,
        store: SnapshotStore | None = None,
        *,
        domains: tuple[str, ...] = (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK),
        budget: int | None = None,
        refresh_rounds: int = 3,
        secondary_stretch: int = 2,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        scanner = getattr(executor, "scanner", executor)
        if not scanner.settings.prune_unrouted:
            raise ValueError(
                "delta scanning requires prune_unrouted: remembered blocks "
                "tile the routed spans"
            )
        if refresh_rounds < 1:
            raise ValueError("refresh_rounds must be >= 1")
        if secondary_stretch < 1:
            raise ValueError("secondary_stretch must be >= 1")
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive (or None)")
        self.executor = executor
        self.scanner = scanner
        self.store = store
        self.domains = tuple(domains)
        self.budget = budget
        self.refresh_rounds = refresh_rounds
        self.secondary_stretch = secondary_stretch
        self.telemetry = telemetry
        self.snapshots: dict[str, DomainSnapshot] = {}
        self.rounds: list[DeltaRound] = []
        #: Per-domain accumulated columns, shared by every result built
        #: from one snapshot state (see :meth:`_view`).
        self._views: dict[str, tuple] = {}
        #: Optional live monitoring plane (repro.monitor): a StatusBoard
        #: receiving coarse per-round publishes and an EventLog receiving
        #: round_summary / churn_detected / budget_deferral records.
        self.status = None
        self.events = None

    def period(self, domain: str) -> int:
        """The domain's refresh-wheel period, in rounds."""
        if domain == self.domains[0]:
            return self.refresh_rounds
        return self.refresh_rounds * self.secondary_stretch

    # -- seeding ---------------------------------------------------------

    @_without_gc
    def seed(self, domain: str) -> EcsScanResult:
        """Full scan of one domain, remembered as the baseline snapshot."""
        result = self.executor.scan(domain)
        spans, gaps = self.scanner.routed_ranges()
        snapshot = DomainSnapshot(
            domain=domain,
            source_len=self.scanner.settings.source_prefix_len,
            round=0,
            seeded_at=result.started_at,
            spans=[tuple(span) for span in spans],
            gaps=[tuple(gap) for gap in gaps],
            sparse_positions=result.sparse_queries,
        )
        windows: dict[int, int] = {}
        for value, scope, (addresses, asn) in _answers(result):
            rid = windows.get(id(addresses))
            if rid is None:
                if len(addresses) > snapshot.window_max:
                    snapshot.window_max = len(addresses)
                rid = windows[id(addresses)] = snapshot.absorb(addresses)
            snapshot.rows.append(
                BlockRow(
                    value=value,
                    scope=scope,
                    addresses=addresses,
                    asn=asn,
                    rid=rid,
                    refreshed=-1,
                    changed=-1,
                    weight=0,
                    key=_row_key(domain, value),
                )
            )
        snapshot.rows.sort(key=_VALUE)
        snapshot.sparse_rows = _sparse_rows([], result)
        for row in snapshot.sparse_rows:
            if len(row.addresses) > snapshot.window_max:
                snapshot.window_max = len(row.addresses)
        self.snapshots[domain] = snapshot
        if self.store is not None:
            self._persist_snapshot(snapshot)
        if self.events is not None:
            self.events.emit(
                "delta_seeded",
                domain=domain,
                rows=len(snapshot.rows),
                sparse=snapshot.sparse_positions,
                queries=result.queries_sent,
            )
        return result

    def ensure_seeded(self) -> dict[str, EcsScanResult | None]:
        """Load or seed every domain; fresh seed scans are returned.

        A domain restored from the store maps to None (no scan ran);
        callers that archive scan results record only the fresh ones.
        """
        seeds: dict[str, EcsScanResult | None] = {}
        for domain in self.domains:
            if domain in self.snapshots:
                continue
            snapshot = None
            if self.store is not None:
                snapshot = self.store.load(domain)
            if snapshot is not None:
                self.snapshots[domain] = snapshot
                seeds[domain] = None
            else:
                seeds[domain] = self.seed(domain)
        return seeds

    def reseed_from_store(self) -> None:
        """Degraded-mode recovery: drop in-memory state and re-seed.

        Used by the campaign when a round is abandoned mid-flight
        (worker respawn exhaustion): whatever partial per-domain state
        the failed round left in :attr:`snapshots` is discarded, and the
        engine restores the last *persisted* snapshots — or runs fresh
        seed scans when no store is attached — so the next round starts
        from a consistent baseline.
        """
        self.snapshots.clear()
        self.ensure_seeded()

    # -- rounds ----------------------------------------------------------

    @_without_gc
    def run_round(self) -> DeltaRound:
        """One monitoring round across all domains under the budget."""
        for domain in self.domains:
            if domain not in self.snapshots:
                raise ValueError(
                    f"domain {domain!r} is not seeded; call ensure_seeded()"
                )
        index = self.snapshots[self.domains[0]].round
        if self.status is not None:
            self.status.publish(phase="delta_round", round=index)
        rnd = DeltaRound(index=index, started_at=self.scanner.clock.now)
        spans, gaps = self.scanner.routed_ranges()
        spans = [tuple(span) for span in spans]
        gaps = [tuple(gap) for gap in gaps]
        budget_state = {"left": self.budget}
        hot_ranges: list[tuple[int, int]] = []
        for domain in self.domains:
            self._round_domain(domain, rnd, spans, gaps, hot_ranges, budget_state)
        rnd.finished_at = self.scanner.clock.now
        rnd.full_cost = sum(
            len(snapshot.rows) + snapshot.sparse_positions
            for snapshot in self.snapshots.values()
        )
        unpersisted = 0
        for domain in self.domains:
            snapshot = self.snapshots[domain]
            snapshot.round = index + 1
            if self.store is None:
                continue
            with self.telemetry.tracer.span("delta.persist", domain=domain):
                if not self._persist_snapshot(snapshot):
                    unpersisted += 1
        registry = self.telemetry.registry
        if registry.enabled:
            registry.counter("delta.rounds").inc()
            histogram = registry.histogram(
                "delta.detection_rounds", DETECTION_BOUNDS
            )
            for event in rnd.events:
                histogram.observe(float(event.latency))
        self.rounds.append(rnd)
        if self.events is not None:
            for event in rnd.events:
                self.events.emit(
                    "churn_detected",
                    domain=event.domain,
                    value=event.value,
                    scope=event.scope,
                    change=event.kind,
                    round=event.round,
                    latency=event.latency,
                )
            if rnd.budget_deferred:
                self.events.emit(
                    "budget_deferral", round=index, deferred=rnd.budget_deferred
                )
            self.events.emit(
                "round_summary",
                round=index,
                queries=rnd.queries_sent,
                sparse=rnd.sparse_queries,
                full_cost=rnd.full_cost,
                frac=round(rnd.queries_frac, 6),
                changed=rnd.changed_blocks,
                new=rnd.new_blocks,
                removed=rnd.removed_blocks,
                events=len(rnd.events),
            )
        if self.status is not None:
            self.status.add("rounds_completed")
            self.status.add("churn_events", len(rnd.events))
            if rnd.budget_deferred:
                self.status.add("budget_deferred", rnd.budget_deferred)
            if self.store is not None and not unpersisted:
                self.status.record_checkpoint(
                    self.scanner.clock.now, kind="snapshot"
                )
        return rnd

    #: Degraded-mode snapshot persistence policy: save attempts per
    #: round (each a fresh storage-gate draw) and the wall backoff base
    #: between them.
    SNAPSHOT_SAVE_ATTEMPTS = 3
    SNAPSHOT_BACKOFF_SECONDS = 0.01

    def _persist_snapshot(self, snapshot: DomainSnapshot) -> bool:
        """Persist one round's snapshot, degrading instead of aborting.

        Save failures retry with a short backoff (the attempt number is
        part of the storage gate's key, so injected faults are
        transient); after the last attempt the *previous* on-disk
        snapshot is carried forward and the round marked unpersisted —
        the in-memory snapshot stays current, so the next successful
        save catches the store up and a resume from the stale file
        merely re-runs a round it would have run anyway.  Returns
        whether the snapshot landed on disk.
        """
        injected = 0
        registry = self.telemetry.registry
        for attempt in range(self.SNAPSHOT_SAVE_ATTEMPTS):
            try:
                self.store.save(snapshot, attempt=attempt)
            except OSError as exc:
                if isinstance(exc, InjectedStorageFault):
                    injected += 1
                if registry.enabled:
                    registry.counter(
                        "persistence.save_failures", surface="snapshot"
                    ).inc()
                if attempt + 1 < self.SNAPSHOT_SAVE_ATTEMPTS:
                    time.sleep(self.SNAPSHOT_BACKOFF_SECONDS * (attempt + 1))
            else:
                count_handled(registry, "snapshot", injected, 0)
                return True
        count_handled(registry, "snapshot", 0, injected)
        if registry.enabled:
            registry.counter("persistence.rounds_unpersisted").inc()
        if self.status is not None:
            self.status.publish(snapshot_degraded=True)
            self.status.add("rounds_unpersisted")
        if self.events is not None:
            self.events.emit(
                "persistence_degraded",
                surface="snapshot",
                domain=snapshot.domain,
                round=snapshot.round,
            )
        return False

    def _round_domain(
        self,
        domain: str,
        rnd: DeltaRound,
        spans: list[tuple[int, int]],
        gaps: list[tuple[int, int]],
        hot_ranges: list[tuple[int, int]],
        budget_state: dict,
    ) -> None:
        snapshot = self.snapshots[domain]
        index = rnd.index
        period = self.period(domain)
        primary = domain == self.domains[0]
        tracer = self.telemetry.tracer

        with tracer.span("delta.select", domain=domain):
            # Routing diff: spans/gaps not set-identical to the
            # remembered ones are re-scanned wholesale (walks restart per
            # span, so a merged or split span shifts landings near its
            # boundaries — per-block surgery there is not worth the risk).
            old_spans = set(snapshot.spans)
            fresh_spans = [span for span in spans if span not in old_spans]
            stable_spans = [span for span in spans if span in old_spans]
            old_gaps = set(snapshot.gaps)
            fresh_gaps = [gap for gap in gaps if gap not in old_gaps]
            stable_gaps = [gap for gap in gaps if gap in old_gaps]

            rows = [
                snapshot.rows[i]
                for i in self._in_ranges(snapshot.rows, stable_spans)
            ]
            removed_by_routing = len(snapshot.rows) - len(rows)
            sparse_rows = [
                snapshot.sparse_rows[i]
                for i in self._in_ranges(snapshot.sparse_rows, stable_gaps)
            ]
            sparse_positions = snapshot.sparse_positions - (
                len(snapshot.sparse_rows) - len(sparse_rows)
            )

            selected = self._select(
                rows, index, period, primary, hot_ranges, budget_state, rnd
            )

            ranges = self._coverage_ranges(rows, sorted(selected), stable_spans)
            ranges.extend(fresh_spans)
        # With nothing due (budget exhausted or a quiet wheel slot) the
        # remembered state simply carries over.
        stats = None
        queries = 0
        if ranges or fresh_gaps:
            before = budget_state["left"]
            with tracer.span("delta.scan", domain=domain):
                result = self.executor.scan_regions(domain, ranges, fresh_gaps)
            queries = result.queries_sent
            rnd.queries_sent += queries
            rnd.sparse_queries += result.sparse_queries
            if before is not None:
                # Replace the planned one-query-per-block charge with the
                # actual cost (descent into changed blocks, sparse probes).
                budget_state["left"] = before - queries
            with tracer.span("delta.fold", domain=domain):
                answers = _answers(result)
                rows, events, stats = self._fold(
                    snapshot, rows, merge_ranges(ranges), answers, index
                )
                sparse_rows = _sparse_rows(sparse_rows, result)
                sparse_positions += result.sparse_queries
            rnd.events.extend(events)
            rnd.refreshed_blocks += stats["refreshed"]
            rnd.changed_blocks += stats["changed"]
            rnd.new_blocks += stats["new"]
            if primary:
                hot_ranges.extend(stats["hot_ranges"])
        snapshot.rows = rows
        snapshot.sparse_rows = sparse_rows
        snapshot.sparse_positions = sparse_positions
        snapshot.spans = spans
        snapshot.gaps = gaps
        removed = removed_by_routing + (stats["removed"] if stats else 0)
        rnd.removed_blocks += removed
        with tracer.span("delta.accumulate", domain=domain):
            rnd.results[domain] = self._accumulated(snapshot, rnd.started_at)
        self._record_domain(
            domain, stats["refreshed"] if stats else 0, removed, queries, stats
        )

    # -- planning helpers ------------------------------------------------

    @staticmethod
    def _in_ranges(rows: list, ranges: list[tuple[int, int]]) -> list[int]:
        """Indices of the rows whose start value lies inside the ranges."""
        return [
            i
            for start, end in merge_ranges(ranges)
            for i in range(
                bisect_left(rows, start, key=_VALUE),
                bisect_right(rows, end, key=_VALUE),
            )
        ]

    def _select(
        self,
        rows: list[BlockRow],
        index: int,
        period: int,
        primary: bool,
        hot_ranges: list[tuple[int, int]],
        budget_state: dict,
        rnd: DeltaRound,
    ) -> set[int]:
        """Row indices to probe this round, in budget priority order.

        Mandatory work first (ranges the primary domain just flagged as
        changed — never deferred, so cross-domain detection stays within
        the round), then churn-weighted hot rows, then wheel-due rows by
        descending age; the last two defer once the budget runs out.
        The age rule (``index - refreshed >= period``) re-arms deferred
        rows every following round until they are probed.
        """
        selected: set[int] = set()
        if not primary and hot_ranges:
            selected.update(self._in_ranges(rows, hot_ranges))
            if budget_state["left"] is not None:
                budget_state["left"] -= len(selected)
        slot = index % period
        hot = []
        due = []
        for i, row in enumerate(rows):
            if i in selected:
                continue
            if row.weight > 0:
                hot.append(i)
            elif row.key % period == slot or index - row.refreshed >= period:
                due.append(i)
        if budget_state["left"] is None:
            # Unbounded: everything due is probed, in any order.
            selected.update(hot)
            selected.update(due)
            return selected
        hot.sort(key=lambda i: (-rows[i].weight, rows[i].key))
        due.sort(key=lambda i: (rows[i].refreshed, rows[i].key))
        for i in hot + due:
            if budget_state["left"] <= 0:
                rnd.budget_deferred += 1
            else:
                selected.add(i)
                budget_state["left"] -= 1
        return selected

    @staticmethod
    def _coverage_ranges(
        rows: list[BlockRow],
        indices: list[int],
        spans: list[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        """The selected rows' remembered coverage ranges, in order.

        Rows tile their span, so a row's coverage runs to the next
        row's start (or the span end for the last row of a span).
        """
        out: list[tuple[int, int]] = []
        bounds = sorted(spans)
        position = 0
        for i in indices:
            row = rows[i]
            while position < len(bounds) and bounds[position][1] < row.value:
                position += 1
            span_end = bounds[position][1]
            if i + 1 < len(rows) and rows[i + 1].value <= span_end:
                out.append((row.value, rows[i + 1].value - 1))
            else:
                out.append((row.value, span_end))
        return out

    # -- folding ---------------------------------------------------------

    def _fold(
        self,
        snapshot: DomainSnapshot,
        rows: list[BlockRow],
        scanned: list[tuple[int, int]],
        answers: list[Answer],
        index: int,
    ) -> tuple[list[BlockRow], list[ChangeEvent], dict]:
        """Merge one round's scanned ranges back into the remembered rows.

        Walks remembered rows and scanned ranges in address order.  Rows
        outside every scanned range carry over; rows inside are replaced
        by the fresh answers and classified against their predecessors.
        A fresh answer whose scope extends *past* its scanned range (a
        withdrawn unit reverting to the coarse fallback answer) swallows
        the remembered rows under the extension, and the answers of any
        later scanned range up to the extension's end — a full scan
        skips that stretch.  The part of a later range past the
        extension folds normally: scope blocks are aligned and nest, so
        the round's walk lands on the extension's end + 1 exactly where
        a full scan's skip does.  Scopes are >= /16 and blocks never
        cross a /16 boundary in this world, so swallowed rows are always
        swallowed whole.
        """
        domain = snapshot.domain
        out: list[BlockRow] = []
        events: list[ChangeEvent] = []
        hot_local: list[tuple[int, int]] = []
        stats: dict = {"refreshed": 0, "changed": 0, "new": 0, "removed": 0}
        span_bounds = sorted(snapshot.spans)
        # Roster of every answer window seen this round, by identity:
        # absorbing a window again never changes the roster partition.
        windows: dict[int, int] = {}
        oi = 0
        ri = 0
        n_rows = len(rows)
        n_answers = len(answers)
        # Rows up to a swallow's end are consumed when it is set, so the
        # carried-over rows below all lie past it.
        swallow_until = -1
        for rs, re_ in scanned:
            while oi < n_rows and rows[oi].value < rs:
                out.append(rows[oi])
                oi += 1
            if rs <= swallow_until:
                cut = min(re_, swallow_until)
                while ri < n_answers and answers[ri][0] <= cut:
                    ri += 1
                if re_ <= swallow_until:
                    continue
                rs = swallow_until + 1
            start = ri
            while ri < n_answers and answers[ri][0] <= re_:
                ri += 1
            range_new = answers[start:ri]
            start = oi
            while oi < n_rows and rows[oi].value <= re_:
                oi += 1
            range_old = rows[start:oi]
            base_refreshed = min(
                (old.refreshed for old in range_old), default=index
            )
            fresh_rows, range_events, range_hot = self._fold_range(
                snapshot, range_old, range_new, index, base_refreshed, stats,
                windows,
            )
            out.extend(fresh_rows)
            events.extend(range_events)
            if range_hot and range_new:
                hot_local.append((rs, re_))
            if range_new:
                ext, scope, _ = range_new[-1]
                if scope < 32:
                    ext |= (1 << (32 - scope)) - 1
                eff_end = min(ext, self._span_end_at(span_bounds, rs))
                if eff_end > re_:
                    swallow_until = eff_end
                    if range_hot:
                        hot_local[-1] = (rs, eff_end)
                    while oi < n_rows and rows[oi].value <= eff_end:
                        stats["removed"] += 1
                        events.append(
                            ChangeEvent.removed(domain, rows[oi], index)
                        )
                        oi += 1
        out.extend(rows[oi:])
        stats["hot_ranges"] = hot_local
        return out, events, stats

    def _fold_range(
        self,
        snapshot: DomainSnapshot,
        range_old: list[BlockRow],
        range_new: list[Answer],
        index: int,
        base_refreshed: int,
        stats: dict,
        windows: dict[int, int],
    ) -> tuple[list[BlockRow], list[ChangeEvent], bool]:
        """Classify one scanned range's fresh answers against its rows.

        ``windows`` memoises the round's :meth:`DomainSnapshot.absorb`
        calls by window identity: a window is absorbed (and can raise
        ``window_max``) on its first sighting only, after the row that
        brought it was classified — the roster state every later row is
        classified against is the one per-row absorption would leave.
        """
        domain = snapshot.domain
        refresh = self.refresh_rounds
        old_by_value = {old.value: old for old in range_old}
        matched: set[int] = set()
        fresh_rows: list[BlockRow] = []
        events: list[ChangeEvent] = []
        hot = False
        for value, scope, (addresses, asn) in range_new:
            rid = windows.get(id(addresses))
            if rid is None and len(addresses) > snapshot.window_max:
                snapshot.window_max = len(addresses)
            old = old_by_value.get(value)
            event_kind = None
            if old is None:
                event_kind = "structure"
                latency = index - base_refreshed
                stats["new"] += 1
            else:
                matched.add(value)
                stats["refreshed"] += 1
                latency = index - old.refreshed
                if old.scope != scope or old.asn != asn:
                    event_kind = "structure"
                elif snapshot.classify(old, addresses) == "moved":
                    event_kind = "answers"
                if event_kind is not None:
                    stats["changed"] += 1
            if rid is None:
                rid = windows[id(addresses)] = snapshot.absorb(addresses)
            if event_kind is not None:
                events.append(
                    ChangeEvent(
                        domain, value, scope, event_kind, index, latency
                    )
                )
                hot = True
            quiet = event_kind is None and old is not None
            fresh_rows.append(
                BlockRow(
                    value=value,
                    scope=scope,
                    addresses=addresses,
                    asn=asn,
                    rid=rid,
                    refreshed=index,
                    changed=old.changed if quiet else index,
                    weight=max(old.weight - 1, 0) if quiet else refresh,
                    key=old.key if old is not None else _row_key(domain, value),
                )
            )
        for old in range_old:
            if old.value not in matched:
                stats["removed"] += 1
                events.append(ChangeEvent.removed(domain, old, index))
                hot = True
        return fresh_rows, events, hot

    @staticmethod
    def _span_end_at(span_bounds: list[tuple[int, int]], value: int) -> int:
        """End of the current routed span containing ``value``.

        Scope skips clamp at span ends in a full scan (the walk restarts
        per span), so an extension never swallows across a span gap.
        """
        i = bisect_right(span_bounds, (value, _SPACE_END)) - 1
        if i >= 0 and value <= span_bounds[i][1]:
            return span_bounds[i][1]
        return value

    # -- accumulated state ----------------------------------------------

    def _view(
        self, snapshot: DomainSnapshot
    ) -> tuple[ColumnarResponses, list[EcsResponse]]:
        """The snapshot's rows as columns plus its sparse answers.

        Built once per snapshot state and shared by every result made
        from it: a round's ``results`` entry and the following
        :meth:`accumulated` calls.  The engine replaces row lists rather
        than editing them, so the lists (compared by identity first)
        and their lengths key the state.  Results only read the columns
        — materialising ``responses`` builds a fresh list — and each
        gets its own copy of the sparse list.
        """
        rows = snapshot.rows
        sparse_rows = snapshot.sparse_rows
        state = (rows, len(rows), sparse_rows, len(sparse_rows))
        cached = self._views.get(snapshot.domain)
        if cached is not None and cached[0] == state:
            return cached[1], cached[2]
        columnar = ColumnarResponses(snapshot.source_len)
        values, scopes, refs, table = columnar.new_chunk()
        entries: dict[tuple[int, int | None], int] = {}
        for row in rows:
            key = (id(row.addresses), row.asn)
            ref = entries.get(key)
            if ref is None:
                ref = entries[key] = len(table)
                table.append((row.addresses, row.asn))
            refs.append(ref)
        values.extend([row.value for row in rows])
        scopes.extend([row.scope for row in rows])
        source_len = snapshot.source_len
        sparse = [
            EcsResponse(
                Prefix(4, row.value, source_len),
                row.scope,
                row.addresses,
                row.asn,
            )
            for row in sparse_rows
        ]
        self._views[snapshot.domain] = (state, columnar, sparse)
        return columnar, sparse

    def _accumulated(
        self, snapshot: DomainSnapshot, started_at: float
    ) -> EcsScanResult:
        """The remembered state as a full-scan-shaped result.

        Row for row what a full scan of the current routed space would
        return (windows are drawn from whichever round last refreshed
        each block, but rotation saturates each supplier's roster, so
        the aggregate address views match a fresh full scan — the
        equivalence the delta suite asserts).  The routed rows are
        columnar: aggregate views never build per-row objects.
        """
        columnar, sparse = self._view(snapshot)
        result = EcsScanResult(domain=snapshot.domain, started_at=started_at)
        result.finished_at = self.scanner.clock.now
        result.queries_sent = len(snapshot.rows) + snapshot.sparse_positions
        result.sparse_queries = snapshot.sparse_positions
        result.sparse_answered = len(snapshot.sparse_rows)
        result.attach_columnar(columnar)
        result.sparse_responses = list(sparse)
        return result

    def accumulated(self, domain: str) -> EcsScanResult:
        """The current accumulated state of one domain."""
        snapshot = self.snapshots[domain]
        return self._accumulated(snapshot, self.scanner.clock.now)

    # -- telemetry -------------------------------------------------------

    def _record_domain(
        self,
        domain: str,
        refreshed: int,
        removed: int,
        queries: int,
        stats: dict | None = None,
    ) -> None:
        registry = self.telemetry.registry
        if not registry.enabled:
            return
        snapshot = self.snapshots[domain]
        full_cost = len(snapshot.rows) + snapshot.sparse_positions
        registry.counter("delta.probes_sent", domain=domain).inc(queries)
        registry.counter("delta.queries_saved", domain=domain).inc(
            max(full_cost - queries, 0)
        )
        registry.counter(
            "delta.blocks", domain=domain, kind="refreshed"
        ).inc(refreshed)
        registry.counter("delta.blocks", domain=domain, kind="removed").inc(
            removed
        )
        if stats is not None:
            registry.counter("delta.blocks", domain=domain, kind="new").inc(
                stats["new"]
            )
            registry.counter(
                "delta.blocks", domain=domain, kind="changed"
            ).inc(stats["changed"])


# ----------------------------------------------------------------------
# Equivalence digests
# ----------------------------------------------------------------------


def result_digest(result: EcsScanResult) -> dict:
    """A comparable fingerprint of one scan result's measured state.

    Covers the row structure (subnet, scope, answer AS — rotation-
    independent) and the aggregate address views (saturated unions, so
    rotation-independent too); per-row answer windows are deliberately
    excluded — they depend on rotation phase, which differs between any
    two scans by design.
    """
    rows = sorted(
        (r.subnet.value, r.subnet.length, r.scope, r.answer_asn or -1)
        for r in result.responses
    )
    sparse = sorted(
        (r.subnet.value, r.subnet.length, r.scope, r.answer_asn or -1)
        for r in result.sparse_responses
    )
    addresses = sorted((a.version, a.value) for a in result.addresses())
    by_asn = {
        asn: sorted((a.version, a.value) for a in bucket)
        for asn, bucket in result.addresses_by_asn().items()
    }
    return {
        "rows": rows,
        "sparse": sparse,
        "addresses": addresses,
        "by_asn": by_asn,
        "slash24s": result.slash24s_by_asn(),
    }
