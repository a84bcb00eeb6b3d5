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

Remembered state is columnar end to end.  A :class:`DomainSnapshot`
holds its blocks as parallel ``array`` columns beside one answer table,
in the scan kernel's own chunk layout: seeding copies a scan's columns,
a round carries unprobed blocks over untouched and rewrites only the
probed ones, :meth:`DeltaScanEngine.accumulated` serves the snapshot's
columns as they stand, and the store renders the snapshot file straight
from them — no per-block object exists on the way.

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
import operator
import time
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter
from pathlib import Path

from repro.errors import CheckpointError
from repro.faults.plan import MASK64, MIX_MULT_A, MIX_MULT_B
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


def _row_keys(domain: str, values: array) -> array:
    """Content-keyed wheel positions of a column of remembered blocks.

    A key depends only on the domain and the block's address — never on
    discovery order or worker count — so every process computes the
    same refresh schedule.  It is the crc32 of ``domain:value`` (the
    fault plane's ``fault_key``; the prefix's crc is computed once and
    continued over each value's digits) spread over 64 bits by the fault
    plane's splitmix64 finalizer, so the wheel residue ``key % period``
    is uniform — rows sharing a residue class would otherwise cluster by
    address locality.
    """
    start = zlib.crc32(f"{domain}:".encode("utf-8"))
    crc32 = zlib.crc32
    keys = array("Q")
    append = keys.append
    for value in values:
        x = crc32(b"%d" % value, start)
        x = ((x ^ (x >> 30)) * MIX_MULT_A) & MASK64
        x = ((x ^ (x >> 27)) * MIX_MULT_B) & MASK64
        append(x ^ (x >> 31))
    return keys


def _row_key(domain: str, value: int) -> int:
    """The wheel position of one remembered block (see :func:`_row_keys`)."""
    return _row_keys(domain, (value,))[0]


#: Past every IPv4 value: ``(value, _SPACE_END)`` sorts after any span
#: starting at ``value``.
_SPACE_END = 1 << 32


def _without_gc(method):
    """``method`` run with cyclic GC suspended (and restored after).

    Seeds and rounds allocate tens of thousands of short-lived, acyclic
    ints and tuples that refcounting reclaims on its own, while every
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


#: One distinct answer: ``(addresses, answer AS)``, as in the scan
#: kernels' chunk tables.
Answer = tuple[tuple[IPAddress, ...], int | None]

#: Typecodes of the routed row columns, in :meth:`DomainSnapshot.row_columns`
#: order: values, scopes, refs, rids, refreshed, changed, weight, key.
_ROW_TYPES = ("I", "B", "I", "I", "i", "i", "I", "Q")


def _append_bytes(column: array, source) -> None:
    """Append a same-typed array or ``memoryview`` cast to ``column``."""
    column.frombytes(memoryview(source).cast("B"))


def _routed_columns(
    result: EcsScanResult, table: list[Answer]
) -> tuple[array, array, array]:
    """A scan's routed answers as owned ``(values, scopes, refs)`` columns.

    Copied out of the result's chunks — one per scan, or one per shard
    of a merged result, possibly viewing a shard's shared-memory segment
    — in address order.  The refs point into ``table``, where the chunk
    tables' answers are interned by address-tuple identity and AS: an
    answer already there (a remembered block answering as before) keeps
    its entry.  Results of the list-building kernels are packed first.
    """
    columnar = result.columnar_view()
    if columnar is None:
        columnar = ColumnarResponses.from_responses(result.responses)
    interned = {
        (id(addresses), asn): ref for ref, (addresses, asn) in enumerate(table)
    }
    values, scopes, refs = array("I"), array("B"), array("I")
    for chunk_values, chunk_scopes, chunk_refs, chunk_table in columnar.chunks:
        _append_bytes(values, chunk_values)
        _append_bytes(scopes, chunk_scopes)
        remap = []
        for answer in chunk_table:
            key = (id(answer[0]), answer[1])
            ref = interned.get(key)
            if ref is None:
                ref = interned[key] = len(table)
                table.append(answer)
            remap.append(ref)
        refs.extend(map(remap.__getitem__, chunk_refs))
    return values, scopes, refs


def _compact(refs: array, table: list[Answer]) -> tuple[array, list[Answer]]:
    """``refs`` and ``table`` cut to the referenced entries, in first-use order.

    Unchanged when every entry is referenced.
    """
    used = dict.fromkeys(refs)
    if len(used) == len(table):
        return refs, table
    compacted = [table[ref] for ref in used]
    for position, ref in enumerate(used):
        used[ref] = position
    return array("I", map(used.__getitem__, refs)), compacted


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


@dataclass
class DomainSnapshot:
    """Everything the delta engine remembers about one domain.

    The remembered scope blocks — every walk landing of the last full
    enumeration, tiling the routed spans — are parallel columns in
    address order, one entry per block:

    * ``values`` (``array('I')``) — the block's start;
    * ``scopes`` (``array('B')``) — its last declared scope;
    * ``refs`` (``array('I')``) — its last answer, an index into
      ``table``, the ``(addresses, asn)`` answers the rows reference;
    * ``rids`` (``array('I')``) — the answer window's roster id (a
      union-find leaf; resolve through :meth:`find`);
    * ``refreshed`` / ``changed`` (``array('i')``) — the round the block
      was last probed / its answer last changed (-1: not since the seed);
    * ``weight`` (``array('I')``) — churn weight: probed every round
      while positive, decremented on each quiet probe;
    * ``key`` (``array('Q')``) — the content-keyed wheel position
      (recomputed on load, not persisted).

    ``(values, scopes, refs, table)`` is a
    :class:`~repro.scan.columnar.ColumnarResponses` chunk as it stands,
    so accumulated results serve it without copying.  Columns are only
    ever replaced (:meth:`set_rows`), never edited in place, so a result
    built from one state never sees a later round.  The answered
    unrouted probes are held the same way in ``sparse_values``,
    ``sparse_scopes``, ``sparse_refs`` and ``sparse_table``.

    ``rosters`` is the learned supplier-roster partition of all answer
    addresses (union-find: ``parent`` over roster ids, ``addr_rid``
    from address to leaf id, ``absorbed`` from window to leaf id).
    """

    domain: str
    source_len: int
    round: int
    seeded_at: float
    spans: list[tuple[int, int]]
    gaps: list[tuple[int, int]]
    values: array = field(default_factory=lambda: array("I"))
    scopes: array = field(default_factory=lambda: array("B"))
    refs: array = field(default_factory=lambda: array("I"))
    table: list[Answer] = field(default_factory=list)
    rids: array = field(default_factory=lambda: array("I"))
    refreshed: array = field(default_factory=lambda: array("i"))
    changed: array = field(default_factory=lambda: array("i"))
    weight: array = field(default_factory=lambda: array("I"))
    key: array = field(default_factory=lambda: array("Q"))
    sparse_values: array = field(default_factory=lambda: array("I"))
    sparse_scopes: array = field(default_factory=lambda: array("B"))
    sparse_refs: array = field(default_factory=lambda: array("I"))
    sparse_table: list[Answer] = field(default_factory=list)
    rosters: list[set[IPAddress]] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    addr_rid: dict[IPAddress, int] = field(default_factory=dict)
    #: Every window :meth:`absorb` has folded in, by identity, with its
    #: roster id (the window is kept so its id stays unique).
    absorbed: dict[int, tuple[tuple[IPAddress, ...], int]] = field(
        default_factory=dict
    )
    #: Sparse probe positions a full scan of the current gaps issues
    #: (exact while every sparse probe answers, as in this world).
    sparse_positions: int = 0
    #: Largest answer window ever observed for this domain.  A row whose
    #: window is *smaller* is served by a supplier whose whole roster
    #: fits one window — its window set is rotation-invariant, giving an
    #: exact per-row change fingerprint (see :meth:`classify`).
    window_max: int = 0

    # -- columns ----------------------------------------------------------

    def row_columns(self) -> tuple[array, ...]:
        """The routed row columns, in ``_ROW_TYPES`` order."""
        return (
            self.values, self.scopes, self.refs, self.rids,
            self.refreshed, self.changed, self.weight, self.key,
        )

    def set_rows(self, columns: tuple[array, ...], table: list[Answer]) -> None:
        """Install new routed row columns (``row_columns`` order).

        The columns must be new arrays: results may share the current
        ones.  ``refs`` index into ``table``; entries no row references
        are dropped, so the table stays a valid chunk table.
        """
        (values, scopes, refs, self.rids, self.refreshed, self.changed,
         self.weight, self.key) = columns
        self.refs, self.table = _compact(refs, table)
        self.values, self.scopes = values, scopes

    def keep_rows(self, slices: list[tuple[int, int]]) -> None:
        """Keep only the routed rows in the index ``slices`` (ascending)."""
        if slices == [(0, len(self.values))]:
            return
        columns = tuple(array(code) for code in _ROW_TYPES)
        for lo, hi in slices:
            for column, source in zip(columns, self.row_columns()):
                column += source[lo:hi]
        self.set_rows(columns, self.table)

    def sparse_answers(self) -> list[tuple[int, int, Answer]]:
        """The sparse rows as ``(value, scope, answer)``, in address order."""
        return list(zip(
            self.sparse_values,
            self.sparse_scopes,
            map(self.sparse_table.__getitem__, self.sparse_refs),
        ))

    def set_sparse(self, rows: list[tuple[int, int, Answer]]) -> None:
        """Install new sparse columns from ``(value, scope, answer)`` rows."""
        refs: dict[tuple[int, int | None], int] = {}
        table: list[Answer] = []
        column = array("I")
        for _, _, answer in rows:
            addresses, asn = answer
            ref = refs.get((id(addresses), asn))
            if ref is None:
                ref = refs[id(addresses), asn] = len(table)
                table.append(answer)
            column.append(ref)
        self.sparse_values = array("I", [row[0] for row in rows])
        self.sparse_scopes = array("B", [row[1] for row in rows])
        self.sparse_refs = column
        self.sparse_table = table

    def keep_sparse(self, slices: list[tuple[int, int]]) -> None:
        """Keep only the sparse rows in the index ``slices`` (ascending)."""
        if slices == [(0, len(self.sparse_values))]:
            return
        rows = self.sparse_answers()
        self.set_sparse([row for lo, hi in slices for row in rows[lo:hi]])

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
        """Fold one answer window into the rosters; returns its roster id.

        Windows of one supplier chain together: consecutive rotation
        windows share all but one address, so any overlap unions their
        rosters.  A window with no known address starts a new roster.
        Absorbing a window again never changes the partition — its
        addresses already share one roster, and rosters only merge — so
        a window seen before returns its memoised id at once.
        """
        known = self.absorbed.get(id(addresses))
        if known is not None:
            return known[1]
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
        self.absorbed[id(addresses)] = (addresses, rid)
        return rid

    def classify(
        self,
        old: tuple[IPAddress, ...],
        rid: int,
        addresses: tuple[IPAddress, ...],
        as_set=frozenset,
    ) -> str:
        """A probed window against a block's remembered window ``old``
        (of roster ``rid``).  ``as_set`` turns a window into its
        frozenset; a caller classifying many rows passes a memo, so set
        algebra reuses stored hashes instead of rehashing addresses.

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
        if addresses is old:
            # The relay service memoises windows; a row's own window is
            # always inside its roster, so either branch says "same".
            return "same"
        if len(old) < self.window_max or len(addresses) < self.window_max:
            return "same" if as_set(addresses) == as_set(old) else "moved"
        root = self.find(rid)
        known = self.absorbed.get(id(addresses))
        if known is not None and addresses:
            # An absorbed window lies wholly inside one roster: a
            # superset of it, or disjoint from it.
            return "same" if self.find(known[1]) == root else "moved"
        roster = self.rosters[root]
        window = as_set(addresses)
        if roster.issuperset(window):
            return "same"
        if roster.isdisjoint(window):
            return "moved"
        return "grow"


# ----------------------------------------------------------------------
# Snapshot persistence (the checkpoint codec, extended)
# ----------------------------------------------------------------------

#: One snapshot-file row, rendered from its columns: value, scope,
#: window ref, asn, roster ref, refreshed, changed, weight.
_ROW_FORMAT = "[%s,%s,%s,%s,%s,%s,%s,%s]"
#: One sparse row: value, scope, window ref, asn.
_SPARSE_FORMAT = "[%s,%s,%s,%s]"


#: An address as its ``(version, value)`` file pair.
_VERSION_VALUE = attrgetter("version", "value")


class _Json(str):
    """A document value already rendered as compact JSON text."""


def _row_lists(fmt: str, columns: tuple) -> list[list]:
    """Encoded rows as JSON-safe lists (:func:`encode_snapshot`)."""
    return [list(row) for row in zip(*columns)]


def _row_json(fmt: str, columns: tuple) -> _Json:
    """Encoded rows as the compact JSON text :func:`_row_lists` dumps to.

    One ``fmt % row`` per row at C iteration speed instead of a list
    per row and a ``json.dumps`` over them; every field is an int
    (``%s`` renders it as ``json`` does) except column 3, the answer AS,
    where None must read ``null``.
    """
    asns = columns[3]
    if None in asns:
        asns = ["null" if asn is None else asn for asn in asns]
    columns = (*columns[:3], asns, *columns[4:])
    return _Json("[" + ",".join(map(fmt.__mod__, zip(*columns))) + "]")


def _encode(snapshot: DomainSnapshot, rows_as) -> dict:
    """The snapshot's file fields, its row lists rendered by ``rows_as``.

    Answer windows are deduplicated by content into a table in first-use
    order over the routed then the sparse rows (rows of one supplier
    share windows heavily); rosters are compacted to their union-find
    roots in first-use order, so the encoding is independent of merge
    history and of how the in-memory tables are numbered.  Each pass
    runs once per distinct table entry or roster leaf — ``dict.fromkeys``
    over a ref column lists them in first-use order — and maps the
    columns through the result at C speed.
    """
    window_index: dict[tuple, int] = {}
    windows: list = []

    def renumber(table: list[Answer], refs: array) -> tuple[list, list]:
        """Per-row file window refs and answer ASes of ``refs``."""
        file_refs: dict[int, int] = {}
        for ref in dict.fromkeys(refs):
            key = tuple(map(_VERSION_VALUE, table[ref][0]))
            window = window_index.get(key)
            if window is None:
                window = window_index[key] = len(windows)
                windows.append([list(pair) for pair in key])
            file_refs[ref] = window
        asns = [asn for _, asn in table]
        return (
            list(map(file_refs.__getitem__, refs)),
            list(map(asns.__getitem__, refs)),
        )

    roster_index: dict[int, int] = {}
    rosters: list = []
    leaf_refs: dict[int, int] = {}
    for leaf in dict.fromkeys(snapshot.rids):
        root = snapshot.find(leaf)
        rid = roster_index.get(root)
        if rid is None:
            rid = roster_index[root] = len(rosters)
            rosters.append(
                sorted([a.version, a.value] for a in snapshot.rosters[root])
            )
        leaf_refs[leaf] = rid

    refs, asns = renumber(snapshot.table, snapshot.refs)
    rows = rows_as(_ROW_FORMAT, (
        snapshot.values, snapshot.scopes, refs, asns,
        list(map(leaf_refs.__getitem__, snapshot.rids)),
        snapshot.refreshed, snapshot.changed, snapshot.weight,
    ))
    refs, asns = renumber(snapshot.sparse_table, snapshot.sparse_refs)
    sparse = rows_as(_SPARSE_FORMAT, (
        snapshot.sparse_values, snapshot.sparse_scopes, refs, asns,
    ))
    return {
        "domain": snapshot.domain,
        "source_len": snapshot.source_len,
        "round": snapshot.round,
        "seeded_at": snapshot.seeded_at,
        "spans": [list(span) for span in snapshot.spans],
        "gaps": [list(gap) for gap in snapshot.gaps],
        "table": windows,
        "rows": rows,
        "sparse": sparse,
        "rosters": rosters,
        "sparse_positions": snapshot.sparse_positions,
        "window_max": snapshot.window_max,
    }


def encode_snapshot(snapshot: DomainSnapshot) -> dict:
    """One domain snapshot as a JSON-safe dict (see :func:`_encode`)."""
    return _encode(snapshot, _row_lists)


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
    columns = list(zip(*data["rows"])) or [()] * 8
    values, scopes, refs, asns, rids, refreshed, changed, weight = columns
    # The in-memory table holds one entry per distinct (window, asn).
    entries = dict.fromkeys(zip(refs, asns))
    table = [(windows[ref], asn) for ref, asn in entries]
    for position, entry in enumerate(entries):
        entries[entry] = position
    values = array("I", values)
    snapshot.set_rows(
        (
            values,
            array("B", scopes),
            array("I", map(entries.__getitem__, zip(refs, asns))),
            array("I", rids),
            array("i", refreshed),
            array("i", changed),
            array("I", weight),
            _row_keys(domain, values),
        ),
        table,
    )
    snapshot.set_sparse([
        (value, scope, (windows[ref], asn))
        for value, scope, ref, asn in data["sparse"]
    ])
    return snapshot


_COMPACT = (",", ":")


def _document_text(document: dict) -> str:
    """The on-disk JSON of ``document`` with its ``crc`` field appended.

    Byte-identical to compact-dumping ``{**document, "crc":
    payload_crc(document)}``, but each top-level value is serialised
    once — or arrives already rendered, as :class:`_Json` — and that
    text serves both the file and the canonical form the crc covers.
    The two forms differ only in dict key order, so only dict values are
    dumped twice — exact while no list value contains a dict, as in
    every snapshot field.
    """
    plain: list[tuple[str, str]] = []
    canonical: dict[str, str] = {}
    for key, value in document.items():
        text = value
        if not isinstance(value, _Json):
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
            **_encode(snapshot, _row_json),
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


def _sparse_merge(
    kept: list[tuple[int, int, Answer]], result: EcsScanResult
) -> list[tuple[int, int, Answer]]:
    """``kept`` plus a scan's answered sparse probes, in address order."""
    fresh = [
        (r.subnet.value, r.scope, (r.addresses, r.answer_asn))
        for r in result.sparse_responses
    ]
    return sorted(kept + fresh, key=itemgetter(0))


def _span_end_at(span_bounds: list[tuple[int, int]], value: int) -> int:
    """End of the current routed span containing ``value``.

    Scope skips clamp at span ends in a full scan (the walk restarts
    per span), so an extension never swallows across a span gap.
    """
    i = bisect_right(span_bounds, (value, _SPACE_END)) - 1
    if i >= 0 and value <= span_bounds[i][1]:
        return span_bounds[i][1]
    return value


class _Fold:
    """One round's fold of a scan's answers into a domain's row columns.

    Remembered rows and scanned ranges are merged in address order.
    Rows outside every scanned range carry over; rows inside are
    replaced by the fresh answers and classified against their
    predecessors.  The new columns start as copies of the remembered
    ones: a scanned range whose fresh rows land exactly on its
    remembered rows — every range of a quiet round — is updated in
    place, and any other range (blocks split, appeared, removed or
    swallowed) is recorded as a splice and spliced in once by
    :meth:`columns`, so rows outside the scanned ranges are never
    visited.  ``table`` extends the snapshot's answer table with the
    scan's, so remembered and fresh refs share one numbering.

    A fresh answer whose scope extends *past* its scanned range (a
    withdrawn unit reverting to the coarse fallback answer) swallows the
    remembered rows under the extension, and the answers of any later
    scanned range up to the extension's end — a full scan skips that
    stretch.  The part of a later range past the extension folds
    normally: scope blocks are aligned and nest, so the round's walk
    lands on the extension's end + 1 exactly where a full scan's skip
    does.  Scopes are >= /16 and blocks never cross a /16 boundary in
    this world, so swallowed rows are always swallowed whole.
    """

    def __init__(
        self,
        snapshot: DomainSnapshot,
        result: EcsScanResult,
        index: int,
        refresh: int,
    ) -> None:
        self.snapshot = snapshot
        self.index = index
        self.refresh = refresh
        self.old = snapshot.row_columns()
        self.out = [column[:] for column in self.old]
        self.table = list(snapshot.table)
        self.fresh = _routed_columns(result, self.table)
        #: ``(lo, hi, rows)``: remembered rows ``lo:hi`` become ``rows``
        #: (tuples in row-column order), ascending and disjoint.
        self.splices: list[tuple[int, int, list[tuple]]] = []
        self.events: list[ChangeEvent] = []
        self.stats: dict = {"refreshed": 0, "changed": 0, "new": 0, "removed": 0}
        #: Each window's frozenset for :meth:`DomainSnapshot.classify`.
        self.sets: dict[int, frozenset] = {}

    def as_set(self, addresses: tuple[IPAddress, ...]) -> frozenset:
        """``frozenset(addresses)``, built once per window per round."""
        window = self.sets.get(id(addresses))
        if window is None:
            window = self.sets[id(addresses)] = frozenset(addresses)
        return window

    def run(
        self, scanned: list[tuple[int, int]], probed: list[int]
    ) -> list[tuple[int, int]]:
        """Fold the scanned ranges (ascending, disjoint); returns the
        ranges where something changed, for cross-domain propagation.

        ``probed`` lists the remembered rows inside the scanned ranges.
        When the fresh rows are exactly those rows' values and scopes —
        a round without structural change — no scope extends past its
        range, and the whole round refreshes in one pass.
        """
        values, scopes = self.old[0], self.old[1]
        fresh_values, fresh_scopes, fresh_refs = self.fresh
        if (
            len(probed) == len(fresh_values)
            and array("I", map(values.__getitem__, probed)) == fresh_values
            and array("B", map(scopes.__getitem__, probed)) == fresh_scopes
        ):
            hot_ranges: list[tuple[int, int]] = []
            for j in self._refresh(zip(probed, fresh_scopes, fresh_refs)):
                hot = scanned[bisect_right(scanned, (values[j], _SPACE_END)) - 1]
                if not hot_ranges or hot_ranges[-1] != hot:
                    hot_ranges.append(hot)
            return hot_ranges
        return self._walk(scanned)

    def _walk(self, scanned: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """:meth:`run` range by range, for rounds whose structure changed."""
        values = self.old[0]
        fresh_values, fresh_scopes, fresh_refs = self.fresh
        span_bounds = sorted(self.snapshot.spans)
        hot_ranges: list[tuple[int, int]] = []
        oi = 0
        ri = 0
        # Rows up to a swallow's end are consumed when it is set, so the
        # rows below all lie past it.
        swallow_until = -1
        for rs, re_ in scanned:
            oi = bisect_left(values, rs, oi)
            if rs <= swallow_until:
                ri = bisect_right(fresh_values, min(re_, swallow_until), ri)
                if re_ <= swallow_until:
                    continue
                rs = swallow_until + 1
            fresh_end = bisect_right(fresh_values, re_, ri)
            old_end = bisect_right(values, re_, oi)
            if (
                old_end - oi == fresh_end - ri
                and values[oi:old_end] == fresh_values[ri:fresh_end]
            ):
                # Every fresh row re-probes the remembered row at its
                # position.
                hot = bool(self._refresh(zip(
                    range(oi, old_end),
                    fresh_scopes[ri:fresh_end],
                    fresh_refs[ri:fresh_end],
                )))
            else:
                self._splice(oi, old_end, ri, fresh_end)
                hot = True
            oi = old_end
            if ri < fresh_end:
                if hot:
                    hot_ranges.append((rs, re_))
                ext = fresh_values[fresh_end - 1]
                scope = fresh_scopes[fresh_end - 1]
                if scope < 32:
                    ext |= (1 << (32 - scope)) - 1
                eff_end = min(ext, _span_end_at(span_bounds, rs))
                if eff_end > re_:
                    swallow_until = eff_end
                    if hot:
                        hot_ranges[-1] = (rs, eff_end)
                    swallowed = bisect_right(values, eff_end, oi)
                    self._removed(range(oi, swallowed))
                    self.splices.append((oi, swallowed, []))
                    oi = swallowed
            ri = fresh_end
        return hot_ranges

    def _refresh(self, rows) -> list[int]:
        """Re-probed remembered rows, as ``(index, scope, ref)`` of their
        fresh answers: update the copies in place; returns the indices
        whose answer changed."""
        snapshot, index = self.snapshot, self.index
        domain = snapshot.domain
        table, events = self.table, self.events
        values, scopes, refs, rids, refreshed, _, weight, _ = self.old
        _, out_scopes, out_refs, out_rids, out_refreshed, out_changed, \
            out_weight, _ = self.out
        absorb, classify, as_set = snapshot.absorb, snapshot.classify, self.as_set
        changed: list[int] = []
        refreshed_rows = 0
        for j, scope, ref in rows:
            refreshed_rows += 1
            addresses, asn = table[ref]
            if len(addresses) > snapshot.window_max:
                snapshot.window_max = len(addresses)
            old_addresses, old_asn = table[refs[j]]
            event_kind = None
            if scopes[j] != scope or old_asn != asn:
                event_kind = "structure"
            elif (
                addresses is not old_addresses
                and classify(old_addresses, rids[j], addresses, as_set)
                == "moved"
            ):
                event_kind = "answers"
            out_refs[j] = ref
            out_rids[j] = absorb(addresses)
            out_refreshed[j] = index
            if event_kind is None:
                if weight[j]:
                    out_weight[j] = weight[j] - 1
                continue
            changed.append(j)
            events.append(ChangeEvent(
                domain, values[j], scope, event_kind, index,
                index - refreshed[j],
            ))
            out_scopes[j] = scope
            out_changed[j] = index
            out_weight[j] = self.refresh
        self.stats["refreshed"] += refreshed_rows
        self.stats["changed"] += len(changed)
        return changed

    def _splice(self, lo: int, hi: int, fresh_lo: int, fresh_hi: int) -> None:
        """Replace remembered rows ``lo:hi`` by fresh rows
        ``fresh_lo:fresh_hi`` that do not line up with them, matching
        by block value (so some block is new or removed)."""
        snapshot, index = self.snapshot, self.index
        domain = snapshot.domain
        stats, table, events = self.stats, self.table, self.events
        values, scopes, refs, rids, refreshed, changed, weight, key = self.old
        fresh_values, fresh_scopes, fresh_refs = self.fresh
        old_by_value = dict(zip(values[lo:hi], range(lo, hi)))
        base_refreshed = min(refreshed[lo:hi], default=index)
        matched: set[int] = set()
        rows: list[tuple] = []
        for value, scope, ref in zip(
            fresh_values[fresh_lo:fresh_hi],
            fresh_scopes[fresh_lo:fresh_hi],
            fresh_refs[fresh_lo:fresh_hi],
        ):
            addresses, asn = table[ref]
            if len(addresses) > snapshot.window_max:
                snapshot.window_max = len(addresses)
            j = old_by_value.get(value)
            event_kind = None
            if j is None:
                event_kind = "structure"
                latency = index - base_refreshed
                stats["new"] += 1
            else:
                matched.add(j)
                stats["refreshed"] += 1
                latency = index - refreshed[j]
                old_addresses, old_asn = table[refs[j]]
                if scopes[j] != scope or old_asn != asn:
                    event_kind = "structure"
                elif snapshot.classify(
                    old_addresses, rids[j], addresses, self.as_set
                ) == "moved":
                    event_kind = "answers"
                if event_kind is not None:
                    stats["changed"] += 1
            rid = snapshot.absorb(addresses)
            if event_kind is None:
                rows.append((value, scope, ref, rid, index, changed[j],
                             max(weight[j] - 1, 0), key[j]))
                continue
            events.append(
                ChangeEvent(domain, value, scope, event_kind, index, latency)
            )
            rows.append((value, scope, ref, rid, index, index, self.refresh,
                         _row_key(domain, value) if j is None else key[j]))
        self.splices.append((lo, hi, rows))
        self._removed(j for j in range(lo, hi) if j not in matched)

    def _removed(self, indices) -> None:
        """One ``removed`` event per remembered row in ``indices``."""
        values, scopes, _, _, refreshed, _, _, _ = self.old
        domain, index = self.snapshot.domain, self.index
        removed = [
            ChangeEvent(domain, values[j], scopes[j], "removed", index,
                        index - refreshed[j])
            for j in indices
        ]
        self.events.extend(removed)
        self.stats["removed"] += len(removed)

    def columns(self) -> tuple[array, ...]:
        """The new row columns, splices applied."""
        if not self.splices:
            return tuple(self.out)
        columns = tuple(array(code) for code in _ROW_TYPES)
        position = 0
        for lo, hi, rows in self.splices:
            for column, source in zip(columns, self.out):
                column += source[position:lo]
            for column, fresh in zip(columns, zip(*rows)):
                column.extend(fresh)
            position = hi
        for column, source in zip(columns, self.out):
            column += source[position:]
        return columns


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
        """Full scan of one domain, remembered as the baseline snapshot.

        The scan's columns are copied as they stand; the rosters absorb
        each distinct answer window once, in first-use order.
        """
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
        table: list[Answer] = []
        values, scopes, refs = _routed_columns(result, table)
        ref_rids: dict[int, int] = {}
        for ref in dict.fromkeys(refs):
            addresses = table[ref][0]
            if len(addresses) > snapshot.window_max:
                snapshot.window_max = len(addresses)
            ref_rids[ref] = snapshot.absorb(addresses)
        never = array("i", [-1]) * len(values)
        snapshot.set_rows(
            (
                values,
                scopes,
                refs,
                array("I", map(ref_rids.__getitem__, refs)),
                never,
                array("i", never),
                array("I", [0]) * len(values),
                _row_keys(domain, values),
            ),
            table,
        )
        snapshot.set_sparse(_sparse_merge([], result))
        for addresses, _ in snapshot.sparse_table:
            if len(addresses) > snapshot.window_max:
                snapshot.window_max = len(addresses)
        self.snapshots[domain] = snapshot
        if self.store is not None:
            self._persist_snapshot(snapshot)
        if self.events is not None:
            self.events.emit(
                "delta_seeded",
                domain=domain,
                rows=len(snapshot.values),
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
            len(snapshot.values) + snapshot.sparse_positions
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

            remembered = len(snapshot.values)
            snapshot.keep_rows(self._slices(snapshot.values, stable_spans))
            removed_by_routing = remembered - len(snapshot.values)
            remembered = len(snapshot.sparse_values)
            snapshot.keep_sparse(
                self._slices(snapshot.sparse_values, stable_gaps)
            )
            snapshot.sparse_positions -= remembered - len(snapshot.sparse_values)

            probed = sorted(self._select(
                snapshot, index, period, primary, hot_ranges, budget_state, rnd
            ))
            ranges = self._coverage_ranges(snapshot.values, probed, stable_spans)
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
                fold = _Fold(snapshot, result, index, self.refresh_rounds)
                changed_ranges = fold.run(merge_ranges(ranges), probed)
                snapshot.set_rows(fold.columns(), fold.table)
                if result.sparse_responses:
                    snapshot.set_sparse(
                        _sparse_merge(snapshot.sparse_answers(), result)
                    )
                snapshot.sparse_positions += result.sparse_queries
            stats = fold.stats
            rnd.events.extend(fold.events)
            rnd.refreshed_blocks += stats["refreshed"]
            rnd.changed_blocks += stats["changed"]
            rnd.new_blocks += stats["new"]
            if primary:
                hot_ranges.extend(changed_ranges)
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
    def _slices(
        values: array, ranges: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Index slices of the rows whose start value lies inside the
        ranges, ascending, with touching slices joined."""
        slices: list[tuple[int, int]] = []
        for start, end in merge_ranges(ranges):
            lo = bisect_left(values, start)
            hi = bisect_right(values, end, lo)
            if lo == hi:
                continue
            if slices and slices[-1][1] == lo:
                lo = slices.pop()[0]
            slices.append((lo, hi))
        return slices

    def _select(
        self,
        snapshot: DomainSnapshot,
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
        weight, key, refreshed = snapshot.weight, snapshot.key, snapshot.refreshed
        selected: set[int] = set()
        if not primary and hot_ranges:
            for lo, hi in self._slices(snapshot.values, hot_ranges):
                selected.update(range(lo, hi))
            if budget_state["left"] is not None:
                budget_state["left"] -= len(selected)
        weighted = list(compress(range(len(weight)), weight))
        hot = [i for i in weighted if i not in selected]
        slot = index % period
        overdue = index - period
        due = [
            i
            for i, (wheel, last) in enumerate(zip(key, refreshed))
            if wheel % period == slot or last <= overdue
        ]
        if weighted or selected:
            skip = selected.union(weighted)
            due = [i for i in due if i not in skip]
        if budget_state["left"] is None:
            # Unbounded: everything due is probed, in any order.
            selected.update(hot)
            selected.update(due)
            return selected
        hot.sort(key=lambda i: (-weight[i], key[i]))
        due.sort(key=lambda i: (refreshed[i], key[i]))
        for i in hot + due:
            if budget_state["left"] <= 0:
                rnd.budget_deferred += 1
            else:
                selected.add(i)
                budget_state["left"] -= 1
        return selected

    @staticmethod
    def _coverage_ranges(
        values: array,
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
        n_rows = len(values)
        for i in indices:
            value = values[i]
            while position < len(bounds) and bounds[position][1] < value:
                position += 1
            span_end = bounds[position][1]
            if i + 1 < n_rows and values[i + 1] <= span_end:
                out.append((value, values[i + 1] - 1))
            else:
                out.append((value, span_end))
        return out

    # -- accumulated state ----------------------------------------------

    def _view(
        self, snapshot: DomainSnapshot
    ) -> tuple[ColumnarResponses, list[EcsResponse]]:
        """The snapshot's routed columns as one result chunk, plus its
        sparse answers.

        The chunk *is* the snapshot's own columns — they are replaced,
        never edited — so only the sparse answers are built.  Both are
        made once per snapshot state and shared by every result made
        from it: a round's ``results`` entry and the following
        :meth:`accumulated` calls.  Installing rows always installs a
        new ``values`` array (and sparse rows a new ``sparse_values``),
        so their identities key the two states.  Results only read the
        columns — materialising ``responses`` builds a fresh list — and
        each gets its own copy of the sparse list.
        """
        cached = self._views.get(snapshot.domain)
        if cached is not None and cached[0] is snapshot.values:
            columnar = cached[2]
        else:
            columnar = ColumnarResponses(snapshot.source_len)
            columnar.chunks.append(
                (snapshot.values, snapshot.scopes, snapshot.refs, snapshot.table)
            )
        if cached is not None and cached[1] is snapshot.sparse_values:
            sparse = cached[3]
        else:
            source_len = snapshot.source_len
            sparse = [
                EcsResponse(Prefix(4, value, source_len), scope, *answer)
                for value, scope, answer in snapshot.sparse_answers()
            ]
        self._views[snapshot.domain] = (
            snapshot.values, snapshot.sparse_values, columnar, sparse
        )
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
        result.queries_sent = len(snapshot.values) + snapshot.sparse_positions
        result.sparse_queries = snapshot.sparse_positions
        result.sparse_answered = len(snapshot.sparse_values)
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
        full_cost = len(snapshot.values) + snapshot.sparse_positions
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
