"""The storage fault plane: content-keyed persistence failures.

PR 4's packet plane made the *network* boundary deterministically
unreliable; this module does the same for the *host* storage boundary
the always-on daemon leans on — the three persistence surfaces
(:mod:`repro.scan.checkpoint`, the SnapshotStore in
:mod:`repro.scan.incremental`, the EventLog in
:mod:`repro.monitor.events`) all write through one gate with the same
three properties the packet plane has:

* **Order independence.**  Whether one persistence attempt fails is a
  pure function of ``(surface, item, attempt)`` hashed against the
  seed — never of when it happens, which worker count the campaign runs
  at, or what was written before.
* **Process independence.**  Item keys go through ``zlib.crc32`` (via
  :func:`~repro.faults.plan.fault_key`), so a killed-and-resumed
  campaign replays the same storage weather.
* **Retryability.**  The attempt number is part of the key: a retried
  snapshot save gets a fresh draw, so degraded modes recover instead of
  looping on a deterministic brick wall.

Accounting contract: every injected failure increments
``faults.storage.injected`` exactly once (here, at the raise site), and
the caller that handles it increments exactly one of
``faults.storage.absorbed`` (a retry of the same item later succeeded)
or ``faults.storage.surfaced`` (the caller gave up and degraded) — so
``injected == absorbed + surfaced`` holds at the end of any campaign.

The module also owns :func:`atomic_write_json`, the one shared
durable-write helper (temp file → flush → ``os.fsync`` → ``os.replace``)
both checkpointers use; the fault kinds are expressed as exits from its
real write sequence, and the temp file is unlinked on *every* failure
path — injected or real — so no fault can leak a ``.tmp`` file.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

from repro.faults.plan import fault_key
from repro.faults.profiles import FaultProfile

_M64 = (1 << 64) - 1
_SCALE = 1 << 64

#: The storage channel's salt (decorrelated from the packet channels).
_SALT_STORAGE = 0x6A09E667F3BCC909


class StorageFaultKind:
    """Integer codes for storage fault outcomes (0 = write succeeds).

    Mirrors :class:`~repro.faults.plan.FaultKind`'s plain-int style.
    The kinds map onto exits from the durable write sequence:
    ``WRITE_ERROR`` fails before any byte lands (ENOSPC);
    ``SHORT_WRITE`` lands a prefix then fails (ENOSPC mid-write);
    ``FSYNC_FAIL`` writes fully but the flush to stable storage is
    refused (EIO); ``TORN_RENAME`` syncs the temp file but the rename
    into place never happens — the crash window ``os.replace`` exists
    to make safe.
    """

    OK = 0
    WRITE_ERROR = 1
    SHORT_WRITE = 2
    FSYNC_FAIL = 3
    TORN_RENAME = 4

    NAMES = ("ok", "write_error", "short_write", "fsync_fail", "torn_rename")


#: errno per injected kind (index by StorageFaultKind).
_ERRNOS = (0, errno.ENOSPC, errno.ENOSPC, errno.EIO, errno.EIO)


class InjectedStorageFault(OSError):
    """An injected persistence failure.

    Subclasses :class:`OSError` — not the repro error hierarchy — so it
    flows through exactly the handling a real disk error would hit; the
    degraded-mode paths treat both identically and only the accounting
    distinguishes them.
    """

    def __init__(self, kind: int, surface: str, item: str) -> None:
        super().__init__(
            _ERRNOS[kind],
            f"injected storage fault {StorageFaultKind.NAMES[kind]} "
            f"({surface}:{item})",
        )
        self.kind = kind
        self.surface = surface
        self.item = item


def _mix(x: int) -> int:
    """splitmix64 finalizer (the packet plane's, kept in lockstep)."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


class StorageGate:
    """Seeded, deterministic storage fault decisions for one campaign.

    Built by :class:`~repro.faults.plan.FaultPlan` from the profile's
    ``storage_*`` rates; immutable and safe to consult from any process.
    """

    __slots__ = ("_base", "_thresholds", "active")

    #: Key-component multipliers (the plan's, kept in lockstep).
    _MULT_A = 0xD1342543DE82EF95
    _MULT_C = 0x2545F4914F6CDD1D

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        cumulative = 0.0
        thresholds = []
        for rate in profile.storage_rates():
            cumulative += rate
            thresholds.append(min(_SCALE, int(cumulative * _SCALE)))
        #: Cumulative u64 thresholds in StorageFaultKind order.
        self._thresholds = tuple(thresholds)
        self._base = _mix(int(seed) ^ _SALT_STORAGE)
        #: Fast activity flag: inactive gates cost one attribute read.
        self.active = thresholds[-1] > 0

    def outcome(self, surface: str, item: str, attempt: int) -> int:
        """The :class:`StorageFaultKind` for one persistence attempt.

        ``surface`` names the persistence surface (``"checkpoint"``,
        ``"snapshot"``, ``"eventlog"``), ``item`` the logical thing
        being written (a month, a domain round, a canonical record) —
        together they key the draw, so the decision is identical at any
        worker count and across kill-and-resume.
        """
        h = _mix(
            self._base
            + fault_key(f"{surface}:{item}") * self._MULT_A
            + attempt * self._MULT_C
        )
        t = self._thresholds
        if h >= t[3]:
            return 0
        if h < t[0]:
            return 1
        if h < t[1]:
            return 2
        if h < t[2]:
            return 3
        return 4


def count_injected(registry, surface: str, kind: int) -> None:
    """Bump the injected-fault counter for one raise (no-op when off)."""
    if registry is not None and registry.enabled:
        registry.counter(
            "faults.storage.injected",
            surface=surface,
            kind=StorageFaultKind.NAMES[kind],
        ).inc()


def count_handled(registry, surface: str, absorbed: int, surfaced: int) -> None:
    """Settle a caller's handling of injected failures.

    ``absorbed`` failures were healed by a later retry of the same item;
    ``surfaced`` ones made the caller give up and degrade.  Every
    injected raise must land in exactly one of the two buckets.
    """
    if registry is None or not registry.enabled:
        return
    if absorbed:
        registry.counter("faults.storage.absorbed", surface=surface).inc(absorbed)
    if surfaced:
        registry.counter("faults.storage.surfaced", surface=surface).inc(surfaced)


def atomic_write_json(
    path: str | Path,
    document: dict | str,
    *,
    gate: StorageGate | None = None,
    surface: str = "",
    item: str = "",
    attempt: int = 0,
    registry=None,
) -> None:
    """Durably and atomically persist one JSON document.

    The full sequence — temp file in the same directory, flush,
    ``os.fsync`` (rename alone does not survive power loss), then
    ``os.replace`` over the destination — shared by the campaign
    checkpointer and the snapshot store.  With an active ``gate``, the
    write draws one storage fault outcome and raises the corresponding
    :class:`InjectedStorageFault` from the matching point in the
    sequence.  The temp file never outlives a failure, injected or
    real: every fault leaves either the previous file or nothing.
    ``document`` is a dict (dumped compactly) or its already-serialised
    JSON text, written as is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    kind = StorageFaultKind.OK
    if gate is not None and gate.active:
        kind = gate.outcome(surface, item, attempt)

    def injected() -> InjectedStorageFault:
        count_injected(registry, surface, kind)
        return InjectedStorageFault(kind, surface, item)

    if kind == StorageFaultKind.WRITE_ERROR:
        raise injected()
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            text = (
                document
                if isinstance(document, str)
                else json.dumps(document, separators=(",", ":"))
            )
            if kind == StorageFaultKind.SHORT_WRITE:
                handle.write(text[: max(1, len(text) // 2)])
                handle.flush()
                raise injected()
            handle.write(text)
            handle.flush()
            if kind == StorageFaultKind.FSYNC_FAIL:
                raise injected()
            os.fsync(handle.fileno())
        if kind == StorageFaultKind.TORN_RENAME:
            raise injected()
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


__all__ = [
    "InjectedStorageFault",
    "StorageFaultKind",
    "StorageGate",
    "atomic_write_json",
    "count_handled",
    "count_injected",
]
