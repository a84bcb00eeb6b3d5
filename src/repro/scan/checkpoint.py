"""Campaign checkpoint/resume: atomic per-month result persistence.

After each completed month, :class:`~repro.scan.campaign.ScanCampaign`
can write one JSON checkpoint file capturing everything a fresh process
needs to continue the campaign as if it had never died:

* both scan results of the month.  Each response set (routed and
  sparse) is stored as the scan kernel's own packed columns — its
  ``subnet_len``; ``values``, ``scopes`` and ``refs`` as base64 of the
  little-endian ``array('I')``/``('B')``/``('I')`` bytes; an
  ``addresses`` pool of ``[version, value]`` pairs, one per distinct
  address; and a distinct-answer ``table`` of ``[[pool index, ...],
  asn]`` entries — so a checkpoint costs a few bytes per row plus
  space proportional to distinct answers, and restores as a
  :class:`~repro.scan.columnar.ColumnarResponses` without one object
  per row;
* the simulated clock position after the month;
* the authoritative server's cumulative query statistics;
* the zone's rotation-counter state — the one scan-visible piece of
  world state that is not derivable from the results.

Writes are atomic (temp file + ``os.replace``), so a kill mid-write
leaves either the previous checkpoint or none — never a torn file.  A
checkpoint embeds a **settings fingerprint**; resuming against different
scan settings raises :class:`~repro.errors.CheckpointError` instead of
silently splicing incompatible months together.  Settings that cannot
change results (worker count, fast path) are deliberately excluded from
the fingerprint: a campaign killed under ``--workers 4`` may be resumed
under ``--workers 1`` and still produce bit-identical output.
"""

from __future__ import annotations

import base64
import json
import sys
import zlib
from array import array
from pathlib import Path

from repro.errors import CheckpointError
from repro.faults.storage import atomic_write_json
from repro.netmodel.addr import IPAddress, Prefix
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import EcsScanResult

#: Bump when the checkpoint layout changes; mismatched files are treated
#: as absent (the month is simply re-scanned), not as errors.
CHECKPOINT_VERSION = 2


def payload_crc(document: dict) -> int:
    """The integrity checksum of one persisted document.

    crc32 over the canonical JSON of everything but the ``crc`` field
    itself — canonicalised independently of the on-disk byte layout, so
    the checksum survives any future formatting change.
    """
    body = {key: value for key, value in document.items() if key != "crc"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def quarantine_warning(path: Path, reason: str) -> None:
    """One stderr line for a corrupt persisted file being set aside.

    Deliberately a warning, never a traceback: a torn or bit-flipped
    file on disk is an expected host failure, and the recovery path
    (re-scan / re-seed) is already running by the time this prints.
    """
    print(f"warning: quarantined corrupt state file {path}: {reason}",
          file=sys.stderr)


def _pack(column: array) -> str:
    """One column as base64 of its packed little-endian bytes."""
    if sys.byteorder != "little":
        column = array(column.typecode, column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack(text: str, typecode: str) -> array:
    """Inverse of :func:`_pack`."""
    column = array(typecode)
    column.frombytes(base64.b64decode(text))
    if sys.byteorder != "little":
        column.byteswap()
    return column


def _encode_columns(view: ColumnarResponses) -> dict:
    """One response set's columns as a JSON-safe dict.

    Walks the packed chunks (the batch-replay kernel's output, the
    sharded merge's adopted shard columns, or a packed response list)
    into one set of columns.  Each chunk's refs are remapped into a
    single table, assigned in first-use row order and deduplicated
    across chunks by address-tuple identity — the identity the interned
    chunk tables share.  Table entries index a pool that holds each
    distinct address once.
    """
    values = array("I")
    scopes = array("B")
    refs = array("I")
    table_index: dict[int, int] = {}
    table: list = []
    pool_index: dict[tuple[int, int], int] = {}
    pool: list = []
    for chunk_values, chunk_scopes, chunk_refs, chunk_table in view.chunks:
        remap = [-1] * len(chunk_table)
        # dict.fromkeys walks the refs at C speed and keeps first-use order.
        for ref in dict.fromkeys(chunk_refs):
            addresses, asn = chunk_table[ref]
            key = id(addresses)
            out_ref = table_index.get(key)
            if out_ref is None:
                out_ref = table_index[key] = len(table)
                indices = []
                for address in addresses:
                    pair = (address.version, address.value)
                    index = pool_index.get(pair)
                    if index is None:
                        index = pool_index[pair] = len(pool)
                        pool.append(list(pair))
                    indices.append(index)
                table.append([indices, asn])
            remap[ref] = out_ref
        # Raw byte views: chunk columns may be arrays or memoryview casts.
        values.frombytes(memoryview(chunk_values).cast("B"))
        scopes.frombytes(memoryview(chunk_scopes).cast("B"))
        refs.extend(map(remap.__getitem__, chunk_refs))
    return {
        "subnet_len": view.subnet_len,
        "values": _pack(values),
        "scopes": _pack(scopes),
        "refs": _pack(refs),
        "addresses": pool,
        "table": table,
    }


def _decode_columns(
    data: dict, interned: dict[tuple[int, int], IPAddress]
) -> ColumnarResponses:
    """One response set back as a single-chunk :class:`ColumnarResponses`.

    ``interned`` holds the one :class:`IPAddress` per ``(version,
    value)`` that all response sets of a result share.  Every table
    entry gets its own tuple, so the identity-based deduplication of the
    aggregate views keeps working on restored results.
    """
    pool = []
    for version, value in data["addresses"]:
        address = interned.get((version, value))
        if address is None:
            address = interned[version, value] = IPAddress(version, value)
        pool.append(address)
    table = [
        (tuple(pool[index] for index in indices), asn)
        for indices, asn in data["table"]
    ]
    values = _unpack(data["values"], "I")
    scopes = _unpack(data["scopes"], "B")
    refs = _unpack(data["refs"], "I")
    if not len(values) == len(scopes) == len(refs) or max(
        refs, default=-1
    ) >= len(table):
        raise CheckpointError("checkpoint response columns are inconsistent")
    columnar = ColumnarResponses(data["subnet_len"])
    columnar.chunks.append((values, scopes, refs, table))
    return columnar


def encode_result(result: EcsScanResult) -> dict:
    """One scan result as a JSON-safe dict.

    Columnar results are encoded straight off their chunks; list-form
    responses (the per-row kernels' output, a materialised result, the
    sparse probes) are packed into columns first.
    """
    view = result.columnar_view()
    if view is None:
        view = ColumnarResponses.from_responses(result.responses)
    return {
        "domain": result.domain,
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "queries_sent": result.queries_sent,
        "sparse_queries": result.sparse_queries,
        "sparse_answered": result.sparse_answered,
        "retries": result.retries,
        "fault_wait_seconds": result.fault_wait_seconds,
        "fault_injected": dict(result.fault_injected),
        "gave_up": [[p.value, p.length] for p in result.gave_up],
        "responses": _encode_columns(view),
        "sparse_responses": _encode_columns(
            ColumnarResponses.from_responses(result.sparse_responses)
        ),
    }


def decode_result(data: dict) -> EcsScanResult:
    """Rebuild a scan result from :func:`encode_result` output.

    The routed answers come back columnar (the aggregate views and the
    archive read the columns; ``responses`` materialises on first read);
    the sparse answers are materialised into their list.
    """
    result = EcsScanResult(
        domain=data["domain"],
        started_at=data["started_at"],
        finished_at=data["finished_at"],
        queries_sent=data["queries_sent"],
        sparse_queries=data["sparse_queries"],
        sparse_answered=data["sparse_answered"],
        retries=data["retries"],
        fault_wait_seconds=data["fault_wait_seconds"],
        fault_injected=dict(data["fault_injected"]),
    )
    result.gave_up = [Prefix(4, value, length) for value, length in data["gave_up"]]
    interned: dict[tuple[int, int], IPAddress] = {}
    result.attach_columnar(_decode_columns(data["responses"], interned))
    result.sparse_responses = _decode_columns(
        data["sparse_responses"], interned
    ).materialize()
    return result


class CampaignCheckpointer:
    """Reads and writes one campaign's per-month checkpoint files.

    ``gate``/``registry`` attach the storage fault plane: with an
    active gate every save draws one deterministic failure decision
    keyed by the month (see :mod:`repro.faults.storage`), surfacing as
    an :class:`OSError` the campaign's degraded mode handles.
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

    def path_for(self, year: int, month: int) -> Path:
        """Where one month's checkpoint lives."""
        return self.directory / f"month-{year:04d}-{month:02d}.json"

    def save(self, year: int, month: int, payload: dict, attempt: int = 0) -> Path:
        """Durably and atomically persist one month's checkpoint."""
        path = self.path_for(year, month)
        document = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "year": year,
            "month": month,
            **payload,
        }
        document["crc"] = payload_crc(document)
        atomic_write_json(
            path,
            document,
            gate=self.gate,
            surface="checkpoint",
            item=f"{year:04d}-{month:02d}",
            attempt=attempt,
            registry=self.registry,
        )
        return path

    def load(self, year: int, month: int) -> dict | None:
        """One month's checkpoint, or None when it must be re-scanned.

        Missing, torn, or layout-versioned-away files all read as None
        — the campaign just runs the month.  A *fingerprint* mismatch is
        different: the checkpoint is intact but belongs to a campaign
        with different result-affecting settings, and splicing it in
        would corrupt the output — :class:`CheckpointError`.
        """
        path = self.path_for(year, month)
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
        if document.get("version") != CHECKPOINT_VERSION:
            return None
        crc = document.get("crc")
        if crc is not None and crc != payload_crc(document):
            quarantine_warning(path, "checksum mismatch (bit flip?)")
            return None
        if document.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a campaign with different "
                "result-affecting settings; refusing to resume from it"
            )
        return document
