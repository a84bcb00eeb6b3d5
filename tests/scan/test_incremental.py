"""Delta-scan engine: snapshots, steady state, detection, equivalence.

The engine's contract, tested end to end on tiny worlds:

* a steady-state delta round costs a small fraction of a full rescan
  and surfaces zero change events;
* the refresh wheel re-covers every primary block within
  ``refresh_rounds`` rounds (secondary within the stretched period);
* one injected deployment change of every churn kind surfaces within
  ``refresh_rounds`` rounds;
* the delta-accumulated state stays digest-identical to a fresh full
  rescan of the (churned) world, at every worker count;
* snapshots round-trip through the store, refuse fingerprint
  mismatches, and read as None when torn.

Per-response address *windows* are never asserted across worker
counts: sharded rounds reseed rotation streams per shard, so windows
may differ while every analysis-visible aggregate matches (the same
carve-out as the sharded-equivalence suite).
"""

import hashlib
import json
from array import array
from collections import Counter

import pytest

from repro.errors import CheckpointError
from repro.relay.service import RELAY_DOMAIN_FALLBACK, RELAY_DOMAIN_QUIC
from repro.scan.campaign import ScanCampaign
from repro.scan.ecs_scanner import EcsScanner, EcsScanResult, EcsScanSettings
from repro.scan.incremental import (
    SNAPSHOT_VERSION,
    DeltaScanEngine,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
    result_digest,
)
from repro.scan.sharding import ShardedCampaignExecutor, shared_memory
from repro.telemetry import Telemetry
from repro.worldgen import WorldConfig, build_world
from repro.worldgen.deployment import DeploymentChurn, scan_time

SEED = 2022
DOMAINS = (RELAY_DOMAIN_QUIC, RELAY_DOMAIN_FALLBACK)


def _make_engine(seed=SEED, workers=1, scale=0.004, **engine_kwargs):
    """A fresh (by default tiny) world with its scanner/executor and
    delta engine.

    Every test builds its own: churn drills mutate the assignment map,
    which would poison a shared session world.
    """
    world = build_world(WorldConfig(seed=seed, scale=scale))
    world.clock.advance_to(scan_time(2022, 1))
    settings = EcsScanSettings(workers=workers, campaign_seed=seed)
    scanner = EcsScanner(world.route53, world.routing, world.clock, settings)
    executor = scanner
    if workers > 1 and ShardedCampaignExecutor.supported():
        executor = ShardedCampaignExecutor(scanner, workers)
    engine = DeltaScanEngine(executor, **engine_kwargs)
    return world, executor, engine


def _rows(snapshot):
    """A snapshot's routed rows as ``(value, scope, addresses, asn,
    refreshed, changed, weight, key)`` tuples, read off its columns."""
    return list(zip(
        snapshot.values,
        snapshot.scopes,
        *zip(*map(snapshot.table.__getitem__, snapshot.refs)),
        snapshot.refreshed,
        snapshot.changed,
        snapshot.weight,
        snapshot.key,
    ))


def _close(executor):
    if isinstance(executor, ShardedCampaignExecutor):
        executor.close()


class TestSteadyState:
    @pytest.fixture(scope="class")
    def steady(self):
        world, executor, engine = _make_engine(refresh_rounds=3)
        engine.ensure_seeded()
        rounds = [engine.run_round() for _ in range(6)]
        yield world, engine, rounds
        _close(executor)

    def test_rounds_are_quiet(self, steady):
        _, _, rounds = steady
        assert all(not rnd.events for rnd in rounds)

    def test_rounds_are_cheap(self, steady):
        _, _, rounds = steady
        for rnd in rounds:
            assert 0 < rnd.queries_sent
            assert rnd.queries_frac <= 0.30

    def test_primary_wheel_covers_within_k(self, steady):
        """Every primary row is refreshed in any k consecutive rounds."""
        _, engine, _ = steady
        snapshot = engine.snapshots[RELAY_DOMAIN_QUIC]
        # After 6 rounds, no primary row is older than k rounds.
        assert all(6 - refreshed <= 3 for refreshed in snapshot.refreshed)

    def test_secondary_wheel_covers_within_stretched_period(self, steady):
        _, engine, _ = steady
        assert engine.period(RELAY_DOMAIN_FALLBACK) == 6
        snapshot = engine.snapshots[RELAY_DOMAIN_FALLBACK]
        assert all(refreshed >= 0 for refreshed in snapshot.refreshed)

    def test_accumulated_matches_fresh_full_rescan(self, steady):
        world, engine, _ = steady
        scanner = EcsScanner(
            world.route53, world.routing, world.clock,
            EcsScanSettings(campaign_seed=SEED),
        )
        for domain in DOMAINS:
            accumulated = result_digest(engine.accumulated(domain))
            fresh = result_digest(scanner.scan(domain))
            assert accumulated == fresh, domain


class TestChurnDetection:
    @pytest.fixture(scope="class")
    def drilled(self):
        world, executor, engine = _make_engine(refresh_rounds=3)
        engine.ensure_seeded()
        for _ in range(3):
            engine.run_round()
        churn = DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        )
        records = churn.inject_standard(seed=SEED)
        rounds = [engine.run_round() for _ in range(3)]
        yield world, engine, records, rounds
        _close(executor)

    def test_all_four_kinds_injected(self, drilled):
        _, _, records, _ = drilled
        assert sorted(r.kind for r in records) == sorted(DeploymentChurn.KINDS)

    def test_every_change_detected_within_k(self, drilled):
        _, _, records, rounds = drilled
        detected = {}
        for attempt, rnd in enumerate(rounds):
            for event in rnd.events:
                detected.setdefault(event.value, attempt + 1)
        for record in records:
            assert record.block_value in detected, record
            assert detected[record.block_value] <= 3, record

    def test_accumulated_matches_full_rescan_of_churned_world(self, drilled):
        world, engine, _, _ = drilled
        scanner = EcsScanner(
            world.route53, world.routing, world.clock,
            EcsScanSettings(campaign_seed=SEED),
        )
        for domain in DOMAINS:
            accumulated = result_digest(engine.accumulated(domain))
            fresh = result_digest(scanner.scan(domain))
            assert accumulated == fresh, domain


class TestFoldRegressions:
    def test_range_straddling_a_scope_skip_keeps_its_tail(self):
        """Seed 31 at scale 0.05: the block-remove drill withdraws
        11.25.8.0/21, whose probe then answers the /16 fallback scope.
        A later scanned range starts inside that skip and ends past it;
        its rows past the skip (11.26.0.0/24, scope 21) are what a full
        scan returns and must survive the fold.
        """
        seed = 31
        world, executor, engine = _make_engine(
            seed=seed, scale=0.05, refresh_rounds=3
        )
        engine.ensure_seeded()
        for _ in range(3):
            engine.run_round()
        DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        ).inject_standard(seed=seed)
        for _ in range(3):
            engine.run_round()
        for domain in DOMAINS:
            accumulated = result_digest(engine.accumulated(domain))
            fresh = result_digest(executor.scan(domain))
            assert accumulated == fresh, domain


class TestColumnarState:
    """accumulated() serves the snapshot rows as columns."""

    @pytest.fixture(scope="class")
    def churned(self):
        world, executor, engine = _make_engine(refresh_rounds=3)
        engine.ensure_seeded()
        engine.run_round()
        DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        ).inject_standard(seed=SEED)
        for _ in range(3):
            engine.run_round()
        yield engine
        _close(executor)

    def test_aggregates_match_the_materialised_rows(self, churned):
        for domain in DOMAINS:
            accumulated = churned.accumulated(domain)
            assert accumulated.columnar_view() is not None
            listed = EcsScanResult(
                domain=domain,
                started_at=accumulated.started_at,
                responses=list(churned.accumulated(domain).responses),
            )
            assert listed.columnar_view() is None
            assert accumulated.response_count() == len(listed.responses)
            assert accumulated.addresses() == listed.addresses()
            assert accumulated.addresses_by_asn() == listed.addresses_by_asn()
            assert accumulated.slash24s_by_asn() == listed.slash24s_by_asn()
            assert accumulated.scope_tally() == listed.scope_tally()

    def test_round_result_shares_the_accumulated_columns(self, churned):
        last = churned.rounds[-1]
        for domain in DOMAINS:
            assert (
                last.results[domain].columnar_view()
                is churned.accumulated(domain).columnar_view()
            )

    def test_mutating_materialised_rows_leaves_the_state_alone(self, churned):
        for domain in DOMAINS:
            before = result_digest(churned.accumulated(domain))
            mutated = churned.accumulated(domain)
            mutated.responses.pop()
            mutated.responses.reverse()
            mutated.sparse_responses.clear()
            churned.rounds[-1].results[domain].responses.clear()
            assert result_digest(churned.accumulated(domain)) == before


class TestRoundSpans:
    PHASES = ("select", "scan", "fold", "accumulate", "persist")

    def test_each_phase_spans_once_per_domain(self, tmp_path):
        telemetry = Telemetry()
        store = SnapshotStore(tmp_path, {"mode": "delta", "seed": SEED})
        _, executor, engine = _make_engine(store=store, telemetry=telemetry)
        engine.ensure_seeded()
        engine.run_round()
        phases = Counter()
        pending = list(telemetry.tracer.roots)
        while pending:
            span = pending.pop()
            pending.extend(span.children)
            if span.name.startswith("delta."):
                phases[span.name, span.attrs["domain"]] += 1
        assert phases == {
            (f"delta.{phase}", domain): 1
            for phase in self.PHASES
            for domain in DOMAINS
        }


class TestBudget:
    def test_budget_defers_and_age_rule_recovers(self):
        _, executor, engine = _make_engine(budget=150, refresh_rounds=3)
        try:
            engine.ensure_seeded()
            unbudgeted_due = sum(
                len(snapshot.values) + snapshot.sparse_positions
                for snapshot in engine.snapshots.values()
            ) // 3
            rounds = [engine.run_round() for _ in range(12)]
            assert all(rnd.budget_deferred > 0 for rnd in rounds)
            assert all(
                rnd.queries_sent < unbudgeted_due for rnd in rounds
            )
            # Deferred rows re-arm via the age rule: every row still
            # gets refreshed eventually, just on a longer horizon.
            snapshot = engine.snapshots[RELAY_DOMAIN_QUIC]
            refreshed = sum(1 for value in snapshot.refreshed if value >= 0)
            assert refreshed > 0
            latest = max(snapshot.refreshed)
            assert latest >= 10
        finally:
            _close(executor)


@pytest.mark.skipif(
    not ShardedCampaignExecutor.supported(),
    reason="sharded execution requires the fork start method",
)
class TestWorkerEquivalence:
    @pytest.fixture(scope="class")
    def matrix(self):
        """workers -> (round summaries, accumulated digests, detections)."""
        out = {}
        for workers in (1, 2, 4):
            world, executor, engine = _make_engine(
                workers=workers, refresh_rounds=3
            )
            engine.ensure_seeded()
            for _ in range(3):
                engine.run_round()
            churn = DeploymentChurn(
                world.assignment, world.ingress_v4, world.clock.now
            )
            records = churn.inject_standard(seed=SEED)
            rounds = [engine.run_round() for _ in range(3)]
            digests = {
                domain: result_digest(engine.accumulated(domain))
                for domain in DOMAINS
            }
            detected = {}
            for attempt, rnd in enumerate(rounds):
                for event in rnd.events:
                    detected.setdefault(event.value, attempt + 1)
            summaries = [
                (rnd.index, rnd.queries_sent, rnd.sparse_queries)
                for rnd in engine.rounds
            ]
            out[workers] = (summaries, digests, records, detected)
            _close(executor)
        return out

    def test_accumulated_state_identical_across_worker_counts(self, matrix):
        _, reference, _, _ = matrix[1]
        for workers in (2, 4):
            _, digests, _, _ = matrix[workers]
            assert digests == reference, f"workers={workers}"

    def test_query_accounting_identical_across_worker_counts(self, matrix):
        reference, _, _, _ = matrix[1]
        for workers in (2, 4):
            summaries, _, _, _ = matrix[workers]
            assert summaries == reference, f"workers={workers}"

    def test_detection_identical_across_worker_counts(self, matrix):
        _, _, records, reference = matrix[1]
        for record in records:
            assert record.block_value in reference
        for workers in (2, 4):
            _, _, _, detected = matrix[workers]
            assert detected == reference, f"workers={workers}"


@pytest.mark.skipif(
    not ShardedCampaignExecutor.supported(),
    reason="sharded execution requires the fork start method",
)
class TestShardedLifetime:
    def test_snapshot_columns_outlive_the_shard_segments(self):
        """Merged shard results view shared-memory segments; the
        snapshot copies out of them, so its columns stay owned arrays and
        the accumulated state reads the same after the pool is gone."""
        _, executor, engine = _make_engine(workers=2, refresh_rounds=3)
        try:
            seeds = engine.ensure_seeded()
            engine.run_round()
            digests = {
                domain: result_digest(engine.accumulated(domain))
                for domain in DOMAINS
            }
        finally:
            _close(executor)
        if shared_memory is not None:
            assert any(
                isinstance(chunk[0], memoryview)
                for seed in seeds.values()
                for chunk in seed.columnar_view().chunks
            )
        for domain in DOMAINS:
            snapshot = engine.snapshots[domain]
            columns = (
                *snapshot.row_columns(),
                snapshot.sparse_values,
                snapshot.sparse_scopes,
                snapshot.sparse_refs,
            )
            assert all(type(column) is array for column in columns), domain
            assert result_digest(engine.accumulated(domain)) == digests[domain]


class TestSnapshotStore:
    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("snapshots")
        store = SnapshotStore(directory, {"mode": "delta", "seed": SEED})
        world, executor, engine = _make_engine(store=store)
        engine.ensure_seeded()
        engine.run_round()
        yield directory, store, engine
        _close(executor)

    def test_codec_round_trip(self, seeded):
        _, _, engine = seeded
        for domain in DOMAINS:
            snapshot = engine.snapshots[domain]
            restored = decode_snapshot(encode_snapshot(snapshot))
            assert restored.domain == snapshot.domain
            assert restored.round == snapshot.round
            assert restored.window_max == snapshot.window_max
            assert restored.spans == snapshot.spans
            assert restored.gaps == snapshot.gaps
            assert restored.sparse_positions == snapshot.sparse_positions
            assert _rows(restored) == _rows(snapshot)
            assert restored.sparse_answers() == snapshot.sparse_answers()
            # Roster compaction is merge-history independent: each row's
            # reachable roster survives the trip.
            for old, new in zip(snapshot.rids, restored.rids):
                assert (
                    restored.rosters[restored.find(new)]
                    == snapshot.rosters[snapshot.find(old)]
                )

    def test_store_restores_saved_state(self, seeded):
        directory, store, engine = seeded
        for domain in DOMAINS:
            loaded = store.load(domain)
            assert loaded is not None
            assert loaded.round == engine.snapshots[domain].round

    def test_missing_snapshot_reads_as_none(self, seeded):
        _, store, _ = seeded
        assert store.load("nonexistent.example.") is None

    def test_torn_snapshot_reads_as_none(self, seeded):
        directory, store, _ = seeded
        path = store.path_for(RELAY_DOMAIN_QUIC)
        torn = path.read_text()[: len(path.read_text()) // 2]
        try:
            path.write_text(torn)
            assert store.load(RELAY_DOMAIN_QUIC) is None
        finally:
            path.unlink()

    def test_version_mismatch_reads_as_none(self, seeded):
        directory, store, engine = seeded
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])
        path = store.path_for(RELAY_DOMAIN_QUIC)
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        assert store.load(RELAY_DOMAIN_QUIC) is None
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])

    #: sha256 of both snapshot files after a tiny-scale seed and three
    #: rounds.  A codec change that alters these bytes must bump
    #: SNAPSHOT_VERSION (and these pins) deliberately.
    PINNED = {
        "snapshot-mask.icloud.com.json":
            "e5879e9386c9477032ce43cdd5d960f5d59d83a9f6cd6a5c2143854c96979b6d",
        "snapshot-mask-h2.icloud.com.json":
            "325cfa5def8e9dd62af88f4243456054cd2290fd2b01171d11b2337df0496d86",
    }

    def test_snapshot_bytes_are_pinned(self, tmp_path):
        store = SnapshotStore(tmp_path, {"mode": "delta", "seed": SEED})
        _, _, engine = _make_engine(store=store, refresh_rounds=3)
        engine.ensure_seeded()
        for _ in range(3):
            engine.run_round()
        assert SNAPSHOT_VERSION == 1
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        } == self.PINNED

    #: sha256 of both snapshot files after a seed, one round, the
    #: standard churn drill and three more rounds.  Scale 0.01 is the
    #: smallest seed-2022 world whose drill surfaces every event kind
    #: (new, removed, structure, answers), so the pins cover each fold
    #: path through the codec.
    PINNED_CHURN = {
        "snapshot-mask.icloud.com.json":
            "76b0b041ceeddfe99ed66c9c571312b7fda08fd37df6e35fd2406d9f35f8cb92",
        "snapshot-mask-h2.icloud.com.json":
            "8f2e7667bea9f33242b3601c414d71ddd12f3d33e3083a96d38e590b245238ee",
    }

    def test_snapshot_bytes_are_pinned_through_churn(self, tmp_path):
        store = SnapshotStore(tmp_path, {"mode": "delta", "seed": SEED})
        world, _, engine = _make_engine(
            store=store, refresh_rounds=3, scale=0.01
        )
        engine.ensure_seeded()
        engine.run_round()
        DeploymentChurn(
            world.assignment, world.ingress_v4, world.clock.now
        ).inject_standard(seed=SEED)
        rounds = [engine.run_round() for _ in range(3)]
        assert {e.kind for rnd in rounds for e in rnd.events} == {
            "structure", "answers", "removed"
        }
        assert sum(rnd.new_blocks for rnd in rounds) > 0
        assert SNAPSHOT_VERSION == 1
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        } == self.PINNED_CHURN

    def test_fingerprint_mismatch_refuses_resume(self, seeded):
        directory, store, engine = seeded
        store.save(engine.snapshots[RELAY_DOMAIN_QUIC])
        other = SnapshotStore(directory, {"mode": "full", "seed": SEED})
        with pytest.raises(CheckpointError):
            other.load(RELAY_DOMAIN_QUIC)


class TestResume:
    def test_resumed_engine_matches_an_uninterrupted_one(self, tmp_path):
        """Seed + 4 rounds in one engine against seed + 2 rounds, then a
        fresh engine restoring the store and running 2 more: the
        snapshot files and the accumulated state must be identical."""
        fingerprint = {"mode": "delta", "seed": SEED}
        store_a = SnapshotStore(tmp_path / "a", fingerprint)
        _, _, engine_a = _make_engine(store=store_a, refresh_rounds=3)
        engine_a.ensure_seeded()
        for _ in range(4):
            engine_a.run_round()

        store_b = SnapshotStore(tmp_path / "b", fingerprint)
        _, executor_b, engine_b = _make_engine(store=store_b, refresh_rounds=3)
        engine_b.ensure_seeded()
        for _ in range(2):
            engine_b.run_round()
        resumed = DeltaScanEngine(executor_b, store_b, refresh_rounds=3)
        assert resumed.ensure_seeded() == {domain: None for domain in DOMAINS}
        for _ in range(2):
            resumed.run_round()

        for domain in DOMAINS:
            assert (
                store_a.path_for(domain).read_bytes()
                == store_b.path_for(domain).read_bytes()
            ), domain
            assert result_digest(engine_a.accumulated(domain)) == (
                result_digest(resumed.accumulated(domain))
            ), domain


class TestCampaignMode:
    def test_unknown_mode_rejected(self, tiny_world):
        world = tiny_world
        with pytest.raises(ValueError):
            ScanCampaign(
                server=world.route53,
                routing=world.routing,
                clock=world.clock,
                mode="continuous",
            )

    def test_mode_is_part_of_the_fingerprint(self, tiny_world):
        world = tiny_world

        def fingerprint(mode):
            return ScanCampaign(
                server=world.route53,
                routing=world.routing,
                clock=world.clock,
                mode=mode,
            )._fingerprint()

        full, delta = fingerprint("full"), fingerprint("delta")
        assert full != delta
        assert {k: v for k, v in full.items() if k != "mode"} == {
            k: v for k, v in delta.items() if k != "mode"
        }

    def test_delta_engine_requires_delta_mode(self, tiny_world):
        world = tiny_world
        campaign = ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
        )
        with pytest.raises(ValueError):
            campaign.delta_engine()
        with pytest.raises(ValueError):
            campaign.run_continuous(2022, 1, 1)

    def test_run_continuous_records_archives(self, tmp_path):
        world = build_world(WorldConfig.tiny(seed=SEED))
        with ScanCampaign(
            server=world.route53,
            routing=world.routing,
            clock=world.clock,
            settings=EcsScanSettings(campaign_seed=SEED),
            mode="delta",
            snapshot_dir=tmp_path,
        ) as campaign:
            rounds = campaign.run_continuous(2022, 1, 2)
            assert len(rounds) == 2
            assert all(not rnd.events for rnd in rounds)
            assert len(campaign.default_archive) > 0
            assert len(campaign.fallback_archive) > 0
            # Seed scan + one record per round.
            assert campaign.default_archive.scan_count() == 3
