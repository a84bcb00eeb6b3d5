"""Campaign checkpoint/resume: killed-and-resumed must equal straight.

A campaign that checkpoints each month, is killed, and resumes in a
fresh process (modelled by fresh same-seed worlds) must reproduce the
straight-through campaign bit-for-bit — months, clock, server stats and
the longitudinal archives.  Checkpoints written under different
result-affecting settings must be refused, and torn or alien files must
read as absent, not as errors.
"""

import base64
import json
import struct

import pytest

from repro.errors import CheckpointError
from repro.faults import FaultPlan
from repro.netmodel.addr import IPAddress, Prefix
from repro.relay.service import RELAY_DOMAIN_QUIC
from repro.scan.campaign import ScanCampaign
from repro.scan.checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpointer,
    decode_result,
    encode_result,
    payload_crc,
)
from repro.scan.columnar import ColumnarResponses
from repro.scan.ecs_scanner import EcsResponse, EcsScanner, EcsScanSettings
from repro.scan.incremental import result_digest
from repro.scan.sharding import ShardedCampaignExecutor
from repro.worldgen import WorldConfig, build_world

SEED = 2022


def _settings(profile="lossy", workers=1):
    return EcsScanSettings(
        workers=workers,
        campaign_seed=SEED,
        fault_plan=FaultPlan(profile, seed=SEED),
    )


def _campaign(directory, settings=None, resume=False):
    world = build_world(WorldConfig.tiny(seed=SEED))
    campaign = ScanCampaign(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=settings if settings is not None else _settings(),
        checkpoint_dir=directory,
        resume=resume,
    )
    with campaign:
        campaign.run(world.scan_months())
    return world, campaign


def _assert_campaigns_identical(a, b):
    a_world, a_campaign = a
    b_world, b_campaign = b
    assert len(a_campaign.months) == len(b_campaign.months)
    for month_a, month_b in zip(a_campaign.months, b_campaign.months):
        assert (month_a.year, month_a.month) == (month_b.year, month_b.month)
        for scan_a, scan_b in (
            (month_a.default, month_b.default),
            (month_a.fallback, month_b.fallback),
        ):
            if scan_a is None:
                assert scan_b is None
                continue
            assert scan_a.queries_sent == scan_b.queries_sent
            assert scan_a.retries == scan_b.retries
            assert scan_a.gave_up == scan_b.gave_up
            assert scan_a.fault_injected == scan_b.fault_injected
            assert scan_a.started_at == scan_b.started_at
            assert scan_a.finished_at == scan_b.finished_at
            assert scan_a.responses == scan_b.responses
            assert scan_a.sparse_responses == scan_b.sparse_responses
    assert a_world.clock.now == b_world.clock.now
    assert a_world.route53.stats == b_world.route53.stats
    assert a_campaign.default_archive.to_csv() == b_campaign.default_archive.to_csv()
    assert (
        a_campaign.fallback_archive.to_csv() == b_campaign.fallback_archive.to_csv()
    )


@pytest.fixture(scope="module")
def straight(tmp_path_factory):
    directory = tmp_path_factory.mktemp("checkpoints")
    return directory, _campaign(directory)


class TestResume:
    def test_checkpoints_written_atomically(self, straight):
        directory, (_, campaign) = straight
        files = sorted(p.name for p in directory.iterdir())
        month_files = [n for n in files if n.startswith("month-")]
        assert len(month_files) == len(campaign.months)
        assert not [n for n in files if n.endswith(".tmp")]

    def test_full_resume_is_bit_identical(self, straight):
        directory, reference = straight
        resumed = _campaign(directory, resume=True)
        _assert_campaigns_identical(reference, resumed)

    def test_partial_resume_rescans_missing_months(self, straight, tmp_path):
        directory, reference = straight
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        month_files = sorted(directory.glob("month-*.json"))
        # Keep only the first half of the campaign: the kill point.
        for path in month_files[: len(month_files) // 2]:
            (partial_dir / path.name).write_bytes(path.read_bytes())
        resumed = _campaign(partial_dir, resume=True)
        _assert_campaigns_identical(reference, resumed)
        # The re-scanned months were checkpointed on the way through.
        assert sorted(p.name for p in partial_dir.glob("month-*.json")) == [
            p.name for p in month_files
        ]

    def test_resume_under_different_worker_count(self, straight):
        directory, reference = straight
        resumed = _campaign(directory, settings=_settings(workers=2), resume=True)
        _assert_campaigns_identical(reference, resumed)

    def test_without_resume_flag_checkpoints_are_ignored(self, straight):
        directory, reference = straight
        rerun = _campaign(directory, resume=False)
        _assert_campaigns_identical(reference, rerun)

    def test_fingerprint_mismatch_refuses_to_resume(self, straight):
        directory, _ = straight
        with pytest.raises(CheckpointError):
            _campaign(directory, settings=_settings(profile="hostile"), resume=True)

    def test_corrupt_checkpoint_is_rescanned(self, straight, tmp_path):
        directory, reference = straight
        corrupt_dir = tmp_path / "corrupt"
        corrupt_dir.mkdir()
        for path in directory.glob("month-*.json"):
            (corrupt_dir / path.name).write_bytes(path.read_bytes())
        victim = sorted(corrupt_dir.glob("month-*.json"))[0]
        victim.write_text('{"version": 1, "fingerpr')  # torn write
        resumed = _campaign(corrupt_dir, resume=True)
        _assert_campaigns_identical(reference, resumed)


class TestCheckpointer:
    FINGERPRINT = {"rate": 2.2, "profile": "lossy"}

    def test_roundtrip(self, tmp_path):
        checkpointer = CampaignCheckpointer(tmp_path, self.FINGERPRINT)
        path = checkpointer.save(2022, 3, {"payload": [1, 2, 3]})
        assert path == checkpointer.path_for(2022, 3)
        document = checkpointer.load(2022, 3)
        assert document["payload"] == [1, 2, 3]
        assert document["year"] == 2022 and document["month"] == 3

    def test_missing_month_reads_as_none(self, tmp_path):
        checkpointer = CampaignCheckpointer(tmp_path, self.FINGERPRINT)
        assert checkpointer.load(2022, 1) is None

    def test_version_mismatch_reads_as_none(self, tmp_path):
        checkpointer = CampaignCheckpointer(tmp_path, self.FINGERPRINT)
        checkpointer.save(2022, 1, {})
        path = checkpointer.path_for(2022, 1)
        document = json.loads(path.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(document))
        assert checkpointer.load(2022, 1) is None

    def test_fingerprint_mismatch_raises(self, tmp_path):
        CampaignCheckpointer(tmp_path, self.FINGERPRINT).save(2022, 1, {})
        other = CampaignCheckpointer(tmp_path, {"rate": 9.9})
        with pytest.raises(CheckpointError):
            other.load(2022, 1)

    def test_result_codec_roundtrip(self, straight):
        _, (_, campaign) = straight
        for month in campaign.months:
            for result in (month.default, month.fallback):
                if result is None:
                    continue
                decoded = decode_result(encode_result(result))
                assert decoded.responses == result.responses
                assert decoded.sparse_responses == result.sparse_responses
                assert decoded.gave_up == result.gave_up
                assert decoded.queries_sent == result.queries_sent
                assert decoded.finished_at == result.finished_at
                assert decoded.addresses() == result.addresses()


def _kernel_result(fast_path):
    world = build_world(WorldConfig.tiny(seed=SEED))
    scanner = EcsScanner(
        world.route53, world.routing, world.clock,
        EcsScanSettings(fast_path=fast_path),
    )
    return scanner.scan(RELAY_DOMAIN_QUIC)


def _sharded_result():
    world = build_world(WorldConfig.tiny(seed=SEED))
    with ScanCampaign(
        server=world.route53,
        routing=world.routing,
        clock=world.clock,
        settings=EcsScanSettings(workers=2, campaign_seed=SEED),
    ) as campaign:
        month = campaign.run_month(*world.scan_months()[0])
    return month.default


@pytest.fixture(scope="module")
def kernel_results():
    """One scan result per producer the checkpoint encoder walks."""
    results = {
        "batch-replay": _kernel_result(fast_path=True),
        "reference": _kernel_result(fast_path=False),
    }
    if ShardedCampaignExecutor.supported():
        results["sharded"] = _sharded_result()
    return results


def _views(result):
    return (
        result.responses,
        result.sparse_responses,
        result.addresses(),
        result.addresses_by_asn(),
        result.slash24s_by_asn(),
        result_digest(result),
    )


class TestColumnarCodec:
    def test_producers_cover_every_layout(self, kernel_results):
        assert kernel_results["batch-replay"].columnar_view() is not None
        assert kernel_results["reference"].columnar_view() is None
        if "sharded" not in kernel_results:
            pytest.skip("sharded execution requires the fork start method")
        chunks = kernel_results["sharded"].columnar_view().chunks
        assert len(chunks) > 1
        first = {id(addresses) for addresses, _ in chunks[0][3]}
        assert any(
            id(addresses) in first
            for _, _, _, table in chunks[1:]
            for addresses, _ in table
        ), "sharded chunks share no answer tuple"

    def test_table_dedups_tuples_shared_across_chunks(self, kernel_results):
        if "sharded" not in kernel_results:
            pytest.skip("sharded execution requires the fork start method")
        result = kernel_results["sharded"]
        distinct = {
            id(addresses)
            for _, _, _, table in result.columnar_view().chunks
            for addresses, _ in table
        }
        assert len(encode_result(result)["responses"]["table"]) == len(distinct)

    @pytest.mark.parametrize("producer", ["batch-replay", "reference", "sharded"])
    def test_roundtrip_preserves_every_view(self, kernel_results, producer):
        if producer not in kernel_results:
            pytest.skip("sharded execution requires the fork start method")
        result = kernel_results[producer]
        document = json.loads(json.dumps(encode_result(result)))
        decoded = decode_result(document)
        assert decoded.columnar_view() is not None
        assert encode_result(decoded) == document
        assert _views(decoded) == _views(result)
        # Reading responses materialises, and only then drops the columns.
        assert decoded.columnar_view() is None

    def test_decoded_stays_columnar_until_responses_read(self, kernel_results):
        decoded = decode_result(encode_result(kernel_results["reference"]))
        decoded.addresses()
        decoded.addresses_by_asn()
        decoded.slash24s_by_asn()
        decoded.sparse_responses
        assert decoded.columnar_view() is not None
        decoded.responses
        assert decoded.columnar_view() is None

    def test_restored_addresses_are_one_object_per_value(self, kernel_results):
        decoded = decode_result(encode_result(kernel_results["batch-replay"]))
        (_, _, _, table), = decoded.columnar_view().chunks
        objects = [a for addresses, _ in table for a in addresses]
        objects += [a for r in decoded.sparse_responses for a in r.addresses]
        assert objects
        assert len({id(a) for a in objects}) == len(set(objects))

    def test_values_are_packed_little_endian(self, kernel_results):
        result = kernel_results["batch-replay"]
        packed = base64.b64decode(encode_result(result)["responses"]["values"])
        values = [value for (value,) in struct.iter_unpack("<I", packed)]
        assert values == [r.subnet.value for r in result.responses]

    def test_v1_layout_reads_as_absent(self, tmp_path):
        fingerprint = {"rate": 2.2}
        checkpointer = CampaignCheckpointer(tmp_path, fingerprint)
        checkpointer.save(2022, 1, {})
        path = checkpointer.path_for(2022, 1)
        document = json.loads(path.read_text())
        document["version"] = 1
        document["default"] = {"responses": {"rows": [[0, 24, 24, 0]], "table": []}}
        document["crc"] = payload_crc(document)
        path.write_text(json.dumps(document))
        assert checkpointer.load(2022, 1) is None

    def test_packer_rejects_mixed_prefix_lengths(self):
        answer = ((IPAddress(4, 1),), 714)
        responses = [
            EcsResponse(Prefix(4, 0, 24), 24, *answer),
            EcsResponse(Prefix(4, 0, 20), 20, *answer),
        ]
        with pytest.raises(ValueError):
            ColumnarResponses.from_responses(responses)
