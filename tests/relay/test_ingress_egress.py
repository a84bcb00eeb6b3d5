"""Tests for repro.relay.ingress and repro.relay.egress."""

import math
import random

import pytest

from repro.errors import RelayError
from repro.netmodel.addr import IPAddress, Prefix
from repro.relay.egress import EgressFleet, EgressPool, RotationPolicy
from repro.relay.egress_list import EgressEntry, EgressList
from repro.relay.ingress import IngressFleet, IngressRelay, RelayProtocol


def relay(text: str, asn: int = 36183, protocol=RelayProtocol.QUIC, pod="EU-0",
          active_from=0.0, active_until=None) -> IngressRelay:
    return IngressRelay(IPAddress.parse(text), asn, protocol, pod, active_from, active_until)


def _churning_fleet() -> IngressFleet:
    """Relays of both protocols and ASes, deployed and retired over time."""
    fleet = IngressFleet(4)
    fleet.add(relay("172.224.0.1", active_from=0.0, active_until=100.0))
    fleet.add(relay("172.224.0.2", active_from=50.0))
    fleet.add(relay("17.0.0.1", asn=714, active_from=0.0, active_until=200.0))
    fleet.add(relay("17.0.0.2", asn=714, active_from=100.0))
    fleet.add(relay("17.0.0.3", asn=714, protocol=RelayProtocol.TCP_FALLBACK,
                    active_from=25.0, active_until=150.0))
    fleet.add(relay("172.224.0.3", protocol=RelayProtocol.TCP_FALLBACK,
                    active_from=150.0))
    return fleet


class TestIngressRelay:
    def test_active_window(self):
        r = relay("172.224.0.1", active_from=10.0, active_until=20.0)
        assert not r.is_active(5.0)
        assert r.is_active(10.0)
        assert r.is_active(19.9)
        assert not r.is_active(20.0)

    def test_open_ended(self):
        r = relay("172.224.0.1", active_from=10.0)
        assert r.is_active(1e12)


class TestIngressFleet:
    def test_version_enforced(self):
        fleet = IngressFleet(4)
        with pytest.raises(RelayError):
            fleet.add(
                IngressRelay(
                    IPAddress.parse("2a02:26f7::1"), 36183, RelayProtocol.QUIC, "EU-0"
                )
            )

    def test_active_filters(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1", asn=36183))
        fleet.add(relay("17.0.0.1", asn=714))
        fleet.add(relay("17.0.0.2", asn=714, protocol=RelayProtocol.TCP_FALLBACK))
        assert len(fleet.active(0.0)) == 3
        assert len(fleet.active(0.0, RelayProtocol.QUIC)) == 2
        assert len(fleet.active(0.0, RelayProtocol.QUIC, asn=714)) == 1

    def test_counts_by_asn(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1"))
        fleet.add(relay("172.224.0.2"))
        fleet.add(relay("17.0.0.1", asn=714))
        assert fleet.counts_by_asn(0.0, RelayProtocol.QUIC) == {36183: 2, 714: 1}

    def test_pod_relays(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1", pod="EU-0"))
        fleet.add(relay("172.224.0.2", pod="NA-0"))
        assert len(fleet.pod_relays("EU-0", RelayProtocol.QUIC, 0.0)) == 1
        assert fleet.pods() == {"EU-0", "NA-0"}

    def test_pod_relays_respect_time(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1", pod="EU-0", active_from=100.0))
        assert fleet.pod_relays("EU-0", RelayProtocol.QUIC, 50.0) == []

    def test_deployment_epochs(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1", active_from=0.0, active_until=100.0))
        fleet.add(relay("172.224.0.2", active_from=50.0))
        assert fleet.deployment_epoch(10.0) != fleet.deployment_epoch(60.0)
        assert fleet.deployment_epoch(60.0) != fleet.deployment_epoch(150.0)

    def test_active_cached_consistent(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1", active_from=0.0, active_until=100.0))
        fleet.add(relay("172.224.0.2", active_from=50.0))
        for t in (10.0, 60.0, 150.0):
            assert fleet.active_cached(t, RelayProtocol.QUIC) == fleet.active(
                t, RelayProtocol.QUIC
            )

    def test_cache_invalidated_on_add(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1"))
        assert len(fleet.active_cached(0.0, RelayProtocol.QUIC)) == 1
        fleet.add(relay("172.224.0.2"))
        assert len(fleet.active_cached(0.0, RelayProtocol.QUIC)) == 2

    def test_active_addresses_match_linear_filter_at_every_boundary(self):
        fleet = _churning_fleet()
        boundaries = sorted(
            {r.active_from for r in fleet.relays}
            | {r.active_until for r in fleet.relays if r.active_until is not None}
        )
        for boundary in boundaries:
            for t in (math.nextafter(boundary, -math.inf), boundary):
                for protocol in (None, RelayProtocol.QUIC, RelayProtocol.TCP_FALLBACK):
                    for asn in (None, 714, 36183, 64500):
                        expected = {
                            r.address
                            for r in fleet.relays
                            if r.is_active(t)
                            and (protocol is None or r.protocol == protocol)
                            and (asn is None or r.asn == asn)
                        }
                        assert fleet.active_addresses(t, protocol, asn) == expected

    def test_active_addresses_shared_within_an_epoch(self):
        fleet = _churning_fleet()
        first = fleet.active_addresses(60.0, RelayProtocol.QUIC)
        # 60 and 75 lie in the same deployment epoch, [50, 100).
        assert fleet.active_addresses(75.0, RelayProtocol.QUIC) is first
        assert fleet.active_addresses(150.0, RelayProtocol.QUIC) is not first

    def test_active_addresses_invalidated_on_add(self):
        fleet = _churning_fleet()
        before = fleet.active_addresses(60.0, RelayProtocol.QUIC)
        fleet.add(relay("172.224.0.9", active_from=0.0))
        after = fleet.active_addresses(60.0, RelayProtocol.QUIC)
        assert after == before | {IPAddress.parse("172.224.0.9")}

    def test_active_addresses_immutable(self):
        fleet = _churning_fleet()
        active = fleet.active_addresses(60.0, RelayProtocol.QUIC)
        assert isinstance(active, frozenset)
        with pytest.raises(AttributeError):
            active.add(IPAddress.parse("172.224.0.9"))  # type: ignore[attr-defined]

    def test_asns(self):
        fleet = IngressFleet(4)
        fleet.add(relay("172.224.0.1"))
        fleet.add(relay("17.0.0.1", asn=714, active_from=100.0))
        assert fleet.asns(0.0) == {36183}
        assert fleet.asns(100.0) == {36183, 714}


def make_pool(count: int = 6, policy=RotationPolicy.PER_CONNECTION, stickiness=0.0) -> EgressPool:
    addresses = [IPAddress(4, (172 << 24) | (232 << 16) | i) for i in range(count)]
    return EgressPool(36183, "DE", addresses, policy, stickiness)


class TestEgressPool:
    def test_empty_rejected(self):
        with pytest.raises(RelayError):
            EgressPool(36183, "DE", [])

    def test_stickiness_bounds(self):
        with pytest.raises(RelayError):
            make_pool(stickiness=1.0)

    def test_per_connection_rotates(self):
        pool = make_pool(stickiness=0.0)
        rng = random.Random(1)
        draws = [pool.select("client", rng) for _ in range(300)]
        changes = sum(1 for a, b in zip(draws, draws[1:]) if a != b)
        # Uniform over six addresses: ~5/6 of draws change.
        assert changes / (len(draws) - 1) > 0.66
        assert len(set(draws)) == 6

    def test_sticky_policy_never_rotates(self):
        pool = make_pool(policy=RotationPolicy.STICKY)
        rng = random.Random(2)
        first = pool.select("client", rng)
        assert all(pool.select("client", rng) == first for _ in range(50))

    def test_stickiness_reduces_changes(self):
        rng_a, rng_b = random.Random(3), random.Random(3)
        loose = make_pool(stickiness=0.0)
        sticky = make_pool(stickiness=0.9)
        loose_draws = [loose.select("c", rng_a) for _ in range(400)]
        sticky_draws = [sticky.select("c", rng_b) for _ in range(400)]
        change = lambda seq: sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        assert change(sticky_draws) < change(loose_draws)

    def test_contexts_are_independent(self):
        pool = make_pool(policy=RotationPolicy.STICKY)
        rng = random.Random(7)
        a = pool.select("client-a", rng)
        b = pool.select("client-b", rng)
        # Different contexts may draw different sticky addresses.
        assert pool.select("client-a", rng) == a
        assert pool.select("client-b", rng) == b

    def test_distinct_subnet_count(self):
        entries = [
            EgressEntry(Prefix.parse("172.232.0.0/29"), "DE", "DE-EU", "DE-City-000"),
            EgressEntry(Prefix.parse("172.232.0.8/29"), "DE", "DE-EU", "DE-City-001"),
        ]
        lst = EgressList(entries)
        pool = EgressPool(
            36183,
            "DE",
            [IPAddress.parse("172.232.0.1"), IPAddress.parse("172.232.0.9")],
        )
        assert pool.distinct_subnet_count(lst) == 2


class TestEgressFleet:
    def test_pool_registration(self):
        fleet = EgressFleet()
        pool = make_pool()
        fleet.add_pool(pool)
        assert fleet.pool_for(36183, "DE") is pool
        with pytest.raises(RelayError):
            fleet.add_pool(make_pool())

    def test_missing_pool(self):
        with pytest.raises(RelayError):
            EgressFleet().pool_for(36183, "DE")

    def test_presence_weights(self):
        fleet = EgressFleet()
        fleet.set_presence("DE", {13335: 0.55, 36183: 0.45, 54113: 0.0})
        ops = fleet.operators_for("DE")
        assert ops == {13335: 0.55, 36183: 0.45}

    def test_presence_requires_positive_weight(self):
        with pytest.raises(RelayError):
            EgressFleet().set_presence("DE", {13335: 0.0})

    def test_choose_operator_weighted(self):
        fleet = EgressFleet()
        fleet.set_presence("DE", {13335: 1.0, 36183: 0.0})
        rng = random.Random(5)
        assert all(fleet.choose_operator("DE", rng) == 13335 for _ in range(20))

    def test_choose_operator_no_presence(self):
        with pytest.raises(RelayError):
            EgressFleet().choose_operator("ZZ", random.Random(0))

    def test_operator_asns(self):
        fleet = EgressFleet()
        fleet.add_pool(make_pool())
        assert fleet.operator_asns() == {36183}
