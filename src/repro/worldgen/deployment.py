"""Relay deployment: ingress fleets, assignment map, egress lists, topology.

Consumes the base Internet from :mod:`repro.worldgen.internet` and
deploys the relay network onto it:

* **ingress fleets** with per-month activation/retirement windows that
  realise the Table 1 trajectories, organised into regional pods plus
  *tail-country pods* — relays dedicated to countries without Atlas
  probes, which is why the ECS scan uncovers ~200 addresses the Atlas
  measurement never sees;
* the **assignment map** binding every client chunk to (operator, pod);
* the **egress lists** (January and May snapshots) with per-operator
  subnet sizes, BGP prefixes, and CC/city distributions calibrated to
  Tables 3/4 and Figures 2/4/5;
* **egress pools** and per-country operator presence for relay scans;
* a MaxMind-style **geo database** seeded (mostly) from the egress list;
* the **router topology** in which Akamai-PR ingress and egress
  addresses share a last-hop router; and
* the monthly **BGP visibility history** with AS36183 first appearing
  in June 2021.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import WorldGenError
from repro.faults.plan import MASK64, MIX_MULT_A, MIX_MULT_B, fault_key
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.asn import WellKnownAS
from repro.netmodel.bgp import BgpHistory, RoutingTable
from repro.netmodel.geo import Gazetteer
from repro.netmodel.geodb import GeoDatabase, GeoRecord
from repro.netmodel.topology import Router, Topology
from repro.relay.egress import EgressFleet, EgressPool
from repro.relay.egress_list import EgressEntry, EgressList
from repro.relay.ingress import IngressFleet, IngressRelay, RelayProtocol
from repro.relay.service import AssignmentMap, AssignmentUnit
from repro.simtime import SECONDS_PER_DAY, month_to_seconds
from repro.worldgen.config import WorldConfig
from repro.worldgen.internet import (
    OPERATOR_BLOCKS_V6,
    InternetGround,
    VANTAGE_ASN,
)

_OPERATOR_BY_NAME = {
    "Apple": int(WellKnownAS.APPLE),
    "Akamai_PR": int(WellKnownAS.AKAMAI_PR),
    "Akamai_EG": int(WellKnownAS.AKAMAI_EG),
    "Cloudflare": int(WellKnownAS.CLOUDFLARE),
    "Fastly": int(WellKnownAS.FASTLY),
}

#: Relay-service launch (first BGP visibility of AS36183).
SERVICE_LAUNCH = (2021, 6)


@dataclass
class DeploymentGround:
    """Everything deployed on top of the base Internet."""

    ingress_v4: IngressFleet
    ingress_v6: IngressFleet
    assignment: AssignmentMap
    egress_list_jan: EgressList
    egress_list_may: EgressList
    egress_fleet: EgressFleet
    geodb: GeoDatabase
    history: BgpHistory
    topology: Topology
    vantage_router_id: str
    #: Ingress BGP prefixes per (asn, ip version).
    ingress_prefixes: dict[tuple[int, int], list[Prefix]] = field(default_factory=dict)
    #: Egress BGP prefixes per (asn, ip version).
    egress_prefixes: dict[tuple[int, int], list[Prefix]] = field(default_factory=dict)
    #: Announced-but-unused AS36183 prefixes per ip version.
    unused_prefixes: dict[int, list[Prefix]] = field(default_factory=dict)
    #: Countries with no Atlas probes (served by tail pods).
    tail_countries: list[str] = field(default_factory=list)
    #: Countries hosting Atlas probes.
    probe_countries: list[str] = field(default_factory=list)
    #: Timestamp of the April ECS scan start (for the late relay).
    april_scan_start: float = 0.0


def scan_time(year: int, month: int) -> float:
    """Simulated start time of the monthly scan (1 day into the month)."""
    return month_to_seconds(year, month) + SECONDS_PER_DAY


# ----------------------------------------------------------------------
# Subnet-size composition
# ----------------------------------------------------------------------


def compose_subnet_lengths(count: int, total_addresses: int) -> list[int]:
    """Choose IPv4 prefix lengths for ``count`` subnets summing to
    ``total_addresses`` addresses, using sizes 8/4/2/1 (/29../32).

    Raises :class:`WorldGenError` when the total is infeasible.
    """
    if not count <= total_addresses <= 8 * count:
        raise WorldGenError(
            f"cannot compose {count} subnets totalling {total_addresses} addresses"
        )
    length_of = {8: 29, 4: 30, 2: 31, 1: 32}
    ratio = total_addresses / count
    # Use the two size classes bracketing the average, mixing them so the
    # total comes out (nearly) exact — e.g. Fastly's 2.0 addresses per
    # subnet yields all /31s, Akamai-PR's 5.8 a /29-/30 mix.
    sizes_available = (1, 2, 4, 8)
    low = max(s for s in sizes_available if s <= ratio)
    high = min((s for s in sizes_available if s >= ratio), default=8)
    if low == high:
        return [length_of[low]] * count
    n_high = (total_addresses - low * count) // (high - low)
    n_high = max(0, min(count, n_high))
    residual = total_addresses - (n_high * high + (count - n_high) * low)
    if not 0 <= residual < high:
        raise WorldGenError(
            f"subnet composition residual {residual} for count={count}, "
            f"total={total_addresses}"
        )
    sizes = [high] * n_high + [low] * (count - n_high)
    return [length_of[s] for s in sizes]


# ----------------------------------------------------------------------
# Country/city distribution for the egress list
# ----------------------------------------------------------------------


def _egress_cc_universe(config: WorldConfig, gazetteer: Gazetteer) -> dict[str, list[str]]:
    """Country-coverage sets per operator (CC-overlap structure).

    Cloudflare covers everything except two low-rank CCs; 11 low-rank
    CCs are Cloudflare-exclusive; Akamai-PR and Fastly each additionally
    exclude three distinct CCs covered by the other two.
    """
    codes = gazetteer.country_codes
    n = len(codes)
    cf_unique = config.s(config.cloudflare_unique_ccs, 1)
    # Reserve low-rank slices for the exclusion structure.
    cf_only = codes[n - cf_unique:]
    not_cf = codes[n - cf_unique - 2 : n - cf_unique]
    not_apr = codes[n - cf_unique - 5 : n - cf_unique - 2]
    not_fastly = codes[n - cf_unique - 8 : n - cf_unique - 5]
    akamai_pr = [c for c in codes if c not in cf_only and c not in not_apr]
    fastly = [c for c in codes if c not in cf_only and c not in not_fastly]
    cloudflare = [c for c in codes if c not in not_cf]
    akamai_eg = [
        c for c in akamai_pr[: max(2, config.s(config.egress_ccs_akamai_eg, 2))]
    ]
    return {
        "Akamai_PR": akamai_pr,
        "Akamai_EG": akamai_eg,
        "Cloudflare": cloudflare,
        "Fastly": fastly,
    }


def _cc_subnet_counts(
    config: WorldConfig, covered: list[str], gazetteer: Gazetteer, total: int
) -> dict[str, int]:
    """Distribute ``total`` subnets over covered CCs (US-heavy shape).

    Shape targets from the paper: the US holds 58 % of all subnets, DE
    is a distant second at 3.6 %, and a long tail of ~123 CCs receives
    fewer than 50 subnets each.  The non-US/DE share is a normalised
    power law with the head capped just below DE's share.
    """
    if total < len(covered):
        covered = covered[:max(1, total)]
    tail_share = 1.0 - config.us_subnet_share - config.de_subnet_share
    raw = {}
    for code in covered:
        rank = gazetteer.country_codes.index(code)
        if code not in ("US", "DE"):
            # Exponent calibrated so ~123 CCs end below 50 subnets at
            # paper scale (the paper's long-tail observation).
            raw[code] = (rank + 2) ** -1.63
    raw_sum = sum(raw.values()) or 1.0
    weights = []
    cap = 0.92 * config.de_subnet_share
    capped_total = 0.0
    uncapped_sum = 0.0
    for code in covered:
        if code == "US":
            weights.append(config.us_subnet_share)
        elif code == "DE":
            weights.append(config.de_subnet_share)
        else:
            weight = tail_share * raw[code] / raw_sum
            if weight > cap:
                capped_total += weight - cap
                weight = cap
            else:
                uncapped_sum += weight
            weights.append(weight)
    # Redistribute capped excess proportionally over the uncapped tail.
    if capped_total > 0 and uncapped_sum > 0:
        scale_up = 1.0 + capped_total / uncapped_sum
        weights = [
            w * scale_up if code not in ("US", "DE") and w < cap else w
            for code, w in zip(covered, weights)
        ]
    weight_sum = sum(weights)
    counts = {c: max(1, int(total * w / weight_sum)) for c, w in zip(covered, weights)}
    drift = total - sum(counts.values())
    order = sorted(counts, key=lambda c: -counts[c])
    i = 0
    while drift != 0:
        code = order[i % len(order)]
        if drift > 0:
            counts[code] += 1
            drift -= 1
        elif counts[code] > 1:
            counts[code] -= 1
            drift += 1
        i += 1
    return counts


# ----------------------------------------------------------------------
# Egress list generation
# ----------------------------------------------------------------------


@dataclass
class _OperatorEgressPlan:
    name: str
    asn: int
    v4_subnets: int
    v4_addresses: int
    v4_prefixes: int
    v6_subnets: int
    v6_prefixes: int
    v4_cities: int
    v6_cities: int
    covered_ccs: list[str]
    v4_ccs: list[str]


def _operator_plans(config: WorldConfig, gazetteer: Gazetteer) -> list[_OperatorEgressPlan]:
    universe = _egress_cc_universe(config, gazetteer)
    s = config.s
    specs = (
        ("Akamai_PR", config.egress_v4_akamai_pr, config.egress_v6_akamai_pr,
         config.egress_cities_akamai_pr, universe["Akamai_PR"], None),
        ("Akamai_EG", config.egress_v4_akamai_eg, config.egress_v6_akamai_eg,
         config.egress_cities_akamai_eg, universe["Akamai_EG"], 18),
        ("Cloudflare", config.egress_v4_cloudflare, config.egress_v6_cloudflare,
         config.egress_cities_cloudflare, universe["Cloudflare"], None),
        ("Fastly", config.egress_v4_fastly, config.egress_v6_fastly,
         config.egress_cities_fastly, universe["Fastly"], None),
    )
    plans = []
    for name, (v4_count, v4_addrs, v4_pfx), (v6_count, v6_pfx), (c4, c6), ccs, v4_cc_cap in specs:
        v4_subnets = s(v4_count, 8)
        ratio = v4_addrs / v4_count
        v4_addresses = max(v4_subnets, round(v4_subnets * ratio))
        v4_addresses = min(v4_addresses, 8 * v4_subnets)
        v4_ccs = ccs if v4_cc_cap is None else ccs[: max(2, s(v4_cc_cap, 2))]
        plans.append(
            _OperatorEgressPlan(
                name=name,
                asn=_OPERATOR_BY_NAME[name],
                v4_subnets=v4_subnets,
                v4_addresses=v4_addresses,
                v4_prefixes=max(1, s(v4_pfx)) if name != "Akamai_EG" else 1,
                v6_subnets=s(v6_count, 8),
                v6_prefixes=max(1, s(v6_pfx)) if name != "Akamai_EG" else 1,
                v4_cities=s(c4, 4),
                v6_cities=s(c6, 4),
                covered_ccs=ccs,
                v4_ccs=v4_ccs,
            )
        )
    return plans


#: Carve-out sub-blocks inside each operator's IPv4 supernet.
_EGRESS_V4_BASE = {
    "Akamai_PR": "172.232.0.0/13",
    "Akamai_EG": "23.32.0.0/11",
    "Cloudflare": "104.16.0.0/13",
    "Fastly": "151.101.0.0/16",
}
_EGRESS_CHURN_V4_BASE = {
    "Akamai_PR": "172.230.0.0/16",
    "Akamai_EG": "23.56.0.0/16",
    "Cloudflare": "104.24.0.0/16",
    "Fastly": "146.75.0.0/16",
}


def _build_operator_egress(
    plan: _OperatorEgressPlan,
    config: WorldConfig,
    gazetteer: Gazetteer,
    rng: random.Random,
    routing: RoutingTable,
) -> tuple[list[EgressEntry], list[Prefix], list[Prefix], list[EgressEntry]]:
    """Build one operator's entries, BGP prefixes (v4, v6), churn spares."""
    entries: list[EgressEntry] = []
    # ----- IPv4 -----
    lengths = compose_subnet_lengths(plan.v4_subnets, plan.v4_addresses)
    lengths.sort()  # big subnets first (small length first = big size)
    base_v4 = Prefix.parse(_EGRESS_V4_BASE[plan.name])
    v4_bgp: list[Prefix] = []
    if plan.name == "Akamai_EG":
        v4_bgp = [base_v4]
        routing.announce(base_v4, plan.asn)
        cursor = base_v4.value
    else:
        # Block capacity: double the average per-block address load (the
        # factor absorbs alignment slack and size skew between blocks).
        load = -(-plan.v4_addresses // plan.v4_prefixes)
        capacity = max(256, 2 * load)
        block_len = 32 - (capacity - 1).bit_length()
        for i in range(plan.v4_prefixes):
            block = Prefix(4, base_v4.value + (i << (32 - block_len)), block_len)
            if not base_v4.contains_prefix(block):
                raise WorldGenError(f"egress blocks overflow {base_v4} for {plan.name}")
            routing.announce(block, plan.asn)
            v4_bgp.append(block)
        cursor = v4_bgp[0].value
    v4_subnet_prefixes: list[Prefix] = []
    current_block = -1
    for i, length in enumerate(lengths):
        if plan.name != "Akamai_EG":
            # Balanced assignment: every announced block receives at
            # least one subnet (the paper's per-AS BGP prefix counts all
            # carry egress space).
            block_idx = i * len(v4_bgp) // len(lengths)
            if block_idx != current_block:
                current_block = block_idx
                cursor = v4_bgp[block_idx].value
        size = 1 << (32 - length)
        aligned = (cursor + size - 1) & ~(size - 1)
        prefix = Prefix(4, aligned, length)
        if plan.name != "Akamai_EG" and not v4_bgp[current_block].contains_prefix(prefix):
            raise WorldGenError(
                f"egress subnet {prefix} overflows block {v4_bgp[current_block]} "
                f"for {plan.name}"
            )
        cursor = aligned + size
        v4_subnet_prefixes.append(prefix)
    # ----- IPv6 -----
    base_v6 = Prefix.parse(OPERATOR_BLOCKS_V6[plan.asn][0])
    v6_bgp: list[Prefix] = []
    v6_subnet_prefixes: list[Prefix] = []
    per_prefix_v6 = -(-plan.v6_subnets // plan.v6_prefixes)
    bgp_len = 44 if plan.v6_prefixes > 200 else 40
    if plan.v6_prefixes >= (0xFE << (bgp_len - 40)):
        raise WorldGenError(
            f"{plan.name}: {plan.v6_prefixes} v6 blocks collide with the "
            "ingress carve-out"
        )
    for i in range(plan.v6_prefixes):
        block = Prefix(6, base_v6.value + (i << (128 - bgp_len)), bgp_len)
        routing.announce(block, plan.asn)
        v6_bgp.append(block)
    v6_block_fill: dict[int, int] = {}
    for i in range(plan.v6_subnets):
        block_idx = i * len(v6_bgp) // plan.v6_subnets
        offset = v6_block_fill.get(block_idx, 0)
        v6_block_fill[block_idx] = offset + 1
        v6_subnet_prefixes.append(
            Prefix(6, v6_bgp[block_idx].value + (offset << 64), 64)
        )
    # ----- locations -----
    for version, prefixes, cc_list, city_target in (
        (4, v4_subnet_prefixes, plan.v4_ccs, plan.v4_cities),
        (6, v6_subnet_prefixes, plan.covered_ccs, plan.v6_cities),
    ):
        cc_counts = _cc_subnet_counts(config, cc_list, gazetteer, len(prefixes))
        index = 0
        for code in cc_list:
            count = cc_counts.get(code, 0)
            if count == 0:
                continue
            cities = gazetteer.cities_in(code)
            budget = max(1, min(len(cities), count,
                                round(city_target * count / len(prefixes))))
            for j in range(count):
                prefix = prefixes[index]
                index += 1
                city = cities[j % budget]
                city_name = "" if rng.random() < config.missing_city_fraction else city.name
                region = f"{code}-{city.region}"
                entries.append(EgressEntry(prefix, code, region, city_name))
    # ----- churn spares (entries only in the January list) -----
    churn_count = max(1, int(len(entries) * config.egress_churn_fraction))
    churn_base = Prefix.parse(_EGRESS_CHURN_V4_BASE[plan.name])
    if plan.name != "Akamai_EG":
        routing.announce(churn_base, plan.asn)
    churn_entries = []
    cities_us = gazetteer.cities_in("US")
    for i in range(churn_count):
        prefix = Prefix(4, churn_base.value + (i << 3), 29)
        churn_entries.append(
            EgressEntry(prefix, "US", "US-NA", cities_us[i % len(cities_us)].name)
        )
    return entries, v4_bgp, v6_bgp, churn_entries


def build_egress(
    config: WorldConfig,
    ground: InternetGround,
    rng: random.Random,
) -> tuple[EgressList, EgressList, dict[tuple[int, int], list[Prefix]]]:
    """Build the May and January egress lists and the BGP prefix index."""
    plans = _operator_plans(config, ground.gazetteer)
    may_entries: list[EgressEntry] = []
    jan_entries: list[EgressEntry] = []
    prefix_index: dict[tuple[int, int], list[Prefix]] = {}
    for plan in plans:
        entries, v4_bgp, v6_bgp, churn = _build_operator_egress(
            plan, config, ground.gazetteer, rng, ground.routing
        )
        may_entries.extend(entries)
        prefix_index[(plan.asn, 4)] = v4_bgp
        prefix_index[(plan.asn, 6)] = v6_bgp
        # January: ~87 % of the May list (the May list is ~15 % larger),
        # plus a small churned-out set that vanished by May.
        keep = 1.0 / (1.0 + config.egress_growth_jan_to_may)
        jan_entries.extend(e for e in entries if rng.random() < keep)
        jan_entries.extend(churn)
    return EgressList(may_entries), EgressList(jan_entries), prefix_index


# ----------------------------------------------------------------------
# Ingress deployment
# ----------------------------------------------------------------------

_REGION_RELAY_WEIGHTS = {"NA": 0.30, "EU": 0.32, "AS": 0.20, "SA": 0.07, "AF": 0.06, "OC": 0.05}

#: Ingress address blocks (carved from the operator supernets).
_INGRESS_V4_BASE = {
    int(WellKnownAS.APPLE): "17.0.0.0/16",
    int(WellKnownAS.AKAMAI_PR): "172.224.0.0/16",
}
_UNUSED_V4_BASE = "172.225.0.0/16"  # announced-but-unused AS36183 space


def _region_pods(config: WorldConfig) -> list[str]:
    pods = []
    for region, count in config.pods_per_region.items():
        scaled = max(1, round(count * max(config.scale, 0.25)))
        pods.extend(f"{region}-{i}" for i in range(scaled))
    return pods


@dataclass
class _FleetPlan:
    """Mutable relay plan (frozen into IngressRelay at the end)."""

    address: IPAddress
    asn: int
    protocol: RelayProtocol
    pod: str
    active_from: float
    active_until: float | None = None


def _monthly_targets(config: WorldConfig) -> dict[tuple[int, RelayProtocol], list[tuple[float, int]]]:
    """Per (asn, protocol): [(effective time, target count)] trajectories."""
    apple, akamai = int(WellKnownAS.APPLE), int(WellKnownAS.AKAMAI_PR)
    out: dict[tuple[int, RelayProtocol], list[tuple[float, int]]] = {
        (apple, RelayProtocol.QUIC): [],
        (akamai, RelayProtocol.QUIC): [],
        (apple, RelayProtocol.TCP_FALLBACK): [],
        (akamai, RelayProtocol.TCP_FALLBACK): [],
    }
    for month in config.ingress_months:
        ts = month_to_seconds(month.year, month.month)
        out[(apple, RelayProtocol.QUIC)].append((ts, config.s(month.quic_apple, 4)))
        out[(akamai, RelayProtocol.QUIC)].append((ts, config.s(month.quic_akamai, 8)))
        out[(apple, RelayProtocol.TCP_FALLBACK)].append(
            (ts, config.s(month.fallback_apple, 4))
        )
        out[(akamai, RelayProtocol.TCP_FALLBACK)].append(
            (ts, config.s(month.fallback_akamai, 0) if month.fallback_akamai else 0)
        )
    return out


def build_ingress(
    config: WorldConfig,
    ground: InternetGround,
    rng: random.Random,
    tail_countries: list[str],
) -> tuple[IngressFleet, IngressFleet, dict[tuple[int, int], list[Prefix]], list[Prefix]]:
    """Build both ingress fleets, the prefix index, and unused prefixes."""
    apple, akamai = int(WellKnownAS.APPLE), int(WellKnownAS.AKAMAI_PR)
    routing = ground.routing
    registry = ground.registry
    prefix_index: dict[tuple[int, int], list[Prefix]] = {}

    # Announce ingress BGP prefixes (/24s carved from the bases).
    for asn, count_cfg in (
        (apple, config.ingress_v4_prefixes_apple),
        (akamai, config.ingress_v4_prefixes_akamai),
    ):
        base = Prefix.parse(_INGRESS_V4_BASE[asn])
        count = max(2, config.s(count_cfg, 2))
        prefixes = [Prefix(4, base.value + (i << 8), 24) for i in range(count)]
        for prefix in prefixes:
            routing.announce(prefix, asn)
            registry.get(asn).add_prefix(prefix)
        prefix_index[(asn, 4)] = prefixes
    for asn, count_cfg in (
        (apple, config.ingress_v6_prefixes_apple),
        (akamai, config.ingress_v6_prefixes_akamai),
    ):
        base = Prefix.parse(OPERATOR_BLOCKS_V6[asn][0])
        count = max(2, config.s(count_cfg, 2))
        # Ingress v6 prefixes sit in the top /40 of the operator block
        # (0xFF), clear of the egress /40-or-/44 carve-outs which never
        # reach index 0xFE.
        top = base.value | (0xFF << 88)
        prefixes = [Prefix(6, top + (i << 80), 48) for i in range(count)]
        for prefix in prefixes:
            routing.announce(prefix, asn)
            registry.get(asn).add_prefix(prefix)
        prefix_index[(asn, 6)] = prefixes

    # Announced-but-unused AS36183 prefixes (Section 6's 7.8 %).
    unused: list[Prefix] = []
    unused_v4 = max(1, config.s(84))
    base = Prefix.parse(_UNUSED_V4_BASE)
    for i in range(unused_v4):
        prefix = Prefix(4, base.value + (i << 8), 24)
        routing.announce(prefix, akamai)
        unused.append(prefix)
    unused_v6 = max(1, config.s(55))
    base6 = Prefix.parse(OPERATOR_BLOCKS_V6[akamai][0])
    top6 = base6.value | (0xFE << 88)
    for i in range(unused_v6):
        prefix = Prefix(6, top6 + (i << 80), 48)
        routing.announce(prefix, akamai)
        unused.append(prefix)

    pods = _region_pods(config)
    pod_weights = [
        _REGION_RELAY_WEIGHTS[p.split("-")[0]] for p in pods
    ]
    launch = month_to_seconds(*SERVICE_LAUNCH)

    fleet_v4 = IngressFleet(4)
    fleet_v6 = IngressFleet(6)
    counters: dict[tuple[int, int], int] = {}

    def next_address(asn: int, version: int) -> IPAddress:
        prefixes = prefix_index[(asn, version)]
        idx = counters.get((asn, version), 0)
        counters[(asn, version)] = idx + 1
        prefix = prefixes[idx % len(prefixes)]
        offset = 1 + idx // len(prefixes)
        if version == 4 and offset >= 255:
            raise WorldGenError(f"ingress /24s exhausted for AS{asn}")
        return prefix.address_at(offset)

    # ----- IPv4: monthly trajectories with churn -----
    plans: list[_FleetPlan] = []
    hidden_total = max(0, config.s(204, 0))
    hidden_apple = round(hidden_total * 0.22)
    hidden_akamai = hidden_total - hidden_apple
    hidden_budget = {apple: hidden_apple, akamai: hidden_akamai}
    for (asn, protocol), trajectory in _monthly_targets(config).items():
        active: list[_FleetPlan] = []
        hidden_left = hidden_budget[asn] if protocol is RelayProtocol.QUIC else 0
        for ts, target in trajectory:
            start = launch if ts == trajectory[0][0] else ts
            current = len(active)
            if target > current:
                for _ in range(target - current):
                    if hidden_left > 0 and tail_countries:
                        pod = f"CC:{tail_countries[hidden_left % len(tail_countries)]}"
                        hidden_left -= 1
                    else:
                        pod = rng.choices(pods, weights=pod_weights, k=1)[0]
                    plan = _FleetPlan(
                        next_address(asn, 4), asn, protocol, pod, start
                    )
                    active.append(plan)
                    plans.append(plan)
            elif target < current:
                for plan in rng.sample(active, current - target):
                    plan.active_until = ts
                    active.remove(plan)
    # The single relay that activates between the April ECS scan and the
    # Atlas validation run.
    april_scan = scan_time(2022, 4)
    if config.late_relay_during_april:
        plans.append(
            _FleetPlan(
                next_address(akamai, 4),
                akamai,
                RelayProtocol.QUIC,
                "EU-0",
                april_scan + 36 * 3600.0,
            )
        )
    for plan in plans:
        fleet_v4.add(
            IngressRelay(
                plan.address, plan.asn, plan.protocol, plan.pod,
                plan.active_from, plan.active_until,
            )
        )

    # ----- IPv6: final counts with the same pod structure -----
    hidden_v6 = {apple: max(0, config.s(6, 0)), akamai: max(0, config.s(31, 0))}
    for asn, total_cfg in ((apple, config.ingress_v6_apple), (akamai, config.ingress_v6_akamai)):
        total = config.s(total_cfg, 4)
        hidden_left = min(hidden_v6[asn], total - 1)
        for i in range(total):
            if hidden_left > 0 and tail_countries:
                pod = f"CC:{tail_countries[(i + asn) % len(tail_countries)]}"
                hidden_left -= 1
            else:
                pod = rng.choices(pods, weights=pod_weights, k=1)[0]
            fleet_v6.add(
                IngressRelay(
                    next_address(asn, 6), asn, RelayProtocol.QUIC, pod, launch
                )
            )
    return fleet_v4, fleet_v6, prefix_index, unused


# ----------------------------------------------------------------------
# Assignment map
# ----------------------------------------------------------------------


def build_assignment(
    config: WorldConfig,
    ground: InternetGround,
    tail_countries: set[str],
) -> AssignmentMap:
    """Bind every client chunk to (operator, pod)."""
    assignment = AssignmentMap()
    pods = _region_pods(config)
    by_region: dict[str, list[str]] = {}
    for pod in pods:
        by_region.setdefault(pod.split("-")[0], []).append(pod)
    gazetteer = ground.gazetteer
    for chunk in ground.chunks:
        if chunk.country.startswith("@"):
            region = chunk.country[1:]
            pod = by_region[region][0]
        elif chunk.country in tail_countries:
            pod = f"CC:{chunk.country}"
        else:
            region = gazetteer.region_of(chunk.country)
            region_pods = by_region[region]
            # Use the prefix's block number, not its raw value: aligned
            # prefixes have zero low bits, which would funnel every unit
            # into pod 0.
            block_number = chunk.prefix.value >> (32 - chunk.prefix.length or 1)
            pod = region_pods[block_number % len(region_pods)]
        assignment.add(
            AssignmentUnit(chunk.prefix, chunk.scope_len, chunk.operator_asn, pod)
        )
    return assignment


# ----------------------------------------------------------------------
# Pools, presence, geo DB, topology, history
# ----------------------------------------------------------------------


def build_pools(
    config: WorldConfig,
    egress_list: EgressList,
    rng: random.Random,
    gazetteer: Gazetteer,
) -> EgressFleet:
    """Egress pools and per-country operator presence."""
    fleet = EgressFleet()
    pool_ops = ("Akamai_PR", "Cloudflare", "Fastly")
    blocks = {
        _OPERATOR_BY_NAME[name]: (
            Prefix.parse(_EGRESS_V4_BASE[name]),
            Prefix.parse(_EGRESS_CHURN_V4_BASE[name]),
        )
        for name in pool_ops
    }
    by_op_cc: dict[tuple[int, str], list[EgressEntry]] = {}
    for entry in egress_list:
        if entry.prefix.version != 4:
            continue
        # Pools draw from IPv4 subnets (the scan client is v4); attribute
        # each entry to its operator by address block.
        for asn, (base, churn) in blocks.items():
            if base.contains_prefix(entry.prefix) or churn.contains_prefix(entry.prefix):
                by_op_cc.setdefault((asn, entry.country_code), []).append(entry)
                break
    # Per-(operator, region) entry lists, for topping up pools in
    # countries where the operator has few local subnets: a client is
    # served by nearby sites, so borrowing stays region-local.
    region_entries: dict[tuple[int, str], list[EgressEntry]] = {}
    for (asn, cc), entries in by_op_cc.items():
        region_entries.setdefault((asn, gazetteer.region_of(cc)), []).extend(entries)
    for (asn, cc), entries in by_op_cc.items():
        region = gazetteer.region_of(cc)
        candidates = list(entries)
        for extra in region_entries[(asn, region)]:
            if len(candidates) >= config.egress_pool_subnets:
                break
            if extra not in candidates:
                candidates.append(extra)
        stride = max(1, len(candidates) // config.egress_pool_subnets)
        chosen = [
            candidates[i * stride]
            for i in range(min(config.egress_pool_subnets, len(candidates)))
        ]
        # Round-robin one address per subnet, then a second round — the
        # shape the paper observed: six addresses out of four subnets.
        addresses: list[IPAddress] = []
        for round_idx in range(2):
            for entry in chosen:
                if len(addresses) >= config.egress_pool_addresses:
                    break
                if round_idx < entry.prefix.num_addresses():
                    addresses.append(entry.prefix.address_at(round_idx))
        extra_iter = (
            e for e in region_entries[(asn, region)] if e not in chosen
        )
        while len(addresses) < config.egress_pool_addresses:
            extra = next(extra_iter, None)
            if extra is None:
                break
            addresses.append(extra.prefix.address_at(0))
        fleet.add_pool(
            EgressPool(asn, cc, addresses, stickiness=config.egress_stickiness)
        )
    # Presence weights per country.
    countries = {cc for _asn, cc in by_op_cc}
    for cc in countries:
        if cc == config.vantage_country:
            weights = {
                _OPERATOR_BY_NAME[name]: w
                for name, w in config.vantage_presence.items()
                if (_OPERATOR_BY_NAME[name], cc) in fleet.pools
            }
        else:
            weights = {
                _OPERATOR_BY_NAME[name]: w
                for name, w in config.default_presence.items()
                if (_OPERATOR_BY_NAME[name], cc) in fleet.pools
            }
        if weights:
            fleet.set_presence(cc, weights)
    return fleet


def build_geodb(
    config: WorldConfig,
    egress_list: EgressList,
    gazetteer: Gazetteer,
    rng: random.Random,
    sample_size: int = 20000,
) -> GeoDatabase:
    """A MaxMind-style DB that mostly adopted the published mapping."""
    geodb = GeoDatabase()
    entries = egress_list.entries()
    stride = max(1, len(entries) // sample_size)
    for entry in entries[::stride]:
        if rng.random() < config.geodb_adoption_rate:
            record = GeoRecord(entry.country_code, entry.city or None, None, "egress-list")
        else:
            other = rng.choice(gazetteer.country_codes[:40])
            record = GeoRecord(other, None, None, "vendor")
        geodb.add(entry.prefix, record)
    return geodb


def build_topology(
    config: WorldConfig,
    ground: InternetGround,
    ingress_v4: IngressFleet,
    egress_fleet: EgressFleet,
) -> tuple[Topology, str]:
    """Router topology with shared Akamai-PR last hops.

    The vantage connects through a transit router to each operator's
    core.  Akamai-PR attaches **both** its ingress relays and its egress
    pool addresses behind the same per-region last-hop routers — the
    configuration the paper's traceroutes exposed.
    """
    topology = Topology()
    vantage = Router("vantage", VANTAGE_ASN, IPAddress.parse("131.159.0.1"))
    transit = Router("transit-1", 3356, IPAddress.parse("4.68.0.1"))
    topology.add_router(vantage)
    topology.add_router(transit)
    topology.add_link("vantage", "transit-1", 2.0)
    akamai = int(WellKnownAS.AKAMAI_PR)
    cores: dict[int, Router] = {}
    for name, asn, core_ip in (
        ("apple-core", int(WellKnownAS.APPLE), "17.255.0.1"),
        ("akamai-pr-core", akamai, "172.224.255.1"),
        ("cloudflare-core", int(WellKnownAS.CLOUDFLARE), "104.16.255.1"),
        ("fastly-core", int(WellKnownAS.FASTLY), "151.101.255.1"),
        ("akamai-eg-core", int(WellKnownAS.AKAMAI_EG), "23.32.255.1"),
    ):
        router = Router(name, asn, IPAddress.parse(core_ip))
        topology.add_router(router)
        topology.add_link("transit-1", name, 8.0)
        cores[asn] = router
    # Last-hop routers: one per (operator, region-ish shard).
    lasthops: dict[tuple[int, int], Router] = {}

    def lasthop_for(asn: int, shard: int) -> Router:
        key = (asn, shard)
        router = lasthops.get(key)
        if router is None:
            core = cores[asn]
            iface = IPAddress(4, core.interface.value - 65536 * (shard + 1))
            router = Router(f"{core.router_id}-lh{shard}", asn, iface)
            topology.add_router(router)
            topology.add_link(core.router_id, router.router_id, 1.0)
            lasthops[key] = router
        return router

    # Attach ingress relay addresses (IPv4).
    for relay in ingress_v4.relays:
        shard = _pod_shard(relay.pod)
        router = lasthop_for(relay.asn, shard)
        topology.attach_host(relay.address, router.router_id)
    # Attach egress pool addresses; Akamai-PR pools share the ingress
    # last-hop routers of their region — the co-location finding.
    gaz = ground.gazetteer
    for (asn, cc), pool in egress_fleet.pools.items():
        if asn == akamai:
            shard = _region_shard(gaz.region_of(cc)) if not cc.startswith("@") else 0
        else:
            shard = 100 + (sum(map(ord, cc)) % 4)
        router = lasthop_for(asn, shard)
        for address in pool.addresses:
            if not topology.has_host(address):
                topology.attach_host(address, router.router_id)
    return topology, "vantage"


_REGION_ORDER = {"NA": 0, "EU": 1, "AS": 2, "SA": 3, "AF": 4, "OC": 5}


def _region_shard(region: str) -> int:
    return _REGION_ORDER.get(region, 0)


def _pod_shard(pod: str) -> int:
    if pod.startswith("CC:"):
        return 50  # tail-country relays share one distant site
    return _region_shard(pod.split("-")[0])


def build_history(config: WorldConfig, routing: RoutingTable) -> BgpHistory:
    """Monthly BGP visibility 2016-01..2022-05; AS36183 appears 2021-06."""
    history = BgpHistory()
    akamai = int(WellKnownAS.AKAMAI_PR)
    all_origins = frozenset(routing.origins())
    before = frozenset(all_origins - {akamai})
    first_year, first_month = config.akamai_pr_first_seen
    first_idx = (first_year - config.history_start[0]) * 12 + (
        first_month - config.history_start[1]
    )
    start_year, start_month = config.history_start
    end_year, end_month = config.history_end
    total_months = (end_year - start_year) * 12 + (end_month - start_month) + 1
    for i in range(total_months):
        year = start_year + (start_month - 1 + i) // 12
        month = (start_month - 1 + i) % 12 + 1
        history.record_origins(year, month, before if i < first_idx else all_origins)
    return history


# ----------------------------------------------------------------------
# Deployment churn (continuous-monitoring drills)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One injected deployment change, with where a scan can see it.

    ``block_value`` is the first address of the edited unit — a walk
    landing position in every scan, so the incremental engine's
    detection of the change must surface an event at this value.
    """

    kind: str
    prefix: Prefix
    block_value: int
    detail: str


def _churn_key(text: str) -> int:
    """Content-keyed 64-bit pick for churn decisions (crc32 + splitmix).

    Same construction as the fault plane: the chosen units depend only
    on the seed and the map contents, never on process or iteration
    order, so every worker count and every re-run drills the same
    deployment changes.
    """
    x = fault_key(text)
    x = ((x ^ (x >> 30)) * MIX_MULT_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_MULT_B) & MASK64
    return (x ^ (x >> 31)) & MASK64


class DeploymentChurn:
    """Deterministic deployment-change injector for a live assignment map.

    Models the localized, bursty churn the Meta-CDN literature reports:
    an operator hand-off on one block, a pod re-assignment, a block
    split (half the unit moves to a new pod at finer granularity), and
    a block withdrawal (the space reverts to the operator fallback).
    Every edit goes through :meth:`AssignmentMap.remove`/``add``, so the
    map version bump invalidates cached answer plans and replay
    programs exactly like a real deployment push.
    """

    KINDS = ("operator-swap", "pod-reassign", "block-split", "block-remove")

    #: DNS answer windows carry at most this many records (the service's
    #: rotation window); a pod whose operator roster stays *below* it is
    #: "saturated" — every answer exposes the whole roster, making pod
    #: moves exactly classifiable from a single probe.
    _SATURATED = 8

    def __init__(
        self,
        assignment: AssignmentMap,
        fleet: IngressFleet | None = None,
        at_time: float = 0.0,
    ) -> None:
        self.assignment = assignment
        self.fleet = fleet
        self.at_time = at_time
        # (assignment version, _v4_units() list) of the last inventory.
        self._units_cache: tuple[int, list[AssignmentUnit]] | None = None

    def _pod_observable(self, pod: str, operator_asn: int) -> bool:
        """Whether answers from ``pod`` are distinguishable in a scan.

        A pod with no relay of the assigned operator spills over to the
        operator's fleet-wide roster, so a move between two spilled pods
        changes nothing any scanner can see.  Pod-move drills therefore
        only involve pods hosting the operator's relays for the QUIC
        protocol — the primary scan domain, which carries detection
        (the TCP-fallback fleet is deliberately sparse early in the
        observation window, so requiring both protocols would leave no
        eligible pods at small scales).  Without a fleet reference every
        pod is assumed observable (structural drills don't need one).
        """
        if self.fleet is None:
            return True
        relays = self.fleet.pod_relays_cached(
            pod, RelayProtocol.QUIC, self.at_time
        )
        return any(r.asn == operator_asn for r in relays)

    def _pod_saturated(self, pod: str, operator_asn: int) -> bool:
        """Whether ``pod``'s operator roster fits one answer window.

        Pod-move drills are restricted to saturated *source* pods: a
        saturated pod's answer window IS its roster, so the new pod's
        window cannot equal it and a single delta probe proves the
        move.  An unsaturated source rotates through a larger roster —
        a real monitor would need several probes to tell rotation from
        relocation, which is a calibration question, not a drill.
        Without a fleet reference every pod is assumed saturated.
        """
        if self.fleet is None:
            return True
        relays = self.fleet.pod_relays_cached(
            pod, RelayProtocol.QUIC, self.at_time
        )
        count = sum(1 for r in relays if r.asn == operator_asn)
        return 0 < count < self._SATURATED

    # -- unit inventory -------------------------------------------------

    def _v4_units(self) -> list[AssignmentUnit]:
        """Editable v4 units in address order (tail-country pods excluded:
        their hidden single-country placement is a calibration target,
        not churn material).  Memoised on the map's edit version; callers
        must not mutate the list."""
        version = self.assignment.version
        if self._units_cache is not None and self._units_cache[0] == version:
            return self._units_cache[1]
        units = [
            unit
            for unit in self.assignment.units()
            if unit.prefix.version == 4 and not unit.pod.startswith("CC:")
        ]
        units.sort(key=lambda unit: unit.prefix.value)
        self._units_cache = (version, units)
        return units

    def _operators(self) -> list[int]:
        return sorted({unit.operator_asn for unit in self._v4_units()})

    def _pods_of(self, operator_asn: int) -> list[str]:
        """Observable pods currently serving the operator, sorted."""
        pods = {
            unit.pod
            for unit in self._v4_units()
            if unit.operator_asn == operator_asn
        }
        return sorted(
            pod for pod in pods if self._pod_observable(pod, operator_asn)
        )

    def _eligible(self, kind: str) -> list[AssignmentUnit]:
        units = self._v4_units()
        if kind == "operator-swap":
            operators = self._operators()
            return units if len(operators) > 1 else []
        if kind in ("pod-reassign", "block-split"):
            out = []
            pods_memo: dict[int, list[str]] = {}
            saturated: dict[tuple[str, int], bool] = {}
            for unit in units:
                if kind == "block-split" and (
                    unit.prefix.length >= 24
                    # A unit already scoped finer than its prefix walks as
                    # several rows; halving it then changes no row's scope,
                    # so the split would be invisible to structure probes.
                    or unit.scope_len != unit.prefix.length
                ):
                    continue
                if kind == "pod-reassign":
                    key = (unit.pod, unit.operator_asn)
                    if key not in saturated:
                        saturated[key] = self._pod_saturated(*key)
                    if not saturated[key]:
                        continue
                pods = pods_memo.get(unit.operator_asn)
                if pods is None:
                    pods = pods_memo[unit.operator_asn] = self._pods_of(
                        unit.operator_asn
                    )
                # The move must be observable from both ends: the unit's
                # current pod and at least one target pod answer from
                # their own (disjoint) relay rosters.
                if unit.pod in pods and len(pods) > 1:
                    out.append(unit)
            return out
        if kind == "block-remove":
            # A withdrawn /16-scoped Akamai unit reverts to the fallback
            # answer — same AS, same scope — leaving only a roster shift a
            # probe may not be able to attribute; require a visible scope
            # or operator transition instead.
            akamai = int(WellKnownAS.AKAMAI_PR)
            return [
                unit
                for unit in units
                if unit.scope_len != 16 or unit.operator_asn != akamai
            ]
        raise WorldGenError(f"unknown churn kind {kind!r}")

    # -- the four change kinds ------------------------------------------

    def swap_operator(self, unit: AssignmentUnit) -> ChangeRecord:
        """Hand the unit to a different operator (answer AS changes)."""
        choices = [a for a in self._operators() if a != unit.operator_asn]
        if not choices:
            raise WorldGenError("operator swap needs a second operator")
        new_asn = choices[_churn_key(f"operator:{unit.prefix}") % len(choices)]
        self.assignment.remove(unit.prefix)
        self.assignment.add(
            AssignmentUnit(unit.prefix, unit.scope_len, new_asn, unit.pod)
        )
        return ChangeRecord(
            "operator-swap",
            unit.prefix,
            unit.prefix.value,
            f"AS{unit.operator_asn} -> AS{new_asn}",
        )

    def reassign_pod(self, unit: AssignmentUnit) -> ChangeRecord:
        """Serve the unit from a different pod (answer roster changes)."""
        pods = [p for p in self._pods_of(unit.operator_asn) if p != unit.pod]
        if not pods:
            raise WorldGenError("pod re-assignment needs a second pod")
        new_pod = pods[_churn_key(f"pod:{unit.prefix}") % len(pods)]
        self.assignment.remove(unit.prefix)
        self.assignment.add(
            AssignmentUnit(unit.prefix, unit.scope_len, unit.operator_asn, new_pod)
        )
        return ChangeRecord(
            "pod-reassign",
            unit.prefix,
            unit.prefix.value,
            f"{unit.pod} -> {new_pod}",
        )

    def split_block(self, unit: AssignmentUnit) -> ChangeRecord:
        """Split the unit in half; the lower half moves to a new pod.

        The split halves stay walk-visible: both are rooted at scan
        landing positions (the unit start and its midpoint), so a full
        rescan and the incremental probe see the same refined partition
        — nesting, which would defeat the replay program, never occurs.
        """
        length = unit.prefix.length
        if length >= 24:
            raise WorldGenError(f"unit {unit.prefix} too small to split")
        pods = [p for p in self._pods_of(unit.operator_asn) if p != unit.pod]
        if not pods:
            raise WorldGenError("block split needs a second pod")
        new_pod = pods[_churn_key(f"split:{unit.prefix}") % len(pods)]
        half_len = length + 1
        scope = max(unit.scope_len, half_len)
        lower = Prefix(4, unit.prefix.value, half_len)
        upper = Prefix(4, unit.prefix.value + (1 << (32 - half_len)), half_len)
        self.assignment.remove(unit.prefix)
        self.assignment.add(
            AssignmentUnit(lower, scope, unit.operator_asn, new_pod)
        )
        self.assignment.add(
            AssignmentUnit(upper, scope, unit.operator_asn, unit.pod)
        )
        return ChangeRecord(
            "block-split",
            unit.prefix,
            unit.prefix.value,
            f"/{length} -> 2x/{half_len}, lower half {unit.pod} -> {new_pod}",
        )

    def remove_block(self, unit: AssignmentUnit) -> ChangeRecord:
        """Withdraw the unit; its space reverts to the /16 fallback answer."""
        self.assignment.remove(unit.prefix)
        return ChangeRecord(
            "block-remove",
            unit.prefix,
            unit.prefix.value,
            f"unit {unit.prefix} withdrawn (pod {unit.pod})",
        )

    # -- batch drills ---------------------------------------------------

    def apply(self, kind: str, unit: AssignmentUnit) -> ChangeRecord:
        """Apply one change kind to one unit."""
        if kind == "operator-swap":
            return self.swap_operator(unit)
        if kind == "pod-reassign":
            return self.reassign_pod(unit)
        if kind == "block-split":
            return self.split_block(unit)
        if kind == "block-remove":
            return self.remove_block(unit)
        raise WorldGenError(f"unknown churn kind {kind!r}")

    def inject_standard(self, seed: int) -> list[ChangeRecord]:
        """One change of each kind, on units in pairwise-distinct /16s.

        Distinct /16s keep the drills independently observable: a
        withdrawn unit's fallback answer declares a /16 scope, and a
        second change hiding inside that skip window would be invisible
        to a full rescan too — a property under test, not a drill.
        """
        records: list[ChangeRecord] = []
        taken: set[int] = set()

        def slash16s(unit: AssignmentUnit) -> range:
            return range(
                unit.prefix.value >> 16, (unit.prefix.broadcast_value >> 16) + 1
            )

        for kind in self.KINDS:
            eligible = [
                unit
                for unit in self._eligible(kind)
                if taken.isdisjoint(slash16s(unit))
            ]
            if not eligible:
                raise WorldGenError(f"no eligible unit left for {kind}")
            unit = eligible[
                _churn_key(f"churn:{kind}:{seed}") % len(eligible)
            ]
            taken.update(slash16s(unit))
            records.append(self.apply(kind, unit))
        return records
