"""Tests for repro.netmodel.prefix_trie."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netmodel.addr import IPAddress, Prefix
from repro.netmodel.prefix_trie import DualStackTrie, PrefixTrie


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestPrefixTrie:
    def test_insert_and_exact(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.exact(p("10.0.0.0/8")) == "a"
        assert trie.exact(p("10.0.0.0/16")) is None

    def test_longest_prefix_match(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "short")
        trie.insert(p("10.1.0.0/16"), "long")
        hit = trie.lookup(IPAddress.parse("10.1.2.3"))
        assert hit == (p("10.1.0.0/16"), "long")
        hit = trie.lookup(IPAddress.parse("10.2.2.3"))
        assert hit == (p("10.0.0.0/8"), "short")

    def test_lookup_miss(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.lookup(IPAddress.parse("11.0.0.1")) is None

    def test_default_route(self):
        trie = PrefixTrie(4)
        trie.insert(p("0.0.0.0/0"), "default")
        assert trie.lookup(IPAddress.parse("8.8.8.8")) == (p("0.0.0.0/0"), "default")

    def test_replace_value(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        trie.insert(p("10.0.0.0/8"), "b")
        assert trie.exact(p("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.remove(p("10.0.0.0/8"))
        assert not trie.remove(p("10.0.0.0/8"))
        assert trie.lookup(IPAddress.parse("10.0.0.1")) is None
        assert len(trie) == 0

    def test_remove_missing_deep(self):
        trie = PrefixTrie(4)
        assert not trie.remove(p("10.0.0.0/24"))

    def test_covering_requires_full_containment(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/16"), "a")
        assert trie.covering(p("10.0.1.0/24")) == (p("10.0.0.0/16"), "a")
        # The /8 is wider than the stored /16: no entry covers it fully.
        assert trie.covering(p("10.0.0.0/8")) is None

    def test_covering_exact(self):
        trie = PrefixTrie(4)
        trie.insert(p("10.0.0.0/16"), "a")
        assert trie.covering(p("10.0.0.0/16")) == (p("10.0.0.0/16"), "a")

    def test_version_checks(self):
        trie = PrefixTrie(4)
        with pytest.raises(AddressError):
            trie.insert(p("2001:db8::/32"), "x")
        with pytest.raises(AddressError):
            trie.lookup(IPAddress.parse("::1"))

    def test_items_roundtrip(self):
        trie = PrefixTrie(4)
        inserted = {p("10.0.0.0/8"): 1, p("10.1.0.0/16"): 2, p("192.0.2.0/24"): 3}
        for prefix, value in inserted.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == inserted

    def test_v6_lookup(self):
        trie = PrefixTrie(6)
        trie.insert(p("2001:db8::/32"), "doc")
        hit = trie.lookup(IPAddress.parse("2001:db8::42"))
        assert hit == (p("2001:db8::/32"), "doc")

    def test_bad_version_construction(self):
        with pytest.raises(AddressError):
            PrefixTrie(7)


class TestDualStackTrie:
    def test_routes_by_version(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        trie.insert(p("2001:db8::/32"), "v6")
        assert trie.lookup(IPAddress.parse("10.1.1.1"))[1] == "v4"
        assert trie.lookup(IPAddress.parse("2001:db8::1"))[1] == "v6"
        assert len(trie) == 2

    def test_items_spans_versions(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        trie.insert(p("2001:db8::/32"), "v6")
        assert len(list(trie.items())) == 2

    def test_remove(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        assert trie.remove(p("10.0.0.0/8"))
        assert len(trie) == 0

    def test_match_is_value_only(self):
        trie = DualStackTrie()
        trie.insert(p("10.0.0.0/8"), "v4")
        trie.insert(p("10.1.0.0/16"), "v4-long")
        trie.insert(p("2001:db8::/32"), "v6")
        v4 = IPAddress.parse("10.1.2.3")
        assert trie.match(4, v4.value) == "v4-long"
        assert trie.match(4, v4.value, 8) == "v4"
        assert trie.match(6, IPAddress.parse("2001:db8::1").value) == "v6"
        assert trie.match(6, IPAddress.parse("2001:db9::1").value) is None


# ----------------------------------------------------------------------
# Property: the table agrees with a brute-force dict under mixed edits
# ----------------------------------------------------------------------


@st.composite
def trie_scenarios(draw):
    """A version, a list of insert/replace/remove edits and probe prefixes.

    Prefixes are truncations of a few base addresses, so entries nest,
    repeat (replace) and get removed far more often than random prefixes
    would allow, most of all in IPv6.
    """
    version = draw(st.sampled_from((4, 6)))
    bits = 32 if version == 4 else 128
    bases = draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=4)
    )
    prefixes = st.tuples(st.sampled_from(bases), st.integers(0, bits)).map(
        lambda t: Prefix.from_address(IPAddress(version, t[0]), t[1])
    )
    edits = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), prefixes, st.integers(0, 9)),
                st.tuples(st.just("remove"), prefixes, st.none()),
            ),
            min_size=1,
            max_size=40,
        )
    )
    probes = draw(st.lists(prefixes, min_size=1, max_size=8))
    return version, edits, probes


def _brute_best(table, value, max_length):
    """Longest dict entry no longer than ``max_length`` containing ``value``."""
    best = None
    for prefix, stored in table.items():
        if prefix.length <= max_length and prefix.contains_value(value):
            if best is None or prefix.length > best[0].length:
                best = (prefix, stored)
    return best


def _value_of(hit):
    return None if hit is None else hit[1]


@given(trie_scenarios())
def test_trie_matches_bruteforce(scenario):
    version, edits, probes = scenario
    bits = 32 if version == 4 else 128
    trie = PrefixTrie(version)
    table = {}
    for op, prefix, value in edits:
        if op == "insert":
            trie.insert(prefix, value)
            table[prefix] = value  # a later insert replaces, as in the trie
        else:
            assert trie.remove(prefix) == (prefix in table)
            table.pop(prefix, None)
    assert len(trie) == len(table)
    assert list(trie.items()) == sorted(
        table.items(), key=lambda item: (item[0].value, item[0].length)
    )
    for _op, prefix, _value in edits:
        assert trie.exact(prefix) == table.get(prefix)
    for probe in probes:
        # Address probes: the probe's first address and a host inside it.
        for value in (probe.value, probe.broadcast_value):
            expected = _brute_best(table, value, bits)
            assert trie.lookup_value(value) == expected
            assert trie.lookup(IPAddress(version, value)) == expected
            assert trie.match(value) == _value_of(expected)
        expected = _brute_best(table, probe.value, probe.length)
        assert trie.covering(probe) == expected
        assert trie.match(probe.value, probe.length) == _value_of(expected)
