"""Longest-prefix-match table over IP prefixes.

Used for BGP routing-table lookups, geolocation-database lookups, and
egress-list membership tests.  One table instance handles a single IP
version; :class:`DualStackTrie` bundles one of each.

The table keeps one exact-match dict per prefix length, keyed by the
prefix's network bits (``value >> (bits - length)``) and holding the
inserted ``(prefix, value)`` pair, plus the occupied lengths in
descending order.  Inserts, removals and exact lookups are one dict
operation; a longest-prefix match probes the occupied lengths from the
longest down and stops at the first hit.  Real tables use few distinct
lengths (about a dozen for BGP), so a match costs a handful of dict
probes instead of one node hop per bit, and hands back the stored pair
without building a :class:`Prefix`.  :meth:`PrefixTrie.match` returns
only the value, for callers that never look at the matched prefix.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Generic, Iterator, TypeVar

from repro.errors import AddressError
from repro.netmodel.addr import IPAddress, Prefix

V = TypeVar("V")


class PrefixTrie(Generic[V]):
    """Maps prefixes of a single IP version to values, with LPM lookup."""

    def __init__(self, version: int) -> None:
        if version not in (4, 6):
            raise AddressError(f"IP version must be 4 or 6, got {version}")
        self.version = version
        self._bits = 32 if version == 4 else 128
        # length -> {network bits: (prefix, value)}; no empty tables.
        self._tables: dict[int, dict[int, tuple[Prefix, V]]] = {}
        # The keys of _tables, longest first.
        self._lengths: list[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _check(self, prefix: Prefix) -> None:
        if prefix.version != self.version:
            raise AddressError(
                f"IPv{prefix.version} prefix in IPv{self.version} trie"
            )

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        self._check(prefix)
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._lengths = sorted(self._tables, reverse=True)
        key = prefix.value >> (self._bits - prefix.length)
        if key not in table:
            self._size += 1
        table[key] = (prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Remove the exact prefix; returns whether it was present."""
        self._check(prefix)
        table = self._tables.get(prefix.length)
        key = prefix.value >> (self._bits - prefix.length)
        if table is None or key not in table:
            return False
        del table[key]
        self._size -= 1
        if not table:
            del self._tables[prefix.length]
            self._lengths.remove(prefix.length)
        return True

    def exact(self, prefix: Prefix) -> V | None:
        """The value stored exactly at ``prefix``, or None."""
        self._check(prefix)
        table = self._tables.get(prefix.length)
        if table is None:
            return None
        hit = table.get(prefix.value >> (self._bits - prefix.length))
        return None if hit is None else hit[1]

    def _probe(self, value: int, max_length: int) -> tuple[Prefix, V] | None:
        """The longest stored pair whose prefix contains ``value`` and is
        no longer than ``max_length``."""
        tables, bits = self._tables, self._bits
        for length in self._lengths:
            if length <= max_length:
                hit = tables[length].get(value >> (bits - length))
                if hit is not None:
                    return hit
        return None

    def match(self, value: int, length: int | None = None) -> V | None:
        """Value of the longest entry containing the integer ``value``.

        With ``length``, only entries no longer than ``length`` count, as
        in :meth:`covering`.  Returns None on a miss.
        """
        hit = self._probe(value, self._bits if length is None else length)
        return None if hit is None else hit[1]

    def lookup_value(self, address_value: int) -> tuple[Prefix, V] | None:
        """Longest-prefix match for an integer address value."""
        return self._probe(address_value, self._bits)

    def lookup(self, address: IPAddress) -> tuple[Prefix, V] | None:
        """Longest-prefix match for an :class:`IPAddress`."""
        if address.version != self.version:
            raise AddressError(
                f"IPv{address.version} address in IPv{self.version} trie"
            )
        return self._probe(address.value, self._bits)

    def covering(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The longest stored prefix that covers all of ``prefix``.

        Matches only entries whose length is <= ``prefix.length`` — i.e. the
        route that would carry traffic for the whole block.
        """
        self._check(prefix)
        return self._probe(prefix.value, prefix.length)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Iterate all (prefix, value) pairs in preorder.

        Preorder of the binary prefix tree: by network value, and a
        prefix before the longer prefixes sharing its network value.
        """
        bits = self._bits
        entries = [
            (key << (bits - length), length, pair)
            for length, table in self._tables.items()
            for key, pair in table.items()
        ]
        entries.sort(key=itemgetter(0, 1))
        for _network, _length, pair in entries:
            yield pair


class DualStackTrie(Generic[V]):
    """A pair of tables, one per IP version, with a unified interface."""

    def __init__(self) -> None:
        self._tries = {4: PrefixTrie[V](4), 6: PrefixTrie[V](6)}

    def __len__(self) -> int:
        return len(self._tries[4]) + len(self._tries[6])

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        self._tries[prefix.version].insert(prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Remove the exact prefix; returns whether it was present."""
        return self._tries[prefix.version].remove(prefix)

    def exact(self, prefix: Prefix) -> V | None:
        """The value stored exactly at ``prefix``, or None."""
        return self._tries[prefix.version].exact(prefix)

    def match(self, version: int, value: int, length: int | None = None) -> V | None:
        """:meth:`PrefixTrie.match` in the table of one IP version."""
        return self._tries[version].match(value, length)

    def lookup(self, address: IPAddress) -> tuple[Prefix, V] | None:
        """Longest-prefix match for an address of either version."""
        return self._tries[address.version].lookup(address)

    def covering(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The longest stored prefix covering all of ``prefix``."""
        return self._tries[prefix.version].covering(prefix)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs: IPv4 first, each in preorder."""
        yield from self._tries[4].items()
        yield from self._tries[6].items()
