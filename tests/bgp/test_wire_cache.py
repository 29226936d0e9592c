"""Encode memoization and attribute interning.

Both must be *invisible*: cached encodes are byte-identical to a first,
cold encode, and interning only changes object identity, never values.
"""

from repro import perf
from repro.bgp.attributes import (
    AsPath,
    Community,
    PathAttributes,
    Route,
    intern_as_path,
    intern_attributes,
)
from repro.bgp.messages import MessageDecoder, UpdateMessage
from repro.netsim.addr import IPv4Address, IPv4Prefix


def _sample_attributes(seed: int = 0) -> PathAttributes:
    return PathAttributes(
        as_path=AsPath.from_asns(65000 + seed, 64512, 3356),
        next_hop=IPv4Address.parse("10.0.0.1"),
        med=seed,
        communities=frozenset({Community(47065, seed)}),
    )


def _sample_update(seed: int = 0) -> UpdateMessage:
    routes = [
        Route(
            prefix=IPv4Prefix.parse(f"10.{seed}.{i}.0/24"),
            attributes=_sample_attributes(seed),
            path_id=i + 1,
        )
        for i in range(4)
    ]
    return UpdateMessage.announce(routes)


class TestEncodeMemoization:
    def test_cached_encode_is_byte_identical(self):
        update = _sample_update()
        warm_no_ap = update.encode(addpath=False)
        warm_ap = update.encode(addpath=True)
        perf.clear_caches()
        assert _sample_update().encode(addpath=False) == warm_no_ap
        assert _sample_update().encode(addpath=True) == warm_ap
        assert update.encode(addpath=True) == warm_ap

    def test_repeat_encode_returns_cached_object(self):
        update = _sample_update()
        first = update.encode(addpath=True)
        assert update.encode(addpath=True) is first
        # Different addpath mode is cached independently.
        other = update.encode(addpath=False)
        assert other != first
        assert update.encode(addpath=False) is other

    def test_shared_attributes_roundtrip(self):
        """Two messages with equal attributes decode identically whether
        the attribute wire cache is warm or cold."""
        update = _sample_update(seed=3)
        wire = update.encode(addpath=True)
        for _ in range(2):
            decoder = MessageDecoder()
            decoder.addpath = True
            decoder.feed(wire)
            decoded = decoder.next_message()
            assert decoded.attributes == update.attributes
            assert decoded.nlri == update.nlri
            assert decoded.encode(addpath=True) == wire
            perf.clear_caches()


class TestInterning:
    def test_intern_attributes_identity(self):
        first = intern_attributes(_sample_attributes(7))
        second = intern_attributes(_sample_attributes(7))
        assert first is second

    def test_intern_as_path_identity(self):
        first = intern_as_path(AsPath.from_asns(1, 2, 3))
        second = intern_as_path(AsPath.from_asns(1, 2, 3))
        assert first is second

    def test_decode_pools_equal_attribute_sets(self):
        wire = _sample_update(seed=5).encode(addpath=True)
        decoded = []
        for _ in range(2):
            decoder = MessageDecoder()
            decoder.addpath = True
            decoder.feed(wire)
            decoded.append(decoder.next_message())
        assert decoded[0].attributes is decoded[1].attributes

    def test_interning_never_changes_value(self):
        attrs = _sample_attributes(11)
        assert intern_attributes(attrs) == attrs


class TestFlagHygiene:
    def test_flags_context_restores(self):
        before = perf.FLAGS
        with perf.flags(shards=2, shard_seed=7):
            assert perf.FLAGS.shards == 2
            assert perf.FLAGS.shard_seed == 7
        assert perf.FLAGS == before

    def test_cache_cleared_on_flag_change(self):
        from repro.bgp import messages

        with perf.flags(shards=2):
            update = _sample_update(seed=13)
            update.encode(addpath=True)
            assert messages._ATTR_WIRE_CACHE
        # Leaving the context clears the module-level caches.
        assert not messages._ATTR_WIRE_CACHE
