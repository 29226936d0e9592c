"""§6g zero-copy UPDATE encode: byte-identical, bounded, clearable."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.errors import NotificationError
from repro.bgp.messages import (
    MARKER,
    MAX_MESSAGE_SIZE,
    MSG_UPDATE,
    UpdateMessage,
    _ENCODE_BUFFER,
    _encode_attributes_uncached,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix

ATTRS = PathAttributes(
    origin=Origin.IGP,
    as_path=AsPath.from_asns(64500, 64501),
    next_hop=IPv4Address.parse("192.0.2.1"),
)


def _prefixes(max_size):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=32),
            st.sampled_from([None, 0, 1, 77]),
        ),
        min_size=0, max_size=max_size,
    ).map(lambda items: tuple(
        (IPv4Prefix(IPv4Address(value & (((1 << length) - 1)
                                         << (32 - length))), length), pid)
        for value, length, pid in items
    ))


def _reference_encode(message, addpath):
    """RFC 4271 §4.3 UPDATE layout (plus RFC 7911 path ids), spelled out
    with plain joins: the oracle for the in-place encoder."""

    def nlri(pairs):
        out = b""
        for prefix, path_id in pairs:
            if addpath:
                out += struct.pack("!I", path_id or 0)
            out += bytes([prefix.length])
            out += prefix.network.packed()[:(prefix.length + 7) // 8]
        return out

    withdrawn = nlri(message.withdrawn)
    attrs = (_encode_attributes_uncached(message.attributes)
             if message.nlri else b"")
    body = (struct.pack("!H", len(withdrawn)) + withdrawn
            + struct.pack("!H", len(attrs)) + attrs + nlri(message.nlri))
    return MARKER + struct.pack("!HB", 19 + len(body), MSG_UPDATE) + body


@given(nlri=_prefixes(12), withdrawn=_prefixes(12), addpath=st.booleans())
@settings(max_examples=120, deadline=None)
def test_zero_copy_matches_reference_encoder(nlri, withdrawn, addpath):
    message = UpdateMessage(
        attributes=ATTRS if nlri else None, nlri=nlri, withdrawn=withdrawn,
    )
    reference = _reference_encode(message, addpath)
    assert message.encode(addpath) == reference
    perf.clear_caches()
    fresh = UpdateMessage(
        attributes=ATTRS if nlri else None, nlri=nlri, withdrawn=withdrawn,
    )
    assert fresh.encode(addpath) == reference
    assert UpdateMessage.decode(reference[19:], addpath) is not None


def test_end_of_rib_identical():
    assert UpdateMessage.end_of_rib().encode() == (
        MARKER + bytes([0, 23, MSG_UPDATE, 0, 0, 0, 0]))


def test_snapshots_survive_buffer_reuse():
    """The escaping bytes are immutable snapshots: a later encode into
    the shared buffer must not corrupt an earlier result."""
    p1 = IPv4Prefix.parse("198.51.100.0/24")
    p2 = IPv4Prefix.parse("203.0.113.0/24")
    first = UpdateMessage(attributes=ATTRS, nlri=((p1, None),)).encode()
    copy = bytes(first)
    second = UpdateMessage(attributes=ATTRS,
                           nlri=((p2, None), (p1, None))).encode()
    assert first == copy
    assert first != second


def test_oversize_message_raises_in_both_modes():
    nlri = tuple(
        (IPv4Prefix(IPv4Address((10 << 24) + (i << 8)), 24), None)
        for i in range(1400)
    )
    for addpath in (False, True):
        with pytest.raises(NotificationError):
            UpdateMessage(attributes=ATTRS, nlri=nlri).encode(addpath)


def test_encode_buffer_registered_with_cache_clearers():
    with perf.flags(shards=1):
        UpdateMessage(
            attributes=ATTRS,
            nlri=((IPv4Prefix.parse("198.51.100.0/24"), None),),
        ).encode()
        # Retains the last encode until the next reset…
        assert len(_ENCODE_BUFFER) > 0
        # …and clear_caches() (also run on every perf.flags() exit)
        # empties it.
        perf.clear_caches()
        assert len(_ENCODE_BUFFER) == 0
        wire = UpdateMessage.end_of_rib().encode()
        assert len(wire) <= MAX_MESSAGE_SIZE
    assert len(_ENCODE_BUFFER) == 0  # flags-exit clears it too
