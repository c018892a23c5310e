"""Envelopes of values: the simulator hands a receiver the values a send
carried, and that must be exactly what the codec would have made of them.

A receiver whose schema is the send's own gets the values; any other
schema, and any value the codec refuses, must fail exactly as it does over
TCP, where every envelope is framed into bytes.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from obfw.net import (
    Envelope,
    Group,
    PartyTimeout,
    SimNetwork,
    build_mesh,
    decode_elements,
    encode_elements,
    group_addr32,
    group_index,
    group_z2,
    group_zn_compare,
    group_zp,
    recv,
    run_session,
    run_tcp_session,
    send,
)
from obfw.net.envelope import frame
from obfw.net.groups import _CHUNK_BITS, CodecError
from obfw.net.transcript import Transcript

GROUPS = [group_zp(251), group_zp(2 ** 31 - 1), group_zn_compare(257, 8),
          group_zn_compare(65537, 16), group_z2(), group_index(95850),
          group_index(10), group_addr32()]


@st.composite
def _send_segments(draw):
    """1-3 segments of 0-300 values each, so that payloads fall on both
    sides of _CHUNK_BITS."""
    segs = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(GROUPS))
        n = draw(st.integers(0, 300))
        segs.append((g, draw(st.lists(st.integers(0, g.modulus - 1),
                                      min_size=n, max_size=n))))
    return segs


@st.composite
def _other_schema(draw, segs):
    """The send's schema with one segment changed: its count off by one,
    or its group replaced by another of the same wire width."""
    schema = [(g, len(v)) for g, v in segs]
    k = draw(st.integers(0, len(schema) - 1))
    g, n = schema[k]
    if draw(st.booleans()):
        n = n + 1 if n == 0 or draw(st.booleans()) else n - 1
    else:
        w = g.raw_bits
        modulus = draw(st.integers((1 << (w - 1)) + 1, 1 << w))
        g = draw(st.sampled_from([group_index(modulus),
                                  Group("other", modulus, w, w)]))
    schema[k] = (g, n)
    return schema


def _pair(segs, schema):
    """Party 1 sends `segs` at step 1; party 2 reads them as `schema`."""
    def sender():
        yield from send(2, 1, segs)

    def receiver():
        return (yield from recv(1, 1, schema))
    return {1: sender(), 2: receiver()}


def _codec_outcome(segs, schema):
    """What a receiver gets when the values go through the codec: the
    decoded values, or the PartyTimeout text of the failure."""
    try:
        return "ok", decode_elements(encode_elements(segs), schema)
    except CodecError as exc:
        return "fail", f"party 2: step 1 from party 1 does not decode: {exc}"


def _sim_outcome(segs, schema):
    net = run_session(_pair(segs, schema))
    if 2 in net.errors:
        assert isinstance(net.errors[2], PartyTimeout)
        return "fail", str(net.errors[2])
    return "ok", net.results[2]


@pytest.fixture(scope="module")
def mesh():
    nodes = build_mesh([1, 2], timeout=5)
    yield nodes, itertools.count(1000)
    for node in nodes.values():
        node.close()


def _tcp_outcome(mesh, segs, schema):
    nodes, sessions = mesh
    results, errors, _ = run_tcp_session(nodes, _pair(segs, schema),
                                         next(sessions), 1)
    if 2 in errors:
        assert isinstance(errors[2], PartyTimeout)
        return "fail", str(errors[2])
    return "ok", results[2]


class TestHandover:
    @settings(max_examples=150, deadline=None)
    @given(_send_segments())
    def test_receiver_gets_what_the_codec_gives(self, segs):
        schema = [(g, len(v)) for g, v in segs]
        outcome = _sim_outcome(segs, schema)
        assert outcome == ("ok", decode_elements(encode_elements(segs), schema))
        assert outcome == ("ok", [list(v) for _, v in segs])

    def test_payloads_fall_on_both_sides_of_the_chunk(self):
        zp = group_zp(2 ** 31 - 1)          # 31 bits a value
        for n in (33, 34):                   # 1023 and 1054 bits
            segs = [(zp, list(range(n)))]
            assert _sim_outcome(segs, [(zp, n)]) == ("ok", [list(range(n))])
        assert 33 * 31 < _CHUNK_BITS < 34 * 31

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_other_schema_fails_as_over_tcp(self, mesh, data):
        segs = data.draw(_send_segments())
        schema = data.draw(_other_schema(segs))
        expected = _codec_outcome(segs, schema)
        assert _sim_outcome(segs, schema) == expected
        assert _tcp_outcome(mesh, segs, schema) == expected

    @pytest.mark.parametrize("schema", [
        [(group_zp(251), 4)],                       # one value short
        [(group_zp(251), 6)],                       # one value over
        [(group_index(200), 5)],                    # 8 bits, a smaller range
        [(Group("zp", 251, 8, 8), 5)],              # an equal, uncached group
    ])
    def test_named_mismatches_fail_as_over_tcp(self, mesh, schema):
        segs = [(group_zp(251), [1, 2, 3, 4, 250])]
        expected = _codec_outcome(segs, schema)
        assert _sim_outcome(segs, schema) == expected
        assert _tcp_outcome(mesh, segs, schema) == expected
        if schema[0][1] != 5:
            assert expected[0] == "fail"


def _mutating_sender(how):
    """Sends [1, 2, 3], then changes the list before the receiver reads it."""
    zp = group_zp(251)
    vals = [1, 2, 3]
    yield from send(2, 1, [(zp, vals)])
    if how == "append":
        vals.append(4)
    elif how == "overwrite":
        vals[0] = 200
    (ack,) = yield from recv(2, 2, [(zp, 1)])
    return ack


def _acking_receiver():
    zp = group_zp(251)
    (got,) = yield from recv(1, 1, [(zp, 3)])
    yield from send(1, 2, [(zp, [0])])
    return got


def _run(transport, programs, mesh=None):
    if transport == "sim":
        net = run_session(programs)
        return net.results, net.errors, net.transcript
    nodes, sessions = mesh
    return run_tcp_session(nodes, programs, next(sessions), 1)


class TestSendIsFixedWhenYielded:
    @pytest.mark.parametrize("how", ["append", "overwrite"])
    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_later_change_reaches_no_one(self, mesh, transport, how):
        results, errors, tr = _run(
            transport, {1: _mutating_sender(how), 2: _acking_receiver()}, mesh)
        assert errors == {}
        assert results[2] == [1, 2, 3]
        _, _, untouched = _run(
            transport, {1: _mutating_sender(None), 2: _acking_receiver()}, mesh)
        assert tr.payload_digest() == untouched.payload_digest()

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_digest_hashes_the_values_at_the_send(self, mesh, transport):
        _, _, tr = _run(
            transport, {1: _mutating_sender("overwrite"), 2: _acking_receiver()},
            mesh)
        zp = group_zp(251)
        expected = Transcript()
        expected.record_send(1, 2, 1, 24, 24,
                             payload=encode_elements([(zp, [1, 2, 3])]))
        expected.record_send(2, 1, 2, 8, 8, payload=encode_elements([(zp, [0])]))
        assert tr.payload_digest() == expected.payload_digest()


def _refused_outcome(values):
    """encode_elements's exception for `values` in Z_251, as (type, text)."""
    with pytest.raises(Exception) as caught:
        encode_elements([(group_z2(), [1]), (group_zp(251), values)])
    return type(caught.value), str(caught.value)


class TestRefusedValueFailsAtTheSend:
    BAD = [[5, 300], [-1], [1.5], [7, 2.0], [1e9], ["3"]]

    @pytest.mark.parametrize("values", BAD)
    def test_sim(self, values):
        kind, text = _refused_outcome(values)
        net = SimNetwork()
        segs = [(group_z2(), [1]), (group_zp(251), values)]
        net.add_party(1, _pair(segs, [(group_z2(), 1), (group_zp(251), 1)])[1])
        with pytest.raises(kind) as caught:
            net.run()
        assert str(caught.value) == text
        assert net.transcript.messages == 0

    @pytest.mark.parametrize("values", BAD)
    def test_tcp(self, mesh, values):
        kind, text = _refused_outcome(values)
        nodes, sessions = mesh
        segs = [(group_z2(), [1]), (group_zp(251), values)]
        programs = _pair(segs, [(group_z2(), 1), (group_zp(251), 1)])
        del programs[2]
        _, errors, _ = run_tcp_session(nodes, programs, next(sessions), 1)
        assert type(errors[1]) is kind and str(errors[1]) == text

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_bool_arrives_as_the_int_the_codec_gives(self, mesh, transport):
        segs = [(group_z2(), [True, False, 1])]
        results, errors, _ = _run(transport, _pair(segs, [(group_z2(), 3)]), mesh)
        assert errors == {}
        assert results[2] == [[1, 0, 1]]
        assert [type(v) for v in results[2][0]] == [int, int, int]


class TestEnvelopeOfValues:
    def test_frame_encodes_once_and_keeps_the_bytes(self):
        segs = [(group_zp(251), [1, 2, 3]), (group_z2(), [1])]
        env = Envelope(4, 1, 9, 2, None, segs)
        record = frame(env)
        assert env.payload == encode_elements(segs) and env.segments is None
        assert record == frame(Envelope(4, 1, 9, 2, encode_elements(segs)))

    def test_values_are_fresh_lists(self):
        zp = group_zp(251)
        env = Envelope(4, 1, 9, 2, None, [(zp, [1, 2])])
        env.freeze()
        first = env.values([(zp, 2)])
        first[0].append(3)
        assert env.values([(zp, 2)]) == [[1, 2]]
        assert env.packed() == encode_elements([(zp, [1, 2])])


class TestTranscriptViews:
    def test_views_follow_later_records(self):
        tr = Transcript()
        tr.record_send(1, 2, 1, 8, 8, payload=b"x")
        assert (tr.accounting_total(), tr.messages, tr.rounds()) == (8, 1, 1)
        tr.record_recv(1, 2, 2)
        tr.record_send(1, 2, 3, 5, 6, payload=b"y")
        assert (tr.accounting_total(), tr.raw_total(), tr.messages) == (13, 14, 2)
        assert [e.kind for e in tr.party_events[1]] == ["S", "R", "S"]
        assert tr.rounds() == 2
