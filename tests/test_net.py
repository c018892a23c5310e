"""Transport layer: codec, envelope framing, simulator, TCP equivalence."""
import logging
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from obfw.net import (
    Deadlock,
    Endpoint,
    Envelope,
    FrameCorrupt,
    PartyTimeout,
    Send,
    TcpNode,
    OutOfRange,
    TruncatedPayload,
    build_mesh,
    decode_elements,
    encode_elements,
    group_addr32,
    group_index,
    group_shift,
    group_z2,
    group_zn2,
    group_zn_compare,
    group_zp,
    recv,
    rewrite_sends,
    run_session,
    run_tcp_session,
    send,
)
from obfw.net.envelope import (HEADER_LEN, MAX_FRAME, frame, take_frames,
                               PROTO_SC_SEMI_HONEST)
from obfw.net.groups import _CHUNK_BITS, Group
from obfw.net.tcp import FORGET_AFTER, TICK
from obfw.rng import RandomSource


class TestCodec:
    def test_z2_vector_padding(self):
        # l = 8: nine Z2 bits -> 9 payload bits in 2 bytes, 7 zero pads.
        payload = encode_elements([(group_z2(), [1] * 9)])
        assert len(payload) == 2
        assert payload == b"\xff\x01"
        [bits] = decode_elements(payload, [(group_z2(), 9)])
        assert bits == [1] * 9

    def test_zn2_width(self):
        # l = 8, N2 = 17: nine elements at 2+3 bits each = 45 bits.
        g = group_zn2(17, 8)
        assert g.accounting_bits == 5
        payload = encode_elements([(g, list(range(9)))])
        assert len(payload) == (45 + 7) // 8

    def test_zn_accounting_vs_raw(self):
        g = group_zn_compare(257, 8)
        assert g.accounting_bits == 8 and g.raw_bits == 9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            encode_elements([(group_z2(), [2])])
        with pytest.raises(TruncatedPayload):
            decode_elements(b"\x03", [(group_z2(), 1)])  # nonzero pad bit

    def test_truncated(self):
        with pytest.raises(TruncatedPayload):
            decode_elements(b"\x00", [(group_zp(251), 2)])

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip_mixed_groups(self, data):
        groups = [group_z2(), group_zn2(17, 8), group_zn_compare(257, 8),
                  group_shift(8), group_zp(251)]
        segs = []
        for g in groups:
            vals = data.draw(st.lists(st.integers(0, g.modulus - 1), max_size=6))
            segs.append((g, vals))
        payload = encode_elements(segs)
        decoded = decode_elements(payload, [(g, len(v)) for g, v in segs])
        assert decoded == [v for _, v in segs]

    def test_large_mixed_widths_round_trip(self):
        # 8 * 10^4 elements at widths 1 to 32, odd segment lengths: the
        # bytes equal a bit-string packing, and decoding gives them back.
        rng = RandomSource("codec")
        groups = [group_z2(), group_zn2(17, 8), group_zn_compare(257, 8),
                  group_shift(8), group_zp(251), group_zp(2 ** 31 - 1),
                  group_addr32(), group_index(95850)]
        sizes = [16001, 9999, 10000, 10001, 8000, 9003, 7777, 9219]
        assert sum(sizes) == 80000
        segs = [(g, rng.randbelow_many(g.modulus, n)) for g, n in zip(groups, sizes)]
        bits = "".join(format(v, f"0{g.raw_bits}b")[::-1]
                       for g, vals in segs for v in vals)
        bits += "0" * (-len(bits) % 8)
        expected = int(bits[::-1], 2).to_bytes(len(bits) // 8, "little")
        payload = encode_elements(segs)
        assert payload == expected
        assert decode_elements(payload, [(g, len(v)) for g, v in segs]) == \
            [v for _, v in segs]

    def test_decode_rejects_value_outside_group(self):
        with pytest.raises(OutOfRange):
            decode_elements(bytes([250, 251]), [(group_zp(251), 2)])


def _encode_per_element(segments):
    """The per-element codec: check each value, then OR it into one int."""
    acc = nbits = 0
    for group, values in segments:
        for v in values:
            group.check(v)
            acc |= v << nbits
            nbits += group.raw_bits
    return acc.to_bytes((nbits + 7) // 8, "little") if nbits else b""


def _decode_per_element(payload, schema):
    total_bits = sum(g.raw_bits * n for g, n in schema)
    if len(payload) != (total_bits + 7) // 8:
        raise TruncatedPayload(
            f"payload {len(payload)}B does not match schema {(total_bits + 7) // 8}B")
    if total_bits % 8 and payload[-1] >> (total_bits % 8):
        raise TruncatedPayload("nonzero padding bits")
    bits, out = int.from_bytes(payload, "little"), []
    for group, count in schema:
        vals = []
        for _ in range(count):
            v = bits & ((1 << group.raw_bits) - 1)
            group.check(v)
            vals.append(v)
            bits >>= group.raw_bits
        out.append(vals)
    return out


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:    # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


@st.composite
def _segments(draw):
    """1-4 segments of widths 1-64; some payloads pass _CHUNK_BITS."""
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.integers(1, 64))
        modulus = draw(st.integers(1, 1 << w))
        count = draw(st.integers(0, 40))
        values = draw(st.lists(st.integers(0, modulus - 1),
                               min_size=count, max_size=count))
        segs.append((Group(f"w{w}", modulus, w, w), values))
    return segs


class TestCodecOracle:
    @settings(max_examples=200)
    @given(_segments())
    def test_encode_and_decode_match_per_element_codec(self, segs):
        payload = encode_elements(segs)
        assert payload == _encode_per_element(segs)
        schema = [(g, len(v)) for g, v in segs]
        assert decode_elements(payload, schema) == [v for _, v in segs]

    @settings(max_examples=200)
    @given(st.data())
    def test_decode_of_any_bytes_matches_per_element_codec(self, data):
        # Random bytes give out-of-range values and nonzero padding too.
        schema = [(g, len(v)) for g, v in data.draw(_segments())]
        size = (sum(g.raw_bits * n for g, n in schema) + 7) // 8
        payload = data.draw(st.binary(min_size=size, max_size=size))
        assert _outcome(decode_elements, payload, schema) == \
            _outcome(_decode_per_element, payload, schema)

    def test_long_payloads_match_per_element_codec(self):
        rng = RandomSource("long")
        for n in (15, 16, 17, 33, 200):     # 64 * 16 bits is _CHUNK_BITS
            groups = [Group("w64", 1 << 64, 64, 64), group_zp(251), group_z2()]
            segs = [(g, rng.randbelow_many(g.modulus, n)) for g in groups]
            payload = encode_elements(segs)
            assert payload == _encode_per_element(segs)
            schema = [(g, n) for g in groups]
            assert decode_elements(payload, schema) == [v for _, v in segs]
        assert len(payload) * 8 > 2 * _CHUNK_BITS

    @pytest.mark.parametrize("count", [3, 300])   # one int, sliding window
    def test_first_value_out_of_range_is_named(self, count):
        zp = group_zp(251)
        values = [5] * count
        values[1], values[-1] = 300, 999
        with pytest.raises(OutOfRange, match=r"^300 outside zp"):
            encode_elements([(group_z2(), [1, 0]), (zp, values)])
        with pytest.raises(OutOfRange, match=r"^-1 outside zp"):
            encode_elements([(zp, [0, -1, 300])])
        wide = Group("byte", 256, 8, 8)
        payload = encode_elements([(group_z2(), [1]), (wide, [5, 252, 255] + [0] * count)])
        with pytest.raises(OutOfRange, match=r"^252 outside zp"):
            decode_elements(payload, [(group_z2(), 1), (zp, 3 + count)])


    # The last payload of one int and the first of the sliding window.
    @pytest.mark.parametrize("bits", [_CHUNK_BITS - 1, _CHUNK_BITS + 1])
    def test_nonzero_padding_bit_is_refused(self, bits):
        schema = [(group_z2(), bits)]
        payload = bytearray((bits + 7) // 8)
        assert decode_elements(bytes(payload), schema) == [[0] * bits]
        payload[-1] = 0x80          # the top padding bit
        with pytest.raises(TruncatedPayload, match="padding"):
            decode_elements(bytes(payload), schema)


class TestEnvelope:
    def test_round_trip(self):
        env = Envelope(4, 7, 0x1122334455667788, 2, b"\x01\x02\x03")
        assert Envelope.decode(env.encode()) == env

    def test_exact_byte_layout(self):
        raw = Envelope(4, 7, 0x1122334455667788, 2, b"\x01\x02\x03").encode()
        assert raw[0] == 4 and raw[1] == 7
        assert raw[2:10] == (0x1122334455667788).to_bytes(8, "little")
        assert raw[10] == 2
        assert raw[11:15] == (3).to_bytes(4, "little")
        assert raw[15:] == b"\x01\x02\x03"

    def test_frame_round_trip(self):
        env = Envelope(9, 1, 5, 0, b"payload")
        buf = bytearray(frame(env))
        assert take_frames(buf) == [env]
        assert buf == bytearray()

    def test_bad_magic(self):
        with pytest.raises(FrameCorrupt):
            take_frames(bytearray(b"XXXX" + bytes(8)))
        # Raised as soon as the magic is in.
        with pytest.raises(FrameCorrupt):
            take_frames(bytearray(b"XXXX"))

    def test_take_frames_keeps_partial_record(self):
        a, b = Envelope(9, 1, 5, 0, b"x"), Envelope(9, 2, 5, 1, b"yz")
        buf, got = bytearray(), []
        for byte in frame(a) + frame(b):
            buf.append(byte)
            got += take_frames(buf)
        assert got == [a, b]
        assert buf == bytearray()

    def test_bad_length(self):
        env = Envelope(9, 1, 5, 0, b"payload")
        raw = env.encode()
        with pytest.raises(FrameCorrupt):
            Envelope.decode(raw[:-1])
        # A record whose length covers one byte less than its envelope.
        short = frame(env)[:-1]
        short = short[:4] + (len(raw) - 1).to_bytes(4, "little") + short[8:]
        with pytest.raises(FrameCorrupt):
            take_frames(bytearray(short))
        # An implausible length is refused from the header alone.
        with pytest.raises(FrameCorrupt):
            take_frames(bytearray(b"OBF1" + (MAX_FRAME + 1).to_bytes(4, "little")))


    @pytest.mark.parametrize("env", [
        Envelope(0, 0, 0, 0, b""),
        Envelope(255, 255, 2 ** 64 - 1, 255, b""),
        Envelope(255, 0, 2 ** 64 - 1, 0, bytes(range(256)) * 3),
    ])
    def test_boundary_round_trip(self, env):
        raw = env.encode()
        assert len(raw) == HEADER_LEN + len(env.payload)
        assert Envelope.decode(raw) == env
        buf = bytearray(frame(env))
        assert buf[8:] == raw
        assert take_frames(buf) == [env] and buf == bytearray()

    def test_header_fields_keep_their_low_byte(self):
        assert Envelope(260, 263, 5, 258, b"x").encode() == \
            Envelope(4, 7, 5, 2, b"x").encode()

    @pytest.mark.parametrize("session_id", [-1, 2 ** 64])
    def test_session_id_out_of_range(self, session_id):
        env = Envelope(4, 7, session_id, 2, b"x")
        with pytest.raises(OverflowError):
            frame(env)
        with pytest.raises(OverflowError):
            env.encode()

    def test_take_frames_at_every_split(self):
        envs = [Envelope(9, 1, 5, 0, b"x"), Envelope(10, 2, 2 ** 64 - 1, 3, b""),
                Envelope(1, 255, 0, 255, bytes(range(200)))]
        stream = b"".join(frame(e) for e in envs)
        for cut in range(len(stream) + 1):
            buf = bytearray(stream[:cut])
            got = take_frames(buf)
            buf += stream[cut:]
            got += take_frames(buf)
            assert got == envs and buf == bytearray()


def _ping_pong(me, peer, payload):
    zp = group_zp(251)
    yield from send(peer, 1, [(zp, [payload])])
    (got,) = yield from recv(peer, 1, [(zp, 1)])
    return got[0]


def _bad_sender(me, peer, kind):
    if kind == "wrong-step":
        yield from send(peer, 2, [(group_zp(251), [7])])
    else:   # 255 fits the 8-bit wire width but is not in Z_251
        yield from send(peer, 1, [(group_zp(256), [255])])


@pytest.mark.parametrize("kind", ["wrong-step", "undecodable"])
@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_bad_envelope_fails_the_receiver(transport, kind):
    programs = {1: _bad_sender(1, 2, kind), 2: _ping_pong(2, 1, 20)}
    if transport == "sim":
        errors = run_session(programs).errors
    else:
        mesh = build_mesh([1, 2], timeout=2)
        try:
            _, errors, _ = run_tcp_session(mesh, programs, session_id=1,
                                           protocol_id=1)
        finally:
            for node in mesh.values():
                node.close()
    assert list(errors) == [2]
    assert isinstance(errors[2], PartyTimeout)
    assert "party 1" in str(errors[2]) and "step 1" in str(errors[2])


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_dropped_send_is_not_sent(transport):
    """A Send the rewrite withholds never reaches the sender's transcript,
    and the party waiting for it times out, under both transports."""
    programs = {1: rewrite_sends(_ping_pong(1, 2, 10), lambda cmd: None),
                2: _ping_pong(2, 1, 20)}
    if transport == "sim":
        net = run_session(programs)
        results, errors, tr = net.results, net.errors, net.transcript
    else:
        mesh = build_mesh([1, 2], timeout=0.5)
        try:
            results, errors, tr = run_tcp_session(mesh, programs, session_id=1,
                                                  protocol_id=1)
        finally:
            for node in mesh.values():
                node.close()
    assert results == {1: 20}
    assert list(errors) == [2] and isinstance(errors[2], PartyTimeout)
    assert [e.kind for e in tr.party_events[1]] == ["R"]


class TestSimulator:
    def test_round_trip_two_parties(self):
        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)})
        assert net.results == {1: 20, 2: 10}
        assert net.transcript.rounds() == 1

    def test_deterministic_replay(self):
        from obfw.compare import run_semi_honest
        a = run_semi_honest(99, 55, 8, seed=77)
        b = run_semi_honest(99, 55, 8, seed=77)
        assert a.f == b.f
        assert a.transcript.to_json() == b.transcript.to_json()
        c = run_semi_honest(99, 55, 8, seed=78)
        assert c.transcript.to_json() != a.transcript.to_json()

    def test_deadlock_detected(self):
        def stuck(me, peer):
            got = yield from recv(peer, 1, [(group_z2(), 1)])
            return got

        with pytest.raises(Deadlock):
            run_session({1: stuck(1, 2), 2: stuck(2, 1)})

    def test_drop_yields_timeout(self):
        net = run_session({1: rewrite_sends(_ping_pong(1, 2, 10), lambda cmd: None),
                           2: _ping_pong(2, 1, 20)})
        assert 1 in net.results  # party 1 still got its reply
        assert isinstance(net.errors[2], PartyTimeout)

    def test_replace_payload(self):
        def replace(cmd):
            return Send(cmd.to, cmd.step, [(group_zp(251), [42])])

        net = run_session({1: rewrite_sends(_ping_pong(1, 2, 10), replace),
                           2: _ping_pong(2, 1, 20)})
        assert net.results[2] == 42

    def test_transcript_counts_send_side_once(self):
        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)})
        assert net.transcript.accounting_total() == 16  # two 8-bit elements


class TestRoundPacking:
    def test_request_response_pairs(self):
        from obfw.net.transcript import Transcript
        tr = Transcript()
        tr.record_send(1, 2, 1, 8, 8)
        tr.record_recv(1, 2, 2)
        tr.record_send(1, 2, 3, 8, 8)
        tr.record_recv(1, 2, 4)
        assert tr.rounds() == 2

    def test_send_blocks_merge(self):
        from obfw.net.transcript import Transcript
        tr = Transcript()
        tr.record_send(1, 2, 1, 8, 8)
        tr.record_send(1, 3, 1, 8, 8)
        tr.record_recv(1, 2, 2)
        tr.record_recv(1, 3, 2)
        assert tr.rounds() == 1


def test_merge_keeps_every_send_of_a_party():
    # Two transcripts with sends by the same party merge into what one
    # transcript recording both sends holds: events and payload digest.
    from obfw.net.transcript import Transcript
    a, b, both = Transcript(), Transcript(), Transcript()
    a.record_send(1, 2, 1, 8, 8, payload=b"x")
    b.record_send(1, 3, 2, 8, 8, payload=b"y")
    both.record_send(1, 2, 1, 8, 8, payload=b"x")
    both.record_send(1, 3, 2, 8, 8, payload=b"y")
    a.merge(b)
    assert a.to_dict()["events"] == both.to_dict()["events"]
    assert a.payload_digest() == both.payload_digest()
    assert a.payload_digest() != b.payload_digest()


class TestTcp:
    def test_loopback_matches_sim(self):
        from obfw.compare import ComparisonParams, build_programs, run_semi_honest
        params = ComparisonParams.for_bitwidth(8)
        sim = run_semi_honest(123, 45, 8, seed=5)
        nodes = build_mesh([1, 2, 3])
        try:
            # Both directions of every link are registered on return.
            for i, node in nodes.items():
                assert set(node._conns) == {1, 2, 3} - {i}
            progs = build_programs(123, 45, params, 5)
            results, errors, tr = run_tcp_session(
                nodes, progs, session_id=1, protocol_id=PROTO_SC_SEMI_HONEST)
            assert not errors
            assert (results[1] + results[2]) % params.N == sim.f
            assert tr.accounting_total() == sim.transcript.accounting_total()
            assert tr.rounds() == sim.transcript.rounds()
        finally:
            for n in nodes.values():
                n.close()

    def test_malformed_magic_closes_connection(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0))
        try:
            with socket.create_connection(("127.0.0.1", node.port)) as c:
                c.sendall((2).to_bytes(1, "little"))
                assert c.recv(1) == b"\x01"
                c.sendall(b"JUNKJUNKJUNKJUNK")
                # reader drops the connection on bad magic
                c.settimeout(2)
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass  # abrupt close is an equally valid rejection
        finally:
            node.close()

    def test_two_sessions_interleave_on_one_connection(self):
        nodes = build_mesh([1, 2])
        try:
            barrier = threading.Barrier(2)

            def chat(me, peer, session, vals):
                def prog():
                    zp = group_zp(251)
                    for v in vals:
                        yield from send(peer, 1, [(zp, [v])])
                        (got,) = yield from recv(peer, 1, [(zp, 1)])
                        assert got[0] == v + 1 if me == 1 else True
                    return "done"
                return prog()

            def echo(me, peer, session, count):
                def prog():
                    zp = group_zp(251)
                    for _ in range(count):
                        (got,) = yield from recv(peer, 1, [(zp, 1)])
                        yield from send(peer, 1, [(zp, [(got[0] + 1) % 251])])
                    return "done"
                return prog()

            outs = {}

            def run(session):
                barrier.wait()
                r1, e1, _ = run_tcp_session(
                    nodes,
                    {1: chat(1, 2, session, [session * 10 + i for i in range(4)]),
                     2: echo(2, 1, session, 4)},
                    session_id=session, protocol_id=4)
                outs[session] = (r1, e1)

            t1 = threading.Thread(target=run, args=(1,))
            t2 = threading.Thread(target=run, args=(2,))
            t1.start(); t2.start(); t1.join(); t2.join()
            for session in (1, 2):
                results, errors = outs[session]
                assert not errors
                assert results == {1: "done", 2: "done"}
        finally:
            for n in nodes.values():
                n.close()


def _recv_one(frm):
    (got,) = yield from recv(frm, 1, [(group_zp(251), 1)])
    return got[0]


def _send_one(to, value):
    yield from send(to, 1, [(group_zp(251), [value])])


def _handshake_as(node, index):
    """A raw socket that completed the handshake as party `index`."""
    c = socket.create_connection(("127.0.0.1", node.port), timeout=5)
    c.sendall(bytes([index]))
    assert c.recv(1) == bytes([node.index])
    return c


class TestNodeThread:
    def test_envelope_routed_by_handshake_peer(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=0.5)
        try:
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                c.sendall(frame(Envelope(4, 1, 77, 3, payload)))
                # The envelope claims party 3 over party 2's connection.
                with pytest.raises(PartyTimeout):
                    node.run_program(_recv_one(3), 77, 4)
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass
            assert node._queues == {}
        finally:
            node.close()

    def test_silent_dialler_does_not_block_handshakes(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=10)
        peer = TcpNode(2, Endpoint("127.0.0.1", 0), timeout=1)
        try:
            with socket.create_connection(("127.0.0.1", node.port)):
                peer.connect(1, Endpoint("127.0.0.1", node.port))
                results, errors, _ = run_tcp_session(
                    {1: node, 2: peer}, {1: _recv_one(2), 2: _send_one(1, 9)},
                    session_id=5, protocol_id=4)
                assert not errors
                assert results[1] == 9
        finally:
            peer.close()
            node.close()

    def test_silent_dialler_is_closed_after_timeout(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=0.3)
        try:
            with socket.create_connection(("127.0.0.1", node.port)) as c:
                c.settimeout(5)
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass
        finally:
            node.close()

    def test_failing_session_is_logged_and_node_keeps_serving(self, caplog):
        nodes = build_mesh([1, 2])

        def program_for(session, protocol):
            def failing():
                yield from _recv_one(1)
                raise ValueError("broken program")

            def echo():
                v = yield from _recv_one(1)
                yield from _send_one(1, v + 1)
            return failing() if session == 1 else echo()

        try:
            with caplog.at_level(logging.ERROR, logger="obfw.net.tcp"):
                nodes[2].serve(program_for)
                nodes[1].run_program(_send_one(2, 3), 1, 4)
                deadline = time.monotonic() + 5
                while not caplog.records and time.monotonic() < deadline:
                    time.sleep(0.01)

                def ask():
                    yield from _send_one(2, 41)
                    return (yield from _recv_one(2))
                assert nodes[1].run_program(ask(), 2, 4)[0] == 42
            (record,) = caplog.records
            assert "session 1" in record.getMessage()
            assert record.exc_info[0] is ValueError
            assert nodes[2]._thread.is_alive()
        finally:
            for n in nodes.values():
                n.close()

    def test_send_waits_for_room(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=10)
        try:
            with _handshake_as(node, 2) as c:
                node._conns[2].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                zp, count = group_zp(251), 20

                def burst():
                    for k in range(count):
                        yield from send(2, 1, [(zp, [k] * 10_000)])

                done = threading.Event()
                t = threading.Thread(
                    target=lambda: (node.run_program(burst(), 9, 4), done.set()))
                t.start()
                # 200 kB cannot all be in flight to a peer that does not read.
                time.sleep(0.5)
                assert not done.is_set()
                buf, envs = bytearray(), []
                while len(envs) < count:
                    buf += c.recv(1 << 16)
                    envs += take_frames(buf)
                t.join(10)
                assert done.is_set()
                assert [decode_elements(e.payload, [(zp, 10_000)]) for e in envs] \
                    == [[[k] * 10_000] for k in range(count)]
        finally:
            node.close()

    def test_late_envelopes_leave_no_state(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=1)
        forget = FORGET_AFTER * node.timeout

        def nothing():
            return None
            yield

        try:
            # Far more sessions finish after session 0 than its timeout
            # would see at the benchmark's CHECK rate.
            for sid in range(5000):
                node.run_program(nothing(), sid, 4)
            assert node._queues == {} and node._live == set()
            assert node._unserved == {}
            # Nor does any other table keep the finished ids.
            assert all(len(v) < 5000 for v in vars(node).values()
                       if isinstance(v, (dict, set, list)))
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                c.sendall(frame(Envelope(4, 1, 0, 2, payload)))        # late
                c.sendall(frame(Envelope(4, 1, 10 ** 6, 2, payload)))  # unrun
                # An envelope that comes before its session starts reaches it.
                c.sendall(frame(Envelope(4, 1, 10 ** 6 + 1, 2, payload)))
                assert node.run_program(_recv_one(2), 10 ** 6 + 1, 4)[0] == 7
                # The late one is held like the unrun one, for now.
                assert set(node._queues) == {(0, 2), (10 ** 6, 2)}
                assert set(node._unserved) == {0, 10 ** 6}
                time.sleep(forget + 3 * TICK)
                assert node._queues == {} and node._unserved == {}
                assert node._live == set()
        finally:
            node.close()

    def test_reused_session_id_receives_an_envelope_held_for_it(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=2)

        def nothing():
            return None
            yield

        try:
            node.run_program(nothing(), 5, 4)
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                c.sendall(frame(Envelope(4, 1, 5, 2, payload)))
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    with node._lock:
                        if (5, 2) in node._queues:
                            break
                    time.sleep(0.005)
                assert node.run_program(_recv_one(2), 5, 4)[0] == 7
            assert node._queues == {} and node._unserved == {}
        finally:
            node.close()

    def test_frames_before_a_false_sender_are_delivered(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=5)
        try:
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                # One write: a good envelope, then one that claims party 3.
                c.sendall(frame(Envelope(4, 1, 77, 2, payload))
                          + frame(Envelope(4, 1, 77, 3, payload)))
                assert node.run_program(_recv_one(2), 77, 4)[0] == 7
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass
            assert 2 not in node._conns
        finally:
            node.close()

    @pytest.mark.parametrize("junk", [
        b"JUNKJUNKJUNKJUNK",
        b"OBF1" + (MAX_FRAME + 1).to_bytes(4, "little"),
    ])
    def test_frames_before_a_bad_record_are_delivered(self, junk):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=2)
        try:
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                # One write: a good envelope, then a record that is not one.
                c.sendall(frame(Envelope(4, 1, 78, 2, payload)) + junk)
                assert node.run_program(_recv_one(2), 78, 4)[0] == 7
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass
            assert 2 not in node._conns
        finally:
            node.close()

    def test_record_written_byte_by_byte_arrives_whole(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=5)
        try:
            with _handshake_as(node, 2) as c:
                c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                record = frame(Envelope(
                    4, 1, 61, 2, encode_elements([(group_zp(251), [7])])))
                for i in range(len(record)):
                    c.sendall(record[i:i + 1])
                    time.sleep(0.002)
                assert node.run_program(_recv_one(2), 61, 4)[0] == 7
        finally:
            node.close()

    def test_records_of_one_read_are_queued_together(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=5)
        zp = group_zp(251)

        def four():
            got = []
            for step in range(1, 5):
                (v,) = yield from recv(2, step, [(zp, 1)])
                got += v
            return got

        try:
            with _handshake_as(node, 2) as c:
                records = [frame(Envelope(4, k + 1, 62, 2,
                                          encode_elements([(zp, [k])])))
                           for k in range(4)]
                half = len(records[3]) // 2
                c.sendall(b"".join(records[:3]) + records[3][:half])
                deadline = time.monotonic() + 5
                while True:
                    with node._lock:
                        queued = len(node._queues.get((62, 2), ()))
                    if queued or time.monotonic() > deadline:
                        break
                    time.sleep(0.005)
                assert queued == 3
                c.sendall(records[3][half:])
                assert node.run_program(four(), 62, 4)[0] == [0, 1, 2, 3]
        finally:
            node.close()

    def test_peer_that_reconnects_after_a_drop_is_read(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=5)
        payload = encode_elements([(group_zp(251), [7])])
        try:
            with _handshake_as(node, 2) as c:
                c.sendall(frame(Envelope(4, 1, 63, 3, payload)))   # not party 2
                try:
                    assert c.recv(1) == b""
                except ConnectionResetError:
                    pass
            # The new socket may reuse the dropped one's descriptor.
            with _handshake_as(node, 2) as c:
                c.sendall(frame(Envelope(4, 1, 64, 2, payload)))
                assert node.run_program(_recv_one(2), 64, 4)[0] == 7
        finally:
            node.close()

    def test_close_ends_node_thread_and_drops_callback(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0))
        node.serve(lambda session, protocol: None)
        thread = node._thread
        t0 = time.monotonic()
        node.close()
        thread.join(5)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < TICK + 0.5
        assert node._program_for is None

    def test_mesh_sockets_set_nodelay(self):
        nodes = build_mesh([0, 1, 2])
        try:
            # Node 0 dialled both peers, node 2 accepted both, node 1 each.
            for node in nodes.values():
                assert len(node._conns) == 2
                for sock in node._conns.values():
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) == 1
        finally:
            for node in nodes.values():
                node.close()

    def test_sessions_that_never_wait_run_on_the_node_thread(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=5)
        ran_on = {}

        def reply(session_id):
            ran_on[session_id] = threading.current_thread().name
            yield from _send_one(2, session_id)

        node.serve(lambda session_id, protocol_id: reply(session_id))
        try:
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                # Both sessions start in one read of the node thread.
                c.sendall(frame(Envelope(4, 1, 31, 2, payload))
                          + frame(Envelope(4, 1, 32, 2, payload)))
                buf, envs = bytearray(), []
                while len(envs) < 2:
                    buf += c.recv(1 << 16)
                    envs += take_frames(buf)
            assert sorted(e.session_id for e in envs) == [31, 32]
            assert ran_on == {31: "obfw-node-1", 32: "obfw-node-1"}
        finally:
            node.close()

    def test_served_session_missing_an_envelope_ends_at_once(self, caplog):
        # A served session runs on the node thread and never waits: one
        # whose envelope is not queued ends at once, well inside the node
        # timeout, and starts no thread.
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=30)
        zp = group_zp(251)

        def wants_a_second(session_id):
            yield from _recv_one(2)
            yield from recv(2, 2, [(zp, 1)])

        def replies_at_once(session_id):
            yield from _recv_one(2)
            yield from _send_one(2, session_id)

        programs = {41: wants_a_second, 42: replies_at_once}
        node.serve(lambda session_id, protocol_id:
                   programs[session_id](session_id))
        payload = encode_elements([(zp, [7])])
        try:
            with caplog.at_level(logging.WARNING, logger="obfw.net.tcp"), \
                    _handshake_as(node, 2) as c:
                threads = threading.active_count()
                t0 = time.monotonic()
                c.sendall(frame(Envelope(4, 1, 41, 2, payload)))
                while not caplog.records and time.monotonic() - t0 < 1:
                    time.sleep(0.005)
                assert caplog.records, "the session did not end within 1 s"
                (record,) = caplog.records
                assert record.levelno == logging.WARNING
                assert "session 41" in record.getMessage()
                assert "missing the envelope from party 2" in record.getMessage()
                assert threading.active_count() == threads
                # The node serves the next session.
                c.sendall(frame(Envelope(4, 1, 42, 2, payload)))
                buf, envs = bytearray(), []
                while not envs:
                    buf += c.recv(1 << 16)
                    envs += take_frames(buf)
                assert [e.session_id for e in envs] == [42]
                assert decode_elements(envs[0].payload, [(zp, 1)]) == [[42]]
                assert threading.active_count() == threads
        finally:
            node.close()

    def test_close_ends_a_waiting_session_off_the_node_thread(self):
        node = TcpNode(1, Endpoint("127.0.0.1", 0), timeout=30)
        outcome = []

        def run():
            try:
                node.run_program(_recv_one(2), 51, 4)
            except PartyTimeout:
                outcome.append(time.monotonic())

        try:
            with _handshake_as(node, 2):
                t = threading.Thread(target=run)
                t.start()
                time.sleep(0.2)     # the session waits for party 2
                assert t.is_alive()
                closed_at = time.monotonic()
                node.close()
                t.join(1)
                assert not t.is_alive()
                assert outcome and outcome[0] - closed_at < 1
        finally:
            node.close()
