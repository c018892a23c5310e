"""Transport layer: codec, envelope framing, simulator, TCP equivalence."""
import logging
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from obfw.net import (
    DROP,
    PASS,
    Deadlock,
    Delay,
    Endpoint,
    Envelope,
    FrameCorrupt,
    PartyTimeout,
    Replace,
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
    run_session,
    run_tcp_session,
    send,
)
from obfw.net.envelope import MAX_FRAME, frame, take_frames, PROTO_SC_SEMI_HONEST
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
        def adversary(env):
            return DROP if env.sender == 1 else PASS

        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)},
                          adversary=adversary)
        assert 1 in net.results  # party 1 still got its reply
        assert isinstance(net.errors[2], PartyTimeout)

    def test_replace_payload(self):
        def adversary(env):
            if env.sender == 1:
                return Replace(encode_elements([(group_zp(251), [42])]))
            return PASS

        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)},
                          adversary=adversary)
        assert net.results[2] == 42

    def test_delay_preserves_delivery(self):
        def adversary(env):
            return Delay(2) if env.sender == 1 else PASS

        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)},
                          adversary=adversary)
        assert net.results == {1: 20, 2: 10}

    def test_transcript_counts_send_side_once(self):
        net = run_session({1: _ping_pong(1, 2, 10), 2: _ping_pong(2, 1, 20)})
        assert net.transcript.accounting_total() == 16  # two 8-bit elements


class TestRoundPacking:
    def test_request_response_pairs(self):
        from obfw.net.transcript import Transcript
        tr = Transcript()
        tr.record_send(1, 2, 1, 8, 8, 1)
        tr.record_recv(1, 2, 2)
        tr.record_send(1, 2, 3, 8, 8, 1)
        tr.record_recv(1, 2, 4)
        assert tr.rounds() == 2

    def test_send_blocks_merge(self):
        from obfw.net.transcript import Transcript
        tr = Transcript()
        tr.record_send(1, 2, 1, 8, 8, 1)
        tr.record_send(1, 3, 1, 8, 8, 1)
        tr.record_recv(1, 2, 2)
        tr.record_recv(1, 3, 2)
        assert tr.rounds() == 1


class TestTcp:
    def test_loopback_matches_sim(self):
        from obfw.compare import ComparisonParams, build_programs, run_semi_honest
        params = ComparisonParams.for_bitwidth(8)
        sim = run_semi_honest(123, 45, 8, seed=5)
        nodes = build_mesh([1, 2, 3])
        try:
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
            with _handshake_as(node, 2) as c:
                payload = encode_elements([(group_zp(251), [7])])
                c.sendall(frame(Envelope(4, 1, 0, 2, payload)))        # late
                c.sendall(frame(Envelope(4, 1, 10 ** 6, 2, payload)))  # unrun
                # An envelope that comes before its session starts reaches it.
                c.sendall(frame(Envelope(4, 1, 10 ** 6 + 1, 2, payload)))
                assert node.run_program(_recv_one(2), 10 ** 6 + 1, 4)[0] == 7
                # The late one was dropped; the unrun one is held, for now.
                assert set(node._queues) == {(10 ** 6, 2)}
                time.sleep(forget + 3 * TICK)
                assert node._queues == {} and node._unserved == {}
                assert 10 ** 6 in node._finished
                node.run_program(nothing(), 5000, 4)
                # Finished ids are forgotten by age.
                assert set(node._finished) == {10 ** 6, 5000}
                assert node._live == set()
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
