"""Record layer: framing, seal/open, tamper rejection, endpoints."""

import hashlib
import io
import itertools
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kiss.channel as channel_mod
import kiss.idvv as idvv_mod
from kiss.association import (
    MAX_RESYNC_WINDOW,
    Mode,
    ProvisionFile,
    Role,
    load_association,
)
from kiss.channel import (
    HEADER_LEN,
    MAX_PAYLOAD,
    READ_SIZE,
    ChannelEndpoint,
    ChannelState,
    MsgType,
    _parse_header,
    _read_frame,
    encode_record,
    open_record,
    seal,
    seal_wire,
)
from kiss.errors import (
    AssociationError,
    AuthenticationError,
    ChannelAlert,
    ChannelStateError,
    FrameError,
    HandshakeError,
    InvalidParameterError,
    KissError,
    OutOfWindowError,
    ReplayError,
    TransportError,
)

SEED = bytes(range(32))
ROOT = bytes(range(32, 64))
ASSOC_ID = bytes.fromhex("a1a2a3a4a5a6a7a8")


def _pair(mode=Mode.AUTH_ONLY, window=1024):
    """Deterministic initiator/responder associations sharing material."""
    init_pf = ProvisionFile(ASSOC_ID, Role.INITIATOR, mode, SEED, ROOT, window)
    resp_pf = ProvisionFile(ASSOC_ID, Role.RESPONDER, mode, SEED, ROOT, window)
    return load_association(init_pf), load_association(resp_pf)


def _sealed(sender, n, mode_payload=b"payload-%02d"):
    return [
        encode_record(seal(sender, MsgType.DATA, mode_payload % i)) for i in range(n)
    ]


# -- framing -----------------------------------------------------------


def test_empty_auth_record_is_57_bytes():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b""))
    assert len(wire) == 57 == HEADER_LEN + 0 + 32


def test_empty_aead_record_is_41_bytes():
    sender, _ = _pair(Mode.AEAD)
    wire = encode_record(seal(sender, MsgType.DATA, b""))
    assert len(wire) == 41 == HEADER_LEN + 0 + 16


def test_encode_decode_round_trip():
    sender, _ = _pair(Mode.AEAD)
    rec = seal(sender, MsgType.CLOSE, b"ct")
    wire = encode_record(rec)
    assert wire == rec.wire
    msg_type, mode, assoc_id, seq, end, size = _parse_header(wire)
    assert size == len(wire) == HEADER_LEN + 2 + 16
    assert (msg_type, mode, assoc_id, seq) == rec[:4] == (MsgType.CLOSE, Mode.AEAD, ASSOC_ID, 1)
    assert (wire[HEADER_LEN:end], wire[end:]) == (rec.payload, rec.tag)


def _wire(msg_type=MsgType.DATA, payload=b"hi"):
    sender, _ = _pair()
    return encode_record(seal(sender, msg_type, payload))


def _open_refused(wire):
    """The FrameError ``open_record`` raises for ``wire``, after checking
    that the receive chain's counter and value did not move."""
    _, receiver = _pair()
    before = receiver.recv_chain.counter, receiver.recv_chain.value
    with pytest.raises(FrameError) as err:
        open_record(receiver, wire)
    assert (receiver.recv_chain.counter, receiver.recv_chain.value) == before
    return err.value


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda w: b"XX" + w[2:], "magic"),
        (lambda w: w[:2] + b"\x02" + w[3:], "version"),
        (lambda w: w[:3] + b"\x7f" + w[4:], "msg_type"),
        (lambda w: w[:4] + b"\x03" + w[5:], "mode"),
        (lambda w: w[:21] + (MAX_PAYLOAD + 1).to_bytes(4, "big") + w[25:],
         "payload_len"),
    ],
)
def test_decode_header_rejections(mutate, field):
    assert _open_refused(mutate(_wire())).field == field


def test_decode_header_truncated():
    assert _open_refused(_wire()[: HEADER_LEN - 1]).field is None


def test_oversized_payload_len_rejected_from_header_alone():
    # only 25 bytes supplied: the cap check must not wait for a body
    header = _wire()[:HEADER_LEN]
    bad = header[:21] + (MAX_PAYLOAD + 1).to_bytes(4, "big") + header[25:]
    assert _open_refused(bad).field == "payload_len"


@pytest.mark.parametrize("extra", [b"", b"\x00"])
def test_decode_record_length_must_match_exactly(extra):
    wire = _wire()
    assert _open_refused(wire[:-1] if not extra else wire + extra).field == "payload_len"


def test_seal_rejects_oversized_payload():
    sender, _ = _pair()
    with pytest.raises(InvalidParameterError):
        seal(sender, MsgType.DATA, b"\0" * (MAX_PAYLOAD + 1))


# -- seal/open ---------------------------------------------------------


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
@pytest.mark.parametrize("size", [0, 1, 1500, 65536])
def test_round_trip_sizes(mode, size):
    sender, receiver = _pair(mode)
    payload = bytes(i & 0xFF for i in range(size))
    wire = encode_record(seal(sender, MsgType.DATA, payload))
    assert open_record(receiver, wire) == (MsgType.DATA, payload)


@settings(max_examples=40, deadline=None)
@given(payload=st.binary(max_size=300), mode=st.sampled_from([Mode.AUTH_ONLY, Mode.AEAD]))
def test_property_round_trip(payload, mode):
    sender, receiver = _pair(mode)
    wire = encode_record(seal(sender, MsgType.DATA, payload))
    assert open_record(receiver, wire) == (MsgType.DATA, payload)


def test_seq_tracks_chain_counter():
    sender, receiver = _pair()
    for want_seq in (1, 2, 3):
        rec = seal(sender, MsgType.DATA, b"x")
        assert rec.seq == want_seq == sender.send_chain.counter
        open_record(receiver, encode_record(rec))
        assert receiver.highest_accepted_seq == want_seq


def test_same_payload_never_repeats_tag():
    sender, _ = _pair()
    tags = {seal(sender, MsgType.DATA, b"constant").tag for _ in range(10)}
    assert len(tags) == 10


def test_aead_hides_payload():
    sender, receiver = _pair(Mode.AEAD)
    secret = b"attack at dawn, again and again"
    wire = encode_record(seal(sender, MsgType.DATA, secret))
    assert secret not in wire
    assert open_record(receiver, wire) == (MsgType.DATA, secret)


def test_auth_only_payload_in_clear():
    sender, _ = _pair(Mode.AUTH_ONLY)
    wire = encode_record(seal(sender, MsgType.DATA, b"broadcast telemetry"))
    assert b"broadcast telemetry" in wire


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_tamper_rejected_without_burning_state(mode):
    sender, receiver = _pair(mode)
    wire = encode_record(seal(sender, MsgType.DATA, b"genuine-payload"))
    for offset in (0, 2, 3, 4, 5, 12, 20, HEADER_LEN, len(wire) - 1):
        flipped = bytearray(wire)
        flipped[offset] ^= 0x01
        with pytest.raises(KissError):
            open_record(receiver, bytes(flipped))
        assert receiver.highest_accepted_seq == 0
        assert receiver.recv_chain.counter == 0
    # the untouched record still opens: failures committed nothing
    assert open_record(receiver, wire) == (MsgType.DATA, b"genuine-payload")


def _chain_position(assoc):
    return assoc.recv_chain.value, assoc.recv_chain.counter, assoc.highest_accepted_seq


def _bad_tag(wire):
    return wire[:-1] + bytes([wire[-1] ^ 0x01])


def _header_bit(offset):
    return lambda wire: wire[:offset] + bytes([wire[offset] ^ 0x01]) + wire[offset + 1 :]


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
@pytest.mark.parametrize("gap", [1, 5])
@pytest.mark.parametrize(
    "mutate",
    [_bad_tag, _header_bit(0), _header_bit(3), _header_bit(20), lambda w: w[:-1]],
    ids=["bad-tag", "magic-bit", "msg-type-bit", "seq-bit", "truncated"],
)
def test_reject_leaves_chain_bytes_unchanged(mode, gap, mutate):
    sender, receiver = _pair(mode)
    wires = _sealed(sender, 1 + gap)
    open_record(receiver, wires[0])
    before = _chain_position(receiver)
    with pytest.raises(KissError):
        open_record(receiver, mutate(wires[gap]))
    assert _chain_position(receiver) == before
    assert open_record(receiver, wires[gap])[1] == b"payload-%02d" % gap


# sha256 of encode_record(seal(...)) for seq 1..64 from _pair(mode), payload
# i of 0, 64 or 1500 bytes in turn; recorded before the one-pass record layer
WIRE_PINS = {
    Mode.AUTH_ONLY: "394dac4d473411bc4e1f264f61c2eaab1518f9b815658a67bd55a1731b7e5624",
    Mode.AEAD: "5f4152e73d1880ddb713b2f3dc0a707918c4cead5ddc56e65b001a9930fb20c0",
}


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_sealed_wire_bytes_are_pinned(mode):
    sender, receiver = _pair(mode)
    digest = hashlib.sha256()
    for i in range(64):
        payload = bytes((i + j) & 0xFF for j in range((0, 64, 1500)[i % 3]))
        wire = encode_record(seal(sender, MsgType.DATA, payload))
        assert open_record(receiver, wire) == (MsgType.DATA, payload)
        digest.update(wire)
    assert sender.send_chain.counter == 64
    assert digest.hexdigest() == WIRE_PINS[mode]


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_seal_wire_is_the_pinned_wire(mode):
    (sender, _), (twin, _) = _pair(mode), _pair(mode)
    digest = hashlib.sha256()
    for i in range(64):
        payload = bytes((i + j) & 0xFF for j in range((0, 64, 1500)[i % 3]))
        wire = seal_wire(sender, MsgType.DATA, payload)
        assert wire == encode_record(seal(twin, MsgType.DATA, payload))
        digest.update(wire)
    assert digest.hexdigest() == WIRE_PINS[mode]


def test_wrong_assoc_id():
    sender, _ = _pair()
    other_pf = ProvisionFile(
        bytes.fromhex("ffffffffffffffff"), Role.RESPONDER, Mode.AUTH_ONLY, SEED, ROOT
    )
    receiver = load_association(other_pf)
    wire = encode_record(seal(sender, MsgType.DATA, b"hi"))
    with pytest.raises(AssociationError):
        open_record(receiver, wire)


def test_mode_mismatch():
    sender, _ = _pair(Mode.AEAD)
    _, receiver = _pair(Mode.AUTH_ONLY)
    wire = encode_record(seal(sender, MsgType.DATA, b"hi"))
    with pytest.raises(FrameError) as err:
        open_record(receiver, wire)
    assert err.value.field == "mode"


def test_replay_rejected():
    sender, receiver = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"once"))
    assert open_record(receiver, wire)[1] == b"once"
    with pytest.raises(ReplayError):
        open_record(receiver, wire)


def test_loss_resync_within_window():
    sender, receiver = _pair()
    wires = _sealed(sender, 10)
    for idx in (0, 2, 3, 9):  # drop the rest in transit
        msg_type, payload = open_record(receiver, wires[idx])
        assert payload == b"payload-%02d" % idx
    assert receiver.highest_accepted_seq == 10


def test_gap_beyond_window_then_recovery():
    sender, receiver = _pair(window=4)
    wires = _sealed(sender, 10)
    open_record(receiver, wires[0])  # seq 1
    with pytest.raises(OutOfWindowError):
        open_record(receiver, wires[6])  # gap 6 > 4
    # the failed attempt burned nothing: a gap of 4 still lands
    assert open_record(receiver, wires[4])[1] == b"payload-04"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_seq_gate_follows_highest_accepted(data):
    # the replay and window rules, stated against highest_accepted_seq,
    # are exactly the receive chain's position
    window = data.draw(st.integers(min_value=1, max_value=64), label="window")
    gaps = data.draw(st.lists(st.integers(1, window), max_size=5), label="prefix gaps")
    accepted = list(itertools.accumulate(gaps))
    highest = accepted[-1] if accepted else 0
    seq = data.draw(st.integers(1, highest + window + 3), label="target seq")
    sender, receiver = _pair(window=window)
    wires = _sealed(sender, max(highest, seq))
    for s in accepted:
        assert open_record(receiver, wires[s - 1])[1] == b"payload-%02d" % (s - 1)
        assert receiver.highest_accepted_seq == receiver.recv_chain.counter == s
    before = _chain_position(receiver)
    if seq <= highest:
        with pytest.raises(ReplayError):
            open_record(receiver, wires[seq - 1])
        assert _chain_position(receiver) == before
    elif seq - highest > window:
        with pytest.raises(OutOfWindowError):
            open_record(receiver, wires[seq - 1])
        assert _chain_position(receiver) == before
    else:
        assert open_record(receiver, wires[seq - 1])[1] == b"payload-%02d" % (seq - 1)
    assert receiver.highest_accepted_seq == receiver.recv_chain.counter


def test_forged_record_at_the_window_cap_costs_one_chain_walk(monkeypatch):
    window = MAX_RESYNC_WINDOW
    sender, receiver = _pair(window=window)
    genuine = encode_record(seal(sender, MsgType.DATA, b"genuine"))
    calls = [0]
    real = idvv_mod._hmac_new

    def counted(key, message, digestmod):
        calls[0] += 1
        return real(key, message, digestmod)

    # the record path calls OpenSSL's HMAC constructor directly
    for mod in (idvv_mod, channel_mod):
        monkeypatch.setattr(mod, "_hmac_new", counted)
    # a forger with no key copies a header, picks the seq, guesses a tag;
    # the receiver is at counter 0, so the seq is the gap. An auth-only
    # forgery inside the window costs the gap's steps, one key and one
    # tag; one past the window costs no HMAC at all.
    cases = [(window, AuthenticationError, window + 2), (window + 1, OutOfWindowError, 0)]
    for seq, error, cost in cases:
        forged = bytearray(_bad_tag(genuine))
        forged[13:21] = seq.to_bytes(8, "big")
        before = _chain_position(receiver)
        calls[0] = 0
        with pytest.raises(error):
            open_record(receiver, bytes(forged))
        assert calls[0] == cost
        assert _chain_position(receiver) == before
    assert open_record(receiver, genuine) == (MsgType.DATA, b"genuine")


def test_key_freshness_and_agreement(record_keys):
    for mode in (Mode.AUTH_ONLY, Mode.AEAD):
        record_keys.clear()
        sender, receiver = _pair(mode)
        seal_keys, open_keys = {}, {}
        for seq in range(1, 11):
            record = seal(sender, MsgType.DATA, b"%d" % seq)
            seal_keys[record.seq] = record_keys[-1]
            open_record(receiver, encode_record(record))
            open_keys[seq] = record_keys[-1]
        assert len(record_keys) == 20 and len(seal_keys) == 10
        assert seal_keys == open_keys  # both ends derive the same key...
        assert len(set(seal_keys.values())) == 10  # ...and never reuse one


# -- stream framing ----------------------------------------------------


def test_read_record_splits_stream():
    sender, receiver = _pair()
    wires = _sealed(sender, 3)
    stream, rest = io.BytesIO(b"".join(wires)), b""
    for expected in wires:
        wire, header, rest = _read_frame(stream.read, rest)
        assert (wire, header) == (expected, _parse_header(expected))
    assert _read_frame(stream.read, rest) is None  # clean EOF at a boundary


def test_read_record_handles_dribble():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"slow network"))
    stream = io.BytesIO(wire)
    assert _read_frame(lambda n: stream.read(min(n, 1)), b"")[0] == wire


def test_read_record_whole_record_in_one_recv_then_eof():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"all at once"))
    stream = io.BytesIO(wire)
    asked = []

    def read(n):
        asked.append(n)
        return stream.read(n)

    got, _, rest = _read_frame(read, b"")
    assert got == wire and type(got) is bytes
    assert asked == [READ_SIZE] and not rest
    assert _read_frame(read, rest) is None


def test_read_record_mid_record_eof():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"cut short"))
    stream = io.BytesIO(wire[:-3])
    with pytest.raises(TransportError):
        _read_frame(stream.read, b"")


def test_read_record_eof_inside_header():
    stream = io.BytesIO(b"KI\x01")
    with pytest.raises(TransportError):
        _read_frame(stream.read, b"")


# -- the endpoint's read-ahead -----------------------------------------


class _ScriptedTransport:
    """Serves ``data`` to ``recv(n)`` in pieces no longer than the next of
    ``cuts`` (cycled), and logs every request and everything sent."""

    def __init__(self, data, cuts=(READ_SIZE,)):
        self.data, self.pos, self.cuts = data, 0, itertools.cycle(cuts)
        self.asked, self.sent = [], []

    def recv(self, n):
        self.asked.append(n)
        chunk = self.data[self.pos : self.pos + min(n, next(self.cuts))]
        self.pos += len(chunk)
        return chunk

    def sendall(self, data):
        self.sent.append(data)


def _established(assoc, transport):
    ep = ChannelEndpoint(assoc, transport)
    ep.state = ChannelState.ESTABLISHED  # the handshake is not under test
    return ep


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from([Mode.AUTH_ONLY, Mode.AEAD]),
    payloads=st.lists(st.binary(max_size=2000), min_size=1, max_size=12),
    cuts=st.lists(
        st.sampled_from([1, 2, 24, 25, 26, 57, 700, 4096]) | st.integers(1, 5000),
        min_size=1,
        max_size=8,
    ),
)
def test_endpoint_frames_any_cut_of_a_stream(mode, payloads, cuts):
    sender, receiver = _pair(mode)
    stream = b"".join(seal_wire(sender, MsgType.DATA, p) for p in payloads)
    transport = _ScriptedTransport(stream, cuts)
    ep = _established(receiver, transport)
    for p in payloads:
        assert ep.receive() == p
        assert len(ep._rest) <= READ_SIZE  # read-ahead stays bounded
    assert transport.pos == len(stream)
    assert sender.send_chain.counter == receiver.recv_chain.counter == len(payloads)
    assert receiver.highest_accepted_seq == len(payloads)


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_records_that_share_a_recv_are_opened_as_views_of_it(mode, monkeypatch):
    sender, receiver = _pair(mode)
    payloads = [b"first", b"second", b"third", b"alone"]
    wires = [seal_wire(sender, MsgType.DATA, p) for p in payloads]
    shared, alone = b"".join(wires[:3]), wires[3]
    chunks = iter([shared, alone])
    transport = _ScriptedTransport(b"")
    transport.recv = lambda n: next(chunks)
    opened = []

    def spy(assoc, wire, header):
        opened.append(wire)
        return open_frame(assoc, wire, header)

    open_frame = channel_mod._open_frame
    monkeypatch.setattr(channel_mod, "_open_frame", spy)
    ep = _established(receiver, transport)
    for p in payloads:
        got = ep.receive()
        assert got == p and type(got) is bytes  # never a view of a recv
    # the three records of one recv are views of its bytes, not copies;
    # a record that filled its recv is those bytes themselves
    assert [type(w) for w in opened] == [memoryview] * 3 + [bytes]
    assert all(w.obj is shared for w in opened[:3])
    assert opened[3] is alone
    assert not ep._rest


def test_handshake_answers_a_peer_alert_by_closing_silently():
    init_assoc, resp_assoc = _pair()
    transport = _ScriptedTransport(seal_wire(init_assoc, MsgType.ALERT, b""))
    ep = ChannelEndpoint(resp_assoc, transport)
    with pytest.raises(ChannelAlert):
        ep.handshake()
    assert ep.state is ChannelState.CLOSED
    assert transport.sent == []  # an alert is not answered with an alert


def test_two_records_in_one_recv_survive_a_transport_swap():
    sender, receiver = _pair()
    first, second = (seal_wire(sender, MsgType.DATA, b"%d" % i) for i in range(2))
    ep = _established(receiver, _ScriptedTransport(first + second))
    assert ep.receive() == b"0"
    swapped = ep.transport = _ScriptedTransport(b"")
    assert ep.receive() == b"1"
    assert swapped.asked == []  # served from the leftover alone


def test_back_to_back_16k_records_take_one_recv_each_at_most():
    sender, receiver = _pair(Mode.AEAD)
    payloads = [bytes([i]) * 16384 for i in range(16)]
    stream = b"".join(seal_wire(sender, MsgType.DATA, p) for p in payloads)
    transport = _ScriptedTransport(stream)
    ep = _established(receiver, transport)
    for p in payloads:
        assert ep.receive() == p
        assert len(ep._rest) <= READ_SIZE  # read-ahead stays bounded
    assert transport.pos == len(stream)
    assert len(transport.asked) <= len(payloads)


def test_back_to_back_16k_records_parse_each_header_once(monkeypatch):
    sender, receiver = _pair(Mode.AEAD)
    payloads = [bytes([i]) * 16384 for i in range(16)]
    stream = b"".join(seal_wire(sender, MsgType.DATA, p) for p in payloads)
    parsed = []

    def parse(buf):
        parsed.append(len(buf))
        return parse_header(buf)

    parse_header = channel_mod._parse_header
    monkeypatch.setattr(channel_mod, "_parse_header", parse)
    ep = _established(receiver, _ScriptedTransport(stream))
    for p in payloads:
        assert ep.receive() == p
    # a recv into an empty buffer brings about four records; the header
    # parsed on that chunk is the one the buffer starts with
    assert len(parsed) <= len(payloads)


def test_oversized_header_fails_before_any_body_read():
    header = bytearray(_wire()[:HEADER_LEN])
    header[21:25] = (MAX_PAYLOAD + 1).to_bytes(4, "big")
    _, receiver = _pair()
    transport = _ScriptedTransport(bytes(header) + b"\0" * 100, cuts=(HEADER_LEN,))
    ep = _established(receiver, transport)
    with pytest.raises(FrameError) as err:
        ep.receive()
    assert err.value.field == "payload_len"
    assert transport.asked == [READ_SIZE]
    assert ep.state is ChannelState.CLOSED


@pytest.mark.parametrize("cut", [HEADER_LEN - 3, -3], ids=["in-header", "in-body"])
def test_endpoint_eof_mid_record(cut):
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"cut short")
    ep = _established(receiver, _ScriptedTransport(wire[:cut]))
    with pytest.raises(TransportError):
        ep.receive()
    assert receiver.recv_chain.counter == 0


# -- endpoints over a live transport ------------------------------------


def _timed_socketpair():
    """A socketpair whose blocking calls give up after a few seconds, so a
    test whose helper thread dies fails instead of hanging the suite."""
    pair = socket.socketpair()
    for sock in pair:
        sock.settimeout(5.0)
    return pair


def _endpoint_pair(mode=Mode.AUTH_ONLY):
    """Socketpair endpoints with the handshake already run."""
    init_assoc, resp_assoc = _pair(mode)
    s_init, s_resp = _timed_socketpair()
    init_ep = ChannelEndpoint(init_assoc, s_init)
    resp_ep = ChannelEndpoint(resp_assoc, s_resp)
    errors = []

    def responder():
        try:
            resp_ep.handshake()
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    t = threading.Thread(target=responder)
    t.start()
    try:
        init_ep.handshake()
    finally:
        t.join(timeout=5)
    assert not errors
    return init_ep, resp_ep, s_init, s_resp


class _CountingTransport:
    def __init__(self, sock):
        self.sock, self.recvs = sock, 0

    def sendall(self, data):
        self.sock.sendall(data)

    def recv(self, n):
        self.recvs += 1
        return self.sock.recv(n)


def test_echo_costs_one_recv_per_record():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        init_ep.transport = _CountingTransport(s_init)
        resp_ep.transport = _CountingTransport(s_resp)
        for i in range(50):
            payload = bytes([i]) * 64
            init_ep.send(payload)
            resp_ep.send(resp_ep.receive())
            assert init_ep.receive() == payload
        assert init_ep.transport.recvs == resp_ep.transport.recvs == 50
    finally:
        s_init.close()
        s_resp.close()


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_handshake_establishes_both_ends(mode):
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair(mode)
    try:
        assert init_ep.state is ChannelState.ESTABLISHED
        assert resp_ep.state is ChannelState.ESTABLISHED
        init_ep.send(b"ping")
        assert resp_ep.receive() == b"ping"
        resp_ep.send(b"pong")
        assert init_ep.receive() == b"pong"
        init_ep.close()
        assert resp_ep.receive() is None
        assert resp_ep.state is ChannelState.CLOSED
    finally:
        s_init.close()
        s_resp.close()


def test_close_is_idempotent_and_final():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        init_ep.close()
        init_ep.close()  # no-op
        with pytest.raises(ChannelStateError):
            init_ep.send(b"late")
    finally:
        s_init.close()
        s_resp.close()


def test_traffic_requires_established_state():
    init_assoc, _ = _pair()
    s_a, s_b = socket.socketpair()
    try:
        ep = ChannelEndpoint(init_assoc, s_a)
        with pytest.raises(ChannelStateError):
            ep.send(b"early")
        with pytest.raises(ChannelStateError):
            ep.receive()
        with pytest.raises(ChannelStateError):
            ep.close()
    finally:
        s_a.close()
        s_b.close()


def test_handshake_refuses_rerun():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        with pytest.raises(ChannelStateError):
            init_ep.handshake()
    finally:
        s_init.close()
        s_resp.close()


def test_handshake_mismatched_secrets():
    init_pf = ProvisionFile(ASSOC_ID, Role.INITIATOR, Mode.AUTH_ONLY, SEED, ROOT)
    wrong_root = bytes(32)
    resp_pf = ProvisionFile(ASSOC_ID, Role.RESPONDER, Mode.AUTH_ONLY, SEED, wrong_root)
    s_init, s_resp = _timed_socketpair()
    init_ep = ChannelEndpoint(load_association(init_pf), s_init)
    resp_ep = ChannelEndpoint(load_association(resp_pf), s_resp)
    errors = []

    def responder():
        try:
            resp_ep.handshake()
        except KissError as exc:
            errors.append(exc)

    t = threading.Thread(target=responder)
    t.start()
    try:
        with pytest.raises(KissError):
            init_ep.handshake()
    finally:
        t.join(timeout=5)
        s_init.close()
        s_resp.close()
    assert errors and isinstance(errors[0], AuthenticationError)
    assert init_ep.state is ChannelState.CLOSED
    assert resp_ep.state is ChannelState.CLOSED


def test_handshake_tampered_echo():
    init_assoc, resp_assoc = _pair()
    s_init, s_resp = _timed_socketpair()
    init_ep = ChannelEndpoint(init_assoc, s_init)

    def evil_responder():
        wire, _, _ = _read_frame(s_resp.recv, b"")
        _, nonce = open_record(resp_assoc, wire)
        mangled = bytes([nonce[0] ^ 0x01]) + nonce[1:]
        s_resp.sendall(encode_record(seal(resp_assoc, MsgType.HELLO_ACK, mangled)))

    t = threading.Thread(target=evil_responder)
    t.start()
    try:
        with pytest.raises(HandshakeError, match="echo mismatch"):
            init_ep.handshake()
    finally:
        t.join(timeout=5)
        s_init.close()
        s_resp.close()
    assert init_ep.state is ChannelState.CLOSED


def test_handshake_wrong_ack_type():
    init_assoc, resp_assoc = _pair()
    s_init, s_resp = _timed_socketpair()
    init_ep = ChannelEndpoint(init_assoc, s_init)

    def confused_responder():
        wire, _, _ = _read_frame(s_resp.recv, b"")
        open_record(resp_assoc, wire)
        s_resp.sendall(encode_record(seal(resp_assoc, MsgType.DATA, b"eager")))

    t = threading.Thread(target=confused_responder)
    t.start()
    try:
        with pytest.raises(HandshakeError, match="expected hello-ack"):
            init_ep.handshake()
    finally:
        t.join(timeout=5)
        s_init.close()
        s_resp.close()


def test_responder_rejects_short_hello():
    init_assoc, resp_assoc = _pair()
    s_init, s_resp = _timed_socketpair()
    s_init.sendall(encode_record(seal(init_assoc, MsgType.HELLO, b"tiny")))
    resp_ep = ChannelEndpoint(resp_assoc, s_resp)
    try:
        with pytest.raises(HandshakeError):
            resp_ep.handshake()
        assert resp_ep.state is ChannelState.CLOSED
    finally:
        s_init.close()
        s_resp.close()


def test_tamper_in_transit_alerts_peer():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        wire = bytearray(encode_record(seal(init_ep.assoc, MsgType.DATA, b"real")))
        wire[HEADER_LEN] ^= 0x01  # corrupt the payload in transit
        s_init.sendall(bytes(wire))
        with pytest.raises(AuthenticationError):
            resp_ep.receive()
        assert resp_ep.state is ChannelState.CLOSED
        # the failing end alerted its peer with a generic record
        with pytest.raises(ChannelAlert):
            init_ep.receive()
        assert init_ep.state is ChannelState.CLOSED
    finally:
        s_init.close()
        s_resp.close()


def test_unexpected_hello_on_established_channel():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        s_init.sendall(encode_record(seal(init_ep.assoc, MsgType.HELLO, b"\0" * 16)))
        with pytest.raises(ChannelStateError):
            resp_ep.receive()
        with pytest.raises(ChannelAlert):
            init_ep.receive()
    finally:
        s_init.close()
        s_resp.close()


def test_abrupt_eof_is_transport_error():
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair()
    try:
        s_init.close()  # vanish without a close record
        with pytest.raises(TransportError):
            resp_ep.receive()
        assert resp_ep.state is ChannelState.CLOSED
    finally:
        s_resp.close()
