"""Record layer: framing, seal/open, tamper rejection, endpoints."""

import hashlib
import hmac
import io
import itertools
import socket
import types
from array import array
import threading
import time

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

import kiss.channel as channel_mod
from kiss.association import (
    LABEL_C2S,
    LABEL_S2C,
    Mode,
    ProvisionFile,
    Role,
    load_association,
)
from kiss.channel import (
    HEADER_LEN,
    HELLO_NONCE_LEN,
    KEY_LABEL_ENC,
    KEY_LABEL_MAC,
    KEY_LABEL_NONCE,
    MAX_PAYLOAD,
    READ_SIZE,
    RESYNC_WINDOW,
    ChannelEndpoint,
    ChannelState,
    MsgType,
    TAG_LEN,
    _parse_header,
    _read_frame,
    _record_keys,
    encode_record,
    open_record,
    seal,
    seal_wire,
)
from kiss.errors import (
    AssociationError,
    AuthenticationError,
    ChainExhaustedError,
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

from kiss.idvv import MAX_COUNTER, IdvvState

from oracles import chain_values_ref, derive_key_ref

SEED = bytes(range(32))
ROOT = bytes(range(32, 64))
ASSOC_ID = bytes.fromhex("a1a2a3a4a5a6a7a8")


def _pair(mode=Mode.AUTH_ONLY):
    """Deterministic initiator/responder associations sharing material."""
    init_pf = ProvisionFile(ASSOC_ID, Role.INITIATOR, mode, SEED, ROOT)
    resp_pf = ProvisionFile(ASSOC_ID, Role.RESPONDER, mode, SEED, ROOT)
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
    sender, receiver = _pair(Mode.AEAD)
    wire = seal_wire(sender, MsgType.CLOSE, b"ct")
    msg_type, mode, assoc_id, seq, end, size = _parse_header(wire)
    assert size == len(wire) == HEADER_LEN + 2 + 16
    assert (msg_type, mode, assoc_id, seq) == (MsgType.CLOSE, Mode.AEAD, ASSOC_ID, 1)
    assert end == HEADER_LEN + 2 and wire[HEADER_LEN:end] != b"ct"  # the ciphertext
    assert open_record(receiver, wire) == (MsgType.CLOSE, b"ct")


def _wire(msg_type=MsgType.DATA, payload=b"hi"):
    sender, _ = _pair()
    return encode_record(seal(sender, msg_type, payload))


def _open_refused(wire):
    """The FrameError ``open_record`` raises for ``wire``, after checking
    that the receive chain's counter and value did not move."""
    _, receiver = _pair()
    before = receiver.recv_chain.snapshot()
    with pytest.raises(FrameError) as err:
        open_record(receiver, wire)
    assert receiver.recv_chain.snapshot() == before
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


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_a_payload_that_cannot_be_sealed_leaves_the_send_chain(mode):
    # refused before the chain moves: a str, no buffer at all, a strided view
    sender, receiver = _pair(mode)
    before = sender.send_chain.snapshot()
    for payload in ("text", None, memoryview(bytes(8))[::2]):
        with pytest.raises(TypeError):
            seal_wire(sender, MsgType.DATA, payload)
        assert sender.send_chain.snapshot() == before
    transport = _ScriptedTransport(b"")
    ep = _established(sender, transport)
    with pytest.raises(TypeError):
        ep.send("text")
    assert sender.send_chain.snapshot() == before and not transport.sent
    assert ep.state is ChannelState.ESTABLISHED
    ep.send(b"next")
    (wire,) = transport.sent
    assert _parse_header(wire)[3] == 1
    assert open_record(receiver, wire) == (MsgType.DATA, b"next")


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_a_buffer_of_wider_items_is_sealed_as_its_bytes(mode):
    sender, receiver = _pair(mode)
    payload = array("I", [1, 2, 3])
    wire = seal_wire(sender, MsgType.DATA, payload)
    assert _parse_header(wire)[4] == HEADER_LEN + payload.itemsize * 3
    assert open_record(receiver, wire) == (MsgType.DATA, payload.tobytes())


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_sealing_at_the_last_counter_raises_chain_exhausted(mode):
    sender, _ = _pair(mode)
    worn = {**sender.send_chain.snapshot(), "counter": MAX_COUNTER}
    sender.send_chain = IdvvState.from_snapshot(SEED, worn)
    with pytest.raises(ChainExhaustedError):
        seal_wire(sender, MsgType.DATA, b"one too many")
    assert sender.send_chain.snapshot() == worn


# -- seal/open ---------------------------------------------------------


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
@pytest.mark.parametrize("size", [0, 1, 1500, 65536, MAX_PAYLOAD])
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
        wire = seal_wire(sender, MsgType.DATA, b"x")
        assert _parse_header(wire)[3] == want_seq == sender.send_chain.counter
        open_record(receiver, wire)
        assert receiver.highest_accepted_seq == want_seq


def test_same_payload_never_repeats_tag():
    sender, _ = _pair()
    wires = [seal_wire(sender, MsgType.DATA, b"constant") for _ in range(10)]
    assert len({wire[HEADER_LEN + len(b"constant"):] for wire in wires}) == 10


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
    return assoc.recv_chain.snapshot(), assoc.highest_accepted_seq


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


# sha256 of the wire bytes for seq 1..64 from _pair(mode), payload i of 0,
# 64 or 1500 bytes in turn; recorded before the one-pass record layer
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
        wire = seal_wire(sender, MsgType.DATA, payload)
        assert open_record(receiver, wire) == (MsgType.DATA, payload)
        digest.update(wire)
    assert sender.send_chain.counter == 64
    assert digest.hexdigest() == WIRE_PINS[mode]


# the names benchmark/ calls, and its tracer wraps, give the endpoint's bytes
@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_seal_and_encode_record_give_seal_wire_bytes(mode):
    (a, _), (b, _) = _pair(mode), _pair(mode)
    for seq in range(1, 17):
        payload = b"record-%d" % seq
        wire = encode_record(seal(a, MsgType.DATA, payload))
        assert type(wire) is bytes
        assert wire == seal_wire(b, MsgType.DATA, payload)
        assert a.send_chain.counter == seq


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
    sender, receiver = _pair()
    wires = _sealed(sender, RESYNC_WINDOW + 2)
    open_record(receiver, wires[0])  # seq 1
    with pytest.raises(OutOfWindowError):
        open_record(receiver, wires[RESYNC_WINDOW + 1])  # gap window + 1
    # the failed attempt burned nothing: a gap of the window still lands
    assert open_record(receiver, wires[RESYNC_WINDOW]) == (
        MsgType.DATA, b"payload-%02d" % RESYNC_WINDOW
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_seq_gate_follows_highest_accepted(data):
    # the replay and window rules, stated against highest_accepted_seq,
    # are exactly the receive chain's position. Gaps are drawn near their
    # edges: small ones, and those at and just past the window.
    window = RESYNC_WINDOW
    near_edges = st.one_of(st.integers(1, 8), st.integers(window - 2, window))
    gaps = data.draw(st.lists(near_edges, max_size=5), label="prefix gaps")
    accepted = list(itertools.accumulate(gaps))
    highest = accepted[-1] if accepted else 0
    near_gate = st.one_of(
        st.integers(1, highest + 8), st.integers(highest + window - 2, highest + window + 3)
    )
    seq = data.draw(near_gate, label="target seq")
    sender, receiver = _pair()
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


def test_forged_record_at_the_window_cap_costs_one_chain_walk(hmac_calls):
    window = RESYNC_WINDOW
    sender, receiver = _pair()
    genuine = encode_record(seal(sender, MsgType.DATA, b"genuine"))
    # a forger with no key copies a header, picks the seq, guesses a tag;
    # the receiver is at counter 0, so the seq is the gap. An auth-only
    # forgery inside the window costs the gap's steps less the one the
    # chain holds, one key and one tag; one past the window costs no HMAC.
    cases = [(window, AuthenticationError, window + 1), (window + 1, OutOfWindowError, 0)]
    for seq, error, cost in cases:
        forged = bytearray(_bad_tag(genuine))
        forged[13:21] = seq.to_bytes(8, "big")
        before = _chain_position(receiver)
        hmac_calls.clear()
        with pytest.raises(error):
            open_record(receiver, bytes(forged))
        assert len(hmac_calls) == cost
        assert _chain_position(receiver) == before
    assert open_record(receiver, genuine) == (MsgType.DATA, b"genuine")


def test_key_freshness_and_agreement(record_keys):
    for mode in (Mode.AUTH_ONLY, Mode.AEAD):
        record_keys.clear()
        sender, receiver = _pair(mode)
        seal_keys, open_keys = {}, {}
        for seq in range(1, 11):
            wire = seal_wire(sender, MsgType.DATA, b"%d" % seq)
            seal_keys[_parse_header(wire)[3]] = record_keys[-1]
            open_record(receiver, wire)
            open_keys[seq] = record_keys[-1]
        assert len(record_keys) == 20 and len(seal_keys) == 10
        assert seal_keys == open_keys  # both ends derive the same key...
        assert len(set(seal_keys.values())) == 10  # ...and never reuse one


# -- stream framing ----------------------------------------------------


def test_read_record_splits_stream():
    sender, receiver = _pair()
    wires = _sealed(sender, 3)
    stream, rest = io.BytesIO(b"".join(wires)), b""
    transport = types.SimpleNamespace(recv=stream.read)
    for expected in wires:
        wire, header, rest = _read_frame(transport, rest)
        assert (wire, header) == (expected, _parse_header(expected))
    assert _read_frame(transport, rest) is None  # clean EOF at a boundary


def test_read_record_handles_dribble():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"slow network"))
    stream = io.BytesIO(wire)
    transport = types.SimpleNamespace(recv=lambda n: stream.read(min(n, 1)))
    assert _read_frame(transport, b"")[0] == wire


def test_read_record_whole_record_in_one_recv_then_eof():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"all at once"))
    stream = io.BytesIO(wire)
    asked = []

    def read(n):
        asked.append(n)
        return stream.read(n)

    transport = types.SimpleNamespace(recv=read)
    got, _, rest = _read_frame(transport, b"")
    assert got == wire and type(got) is bytes
    assert asked == [READ_SIZE] and not rest
    assert _read_frame(transport, rest) is None


def test_read_record_mid_record_eof():
    sender, _ = _pair()
    wire = encode_record(seal(sender, MsgType.DATA, b"cut short"))
    stream = io.BytesIO(wire[:-3])
    with pytest.raises(TransportError):
        _read_frame(types.SimpleNamespace(recv=stream.read), b"")


def test_read_record_eof_inside_header():
    stream = io.BytesIO(b"KI\x01")
    with pytest.raises(TransportError):
        _read_frame(types.SimpleNamespace(recv=stream.read), b"")


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
    opened, windows = [], []

    def spy(assoc, wire, header, window):
        opened.append(wire)
        windows.append(window)
        return open_frame(assoc, wire, header, window)

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
    assert windows == [1] * 4  # an endpoint takes the next seq only


def test_a_handshake_reentered_from_the_transport_is_refused():
    # a transport whose recv runs handshake() again, as a transport that
    # drives its peer might: the inner call refuses and writes nothing
    init_assoc, _ = _pair()
    transport = _ScriptedTransport(b"")
    ep = ChannelEndpoint(init_assoc, transport)
    asked = []

    def recv(n):
        asked.append(n)
        if len(asked) == 1:
            written = len(transport.sent)
            with pytest.raises(ChannelStateError):
                ep.handshake()
            assert len(transport.sent) == written
        return b""

    transport.recv = recv
    with pytest.raises(TransportError):
        ep.handshake()
    assert [_parse_header(w)[0] for w in transport.sent] == [MsgType.HELLO, MsgType.ALERT]
    assert ep.state is ChannelState.CLOSED


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


# -- failures on the send side ------------------------------------------


class _BrokenSend(_ScriptedTransport):
    """A transport whose ``sendall`` logs the bytes, then raises as a
    reset socket does: ``sent`` holds what was tried, and none went out."""

    def sendall(self, data):
        self.sent.append(data)
        raise ConnectionResetError("peer reset")


def _sent_types(transport):
    return [_parse_header(w)[0] for w in transport.sent]


def test_an_oversized_send_closes_with_one_alert():
    sender, _ = _pair()
    transport = _ScriptedTransport(b"")
    ep = _established(sender, transport)
    with pytest.raises(InvalidParameterError):
        ep.send(bytes(MAX_PAYLOAD + 1))
    assert ep.state is ChannelState.CLOSED
    assert _sent_types(transport) == [MsgType.ALERT]
    assert _parse_header(transport.sent[0])[3] == 1  # the refused payload took no seq


def test_a_send_the_transport_fails_closes_as_a_transport_error():
    sender, _ = _pair()
    transport = _BrokenSend(b"")
    ep = _established(sender, transport)
    with pytest.raises(TransportError, match="^transport failed: peer reset$") as err:
        ep.send(b"lost")
    assert isinstance(err.value.__cause__, ConnectionResetError)
    assert ep.state is ChannelState.CLOSED
    # the record, then one alert, which the transport refused as well
    assert _sent_types(transport) == [MsgType.DATA, MsgType.ALERT]


def test_a_close_the_transport_fails_sends_no_alert():
    sender, _ = _pair()
    transport = _BrokenSend(b"")
    ep = _established(sender, transport)
    with pytest.raises(TransportError):
        ep.close()
    assert ep.state is ChannelState.CLOSED
    assert _sent_types(transport) == [MsgType.CLOSE]


# -- a deadline per record ----------------------------------------------


class _SlowTransport:
    """A peer that sends ``chunk`` bytes of ``data`` every ``gap`` seconds
    of a fake clock, behind a socket's timeout: a ``recv`` that would wait
    longer than the timeout moves the clock on by the timeout and raises
    ``socket.timeout``. No call sleeps."""

    def __init__(self, data, gap, timeout, chunk=1):
        self.data, self.gap, self.timeout, self.chunk = data, gap, timeout, chunk
        self.now, self.pos, self.set, self.sent = 0.0, 0, [], []

    def clock(self):
        return self.now

    def gettimeout(self):
        return self.timeout

    def settimeout(self, timeout):
        self.set.append(timeout)
        self.timeout = timeout

    def recv(self, n):
        if self.gap > self.timeout:
            self.now += self.timeout
            raise socket.timeout("timed out")
        self.now += self.gap
        chunk = self.data[self.pos : self.pos + min(n, self.chunk)]
        self.pos += len(chunk)
        return chunk

    def sendall(self, data):
        self.sent.append(data)


def test_a_record_gets_the_transport_timeout_from_its_first_byte(monkeypatch):
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"\0" * 1000)
    transport = _SlowTransport(wire, gap=0.3, timeout=1.0)
    monkeypatch.setattr(channel_mod, "monotonic", transport.clock)
    ep = _established(receiver, transport)
    with pytest.raises(TransportError):
        ep.receive()
    # the first byte, at 0.3 s, starts a 1-s deadline: bytes come at 0.6,
    # 0.9 and 1.2 s, and the recv given the 0.1 s left times out at 1.3 s
    assert transport.now == pytest.approx(1.3)
    assert transport.pos == 4
    assert transport.set[:3] == pytest.approx([1.0, 0.7, 0.4])
    assert transport.timeout == 1.0  # put back
    assert [_parse_header(w)[0] for w in transport.sent] == [MsgType.ALERT]
    assert ep.state is ChannelState.CLOSED


def test_a_byte_at_the_deadline_ends_the_record(monkeypatch):
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"\0" * 1000)
    transport = _SlowTransport(wire, gap=0.5, timeout=1.0)
    monkeypatch.setattr(channel_mod, "monotonic", transport.clock)
    ep = _established(receiver, transport)
    # the first byte, at 0.5 s, starts a 1-s deadline: bytes come at 1.0
    # and 1.5 s, and with no time left the next recv is not made
    with pytest.raises(TransportError, match="^record not complete 1.0 s after its first byte$"):
        ep.receive()
    assert (transport.now, transport.pos) == (1.5, 3)
    assert transport.set == [1.0, 0.5, 1.0]  # the last puts the timeout back
    assert _sent_types(transport) == [MsgType.ALERT]
    assert ep.state is ChannelState.CLOSED


class _Forwarding:
    """A transport that wraps another, as a caller's own class would: its
    own ``recv`` method, with ``gettimeout`` and ``settimeout`` forwarded."""

    def __init__(self, inner):
        self.inner = inner

    def recv(self, n):
        return self.inner.recv(n)

    def sendall(self, data):
        self.inner.sendall(data)

    def gettimeout(self):
        return self.inner.gettimeout()

    def settimeout(self, timeout):
        self.inner.settimeout(timeout)


def test_a_wrapper_that_forwards_the_timeout_keeps_the_deadline(monkeypatch):
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"\0" * 1000)
    inner = _SlowTransport(wire, gap=0.3, timeout=1.0)
    monkeypatch.setattr(channel_mod, "monotonic", inner.clock)
    ep = _established(receiver, _Forwarding(inner))
    with pytest.raises(TransportError):
        ep.receive()
    # as for the bare transport: the recv given the 0.1 s left times out at 1.3 s
    assert inner.now == pytest.approx(1.3)
    assert inner.timeout == 1.0
    assert _sent_types(inner) == [MsgType.ALERT]
    assert ep.state is ChannelState.CLOSED


def test_a_record_one_recv_brings_whole_leaves_the_timeout_alone(monkeypatch):
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"whole")
    transport = _SlowTransport(wire, gap=0.3, timeout=1.0, chunk=READ_SIZE)
    monkeypatch.setattr(channel_mod, "monotonic", transport.clock)
    assert _established(receiver, transport).receive() == b"whole"
    assert transport.set == []


def _slow_peer_seconds(wrap):
    """Seconds until ``receive`` raises TransportError on an endpoint over
    ``wrap(sock)``, where ``sock`` is a real socket with a 0.5-s timeout,
    fed a header announcing 1000 bytes and then one byte every 0.3 s,
    each within the timeout; the peer stops after 3.6 s."""
    sender, receiver = _pair()
    wire = seal_wire(sender, MsgType.DATA, b"\0" * 1000)
    s_peer, s_ep = socket.socketpair()
    s_ep.settimeout(0.5)
    stop = threading.Event()

    def dribble():
        s_peer.sendall(wire[:HEADER_LEN])
        for i in range(HEADER_LEN, HEADER_LEN + 12):
            if stop.wait(0.3):
                return
            s_peer.sendall(wire[i : i + 1])
        s_peer.shutdown(socket.SHUT_WR)

    writer = threading.Thread(target=dribble)
    ep = _established(receiver, wrap(s_ep))
    writer.start()
    try:
        start = time.monotonic()
        with pytest.raises(TransportError):
            ep.receive()
        elapsed = time.monotonic() - start
        assert s_ep.gettimeout() == 0.5
    finally:
        stop.set()
        writer.join(timeout=5)
        s_peer.close()
        s_ep.close()
    assert not writer.is_alive()
    return elapsed


def test_a_slow_peer_fails_within_the_record_timeout():
    elapsed = _slow_peer_seconds(lambda sock: sock)
    assert elapsed < 2, elapsed


class _HeldRecv:
    """A wrapper, as a tracing layer builds one, that holds its ``recv`` as
    an attribute: a plain function that calls the socket's, so not a method
    of any transport. It forwards both timeout methods to the socket."""

    def __init__(self, sock):
        self.sock, self.sendall = sock, sock.sendall
        self.recv = lambda n: sock.recv(n)

    def gettimeout(self):
        return self.sock.gettimeout()

    def settimeout(self, timeout):
        self.sock.settimeout(timeout)


def test_a_slow_peer_fails_at_the_timeout_through_a_wrapper_holding_recv():
    elapsed = _slow_peer_seconds(_HeldRecv)
    assert elapsed < 1.5, elapsed


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
    for sock in (s_a, s_b):
        sock.settimeout(2.0)  # a receive that lost its state check fails, not hangs
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
        wire, _, _ = _read_frame(s_resp, b"")
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
        wire, _, _ = _read_frame(s_resp, b"")
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


def _refused_before_any_hmac(ep, step, error, hmac_calls, monkeypatch):
    """Run ``step``, which must raise ``error``, and check that it left the
    receive chain where it was and sent one ALERT, with no HMAC call
    before that ALERT's seal; ``ep.transport`` is a _ScriptedTransport."""
    before, sent = _chain_position(ep.assoc), len(ep.transport.sent)
    hmac_at_seal, real_seal = [], channel_mod.seal_wire

    def seal(*args):
        hmac_at_seal.append(len(hmac_calls))
        return real_seal(*args)

    monkeypatch.setattr(channel_mod, "seal_wire", seal)
    hmac_calls.clear()
    with pytest.raises(error):
        step()
    assert hmac_at_seal == [0]
    assert _chain_position(ep.assoc) == before
    assert _sent_types(ep.transport)[sent:] == [MsgType.ALERT]
    assert ep.state is ChannelState.CLOSED


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
@pytest.mark.parametrize(
    "offer,error",
    [(2, OutOfWindowError), (RESYNC_WINDOW, OutOfWindowError), (0, ReplayError)],
    ids=["next+1", "next+window-1", "replay"],
)
def test_an_endpoint_takes_only_the_next_seq(mode, offer, error, hmac_calls, monkeypatch):
    # over a stream no record goes missing, so an established endpoint
    # refuses a gap, and an old seq, with the one generic alert and no
    # chain walk; open_record, for datagrams, takes the same gap
    init_ep, resp_ep, s_init, s_resp = _endpoint_pair(mode)
    s_init.close()
    s_resp.close()
    # once wires[0] is accepted, wires[i] is at the next seq + i - 1
    wires = [seal_wire(init_ep.assoc, MsgType.DATA, b"%d" % i) for i in range(RESYNC_WINDOW + 1)]
    resp_ep.transport = _ScriptedTransport(wires[0] + wires[offer])
    assert resp_ep.receive() == b"0"
    _refused_before_any_hmac(resp_ep, resp_ep.receive, error, hmac_calls, monkeypatch)
    if error is OutOfWindowError:
        assert open_record(resp_ep.assoc, wires[offer]) == (MsgType.DATA, b"%d" % offer)


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_a_responder_takes_only_a_hello_at_seq_1(mode, hmac_calls, monkeypatch):
    init_assoc, resp_assoc = _pair(mode)
    seal_wire(init_assoc, MsgType.HELLO, bytes(HELLO_NONCE_LEN))  # seq 1, never sent
    hello = seal_wire(init_assoc, MsgType.HELLO, bytes(HELLO_NONCE_LEN))
    ep = ChannelEndpoint(resp_assoc, _ScriptedTransport(hello))
    _refused_before_any_hmac(ep, ep.handshake, OutOfWindowError, hmac_calls, monkeypatch)


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


# -- forward secrecy and HMAC cost -------------------------------------


def _held(chain):
    """The value a chain state holds, as a capture of it would read it."""
    return bytes.fromhex(chain.snapshot()["value"])


def _opens(wire, value, mode):
    """Whether the record keys derived from chain value ``value`` open ``wire``."""
    key, nonce = _record_keys(value, mode)
    end = len(wire) - TAG_LEN[mode]
    if mode is Mode.AUTH_ONLY:
        return hmac.compare_digest(hmac.new(key, wire[:end], "sha256").digest(), wire[end:])
    try:
        AESGCM(key).decrypt(nonce, wire[HEADER_LEN:], wire[:HEADER_LEN])
    except InvalidTag:
        return False
    return True


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_captured_chain_state_opens_no_record_already_sealed_or_opened(mode):
    initiator, responder = _pair(mode)
    for sender, receiver in ((initiator, responder), (responder, initiator)):
        wire = seal_wire(sender, MsgType.DATA, b"sealed before the capture")
        sent = _held(sender.send_chain)
        assert open_record(receiver, wire)[1] == b"sealed before the capture"
        received = _held(receiver.recv_chain)
        assert not _opens(wire, sent, mode)
        assert not _opens(wire, received, mode)
        # what a capture does expose: the records from the next seq on
        later = seal_wire(sender, MsgType.DATA, b"sealed after the capture")
        assert _opens(later, sent, mode) and _opens(later, received, mode)
        open_record(receiver, later)


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_hmac_calls_per_load_record_and_forgery(mode, hmac_calls):
    init_pf = ProvisionFile(ASSOC_ID, Role.INITIATOR, mode, SEED, ROOT)
    resp_pf = ProvisionFile(ASSOC_ID, Role.RESPONDER, mode, SEED, ROOT)
    hmac_calls.clear()
    sender = load_association(init_pf)
    assert len(hmac_calls) == 4  # value_0 and value_1 of each direction
    receiver = load_association(resp_pf)
    hmac_calls.clear()
    wire = seal_wire(sender, MsgType.DATA, b"x" * 64)
    assert len(hmac_calls) == 3  # a chain step, then a key and a tag, or two keys
    # a forgery at the next seq walks no chain step: a key or two, and a tag check
    before = _chain_position(receiver)
    hmac_calls.clear()
    with pytest.raises(AuthenticationError):
        open_record(receiver, _bad_tag(wire))
    assert len(hmac_calls) == 2
    assert not [msg for _, msg in hmac_calls if msg.startswith(SEED)]
    assert _chain_position(receiver) == before
    hmac_calls.clear()
    assert open_record(receiver, wire) == (MsgType.DATA, b"x" * 64)
    assert len(hmac_calls) == 3  # the same three, the chain step at commit


def test_each_key_keys_one_message_domain(hmac_calls):
    # the premise of the forward-secrecy argument in kiss.idvv, over a
    # handshake, records both ways, a reject and a close in each mode:
    # the seed keys only root || label, a chain value only the step
    # after it or a record key label, a record MAC key only a record
    for mode in (Mode.AUTH_ONLY, Mode.AEAD):
        init_ep, resp_ep, s_init, s_resp = _endpoint_pair(mode)
        try:
            for i in range(3):
                init_ep.send(b"c2s-%d" % i)
                assert resp_ep.receive() == b"c2s-%d" % i
                resp_ep.send(b"s2c-%d" % i)
                assert init_ep.receive() == b"s2c-%d" % i
            init_ep.close()
            assert resp_ep.receive() is None
        finally:
            s_init.close()
            s_resp.close()
        # the reject travels the stream of a pair of its own, since it
        # closes the endpoint that refuses it with an alert
        init_ep, resp_ep, s_init, s_resp = _endpoint_pair(mode)
        try:
            s_init.sendall(_bad_tag(seal_wire(init_ep.assoc, MsgType.DATA, b"forged on the way")))
            with pytest.raises(AuthenticationError):
                resp_ep.receive()
            with pytest.raises(ChannelAlert):
                init_ep.receive()
        finally:
            s_init.close()
            s_resp.close()
    steps = {
        value: i
        for label in (LABEL_C2S, LABEL_S2C)
        for i, value in enumerate(chain_values_ref(SEED, ROOT, label, 12))
    }
    mac_keys = {derive_key_ref(value, KEY_LABEL_MAC, 32) for value in steps}
    assert SEED not in steps and not mac_keys & {SEED, *steps}
    domains = []
    for key, msg in hmac_calls:
        if key == SEED:
            assert msg in (ROOT + LABEL_C2S, ROOT + LABEL_S2C)
            domains.append("seed")
        elif key in steps:
            step = SEED + steps[key].to_bytes(8, "big")
            assert msg in (step, KEY_LABEL_MAC, KEY_LABEL_ENC, KEY_LABEL_NONCE)
            domains.append("value")
        else:
            assert key in mac_keys and msg.startswith(b"KI")
            domains.append("mac")
    assert set(domains) == {"seed", "value", "mac"}
