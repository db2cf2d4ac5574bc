"""Authenticated record layer over per-record chain keys.

Every record, in either mode, is protected by keys derived from a fresh
chain value: the sender steps its send chain once per record and the
sequence number in the header tells the receiver how far to fast-forward
its receive chain before verifying. No key ever covers two records.

Wire layout: ``header(25) || payload || tag``. Header fields, big
endian: magic ``KI``, version, msg_type, mode, assoc_id(8), seq(8),
payload_len(4). In auth-only mode the tag is a 32-byte HMAC-SHA-256
over header and payload; in AEAD mode the payload field carries the
AES-256-GCM ciphertext and the tag field its 16-byte GCM tag, with the
header as associated data.

Receive-side rule: nothing is committed until the tag verifies. The
receiver computes the record's chain value from its live chain without
moving it (``idvv_peek``), and overwrites the chain in place only once
the tag is good, so a flood of garbage cannot desynchronize the endpoint
or burn window state.

Record path: ``seal_wire``, the only code that seals, packs the header
once and returns the wire bytes. ``_parse_header`` is the one header
parser. An endpoint frames incoming records with ``_read_frame`` out of
what its last ``recv`` left unread, asking ``recv(READ_SIZE)`` less that
while a header is incomplete, then exactly what the record lacks; a
record one ``recv`` brought whole is opened where it lies, with no copy.
The parsed header goes straight to ``_open_frame``, the verify-and-commit
step that ``open_record`` also runs after its exact-length check.

``Record``, ``seal`` and ``encode_record`` are an inspection view of the
same bytes: ``seal`` slices what ``seal_wire`` returns and keeps it whole
in ``Record.wire``, which ``encode_record`` returns. They stay only
because ``benchmark/`` calls ``encode_record(seal(...))`` and its tracer
wraps both; no endpoint runs them.
"""

from __future__ import annotations

import enum
import hmac
import os
import struct
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .association import Association, Mode, Role
from .errors import (
    AssociationError,
    AuthenticationError,
    ChannelAlert,
    ChannelStateError,
    FrameError,
    HandshakeError,
    InvalidParameterError,
    KissError,
    TransportError,
)
from .idvv import _hmac_new, idvv_peek, idvv_step

MAGIC = b"KI"
VERSION = 0x01
HEADER_LEN = 25
MAX_PAYLOAD = 2**20
# what an endpoint asks of its transport while a header is incomplete,
# and so the most it ever reads past the record it is framing; one recv
# of this size takes a whole 16-KiB record
READ_SIZE = 65536

_HEADER = struct.Struct(">2sBBB8sQI")
assert _HEADER.size == HEADER_LEN

# Mode bytes on the wire. The record path keys its tables by this byte
# and tests modes with ``is``: hashing an Enum runs in Python.
_AUTH_ONLY_WIRE, _AEAD_WIRE = 0x01, 0x02
_WIRE_MODE = {_AUTH_ONLY_WIRE: (Mode.AUTH_ONLY, 32), _AEAD_WIRE: (Mode.AEAD, 16)}
TAG_LEN = dict(_WIRE_MODE.values())

HELLO_NONCE_LEN = 16

# record key derivation labels (domain separation)
KEY_LABEL_MAC = b"kiss-mac"
KEY_LABEL_ENC = b"kiss-enc"
KEY_LABEL_NONCE = b"kiss-nonce"


class MsgType(enum.IntEnum):
    HELLO = 0x01
    HELLO_ACK = 0x02
    DATA = 0x03
    CLOSE = 0x04
    ALERT = 0x05


_MSG_TYPES = {int(t): t for t in MsgType}


class ChannelState(enum.Enum):
    NEW = "new"
    HANDSHAKING = "handshaking"
    ESTABLISHED = "established"
    CLOSED = "closed"


# On CPython 3.11 each lookup of an Enum member runs a Python-level
# descriptor (about 0.2 us); the per-record code reads these aliases.
_AUTH_ONLY = Mode.AUTH_ONLY
_DATA, _ALERT = MsgType.DATA, MsgType.ALERT
_ESTABLISHED = ChannelState.ESTABLISHED


# A Record is made only by seal and keeps the wire bytes seal_wire made, so
# encode_record packs nothing. Record, seal and encode_record keep their
# names only because benchmark/ calls encode_record(seal(...)) in three
# places and its tracer wraps both; they can go once it calls seal_wire.
# benchmark/ also calls open_record and writes
# Association.highest_accepted_seq: both stay.
class Record(NamedTuple):
    msg_type: MsgType
    mode: Mode
    assoc_id: bytes
    seq: int
    payload: bytes
    tag: bytes
    wire: bytes


def encode_record(record: Record) -> bytes:
    return record.wire


def _parse_header(buf) -> tuple[MsgType, Mode, bytes, int, int, int]:
    """Parse and validate the fixed 25-byte header at the start of ``buf``.
    The last two fields are where the payload ends and the record ends."""
    if len(buf) < HEADER_LEN:
        raise FrameError(f"header truncated: {len(buf)} < {HEADER_LEN}")
    magic, version, mt_raw, mode_raw, assoc_id, seq, payload_len = _HEADER.unpack_from(
        buf
    )
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}", field="magic")
    if version != VERSION:
        raise FrameError(f"unsupported version {version:#04x}", field="version")
    msg_type = _MSG_TYPES.get(mt_raw)
    if msg_type is None:
        raise FrameError(f"unknown msg_type {mt_raw:#04x}", field="msg_type")
    wire_mode = _WIRE_MODE.get(mode_raw)
    if wire_mode is None:
        raise FrameError(f"unknown mode {mode_raw:#04x}", field="mode")
    if payload_len > MAX_PAYLOAD:
        raise FrameError(
            f"payload_len {payload_len} exceeds cap {MAX_PAYLOAD}", field="payload_len"
        )
    mode, tag_len = wire_mode
    end = HEADER_LEN + payload_len
    return msg_type, mode, assoc_id, seq, end, end + tag_len


def _record_keys(value: bytes, mode: Mode):
    """This record's key and nonce (None in auth-only mode) from its chain value."""
    if mode is _AUTH_ONLY:
        return _hmac_new(value, KEY_LABEL_MAC, "sha256").digest(), None
    nonce = _hmac_new(value, KEY_LABEL_NONCE, "sha256").digest()[:12]
    return _hmac_new(value, KEY_LABEL_ENC, "sha256").digest(), nonce


def seal_wire(assoc: Association, msg_type: MsgType, payload: bytes) -> bytes:
    """Protect one outgoing record and return its wire bytes, advancing the
    send chain by one step.

    In AEAD mode the payload field carries the ciphertext.
    """
    if len(payload) > MAX_PAYLOAD:
        raise InvalidParameterError(
            f"payload {len(payload)} exceeds cap {MAX_PAYLOAD}"
        )
    mode, chain = assoc.mode, assoc.send_chain
    value = idvv_step(chain)
    seq = chain.counter
    key, nonce = _record_keys(value, mode)
    auth_only = mode is _AUTH_ONLY
    raw_mode = _AUTH_ONLY_WIRE if auth_only else _AEAD_WIRE
    # Ciphertext length equals plaintext length in GCM, so the header
    # (which doubles as the AAD) can be built before protecting.
    header = _HEADER.pack(
        MAGIC, VERSION, msg_type, raw_mode, assoc.assoc_id, seq, len(payload)
    )
    if auth_only:
        signed = header + payload
        return signed + _hmac_new(key, signed, "sha256").digest()
    return header + AESGCM(key).encrypt(nonce, payload, header)


def seal(assoc: Association, msg_type: MsgType, payload: bytes) -> Record:
    """:func:`seal_wire` as a :class:`Record`, for inspection."""
    wire = seal_wire(assoc, msg_type, payload)
    end = HEADER_LEN + len(payload)
    return Record(
        msg_type, assoc.mode, assoc.assoc_id, assoc.send_chain.counter,
        wire[HEADER_LEN:end], wire[end:], wire,
    )


def open_record(assoc: Association, wire: bytes) -> tuple[MsgType, bytes]:
    """Verify and decode one complete record; commit state only on success."""
    header = _parse_header(wire)
    if len(wire) != header[5]:
        raise FrameError(
            f"record length {len(wire)} does not match header (want {header[5]})",
            field="payload_len",
        )
    return _open_frame(assoc, wire, header)


def _open_frame(assoc, wire, header):
    """:func:`open_record` for a record whose header is already parsed."""
    msg_type, mode, assoc_id, seq, end, _ = header
    if assoc_id != assoc.assoc_id:
        raise AssociationError("record addressed to a different association")
    if mode is not assoc.mode:
        raise FrameError(
            f"record mode {mode.value} does not match association "
            f"{assoc.mode.value}",
            field="mode",
        )
    # refuses replays (seq <= counter) and gaps beyond the window
    chain = assoc.recv_chain
    value = idvv_peek(chain, seq, assoc.resync_window)
    key, nonce = _record_keys(value, mode)
    if mode is _AUTH_ONLY:
        if not hmac.compare_digest(_hmac_new(key, wire[:end], "sha256").digest(), wire[end:]):
            raise AuthenticationError("record tag verification failed")
        plaintext = wire[HEADER_LEN:end]
        if type(wire) is memoryview:  # a view of a recv never reaches a caller
            plaintext = bytes(plaintext)
    else:
        view = memoryview(wire)
        try:
            plaintext = AESGCM(key).decrypt(nonce, view[HEADER_LEN:], view[:HEADER_LEN])
        except InvalidTag:
            raise AuthenticationError("record tag verification failed") from None

    chain.commit(value, seq)
    assoc.highest_accepted_seq = seq
    return msg_type, plaintext


def _read_frame(recv, rest):
    """Cut the next record out of ``rest``, the unread end of the last
    ``recv``, calling ``recv(n)`` for what it lacks: ``READ_SIZE`` bytes
    less what it holds while a header is incomplete, then exactly what the
    record lacks, so a bad header fails before any body read. A record one
    ``recv`` brought whole is not copied: it is that ``recv``'s bytes, or a
    memoryview of them; a record split across ``recv`` calls is joined.
    Returns the wire bytes and parsed header that :func:`_open_frame`
    takes and the new ``rest``, or None on a clean EOF at a record
    boundary; EOF anywhere else raises TransportError.
    """
    have = len(rest)
    while have < HEADER_LEN:
        chunk = recv(READ_SIZE - have)
        if not chunk:
            if not have:
                return None
            raise TransportError(f"connection closed mid-record ({have}/{HEADER_LEN} bytes)")
        rest = b"".join((rest, chunk)) if have else chunk
        have = len(rest)
    header = _parse_header(rest)
    size = header[5]
    if have == size:
        return rest, header, b""
    if have > size:
        view = memoryview(rest)
        return view[:size], header, view[size:]
    parts = [rest]
    while have < size:
        chunk = recv(size - have)
        if not chunk:
            raise TransportError(f"connection closed mid-record ({have}/{size} bytes)")
        parts.append(chunk)
        have += len(chunk)
    return b"".join(parts), header, b""


class ChannelEndpoint:
    """One side of an established channel over a stream transport.

    ``transport`` needs ``sendall(data)`` and ``recv(n)``; a connected
    TCP socket fits. The endpoint owns the association state but not
    the transport lifetime.
    """

    def __init__(self, assoc: Association, transport, rng=os.urandom):
        self.assoc = assoc
        self.transport = transport
        self.state = ChannelState.NEW
        self._rng = rng
        # the unread end of the last recv (bytes, or a memoryview of
        # them): the start of the next record(s), never over READ_SIZE
        self._rest = b""

    # -- handshake ---------------------------------------------------

    def handshake(self) -> None:
        """Run the two-record liveness handshake for this endpoint's role."""
        if self.state is not ChannelState.NEW:
            raise ChannelStateError(f"handshake in state {self.state.value}")
        self.state = ChannelState.HANDSHAKING
        try:
            if self.assoc.role is Role.INITIATOR:
                nonce = bytes(self._rng(HELLO_NONCE_LEN))
                self._send(MsgType.HELLO, nonce)
                msg_type, echoed = self._recv()
                if msg_type is not MsgType.HELLO_ACK:
                    raise HandshakeError(
                        f"expected hello-ack, got {msg_type.name.lower()}"
                    )
                if not hmac.compare_digest(echoed, nonce):
                    raise HandshakeError("hello-ack echo mismatch")
            else:
                msg_type, nonce = self._recv()
                if msg_type is not MsgType.HELLO:
                    raise HandshakeError(f"expected hello, got {msg_type.name.lower()}")
                if len(nonce) != HELLO_NONCE_LEN:
                    raise HandshakeError(
                        f"hello payload must be {HELLO_NONCE_LEN} bytes"
                    )
                self._send(MsgType.HELLO_ACK, nonce)
        except KissError:
            self._fail()
            raise
        self.state = ChannelState.ESTABLISHED

    # -- data traffic ------------------------------------------------

    def send(self, payload: bytes) -> None:
        if self.state is not _ESTABLISHED:
            raise ChannelStateError(f"send in state {self.state.value}")
        try:
            self._send(_DATA, payload)
        except KissError:
            self._fail()
            raise

    def receive(self):
        """Next data payload, or None once the peer has closed."""
        if self.state is not _ESTABLISHED:
            raise ChannelStateError(f"receive in state {self.state.value}")
        try:
            msg_type, payload = self._recv()
        except KissError:
            self._fail()
            raise
        if msg_type is _DATA:
            return payload
        if msg_type is MsgType.CLOSE:
            self.state = ChannelState.CLOSED
            return None
        self._fail()
        raise ChannelStateError(
            f"unexpected {msg_type.name.lower()} record on established channel"
        )

    def close(self) -> None:
        """Announce an orderly shutdown. Idempotent once closed."""
        if self.state is ChannelState.CLOSED:
            return
        if self.state is not ChannelState.ESTABLISHED:
            raise ChannelStateError(f"close in state {self.state.value}")
        try:
            self._send(MsgType.CLOSE, b"")
        finally:
            self.state = ChannelState.CLOSED

    # -- internals ---------------------------------------------------

    def _send(self, msg_type: MsgType, payload: bytes) -> None:
        wire = seal_wire(self.assoc, msg_type, payload)
        try:
            self.transport.sendall(wire)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv(self) -> tuple[MsgType, bytes]:
        try:
            # the transport is looked up per record: callers may swap it
            frame = _read_frame(self.transport.recv, self._rest)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if frame is None:
            raise TransportError("connection closed without a close record")
        wire, header, self._rest = frame
        msg_type, payload = _open_frame(self.assoc, wire, header)
        if msg_type is _ALERT:
            self.state = ChannelState.CLOSED  # so _fail sends no alert back
            raise ChannelAlert("peer reported a protocol failure")
        return msg_type, payload

    def _fail(self) -> None:
        """Best-effort generic alert, then close. One alert type on the
        wire regardless of cause, so failures are not an oracle."""
        if self.state is not ChannelState.CLOSED:
            try:
                self._send(MsgType.ALERT, b"")
            except (KissError, OSError):
                pass
            self.state = ChannelState.CLOSED
