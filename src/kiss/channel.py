"""Authenticated record layer over per-record chain keys.

Every record, in either mode, is protected by keys derived from a fresh
chain value: the sender steps its send chain once per record and the
sequence number in the header tells the receiver how far to fast-forward
its receive chain before verifying. No key ever covers two records, and
neither chain keeps the value of a record it has sealed or opened: each
holds only its next, unused value (``kiss.idvv``).

Wire layout: ``header(25) || payload || tag``. Header fields, big
endian: magic ``KI``, version, msg_type, mode, assoc_id(8), seq(8),
payload_len(4). In auth-only mode the tag is a 32-byte HMAC-SHA-256
over header and payload; in AEAD mode the payload field carries the
AES-256-GCM ciphertext and the tag field its 16-byte GCM tag, with the
header as associated data.

Receive-side rules. Nothing is committed until the tag verifies: the
receiver gets the record's chain value from its live chain without
moving it (``IdvvState.head`` at the next seq, ``idvv_peek`` past it)
and commits it only once the tag is good, so a flood of garbage cannot
desynchronize the endpoint or burn window state. Each receive path has
one seq bound: an endpoint takes only the next seq, as a stream cannot
lose a record without failing; ``open_record``, for datagrams, takes
one up to ``RESYNC_WINDOW`` past the last accepted. A seq past the bound
is refused before any HMAC call, an old one by ``idvv_peek``.

Record path, one call per layer per record. ``ChannelEndpoint.send``
calls ``seal_wire``, the only code that seals: it takes the send chain's
next value and seq in one ``head`` call, lands them with ``commit``,
packs the header once and returns the wire bytes for one ``sendall``.
``ChannelEndpoint.receive`` calls ``_read_frame``, which cuts the next
record out of what the last ``recv`` left unread, asking
``recv(READ_SIZE)`` when nothing is; a record one ``recv`` brought whole
is opened where it lies, with no copy. A record that needs more reads is
finished by ``_read_rest``, within the transport's timeout from its
first byte. ``_parse_header`` is the one header parser. The parsed header
goes straight to ``_open_frame``, the verify-and-commit step that
``open_record`` also runs after its exact-length check.

``seal`` and ``encode_record`` are the names the benchmark calls, as
``encode_record(seal(...))``, and its tracer wraps: both give
``seal_wire``'s bytes, and no endpoint runs them.
"""

from __future__ import annotations

import enum
import hmac
import os
import struct
from time import monotonic

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
    OutOfWindowError,
    TransportError,
)
from .idvv import _hmac_new, idvv_peek

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


def _parse_header(buf) -> tuple[MsgType, Mode, bytes, int, int, int]:
    """Parse and validate the fixed 25-byte header at the start of ``buf``.
    The last two fields are where the payload ends and the record ends."""
    try:
        magic, version, mt_raw, mode_raw, assoc_id, seq, payload_len = _HEADER.unpack_from(buf)
    except struct.error:
        raise FrameError(f"header truncated: {len(buf)} < {HEADER_LEN}") from None
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


# AES-GCM comes from `cryptography`, which only AEAD mode needs, so it is
# not imported here: the first AEAD record keyed binds AESGCM and
# InvalidTag through load_aead (the CLI calls it before it opens a
# socket), and an auth-only endpoint runs on the standard library alone.
# AESGCM is the name the AEAD path calls; the benchmark's tracer swaps it.
AESGCM = InvalidTag = None


def load_aead() -> None:
    """Bind ``AESGCM`` and ``InvalidTag`` here; KissError without ``cryptography``."""
    global AESGCM, InvalidTag
    try:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    except ImportError:
        raise KissError("AEAD needs cryptography: pip install 'kiss-toolkit[aead]'") from None


def _record_keys(value: bytes, mode: Mode):
    """This record's key and nonce (None in auth-only mode) from its chain value."""
    if mode is _AUTH_ONLY:
        return _hmac_new(value, KEY_LABEL_MAC, "sha256").digest(), None
    if AESGCM is None:
        load_aead()
    nonce = _hmac_new(value, KEY_LABEL_NONCE, "sha256").digest()[:12]
    return _hmac_new(value, KEY_LABEL_ENC, "sha256").digest(), nonce


def seal_wire(assoc: Association, msg_type: MsgType, payload: bytes) -> bytes:
    """Protect one outgoing record and return its wire bytes, advancing the
    send chain by one step.

    In AEAD mode the payload field carries the ciphertext. A payload that is not
    a contiguous buffer, or AEAD without ``cryptography``, raises before the chain moves.
    """
    payload = memoryview(payload).cast("B")  # bytes, not items, for payload_len and both modes
    size = len(payload)
    if size > MAX_PAYLOAD:
        raise InvalidParameterError(f"payload {size} exceeds cap {MAX_PAYLOAD}")
    mode, chain = assoc.mode, assoc.send_chain
    value, seq = chain.head()
    key, nonce = _record_keys(value, mode)
    chain.commit(value, seq)
    auth_only = mode is _AUTH_ONLY
    raw_mode = _AUTH_ONLY_WIRE if auth_only else _AEAD_WIRE
    # Ciphertext length equals plaintext length in GCM, so the header
    # (which doubles as the AAD) can be built before protecting.
    header = _HEADER.pack(
        MAGIC, VERSION, msg_type, raw_mode, assoc.assoc_id, seq, size
    )
    if auth_only:
        signed = header + payload
        return signed + _hmac_new(key, signed, "sha256").digest()
    return header + AESGCM(key).encrypt(nonce, payload, header)


def seal(assoc: Association, msg_type: MsgType, payload: bytes) -> bytes:
    return seal_wire(assoc, msg_type, payload)


def encode_record(wire: bytes) -> bytes:
    return wire


def open_record(assoc: Association, wire: bytes) -> tuple[MsgType, bytes]:
    """Verify and decode one complete record; commit state only on success."""
    header = _parse_header(wire)
    if len(wire) != header[5]:
        raise FrameError(
            f"record length {len(wire)} does not match header (want {header[5]})",
            field="payload_len",
        )
    return _open_frame(assoc, wire, header, RESYNC_WINDOW)


# The largest seq gap open_record closes in one record, for datagrams,
# which may be lost; an endpoint passes _open_frame 1, the next seq only,
# since its stream cannot lose a record. A forged record costs
# open_record this walk before its tag check: 1025 HMAC calls, about 1.4
# ms for an 89-B auth-only record on a 2-vCPU Xeon VM (Python 3.11.7,
# OpenSSL 3.0.19); an endpoint refuses it before any HMAC call.
RESYNC_WINDOW = 1024


def _open_frame(assoc, wire, header, window):
    """:func:`open_record` for a parsed header; refuses a seq over ``window`` past the last."""
    msg_type, mode, assoc_id, seq, end, _ = header
    if assoc_id != assoc.assoc_id:
        raise AssociationError("record addressed to a different association")
    if mode is not assoc.mode:
        raise FrameError(
            f"record mode {mode.value} does not match association "
            f"{assoc.mode.value}",
            field="mode",
        )
    chain = assoc.recv_chain
    value, next_seq = chain.head()
    if seq != next_seq:
        gap = seq - next_seq + 1
        if gap > window:
            raise OutOfWindowError(f"gap {gap} exceeds window {window}")
        value = idvv_peek(chain, seq)  # refuses a replay: seq <= counter
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


def _read_frame(transport, rest):
    """Cut the next record out of ``rest``, the unread end of the last
    ``transport.recv``, calling ``transport.recv(n)`` for what it lacks.
    With no bytes in hand it asks for ``READ_SIZE``; a record one ``recv``
    brought whole is not copied: it is that ``recv``'s bytes, or a
    memoryview of them. A record that needs more goes to
    :func:`_read_rest`. Returns the wire bytes and parsed header that
    :func:`_open_frame` takes and the new ``rest``, or None on a clean EOF
    at a record boundary; EOF anywhere else raises TransportError.
    """
    if not rest:
        # waiting for a record's first byte keeps the transport's own timeout
        rest = transport.recv(READ_SIZE)
        if not rest:
            return None
    have = len(rest)
    if have < HEADER_LEN:
        return _read_rest(transport, rest, None)
    header = _parse_header(rest)
    size = header[5]
    if have == size:
        return rest, header, b""
    if have > size:
        view = memoryview(rest)
        return view[:size], header, view[size:]
    return _read_rest(transport, rest, header)


def _read_rest(transport, rest, header):
    """Finish a record that starts with ``rest``, given its parsed header
    or None while that is incomplete: ``transport.recv`` exactly what the
    header lacks, then what the record lacks. Where the transport has a
    timeout (``gettimeout()`` not None), that timeout bounds the rest of
    the record: each ``recv`` gets the time left through ``settimeout``,
    past it TransportError is raised, and the timeout is put back. So a
    slow peer gets one timeout per record, not one per byte."""
    timeout = transport.gettimeout() if hasattr(transport, "gettimeout") else None
    recv = read = transport.recv
    if timeout is not None:
        deadline = monotonic() + timeout

        def read(n):
            left = deadline - monotonic()
            if left <= 0:
                raise TransportError(f"record not complete {timeout} s after its first byte")
            transport.settimeout(left)
            return recv(n)

    try:
        if header is None:
            rest = _read_to(read, rest, HEADER_LEN)
            header = _parse_header(rest)
        return _read_to(read, rest, header[5]), header, b""
    finally:
        if timeout is not None:
            transport.settimeout(timeout)


def _read_to(recv, rest, size):
    """``rest`` and what ``recv`` brings after it, ``size`` bytes in all."""
    parts, have = [rest], len(rest)
    while have < size:
        chunk = recv(size - have)
        if not chunk:
            raise TransportError(f"connection closed mid-record ({have}/{size} bytes)")
        parts.append(chunk)
        have += len(chunk)
    return b"".join(parts)


class ChannelEndpoint:
    """One side of an established channel over a stream transport.

    ``transport`` needs ``sendall(data)`` and ``recv(n)``; a connected
    TCP socket fits. With ``gettimeout`` and ``settimeout`` as well it
    gets the per-record deadline (``_read_rest``); a wrapper keeps the
    deadline by forwarding both, however it holds ``recv``. The endpoint
    owns the association state but not the transport lifetime.
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
        """Run the two-record liveness handshake for this endpoint's role:
        the initiator sends a HELLO nonce and the responder echoes it back
        in a HELLO_ACK."""
        if self.state is not ChannelState.NEW:
            raise ChannelStateError(f"handshake in state {self.state.value}")
        self.state = ChannelState.HANDSHAKING
        assoc = self.assoc
        initiator = assoc.role is Role.INITIATOR
        expected = MsgType.HELLO_ACK if initiator else MsgType.HELLO
        try:
            if initiator:
                nonce = bytes(self._rng(HELLO_NONCE_LEN))
                self.transport.sendall(seal_wire(assoc, MsgType.HELLO, nonce))
            frame = _read_frame(self.transport, self._rest)
            if frame is None:
                raise TransportError("connection closed during the handshake")
            wire, header, self._rest = frame
            msg_type, payload = _open_frame(assoc, wire, header, 1)  # the next seq only
            if msg_type is _ALERT:
                self.state = ChannelState.CLOSED  # so _fail sends no alert back
                raise ChannelAlert("peer reported a protocol failure")
            if msg_type is not expected:
                raise HandshakeError(
                    f"expected {expected.name.lower().replace('_', '-')}, "
                    f"got {msg_type.name.lower()}"
                )
            if initiator:
                if not hmac.compare_digest(payload, nonce):
                    raise HandshakeError("hello-ack echo mismatch")
            else:
                if len(payload) != HELLO_NONCE_LEN:
                    raise HandshakeError(f"hello payload must be {HELLO_NONCE_LEN} bytes")
                self.transport.sendall(seal_wire(assoc, MsgType.HELLO_ACK, payload))
        except (KissError, OSError) as exc:
            raise self._fail(exc)
        self.state = _ESTABLISHED

    # -- data traffic ------------------------------------------------

    def send(self, payload: bytes) -> None:
        if self.state is not _ESTABLISHED:
            raise ChannelStateError(f"send in state {self.state.value}")
        try:
            self.transport.sendall(seal_wire(self.assoc, _DATA, payload))
        except (KissError, OSError) as exc:
            raise self._fail(exc)

    def receive(self):
        """Next data payload, or None once the peer has closed."""
        if self.state is not _ESTABLISHED:
            raise ChannelStateError(f"receive in state {self.state.value}")
        try:
            # the transport is looked up per record: callers may swap it
            frame = _read_frame(self.transport, self._rest)
            if frame is None:
                raise TransportError("connection closed without a close record")
            wire, header, self._rest = frame
            msg_type, payload = _open_frame(self.assoc, wire, header, 1)  # the next seq only
        except (KissError, OSError) as exc:
            raise self._fail(exc)
        if msg_type is _DATA:
            return payload
        if msg_type is MsgType.CLOSE:
            self.state = ChannelState.CLOSED
            return None
        if msg_type is _ALERT:
            self.state = ChannelState.CLOSED  # so no alert goes back
            raise ChannelAlert("peer reported a protocol failure")
        raise self._fail(ChannelStateError(
            f"unexpected {msg_type.name.lower()} record on established channel"
        ))

    def close(self) -> None:
        """Announce an orderly shutdown. Idempotent once closed."""
        if self.state is ChannelState.CLOSED:
            return
        if self.state is not _ESTABLISHED:
            raise ChannelStateError(f"close in state {self.state.value}")
        self.state = ChannelState.CLOSED  # a close that fails sends no alert
        try:
            self.transport.sendall(seal_wire(self.assoc, MsgType.CLOSE, b""))
        except (KissError, OSError) as exc:
            raise self._fail(exc)

    # -- internals ---------------------------------------------------

    def _fail(self, exc: Exception) -> KissError:
        """Best-effort generic alert, unless closed, then close; return the
        error to raise: ``exc``, or a TransportError for an OSError. One
        alert type on the wire regardless of cause, so failures are not an
        oracle."""
        if self.state is not ChannelState.CLOSED:
            try:
                self.transport.sendall(seal_wire(self.assoc, _ALERT, b""))
            except (KissError, OSError):
                pass
            self.state = ChannelState.CLOSED
        if isinstance(exc, OSError):
            error = TransportError(f"transport failed: {exc}")
            error.__cause__ = exc
            return error
        return exc
