"""From-scratch checker for records that crossed the wire.

Shares no code with ``kiss.idvv`` or ``kiss.channel``. HMAC-SHA-256 is
built from ``hashlib`` with explicit ipad/opad, the chain and the key
derivation follow the published construction, and the header is parsed
from the wire layout in the README:

    value_0     = HMAC(seed, root || direction_label)
    value_{i+1} = HMAC(value_i, seed || BE64(i))
    key         = HMAC(value_seq, key_label)[:n]

    header(25)  = "KI" | version 0x01 | msg_type | mode | assoc_id(8)
                  | seq(8) | payload_len(4), big endian
    auth-only   : header || payload || HMAC(k_mac, header || payload)
    AEAD        : header || AES-256-GCM(k_enc, nonce, payload, aad=header)

The AES-GCM primitive comes from the ``cryptography`` library, which is
the reference implementation here, not the program under test.
"""

from __future__ import annotations

import hashlib
import struct

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

LABEL_C2S = b"c2s"
LABEL_S2C = b"s2c"
MSG_DATA = 0x03
SEQ_FIELD = slice(13, 21)  # of the header

_BLOCK = 64
_IPAD = int.from_bytes(b"\x36" * _BLOCK, "big")
_OPAD = int.from_bytes(b"\x5c" * _BLOCK, "big")
_HEADER = struct.Struct(">2sBBB8sQI")
_MODE_BYTE = {"auth": 0x01, "aead": 0x02}
_TAG_LEN = {"auth": 32, "aead": 16}


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    k = int.from_bytes(key.ljust(_BLOCK, b"\x00"), "big")
    inner = hashlib.sha256((k ^ _IPAD).to_bytes(_BLOCK, "big") + msg).digest()
    return hashlib.sha256((k ^ _OPAD).to_bytes(_BLOCK, "big") + inner).digest()


class Chain:
    """One direction's chain, walked forward on demand."""

    def __init__(self, seed: bytes, root: bytes, label: bytes):
        self._seed = seed
        self.counter = 0
        self.value = hmac_sha256(seed, root + label)

    def value_at(self, seq: int) -> bytes:
        if seq < self.counter:
            raise ValueError(f"chain already past {seq} (at {self.counter})")
        while self.counter < seq:
            self.value = hmac_sha256(self.value, self._seed + struct.pack(">Q", self.counter))
            self.counter += 1
        return self.value


def record_keys(value: bytes, mode: str) -> tuple[bytes, bytes]:
    """(key, nonce) for one record; the nonce is empty in auth-only mode."""
    if mode == "auth":
        return hmac_sha256(value, b"kiss-mac")[:32], b""
    return hmac_sha256(value, b"kiss-enc")[:32], hmac_sha256(value, b"kiss-nonce")[:12]


class WireChecker:
    """Re-derives one direction's records from the provisioned secrets.

    ``check`` takes captured records in increasing seq order and returns
    True only when the record is exactly what the construction gives for
    that seq and payload.
    """

    def __init__(self, seed: bytes, root: bytes, assoc_id: bytes, mode: str, label: bytes):
        self._chain = Chain(seed, root, label)
        self._assoc_id = assoc_id
        self._mode = mode

    def check(self, wire: bytes, seq: int, payload: bytes, msg_type: int = MSG_DATA) -> bool:
        tag_len = _TAG_LEN[self._mode]
        if len(wire) != _HEADER.size + len(payload) + tag_len:
            return False
        header = wire[: _HEADER.size]
        fields = _HEADER.unpack(header)
        if fields != (b"KI", 0x01, msg_type, _MODE_BYTE[self._mode], self._assoc_id, seq, len(payload)):
            return False
        key, nonce = record_keys(self._chain.value_at(seq), self._mode)
        body = wire[_HEADER.size :]
        if self._mode == "auth":
            return body[: len(payload)] == payload and body[len(payload) :] == hmac_sha256(
                key, header + payload
            )
        try:
            return AESGCM(key).decrypt(nonce, body, header) == payload
        except InvalidTag:
            return False


def keystream_reused(wire_a: bytes, wire_b: bytes, plain_a: bytes, plain_b: bytes) -> bool:
    """True when two AEAD records of equal-length plaintexts were encrypted
    under one GCM keystream: their ciphertexts XOR to their plaintexts' XOR.
    Reads only the records, not the secrets."""
    n = len(plain_a)
    ct_a, ct_b = wire_a[_HEADER.size : _HEADER.size + n], wire_b[_HEADER.size : _HEADER.size + n]
    return _xor(ct_a, ct_b) == _xor(plain_a, plain_b)


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
