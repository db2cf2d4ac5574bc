"""Deterministic key-chain state machine.

Both ends of a channel hold the same (seed, root) pair and derive an
identical sequence of 32-byte values, one per message, by iterating a
keyed one-way function. No key material ever crosses the wire: a
receiver that falls behind simply replays the recurrence forward.

Construction (PRF = HMAC-SHA-256 throughout):

    value_0     = PRF(key = seed, msg = root || direction_label)
    value_{i+1} = PRF(key = value_i, msg = seed || BE64(i))

Chaining through the value makes earlier values unrecoverable from a
captured state (forward secrecy); mixing the seed every step ties the
chain to the long-term secret; the explicit counter rules out cycles.

Four calls make the chain: ``idvv_init`` starts it, the sender advances
it with ``idvv_step``, and the receiver computes a later value with
``idvv_peek`` and lands it with ``IdvvState.commit``; the battery's
keystream is one ``idvv_peek`` walk (``out``). Record keys are derived
from chain values in ``kiss.channel``, and nowhere else.

The PRF is an OpenSSL HMAC context, called in one form everywhere,
``_hmac_new(key, msg, "sha256").digest()``, with no Python frame around
it (``hmac.digest`` refetches the MAC per call, twice the cost at 64 B).

Ownership contract: a state is single-owner. Exactly one logical thread
of control may step it at a time; hand states off between threads, never
share them. Nothing here locks.
"""

from __future__ import annotations

import struct

from _hashlib import hmac_new as _hmac_new

from .errors import (
    ChainExhaustedError,
    InvalidParameterError,
    OutOfWindowError,
    ReplayError,
)

SECRET_LEN = 32
MAX_LABEL_LEN = 16
MAX_COUNTER = 2**64 - 1

_ZEROS = bytes(SECRET_LEN)

_U64 = struct.Struct(">Q")


class _Secret:
    """32-byte secret in a wipeable buffer.

    Python cannot scrub immutable ``bytes``, so the only storage is a
    bytearray that ``wipe()`` (and garbage collection) zeroes. Nothing hands
    out a copy: the chain keys its PRF with the buffer itself.
    """

    __slots__ = ("_buf",)

    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise InvalidParameterError(f"{type(self).__name__} wants bytes")
        if len(data) != SECRET_LEN:
            raise InvalidParameterError(
                f"{type(self).__name__} must be {SECRET_LEN} bytes, got {len(data)}"
            )
        self._buf = bytearray(data)

    def wipe(self) -> None:
        self._buf[:] = _ZEROS

    def __del__(self):  # best effort; wipe() is the reliable path
        try:
            self.wipe()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{SECRET_LEN} bytes>)"


class Seed(_Secret):
    """Long-term chain secret. Serialized only by the provisioning module."""


class Root(_Secret):
    """Second bootstrap secret; independent of the seed."""


class IdvvState:
    """One direction's chain position: current value plus step counter.

    Construct via :func:`idvv_init` or :meth:`from_snapshot`. The previous
    value is zeroed on every step and never retained. Single-owner; see the
    module docstring.
    """

    __slots__ = ("_seed", "_value", "_counter", "_label")

    def __init__(self, seed: Seed, value: bytes, counter: int, label: bytes):
        self._seed = seed
        self._value = bytearray(value)
        self._counter = counter
        self._label = bytes(label)

    @property
    def value(self) -> bytes:
        return bytes(self._value)

    @property
    def counter(self) -> int:
        return self._counter

    def commit(self, value: bytes, counter: int) -> None:
        """Move forward to a position computed by :func:`idvv_peek`,
        overwriting the value buffer in place."""
        if counter <= self._counter:
            raise ReplayError(f"counter {counter} not beyond current {self._counter}")
        self._value[:] = value
        self._counter = counter

    def snapshot(self) -> dict:
        """Persistable position. Excludes the seed, which the caller must
        re-attach on restore."""
        return {
            "counter": self._counter,
            "value": bytes(self._value).hex(),
            "label": self._label.hex(),
        }

    @classmethod
    def from_snapshot(cls, seed: Seed | bytes, snap: dict) -> "IdvvState":
        """Restore a :meth:`snapshot`; a malformed one raises InvalidParameterError."""
        try:
            value, label = bytes.fromhex(snap["value"]), bytes.fromhex(snap["label"])
            counter = snap["counter"]
        except (KeyError, TypeError, ValueError):
            raise InvalidParameterError("snapshot needs hex value and label, and a counter") from None
        if (value.hex(), label.hex()) != (snap["value"], snap["label"]):
            raise InvalidParameterError("snapshot hex must be lowercase, with no spaces")
        if len(value) != SECRET_LEN or type(counter) is not int or not 0 <= counter <= MAX_COUNTER:
            raise InvalidParameterError("snapshot needs a 32-byte value and an int counter < 2**64")
        _check_label(label)
        return cls(_as_secret(seed, Seed), value, counter, label)

    def __repr__(self) -> str:
        return f"IdvvState(label={self._label!r}, counter={self._counter})"


def _as_secret(secret, cls):
    if isinstance(secret, cls):
        return secret
    return cls(secret)


def _check_label(label: bytes) -> None:
    if not isinstance(label, (bytes, bytearray)):
        raise InvalidParameterError("direction label must be bytes")
    if not 0 < len(label) <= MAX_LABEL_LEN:
        raise InvalidParameterError(
            f"direction label must be 1..{MAX_LABEL_LEN} bytes, got {len(label)}"
        )


def idvv_init(seed: Seed | bytes, root: Root | bytes, direction_label: bytes) -> IdvvState:
    """Start a chain: counter 0, value = PRF(seed, root || label).

    Deterministic: identical inputs always produce an identical state.
    Distinct labels yield independent chains from the same secrets.
    """
    seed = _as_secret(seed, Seed)
    root = _as_secret(root, Root)
    _check_label(direction_label)
    # keyed by the seed's own buffer: no immutable copy of either secret
    value = _hmac_new(seed._buf, root._buf + direction_label, "sha256").digest()
    return IdvvState(seed, value, 0, direction_label)


def idvv_step(state: IdvvState) -> bytes:
    """Advance the chain one step and return the new value's bytes.

    The step from counter i keys the PRF with value_i over seed || BE64(i);
    value_i is destroyed by overwriting the state buffer in place.
    """
    if state._counter >= MAX_COUNTER:
        raise ChainExhaustedError("chain counter exhausted; re-provision the association")
    # the PRF takes the live buffers directly; no secret copies made here
    new = _hmac_new(state._value, state._seed._buf + _U64.pack(state._counter), "sha256").digest()
    state._value[:] = new
    state._counter += 1
    return new


def idvv_peek(state: IdvvState, target_counter: int, max_steps: int, out=None) -> bytes:
    """The value at ``target_counter``, computed without changing ``state``.

    Refuses to go backwards or sideways (replay) and refuses gaps beyond
    ``max_steps`` (out of window). Commit with :meth:`IdvvState.commit`.
    If ``out`` is a list, every value walked is appended to it.
    """
    counter = state._counter
    if target_counter <= counter:
        raise ReplayError(f"target counter {target_counter} not beyond current {counter}")
    if target_counter - counter > max_steps:
        raise OutOfWindowError(f"gap {target_counter - counter} exceeds window {max_steps}")
    if target_counter > MAX_COUNTER:
        raise ChainExhaustedError("chain counter exhausted; re-provision the association")
    value, seed, pack = state._value, state._seed._buf, _U64.pack
    # not a range loop: building the range costs a tenth of a one-step walk
    while counter < target_counter:
        value = _hmac_new(value, seed + pack(counter), "sha256").digest()
        counter += 1
        if out is not None:
            out.append(value)
    return value
