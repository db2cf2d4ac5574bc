"""Deterministic key-chain state machine.

Both ends of a channel hold the same (seed, root) pair and derive an
identical sequence of 32-byte values, one per message, by iterating a
keyed one-way function. No key material ever crosses the wire: a
receiver that falls behind simply replays the recurrence forward.

Construction (PRF = HMAC-SHA-256 throughout):

    value_0     = PRF(key = seed, msg = root || direction_label)
    value_{i+1} = PRF(key = value_i, msg = seed || BE64(i))

Mixing the seed every step ties the chain to the long-term secret; the
explicit counter rules out cycles.

Forward secrecy (the generator of Bellare and Yee, CT-RSA 2003; the KDF
chain of the Signal Double Ratchet, section 2.2): a state at counter c
holds only the seed and value_{c+1}, the next unused value; record c is
keyed from value_c. Each value is derived, handed out once, and the state
that made it is replaced, so a captured state derives no key already
used: going back means recovering a PRF key from its output. Python
cannot scrub immutable ``bytes``, so the module holds every secret in
plain ``bytes``, pretends to wipe none, and uses no ctypes.

``idvv_init`` starts a chain, which then has one read and one move:
``idvv_peek`` gives the value at a later counter (the next, ``counter +
1``, with no PRF call) and ``IdvvState.commit`` lands it. The record
layer seals with both at ``counter + 1`` and opens with both at the
record's seq, committing once the tag verifies; ``kiss vectors`` and the
bench's ``idvv-step`` row step as sealing does. The battery's keystream
is one ``idvv_peek`` walk (``out``). Record keys are derived from chain
values in ``kiss.channel``.

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

from .errors import ChainExhaustedError, InvalidParameterError, ReplayError

SECRET_LEN = 32
MAX_LABEL_LEN = 16
MAX_COUNTER = 2**64 - 1

# seed || BE64(counter), the message of every chain step, in one pack
_STEP_MSG = struct.Struct(">32sQ")


class IdvvState:
    """One direction's chain position: the step counter c and value_{c+1},
    the next unused value, both beside the seed.

    Construct via :func:`idvv_init` or :meth:`from_snapshot`. No value the
    chain has handed out stays in it. Single-owner; see the module docstring.
    """

    __slots__ = ("_seed", "_next", "_counter", "_label")

    def __init__(self, seed: bytes, next_value: bytes, counter: int, label: bytes):
        self._seed = seed
        self._next = next_value
        self._counter = counter
        self._label = label

    @property
    def counter(self) -> int:
        return self._counter

    def commit(self, value: bytes, counter: int) -> None:
        """The chain's one move: to ``counter``, whose value :func:`idvv_peek`
        gave, keeping only the value after it."""
        if counter <= self._counter:
            raise ReplayError(f"counter {counter} not beyond current {self._counter}")
        if counter > MAX_COUNTER:
            raise ChainExhaustedError("chain counter exhausted; re-provision the association")
        self._next = _hmac_new(value, _STEP_MSG.pack(self._seed, counter), "sha256").digest()
        self._counter = counter

    def snapshot(self) -> dict:
        """Persistable position: the counter and the next unused value.
        Excludes the seed, which the caller must re-attach on restore."""
        return {
            "counter": self._counter,
            "value": self._next.hex(),
            "label": self._label.hex(),
        }

    @classmethod
    def from_snapshot(cls, seed: bytes, snap: dict) -> "IdvvState":
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
        _check_secret("seed", seed)
        return cls(seed, value, counter, label)

    def __repr__(self) -> str:
        return f"IdvvState(label={self._label!r}, counter={self._counter})"


def _check_secret(name: str, secret) -> None:
    if not isinstance(secret, bytes) or len(secret) != SECRET_LEN:
        raise InvalidParameterError(f"{name} must be {SECRET_LEN} bytes")


def _check_label(label: bytes) -> None:
    if not isinstance(label, (bytes, bytearray)):
        raise InvalidParameterError("direction label must be bytes")
    if not 0 < len(label) <= MAX_LABEL_LEN:
        raise InvalidParameterError(
            f"direction label must be 1..{MAX_LABEL_LEN} bytes, got {len(label)}"
        )


def idvv_init(seed: bytes, root: bytes, direction_label: bytes, out=None) -> IdvvState:
    """Start a chain: counter 0, holding value_1.

    value_0 = PRF(seed, root || label) is stepped once and not kept; if
    ``out`` is a list, it is appended there. Deterministic: identical
    inputs always produce an identical state. Distinct labels yield
    independent chains from the same secrets.
    """
    _check_secret("seed", seed)
    _check_secret("root", root)
    _check_label(direction_label)
    value = _hmac_new(seed, root + direction_label, "sha256").digest()
    if out is not None:
        out.append(value)
    next_value = _hmac_new(value, _STEP_MSG.pack(seed, 0), "sha256").digest()
    return IdvvState(seed, next_value, 0, bytes(direction_label))


def idvv_peek(state: IdvvState, target_counter: int, out=None) -> bytes:
    """The value at ``target_counter``, computed without changing ``state``.

    Refuses to go backwards or sideways (replay). Walks from the held
    value, so the next counter costs no PRF call and each one past it
    costs one; the walk has no window, so a caller bounds the gap it
    accepts (the record layer's seq bound). Commit with
    :meth:`IdvvState.commit`. If ``out`` is a list, every value walked,
    the held one first, is appended to it.
    """
    counter = state._counter
    if target_counter <= counter:
        raise ReplayError(f"target counter {target_counter} not beyond current {counter}")
    if target_counter > MAX_COUNTER:
        raise ChainExhaustedError("chain counter exhausted; re-provision the association")
    value, seed, pack = state._next, state._seed, _STEP_MSG.pack
    if out is not None:
        out.append(value)
    counter += 1
    # not a range loop: building the range costs a tenth of a one-step walk
    while counter < target_counter:
        value = _hmac_new(value, pack(seed, counter), "sha256").digest()
        counter += 1
        if out is not None:
            out.append(value)
    return value
