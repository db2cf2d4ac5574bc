"""Exception hierarchy.

Every failure mode gets its own class so callers can branch on type
instead of matching message strings. Peers on the wire must never be
able to tell these apart (the channel emits a single ALERT type); the
distinction exists for the local caller only.
"""

from __future__ import annotations


class KissError(Exception):
    """Base class for all toolkit errors. ``field``, if given, names the bad input."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidParameterError(KissError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class ChainExhaustedError(KissError):
    """The 64-bit step counter ran out; the association must be re-provisioned."""


class ReplayError(KissError):
    """Sequence number at or below the highest already accepted."""


class OutOfWindowError(KissError):
    """Sequence gap larger than the resynchronization window."""


class ProvisionError(KissError):
    """Provisioning failed or a provisioning file is malformed.

    ``field`` names the offending key when the error came from parsing. It
    is None there only for content after the five lines, where no key is
    expected, unless that content names one.
    """


class FrameError(KissError):
    """Wire bytes do not form a valid record. ``field`` names the bad part."""


class AssociationError(KissError):
    """Record does not belong to this association."""


class AuthenticationError(KissError):
    """Tag verification failed; the receive chain was not advanced."""


class ChannelStateError(KissError):
    """Operation not permitted in the endpoint's current state."""


class HandshakeError(KissError):
    """Liveness handshake failed (echo mismatch or protocol violation)."""


class ChannelAlert(KissError):
    """Peer signalled a failure; the channel is dead."""


class TransportError(KissError):
    """The underlying byte stream ended or failed mid-record."""
