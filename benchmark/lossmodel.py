"""Seeded lossy-datagram channel model for the ``lossy-1500`` workload.

The sender's records arrive in order, but the model drops bursts, injects
single-bit flips and truncations of a record ahead of it, and replays
records the receiver already accepted. Each delivered datagram carries
the outcome the model expects, worked out from the model's own
bookkeeping and not from the program:

* a fresh record whose seq is above every seq delivered so far, at a gap
  of at most ``MAX_DROP_BURST + 1`` (well inside the resync window of
  1024), is accepted with its exact plaintext;
* a replay, a flipped copy or a truncated copy is rejected.

Bit flips never touch the seq field (header bytes 13..20). A flip there
turns into a forged record with a large gap, whose cost is the
pre-authentication fast-forward reported in CHANGES.md; that traffic is
left out of this workload on purpose.

The shares below are synthetic: no measured link stands behind them.
Each was chosen only so that every path of ``open_record`` (gap 1, the
fast-forward past gap 1, and each kind of reject) is taken many times in
every slice. The workload counts, per run, how many datagrams of each
kind and gap it offered and where each slice's tail sample fell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DROP_SHARE = 0.04  # chance that a fresh record starts a drop burst
MAX_DROP_BURST = 8  # burst length is uniform in 1..MAX_DROP_BURST
FLIP_SHARE = 0.05  # chance of a bit-flipped copy ahead of a delivered record
TRUNC_SHARE = 0.03  # chance of a truncated copy ahead of a delivered record
REPLAY_SHARE = 0.05  # chance of replaying an accepted record after it
REPLAY_DEPTH = 64  # replays pick among the last REPLAY_DEPTH accepted records

SEQ_BYTES = range(13, 21)


@dataclass(frozen=True)
class Datagram:
    kind: str  # "fresh", "flip", "trunc" or "replay"
    wire: bytes
    expect_plaintext: bytes | None  # set only when the model expects acceptance
    gap: int = 0  # a fresh record's seq minus the highest seq before it


class LossModel:
    """Turns the sender's in-order records into a seeded datagram sequence."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._burst_left = 0
        self._highest = 0
        self._accepted: list[bytes] = []

    def deliver(self, records) -> list[Datagram]:
        """``records`` is a list of (seq, plaintext, wire) in seal order."""
        rng = self._rng
        out = []
        for seq, plaintext, wire in records:
            # a burst starts only after a delivered record, so gaps stay
            # at most MAX_DROP_BURST + 1
            if self._burst_left == 0 and self._highest == seq - 1 and rng.random() < DROP_SHARE:
                self._burst_left = rng.randint(1, MAX_DROP_BURST)
            if self._burst_left:
                self._burst_left -= 1
                continue
            if rng.random() < FLIP_SHARE:
                out.append(Datagram("flip", flip_bit(wire, rng), None))
            if rng.random() < TRUNC_SHARE:
                out.append(Datagram("trunc", wire[: rng.randrange(len(wire))], None))
            if seq <= self._highest or seq - self._highest > MAX_DROP_BURST + 1:
                raise ValueError(f"sender seq {seq} breaks the model (highest {self._highest})")
            out.append(Datagram("fresh", wire, plaintext, seq - self._highest))
            self._highest = seq
            self._accepted.append(wire)
            del self._accepted[:-REPLAY_DEPTH]
            if rng.random() < REPLAY_SHARE:
                out.append(Datagram("replay", rng.choice(self._accepted), None))
        return out


def flip_bit(wire: bytes, rng: random.Random) -> bytes:
    """``wire`` with one bit flipped anywhere outside the seq field."""
    i = rng.randrange(len(wire) - len(SEQ_BYTES))
    if i >= SEQ_BYTES.start:
        i += len(SEQ_BYTES)
    out = bytearray(wire)
    out[i] ^= 1 << rng.randrange(8)
    return bytes(out)
