"""Record layer as one stateful model: two loaded associations, both
directions, driven through ``seal_wire``, ``_read_frame`` and
``_open_frame`` by Hypothesis, with the layer's promises checked after
every step."""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import kiss.channel as channel_mod
from kiss.association import Mode
from kiss.channel import RESYNC_WINDOW, MsgType, _open_frame, _read_frame, seal_wire
from kiss.errors import KissError

from test_channel import _held, _opens, _pair

# the sizes a scripted transport cuts a record into, then the rest at once
CUTS = st.lists(st.integers(1, 80), max_size=6)
# the seq bound of a delivery: an endpoint's, or open_record's
WINDOWS = st.sampled_from((1, RESYNC_WINDOW))


def _scripted_transport(wire, cuts):
    """A transport whose recv hands out ``wire`` in pieces of the sizes in
    ``cuts``, never more than it is asked for, then EOF."""
    pos, cuts = 0, list(cuts)

    def recv(n):
        nonlocal pos
        chunk = wire[pos : pos + min(n, cuts.pop(0) if cuts else n)]
        pos += len(chunk)
        return chunk

    return SimpleNamespace(recv=recv)


@dataclass(frozen=True)
class Sealed:
    way: int  # 0: initiator to responder, 1: responder to initiator
    seq: int
    payload: bytes
    wire: bytes


class RecordLayer(RuleBasedStateMachine):
    sealed = Bundle("sealed")

    def __init__(self, mode):
        super().__init__()
        self.mode = mode
        initiator, responder = _pair(mode)
        self.ways = ((initiator, responder), (responder, initiator))
        self.records = ([], [])  # per way, in seal order: records[way][seq - 1]
        self.accepted = ({}, {})  # per way: seq -> the payload opened at it
        self.sealing_keys = []  # (key, nonce) of every record sealed
        self.derived = []
        self.derive = derive = channel_mod._record_keys

        def recording(value, mode):
            keys = derive(value, mode)
            self.derived.append(keys)
            return keys

        channel_mod._record_keys = recording

    def teardown(self):
        channel_mod._record_keys = self.derive

    def _deliver(self, record, wire, cuts, window, genuine=True):
        """Frame ``wire`` out of a scripted transport and open it at the
        receiver of ``record``'s way with seq bound ``window``: a genuine
        record is accepted exactly when its seq is past the receiver's and
        inside the window, and a refused one leaves the receiver as it was."""
        receiver = self.ways[record.way][1]
        chain = receiver.recv_chain
        before = chain.snapshot(), receiver.highest_accepted_seq
        in_window = chain.counter < record.seq <= chain.counter + window
        try:
            frame, header, rest = _read_frame(_scripted_transport(wire, cuts), b"")
            _, payload = _open_frame(receiver, frame, header, window)
        except KissError:
            assert (chain.snapshot(), receiver.highest_accepted_seq) == before
            assert not (genuine and in_window)
            return
        assert genuine and in_window and rest == b""
        seq = chain.counter
        assert seq == record.seq and seq not in self.accepted[record.way]
        assert payload == self.records[record.way][seq - 1].payload
        self.accepted[record.way][seq] = payload

    @rule(target=sealed, way=st.integers(0, 1), payload=st.binary(max_size=40))
    def seal(self, way, payload):
        sender = self.ways[way][0]
        self.derived.clear()
        wire = seal_wire(sender, MsgType.DATA, payload)
        self.sealing_keys += self.derived
        record = Sealed(way, sender.send_chain.counter, payload, wire)
        self.records[way].append(record)
        return record

    # which record goes next covers drops and reordering
    @rule(record=sealed, cuts=CUTS, window=WINDOWS)
    def deliver(self, record, cuts, window):
        self._deliver(record, record.wire, cuts, window)

    @precondition(lambda self: self.accepted[0] or self.accepted[1])
    @rule(data=st.data())
    def replay(self, data):
        way = data.draw(st.sampled_from([w for w in (0, 1) if self.accepted[w]]))
        seq = data.draw(st.sampled_from(sorted(self.accepted[way])))
        record = self.records[way][seq - 1]
        self._deliver(record, record.wire, data.draw(CUTS), data.draw(WINDOWS))

    @rule(record=sealed, bit=st.integers(0), cuts=CUTS, window=WINDOWS)
    def flip(self, record, bit, cuts, window):
        wire = bytearray(record.wire)
        bit %= 8 * len(wire)
        wire[bit // 8] ^= 0x80 >> (bit % 8)
        self._deliver(record, bytes(wire), cuts, window, genuine=False)

    @rule(record=sealed, keep=st.integers(0), cuts=CUTS, window=WINDOWS)
    def truncate(self, record, keep, cuts, window):
        wire = record.wire[: 1 + keep % (len(record.wire) - 1)]
        self._deliver(record, wire, cuts, window, genuine=False)

    # a forger rewrites the seq (header bytes 13-20) past the receiver's,
    # near both ends of the window and just beyond it, and guesses a tag
    @rule(
        record=sealed,
        gap=st.one_of(st.integers(1, 4), st.integers(RESYNC_WINDOW - 1, RESYNC_WINDOW + 1)),
        bit=st.integers(0, 8 * 16 - 1),  # the last 16 bytes are tag in both modes
        window=WINDOWS,
    )
    def forge(self, record, gap, bit, window):
        wire = bytearray(record.wire)
        wire[13:21] = (self.ways[record.way][1].recv_chain.counter + gap).to_bytes(8, "big")
        wire[-1 - bit // 8] ^= 1 << (bit % 8)
        self._deliver(record, bytes(wire), [], window, genuine=False)

    @invariant()
    def no_sealing_key_repeats(self):
        assert len(set(self.sealing_keys)) == len(self.sealing_keys)

    @invariant()
    def highest_accepted_is_the_receive_chain(self):
        for _, receiver in self.ways:
            assert receiver.highest_accepted_seq == receiver.recv_chain.counter

    @invariant()
    def no_held_value_opens_a_used_record(self):
        # the send chain holds the key of the next record it seals; the
        # receive chain that of the seq after its own, so of no record
        # it opened or walked past
        for (sender, receiver), records in zip(self.ways, self.records):
            sent, received = _held(sender.send_chain), _held(receiver.recv_chain)
            for r in records:
                assert not _opens(r.wire, sent, self.mode)
                if r.seq <= receiver.recv_chain.counter:
                    assert not _opens(r.wire, received, self.mode)


@pytest.mark.parametrize("mode", [Mode.AUTH_ONLY, Mode.AEAD])
def test_record_layer_model(mode):
    run_state_machine_as_test(
        lambda: RecordLayer(mode),
        settings=settings(max_examples=40, stateful_step_count=30, deadline=None),
    )
