"""Chain core: known answers, oracle equivalence, state hygiene, and the
record keys the channel derives from chain values."""

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from kiss.association import LABEL_C2S, Mode, ProvisionFile, Role, load_association
from kiss.channel import (
    HEADER_LEN,
    KEY_LABEL_ENC,
    KEY_LABEL_MAC,
    KEY_LABEL_NONCE,
    MsgType,
    encode_record,
    open_record,
    seal,
)
from kiss.errors import (
    ChainExhaustedError,
    InvalidParameterError,
    ReplayError,
)
from kiss.idvv import (
    MAX_COUNTER,
    IdvvState,
    idvv_init,
    idvv_peek,
)

from oracles import (
    RFC4231_CASES,
    chain_values_ref,
    derive_key_ref,
    hmac_sha256_ref,
)

SEED = bytes(range(32))
ROOT = bytes(range(32, 64))


def test_oracle_hmac_matches_rfc4231():
    # the reference HMAC must stand on its own before anything trusts it
    for case in RFC4231_CASES:
        got = hmac_sha256_ref(case["key"], case["data"])[: case["trunc"]]
        assert got == case["mac"]


def _held(state):
    """The value a state holds: the next one it will hand out."""
    return bytes.fromhex(state.snapshot()["value"])


def _step(state):
    """The sender's step, as ``seal_wire`` makes it: ``head``, then
    ``commit`` of what it gave."""
    value, seq = state.head()
    state.commit(value, seq)
    return value


def test_init_deterministic():
    a = idvv_init(SEED, ROOT, b"c2s")
    b = idvv_init(SEED, ROOT, b"c2s")
    assert a.snapshot() == b.snapshot()
    assert a.counter == b.counter == 0


def test_init_value_is_prf_of_root_and_label():
    # value_0 goes only to out; the state holds value_1, one step on
    v0 = []
    state = idvv_init(SEED, ROOT, b"c2s", v0)
    assert v0 == [hmac_sha256_ref(SEED, ROOT + b"c2s")]
    assert _held(state) == hmac_sha256_ref(v0[0], SEED + bytes(8))


def test_init_rfc4231_derived_seed():
    # case-1 key padded to the required 32 bytes; the oracle supplies the
    # expected value since the raw RFC message lengths cannot reach this API
    seed = RFC4231_CASES[0]["key"] + bytes(32 - len(RFC4231_CASES[0]["key"]))
    v0 = []
    idvv_init(seed, ROOT, b"c2s", v0)
    assert v0 == [hmac_sha256_ref(seed, ROOT + b"c2s")]


def test_direction_labels_separate_chains():
    c2s = idvv_init(SEED, ROOT, b"c2s")
    s2c = idvv_init(SEED, ROOT, b"s2c")
    assert _held(c2s) != _held(s2c)


def test_next_matches_oracle_chain():
    ref = chain_values_ref(SEED, ROOT, b"c2s", 3)
    v0 = []
    state = idvv_init(SEED, ROOT, b"c2s", v0)
    assert v0 == ref[:1]
    for i in (1, 2, 3):
        assert _step(state) == ref[i]
        assert state.counter == i


def test_successive_values_differ():
    state = idvv_init(SEED, ROOT, b"c2s")
    a = _step(state)
    b = _step(state)
    assert a != b


def test_state_does_not_retain_previous_value():
    # neither value_0 nor a value handed out stays in any slot of the state
    v0 = []
    state = idvv_init(SEED, ROOT, b"c2s", v0)
    spent = [v0[0]]
    for _ in range(3):
        spent.append(_step(state))
        held = [getattr(state, slot) for slot in IdvvState.__slots__]
        assert not set(spent) & set(held)
        assert not {v.hex() for v in spent} & set(state.snapshot().values())


def test_counter_exhaustion():
    state = idvv_init(SEED, ROOT, b"c2s")
    snap = state.snapshot()
    snap["counter"] = MAX_COUNTER
    worn = IdvvState.from_snapshot(SEED, snap)
    with pytest.raises(ChainExhaustedError):
        _step(worn)


def test_snapshot_restore_continues_sequence():
    a = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        _step(a)
    b = IdvvState.from_snapshot(SEED, a.snapshot())
    assert _step(a) == _step(b)


def test_fast_forward_equals_manual_steps():
    state = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        _step(state)
    manual = IdvvState.from_snapshot(SEED, state.snapshot())
    expected = [_step(manual) for _ in range(3)][-1]
    got = idvv_peek(state, 8)
    state.commit(got, 8)
    assert got == expected
    assert state.snapshot() == manual.snapshot()
    assert state.counter == 8


def test_fast_forward_refuses_replay():
    state = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        _step(state)
    before = state.snapshot()
    with pytest.raises(ReplayError):
        idvv_peek(state, 5)
    with pytest.raises(ReplayError):
        idvv_peek(state, 3)
    with pytest.raises(ReplayError):
        state.commit(_held(state), 3)
    assert state.snapshot() == before
    assert state.counter == 5


def test_peek_walks_a_gap_past_the_resync_window():
    # the window is the record layer's; the chain walk takes any gap
    state = idvv_init(SEED, ROOT, b"c2s")
    assert idvv_peek(state, 2000) == chain_values_ref(SEED, ROOT, b"c2s", 2000)[2000]
    assert state.counter == 0
    assert state.snapshot() == idvv_init(SEED, ROOT, b"c2s").snapshot()


def test_step_is_next_without_the_wrapper():
    # the step hands out exactly the value the state held
    state = idvv_init(SEED, ROOT, b"c2s")
    for i, want in enumerate(chain_values_ref(SEED, ROOT, b"c2s", 3)[1:], start=1):
        held = _held(state)
        assert _step(state) == want == held
        assert state.counter == i


# gap 1024 is the record layer's window edge
@pytest.mark.parametrize("gap", [1, 5, 1024])
def test_peek_leaves_state_and_commit_lands_it(gap):
    state = idvv_init(SEED, ROOT, b"s2c")
    _step(state)
    before = state.snapshot()
    value = idvv_peek(state, 1 + gap)
    assert (state.snapshot(), state.counter) == (before, 1)
    ref = chain_values_ref(SEED, ROOT, b"s2c", 2 + gap)
    assert value == ref[1 + gap]
    state.commit(value, 1 + gap)
    # the state moves past the committed value and holds the one after
    assert (_held(state), state.counter) == (ref[2 + gap], 1 + gap)
    landed = state.snapshot()
    with pytest.raises(ReplayError):
        state.commit(value, 1 + gap)
    with pytest.raises(ReplayError):
        idvv_peek(state, 1 + gap)
    assert state.snapshot() == landed


_SNAP = {"counter": 5, "value": "00" * 32, "label": b"c2s".hex()}


@pytest.mark.parametrize(
    "snap",
    [
        {**_SNAP, "value": "zz" * 32},
        {**_SNAP, "value": "00" * 31},
        {**_SNAP, "value": None},
        {**_SNAP, "label": "c2s"},  # not hex
        {**_SNAP, "label": ""},
        {**_SNAP, "counter": "x"},
        {**_SNAP, "counter": "5"},
        {**_SNAP, "counter": 5.9},  # int() would truncate it without a word
        {**_SNAP, "counter": True},
        {**_SNAP, "counter": -1},
        {**_SNAP, "counter": MAX_COUNTER + 1},
        *({k: v for k, v in _SNAP.items() if k != missing} for missing in _SNAP),
        None,
        [],
        "counter",
        {**_SNAP, "value": "AB" * 32},  # hex only as snapshot() writes it
        {**_SNAP, "label": " " + b"c2s".hex()},
    ],
)
def test_from_snapshot_refuses_malformed_snapshot(snap):
    with pytest.raises(InvalidParameterError):
        IdvvState.from_snapshot(SEED, snap)


def test_peek_refuses_past_the_last_counter():
    state = IdvvState.from_snapshot(
        SEED, {"counter": MAX_COUNTER - 1, "value": "00" * 32, "label": b"c2s".hex()}
    )
    with pytest.raises(ChainExhaustedError):
        idvv_peek(state, MAX_COUNTER + 1)
    with pytest.raises(ChainExhaustedError):
        state.commit(bytes(32), MAX_COUNTER + 1)
    assert state.counter == MAX_COUNTER - 1


def test_chain_reaches_the_last_counter_and_stops():
    # both ways forward land exactly on MAX_COUNTER and refuse a step past it
    receiver = IdvvState.from_snapshot(
        SEED, {"counter": MAX_COUNTER - 2, "value": "00" * 32, "label": b"c2s".hex()}
    )
    receiver.commit(idvv_peek(receiver, MAX_COUNTER), MAX_COUNTER)
    sender = IdvvState.from_snapshot(
        SEED, {"counter": MAX_COUNTER - 1, "value": "00" * 32, "label": b"c2s".hex()}
    )
    sender.commit(*sender.head())
    for state in (receiver, sender):
        assert state.counter == MAX_COUNTER
        with pytest.raises(ChainExhaustedError):
            idvv_peek(state, MAX_COUNTER + 1)
        with pytest.raises(ChainExhaustedError):
            state.commit(*state.head())
        assert state.counter == MAX_COUNTER


@pytest.mark.parametrize("seed", [bytes(31), bytes(33), "00" * 32], ids=["31-bytes", "33-bytes", "hex"])
def test_from_snapshot_refuses_a_seed_that_is_not_32_bytes(seed):
    with pytest.raises(InvalidParameterError):
        IdvvState.from_snapshot(seed, _SNAP)


def test_a_fresh_chain_snapshot_round_trips():
    # counter 0 is a valid position: the one a chain starts at
    state = idvv_init(SEED, ROOT, b"c2s")
    restored = IdvvState.from_snapshot(SEED, state.snapshot())
    assert restored.snapshot() == state.snapshot()
    assert restored.head() == state.head() == (chain_values_ref(SEED, ROOT, b"c2s", 1)[1], 1)


@pytest.mark.parametrize(
    "seed,root,label",
    [
        (b"short", ROOT, b"c2s"),
        (SEED, b"\x00" * 31, b"c2s"),
        (SEED, ROOT, b""),
        (SEED, ROOT, b"x" * 17),
    ],
)
def test_init_rejects_bad_lengths(seed, root, label):
    with pytest.raises(InvalidParameterError):
        idvv_init(seed, root, label)


def test_init_rejects_a_str_label():
    # "c2s" is the right length, but a label is bytes, never text
    with pytest.raises(InvalidParameterError, match="^direction label must be bytes$"):
        idvv_init(SEED, ROOT, "c2s")


def _record_pair(mode):
    common = dict(assoc_id=bytes(8), mode=mode, seed=SEED, root=ROOT)
    return (
        load_association(ProvisionFile(role=Role.INITIATOR, **common)),
        load_association(ProvisionFile(role=Role.RESPONDER, **common)),
    )


def _traced_record_keys(keys, mode, records):
    """Seal and open ``records`` records with ``keys`` recording; the wires
    and {(op, seq): key}."""
    start, trace = len(keys), {}
    sender, receiver = _record_pair(mode)
    wires = []
    for seq in range(1, records + 1):
        wire = encode_record(seal(sender, MsgType.DATA, b"record-%d" % seq))
        trace["seal", seq] = keys[-1]
        assert open_record(receiver, wire) == (MsgType.DATA, b"record-%d" % seq)
        trace["open", seq] = keys[-1]
        wires.append(wire)
    assert len(keys) - start == 2 * records  # one derivation per seal and per open
    return wires, trace


def test_derive_key_matches_oracle(record_keys):
    # each record key is the PRF of the record's chain value under a fixed
    # label; the AEAD nonce is the 12-byte prefix under the nonce label
    values = chain_values_ref(SEED, ROOT, LABEL_C2S, 3)
    for mode, label in ((Mode.AUTH_ONLY, KEY_LABEL_MAC), (Mode.AEAD, KEY_LABEL_ENC)):
        wires, trace = _traced_record_keys(record_keys, mode, 3)
        for seq, wire in enumerate(wires, start=1):
            key = derive_key_ref(values[seq], label, 32)
            assert trace["seal", seq] == trace["open", seq] == key
            if mode is Mode.AUTH_ONLY:
                assert wire[-32:] == hmac_sha256_ref(key, wire[:-32])
            else:
                nonce = derive_key_ref(values[seq], KEY_LABEL_NONCE, 12)
                plain = AESGCM(key).decrypt(nonce, wire[HEADER_LEN:], wire[:HEADER_LEN])
                assert plain == b"record-%d" % seq


def test_derive_key_deterministic_and_separated(record_keys):
    mac_a = _traced_record_keys(record_keys, Mode.AUTH_ONLY, 1)[1]["seal", 1]
    mac_b = _traced_record_keys(record_keys, Mode.AUTH_ONLY, 1)[1]["seal", 1]
    enc = _traced_record_keys(record_keys, Mode.AEAD, 1)[1]["seal", 1]
    # the same chain value, seq 1 on c2s, under two labels
    assert mac_a == mac_b
    assert mac_a != enc


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    root=st.binary(min_size=32, max_size=32),
    label=st.binary(min_size=1, max_size=16),
    steps=st.integers(min_value=1, max_value=40),
)
def test_property_chain_matches_oracle(seed, root, label, steps):
    ref = chain_values_ref(seed, root, label, steps)
    v0 = []
    state = idvv_init(seed, root, label, v0)
    assert v0 == ref[:1]
    for i in range(1, steps + 1):
        assert _step(state) == ref[i]


@settings(max_examples=25, deadline=None)
@given(skip=st.integers(min_value=1, max_value=64))
def test_property_fast_forward_is_n_steps(skip):
    a = idvv_init(SEED, ROOT, b"s2c")
    b = idvv_init(SEED, ROOT, b"s2c")
    got = idvv_peek(a, skip)
    a.commit(got, skip)
    last = None
    for _ in range(skip):
        last = _step(b)
    assert got == last
    assert a.snapshot() == b.snapshot()
    assert a.counter == b.counter == skip
