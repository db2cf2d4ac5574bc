"""Chain core: known answers, oracle equivalence, state hygiene."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiss.errors import (
    ChainExhaustedError,
    InvalidParameterError,
    OutOfWindowError,
    ReplayError,
)
from kiss.idvv import (
    KEY_LABEL_ENC,
    KEY_LABEL_MAC,
    KEY_LABEL_NONCE,
    MAX_COUNTER,
    IdvvState,
    Root,
    Seed,
    derive_key,
    idvv_fast_forward,
    idvv_init,
    idvv_next,
    idvv_peek,
    idvv_step,
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


def test_init_deterministic():
    a = idvv_init(SEED, ROOT, b"c2s")
    b = idvv_init(SEED, ROOT, b"c2s")
    assert a.value == b.value
    assert a.counter == b.counter == 0


def test_init_value_is_prf_of_root_and_label():
    state = idvv_init(SEED, ROOT, b"c2s")
    assert state.value == hmac_sha256_ref(SEED, ROOT + b"c2s")


def test_init_rfc4231_derived_seed():
    # case-1 key padded to the required 32 bytes; the oracle supplies the
    # expected value since the raw RFC message lengths cannot reach this API
    seed = RFC4231_CASES[0]["key"] + bytes(32 - len(RFC4231_CASES[0]["key"]))
    state = idvv_init(seed, ROOT, b"c2s")
    assert state.value == hmac_sha256_ref(seed, ROOT + b"c2s")


def test_direction_labels_separate_chains():
    c2s = idvv_init(SEED, ROOT, b"c2s")
    s2c = idvv_init(SEED, ROOT, b"s2c")
    assert c2s.value != s2c.value


def test_next_matches_oracle_chain():
    ref = chain_values_ref(SEED, ROOT, b"c2s", 3)
    state = idvv_init(SEED, ROOT, b"c2s")
    assert state.value == ref[0]
    for i in (1, 2, 3):
        value = idvv_next(state)
        assert value.bytes == ref[i]
        assert value.counter == i
    assert state.counter == 3


def test_successive_values_differ():
    state = idvv_init(SEED, ROOT, b"c2s")
    a = idvv_next(state).bytes
    b = idvv_next(state).bytes
    assert a != b


def test_state_does_not_retain_previous_value():
    state = idvv_init(SEED, ROOT, b"c2s")
    old = state.value
    idvv_next(state)
    assert state.value != old
    snap = state.snapshot()
    assert old.hex() not in snap.values()


def test_counter_exhaustion():
    state = idvv_init(SEED, ROOT, b"c2s")
    snap = state.snapshot()
    snap["counter"] = MAX_COUNTER
    worn = IdvvState.from_snapshot(SEED, snap)
    with pytest.raises(ChainExhaustedError):
        idvv_next(worn)


def test_snapshot_restore_continues_sequence():
    a = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        idvv_next(a)
    b = IdvvState.from_snapshot(SEED, a.snapshot())
    assert idvv_next(a).bytes == idvv_next(b).bytes


def test_fast_forward_equals_manual_steps():
    state = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        idvv_next(state)
    manual = state.clone()
    expected = [idvv_next(manual) for _ in range(3)][-1]
    got = idvv_fast_forward(state, 8, 1024)
    assert got.bytes == expected.bytes
    assert got.counter == 8
    assert state.counter == 8


def test_fast_forward_refuses_replay():
    state = idvv_init(SEED, ROOT, b"c2s")
    for _ in range(5):
        idvv_next(state)
    with pytest.raises(ReplayError):
        idvv_fast_forward(state, 5, 1024)
    with pytest.raises(ReplayError):
        idvv_fast_forward(state, 3, 1024)
    assert state.counter == 5


def test_fast_forward_refuses_wide_gap():
    state = idvv_init(SEED, ROOT, b"c2s")
    with pytest.raises(OutOfWindowError):
        idvv_fast_forward(state, 2000, 1024)
    # refusal must not move the state
    assert state.counter == 0
    assert state.value == idvv_init(SEED, ROOT, b"c2s").value


def test_step_is_next_without_the_wrapper():
    a = idvv_init(SEED, ROOT, b"c2s")
    b = idvv_init(SEED, ROOT, b"c2s")
    for want in chain_values_ref(SEED, ROOT, b"c2s", 3)[1:]:
        assert idvv_step(a) == want == idvv_next(b).bytes
    assert a.counter == b.counter == 3


@pytest.mark.parametrize("gap", [1, 5])
def test_peek_leaves_state_and_commit_lands_it(gap):
    state = idvv_init(SEED, ROOT, b"s2c")
    idvv_next(state)
    before = state.value
    value = idvv_peek(state, 1 + gap, 1024)
    assert (state.value, state.counter) == (before, 1)
    assert value == chain_values_ref(SEED, ROOT, b"s2c", 1 + gap)[-1]
    state.commit(value, 1 + gap)
    assert (state.value, state.counter) == (value, 1 + gap)
    with pytest.raises(ReplayError):
        state.commit(value, 1 + gap)
    with pytest.raises(ReplayError):
        idvv_peek(state, 1 + gap, 1024)
    with pytest.raises(OutOfWindowError):
        idvv_peek(state, 2 + gap + 1024, 1024)
    assert (state.value, state.counter) == (value, 1 + gap)


def test_peek_refuses_past_the_last_counter():
    state = IdvvState.from_snapshot(
        SEED, {"counter": MAX_COUNTER - 1, "value": "00" * 32, "label": b"c2s".hex()}
    )
    with pytest.raises(ChainExhaustedError):
        idvv_peek(state, MAX_COUNTER + 1, 1024)
    assert state.counter == MAX_COUNTER - 1


def test_value_is_a_redacted_secret():
    value = idvv_next(idvv_init(SEED, ROOT, b"c2s"))
    assert value.counter == 1
    assert value.bytes.hex() not in repr(value)
    with pytest.raises(TypeError):
        hash(value)


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


def test_derive_key_known_labels_only():
    value = idvv_next(idvv_init(SEED, ROOT, b"c2s"))
    with pytest.raises(InvalidParameterError):
        derive_key(value, b"kiss-other", 32)
    with pytest.raises(InvalidParameterError):
        derive_key(value, KEY_LABEL_MAC, 33)


def test_derive_key_matches_oracle():
    value = idvv_next(idvv_init(SEED, ROOT, b"c2s"))
    for label in (KEY_LABEL_MAC, KEY_LABEL_ENC, KEY_LABEL_NONCE):
        for out_len in (12, 16, 32):
            assert derive_key(value, label, out_len) == derive_key_ref(
                value.bytes, label, out_len
            )


def test_derive_key_deterministic_and_separated():
    value = idvv_next(idvv_init(SEED, ROOT, b"c2s"))
    assert derive_key(value, KEY_LABEL_MAC, 32) == derive_key(value, KEY_LABEL_MAC, 32)
    assert derive_key(value, KEY_LABEL_MAC, 32) != derive_key(value, KEY_LABEL_ENC, 32)


def test_value_wipe_zeroes_buffer():
    value = idvv_next(idvv_init(SEED, ROOT, b"c2s"))
    value.wipe()
    assert value.bytes == bytes(32)


def test_secret_repr_redacted():
    seed = Seed(SEED)
    assert SEED.hex() not in repr(seed)
    assert repr(Seed(SEED)) == repr(seed)
    with pytest.raises(TypeError):
        hash(seed)


def test_secret_equality():
    assert Seed(SEED) == Seed(SEED)
    assert Seed(SEED) != Seed(ROOT)
    assert Root(ROOT) == Root(ROOT)


def test_clone_is_independent():
    state = idvv_init(SEED, ROOT, b"c2s")
    twin = state.clone()
    idvv_next(state)
    assert twin.counter == 0
    assert twin.value != state.value
    assert idvv_next(twin).bytes == state.value


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    root=st.binary(min_size=32, max_size=32),
    label=st.binary(min_size=1, max_size=16),
    steps=st.integers(min_value=1, max_value=40),
)
def test_property_chain_matches_oracle(seed, root, label, steps):
    ref = chain_values_ref(seed, root, label, steps)
    state = idvv_init(seed, root, label)
    assert state.value == ref[0]
    for i in range(1, steps + 1):
        assert idvv_next(state).bytes == ref[i]


@settings(max_examples=25, deadline=None)
@given(
    skip=st.integers(min_value=1, max_value=64),
    window=st.integers(min_value=64, max_value=256),
)
def test_property_fast_forward_is_n_steps(skip, window):
    a = idvv_init(SEED, ROOT, b"s2c")
    b = idvv_init(SEED, ROOT, b"s2c")
    got = idvv_fast_forward(a, skip, window)
    last = None
    for _ in range(skip):
        last = idvv_next(b)
    assert got.bytes == last.bytes
    assert got.counter == last.counter == skip
