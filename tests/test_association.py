"""Provisioning format, loading, and the anti-replay gate."""

import dataclasses
import tracemalloc

import pytest

from kiss.association import (
    LABEL_C2S,
    LABEL_S2C,
    Mode,
    ProvisionFile,
    Role,
    generate_provision,
    load_association,
    read_provision_file,
    write_provision_file,
)
from kiss.channel import RESYNC_WINDOW, MsgType, encode_record, open_record, seal
from kiss.errors import (
    OutOfWindowError,
    ProvisionError,
    ReplayError,
)
from kiss.idvv import Root

from oracles import chain_values_ref


def test_generate_pair_shares_material():
    init_pf, resp_pf = generate_provision()
    assert init_pf.assoc_id == resp_pf.assoc_id
    assert init_pf.seed == resp_pf.seed
    assert init_pf.root == resp_pf.root
    assert init_pf.mode == resp_pf.mode
    assert (init_pf.role, resp_pf.role) == (Role.INITIATOR, Role.RESPONDER)
    assert init_pf.seed != init_pf.root


def test_generate_twice_differs():
    a, _ = generate_provision()
    b, _ = generate_provision()
    assert a.assoc_id != b.assoc_id
    assert a.seed != b.seed
    assert a.root != b.root


def test_generate_entropy_failure():
    def broken(n):
        raise OSError("no entropy")

    with pytest.raises(ProvisionError):
        generate_provision(rng=broken)


def test_generate_short_entropy():
    with pytest.raises(ProvisionError):
        generate_provision(rng=lambda n: b"\x01" * (n - 1))


def test_generate_constant_entropy_rejected():
    # a source that would make seed == root must not slip through
    with pytest.raises(ProvisionError):
        generate_provision(rng=lambda n: b"\x07" * n)


def test_provision_text_canonical_layout():
    init_pf, _ = generate_provision(mode=Mode.AEAD)
    text = init_pf.to_text()
    keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
    assert keys == ["assoc_id", "role", "mode", "seed", "root"]
    assert "\r" not in text
    assert text.endswith("\n")
    hex_part = text.split("seed = ")[1].split("\n")[0]
    assert hex_part == hex_part.lower()
    assert "mode = aead" in text


_FIXED_PF = ProvisionFile(
    assoc_id=bytes.fromhex("00112233445566aa"),
    role=Role.INITIATOR,
    mode=Mode.AUTH_ONLY,
    seed=bytes(range(32)),
    root=bytes(range(32, 64)),
)


def test_provision_round_trip_is_byte_identical():
    for pf in (*generate_provision(mode=Mode.AUTH_ONLY), *generate_provision(mode=Mode.AEAD)):
        text = pf.to_text()
        assert ProvisionFile.from_text(text) == pf
        assert ProvisionFile.from_text(text).to_text() == text


def _swap_first_lines(text):
    first, second, rest = text.split("\n", 2)
    return "\n".join((second, first, rest))


@pytest.mark.parametrize(
    "mangle,line",
    [
        pytest.param(lambda t: "# provisioning for bench rig\n" + t, 1, id="comment"),
        pytest.param(lambda t: "\n" + t, 1, id="blank"),
        pytest.param(lambda t: t + "\n", 6, id="trailing-blank"),
        pytest.param(lambda t: t + "# end\n", 6, id="trailing-comment"),
        pytest.param(_swap_first_lines, 1, id="swapped-order"),
        pytest.param(lambda t: t.replace("\n", "\r\n"), None, id="crlf"),
        pytest.param(lambda t: t[:-1], 6, id="no-final-lf"),
    ],
)
def test_parse_refuses_any_other_layout(mangle, line):
    with pytest.raises(ProvisionError) as err:
        ProvisionFile.from_text(mangle(_FIXED_PF.to_text()))
    if line is not None:
        assert str(err.value).startswith(f"line {line}: ")
    # the message never echoes a line, which may hold a secret
    assert _FIXED_PF.seed.hex() not in str(err.value)


def test_parse_names_a_crlf_ending_and_its_line():
    text = _FIXED_PF.to_text()
    with pytest.raises(ProvisionError, match=r"^line 1: CRLF line ending") as err:
        ProvisionFile.from_text(text.replace("\n", "\r\n"))
    assert err.value.field == "assoc_id"
    with pytest.raises(ProvisionError, match=r"^line 3: CRLF line ending") as err:
        ProvisionFile.from_text(text.replace("\nseed", "\r\nseed"))
    assert err.value.field == "mode"


@pytest.mark.parametrize(
    "mangle,field",
    [
        (lambda t: t.replace("seed = 00", "seed = 0"), "seed"),  # 63 hex chars
        (lambda t: t.replace("seed = 00", "seed = 0000"), "seed"),  # 66 chars
        (lambda t: t.replace("seed = 00", "seed = zz"), "seed"),
        (lambda t: t.replace("root = 20", "root = abc"), "root"),
        # hex only as to_text writes it
        pytest.param(lambda t: t.replace("seed = 00", "seed = 00 "), "seed",
                     id="seed-with-space"),
        pytest.param(lambda t: t.replace(_FIXED_PF.root.hex(), _FIXED_PF.root.hex().upper()),
                     "root", id="uppercase-root"),
        # files written while the window was per association have a sixth
        # resync_window line: refused whatever its value, naming that key
        pytest.param(lambda t: t + "resync_window = 01024\n",
                     "resync_window", id="window-with-leading-zero"),
        (lambda t: t.replace("assoc_id = 00112233445566aa", "assoc_id = 11"),
         "assoc_id"),
        (lambda t: t.replace("role = initiator", "role = leader"), "role"),
        (lambda t: t.replace("mode = auth", "mode = plain"), "mode"),
        (lambda t: t + "resync_window = 1024\n", "resync_window"),
        (lambda t: t + "resync_window = 0\n", "resync_window"),
        (lambda t: t + "resync_window = 65536\n", "resync_window"),
        (lambda t: t + "resync_window = 1_024\n", "resync_window"),
        (lambda t: t + "resync_window = \u0661\u0660\n", "resync_window"),
        (lambda t: t + "resync_window = " + "9" * 5000 + "\n", "resync_window"),
        (lambda t: t + "seed = " + "00" * 32 + "\n", "seed"),  # duplicate
        (lambda t: t + "color = blue\n", "color"),  # unknown key
        (lambda t: t.replace("root = ", "rootless\nroot = "), "rootless"),
    ],
)
def test_parse_errors_name_offending_field(mangle, field):
    with pytest.raises(ProvisionError) as err:
        ProvisionFile.from_text(mangle(_FIXED_PF.to_text()))
    assert field in (err.value.field or str(err.value))


def test_parse_missing_field():
    init_pf, _ = generate_provision()
    text = "\n".join(
        l for l in init_pf.to_text().splitlines() if not l.startswith("root")
    )
    with pytest.raises(ProvisionError) as err:
        ProvisionFile.from_text(text + "\n")
    assert err.value.field == "root"


def test_load_role_labels():
    init_pf, resp_pf = generate_provision()
    init_assoc = load_association(init_pf)
    resp_assoc = load_association(resp_pf)
    c2s, s2c = (
        chain_values_ref(init_pf.seed, init_pf.root, label, 0)[0]
        for label in (LABEL_C2S, LABEL_S2C)
    )
    assert init_assoc.send_chain.value == resp_assoc.recv_chain.value == c2s
    assert init_assoc.recv_chain.value == resp_assoc.send_chain.value == s2c
    assert init_assoc.highest_accepted_seq == 0


def test_load_twice_bit_identical():
    init_pf, _ = generate_provision()
    a = load_association(init_pf)
    b = load_association(init_pf)
    assert a.send_chain.value == b.send_chain.value
    assert a.recv_chain.value == b.recv_chain.value
    assert a.send_chain.counter == b.send_chain.counter == 0


def test_loaded_association_keeps_no_root():
    # the chains need only value_0; a root kept in live state would let
    # whoever captures it recompute value_0 and every past key
    init_pf, _ = generate_provision()
    assoc = load_association(init_pf)
    for f in dataclasses.fields(assoc):
        held = getattr(assoc, f.name)
        assert not isinstance(held, Root), f.name
        assert held != init_pf.root, f.name


def test_reprs_hold_no_secret():
    # a traceback, log line or test failure that renders one must not leak it
    init_pf, _ = generate_provision()
    assoc = load_association(init_pf)
    chain_values = (assoc.send_chain.value, assoc.recv_chain.value)
    for text in (repr(init_pf), str(init_pf), repr(assoc)):
        for secret in (init_pf.seed, init_pf.root, *chain_values):
            assert repr(secret) not in text and secret.hex() not in text, text
    assert repr(init_pf.assoc_id) in repr(init_pf)  # the pair is still named
    assert init_pf.seed.hex() in init_pf.to_text()  # the file still carries both secrets
    assert init_pf.root.hex() in init_pf.to_text()


def test_loaded_pair_chains_mirror():
    init_pf, resp_pf = generate_provision()
    init_assoc = load_association(init_pf)
    resp_assoc = load_association(resp_pf)
    assert init_assoc.send_chain.value == resp_assoc.recv_chain.value
    assert init_assoc.recv_chain.value == resp_assoc.send_chain.value


def test_generated_pair_survives_traffic_both_directions():
    init_pf, resp_pf = generate_provision()
    init_assoc = load_association(init_pf)
    resp_assoc = load_association(resp_pf)
    for i in range(100):
        payload = b"fwd-%04d" % i
        wire = encode_record(seal(init_assoc, MsgType.DATA, payload))
        assert open_record(resp_assoc, wire) == (MsgType.DATA, payload)
        reply = b"rev-%04d" % i
        wire = encode_record(seal(resp_assoc, MsgType.DATA, reply))
        assert open_record(init_assoc, wire) == (MsgType.DATA, reply)


def _sealed_by_seq(n):
    """A linked pair and the wire of each seq 1..n, indexed by seq."""
    init_pf, resp_pf = generate_provision()
    sender, receiver = load_association(init_pf), load_association(resp_pf)
    wires = [b""] + [
        encode_record(seal(sender, MsgType.DATA, b"seq-%d" % seq)) for seq in range(1, n + 1)
    ]
    return receiver, wires


def test_accept_seq_replay_boundary():
    receiver, wires = _sealed_by_seq(10)
    assert open_record(receiver, wires[10]) == (MsgType.DATA, b"seq-10")
    for seq in (10, 1):
        with pytest.raises(ReplayError):
            open_record(receiver, wires[seq])
    assert receiver.highest_accepted_seq == receiver.recv_chain.counter == 10


def test_accept_seq_window_boundary():
    window = RESYNC_WINDOW
    receiver, wires = _sealed_by_seq(10 + window + 1)
    open_record(receiver, wires[10])
    with pytest.raises(OutOfWindowError):
        open_record(receiver, wires[10 + window + 1])
    assert receiver.highest_accepted_seq == receiver.recv_chain.counter == 10
    assert open_record(receiver, wires[10 + window])[1] == b"seq-%d" % (10 + window)
    assert receiver.highest_accepted_seq == receiver.recv_chain.counter == 10 + window


def test_file_round_trip(tmp_path):
    init_pf, _ = generate_provision()
    path = tmp_path / "initiator.prov"
    write_provision_file(init_pf, path)
    assert read_provision_file(path) == init_pf
    assert path.read_bytes().decode() == init_pf.to_text()


def test_read_is_bounded(tmp_path):
    # a valid file with 1 MiB after it is refused after a read of about
    # 1 KiB, not held in memory whole
    path = tmp_path / "initiator.prov"
    path.write_bytes(_FIXED_PF.to_text().encode() + bytes(2**20))
    tracemalloc.start()
    try:
        with pytest.raises(ProvisionError):
            read_provision_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_read_keeps_crlf(tmp_path):
    # the file is read as bytes, so CRLF endings reach the parser and fail
    path = tmp_path / "initiator.prov"
    path.write_bytes(_FIXED_PF.to_text().replace("\n", "\r\n").encode())
    with pytest.raises(ProvisionError, match="^line 1: CRLF line ending"):
        read_provision_file(path)


def test_provision_file_is_private_to_its_owner(tmp_path):
    # it holds the seed and root: no group or other bits on a new file,
    # and an existing world-readable one is narrowed as it is overwritten
    init_pf, resp_pf = generate_provision()
    fresh, existing = tmp_path / "initiator.prov", tmp_path / "responder.prov"
    existing.write_text("old")
    existing.chmod(0o644)
    write_provision_file(init_pf, fresh)
    write_provision_file(resp_pf, existing)
    for path, pf in ((fresh, init_pf), (existing, resp_pf)):
        assert path.stat().st_mode & 0o077 == 0, oct(path.stat().st_mode)
        assert read_provision_file(path) == pf


def test_provision_write_refuses_a_symlink(tmp_path):
    # a link planted where the file goes must not redirect the secrets
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"keep me\n")
    victim.chmod(0o644)
    link = tmp_path / "initiator.prov"
    link.symlink_to(victim)
    init_pf, _ = generate_provision()
    with pytest.raises(OSError):
        write_provision_file(init_pf, link)
    assert victim.read_bytes() == b"keep me\n"
    assert victim.stat().st_mode & 0o777 == 0o644
