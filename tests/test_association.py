"""Provisioning format, loading, and the anti-replay gate."""

import dataclasses

import pytest

from kiss.association import (
    DEFAULT_RESYNC_WINDOW,
    LABEL_C2S,
    LABEL_S2C,
    MAX_RESYNC_WINDOW,
    Mode,
    ProvisionFile,
    Role,
    generate_provision,
    load_association,
    read_provision_file,
    write_provision_file,
)
from kiss.channel import MsgType, encode_record, open_record, seal
from kiss.errors import (
    InvalidParameterError,
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
    assert init_pf.resync_window == resp_pf.resync_window
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


def test_generate_bad_window():
    with pytest.raises(InvalidParameterError):
        generate_provision(resync_window=0)
    with pytest.raises(InvalidParameterError):
        generate_provision(resync_window=2**32)


def test_window_cap_is_two_to_the_sixteen():
    # the cap bounds the chain walk one forged record can cost a receiver
    assert MAX_RESYNC_WINDOW == 2**16
    assert generate_provision(resync_window=2**16)[0].resync_window == 2**16
    with pytest.raises(InvalidParameterError):
        generate_provision(resync_window=2**16 + 1)
    text = generate_provision()[0].to_text()
    at_cap = text.replace("resync_window = 1024", "resync_window = 65536")
    assert ProvisionFile.from_text(at_cap).resync_window == 2**16
    with pytest.raises(ProvisionError) as err:
        ProvisionFile.from_text(text.replace("resync_window = 1024", "resync_window = 65537"))
    assert err.value.field == "resync_window"


def test_provision_text_canonical_layout():
    init_pf, _ = generate_provision(mode=Mode.AEAD, resync_window=77)
    text = init_pf.to_text()
    keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
    assert keys == ["assoc_id", "role", "mode", "seed", "root", "resync_window"]
    assert "\r" not in text
    assert text.endswith("\n")
    hex_part = text.split("seed = ")[1].split("\n")[0]
    assert hex_part == hex_part.lower()
    assert "mode = aead" in text


def test_provision_round_trip_is_byte_identical():
    init_pf, resp_pf = generate_provision()
    for pf in (init_pf, resp_pf):
        text = pf.to_text()
        assert ProvisionFile.from_text(text).to_text() == text


def test_parse_tolerates_comments_and_blanks():
    init_pf, _ = generate_provision()
    text = "# provisioning for bench rig\n\n" + init_pf.to_text() + "\n# end\n"
    assert ProvisionFile.from_text(text) == init_pf


def test_parse_window_optional():
    init_pf, _ = generate_provision()
    lines = [l for l in init_pf.to_text().splitlines() if not l.startswith("resync_")]
    parsed = ProvisionFile.from_text("\n".join(lines) + "\n")
    assert parsed.resync_window == DEFAULT_RESYNC_WINDOW


_FIXED_PF = ProvisionFile(
    assoc_id=bytes.fromhex("00112233445566aa"),
    role=Role.INITIATOR,
    mode=Mode.AUTH_ONLY,
    seed=bytes(range(32)),
    root=bytes(range(32, 64)),
)


@pytest.mark.parametrize(
    "mangle,field",
    [
        (lambda t: t.replace("seed = 00", "seed = 0"), "seed"),  # 63 hex chars
        (lambda t: t.replace("seed = 00", "seed = 0000"), "seed"),  # 66 chars
        (lambda t: t.replace("seed = 00", "seed = zz"), "seed"),
        (lambda t: t.replace("root = 20", "root = abc"), "root"),
        # hex and windows only as to_text writes them
        pytest.param(lambda t: t.replace("seed = 00", "seed = 00 "), "seed",
                     id="seed-with-space"),
        pytest.param(lambda t: t.replace(_FIXED_PF.root.hex(), _FIXED_PF.root.hex().upper()),
                     "root", id="uppercase-root"),
        pytest.param(lambda t: t.replace("resync_window = 1024", "resync_window = 01024"),
                     "resync_window", id="window-with-leading-zero"),
        (lambda t: t.replace("assoc_id = 00112233445566aa", "assoc_id = 11"),
         "assoc_id"),
        (lambda t: t.replace("role = initiator", "role = leader"), "role"),
        (lambda t: t.replace("mode = auth", "mode = plain"), "mode"),
        (lambda t: t.replace("resync_window = 1024", "resync_window = soon"),
         "resync_window"),
        (lambda t: t.replace("resync_window = 1024", "resync_window = 0"),
         "resync_window"),
        (lambda t: t.replace("resync_window = 1024", "resync_window = 1_024"),
         "resync_window"),
        (lambda t: t.replace("resync_window = 1024", "resync_window = +1024"),
         "resync_window"),
        # Arabic-Indic digits, which int() reads as 10
        (lambda t: t.replace("resync_window = 1024", "resync_window = \u0661\u0660"),
         "resync_window"),
        (lambda t: t.replace("resync_window = 1024", "resync_window = " + "9" * 5000),
         "resync_window"),
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


def _sealed_by_seq(window, n):
    """A linked pair and the wire of each seq 1..n, indexed by seq."""
    init_pf, resp_pf = generate_provision(resync_window=window)
    sender, receiver = load_association(init_pf), load_association(resp_pf)
    wires = [b""] + [
        encode_record(seal(sender, MsgType.DATA, b"seq-%d" % seq)) for seq in range(1, n + 1)
    ]
    return receiver, wires


def test_accept_seq_replay_boundary():
    receiver, wires = _sealed_by_seq(DEFAULT_RESYNC_WINDOW, 10)
    assert open_record(receiver, wires[10]) == (MsgType.DATA, b"seq-10")
    for seq in (10, 1):
        with pytest.raises(ReplayError):
            open_record(receiver, wires[seq])
    assert receiver.highest_accepted_seq == receiver.recv_chain.counter == 10


def test_accept_seq_window_boundary():
    window = 16
    receiver, wires = _sealed_by_seq(window, 10 + window + 1)
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
