"""Association provisioning and lifecycle.

An association is the provisioned relationship between two endpoints:
identity, the seed/root secrets, one chain per direction, and the
receive position that refuses replays (the resync window is the record
layer's, one for all). Key distribution is realized as a pair of
out-of-band provisioning files; the generate/load split keeps the
carrier replaceable by a networked distributor later.

Provisioning file format (bit-exact): UTF-8, exactly the five lines
``key = value`` in the order assoc_id, role, mode, seed, root, each
ending in LF, hex lowercase with no spaces, and nothing else.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

from .errors import InvalidParameterError, ProvisionError
from .idvv import SECRET_LEN, IdvvState, Root, Seed, idvv_init

LABEL_C2S = b"c2s"
LABEL_S2C = b"s2c"

ASSOC_ID_LEN = 8
# the most read_provision_file reads; to_text writes at most 201 bytes
_MAX_PROVISION_BYTES = 1024


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class Mode(enum.Enum):
    AUTH_ONLY = "auth"
    AEAD = "aead"


_FIELD_ORDER = ("assoc_id", "role", "mode", "seed", "root")


@dataclass(frozen=True)
class ProvisionFile:
    """Parsed provisioning document for one endpoint."""

    assoc_id: bytes
    role: Role
    mode: Mode
    # kept out of repr, so a traceback or log line that shows one leaks neither
    seed: bytes = field(repr=False)
    root: bytes = field(repr=False)

    def to_text(self) -> str:
        return (
            f"assoc_id = {self.assoc_id.hex()}\n"
            f"role = {self.role.value}\n"
            f"mode = {self.mode.value}\n"
            f"seed = {self.seed.hex()}\n"
            f"root = {self.root.hex()}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "ProvisionFile":
        # only what to_text writes: the five lines in _FIELD_ORDER, each ending
        # in LF, and nothing after. field is the key the bad line names, else
        # the one expected; the line may hold a secret, so the message omits it
        lines = text.split("\n")
        for lineno, key in enumerate((*_FIELD_ORDER, None), start=1):
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            if line.endswith("\r"):
                raise ProvisionError(
                    f"line {lineno}: CRLF line ending; kiss provision ends each line in LF alone",
                    field=key,
                )
            if not (line.startswith(f"{key} = ") if key else not line and lineno == len(lines)):
                raise ProvisionError(
                    f"line {lineno}: expected {key or 'end of file'}; a .prov file is "
                    "exactly the five lines kiss provision writes",
                    field=line.partition("=")[0].strip() or key,
                )
        assoc_id, role, mode, seed, root = (line.partition(" = ")[2] for line in lines[:-1])
        return cls(
            parse_hex("assoc_id", assoc_id, ASSOC_ID_LEN),
            _parse_enum(Role, "role", role),
            _parse_enum(Mode, "mode", mode),
            parse_hex("seed", seed, SECRET_LEN),
            parse_hex("root", root, SECRET_LEN),
        )


def _parse_enum(kind, name: str, value: str):
    try:
        return kind(value)
    except ValueError:
        raise ProvisionError(f"unknown {name} {value!r}", field=name) from None


@dataclass
class Association:
    """Live endpoint state for one provisioned pair.

    Single-owner mutation contract, same as the chains it holds: one
    connection, one logical thread of control per direction. The chains
    hold the seed; the root only derives value_0 and is not kept.
    """

    assoc_id: bytes
    role: Role
    send_chain: IdvvState
    recv_chain: IdvvState
    mode: Mode
    # always equals recv_chain.counter, which is what gates incoming seqs
    highest_accepted_seq: int = field(default=0)


def generate_provision(rng=None, mode: Mode = Mode.AUTH_ONLY) -> tuple[ProvisionFile, ProvisionFile]:
    """Draw fresh association material and return (initiator, responder) files.

    ``rng`` is a ``bytes = rng(n)`` entropy source, ``os.urandom`` by default.
    """
    if not isinstance(mode, Mode):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if rng is None:
        rng = os.urandom
    try:
        assoc_id = bytes(rng(ASSOC_ID_LEN))
        seed = bytes(rng(SECRET_LEN))
        root = bytes(rng(SECRET_LEN))
    except Exception as exc:
        raise ProvisionError(f"entropy source failed: {exc}") from exc
    if len(assoc_id) != ASSOC_ID_LEN or len(seed) != SECRET_LEN or len(root) != SECRET_LEN:
        raise ProvisionError("entropy source returned wrong length")
    if seed == root:
        # 2^-256 from a sane source; a constant source must not slip through
        raise ProvisionError("entropy source produced seed == root")
    return (
        ProvisionFile(assoc_id, Role.INITIATOR, mode, seed, root),
        ProvisionFile(assoc_id, Role.RESPONDER, mode, seed, root),
    )


def load_association(pf: ProvisionFile) -> Association:
    """Build live chains from a provisioning file.

    The initiator sends on "c2s" and receives on "s2c"; the responder is
    the mirror. Loading the same file twice yields bit-identical chains.
    """
    seed = Seed(pf.seed)
    root = Root(pf.root)
    if pf.role is Role.INITIATOR:
        send_label, recv_label = LABEL_C2S, LABEL_S2C
    else:
        send_label, recv_label = LABEL_S2C, LABEL_C2S
    return Association(
        assoc_id=pf.assoc_id,
        role=pf.role,
        send_chain=idvv_init(seed, root, send_label),
        recv_chain=idvv_init(seed, root, recv_label),
        mode=pf.mode,
    )


def write_provision_file(pf: ProvisionFile, path) -> None:
    """Write ``pf`` to ``path`` with mode 0o600, as it holds secrets; a symlink there is refused."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        os.fchmod(fd, 0o600)  # before the secrets go in
        fh.write(pf.to_text())


def read_provision_file(path) -> ProvisionFile:
    # a bounded read: a device or an endless file is refused, not held in memory
    with open(path, "rb") as fh:
        data = fh.read(_MAX_PROVISION_BYTES + 1)
    if len(data) > _MAX_PROVISION_BYTES:
        raise ProvisionError(f"provision file exceeds {_MAX_PROVISION_BYTES} bytes")
    try:
        return ProvisionFile.from_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProvisionError(f"provision file is not UTF-8 (byte {exc.start})") from None


def parse_hex(name: str, value: str, want_len: int) -> bytes:
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise ProvisionError(f"field {name!r} is not valid hex", field=name) from None
    if data.hex() != value:  # only as to_text writes it: lowercase, no spaces
        raise ProvisionError(f"field {name!r} must be lowercase hex, no spaces", field=name)
    if len(data) != want_len:
        raise ProvisionError(
            f"field {name!r} must be {want_len} bytes ({2 * want_len} hex chars), "
            f"got {len(value)} chars",
            field=name,
        )
    return data
