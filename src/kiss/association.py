"""Association provisioning and lifecycle.

An association is the provisioned relationship between two endpoints:
identity, the seed/root secrets, one chain per direction, and the
receive position that refuses replays (the seq bound is the record
layer's, one per receive path). Key distribution is realized as a pair of
out-of-band provisioning files; the generate/load split keeps the
carrier replaceable by a networked distributor later.

Provisioning file format (bit-exact): UTF-8, exactly the five lines
``key = value`` that the table ``_LINES`` states, in its order, each
ending in LF, hex lowercase with no spaces, and nothing else.
"""

from __future__ import annotations

import enum
import os
import re
from dataclasses import dataclass, field

from .errors import InvalidParameterError, ProvisionError
from .idvv import SECRET_LEN, IdvvState, _check_secret, idvv_init, idvv_peek

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


# the .prov format, one line per row: its key, then its value as a byte
# length (written in lowercase hex) or as an enum (written as its value).
# to_text writes from it, the one match is compiled from it, and _refuse
# walks it to word the refusal of any other text
_LINES = (
    ("assoc_id", ASSOC_ID_LEN),
    ("role", Role),
    ("mode", Mode),
    ("seed", SECRET_LEN),
    ("root", SECRET_LEN),
)
# exactly what to_text writes, in one match
_PROVISION_TEXT = re.compile("".join(
    rf"{key} = ([0-9a-f]{{{2 * kind}}})\n" if type(kind) is int
    else rf"{key} = ({'|'.join(member.value for member in kind)})\n"
    for key, kind in _LINES
))
_ROLES = {role.value: role for role in Role}
_MODES = {mode.value: mode for mode in Mode}


@dataclass(frozen=True)
class ProvisionFile:
    """Parsed provisioning document for one endpoint."""

    assoc_id: bytes
    role: Role
    mode: Mode
    # kept out of repr, so a traceback or log line that shows one leaks neither
    seed: bytes = field(repr=False)
    root: bytes = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.assoc_id, bytes) or len(self.assoc_id) != ASSOC_ID_LEN:
            raise InvalidParameterError(f"assoc_id must be {ASSOC_ID_LEN} bytes")
        if not isinstance(self.role, Role):
            raise InvalidParameterError(f"unknown role {self.role!r}")
        if not isinstance(self.mode, Mode):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        _check_secret("seed", self.seed)
        _check_secret("root", self.root)

    def to_text(self) -> str:
        values = (getattr(self, key) for key, _ in _LINES)
        return "".join(
            f"{key} = {value.hex() if type(kind) is int else value.value}\n"
            for (key, kind), value in zip(_LINES, values)
        )

    @classmethod
    def from_text(cls, text: str) -> "ProvisionFile":
        match = _PROVISION_TEXT.fullmatch(text)
        if match is None:
            _refuse(text)  # raises: the match and the walk read one table
        assoc_id, role, mode, seed, root = match.groups()
        return cls(
            bytes.fromhex(assoc_id),
            _ROLES[role],
            _MODES[mode],
            bytes.fromhex(seed),
            bytes.fromhex(root),
        )


def _refuse(text: str) -> None:
    """Raise the ProvisionError for a text that ``_PROVISION_TEXT`` refuses:
    walk ``_LINES`` over its line structure first, then over its values."""
    # field is the key the bad line names, else the one expected; the line
    # may hold a secret, so the message omits it
    lines = text.split("\n")
    for lineno, (key, _) in enumerate((*_LINES, (None, None)), start=1):
        line = lines[lineno - 1] if lineno <= len(lines) else ""
        last = lineno == len(lines)  # the text ends in this line, with no LF after it
        if line.endswith("\r") and not last:
            raise ProvisionError(
                f"line {lineno}: CRLF line ending; kiss provision ends each line in LF alone",
                field=key,
            )
        if not (line.startswith(f"{key} = ") if key else not line and last):
            raise ProvisionError(
                f"line {lineno}: expected {key or 'end of file'}; a .prov file is "
                "exactly the five lines kiss provision writes",
                field=line.partition("=")[0].strip() or key,
            )
        if key and last:
            raise ProvisionError(f"line {lineno}: the {key} line lacks its LF", field=key)
    for (key, kind), line in zip(_LINES, lines):
        value = line.partition(" = ")[2]
        if type(kind) is int:
            parse_hex(key, value, kind)
        elif value not in [member.value for member in kind]:
            raise ProvisionError(f"unknown {key} {value!r}", field=key)


@dataclass
class Association:
    """Live endpoint state for one provisioned pair.

    Single-owner, as are the chains it holds: one connection, one thread
    of control per direction. The chains hold the seed; the root only
    derives value_0 and is not kept. The receive position is stored once,
    as ``recv_chain.counter``: ``highest_accepted_seq`` reads it."""

    assoc_id: bytes
    role: Role
    send_chain: IdvvState
    recv_chain: IdvvState
    mode: Mode

    @property
    def highest_accepted_seq(self) -> int:
        return self.recv_chain.counter

    @highest_accepted_seq.setter
    def highest_accepted_seq(self, seq: int) -> None:
        # forward only, as a record moves it; the benchmark's leaky-reject check writes it
        self.recv_chain.commit(idvv_peek(self.recv_chain, seq), seq)


def generate_provision(rng=None, mode: Mode = Mode.AUTH_ONLY) -> tuple[ProvisionFile, ProvisionFile]:
    """Draw fresh association material and return (initiator, responder) files.

    ``rng`` is a ``bytes = rng(n)`` entropy source, ``os.urandom`` by default.
    """
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
    if pf.role is Role.INITIATOR:
        send_label, recv_label = LABEL_C2S, LABEL_S2C
    else:
        send_label, recv_label = LABEL_S2C, LABEL_C2S
    return Association(
        assoc_id=pf.assoc_id,
        role=pf.role,
        send_chain=idvv_init(pf.seed, pf.root, send_label),
        recv_chain=idvv_init(pf.seed, pf.root, recv_label),
        mode=pf.mode,
    )


def write_provision_file(pf: ProvisionFile, path) -> None:
    """Write ``pf`` to ``path`` with mode 0o600, as it holds secrets; a symlink there is refused."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        os.fchmod(fd, 0o600)  # before the secrets go in
        fh.write(pf.to_text())


def read_provision_file(path) -> ProvisionFile:
    # a bounded read: a device or an endless file is refused, not held in memory;
    # short reads, as from a pipe, are joined
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks, size = [], 0
        while size <= _MAX_PROVISION_BYTES:
            chunk = os.read(fd, _MAX_PROVISION_BYTES + 1 - size)
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
    finally:
        os.close(fd)
    if size > _MAX_PROVISION_BYTES:
        raise ProvisionError(f"provision file exceeds {_MAX_PROVISION_BYTES} bytes")
    try:
        return ProvisionFile.from_text(b"".join(chunks).decode("utf-8"))
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
