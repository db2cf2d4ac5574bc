"""Association provisioning and lifecycle.

An association is the provisioned relationship between two endpoints:
identity, the seed/root secrets, one chain per direction, and the
anti-replay policy. Key distribution is realized as a pair of
out-of-band provisioning files; the generate/load split keeps the
carrier replaceable by a networked distributor later.

Provisioning file format (bit-exact): UTF-8, LF line endings, lines of
``key = value`` in the order assoc_id, role, mode, seed, root,
resync_window; hex lowercase with no spaces; ``#`` starts a comment line.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

from .errors import InvalidParameterError, ProvisionError
from .idvv import IdvvState, Root, Seed, idvv_init

LABEL_C2S = b"c2s"
LABEL_S2C = b"s2c"

ASSOC_ID_LEN = 8
DEFAULT_RESYNC_WINDOW = 1024
# A forged record makes the receiver walk its chain up to the window
# before the tag check fails: about 0.15 s at 2**16 steps, hours at 2**32.
MAX_RESYNC_WINDOW = 2**16


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class Mode(enum.Enum):
    AUTH_ONLY = "auth"
    AEAD = "aead"


_FIELD_ORDER = ("assoc_id", "role", "mode", "seed", "root", "resync_window")


@dataclass(frozen=True)
class ProvisionFile:
    """Parsed provisioning document for one endpoint."""

    assoc_id: bytes
    role: Role
    mode: Mode
    # kept out of repr, so a traceback or log line that shows one leaks neither
    seed: bytes = field(repr=False)
    root: bytes = field(repr=False)
    resync_window: int = DEFAULT_RESYNC_WINDOW

    def to_text(self) -> str:
        return (
            f"assoc_id = {self.assoc_id.hex()}\n"
            f"role = {self.role.value}\n"
            f"mode = {self.mode.value}\n"
            f"seed = {self.seed.hex()}\n"
            f"root = {self.root.hex()}\n"
            f"resync_window = {self.resync_window}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "ProvisionFile":
        seen: dict[str, str] = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ProvisionError(f"line {lineno}: expected 'key = value'", field=line)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELD_ORDER:
                raise ProvisionError(f"unknown field {key!r}", field=key)
            if key in seen:
                raise ProvisionError(f"duplicate field {key!r}", field=key)
            seen[key] = value

        for key in ("assoc_id", "role", "mode", "seed", "root"):
            if key not in seen:
                raise ProvisionError(f"missing field {key!r}", field=key)

        assoc_id = parse_hex("assoc_id", seen["assoc_id"], ASSOC_ID_LEN)
        seed = parse_hex("seed", seen["seed"], 32)
        root = parse_hex("root", seen["root"], 32)

        try:
            role = Role(seen["role"])
        except ValueError:
            raise ProvisionError(f"unknown role {seen['role']!r}", field="role") from None
        try:
            mode = Mode(seen["mode"])
        except ValueError:
            raise ProvisionError(f"unknown mode {seen['mode']!r}", field="mode") from None

        window = seen.get("resync_window", str(DEFAULT_RESYNC_WINDOW))
        # only as to_text writes it: int() would also take "1_024", "+1024",
        # "01024" and non-ASCII digits; five digits hold 2**16
        if not (window.isascii() and window.isdigit() and len(window) <= 5
                and str(int(window)) == window and 1 <= int(window) <= MAX_RESYNC_WINDOW):
            raise ProvisionError(
                f"resync_window must be a decimal 1..{MAX_RESYNC_WINDOW}, got {window!r}",
                field="resync_window",
            )
        return cls(assoc_id, role, mode, seed, root, int(window))


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
    resync_window: int = DEFAULT_RESYNC_WINDOW
    # always equals recv_chain.counter, which is what gates incoming seqs
    highest_accepted_seq: int = field(default=0)


def generate_provision(
    rng=None,
    mode: Mode = Mode.AUTH_ONLY,
    resync_window: int = DEFAULT_RESYNC_WINDOW,
) -> tuple[ProvisionFile, ProvisionFile]:
    """Draw fresh association material and return (initiator, responder) files.

    ``rng`` is a ``bytes = rng(n)`` entropy source, ``os.urandom`` by default.
    """
    if not 1 <= resync_window <= MAX_RESYNC_WINDOW:
        raise InvalidParameterError(
            f"resync_window must be 1..{MAX_RESYNC_WINDOW}, got {resync_window}"
        )
    if not isinstance(mode, Mode):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if rng is None:
        rng = os.urandom
    try:
        assoc_id = bytes(rng(ASSOC_ID_LEN))
        seed = bytes(rng(32))
        root = bytes(rng(32))
    except Exception as exc:
        raise ProvisionError(f"entropy source failed: {exc}") from exc
    if len(assoc_id) != ASSOC_ID_LEN or len(seed) != 32 or len(root) != 32:
        raise ProvisionError("entropy source returned wrong length")
    if seed == root:
        # 2^-256 from a sane source; a constant source must not slip through
        raise ProvisionError("entropy source produced seed == root")
    return (
        ProvisionFile(assoc_id, Role.INITIATOR, mode, seed, root, resync_window),
        ProvisionFile(assoc_id, Role.RESPONDER, mode, seed, root, resync_window),
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
        resync_window=pf.resync_window,
    )


def write_provision_file(pf: ProvisionFile, path) -> None:
    """Write ``pf`` to ``path`` with mode 0o600, as it holds secrets; a symlink there is refused."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o600)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        os.fchmod(fd, 0o600)  # before the secrets go in
        fh.write(pf.to_text())


def read_provision_file(path) -> ProvisionFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ProvisionFile.from_text(fh.read())
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
