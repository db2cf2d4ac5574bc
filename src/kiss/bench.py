"""Micro-benchmarks for the primitives and the channel itself.

One runner, ``run_suite(suite, sizes, duration)``, times one row per
case and size of a suite's row table and returns one ``BenchReport``:

* ``primitives`` times raw crypto operations (hashing, MAC, AEAD,
  signatures, the chain step ``head`` then ``commit`` that
  ``seal_wire`` makes, record sealing, and a record sealed and
  opened in memory in each mode) over counter-filled buffers so runs
  are byte-comparable.
* ``tls`` times loopback pairs whose op sends one message and receives
  it on the calling thread: the channel modes, a plaintext baseline
  that packs the frames ``seal_wire`` would send, zero-tagged, and
  reads them through the endpoint's own framing reader, isolating the
  cost of the cryptography, and in-process TLS 1.3 (stdlib ``ssl``, a
  fresh self-signed P-256 certificate that the client verifies), read
  through the channel's ``_read_to``, so both sides of the
  channel-vs-TLS ratio come from one harness.

The ratio is derived, never stored: a report with a ``tls1.3`` row
takes each row's ops/sec over the ``tls1.3`` row's at the same size
(``BenchReport.ratios``). The CSV, the table and ``headline_summary``,
which prints the ``channel-AUTH_ONLY`` and ``channel-AEAD`` rows' ratios
at each size beside the protocol core's line count, all read that one
computation.

Signature primitives are included purely as comparison anchors; the
channel itself never signs anything.

All timing uses the monotonic clock and batched loops, with warmup
excluded. Every row is timed by one sampler: the rows of one run go
in calibrated round-robin batches until each has spent ``duration``
seconds in at least ``MIN_BATCHES`` batches, and throughput and
percentiles come from the same samples. Per-batch op cost feeds the
percentiles, so p50/p99 describe batch means, not single-op tails.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import platform
import socket
import ssl
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
)
from cryptography.x509.oid import NameOID

from .association import Association, Mode, ProvisionFile, Role, load_association
from .channel import MAX_PAYLOAD, ChannelEndpoint, ChannelState, MsgType, TAG_LEN, open_record
from .channel import _AUTH_ONLY_WIRE, _HEADER, MAGIC, VERSION, _read_frame, _read_to, seal_wire
from .defaults import DEMO_ROOT, DEMO_SEED
from .errors import InvalidParameterError, TransportError
from .idvv import _hmac_new, idvv_init

# the TLS baseline's case name, which every ratio is taken against, and
# its certificate's host
TLS_CASE = "tls1.3"
_TLS_HOST = "kiss-bench.test"
# the kiss rows whose ratios against TLS_CASE the headline names: only
# AEAD gives the confidentiality TLS does
HEADLINE_CASES = ("channel-AUTH_ONLY", "channel-AEAD")

CORE_MODULES = ("idvv.py", "association.py", "channel.py")

# per-batch rate spread beyond this fraction marks the case noisy;
# flagged, never failed
NOISE_SPREAD = 0.15

# untimed rounds of every case before the first timed one, and the
# fewest timed batches any row is summarised from
WARMUP = 1
MIN_BATCHES = 3


def _check_run(sizes, duration) -> None:
    # every suite seals or frames its messages as records, so all share
    # the record cap; checked before anything is set up or measured
    if not sizes:
        raise InvalidParameterError("sizes must hold at least one message size")
    for i, size in enumerate(sizes):
        if not isinstance(size, int) or size <= 0:
            raise InvalidParameterError(f"message sizes must be > 0, got {size}")
        if size > MAX_PAYLOAD:
            raise InvalidParameterError(
                f"msg_size must be <= {MAX_PAYLOAD} (the record cap), got {size}"
            )
        # each size is one row per case, and the ratio pairs rows by size
        if size in sizes[:i]:
            raise InvalidParameterError(f"message sizes must not repeat, got {size} more than once")
    # a NaN or infinite budget is never spent
    if not isinstance(duration, (int, float)) or not 0 < duration < math.inf:
        raise InvalidParameterError(f"duration must be > 0 and finite, got {duration}")


@dataclass(frozen=True)
class BenchCase:
    case: str
    size_bytes: int
    ops_per_sec: float
    mb_per_sec: float
    p50_us: float
    p99_us: float
    note: str = ""
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BenchReport:
    """Rows of one run; a report with a ``tls1.3`` row renders a ratio
    column from ``ratios()``."""

    suite: str
    cases: tuple[BenchCase, ...]
    environment: dict = field(default_factory=dict)

    def ratios(self) -> tuple[float | None, ...] | None:
        """Each row's ops/sec over the ``tls1.3`` row's at the same size,
        in row order; None for a report with no ``tls1.3`` row. A size
        whose ``tls1.3`` row is missing or made no ops gets no ratio."""
        base = {c.size_bytes: c.ops_per_sec for c in self.cases if c.case == TLS_CASE}
        if not base:
            return None
        return tuple(
            c.ops_per_sec / base[c.size_bytes] if base.get(c.size_bytes) else None
            for c in self.cases
        )

    def to_csv(self) -> str:
        ratios = self.ratios()
        head = "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us"
        lines = [head + (",ratio" if ratios is not None else "")]
        for c, ratio in zip(self.cases, ratios or itertools.repeat(None)):
            line = (
                f"{c.case},{c.size_bytes},{c.ops_per_sec:.2f},"
                f"{c.mb_per_sec:.3f},{c.p50_us:.3f},{c.p99_us:.3f}"
            )
            if ratios is not None:
                line += "," + (f"{ratio:.4f}" if ratio is not None else "")
            lines.append(line)
        return "\n".join(lines) + "\n"

    def format_markdown(self) -> str:
        ratios = self.ratios()
        # (header, cell of a case and its ratio); case and note align left,
        # widths fit the content
        columns = [
            ("case", lambda c, r: c.case),
            ("size", lambda c, r: str(c.size_bytes)),
            ("ops/sec", lambda c, r: f"{c.ops_per_sec:.1f}"),
            ("MB/sec", lambda c, r: f"{c.mb_per_sec:.3f}"),
            ("p50 us", lambda c, r: f"{c.p50_us:.3f}"),
            ("p99 us", lambda c, r: f"{c.p99_us:.3f}"),
            ("note", lambda c, r: " ".join(filter(None, (c.note, ",".join(c.flags))))),
        ]
        if ratios is not None:
            columns.insert(-1, (
                f"vs {TLS_CASE}", lambda c, r: "-" if r is None else f"{r:.2f}x"
            ))
        table = [[head for head, _ in columns]]
        table += [
            [cell(c, r) for _, cell in columns]
            for c, r in zip(self.cases, ratios or itertools.repeat(None))
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = [
            "| " + " | ".join(
                text.ljust(w) if head in ("case", "note") else text.rjust(w)
                for text, w, head in zip(row, widths, table[0])
            ) + " |"
            for row in table
        ]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
        env = self.environment
        lines.append("")
        lines.append(
            f"suite: {self.suite}; cpu: {env.get('cpu', 'unknown')}; "
            f"python: {env.get('python', '?')}; at: {env.get('timestamp', '?')}"
        )
        return "\n".join(lines) + "\n"


def environment_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "python": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- timing core ------------------------------------------------------


def _run_batch(op, n: int) -> float:
    t0 = time.perf_counter()
    for _ in itertools.repeat(None, n):
        op()
    return time.perf_counter() - t0


def _calibrate_batch(op, target: float = 0.02) -> int:
    """Pick a batch size whose runtime is near ``target`` seconds."""
    n = 1
    while True:
        dt = _run_batch(op, n)
        if dt >= 0.004 or n >= 1 << 20:
            break
        n *= 8
    return max(1, int(n * target / max(dt, 1e-9)))


def _case_done(times: list[float], duration: float) -> bool:
    return len(times) >= MIN_BATCHES and sum(times) >= duration


def _measure_cases(rows, duration: float) -> list[BenchCase]:
    """Time ``(case, size, op, note)`` rows, one batch of each per round.

    The host's speed drifts over seconds. Timing the cases in turn rather
    than one after another lets that drift touch every case alike, so the
    ratios between cases measure the ops and not the moment each was timed.
    """
    batches = [_calibrate_batch(op) for _, _, op, _ in rows]
    for _ in range(WARMUP):
        for (_, _, op, _), batch in zip(rows, batches):
            _run_batch(op, batch)

    times: list[list[float]] = [[] for _ in rows]
    while not all(_case_done(t, duration) for t in times):
        for (_, _, op, _), batch, t in zip(rows, batches, times):
            if not _case_done(t, duration):
                t.append(_run_batch(op, batch))
    return [
        _summarise(case, size, note, batch, t)
        for (case, size, _, note), batch, t in zip(rows, batches, times)
    ]


def _summarise(case: str, size: int, note: str, batch: int, times: list[float]) -> BenchCase:
    total = sum(times)
    ops = len(times) * batch
    per_op_us = sorted(t / batch * 1e6 for t in times)
    rate = ops / total
    flags = ()
    spread = (per_op_us[-1] - per_op_us[0]) / per_op_us[len(per_op_us) // 2]
    if spread > NOISE_SPREAD:
        flags = ("noisy",)
    return BenchCase(
        case=case,
        size_bytes=size,
        ops_per_sec=rate,
        mb_per_sec=rate * size / 1e6,
        p50_us=statistics.median(per_op_us),
        p99_us=statistics.quantiles(per_op_us, n=100, method="inclusive")[98],
        note=note,
        flags=flags,
    )


# -- row factories ----------------------------------------------------


def _counter_buffer(size: int) -> bytes:
    return bytes(i & 0xFF for i in range(size))


def _bench_assoc(role: Role = Role.INITIATOR, mode: Mode = Mode.AUTH_ONLY) -> Association:
    return load_association(ProvisionFile(bytes(8), role, mode, DEMO_SEED, DEMO_ROOT))


def _hash_op(msg: bytes, stack: contextlib.ExitStack):
    return (lambda: hashlib.sha256(msg).digest()), ""


def _hmac_op(msg: bytes, stack: contextlib.ExitStack):
    key = bytes(range(32))
    return (lambda: _hmac_new(key, msg, "sha256").digest()), ""


def _gcm_op(msg: bytes, stack: contextlib.ExitStack):
    # the record layer never reuses a key, so the schedule setup is
    # part of the honest per-message cost; key varies per op
    nonce = bytes(12)
    counter = itertools.count()

    def op():
        key = next(counter).to_bytes(32, "big")
        AESGCM(key).encrypt(nonce, msg, b"")

    return op, ""


def _rsa_op(msg: bytes, stack: contextlib.ExitStack):
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    pad = padding.PKCS1v15()
    algo = hashes.SHA256()
    return (lambda: key.sign(msg, pad, algo)), ""


def _ecdsa_op(msg: bytes, stack: contextlib.ExitStack):
    key = ec.generate_private_key(ec.SECP256R1())
    algo = ec.ECDSA(hashes.SHA256())
    return (lambda: key.sign(msg, algo)), ""


def _step_op(msg: bytes, stack: contextlib.ExitStack):
    state = idvv_init(DEMO_SEED, DEMO_ROOT, b"bench")
    return (lambda: state.commit(*state.head())), ""


def _seal_op(msg: bytes, stack: contextlib.ExitStack):
    assoc, data = _bench_assoc(), MsgType.DATA
    return (lambda: seal_wire(assoc, data, msg)), ""


def _seal_open_op(mode: Mode, msg: bytes, stack: contextlib.ExitStack):
    tx, rx = _bench_assoc(Role.INITIATOR, mode), _bench_assoc(Role.RESPONDER, mode)
    data = MsgType.DATA
    return (lambda: open_record(rx, seal_wire(tx, data, msg))), ""


# what the send side of a loopback pair must hold: one message at the
# record cap plus its framing (a record header and tag, or TLS's 22
# bytes per 16-KiB record: 1.4 KiB at the cap)
_FRAMING = 4096
_SOCK_BUF = MAX_PAYLOAD + _FRAMING
# TLS handshake steps per side before an unfinished pair counts as stalled
_TLS_ROUNDS = 8


def _channel_op(mode: Mode, msg: bytes, stack: contextlib.ExitStack):
    left, right = _loopback_pair(len(msg), stack)
    tx, rx = _bench_assoc(Role.INITIATOR, mode), _bench_assoc(Role.RESPONDER, mode)
    receiver = ChannelEndpoint(rx, right)
    sender = ChannelEndpoint(tx, _PeerHandshake(left, receiver))
    sender.handshake()
    sender.transport = left

    def op():
        sender.send(msg)
        if receiver.receive() is None:
            raise TransportError("loopback peer closed the channel")

    return op, ""


def _plaintext_op(msg: bytes, stack: contextlib.ExitStack):
    """The frames ``seal_wire`` would send, with a zeroed tag."""
    left, right = _loopback_pair(len(msg), stack)
    pack, seq, data = _HEADER.pack, itertools.count(1), MsgType.DATA
    assoc_id, zero_tag, size = bytes(8), bytes(TAG_LEN[Mode.AUTH_ONLY]), len(msg)
    rest = b""  # read-ahead kept across records, as an endpoint does

    def op():
        nonlocal rest
        header = pack(MAGIC, VERSION, data, _AUTH_ONLY_WIRE, assoc_id, next(seq), size)
        left.sendall(b"".join((header, msg, zero_tag)))
        frame = _read_frame(right, rest)
        if frame is None:
            raise TransportError("loopback pair closed")
        rest = frame[2]

    return op, ""


def _tls_op(msg: bytes, stack: contextlib.ExitStack):
    """Wrap a loopback pair in TLS and step both handshakes on this thread;
    the note names the protocol and cipher suite negotiated."""
    left, right = _loopback_pair(len(msg), stack)
    server_ctx, client_ctx = _tls_contexts()
    tx = stack.enter_context(client_ctx.wrap_socket(
        left, server_hostname=_TLS_HOST, do_handshake_on_connect=False
    ))
    rx = stack.enter_context(server_ctx.wrap_socket(
        right, server_side=True, do_handshake_on_connect=False
    ))
    tx.setblocking(False)
    rx.setblocking(False)
    # a finished side's do_handshake() returns at once; version() is None
    # until the side has finished
    for sock in (tx, rx) * _TLS_ROUNDS:
        with contextlib.suppress(ssl.SSLWantReadError, ssl.SSLWantWriteError):
            sock.do_handshake()
    if tx.version() is None or rx.version() is None:
        raise TransportError(f"TLS handshake unfinished after {_TLS_ROUNDS} rounds")
    tx.setblocking(True)
    rx.setblocking(True)
    size = len(msg)

    def op():
        tx.sendall(msg)
        _read_to(rx.recv, rx.recv(size), size)

    return op, f"{tx.version()} {tx.cipher()[0]}"


def _loopback_pair(msg_size: int, stack: contextlib.ExitStack):
    """A socketpair that can hold one ``msg_size`` message in flight, so
    that one thread sends it whole before reading it; a size it cannot
    hold raises, since that ``sendall`` would block with no reader."""
    pair = [stack.enter_context(sock) for sock in socket.socketpair()]
    for sock, opt in itertools.product(pair, (socket.SO_SNDBUF, socket.SO_RCVBUF)):
        sock.setsockopt(socket.SOL_SOCKET, opt, _SOCK_BUF)
    # Linux caps the request at net.core.wmem_max / rmem_max, then grants
    # twice that and keeps half for its own bookkeeping
    room = min(
        pair[0].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF),
        pair[1].getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF),
    ) // 2
    if msg_size + _FRAMING > room:
        raise InvalidParameterError(
            f"msg_size {msg_size} does not fit the {room}-byte loopback socket "
            "buffer this host grants"
        )
    return pair


class _PeerHandshake:
    """The initiator's transport during set-up. Its first ``recv`` runs
    the responder's ``handshake()`` on the same thread: the HELLO is
    already in the responder's socket."""

    def __init__(self, sock, responder: ChannelEndpoint):
        self.sendall, self._recv, self._responder = sock.sendall, sock.recv, responder

    def recv(self, n: int) -> bytes:
        if self._responder.state is ChannelState.NEW:
            self._responder.handshake()
        return self._recv(n)


def _tls_contexts() -> tuple[ssl.SSLContext, ssl.SSLContext]:
    """Server and client TLS 1.3 contexts around a fresh self-signed P-256
    certificate for ``_TLS_HOST``. The client trusts that certificate
    alone and, as ``PROTOCOL_TLS_CLIENT`` sets, requires it and checks
    the host name."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, _TLS_HOST)])
    now = datetime.now(timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - timedelta(minutes=5))
        .not_valid_after(now + timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.DNSName(_TLS_HOST)]), False)
        .sign(key, hashes.SHA256())
    )
    cert_pem = cert.public_bytes(Encoding.PEM)
    server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    # the ssl module reads a certificate chain from a file only
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "server.pem"
        path.write_bytes(
            key.private_bytes(Encoding.PEM, PrivateFormat.PKCS8, NoEncryption())
            + cert_pem
        )
        server.load_cert_chain(path)
    client = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    client.load_verify_locations(cadata=cert_pem.decode("ascii"))
    for ctx in (server, client):
        ctx.minimum_version = ssl.TLSVersion.TLSv1_3
    return server, client


# -- the runner and its headline -------------------------------------

# each suite's rows in report order: case name -> factory(msg, stack),
# which returns the row's op and note; a loopback factory enters its
# sockets into ``stack``, which the runner closes after the last batch
_SUITES = {
    "primitives": {
        "hash-sha256": _hash_op,
        "hmac-sha256": _hmac_op,
        "aead-aes256gcm": _gcm_op,
        "sign-rsa2048": _rsa_op,
        "sign-ecdsa-p256": _ecdsa_op,
        "idvv-step": _step_op,
        "idvv-seal-authonly": _seal_op,
        "idvv-seal-open-authonly": partial(_seal_open_op, Mode.AUTH_ONLY),
        "idvv-seal-open-aead": partial(_seal_open_op, Mode.AEAD),
    },
    "tls": {
        "channel-AUTH_ONLY": partial(_channel_op, Mode.AUTH_ONLY),
        "channel-AEAD": partial(_channel_op, Mode.AEAD),
        "channel-plaintext-baseline": _plaintext_op,
        TLS_CASE: _tls_op,
    },
}


def run_suite(suite: str, sizes, duration: float, cases=None) -> BenchReport:
    """One row per case and size, all timed in round-robin batches by one
    ``_measure_cases`` call. ``cases`` names a subset of the suite's rows,
    run in the order given; by default every row runs, in table order.

    A ``tls`` row is a socketpair, set up and hand-shaken once, whose op
    sends one message and receives it on the calling thread, so its rate
    counts both sides' CPU and a send and a receive syscall per message.
    """
    if suite not in _SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r}, not one of {', '.join(_SUITES)}")
    table = _SUITES[suite]
    names = tuple(table if cases is None else cases)
    for name in names:
        if name not in table:
            raise InvalidParameterError(f"unknown {suite} case {name!r}")
    _check_run(sizes, duration)
    with contextlib.ExitStack() as stack:
        rows = [
            (name, size, *table[name](_counter_buffer(size), stack))
            for name, size in itertools.product(names, sizes)
        ]
        measured = tuple(_measure_cases(rows, duration))
    return BenchReport(suite, measured, environment_fingerprint())


def core_line_count() -> int:
    """Non-blank, non-comment source lines of the protocol core."""
    total = 0
    pkg = Path(__file__).parent
    for name in CORE_MODULES:
        for line in (pkg / name).read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def headline_summary(report: BenchReport) -> str:
    """At each size, each ``HEADLINE_CASES`` row's ratio from
    ``report.ratios()`` beside its and the ``tls1.3`` row's MB/s, one line
    per row in report order, then the code size, with no verdict. A size
    whose ``tls1.3`` row is missing or made no ops has no ratio and no line.

    Both figures are environment-dependent; they are reported, not
    judged against a threshold.
    """
    tls = {c.size_bytes: c for c in report.cases if c.case == TLS_CASE}
    lines = [
        f"throughput at {c.size_bytes} B: "
        f"{c.case} {c.mb_per_sec:.2f} MB/s vs "
        f"{TLS_CASE} {tls[c.size_bytes].mb_per_sec:.2f} MB/s (ratio {ratio:.3f})"
        for c, ratio in zip(report.cases, report.ratios() or ())
        if c.case in HEADLINE_CASES and ratio is not None
    ]
    if not lines:
        lines.append(
            f"throughput ratio: not available (no size has both a "
            f"{' or '.join(HEADLINE_CASES)} row and a {TLS_CASE} row that made ops)"
        )
    lines.append(f"protocol core: {core_line_count()} source lines")
    return "\n".join(lines) + "\n"
