"""Micro-benchmarks for the primitives and the channel itself.

Three layers of measurement, all sharing one report shape:

* ``bench_primitives`` times raw crypto operations (hashing, MAC, AEAD,
  signatures, chain stepping, record sealing) over counter-filled
  buffers so runs are byte-comparable.
* ``bench_channel`` drives a two-thread loopback pair and measures
  sustained record throughput, with a plaintext framing baseline that
  packs the frames ``seal_wire`` would send, zero-tagged, and reads
  them through the endpoint's own framing reader, isolating the cost
  of the cryptography.
* ``bench_tls_baseline`` runs the same loopback pair over in-process
  TLS 1.3 (stdlib ``ssl``, a fresh self-signed P-256 certificate that
  the client verifies), so both sides of the channel-vs-TLS ratio come
  from one harness.

``compare_report`` merges reports into one ``BenchReport`` whose cases
carry a throughput ratio against a named baseline case.

Signature primitives are included purely as comparison anchors; the
channel itself never signs anything.

All timing uses the monotonic clock and batched loops, with warmup
excluded. The primitives of one call are timed in round-robin batches.
Throughput and percentiles come from the same samples. Per-batch op
cost feeds the percentiles, so p50/p99 describe batch means, not
single-op tails.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import platform
import socket
import ssl
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
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

from .association import (
    Association,
    Mode,
    ProvisionFile,
    Role,
    generate_provision,
    load_association,
)
from .channel import MAX_PAYLOAD, ChannelEndpoint, MsgType, TAG_LEN
from .channel import _AUTH_ONLY_WIRE, _HEADER, MAGIC, VERSION, read_record, seal_wire
from .errors import BenchError, InvalidParameterError, TransportError
from .idvv import Root, Seed, hmac_sha256, idvv_init, idvv_step

DEFAULT_SIZES = (64, 512, 1500, 16384)

PRIMITIVES = (
    "hash-sha256",
    "hmac-sha256",
    "aead-aes256gcm",
    "sign-rsa2048",
    "sign-ecdsa-p256",
    "idvv-step",
    "idvv-seal-authonly",
)

CHANNEL_MODES = ("AUTH_ONLY", "AEAD", "plaintext-baseline")

# the TLS baseline's loopback mode and case name, and its certificate's host
TLS_CASE = "tls1.3"
_TLS_HOST = "kiss-bench.test"

CORE_MODULES = ("idvv.py", "association.py", "channel.py")

# per-batch rate spread beyond this fraction marks the case noisy;
# flagged, never failed
NOISE_SPREAD = 0.15


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for a primitive run.

    Either ``iterations`` (>= 1000, exact ops per timed batch) or
    ``duration`` (>= 1 s per case, with self-calibrated batches) must
    make the run long enough to measure. ``samples`` counts timed
    batches in iterations mode; duration mode keeps timing batches
    until the budget is spent.
    """

    sizes: tuple[int, ...] = DEFAULT_SIZES
    iterations: int | None = None
    duration: float | None = 1.0
    samples: int = 10
    warmup: int = 1

    def validate(self) -> None:
        _check_sizes(self.sizes)
        if self.iterations is not None and self.iterations <= 0:
            raise InvalidParameterError(
                f"iterations must be positive, got {self.iterations}"
            )
        if self.duration is not None and self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )
        enough_iters = self.iterations is not None and self.iterations >= 1000
        enough_time = self.duration is not None and self.duration >= 1.0
        if not (enough_iters or enough_time):
            raise InvalidParameterError(
                "config too short to measure: need iterations >= 1000 "
                "or duration >= 1 s"
            )
        if self.samples < 1:
            raise InvalidParameterError(f"samples must be >= 1, got {self.samples}")
        if self.warmup < 0:
            raise InvalidParameterError(f"warmup must be >= 0, got {self.warmup}")


def _check_sizes(sizes) -> None:
    # every suite seals or frames its messages as records, so all share
    # the record cap; checked before anything is measured
    if not sizes:
        raise InvalidParameterError("at least one message size required")
    for size in sizes:
        if not isinstance(size, int) or size <= 0:
            raise InvalidParameterError(f"message sizes must be > 0, got {size}")
        if size > MAX_PAYLOAD:
            raise InvalidParameterError(
                f"msg_size must be <= {MAX_PAYLOAD} (the record cap), got {size}"
            )


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
    ratio: float | None = None  # ops/sec against the report's baseline case


@dataclass(frozen=True)
class BenchReport:
    """Rows of one run; ``baseline`` names the case every ``ratio`` is
    taken against, and only a report with one renders the ratio column."""

    suite: str
    cases: tuple[BenchCase, ...]
    environment: dict = field(default_factory=dict)
    baseline: str | None = None

    def to_csv(self) -> str:
        head = "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us"
        lines = [head + (",ratio" if self.baseline is not None else "")]
        for c in self.cases:
            line = (
                f"{c.case},{c.size_bytes},{c.ops_per_sec:.2f},"
                f"{c.mb_per_sec:.3f},{c.p50_us:.3f},{c.p99_us:.3f}"
            )
            if self.baseline is not None:
                line += "," + (f"{c.ratio:.4f}" if c.ratio is not None else "")
            lines.append(line)
        return "\n".join(lines) + "\n"

    def format_markdown(self) -> str:
        with_ratio = self.baseline is not None
        case_w = max([len("case")] + [len(c.case) for c in self.cases])
        ratio_w = max(18, len(f"vs {self.baseline}"))
        notes = [" ".join(filter(None, (c.note, ",".join(c.flags)))) for c in self.cases]
        note_w = max([len("note")] + [len(n) for n in notes])
        head = (
            f"| {'case':{case_w}} | {'size':>6} | {'ops/sec':>12} | {'MB/sec':>9} "
            f"| {'p50 us':>8} | {'p99 us':>8} |"
        )
        rule = "|" + "|".join("-" * (w + 2) for w in (case_w, 6, 12, 9, 8, 8)) + "|"
        if with_ratio:
            head += f" {'vs ' + self.baseline:>{ratio_w}} |"
            rule += f"{'-' * (ratio_w + 2)}|"
        lines = [f"{head} {'note':{note_w}} |", f"{rule}{'-' * (note_w + 2)}|"]
        for c, note in zip(self.cases, notes):
            line = (
                f"| {c.case:{case_w}} | {c.size_bytes:>6} | {c.ops_per_sec:>12.1f} "
                f"| {c.mb_per_sec:>9.3f} | {c.p50_us:>8.3f} | {c.p99_us:>8.3f} |"
            )
            if with_ratio:
                ratio = f"{c.ratio:.2f}x" if c.ratio is not None else "-"
                line += f" {ratio:>{ratio_w}} |"
            lines.append(f"{line} {note:{note_w}} |")
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


def _case_done(times: list[float], cfg: BenchConfig) -> bool:
    if cfg.duration is not None:
        return sum(times) >= cfg.duration and len(times) >= 3
    return len(times) >= cfg.samples


def _measure_cases(cases, cfg: BenchConfig) -> list[BenchCase]:
    """Time ``(case, size, op)`` triples, one batch of each per round.

    The host's speed drifts over seconds. Timing the cases in turn rather
    than one after another lets that drift touch every case alike, so the
    ratios between cases measure the ops and not the moment each was timed.
    """
    if cfg.iterations is not None:
        batches = [cfg.iterations] * len(cases)
    else:
        batches = [_calibrate_batch(op) for _, _, op in cases]
    for _ in range(cfg.warmup):
        for (_, _, op), batch in zip(cases, batches):
            _run_batch(op, batch)

    times: list[list[float]] = [[] for _ in cases]
    while not all(_case_done(t, cfg) for t in times):
        for (_, _, op), batch, t in zip(cases, batches, times):
            if not _case_done(t, cfg):
                t.append(_run_batch(op, batch))
    return [
        _summarise(case, size, batch, t)
        for (case, size, _), batch, t in zip(cases, batches, times)
    ]


def _summarise(case: str, size: int, batch: int, times: list[float]) -> BenchCase:
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
        p50_us=_percentile(per_op_us, 50.0),
        p99_us=_percentile(per_op_us, 99.0),
        flags=flags,
    )


def _percentile(sorted_vals: list[float], pct: float) -> float:
    if not sorted_vals:
        return 0.0
    k = (len(sorted_vals) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = k - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


# -- primitive benchmarks ---------------------------------------------


def _counter_buffer(size: int) -> bytes:
    return bytes(i & 0xFF for i in range(size))


def _bench_assoc() -> Association:
    pf = ProvisionFile(
        assoc_id=bytes(8),
        role=Role.INITIATOR,
        mode=Mode.AUTH_ONLY,
        seed=bytes(range(32)),
        root=bytes(range(32, 64)),
    )
    return load_association(pf)


def _make_primitive_op(name: str, size: int):
    msg = _counter_buffer(size)
    if name == "hash-sha256":
        return lambda: hashlib.sha256(msg).digest()
    if name == "hmac-sha256":
        key = bytes(range(32))
        return lambda: hmac_sha256(key, msg)
    if name == "aead-aes256gcm":
        # the record layer never reuses a key, so the schedule setup is
        # part of the honest per-message cost; key varies per op
        nonce = bytes(12)
        counter = itertools.count()

        def gcm_op():
            key = next(counter).to_bytes(32, "big")
            AESGCM(key).encrypt(nonce, msg, b"")

        return gcm_op
    if name == "sign-rsa2048":
        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        pad = padding.PKCS1v15()
        algo = hashes.SHA256()
        return lambda: key.sign(msg, pad, algo)
    if name == "sign-ecdsa-p256":
        key = ec.generate_private_key(ec.SECP256R1())
        algo = ec.ECDSA(hashes.SHA256())
        return lambda: key.sign(msg, algo)
    if name == "idvv-step":
        state = idvv_init(Seed(bytes(range(32))), Root(bytes(range(32, 64))), b"bench")
        return lambda: idvv_step(state)
    if name == "idvv-seal-authonly":
        assoc, data = _bench_assoc(), MsgType.DATA
        return lambda: seal_wire(assoc, data, msg)
    raise InvalidParameterError(f"unknown primitive {name!r}")


def bench_primitives(cfg: BenchConfig | None = None, names=None) -> BenchReport:
    """All primitives (or a subset) across the configured sizes, in one report."""
    cfg = cfg or BenchConfig()
    cfg.validate()
    names = tuple(names) if names is not None else PRIMITIVES
    for name in names:
        if name not in PRIMITIVES:
            raise InvalidParameterError(f"unknown primitive {name!r}")
    cases = [
        (name, size, _make_primitive_op(name, size))
        for name in names
        for size in cfg.sizes
    ]
    return BenchReport(
        "primitives", tuple(_measure_cases(cases, cfg)), environment_fingerprint()
    )


# -- loopback benchmarks ----------------------------------------------


def bench_channel(mode: str, msg_size: int = 1500, duration: float = 2.0) -> BenchReport:
    """Sustained one-way record throughput over a loopback pair.

    ``plaintext-baseline`` ships identical frames with a zeroed tag and
    no key derivation, and reads them with the same framing reader as
    the endpoint, isolating what the cryptography costs.
    """
    if mode not in CHANNEL_MODES:
        raise InvalidParameterError(f"unknown channel mode {mode!r}")
    _check_loopback_args((msg_size,), duration)
    case = _loopback_case(f"channel-{mode}", mode, msg_size, duration)
    return BenchReport("channel", (case,), environment_fingerprint())


def bench_tls_baseline(sizes: tuple[int, ...], duration: float = 1.0) -> BenchReport:
    """One-way TLS 1.3 message throughput on the channel suite's loopback
    runner, one case per size, for side-by-side reporting.

    The client verifies the server's certificate and host name; each
    case's note names the protocol and cipher suite negotiated.
    """
    _check_loopback_args(sizes, duration)
    cases = tuple(_loopback_case(TLS_CASE, TLS_CASE, size, duration) for size in sizes)
    return BenchReport("tls", cases, environment_fingerprint())


def _check_loopback_args(sizes, duration: float) -> None:
    _check_sizes(sizes)
    if duration <= 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")


def _loopback_case(name: str, mode: str, msg_size: int, duration: float) -> BenchCase:
    stamps, note = _run_loopback(mode, msg_size, duration)
    if len(stamps) < 16:
        raise BenchError(f"loopback produced too few records ({len(stamps)})")
    # first chunk of records doubles as warmup
    window = stamps[min(100, len(stamps) // 4) :]
    elapsed = window[-1] - window[0]
    rate = (len(window) - 1) / elapsed if elapsed > 0 else 0.0
    deltas_us = sorted((b - a) * 1e6 for a, b in zip(window, window[1:]))
    return BenchCase(
        case=name,
        size_bytes=msg_size,
        ops_per_sec=rate,
        mb_per_sec=rate * msg_size / 1e6,
        p50_us=_percentile(deltas_us, 50.0),
        p99_us=_percentile(deltas_us, 99.0),
        note=note,
    )


def _run_loopback(mode: str, msg_size: int, duration: float) -> tuple[list[float], str]:
    """Send messages one way over a socketpair for ``duration`` seconds.

    Returns the time at which the receiver thread got each one, and for
    ``TLS_CASE`` the protocol and cipher suite negotiated ("" otherwise).
    A receiver that fails shuts its socket, so the sender fails instead
    of blocking, and the receiver's exception is raised here.
    """
    msg = _counter_buffer(msg_size)
    if mode == TLS_CASE:
        server_ctx, client_ctx = _tls_contexts()
    elif mode != "plaintext-baseline":
        init_pf, resp_pf = generate_provision(mode=Mode[mode])
    result: dict = {}
    left, right = socket.socketpair()

    def receiver():
        rx = right
        try:
            if mode == TLS_CASE:
                # a bare EOF raises: only the sender's close_notify ends the stream
                rx = server_ctx.wrap_socket(
                    right, server_side=True, suppress_ragged_eofs=False
                )

                def receive():
                    data = _read_exact(rx.recv, msg_size)
                    if not data:
                        rx.unwrap()  # answer the sender's close_notify
                    return data or None
            elif mode == "plaintext-baseline":
                buf = bytearray()  # read ahead and kept, as an endpoint does

                def receive():
                    return read_record(right.recv, buf) or None
            else:
                endpoint = ChannelEndpoint(load_association(resp_pf), right)
                endpoint.handshake()
                receive = endpoint.receive
            stamps = []
            while receive() is not None:
                stamps.append(time.perf_counter())
            result["stamps"] = stamps
        except Exception as exc:  # raised again on the caller's thread
            result["error"] = exc
        finally:
            _shut(rx)

    thread = threading.Thread(target=receiver, daemon=True)
    tx, note = left, ""
    with left, right:
        thread.start()
        try:
            if mode == TLS_CASE:
                tx = client_ctx.wrap_socket(left, server_hostname=_TLS_HOST)
                note = f"{tx.version()} {tx.cipher()[0]}"
                send, finish = (lambda: tx.sendall(msg)), tx.unwrap
            elif mode == "plaintext-baseline":
                # the frames seal_wire would send, with a zeroed tag
                pack, seq, data = _HEADER.pack, itertools.count(1), MsgType.DATA
                assoc_id, zero_tag = bytes(8), bytes(TAG_LEN[Mode.AUTH_ONLY])

                def send():
                    header = pack(
                        MAGIC, VERSION, data, _AUTH_ONLY_WIRE, assoc_id, next(seq),
                        msg_size,
                    )
                    left.sendall(b"".join((header, msg, zero_tag)))

                def finish():
                    left.shutdown(socket.SHUT_WR)
            else:
                sender = ChannelEndpoint(load_association(init_pf), left)
                sender.handshake()
                send, finish = (lambda: sender.send(msg)), sender.close
            deadline = time.perf_counter() + duration
            while time.perf_counter() < deadline:
                send()
            finish()
        except Exception:
            # a receiver that failed first is what stopped the sender
            if "error" in result:
                raise result["error"]
            raise
        finally:
            _shut(tx)
            thread.join(timeout=60.0)
    if thread.is_alive():
        raise BenchError("loopback receiver did not finish")
    if "error" in result:
        raise result["error"]
    return result["stamps"], note


def _read_exact(read, n: int) -> bytes:
    """Exactly ``n`` bytes from ``read(n) -> bytes``, or b"" on EOF before
    the first byte; EOF after it raises TransportError."""
    chunk = read(n)
    if len(chunk) == n:  # the usual case: one recv delivers it all
        return chunk
    chunks, got = [], 0
    while chunk:
        chunks.append(chunk)
        got += len(chunk)
        if got >= n:
            return b"".join(chunks)
        chunk = read(n - got)
    if got:
        raise TransportError(f"connection closed mid-record ({got}/{n} bytes)")
    return b""


def _shut(sock) -> None:
    with contextlib.suppress(OSError):  # already closed, or the peer is gone
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


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


# -- comparison and headline ------------------------------------------


def compare_report(*reports: BenchReport, baseline: str) -> BenchReport:
    """Merge reports into one table whose cases carry a throughput ratio
    against the named baseline case."""
    if len(reports) < 2:
        raise InvalidParameterError("comparison needs at least two reports")
    all_cases = [c for r in reports for c in r.cases]
    by_case: dict[str, dict[int, BenchCase]] = {}
    for c in all_cases:
        by_case.setdefault(c.case, {})[c.size_bytes] = c
    if baseline not in by_case:
        raise InvalidParameterError(f"baseline case {baseline!r} not in reports")
    base_sizes = by_case[baseline]
    axis = set(base_sizes)
    for case, sizes in by_case.items():
        if set(sizes) != axis:
            raise InvalidParameterError(
                f"case {case!r} covers sizes {sorted(sizes)} but baseline "
                f"{baseline!r} covers {sorted(axis)}"
            )
    cases = []
    for c in all_cases:
        base = base_sizes[c.size_bytes].ops_per_sec
        cases.append(replace(c, ratio=c.ops_per_sec / base if base else None))
    suite = "+".join(r.suite for r in reports)
    return BenchReport(suite, tuple(cases), reports[0].environment, baseline=baseline)


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


def headline_summary(kiss: BenchReport, tls: BenchReport) -> str:
    """Side-by-side throughput ratio and code size, with no verdict.

    Both figures are environment-dependent; they are reported, not
    judged against a threshold.
    """
    kiss_case = kiss.cases[0]
    match = next((c for c in tls.cases if c.size_bytes == kiss_case.size_bytes), None)
    lines = []
    if match is not None:
        ratio = kiss_case.mb_per_sec / match.mb_per_sec if match.mb_per_sec else 0.0
        lines.append(
            f"throughput at {kiss_case.size_bytes} B: "
            f"{kiss_case.case} {kiss_case.mb_per_sec:.2f} MB/s vs "
            f"{match.case} {match.mb_per_sec:.2f} MB/s (ratio {ratio:.3f})"
        )
    else:
        lines.append("throughput ratio: not available (no TLS row at that size)")
    lines.append(f"protocol core: {core_line_count()} source lines")
    return "\n".join(lines) + "\n"
