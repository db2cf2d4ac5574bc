"""The four workloads, each a set-up plus whole rounds ("slices") of work.

Everything runs in one process and one thread. Both endpoints of a
connection are driven from the same thread, the handshake included, so a
channel figure is the sum of both sides' CPU cost plus the loopback
syscalls, with no scheduler wake-up or GIL hand-off in it.

A workload object offers:

* ``prepare()``: untimed, writes fresh association material for the next
  set-up, so that no two set-ups of a run share keys;
* ``setup(tracer)``: one fresh set-up, timed by the caller, who first
  calls ``close()`` and ``prepare()`` untimed; the caller makes one
  before every slice;
* ``run_slice(slicer)``: one whole round of operations, returned as
  timed ``Piece``s, each with the calibration mark of its stretch; it
  counts attempted and failed operations as it goes;
* ``check()``: the checks made after the timed window.
"""

from __future__ import annotations

import importlib.util
import math
import random
import socket
import struct
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from kiss import association, channel, randomness
from kiss.association import Mode
from kiss.channel import ChannelEndpoint, MsgType
from kiss.errors import KissError

import lossmodel
import refloop
import wirecheck

ECHO_PAYLOAD = 64
STREAM_PAYLOAD = 16 * 1024
STREAM_BURST = 16  # records per burst: 16 x 16.4 KB fits the socket buffers below
STREAM_SOCKBUF = 1 << 20  # SO_SNDBUF and SO_RCVBUF on both sockets
LOSSY_PAYLOAD = 1500
BATTERY_BITS = 1_000_000
BATTERY_TRIALS = 20  # trials per run_battery call; the smallest it accepts
BATTERY_ALPHA = 0.01
PROBE_SEED = 0  # the restart probe's material and payloads; independent of --seed


class Piece(NamedTuple):
    """One timed stretch of a slice: ``ops`` operations moving ``payload``
    bytes in ``seconds``, per-operation times in ``samples_ns``."""

    ops: int
    payload: int
    seconds: float
    samples_ns: list
    mark: int  # calibration mark from refloop.Slicer


class Workload:
    name = ""
    op = ""  # what one operation is
    reference = staticmethod(refloop.hmac_reference)
    # op_tail_us: the 1% tail of the channel workloads is set by how often
    # the shared host disturbs the process, so they report the 90th
    tail_quantile = 0.90
    slices_traced = 8  # slices in each half of a traced run
    mode = Mode.AUTH_ONLY

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # checks that failed, in words
        self.notes: list[str] = []

    def fail(self, count: int, why: str, known_fault: bool = False) -> None:
        """Count ``count`` failed operations. A known fault of the program,
        one that fails the same operation in every round, goes to the notes
        and leaves ``correct`` true; any other failure is a problem."""
        if count:
            self.failed += count
            record = self.notes if known_fault else self.problems
            if len(record) < 20 and why not in record:
                record.append(why)

    def provision(self, mode: Mode, rng=None, name: str = ""):
        """Write a seeded association pair; the program sees only these files.
        Returns the initiator's material and the two paths."""
        draw = (rng or self.rng).randbytes
        initiator, responder = association.generate_provision(rng=draw, mode=mode)
        paths = self.workdir / f"{name}initiator.prov", self.workdir / f"{name}responder.prov"
        association.write_provision_file(initiator, paths[0])
        association.write_provision_file(responder, paths[1])
        return initiator, paths

    def prepare(self) -> None:
        self.material, self.paths = self.provision(self.mode)

    def details(self) -> dict:
        """Counts for the run record beyond attempted and failed."""
        return {}

    @contextmanager
    def untraced(self):
        """Work that belongs to the benchmark, not to the measured program."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def check(self) -> None:
        """Checks made after the timed window; the default has none."""

    def close(self) -> None:
        pass


# -- channel workloads ------------------------------------------------


class _Recorder:
    """Transport that keeps a copy of every byte it receives."""

    def __init__(self, transport):
        self._transport = transport
        self.data = bytearray()

    def sendall(self, data):
        self._transport.sendall(data)

    def recv(self, n):
        chunk = self._transport.recv(n)
        self.data += chunk
        return chunk


class _SentLog:
    """Transport that logs the seq field of every record the endpoint sends.
    The endpoint hands each record to one ``sendall``."""

    def __init__(self, transport, log: array):
        self._sendall = transport.sendall
        self.recv = transport.recv
        self._log = log

    def sendall(self, data):
        self._log.append(int.from_bytes(data[wirecheck.SEQ_FIELD], "big"))
        self._sendall(data)


class _PeerHandshake:
    """The initiator's transport during set-up. Its first ``recv`` runs the
    responder's ``handshake()`` in the same thread: the HELLO is already in
    the responder's socket, so no helper thread and no wake-up is needed."""

    def __init__(self, transport, peer):
        self._transport = transport
        self._peer = peer

    def sendall(self, data):
        self._transport.sendall(data)

    def recv(self, n):
        if self._peer is not None:
            peer, self._peer = self._peer, None
            peer.handshake()
        return self._transport.recv(n)


class Connection:
    """One fresh connection, set up the way a device pair would set it up:
    read both ``.prov`` files, load both associations, TCP connect and
    accept on the loopback interface, then run the handshake."""

    def __init__(self, paths, rng, sockbuf: int | None, tracer=None, sent_log: array | None = None):
        initiator = association.read_provision_file(paths[0])
        responder = association.read_provision_file(paths[1])
        client_assoc = association.load_association(initiator)
        server_assoc = association.load_association(responder)
        self.socks = []
        with socket.socket() as listener:
            if sockbuf:
                _set_bufs(listener, sockbuf)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            client = socket.socket()
            self.socks.append(client)
            if sockbuf:
                _set_bufs(client, sockbuf)
            client.connect(listener.getsockname())
            server, _ = listener.accept()
            self.socks.append(server)
        for s in self.socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wrap = tracer.transport if tracer else (lambda s: s)
        client_transport = wrap(client)
        if sent_log is not None:
            client_transport = _SentLog(client_transport, sent_log)
        self.server = ChannelEndpoint(server_assoc, wrap(server), rng=rng)
        self.client = ChannelEndpoint(client_assoc, _PeerHandshake(client_transport, self.server), rng=rng)
        self.client.handshake()
        self.client.transport = client_transport

    def close(self) -> None:
        # reset instead of FIN: set-ups would otherwise pile up TIME_WAIT
        # sockets and slow down the ephemeral-port search of later runs
        for s in self.socks:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            s.close()


def _set_bufs(sock, size: int) -> None:
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, size)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, size)


class Session(NamedTuple):
    """One connection: its material, the records sent per direction, the
    (seq, payload, wire) captured per direction, and, where the workload
    logs them, the seqs of every record the client put on the wire."""

    material: association.ProvisionFile
    sent: dict
    captured: dict
    sent_seqs: array | None


class _ChannelWorkload(Workload):
    sockbuf = None
    log_seqs = False

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.conn = None
        self.sessions: list[Session] = []

    def setup(self, tracer=None):
        self.tracer = tracer
        seqs = array("Q") if self.log_seqs else None
        self.conn = Connection(self.paths, self.rng.randbytes, self.sockbuf, tracer, seqs)
        self.sent = {"c2s": 1, "s2c": 1}  # the handshake used seq 1 each way
        self.captured = {"c2s": [], "s2c": []}
        self.sessions.append(Session(self.material, self.sent, self.captured, seqs))

    def close(self):
        """Drop the connection, after checking that each send chain moved
        by exactly the records sent."""
        if self.conn is not None:
            for direction, endpoint in (("c2s", self.conn.client), ("s2c", self.conn.server)):
                counter = endpoint.assoc.send_chain.counter
                if counter != self.sent[direction]:
                    self.problems.append(f"{direction} send chain at {counter}, expected {self.sent[direction]}")
            self.conn.close()
            self.conn = None

    def _capture(self, direction: str, payload: bytes) -> None:
        """Send one record untimed and keep its wire bytes for the checker."""
        conn = self.conn
        sender, receiver = (conn.client, conn.server) if direction == "c2s" else (conn.server, conn.client)
        transport = receiver.transport
        recorder = receiver.transport = _Recorder(transport)
        try:
            with self.untraced():
                sender.send(payload)
                got = receiver.receive()
        finally:
            receiver.transport = transport
        self.sent[direction] += 1
        self.attempted += 1
        self.fail(got != payload, f"{direction} capture delivered a different payload")
        self.captured[direction].append((self.sent[direction], payload, bytes(recorder.data)))

    def check(self):
        """Re-derive every captured record with the from-scratch checker."""
        mode = "auth" if self.mode is Mode.AUTH_ONLY else "aead"
        for m, _sent, captured, _seqs in self.sessions:
            for direction, label in (("c2s", wirecheck.LABEL_C2S), ("s2c", wirecheck.LABEL_S2C)):
                checker = wirecheck.WireChecker(m.seed, m.root, m.assoc_id, mode, label)
                for seq, payload, wire in captured[direction]:
                    self.fail(
                        not checker.check(wire, seq, payload),
                        f"{direction} record seq {seq} differs from the published construction",
                    )


class Echo(_ChannelWorkload):
    name = "echo-64"
    op = "echo round trip"
    mode = Mode.AUTH_ONLY
    round_trips = 256  # per slice

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.payloads = [rng.randbytes(ECHO_PAYLOAD) for _ in range(256)]
        self.next = 0

    def run_slice(self, slicer):
        client, server = self.conn.client, self.conn.server
        send_c, recv_s, send_s, recv_c = client.send, server.receive, server.send, client.receive
        payloads, clock, n = self.payloads, time.perf_counter_ns, self.round_trips
        samples = []
        bad = 0
        first = self.next
        start = clock()
        for i in range(first, first + n):
            p = payloads[i & 255]
            t = clock()
            send_c(p)
            got = recv_s()
            send_s(got)
            back = recv_c()
            samples.append(clock() - t)
            if back != p:
                bad += 1
        seconds = (clock() - start) / 1e9
        self.next += n
        self.sent["c2s"] += n
        self.sent["s2c"] += n
        self.attempted += n
        self.fail(bad, f"{bad} echoes differed from what was sent")
        piece = Piece(n, 2 * ECHO_PAYLOAD * n, seconds, samples, slicer.mark())
        self._capture("c2s", self.rng.randbytes(ECHO_PAYLOAD))
        self._capture("s2c", self.rng.randbytes(ECHO_PAYLOAD))
        return [piece]


class Stream(_ChannelWorkload):
    name = "stream-16k-aead"
    op = "16-KiB record delivered"
    mode = Mode.AEAD
    sockbuf = STREAM_SOCKBUF
    log_seqs = True
    bursts = 128  # per slice

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.payloads = [rng.randbytes(STREAM_PAYLOAD) for _ in range(STREAM_BURST)]
        probe_rng = random.Random(PROBE_SEED)
        _, (self.probe_path, _) = self.provision(Mode.AEAD, probe_rng, "probe-")
        self.probe_payloads = probe_rng.randbytes(64), probe_rng.randbytes(64)

    def run_slice(self, slicer):
        send, recv = self.conn.client.send, self.conn.server.receive
        payloads, clock = self.payloads, time.perf_counter_ns
        samples = []
        bad = 0
        start = clock()
        for _ in range(self.bursts):
            t = clock()
            for p in payloads:
                send(p)
            for p in payloads:
                if recv() != p:
                    bad += 1
            samples.append((clock() - t) / STREAM_BURST)
        seconds = (clock() - start) / 1e9
        n = self.bursts * STREAM_BURST
        self.sent["c2s"] += n
        self.attempted += n
        self.fail(bad, f"{bad} stream records differed from what was sent")
        piece = Piece(n, STREAM_PAYLOAD * n, seconds, samples, slicer.mark())
        self._capture("c2s", self.rng.randbytes(STREAM_PAYLOAD))
        self._restart_probe()
        return [piece]

    def _restart_probe(self) -> None:
        """Two loads of one .prov file each seal their first record, as a
        device would after two restarts. The operation fails when the two
        ciphertexts share a GCM keystream. Today it fails every time:
        ``load_association`` restarts the chains at counter 0."""
        wires = []
        with self.untraced():
            for payload in self.probe_payloads:
                assoc = association.load_association(association.read_provision_file(self.probe_path))
                wires.append(channel.encode_record(channel.seal(assoc, MsgType.DATA, payload)))
        self.attempted += 1
        self.fail(
            wirecheck.keystream_reused(*wires, *self.probe_payloads),
            "restart probe: two loads of one .prov encrypt under the same (key, nonce)",
            known_fault=True,
        )

    def check(self):
        """Besides the captures: no (key, nonce) pair repeats over the run.
        A pair is fixed by the association's secrets and the seq, so every
        seq the client put on the wire is read back from the log of its
        records and grouped by secrets across all connections."""
        super().check()
        by_secrets = defaultdict(list)
        for m, sent, _captured, seqs in self.sessions:
            if len(seqs) != sent["c2s"]:
                self.problems.append(f"{len(seqs)} records on the wire, {sent['c2s']} sent")
            by_secrets[m.seed, m.root].extend(seqs)
        repeats = sum(len(seqs) - len(set(seqs)) for seqs in by_secrets.values())
        self.fail(repeats, f"{repeats} records reused a (key, nonce) pair of an earlier record")


# -- lossy datagrams --------------------------------------------------


class Lossy(Workload):
    name = "lossy-1500"
    op = "record offered to open_record"
    # the 99th percentile falls on the fresh records that follow a drop;
    # details() counts where each slice's tail sample lands
    tail_quantile = 0.99
    records = 512  # fresh records sealed per slice

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.mix = Counter()  # datagrams per class, see _class_of
        self.gaps = Counter()  # fresh records per gap
        self.open_ns = Counter()  # raw open_record ns per class
        self.tail_class = Counter()  # slices per class of their tail sample

    def setup(self, tracer=None):
        """Read both .prov files and load the sender and the receiver."""
        self.tracer = tracer
        initiator = association.read_provision_file(self.paths[0])
        responder = association.read_provision_file(self.paths[1])
        self.sender = association.load_association(initiator)
        self.receiver = association.load_association(responder)
        self.model = lossmodel.LossModel(self.rng)
        self.sealed = 0

    def run_slice(self, slicer):
        records = []
        with self.untraced():  # the sender's work is not measured
            for _ in range(self.records):
                payload = self.rng.randbytes(LOSSY_PAYLOAD)
                wire = channel.encode_record(channel.seal(self.sender, MsgType.DATA, payload))
                self.sealed += 1
                records.append((self.sealed, payload, wire))
        datagrams = self.model.deliver(records)
        slicer.mark()  # measure the reference right before the timed opens

        receiver, open_record, clock = self.receiver, channel.open_record, time.perf_counter_ns
        samples = []
        wrong = {"fresh": 0, "flip": 0, "trunc": 0, "replay": 0}
        plain_bytes = 0
        for d in datagrams:
            before = receiver.recv_chain.counter, receiver.highest_accepted_seq
            t = clock()
            try:
                result = open_record(receiver, d.wire)
            except KissError:
                result = None
            samples.append(clock() - t)
            if d.expect_plaintext is not None:
                if result != (MsgType.DATA, d.expect_plaintext):
                    wrong["fresh"] += 1
                else:
                    plain_bytes += len(d.expect_plaintext)
            elif result is not None or (
                receiver.recv_chain.counter, receiver.highest_accepted_seq
            ) != before:
                wrong[d.kind] += 1
        n = len(datagrams)
        self.attempted += n
        for kind, count in wrong.items():
            self.fail(count, f"{count} {kind} datagrams got the wrong outcome or changed state")
        self._count(datagrams, samples)
        return [Piece(n, plain_bytes, sum(samples) / 1e9, samples, slicer.mark())]

    @staticmethod
    def _class_of(d) -> str:
        if d.kind != "fresh":
            return d.kind
        return "fresh-gap1" if d.gap == 1 else "fresh-gap2+"

    def _count(self, datagrams, samples) -> None:
        classes = [self._class_of(d) for d in datagrams]
        for d, cls, ns in zip(datagrams, classes, samples):
            self.mix[cls] += 1
            self.open_ns[cls] += ns
            if d.gap:
                self.gaps[d.gap] += 1
        # the sample at the tail rank, as run.py ranks it within a slice
        rank = max(0, math.ceil(self.tail_quantile * len(samples)) - 1)
        self.tail_class[classes[sorted(range(len(samples)), key=samples.__getitem__)[rank]]] += 1

    def details(self):
        return {
            "datagrams": dict(sorted(self.mix.items())),
            "fresh_by_gap": dict(sorted(self.gaps.items())),
            "mean_open_us_raw": {c: round(self.open_ns[c] / self.mix[c] / 1e3, 2) for c in sorted(self.mix)},
            "tail_sample_class": dict(sorted(self.tail_class.items())),
        }


# -- randomness battery -----------------------------------------------


class Battery(Workload):
    name = "battery-1m"
    op = "1e6-bit trial"
    reference = staticmethod(refloop.bincount_reference)
    slices_traced = 1  # a slice is one 4-s battery call

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.oracles = load_oracles()
        self.oracle_trial = None  # (seed, root, label, stream, results) of one seeded trial
        self.oracle_index = rng.randrange(BATTERY_TRIALS)
        self.verdict_failures = 0

    def setup(self, tracer=None):
        """Read the .prov file whose chain the next battery call tests.
        Each call gets freshly provisioned secrets, so no two calls test
        the same streams."""
        initiator = association.read_provision_file(self.paths[0])
        self.secrets = initiator.seed, initiator.root

    def run_slice(self, slicer):
        seed, root = self.secrets
        clock = time.perf_counter_ns
        pieces = []
        trial_start = [None]
        piece = lambda ns: Piece(1, BATTERY_BITS // 8, ns / 1e9, [ns], slicer.mark())
        keep = self.oracle_trial is None

        def stream_factory(trial, n_bits):
            if trial_start[0] is not None:
                pieces.append(piece(clock() - trial_start[0]))
            label = b"rs%04d" % trial
            trial_start[0] = clock()
            stream = randomness.generate_stream(seed, root, label, n_bits)
            if keep and trial == self.oracle_index:
                self.oracle_trial = (seed, root, label, stream)
            return stream

        report = randomness.run_battery(
            seed, root, n_bits=BATTERY_BITS, trials=BATTERY_TRIALS, alpha=BATTERY_ALPHA,
            stream_factory=stream_factory,
        )
        pieces.append(piece(clock() - trial_start[0]))
        if keep:
            self.oracle_trial += ({name: rs[self.oracle_index] for name, rs in report.results.items()},)
        self.attempted += BATTERY_TRIALS
        self.fail(self.check_report(report), "battery report breaks p-value range or proportion rule")
        if not report.passed:
            self.verdict_failures += 1
        return pieces

    def check_report(self, report) -> int:
        """Failed trials: a p-value outside [0, 1], or a verdict or pass count
        that disagrees with the SP 800-22 proportion rule applied here."""
        bad_trials = set()
        for results in report.results.values():
            for i, r in enumerate(results):
                if not 0.0 <= r.p_value <= 1.0 or r.passed != (r.p_value >= BATTERY_ALPHA):
                    bad_trials.add(i)
        if len(report.results) != 7 or any(len(rs) != BATTERY_TRIALS for rs in report.results.values()):
            return BATTERY_TRIALS
        min_pass = min_pass_count(BATTERY_TRIALS, BATTERY_ALPHA)
        counts = {name: sum(r.p_value >= BATTERY_ALPHA for r in rs) for name, rs in report.results.items()}
        verdict = all(c >= min_pass for c in counts.values())
        if counts != report.pass_counts or verdict != report.passed or min_pass != report.min_pass:
            return BATTERY_TRIALS
        return len(bad_trials)

    def check(self):
        """One seeded trial against the independent references in tests/oracles.py."""
        seed, root, label, stream, results = self.oracle_trial
        o = self.oracles
        bits = o.stream_bits_ref(seed, root, label, BATTERY_BITS)
        problems = []
        if stream.bits.tolist() != bits:
            problems.append("stream bits differ from the reference chain")
        refs = {
            "monobit": lambda: o.monobit_p_ref(bits),
            "block-frequency": lambda: o.block_frequency_p_ref(bits, 128),
            "runs": lambda: o.runs_p_ref(bits),
            "longest-run": lambda: o.longest_run_p_ref(bits),
            "cusum": lambda: o.cusum_p_ref(bits, forward=True),
            "approximate-entropy": lambda: o.approximate_entropy_p_ref(bits, 10),
            "serial": lambda: o.serial_p_ref(bits, 16)[0],
        }
        problems += compare_p_values(results, refs)
        if problems:
            self.fail(1, "oracle trial: " + "; ".join(problems))
        if self.verdict_failures:
            self.notes.append(
                f"{self.verdict_failures} battery call(s) failed the proportion rule by chance"
            )


def compare_p_values(results: dict, refs: dict, tol: float = 1e-6) -> list[str]:
    """Names of the tests whose p-value is missing or off its reference by more than ``tol``."""
    problems = []
    for name, ref in refs.items():
        r = results.get(name)
        if r is None or abs(r.p_value - ref()) > tol:
            problems.append(f"{name} p-value differs from the oracle")
    return problems


def min_pass_count(trials: int, alpha: float) -> int:
    """SP 800-22 proportion rule: passes needed out of ``trials`` at ``alpha``
    (expected pass rate minus three standard deviations, floored)."""
    p = 1.0 - alpha
    return math.floor(trials * (p - 3.0 * math.sqrt(alpha * p / trials)))


def load_oracles():
    """The independent references in tests/oracles.py, imported read-only."""
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("kiss_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = {w.name: w for w in (Echo, Stream, Lossy, Battery)}
