"""Benchmark harness: run checks, loopback rows, derived ratio, report plumbing."""

import contextlib
import itertools
import platform
import socket
import ssl
import subprocess
import sys
import threading

import pytest

import kiss.bench as bench_mod
import kiss.channel as channel_mod
from kiss.association import Mode, ProvisionFile, Role, load_association
from kiss.bench import (
    TLS_CASE,
    WARMUP,
    BenchCase,
    BenchReport,
    core_line_count,
    environment_fingerprint,
    headline_summary,
    run_suite,
    _SUITES,
    _TLS_HOST,
    _check_run,
    _measure_cases,
    _tls_contexts,
)
from kiss.channel import MAX_PAYLOAD, MsgType, _read_to, open_record
from kiss.defaults import DEFAULT_SIZES
from kiss.errors import InvalidParameterError, TransportError


# -- run configuration: sizes and duration -----------------------------


def _run(sizes=DEFAULT_SIZES, duration=1.0):
    _check_run(sizes, duration)


def test_config_defaults_are_valid():
    _run()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sizes": ()},
        {"sizes": (0,)},
        {"sizes": (-5,)},
        {"sizes": (64, MAX_PAYLOAD + 1)},  # above the record cap
        {"sizes": (64.0,)},
        {"sizes": (64, 256, 64)},  # one size, two rows per case
        {"duration": 0.0},
        {"duration": -1.0},
        {"duration": float("nan")},  # a budget that is never spent
        {"duration": float("inf")},  # likewise
        {"duration": None},  # the one stopping rule needs a budget
    ],
)
def test_config_rejections(kwargs):
    with pytest.raises(InvalidParameterError):
        _run(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sizes": (1, MAX_PAYLOAD)},  # both ends of the record cap
        {"duration": 1.0},
        {"duration": 0.05},  # no floor: every row still gets 3 batches
    ],
)
def test_config_acceptable_shapes(kwargs):
    _run(**kwargs)


# -- timing core, deterministically scripted ----------------------------


# timed batches in each scripted run below, of 1000 ops each
_BATCHES = 10


def _scripted_measure(monkeypatch, script, size=64):
    assert len(script) == _BATCHES
    # the budget is spent exactly at the last scripted batch
    duration = sum(script)
    script = [0.010] * WARMUP + list(script)  # warmup batches are not summarised
    monkeypatch.setattr(bench_mod, "_calibrate_batch", lambda op: 1000)
    monkeypatch.setattr(bench_mod, "_run_batch", lambda op, n: script.pop(0))
    return _measure_cases([("scripted", size, lambda: None, "")], duration)[0]


def test_measure_arithmetic(monkeypatch):
    case = _scripted_measure(monkeypatch, [0.010] * 10)
    assert case.ops_per_sec == pytest.approx(100_000.0, rel=1e-9)
    assert case.mb_per_sec == pytest.approx(6.4, rel=1e-9)
    assert case.p50_us == pytest.approx(10.0, rel=1e-9)
    assert case.p99_us == pytest.approx(10.0, rel=1e-9)
    assert case.flags == ()


def test_measure_flags_noise_without_failing(monkeypatch):
    case = _scripted_measure(monkeypatch, [0.010] * 9 + [0.020])
    assert case.flags == ("noisy",)
    assert case.ops_per_sec > 0
    assert case.p50_us == pytest.approx(10.0, rel=1e-9)
    assert case.p99_us == pytest.approx(19.1, rel=1e-9)


def test_measure_cases_interleaves_batches(monkeypatch):
    order = []

    def run_batch(op, n):
        order.append(op())
        return 0.010

    monkeypatch.setattr(bench_mod, "_calibrate_batch", lambda op: 1000)
    monkeypatch.setattr(bench_mod, "_run_batch", run_batch)
    duration = sum([0.010] * _BATCHES)
    cases = _measure_cases(
        [("a", 64, lambda: "a", ""), ("b", 64, lambda: "b", "")], duration
    )
    assert [c.case for c in cases] == ["a", "b"]
    # warmup rounds, then the timed rounds
    assert order == ["a", "b"] * (WARMUP + _BATCHES)


# -- primitive ops -----------------------------------------------------


def _primitive_op(name):
    """The row's op at 64 B; a primitive row enters nothing into the stack."""
    op, note = _SUITES["primitives"][name](bench_mod._counter_buffer(64), contextlib.ExitStack())
    assert note == ""
    return op


@pytest.mark.parametrize("size", [1, 255, 256, 257, 65_539])
def test_counter_buffer_counts_bytes_0_to_255_and_round_again(size):
    assert bench_mod._counter_buffer(size) == bytes(i & 0xFF for i in range(size))


@pytest.mark.parametrize("name", _SUITES["primitives"])
def test_every_primitive_op_runs(name):
    op = _primitive_op(name)
    op()


def test_unknown_primitive_rejected():
    with pytest.raises(InvalidParameterError):
        run_suite("primitives", DEFAULT_SIZES, 1.0, cases=("sign-dsa1024",))


def test_seal_op_produces_framed_records():
    op = _primitive_op("idvv-seal-authonly")
    first, second = op(), op()
    assert len(first) == len(second) == 25 + 64 + 32
    assert first != second  # sequence and tag advance every call
    # the responder of the op's association opens each record in turn
    responder = load_association(ProvisionFile(
        bytes(8), Role.RESPONDER, Mode.AUTH_ONLY, bytes(range(32)), bytes(range(32, 64))
    ))
    payload = bench_mod._counter_buffer(64)
    assert open_record(responder, first) == (MsgType.DATA, payload)
    assert open_record(responder, second) == (MsgType.DATA, payload)


def test_seal_open_op_opens_what_it_sealed():
    op = _primitive_op("idvv-seal-open-authonly")
    payload = bench_mod._counter_buffer(64)
    # each op seals the next seq and the responder opens it: gap 1 forever
    for _ in range(3):
        assert op() == (MsgType.DATA, payload)
    report = run_suite(
        "primitives", (64,), 0.05, cases=("idvv-seal-authonly", "idvv-seal-open-authonly")
    )
    assert [c.case for c in report.cases] == ["idvv-seal-authonly", "idvv-seal-open-authonly"]
    assert all(c.ops_per_sec > 0 for c in report.cases)


def test_seal_open_aead_op_opens_what_it_sealed(monkeypatch):
    sealed, seal_wire = [], bench_mod.seal_wire

    def recording_seal_wire(*args):
        sealed.append(seal_wire(*args))
        return sealed[-1]

    monkeypatch.setattr(bench_mod, "seal_wire", recording_seal_wire)
    op = _primitive_op("idvv-seal-open-aead")
    payload = bench_mod._counter_buffer(64)
    for _ in range(3):
        assert op() == (MsgType.DATA, payload)
    # AEAD records: a 16-byte GCM tag and a payload field that is not the plaintext
    assert [len(w) for w in sealed] == [25 + 64 + 16] * 3
    assert all(w[25:89] != payload for w in sealed)
    report = run_suite(
        "primitives", (64,), 0.05, cases=("idvv-seal-open-authonly", "idvv-seal-open-aead")
    )
    assert [c.case for c in report.cases] == ["idvv-seal-open-authonly", "idvv-seal-open-aead"]
    assert all(c.ops_per_sec > 0 for c in report.cases)


def test_run_suite_primitives_report_shape():
    report = run_suite("primitives", (64,), 0.05, cases=("hash-sha256", "hmac-sha256"))
    assert report.suite == "primitives"
    assert [c.case for c in report.cases] == ["hash-sha256", "hmac-sha256"]
    for case in report.cases:
        assert case.ops_per_sec > 0
        assert case.p50_us <= case.p99_us
    with pytest.raises(InvalidParameterError):
        run_suite("primitives", (64,), 0.05, cases=("hash-sha256", "mystery"))


def test_hash_latency_grows_with_size():
    report = run_suite("primitives", (64, 65536), 0.1, cases=("hash-sha256",))
    small, big = report.cases
    assert small.size_bytes == 64 and big.size_bytes == 65536
    assert small.p50_us < big.p50_us
    assert big.mb_per_sec > small.mb_per_sec  # hashing amortizes per byte


# -- loopback rows ------------------------------------------------------


@pytest.mark.usefixtures("time_limit")
def test_run_suite_validates_arguments():
    with pytest.raises(InvalidParameterError, match="unknown suite"):
        run_suite("nope", (1500,), 1.0)
    with pytest.raises(InvalidParameterError):
        run_suite("tls", (1500,), 1.0, cases=("carrier-pigeon",))
    with pytest.raises(InvalidParameterError):
        run_suite("primitives", (1500,), 1.0, cases=(TLS_CASE,))  # another suite's row
    with pytest.raises(InvalidParameterError):
        run_suite("tls", (0,), 1.0, cases=("channel-AEAD",))
    with pytest.raises(InvalidParameterError, match="msg_size"):
        run_suite("tls", (MAX_PAYLOAD + 1,), 1.0, cases=("channel-AEAD",))
    with pytest.raises(InvalidParameterError):
        run_suite("tls", (1500,), 0.0, cases=("channel-AEAD",))


@pytest.mark.usefixtures("time_limit")
def test_loopback_plaintext_baseline_runs(monkeypatch):
    # the baseline must frame with the endpoint's own reader, keeping its
    # read-ahead across records as an endpoint does, so that its gap to
    # the channel modes is the cryptography alone
    reads, wires = [], []

    def counting_read_frame(transport, rest):
        frame = channel_mod._read_frame(transport, rest)
        reads.append(len(frame[0]))
        wires.append(frame[0])
        return frame

    monkeypatch.setattr(bench_mod, "_read_frame", counting_read_frame)
    report = run_suite("tls", (256,), 0.3, cases=("channel-plaintext-baseline",))
    assert report.suite == "tls"
    (case,) = report.cases
    assert case.case == "channel-plaintext-baseline"
    assert case.size_bytes == 256
    assert case.ops_per_sec > 0
    assert case.p50_us <= case.p99_us
    # one call per record
    assert len(reads) >= 16 and set(reads) == {25 + 256 + 32}
    # the frames a sealed record would have, with a zeroed tag: magic,
    # version 1, DATA, auth-only, a zero assoc_id, seq, payload_len 256
    msg = bench_mod._counter_buffer(256)
    for seq, wire in enumerate(wires[:2], start=1):
        header = b"KI\x01\x03\x01" + bytes(8) + seq.to_bytes(8, "big") + b"\x00\x00\x01\x00"
        assert wire == header + msg + bytes(32)


# a receive that fails mid-run must be raised, not leave the run blocked;
# a hang would stall the suite, so each case runs in a child process
# under a hard timeout
_FAIL_51ST_CALL = """
import importlib, sys
from kiss.bench import run_suite
from kiss.errors import AuthenticationError

case, target = sys.argv[1:]
module_name, name = target.rsplit(".", 1)
module = importlib.import_module(module_name)
real, calls = getattr(module, name), []


def failing(*args, **kwargs):
    calls.append(None)
    if len(calls) == 51:
        raise AuthenticationError("injected")
    return real(*args, **kwargs)


setattr(module, name, failing)
try:
    run_suite("tls", (16384,), 1.0, cases=(case,))
except AuthenticationError as exc:
    print("raised", exc)
"""


def _short_id(value):
    return value.removeprefix("channel-")


@pytest.mark.parametrize(
    "case,target",
    [
        ("channel-AUTH_ONLY", "kiss.channel._open_frame"),
        ("channel-AEAD", "kiss.channel._open_frame"),
        ("channel-plaintext-baseline", "kiss.bench._read_frame"),
        (TLS_CASE, "kiss.bench._read_to"),
    ],
    ids=_short_id,
)
def test_failed_receiver_is_raised_instead_of_hanging(case, target):
    result = subprocess.run(
        [sys.executable, "-c", _FAIL_51ST_CALL, case, target],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised injected"
    assert "Traceback" not in result.stderr


def test_read_to_joins_pieces_and_raises_on_eof():
    # the tls1.3 row's read: one recv, then _read_to for what it lacks
    pieces = [b"ab", b"c", b"def", b""]
    read = lambda n: pieces.pop(0)[:n]
    assert _read_to(read, read(3), 3) == b"abc"
    with pytest.raises(TransportError):
        _read_to(read, read(4), 4)  # "def", then EOF inside the message
    eof = lambda n: b""
    with pytest.raises(TransportError):
        _read_to(eof, eof(4), 4)  # EOF between messages
    whole = bytes(range(5))
    assert _read_to(eof, whole, 5) is whole  # one recv brought it all: no copy


@pytest.mark.usefixtures("time_limit")
def test_loopback_rows_start_no_thread(monkeypatch):
    def no_threads(self):
        raise AssertionError("a loopback row started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    for name in _SUITES["tls"]:
        (case,) = run_suite("tls", (256,), 0.05, cases=(name,)).cases
        assert case.ops_per_sec > 0


@pytest.mark.usefixtures("time_limit")
def test_loopback_row_is_summarised_like_a_primitive(monkeypatch):
    # calibration, warmup, then timed batches, one of them twice as slow
    calls = itertools.count()

    def run_batch(op, n):
        op()
        return 0.020 if next(calls) == 3 else 0.010

    monkeypatch.setattr(bench_mod, "_run_batch", run_batch)
    (case,) = run_suite("tls", (256,), 0.05, cases=("channel-AUTH_ONLY",)).cases
    assert case.flags == ("noisy",)
    assert case.p50_us < case.p99_us


@pytest.mark.usefixtures("time_limit")
def test_loopback_rows_share_one_round_robin_call(monkeypatch):
    real, calls = bench_mod._measure_cases, []

    def counting(rows, duration):
        calls.append([name for name, *_ in rows])
        return real(rows, duration)

    monkeypatch.setattr(bench_mod, "_measure_cases", counting)
    cases = run_suite("tls", (64, 256), 0.05).cases
    names = ["channel-AUTH_ONLY", "channel-AEAD", "channel-plaintext-baseline", TLS_CASE]
    assert calls == [[name for name in names for _ in (64, 256)]]
    assert [(c.case, c.size_bytes) for c in cases] == [
        (name, size) for name in names for size in (64, 256)
    ]
    assert [bool(c.note) for c in cases] == [False] * 6 + [True] * 2
    with pytest.raises(InvalidParameterError):
        run_suite("tls", (64,), 0.05, cases=("carrier-pigeon",))


# one thread cannot drain a sendall that outgrows the socket buffer, so
# such a size must be refused before any message is sent; a hang would
# stall the suite, so each case runs in a child process under a timeout
_OVERSIZED = """
import sys
import kiss.bench as bench
from kiss.errors import InvalidParameterError

bench._SOCK_BUF = 16384  # granted as 32768 on Linux: 16384 for data
try:
    bench.run_suite("tls", (65536,), 1.0, cases=(sys.argv[1],))
except InvalidParameterError as exc:
    print("refused", exc)
"""


@pytest.mark.parametrize("case", _SUITES["tls"], ids=_short_id)
def test_message_larger_than_socket_buffer_is_refused(case):
    result = subprocess.run(
        [sys.executable, "-c", _OVERSIZED, case],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("refused msg_size 65536"), result.stdout


_UNTRUSTED = """
import ssl
import kiss.bench as bench

real = bench._tls_contexts


def mismatched():
    server, _ = real()
    _, client = real()  # trusts a different certificate
    return server, client


bench._tls_contexts = mismatched
try:
    bench.run_suite("tls", (256,), 0.1, cases=(bench.TLS_CASE,))
except ssl.SSLCertVerificationError as exc:
    print("refused", exc.verify_message)
"""


@pytest.mark.usefixtures("time_limit")
def test_tls_handshake_that_does_not_finish_raises(monkeypatch):
    monkeypatch.setattr(bench_mod, "_TLS_ROUNDS", 1)  # TLS 1.3 needs two
    with pytest.raises(TransportError, match="unfinished"):
        run_suite("tls", (256,), 0.05, cases=(TLS_CASE,))


def test_tls_baseline_refuses_untrusted_certificate():
    # the one-thread handshake must still verify, and fail, not stall
    result = subprocess.run(
        [sys.executable, "-c", _UNTRUSTED],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("refused "), result.stdout


# -- TLS baseline ---------------------------------------------------------


@pytest.mark.parametrize(
    "host,own_client", [("other.test", True), (_TLS_HOST, False)],
    ids=["wrong-host-name", "untrusted-certificate"],
)
def test_tls_client_verifies_certificate_and_host_name(host, own_client):
    # a baseline with verification off would be a cheaper, different program
    server, client = _tls_contexts()
    assert client.verify_mode is ssl.CERT_REQUIRED
    assert client.check_hostname
    assert server.minimum_version is ssl.TLSVersion.TLSv1_3
    assert client.minimum_version is ssl.TLSVersion.TLSv1_3
    if not own_client:
        _, client = _tls_contexts()  # trusts a different certificate

    left, right = socket.socketpair()
    for sock in (left, right):
        sock.settimeout(5.0)  # a dead helper fails the test instead of hanging it

    def serve():
        with contextlib.suppress(OSError):  # the client aborts the handshake
            server.wrap_socket(right, server_side=True).close()

    with left, right:
        thread = threading.Thread(target=serve)
        thread.start()
        with pytest.raises(ssl.SSLCertVerificationError):
            client.wrap_socket(left, server_hostname=host)
        thread.join(timeout=10.0)
    assert not thread.is_alive()


@pytest.mark.usefixtures("time_limit")
def test_tls_baseline_negotiates_tls13_and_measures():
    report = run_suite("tls", (256,), 0.3, cases=(TLS_CASE,))
    assert report.suite == "tls"
    (case,) = report.cases
    assert (case.case, case.size_bytes) == (TLS_CASE, 256)
    assert case.note == "TLSv1.3 TLS_AES_256_GCM_SHA384"
    assert case.ops_per_sec > 0
    assert case.p50_us <= case.p99_us


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("sizes", [(), (0,), (64, -5), (64, MAX_PAYLOAD + 1), (64, 64)])
def test_tls_baseline_rejects_bad_sizes(sizes):
    with pytest.raises(InvalidParameterError):
        run_suite("tls", sizes, 1.0, cases=(TLS_CASE,))


# -- derived ratio ------------------------------------------------------


def _case(name, size, ops):
    return BenchCase(name, size, ops, ops * size / 1e6, 1.0, 2.0)


def _report(name, *cases):
    return BenchReport(name, tuple(cases), {"cpu": "test", "python": "x"})


def _ratio_cells(report):
    """The ratio column as the CSV, the table and the headline print it."""
    csv = [line.split(",")[6:] for line in report.to_csv().splitlines()]
    table = report.format_markdown().split("\n\n")[0].splitlines()
    md = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table if line[1] != "-"]
    return csv, [row[6] for row in md if len(row) == 8], headline_summary(report)


def test_compare_identical_reports_ratio_one():
    # rows as fast as the tls1.3 rows, and the tls1.3 rows themselves
    report = _report(
        "tls",
        _case("channel-AUTH_ONLY", 64, 1000.0), _case("channel-AUTH_ONLY", 512, 500.0),
        _case(TLS_CASE, 64, 1000.0), _case(TLS_CASE, 512, 500.0),
    )
    assert report.ratios() == (1.0, 1.0, 1.0, 1.0)
    csv, md, headline = _ratio_cells(report)
    assert csv == [["ratio"]] + [["1.0000"]] * 4
    assert md == ["vs tls1.3"] + ["1.00x"] * 4
    assert "(ratio 1.000)" in headline and "at 512 B" in headline


def test_compare_ratio_arithmetic_and_default_baseline():
    # every row is taken over the tls1.3 row, which reads 1 against itself
    report = _report("tls", _case(TLS_CASE, 64, 2000.0), _case("channel-AUTH_ONLY", 64, 500.0))
    assert report.ratios() == pytest.approx((1.0, 0.25))
    csv, md, headline = _ratio_cells(report)
    assert csv[1:] == [["1.0000"], ["0.2500"]]
    assert md[1:] == ["1.00x", "0.25x"]
    assert "(ratio 0.250)" in headline


def test_compare_size_without_baseline_row_has_no_ratio():
    report = _report(
        "tls",
        _case(TLS_CASE, 64, 1000.0),
        _case("channel-AUTH_ONLY", 64, 500.0), _case("channel-AUTH_ONLY", 512, 900.0),
    )
    assert report.ratios() == (1.0, 0.5, None)
    csv, md, headline = _ratio_cells(report)
    assert csv[1:] == [["1.0000"], ["0.5000"], [""]]  # an empty last cell
    assert md[1:] == ["1.00x", "0.50x", "-"]
    assert "at 64 B" in headline and "at 512 B" not in headline
    # each size is taken over the tls1.3 row at that size, never another
    report = _report("tls", *report.cases, _case(TLS_CASE, 512, 300.0))
    assert report.ratios() == pytest.approx((1.0, 0.5, 3.0, 1.0))


def test_compare_zero_ops_baseline_has_no_ratio():
    report = _report("tls", _case(TLS_CASE, 64, 0.0), _case("channel-AUTH_ONLY", 64, 1000.0))
    assert report.ratios() == (None, None)
    csv, md, headline = _ratio_cells(report)
    assert csv == [["ratio"], [""], [""]]
    assert md == ["vs tls1.3", "-", "-"]
    assert "not available" in headline and "throughput at" not in headline


def test_report_csv_shape():
    # no tls1.3 row: no ratio, and no ratio column in the CSV or the table
    report = _report("one", _case("alpha", 64, 1234.5), _case("alpha", 512, 678.9))
    assert report.ratios() is None
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us"
    assert len(lines) == 3
    assert lines[1].startswith("alpha,64,1234.50,")
    assert "vs " not in report.format_markdown()


# a fixed report whose CSV text is pinned byte for byte: a noisy row and
# a row with a note
_PIN = BenchReport(
    "tls",
    (
        BenchCase("channel-AUTH_ONLY", 1500, 6543.21, 9.814815, 120.5, 410.25,
                  flags=("noisy",)),
        BenchCase(TLS_CASE, 1500, 15000.0, 22.5, 55.0, 71.125,
                  note="TLSv1.3 TLS_AES_256_GCM_SHA384"),
    ),
    {"cpu": "test", "python": "x"},
)


def test_report_csv_text_is_pinned():
    assert _PIN.to_csv() == (
        "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us,ratio\n"
        "channel-AUTH_ONLY,1500,6543.21,9.815,120.500,410.250,0.4362\n"
        "tls1.3,1500,15000.00,22.500,55.000,71.125,1.0000\n"
    )


def test_report_markdown_mentions_environment():
    report = BenchReport(
        "primitives",
        (_case("alpha", 64, 1000.0),),
        {"cpu": "Example CPU", "python": "3.12.0", "timestamp": "sometime"},
    )
    text = report.format_markdown()
    assert "alpha" in text
    assert "Example CPU" in text


@pytest.mark.parametrize("with_tls_row", [False, True])
def test_markdown_rows_line_up_with_header(with_tls_row):
    cases = _PIN.cases if with_tls_row else _PIN.cases[:1]
    report = BenchReport("tls", cases + (
        BenchCase("channel-plaintext-baseline", 1500, 98765.4, 148.1, 8.5, 30.25),
        # a size wider than its header: the column grows to fit it
        BenchCase("channel-AUTH_ONLY", 1048576, 210.5, 220.7, 4750.0, 5120.5),
    ))
    assert ("vs tls1.3" in report.format_markdown()) is with_tls_row
    table = report.format_markdown().split("\n\n")[0].splitlines()
    assert len(table) == 2 + len(report.cases)
    bars = [[i for i, ch in enumerate(line) if ch == "|"] for line in table]
    assert all(len(line) == len(table[0]) for line in table)
    assert all(b == bars[0] for b in bars)


# -- headline -----------------------------------------------------------


def test_environment_fingerprint_keys():
    env = environment_fingerprint()
    assert set(env) == {"cpu", "python", "timestamp"}
    assert env["python"] == platform.python_version()


def test_core_line_count_is_stable_and_sane():
    count = core_line_count()
    assert count == core_line_count()
    assert 100 < count < 2000


def test_headline_reports_ratio_without_judgement():
    report = _report(
        "tls",
        _case("channel-AUTH_ONLY", 64, 30_000.0), _case("channel-AUTH_ONLY", 1500, 10_000.0),
        _case(TLS_CASE, 64, 40_000.0), _case(TLS_CASE, 1500, 20_000.0),
    )
    text = headline_summary(report)
    # one line per size, in the report's order
    assert text.splitlines()[:2] == [
        "throughput at 64 B: channel-AUTH_ONLY 1.92 MB/s vs tls1.3 2.56 MB/s (ratio 0.750)",
        "throughput at 1500 B: channel-AUTH_ONLY 15.00 MB/s vs tls1.3 30.00 MB/s "
        "(ratio 0.500)",
    ]
    assert "source lines" in text
    lowered = text.lower()
    for verdict_word in ("pass", "fail", "threshold"):
        assert verdict_word not in lowered


def test_headline_reports_the_aead_ratio_beside_auth_only():
    # only AEAD has the confidentiality TLS gives: its ratio gets its own
    # line, after the AUTH_ONLY lines, which keep their format
    report = _report(
        "tls",
        _case("channel-AUTH_ONLY", 64, 30_000.0), _case("channel-AUTH_ONLY", 1500, 10_000.0),
        _case("channel-AEAD", 64, 20_000.0), _case("channel-AEAD", 1500, 12_000.0),
        _case("channel-plaintext-baseline", 64, 90_000.0),
        _case(TLS_CASE, 64, 40_000.0), _case(TLS_CASE, 1500, 20_000.0),
    )
    assert headline_summary(report).splitlines()[:4] == [
        "throughput at 64 B: channel-AUTH_ONLY 1.92 MB/s vs tls1.3 2.56 MB/s (ratio 0.750)",
        "throughput at 1500 B: channel-AUTH_ONLY 15.00 MB/s vs tls1.3 30.00 MB/s "
        "(ratio 0.500)",
        "throughput at 64 B: channel-AEAD 1.28 MB/s vs tls1.3 2.56 MB/s (ratio 0.500)",
        "throughput at 1500 B: channel-AEAD 18.00 MB/s vs tls1.3 30.00 MB/s (ratio 0.600)",
    ]
    assert headline_summary(report).splitlines()[4].startswith("protocol core: ")


def test_headline_survives_missing_external_row():
    report = _report(
        "tls", _case("channel-AUTH_ONLY", 1500, 10_000.0), _case(TLS_CASE, 512, 20_000.0)
    )
    text = headline_summary(report)
    assert "not available" in text
    assert "throughput at" not in text
    assert "source lines" in text


@pytest.mark.parametrize(
    "tls_rows",
    [(_case(TLS_CASE, 1500, 0.0),), ()],
    ids=["tls-row-made-no-ops", "no-tls-row"],
)
def test_headline_has_no_ratio_without_a_usable_tls_row(tls_rows):
    report = _report("tls", _case("channel-AUTH_ONLY", 1500, 10_000.0), *tls_rows)
    text = headline_summary(report)
    assert "not available" in text
    assert "throughput at" not in text and "ratio 0.000" not in text
    assert "source lines" in text
