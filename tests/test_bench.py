"""Benchmark harness: config, loopback rows, comparison, report plumbing."""

import contextlib
import itertools
import platform
import socket
import ssl
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

import kiss.bench as bench_mod
import kiss.channel as channel_mod
from kiss.association import Mode, ProvisionFile, Role, load_association
from kiss.bench import (
    CHANNEL_MODES,
    LOOPBACK_MODES,
    PRIMITIVES,
    SAMPLES,
    TLS_CASE,
    WARMUP,
    BenchCase,
    BenchConfig,
    BenchReport,
    bench_channel,
    bench_primitives,
    bench_tls_baseline,
    compare_report,
    core_line_count,
    environment_fingerprint,
    headline_summary,
    _TLS_HOST,
    _make_primitive_op,
    _measure_cases,
    _percentile,
    _read_exact,
    _tls_contexts,
)
from kiss.channel import MAX_PAYLOAD, MsgType, Record, encode_record, open_record
from kiss.errors import InvalidParameterError, TransportError


# -- configuration -----------------------------------------------------


def test_config_defaults_are_valid():
    BenchConfig().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sizes": ()},
        {"sizes": (0,)},
        {"sizes": (-5,)},
        {"sizes": (64, MAX_PAYLOAD + 1)},  # above the record cap
        {"iterations": 0, "duration": None},
        {"iterations": -10, "duration": None},
        {"iterations": 500, "duration": None},  # too short to measure
        {"duration": 0.5},  # likewise
        {"duration": -1.0},
        {"iterations": None, "duration": None},
    ],
)
def test_config_rejections(kwargs):
    with pytest.raises(InvalidParameterError):
        BenchConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"iterations": 1000, "duration": None},
        {"duration": 1.0},
        {"iterations": 500, "duration": 2.0},  # duration carries it
    ],
)
def test_config_acceptable_shapes(kwargs):
    BenchConfig(**kwargs).validate()


# -- timing core, deterministically scripted ----------------------------


def _scripted_measure(monkeypatch, script, size=64):
    assert len(script) == SAMPLES
    script = [0.010] * WARMUP + list(script)  # warmup batches are not summarised
    monkeypatch.setattr(bench_mod, "_run_batch", lambda op, n: script.pop(0))
    cfg = BenchConfig(sizes=(size,), iterations=1000, duration=None)
    return _measure_cases([("scripted", size, lambda: None)], cfg)[0]


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

    monkeypatch.setattr(bench_mod, "_run_batch", run_batch)
    cfg = BenchConfig(sizes=(64,), iterations=1000, duration=None)
    cases = _measure_cases(
        [("a", 64, lambda: "a"), ("b", 64, lambda: "b")], cfg
    )
    assert [c.case for c in cases] == ["a", "b"]
    # warmup rounds, then the timed rounds
    assert order == ["a", "b"] * (WARMUP + SAMPLES)


def test_percentile_interpolation():
    vals = [float(v) for v in range(1, 11)]
    assert _percentile(vals, 0.0) == 1.0
    assert _percentile(vals, 50.0) == 5.5
    assert _percentile(vals, 100.0) == 10.0
    assert _percentile(vals, 50.0) <= _percentile(vals, 99.0)
    assert _percentile([], 50.0) == 0.0


# -- primitive ops -----------------------------------------------------


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_op_runs(name):
    op = _make_primitive_op(name, 64)
    op()


def test_unknown_primitive_rejected():
    with pytest.raises(InvalidParameterError):
        _make_primitive_op("sign-dsa1024", 64)
    with pytest.raises(InvalidParameterError):
        bench_primitives(names=("sign-dsa1024",))


def test_seal_op_produces_framed_records():
    op = _make_primitive_op("idvv-seal-authonly", 64)
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
    op = _make_primitive_op("idvv-seal-open-authonly", 64)
    payload = bench_mod._counter_buffer(64)
    # each op seals the next seq and the responder opens it: gap 1 forever
    for _ in range(3):
        assert op() == (MsgType.DATA, payload)
    report = bench_primitives(
        BenchConfig(sizes=(64,), iterations=1000, duration=None),
        names=("idvv-seal-authonly", "idvv-seal-open-authonly"),
    )
    assert [c.case for c in report.cases] == ["idvv-seal-authonly", "idvv-seal-open-authonly"]
    assert all(c.ops_per_sec > 0 for c in report.cases)


def test_bench_primitives_report_shape():
    cfg = BenchConfig(sizes=(64,), iterations=1000, duration=None)
    report = bench_primitives(cfg, names=("hash-sha256", "hmac-sha256"))
    assert report.suite == "primitives"
    assert [c.case for c in report.cases] == ["hash-sha256", "hmac-sha256"]
    for case in report.cases:
        assert case.ops_per_sec > 0
        assert case.p50_us <= case.p99_us
    with pytest.raises(InvalidParameterError):
        bench_primitives(cfg, names=("hash-sha256", "mystery"))


def test_hash_latency_grows_with_size():
    cfg = BenchConfig(sizes=(64, 65536), iterations=2000, duration=None)
    report = bench_primitives(cfg, names=("hash-sha256",))
    small, big = report.cases
    assert small.size_bytes == 64 and big.size_bytes == 65536
    assert small.p50_us < big.p50_us
    assert big.mb_per_sec > small.mb_per_sec  # hashing amortizes per byte


# -- loopback rows ------------------------------------------------------


def test_bench_channel_validates_arguments():
    with pytest.raises(InvalidParameterError):
        bench_channel("carrier-pigeon")
    with pytest.raises(InvalidParameterError):
        bench_channel("AEAD", msg_size=0)
    with pytest.raises(InvalidParameterError, match="msg_size"):
        bench_channel("AEAD", msg_size=MAX_PAYLOAD + 1)
    with pytest.raises(InvalidParameterError):
        bench_channel("AEAD", duration=0.0)


def test_bench_channel_plaintext_baseline_runs(monkeypatch):
    # the baseline must frame with the endpoint's own reader, keeping its
    # read-ahead in a buffer as an endpoint does, so that its gap to the
    # channel modes is the cryptography alone
    reads, wires = [], []

    def counting_read_record(read, buf):
        wire = channel_mod.read_record(read, buf)
        reads.append(len(wire))
        wires.append(wire)
        return wire

    monkeypatch.setattr(bench_mod, "read_record", counting_read_record)
    report = bench_channel("plaintext-baseline", msg_size=256, duration=0.3)
    assert report.suite == "channel"
    (case,) = report.cases
    assert case.case == "channel-plaintext-baseline"
    assert case.size_bytes == 256
    assert case.ops_per_sec > 0
    assert case.p50_us <= case.p99_us
    # one call per record
    assert len(reads) >= 16 and set(reads) == {25 + 256 + 32}
    # the frames a sealed record would have, with a zeroed tag
    msg = bench_mod._counter_buffer(256)
    for seq, wire in enumerate(wires[:2], start=1):
        record = Record(MsgType.DATA, Mode.AUTH_ONLY, bytes(8), seq, msg, bytes(32))
        assert wire == encode_record(record)


# a receive that fails mid-run must be raised, not leave the run blocked;
# a hang would stall the suite, so each case runs in a child process
# under a hard timeout
_FAIL_51ST_CALL = """
import importlib, sys
from kiss.bench import bench_loopback
from kiss.errors import AuthenticationError

mode, target = sys.argv[1:]
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
    bench_loopback((mode,), (16384,), 1.0)
except AuthenticationError as exc:
    print("raised", exc)
"""


@pytest.mark.parametrize(
    "mode,target",
    [
        ("AUTH_ONLY", "kiss.channel._open_frame"),
        ("AEAD", "kiss.channel._open_frame"),
        ("plaintext-baseline", "kiss.bench.read_record"),
        (TLS_CASE, "kiss.bench._read_exact"),
    ],
)
def test_failed_receiver_is_raised_instead_of_hanging(mode, target):
    result = subprocess.run(
        [sys.executable, "-c", _FAIL_51ST_CALL, mode, target],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised injected"
    assert "Traceback" not in result.stderr


def test_read_exact_joins_pieces_and_raises_on_eof():
    pieces = [b"ab", b"c", b"def", b""]
    read = lambda n: pieces.pop(0)[:n]
    assert _read_exact(read, 3) == b"abc"
    with pytest.raises(TransportError):
        _read_exact(read, 4)  # "def", then EOF inside the message
    with pytest.raises(TransportError):
        _read_exact(lambda n: b"", 4)  # EOF between messages


def test_loopback_rows_start_no_thread(monkeypatch):
    def no_threads(self):
        raise AssertionError("a loopback row started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    for mode in CHANNEL_MODES:
        (case,) = bench_channel(mode, msg_size=256, duration=0.05).cases
        assert case.ops_per_sec > 0
    (case,) = bench_tls_baseline((256,), duration=0.05).cases
    assert case.ops_per_sec > 0


def test_loopback_row_is_summarised_like_a_primitive(monkeypatch):
    # calibration, warmup, then timed batches, one of them twice as slow
    calls = itertools.count()

    def run_batch(op, n):
        op()
        return 0.020 if next(calls) == 3 else 0.010

    monkeypatch.setattr(bench_mod, "_run_batch", run_batch)
    (case,) = bench_channel("AUTH_ONLY", msg_size=256, duration=0.05).cases
    assert case.flags == ("noisy",)
    assert case.p50_us < case.p99_us


def test_loopback_rows_share_one_round_robin_call(monkeypatch):
    real, calls = bench_mod._measure_cases, []

    def counting(cases, cfg):
        calls.append([name for name, _, _ in cases])
        return real(cases, cfg)

    monkeypatch.setattr(bench_mod, "_measure_cases", counting)
    cases = bench_mod.bench_loopback(LOOPBACK_MODES, (64, 256), 0.05)
    names = [f"channel-{m}" for m in CHANNEL_MODES] + [TLS_CASE]
    assert calls == [[name for name in names for _ in (64, 256)]]
    assert [(c.case, c.size_bytes) for c in cases] == [
        (name, size) for name in names for size in (64, 256)
    ]
    assert [bool(c.note) for c in cases] == [False] * 6 + [True] * 2
    with pytest.raises(InvalidParameterError):
        bench_mod.bench_loopback(("carrier-pigeon",), (64,), 0.05)


# one thread cannot drain a sendall that outgrows the socket buffer, so
# such a size must be refused before any message is sent; a hang would
# stall the suite, so each case runs in a child process under a timeout
_OVERSIZED = """
import sys
import kiss.bench as bench
from kiss.errors import InvalidParameterError

bench._SOCK_BUF = 16384  # granted as 32768 on Linux: 16384 for data
mode = sys.argv[1]
try:
    if mode == bench.TLS_CASE:
        bench.bench_tls_baseline((65536,), 1.0)
    else:
        bench.bench_channel(mode, 65536, 1.0)
except InvalidParameterError as exc:
    print("refused", exc)
"""


@pytest.mark.parametrize("mode", LOOPBACK_MODES)
def test_message_larger_than_socket_buffer_is_refused(mode):
    result = subprocess.run(
        [sys.executable, "-c", _OVERSIZED, mode],
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
    bench.bench_tls_baseline((256,), 0.1)
except ssl.SSLCertVerificationError as exc:
    print("refused", exc.verify_message)
"""


def test_tls_handshake_that_does_not_finish_raises(monkeypatch):
    monkeypatch.setattr(bench_mod, "_TLS_ROUNDS", 1)  # TLS 1.3 needs two
    with pytest.raises(TransportError, match="unfinished"):
        bench_tls_baseline((256,), duration=0.05)


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


def test_tls_baseline_negotiates_tls13_and_measures():
    report = bench_tls_baseline((256,), duration=0.3)
    assert report.suite == "tls"
    (case,) = report.cases
    assert (case.case, case.size_bytes) == (TLS_CASE, 256)
    assert case.note == "TLSv1.3 TLS_AES_256_GCM_SHA384"
    assert case.ops_per_sec > 0
    assert case.p50_us <= case.p99_us


@pytest.mark.parametrize("sizes", [(), (0,), (64, -5), (64, MAX_PAYLOAD + 1)])
def test_tls_baseline_rejects_bad_sizes(sizes):
    with pytest.raises(InvalidParameterError):
        bench_tls_baseline(sizes)


# -- comparison ---------------------------------------------------------


def _case(name, size, ops):
    return BenchCase(name, size, ops, ops * size / 1e6, 1.0, 2.0)


def _report(name, *cases):
    return BenchReport(name, tuple(cases), {"cpu": "test", "python": "x"})


def test_compare_identical_reports_ratio_one():
    a = _report("one", _case("alpha", 64, 1000.0), _case("alpha", 512, 500.0))
    b = _report("two", _case("beta", 64, 1000.0), _case("beta", 512, 500.0))
    cmp = compare_report(a, b, baseline="alpha")
    assert cmp.baseline == "alpha"
    assert [c.ratio for c in cmp.cases] == [1.0, 1.0, 1.0, 1.0]
    assert "vs alpha" in cmp.format_markdown()
    assert "vs " not in a.format_markdown()


def test_compare_ratio_arithmetic_and_default_baseline():
    a = _report("one", _case("alpha", 64, 2000.0))
    b = _report("two", _case("beta", 64, 500.0))
    cmp = compare_report(a, b, baseline="alpha")
    assert cmp.baseline == "alpha"
    by_name = {c.case: c for c in cmp.cases}
    assert by_name["beta"].ratio == pytest.approx(0.25)
    assert by_name["alpha"].ratio == pytest.approx(1.0)


def test_compare_requires_two_reports():
    a = _report("one", _case("alpha", 64, 1000.0))
    with pytest.raises(InvalidParameterError):
        compare_report(a, baseline="alpha")


def test_compare_rejects_axis_mismatch():
    a = _report("one", _case("alpha", 64, 1000.0), _case("alpha", 512, 900.0))
    b = _report("two", _case("beta", 64, 1000.0))
    with pytest.raises(InvalidParameterError, match="covers sizes"):
        compare_report(a, b, baseline="alpha")


def test_compare_rejects_unknown_baseline():
    a = _report("one", _case("alpha", 64, 1000.0))
    b = _report("two", _case("beta", 64, 1000.0))
    with pytest.raises(InvalidParameterError):
        compare_report(a, b, baseline="gamma")


def test_compare_zero_ops_baseline_has_no_ratio():
    a = _report("one", _case("alpha", 64, 0.0))
    b = _report("two", _case("beta", 64, 1000.0))
    cmp = compare_report(a, b, baseline="alpha")
    assert [c.ratio for c in cmp.cases] == [None, None]
    csv = cmp.to_csv()
    assert csv.splitlines()[0] == (
        "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us,ratio"
    )
    assert csv.splitlines()[2].endswith(",")  # empty ratio cell
    table = cmp.format_markdown().split("\n\n")[0].splitlines()
    assert table[3].split("|")[7].strip() == "-"  # beta's ratio cell


def test_report_csv_shape():
    report = _report("one", _case("alpha", 64, 1234.5), _case("alpha", 512, 678.9))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us"
    assert len(lines) == 3
    assert lines[1].startswith("alpha,64,1234.50,")


# fixed reports whose CSV text is pinned byte for byte: a noisy row and
# a row with a note
_PIN_KISS = BenchReport(
    "channel",
    (BenchCase("channel-AUTH_ONLY", 1500, 6543.21, 9.814815, 120.5, 410.25,
               flags=("noisy",)),),
    {"cpu": "test", "python": "x"},
)
_PIN_TLS = BenchReport(
    "tls",
    (
        BenchCase("tls-aes-256-gcm", 1500, 150000.0, 225.0, 0.0, 0.0,
                  note="latency not reported by external tool"),
    ),
    {"cpu": "test", "python": "x"},
)


def test_report_csv_text_is_pinned():
    merged = BenchReport("channel", _PIN_KISS.cases + _PIN_TLS.cases)
    assert merged.to_csv() == (
        "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us\n"
        "channel-AUTH_ONLY,1500,6543.21,9.815,120.500,410.250\n"
        "tls-aes-256-gcm,1500,150000.00,225.000,0.000,0.000\n"
    )


def test_compare_csv_text_is_pinned():
    cmp = compare_report(_PIN_KISS, _PIN_TLS, baseline="channel-AUTH_ONLY")
    assert cmp.to_csv() == (
        "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us,ratio\n"
        "channel-AUTH_ONLY,1500,6543.21,9.815,120.500,410.250,1.0000\n"
        "tls-aes-256-gcm,1500,150000.00,225.000,0.000,0.000,22.9245\n"
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


@pytest.mark.parametrize("compared", [False, True])
def test_markdown_rows_line_up_with_header(compared):
    report = BenchReport("channel", _PIN_KISS.cases + (
        BenchCase("channel-plaintext-baseline", 1500, 98765.4, 148.1, 8.5, 30.25),
    ))
    if compared:
        report = compare_report(report, _PIN_TLS, baseline="channel-AUTH_ONLY")
    # a size wider than its header: the column grows to fit it
    report = replace(report, cases=report.cases + (
        BenchCase("channel-AUTH_ONLY", 1048576, 210.5, 220.7, 4750.0, 5120.5),
    ))
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
    kiss = _report("channel", _case("channel-AUTH_ONLY", 1500, 10_000.0))
    tls = _report("tls", _case("tls-aes-256-gcm", 1500, 20_000.0))
    text = headline_summary(kiss, tls)
    assert "ratio 0.500" in text
    assert "source lines" in text
    lowered = text.lower()
    for verdict_word in ("pass", "fail", "threshold"):
        assert verdict_word not in lowered


def test_headline_survives_missing_external_row():
    kiss = _report("channel", _case("channel-AUTH_ONLY", 1500, 10_000.0))
    tls = _report("tls", _case("tls-aes-256-gcm", 512, 20_000.0))
    text = headline_summary(kiss, tls)
    assert "not available" in text
    assert "source lines" in text
