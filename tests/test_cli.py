"""End-to-end command-line behavior, driven through subprocesses."""

import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from oracles import chain_values_ref

from kiss import bench, cli, randomness
from kiss.association import Mode, ProvisionFile, Role, read_provision_file
from kiss.defaults import DEFAULT_ALPHA, DEFAULT_STREAM_BITS, DEFAULT_TRIALS
from kiss.randomness import MIN_BITS

CLI = [sys.executable, "-m", "kiss.cli"]


def run_cli(*args, env_extra=None, timeout=120):
    env = os.environ.copy()
    env.setdefault("KISS_LOG", "error")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def _start_server(provision_path, *args, env=None):
    """Spawn the echo server; return (process, bound_port) once its banner
    names the port. A server with no banner within 30 s, or a wrong one,
    is killed and reaped before the test fails."""
    proc = subprocess.Popen(
        CLI + ["server", "--provision", str(provision_path), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        with selectors.DefaultSelector() as banner:
            banner.register(proc.stderr, selectors.EVENT_READ)
            if not banner.select(timeout=30):
                pytest.fail("no server banner within 30 s")
        line = proc.stderr.readline().strip()
        assert line.startswith("listening "), f"unexpected server banner: {line!r}"
        return proc, int(line.rpartition(":")[2])
    except BaseException:
        proc.kill()
        proc.communicate()
        raise


# -- provision ----------------------------------------------------------


def test_provision_writes_pair(tmp_path):
    result = run_cli("provision", "--out-dir", str(tmp_path))
    assert result.returncode == 0
    assoc_hex = result.stdout.strip()
    init_pf = read_provision_file(tmp_path / "initiator.prov")
    resp_pf = read_provision_file(tmp_path / "responder.prov")
    assert init_pf.assoc_id.hex() == assoc_hex
    assert (init_pf.role, resp_pf.role) == (Role.INITIATOR, Role.RESPONDER)
    assert init_pf.mode is Mode.AUTH_ONLY
    assert init_pf.seed == resp_pf.seed
    # renamed from temporaries that are gone, with the secrets' 0o600 mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["initiator.prov", "responder.prov"]
    for p in tmp_path.iterdir():
        assert p.stat().st_mode & 0o777 == 0o600, oct(p.stat().st_mode)


def test_provision_honors_mode(tmp_path):
    result = run_cli("provision", "--out-dir", str(tmp_path), "--mode", "aead")
    assert result.returncode == 0
    pf = read_provision_file(tmp_path / "initiator.prov")
    assert pf.mode is Mode.AEAD


def test_provision_writes_both_files_or_neither(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    before = (tmp_path / "initiator.prov").read_bytes()
    victim = tmp_path / "victim"
    victim.write_text("untouched\n")
    (tmp_path / "responder.prov").unlink()
    (tmp_path / "responder.prov").symlink_to(victim)
    result = run_cli("provision", "--out-dir", str(tmp_path))
    assert result.returncode == 1
    assert "error" in result.stderr.lower()
    assert (tmp_path / "initiator.prov").read_bytes() == before
    assert victim.read_text() == "untouched\n"
    assert (tmp_path / "responder.prov").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["initiator.prov", "responder.prov", "victim"]


def test_provision_unwritable_path_exits_one():
    result = run_cli("provision", "--out-dir", "/dev/null/nope")
    assert result.returncode == 1
    assert "error" in result.stderr.lower()


# -- usage errors --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["not-a-command"],
        ["bench"],  # --suite is required
        ["client", "--provision", "x", "--connect", "y:1",
         "--send", "a", "--count", "2"],  # mutually exclusive
        ["provision", "--window", "64"],  # the window is the record layer's
        ["bench", "--suite", "tls", "--tls-command", "x"],  # no such flag
        ["bench", "--suite", "channel"],  # its rows are the first rows of tls
    ],
)
def test_usage_errors_exit_two(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""


# -- vectors -------------------------------------------------------------


def _parse_kv_output(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_vectors_default_match_reference_chain():
    result = run_cli("vectors")
    assert result.returncode == 0
    got = _parse_kv_output(result.stdout)
    ref = chain_values_ref(bytes(32), bytes(32), b"c2s", 3)
    assert got["seed"] == "00" * 32
    assert got["root"] == "00" * 32
    assert got["label"] == "c2s"
    for i in range(4):
        assert got[f"v{i}"] == ref[i].hex()


def test_vectors_custom_inputs():
    seed = "11" * 32
    root = "22" * 32
    result = run_cli(
        "vectors", "--seed", seed, "--root", root, "--label", "s2c", "--count", "2"
    )
    assert result.returncode == 0
    got = _parse_kv_output(result.stdout)
    ref = chain_values_ref(bytes.fromhex(seed), bytes.fromhex(root), b"s2c", 1)
    assert got["v0"] == ref[0].hex()
    assert got["v1"] == ref[1].hex()
    assert "v2" not in got


def test_vectors_count_one_prints_v0_and_no_step():
    result = run_cli("vectors", "--count", "1")
    assert result.returncode == 0
    v0 = chain_values_ref(bytes(32), bytes(32), b"c2s", 0)[0]
    assert result.stdout == (
        f"seed = {'00' * 32}\nroot = {'00' * 32}\nlabel = c2s\nv0 = {v0.hex()}\n"
    )


# the published vectors, byte for byte as the CI workflow pins them for the
# installed script: the defaults, --count 1 (v0 and no step), and other
# secrets, label and count
_V0 = "v0 = 5ac933b82c4f159d360dee04f9b8f6eefe9eccb856df1e08e81a9563aba5aa0a\n"
_ZERO_HEAD = f"seed = {'00' * 32}\nroot = {'00' * 32}\nlabel = c2s\n"
PINNED_VECTORS = {
    (): _ZERO_HEAD + _V0 + (
        "v1 = 659fa1ad94352ec5125c44affc7fd62ea40b66172c61224176c6386dc79750aa\n"
        "v2 = f13ac22379f9cacf5bd36494920fb8b7b23d276ab4224b8a95d4850d268709e1\n"
        "v3 = 3e21c7be127af74f9de692e7d84a697f7dcaba5a3bf62a2f5b930e094edc7c7f\n"
    ),
    ("--count", "1"): _ZERO_HEAD + _V0,
    ("--seed", "11" * 32, "--root", "22" * 32, "--label", "s2c", "--count", "3"): (
        f"seed = {'11' * 32}\nroot = {'22' * 32}\nlabel = s2c\n"
        "v0 = 26f1181debd759e1e48f9e8cd992605255f0240695851f74b6b5c017dd33707f\n"
        "v1 = fdfddf927ba8dcf5f77bb774e791b75dd9b25b0ca97337ef3c58529b5fcfb4a1\n"
        "v2 = e0b1aa0e541804b23f6e6caed32706de686bbb4bf1ec583e08931cc4ae687276\n"
    ),
}


@pytest.mark.parametrize("argv", PINNED_VECTORS, ids=["defaults", "count-1", "s2c"])
def test_vectors_output_is_pinned(argv):
    result = run_cli("vectors", *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == PINNED_VECTORS[argv]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_vectors_count_below_one_exits_one(count):
    result = run_cli("vectors", "--count", count)
    assert result.returncode == 1
    assert "--count" in result.stderr
    assert result.stdout == ""


def test_vectors_rejects_bad_hex():
    result = run_cli("vectors", "--seed", "xyz")
    assert result.returncode == 1
    assert "error" in result.stderr


def test_vectors_refuses_hex_not_in_lowercase():
    # --seed and --root are read as a .prov file's hex fields are
    result = run_cli("vectors", "--seed", "AB" * 32)
    assert result.returncode == 1
    assert "lowercase" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


# -- server/client loop ----------------------------------------------------


def test_echo_round_trip_send(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    proc, port = _start_server(tmp_path / "responder.prov")
    try:
        client = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{port}",
            "--send", "hello channel",
        )
        assert client.returncode == 0, client.stderr
        assert client.stdout.strip() == "hello channel"
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_echo_round_trip_counted(tmp_path):
    assert run_cli(
        "provision", "--out-dir", str(tmp_path), "--mode", "aead"
    ).returncode == 0
    proc, port = _start_server(tmp_path / "responder.prov")
    try:
        client = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{port}",
            "--count", "25",
            env_extra={"KISS_LOG": "info"},
        )
        assert client.returncode == 0, client.stderr
        assert "25 records exchanged" in client.stderr
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_mismatched_secrets_fail_closed(tmp_path):
    # same association id, different seeds: both ends must error out
    common = dict(
        assoc_id=bytes.fromhex("0011223344556677"),
        mode=Mode.AUTH_ONLY,
        root=bytes(range(64, 96)),
    )
    resp = ProvisionFile(role=Role.RESPONDER, seed=bytes(range(32)), **common)
    init = ProvisionFile(role=Role.INITIATOR, seed=bytes(range(1, 33)), **common)
    (tmp_path / "responder.prov").write_text(resp.to_text())
    (tmp_path / "initiator.prov").write_text(init.to_text())

    proc, port = _start_server(tmp_path / "responder.prov")
    try:
        client = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{port}",
            "--send", "should never arrive",
        )
        assert client.returncode == 1
        assert "AuthenticationError" in client.stderr
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 1
        assert "AuthenticationError" in err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_server_refuses_occupied_port(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    blocker = socket.socket()
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        result = run_cli(
            "server",
            "--provision", str(tmp_path / "responder.prov"),
            "--listen", f"127.0.0.1:{port}",
        )
        assert result.returncode == 1
        assert "error" in result.stderr
    finally:
        blocker.close()


def test_server_refuses_provision_file_that_is_not_utf8(tmp_path):
    prov = tmp_path / "responder.prov"
    prov.write_bytes(b"\xff\xfe" + "assoc_id = 00\n".encode("utf-16-le"))
    result = run_cli("server", "--provision", str(prov))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ProvisionError")
    assert "Traceback" not in result.stderr


def test_server_refuses_a_six_line_provision_file(tmp_path):
    # the layout written before the window became the record layer's:
    # refused with one error line, so the pair is provisioned again
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    prov = tmp_path / "responder.prov"
    prov.write_bytes(prov.read_bytes() + b"resync_window = 1024\n")
    result = run_cli("server", "--provision", str(prov))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ProvisionError")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_server_refuses_a_directory_as_provision_file(tmp_path):
    result = run_cli("server", "--provision", str(tmp_path))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_server_times_out_silent_client(tmp_path, monkeypatch, capsys):
    # a client that connects and never sends must not hang the server
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    monkeypatch.setattr(cli, "IO_TIMEOUT_S", 0.5)
    exit_codes = []
    server = threading.Thread(
        target=lambda: exit_codes.append(cli.main(
            ["server", "--provision", str(tmp_path / "responder.prov")]
        )),
        daemon=True,
    )
    server.start()
    err = ""
    deadline = time.monotonic() + 30
    while "listening " not in err:
        assert time.monotonic() < deadline, "server never reported its port"
        time.sleep(0.01)
        err += capsys.readouterr().err
    port = int(err.split("listening ", 1)[1].split()[0].rpartition(":")[2])
    with socket.create_connection(("127.0.0.1", port), timeout=5):
        server.join(timeout=30)
        assert not server.is_alive(), "server still waiting on a silent client"
    assert exit_codes == [1]
    assert "timed out" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_client_count_below_one_exits_one_before_connecting(tmp_path, count):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0)
    try:
        result = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{listener.getsockname()[1]}",
            "--count", count,
        )
        assert result.returncode == 1
        assert "--count" in result.stderr
        with pytest.raises(BlockingIOError):
            listener.accept()  # the client never connected
    finally:
        listener.close()


def test_client_makes_no_payload_before_connecting(tmp_path, capsys):
    # a million payloads built up front would peak near 54 MB here
    assert cli.main(["provision", "--out-dir", str(tmp_path)]) == 0
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]  # closed on leaving, so the connect is refused
    tracemalloc.start()
    try:
        code = cli.main([
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{port}",
            "--count", "1000000",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "error: " in capsys.readouterr().err
    assert peak < 5 * 2**20, peak


# no port; ports that getaddrinfo would wrap mod 2**16 or that bind refuses
_BAD_ADDRESSES = ("127.0.0.1", "127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:-1")


def test_client_bad_address_exits_one(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    for address in _BAD_ADDRESSES:
        result = run_cli(
            "client", "--provision", str(tmp_path / "initiator.prov"), "--connect", address
        )
        assert result.returncode == 1, address
        assert result.stderr.startswith("error: ") and "port" in result.stderr, result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("listen", ["[::1]:0", "::1:0"])
def test_server_and_client_take_ipv6_addresses(tmp_path, listen):
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        pytest.skip("::1 cannot be bound on this host")
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    proc, port = _start_server(tmp_path / "responder.prov", "--listen", listen)
    try:
        client = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"[::1]:{port}",
            "--send", "hello over ipv6",
        )
        assert client.returncode == 0, client.stderr
        assert client.stdout.strip() == "hello over ipv6"
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_server_refuses_port_out_of_range(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    for address in _BAD_ADDRESSES[1:]:
        result = run_cli(
            "server", "--provision", str(tmp_path / "responder.prov"), "--listen", address
        )
        assert result.returncode == 1, address
        assert result.stderr.startswith("error: KissError: port must be in 0..65535")
        assert "Traceback" not in result.stderr


# -- randomness -----------------------------------------------------------


def test_randomness_small_battery(tmp_path):
    csv_path = tmp_path / "battery.csv"
    result = run_cli(
        "randomness", "--bits", "70000", "--trials", "20", "--csv", str(csv_path)
    )
    assert result.returncode == 0
    assert "verdict: PASS" in result.stdout
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "test,trial,p_value,pass"
    assert len(lines) == 1 + 7 * 20


def test_randomness_help_names_defaults():
    result = run_cli("randomness", "--help")
    assert result.returncode == 0
    for value in (DEFAULT_STREAM_BITS, DEFAULT_TRIALS, DEFAULT_ALPHA):
        assert f"(default: {value})" in result.stdout
    assert f"{MIN_BITS['serial']:,}" in result.stdout


def test_randomness_refuses_bits_below_the_serial_floor():
    result = run_cli("randomness", "--bits", "1000", "--trials", "20")
    assert result.returncode == 1
    assert f"serial test needs at least {MIN_BITS['serial']:,} bits" in result.stderr
    assert result.stdout == ""


def test_randomness_rejects_bad_parameters():
    assert run_cli("randomness", "--bits", "70000", "--trials", "19").returncode == 1
    assert run_cli(
        "randomness", "--bits", "70000", "--trials", "20", "--alpha", "0"
    ).returncode == 1
    assert run_cli("randomness", "--seed", "abc").returncode == 1


def test_randomness_refuses_an_alpha_whose_pass_floor_is_0():
    result = run_cli("randomness", "--bits", "70000", "--trials", "20", "--alpha", "0.999999")
    assert result.returncode == 1
    assert "alpha 0.999999 over 20 trials sets a pass floor of 0" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_randomness_interrupt_exits_one_and_leaves_no_process():
    # Ctrl-C reaches the whole foreground group: the caller and its worker
    env = dict(os.environ, KISS_LOG="error")
    proc = subprocess.Popen(
        CLI + ["randomness", "--trials", "100000"], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(0.5)  # into the battery, which 100,000 trials keep busy for minutes
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == "interrupted\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # nothing of the group is left, worker included
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# -- bench ----------------------------------------------------------------


def test_bench_cli_primitives_suite(tmp_path):
    csv_path = tmp_path / "prim.csv"
    result = run_cli(
        "bench", "--suite", "primitives",
        "--sizes", "64", "--duration", "0.2",
        "--csv", str(csv_path),
    )
    assert result.returncode == 0, result.stderr
    names = ["hash-sha256", "hmac-sha256", "aead-aes256gcm",
             "sign-rsa2048", "sign-ecdsa-p256", "idvv-step",
             "idvv-seal-authonly", "idvv-seal-open-authonly", "idvv-seal-open-aead"]
    for name in names:
        assert name in result.stdout
    lines = csv_path.read_text().strip().split("\n")
    # no tls1.3 row, so no ratio column; the rows in table order
    assert lines[0] == "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us"
    assert [line.split(",")[0] for line in lines[1:]] == names
    assert "throughput" not in result.stdout  # no headline


@pytest.mark.parametrize("suite", ["tls"])
def test_bench_zero_duration_exits_one(suite):
    result = run_cli("bench", "--suite", suite, "--sizes", "256", "--duration", "0")
    assert result.returncode == 1
    assert "duration" in result.stderr


def test_bench_msg_size_above_record_cap_exits_one():
    result = run_cli(
        "bench", "--suite", "tls", "--sizes", "1048577", "--duration", "0.3"
    )
    assert result.returncode == 1
    assert "msg_size" in result.stderr
    assert "Traceback" not in result.stderr


def test_bench_primitive_sizes_above_record_cap_exit_one_before_measuring():
    result = run_cli(
        "bench", "--suite", "primitives", "--sizes", "64,2000000", "--duration", "0.1",
    )
    assert result.returncode == 1
    # refused by the size check, not by seal() after the other primitives ran
    assert "record cap" in result.stderr and "2000000" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("sizes", ["", ",", "64,x", "64,64"])
def test_bench_bad_sizes_exit_one_before_measuring(sizes):
    # a given but empty list is refused, not read as "use the defaults"
    result = run_cli(
        "bench", "--suite", "primitives", "--sizes", sizes, "--duration", "0.1",
    )
    assert result.returncode == 1
    assert "sizes" in result.stderr
    assert "|" not in result.stdout


@pytest.mark.parametrize(
    "flag,value,suite",
    [
        (f"--{name}", value, suite)
        for name, value in (("iterations", "5000"), ("msg-size", "99999"))
        for suite in ("primitives", "tls")
    ],
)
def test_bench_suite_refuses_flag_it_does_not_use(flag, value, suite):
    # options bench no longer has: every suite sizes its rows with
    # --sizes and stops each on --duration
    result = run_cli("bench", "--suite", suite, flag, value, "--duration", "0.2")
    assert result.returncode == 2
    assert flag in result.stderr
    assert result.stdout == ""  # refused before measuring anything


@pytest.mark.parametrize("where", ["no-parent", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["randomness", "--bits", "70000", "--trials", "20"],
        ["bench", "--suite", "primitives", "--sizes", "64", "--duration", "0.05"],
    ],
    ids=["randomness", "bench"],
)
def test_csv_path_refused_before_any_trial_or_row(tmp_path, monkeypatch, capsys, argv, where):
    def never(*args, **kwargs):
        raise AssertionError("ran before the --csv path was checked")

    monkeypatch.setattr(randomness, "run_battery", never)
    monkeypatch.setattr(bench, "run_suite", never)
    csv_path = tmp_path / "missing" / "out.csv" if where == "no-parent" else tmp_path
    assert cli.main([*argv, "--csv", str(csv_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: KissError: --csv {csv_path}")


def test_bench_tls_cli(tmp_path):
    csv_path = tmp_path / "tls.csv"
    result = run_cli(
        "bench", "--suite", "tls",
        "--sizes", "64,256", "--duration", "0.3",
        "--csv", str(csv_path),
    )
    assert result.returncode == 0, result.stderr
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "case,size_bytes,ops_per_sec,mb_per_sec,p50_us,p99_us,ratio"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [case, size]
        for case in ("channel-AUTH_ONLY", "channel-AEAD", "channel-plaintext-baseline", "tls1.3")
        for size in ("64", "256")
    ]
    # every ratio is against the tls1.3 row at the same size
    assert lines[-2].endswith(",1.0000") and lines[-1].endswith(",1.0000")
    assert all(float(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])
    assert "vs tls1.3" in result.stdout
    ratios = {
        int(line.split(",")[1]): float(line.rsplit(",", 1)[1])
        for line in lines[1:]
        if line.startswith("channel-AUTH_ONLY,")
    }
    for size in (64, 256):
        headline = result.stdout.split(f"throughput at {size} B:")[1].splitlines()[0]
        assert "channel-AUTH_ONLY" in headline and "tls1.3" in headline
        # the headline's ratio is the row's ratio column: one figure, printed
        # to 3 decimals there and to 4 in the CSV
        shown = float(headline.split("(ratio ")[1].rstrip(")"))
        assert shown == pytest.approx(ratios[size], abs=6e-4)
    assert "source lines" in result.stdout


# -- logging contract -------------------------------------------------------


def test_invalid_log_level_warns_but_works(tmp_path):
    result = run_cli(
        "provision", "--out-dir", str(tmp_path), env_extra={"KISS_LOG": "chatty"}
    )
    assert result.returncode == 0
    assert "KISS_LOG" in result.stderr


def test_info_logging_reports_handshake(tmp_path):
    assert run_cli("provision", "--out-dir", str(tmp_path)).returncode == 0
    proc, port = _start_server(tmp_path / "responder.prov")
    try:
        client = run_cli(
            "client",
            "--provision", str(tmp_path / "initiator.prov"),
            "--connect", f"127.0.0.1:{port}",
            "--send", "log check",
            env_extra={"KISS_LOG": "info"},
        )
        assert client.returncode == 0
        assert "handshake complete" in client.stderr
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
