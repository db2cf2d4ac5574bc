"""What a fresh interpreter loads: an endpoint only the record layer,
AES-GCM only in AEAD mode, and the randomness battery NumPy but never
SciPy."""

import json
import subprocess
import sys

import pytest

# loaded only by `kiss randomness` (numpy), `kiss bench` (ssl, x509) and
# AEAD mode (cryptography)
HEAVY = ("numpy", "ssl", "cryptography.x509", "cryptography")

# defines session(mode, trace=None): a handshake, 100 records echoed and a
# close between two endpoints over a socketpair, the responder on a
# thread; trace, if given, is set on both threads once the endpoints exist
SESSION = """
import socket, threading
from kiss.association import Mode, generate_provision, load_association
from kiss.channel import ChannelEndpoint
def session(mode, trace=None):
    init_pf, resp_pf = generate_provision(mode=Mode[mode])
    a, b = socket.socketpair()
    a.settimeout(5.0), b.settimeout(5.0)  # a dead responder fails the run
    client = ChannelEndpoint(load_association(init_pf), a)
    server = ChannelEndpoint(load_association(resp_pf), b)
    errors = []
    def serve():
        try:
            server.handshake()
            while (payload := server.receive()) is not None:
                server.send(payload)
        except BaseException as exc:
            errors.append(repr(exc))
    if trace:
        threading.settrace(trace)
        sys.settrace(trace)
    responder = threading.Thread(target=serve)
    responder.start()
    client.handshake()
    for i in range(100):
        client.send(b'%03d' % i * 20)
        assert client.receive() == b'%03d' % i * 20
    client.close()
    responder.join(timeout=30)
    sys.settrace(None)
    threading.settrace(None)
    a.close(), b.close()
    assert not responder.is_alive() and not errors, errors
"""

# runs kiss.cli.main on each argv with stderr captured; defines codes and err
CLI_RUNS = """
import contextlib, io, kiss.cli
err = io.StringIO()
with contextlib.redirect_stderr(err):
    codes = [kiss.cli.main(argv) for argv in ARGVS]
err = err.getvalue()
"""


def _fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_endpoint_imports_leave_out_battery_and_bench_stacks():
    loaded = _fresh(
        "import kiss.cli, kiss.channel, kiss.association, kiss.idvv\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_randomness_battery_never_loads_scipy():
    seen = _fresh(
        "from kiss import randomness as r\n"
        "seen = ['scipy' in sys.modules]\n"
        "def factory(trial, n_bits):\n"
        "    seen.append('scipy' in sys.modules)\n"
        "    return r.generate_stream(bytes(32), bytes(32), b'rs%04d' % trial, n_bits)\n"
        "r.run_battery(bytes(32), bytes(32), n_bits=65_537, trials=20,\n"
        "              stream_factory=factory)\n"
        "seen.append('scipy' in sys.modules)\n"
        "print(json.dumps(seen))"
    )
    # at import, before each of the 20 trials, and after the last
    assert seen == [False] * 22


# the modules a session may run: the chain, the association, the record
# layer and the errors they raise
SESSION_MODULES = {"idvv.py", "association.py", "channel.py", "errors.py"}


@pytest.mark.parametrize("mode", ["AUTH_ONLY", "AEAD"])
def test_session_executes_only_the_protocol_core(mode):
    ran, view_lines = _fresh(
        "import inspect, os\n"
        "import kiss\n"
        "from kiss import channel\n"
        + SESSION +
        "pkg, lines = os.path.dirname(kiss.__file__), set()\n"
        "def local(frame, event, arg):\n"
        "    if event == 'line':\n"
        "        lines.add((os.path.relpath(frame.f_code.co_filename, pkg), frame.f_lineno))\n"
        "    return local\n"
        "def trace(frame, event, arg):\n"
        "    return local if frame.f_code.co_filename.startswith(pkg) else None\n"
        f"session({mode!r}, trace)\n"
        "view = set()\n"
        "for f in (channel.seal, channel.encode_record):\n"
        "    source, first = inspect.getsourcelines(f)\n"
        "    view |= {('channel.py', n) for n in range(first, first + len(source))}\n"
        "print(json.dumps([sorted({name for name, _ in lines}), sorted(lines & view)]))"
    )
    assert {"idvv.py", "channel.py"} <= set(ran) <= SESSION_MODULES
    # the inspection view (seal, encode_record) serves benchmark/ and tests only
    assert view_lines == []


def test_auth_only_session_loads_neither_cryptography_nor_numpy():
    loaded = _fresh(
        "import kiss.cli, kiss.channel, kiss.association, kiss.idvv\n"
        + SESSION +
        "session('AUTH_ONLY')\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_without_numpy_sessions_run_and_the_battery_names_its_extra():
    codes, err = _fresh(
        "sys.modules['numpy'] = None  # as if NumPy were not installed\n"
        + SESSION +
        "session('AUTH_ONLY')\n"
        "session('AEAD')\n"
        "ARGVS = [['randomness', '--bits', '70000', '--trials', '20']]\n"
        + CLI_RUNS +
        "print(json.dumps([codes, err]))"
    )
    # one error line, and no traceback: _fresh requires exit status 0
    assert codes == [1]
    assert len(err.splitlines()) == 1
    assert err.startswith("error: KissError: ") and "pip install 'kiss-toolkit[battery]'" in err


def test_without_cryptography_auth_only_runs_and_aead_is_refused(tmp_path):
    init, resp = tmp_path / "initiator.prov", tmp_path / "responder.prov"
    refusals, counters, codes, err = _fresh(
        "sys.modules['cryptography'] = None  # as if cryptography were not installed\n"
        + SESSION +
        "session('AUTH_ONLY')\n"
        "from kiss import channel\n"
        "from kiss.association import write_provision_file\n"
        "from kiss.errors import KissError\n"
        "refusals = []\n"
        "assoc = load_association(generate_provision(mode=Mode.AEAD)[0])\n"
        "counters = [assoc.send_chain.counter]\n"
        "for load in (channel.load_aead, lambda: channel.seal_wire(assoc, channel.MsgType.DATA, b'x')):\n"
        "    try:\n"
        "        load()\n"
        "    except KissError as exc:\n"
        "        refusals.append(str(exc))\n"
        "counters.append(assoc.send_chain.counter)\n"
        "def no_socket(*args, **kwargs):\n"
        "    raise AssertionError('a socket was opened')\n"
        "socket.create_server = socket.create_connection = no_socket\n"
        f"for pf, path in zip(generate_provision(mode=Mode.AEAD), ({str(init)!r}, {str(resp)!r})):\n"
        "    write_provision_file(pf, path)\n"
        f"ARGVS = [['server', '--provision', {str(resp)!r}],\n"
        f"         ['client', '--provision', {str(init)!r}, '--connect', '127.0.0.1:9'],\n"
        "         ['bench', '--suite', 'tls']]\n"
        + CLI_RUNS +
        "print(json.dumps([refusals, counters, codes, err]))"
    )
    message = "AEAD needs cryptography: pip install 'kiss-toolkit[aead]'"
    assert refusals == [message, message]
    assert counters[0] == counters[1]  # the refused record left the chain where it was
    # both endpoints refuse before any socket: no_socket would have raised;
    # kiss bench, which needs cryptography throughout, names its extra
    assert codes == [1, 1, 1]
    bench = "kiss bench needs cryptography: pip install 'kiss-toolkit[aead]'"
    assert err.splitlines() == [f"error: KissError: {message}"] * 2 + [f"error: KissError: {bench}"]
