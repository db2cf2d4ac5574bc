"""What a fresh interpreter loads: an endpoint only the record layer,
and the randomness battery NumPy but never SciPy."""

import json
import subprocess
import sys

import pytest

# loaded only by `kiss randomness` (numpy) and `kiss bench` (ssl, x509)
HEAVY = ("numpy", "ssl", "cryptography.x509")


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
    ran = _fresh(
        "import os, socket, threading\n"
        "import kiss\n"
        "from kiss.association import Mode, generate_provision, load_association\n"
        "from kiss.channel import ChannelEndpoint\n"
        f"init_pf, resp_pf = generate_provision(mode=Mode.{mode})\n"
        "a, b = socket.socketpair()\n"
        "a.settimeout(5.0), b.settimeout(5.0)  # a dead responder fails the run\n"
        "client = ChannelEndpoint(load_association(init_pf), a)\n"
        "server = ChannelEndpoint(load_association(resp_pf), b)\n"
        "pkg, lines, errors = os.path.dirname(kiss.__file__), set(), []\n"
        "def local(frame, event, arg):\n"
        "    if event == 'line':\n"
        "        lines.add((os.path.relpath(frame.f_code.co_filename, pkg), frame.f_lineno))\n"
        "    return local\n"
        "def trace(frame, event, arg):\n"
        "    return local if frame.f_code.co_filename.startswith(pkg) else None\n"
        "def serve():\n"
        "    try:\n"
        "        server.handshake()\n"
        "        while (payload := server.receive()) is not None:\n"
        "            server.send(payload)\n"
        "    except BaseException as exc:\n"
        "        errors.append(repr(exc))\n"
        "threading.settrace(trace)\n"
        "sys.settrace(trace)\n"
        "responder = threading.Thread(target=serve)\n"
        "responder.start()\n"
        "client.handshake()\n"
        "for i in range(100):\n"
        "    client.send(b'%03d' % i * 20)\n"
        "    assert client.receive() == b'%03d' % i * 20\n"
        "client.close()\n"
        "responder.join(timeout=30)\n"
        "sys.settrace(None)\n"
        "threading.settrace(None)\n"
        "assert not responder.is_alive() and not errors, errors\n"
        "print(json.dumps(sorted({name for name, _ in lines})))"
    )
    assert {"idvv.py", "channel.py"} <= set(ran) <= SESSION_MODULES
