"""What a fresh interpreter loads: an endpoint only the record layer,
and the randomness battery SciPy only once a test runs."""

import json
import subprocess
import sys

# loaded only by `kiss randomness` (numpy, scipy) and `kiss bench` (ssl, x509)
HEAVY = ("numpy", "scipy", "ssl", "cryptography.x509")


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


def test_randomness_loads_scipy_only_when_a_test_runs():
    seen = _fresh(
        "from kiss import randomness as r\n"
        "seen = {'import': 'scipy' in sys.modules}\n"
        "def factory(trial, n_bits):\n"
        "    seen.setdefault('first trial', 'scipy' in sys.modules)\n"
        "    return r.generate_stream(bytes(32), bytes(32), b'rs%04d' % trial, n_bits)\n"
        "r.run_battery(bytes(32), bytes(32), n_bits=1000, trials=20,\n"
        "              test_names=['monobit'], stream_factory=factory)\n"
        "print(json.dumps(seen))"
    )
    # monobit takes no SciPy function, so the battery alone resolved it
    assert seen == {"import": False, "first trial": True}
    seen = _fresh(
        "from kiss import randomness as r\n"
        "before = 'scipy' in sys.modules\n"
        "r.block_frequency_test([0, 1] * 500)\n"
        "print(json.dumps([before, 'scipy' in sys.modules]))"
    )
    assert seen == [False, True]
