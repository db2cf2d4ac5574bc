"""The benchmark's own checks must catch a wrong output, and every workload
must run clean on today's program.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kiss.channel  # noqa: E402
from kiss.errors import AuthenticationError  # noqa: E402

import run  # noqa: E402
import refloop  # noqa: E402
import wirecheck  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def slicer():
    return refloop.Slicer(refloop.hmac_reference(calls=10))


def _flip_last_bit(wire: bytes) -> bytes:
    return wire[:-1] + bytes([wire[-1] ^ 1])


def test_hmac_matches_rfc4231_case_2():
    mac = wirecheck.hmac_sha256(b"Jefe", b"what do ya want for nothing?")
    assert mac.hex() == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"


@pytest.mark.parametrize("cls", [workloads.Echo, workloads.Stream])
def test_wire_checker_rejects_a_flipped_tag_bit(cls, tmp_path, slicer, monkeypatch):
    monkeypatch.setattr(cls, "round_trips", 4, raising=False)
    monkeypatch.setattr(cls, "bursts", 1, raising=False)
    w = cls(random.Random(1), tmp_path)
    try:
        w.prepare()
        w.setup()
        w.run_slice(slicer)
        w.run_slice(slicer)
        w.check()
        assert not w.problems
        known = w.failed

        seq, payload, wire = w.captured["c2s"][-1]
        w.captured["c2s"][-1] = (seq, payload, _flip_last_bit(wire))
        w.check()
    finally:
        w.close()
    assert w.failed == known + 1
    assert "differs from the published construction" in w.problems[0]


def _stream(tmp_path, monkeypatch, sessions: int):
    monkeypatch.setattr(workloads.Stream, "bursts", 1)
    w = workloads.Stream(random.Random(2), tmp_path)
    try:
        for _ in range(sessions):
            w.close()
            w.prepare()
            w.setup()
            w.run_slice(refloop.Slicer(refloop.hmac_reference(calls=10)))
    finally:
        w.close()
    return w


def test_stream_check_rejects_a_repeated_seq(tmp_path, monkeypatch):
    w = _stream(tmp_path, monkeypatch, sessions=2)
    w.check()
    assert not w.problems
    known = w.failed

    first, second = w.sessions
    second.sent_seqs[3] = second.sent_seqs[2]  # two records under one seq
    w.check()
    assert w.failed == known + 1
    assert "reused a (key, nonce) pair" in w.problems[-1]


def test_stream_check_rejects_reloaded_secrets(tmp_path, monkeypatch):
    w = _stream(tmp_path, monkeypatch, sessions=2)
    first, second = w.sessions
    w.sessions[1] = second._replace(material=first.material)  # a reconnect from the same .prov
    w.check()
    assert any("reused a (key, nonce) pair" in p for p in w.problems)


def test_restart_probe_fails_only_on_a_shared_keystream(tmp_path, monkeypatch):
    w = _stream(tmp_path, monkeypatch, sessions=1)
    # today's program reuses the keystream after a reload: a known fault,
    # counted as failed without making the run incorrect
    assert w.failed == 1 and not w.problems and "restart probe" in w.notes[0]

    a, b = (kiss.association.load_association(
        kiss.association.generate_provision(rng=random.Random(i).randbytes, mode=kiss.association.Mode.AEAD)[0])
        for i in (1, 2))
    p, q = bytes(64), bytes(range(64))
    seal = lambda assoc, payload: kiss.channel.encode_record(
        kiss.channel.seal(assoc, kiss.channel.MsgType.DATA, payload))
    assert not wirecheck.keystream_reused(seal(a, p), seal(b, q), p, q)


def test_battery_oracle_check_rejects_a_perturbed_p_value(tmp_path, slicer, monkeypatch):
    bits = 100_000  # large enough for the serial test's 16-bit patterns
    monkeypatch.setattr(workloads, "BATTERY_BITS", bits)
    w = workloads.Battery(random.Random(1), tmp_path)
    seed, root, label = bytes(range(32)), bytes(range(32, 64)), b"rs0000"
    stream = kiss.randomness.generate_stream(seed, root, label, bits)
    results = {name: test(stream) for name, test in kiss.randomness.ALL_TESTS.items()}
    w.oracle_trial = (seed, root, label, stream, results)
    w.check()
    assert w.failed == 0 and not w.problems

    serial = results["serial"]
    results["serial"] = type(serial)(serial.name, serial.p_value + 1e-3, serial.passed, serial.params)
    w.check()
    assert w.failed == 1
    assert "serial p-value differs" in w.problems[0]


def test_lossy_check_rejects_a_reject_that_changed_state(tmp_path, slicer, monkeypatch):
    monkeypatch.setattr(workloads.Lossy, "records", 64)
    w = workloads.Lossy(random.Random(3), tmp_path)
    w.prepare()
    w.setup()
    w.run_slice(slicer)
    assert w.failed == 0 and not w.problems

    real_open = kiss.channel.open_record

    def leaky_open(assoc, wire):
        try:
            return real_open(assoc, wire)
        except AuthenticationError:
            assoc.highest_accepted_seq += 1  # a reject that moved the window
            raise

    monkeypatch.setattr(kiss.channel, "open_record", leaky_open)
    w.run_slice(slicer)
    assert w.failed > 0
    assert any("changed state" in p for p in w.problems)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0
    if workload == workloads.Stream.name:
        # one failed restart probe in each slice of bursts, one capture and the probe
        per_slice = workloads.Stream.bursts * workloads.STREAM_BURST + 2
        assert result["failed"] * per_slice == result["attempted"]
    else:
        assert result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(run.declared_units(kind))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
