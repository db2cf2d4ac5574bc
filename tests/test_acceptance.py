"""Acceptance gate: the eight binding checks, one verdict line each.

Each test prints exactly one ``ACCEPTANCE <name>: PASS/FAIL`` line on
the terminal (bypassing capture) and then asserts, so a failing
criterion is visible in both the live output and the pytest summary.
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import RFC4231_CASES, chain_values_ref

from kiss.association import Mode, ProvisionFile, Role, load_association
from kiss.bench import HEADLINE_CASES, TLS_CASE, core_line_count, headline_summary, run_suite
from kiss.channel import RESYNC_WINDOW, MsgType, encode_record, open_record, seal
from kiss.cli import DEMO_ROOT, DEMO_SEED
from kiss.errors import KissError, OutOfWindowError
from kiss.idvv import idvv_init
from kiss.randomness import ALL_TESTS, generate_stream, run_battery

CLI = [sys.executable, "-m", "kiss.cli"]


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"{name}: {detail}"


def _fixed_pair(mode=Mode.AUTH_ONLY):
    common = dict(
        assoc_id=bytes.fromhex("ac5e9701ac5e9701"),
        mode=mode,
        seed=bytes(range(32)),
        root=bytes(range(32, 64)),
    )
    init_pf = ProvisionFile(role=Role.INITIATOR, **common)
    resp_pf = ProvisionFile(role=Role.RESPONDER, **common)
    return load_association(init_pf), load_association(resp_pf)


def test_acceptance_1_chain_synchronization(capsys):
    initiator, responder = _fixed_pair()
    steps = 10_000
    started = time.perf_counter()
    mismatches = 0
    for a_chain, b_chain in (
        (initiator.send_chain, responder.recv_chain),
        (initiator.recv_chain, responder.send_chain),
    ):
        for _ in range(steps):
            va, sa = a_chain.head()
            a_chain.commit(va, sa)
            vb, sb = b_chain.head()
            b_chain.commit(vb, sb)
            if va != vb or a_chain.counter != b_chain.counter:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 1.0
    _verdict(
        capsys,
        "chain-synchronization",
        ok,
        f"{steps} steps x 2 directions, {mismatches} mismatches, {elapsed:.3f} s",
    )


def test_acceptance_2_oracle_equivalence(capsys):
    vectors = []
    for case in RFC4231_CASES:  # known-answer inputs from RFC 4231
        seed = (case["key"] + bytes(32))[:32]
        root = hashlib.sha256(case["data"]).digest()
        vectors.append((seed, root, b"c2s"))
    vectors.append((bytes(32), bytes(32), b"c2s"))
    vectors.append((bytes(range(32)), bytes(range(32, 64)), b"s2c"))
    vectors.append((b"\xff" * 32, b"\x01" * 32, b"acceptance"))
    assert len(vectors) >= 10

    steps = 25
    mismatches = 0
    for seed, root, label in vectors:
        ref = chain_values_ref(seed, root, label, steps)
        v0 = []  # the chain holds only the value after value_0
        state = idvv_init(seed, root, label, v0)
        if v0 != ref[:1]:
            mismatches += 1
        for i in range(1, steps + 1):
            value, seq = state.head()
            state.commit(value, seq)
            if value != ref[i] or state.counter != i:
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys,
        "oracle-equivalence",
        ok,
        f"{len(vectors)} vectors x {steps} steps, {mismatches} mismatches",
    )


def test_acceptance_3_channel_integrity(capsys):
    started = time.perf_counter()
    sizes = (0, 1, 1500, 65536)
    round_trips = 0
    for mode in (Mode.AUTH_ONLY, Mode.AEAD):
        for size in sizes:
            sender, receiver = _fixed_pair(mode)
            payload = bytes(i & 0xFF for i in range(size))
            for _ in range(1000):
                wire = encode_record(seal(sender, MsgType.DATA, payload))
                got_type, got = open_record(receiver, wire)
                assert got_type is MsgType.DATA and got == payload
                round_trips += 1

    flips = rejected = 0
    for mode in (Mode.AUTH_ONLY, Mode.AEAD):
        sender, receiver = _fixed_pair(mode)
        wire = encode_record(seal(sender, MsgType.DATA, bytes(range(64))))
        for bit in range(len(wire) * 8):
            mutated = bytearray(wire)
            mutated[bit // 8] ^= 1 << (bit % 8)
            flips += 1
            try:
                open_record(receiver, bytes(mutated))
            except KissError:
                rejected += 1
        # state must be unburnt: the genuine record still opens
        assert open_record(receiver, wire)[1] == bytes(range(64))

    elapsed = time.perf_counter() - started
    ok = rejected == flips and elapsed < 30.0
    _verdict(
        capsys,
        "channel-integrity",
        ok,
        f"{round_trips} round-trips over sizes {sizes} in both modes; "
        f"{rejected}/{flips} single-bit flips rejected; {elapsed:.2f} s",
    )


def test_acceptance_4_antireplay_resync(capsys):
    window = RESYNC_WINDOW
    sender, receiver = _fixed_pair()
    wires = {}
    # gaps 1, 2 and the window land on seq 1, 3 and 3 + window; one past it on 4 + 2 * window
    for seq in range(1, 4 + 2 * window + 1):
        wires[seq] = encode_record(seal(sender, MsgType.DATA, b"seq-%02d" % seq))

    outcomes = []
    for gap in (1, 2, window):
        seq = receiver.highest_accepted_seq + gap
        open_record(receiver, wires[seq])
        outcomes.append(f"gap {gap}: accept")
    seq = receiver.highest_accepted_seq + window + 1
    try:
        open_record(receiver, wires[seq])
        outcomes.append(f"gap {window + 1}: accept")
        ok = False
    except OutOfWindowError:
        outcomes.append(f"gap {window + 1}: out-of-window")
        ok = True
    _verdict(capsys, "antireplay-resync", ok, "; ".join(outcomes))


def test_acceptance_5_randomness_battery(capsys):
    started = time.perf_counter()
    report = run_battery(DEMO_SEED, DEMO_ROOT)  # 7 tests x 100 x 1e6 bits
    battery_ok = report.passed and all(
        count >= 96 for count in report.pass_counts.values()
    )

    n = report.n_bits
    pathological = {
        "constant": np.zeros(n, dtype=np.uint8),
        "periodic": np.tile(np.array([1, 0], dtype=np.uint8), n // 2),
        "biased-3to1": np.maximum(
            generate_stream(DEMO_SEED, DEMO_ROOT, b"patho-a", n).bits,
            generate_stream(DEMO_SEED, DEMO_ROOT, b"patho-b", n).bits,
        ),
    }
    patho_failures = {
        label: sum(not fn(bits).passed for fn in ALL_TESTS.values())
        for label, bits in pathological.items()
    }
    patho_ok = all(count >= 1 for count in patho_failures.values())

    elapsed = time.perf_counter() - started
    ok = battery_ok and patho_ok and elapsed < 300.0
    counts = ", ".join(f"{k} {v}/100" for k, v in report.pass_counts.items())
    patho = ", ".join(f"{k} fails {v}/7" for k, v in patho_failures.items())
    _verdict(
        capsys,
        "randomness-battery",
        ok,
        f"min required {report.min_pass}/100; {counts}; {patho}; {elapsed:.1f} s",
    )


def test_acceptance_6_primitive_ordering(capsys):
    report = run_suite(
        "primitives",
        sizes=(64,),
        duration=1.0,
        cases=(
            "hmac-sha256",
            "aead-aes256gcm",
            "sign-ecdsa-p256",
            "sign-rsa2048",
            "idvv-step",
        ),
    )
    rates = {case.case: case.ops_per_sec for case in report.cases}
    ordered = (
        rates["hmac-sha256"]
        > rates["aead-aes256gcm"]
        > rates["sign-ecdsa-p256"]
        > rates["sign-rsa2048"]
    )
    hmac_vs_rsa = rates["hmac-sha256"] / rates["sign-rsa2048"]
    step_vs_hmac = rates["hmac-sha256"] / rates["idvv-step"]
    ok = ordered and hmac_vs_rsa >= 50.0 and step_vs_hmac <= 3.0
    ratios = (
        f"hmac/gcm {rates['hmac-sha256'] / rates['aead-aes256gcm']:.2f}x, "
        f"gcm/ecdsa {rates['aead-aes256gcm'] / rates['sign-ecdsa-p256']:.2f}x, "
        f"ecdsa/rsa {rates['sign-ecdsa-p256'] / rates['sign-rsa2048']:.2f}x, "
        f"hmac/rsa {hmac_vs_rsa:.0f}x, hmac/idvv-step {step_vs_hmac:.2f}x"
    )
    _verdict(
        capsys,
        "primitive-ordering",
        ok,
        f"ordering {'holds' if ordered else 'violated'} at 64 B; {ratios}",
    )


def test_acceptance_7_headline_reporting(capsys):
    report = run_suite("tls", (1500,), duration=1.0, cases=(*HEADLINE_CASES, TLS_CASE))
    summary = headline_summary(report)
    lines = core_line_count()

    reported = (
        f"{lines}" in summary
        and "source lines" in summary
        and ("ratio" in summary or "not available" in summary)
        and len(report.cases) >= 3
    )
    unjudged = all(
        word not in summary.lower() for word in ("pass", "fail", "threshold")
    )
    ok = reported and unjudged
    _verdict(
        capsys,
        "headline-reporting",
        ok,
        f"ratio and {lines}-line core reported side by side, no thresholds: "
        + summary.replace("\n", " | ").strip(),
    )


def test_acceptance_8_end_to_end_smoke(capsys, tmp_path):
    env = dict(os.environ, KISS_LOG="error")
    started = time.perf_counter()
    provision = subprocess.run(
        CLI + ["provision", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert provision.returncode == 0, provision.stderr

    server = subprocess.Popen(
        CLI + ["server", "--provision", str(tmp_path / "responder.prov"),
               "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = server.stderr.readline().strip()
        port = int(banner.rpartition(":")[2])
        client = subprocess.run(
            CLI + ["client", "--provision", str(tmp_path / "initiator.prov"),
                   "--connect", f"127.0.0.1:{port}", "--count", "1000"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        server_out, server_err = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    elapsed = time.perf_counter() - started

    ok = client.returncode == 0 and server.returncode == 0 and elapsed < 10.0
    _verdict(
        capsys,
        "end-to-end-smoke",
        ok,
        f"1000 records over loopback TCP, client exit {client.returncode}, "
        f"server exit {server.returncode}, {elapsed:.2f} s",
    )
