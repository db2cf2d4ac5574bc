"""Statistical battery: formula fidelity against independent oracles."""

import functools
import hashlib
import inspect
import math
import multiprocessing
import os
import random
import re
import signal
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    PI_100_BITS,
    PI_100_MONOBIT_P,
    approximate_entropy_p_ref,
    block_frequency_p_ref,
    chain_values_ref,
    cusum_p_ref,
    igamc_ref,
    longest_run_p_ref,
    monobit_p_ref,
    runs_p_ref,
    serial_p_ref,
    stream_bits_ref,
    uniformity_p_ref,
)

import kiss.randomness as randomness_mod
from kiss.cli import DEMO_ROOT, DEMO_SEED
from kiss.defaults import DEFAULT_ALPHA
from kiss.errors import InvalidParameterError
from kiss.randomness import (
    ALL_TESTS,
    MIN_BITS,
    BitStream,
    RandomnessReport,
    _fold,
    _igamc,
    _longest_runs,
    _pattern_counts,
    _test_trial,
    _walk_range,
    approximate_entropy_test,
    block_frequency_test,
    cusum_test,
    generate_stream,
    longest_run_test,
    min_pass_count,
    monobit_test,
    run_battery,
    runs_test,
    serial_test,
)

SEED = bytes(range(32))
ROOT = bytes(range(32, 64))

TOL = 1e-6


def _chain_bits(label: bytes, n: int = 2048) -> np.ndarray:
    return np.array(stream_bits_ref(SEED, ROOT, label, n), dtype=np.uint8)


def _fidelity_vectors(n: int) -> list[np.ndarray]:
    """Eleven mixed vectors: six keystreams plus five structured ones."""
    chains = [_chain_bits(b"fv%d" % i, n) for i in range(6)]
    zeros = np.zeros(n, dtype=np.uint8)
    ones = np.ones(n, dtype=np.uint8)
    alternating = np.resize(np.array([1, 0], dtype=np.uint8), n)
    biased = np.maximum(_chain_bits(b"bias-a", n), _chain_bits(b"bias-b", n))
    periodic = np.resize(np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8), n)
    return chains + [zeros, ones, alternating, biased, periodic]


# Just above approximate entropy's floor of 2,049 bits, ending inside a byte
VECTORS = _fidelity_vectors(2051)


@functools.cache
def _serial_vectors() -> list[np.ndarray]:
    """The same eleven kinds above serial's floor of 65,537 bits, built on first use."""
    return _fidelity_vectors(65_539)


PI_BITS = np.array([int(c) for c in PI_100_BITS], dtype=np.uint8)

# Longer vectors, built on first use. Besides 131,072 bits, no length is a
# whole number of bytes or of longest-run blocks (8, 128 and 10,000 bits).
LONG_VECTORS = {
    "keystream-131075": lambda: _chain_bits(b"long", 131_075),
    # the pattern count reads 16,384 bytes at a time: exactly one read, and
    # an even length that ends inside a byte
    "keystream-131072": lambda: _chain_bits(b"chunk", 131_072),
    "keystream-131074": lambda: _chain_bits(b"even", 131_074),
    "periodic-131075": lambda: np.resize(
        np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8), 131_075
    ),
    "biased-131075": lambda: np.maximum(
        _chain_bits(b"lb-a", 131_075), _chain_bits(b"lb-b", 131_075)
    ),
    "keystream-1003": lambda: _chain_bits(b"lr8", 1003),
    "keystream-6401": lambda: _chain_bits(b"lr128", 6401),
    "keystream-750017": lambda: _chain_bits(b"lr10k", 750_017),
}


@functools.cache
def _long_vector(name: str) -> np.ndarray:
    return LONG_VECTORS[name]()


def _vector(idx) -> np.ndarray:
    return VECTORS[idx] if isinstance(idx, int) else _long_vector(idx)


# -- formula fidelity --------------------------------------------------


@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_monobit_matches_oracle(idx):
    bits = VECTORS[idx]
    assert abs(monobit_test(bits).p_value - monobit_p_ref(bits.tolist())) <= TOL


@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_block_frequency_matches_oracle(idx):
    bits = VECTORS[idx]
    got = block_frequency_test(bits).p_value
    assert abs(got - block_frequency_p_ref(bits.tolist(), 128)) <= TOL


@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_runs_matches_oracle(idx):
    bits = VECTORS[idx]
    assert abs(runs_test(bits).p_value - runs_p_ref(bits.tolist())) <= TOL


@pytest.mark.parametrize(
    "idx",
    # one long keystream per tier: 8-, 128- and 10,000-bit blocks
    [*range(len(VECTORS)), "keystream-1003", "keystream-6401", "keystream-750017"],
)
def test_longest_run_matches_oracle(idx):
    bits = _vector(idx)
    assert abs(longest_run_test(bits).p_value - longest_run_p_ref(bits.tolist())) <= TOL


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_cusum_matches_oracle(idx, forward):
    # the oracle's backward walk is the battery's forward walk of the reversed stream
    bits = VECTORS[idx]
    got = cusum_test(bits if forward else bits[::-1]).p_value
    assert abs(got - cusum_p_ref(bits.tolist(), forward)) <= TOL


@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_approximate_entropy_matches_oracle(idx):
    bits = VECTORS[idx]
    got = approximate_entropy_test(bits).p_value
    assert abs(got - approximate_entropy_p_ref(bits.tolist(), 10)) <= TOL


@pytest.mark.parametrize("idx", range(len(VECTORS)))
def test_serial_matches_oracle(idx):
    bits = _serial_vectors()[idx]
    result = serial_test(bits)
    p1_ref, p2_ref = serial_p_ref(bits.tolist(), 16)
    assert abs(result.p_value - p1_ref) <= TOL
    assert abs(result.params["p2"] - p2_ref) <= TOL


def test_approximate_entropy_default_width_matches_oracle():
    bits = _long_vector("keystream-131075")
    result = approximate_entropy_test(bits)
    assert abs(result.p_value - approximate_entropy_p_ref(bits.tolist(), 10)) <= TOL


def test_serial_default_width_matches_oracle():
    bits = _long_vector("keystream-131075")
    result = serial_test(bits)
    p1_ref, p2_ref = serial_p_ref(bits.tolist(), 16)
    assert abs(result.p_value - p1_ref) <= TOL
    assert abs(result.params["p2"] - p2_ref) <= TOL


# 2a for every chi-square p-value the battery takes: longest run's 3, 5
# and 6 degrees of freedom, the powers of two of approximate entropy and
# serial, block frequency's n // 128 blocks at 1e5 .. 1e6 bits
_TWICE_A = (*range(1, 41), *(1 << k for k in range(6, 17)), 781, 1562, 3125, 7812)


def test_igamc_matches_mpmath_over_the_battery_range():
    """x runs over the mean a of Q's gamma variate plus -40 .. 40 of its
    standard deviations sqrt(a), and 0."""
    worst = {"Q >= 1e-10": 0.0, "1e-300 <= Q < 1e-10": 0.0}
    for twice_a in _TWICE_A:
        a = twice_a / 2
        assert _igamc(a, 0.0) == 1.0
        for sd in np.linspace(-40.0, 40.0, 33):
            x = a + sd * math.sqrt(a)
            if x <= 0 or (ref := igamc_ref(a, x)) < 1e-300:
                continue
            band = "Q >= 1e-10" if ref >= 1e-10 else "1e-300 <= Q < 1e-10"
            worst[band] = max(worst[band], abs(_igamc(a, x) - ref) / ref)
    assert worst["Q >= 1e-10"] <= 2e-14, worst
    assert worst["1e-300 <= Q < 1e-10"] <= 2e-13, worst


def _direct_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Wrapped overlapping m-bit pattern counts, one m-bit index per position."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]])
    index = np.zeros(n, dtype=np.int64)
    for j in range(m):
        index = 2 * index + ext[j : j + n]
    return np.bincount(index, minlength=1 << m)


@pytest.mark.parametrize(
    "name",
    ["keystream-131075", "periodic-131075", "biased-131075", "keystream-131072", "keystream-131074"],
)
def test_folded_pattern_counts_match_direct_counts(name):
    bits = _long_vector(name)
    folded = _pattern_counts(BitStream(bits))
    for m in range(16, 0, -1):
        assert np.array_equal(folded, _direct_counts(bits, m)), m
        folded = _fold(folded)


# serial's floor, then one length ending at each bit of a byte
@pytest.mark.parametrize("n", range(65_537, 65_545))
def test_pattern_counts_match_direct_counts_at_each_last_byte_length(n):
    for bits in (_chain_bits(b"pc%d" % n, n), np.resize(np.array([1, 1, 0], dtype=np.uint8), n)):
        assert np.array_equal(_pattern_counts(BitStream(bits)), _direct_counts(bits, 16))


def _count_calls(monkeypatch):
    """One entry per count ``_pattern_counts`` makes."""
    calls, count = [], randomness_mod._pattern_counts

    def counting(stream):
        calls.append(len(stream))
        return count(stream)

    monkeypatch.setattr(randomness_mod, "_pattern_counts", counting)
    return calls


def test_stream_count_folds_from_its_widest_count(monkeypatch):
    # the first read, at approximate entropy's width, makes the one count at serial's
    calls = _count_calls(monkeypatch)
    bits = _long_vector("keystream-131075")
    stream = BitStream(bits)
    for m in (11, 16, 10, 3):
        assert np.array_equal(stream.pattern_counts(m), _direct_counts(bits, m)), m
    assert calls == [bits.size]
    with pytest.raises(InvalidParameterError):
        stream.pattern_counts(17)  # wider than the one count a stream makes


# -- packed kernels against the unpacked formulations they replace -------


def _kernel_streams(n: int) -> dict[str, np.ndarray]:
    return {
        "keystream": _chain_bits(b"kern", n),
        "constant": np.ones(n, dtype=np.uint8),
        "alternating": np.resize(np.array([1, 0], dtype=np.uint8), n),
        "biased": np.maximum(_chain_bits(b"kb-a", n), _chain_bits(b"kb-b", n)),
        # drift early, so the forward and reversed walks' excursions differ
        "drifting": np.concatenate(
            [np.ones(n // 4, dtype=np.uint8), _chain_bits(b"kern-d", n - n // 4)]
        ),
    }


def _unpacked_excursion(bits: np.ndarray, forward: bool) -> int:
    steps = bits.astype(np.int64) * 2 - 1
    walk = np.cumsum(steps if forward else steps[::-1])
    return int(max(walk.max(), -walk.min()))


def _byte_walk_excursion(bits: np.ndarray, forward: bool) -> int:
    """cusum's z; below the test's minimum length, and for the reversed walk,
    from its kernel's range: the reversed walk measures hi and lo from the total."""
    if forward and bits.size >= MIN_BITS["cusum"]:
        return cusum_test(bits).params["z"]
    hi, lo, total = _walk_range(BitStream(bits))
    return max(hi, -lo, abs(total)) if forward else max(total - lo, hi - total)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("tail", range(8))
@pytest.mark.parametrize("kind", ["keystream", "constant", "alternating", "biased", "drifting"])
def test_cusum_byte_walk_matches_unpacked_walk(kind, tail, forward):
    # streams shorter than a byte have no whole byte, only a tail
    for n in sorted({tail, 8 + tail, 1000 + tail} - {0}):
        bits = _kernel_streams(n)[kind]
        z = _byte_walk_excursion(bits, forward)
        assert z == _unpacked_excursion(bits, forward), n


def _unpacked_longest_runs(bits: np.ndarray, block_size: int) -> list[int]:
    n_blocks = bits.size // block_size
    rows = bits[: n_blocks * block_size].reshape(n_blocks, block_size)
    return [max(map(len, "".join(map(str, row)).split("0"))) for row in rows]


def _planted_runs(n: int, block_size: int) -> np.ndarray:
    """A keystream with runs of ones placed across byte and block edges."""
    bits = _chain_bits(b"plant%d" % block_size, n).copy()
    m = block_size

    def run(start: int, stop: int) -> None:
        bits[max(start - 1, 0)] = 0
        bits[start:stop] = 1
        if stop < n:
            bits[stop] = 0

    def edge(i: int) -> int:  # block edges at least 64 bits apart, so runs stay apart
        return i * m * max(1, 64 // m)

    bits[0:m] = 1  # a whole block of ones: every byte 0xFF
    run(edge(2) - 3, edge(2) + 21)  # across a block edge
    run(edge(3) + 16, edge(3) + 40)  # three aligned 0xFF bytes, nothing else
    run(edge(4) + 5, edge(4) + 30)  # 0xFF bytes with ones on either side
    run(edge(6) - 8, edge(6) + 8)  # 0xFF bytes that meet at a block edge
    return bits


@pytest.mark.parametrize(
    "n, block_size", [(1003, 8), (6401, 128), (750_017, 10_000)]
)
def test_longest_run_byte_tables_match_unpacked_runs(n, block_size):
    vectors = dict(_kernel_streams(n), planted=_planted_runs(n, block_size))
    vectors["zeros"] = np.zeros(n, dtype=np.uint8)
    for kind, bits in vectors.items():
        stream = BitStream(bits)
        got = _longest_runs(stream.packed, block_size // 8, n // block_size)
        assert got.tolist() == _unpacked_longest_runs(bits, block_size), kind
        assert longest_run_test(stream).params["block_size"] == block_size


@pytest.mark.parametrize("tail", range(8))
def test_runs_packed_transitions_match_unpacked(tail):
    for last in (0, 1):
        bits = _chain_bits(b"runs", 1000 + tail).copy()
        bits[-1] = last
        result = runs_test(bits)
        assert result.params["v_n"] == int(np.count_nonzero(bits[1:] != bits[:-1])) + 1


def test_battery_trials_match_standalone_tests():
    n, trials = 70_000, 20
    report = run_battery(SEED, ROOT, n_bits=n, trials=trials)
    assert list(report.results) == list(ALL_TESTS)
    for trial in range(trials):
        plain = generate_stream(SEED, ROOT, b"rs%04d" % trial, n).bits.copy()
        for name, test in ALL_TESTS.items():
            assert report.results[name][trial] == test(plain), (name, trial)


def test_monobit_published_worked_example():
    # first 100 binary-expansion bits of pi; p-value published to 6 places
    assert len(PI_BITS) == 100
    assert abs(monobit_test(PI_BITS).p_value - PI_100_MONOBIT_P) < 1e-6


# -- direct expectations -----------------------------------------------


def test_monobit_alternating_is_exactly_one():
    bits = np.tile(np.array([1, 0], dtype=np.uint8), 50)
    result = monobit_test(bits)
    assert result.p_value == 1.0
    assert result.passed


def test_monobit_constant_fails():
    result = monobit_test(np.zeros(1000, dtype=np.uint8))
    assert result.p_value == pytest.approx(math.erfc(math.sqrt(500)), abs=1e-12)
    assert not result.passed


def test_monobit_rejects_short_stream():
    with pytest.raises(InvalidParameterError):
        monobit_test(np.zeros(99, dtype=np.uint8))


@pytest.mark.parametrize("test", [runs_test, cusum_test])
@pytest.mark.parametrize("n", [0, 1, 99])
def test_runs_and_cusum_reject_short_streams(test, n):
    # SP 800-22 asks for n >= 100; below it neither statistic is defined
    # (an empty stream divided by zero, one bit gave p = 0 or 0.632)
    with pytest.raises(InvalidParameterError):
        test(_chain_bits(b"short", n))
    assert 0.0 <= test(_chain_bits(b"short", 100)).p_value <= 1.0


def test_block_frequency_balanced_blocks_pass_exactly():
    bits = np.tile(np.array([1, 0], dtype=np.uint8), 640)
    result = block_frequency_test(bits)
    assert result.p_value == 1.0
    assert result.params["chi_sq"] == 0.0


def test_block_frequency_rejects_bad_geometry():
    # fewer bits than one 128-bit block
    with pytest.raises(InvalidParameterError):
        block_frequency_test(np.zeros(127, dtype=np.uint8))


def test_runs_prerequisite_failure_is_a_result_not_an_error():
    result = runs_test(np.zeros(1000, dtype=np.uint8))
    assert result.p_value == 0.0
    assert not result.passed
    assert result.params["prerequisite_failed"] is True


def test_runs_alternating_fails_on_run_count():
    result = runs_test(np.tile(np.array([1, 0], dtype=np.uint8), 500))
    assert "prerequisite_failed" not in result.params
    assert result.p_value < 1e-10
    assert not result.passed


def test_longest_run_rejects_short_stream():
    with pytest.raises(InvalidParameterError):
        longest_run_test(np.zeros(127, dtype=np.uint8))


def test_longest_run_tier_selection():
    assert longest_run_test(_chain_bits(b"t1", 128)).params["block_size"] == 8
    assert longest_run_test(_chain_bits(b"t2", 6272)).params["block_size"] == 128
    assert longest_run_test(_chain_bits(b"t3", 750_000)).params["block_size"] == 10_000


def test_cusum_constant_fails_hard():
    result = cusum_test(np.ones(1000, dtype=np.uint8))
    assert result.p_value < 1e-10
    assert result.params["z"] == 1000
    assert not result.passed


def test_approximate_entropy_periodic_fails():
    bits = np.resize(np.array([1, 0], dtype=np.uint8), MIN_BITS["approximate-entropy"])
    result = approximate_entropy_test(bits)
    assert result.p_value < 1e-10
    assert not result.passed


def test_serial_alternating_fails():
    result = serial_test(np.resize(np.array([1, 0], dtype=np.uint8), MIN_BITS["serial"]))
    assert result.p_value < 1e-10
    assert not result.passed


@pytest.mark.parametrize("name", sorted(ALL_TESTS))
def test_p_values_well_formed_on_keystream(name):
    # long enough for serial's 16-bit patterns
    result = ALL_TESTS[name](generate_stream(SEED, ROOT, b"wf", 70_000))
    assert 0.0 <= result.p_value <= 1.0
    assert result.name == name
    assert result.params


# -- stream plumbing ---------------------------------------------------


def test_bitstream_msb_first():
    assert BitStream.from_bytes(b"\x80", 3).bits.tolist() == [1, 0, 0]
    assert BitStream.from_bytes(b"\x01").bits.tolist() == [0] * 7 + [1]


def test_bitstream_is_read_only():
    source = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    stream = BitStream(source)
    with pytest.raises(ValueError):
        stream.bits[0] = 0
    with pytest.raises(ValueError):
        stream.packed[0] = 0
    source[0] = 0  # the stream holds its own copy; the caller's stays writable
    assert stream.bits[0] == 1
    generated = generate_stream(SEED, ROOT, b"ro", 1000)
    with pytest.raises(ValueError):
        generated.bits[0] ^= 1
    with pytest.raises(ValueError):
        generated.pattern_counts(16)[0] = 0  # the one count the stream keeps
    folded = generated.pattern_counts(4)  # a fresh array: writing it changes no later read
    want = folded.copy()
    folded[0] += 1
    assert np.array_equal(generated.pattern_counts(4), want)


def test_bitstream_packs_msb_first_with_a_zero_tail():
    stream = BitStream.from_bytes(b"\xff\xff", 11)
    assert stream.packed.tolist() == [0xFF, 0xE0]
    assert BitStream([1] * 11).packed.tolist() == [0xFF, 0xE0]


def test_bitstream_validation():
    with pytest.raises(InvalidParameterError):
        BitStream([0, 1, 2])
    # values a cast to uint8 would turn into 0s and 1s, or overflow on
    for bits in (
        np.array([256, 257, 0, 1] * 30),
        np.array([0.5, 1.7, 0, 1] * 30),
        np.array([-255, 1] * 60),
        [-1, 0] * 60,
    ):
        with pytest.raises(InvalidParameterError):
            BitStream(bits)
    with pytest.raises(InvalidParameterError):
        BitStream(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        BitStream.from_bytes(b"\x00", 9)
    with pytest.raises(InvalidParameterError):
        BitStream.from_bytes(b"abc", -5)
    assert len(BitStream.from_bytes(b"\xff" * 4)) == 32


def test_generate_stream_matches_oracle():
    got = generate_stream(SEED, ROOT, b"probe", 500)
    assert got.bits.tolist() == stream_bits_ref(SEED, ROOT, b"probe", 500)


def test_generate_stream_one_value_per_256_bits():
    # 256 bits must consume exactly one chain step: the first value after init
    got = generate_stream(SEED, ROOT, b"probe", 256)
    v1 = chain_values_ref(SEED, ROOT, b"probe", 1)[1]
    assert got.bits.tolist() == np.unpackbits(np.frombuffer(v1, np.uint8)).tolist()


def test_generate_stream_deterministic():
    a = generate_stream(SEED, ROOT, b"again", 1000)
    b = generate_stream(SEED, ROOT, b"again", 1000)
    assert np.array_equal(a.bits, b.bits)


def test_trial_working_set_at_default_scale():
    # tracemalloc sees NumPy's data buffers. A generated stream holds its
    # packed bytes and no unpacked copy (1.1 MB when it held one); runs,
    # longest-run and cusum peaked at 1.38, 1.76 and 2.13 MB of temporaries
    # when they indexed byte tables with intp arrays, and at 0.38, 0.76
    # and 0.75 MB reading the packed bytes through translate and popcounts.
    # Serial's peak is its one 16-bit pattern count: 2.55 MB with a bincount
    # per bit offset, 0.93 MB counting pairs into one int32 accumulator
    n = 1_000_000
    tracemalloc.start()
    try:
        stream = generate_stream(SEED, ROOT, b"ws", n)
        held = tracemalloc.get_traced_memory()[0]
        peaks = {}
        for name in ("runs", "longest-run", "cusum", "serial"):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ALL_TESTS[name](stream)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held <= stream.packed.nbytes + 2048
    assert peaks["runs"] <= 450_000, peaks
    assert peaks["longest-run"] <= 900_000, peaks
    assert peaks["cusum"] <= 900_000, peaks
    assert peaks["serial"] < 2 << 20, peaks


def test_generate_stream_rejects_short():
    with pytest.raises(InvalidParameterError):
        generate_stream(SEED, ROOT, b"x", 99)


# -- battery -----------------------------------------------------------


def test_min_pass_count_reference_points():
    assert min_pass_count(100, 0.01) == 96
    assert min_pass_count(20, 0.01) == 18
    assert min_pass_count(1000, 0.01) == 980


def test_battery_parameter_validation():
    with pytest.raises(InvalidParameterError):
        run_battery(SEED, ROOT, n_bits=2000, trials=19)
    with pytest.raises(InvalidParameterError):
        run_battery(SEED, ROOT, n_bits=2000, trials=20, alpha=0.0)


def test_each_test_takes_bits_and_alpha_and_passes_at_p_from_alpha_up():
    for test in ALL_TESTS.values():
        params = inspect.signature(test).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("bits", inspect.Parameter.empty),
            ("alpha", DEFAULT_ALPHA),
        ], test.__name__
        assert getattr(randomness_mod, test.__name__) is test
    stream = generate_stream(SEED, ROOT, b"rule", MIN_BITS["serial"])
    for test in ALL_TESTS.values():
        p = test(stream).p_value
        assert test(stream, alpha=p).passed and not test(stream, math.nextafter(p, 1)).passed


def test_min_bits_is_each_tests_own_floor():
    assert list(ALL_TESTS) == [
        "monobit", "block-frequency", "runs", "longest-run", "cusum", "approximate-entropy", "serial",
    ]
    assert list(MIN_BITS.items()) == list(zip(ALL_TESTS, [100, 128, 100, 128, 100, 2049, 65537]))
    bits = generate_stream(SEED, ROOT, b"floor", max(MIN_BITS.values())).bits
    for name, test in ALL_TESTS.items():
        assert test(bits[: MIN_BITS[name]]).name == name
        floor = re.escape(f"{name} test needs at least {MIN_BITS[name]:,} bits")
        with pytest.raises(InvalidParameterError, match=floor):
            test(bits[: MIN_BITS[name] - 1])


def test_battery_refuses_bits_below_a_floor_before_drawing_a_stream():
    drawn = []

    def factory(trial, n_bits):
        drawn.append(trial)
        return generate_stream(SEED, ROOT, b"rs%04d" % trial, n_bits)

    # the highest floor of all the tests is the one named
    with pytest.raises(InvalidParameterError, match="serial test needs at least 65,537 bits"):
        run_battery(SEED, ROOT, n_bits=65_536, trials=20, stream_factory=factory)
    assert drawn == []
    run_battery(SEED, ROOT, n_bits=65_537, trials=20, stream_factory=factory)
    assert drawn == list(range(20))


# -- the worker that tests each stream while the caller draws the next --


def test_battery_draws_streams_in_order_in_the_caller():
    drawn, streams = [], []

    def factory(trial, n_bits):
        drawn.append((trial, os.getpid()))
        streams.append(generate_stream(SEED, ROOT, b"rs%04d" % trial, n_bits))
        return streams[-1]

    report = run_battery(SEED, ROOT, n_bits=65_537, trials=20, stream_factory=factory)
    assert drawn == [(trial, os.getpid()) for trial in range(20)]
    assert multiprocessing.active_children() == []
    # the worker's results are what the tests give here on the same streams
    for trial, stream in enumerate(streams):
        for name, test in ALL_TESTS.items():
            assert report.results[name][trial] == test(stream), (name, trial)


def test_battery_tests_run_in_one_worker_that_leaves_interrupts_to_the_caller(monkeypatch, tmp_path):
    # a helper of the table's own tests, called once per trial, notes where it ran
    log, count = tmp_path / "where", randomness_mod._pattern_counts

    def where(stream):
        blocked = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ())
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {blocked}\n")
        return count(stream)

    monkeypatch.setattr(randomness_mod, "_pattern_counts", where)
    run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    lines = log.read_text().splitlines()
    assert len(lines) == 20
    (pid, blocked), = {tuple(line.split()) for line in lines}
    assert int(pid) != os.getpid()
    assert blocked == "True"  # a Ctrl-C reaches the caller alone
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert multiprocessing.active_children() == []


def test_battery_runs_a_test_the_caller_put_in_the_table_in_the_caller(monkeypatch):
    # what a spy or a timing wrapper in ALL_TESTS records must reach the caller
    calls, monobit = [], randomness_mod.monobit_test

    def spy(stream, alpha):
        calls.append(os.getpid())
        return monobit(stream, alpha)

    expected = run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    monkeypatch.setitem(ALL_TESTS, "monobit", spy)
    assert run_battery(SEED, ROOT, n_bits=65_537, trials=20) == expected
    assert calls == [os.getpid()] * 20
    assert multiprocessing.active_children() == []


def test_battery_refuses_a_short_stream_in_the_caller_before_the_next_draw():
    drawn = []

    def factory(trial, n_bits):
        drawn.append(trial)
        return generate_stream(SEED, ROOT, b"rs%04d" % trial, n_bits - (trial == 2))

    with pytest.raises(InvalidParameterError, match="serial test needs at least 65,537 bits") as info:
        run_battery(SEED, ROOT, n_bits=65_537, trials=20, stream_factory=factory)
    assert info.traceback[-1].name == "_stream"  # raised here, not carried back from the worker
    assert drawn == [0, 1, 2]
    assert multiprocessing.active_children() == []


def test_battery_passes_on_a_factory_error_and_draws_no_further():
    drawn = []

    class SourceFailed(Exception):
        pass

    def factory(trial, n_bits):
        drawn.append(trial)
        if trial == 3:
            raise SourceFailed(trial)
        return generate_stream(SEED, ROOT, b"rs%04d" % trial, n_bits)

    with pytest.raises(SourceFailed):
        run_battery(SEED, ROOT, n_bits=65_537, trials=20, stream_factory=factory)
    assert drawn == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


def test_battery_raises_what_a_test_raised_in_the_worker(monkeypatch):
    def failing(stream):
        raise InvalidParameterError("no count of this stream")

    monkeypatch.setattr(randomness_mod, "_pattern_counts", failing)
    with pytest.raises(InvalidParameterError, match="no count of this stream") as info:
        run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    # the worker's traceback comes along as the cause
    cause = info.value.__cause__
    assert type(cause).__name__ == "_WorkerTraceback"
    assert "in failing" in str(cause)
    assert multiprocessing.active_children() == []


def test_battery_fails_when_the_worker_dies(monkeypatch):
    # a worker killed mid-trial (say, by the OOM killer) ends the call with
    # an OSError, from the send of the next stream or the read of the results
    counted, count = [], randomness_mod._pattern_counts

    def dying(stream):
        os._exit(3)

    monkeypatch.setattr(randomness_mod, "_pattern_counts", dying)
    with pytest.raises(OSError):
        run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    assert multiprocessing.active_children() == []
    # dead on the last trial, with nothing left unread: the exit code is named

    def dying_last(stream):
        counted.append(len(stream))  # counts in the worker's copy of the list
        if len(counted) == 20:
            os._exit(3)
        return count(stream)

    monkeypatch.setattr(randomness_mod, "_pattern_counts", dying_last)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    assert multiprocessing.active_children() == []


def test_battery_deterministic_and_complete():
    kwargs = dict(n_bits=65_537, trials=20)
    a = run_battery(SEED, ROOT, **kwargs)
    b = run_battery(SEED, ROOT, **kwargs)
    assert a.to_csv() == b.to_csv()
    assert a.pass_counts == b.pass_counts
    assert a.min_pass == min_pass_count(20, 0.01)
    for name, trial_results in a.results.items():
        assert len(trial_results) == 20
        assert a.pass_counts[name] == sum(r.passed for r in trial_results)
    assert a.passed == all(c >= a.min_pass for c in a.pass_counts.values())


def test_battery_verdict_is_derived_from_its_trials():
    report = run_battery(SEED, ROOT, n_bits=65_537, trials=20)
    assert report.min_pass == min_pass_count(report.trials, report.alpha)
    assert report.pass_counts == {
        name: sum(r.passed for r in rs) for name, rs in report.results.items()
    }
    assert report.passed == all(c >= report.min_pass for c in report.pass_counts.values())
    # the counts and the verdict follow the trials, so they cannot disagree
    report.results["monobit"] = [
        replace(r, p_value=0.0, passed=False) for r in report.results["monobit"]
    ]
    assert report.pass_counts["monobit"] == 0
    assert not report.passed
    report.alpha = 0.1
    assert report.min_pass == min_pass_count(20, 0.1)


def test_battery_full_suite_small_scale(monkeypatch):
    report = run_battery(SEED, ROOT, n_bits=70_000, trials=20)
    # the worker's counts are out of the spy's sight, so each trial runs
    # here again under it: one pattern count per trial, same results
    calls = _count_calls(monkeypatch)
    for trial in range(20):
        stream = generate_stream(SEED, ROOT, b"rs%04d" % trial, 70_000)
        tested = _test_trial(stream, report.alpha)
        assert tested == [rs[trial] for rs in report.results.values()], trial
    assert calls == [70_000] * 20
    assert set(report.results) == set(ALL_TESTS)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "test,trial,p_value,pass"
    assert len(lines) == 1 + len(ALL_TESTS) * 20
    table = report.format_table()
    assert "verdict:" in table
    assert report.passed  # keystreams at this scale sail through


# sha256 of to_csv() for the call below, recorded before the pattern
# count, longest-run and cusum kernels were vectorised; any change to a
# p-value's tenth significant digit or to a verdict changes it
BATTERY_200K_CSV_SHA256 = "54be0b70f4650360e9e1b3440e8b69cb93b4392c366ccc0d94c0fb852747116c"


def test_battery_csv_is_pinned():
    report = run_battery(DEMO_SEED, DEMO_ROOT, n_bits=200_000, trials=20)
    digest = hashlib.sha256(report.to_csv().encode("ascii")).hexdigest()
    assert digest == BATTERY_200K_CSV_SHA256


# the same at the default 1e6 bits, recorded before the battery moved to
# the packed stream; unlike the 200k pin it reaches longest-run's
# 10,000-bit tier, which starts at 750,000 bits
BATTERY_1M_CSV_SHA256 = "83962486417d0dd709f03efbe35b210e526ea6d40744ea80e9ea12c940dc0aa5"


def test_battery_csv_is_pinned_at_default_scale():
    report = run_battery(DEMO_SEED, DEMO_ROOT, n_bits=1_000_000, trials=20)
    digest = hashlib.sha256(report.to_csv().encode("ascii")).hexdigest()
    assert digest == BATTERY_1M_CSV_SHA256


# the same at an odd length, recorded before the pattern count moved to
# pairs of windows at even bits; only an odd length runs the count's
# correction for the pair that wraps from the last bit to the first
BATTERY_200K_ODD_CSV_SHA256 = "7a7a052aeaa4febb155c90223bd658f620ec9b3a2e65daf75a0d7bd05cd3ab6c"


def test_battery_csv_is_pinned_at_an_odd_length():
    report = run_battery(DEMO_SEED, DEMO_ROOT, n_bits=200_001, trials=20)
    digest = hashlib.sha256(report.to_csv().encode("ascii")).hexdigest()
    assert digest == BATTERY_200K_ODD_CSV_SHA256


def test_battery_flags_constant_source():
    def dead_source(trial, length):
        return BitStream(np.zeros(length, dtype=np.uint8))

    report = run_battery(SEED, ROOT, n_bits=70_000, trials=20,
                         stream_factory=dead_source)
    assert not report.passed
    assert all(count == 0 for count in report.pass_counts.values())


def _report_of(p_values, alpha=0.01):
    """A report whose every test saw ``p_values``, one per trial."""
    results = [randomness_mod.TestResult("t", p, p >= alpha) for p in p_values]
    return RandomnessReport(1000, len(p_values), alpha, {name: results for name in ALL_TESTS})


# format_table at 20 and 100 trials, recorded before the pass cell was sized
# from the trial count
TABLE_20 = """\
test                 passed  required  P-value_T
-------------------  ------  --------  ---------
monobit               20/20        18          -
block-frequency       20/20        18          -
runs                  20/20        18          -
longest-run           20/20        18          -
cusum                 20/20        18          -
approximate-entropy   20/20        18          -
serial                20/20        18          -
verdict: PASS (alpha=0.01, 1000 bits x 20 trials)
"""
TABLE_100 = """\
test                 passed  required  P-value_T
-------------------  ------  --------  ---------
monobit               90/100       96  0.000000 non-uniform
block-frequency       90/100       96  0.000000 non-uniform
runs                  90/100       96  0.000000 non-uniform
longest-run           90/100       96  0.000000 non-uniform
cusum                 90/100       96  0.000000 non-uniform
approximate-entropy   90/100       96  0.000000 non-uniform
serial                90/100       96  0.000000 non-uniform
verdict: FAIL (alpha=0.01, 1000 bits x 100 trials)
"""


def test_format_table_is_pinned_at_20_and_100_trials():
    assert _report_of([(i + 0.5) / 20 for i in range(20)]).format_table() == TABLE_20
    assert _report_of([((i + 0.5) / 100) ** 2 for i in range(100)]).format_table() == TABLE_100


@pytest.mark.parametrize("trials", [20, 100, 1000])
def test_format_table_rows_line_up_with_the_header(trials):
    table = _report_of([(i + 0.5) / trials for i in range(trials)]).format_table()
    header, rule, *rows, _ = table.splitlines()
    starts = [header.index(title) for title in ("passed", "required", "P-value_T")]
    for row in (rule, *rows):
        # each column's field ends in a space, so none runs into the next
        fields = [row[a:b] for a, b in zip([0, *starts], [*starts, len(row)])]
        assert all(f.endswith(" ") and f.strip() for f in fields[:-1]), (row, fields)
        assert len(row) == len(header)
    assert all(row.split()[1].endswith(f"/{trials}") for row in rows)


@pytest.mark.parametrize("trials", [55, 100, 1000])
def test_uniformity_matches_oracle(trials):
    rng = np.random.default_rng(trials)
    for p_values in (
        rng.random(trials).tolist(),
        (rng.random(trials) ** 2).tolist(),  # skewed towards 0
        [0.0, 1.0, 0.05, 0.95, 0.999999] + rng.random(trials - 5).tolist(),
    ):
        got = _report_of(p_values).uniformity
        assert set(got) == set(ALL_TESTS)
        for value in got.values():
            assert value == pytest.approx(uniformity_p_ref(p_values), rel=1e-9, abs=1e-300)


def test_uniformity_needs_55_trials_and_stays_out_of_the_verdict():
    few = _report_of([0.55] * 54)
    assert set(few.uniformity.values()) == {None}
    rows = few.format_table().splitlines()[2:-1]
    assert all(row.split()[-1] == "-" for row in rows)
    # every trial passes the proportion rule, and every p-value sits in one bin
    skewed = _report_of([0.55] * 55)
    assert skewed.passed and skewed.to_csv() == _report_of([0.55] * 55).to_csv()
    assert all(p < 0.0001 for p in skewed.uniformity.values())
    rows = skewed.format_table().splitlines()[2:-1]
    assert all(row.endswith(" non-uniform") for row in rows)
    assert skewed.format_table().splitlines()[-1].startswith("verdict: PASS")


def test_chain_keystream_p_values_are_uniform_at_default_scale():
    # the default battery, 100 trials of 1e6 bits from the demo secrets
    report = run_battery(DEMO_SEED, DEMO_ROOT)
    for name, rs in report.results.items():
        p_t = report.uniformity[name]
        assert p_t == pytest.approx(uniformity_p_ref([r.p_value for r in rs]), rel=1e-9)
        assert p_t >= 0.0001, name


def test_every_test_rejects_some_pathological_stream():
    n = 70_000
    pathological = {
        "constant": np.zeros(n, dtype=np.uint8),
        "periodic": np.tile(np.array([1, 0], dtype=np.uint8), n // 2),
        "biased": np.maximum(_chain_bits(b"pa", n), _chain_bits(b"pb", n)),
    }
    for name, fn in ALL_TESTS.items():
        rejected = [label for label, bits in pathological.items()
                    if not fn(bits).passed]
        assert rejected, f"{name} accepted every pathological stream"


# -- the control panel: what the battery catches at its own settings, and what it does not --


def _biased(trial, n_bits):  # P(1) = 0.501
    return BitStream(np.random.default_rng(trial).random(n_bits) < 0.501)


def _lcg_low_byte(trial, n_bits):  # x = 1664525 x + 1013904223 mod 2^32
    x, out = trial, bytearray()
    for _ in range(-(-n_bits // 8)):
        x = (1664525 * x + 1013904223) & 0xFFFFFFFF
        out.append(x & 0xFF)
    return BitStream.from_bytes(bytes(out), n_bits)


def _repeated_sha256(trial, n_bits):  # 4 KiB of SHA-256 output, over and over
    block = b"".join(hashlib.sha256(b"%d %d" % (trial, i)).digest() for i in range(128))
    return BitStream.from_bytes(block * -(-n_bits // (8 * len(block))), n_bits)


def _mt19937(trial, n_bits):  # statistically sound, but not a cryptographic generator
    return BitStream.from_bytes(random.Random(trial).randbytes(-(-n_bits // 8)), n_bits)


@pytest.mark.parametrize(
    "factory, passed, counts",
    [
        (_biased, False, [16, 20, 19, 20, 17, 20, 20]),
        (_lcg_low_byte, False, [20, 20, 20, 0, 20, 0, 0]),
        (_repeated_sha256, False, [9, 15, 5, 0, 9, 0, 0]),
        # a pass finds no gross defect; it proves nothing about the source
        (_mt19937, True, [20, 20, 20, 20, 20, 20, 19]),
    ],
    ids=["biased-0.501", "lcg-low-byte", "repeated-sha256", "mt19937"],
)
def test_control_panel(factory, passed, counts):
    report = run_battery(SEED, ROOT, n_bits=1_000_000, trials=20, stream_factory=factory)
    assert report.min_pass == 18
    assert report.pass_counts == dict(zip(ALL_TESTS, counts))
    assert report.passed == passed
