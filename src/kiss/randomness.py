"""Statistical randomness battery for chain-derived keystreams.

Implements a seven-test subset of the NIST SP 800-22 rev. 1a suite:
monobit, block frequency, runs, longest run of ones, cumulative sums,
approximate entropy, and serial. Each test returns its p-value; the
battery runs every test across independent trial streams and applies
the SP 800-22 proportion rule (a three-sigma confidence bound on the
expected pass rate) to reach a verdict.

Bit streams under test come from the deterministic key chain itself:
one chain per trial, distinguished by direction label, each 32-byte
value read most significant bit first. The tests read only the packed
bytes: popcounts, 256-entry byte tables, and one pattern count per
stream that the two pattern tests share. The battery is sequential and
fully reproducible from (seed, root); reports carry no timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from scipy import special

from .errors import InvalidParameterError
from .idvv import idvv_init, idvv_peek

MIN_STREAM_BITS = 100

DEFAULT_ALPHA = 0.01
DEFAULT_TRIALS = 100
DEFAULT_STREAM_BITS = 1_000_000

# longest-run tiers: (min stream bits, block size M, category lower/upper
# clamp, reference probabilities). Probabilities are the published
# SP 800-22 tables; each row sums to 1 within rounding.
_LONGEST_RUN_TIERS = (
    (750_000, 10_000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, 4, 9, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
)


@dataclass(frozen=True)
class TestResult:
    name: str
    p_value: float
    passed: bool
    params: dict = field(default_factory=dict)


class BitStream:
    """A finite 0/1 sequence, held packed most significant bit first.

    ``packed`` has one byte per eight bits, the bits past the end zero; the
    tests read nothing else. ``bits``, one uint8 per bit, is unpacked on
    first read. Both are read-only, so a cached pattern count cannot go stale.
    """

    __slots__ = ("packed", "_n", "_bits", "_counts")

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise InvalidParameterError("bit stream must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise InvalidParameterError("bit stream values must be 0 or 1")
        self._hold(np.packbits(arr), arr.size)

    @classmethod
    def from_bytes(cls, data: bytes, n_bits: int | None = None) -> "BitStream":
        packed = np.frombuffer(data, dtype=np.uint8)
        n_bits = 8 * packed.size if n_bits is None else n_bits
        if not 0 <= n_bits <= 8 * packed.size:
            raise InvalidParameterError(f"n_bits must be 0..{8 * packed.size}, got {n_bits}")
        packed = packed[: -(-n_bits // 8)]
        if n_bits % 8:
            packed = packed.copy()
            packed[-1] &= (0xFF00 >> (n_bits % 8)) & 0xFF
        stream = cls.__new__(cls)
        stream._hold(packed, n_bits)
        return stream

    def _hold(self, packed: np.ndarray, n: int) -> None:
        packed.flags.writeable = False
        self.packed = packed
        self._n = n
        self._bits = self._counts = None

    def __len__(self) -> int:
        return self._n

    @property
    def bits(self) -> np.ndarray:
        """One uint8 per bit, unpacked the first time something reads it."""
        if self._bits is None:
            self._bits = np.unpackbits(self.packed, count=self._n)
            self._bits.flags.writeable = False
        return self._bits

    def pattern_counts(self, m: int) -> np.ndarray:
        """Wrapped overlapping m-bit pattern counts.

        The widest count made so far is kept and folded down to shorter
        widths, so one count serves every test that fits inside it.
        """
        counts = self._counts
        if counts is None or counts.size < 1 << m:
            counts = self._counts = _pattern_counts(self, m)
            counts.flags.writeable = False
        while counts.size > 1 << m:
            counts = _fold(counts)
        return counts


def generate_stream(seed, root, label: bytes, n_bits: int) -> BitStream:
    """Expand the chain keyed by (seed, root, label) into n_bits bits."""
    if n_bits < MIN_STREAM_BITS:
        raise InvalidParameterError(
            f"stream must be at least {MIN_STREAM_BITS} bits, got {n_bits}"
        )
    count = -(-n_bits // 256)
    values = []  # value_1 .. value_count, from one chain walk
    idvv_peek(idvv_init(seed, root, label), count, count, values)
    return BitStream.from_bytes(b"".join(values), n_bits)


def _stream(bits, test: str | None = None) -> BitStream:
    s = bits if isinstance(bits, BitStream) else BitStream(bits)
    if test and len(s) < MIN_STREAM_BITS:
        raise InvalidParameterError(f"{test} test needs >= {MIN_STREAM_BITS} bits, got {len(s)}")
    return s


# -- byte tables -------------------------------------------------------
#
# Each table maps a byte, read most significant bit first, to one figure
# about its bits (signed ones modulo 256); a lookup is a bytes translate,
# which makes no index array. Ones are counted a 64-bit word at a time.


def _byte_table(figure) -> bytes:
    return bytes(figure(format(b, "08b")) & 0xFF for b in range(256))


def _lookup(table: bytes, x: np.ndarray, dtype=np.uint8) -> np.ndarray:
    return np.frombuffer(bytearray(x).translate(table), dtype)


def _words(x: np.ndarray) -> np.ndarray:  # zero-padded, so even bit 8 * x.size has a word
    return np.frombuffer(x.tobytes() + bytes(8 - x.size % 8), ">u8")


def _ones(x: np.ndarray) -> int:
    return int(np.bitwise_count(_words(x)).sum())


def _walk(bits: str) -> list[int]:
    """Levels of the +1/-1 walk over ``bits``, from 0 before the first bit."""
    return list(accumulate((1 if c == "1" else -1 for c in bits), initial=0))


# ones that start the byte, end it, and the longest run anywhere in it
_LEAD = _byte_table(lambda b: len(b) - len(b.lstrip("1")))
_TRAIL = _byte_table(lambda b: len(b) - len(b.rstrip("1")))
_INNER = _byte_table(lambda b: max(map(len, b.split("0"))))
# the walk's net step over the byte, its highest level before any of its
# bits (from the level after the byte), and its lowest (from that highest)
_NET = _byte_table(lambda b: _walk(b)[8])
_HI_BEFORE = _byte_table(lambda b: max(_walk(b)[:8]) - _walk(b)[8])
_LO_BELOW_HI = _byte_table(lambda b: min(_walk(b)[:8]) - max(_walk(b)[:8]))


# -- individual tests ------------------------------------------------


def monobit_test(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits, "monobit")
    n = len(s)
    s_n = 2 * _ones(s.packed) - n
    s_obs = abs(s_n) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2))
    return TestResult("monobit", p, p >= alpha, {"n": n, "s_n": s_n})


def block_frequency_test(bits, block_size: int = 128, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits)
    n = len(s)
    if block_size < 2:
        raise InvalidParameterError(f"block size must be >= 2, got {block_size}")
    n_blocks = n // block_size
    if n_blocks < 1:
        raise InvalidParameterError(
            f"stream too short for block size {block_size} ({n} bits)"
        )
    # ones before each block edge: up to the end of its word, less those from the edge on
    edges = np.arange(n_blocks + 1, dtype=np.uint64) * block_size
    words, at = _words(s.packed), edges >> 6
    upto = np.cumsum(np.bitwise_count(words), dtype=np.int64)[at]
    pi = np.diff(upto - np.bitwise_count(words[at].astype(np.uint64) << edges % 64)) / block_size
    chi_sq = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    p = float(special.gammaincc(n_blocks / 2.0, chi_sq / 2.0))
    return TestResult(
        "block-frequency",
        p,
        p >= alpha,
        {"n": n, "block_size": block_size, "n_blocks": n_blocks, "chi_sq": chi_sq},
    )


def runs_test(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits, "runs")
    n = len(s)
    pi = _ones(s.packed) / n
    # the test presumes the monobit statistic is unremarkable; outside
    # that band the run count is meaningless and the result is a hard fail
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return TestResult(
            "runs", 0.0, False, {"n": n, "pi": pi, "prerequisite_failed": True}
        )
    # each bit of x ^ (x shifted left one bit) marks a change to the next bit;
    # the zero bits past the end add one mark exactly when the last bit is 1
    x = s.packed
    after = x << 1
    after[:-1] |= x[1:] >> 7
    changes = _ones(np.bitwise_xor(x, after, out=after)) - (int(x[-1]) >> (-n % 8) & 1)
    v_n = changes + 1
    num = abs(v_n - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(num / den)
    return TestResult("runs", p, p >= alpha, {"n": n, "pi": pi, "v_n": v_n})


def longest_run_test(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits)
    n = len(s)
    for min_n, block_size, lo, hi, ref in _LONGEST_RUN_TIERS:
        if n >= min_n:
            break
    else:
        raise InvalidParameterError(f"longest-run test needs >= 128 bits, got {n}")
    n_blocks = n // block_size
    longest = _longest_runs(s.packed, block_size // 8, n_blocks)
    cats = np.clip(longest, lo, hi) - lo
    counts = np.bincount(cats, minlength=len(ref)).astype(np.float64)
    expected = n_blocks * np.asarray(ref)
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    k = len(ref) - 1
    p = float(special.gammaincc(k / 2.0, chi_sq / 2.0))
    return TestResult(
        "longest-run",
        p,
        p >= alpha,
        {
            "n": n,
            "block_size": block_size,
            "n_blocks": n_blocks,
            "counts": counts.astype(int).tolist(),
            "chi_sq": chi_sq,
        },
    )


def _longest_runs(packed: np.ndarray, block_bytes: int, n_blocks: int) -> np.ndarray:
    """Longest run of ones in each block of ``block_bytes`` whole bytes.

    A run either lies inside one byte, or ends in a byte after starting
    before it: the ones that end the previous byte, plus the ones that
    start this one. A run through whole 0xFF bytes carries the ones that
    end the byte before them.
    """
    x = packed[: n_blocks * block_bytes]
    ending = _lookup(_TRAIL, x).astype(np.int16)
    full = np.flatnonzero(x == 0xFF)
    if full.size:
        # a streak of 0xFF bytes starts after a byte that is not 0xFF, or
        # at a block's first byte; first[i] is where full[i]'s streak starts
        starts = np.ones(full.size, dtype=bool)
        starts[1:] = full[1:] != full[:-1] + 1
        starts |= full % block_bytes == 0
        first = full[starts][np.cumsum(starts) - 1]
        carried = np.where(first % block_bytes != 0, ending[first - 1], 0)
        ending[full] = 8 * (full - first + 1) + carried
    before = np.zeros_like(ending)
    before[1:] = ending[:-1]
    before[::block_bytes] = 0
    before += _lookup(_LEAD, x)
    best = np.maximum(_lookup(_INNER, x), before, out=before)
    return best.reshape(n_blocks, block_bytes).max(axis=1)


def cusum_test(bits, forward: bool = True, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits, "cusum")
    n = len(s)
    hi, lo, total = _walk_range(s)
    # the forward walk visits S_1 .. S_n; the backward one visits
    # total - S_j for j = n-1 down to 0
    z = max(hi, -lo, abs(total)) if forward else max(total - lo, hi - total)
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    term1 = np.sum(
        special.ndtr((4 * k1 + 1) * z / sqrt_n) - special.ndtr((4 * k1 - 1) * z / sqrt_n)
    )
    term2 = np.sum(
        special.ndtr((4 * k2 + 3) * z / sqrt_n) - special.ndtr((4 * k2 + 1) * z / sqrt_n)
    )
    p = float(min(max(1.0 - term1 + term2, 0.0), 1.0))
    direction = "forward" if forward else "backward"
    return TestResult(
        "cusum", p, p >= alpha, {"n": n, "z": z, "direction": direction}
    )


def _walk_range(s: BitStream) -> tuple[int, int, int]:
    """Highest and lowest of the walk levels S_0 .. S_{n-1}, and S_n.

    S_j is the sum of +1 per one and -1 per zero over the first j bits,
    n >= 1. Whole bytes come from the byte tables and a sum over bytes;
    the bits of a last, partial byte are walked one by one.
    """
    n = len(s)
    x = s.packed[: n // 8]
    levels = _lookup(_NET, x, np.int8).astype(np.int32 if n < 1 << 31 else np.int64)
    np.cumsum(levels, out=levels)  # after each byte, then each byte's highest, then lowest
    level = int(levels[-1]) if x.size else 0
    hi = int(np.add(levels, _lookup(_HI_BEFORE, x, np.int8), out=levels).max(initial=0))
    lo = int(np.add(levels, _lookup(_LO_BELOW_HI, x, np.int8), out=levels).min(initial=0))
    for bit in format(int(s.packed[-1]), "08b")[: n % 8]:
        hi, lo = max(hi, level), min(lo, level)
        level += 1 if bit == "1" else -1
    return hi, lo, level


def approximate_entropy_test(
    bits, pattern_len: int = 10, alpha: float = DEFAULT_ALPHA
) -> TestResult:
    s = _stream(bits)
    n = len(s)
    if pattern_len < 1:
        raise InvalidParameterError(f"pattern length must be >= 1, got {pattern_len}")
    if 1 << (pattern_len + 1) >= n:
        raise InvalidParameterError(
            f"pattern length {pattern_len} too large for {n} bits"
        )
    counts = s.pattern_counts(pattern_len + 1)
    ap_en = _phi(_fold(counts), n) - _phi(counts, n)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    p = float(special.gammaincc(2.0 ** (pattern_len - 1), chi_sq / 2.0))
    return TestResult(
        "approximate-entropy",
        p,
        p >= alpha,
        {"n": n, "pattern_len": pattern_len, "ap_en": ap_en, "chi_sq": chi_sq},
    )


def serial_test(bits, pattern_len: int = 16, alpha: float = DEFAULT_ALPHA) -> TestResult:
    s = _stream(bits)
    n = len(s)
    if pattern_len < 2:
        raise InvalidParameterError(f"pattern length must be >= 2, got {pattern_len}")
    if 1 << pattern_len >= n:
        raise InvalidParameterError(
            f"pattern length {pattern_len} too large for {n} bits"
        )
    counts = s.pattern_counts(pattern_len)
    counts1 = _fold(counts)
    psi_m = _psi_sq(counts, n)
    psi_m1 = _psi_sq(counts1, n)
    psi_m2 = _psi_sq(_fold(counts1), n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(special.gammaincc(2.0 ** (pattern_len - 2), d1 / 2.0))
    p2 = float(special.gammaincc(2.0 ** (pattern_len - 3), d2 / 2.0))
    return TestResult(
        "serial",
        p1,
        p1 >= alpha,
        {"n": n, "pattern_len": pattern_len, "delta1": d1, "delta2": d2, "p2": p2},
    )


def _pattern_counts(s: BitStream, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns, sequence wrapped around.

    The window starting at bit 8k + r lies inside the big-endian word made
    of bytes k .. k+w-1 of the wrapped stream, so one shift and mask per
    bit offset r reads every window.
    """
    n = len(s)
    whole = n // 8
    w = (m + 14) // 8  # bytes that cover a window starting at offset 7
    # the wrapped stream repeats the first m - 1 bits after the last one
    seam = [np.unpackbits(s.packed[whole:], count=n % 8), np.unpackbits(s.packed[:w], count=m - 1)]
    ext = np.concatenate([s.packed[:whole], np.packbits(np.hstack(seam)), np.zeros(w, np.uint8)])
    k = -(-n // 8)
    word = ext[:k].astype(np.uint32 if w <= 4 else np.int64)
    for j in range(1, w):
        word <<= 8
        word |= ext[j : j + k]
    window = np.empty(k, dtype=np.intp)

    def count(offset: int) -> np.ndarray:
        np.right_shift(word, 8 * w - m - offset, out=window)
        np.bitwise_and(window, (1 << m) - 1, out=window)
        return np.bincount(window[: (n - offset + 7) // 8], minlength=1 << m)

    counts = count(0)
    for offset in range(1, 8):
        counts += count(offset)
    return counts


def _fold(counts: np.ndarray) -> np.ndarray:
    """Cyclic (m-1)-bit counts from cyclic m-bit counts: sum out the last bit."""
    return counts[0::2] + counts[1::2]


def _phi(counts: np.ndarray, n: int) -> float:
    freq = counts[counts > 0] / n
    return float(np.sum(freq * np.log(freq)))


def _psi_sq(counts: np.ndarray, n: int) -> float:
    if counts.size == 1:  # psi-squared of 0-bit patterns is 0 by definition
        return 0.0
    # the integer sum of squares is below 2**53, so it converts exactly
    return counts.size / n * int(counts @ counts) - n


ALL_TESTS = {
    "monobit": monobit_test,
    "block-frequency": block_frequency_test,
    "runs": runs_test,
    "longest-run": longest_run_test,
    "cusum": cusum_test,
    "approximate-entropy": approximate_entropy_test,
    "serial": serial_test,
}


# -- battery ----------------------------------------------------------


@dataclass
class RandomnessReport:
    n_bits: int
    trials: int
    alpha: float
    min_pass: int
    results: dict[str, list[TestResult]]
    pass_counts: dict[str, int]
    passed: bool

    def to_csv(self) -> str:
        lines = ["test,trial,p_value,pass"]
        for name, trial_results in self.results.items():
            for i, r in enumerate(trial_results):
                lines.append(f"{name},{i},{r.p_value:.10g},{int(r.passed)}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        width = max(len(name) for name in self.results)
        lines = [
            f"{'test'.ljust(width)}  passed  required",
            f"{'-' * width}  ------  --------",
        ]
        for name, count in self.pass_counts.items():
            lines.append(
                f"{name.ljust(width)}  {count:3d}/{self.trials:<3d} {self.min_pass:8d}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"verdict: {verdict} "
            f"(alpha={self.alpha:g}, {self.n_bits} bits x {self.trials} trials)"
        )
        return "\n".join(lines) + "\n"


def min_pass_count(trials: int, alpha: float) -> int:
    """Minimum per-test passes under the SP 800-22 proportion bound.

    The expected pass proportion is 1 - alpha with a three-sigma
    allowance of sqrt(alpha (1 - alpha) / trials); any count at or
    above the floor of that bound is unremarkable.
    """
    bound = (1.0 - alpha) - 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
    return max(0, math.floor(trials * bound))


def run_battery(
    seed,
    root,
    n_bits: int = DEFAULT_STREAM_BITS,
    trials: int = DEFAULT_TRIALS,
    alpha: float = DEFAULT_ALPHA,
    test_names=None,
    stream_factory=None,
) -> RandomnessReport:
    """Run the battery over ``trials`` independent streams.

    Every trial draws a fresh stream (chain labeled ``rs%04d`` by
    default; ``stream_factory(trial, n_bits)`` overrides the source)
    and runs each selected test on it at significance ``alpha``.
    """
    if trials < 20:
        # below ~20 trials the proportion bound has no resolving power
        raise InvalidParameterError(f"trials must be >= 20, got {trials}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    if test_names is None:
        test_names = list(ALL_TESTS)
    else:
        unknown = [t for t in test_names if t not in ALL_TESTS]
        if unknown:
            raise InvalidParameterError(f"unknown tests: {', '.join(unknown)}")
    if stream_factory is None:
        def stream_factory(trial: int, length: int) -> BitStream:
            return generate_stream(seed, root, b"rs%04d" % trial, length)

    # serial's 16-bit pattern count folds exactly to approximate entropy's
    # 11-bit one, so serial runs first and makes each trial's only count
    run_order = sorted(test_names, key=lambda name: name != "serial")
    results: dict[str, list[TestResult]] = {name: [] for name in test_names}
    for trial in range(trials):
        stream = stream_factory(trial, n_bits)
        for name in run_order:
            results[name].append(ALL_TESTS[name](stream, alpha=alpha))

    threshold = min_pass_count(trials, alpha)
    pass_counts = {
        name: sum(r.passed for r in trial_results)
        for name, trial_results in results.items()
    }
    verdict = all(count >= threshold for count in pass_counts.values())
    return RandomnessReport(
        n_bits=n_bits,
        trials=trials,
        alpha=alpha,
        min_pass=threshold,
        results=results,
        pass_counts=pass_counts,
        passed=verdict,
    )
