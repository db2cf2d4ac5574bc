"""Statistical randomness battery for chain-derived keystreams.

Implements a seven-test subset of the NIST SP 800-22 rev. 1a suite:
monobit, block frequency, runs, longest run of ones, cumulative sums,
approximate entropy, and serial. Each test runs at one configuration:
block frequency over 128-bit blocks, approximate entropy at m = 10,
serial at m = 16, and the forward cumulative sums. ``MIN_BITS`` holds
the fewest bits each test takes there; a test refuses a shorter stream.
A test is added as one decorated function: ``_battery_test(name,
min_bits)`` states its name and floor once, and puts it in ``ALL_TESTS``.
Each test returns its p-value; the battery runs every test across
independent trial streams and applies the SP 800-22 proportion rule (a
three-sigma confidence bound on the expected pass rate) to reach a
verdict. Beside it, the report derives the standard's second criterion,
that each test's p-values are uniform over the trials (section 4.2.2),
and prints it without folding it into the verdict.

Bit streams under test come from the deterministic key chain itself:
one chain per trial, distinguished by direction label, each 32-byte
value read most significant bit first. The tests read only the packed
bytes: popcounts, 256-entry byte tables, and one pattern count per
stream that the two pattern tests share. The battery is ordered and
reproducible from (seed, root): streams are drawn in trial order in the
calling process, while one forked worker runs the tests on the stream
drawn before, and reports carry no timestamps.

The p-values need two special functions and no library beyond NumPy:
the chi-square survival function at integer degrees of freedom, a
finite closed form (Abramowitz & Stegun 26.4.4-5), and the normal
distribution function from libm's ``erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .defaults import DEFAULT_ALPHA, DEFAULT_STREAM_BITS, DEFAULT_TRIALS, markdown_table
from .errors import InvalidParameterError
from .idvv import idvv_init, idvv_peek

MIN_STREAM_BITS = 100

# The one configuration every test runs at: block frequency's block size M
# (two whole 64-bit words), approximate entropy's and serial's pattern widths m
_BLOCK = 128
_APEN_M = 10
_SERIAL_M = 16
# byte positions the pattern count reads at a time: 64-KB word and window buffers
_CHUNK = 16_384

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
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise InvalidParameterError("bit stream must be one-dimensional")
        # checked before the cast to uint8, which wraps 256 to 0 and cuts 1.7 to 1
        if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1):
            raise InvalidParameterError("bit stream values must be the integers 0 or 1")
        self._hold(np.packbits(arr.astype(np.uint8)), arr.size)

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
        """Wrapped overlapping m-bit pattern counts, for m up to serial's 16.

        The first call makes the stream's one count, at serial's width, and
        keeps it; every call folds it down to m bits, which is exact.
        """
        if not 0 <= m <= _SERIAL_M:
            raise InvalidParameterError(f"pattern width must be 0..{_SERIAL_M}, got {m}")
        counts = self._counts
        if counts is None:
            counts = self._counts = _pattern_counts(self)
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
    idvv_peek(idvv_init(seed, root, label), count, values)
    return BitStream.from_bytes(b"".join(values), n_bits)


def _stream(bits, name: str) -> BitStream:
    s = bits if isinstance(bits, BitStream) else BitStream(bits)
    if len(s) < MIN_BITS[name]:
        raise InvalidParameterError(
            f"{name} test needs at least {MIN_BITS[name]:,} bits, got {len(s):,}"
        )
    return s


# -- p-value functions -------------------------------------------------


def _igamc(a: float, x: float) -> float:
    """Q(a, x), the regularized upper incomplete gamma function, at 2a a
    positive integer, as every chi-square p-value takes it: the survival
    function of chi-square with 2a degrees of freedom, at 2x.

    With D = e^-x x^a / Gamma(a + 1) (Abramowitz & Stegun 26.4.4-5): from
    x = a up, Q is D (a/x + a(a-1)/x^2 + ...), the terms e^-x x^b / Gamma(b + 1)
    for b = a-1, a-2, ... >= 0, plus erfc(sqrt x) for a half-integer a;
    below a, Q = 1 - D (1 + x/(a+1) + x^2/((a+1)(a+2)) + ...).
    """
    if x <= 0.0:  # the statistics are sums of squares
        return 1.0
    d = math.exp(_log_d(a, x))
    terms = int(10.0 * math.sqrt(a)) + 60  # past these, each is below 1e-20 of the first
    if x < a:
        return float(1.0 - d * (1.0 + np.cumprod(x / (a + np.arange(1, terms))).sum()))
    upper = math.erfc(math.sqrt(x)) if a % 1 else 0.0
    return float(upper + d * np.cumprod((a - np.arange(min(int(a), terms))) / x).sum())


def _log_d(a: float, x: float) -> float:
    """ln(e^-x x^a / Gamma(a + 1)), without the cancellation of its terms."""
    if a < 20.0:
        return a * math.log(x) - x - math.lgamma(a + 1.0)
    # x = a (1 + t): Stirling's series for ln Gamma(a + 1) leaves -a (t - ln(1 + t))
    # - ln(2 pi a) / 2, less its four terms in 1/a
    t = (x - a) / a
    if abs(t) < 0.5:  # where log1p would cancel: t - ln(1 + t) = t^2 (1/2 - t/3 + ...)
        series = 0.0
        for k in range(55, 1, -1):
            series = 1.0 / k - t * series
        excess = t * t * series
    else:
        excess = t - math.log1p(t)
    inv, inv2 = 1.0 / a, 1.0 / (a * a)
    stirling = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680)))
    return -a * excess - 0.5 * math.log(2.0 * math.pi * a) - stirling


def _ndtr(x: float) -> float:
    """The standard normal distribution function at one point, from libm's erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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

ALL_TESTS: dict = {}  # name -> test, in the order registered below
# The fewest bits per trial each test takes at its one configuration. Pattern
# widths are fixed, not derived from the stream length, so a report never
# changes its tests' parameters with n_bits.
MIN_BITS: dict[str, int] = {}


def _battery_test(name: str, min_bits: int):
    """Register ``body(s, n) -> (p, params)`` as the battery test ``name``:
    the test returned takes ``(bits, alpha=DEFAULT_ALPHA)``, refuses a stream
    under ``min_bits`` and passes at ``p >= alpha``. It goes into ``ALL_TESTS``,
    and its floor into ``MIN_BITS``."""

    def register(body):
        def test(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
            s = _stream(bits, name)
            p, params = body(s, len(s))
            return TestResult(name, p, p >= alpha, params)

        # not functools.wraps: its __wrapped__ would show the body's signature
        test.__name__, test.__qualname__, test.__doc__ = body.__name__, body.__qualname__, body.__doc__
        ALL_TESTS[name], MIN_BITS[name] = test, min_bits
        return test

    return register


@_battery_test("monobit", MIN_STREAM_BITS)
def monobit_test(s: BitStream, n: int):
    s_n = 2 * _ones(s.packed) - n
    s_obs = abs(s_n) / math.sqrt(n)
    return math.erfc(s_obs / math.sqrt(2)), {"n": n, "s_n": s_n}


@_battery_test("block-frequency", _BLOCK)  # one block
def block_frequency_test(s: BitStream, n: int):
    n_blocks = n // _BLOCK
    ones = np.bitwise_count(_words(s.packed)[: 2 * n_blocks]).reshape(n_blocks, 2).sum(axis=1)
    pi = ones / _BLOCK
    chi_sq = 4.0 * _BLOCK * float(np.sum((pi - 0.5) ** 2))
    return _igamc(n_blocks / 2.0, chi_sq / 2.0), {"n": n, "n_blocks": n_blocks, "chi_sq": chi_sq}


@_battery_test("runs", MIN_STREAM_BITS)
def runs_test(s: BitStream, n: int):
    pi = _ones(s.packed) / n
    # the test presumes the monobit statistic is unremarkable; outside
    # that band the run count is meaningless and the result is a hard fail:
    # p = 0, which no alpha in (0, 1) passes
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return 0.0, {"n": n, "pi": pi, "prerequisite_failed": True}
    # each bit of x ^ (x shifted left one bit) marks a change to the next bit;
    # the zero bits past the end add one mark exactly when the last bit is 1
    x = s.packed
    after = x << 1
    after[:-1] |= x[1:] >> 7
    changes = _ones(np.bitwise_xor(x, after, out=after)) - (int(x[-1]) >> (-n % 8) & 1)
    v_n = changes + 1
    num = abs(v_n - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den), {"n": n, "pi": pi, "v_n": v_n}


@_battery_test("longest-run", _LONGEST_RUN_TIERS[-1][0])  # the smallest tier of the SP 800-22 table
def longest_run_test(s: BitStream, n: int):
    _, block_size, lo, hi, ref = next(tier for tier in _LONGEST_RUN_TIERS if n >= tier[0])
    n_blocks = n // block_size
    longest = _longest_runs(s.packed, block_size // 8, n_blocks)
    cats = np.clip(longest, lo, hi) - lo
    counts = np.bincount(cats, minlength=len(ref)).astype(np.float64)
    expected = n_blocks * np.asarray(ref)
    chi_sq = float(np.sum((counts - expected) ** 2 / expected))
    k = len(ref) - 1
    return _igamc(k / 2.0, chi_sq / 2.0), {
        "n": n,
        "block_size": block_size,
        "n_blocks": n_blocks,
        "counts": counts.astype(int).tolist(),
        "chi_sq": chi_sq,
    }


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


@_battery_test("cusum", MIN_STREAM_BITS)
def cusum_test(s: BitStream, n: int):
    hi, lo, total = _walk_range(s)
    z = max(hi, -lo, abs(total))  # the walk visits S_1 .. S_n, and S_0 = 0
    sqrt_n = math.sqrt(n)
    # Phi is exactly 1.0 from 8.3 up and exactly 0.0 from -38.5 down, so a
    # term whose two arguments lie on one side of that band is 0: only the k
    # with an argument inside it are evaluated
    c = z / sqrt_n
    k_lo, k_hi = math.floor((-38.5 / c - 3) / 4), math.ceil((8.3 / c + 1) / 4)
    k1 = range(max(math.floor((-n / z + 1) / 4), k_lo), min(math.floor((n / z - 1) / 4), k_hi) + 1)
    k2 = range(max(math.floor((-n / z - 3) / 4), k_lo), min(math.floor((n / z - 1) / 4), k_hi) + 1)
    # np.sum, not sum: its pairwise order is the one these p-values were pinned with
    term1 = np.sum([_ndtr((4 * k + 1) * z / sqrt_n) - _ndtr((4 * k - 1) * z / sqrt_n) for k in k1])
    term2 = np.sum([_ndtr((4 * k + 3) * z / sqrt_n) - _ndtr((4 * k + 1) * z / sqrt_n) for k in k2])
    return float(min(max(1.0 - term1 + term2, 0.0), 1.0)), {"n": n, "z": z}


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


@_battery_test("approximate-entropy", (1 << (_APEN_M + 1)) + 1)  # more bits than (m+1)-bit patterns
def approximate_entropy_test(s: BitStream, n: int):
    counts = s.pattern_counts(_APEN_M + 1)
    ap_en = _phi(_fold(counts), n) - _phi(counts, n)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return _igamc(2.0 ** (_APEN_M - 1), chi_sq / 2.0), {"n": n, "ap_en": ap_en, "chi_sq": chi_sq}


@_battery_test("serial", (1 << _SERIAL_M) + 1)  # more bits than m-bit patterns
def serial_test(s: BitStream, n: int):
    counts = s.pattern_counts(_SERIAL_M)
    counts1 = _fold(counts)
    psi_m = _psi_sq(counts, n)
    psi_m1 = _psi_sq(counts1, n)
    psi_m2 = _psi_sq(_fold(counts1), n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _igamc(2.0 ** (_SERIAL_M - 2), d1 / 2.0)
    p2 = _igamc(2.0 ** (_SERIAL_M - 3), d2 / 2.0)
    return p1, {"n": n, "delta1": d1, "delta2": d2, "p2": p2}


def _pattern_counts(s: BitStream) -> np.ndarray:
    """Counts of all overlapping 16-bit (``_SERIAL_M``) patterns, wrapped around.

    Only the 17-bit windows that start at even bits are counted, about n/2
    of them: each holds the 16-bit window at its own bit and the one at the
    next. The windows starting in byte k lie inside the big-endian uint32
    word of bytes k .. k+2 of the wrapped stream, so one shift and mask per
    even offset reads them, ``_CHUNK`` bytes at a time, into one
    accumulator. It is freed before the int64 copy is made, so a count of
    1e6 bits peaks near 0.9 MB.
    """
    n = len(s)
    whole = n // 8
    k = -(-n // 8)
    # the wrapped stream repeats the first 16 bits, two whole bytes, after the last one
    seam = np.hstack([np.unpackbits(s.packed[whole:], count=n % 8), np.unpackbits(s.packed[:2])])
    tail = np.concatenate([np.packbits(seam), np.zeros(3, np.uint8)])
    word = np.empty(min(k, _CHUNK), np.uint32)
    window = np.empty_like(word)
    acc = np.int32 if n < 1 << 31 else np.int64  # no bin counts more than n windows
    pairs = np.zeros(2 << _SERIAL_M, acc)
    for start in range(0, k, _CHUNK):
        end = min(start + _CHUNK, k)
        x = s.packed[start : end + 2]
        if end + 2 > whole:
            x = np.concatenate([s.packed[start:whole], tail])
        chunk = word[: end - start]
        chunk[:] = x[: chunk.size]
        for j in (1, 2):
            chunk <<= 8
            chunk |= x[j : j + chunk.size]
        for offset in range(0, 8, 2):
            found = window[: min(end, (n - offset + 7) // 8) - start]
            np.right_shift(chunk[: found.size], 24 - _SERIAL_M - 1 - offset, out=found)
            np.bitwise_and(found, (2 << _SERIAL_M) - 1, out=found)
            np.add.at(pairs, found, acc(1))  # a NumPy scalar keeps add.at's fast path
    counts = _fold(pairs)  # the window at each pair's own bit: sum out the last bit
    counts += pairs[: 1 << _SERIAL_M]  # the window at its next bit: sum out the first
    counts += pairs[1 << _SERIAL_M :]
    del pairs
    if n % 2:  # the pair at bit n - 1 counted the window at bit 0 a second time
        counts[int.from_bytes(s.packed[:2].tobytes(), "big")] -= 1
    return counts.astype(np.int64)


def _fold(counts: np.ndarray) -> np.ndarray:
    """Cyclic (m-1)-bit counts from cyclic m-bit counts: sum out the last bit."""
    return counts[0::2] + counts[1::2]


def _phi(counts: np.ndarray, n: int) -> float:
    freq = counts[counts > 0] / n
    return float(np.sum(freq * np.log(freq)))


def _psi_sq(counts: np.ndarray, n: int) -> float:
    # the integer sum of squares is below 2**53, so it converts exactly
    return counts.size / n * int(counts @ counts) - n


# The table as registered above. ``run_battery`` forks its worker only while
# ALL_TESTS holds these: a test the caller puts in (a spy, a timing wrapper)
# runs in the calling process, as what it records in a worker is lost with it.
_OWN_TESTS = tuple(ALL_TESTS.items())


# -- battery ----------------------------------------------------------

# SP 800-22 section 4.2.2: a test's p-values are uniform when their
# P-value_T is at least this, read from 55 trials on
UNIFORMITY_ALPHA, UNIFORMITY_MIN_TRIALS = 0.0001, 55


@dataclass
class RandomnessReport:
    n_bits: int
    trials: int
    alpha: float
    results: dict[str, list[TestResult]]

    # the verdict is derived from the trials, never stored beside them
    @property
    def min_pass(self) -> int:
        return min_pass_count(self.trials, self.alpha)

    @property
    def pass_counts(self) -> dict[str, int]:
        return {name: sum(r.passed for r in rs) for name, rs in self.results.items()}

    @property
    def passed(self) -> bool:
        return all(count >= self.min_pass for count in self.pass_counts.values())

    @property
    def uniformity(self) -> dict[str, float | None]:
        """Each test's P-value_T: its p-values in ten equal bins, then
        igamc(9/2, chi^2/2), the chi-square at 9 degrees of freedom; None
        below ``UNIFORMITY_MIN_TRIALS``. Not part of ``passed``."""
        if self.trials < UNIFORMITY_MIN_TRIALS:
            return dict.fromkeys(self.results)
        expected, p_t = self.trials / 10, {}
        for name, rs in self.results.items():
            # bin 9 takes p = 1.0, as the standard's reference code does
            bins = np.bincount([min(int(r.p_value * 10), 9) for r in rs], minlength=10)
            p_t[name] = _igamc(4.5, float(((bins - expected) ** 2).sum()) / expected / 2.0)
        return p_t

    def to_csv(self) -> str:
        lines = ["test,trial,p_value,pass"]
        for name, trial_results in self.results.items():
            for i, r in enumerate(trial_results):
                lines.append(f"{name},{i},{r.p_value:.10g},{int(r.passed)}")
        return "\n".join(lines) + "\n"

    def format_markdown(self) -> str:
        rows = [("test", "passed", "required", "P-value_T")]
        uniformity = self.uniformity
        for name, count in self.pass_counts.items():
            p = uniformity[name]
            cell = "-" if p is None else f"{p:.6f}"
            if p is not None and p < UNIFORMITY_ALPHA:
                cell += " non-uniform"
            rows.append((name, f"{count}/{self.trials}", str(self.min_pass), cell))
        verdict = "PASS" if self.passed else "FAIL"
        # P-value_T aligns left, so its figures line up before any mark
        return (
            markdown_table(rows, left=("test", "P-value_T"))
            + f"\nverdict: {verdict} "
            f"(alpha={self.alpha:g}, {self.n_bits} bits x {self.trials} trials)\n"
        )


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
    stream_factory=None,
) -> RandomnessReport:
    """Run every test of ``ALL_TESTS`` over ``trials`` independent streams.

    Every trial draws a fresh stream (chain labeled ``rs%04d`` by
    default; ``stream_factory(trial, n_bits)`` overrides the source)
    and runs each test on it at significance ``alpha``. Streams are drawn
    in trial order in the calling process; one worker, forked for this
    call and joined before it returns, tests each stream while the next
    is drawn. While ``ALL_TESTS`` holds a test the caller put there, each
    trial is tested in the calling process instead. An ``n_bits`` below
    the highest ``MIN_BITS`` (serial's), or an ``alpha`` whose pass floor
    over ``trials`` is 0, is refused before any stream is drawn, and a
    shorter stream from the factory before the next is drawn.
    """
    if trials < 20:
        # below ~20 trials the proportion bound has no resolving power
        raise InvalidParameterError(f"trials must be >= 20, got {trials}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    if min_pass_count(trials, alpha) == 0:
        # a pass floor of 0 passes a test that no trial passed
        raise InvalidParameterError(f"alpha {alpha} over {trials} trials sets a pass floor of 0")
    floor, name = max((bits, name) for name, bits in MIN_BITS.items())
    if n_bits < floor:
        raise InvalidParameterError(
            f"{name} test needs at least {floor:,} bits per trial, got {n_bits:,}"
        )
    if stream_factory is None:
        def stream_factory(trial: int, length: int) -> BitStream:
            return generate_stream(seed, root, b"rs%04d" % trial, length)

    results: dict[str, list[TestResult]] = {name: [] for name in ALL_TESTS}

    def record(tested: list[TestResult]) -> None:
        for trial_results, result in zip(results.values(), tested):
            trial_results.append(result)

    if tuple(ALL_TESTS.items()) != _OWN_TESTS:
        for trial in range(trials):
            record(_test_trial(_stream(stream_factory(trial, n_bits), name), alpha))
        return RandomnessReport(n_bits=n_bits, trials=trials, alpha=alpha, results=results)

    # imported on the first call: a process that loads this module and runs
    # no battery, as the benchmark's channel workloads do, loads neither
    import multiprocessing
    import signal

    # forked, not spawned: the worker starts in milliseconds with the caller's
    # imports, where a spawned one would import NumPy again on every call
    fork = multiprocessing.get_context("fork")
    # not a ProcessPoolExecutor: its threads slow the draw, and it loses a dead worker's exit code
    caller, worker_end = fork.Pipe()
    worker = fork.Process(target=_test_trials, args=(worker_end, caller, alpha))
    # the worker is born with SIGINT blocked and keeps it so: an interrupt is
    # the caller's, which then closes the worker's input
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        worker.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)
    worker_end.close()

    def collect() -> None:
        try:
            tested = caller.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(f"battery worker exited with code {worker.exitcode}") from None
        if isinstance(tested, tuple):  # what a test raised, and where in the worker
            exc, where = tested
            raise exc from _WorkerTraceback(where)
        record(tested)

    try:
        for trial in range(trials):
            stream = _stream(stream_factory(trial, n_bits), name)
            caller.send((stream.packed.tobytes(), len(stream)))
            if trial:
                collect()  # the trial before, tested while this one was drawn
        collect()
    finally:
        caller.close()  # the worker reads the end of its input and exits
        worker.join()
    return RandomnessReport(n_bits=n_bits, trials=trials, alpha=alpha, results=results)


class _WorkerTraceback(Exception):
    """The worker's traceback of an exception raised again in the caller."""


def _test_trials(conn, caller, alpha: float) -> None:
    """The worker: test each stream the caller sends, until it closes its end."""
    caller.close()  # else the worker would hold the caller's end open itself
    try:
        while True:
            packed, n_bits = conn.recv()
            try:
                tested = _test_trial(BitStream.from_bytes(packed, n_bits), alpha)
            except Exception as exc:
                import traceback

                tested = exc, "".join(traceback.format_exception(exc))
            conn.send(tested)
    except (EOFError, OSError):  # the caller is done, or gone
        pass


def _test_trial(stream: BitStream, alpha: float) -> list[TestResult]:
    """Every test of ``ALL_TESTS`` on one stream, in table order."""
    return [test(stream, alpha=alpha) for test in ALL_TESTS.values()]
