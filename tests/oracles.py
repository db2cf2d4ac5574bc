"""Independent reference implementations for cross-checking the package.

Everything here is deliberately written against the production code
grain: HMAC from raw ipad/opad padding instead of the hmac module,
statistics from pure-Python loops and dicts instead of numpy, special
functions from mpmath instead of the package's closed forms and libm.
Agreement between two implementations that share nothing but the
published definitions is the point.

HMAC correctness is anchored to the RFC 4231 test vectors before the
chain oracle built on it is trusted.
"""

from __future__ import annotations

import hashlib
import math
import struct

import mpmath

mpmath.mp.dps = 30

_BLOCK = 64


def hmac_sha256_ref(key: bytes, message: bytes) -> bytes:
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key + b"\x00" * (_BLOCK - len(key))
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


# RFC 4231 section 4 test cases for HMAC-SHA-256. Case 5 is published
# truncated to 128 bits; trunc gives the comparable prefix length.
RFC4231_CASES = (
    {
        "key": b"\x0b" * 20,
        "data": b"Hi There",
        "mac": bytes.fromhex(
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        ),
        "trunc": 32,
    },
    {
        "key": b"Jefe",
        "data": b"what do ya want for nothing?",
        "mac": bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        ),
        "trunc": 32,
    },
    {
        "key": b"\xaa" * 20,
        "data": b"\xdd" * 50,
        "mac": bytes.fromhex(
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        ),
        "trunc": 32,
    },
    {
        "key": bytes(range(0x01, 0x1A)),
        "data": b"\xcd" * 50,
        "mac": bytes.fromhex(
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        ),
        "trunc": 32,
    },
    {
        "key": b"\x0c" * 20,
        "data": b"Test With Truncation",
        "mac": bytes.fromhex("a3b6167473100ee06e0c796c2955552b"),
        "trunc": 16,
    },
    {
        "key": b"\xaa" * 131,
        "data": b"Test Using Larger Than Block-Size Key - Hash Key First",
        "mac": bytes.fromhex(
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        ),
        "trunc": 32,
    },
    {
        "key": b"\xaa" * 131,
        "data": (
            b"This is a test using a larger than block-size key and a larger "
            b"than block-size data. The key needs to be hashed before being "
            b"used by the HMAC algorithm."
        ),
        "mac": bytes.fromhex(
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        ),
        "trunc": 32,
    },
)


# -- chain oracle ------------------------------------------------------


def chain_values_ref(seed: bytes, root: bytes, label: bytes, steps: int) -> list[bytes]:
    """value_0 .. value_steps computed straight from the recurrence."""
    values = [hmac_sha256_ref(seed, root + label)]
    for i in range(steps):
        values.append(hmac_sha256_ref(values[-1], seed + struct.pack(">Q", i)))
    return values


def derive_key_ref(value: bytes, label: bytes, out_len: int) -> bytes:
    return hmac_sha256_ref(value, label)[:out_len]


def stream_bits_ref(seed: bytes, root: bytes, label: bytes, n_bits: int) -> list[int]:
    """Bit expansion of successive chain values, MSB first."""
    steps = -(-n_bits // 256)
    raw = b"".join(chain_values_ref(seed, root, label, steps)[1:])
    bits = []
    for byte in raw:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return bits[:n_bits]


# -- special functions -------------------------------------------------


def erfc_ref(x: float) -> float:
    return float(mpmath.erfc(x))


def igamc_ref(a: float, x: float) -> float:
    return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def uniformity_p_ref(p_values) -> float:
    """SP 800-22 section 4.2.2's P-value_T: the p-values in ten equal bins
    by their exact value, then the chi-square with 9 degrees of freedom."""
    bins = [0] * 10
    for p in p_values:
        bins[min(int(mpmath.floor(mpmath.mpf(p) * 10)), 9)] += 1
    expected = mpmath.mpf(len(p_values)) / 10
    chi_sq = mpmath.fsum((count - expected) ** 2 for count in bins) / expected
    return float(mpmath.gammainc(mpmath.mpf(9) / 2, chi_sq / 2, mpmath.inf, regularized=True))


def _phi_normal(x: float) -> float:
    # mpmath, not the libm erfc that the production normal CDF calls
    return float(mpmath.ncdf(x))


# -- statistical test oracles -----------------------------------------


def monobit_p_ref(bits) -> float:
    n = len(bits)
    s = sum(2 * b - 1 for b in bits)
    return erfc_ref(abs(s) / math.sqrt(n) / math.sqrt(2.0))


def block_frequency_p_ref(bits, block_size: int) -> float:
    n = len(bits)
    n_blocks = n // block_size
    chi = 0.0
    for i in range(n_blocks):
        block = bits[i * block_size : (i + 1) * block_size]
        chi += (sum(block) / block_size - 0.5) ** 2
    chi *= 4.0 * block_size
    return igamc_ref(n_blocks / 2.0, chi / 2.0)


def runs_p_ref(bits) -> float:
    n = len(bits)
    pi = sum(bits) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return erfc_ref(num / den)


_LONGEST_TIERS_REF = (
    (750_000, 10_000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, 4, 9, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
)


def longest_run_p_ref(bits) -> float:
    n = len(bits)
    for min_n, block_size, lo, hi, ref in _LONGEST_TIERS_REF:
        if n >= min_n:
            break
    else:
        raise ValueError("need >= 128 bits")
    n_blocks = n // block_size
    counts = [0] * len(ref)
    for i in range(n_blocks):
        block = bits[i * block_size : (i + 1) * block_size]
        longest = run = 0
        for b in block:
            run = run + 1 if b else 0
            longest = max(longest, run)
        counts[min(max(longest, lo), hi) - lo] += 1
    chi = sum(
        (counts[j] - n_blocks * ref[j]) ** 2 / (n_blocks * ref[j])
        for j in range(len(ref))
    )
    return igamc_ref((len(ref) - 1) / 2.0, chi / 2.0)


def cusum_p_ref(bits, forward: bool = True) -> float:
    seq = list(bits) if forward else list(bits)[::-1]
    s = 0
    z = 0
    for b in seq:
        s += 2 * b - 1
        z = max(z, abs(s))
    n = len(seq)
    sq = math.sqrt(n)
    t1 = sum(
        _phi_normal((4 * k + 1) * z / sq) - _phi_normal((4 * k - 1) * z / sq)
        for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    )
    t2 = sum(
        _phi_normal((4 * k + 3) * z / sq) - _phi_normal((4 * k + 1) * z / sq)
        for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    )
    return min(max(1.0 - t1 + t2, 0.0), 1.0)


def _overlapping_counts_ref(bits, m: int) -> dict[tuple, int]:
    n = len(bits)
    ext = list(bits) + list(bits[: m - 1])
    counts: dict[tuple, int] = {}
    for i in range(n):
        pat = tuple(ext[i : i + m])
        counts[pat] = counts.get(pat, 0) + 1
    return counts


def _phi_ref(bits, m: int) -> float:
    n = len(bits)
    return sum(
        (c / n) * math.log(c / n) for c in _overlapping_counts_ref(bits, m).values()
    )


def approximate_entropy_p_ref(bits, m: int) -> float:
    n = len(bits)
    ap_en = _phi_ref(bits, m) - _phi_ref(bits, m + 1)
    chi = 2.0 * n * (math.log(2.0) - ap_en)
    return igamc_ref(2.0 ** (m - 1), chi / 2.0)


def _psi_sq_ref(bits, m: int) -> float:
    if m < 1:
        return 0.0
    n = len(bits)
    counts = _overlapping_counts_ref(bits, m)
    return (2**m) / n * sum(c * c for c in counts.values()) - n


def serial_p_ref(bits, m: int) -> tuple[float, float]:
    psi_m = _psi_sq_ref(bits, m)
    psi_1 = _psi_sq_ref(bits, m - 1)
    psi_2 = _psi_sq_ref(bits, m - 2)
    d1 = psi_m - psi_1
    d2 = psi_m - 2.0 * psi_1 + psi_2
    return (
        igamc_ref(2.0 ** (m - 2), d1 / 2.0),
        igamc_ref(2.0 ** (m - 3), d2 / 2.0),
    )


# NIST SP 800-22 worked example: the first 100 bits of the binary
# expansion of pi, with published monobit p-value 0.109599.
PI_100_BITS = (
    "1100100100001111110110101010001000100001011010001100001000110100"
    "110001001100011001100010100010111000"
)
PI_100_MONOBIT_P = 0.109599
