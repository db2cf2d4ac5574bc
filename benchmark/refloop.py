"""Reference loops that calibrate timed slices against the host's speed.

The host's speed drifts over tens of seconds (a fixed ``hmac.digest`` loop
has been seen anywhere from 250k to 500k calls/s), so a raw rate from one
run says as much about the machine as about the program. Each workload
therefore runs in short slices, and the same thread runs a fixed reference
loop between slices. A slice's raw figure is scaled by

    nominal reference rate / mean of the reference rates on either side

which turns "seconds on this host right now" into "seconds on a host that
runs the reference at its nominal rate". The loops live here, use only
stdlib or numpy code, and must do the same kind of work as the workload
they calibrate: a 64-byte ``hmac.digest`` loop for the channel workloads,
a numpy ``bincount`` pass for the battery.
"""

from __future__ import annotations

import hmac
import statistics
import time

import numpy as np

# Fixed for the life of the benchmark: changing either rescales every
# calibrated figure and breaks comparison with earlier runs.
NOMINAL_HMAC_PER_S = 280_000.0
NOMINAL_BINCOUNT_PER_S = 1300.0


class Reference:
    """One fixed loop; ``rate()`` runs it once and returns units per second."""

    def __init__(self, name: str, nominal: float, loop, units: int):
        self.name = name
        self.nominal = nominal
        self._loop = loop
        self._units = units

    def rate(self) -> float:
        start = time.perf_counter()
        self._loop()
        return self._units / (time.perf_counter() - start)


def hmac_reference(calls: int = 2000) -> Reference:
    """``calls`` HMAC-SHA-256 digests of a 64-byte message, about 7 ms."""
    key = bytes(range(32))
    msg = bytes(range(64))
    digest = hmac.digest

    def loop():
        for _ in range(calls):
            digest(key, msg, "sha256")

    return Reference("hmac-64B", NOMINAL_HMAC_PER_S, loop, calls)


def bincount_reference(passes: int = 4) -> Reference:
    """``passes`` 16-bit ``np.bincount`` passes over 2^18 values, about 10 ms."""
    values = np.random.default_rng(0).integers(0, 1 << 16, 1 << 18)

    def loop():
        for _ in range(passes):
            np.bincount(values, minlength=1 << 16)

    return Reference("bincount-16bit", NOMINAL_BINCOUNT_PER_S, loop, passes)


class Slicer:
    """Brackets each timed slice with reference measurements.

    Call ``mark()`` right after a slice ends: it measures the reference
    again and returns the slice's mark. ``scale(mark)`` is the slice's
    calibration factor, taken against the median reference rate of the
    three measurements before the slice and the three after it, so one
    disturbed reference measurement does not skew a slice. Callers keep
    raw and calibrated figures side by side, so drift stays visible.
    """

    WINDOW = 3

    def __init__(self, reference: Reference):
        self.reference = reference
        self.rates = [reference.rate()]

    def mark(self) -> int:
        self.rates.append(self.reference.rate())
        return len(self.rates) - 1

    def latest(self) -> int:
        """Mark of the last reference measurement, for work done since."""
        return len(self.rates) - 1

    def scale(self, mark: int) -> float:
        window = self.rates[max(0, mark - self.WINDOW) : mark + self.WINDOW]
        return self.reference.nominal / statistics.median(window)
