"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same single-threaded work can take
anywhere from 1x to 1.8x as long from one minute to the next, which swamps
any change worth measuring.  So the measured phase is interleaved with a
fixed calibration kernel that does not touch fluxgate and does the same
kind of work as the workload: "chain" (a frozen plain-numpy miniature of
one scoring-chain evaluation) or "products" (64x64 complex products, like
the density-matrix steps of open-system tomography).  Every timing is
rescaled to a reference speed at which one kernel run takes its reference
time from KERNELS:

    calibrated = raw * reference kernel time / (kernel time measured nearby)

so it reads as the time the work would take on that reference machine.
Raw timings are reported alongside.
"""

import bisect
import math
import time
from statistics import median

import numpy as np

INTERVAL_S = 0.1  # longest stretch of work between two calibrations
KERNEL_REPEATS = 3
SMOOTHING_S = 0.2  # calibrations within this distance of a timing are pooled

_rng = np.random.default_rng(20190803)
_M = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_OCCUPATIONS = _rng.integers(0, 3, size=(20, 3))
_ROWS = _rng.integers(0, 20, size=30)
_COLS = _rng.integers(0, 20, size=30)
_BITS = (np.arange(8)[:, None] >> np.arange(2, -1, -1)[None, :]) & 1


def _chain():
    """A frozen miniature of one scoring-chain evaluation: three segments of
    20-state Hamiltonian assembly, eigh and product, then an 8x8 projection
    and a phase-refinement loop (plain numpy, no fluxgate)."""
    u = np.eye(20, dtype=complex)
    levels = np.arange(4)
    for segment in range(3):
        freqs = np.array([5.6 + 0.01 * segment, 6.0, 6.4])
        table = np.empty((3, 4))
        for k in range(3):
            w = levels * freqs[k] - 0.15 * (levels - 1) * levels
            w[1:] += levels[1:] * 0.04 / (freqs[k] - 8.0 - 0.3 * (levels[1:] - 1))
            table[k] = w
        h = np.zeros((20, 20), dtype=complex)
        np.fill_diagonal(h, 2 * np.pi * table[np.arange(3), _OCCUPATIONS].sum(axis=1))
        amps = 0.01 * np.sqrt(np.arange(1, 31))
        h[_ROWS, _COLS] += amps
        h[_COLS, _ROWS] += amps
        h = 0.5 * (h + h.conj().T)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w)) @ v.conj().T @ u
    c = np.diagonal(u[:8, :8])
    theta = np.zeros(3)
    for _ in range(4):
        for k in range(3):
            terms = c * np.exp(-1j * (_BITS @ theta))
            on = _BITS[:, k] == 1
            a = terms[~on].sum()
            b = (terms[on] * np.exp(1j * theta[k])).sum()
            theta[k] = float(np.angle(b) - np.angle(a))
    return float(theta.sum())


def _products():
    """Twenty 64x64 complex matrix products."""
    acc = 0.0
    for _ in range(20):
        acc += float(abs((_M @ _M)[0, 0]))
    return acc


# name -> (kernel, its run time on the reference machine in seconds)
KERNELS = {"chain": (_chain, 0.001), "products": (_products, 0.001)}


def kernel_seconds(kind):
    """Wall time of one run of a fixed calibration kernel."""
    t = time.perf_counter()
    acc = KERNELS[kind][0]()
    elapsed = time.perf_counter() - t
    if not np.isfinite(acc):
        raise FloatingPointError("calibration kernel produced a non-finite value")
    return elapsed


class Timeline:
    """Calibration points taken between units of work, and rescaling.

    A point is the fastest of KERNEL_REPEATS kernel runs, which filters out
    one-off interruptions; a timing is rescaled by the median of the points
    within SMOOTHING_S of its midpoint (at least the nearest point on each
    side), which averages out the kernel's own jitter.
    """

    def __init__(self, kind):
        self.kind = kind
        self.reference = KERNELS[kind][1]
        self.points = []  # (midpoint, kernel seconds, start, end)

    def calibrate(self):
        start = time.perf_counter()
        kernel = min(kernel_seconds(self.kind) for _ in range(KERNEL_REPEATS))
        end = time.perf_counter()
        self.points.append((0.5 * (start + end), kernel, start, end))
        return kernel

    def tick(self):
        """Calibrate if the last calibration is INTERVAL_S or more ago."""
        if not self.points or time.perf_counter() - self.points[-1][3] >= INTERVAL_S:
            self.calibrate()

    def factor_at(self, t):
        """Reference kernel time over the kernel time measured around t."""
        mids = [p[0] for p in self.points]
        after = bisect.bisect_left(mids, t)
        lo = min(bisect.bisect_left(mids, t - SMOOTHING_S), max(after - 1, 0))
        hi = max(bisect.bisect_right(mids, t + SMOOTHING_S), after + 1)
        return self.reference / median(p[1] for p in self.points[lo:hi])

    def rescale(self, start, duration):
        return duration * self.factor_at(start + 0.5 * duration)

    def work_seconds(self, start=-math.inf, end=math.inf):
        """(raw, calibrated) seconds of work between start and end, that is
        between calibrations, calibration time excluded."""
        raw = calibrated = 0.0
        for (_m0, _k0, _s0, e0), (_m1, _k1, s1, _e1) in zip(self.points,
                                                           self.points[1:]):
            lo, hi = max(e0, start), min(s1, end)
            if hi > lo:
                raw += hi - lo
                calibrated += self.rescale(lo, hi - lo)
        return raw, calibrated

    def kernel_median(self):
        return median(p[1] for p in self.points)
