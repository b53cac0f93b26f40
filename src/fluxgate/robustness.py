"""Pulse distortion (Erf smoothing) and additive-noise stress tests.

First-order control-electronics distortion rounds each programmed step of
a piecewise-constant sequence into an error-function ramp.  Each segment
boundary carries an identical ramp window of length ``t_ramp`` centred on
the boundary; with local time tau measured from the window start,

    w(tau) = (w_i + w_{i+1})/2 + (w_{i+1} - w_i)/2 * Erf((tau - t_ramp/2)/(sqrt(2) sigma))

with sigma = t_ramp / (4 sqrt(2)) unless overridden, so the waveform
crosses the exact midpoint at the boundary itself and holds the segment
value outside the window.  Centring keeps the distorted pulse aligned
with the programmed one (a pure smearing, no net time shift), which also
makes the fidelity penalty grow with the ramp length.

Noise robustness is probed by adding i.i.d. uniform(-1, 1) draws, scaled
by an amplitude in MHz, to every (qubit, segment) detuning and averaging
the resulting gate fidelities; noisy samples deliberately skip the
design-constraint checks (noise models hardware, not design).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvolutionError
from .fidelity import _score_waveforms, controlled_phase_ideal, score_waveform
from .propagator import TrotterConfig
from .pulses import PiecewiseConstantWaveform, Waveform

__all__ = [
    "SmoothingParams",
    "SmoothedWaveform",
    "smooth_waveform",
    "DistortionReport",
    "distortion_report",
    "NoiseSweepConfig",
    "RobustnessReport",
    "noise_sweep",
]

logger = logging.getLogger(__name__)

MHZ_TO_GHZ = 1e-3


@dataclass(frozen=True)
class SmoothingParams:
    """Ramp length in ns; sigma defaults to t_ramp / (4 sqrt(2))."""

    t_ramp: float = 1.0
    sigma: float = None

    def __post_init__(self):
        if self.t_ramp <= 0:
            raise ValueError("t_ramp must be positive")
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.t_ramp / (4.0 * math.sqrt(2.0)))
        elif self.sigma <= 0:
            raise ValueError("sigma must be positive")


class SmoothedWaveform(Waveform):
    """Erf-reshaped schedule: each boundary transition is a smooth ramp."""

    def __init__(self, schedule, params=SmoothingParams()):
        if params.t_ramp > schedule.segment_duration:
            raise ValueError(
                f"t_ramp {params.t_ramp} ns exceeds the segment duration "
                f"{schedule.segment_duration} ns"
            )
        self.schedule = schedule
        self.params = params
        self.duration = schedule.duration
        self._absolute = schedule.absolute_frequencies()

    def frequencies(self, t):
        sched = self.schedule
        s = sched.segment_index(t)
        here = self._absolute[:, s]
        half = 0.5 * self.params.t_ramp
        pos = t - s * sched.segment_duration
        if pos < half and s > 0:
            boundary = s * sched.segment_duration
            prev = self._absolute[:, s - 1]
        elif pos > sched.segment_duration - half and s < sched.n_segments - 1:
            boundary = (s + 1) * sched.segment_duration
            prev, here = here, self._absolute[:, s + 1]
        else:
            return here
        arg = (t - boundary) / (math.sqrt(2.0) * self.params.sigma)
        return 0.5 * (prev + here) + 0.5 * (here - prev) * math.erf(arg)


def smooth_waveform(schedule, params=SmoothingParams()):
    """The Erf-distorted waveform of a schedule (continuous in time)."""
    return SmoothedWaveform(schedule, params)


@dataclass(frozen=True)
class DistortionReport:
    baseline_fidelity: float
    smoothed_fidelity: float

    @property
    def delta(self):
        return self.baseline_fidelity - self.smoothed_fidelity

    def to_json(self):
        return {
            "baseline_fidelity": self.baseline_fidelity,
            "smoothed_fidelity": self.smoothed_fidelity,
            "delta": self.delta,
        }


def distortion_report(schedule, device, trotter=TrotterConfig(), target=None,
                      params=SmoothingParams()):
    """Gate fidelity before and after Erf smoothing of the same schedule.

    Both evaluations use the same Trotter step; the smoothed run simply
    samples the reshaped curve.  Smoothing a constant schedule is the
    identity, so its delta is exactly zero.
    """
    if target is None:
        target = controlled_phase_ideal(device.n_transmons)
    baseline = score_waveform(
        device, PiecewiseConstantWaveform(schedule), target, trotter
    )
    smoothed = score_waveform(
        device, SmoothedWaveform(schedule, params), target, trotter
    )
    return DistortionReport(baseline.fidelity, smoothed.fidelity)


@dataclass(frozen=True)
class NoiseSweepConfig:
    """Amplitude grid (MHz), samples per amplitude, and the master seed."""

    amplitudes_mhz: tuple = tuple(i / 10 for i in range(101))
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes_mhz", tuple(float(a) for a in self.amplitudes_mhz)
        )
        if not self.amplitudes_mhz:
            raise ValueError("amplitudes must not be empty")
        if any(a < 0 for a in self.amplitudes_mhz):
            raise ValueError("amplitudes must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class RobustnessReport:
    """Noiseless baseline plus the mean-fidelity curve over amplitudes.

    ``singular_counts`` holds, per amplitude, how many samples hit a
    resonator pole (and scored 0).
    """

    baseline_fidelity: float
    amplitudes_mhz: tuple
    mean_fidelities: tuple
    std_errors: tuple
    samples: int
    singular_counts: tuple

    def rows(self):
        return list(
            zip(self.amplitudes_mhz, self.mean_fidelities, self.std_errors)
        )


def _sample_rng(seed, amplitude_index, sample_index):
    return np.random.default_rng(
        np.random.SeedSequence([seed, amplitude_index, sample_index])
    )


def noise_sweep(schedule, device, config=NoiseSweepConfig(),
                trotter=TrotterConfig(), target=None):
    """Mean gate fidelity under uniform random detuning noise.

    For each amplitude A, every sample adds A * uniform(-1, 1) (MHz,
    converted to GHz) independently to each (qubit, segment) detuning,
    evolves, and scores the compensated gate fidelity; singular evolutions
    score 0 and are counted per amplitude in the report's
    ``singular_counts`` (the CLI's CSV column ``singular``).  The first
    singular sample is logged as a warning, later ones at debug level.
    Per-sample seeds derive deterministically from (master seed, amplitude
    index, sample index), so repeated sweeps are bit-identical.  At
    amplitude 0 every sample reproduces the baseline exactly and the
    reported mean equals it bit-for-bit.

    The baseline and the samples, in that order, are scored in chunks of
    consecutive members, each evolved as one batch, so memory stays
    bounded whatever ``config.samples`` is; a member scores exactly as it
    does alone through :func:`~fluxgate.fidelity.score_waveform`.
    """
    if target is None:
        target = controlled_phase_ideal(device.n_transmons)
    shape = schedule.detunings.shape

    def waveforms():
        yield PiecewiseConstantWaveform(schedule)
        for a_idx, amp in enumerate(config.amplitudes_mhz):
            amp_ghz = amp * MHZ_TO_GHZ
            for s_idx in range(config.samples):
                rng = _sample_rng(config.seed, a_idx, s_idx)
                noise = amp_ghz * rng.uniform(-1.0, 1.0, size=shape)
                yield PiecewiseConstantWaveform(
                    schedule.with_detunings(schedule.detunings + noise)
                )

    results = _score_waveforms(device, waveforms(), target, trotter)
    first = next(results)
    baseline = 0.0 if isinstance(first, EvolutionError) else first.fidelity
    means, errors, singular = [], [], []
    failures = 0  # singular samples so far, over all amplitudes
    for a_idx, amp in enumerate(config.amplitudes_mhz):
        fids = np.zeros(config.samples)
        before = failures
        for s_idx, result in zip(range(config.samples), results):
            if isinstance(result, EvolutionError):
                log = logger.debug if failures else logger.warning
                log("noise sample %d of amplitude %d (%s MHz) is singular at "
                    "t=%s ns (transmon %s), scoring 0", s_idx, a_idx, amp,
                    result.time, result.transmon)
                failures += 1
            else:
                fids[s_idx] = result.fidelity
        singular.append(failures - before)
        if (fids == fids[0]).all():
            # The mean of identical values is that value; avoids FP drift.
            means.append(float(fids[0]))
            errors.append(0.0)
        else:
            means.append(float(fids.mean()))
            errors.append(float(fids.std(ddof=1) / math.sqrt(config.samples)))
    return RobustnessReport(
        baseline, config.amplitudes_mhz, tuple(means), tuple(errors),
        config.samples, tuple(singular),
    )
