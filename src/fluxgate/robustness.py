"""Pulse distortion (Erf smoothing) and additive-noise stress tests.

First-order control-electronics distortion rounds each programmed step of
a piecewise-constant sequence into an error-function ramp.  Each segment
boundary carries an identical ramp window of length ``t_ramp`` centred on
the boundary; with local time tau measured from the window start,

    w(tau) = (w_i + w_{i+1})/2 + (w_{i+1} - w_i)/2 * Erf((tau - t_ramp/2)/(sqrt(2) sigma))

with sigma = t_ramp / (4 sqrt(2)), so the waveform crosses the exact
midpoint at the boundary itself and holds the segment value outside the
window.  Centring keeps the distorted pulse aligned with the programmed
one (a pure smearing, no net time shift), which also makes the fidelity
penalty grow with the ramp length.

Noise robustness is probed by adding i.i.d. uniform(-1, 1) draws, scaled
by an amplitude in MHz, to every (qubit, segment) detuning and averaging
the resulting gate fidelities; noisy samples deliberately skip the
design-constraint checks (noise models hardware, not design).  A sweep
never builds a schedule or a waveform per sample: it scores the samples in
chunks, each one stack of absolute frequencies whose runs are found in one
pass and evolved and scored as one batch, with the bits each sample gets
alone.
"""

import logging
import math
from dataclasses import dataclass
from itertools import chain, islice, product

import numpy as np

from .errors import EvolutionError, _check_number
from .fidelity import _Scorer, controlled_phase_ideal, score_waveform
from .propagator import TrotterConfig, _schedule_runs
from .pulses import PiecewiseConstantWaveform, Waveform

__all__ = [
    "SmoothingParams",
    "SmoothedWaveform",
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
    """Ramp length in ns; the Erf width sigma is t_ramp / (4 sqrt(2))."""

    t_ramp: float = 1.0

    def __post_init__(self):
        _check_number("t_ramp", self.t_ramp, "positive")

    @property
    def sigma(self):
        return self.t_ramp / (4.0 * math.sqrt(2.0))


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


@dataclass(frozen=True)
class DistortionReport:
    baseline_fidelity: float
    smoothed_fidelity: float

    @property
    def delta(self):
        return self.baseline_fidelity - self.smoothed_fidelity


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
        for a in self.amplitudes_mhz:
            _check_number("amplitudes", a)
        if any(a < 0 for a in self.amplitudes_mhz):
            raise ValueError("amplitudes must be >= 0")
        for name in ("samples", "seed"):
            _check_number(name, getattr(self, name), "integer")
        _check_number("seed", self.seed, "non-negative")  # numpy's rule
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
    """The generator of one noise sample: what ``default_rng`` returns for
    the sample's SeedSequence, built without its dispatch."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, amplitude_index, sample_index])))


# Step unitaries held per chunk of noise samples, in bytes.  It bounds the
# memory of a sweep whatever the number of samples: a chunk's Hamiltonians,
# step unitaries and products take a few times this much.
_CHUNK_BYTES = 1 << 19


def noise_sweep(schedule, device, config=NoiseSweepConfig(),
                trotter=TrotterConfig(), target=None):
    """Mean gate fidelity under uniform random detuning noise.

    For each amplitude A, every sample adds A * uniform(-1, 1) (MHz,
    converted to GHz) independently to each (qubit, segment) detuning,
    evolves, and scores the compensated gate fidelity; singular noisy
    samples score 0 and are counted per amplitude in the report's
    ``singular_counts`` (the CLI's CSV column ``singular``).  The first
    singular sample is logged as a warning, later ones at debug level.
    Per-sample seeds derive deterministically from (master seed, amplitude
    index, sample index), so repeated sweeps are bit-identical.  At
    amplitude 0 every sample reproduces the baseline exactly and the
    reported mean equals it bit-for-bit.

    The baseline and the samples, in that order, are scored in chunks of
    consecutive members, so memory stays bounded whatever
    ``config.samples`` is.  A chunk is one (P, n_qubits, n_segments) stack
    of absolute frequencies, ``references + (detunings + noise)``; the runs
    of all its members are found in one pass over the stack, evolved as
    one batch and scored as one stack.  A member scores exactly as its
    PiecewiseConstantWaveform does alone through
    :func:`~fluxgate.fidelity.score_waveform`.

    Raises
    ------
    EvolutionError
        If the noiseless pulse itself crosses a resonator pole, as
        :func:`~fluxgate.fidelity.score_waveform` does for it.
    """
    if target is None:
        target = controlled_phase_ideal(device.n_transmons)
    shape = schedule.detunings.shape
    references = np.asarray(schedule.search_references)[:, None]
    scales = [amp * MHZ_TO_GHZ for amp in config.amplitudes_mhz]
    # A member has at most one run per segment and one per step; one that
    # takes no step is one identity matrix.
    most_runs = max(1, min(shape[1], trotter.n_steps(schedule.duration)))
    scorer = _Scorer(device, trotter, target)
    budget = max(1, _CHUNK_BYTES // (16 * scorer.template.dim ** 2))
    per_chunk = -(-budget // most_runs)

    def scored():
        # None is the noiseless pulse; (a, s) is sample s of amplitude a.
        members = chain([None], product(range(len(scales)),
                                        range(config.samples)))
        while chunk := list(islice(members, per_chunk)):
            noise = np.zeros((len(chunk), *shape))
            scale = np.zeros(len(chunk))
            for i, member in enumerate(chunk):
                if member is not None:
                    a_idx, s_idx = member
                    scale[i] = scales[a_idx]
                    noise[i] = _sample_rng(config.seed, a_idx, s_idx).uniform(
                        -1.0, 1.0, size=shape)
            frequencies = references + (
                schedule.detunings + scale[:, None, None] * noise)
            if chunk[0] is None:
                # Exactly the pulse's own: adding a zero turns a -0.0
                # detuning into +0.0, which a -0.0 reference would keep.
                frequencies[0] = schedule.absolute_frequencies()
            yield from scorer.score_runs(_schedule_runs(
                frequencies, schedule.segment_duration, trotter))

    results = scored()
    first = next(results)
    if isinstance(first, EvolutionError):
        raise first
    baseline = first.fidelity
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
