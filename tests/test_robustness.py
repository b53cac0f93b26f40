"""Robustness tests: Erf ramp shape, distortion scoring, and the
deterministic noise sweep statistics."""

import logging
import math

import numpy as np
import pytest

from fluxgate.errors import EvolutionError, SingularityError
from fluxgate.fidelity import controlled_phase_ideal
from fluxgate.profiles import (
    TOY_REFERENCES,
    load_toy_pulse,
    toy_two_transmon_chain,
)
from fluxgate.propagator import evolve
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule
from fluxgate.robustness import (
    NoiseSweepConfig,
    SmoothingParams,
    SmoothedWaveform,
    distortion_report,
    noise_sweep,
    smooth_waveform,
)


class TestSmoothingParams:
    def test_default_sigma_relation(self):
        p = SmoothingParams(t_ramp=1.0)
        assert p.sigma == pytest.approx(1.0 / (4 * math.sqrt(2)), rel=1e-12)

    def test_rejects_non_positive_ramp(self):
        with pytest.raises(ValueError):
            SmoothingParams(t_ramp=0.0)


class TestSmoothedWaveform:
    def setup_method(self):
        det = np.array([[0.0, 0.2, 0.2, -0.1]])
        self.sched = PulseSchedule(det, 1.0, (5.0,))
        self.wf = SmoothedWaveform(self.sched)

    def test_constant_steps_stay_constant(self):
        # Between two equal values the midpoint formula is the value itself.
        for t in (1.6, 2.0, 2.4):
            assert self.wf.frequencies(t)[0] == pytest.approx(5.2, abs=1e-12)

    def test_boundary_is_ramp_midpoint(self):
        # The Erf argument vanishes exactly on the segment boundary.
        v = self.wf.frequencies(1.0)[0]
        assert v == pytest.approx((5.0 + 5.2) / 2, abs=1e-12)

    def test_ramp_end_lands_near_next_value(self):
        # Half a ramp past the boundary the residual is (1 - erf(2))/2 of
        # the step.
        v = self.wf.frequencies(1.5 - 1e-12)[0]
        residual = 0.2 * (1 - math.erf(2.0)) / 2
        assert abs(v - 5.2) == pytest.approx(residual, abs=1e-6)
        assert abs(v - 5.2) < 1e-3 * 0.2 * 5  # within 0.5% of the step

    def test_first_and_last_half_segments_hold(self):
        assert self.wf.frequencies(0.0)[0] == pytest.approx(5.0, abs=1e-12)
        assert self.wf.frequencies(0.4)[0] == pytest.approx(5.0, abs=1e-12)
        assert self.wf.frequencies(3.7)[0] == pytest.approx(4.9, abs=1e-12)
        assert self.wf.frequencies(4.0)[0] == pytest.approx(4.9, abs=1e-12)

    def test_ramp_longer_than_segment_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            smooth_waveform(self.sched, SmoothingParams(t_ramp=2.0))

    def test_continuity_on_fine_grid(self):
        # Max jump over a 1 ps grid stays below 1 MHz for the learned pulse.
        sched = load_toy_pulse()
        wf = SmoothedWaveform(sched)
        ts = np.arange(0.0, sched.duration, 0.001)
        values = np.array([wf.frequencies(t) for t in ts])
        jumps = np.abs(np.diff(values, axis=0)).max()
        assert jumps < 1e-3  # GHz

    def test_partial_ramp_holds_outside_window(self):
        wf = SmoothedWaveform(
            PulseSchedule(np.array([[0.0, 0.2]]), 2.0, (5.0,)),
            SmoothingParams(t_ramp=1.0),
        )
        assert wf.frequencies(1.2)[0] == 5.0
        assert wf.frequencies(2.0)[0] == pytest.approx(5.1, abs=1e-12)
        assert wf.frequencies(2.5 + 1e-9)[0] == 5.2
        assert wf.frequencies(3.9)[0] == 5.2


class TestDistortionReport:
    def test_constant_schedule_zero_delta(self):
        dev = toy_two_transmon_chain()
        sched = PulseSchedule(np.full((2, 10), 0.05), 1.0, TOY_REFERENCES)
        rep = distortion_report(sched, dev)
        assert rep.delta == 0.0
        assert rep.baseline_fidelity == rep.smoothed_fidelity

    def test_learned_pulse_smoothing_costs_fidelity(self):
        dev = toy_two_transmon_chain()
        rep = distortion_report(load_toy_pulse(), dev)
        assert rep.baseline_fidelity > 0.999
        assert 0.0 < rep.delta < 0.2

    def test_doubling_ramp_increases_delta(self):
        # Regression expectation on the learned pulse, not a theorem: a
        # slower ramp distorts the pulse more.
        dev = toy_two_transmon_chain()
        sched = load_toy_pulse()
        fast = distortion_report(sched, dev, params=SmoothingParams(t_ramp=0.5))
        slow = distortion_report(sched, dev, params=SmoothingParams(t_ramp=1.0))
        assert slow.delta > fast.delta


class TestNoiseSweep:
    def setup_method(self):
        self.dev = toy_two_transmon_chain()
        self.sched = load_toy_pulse()
        self.target = controlled_phase_ideal(2)

    def test_amplitude_zero_is_baseline_bit_exact(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0,), samples=7, seed=3)
        rep = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert rep.mean_fidelities[0] == rep.baseline_fidelity
        assert rep.std_errors[0] == 0.0

    def test_bit_reproducible_under_seed(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0, 5.0), samples=12, seed=11)
        a = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        b = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert a.mean_fidelities == b.mean_fidelities
        assert a.std_errors == b.std_errors

    def test_noise_degrades_fidelity(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0, 8.0), samples=25, seed=0)
        rep = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert rep.mean_fidelities[1] < rep.mean_fidelities[0]

    def test_std_error_definition(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(4.0,), samples=9, seed=5)
        rep = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert rep.std_errors[0] > 0.0

    def test_single_sample_zero_error(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(4.0,), samples=1, seed=5)
        rep = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert rep.std_errors[0] == 0.0

    def test_rows_align(self):
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0, 1.0, 2.0), samples=3, seed=1)
        rep = noise_sweep(self.sched, self.dev, cfg, target=self.target)
        assert len(rep.rows()) == 3
        assert rep.samples == 3

    def test_singular_samples_counted(self, caplog):
        # Qubit M sits 0.5 MHz outside the 7.8 GHz resonator's 0.1 GHz
        # dispersive floor in its second segment, so 2 MHz noise pushes a
        # sample into the pole whenever that draw exceeds +0.5 MHz.
        sched = PulseSchedule(np.array([[0.0, 0.0], [0.0, 1.6995]]), 1.0,
                              TOY_REFERENCES)
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0, 2.0), samples=16, seed=4)
        with caplog.at_level(logging.DEBUG, logger="fluxgate.robustness"):
            rep = noise_sweep(sched, self.dev, cfg, target=self.target)

        def singular(a_idx, amp_mhz, s_idx):
            rng = np.random.default_rng(np.random.SeedSequence([4, a_idx, s_idx]))
            noise = amp_mhz * 1e-3 * rng.uniform(-1.0, 1.0, size=(2, 2))
            noisy = sched.with_detunings(sched.detunings + noise)
            try:
                evolve(self.dev, PiecewiseConstantWaveform(noisy))
            except (EvolutionError, SingularityError):
                return True
            return False

        expected = [sum(singular(a, amp, s) for s in range(16))
                    for a, amp in enumerate(cfg.amplitudes_mhz)]
        assert rep.singular_counts == tuple(expected)
        assert rep.singular_counts[0] == 0
        assert 0 < rep.singular_counts[1] < 16
        assert rep.baseline_fidelity > 0.0
        # The first singular sample warns with its indices and diagnosis;
        # the others log at debug level.
        first = next(s for s in range(16) if singular(1, 2.0, s))
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"noise sample {first} of amplitude 1 ")
        assert "t=1.05 ns (transmon 1)" in warnings[0]
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == expected[1] - 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoiseSweepConfig(amplitudes_mhz=(-1.0,))
        with pytest.raises(ValueError):
            NoiseSweepConfig(samples=0)
        with pytest.raises(ValueError):
            NoiseSweepConfig(amplitudes_mhz=())
