"""Robustness tests: Erf ramp shape, distortion scoring, and the
deterministic noise sweep statistics."""

import logging
import math

import numpy as np
import pytest

from fluxgate import robustness
from fluxgate.errors import EvolutionError, SingularityError
from fluxgate.optimizer import ccphase_fitness
from fluxgate.fidelity import (
    _Scorer,
    controlled_phase_ideal,
    fidelity_report,
    score_waveform,
)
from fluxgate.profiles import (
    TOY_REFERENCES,
    load_toy_pulse,
    toy_two_transmon_chain,
)
from fluxgate.propagator import TrotterConfig, evolve
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule, Waveform
from fluxgate.robustness import (
    NoiseSweepConfig,
    SmoothingParams,
    SmoothedWaveform,
    distortion_report,
    noise_sweep,
)


class TestSmoothingParams:
    def test_default_sigma_relation(self):
        p = SmoothingParams(t_ramp=1.0)
        assert p.sigma == pytest.approx(1.0 / (4 * math.sqrt(2)), rel=1e-12)

    def test_rejects_non_positive_ramp(self):
        with pytest.raises(ValueError):
            SmoothingParams(t_ramp=0.0)

    @pytest.mark.parametrize("t_ramp", [math.nan, math.inf])
    def test_rejects_non_finite_ramp(self, t_ramp):
        # A NaN ramp never entered a ramp, so the "smoothed" pulse scored
        # as the unsmoothed one.
        with pytest.raises(ValueError, match="t_ramp must be positive and "
                                             "finite"):
            SmoothingParams(t_ramp=t_ramp)


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
            SmoothedWaveform(self.sched, SmoothingParams(t_ramp=2.0))

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

    def test_pole_crossing_baseline_raises(self):
        # Qubit M detuned by 1.8 GHz in the first segment sits on the
        # 7.8 GHz resonator's pole: the sweep raises the noiseless pulse's
        # own error, as scoring it alone does, not a sweep of zeros.
        det = self.sched.detunings.copy()
        det[1, 0] = 1.8
        sched = self.sched.with_detunings(det)
        with pytest.raises(EvolutionError) as lone:
            evolve(self.dev, PiecewiseConstantWaveform(sched))
        cfg = NoiseSweepConfig(amplitudes_mhz=(0.0, 1.0), samples=3, seed=1)
        with pytest.raises(EvolutionError) as err:
            noise_sweep(sched, self.dev, cfg, target=self.target)
        assert (err.value.time, err.value.transmon) == (0.05, 1)
        assert str(err.value) == str(lone.value)

    @pytest.mark.parametrize("samples", [8.5, math.inf, 2.0, True, "3"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            NoiseSweepConfig(samples=samples)

    def test_negative_seed_rejected(self):
        # numpy refused it at the first sample, naming no field.
        with pytest.raises(ValueError, match="seed must be a non-negative "
                                             "integer, got -1"):
            NoiseSweepConfig(seed=-1)

    def test_sample_rng_draws_as_default_rng(self):
        for seed, a_idx, s_idx in ((0, 0, 0), (3, 1, 7), (11, 100, 9999),
                                   (2 ** 31 - 1, 5, 12)):
            want = np.random.default_rng(
                np.random.SeedSequence([seed, a_idx, s_idx]))
            got = robustness._sample_rng(seed, a_idx, s_idx)
            assert type(got) is type(want)
            assert got.uniform(-1.0, 1.0, size=(3, 50)).tobytes() == \
                want.uniform(-1.0, 1.0, size=(3, 50)).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoiseSweepConfig(amplitudes_mhz=(-1.0,))
        with pytest.raises(ValueError):
            NoiseSweepConfig(samples=0)
        with pytest.raises(ValueError):
            NoiseSweepConfig(amplitudes_mhz=())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"finite, got {bad}"):
                NoiseSweepConfig(amplitudes_mhz=(0.0, bad))


def same_result(got, want):
    """A noise-sweep member's result has the bits of the lone one: the
    fidelity, the phases and the compensated unitary, or the error's
    type, message, time and transmon."""
    assert type(got) is type(want)
    if isinstance(want, EvolutionError):
        return (str(got), got.time, got.transmon) == \
            (str(want), want.time, want.transmon)
    phases = [np.array([r.phases.theta0, *r.phases.qubit_phases])
              for r in (got, want)]
    return (np.float64(got.fidelity).tobytes()
            == np.float64(want.fidelity).tobytes()
            and phases[0].tobytes() == phases[1].tobytes()
            and got.compensated.tobytes() == want.compensated.tobytes())


class TestNoiseStack:
    """A noise sweep finds the runs of a whole chunk from one stack of
    frequencies, and every member scores as its PiecewiseConstantWaveform
    does alone through score_waveform, bit for bit."""

    def setup_method(self):
        self.dev = toy_two_transmon_chain()
        self.target = controlled_phase_ideal(2)

    def sweep(self, monkeypatch, schedule, config, trotter=TrotterConfig()):
        """The report, and per chunk the run counts of its members and
        their results, as the sweep scored them."""
        chunks = []
        score_runs = _Scorer.score_runs

        def recording(scorer, runs):
            results = score_runs(scorer, runs)
            chunks.append(([None if r is None else len(r[1]) for r in runs],
                           results))
            return results

        # Only the sweep's stacks take score_runs; record them there.
        with monkeypatch.context() as patch:
            patch.setattr(_Scorer, "score_runs", recording)
            report = noise_sweep(schedule, self.dev, config, trotter,
                                 target=self.target)
        return report, chunks

    def lone(self, schedule, config, trotter=TrotterConfig(),
             waveform=PiecewiseConstantWaveform):
        """Per member, the noiseless pulse and then every sample drawn as
        the sweep documents it, the result of score_waveform alone."""
        schedules = [schedule]
        for a_idx, amp in enumerate(config.amplitudes_mhz):
            for s_idx in range(config.samples):
                rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, a_idx, s_idx]))
                noise = amp * 1e-3 * rng.uniform(
                    -1.0, 1.0, size=schedule.detunings.shape)
                schedules.append(
                    schedule.with_detunings(schedule.detunings + noise))
        results = []
        for sched in schedules:
            try:
                results.append(score_waveform(self.dev, waveform(sched),
                                              self.target, trotter))
            except EvolutionError as err:
                results.append(err)
        return results

    def assert_matches_lone(self, monkeypatch, schedule, config,
                            trotter=TrotterConfig(),
                            waveform=PiecewiseConstantWaveform):
        report, chunks = self.sweep(monkeypatch, schedule, config, trotter)
        got = [result for _, results in chunks for result in results]
        want = self.lone(schedule, config, trotter, waveform)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_result(g, w)
        assert report.baseline_fidelity == want[0].fidelity
        members = iter(want[1:])
        for a_idx in range(len(config.amplitudes_mhz)):
            results = [next(members) for _ in range(config.samples)]
            assert report.singular_counts[a_idx] == sum(
                isinstance(r, EvolutionError) for r in results)
        return report, chunks

    @pytest.mark.parametrize("merged", [False, True])
    def test_members_match_lone_scores(self, monkeypatch, merged):
        # The toy pulse, and a copy whose segments 3 and 4 are equal: its
        # noiseless and amplitude-0 members have 9 runs and its noisy ones
        # 10, in one chunk.  Its last segment equals its first, so a run
        # must not carry over from one member to the next.
        schedule = load_toy_pulse()
        if merged:
            det = schedule.detunings.copy()
            det[:, 4] = det[:, 3]
            det[:, 9] = det[:, 0]
            schedule = schedule.with_detunings(det)
        config = NoiseSweepConfig(amplitudes_mhz=(0.0, 1.0, 5.0), samples=8,
                                  seed=21)
        report, chunks = self.assert_matches_lone(monkeypatch, schedule,
                                                  config)
        counts, _ = chunks[0]
        assert len(chunks) == 1 and len(counts) == 25
        assert set(counts) == ({9, 10} if merged else {10})
        assert report.mean_fidelities[0] == report.baseline_fidelity

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_pole_crossings_match_lone(self, monkeypatch, chunk_bytes):
        # Qubit M 0.5 MHz outside the 7.8 GHz resonator's floor in its
        # second segment: 2 MHz noise pushes some samples onto the pole.
        # The default chunk holds every member; one of 1 byte holds one.
        if chunk_bytes is not None:
            monkeypatch.setattr(robustness, "_CHUNK_BYTES", chunk_bytes)
        schedule = PulseSchedule(np.array([[0.0, 0.0], [0.0, 1.6995]]), 1.0,
                                 TOY_REFERENCES)
        config = NoiseSweepConfig(amplitudes_mhz=(0.0, 2.0), samples=16,
                                  seed=4)
        report, chunks = self.assert_matches_lone(monkeypatch, schedule,
                                                  config)
        assert 0 < report.singular_counts[1] < 16
        assert len(chunks) == (33 if chunk_bytes else 1)

    def test_zero_segments_score_identities(self, monkeypatch):
        schedule = PulseSchedule(np.zeros((2, 0)), 1.0, TOY_REFERENCES)
        config = NoiseSweepConfig(amplitudes_mhz=(0.0, 3.0), samples=4)
        report, chunks = self.assert_matches_lone(monkeypatch, schedule,
                                                  config)
        identity = fidelity_report(np.eye(4), self.target)
        assert report.baseline_fidelity == identity.fidelity
        assert report.mean_fidelities == (identity.fidelity,) * 2
        assert report.std_errors == (0.0, 0.0)
        for _, results in chunks:
            for result in results:
                assert np.array_equal(result.compensated,
                                      identity.compensated)

    def test_step_not_dividing_segments(self, monkeypatch):
        # 0.4 ns divides the 10 ns pulse but not its 1 ns segments: each
        # step's midpoint picks its segment, as sampling does.
        # A plain Waveform, so score_waveform samples every midpoint.
        class Sampled(Waveform):
            def __init__(self, schedule):
                self.pulse = PiecewiseConstantWaveform(schedule)
                self.duration = schedule.duration

            def frequencies(self, t):
                return self.pulse.frequencies(t)

        schedule = load_toy_pulse()
        config = NoiseSweepConfig(amplitudes_mhz=(0.0, 4.0), samples=6,
                                  seed=8)
        trotter = TrotterConfig(0.4)
        for waveform in (PiecewiseConstantWaveform, Sampled):
            self.assert_matches_lone(monkeypatch, schedule, config, trotter,
                                     waveform)

    def test_chunks_bound_zero_duration_members(self, monkeypatch):
        # A budget of three 10 x 10 matrices: zero-duration members count
        # one each, so the 10 members are scored in chunks of three.  An
        # idle pulse (one merged run per member) scores as it does alone.
        monkeypatch.setattr(robustness, "_CHUNK_BYTES", 3 * 16 * 10 ** 2)
        config = NoiseSweepConfig(amplitudes_mhz=(0.0, 1.0, 2.0), samples=3)
        empty = PulseSchedule(np.zeros((2, 0)), 1.0, TOY_REFERENCES)
        _, chunks = self.assert_matches_lone(monkeypatch, empty, config)
        assert [len(counts) for counts, _ in chunks] == [3, 3, 3, 1]
        assert all(c is None for counts, _ in chunks for c in counts)
        identity = fidelity_report(np.eye(4), self.target)
        for _, results in chunks:
            for result in results:
                assert np.array_equal(result.compensated,
                                      identity.compensated)
        idle = PulseSchedule(np.zeros((2, 10)), 1.0, TOY_REFERENCES)
        self.assert_matches_lone(
            monkeypatch, idle, NoiseSweepConfig((0.0,), samples=3))


class TestSecondOrderLaw:
    """An oracle for the sweep's mean: uniform noise on [-a, a] on every
    detuning gives E[F] = F0 + (a**2 / 6) * sum_i d2F/dx_i2 + O(a**4),
    because the odd terms vanish by symmetry and each term's variance is
    a**2 / 3."""

    def test_toy_pulse_mean_at_2_mhz(self):
        # The diagonal curvature by central differences of the fitness at
        # a 1e-3 GHz step: -91.11 GHz^-2, the same to 5 digits at 3e-4.
        pulse = load_toy_pulse()
        fitness = ccphase_fitness(toy_two_transmon_chain(),
                                  pulse.search_references,
                                  pulse.segment_duration)
        x = pulse.detunings.reshape(-1)
        f0 = fitness(x)
        h = 1e-3
        curvature = 0.0
        for i in range(x.size):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            curvature += (fitness(up) - 2.0 * f0 + fitness(down)) / h ** 2
        assert curvature == pytest.approx(-91.11, abs=0.01)
        a = 2.0 * 1e-3
        law = f0 + a * a / 6.0 * curvature
        report = noise_sweep(pulse, toy_two_transmon_chain(),
                             NoiseSweepConfig(amplitudes_mhz=(2.0,),
                                              samples=2000, seed=0))
        assert report.baseline_fidelity == f0
        # The tolerance: 4 standard errors plus 2e-7 for the fourth-order
        # term.  At 2,000 samples the standard error is 1.1-1.2e-6, and
        # over seeds 0-11, fixed before they were run, the mean sat
        # between -1.91 and +1.58 standard errors from the law.  The
        # fourth-order allowance is twice the 4 MHz gap between the sweep
        # mean and the law at 20,000 samples (1.6e-6), scaled by
        # (2 / 4)**4.
        mean, error = report.mean_fidelities[0], report.std_errors[0]
        assert 1e-6 < error < 1.5e-6
        assert abs(mean - law) <= 4.0 * error + 2e-7
