"""Schedule construction, waveform sampling, segment runs, and
serialization round trips."""

import json

import numpy as np
import pytest

from fluxgate import propagator
from fluxgate.profiles import load_ccphase_pulse, load_toy_pulse
from fluxgate.propagator import TrotterConfig
from fluxgate.pulses import (
    PiecewiseConstantWaveform,
    PulseSchedule,
    Waveform,
    schedule_from_csv,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
)


@pytest.fixture
def schedule():
    rng = np.random.default_rng(5)
    det = rng.uniform(-0.3, 0.3, size=(3, 50))
    return PulseSchedule(det, 1.0, (5.61, 6.0, 6.39))


class TestPulseSchedule:
    def test_shape_and_duration(self, schedule):
        assert schedule.n_qubits == 3
        assert schedule.n_segments == 50
        assert schedule.duration == 50.0

    def test_absolute_frequencies(self, schedule):
        absolute = schedule.absolute_frequencies()
        assert absolute[1, 7] == schedule.search_references[1] + \
            schedule.detunings[1, 7]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PulseSchedule([[0.0, np.inf]], 1.0, (5.0,))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_segment_duration(self, value):
        with pytest.raises(ValueError, match=f"segment_duration must be "
                                             f"positive and finite, got {value}"):
            PulseSchedule(np.zeros((2, 4)), value, (5.0, 6.0))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_rejects_non_finite_reference(self, value):
        with pytest.raises(ValueError, match="search_references must be "
                                             "finite"):
            PulseSchedule(np.zeros((2, 4)), 1.0, (5.0, value))

    def test_rejects_reference_mismatch(self):
        with pytest.raises(ValueError):
            PulseSchedule(np.zeros((2, 4)), 1.0, (5.0,))

    def test_detunings_read_only(self, schedule):
        with pytest.raises(ValueError):
            schedule.detunings[0, 0] = 1.0

    def test_segment_index(self, schedule):
        assert schedule.segment_index(0.0) == 0
        assert schedule.segment_index(7.3) == 7
        assert schedule.segment_index(50.0) == 49
        with pytest.raises(ValueError):
            schedule.segment_index(51.0)


class TestPiecewiseConstantWaveform:
    def test_holds_segment_values(self, schedule):
        wf = PiecewiseConstantWaveform(schedule)
        absolute = schedule.absolute_frequencies()
        assert np.array_equal(wf.frequencies(3.5), absolute[:, 3])
        assert np.array_equal(wf.frequencies(3.999), absolute[:, 3])
        assert np.array_equal(wf.frequencies(4.0), absolute[:, 4])


class Sampled(Waveform):
    """The schedule's PiecewiseConstantWaveform seen only through its
    ``frequencies``: a plain Waveform, so the propagator samples it at
    every step's midpoint instead of reading the runs from the segments."""

    def __init__(self, schedule):
        self.pulse = PiecewiseConstantWaveform(schedule)
        self.duration = schedule.duration

    def frequencies(self, t):
        return self.pulse.frequencies(t)


def repeating_schedule(rng, n_qubits, n_segments, segment_duration):
    """Random detunings in which about half the segments repeat the one
    before bit for bit, and some repeat it on one qubit only."""
    det = rng.uniform(-0.3, 0.3, size=(n_qubits, n_segments))
    for s in range(1, n_segments):
        draw = rng.uniform()
        if draw < 0.5:
            det[:, s] = det[:, s - 1]
        elif draw < 0.7:
            det[0, s] = det[0, s - 1]
    refs = tuple(5.0 + 0.4 * q for q in range(n_qubits))
    return PulseSchedule(det, segment_duration, refs)


class TestSegmentRuns:
    """A PiecewiseConstantWaveform's runs come from its segments, with the
    bytes and dtypes that sampling every Trotter midpoint gives."""

    def assert_same_runs(self, schedule, step):
        trotter = TrotterConfig(step)
        got = propagator._sampled_runs(PiecewiseConstantWaveform(schedule),
                                       trotter)
        want = propagator._sampled_runs(Sampled(schedule), trotter)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous == b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        return got

    def read_from_segments(self, schedule, step):
        """Whether the runs are read from the segment columns themselves,
        one column per segment, not one per step's midpoint."""
        columns = []
        stack_runs = propagator._stack_runs

        def counting(stack, m, step):
            columns.append(stack.shape[-1])
            return stack_runs(stack, m, step)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagator, "_stack_runs", counting)
            propagator._sampled_runs(PiecewiseConstantWaveform(schedule),
                                     TrotterConfig(step))
        return columns == [schedule.n_segments]

    @pytest.mark.parametrize("step", [0.1, 0.25, 0.5, 1.0])
    def test_random_schedules_with_repeats(self, step):
        rng = np.random.default_rng(int(step * 100))
        merged = 0
        for n_qubits, n_segments in ((1, 7), (2, 10), (3, 50), (3, 1)):
            for _ in range(20):
                sched = repeating_schedule(rng, n_qubits, n_segments, 1.0)
                assert self.read_from_segments(sched, step)
                _times, rows, counts = self.assert_same_runs(sched, step)
                assert counts.sum() == round(sched.duration / step)
                merged += len(rows) < n_segments
        assert merged > 0

    def test_step_not_dividing_segments_samples(self):
        # 0.3 ns divides the 3 ns pulse but not its 1 ns segments: every
        # midpoint's segment is looked up, and the runs are the sampled
        # ones.
        rng = np.random.default_rng(7)
        for _ in range(20):
            sched = repeating_schedule(rng, 3, 3, 1.0)
            assert not self.read_from_segments(sched, 0.3)
            self.assert_same_runs(sched, 0.3)
        # 0.3 ns divides 0.9 ns segments: read from them.
        sched = repeating_schedule(rng, 3, 10, 0.9)
        assert self.read_from_segments(sched, 0.3)
        self.assert_same_runs(sched, 0.3)

    def test_awkward_steps(self):
        # Steps the Trotter check only just admits, on segments from
        # 1e-11 to 10 ns: wherever the steps are a whole number per
        # segment, the runs are read from the segments and match.
        rng = np.random.default_rng(11)
        read = 0
        for _ in range(3000):
            n_segments = int(rng.integers(1, 8))
            segment = 10 ** rng.uniform(-11, 1)
            sched = repeating_schedule(rng, 2, n_segments, segment)
            step = segment / rng.integers(1, 12) * (
                1 + rng.uniform(-0.6, 0.6) * (rng.uniform() < 0.5))
            try:
                k = TrotterConfig(step).n_steps(sched.duration)
            except ValueError:
                continue
            if k == 0 or k > 2000:
                continue
            read += self.read_from_segments(sched, step)
            self.assert_same_runs(sched, step)
        assert read > 500

    @pytest.mark.parametrize("load", [load_toy_pulse, load_ccphase_pulse])
    @pytest.mark.parametrize("step", [0.1, 0.05])
    def test_shipped_pulses(self, load, step):
        sched = load()
        assert self.read_from_segments(sched, step)
        self.assert_same_runs(sched, step)

    def test_overflow_to_infinity_is_named(self):
        # Finite detunings and references whose sum overflows: the
        # segment columns are not finite, and the first step on one is
        # named as sampling names it, alone and in a stack behind a
        # finite member.
        sched = PulseSchedule([[0.0, 1.5e308]], 1.0, (1.5e308,))
        with np.errstate(over="ignore"):
            wf = PiecewiseConstantWaveform(sched)
            sampled = Sampled(sched)
        named = r"frequency inf GHz at t=1\.05 ns \(qubit 0\)"
        with pytest.raises(ValueError, match=named):
            propagator._sampled_runs(wf, TrotterConfig())
        with pytest.raises(ValueError, match=named):
            propagator._sampled_runs(sampled, TrotterConfig())
        stack = np.stack([np.zeros((1, 2)), wf._absolute])
        with pytest.raises(ValueError, match=named):
            propagator._schedule_runs(stack, sched.segment_duration,
                                      TrotterConfig())


class TestRoundTrips:
    def test_csv_bit_exact(self, schedule, tmp_path):
        path = tmp_path / "pulses.csv"
        path.write_text(schedule_to_csv(schedule, header_comments=("demo",)))
        back = schedule_from_csv(path.read_text(), schedule.segment_duration,
                                 schedule.search_references)
        assert np.array_equal(back.detunings, schedule.detunings)

    def test_csv_awkward_values_bit_exact(self):
        det = np.array([[0.1, 1 / 3, -2.2250738585072014e-308, 0.22]])
        sched = PulseSchedule(det, 1.0, (5.0,))
        back = schedule_from_csv(schedule_to_csv(sched), 1.0, (5.0,))
        assert np.array_equal(back.detunings, det)

    def test_json_bit_exact(self, schedule):
        back = schedule_from_json(json.loads(json.dumps(
            schedule_to_json(schedule))))
        assert np.array_equal(back.detunings, schedule.detunings)
        assert back.segment_duration == schedule.segment_duration
        assert back.search_references == schedule.search_references

    def test_csv_shape(self, schedule):
        text = schedule_to_csv(schedule)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 3
        assert all(len(r.split(",")) == 50 for r in rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            schedule_from_csv("0.1,0.2\n0.1\n", 1.0, (5.0, 6.0))
