"""Schedule construction, waveform sampling, and serialization round trips."""

import numpy as np
import pytest

from fluxgate.pulses import (
    PiecewiseConstantWaveform,
    PulseSchedule,
    load_schedule_csv,
    load_schedule_json,
    save_schedule_csv,
    save_schedule_json,
    schedule_from_csv,
    schedule_to_csv,
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


class TestRoundTrips:
    def test_csv_bit_exact(self, schedule, tmp_path):
        path = tmp_path / "pulses.csv"
        save_schedule_csv(schedule, path, header_comments=("demo",))
        back = load_schedule_csv(path, schedule.segment_duration,
                                 schedule.search_references)
        assert np.array_equal(back.detunings, schedule.detunings)

    def test_csv_awkward_values_bit_exact(self):
        det = np.array([[0.1, 1 / 3, -2.2250738585072014e-308, 0.22]])
        sched = PulseSchedule(det, 1.0, (5.0,))
        back = schedule_from_csv(schedule_to_csv(sched), 1.0, (5.0,))
        assert np.array_equal(back.detunings, det)

    def test_json_bit_exact(self, schedule, tmp_path):
        path = tmp_path / "pulses.json"
        save_schedule_json(schedule, path)
        back = load_schedule_json(path)
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
