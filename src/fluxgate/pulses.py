"""Piecewise-constant frequency-detuning schedules and waveforms.

A :class:`PulseSchedule` stores per-qubit detuning sequences in GHz,
relative to per-qubit search reference frequencies.  A :class:`Waveform`
maps continuous time in ns to absolute per-qubit frequencies in GHz.
Every pulse becomes runs through one finder, which reads a
:class:`PiecewiseConstantWaveform` from its segment columns, chosen by
type, and any other waveform (a smoothed, distorted pulse) from its
samples at all Trotter-step midpoints, taken in one :meth:`Waveform.sample`
call.

Each file format has one codec pair on text or parsed JSON
(:func:`schedule_to_csv`/:func:`schedule_from_csv`,
:func:`schedule_to_json`/:func:`schedule_from_json`); the caller opens
the file.
"""

import numpy as np

from .errors import _check_number, _json_field

__all__ = [
    "PulseSchedule",
    "Waveform",
    "PiecewiseConstantWaveform",
    "schedule_to_csv",
    "schedule_from_csv",
    "schedule_to_json",
    "schedule_from_json",
]


class PulseSchedule:
    """Per-qubit piecewise-constant detuning sequences.

    Parameters
    ----------
    detunings : array-like, shape (n_qubits, n_segments)
        Frequency offsets in GHz from each qubit's search reference.
    segment_duration : float
        Duration of each segment in ns.
    search_references : sequence of float
        Per-qubit reference frequencies in GHz; the absolute frequency of
        qubit k during segment i is ``search_references[k] + detunings[k, i]``.
    """

    def __init__(self, detunings, segment_duration=1.0, search_references=None):
        det = np.array(detunings, dtype=float)
        if det.ndim != 2:
            raise ValueError(f"detunings must be 2-D, got shape {det.shape}")
        if not np.isfinite(det).all():
            raise ValueError("detunings must be finite")
        _check_number("segment_duration", segment_duration, "positive")
        if search_references is None:
            raise ValueError("search_references is required")
        refs = tuple(float(r) for r in search_references)
        _check_number("search_references", refs)
        if len(refs) != det.shape[0]:
            raise ValueError(
                f"{len(refs)} references for {det.shape[0]} qubit rows"
            )
        det.setflags(write=False)
        self.detunings = det
        self.segment_duration = float(segment_duration)
        self.search_references = refs

    @property
    def n_qubits(self):
        return self.detunings.shape[0]

    @property
    def n_segments(self):
        return self.detunings.shape[1]

    @property
    def duration(self):
        return self.n_segments * self.segment_duration

    def absolute_frequencies(self):
        """Absolute frequencies in GHz, shape (n_qubits, n_segments)."""
        return np.asarray(self.search_references)[:, None] + self.detunings

    def with_detunings(self, detunings):
        return PulseSchedule(detunings, self.segment_duration, self.search_references)

    def segment_index(self, t):
        """Segment containing time t (t == duration maps to the last segment)."""
        if not 0 <= t <= self.duration:
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        return min(int(t / self.segment_duration), self.n_segments - 1)


class Waveform:
    """Map from time t in [0, duration] (ns) to per-qubit frequencies (GHz)."""

    duration = 0.0

    def frequencies(self, t):
        raise NotImplementedError

    def sample(self, times):
        """Frequencies at each of ``times``, shape (len(times), n_qubits)."""
        return np.array([self.frequencies(t) for t in np.asarray(times).tolist()],
                        dtype=float)


class PiecewiseConstantWaveform(Waveform):
    """The schedule held exactly constant within each segment."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.duration = schedule.duration
        # (n_qubits, n_segments); the propagator reads runs from its columns.
        self._absolute = schedule.absolute_frequencies()

    def frequencies(self, t):
        return self._absolute[:, self.schedule.segment_index(t)]


def _format(value):
    # repr of a Python float is the shortest exactly round-tripping decimal.
    return repr(float(value))


def schedule_to_csv(schedule, header_comments=()):
    """CSV text: one row per qubit, one column per segment, GHz detunings."""
    lines = [f"# {c}" for c in header_comments]
    for row in schedule.detunings:
        lines.append(",".join(_format(v) for v in row))
    return "\n".join(lines) + "\n"


def schedule_from_csv(text, segment_duration, search_references):
    """Parse the CSV form; metadata is supplied by the caller."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError("no detuning rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"rows have unequal segment counts: {sorted(widths)}")
    return PulseSchedule(rows, segment_duration, search_references)


def schedule_to_json(schedule):
    return {
        "schema_version": 1,
        "segment_duration_ns": schedule.segment_duration,
        "search_references_ghz": list(schedule.search_references),
        "detunings_ghz": [[float(v) for v in row] for row in schedule.detunings],
    }


def schedule_from_json(doc):
    """Inverse of :func:`schedule_to_json`; a bad key is a ValueError."""
    return PulseSchedule(
        _json_field(doc, "detunings_ghz", "pulse", [[float]]),
        _json_field(doc, "segment_duration_ns", "pulse"),
        _json_field(doc, "search_references_ghz", "pulse", [float]),
    )
