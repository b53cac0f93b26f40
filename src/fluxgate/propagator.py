"""Trotterized closed-system time evolution.

The time-ordered evolution operator is approximated by a product of
short constant-Hamiltonian exponentials,

    U(T) = U_k ... U_1 U_0,   U_0 = I,   U_i = exp(-i H(tau_i) dt),

with the waveform at every Trotter-step midpoint tau_i.  Every pulse
becomes runs through one finder, :func:`_schedule_runs`: neighbouring
frequency columns with the same bits share one constant Hamiltonian, so
they merge into one exponential over their combined duration.  A
piecewise-constant pulse gives its segment columns (each step's column
when the step does not divide the segments); any other waveform gives
its samples at every step's midpoint, taken in one vectorized call, as
columns one step long.  The
Hamiltonians of all merged steps are built in one batch from the device's
precomputed template, which holds every term and index that does not
depend on frequency, and because H conserves the total excitation number
each excitation block is exponentiated for the whole batch by one stacked
eigendecomposition: H is exactly Hermitian and small, so this is both
accurate and unitary to machine precision, and entries between blocks are
exactly zero.  The batch is checked once, for exact symmetry.

The step unitaries are multiplied pairwise, level by level, in a tree
whose shape depends only on the step count.  A lone pulse takes one
path, :func:`_run_unitaries`, which builds the whole tree: :func:`evolve`
does so on every call.  A fitness's pulses go through one
:class:`_KeptPulses`, the one owner of reuse: it keeps the runs and tree
of the previous pulse.  Only a one-gene move reuses a kept tree, by a
walk batch (:func:`_walk_batch`): pulses that change only the one run
the first of them changes have that run exponentiated in one batch, and
the nodes above it multiplied for all of them by one stacked matmul per
level (:func:`_path_products`), with the bits each gets alone.  After a
local-search move only that run is exponentiated again and about
log2(S) products are taken instead of S - 1.  A walk of one gene is
evolved ahead of its calls as a batch of several, from an origin: the
kept pulse one gene off the call, which may be the last call, the
origin of the current batch or one of its members.  A batch that starts
a walk also holds its reflection, the move a local search tries after a
rejected one; its first batch holds 4 steps and later ones 8.  Every
other call (a move of two or more genes, a DE trial, a one-gene move
that changes two runs or the run count) builds its tree whole, and a
call that repeats the last pulse takes the kept tree as it is.

Only a noise sweep's stacks take the batch path (:func:`_evolve_runs`):
their runs share one exponential batch, and the pulses with equal run
counts are multiplied out as one stack.  Every step and every product is
computed exactly as for a lone pulse, so a pulse's unitary does not
depend on its batch.

A run on a resonator pole has no Hamiltonian: the batch's build raises the
device's SingularityError at its earliest offending run.  That run's
pulse gets the EvolutionError that names the run's start time and the
transmon; a stack's batch is exponentiated again without that pulse.
"""

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .device import _template, basis_for
from .errors import EvolutionError, SingularityError, _check_number
from .pulses import PiecewiseConstantWaveform

__all__ = ["TrotterConfig", "expm_skew", "evolve"]

_HERM_TOL = 1e-12  # asymmetry expm_skew accepts, relative to max(1, |h|)


@dataclass(frozen=True)
class TrotterConfig:
    """Fixed-step Trotterization parameters (step in ns)."""

    step: float = 0.1

    def __post_init__(self):
        _check_number("step", self.step, "positive")

    def n_steps(self, duration):
        """Number of steps covering ``duration``; must divide evenly."""
        k = int(round(duration / self.step))
        if k < 0 or abs(k * self.step - duration) > 1e-9:
            raise ValueError(
                f"step {self.step} ns does not divide duration {duration} ns evenly"
            )
        return k


def _check_dts(dts):
    if (dts < 0).any():
        raise ValueError(f"dt must be >= 0, got {dts.min()}")


def _eigh_expm(h, dts):
    """exp(-i*h[s]*dts[s]) for a stack of Hermitian matrices, unchecked.

    One stacked eigendecomposition.  numpy's stacked ``eigh`` and matmul
    treat each matrix on its own, so a matrix's result is the same, bit
    for bit, whatever else is in the stack (tests/test_propagator.py).
    """
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * dts[:, None])
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-2, -1)


def expm_skew(h, dt):
    """exp(-i*h*dt) for Hermitian h (rad/ns) and dt (ns), via eigendecomposition.

    Raises ValueError if h deviates from Hermiticity by more than 1e-12
    (``_HERM_TOL``) relative to its largest entry (at least 1), or if
    dt < 0.
    """
    h = np.asarray(h)
    scale = max(1.0, np.abs(h).max(initial=0.0))
    if np.abs(h - h.conj().T).max(initial=0.0) > _HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    dts = np.array([dt], dtype=float)
    _check_dts(dts)
    return _eigh_expm(h[None], dts)[0]


def _segment_unitaries(template, rows, dts):
    """exp(-i H(rows[s]) dts[s]) for every row, shape (S, dim, dim).

    One Hamiltonian batch, then one stacked eigh per excitation block,
    each block gathered from and scattered to its flat cells (the
    template's ``block_cells``); the entries between blocks stay exactly
    zero.  A 1x1 block (the ground state, and the top state of the full
    basis) needs no eigh: its exponential is ``exp(-1j * h * dt)``, the
    same bits as the eigh path gives (tests/test_propagator.py).
    ``build`` writes every coupling to both triangles, so the matrices of
    a finite batch are exactly symmetric, and one test of exact symmetry
    over the whole batch stands in for a check per block: a batch that
    fails it raises ValueError.  Every row count takes this one path.
    """
    h = template.build(rows)
    if not (h == h.swapaxes(-2, -1)).all():
        raise ValueError("Hamiltonian batch is not exactly Hermitian")
    _check_dts(dts)
    count = len(h)
    flat = h.reshape(count, template.dim ** 2)
    u = np.zeros(flat.shape, dtype=complex)
    for cells in template.block_cells:
        block = flat[:, cells]
        if len(cells) == 1:
            u[:, cells] = np.exp(-1j * block * dts[:, None])
        else:
            size = math.isqrt(len(cells))
            u[:, cells] = _eigh_expm(
                block.reshape(count, size, size), dts).reshape(block.shape)
    return u.reshape(h.shape)


def step_unitary(device, basis, frequencies, dt):
    """exp(-i H dt) for one frequency sample."""
    rows = np.asarray(frequencies, dtype=float)[None]
    return _segment_unitaries(_template(device, basis), rows, np.array([dt], float))[0]


def _stack_runs(columns, m, step):
    """The runs of every member of a (P, n_qubits, n) stack of frequency
    columns, column j covering the m Trotter steps from j * m, as a list
    of one (start times, rows, counts) triple per member.

    A run is a stretch of neighbouring columns with the same bits, found
    by one comparison over the whole stack.  A run's start time is the
    midpoint of its first step, ``(start + 0.5) * step``, and its count is
    its steps: the bits and dtypes of sampling every step of that member
    alone (tests/test_pulses.py).
    """
    count, n_qubits, n = columns.shape
    bits = columns.view(np.uint64)
    new_run = np.empty((count, n), dtype=bool)
    new_run[:, 0] = True
    (bits[..., 1:] != bits[..., :-1]).any(axis=1, out=new_run[:, 1:])
    # Every member's first column starts a run, so the run after a
    # member's last one starts at the next member's flat index.
    flat = np.flatnonzero(new_run)
    stops = np.empty_like(flat)
    stops[:-1] = flat[1:]
    stops[-1] = new_run.size
    start = flat % n
    times = (start * m + 0.5) * step
    rows = columns.transpose(0, 2, 1).reshape(-1, n_qubits).take(flat, axis=0)
    counts = (stops - flat) * m
    if count == 1:
        return [(times, rows, counts)]
    bounds = [*np.flatnonzero(start == 0).tolist(), len(flat)]
    return [(times[a:b], rows[a:b], counts[a:b])
            for a, b in zip(bounds, bounds[1:])]


def _schedule_runs(frequencies, segment_duration, trotter):
    """The runs of each member of a (P, n_qubits, n_segments) stack of
    absolute ``frequencies`` on segments of ``segment_duration`` ns, as a
    list of one (start times, rows, counts) triple per member, or None for
    a member that takes no step.  Every pulse becomes runs here.

    When the step divides the segments, the k steps are m per segment;
    sampling puts steps s*m to s*m + m - 1 in segment s, because k is the
    rounded duration / step, so no midpoint drifts by the half step that
    separates it from a segment boundary.  The runs are then read from the
    segment columns, without sampling.  Otherwise every step's midpoint
    picks its segment's column, as ``PiecewiseConstantWaveform.frequencies``
    does.  A non-finite frequency is a ValueError that names the earliest
    one's time and qubit, in the earliest member that has one.
    """
    n_segments = frequencies.shape[-1]
    k = trotter.n_steps(n_segments * segment_duration)
    if k == 0:
        return [None] * len(frequencies)
    m, rest = divmod(k, n_segments)
    if rest:
        m = 1
        times = (np.arange(k) + 0.5) * trotter.step
        frequencies = frequencies[..., np.minimum(
            (times / segment_duration).astype(np.intp), n_segments - 1)]
    if not np.isfinite(frequencies).all():
        bad = ~np.isfinite(frequencies.transpose(0, 2, 1))
        p, j, qubit = np.argwhere(bad)[0]
        raise ValueError(
            f"waveform frequency {frequencies[p, qubit, j]} GHz at "
            f"t={(j * m + 0.5) * trotter.step:g} ns (qubit {qubit}) is not "
            "finite")
    return _stack_runs(frequencies, m, trotter.step)


def _sampled_runs(waveform, trotter):
    """The :func:`_schedule_runs` of one waveform: a PiecewiseConstantWaveform
    gives its segment columns, and any other waveform its samples at every
    Trotter-step midpoint, taken in one ``sample`` call, as columns one
    step long."""
    if isinstance(waveform, PiecewiseConstantWaveform):
        columns, width = waveform._absolute, waveform.schedule.segment_duration
    else:
        k = trotter.n_steps(waveform.duration)
        samples = waveform.sample((np.arange(k) + 0.5) * trotter.step)
        columns, width = np.asarray(samples, dtype=float).T, trotter.step
    (runs,) = _schedule_runs(columns[None], width, trotter)
    return runs


def _run_unitaries(template, runs, step):
    """The (rows, dts, levels) of :func:`_product_tree` of a lone pulse's
    runs, the whole tree built from its step unitaries.

    A run on a pole raises the EvolutionError :func:`evolve` raises.
    """
    times, rows, counts = runs
    dts = counts * step
    try:
        u = _segment_unitaries(template, rows, dts)
    except SingularityError as err:
        raise _pole_error(err, times) from err
    return rows, dts, _product_tree(u)


def _pole_error(err, times):
    """The EvolutionError for ``err``, the SingularityError of a waveform's
    sampled runs, at ``times[err.row]``, the start time of the run."""
    t_start = float(times[err.row])
    error = EvolutionError(
        f"singular Hamiltonian at t={t_start} ns (transmon "
        f"{err.transmon}): {err}",
        time=t_start,
        transmon=err.transmon,
    )
    error.__cause__ = err
    return error


def _product_tree(u):
    """The levels of the pairwise product of a stack of S steps.

    Level 0 is ``u``.  Node j of the next level above a level L is
    ``L[2j + 1] @ L[2j]`` (later steps on the left), or L[2j] carried up
    when L has no node 2j + 1.  The last level holds the one product,
    u[..., S-1, :, :] @ ... @ u[..., 0, :, :].  Each level is a few stacked
    matmul calls, not one call per step.  Each product is one matmul of two
    contiguous matrices, so a member's result does not depend on the other
    members of the stack.
    """
    levels = [u]
    while u.shape[-3] > 1:
        n = u.shape[-3]
        pairs = u[..., 1::2, :, :] @ u[..., 0:n - 1:2, :, :]
        u = np.concatenate([pairs, u[..., -1:, :, :]], axis=-3) if n % 2 else pairs
        levels.append(u)
    return levels


def _path_products(levels, u, j):
    """The nodes above step ``j`` of the tree ``levels`` with that step
    replaced by each member of the (K, dim, dim) stack ``u``: a list of
    one (K, dim, dim) stack per level, ``u`` first.

    A node is the product :func:`_product_tree` takes, of the same two
    matrices in the same order, the members' new node and the kept one of
    ``levels``: one stacked matmul over the K members.  A node with no
    right neighbour is carried up.
    """
    path = [u]
    for below in levels[:-1]:
        k = j ^ 1
        if k < len(below):
            u = u @ below[k] if j % 2 else below[k] @ u
        j //= 2
        path.append(u)
    return path


def _with_path(levels, path, j, i):
    """The tree ``levels`` with member ``i``'s nodes of ``path``
    (:func:`_path_products` of step ``j``) in place of its own, each
    copied so that the tree holds no stack it came from.  The other nodes
    are shared with ``levels``, which is left as it is."""
    tree = []
    for level, nodes in zip(levels, path):
        level = list(level)
        level[j] = nodes[i].copy()
        tree.append(level)
        j //= 2
    return tree


def _walk_batch(template, runs, step, kept):
    """Evolve from ``kept``, the (rows, dts, levels) of an earlier pulse,
    the leading pulses of ``runs``, a list of :func:`_schedule_runs`
    triples, that have kept's run shape and change only the one run that
    the first changes.

    Returns None when the first changes no run, or more than one, or has
    another run shape: it needs a whole tree.  Otherwise (j, rows, dts,
    path): the run j the first changes, the members' rows and dts, and
    the :func:`_path_products` of their run j, exponentiated in one
    batch.  Member i's tree is then
    ``(rows[i], dts[i], _with_path(levels, path, j, i))``, with the bits
    the member gets alone, because a row's exponential does not depend on
    its batch and each node multiplies the same two matrices.  A member
    on a pole ends the batch before it; the first on a pole raises the
    EvolutionError :func:`evolve` raises.
    """
    rows, dts, levels = kept
    count = 0
    for r in runs:
        if r[1].shape != rows.shape:
            break
        count += 1
    if not count:
        return None
    members = np.array([r[1] for r in runs[:count]])
    spans = np.array([r[2] for r in runs[:count]]) * step
    changed = (members.view(np.uint64) != rows.view(np.uint64)).any(axis=2)
    changed |= spans.view(np.uint64) != dts.view(np.uint64)
    fresh = np.flatnonzero(changed[0])
    if len(fresh) != 1:
        return None
    j = int(fresh[0])
    changed[:, j] = False
    stray = changed.any(axis=1)
    if stray.any():
        count = int(stray.argmax())
    while True:
        try:
            u = _segment_unitaries(template, members[:count, j],
                                   spans[:count, j])
        except SingularityError as err:
            count = err.row
            if not count:
                err.row = j
                raise _pole_error(err, runs[0][0]) from err
            continue
        return j, members[:count], spans[:count], _path_products(levels, u, j)


_WALK_START = 4  # first batch of a walk, chosen by measurement (CHANGES.md)
_WALK_CAP = 8  # largest walk batch, chosen by measurement (CHANGES.md)


class _Batch(NamedTuple):
    """A walk batch of a :class:`_KeptPulses`: its origin's detunings and
    kept tree, every member's detunings (K, n_qubits, n_segments) and step
    along the walk, the :func:`_walk_batch` of those members evolved from
    the origin, and the index of each prepared member after the first,
    keyed by its detuning bytes."""

    det: np.ndarray
    kept: tuple
    dets: np.ndarray
    steps: list
    batch: tuple
    members: dict

    def tree(self, i):
        """Member ``i``'s (rows, dts, levels), built when it is asked for."""
        j, rows, dts, path = self.batch
        return rows[i].copy(), dts[i], _with_path(self.kept[2], path, j, i)


class _Walk(NamedTuple):
    """What a :class:`_KeptPulses` keeps of the last pulse it evolved:
    that pulse's detunings (never written into) and kept tree, the gene
    and step of the walk it belongs to, the forward batch size that walk
    last asked for, and the :class:`_Batch` it was evolved in, if any."""

    det: np.ndarray
    kept: tuple
    gene: int = -1
    step: float = 0.0
    size: int = 0
    batch: _Batch = None


class _KeptPulses:
    """The unitaries of one fitness's pulses, each given by its detunings
    (n_qubits, n_segments) around ``references`` on segments of
    ``segment_duration`` ns, with the bits :func:`evolve` gives each.

    It keeps the runs and product tree of the last pulse it evolved, and
    reuses a kept tree only along a one-gene move, through
    :func:`_walk_batch`.  A pulse equal to the last takes its tree as it
    is.  A pulse that no prepared member serves looks for an origin, a
    pulse whose tree it holds and that differs from the call in exactly
    one gene: the last pulse, the origin of the current batch, then that
    batch's prepared members (a member's tree is built only when it is
    chosen).  A pulse one gene off its origin o, by d, is evolved in one
    batch with the next K - 1 pulses of its walk, that gene moved by d
    again and again.  A batch that starts a walk also holds the
    reflection, o's gene moved by -d, second: a local search tries it
    after a rejected +d.  A batch that continues the walk from the last
    pulse, at the same gene and step, does not, because the search never
    returns to the point it just left.  K is ``_WALK_START`` for a new
    walk and doubles, up to ``_WALK_CAP``, while the calls go on along
    it.  A later call with a prepared member takes its tree from the
    batch.  Every other pulse (no origin, or a move that changes two runs
    or the run count) builds its tree whole (:func:`_run_unitaries`).

    Threads may share one: each call reads the :class:`_Walk` once and
    replaces it whole, and nothing kept is written into, so a race loses
    reuse, never bits.
    """

    def __init__(self, template, references, segment_duration, trotter):
        self.template = template
        # As a PulseSchedule holds them.
        self.refs = np.array([float(r) for r in references])[None, :, None]
        self.segment_duration = float(segment_duration)
        self.trotter = trotter
        self.walk = None

    def unitary(self, det):
        """The unitary of ``det``'s pulse: the last pulse's, a prepared
        member's, one from a new walk batch, or a whole tree's; never write
        into it.  A pole raises its EvolutionError, keeping the tree."""
        last = self.walk  # read once: other threads replace it whole
        if last is not None and last.det.shape == det.shape:
            key = det.tobytes()
            if key == last.det.tobytes():
                return last.kept[2][-1][0]
            batch = last.batch
            i = batch and batch.members.get(key)
            if i:
                walk = _Walk(batch.dets[i], batch.tree(i), last.gene,
                             batch.steps[i], last.size, batch)
            else:
                walk = self._walk_ahead(last, det)
            if walk is not None:
                self.walk = walk
                return walk.kept[2][-1][0]
        (runs,) = _schedule_runs(self.refs + det, self.segment_duration,
                                 self.trotter)
        if runs is None:
            return np.eye(self.template.dim, dtype=complex)
        kept = _run_unitaries(self.template, runs, self.trotter.step)
        self.walk = _Walk(det.copy(), kept)
        return kept[2][-1][0]

    @staticmethod
    def _origin(last, det):
        """(detunings, tree, gene) of ``det``'s origin: the first of
        ``last``'s pulse, its batch's origin and its batch's prepared
        members that differs from ``det`` in exactly one gene; or None,
        also for ``det`` equal to the last pulse's."""
        moved = np.flatnonzero(det != last.det)
        if len(moved) == 1:
            return last.det, last.kept, int(moved[0])
        batch = last.batch
        if batch is None or not len(moved):
            return None
        moved = np.flatnonzero(det != batch.det)
        if len(moved) == 1:
            return batch.det, batch.kept, int(moved[0])
        count = len(batch.batch[1])
        moved = (batch.dets[:count] != det).reshape(count, -1)
        hits = np.flatnonzero(np.count_nonzero(moved, axis=1) == 1)
        if not len(hits):
            return None
        i = int(hits[0])
        return batch.dets[i], batch.tree(i), int(np.flatnonzero(moved[i])[0])

    def _walk_ahead(self, last, det):
        """The :class:`_Walk` of ``det`` evolved from its origin in a batch
        with the next members of its walk, or None."""
        origin = self._origin(last, det)
        if origin is None:
            return None
        base_det, base, gene = origin
        step = float(det.flat[gene]) - float(base_det.flat[gene])
        size, reflect = _WALK_START, True
        if base_det is last.det and (gene, step) == (last.gene, last.step):
            size, reflect = min(2 * last.size, _WALK_CAP), False
        q, s = divmod(gene, det.shape[1])
        values = [float(det[q, s])]
        for _ in range(size - 1):
            values.append(values[-1] + step)
        steps = [step] * size
        if reflect:
            values.insert(1, float(base_det[q, s]) - step)
            steps.insert(1, -step)
        dets = np.repeat(det[None], len(values), axis=0)
        dets[:, q, s] = values
        columns = self.refs + dets
        finite = np.isfinite(columns[:, q, s])
        count = len(values) if finite.all() else int(np.argmin(finite))
        batch = count and _walk_batch(
            self.template,
            _schedule_runs(columns[:count], self.segment_duration,
                           self.trotter),
            self.trotter.step, base)
        if not batch:
            return None
        members = {dets[i].tobytes(): i for i in range(1, len(batch[1]))}
        batch = _Batch(base_det, base, dets, steps, batch, members)
        return _Walk(dets[0], batch.tree(0), gene, step, size, batch)


def _evolve_runs(template, runs, step):
    """Total unitaries of a stack of pulses, and their pole errors: the
    batch path, which only the noise sweep's stacks take.

    ``runs`` holds, per pulse, its :func:`_schedule_runs`: a triple, or
    None for a pulse that takes no step (the identity).  The runs of all
    pulses are exponentiated in one batch, ordered by run count, so the
    pulses with S runs are multiplied out as one (P, S, dim, dim) view of
    it.  Returns the unitaries, shape (P, dim, dim), and per pulse None or
    the EvolutionError that :func:`evolve` raises for it (its unitary is
    then zero).  Each pulse on a pole costs the batch one more try.
    """
    out = np.zeros((len(runs), template.dim, template.dim), dtype=complex)
    errors = [None] * len(runs)
    out[[p for p, r in enumerate(runs) if r is None]] = np.eye(template.dim)
    # A stable sort: members of one run count keep their order.
    order = sorted(
        (p for p in range(len(runs)) if runs[p] is not None),
        key=lambda p: len(runs[p][1]),
    )
    while order:
        try:
            rows = np.concatenate([runs[p][1] for p in order])
            dts = np.concatenate([runs[p][2] for p in order]) * step
            u = _segment_unitaries(template, rows, dts)
            break
        except SingularityError as err:
            # The earliest pole row of the batch is the earliest of its
            # member, whose runs are contiguous: that member gets its error
            # and a zero unitary, and the others are tried again.
            ends = np.cumsum([len(runs[p][1]) for p in order])
            i = int(np.searchsorted(ends, err.row, side="right"))
            p = order.pop(i)
            err.row -= int(ends[i]) - len(runs[p][1])
            errors[p] = _pole_error(err, runs[p][0])
    start = 0
    for length, group in groupby(order, key=lambda p: len(runs[p][1])):
        group = list(group)
        stop = start + length * len(group)
        stack = u[start:stop].reshape(len(group), length, *out.shape[1:])
        out[group] = _product_tree(stack)[-1][:, 0]
        start = stop
    return out, errors


def evolve(device, waveform, trotter=TrotterConfig(), basis=None):
    """Total unitary of a waveform on the device's truncated basis.

    The waveform becomes runs once (:func:`_sampled_runs`): consecutive
    steps with identical frequencies merge into one step of
    ``count * step`` ns.  The merged steps are exponentiated in one batch
    (one stacked eigh per excitation block), and the step unitaries are
    multiplied in time order, pairwise.

    Parameters
    ----------
    device : DeviceChain
    waveform : Waveform
        Absolute per-qubit frequencies over [0, duration].
    trotter : TrotterConfig
    basis : TruncatedBasis, optional
        Defaults to the device's excitation-truncated working basis; pass
        the full product basis to evolve without truncation.

    Returns
    -------
    ndarray
        Unitary of shape (dim, dim), block diagonal in the total
        excitation number with exactly zero entries between blocks.
        Piecewise-constant waveforms cost one exponential per segment.

    Raises
    ------
    EvolutionError
        If a sample lies on a resonator pole; ``time`` is the midpoint of
        the first step of the earliest offending run.
    """
    if basis is None:
        basis = basis_for(device)
    template = _template(device, basis)
    runs = _sampled_runs(waveform, trotter)
    if runs is None:
        return np.eye(template.dim, dtype=complex)
    return _run_unitaries(template, runs, trotter.step)[2][-1][0]
