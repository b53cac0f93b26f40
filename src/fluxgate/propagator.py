"""Trotterized closed-system time evolution.

The time-ordered evolution operator is approximated by a product of
short constant-Hamiltonian exponentials,

    U(T) = U_k ... U_1 U_0,   U_0 = I,   U_i = exp(-i H(tau_i) dt),

with the waveform sampled at every Trotter-step midpoint tau_i in one
vectorized call.  Consecutive steps with identical samples share one
constant Hamiltonian, so they merge into one exponential over their
combined duration (one per segment for piecewise-constant pulses).  The
Hamiltonians of all merged steps are built in one batch from the device's
precomputed template, which holds every term and index that does not
depend on frequency, and because H conserves the total excitation number
each excitation block is exponentiated for the whole batch by one stacked
eigendecomposition: H is exactly Hermitian and small, so this is both
accurate and unitary to machine precision, and entries between blocks are
exactly zero.  The batch is checked once, for exact symmetry, not block by
block.  Merged steps bit-identical to the previous call's are reused, not
recomputed.

The step unitaries are multiplied pairwise, level by level, in a tree
whose shape depends only on the step count.  A lone waveform keeps its
tree, so when it changes a few steps from the previous call (a
local-search move) only the nodes above those steps are multiplied again:
about log2(S) products instead of S - 1.  Each node is one matmul of the
same two child matrices either way, so the result has the same bits.

Many waveforms evolve together in chunks: the runs of a chunk share one
exponential batch, and the waveforms with equal run counts are multiplied
out as one stack.  Every step and every product is computed exactly as for
a lone waveform, so a waveform's unitary does not depend on its batch.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .device import _template, basis_for
from .errors import EvolutionError, SingularityError

__all__ = ["TrotterConfig", "expm_skew", "evolve"]


@dataclass(frozen=True)
class TrotterConfig:
    """Fixed-step Trotterization parameters (step in ns)."""

    step: float = 0.1

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    def n_steps(self, duration):
        """Number of steps covering ``duration``; must divide evenly."""
        k = int(round(duration / self.step))
        if k < 0 or abs(k * self.step - duration) > 1e-9:
            raise ValueError(
                f"step {self.step} ns does not divide duration {duration} ns evenly"
            )
        return k

    def validate_against(self, segment_duration):
        steps = round(segment_duration / self.step)
        if steps < 1 or abs(steps * self.step - segment_duration) > 1e-9:
            raise ValueError(
                f"step {self.step} ns does not divide segment duration "
                f"{segment_duration} ns evenly"
            )


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


def _expm_stack(h, dts, herm_tol=1e-12):
    """:func:`_eigh_expm` after checking that each matrix of the stack is
    Hermitian within ``herm_tol`` relative to its largest entry (at least
    1) and that each dt is >= 0."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    if (asym > herm_tol * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    _check_dts(dts)
    return _eigh_expm(h, dts)


def expm_skew(h, dt, herm_tol=1e-12):
    """exp(-i*h*dt) for Hermitian h (rad/ns) and dt (ns), via eigendecomposition.

    Raises ValueError if h deviates from Hermiticity beyond ``herm_tol``
    relative to its largest entry.
    """
    return _expm_stack(np.asarray(h)[None], np.array([dt], dtype=float), herm_tol)[0]


def _segment_unitaries(template, rows, dts):
    """exp(-i H(rows[s]) dts[s]) for every row, shape (S, dim, dim).

    One Hamiltonian batch, then one stacked eigh per excitation block (the
    template's ``block_index``); the entries between blocks stay exactly
    zero.  ``build`` makes every matrix exactly symmetric, so one test of
    exact symmetry over the whole batch stands in for a check per block.
    A batch that fails it (NaN entries, or a stand-in for ``build``) is
    exponentiated block by block through :func:`_expm_stack`, whose
    toleranced check raises or passes as it always has; both ways give
    the same bits for the same matrices.  Every row count takes this one
    path.
    """
    h = template.build(rows)
    if (h == h.swapaxes(-2, -1)).all():
        _check_dts(dts)
        expm = _eigh_expm
    else:
        expm = _expm_stack
    u = np.zeros(h.shape, dtype=complex)
    for index in template.block_index:
        u[index] = expm(h[index], dts)
    return u


def step_unitary(device, basis, frequencies, dt):
    """exp(-i H dt) for one frequency sample."""
    rows = np.asarray(frequencies, dtype=float)[None]
    return _segment_unitaries(_template(device, basis), rows, np.array([dt], float))[0]


def _sampled_runs(waveform, trotter):
    """The waveform sampled at every Trotter-step midpoint, merged into runs.

    Returns (start times, sample rows, counts): one entry per run of
    consecutive bit-identical samples, in time order.
    """
    k = trotter.n_steps(waveform.duration)
    times = (np.arange(k) + 0.5) * trotter.step
    samples = np.ascontiguousarray(waveform.sample(times), dtype=float)
    bits = samples.view(np.uint64)
    new_run = np.empty(k, dtype=bool)
    new_run[0] = True
    (bits[1:] != bits[:-1]).any(axis=1, out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = k
    return times[starts], samples[starts], ends - starts


def _exponentiate(template, rows, dts):
    """:func:`_segment_unitaries` that survives resonator poles.

    Returns (unitaries, poles): ``poles`` is None, or the mask of the rows
    on a pole, whose unitaries are left zero; the other rows still share
    one batch.
    """
    try:
        return _segment_unitaries(template, rows, dts), None
    except SingularityError:
        poles = template.pole_rows(rows)
        u = np.zeros((len(rows), template.dim, template.dim), dtype=complex)
        u[~poles] = _segment_unitaries(template, rows[~poles], dts[~poles])
        return u, poles


# The previous lone call's (template, rows, dts, tree): ``tree`` holds the
# levels of its pairwise product (see _product_tree), its step unitaries
# first.  A local-search move changes one segment, so nearly all of its runs
# and most tree nodes equal the call before.  The tuple is replaced whole
# and its arrays are never written into, so threads need no lock: a race
# loses reuse, never correctness, because a node's bits do not depend on
# the batch or the tree it was computed in.
_LAST_RUNS = None


def _run_unitaries(template, rows, dts):
    """The product tree of a lone waveform's runs, and their poles.

    Runs bit-identical to the same run of the previous call (same template
    and row shape) reuse its unitary; the others are exponentiated in one
    batch.  When few runs changed, only the tree nodes above them are
    multiplied again.  Returns (levels, poles): the levels of
    :func:`_product_tree` of the step unitaries, and None or the mask of
    the runs on a pole (their unitaries are zero).  The levels may be the
    stored ones, so callers never write into them.  Calls that cross a
    pole are not kept for reuse.
    """
    global _LAST_RUNS
    last = _LAST_RUNS
    if last is None or last[0] is not template or last[1].shape != rows.shape:
        last, fresh = None, np.arange(len(rows))
    else:
        changed = (rows.view(np.uint64) != last[1].view(np.uint64)).any(axis=1)
        changed |= dts.view(np.uint64) != last[2].view(np.uint64)
        if not changed.any():
            return last[3], None
        fresh = np.flatnonzero(changed)
    u, fresh_poles = _exponentiate(template, rows[fresh], dts[fresh])
    if last is not None:
        stack = last[3][0].copy()
        stack[fresh] = u
        u = stack
    if fresh_poles is not None:
        poles = np.zeros(len(rows), dtype=bool)
        poles[fresh[fresh_poles]] = True
        return _product_tree(u), poles
    # A changed run costs one product per level; the full tree, S - 1.
    if last is not None and len(fresh) * (len(last[3]) - 1) < len(rows):
        levels = _update_tree(last[3], u, fresh)
    else:
        levels = _product_tree(u)
    _LAST_RUNS = (template, rows, dts, levels)
    return levels, None


def _pole_error(template, times, rows):
    """The EvolutionError of sampled runs that cross a resonator pole, at
    the start time of the earliest offending run."""
    try:
        template.build(rows)
    except SingularityError as err:
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


def _ordered_product(u):
    """u[..., S-1, :, :] @ ... @ u[..., 0, :, :] over a stack of S steps."""
    return _product_tree(u)[-1][..., 0, :, :]


def _update_tree(levels, u, fresh):
    """:func:`_product_tree` of ``u`` from ``levels``, the tree of a stack
    that differs from ``u`` only at the sorted indices ``fresh``.

    Only the nodes above ``fresh`` are multiplied again, one matmul each;
    the others are taken from ``levels``, which is left as it is.  The new
    levels above ``u`` are lists of matrices.
    """
    tree = [u]
    dirty = fresh.tolist()
    for old in levels[1:]:
        below = tree[-1]
        n = len(below)
        level = list(old)
        dirty = list(dict.fromkeys(j // 2 for j in dirty))
        for j in dirty:
            if 2 * j + 1 < n:
                level[j] = below[2 * j + 1] @ below[2 * j]
            else:
                level[j] = below[2 * j]
        tree.append(level)
    return tree


def _evolve_runs(template, runs, step):
    """Total unitaries of sampled waveforms, and their pole errors.

    ``runs`` holds, per waveform, its ``_sampled_runs`` triple, or None for
    a zero-duration waveform (the identity).  The runs of all waveforms
    are exponentiated in one batch, ordered by run count, so the waveforms
    with S runs are multiplied out as one (P, S, dim, dim) view of it.
    Returns the unitaries, shape (P, dim, dim), and per waveform None or
    the EvolutionError that :func:`evolve` raises for it (its unitary is
    then zero).
    """
    out = np.zeros((len(runs), template.dim, template.dim), dtype=complex)
    errors = [None] * len(runs)
    for p in range(len(runs)):
        if runs[p] is None:
            out[p] = np.eye(template.dim)
    # A stable sort: members of one run count keep their order.
    order = sorted(
        (p for p in range(len(runs)) if runs[p] is not None),
        key=lambda p: len(runs[p][1]),
    )
    if not order:
        return out, errors
    # Only a lone waveform is compared with, and kept as, the previous
    # call's runs: the members of a batch are distinct samples or trials,
    # so the next call does not share their runs.
    lone = len(order) == 1
    if lone:
        _times, rows, counts = runs[order[0]]
        levels, poles = _run_unitaries(template, rows, counts * step)
    else:
        rows = np.concatenate([runs[p][1] for p in order])
        dts = np.concatenate([runs[p][2] for p in order]) * step
        u, poles = _exponentiate(template, rows, dts)
    start = 0
    for length, group in groupby(order, key=lambda p: len(runs[p][1])):
        group = list(group)
        stop = start + length * len(group)
        # A member on a pole has a zero step, so its product stays zero.
        if lone:
            out[group] = levels[-1][0]
        else:
            out[group] = _ordered_product(
                u[start:stop].reshape(len(group), length, *out.shape[1:])
            )
        if poles is not None:
            for p, hit in zip(group, poles[start:stop].reshape(len(group), -1)):
                if hit.any():
                    times, member_rows, _counts = runs[p]
                    errors[p] = _pole_error(template, times, member_rows)
        start = stop
    return out, errors


# Step unitaries held per chunk of waveforms, in bytes.  It bounds the
# memory of a batch whatever the number of waveforms: the chunk's
# Hamiltonians, step unitaries and products take a few times this much.
_CHUNK_BYTES = 1 << 19


def _evolve_chunks(template, waveforms, trotter):
    """Total unitaries of many waveforms, a chunk at a time.

    Each waveform is sampled once.  Consecutive waveforms are gathered
    until their matrices fill ``_CHUNK_BYTES``: a step unitary per run, or
    one identity for a zero-duration waveform.  Each chunk is then evolved
    by :func:`_evolve_runs`, and its (unitaries, errors) pair is yielded.
    ``waveforms`` may be any iterable; it is read lazily.
    """
    budget = max(1, _CHUNK_BYTES // (16 * template.dim ** 2))
    chunk, rows = [], 0
    for waveform in waveforms:
        if trotter.n_steps(waveform.duration) == 0:
            chunk.append(None)
            rows += 1
        else:
            chunk.append(_sampled_runs(waveform, trotter))
            rows += len(chunk[-1][1])
        if rows >= budget:
            yield _evolve_runs(template, chunk, trotter.step)
            chunk, rows = [], 0
    if chunk:
        yield _evolve_runs(template, chunk, trotter.step)


def evolve(device, waveform, trotter=TrotterConfig(), basis=None):
    """Total unitary of a waveform on the device's truncated basis.

    The waveform is sampled once, at all Trotter-step midpoints.  Runs of
    consecutive identical samples merge into one step of ``count * step``
    ns; the merged steps that differ from the previous call's are
    exponentiated in one batch (one stacked eigh per excitation block), and
    the step unitaries are multiplied in time order, pairwise.

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
    unitaries, errors = next(
        _evolve_chunks(_template(device, basis), [waveform], trotter)
    )
    if errors[0] is not None:
        raise errors[0]
    return unitaries[0]
