"""Computational-subspace projection, phase compensation, and gate fidelity.

An evolved unitary on the truncated basis is projected to the 2**n
computational subspace (states with every transmon level <= 1, in binary
order).  Residual single-qubit Z phases are cancelled by a diagonal
compensation matrix

    M = e^{-i t0} diag over bitstrings b of exp(-i sum_k b_k t_k),

and the result is scored against a target with

    F = [Tr(U' U'^dag) + |Tr(T^dag U')|^2] / (d (d + 1)),   U' = U M.

The first term penalizes leakage out of the computational subspace (the
projection of a leaky unitary is a contraction), the second rewards
closeness to the target up to a global phase.  Every caller scores
through one chain, ``_Scorer``, which keeps no state: it fits and scores
a lone pulse's unitary, and a noise sweep's stacks from the batch path
as one stack (``_fidelity_reports``, whose one-member case is
:func:`fidelity_report`).  Reuse belongs to a fitness's pulses, in the
propagator (``_KeptPulses``), not to the scorer.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .device import _template, basis_for
from .errors import DegenerateUnitaryError
from .propagator import TrotterConfig, _evolve_runs, evolve

__all__ = [
    "controlled_phase_ideal",
    "project_to_computational",
    "CompensationPhases",
    "fit_phases",
    "gate_fidelity",
    "FidelityReport",
    "fidelity_report",
    "score_waveform",
]

_FIT_TOL = 1e-9  # fit_phases refines until a round moves no phase this far
_FIT_ROUNDS = 200  # or for this many rounds


def controlled_phase_ideal(n_qubits=3):
    """diag(1, ..., 1, -1) on 2**n_qubits states: a -1 phase on |1...1> only."""
    d = 2 ** n_qubits
    u = np.eye(d, dtype=complex)
    u[-1, -1] = -1.0
    return u


def project_to_computational(u, basis):
    """Submatrix of ``u`` on the computational states; sub-unitary if leaky."""
    idx = basis.qubit_indices
    return np.asarray(u)[np.ix_(idx, idx)]


@dataclass(frozen=True)
class CompensationPhases:
    """Global phase plus one Z phase per qubit (leftmost qubit first).

    For three qubits the per-qubit phases are, in basis-index terms, the
    phases of |100>, |010> and |001>, exposed as ``theta4``, ``theta2``
    and ``theta1``.
    """

    theta0: float
    qubit_phases: tuple

    def __post_init__(self):
        object.__setattr__(self, "qubit_phases", tuple(self.qubit_phases))

    @property
    def n_qubits(self):
        return len(self.qubit_phases)

    @property
    def theta1(self):
        return self.qubit_phases[-1]

    @property
    def theta2(self):
        return self.qubit_phases[-2]

    @property
    def theta4(self):
        return self.qubit_phases[-3]

    def reduced(self):
        """All phases wrapped to (-pi, pi]."""
        return CompensationPhases(
            _wrap(self.theta0), tuple(_wrap(t) for t in self.qubit_phases)
        )

    @classmethod
    def zero(cls, n_qubits=3):
        return cls(0.0, (0.0,) * n_qubits)


def _wrap(theta):
    """Reduce an angle mod 2*pi into (-pi, pi]."""
    wrapped = -((-theta + np.pi) % (2.0 * np.pi) - np.pi)
    return float(wrapped)


@lru_cache(maxsize=8)
def _phase_bits(n_qubits):
    """bits[b, k] = bit k (from the left) of basis index b, as floats, the
    dtype a product with phases casts them to; read-only, built once per
    qubit count."""
    b = np.arange(2 ** n_qubits)
    shifts = np.arange(n_qubits - 1, -1, -1)
    bits = ((b[:, None] >> shifts[None, :]) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def _phasors(theta):
    """The diagonals of the compensation matrices of a (P, n + 1) stack of
    phases (theta0, then the qubit phases), shape (P, 2**n).

    ``bits @ theta[:, 1:, None]`` is one matrix-vector product per member,
    the BLAS call a lone (2**n, n) @ (n,) product makes: a stacked
    (P, n) @ (n, 2**n) product adds the phases in another order from four
    qubits on.
    """
    bits = _phase_bits(theta.shape[1] - 1)
    total = bits @ theta[:, 1:, None]
    total += theta[:, :1, None]
    return np.exp(-1j * total)[..., 0]


def _compensation_phasors(phases):
    """The diagonal of the single-qubit Z compensation unitary M, shape
    (2**n,)."""
    return _phasors(np.array([[phases.theta0, *phases.qubit_phases]]))[0]


@lru_cache(maxsize=8)
def _contraction_plan(n):
    """Per qubit k, the stages that contract c, viewed as a 2x...x2 tensor,
    with (1, z_j) over every qubit axis j != k, leaving the pair (A, B).

    A stage is (j, first, second): the new entries are
    ``a + z[j] * b for a, b in zip(v[first], v[second])``.  Leading axes
    (qubit j is the leading axis: the first half has bit j = 0) pair
    ``v[:half]`` with ``v[half:]``; trailing ones (even entries have bit
    j = 0) pair ``v[0::2]`` with ``v[1::2]``.  A neighbour of k, ``last``,
    is contracted last, as the leading or trailing axis of the four
    entries left; with one qubit there is nothing to contract.  2**n - 2
    scalar multiply-adds per k.  The plan depends only on n.
    """
    if n == 1:
        return ((),)
    trailing = (slice(0, None, 2), slice(1, None, 2))
    plan = []
    for k in range(n):
        last = k + 1 if k + 1 < n else k - 1
        axes = [*range(min(k, last)), *range(n - 1, max(k, last), -1), last]
        stages = []
        for j in axes:
            # Before stage s, v holds 2**(n - s) entries.
            half = 1 << (n - 1 - len(stages))
            leading = (slice(None, half), slice(half, None))
            stages.append((j, *(leading if j < k else trailing)))
        plan.append(tuple(stages))
    return tuple(plan)


@lru_cache(maxsize=8)
def _refine_kernel(n):
    """Exact coordinate ascent of |Tr(T^dag U M)| over the per-qubit
    phases for n qubits, as one generated Python function
    ``kernel(c, angles, tol, max_rounds)``.

    ``c[b] = sum_a conj(T[a, b]) U[a, b]`` collects everything that
    multiplies the b-th compensation phase.  ``angles`` holds the global
    phase theta0 and then each qubit's anchor angle; a qubit phase starts
    at its angle minus theta0.  The kernel returns theta0 and the refined
    qubit phases, as one tuple.

    With all other phases fixed, the trace is A + B*exp(-i t_k), so each
    coordinate update is closed-form: t_k = arg(B) - arg(A); a coordinate
    whose |A| or |B| is below 1e-15 is skipped.  The kernel runs on Python
    complex scalars and carries the unit phasors z_j = exp(-i t_j), updated
    as A conj(B) / (|A| |B|), so no exponential is taken inside the loop;
    the global phase drops out of the modulus and is left untouched.
    Rounds stop when none moves a phase by ``tol`` or more, or after
    ``max_rounds``.

    The stages of :func:`_contraction_plan` are written out as one
    ``x + zj * y`` statement per multiply-add, on locals: c0, c1, ... for
    c, z0, z1, ... for the phasors, g for theta0 and t0, t1, ... for the
    qubit phases.  Every operation, and its order, is that of the loop
    over the plan that the kernel replaces, so the bits are too
    (tests/test_fidelity.py).
    """
    d = 1 << n
    ts = ", ".join(f"t{j}" for j in range(n))
    body = [
        "def kernel(c, angles, tol, max_rounds):",
        f"    {', '.join(f'c{i}' for i in range(d))}, = c",
        f"    g, {ts}, = angles",
        *(f"    t{j} = t{j} - g" for j in range(n)),
        *(f"    z{j} = complex(cos(t{j}), -sin(t{j}))" for j in range(n)),
        "    for _ in range(max_rounds):",
        "        moved = 0.0",
    ]
    for k, stages in enumerate(_contraction_plan(n)):
        v = [f"c{i}" for i in range(d)]
        for s, (j, first, second) in enumerate(stages):
            new = [f"v{s}_{i}" for i in range(len(v) // 2)]
            body += [f"        {w} = {x} + z{j} * {y}"
                     for w, x, y in zip(new, v[first], v[second])]
            v = new
        a, b = v
        body += [
            f"        abs_a, abs_b = abs({a}), abs({b})",
            "        if not (abs_a < 1e-15 or abs_b < 1e-15):",
            f"            new = atan2({b}.imag, {b}.real) - atan2({a}.imag, {a}.real)",
            # abs(_wrap(new - t_k)), inlined: it runs on every update.
            f"            step = abs((t{k} - new + pi) % tau - pi)",
            "            if step > moved:",
            "                moved = step",
            f"            t{k} = new",
            f"            z{k} = {a} * {b}.conjugate() / (abs_a * abs_b)",
        ]
    body += [
        "        if moved < tol:",
        "            break",
        f"    return (g, {ts},)",
    ]
    namespace = {"cos": math.cos, "sin": math.sin, "atan2": math.atan2,
                 "pi": math.pi, "tau": math.tau}
    exec(compile("\n".join(body), f"<refine kernel, n={n}>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=8)
def _anchor_cells(n):
    """Flat positions, in a 2**n x 2**n matrix, of the diagonal entries of
    |0...0> and of each qubit's one-excitation state, leftmost qubit
    first: the entries the closed form reads.  Read-only, built once per
    qubit count."""
    cells = np.array([0] + [2 ** (n - 1 - k) for k in range(n)]) * (2 ** n + 1)
    cells.setflags(write=False)
    return cells


def _fit_stack(u, target, refine):
    """The phases :func:`fit_phases` fits to each member of a
    (P, 2**n, 2**n) stack, as one (P, n + 1) array: theta0, then the qubit
    phases, all wrapped to (-pi, pi].

    The anchor entries are gathered and checked, and the closed form, the
    ``c`` vectors of :func:`_refine_kernel` and the wrap are computed, for
    the whole stack at once.  Only the scalar kernel runs per member: numpy's
    complex multiply, ``abs`` and ``arctan2`` round differently from the
    Python scalar operations it is made of.  Every stacked step is
    elementwise, or sums along the same axis in the same order as for one
    member, so a member's phases do not depend on the stack
    (tests/test_fidelity.py).  A degenerate member raises the
    DegenerateUnitaryError of the earliest one.
    """
    d = u.shape[-1]
    n = d.bit_length() - 1
    if u.shape[1:] != (d, d) or 2 ** n != d:
        raise ValueError(
            f"expected a square 2**n-dimensional matrix, got {u.shape[1:]}")
    cells = _anchor_cells(n)
    diagonal = u.reshape(len(u), d * d).take(cells, axis=1)
    # Python's abs of a complex is the hypot that numpy's scalar abs
    # takes; numpy's array abs may round differently at the threshold.
    anchors = diagonal.ravel().tolist()
    if min(map(abs, anchors), default=np.inf) < 1e-12:
        k = [abs(a) < 1e-12 for a in anchors].index(True) % (n + 1)
        raise DegenerateUnitaryError(
            f"diagonal entry {cells[k] // (d + 1)} is zero; its phase is "
            "undefined")
    # np.angle, without its dtype dispatch.
    angles = np.arctan2(diagonal.imag, diagonal.real)
    if refine:
        if target is None:
            target = controlled_phase_ideal(n)
        kernel = _refine_kernel(n)
        # c[p, b] collects everything that multiplies member p's b-th
        # compensation phase.
        c = (np.conj(target)[None] * u).sum(axis=1).tolist()
        theta = [kernel(cp, a, _FIT_TOL, _FIT_ROUNDS)
                 for cp, a in zip(c, angles.tolist())]
    else:
        theta = angles
        theta[:, 1:] -= theta[:, :1]
    # _wrap over the stack, -((-t + pi) % tau - pi), with its sum -t + pi
    # taken as pi - t, which has the same bits.
    wrapped = np.remainder(np.subtract(np.pi, theta), 2.0 * np.pi)
    wrapped -= np.pi
    return np.negative(wrapped, out=wrapped)


def fit_phases(u, target=None, refine=True):
    """Single-qubit compensation phases for a computational-subspace matrix.

    Closed form: the global phase is the argument of the |0...0> diagonal
    entry and each qubit phase is the argument of its one-excitation
    diagonal entry relative to that.  This is exact when ``u`` carries
    pure single-qubit phase structure; an optional coordinate-ascent
    refinement then maximizes |Tr(T^dag U M)|, and with it the gate
    fidelity, against ``target`` (default: the controlled-phase gate),
    one qubit phase at a time in closed form on a scalar kernel, until a
    round moves no phase by ``_FIT_TOL`` rad or more (at most
    ``_FIT_ROUNDS`` rounds).

    Raises
    ------
    DegenerateUnitaryError
        If a needed diagonal entry is numerically zero.
    """
    (theta,) = _fit_stack(np.asarray(u)[None], target, refine).tolist()
    return CompensationPhases(theta[0], theta[1:])


def _raw_fidelity(u, target):
    # Tr(U U^dag) and Tr(T^dag U) as elementwise sums.
    d = u.shape[0]
    tr_uu = np.vdot(u, u).real
    tr_t = np.vdot(target, u)
    return float((tr_uu + abs(tr_t) ** 2) / (d * (d + 1)))


def gate_fidelity(u, target, phases=None):
    """Gate fidelity of ``u`` against ``target`` after phase compensation.

    Parameters
    ----------
    u : ndarray
        Projected (possibly sub-unitary) computational-subspace matrix.
    target : ndarray
        Target unitary of the same dimension.
    phases : CompensationPhases, optional
        Compensation to apply; fitted from ``u`` (with refinement against
        ``target``) when omitted.  Pass ``CompensationPhases.zero()`` to
        score without compensation.
    """
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if phases is None:
        phases = fit_phases(u, target=target)
    return _raw_fidelity(u * _compensation_phasors(phases), target)


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity, fitted phases, and the compensated unitary."""

    fidelity: float
    phases: CompensationPhases
    compensated: np.ndarray

    def to_json(self):
        doc = {"schema_version": 1, "fidelity": self.fidelity,
               "theta0": self.phases.theta0}
        n = self.phases.n_qubits
        for k, theta in enumerate(self.phases.qubit_phases):
            doc[f"theta{2 ** (n - 1 - k)}"] = theta
        return doc


def _fidelity_reports(u, target, refine=True):
    """The :func:`fidelity_report` of each member of a complex
    (P, 2**n, 2**n) stack, as a list.

    The phases are fitted by :func:`_fit_stack`, and the compensated
    unitaries are formed for the whole stack; the two traces of the score
    (``np.vdot``, whose sum a stacked reduction would add in another
    order), the bound check and the report stay per member.  A member's
    report is bit-identical to the one it gets alone.  Raises the error of
    the earliest member that fails the fit or the bound.
    """
    theta = _fit_stack(u, target, refine)
    # U M for diagonal M is a column scaling.
    compensated = u * _phasors(theta)[:, None, :]
    reports = []
    for t, m in zip(theta.tolist(), compensated):
        fid = _raw_fidelity(m, target)
        if fid > 1.0 + 1e-12:
            raise ValueError(
                f"fidelity {fid} exceeds 1 beyond numerical tolerance")
        reports.append(FidelityReport(fid, CompensationPhases(t[0], t[1:]), m))
    return reports


def fidelity_report(u, target, refine=True):
    """Fit compensation phases for ``u`` and score it against ``target``."""
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    (report,) = _fidelity_reports(u[None], target, refine)
    return report


class _Scorer:
    """The scoring chain on one device, Trotter config and target; it
    keeps nothing between calls.  :meth:`report` fits and scores a lone
    pulse's unitary, and :meth:`score_runs` scores a noise sweep's stack
    of runs on the batch path.
    """

    def __init__(self, device, trotter, target):
        basis = basis_for(device)
        self.template = _template(device, basis)
        self.step = trotter.step
        self.qubits = basis.qubit_indices
        self.index = np.ix_(self.qubits, self.qubits)
        self.target = np.asarray(target, dtype=complex)

    def score_runs(self, runs):
        """Per pulse, given by its runs, the FidelityReport or
        EvolutionError of :func:`score_waveform`, bit for bit: the pulses
        are evolved in one batch, projected in one gather, and fitted and
        scored as one stack."""
        unitaries, errors = _evolve_runs(self.template, runs, self.step)
        scored = [p for p, error in enumerate(errors) if error is None]
        reports = iter(_fidelity_reports(
            unitaries[np.ix_(scored, self.qubits, self.qubits)], self.target)
            if scored else ())
        return [next(reports) if error is None else error for error in errors]

    def report(self, u):
        """The FidelityReport of a unitary on the working basis: projected,
        fitted and scored alone."""
        (report,) = _fidelity_reports(u[self.index][None], self.target)
        return report


def score_waveform(device, waveform, target, trotter=TrotterConfig()):
    """Evolve a waveform on the device's working basis, project it to the
    computational subspace, fit the Z compensation and score it.

    Raises
    ------
    EvolutionError
        If the waveform crosses a resonator pole; see
        :func:`~fluxgate.propagator.evolve`.
    """
    return _Scorer(device, trotter, target).report(
        evolve(device, waveform, trotter))
