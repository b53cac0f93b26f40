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
closeness to the target up to a global phase.  :func:`score_waveform` runs
the whole chain, from evolution to score, for every caller; it is the
one-waveform case of ``_score_waveforms``, which scores many waveforms with
one evolution batch per chunk (the noise sweep).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .device import _template, basis_for
from .errors import DegenerateUnitaryError, EvolutionError
from .propagator import TrotterConfig, _evolve_chunks

__all__ = [
    "controlled_phase_ideal",
    "ccphase_ideal",
    "computational_indices",
    "project_to_computational",
    "CompensationPhases",
    "compensation_matrix",
    "fit_phases",
    "gate_fidelity",
    "FidelityReport",
    "fidelity_report",
    "score_waveform",
]


def controlled_phase_ideal(n_qubits=3):
    """diag(1, ..., 1, -1) on 2**n_qubits states: a -1 phase on |1...1> only."""
    d = 2 ** n_qubits
    u = np.eye(d, dtype=complex)
    u[-1, -1] = -1.0
    return u


def ccphase_ideal():
    """The ideal three-qubit controlled-controlled-phase gate (8x8)."""
    return controlled_phase_ideal(3)


def computational_indices(basis):
    """Basis indices of the qubit-like states, in binary order.

    The leftmost transmon is the most significant bit, so lexicographic
    basis ordering already yields binary order.
    """
    idx = [i for i, s in enumerate(basis.states) if max(s) <= 1]
    n = basis.n_transmons
    if len(idx) != 2 ** n:
        raise ValueError(
            f"basis holds {len(idx)} computational states, expected {2 ** n} "
            "(excitation cap below the qubit count?)"
        )
    return tuple(idx)


def project_to_computational(u, basis):
    """Submatrix of ``u`` on the computational states; sub-unitary if leaky."""
    idx = np.asarray(computational_indices(basis))
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


def _phase_exponents(n_qubits):
    """exponent[b, k] = bit k (from the left) of basis index b."""
    b = np.arange(2 ** n_qubits)
    shifts = np.arange(n_qubits - 1, -1, -1)
    return (b[:, None] >> shifts[None, :]) & 1


def _compensation_phasors(phases):
    """The diagonal of :func:`compensation_matrix`, shape (2**n,)."""
    bits = _phase_exponents(phases.n_qubits)
    total = phases.theta0 + bits @ np.asarray(phases.qubit_phases)
    return np.exp(-1j * total)


def compensation_matrix(phases):
    """Diagonal single-qubit Z compensation unitary of shape (2**n, 2**n)."""
    return np.diag(_compensation_phasors(phases))


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


def _refine(u, target, theta_qubits, tol, max_rounds):
    """Exact coordinate ascent of |Tr(T^dag U M)| over the per-qubit phases.

    With all other phases fixed, the trace is A + B*exp(-i t_k), so each
    coordinate update is closed-form: t_k = arg(B) - arg(A).  The kernel
    runs on Python complex scalars and carries the unit phasors
    z_j = exp(-i t_j), updated as A conj(B) / (|A| |B|), so no exponential
    is taken inside the loop; the global phase drops out of the modulus
    and is left untouched.  (A, B) come from the stages of
    :func:`_contraction_plan`, built once per qubit count.
    """
    n = len(theta_qubits)
    # c[b] collects everything that multiplies the b-th compensation phase.
    c = (np.conj(target) * np.asarray(u)).sum(axis=0).tolist()
    theta = list(theta_qubits)
    z = [complex(math.cos(t), -math.sin(t)) for t in theta]
    plan = _contraction_plan(n)
    for _ in range(max_rounds):
        moved = 0.0
        for k, stages in enumerate(plan):
            v = c
            for j, first, second in stages:
                zj = z[j]
                v = [x + zj * y for x, y in zip(v[first], v[second])]
            a, b = v
            abs_a, abs_b = abs(a), abs(b)
            if abs_a < 1e-15 or abs_b < 1e-15:
                continue
            new = math.atan2(b.imag, b.real) - math.atan2(a.imag, a.real)
            # abs(_wrap(new - theta[k])), inlined: it runs on every update.
            step = abs((theta[k] - new + math.pi) % math.tau - math.pi)
            if step > moved:
                moved = step
            theta[k] = new
            z[k] = a * b.conjugate() / (abs_a * abs_b)
        if moved < tol:
            break
    return tuple(theta)


def fit_phases(u, target=None, refine=True, tol=1e-9, max_rounds=200):
    """Single-qubit compensation phases for a computational-subspace matrix.

    Closed form: the global phase is the argument of the |0...0> diagonal
    entry and each qubit phase is the argument of its one-excitation
    diagonal entry relative to that.  This is exact when ``u`` carries
    pure single-qubit phase structure; an optional coordinate-ascent
    refinement then maximizes |Tr(T^dag U M)|, and with it the gate
    fidelity, against ``target`` (default: the controlled-phase gate),
    one qubit phase at a time in closed form on a scalar kernel, until a
    round moves no phase by ``tol`` rad or more (at most ``max_rounds``
    rounds).

    Raises
    ------
    DegenerateUnitaryError
        If a needed diagonal entry is numerically zero.
    """
    u = np.asarray(u)
    d = u.shape[0]
    n = d.bit_length() - 1
    if u.shape != (d, d) or 2 ** n != d:
        raise ValueError(f"expected a square 2**n-dimensional matrix, got {u.shape}")
    anchor_indices = [0] + [2 ** (n - 1 - k) for k in range(n)]
    for i in anchor_indices:
        if abs(u[i, i]) < 1e-12:
            raise DegenerateUnitaryError(
                f"diagonal entry {i} is zero; its phase is undefined"
            )
    theta0 = float(np.angle(u[0, 0]))
    theta_qubits = tuple(
        float(np.angle(u[i, i])) - theta0 for i in anchor_indices[1:]
    )
    if refine:
        if target is None:
            target = controlled_phase_ideal(n)
        theta_qubits = _refine(u, target, theta_qubits, tol, max_rounds)
    return CompensationPhases(theta0, theta_qubits).reduced()


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


def fidelity_report(u, target, refine=True):
    """Fit compensation phases for ``u`` and score it against ``target``."""
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    phases = fit_phases(u, target=target, refine=refine)
    # U M for diagonal M is a column scaling.
    compensated = u * _compensation_phasors(phases)
    fid = _raw_fidelity(compensated, target)
    if fid > 1.0 + 1e-12:
        raise ValueError(f"fidelity {fid} exceeds 1 beyond numerical tolerance")
    return FidelityReport(fid, phases, compensated)


def _score_waveforms(device, waveforms, target, trotter=TrotterConfig()):
    """Score many waveforms as :func:`score_waveform` does, in chunks.

    Each chunk of waveforms is evolved in one batch (see
    ``propagator._evolve_chunks``) and projected in one gather; each member
    is then fitted and scored on its own.  Yields, per waveform in order,
    its FidelityReport, or the EvolutionError that :func:`score_waveform`
    raises for it.  A member's report is bit-identical to the one it gets
    when scored alone.
    """
    basis = basis_for(device)
    idx = np.asarray(computational_indices(basis))
    chunks = _evolve_chunks(_template(device, basis), waveforms, trotter)
    for unitaries, errors in chunks:
        projected = unitaries[:, idx[:, None], idx]
        for u, error in zip(projected, errors):
            yield fidelity_report(u, target) if error is None else error


def score_waveform(device, waveform, target, trotter=TrotterConfig()):
    """Evolve a waveform on the device's working basis, project it to the
    computational subspace, fit the Z compensation and score it.

    Raises
    ------
    EvolutionError
        If the waveform crosses a resonator pole; see
        :func:`~fluxgate.propagator.evolve`.
    """
    (result,) = _score_waveforms(device, [waveform], target, trotter)
    if isinstance(result, EvolutionError):
        raise result
    return result
