"""Density-matrix evolution and simulated quantum process tomography.

Evolution runs on the full (untruncated) product space of dimension
levels**n.  Without decoherence the density matrix is conjugated by the
unitary of the closed-system propagator.  With decoherence, each Trotter
step applies a symmetric (Strang) split:

    rho -> U_half rho U_half^dag
    rho -> rho + dt * D(rho)
    rho -> U_half rho U_half^dag

where D is the Lindblad dissipator built from per-transmon relaxation
operators sqrt(1/T1) * a (a = sum_j sqrt(j+1) |j><j+1|) and pure-dephasing
operators sqrt(2/T_phi) * n (n = sum_j j |j><j|), with the standard
relation 1/T_phi = 1/T2 - 1/(2 T1).  On the qubit block this reproduces
coherence decay at exactly 1/T2.  Rates are time-constant (coherence is
assumed flux-independent).  The forward-Euler dissipator makes the step
first order in dt where dissipation is strong, and it is not guaranteed
to keep rho positive.

Where two steps of one run (consecutive steps with the same samples) meet,
the closing half step of the first and the opening half step of the
second multiply to the run's full step (Strang, SIAM J. Numer. Anal. 5,
506 (1968)), so they are applied as one conjugation: k steps take k + 1
conjugations, plus one at each run boundary, where the two different
halves are applied in turn, instead of 2k.  The full step is the square
of the half step, not a second exponential at dt: it carries the half
step's rounding, so chi stays within a few 1e-15 of the unmerged split's,
where an exponential at dt moved it by 2e-14 on the 500-step three-qubit
pulse.

With decoherence, one core evolves a whole stack of density matrices at
once: tomography feeds its inputs through it a few at a time, and
:func:`evolve_density` is its single-matrix case.  The half-step
unitaries come from the propagator in one batch, and each conjugation is
a pair of GEMMs per total-excitation block over the whole stack.  The
dissipator needs no matrix product: a^dag a and n^2 are diagonal, so the
anticommutator and the dephasing jumps reduce to one precomputed
elementwise factor, and each relaxation jump a rho a^dag is a weighted
gather of rho at the states one level up.

Tomography follows the standard prepare-evolve-invert recipe: the 4**n
product preparations {I, Rx(pi/2), Ry(pi/2), Rx(pi)} applied to |0...0>
span the computational operator space; linear inversion of the evolved
pairs yields the process matrix chi in the n-qubit Pauli basis, which is
then projected to the nearest Hermitian PSD trace-one matrix.  Without
decoherence the channel is the scored compensated unitary itself: H
conserves the excitation number and the working basis holds every state
with at most n excitations, so its computational block is the full one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .device import _template, full_basis
from .errors import SingularityError, TomographyError
from .fidelity import controlled_phase_ideal, score_waveform
from .propagator import (
    TrotterConfig,
    _pole_error,
    _sampled_runs,
    _segment_unitaries,
    evolve,
)
from .pulses import PiecewiseConstantWaveform, PulseSchedule

__all__ = [
    "LindbladSpec",
    "validate_density",
    "lowering_operator",
    "number_operator",
    "evolve_density",
    "prepare_qpt_inputs",
    "pauli_basis",
    "estimate_chi",
    "chi_ideal",
    "QPTReport",
    "qpt_metrics",
    "QptResult",
    "run_qpt",
]

US_TO_NS = 1000.0
# Tomography inputs that run_qpt evolves together.  On the three-qubit chain
# (64 states) stacks of 4 and 8 were the fastest of 2 to 64, and the peak
# memory of a run grows with the stack: 4.5 MB at 8, 34 MB at 64.
_QPT_STACK = 8
# validate_density's bounds on asymmetry, trace error and eigenvalues.
_DENSITY_HERM_TOL = 1e-10
_DENSITY_TRACE_TOL = 1e-8
_DENSITY_EIG_FLOOR = -1e-8
_CHI_COND_LIMIT = 1e10  # largest input condition number estimate_chi inverts


@dataclass(frozen=True)
class LindbladSpec:
    """Per-transmon relaxation (T1) and coherence (T2) times in microseconds.

    Scalars broadcast over the chain; ``inf`` means no decay.  Requires
    T2 <= 2*T1 per transmon, otherwise the pure-dephasing time T_phi is
    undefined.
    """

    t1_us: object = 20.0
    t2_us: object = 20.0

    def per_transmon(self, n):
        t1 = self.t1_us if isinstance(self.t1_us, (tuple, list)) else (self.t1_us,) * n
        t2 = self.t2_us if isinstance(self.t2_us, (tuple, list)) else (self.t2_us,) * n
        if len(t1) != n or len(t2) != n:
            raise ValueError(f"need {n} T1/T2 values, got {len(t1)}/{len(t2)}")
        for k, (a, b) in enumerate(zip(t1, t2)):
            # Written so that NaN fails too: it would map to a rate of 0.
            if not (a > 0 and b > 0):
                raise ValueError(f"transmon {k}: T1 and T2 must be positive, "
                                 f"got T1={a} us, T2={b} us")
            if b > 2 * a:
                raise ValueError(
                    f"transmon {k}: T2={b} us exceeds 2*T1={2 * a} us; "
                    "pure dephasing time undefined"
                )
        return tuple(float(v) for v in t1), tuple(float(v) for v in t2)

    def rates_per_ns(self, n):
        """(relaxation, pure-dephasing) rate pairs in 1/ns."""
        t1, t2 = self.per_transmon(n)
        out = []
        for a, b in zip(t1, t2):
            g1 = 1.0 / (a * US_TO_NS) if math.isfinite(a) else 0.0
            inv_t2 = 1.0 / (b * US_TO_NS) if math.isfinite(b) else 0.0
            gphi = max(inv_t2 - 0.5 * g1, 0.0)
            out.append((g1, gphi))
        return tuple(out)


def validate_density(rho):
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _DENSITY_HERM_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > _DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < _DENSITY_EIG_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")


def lowering_operator(levels):
    """a = sum_j sqrt(j+1)|j><j+1| on one qudit."""
    return np.diag(np.sqrt(np.arange(1, levels)).astype(complex), k=1)


def number_operator(levels):
    """n = sum_j j|j><j| on one qudit."""
    return np.diag(np.arange(levels).astype(complex))


class _StackEvolution:
    """Lindblad evolution of stacks of full-space density matrices under
    one pulse.

    Everything that depends only on the pulse and the decoherence model is
    built once, on construction; calling the object evolves a (B, dim, dim)
    stack.  The stack is held as (dim, B, dim) in excitation-sorted order,
    so every excitation block is a contiguous slice and the conjugation
    rho -> u rho u^dag by a block-diagonal u is two GEMMs per block over
    the whole stack.

    Each Trotter step is the Strang split of the module docstring with
    merged half steps: the stack is conjugated by the first step's half
    step (``opening``), and after each step's dissipation by the conjugations
    of ``steps``: the run's full step between two steps of one run, the
    run's closing half and the next run's opening half at a run boundary,
    and the last half step at the end, so k steps take k + 1 conjugations
    plus one per run boundary.  The half steps of all sampled runs are
    exponentiated in one batch, and a run's full step is its half step
    squared.  The dissipator needs no matrix product: every collapse
    operator is a number operator or a lowering operator, so
    K = sum_c L_c^dag L_c is diagonal.  The anticommutator term
    -1/2 {K, rho} and the dephasing jumps 2 g_phi n rho n fold into one
    real factor applied elementwise, and each relaxation jump
    g1 a rho a^dag reads rho at the states one level up on that transmon,
    weighted by sqrt((m_i + 1) (m_j + 1)).
    """

    def __init__(self, device, waveform, trotter, lindblad):
        basis = full_basis(device)
        template = _template(device, basis)
        self.order = np.concatenate(template.blocks)
        bounds = np.cumsum([0] + [len(b) for b in template.blocks]).tolist()
        self.slices = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        self.dim = basis.dimension
        # position[i]: where lexicographic basis index i sits in that order.
        self.position = np.empty(self.dim, dtype=np.intp)
        self.position[self.order] = np.arange(self.dim)
        self.opening, self.steps, self.jumps = None, (), ()
        self._flat = {}  # _flat_jumps, per batch size
        dt = trotter.step
        runs = _sampled_runs(waveform, trotter)
        if runs is None:
            return
        times, rows, counts = runs
        try:
            units = _segment_unitaries(
                template, rows, np.full(len(rows), 0.5 * dt)
            )
        except SingularityError as err:
            raise _pole_error(err, times) from err
        # Each half step's diagonal excitation blocks, with their adjoints.
        units = units[:, self.order[:, None], self.order]
        halves = [tuple((u[s, s], u[s, s].conj().T) for s in self.slices)
                  for u in units]
        # After each step's dissipation: the run's full step before the
        # next step of the run, the two halves at a run boundary, and the
        # last half step at the end.  The full step is the square of the
        # half step, which carries the half step's rounding, so the merged
        # split stays within a few 1e-15 of the unmerged one in chi.
        steps = []
        for r, count in enumerate(counts.tolist()):
            if count > 1:
                squares = [m @ m for m, _ in halves[r]]
                full = tuple((m, m.conj().T) for m in squares)
                steps += [(full,)] * (count - 1)
            steps.append(tuple(halves[r:r + 2]))
        self.opening = halves[0]
        self.steps = tuple(steps)
        self._build_dissipator(device, template, lindblad, dt)

    def _build_dissipator(self, device, template, lindblad, dt):
        n = device.n_transmons
        levels = device.levels_per_transmon
        occ = template.occupations[self.order]
        factor = np.zeros((self.dim, self.dim))
        jumps = []
        for k, (g1, gphi) in enumerate(lindblad.rates_per_ns(n)):
            m = occ[:, k].astype(float)
            # K gains g1 n_k + 2 g_phi n_k^2 from this transmon.
            kdiag = g1 * m + 2.0 * gphi * m * m
            factor -= 0.5 * (kdiag[:, None] + kdiag[None, :])
            factor += 2.0 * gphi * np.outer(m, m)
            if g1 > 0:
                rows = np.flatnonzero(occ[:, k] < levels - 1)
                up = self.position[self.order[rows] + levels ** (n - 1 - k)]
                w = np.sqrt(m[rows] + 1.0)
                jumps.append((rows, up, (dt * g1) * np.outer(w, w)[:, None, :]))
        self.scale = 1.0 + dt * factor[:, None, :]
        self.jumps = tuple(jumps)

    def _conjugate(self, x, work, blocks):
        """x -> u x u^dag in place, block by block, through ``work``, a
        buffer of x's shape."""
        for s, (m, _) in zip(self.slices, blocks):
            np.matmul(m, x[s].reshape(len(m), -1), out=work[s].reshape(len(m), -1))
        x2, work2 = x.reshape(-1, self.dim), work.reshape(-1, self.dim)
        for s, (_, mh) in zip(self.slices, blocks):
            np.matmul(work2[:, s], mh, out=x2[:, s])

    def _flat_jumps(self, batch):
        """Every relaxation jump as flat (destination, source, weight)
        arrays over a (dim, batch, dim) stack, built once per batch size."""
        if batch not in self._flat:
            b = np.arange(batch)[None, :, None]

            def flat(index):
                return ((index[:, None, None] * batch + b) * self.dim
                        + index[None, None, :]).ravel()

            self._flat[batch] = [
                (flat(rows), flat(up), np.repeat(weight, batch, axis=1).ravel())
                for rows, up, weight in self.jumps
            ]
        return self._flat[batch]

    def _dissipate(self, x, jumps, pulled, spare):
        """x -> x + dt * D(x) in place.  Every jump reads x before any is
        added; ``pulled`` (one per jump) and ``spare`` are work vectors of
        the jumps' length."""
        flat = x.reshape(-1)
        for (_, src, weight), buf in zip(jumps, pulled):
            np.take(flat, src, out=buf)
            buf *= weight
        x *= self.scale
        for (dst, _, _), buf in zip(jumps, pulled):
            np.take(flat, dst, out=spare)
            spare += buf
            flat[dst] = spare

    def __call__(self, stack, keep=None):
        """Evolve ``stack`` (B, dim, dim); with ``keep``, return only the
        rows and columns of those basis indices, shape (B, k, k)."""
        # Two (dim, B, dim) buffers and a few jump vectors serve every step,
        # so the loop allocates nothing.
        x = np.ascontiguousarray(
            stack[:, self.order[:, None], self.order].transpose(1, 0, 2)
        )
        work = np.empty_like(x)
        if self.steps:
            jumps = self._flat_jumps(x.shape[1])
            pulled = [np.empty(len(dst), dtype=complex) for dst, _, _ in jumps]
            spare = np.empty_like(pulled[0]) if pulled else None
            self._conjugate(x, work, self.opening)
            for after in self.steps:
                self._dissipate(x, jumps, pulled, spare)
                for blocks in after:
                    self._conjugate(x, work, blocks)
        pos = self.position if keep is None else self.position[keep]
        return np.ascontiguousarray(x[pos][:, :, pos].transpose(1, 0, 2))


def evolve_density(rho0, device, waveform, trotter=TrotterConfig(), lindblad=None):
    """Evolve a density matrix on the full product space.

    Parameters
    ----------
    rho0 : ndarray
        Initial density matrix of dimension levels**n; it must pass
        :func:`validate_density`.
    device : DeviceChain
    waveform : Waveform
    trotter : TrotterConfig
        Also sets the fixed integration step for the dissipator.
    lindblad : LindbladSpec, optional
        Decoherence model; omitted means conjugation by the full-space
        unitary of :func:`~fluxgate.propagator.evolve`.
    """
    dim = full_basis(device).dimension
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} density matrix for the full space, "
            f"got {rho.shape}"
        )
    validate_density(rho)
    if lindblad is None:
        u = evolve(device, waveform, trotter, basis=full_basis(device))
        return u @ rho @ u.conj().T
    return _StackEvolution(device, waveform, trotter, lindblad)(rho[None])[0]


def _qubit_rotations():
    c = 1.0 / np.sqrt(2.0)
    rx_half = np.array([[c, -1j * c], [-1j * c, c]])
    ry_half = np.array([[c, -c], [c, c]], dtype=complex)
    rx_pi = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    return [np.eye(2, dtype=complex), rx_half, ry_half, rx_pi]


def prepare_qpt_inputs(n_qubits=3, levels=4):
    """The 4**n tomography input states as full-space density matrices.

    Each preparation applies one of {I, Rx(pi/2), Ry(pi/2), Rx(pi)} per
    qubit (acting on the {|0>,|1>} block, identity on higher levels) to
    |0...0>.  Enumeration is base 4 with the leftmost qubit as the most
    significant digit.
    """
    return list(_outer(_qpt_input_states(n_qubits, levels)))


def _outer(psi):
    """Density matrices |psi><psi| of a stack of state vectors."""
    return psi[:, :, None] * psi.conj()[:, None, :]


@lru_cache(maxsize=8)
def _qpt_input_states(n_qubits, levels):
    """The pure states behind :func:`prepare_qpt_inputs`, one row each, as
    a read-only array built once per (n_qubits, levels)."""
    embedded = []
    for r in _qubit_rotations():
        op = np.eye(levels, dtype=complex)
        op[:2, :2] = r
        embedded.append(op)
    states = []
    for digits in product(range(4), repeat=n_qubits):
        psi = np.zeros(levels ** n_qubits, dtype=complex)
        psi[0] = 1.0
        prep = np.array([[1.0 + 0.0j]])
        for d in digits:
            prep = np.kron(prep, embedded[d])
        states.append(prep @ psi)
    states = np.array(states)
    states.flags.writeable = False
    return states


_PAULI_1 = [
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
]


def pauli_basis(n_qubits):
    """All 4**n Pauli products (I, X, Y, Z per qubit, leftmost first)."""
    return _pauli_stack(n_qubits).copy()


@lru_cache(maxsize=8)
def _pauli_stack(n_qubits):
    """:func:`pauli_basis` as a read-only array, built once per n_qubits."""
    ops = []
    for digits in product(range(4), repeat=n_qubits):
        p = np.array([[1.0 + 0.0j]])
        for d in digits:
            p = np.kron(p, _PAULI_1[d])
        ops.append(p)
    stack = np.array(ops)
    stack.flags.writeable = False
    return stack


def estimate_chi(inputs, outputs):
    """Process matrix from matched input/output computational-subspace pairs.

    Linear inversion of E(rho) = sum_mn chi_mn P_m rho P_n^dag over the
    Pauli basis, followed by projection to the nearest (Frobenius)
    Hermitian PSD trace-one matrix via eigenvalue clipping and rescaling.

    Raises
    ------
    TomographyError
        If the input set does not span the operator space.
    """
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must pair up")
    d = np.asarray(inputs[0]).shape[0]
    d2 = d * d
    if len(inputs) < d2:
        raise TomographyError(
            f"{len(inputs)} input states cannot span a {d2}-dimensional "
            "operator space"
        )
    a = np.asarray(inputs, dtype=complex).reshape(len(inputs), -1).T
    b = np.asarray(outputs, dtype=complex).reshape(len(outputs), -1).T
    if np.linalg.cond(a) > _CHI_COND_LIMIT:
        raise TomographyError("tomography input set is rank deficient")
    # Superoperator on row-major vectorized operators: S vec(rho) = vec(E(rho)).
    s = np.linalg.solve(a.T, b.T).T
    # chi_mn = sum conj(P_m[i, k]) S[(i, j), (k, l)] P_n[j, l] / d**2: with
    # the Pauli stack flattened to rows p[m, (i, k)], two d**2 x d**2 products.
    p = _pauli_stack(round(math.log2(d))).reshape(d2, d2)
    t = s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
    chi = (p.conj() @ t @ p.T) / d2
    chi = 0.5 * (chi + chi.conj().T)
    w, v = np.linalg.eigh(chi)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise TomographyError("estimated process matrix has no positive weight")
    return (v * (w / total)) @ v.conj().T


def chi_ideal(u):
    """Rank-one process matrix of the unitary channel rho -> u rho u^dag."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    n_qubits = round(math.log2(d))
    paulis = _pauli_stack(n_qubits)
    coeff = np.einsum("mji,ji->m", paulis.conj(), u) / d
    return np.outer(coeff, coeff.conj())


@dataclass(frozen=True)
class QPTReport:
    """Process fidelity, average gate fidelity, and average purity."""

    process_fidelity: float
    average_gate_fidelity: float
    average_purity: float

    def to_json(self):
        return {
            "process_fidelity": self.process_fidelity,
            "average_gate_fidelity": self.average_gate_fidelity,
            "average_purity": self.average_purity,
        }


def qpt_metrics(chi, chi_target):
    """Channel metrics from a process matrix and its target.

    F_p = Tr(chi_target chi); F_g = (d F_p + 1)/(d + 1); the average
    purity is (d Tr(chi^2) + 1)/(d + 1), all with d the Hilbert-space
    dimension.
    """
    chi = np.asarray(chi)
    d = round(math.sqrt(chi.shape[0]))
    fp = float(np.trace(chi_target @ chi).real)
    fg = (d * fp + 1.0) / (d + 1.0)
    purity = (d * float(np.trace(chi @ chi).real) + 1.0) / (d + 1.0)
    return QPTReport(fp, fg, purity)


def _embed_compensation(phases, n_qubits, levels):
    """Per-qubit Z compensation lifted to the full space (|1> level only)."""
    full = np.array([1.0 + 0.0j])
    for theta in phases.qubit_phases:
        factor = np.ones(levels, dtype=complex)
        factor[1] = np.exp(-1j * theta)
        full = np.kron(full, factor)
    return full  # diagonal as a vector; global phase drops out of rho -> M rho M^dag


@dataclass(frozen=True)
class QptResult:
    chi: np.ndarray
    report: QPTReport
    phases: object
    closed_system_fidelity: float


def run_qpt(device, schedule, trotter=TrotterConfig(), lindblad=None, target=None):
    """Full tomography of a pulse: evolve the 4**n preparations and invert.

    The characterized channel is the gate that :func:`score_waveform`
    scored, with its fitted Z compensation: without decoherence its
    compensated unitary, applied to the computational inputs.  With
    decoherence the compensation conjugates the input states, which are
    evolved together, in stacks of :data:`_QPT_STACK`, and cut to their
    computational block at once.  Leakage out of the computational
    subspace appears as trace loss absorbed by the PSD projection inside
    :func:`estimate_chi`.

    Parameters
    ----------
    device : DeviceChain
        Another level count is ``device.with_levels(levels)``.
    schedule : PulseSchedule or Waveform
    trotter : TrotterConfig
    lindblad : LindbladSpec, optional
    target : ndarray, optional
        Target gate on the computational subspace (default: the
        controlled-phase gate on n qubits).
    """
    n = device.n_transmons
    lv = device.levels_per_transmon
    if target is None:
        target = controlled_phase_ideal(n)
    waveform = (
        PiecewiseConstantWaveform(schedule)
        if isinstance(schedule, PulseSchedule)
        else schedule
    )

    rep = score_waveform(device, waveform, target, trotter)
    states = _qpt_input_states(n, lv)
    idx = full_basis(device).qubit_indices
    inputs = _outer(states[:, idx])
    if lindblad is None:
        outputs = rep.compensated @ inputs @ rep.compensated.conj().T
    else:
        comp_diag = _embed_compensation(rep.phases, n, lv)
        evolve_stack = _StackEvolution(device, waveform, trotter, lindblad)
        outputs = []
        for start in range(0, len(states), _QPT_STACK):
            stack = _outer(states[start:start + _QPT_STACK])
            stack = comp_diag[:, None] * stack * comp_diag.conj()
            outputs.append(evolve_stack(stack, keep=idx))
        outputs = np.concatenate(outputs)
    chi = estimate_chi(inputs, outputs)
    report = qpt_metrics(chi, chi_ideal(target))
    return QptResult(chi, report, rep.phases, rep.fidelity)
