"""Open-system tests: Lindblad decay against analytic oracles, the stacked
density core against the dense loop and the exact Liouvillian, the closed
channel against the full-space path, density invariants, tomography
reconstruction, and the channel metrics."""

import numpy as np
import pytest
from scipy.linalg import expm

from fluxgate import opensystem
from fluxgate.device import (
    DeviceChain,
    TransmonSpec,
    basis_for,
    build_hamiltonian,
    full_basis,
)
from fluxgate.errors import EvolutionError, TomographyError
from fluxgate.fidelity import (
    controlled_phase_ideal,
    project_to_computational,
    score_waveform,
)
from fluxgate.opensystem import (
    LindbladSpec,
    _embed_compensation,
    _StackEvolution,
    chi_ideal,
    estimate_chi,
    evolve_density,
    lowering_operator,
    number_operator,
    pauli_basis,
    prepare_qpt_inputs,
    qpt_metrics,
    run_qpt,
    validate_density,
)
from fluxgate.propagator import TrotterConfig, evolve, step_unitary
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    load_ccphase_pulse,
    load_toy_pulse,
    three_transmon_chain,
    toy_two_transmon_chain,
)
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule


def single_transmon_device():
    return DeviceChain((TransmonSpec(0, 5.0, -0.3),), ())


def idle_waveform(device, duration, segment=None):
    n = device.n_transmons
    refs = tuple(t.bare_frequency for t in device.transmons)
    segment = duration if segment is None else segment
    cols = int(round(duration / segment))
    return PiecewiseConstantWaveform(
        PulseSchedule(np.zeros((n, cols)), segment, refs)
    )


class TestLindbladSpec:
    def test_pure_dephasing_relation(self):
        # T1 = T2 = 20 us gives T_phi = 40 us.
        spec = LindbladSpec(20.0, 20.0)
        (g1, gphi), = spec.rates_per_ns(1)
        assert g1 == pytest.approx(1 / 20_000)
        assert gphi == pytest.approx(1 / 40_000)

    def test_t2_limit_enforced(self):
        with pytest.raises(ValueError, match="T2"):
            LindbladSpec(10.0, 25.0).per_transmon(1)

    def test_t2_exactly_twice_t1_means_no_dephasing(self):
        (_, gphi), = LindbladSpec(10.0, 20.0).rates_per_ns(1)
        assert gphi == 0.0

    def test_infinite_times_mean_no_decay(self):
        (g1, gphi), = LindbladSpec(float("inf"), float("inf")).rates_per_ns(1)
        assert g1 == 0.0 and gphi == 0.0

    def test_per_transmon_sequences(self):
        spec = LindbladSpec((20.0, 30.0), (20.0, 40.0))
        t1, t2 = spec.per_transmon(2)
        assert t1 == (20.0, 30.0) and t2 == (20.0, 40.0)

    @pytest.mark.parametrize("t1, t2", [
        (np.nan, 20.0), (20.0, np.nan), (np.nan, np.nan),
        ((20.0, np.nan), (20.0, 20.0)),
    ])
    def test_nan_times_rejected(self, t1, t2):
        # NaN failed neither the sign nor the T2 <= 2*T1 test, and
        # rates_per_ns mapped it to a rate of 0: a channel with no decay.
        with pytest.raises(ValueError, match="T1 and T2 must be positive, "
                                             "got T1=.*nan"):
            LindbladSpec(t1, t2).rates_per_ns(2)


class TestOperators:
    def test_lowering_operator(self):
        a = lowering_operator(4)
        psi1 = np.zeros(4)
        psi1[1] = 1.0
        assert np.allclose(a @ psi1, [1, 0, 0, 0])
        psi3 = np.zeros(4)
        psi3[3] = 1.0
        assert np.allclose(a @ psi3, [0, 0, np.sqrt(3), 0])

    def test_number_operator(self):
        assert np.array_equal(np.diag(number_operator(4)).real, [0, 1, 2, 3])


class TestValidateDensity:
    def test_accepts_pure_state(self):
        validate_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(4) / 2)

    def test_rejects_non_hermitian(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(rho)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            validate_density(np.diag([1.5, -0.5]).astype(complex))


class TestEvolveDensity:
    def test_unitary_preserves_purity(self):
        dev = toy_two_transmon_chain()
        wf = idle_waveform(dev, 50.0, segment=1.0)
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[5, 5] = 1.0  # |11>
        rho = evolve_density(rho0, dev, wf)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-8
        assert abs(np.trace(rho).real - 1.0) < 1e-8

    def test_t1_decay_matches_exponential(self):
        # |1> held for T1 = 20 us decays to population 1/e.
        dev = single_transmon_device()
        t1_us = 20.0
        duration = 20_000.0
        wf = idle_waveform(dev, duration)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = 1.0
        rho = evolve_density(
            rho0, dev, wf, TrotterConfig(2.0),
            LindbladSpec(t1_us, 2 * t1_us),  # pure relaxation
        )
        assert rho[1, 1].real == pytest.approx(np.e ** -1, abs=1e-3)
        assert abs(np.trace(rho).real - 1.0) < 1e-8

    def test_coherence_decays_at_t2(self):
        dev = single_transmon_device()
        duration = 5_000.0
        wf = idle_waveform(dev, duration)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[1] = 1 / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        rho = evolve_density(
            rho0, dev, wf, TrotterConfig(1.0), LindbladSpec(20.0, 20.0)
        )
        expected = 0.5 * np.exp(-duration / 20_000.0)
        assert abs(rho[0, 1]) == pytest.approx(expected, abs=1e-3)

    def test_trace_preserved_with_decoherence(self):
        dev = toy_two_transmon_chain()
        wf = idle_waveform(dev, 50.0, segment=1.0)
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[5, 5] = 1.0
        rho = evolve_density(rho0, dev, wf, TrotterConfig(0.1),
                             LindbladSpec(20.0, 20.0))
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-7

    def test_purity_non_increasing_for_pure_input(self):
        dev = single_transmon_device()
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = 1.0
        purities = []
        for duration in (100.0, 500.0, 2_000.0, 5_000.0):
            rho = evolve_density(
                rho0, dev, idle_waveform(dev, duration), TrotterConfig(1.0),
                LindbladSpec(20.0, 20.0),
            )
            purities.append(np.trace(rho @ rho).real)
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
        assert purities[0] <= 1.0 + 1e-12

    def test_rejects_invalid_rho(self):
        dev = single_transmon_device()
        with pytest.raises(ValueError):
            evolve_density(np.eye(4, dtype=complex), dev,
                           idle_waveform(dev, 1.0))

    def test_rejects_wrong_dimension(self):
        dev = toy_two_transmon_chain()
        rho = np.diag([1.0] + [0.0] * 9).astype(complex)  # truncated dim
        with pytest.raises(ValueError, match="full space"):
            evolve_density(rho, dev, idle_waveform(dev, 1.0))


class TestPrepareQptInputs:
    def test_count_and_first(self):
        inputs = prepare_qpt_inputs(3, 4)
        assert len(inputs) == 64
        expected = np.zeros((64, 64))
        expected[0, 0] = 1.0
        assert np.allclose(inputs[0], expected, atol=1e-15)

    def test_rx_pi_on_right_qubit(self):
        # Index 3 = (I, I, Rx(pi)): |001><001| up to a global phase.
        inputs = prepare_qpt_inputs(3, 4)
        rho = inputs[3]
        assert rho[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_all_are_valid_densities(self):
        for rho in prepare_qpt_inputs(2, 4):
            validate_density(rho)

    def test_enumeration_is_base_four_left_major(self):
        inputs = prepare_qpt_inputs(2, 2)
        # index 4 = (Rx(pi/2) on left, I on right)
        rho = inputs[4]
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert rho[2, 2].real == pytest.approx(0.5, abs=1e-12)


class TestEstimateChi:
    def test_identity_channel(self):
        # With 2 levels the computational projection of each input is itself.
        inputs = list(prepare_qpt_inputs(2, 2))
        chi = estimate_chi(inputs, inputs)
        assert chi[0, 0].real == pytest.approx(1.0, abs=1e-8)
        assert abs(chi).sum() == pytest.approx(1.0, abs=1e-7)

    def test_unitary_round_trip(self):
        target = controlled_phase_ideal(3)
        inputs = prepare_qpt_inputs(3, 2)
        outputs = [target @ rho @ target.conj().T for rho in inputs]
        chi = estimate_chi(inputs, outputs)
        rep = qpt_metrics(chi, chi_ideal(target))
        assert rep.process_fidelity == pytest.approx(1.0, abs=1e-6)

    def test_output_is_psd_trace_one(self):
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        inputs = prepare_qpt_inputs(2, 2)
        outputs = [u @ rho @ u.conj().T for rho in inputs]
        chi = estimate_chi(inputs, outputs)
        w = np.linalg.eigvalsh(chi)
        assert w.min() > -1e-12
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_raises(self):
        rho = prepare_qpt_inputs(2, 2)[0]
        with pytest.raises(TomographyError):
            estimate_chi([rho] * 16, [rho] * 16)
        with pytest.raises(TomographyError):
            estimate_chi([rho] * 4, [rho] * 4)


class TestQptMetrics:
    def test_ideal_channel_scores_ones(self):
        chi = chi_ideal(controlled_phase_ideal(3))
        rep = qpt_metrics(chi, chi)
        assert rep.process_fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.average_gate_fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.average_purity == pytest.approx(1.0, abs=1e-12)

    def test_zero_process_fidelity_maps_to_one_ninth(self):
        # With d = 8: F_g = (8*0 + 1)/9.
        chi_a = chi_ideal(controlled_phase_ideal(3))
        chi_b = chi_ideal(np.eye(8))
        fake = qpt_metrics(np.zeros((64, 64)), chi_a)
        assert fake.average_gate_fidelity == pytest.approx(1 / 9, abs=1e-12)

    def test_arithmetic_relation_holds_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = rng.uniform(0, 1, size=64)
            w /= w.sum()
            v, _ = np.linalg.qr(
                rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            )
            chi = (v * w) @ v.conj().T
            rep = qpt_metrics(chi, chi_ideal(controlled_phase_ideal(3)))
            assert rep.average_gate_fidelity == \
                (8 * rep.process_fidelity + 1) / 9

    def test_table_arithmetic(self):
        # F_p = 0.995 corresponds to F_g = 0.99556 (rounds to 0.995/0.996).
        assert (8 * 0.995 + 1) / 9 == pytest.approx(0.99556, abs=5e-6)

    def test_pauli_basis_orthogonality(self):
        p = pauli_basis(2)
        gram = np.einsum("mij,nij->mn", p.conj(), p)
        assert np.allclose(gram, 4 * np.eye(16), atol=1e-12)

    def test_chi_ideal_identity_channel(self):
        chi = chi_ideal(np.eye(8))
        expected = np.zeros((64, 64))
        expected[0, 0] = 1.0
        assert np.allclose(chi, expected, atol=1e-14)


@pytest.fixture(scope="module")
def toy_pulse():
    rng = np.random.default_rng(10)
    det = np.cumsum(rng.uniform(-0.02, 0.02, size=(2, 10)), axis=1)
    return PulseSchedule(det, 1.0, TOY_REFERENCES)


class TestRunQpt:
    def test_closed_system_matches_gate_fidelity(self):
        # Agreement of the two fidelity code paths holds in the low-leakage
        # regime tomography is used in; a weakly coupled pair keeps the
        # computational projection near-unitary.
        from fluxgate.device import ResonatorCoupling

        dev = DeviceChain(
            (TransmonSpec(0, 5.4, -0.3), TransmonSpec(1, 6.0, -0.3)),
            (ResonatorCoupling(0, 1, 7.8, 0.05, 0.05),),
        )
        rng = np.random.default_rng(10)
        det = np.cumsum(rng.uniform(-0.02, 0.02, size=(2, 10)), axis=1)
        sched = PulseSchedule(det, 1.0, (5.4, 6.0))
        result = run_qpt(dev, sched, target=controlled_phase_ideal(2))
        assert result.report.average_gate_fidelity == pytest.approx(
            result.closed_system_fidelity, abs=2e-3
        )

    def test_three_qubit_idle_closed_system(self):
        dev = three_transmon_chain()
        sched = PulseSchedule(np.zeros((3, 50)), 1.0, (5.0, 6.0, 7.0))
        result = run_qpt(dev, sched, target=np.eye(8))
        assert result.report.average_gate_fidelity == pytest.approx(
            result.closed_system_fidelity, abs=2e-3
        )
        assert result.chi.shape == (64, 64)

    def test_decoherence_lowers_fidelity_and_purity(self, toy_pulse):
        dev = toy_two_transmon_chain()
        clean = run_qpt(dev, toy_pulse, target=controlled_phase_ideal(2))
        noisy = run_qpt(dev, toy_pulse, lindblad=LindbladSpec(20.0, 20.0),
                        target=controlled_phase_ideal(2))
        assert noisy.report.average_gate_fidelity < \
            clean.report.average_gate_fidelity
        assert noisy.report.average_purity < clean.report.average_purity

    def test_levels_override(self, toy_pulse):
        dev = toy_two_transmon_chain()
        r4 = run_qpt(dev, toy_pulse, target=controlled_phase_ideal(2))
        r3 = run_qpt(dev.with_levels(3), toy_pulse,
                     target=controlled_phase_ideal(2))
        assert abs(r4.report.process_fidelity - r3.report.process_fidelity) < 5e-3


def closed_case(case):
    """(device, waveform, target) of a closed-system tomography case."""
    if case == "toy":
        return (toy_two_transmon_chain(),
                PiecewiseConstantWaveform(load_toy_pulse()),
                controlled_phase_ideal(2))
    dev = three_transmon_chain()
    if case == "ccz_3_levels":
        dev = dev.with_levels(3)
    return (dev, PiecewiseConstantWaveform(load_ccphase_pulse()),
            controlled_phase_ideal(3))


CLOSED_CASES = ["toy", "ccz", "ccz_3_levels"]


def full_space_closed_chi(dev, wave, target):
    """Oracle: closed-system chi through the full product space.  The
    compensated inputs are conjugated by the full-space unitary of evolve
    and cut to their computational block."""
    n, levels = dev.n_transmons, dev.levels_per_transmon
    basis = full_basis(dev)
    idx = basis.qubit_indices
    phases = score_waveform(dev, wave, target).phases
    comp = _embed_compensation(phases, n, levels)
    u = evolve(dev, wave, basis=basis)
    inputs = np.array(prepare_qpt_inputs(n, levels))
    outputs = u @ (comp[:, None] * inputs * comp.conj()) @ u.conj().T
    return estimate_chi(inputs[:, idx[:, None], idx],
                        outputs[:, idx[:, None], idx])


class TestClosedChannel:
    """Closed-system tomography reads the scored compensated unitary."""

    @pytest.mark.parametrize("case", CLOSED_CASES)
    def test_working_and_full_basis_blocks_agree(self, case):
        # H conserves the excitation number, and the working basis holds
        # every state with at most n excitations, so both evolutions have
        # the same computational block.
        dev, wave, _ = closed_case(case)
        blocks = [project_to_computational(evolve(dev, wave, basis=b), b)
                  for b in (basis_for(dev), full_basis(dev))]
        assert np.abs(blocks[0] - blocks[1]).max() <= 1e-14

    @pytest.mark.parametrize("case", CLOSED_CASES)
    def test_closed_chi_matches_full_space_path(self, case, monkeypatch):
        dev, wave, target = closed_case(case)
        want = full_space_closed_chi(dev, wave, target)

        def refuse(*args, **kwargs):
            raise AssertionError("closed tomography left the working basis")

        monkeypatch.setattr(opensystem, "_StackEvolution", refuse)
        monkeypatch.setattr(opensystem, "evolve", refuse)
        got = run_qpt(dev, wave, target=target)
        assert np.abs(got.chi - want).max() <= 1e-15


def _embed(op, position, n, levels):
    full = np.array([[1.0 + 0.0j]])
    for k in range(n):
        full = np.kron(full, op if k == position else np.eye(levels))
    return full


def _collapse_operators(device, lindblad):
    n, levels = device.n_transmons, device.levels_per_transmon
    ops = []
    for k, (g1, gphi) in enumerate(lindblad.rates_per_ns(n)):
        if g1 > 0:
            ops.append(np.sqrt(g1) * _embed(lowering_operator(levels), k, n, levels))
        if gphi > 0:
            ops.append(np.sqrt(2.0 * gphi)
                       * _embed(number_operator(levels), k, n, levels))
    return ops


def dense_evolve_density(stack, device, waveform, trotter, lindblad):
    """Oracle: the dense Strang loop the stacked core replaced.  One input
    of ``stack`` at a time; per step, the half-step unitary on both sides
    of a forward-Euler dissipator built from dense collapse operators.  The
    half-step unitaries are computed once, for all inputs."""
    basis = full_basis(device)
    ops = _collapse_operators(device, lindblad)
    anticomm = sum(op.conj().T @ op for op in ops)
    dt = trotter.step
    halves = []
    for i in range(trotter.n_steps(waveform.duration)):
        freqs = np.asarray(waveform.frequencies((i + 0.5) * dt), dtype=float)
        u = step_unitary(device, basis, freqs, 0.5 * dt)
        halves.append((u, u.conj().T))
    out = []
    for rho in stack:
        for u, ud in halves:
            rho = u @ rho @ ud
            drho = -0.5 * (anticomm @ rho + rho @ anticomm)
            for op in ops:
                drho += op @ rho @ op.conj().T
            rho = rho + dt * drho
            rho = u @ rho @ ud
        out.append(rho)
    return out


def three_qubit_pulse():
    rng = np.random.default_rng(3)
    return PiecewiseConstantWaveform(PulseSchedule(
        rng.uniform(-0.05, 0.05, size=(3, 2)), 1.0, THREE_QUBIT_REFERENCES))


class TestStackedCore:
    @pytest.mark.parametrize("spec", [LindbladSpec(20.0, 20.0),
                                      LindbladSpec(5.0, 8.0)])
    @pytest.mark.parametrize("case", ["three_transmon_3_levels",
                                      "toy_4_levels"])
    def test_stack_matches_dense_loop(self, case, spec):
        if case == "toy_4_levels":
            dev = toy_two_transmon_chain()
            wave = PiecewiseConstantWaveform(load_toy_pulse())
        else:
            dev = three_transmon_chain().with_levels(3)
            wave = three_qubit_pulse()
        n, levels = dev.n_transmons, dev.levels_per_transmon
        stack = np.array(prepare_qpt_inputs(n, levels))
        got = _StackEvolution(dev, wave, TrotterConfig(), spec)(stack)
        want = dense_evolve_density(stack, dev, wave, TrotterConfig(), spec)
        for out, rho in zip(got, want):
            assert np.abs(out - rho).max() <= 1e-13

    def test_batch_of_one_matches_full_stack(self):
        # Every input is evolved on its own GEMM columns and jump indices,
        # so the stack size does not change a single bit.
        dev = three_transmon_chain()
        evolve_stack = _StackEvolution(dev, three_qubit_pulse(), TrotterConfig(),
                                       LindbladSpec(5.0, 8.0))
        stack = np.array(prepare_qpt_inputs(3, 4))
        together = evolve_stack(stack)
        alone = np.concatenate([evolve_stack(stack[i:i + 1])
                                for i in range(len(stack))])
        assert np.array_equal(together, alone)
        keep = [0, 1, 4, 5]
        assert np.array_equal(evolve_stack(stack, keep=keep),
                              together[:, keep][:, :, keep])

    def test_pole_names_time_and_qubit(self):
        # Qubit R (7 GHz) onto its 8.2 GHz resonator in segment 3.
        det = np.zeros((3, 5))
        det[2, 3] = 1.2
        wave = PiecewiseConstantWaveform(PulseSchedule(det, 1.0, (5.0, 6.0, 7.0)))
        dev = three_transmon_chain().with_levels(3)
        with pytest.raises(EvolutionError) as err:
            evolve_density(prepare_qpt_inputs(3, 3)[0], dev, wave,
                           lindblad=LindbladSpec())
        assert err.value.transmon == 2
        assert err.value.time == pytest.approx(3.05)


def liouvillian_evolution(rho, device, schedule, lindblad):
    """Exact open-system evolution of a piecewise-constant pulse: expm of the
    full Liouvillian per segment, on row-major vectorized rho."""
    basis = full_basis(device)
    eye = np.eye(basis.dimension)
    dissipator = 0
    for c in _collapse_operators(device, lindblad):
        k = c.conj().T @ c
        dissipator = dissipator + (np.kron(c, c.conj()) - 0.5 * np.kron(k, eye)
                                   - 0.5 * np.kron(eye, k.T))
    v = rho.reshape(-1)
    for freqs in schedule.absolute_frequencies().T:
        h = build_hamiltonian(device, basis, freqs)
        generator = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + dissipator
        v = expm(generator * schedule.segment_duration) @ v
    return v.reshape(rho.shape)


class TestLiouvillianOracle:
    """The density core against the exact Liouvillian on the toy chain at 3
    levels (dimension 9, an 81 x 81 generator per segment), shipped toy
    pulse, seeded random pure state.

    At T1 = T2 = 20 us the largest |d rho| falls 2.1e-8 -> 5.3e-9 -> 1.3e-9
    at dt = 0.1, 0.05, 0.025 ns (4x per halving): the Strang split's
    second-order error dominates.  The forward-Euler dissipator is first
    order, and its error takes over where dissipation is strong: at
    T1 = 1 us, T2 = 1.5 us it only halves per halving (7.0e-7 -> 3.5e-7 ->
    1.8e-7; over the 16 QPT inputs 2.2e-6 -> 1.1e-6 -> 5.5e-7).  Even at
    20 us the worst QPT input, a coherence of the doubly excited state,
    drops 3.9x and then only 2.2x (1.5e-8 -> 3.9e-9 -> 1.8e-9).  A CPTP
    step with an exact dissipator is open work.
    """

    @pytest.fixture(scope="class")
    def setup(self):
        dev = toy_two_transmon_chain().with_levels(3)
        pulse = load_toy_pulse()
        rng = np.random.default_rng(11)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        return dev, pulse, np.outer(psi, psi.conj())

    def errors(self, setup, spec, steps):
        dev, pulse, rho = setup
        exact = liouvillian_evolution(rho, dev, pulse, spec)
        wave = PiecewiseConstantWaveform(pulse)
        return [np.abs(evolve_density(rho, dev, wave, TrotterConfig(dt), spec)
                       - exact).max() for dt in steps]

    def test_second_order_at_weak_dissipation(self, setup):
        err = self.errors(setup, LindbladSpec(20.0, 20.0), (0.1, 0.05, 0.025))
        assert err[0] <= 5e-8
        assert err[0] >= 3 * err[1] and err[1] >= 3 * err[2]

    def test_converges_at_strong_dissipation(self, setup):
        err = self.errors(setup, LindbladSpec(1.0, 1.5), (0.1, 0.05, 0.025))
        assert err[0] <= 3e-6
        assert err[0] >= 1.8 * err[1] and err[1] >= 1.8 * err[2]
