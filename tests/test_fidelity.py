"""Gate-fidelity tests: ideal gate, projection, compensation algebra,
phase fitting round trips, and the fidelity formula's invariances."""

import json
import math

import numpy as np
import pytest

from fluxgate import fidelity, propagator
from fluxgate.cli import main
from fluxgate.device import basis_for, device_to_json, enumerate_basis
from fluxgate.errors import DegenerateUnitaryError, EvolutionError
from fluxgate.fidelity import (
    CompensationPhases,
    ccphase_ideal,
    compensation_matrix,
    computational_indices,
    controlled_phase_ideal,
    fidelity_report,
    fit_phases,
    gate_fidelity,
    _score_waveforms,
    project_to_computational,
    score_waveform,
)
from fluxgate.opensystem import run_qpt
from fluxgate.optimizer import DEConfig, ccphase_fitness, seed_population
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    load_ccphase_pulse,
    load_toy_pulse,
    three_qubit_constraints,
    three_transmon_chain,
    toy_two_transmon_chain,
)
from fluxgate.propagator import evolve
from fluxgate.pulses import (
    PiecewiseConstantWaveform,
    PulseSchedule,
    save_schedule_json,
)
from fluxgate.robustness import (
    NoiseSweepConfig,
    SmoothedWaveform,
    distortion_report,
    noise_sweep,
)


def single_qubit_phase_diag(theta0, thetas):
    """Diagonal of per-qubit Z phases with +i sign (cancelled by the fit)."""
    n = len(thetas)
    b = np.arange(2 ** n)
    shifts = np.arange(n - 1, -1, -1)
    bits = (b[:, None] >> shifts[None, :]) & 1
    return np.diag(np.exp(1j * (theta0 + bits @ np.asarray(thetas))))


class TestIdealGate:
    def test_entries(self):
        u = ccphase_ideal()
        assert u[0, 0] == 1.0
        assert u[7, 7] == -1.0
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0

    def test_squares_to_identity(self):
        u = ccphase_ideal()
        assert np.array_equal(u @ u, np.eye(8))

    def test_two_qubit_variant(self):
        u = controlled_phase_ideal(2)
        assert np.array_equal(np.diag(u), [1, 1, 1, -1])


class TestProjection:
    def setup_method(self):
        self.basis = enumerate_basis(3, 4, 3)

    def test_computational_indices_binary_order(self):
        idx = computational_indices(self.basis)
        states = [self.basis.states[i] for i in idx]
        assert states == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    def test_identity_projects_to_identity(self):
        assert np.array_equal(
            project_to_computational(np.eye(20), self.basis), np.eye(8)
        )

    def test_leakage_shrinks_row_norm(self):
        # Rotate |110> partially into |020>: the projected row loses norm.
        u = np.eye(20, dtype=complex)
        a = self.basis.index_of((1, 1, 0))
        b = self.basis.index_of((0, 2, 0))
        th = 0.4
        u[a, a] = u[b, b] = np.cos(th)
        u[a, b] = np.sin(th)
        u[b, a] = -np.sin(th)
        u8 = project_to_computational(u, self.basis)
        row = list(computational_indices(self.basis)).index(a)
        assert np.linalg.norm(u8[row]) == pytest.approx(np.cos(th), abs=1e-15)

    def test_block_zeros_survive_projection_oracle(self):
        # Brute-force oracle over index pairs: entries between different
        # excitation blocks stay zero after projection.
        rng = np.random.default_rng(2)
        exc = np.array([sum(s) for s in self.basis.states])
        u = rng.normal(size=(20, 20)) * (exc[:, None] == exc[None, :])
        u8 = project_to_computational(u, self.basis)
        idx = computational_indices(self.basis)
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                expected = u[i, j] if exc[i] == exc[j] else 0.0
                assert u8[r, c] == expected

    def test_missing_computational_state(self):
        with pytest.raises(ValueError, match="computational"):
            computational_indices(enumerate_basis(3, 4, 2))


class TestCompensationMatrix:
    def test_zero_phases_identity(self):
        m = compensation_matrix(CompensationPhases.zero(3))
        assert np.array_equal(m, np.eye(8))

    def test_entry_structure(self):
        phases = CompensationPhases(0.3, (0.7, 0.5, 0.2))  # (theta4, theta2, theta1)
        m = compensation_matrix(phases)
        # |011> (index 3) carries theta1 + theta2 on top of the global phase.
        expected = np.exp(-1j * 0.3) * np.exp(-1j * (0.2 + 0.5))
        assert m[3, 3] == pytest.approx(expected, abs=1e-15)
        assert m[0, 0] == pytest.approx(np.exp(-1j * 0.3), abs=1e-15)

    def test_unitary_for_any_phases(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            phases = CompensationPhases(rng.uniform(-4, 4),
                                        rng.uniform(-4, 4, size=3))
            m = compensation_matrix(phases)
            assert np.abs(m @ m.conj().T - np.eye(8)).max() < 1e-14

    def test_theta_accessors(self):
        phases = CompensationPhases(0.0, (0.7, 0.5, 0.2))
        assert phases.theta4 == 0.7
        assert phases.theta2 == 0.5
        assert phases.theta1 == 0.2


class TestFitPhases:
    def test_ideal_gate_gives_zero_phases(self):
        phases = fit_phases(ccphase_ideal())
        assert phases.theta0 == 0.0
        assert phases.qubit_phases == (0.0, 0.0, 0.0)

    def test_round_trip_recovery(self):
        # Construct single-qubit phases per tensor structure, then recover.
        rng = np.random.default_rng(4)
        thetas = rng.uniform(-2.5, 2.5, size=3)
        u = single_qubit_phase_diag(0.0, thetas)
        phases = fit_phases(u, target=np.eye(8))
        assert np.allclose(phases.qubit_phases, thetas, atol=1e-12)
        assert gate_fidelity(u, np.eye(8), phases) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self):
        alpha = 0.9
        u = np.exp(1j * alpha) * ccphase_ideal()
        phases = fit_phases(u)
        assert phases.theta0 == pytest.approx(alpha, abs=1e-12)
        assert gate_fidelity(u, ccphase_ideal(), phases) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_diagonal_raises(self):
        u = np.eye(8, dtype=complex)
        u[1, 1] = 0.0
        with pytest.raises(DegenerateUnitaryError):
            fit_phases(u)

    def test_refinement_stationary_on_structured_diagonal(self):
        # For diagonals with single-qubit phase structure (what near-ideal
        # evolutions produce), the closed form is already optimal.
        rng = np.random.default_rng(9)
        thetas = rng.uniform(-1.0, 1.0, size=3)
        u = single_qubit_phase_diag(0.2, thetas) @ ccphase_ideal()
        f_closed = fidelity_report(u, ccphase_ideal(), refine=False).fidelity
        f_refined = fidelity_report(u, ccphase_ideal(), refine=True).fidelity
        assert f_refined - f_closed < 1e-6
        assert f_refined == pytest.approx(1.0, abs=1e-12)

    def test_refinement_never_decreases_fidelity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u, _ = np.linalg.qr(
                rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            )
            f_closed = gate_fidelity(
                u, ccphase_ideal(), fit_phases(u, refine=False)
            )
            f_refined = gate_fidelity(
                u, ccphase_ideal(), fit_phases(u, refine=True)
            )
            assert f_refined >= f_closed - 1e-12

    def test_phases_wrapped(self):
        u = single_qubit_phase_diag(0.0, (3.0 + 2 * np.pi, 0.0, 0.0))
        phases = fit_phases(u, target=np.eye(8))
        assert -np.pi < phases.theta4 <= np.pi


class TestGateFidelity:
    def test_ideal_scores_one(self):
        assert gate_fidelity(ccphase_ideal(), ccphase_ideal()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_identity_vs_ccphase_zero_compensation(self):
        # (8 + |6|^2) / 72 exactly
        f = gate_fidelity(np.eye(8), ccphase_ideal(), CompensationPhases.zero(3))
        assert f == pytest.approx(44.0 / 72.0, abs=1e-12)

    def test_total_leakage_scores_zero(self):
        f = gate_fidelity(
            np.zeros((8, 8)), ccphase_ideal(), CompensationPhases.zero(3)
        )
        assert f == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        base = gate_fidelity(u, ccphase_ideal())
        for alpha in (0.3, -1.2, np.pi):
            assert gate_fidelity(np.exp(1j * alpha) * u, ccphase_ideal()) == \
                pytest.approx(base, abs=1e-9)

    def test_single_qubit_z_invariance(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        base = gate_fidelity(u, ccphase_ideal())
        for _ in range(5):
            d = single_qubit_phase_diag(rng.uniform(-3, 3),
                                        rng.uniform(-3, 3, size=3))
            assert gate_fidelity(u @ d, ccphase_ideal()) == pytest.approx(
                base, abs=1e-9
            )
            assert gate_fidelity(d @ u, ccphase_ideal()) == pytest.approx(
                base, abs=1e-9
            )

    def test_bounded_for_contractions(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u, _ = np.linalg.qr(
                rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            )
            s = rng.uniform(0, 1, size=8)
            m = (u * s) @ np.linalg.qr(
                rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            )[0]
            f = gate_fidelity(m, ccphase_ideal())
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_report_json_fields(self):
        rep = fidelity_report(ccphase_ideal(), ccphase_ideal())
        doc = rep.to_json()
        assert set(doc) == {
            "schema_version", "fidelity", "theta0", "theta1", "theta2", "theta4"
        }
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-12)


def wrap(theta):
    return -((-theta + np.pi) % (2.0 * np.pi) - np.pi)


def reference_fit(u, target, tol=1e-9, max_rounds=200):
    """Oracle: the closed form, then the numpy coordinate ascent that
    rebuilds exp(-i bits @ theta) over all 2**n entries for every update
    (the implementation the scalar kernel replaced)."""
    u = np.asarray(u)
    n = u.shape[0].bit_length() - 1
    anchors = [2 ** (n - 1 - k) for k in range(n)]
    theta0 = float(np.angle(u[0, 0]))
    theta = np.array([float(np.angle(u[i, i])) - theta0 for i in anchors])
    b = np.arange(2 ** n)
    bits = (b[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    c = (np.conj(target) * u).sum(axis=0)
    for _ in range(max_rounds):
        moved = 0.0
        for k in range(n):
            terms = c * np.exp(-1j * (bits @ theta))
            on = bits[:, k] == 1
            a = terms[~on].sum()
            bk = (terms[on] * np.exp(1j * theta[k])).sum()
            if abs(a) < 1e-15 or abs(bk) < 1e-15:
                continue
            new = float(np.angle(bk) - np.angle(a))
            moved = max(moved, abs(wrap(new - theta[k])))
            theta[k] = new
        if moved < tol:
            break
    return CompensationPhases(theta0, tuple(theta)).reduced()


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projected(device, schedule):
    basis = basis_for(device)
    u = evolve(device, PiecewiseConstantWaveform(schedule), basis=basis)
    return project_to_computational(u, basis)


@pytest.fixture(scope="module")
def acceptance3_unitaries():
    """The 100 random feasible schedules of acceptance criterion 3."""
    device = three_transmon_chain()
    cs = three_qubit_constraints("references")
    population = seed_population(DEConfig(population_size=100, seed=31), cs,
                                 THREE_QUBIT_REFERENCES, 50)
    return [
        projected(device, PulseSchedule(m.reshape(3, 50), 1.0,
                                        THREE_QUBIT_REFERENCES))
        for m in population
    ]


class TestPhaseFitOracle:
    """The scalar coordinate-ascent kernel against the numpy original: the
    same algorithm from the same start, so only rounding may differ."""

    def assert_matches(self, u, target):
        got = fit_phases(u, target)
        want = reference_fit(u, target)
        assert got.theta0 == want.theta0
        for a, b in zip(got.qubit_phases, want.qubit_phases):
            assert abs(wrap(a - b)) <= 1e-12
        assert abs(gate_fidelity(u, target, got)
                   - gate_fidelity(u, target, want)) <= 1e-14

    def test_acceptance3_schedules(self, acceptance3_unitaries):
        target = ccphase_ideal()
        for u in acceptance3_unitaries:
            self.assert_matches(u, target)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_haar_random(self, n):
        rng = np.random.default_rng(100 + n)
        target = controlled_phase_ideal(n)
        for _ in range(200):
            self.assert_matches(haar_unitary(rng, 2 ** n), target)

    def test_shipped_pulses(self):
        self.assert_matches(
            projected(toy_two_transmon_chain(), load_toy_pulse()),
            controlled_phase_ideal(2),
        )
        self.assert_matches(
            projected(three_transmon_chain(), load_ccphase_pulse()),
            ccphase_ideal(),
        )

    def test_degenerate_coordinate_is_skipped(self):
        # Against the identity, every coordinate's B term of
        # diag(1, e^{i phi}, 1, -e^{i phi}) cancels to zero,
        # so both updates are skipped and the closed form stands.
        phi = 0.7
        u = np.diag([1.0, np.exp(1j * phi), 1.0, -np.exp(1j * phi)])
        self.assert_matches(u, np.eye(4))
        phases = fit_phases(u, np.eye(4))
        assert phases.qubit_phases[0] == 0.0
        assert phases.qubit_phases[1] == pytest.approx(phi, abs=1e-15)


def frozen_contract_except(c, z, k):
    """Oracle: (A, B) from c, contracted with (1, z_j) over every qubit
    axis j != k, as computed before the per-n contraction plan (frozen
    copy)."""
    n = len(z)
    if n == 1:
        return c[0], c[1]
    last = k + 1 if k + 1 < n else k - 1
    v = c
    for j in range(min(k, last)):
        half = len(v) >> 1
        zj = z[j]
        v = [v[i] + zj * v[i + half] for i in range(half)]
    for j in range(n - 1, max(k, last), -1):
        zj = z[j]
        v = [v[i] + zj * v[i + 1] for i in range(0, len(v), 2)]
    zl = z[last]
    if last > k:
        return v[0] + zl * v[1], v[2] + zl * v[3]
    return v[0] + zl * v[2], v[1] + zl * v[3]


def frozen_refine(u, target, theta_qubits, tol, max_rounds):
    """Oracle: the scalar coordinate ascent with frozen_contract_except
    called per coordinate (frozen copy)."""
    n = len(theta_qubits)
    c = (np.conj(target) * np.asarray(u)).sum(axis=0).tolist()
    theta = list(theta_qubits)
    z = [complex(math.cos(t), -math.sin(t)) for t in theta]
    for _ in range(max_rounds):
        moved = 0.0
        for k in range(n):
            a, b = frozen_contract_except(c, z, k)
            abs_a, abs_b = abs(a), abs(b)
            if abs_a < 1e-15 or abs_b < 1e-15:
                continue
            new = math.atan2(b.imag, b.real) - math.atan2(a.imag, a.real)
            step = abs((theta[k] - new + math.pi) % math.tau - math.pi)
            if step > moved:
                moved = step
            theta[k] = new
            z[k] = a * b.conjugate() / (abs_a * abs_b)
        if moved < tol:
            break
    return tuple(theta)


class TestRefineOracle:
    """The per-n contraction plan gives the bits of the per-call
    contraction it replaced."""

    def assert_same_bits(self, u, target, start):
        got = fidelity._refine(u, target, start, 1e-9, 200)
        want = frozen_refine(u, target, start, 1e-9, 200)
        assert len(got) == len(want)
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_sub_unitaries(self, n):
        rng = np.random.default_rng(200 + n)
        target = controlled_phase_ideal(n)
        for _ in range(100):
            # A leaky projection: a unitary with its columns shrunk.
            u = haar_unitary(rng, 2 ** n) * rng.uniform(0.5, 1.0, size=2 ** n)
            start = tuple(rng.uniform(-np.pi, np.pi, size=n))
            self.assert_same_bits(u, target, start)

    def test_shipped_pulses(self):
        for device, pulse, n in (
            (toy_two_transmon_chain(), load_toy_pulse(), 2),
            (three_transmon_chain(), load_ccphase_pulse(), 3),
        ):
            u = projected(device, pulse)
            anchors = [2 ** (n - 1 - k) for k in range(n)]
            theta0 = float(np.angle(u[0, 0]))
            start = tuple(float(np.angle(u[i, i])) - theta0 for i in anchors)
            self.assert_same_bits(u, controlled_phase_ideal(n), start)


class TestScoreWaveform:
    """Every caller scores a pulse through the one chain in score_waveform."""

    def test_one_path_for_every_caller(self, tmp_path, monkeypatch):
        device = toy_two_transmon_chain()
        pulse = load_toy_pulse()
        target = controlled_phase_ideal(2)
        fid = score_waveform(
            device, PiecewiseConstantWaveform(pulse), target
        ).fidelity
        assert fid == pytest.approx(0.9996086749508608, abs=1e-9)

        fitness = ccphase_fitness(device, TOY_REFERENCES, 1.0)
        assert fitness(pulse.detunings.reshape(-1)) == fid
        sweep = noise_sweep(pulse, device,
                            NoiseSweepConfig(amplitudes_mhz=(0.0,), samples=2))
        assert sweep.baseline_fidelity == fid
        assert sweep.mean_fidelities == (fid,)
        assert distortion_report(pulse, device).baseline_fidelity == fid
        assert run_qpt(device, pulse).closed_system_fidelity == fid

        monkeypatch.setenv("FLUXGATE_OUT_DIR", str(tmp_path))
        save_schedule_json(pulse, tmp_path / "pulse.json")
        (tmp_path / "device.json").write_text(
            json.dumps(device_to_json(device)))
        assert main([
            "simulate", "--device", str(tmp_path / "device.json"),
            "--pulses", str(tmp_path / "pulse.json"), "--out", "report.json",
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fidelity"] == fid

    def test_pole_raises_evolution_error(self):
        c = np.zeros(20)
        c[10] = 1.8  # drives qubit M (6.0 GHz) onto the 7.8 GHz resonator
        schedule = PulseSchedule(c.reshape(2, 10), 1.0, TOY_REFERENCES)
        with pytest.raises(EvolutionError) as err:
            score_waveform(toy_two_transmon_chain(),
                           PiecewiseConstantWaveform(schedule),
                           controlled_phase_ideal(2))
        assert err.value.time == 0.05  # the first Trotter-step midpoint
        assert err.value.transmon == 1

    @pytest.mark.parametrize("chunk_bytes", [1, None])
    def test_batch_core_matches_scalar(self, monkeypatch, chunk_bytes):
        # One mixed batch: 10 runs (the pulse, an amplitude-0 copy of it
        # and the pulse shifted by 2 MHz), 1 run (idle), 92 runs
        # (Erf-smoothed), a pole crossing (qubit M 0.5 MHz inside the floor
        # of the 7.8 GHz resonator in segment 1) and a zero-duration pulse.
        # One chunk, then one member per chunk.
        if chunk_bytes is not None:
            monkeypatch.setattr(propagator, "_CHUNK_BYTES", chunk_bytes)
        device = toy_two_transmon_chain()
        target = controlled_phase_ideal(2)
        pulse = load_toy_pulse()
        pole = PulseSchedule(np.array([[0.0, 0.0], [0.0, 1.7005]]), 1.0,
                             TOY_REFERENCES)
        waveforms = [
            PiecewiseConstantWaveform(pulse),
            PiecewiseConstantWaveform(pulse.with_detunings(
                pulse.detunings + 0.0 * np.ones_like(pulse.detunings))),
            PiecewiseConstantWaveform(pulse.with_detunings(
                np.zeros_like(pulse.detunings))),
            PiecewiseConstantWaveform(pole),
            SmoothedWaveform(pulse),
            PiecewiseConstantWaveform(
                PulseSchedule(np.zeros((2, 0)), 1.0, TOY_REFERENCES)),
            PiecewiseConstantWaveform(pulse),
            PiecewiseConstantWaveform(pulse.with_detunings(
                pulse.detunings + 0.002)),
        ]
        batches = []
        segment_unitaries = propagator._segment_unitaries

        def counting(template, rows, dts):
            batches.append(len(rows))
            return segment_unitaries(template, rows, dts)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        results = list(_score_waveforms(device, iter(waveforms), target))
        if chunk_bytes is None:
            # The pole fails the whole batch once; the other members then
            # share the second call, not one call each.
            assert len(batches) == 2
        assert len(results) == len(waveforms)
        for i in (0, 1, 2, 4, 6, 7):
            assert results[i].fidelity == score_waveform(
                device, waveforms[i], target).fidelity
        assert results[0].fidelity == results[1].fidelity == results[6].fidelity
        with pytest.raises(EvolutionError) as err:
            score_waveform(device, waveforms[3], target)
        assert isinstance(results[3], EvolutionError)
        assert (results[3].time, results[3].transmon) == (1.05, 1)
        assert (err.value.time, err.value.transmon) == (1.05, 1)
        assert str(results[3]) == str(err.value)
        identity = fidelity_report(np.eye(4), target)
        assert results[5].fidelity == identity.fidelity
        assert np.array_equal(results[5].compensated, identity.compensated)
