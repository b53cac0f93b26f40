"""Propagator tests: the eigendecomposition exponential against a
scaling-and-squaring oracle, the batched block propagator against one
scipy exponential per segment, unitarity, exact block structure, batch and
step-reuse invariance, Trotter convergence, and full-space agreement."""

import numpy as np
import pytest
import scipy.linalg

from fluxgate import propagator
from fluxgate.device import _template, basis_for, build_hamiltonian, full_basis
from fluxgate.errors import EvolutionError, SingularityError
from fluxgate.fidelity import computational_indices, fidelity_report, \
    project_to_computational
from fluxgate.optimizer import DEConfig, chromosome_to_schedule, seed_population
from fluxgate.propagator import TrotterConfig, evolve, expm_skew
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    three_qubit_constraints,
    three_transmon_chain,
    toy_two_transmon_chain,
)
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


class TestExpmSkew:
    def test_zero_gives_identity(self):
        assert np.array_equal(expm_skew(np.zeros((4, 4)), 2.0), np.eye(4))

    def test_diagonal_phases(self):
        w = np.array([0.0, 1.5, -2.0])
        u = expm_skew(np.diag(w), 0.7)
        assert np.allclose(u, np.diag(np.exp(-1j * w * 0.7)), atol=1e-14)

    def test_against_scaling_and_squaring_oracle(self):
        rng = np.random.default_rng(7)
        for dim in (5, 20):
            for dt in (0.37, 2.0):
                h = random_hermitian(rng, dim, scale=3.0)
                mine = expm_skew(h, dt)
                oracle = scipy.linalg.expm(-1j * h * dt)
                assert np.abs(mine - oracle).max() < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 16, scale=10.0)
        u = expm_skew(h, 0.37)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12
        assert np.allclose(u @ u.conj().T, u.conj().T @ u, atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            expm_skew(m, 1.0)

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            expm_skew(np.eye(2), -1.0)


@pytest.fixture(scope="module")
def device():
    return three_transmon_chain()


@pytest.fixture(scope="module")
def idle_schedule():
    return PulseSchedule(np.zeros((3, 50)), 1.0, (5.0, 6.0, 7.0))


def random_schedules(count, seed):
    """Seeded feasible three-qubit schedules, 50 x 1 ns segments."""
    population = seed_population(
        DEConfig(population_size=max(count, 4), seed=seed),
        three_qubit_constraints("references"), THREE_QUBIT_REFERENCES, 50,
    )
    return [chromosome_to_schedule(c, 3, 1.0, THREE_QUBIT_REFERENCES)
            for c in population[:count]]


def cold_evolve(device, waveform):
    """evolve with nothing reused from earlier calls; what they kept for
    reuse is left as it was."""
    kept = propagator._LAST_RUNS
    propagator._LAST_RUNS = None
    try:
        return evolve(device, waveform)
    finally:
        propagator._LAST_RUNS = kept


def counting_updates(monkeypatch):
    """Record the changed runs of each incremental product-tree update."""
    updates = []
    update_tree = propagator._update_tree

    def counting(levels, u, fresh):
        updates.append(fresh.tolist())
        return update_tree(levels, u, fresh)

    monkeypatch.setattr(propagator, "_update_tree", counting)
    return updates


def pulse(detunings):
    return PiecewiseConstantWaveform(
        PulseSchedule(detunings, 1.0, (5.0, 6.0, 7.0)))


def excitation_cross(basis):
    exc = np.array([sum(s) for s in basis.states])
    return exc[:, None] != exc[None, :]


class TestEvolve:
    def test_zero_duration_is_identity(self, device):
        sched = PulseSchedule(np.zeros((3, 0)), 1.0, (5.0, 6.0, 7.0))
        u = evolve(device, PiecewiseConstantWaveform(sched))
        assert np.array_equal(u, np.eye(20))

    def test_constant_waveform_equals_single_exponential(self, device):
        sched = PulseSchedule(np.zeros((3, 5)), 1.0, (5.0, 6.0, 7.0))
        u = evolve(device, PiecewiseConstantWaveform(sched))
        basis = basis_for(device)
        h = build_hamiltonian(device, basis, (5.0, 6.0, 7.0))
        assert np.abs(u - expm_skew(h, 5.0)).max() < 1e-10

    def test_unitarity_after_500_steps(self, device, idle_schedule):
        u = evolve(device, PiecewiseConstantWaveform(idle_schedule))
        assert np.abs(u @ u.conj().T - np.eye(20)).max() < 1e-8

    def test_excitation_block_structure(self, device, idle_schedule):
        # Each block is exponentiated on its own, so entries between blocks
        # are exactly zero, not merely small.
        schedules = [idle_schedule] + random_schedules(2, seed=5)
        for basis in (basis_for(device), full_basis(device)):
            cross = excitation_cross(basis)
            for sched in schedules:
                u = evolve(device, PiecewiseConstantWaveform(sched), basis=basis)
                assert np.all(u[cross] == 0.0)

    @pytest.mark.parametrize("count, full", [(20, False), (5, True)])
    def test_matches_per_segment_scipy_expm(self, device, count, full):
        basis = full_basis(device) if full else basis_for(device)
        worst = 0.0
        for sched in random_schedules(count, seed=11 + count):
            oracle = np.eye(basis.dimension, dtype=complex)
            for freqs in sched.absolute_frequencies().T:
                h = build_hamiltonian(device, basis, freqs)
                oracle = scipy.linalg.expm(-1j * h * sched.segment_duration) @ oracle
            u = evolve(device, PiecewiseConstantWaveform(sched), basis=basis)
            worst = max(worst, np.abs(u - oracle).max())
        assert worst < 1e-10

    def test_batch_composition_does_not_change_a_segment(self, device):
        template = _template(device, basis_for(device))
        rows = np.concatenate([
            s.absolute_frequencies().T for s in random_schedules(2, seed=17)
        ])[:50]
        dts = np.linspace(0.1, 1.0, len(rows))
        batch = propagator._segment_unitaries(template, rows, dts)
        for i in range(len(rows)):
            alone = propagator._segment_unitaries(
                template, rows[i:i + 1], dts[i:i + 1])
            assert np.array_equal(batch[i], alone[0])

    def test_cold_and_warm_cache_bit_equal(self, device, monkeypatch):
        sched, second = random_schedules(2, seed=23)
        other = sched.with_detunings(
            np.concatenate([sched.detunings[:, :25],
                            second.detunings[:, 25:]], axis=1))
        batches = []
        segment_unitaries = propagator._segment_unitaries

        def counting(template, rows, dts):
            batches.append(len(rows))
            return segment_unitaries(template, rows, dts)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        monkeypatch.setattr(propagator, "_LAST_RUNS", None)
        cold = evolve(device, PiecewiseConstantWaveform(sched))
        warm = evolve(device, PiecewiseConstantWaveform(sched))
        # Half the segments reused from another schedule's batch, half fresh.
        monkeypatch.setattr(propagator, "_LAST_RUNS", None)
        evolve(device, PiecewiseConstantWaveform(other))
        mixed = evolve(device, PiecewiseConstantWaveform(sched))
        assert batches == [50, 50, 25]
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, mixed)

    def test_writing_into_a_result_leaves_reuse_intact(self, device,
                                                       idle_schedule,
                                                       monkeypatch):
        # One run (the idle pulse) and 50 runs: the caller owns the result,
        # and the next evolve of the same pulse reuses the stored steps and
        # tree, as does a one-segment move of it and the move back.
        updates = counting_updates(monkeypatch)
        for sched in (idle_schedule, random_schedules(1, seed=29)[0]):
            wf = PiecewiseConstantWaveform(sched)
            det = sched.detunings.copy()
            det[1, 17] += 1e-3
            moved = PiecewiseConstantWaveform(sched.with_detunings(det))
            monkeypatch.setattr(propagator, "_LAST_RUNS", None)
            cold = evolve(device, wf)
            want = cold.copy()
            cold[...] = 0.0
            assert np.array_equal(evolve(device, wf), want)
            warm = evolve(device, moved)
            assert np.array_equal(warm, cold_evolve(device, moved))
            warm[...] = 0.0
            assert np.array_equal(evolve(device, wf), want)
        # The 50-run pulse's move and move back update the kept tree.
        assert updates == [[17], [17]]

    def test_trotter_halving(self, device):
        rng = np.random.default_rng(3)
        det = np.cumsum(rng.uniform(-0.05, 0.05, size=(3, 10)), axis=1)
        sched = PulseSchedule(det, 1.0, (5.0, 6.0, 7.0))
        wf = PiecewiseConstantWaveform(sched)
        u1 = evolve(device, wf, TrotterConfig(0.1))
        u2 = evolve(device, wf, TrotterConfig(0.05))
        assert np.abs(u1 - u2).max() < 1e-4

    def test_full_space_agreement(self, device, idle_schedule):
        wf = PiecewiseConstantWaveform(idle_schedule)
        basis = basis_for(device)
        u20 = evolve(device, wf, basis=basis)
        u64 = evolve(device, wf, basis=full_basis(device))
        idx20 = computational_indices(basis)
        idx64 = computational_indices(full_basis(device))
        sub20 = u20[np.ix_(idx20, idx20)]
        sub64 = u64[np.ix_(idx64, idx64)]
        assert np.abs(sub20 - sub64).max() < 1e-3

    def test_idle_identity_fidelity(self, device, idle_schedule):
        # Park-point benchmark: all conditional-phase and leakage error the
        # chain model predicts for 50 ns at 5/6/7 GHz.  Pinned at the
        # computed model value; the headline >= 0.998 check lives in the
        # acceptance suite.
        u = evolve(device, PiecewiseConstantWaveform(idle_schedule))
        basis = basis_for(device)
        rep = fidelity_report(project_to_computational(u, basis), np.eye(8))
        assert rep.fidelity > 0.996
        assert rep.fidelity == pytest.approx(0.9963902, abs=2e-6)

    def test_singularity_names_time_and_qubit(self, device):
        det = np.zeros((3, 5))
        det[2, 3] = 1.2  # drives qubit R (7 GHz) onto the 8.2 GHz resonator
        sched = PulseSchedule(det, 1.0, (5.0, 6.0, 7.0))
        with pytest.raises(EvolutionError) as err:
            evolve(device, PiecewiseConstantWaveform(sched))
        assert err.value.transmon == 2
        assert 3.0 <= err.value.time <= 4.0

    def test_earliest_pole_segment_is_reported(self, device, monkeypatch):
        # Qubit R onto its 8.2 GHz resonator in segment 1, qubit L onto its
        # 8.05 GHz resonator in segment 3: the earlier segment wins over the
        # lower transmon index.
        det = np.zeros((3, 5))
        det[2, 1] = 1.2
        det[0, 3] = 3.05
        sched = PulseSchedule(det, 1.0, (5.0, 6.0, 7.0))
        monkeypatch.setattr(propagator, "_LAST_RUNS", None)
        with pytest.raises(EvolutionError) as err:
            evolve(device, PiecewiseConstantWaveform(sched))
        assert err.value.transmon == 2
        assert err.value.time == pytest.approx(1.05)

    def test_earliest_pole_among_changed_runs_is_reported(self, device):
        # A clean pulse of the same shape leaves segments 0, 2 and 4 to
        # reuse, so only segments 1 and 3 are exponentiated; the pole's
        # position in that batch must map back to segment 1.
        clean = np.zeros((3, 5))
        clean[2, 1] = clean[0, 3] = 0.1
        poles = np.zeros((3, 5))
        poles[2, 1] = 1.2
        poles[0, 3] = 3.05
        evolve(device, PiecewiseConstantWaveform(
            PulseSchedule(clean, 1.0, (5.0, 6.0, 7.0))))
        with pytest.raises(EvolutionError) as err:
            evolve(device, PiecewiseConstantWaveform(
                PulseSchedule(poles, 1.0, (5.0, 6.0, 7.0))))
        assert err.value.transmon == 2
        assert err.value.time == pytest.approx(1.05)

    def test_step_not_dividing_segments_keeps_assignment(self, device):
        # 0.3 ns steps divide the 3 ns pulse but not its 1 ns segments:
        # every midpoint keeps the segment the scalar lookup gives it, and
        # the merged runs (0.9, 1.2, 0.9 ns) match one exponential per step.
        det = np.array([[0.0, 0.12, -0.05], [0.03, 0.0, 0.1], [-0.1, 0.07, 0.0]])
        wf = PiecewiseConstantWaveform(PulseSchedule(det, 1.0, (5.0, 6.0, 7.0)))
        trotter = TrotterConfig(0.3)
        times = [(i + 0.5) * 0.3 for i in range(trotter.n_steps(3.0))]
        scalar = np.array([wf.frequencies(t) for t in times])
        assert np.array_equal(wf.sample(times), scalar)
        basis = basis_for(device)
        per_step = np.eye(20, dtype=complex)
        for freqs in scalar:
            per_step = expm_skew(build_hamiltonian(device, basis, freqs), 0.3) \
                @ per_step
        assert np.abs(evolve(device, wf, trotter) - per_step).max() < 1e-10

    def test_chunks_bound_zero_duration_members(self, device, idle_schedule,
                                                monkeypatch):
        # A budget of three 20 x 20 matrices: zero-duration waveforms count
        # one each, so a stream of them is flushed in chunks of three.
        monkeypatch.setattr(propagator, "_CHUNK_BYTES", 3 * 16 * 20 ** 2)
        empty = PiecewiseConstantWaveform(
            PulseSchedule(np.zeros((3, 0)), 1.0, (5.0, 6.0, 7.0)))
        idle = PiecewiseConstantWaveform(idle_schedule)  # one merged run
        waveforms = [empty] * 7 + [idle] + [empty] * 2
        chunks = list(propagator._evolve_chunks(
            _template(device, basis_for(device)), iter(waveforms),
            TrotterConfig()))
        assert [len(u) for u, _ in chunks] == [3, 3, 3, 1]
        unitaries = np.concatenate([u for u, _ in chunks])
        for i in (0, 1, 2, 3, 4, 5, 6, 8, 9):
            assert np.array_equal(unitaries[i], np.eye(20))
        assert np.array_equal(unitaries[7], evolve(device, idle))

    def test_step_must_divide_duration(self, device, idle_schedule):
        with pytest.raises(ValueError, match="divide"):
            evolve(device, PiecewiseConstantWaveform(idle_schedule),
                   TrotterConfig(0.3))


class TestProductTree:
    """A lone waveform keeps its pairwise product tree, and the next one
    multiplies again only the nodes above the runs that changed."""

    @pytest.mark.parametrize("segments", [1, 2, 3, 7, 50])
    def test_warm_tree_equals_cold_product(self, device, segments,
                                           monkeypatch):
        rng = np.random.default_rng(segments)
        updates = counting_updates(monkeypatch)
        monkeypatch.setattr(propagator, "_LAST_RUNS", None)
        last = segments - 1
        # Moves of one run (the last one is carried up every odd level),
        # of two runs, and of every run.
        moves = [[0], [last], [segments // 2], [0, last],
                 [segments // 2, last], list(range(segments)), [last]]
        det = rng.uniform(-0.1, 0.1, size=(3, segments))
        evolve(device, pulse(det))
        for k, moved in enumerate(moves):
            det = det.copy()
            det[k % 3, moved] += rng.uniform(1e-4, 1e-3, size=len(moved))
            wf = pulse(det)
            assert np.array_equal(evolve(device, wf), cold_evolve(device, wf))
        # A change of run count starts a new tree, which moves then update.
        det = np.concatenate([det, det[:, -1:] + 0.01], axis=1)
        for k in range(3):
            if k:
                det = det.copy()
                det[k, -1] += 1e-3
            wf = pulse(det)
            assert np.array_equal(evolve(device, wf), cold_evolve(device, wf))
        assert len(updates) >= 5
        assert [last] in updates

    def test_pole_call_between_moves_keeps_tree(self, device, monkeypatch):
        rng = np.random.default_rng(41)
        updates = counting_updates(monkeypatch)
        monkeypatch.setattr(propagator, "_LAST_RUNS", None)
        det = rng.uniform(-0.1, 0.1, size=(3, 7))
        evolve(device, pulse(det))
        poles = det.copy()
        poles[2, 3] = 1.2  # qubit R onto its 8.2 GHz resonator
        with pytest.raises(EvolutionError):
            evolve(device, pulse(poles))
        moved = det.copy()
        moved[0, 5] += 1e-3
        wf = pulse(moved)
        assert np.array_equal(evolve(device, wf), cold_evolve(device, wf))
        # The pole call kept nothing: the move updates the tree before it.
        assert updates == [[5]]

    def test_levels_match_stacked_loop(self):
        # Every node of an updated tree, not only the product, has the
        # bits of the same node built by the stacked pairwise loop.
        rng = np.random.default_rng(43)
        u = rng.normal(size=(13, 6, 6)) + 1j * rng.normal(size=(13, 6, 6))
        levels = propagator._product_tree(u)
        for fresh in ([12], [3, 4], [0, 5, 11], [12]):
            u = u.copy()
            u[fresh] = rng.normal(size=(len(fresh), 6, 6))
            levels = propagator._update_tree(levels, u, np.array(fresh))
            cold = propagator._product_tree(u)
            assert len(levels) == len(cold)
            for got, want in zip(levels, cold):
                assert np.array_equal(np.array(got), want)


def frozen_expm_stack(h, dts, herm_tol=1e-12):
    """Oracle: the per-block exponential with its own Hermiticity and dt
    checks, as every block was exponentiated before the one symmetry test
    of _segment_unitaries (frozen copy)."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    if (asym > herm_tol * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    if (dts < 0).any():
        raise ValueError(f"dt must be >= 0, got {dts.min()}")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * dts[:, None])
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-2, -1)


def frozen_segment_unitaries(template, h, dts):
    """Oracle: the stack h exponentiated block by block by
    frozen_expm_stack."""
    u = np.zeros(h.shape, dtype=complex)
    for block in template.blocks:
        index = (slice(None), block[:, None], block)
        u[index] = frozen_expm_stack(h[index], dts)
    return u


def same_bytes(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def oracle_templates():
    """The 20-state three-transmon working basis, the 10-state toy basis
    and the 64-state full basis of the three-transmon chain at 4 levels,
    each with its reference frequencies."""
    chain = three_transmon_chain()
    toy = toy_two_transmon_chain()
    return [
        (_template(chain, basis_for(chain)), THREE_QUBIT_REFERENCES),
        (_template(toy, basis_for(toy)), TOY_REFERENCES),
        (_template(chain, full_basis(chain)), THREE_QUBIT_REFERENCES),
    ]


class TestSegmentUnitaries:
    """One exact symmetry test per batch in place of a toleranced check per
    block: the same bits, and the same errors for the same inputs."""

    def batch(self, which, count, seed):
        template, references = oracle_templates()[which]
        rng = np.random.default_rng(seed)
        rows = np.asarray(references) + rng.uniform(
            -0.4, 0.4, size=(count, len(references)))
        return template, rows, rng.uniform(0.05, 1.0, size=count)

    @pytest.mark.parametrize("count", [0, 1, 2, 50])
    @pytest.mark.parametrize("which", range(3),
                             ids=["three", "toy", "full64"])
    def test_matches_per_block_oracle_bytes(self, which, count):
        template, rows, dts = self.batch(which, count, seed=7 * count + which)
        got = propagator._segment_unitaries(template, rows, dts)
        want = frozen_segment_unitaries(template, template.build(rows), dts)
        assert same_bytes(got, want)

    def asymmetric_build(self, monkeypatch, template, size):
        """Make build return its matrices with ``size`` added to one entry
        above the diagonal of the template's largest excitation block."""
        cls = type(template)
        build = cls.build
        block = max(template.blocks, key=len)
        i, j = block[0], block[1]

        def skewed(self, rows):
            h = build(self, rows)
            h[:, i, j] += size
            return h

        monkeypatch.setattr(cls, "build", skewed)
        return skewed

    def test_asymmetry_beyond_tolerance_raises(self, monkeypatch):
        template, rows, dts = self.batch(0, 3, seed=5)
        self.asymmetric_build(monkeypatch, template, 1e-6)
        with pytest.raises(ValueError, match="Hermitian"):
            propagator._segment_unitaries(template, rows, dts)

    def test_asymmetry_within_tolerance_exponentiates(self, monkeypatch):
        # The entries reach about 100 rad/ns, so 1e-12 relative allows
        # about 1e-10 of asymmetry; the per-block path exponentiated such
        # a matrix, and so does the fallback, with the same bits.
        template, rows, dts = self.batch(0, 3, seed=6)
        skewed = self.asymmetric_build(monkeypatch, template, 1e-11)
        h = skewed(template, rows)
        assert not np.array_equal(h, h.swapaxes(-2, -1))
        got = propagator._segment_unitaries(template, rows, dts)
        assert same_bytes(got, frozen_segment_unitaries(template, h, dts))

    def test_negative_dt_raises(self):
        template, rows, dts = self.batch(0, 3, seed=8)
        dts[1] = -0.1
        with pytest.raises(ValueError, match="dt must be"):
            propagator._segment_unitaries(template, rows, dts)

    def test_pole_row_error_and_mask(self):
        # Row 3 drives qubit R (7 GHz) onto its 8.2 GHz resonator: level 1
        # of transmon 2 sits on the pole.
        template, rows, dts = self.batch(0, 5, seed=9)
        rows[3] = (5.0, 6.0, 8.2)
        with pytest.raises(SingularityError) as err:
            propagator._segment_unitaries(template, rows, dts)
        assert (err.value.row, err.value.transmon, err.value.level) == (3, 2, 1)
        u, poles = propagator._exponentiate(template, rows, dts)
        assert poles.tolist() == [False, False, False, True, False]
        assert not u[3].any()
        keep = ~poles
        assert same_bytes(u[keep], propagator._segment_unitaries(
            template, rows[keep], dts[keep]))

    def test_all_pole_batch(self):
        template, rows, dts = self.batch(0, 3, seed=10)
        rows[:, 2] = 8.2
        u, poles = propagator._exponentiate(template, rows, dts)
        assert poles.all()
        assert u.shape == (3, 20, 20) and not u.any()


class TestTrotterConfig:
    def test_validate_against_segment(self):
        TrotterConfig(0.1).validate_against(1.0)
        with pytest.raises(ValueError):
            TrotterConfig(0.3).validate_against(1.0)

    def test_positive_step(self):
        with pytest.raises(ValueError):
            TrotterConfig(0.0)
