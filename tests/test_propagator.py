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
from fluxgate.fidelity import (
    _Scorer,
    controlled_phase_ideal,
    fidelity_report,
    project_to_computational,
    score_waveform,
)
from fluxgate.optimizer import DEConfig, chromosome_to_schedule, seed_population
from fluxgate.propagator import TrotterConfig, evolve, expm_skew
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    three_qubit_constraints,
    three_transmon_chain,
    toy_two_transmon_chain,
)
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule, Waveform


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


def kept_pulses(device, references=(5.0, 6.0, 7.0)):
    """A fitness's kept pulses: detunings around ``references`` on 1 ns
    segments, at the default step."""
    return propagator._KeptPulses(_template(device, basis_for(device)),
                                  references, 1.0, TrotterConfig())


def kept_tree(pulses, det):
    """The (rows, dts, levels) triple ``pulses`` keeps after evolving
    ``det``."""
    pulses.unitary(det)
    return pulses.walk.kept


def unitary(kept):
    """The total unitary of a (rows, dts, levels) triple: its tree's root."""
    return kept[2][-1][0]


def assert_cold_levels(device, kept):
    """Every level of the tree of ``kept`` has the bits of the tree built
    cold from its rows and dts."""
    rows, dts, levels = kept
    cold = propagator._product_tree(propagator._segment_unitaries(
        _template(device, basis_for(device)), rows, dts))
    assert len(levels) == len(cold)
    for got, want in zip(levels, cold):
        assert same_bytes(np.array(got), want)


def counting_updates(monkeypatch):
    """Record the run each walk batch updates: the one way a kept tree is
    updated."""
    updates = []
    walk_batch = propagator._walk_batch

    def counting(template, runs, step, kept):
        batch = walk_batch(template, runs, step, kept)
        if batch is not None:
            updates.append(batch[0])
        return batch

    monkeypatch.setattr(propagator, "_walk_batch", counting)
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
        # A repeated call takes the kept tree with no exponential; a call
        # that moves half the segments from another schedule builds its
        # tree cold, and a one-gene move from it updates one run.
        sched, second = random_schedules(2, seed=23)
        other = np.concatenate([sched.detunings[:, :25],
                                second.detunings[:, 25:]], axis=1)
        moved = sched.detunings.copy()
        moved[2, 9] += 1e-3
        batches = []
        segment_unitaries = propagator._segment_unitaries

        def counting(template, rows, dts):
            batches.append(len(rows))
            return segment_unitaries(template, rows, dts)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        pulses = kept_pulses(device, THREE_QUBIT_REFERENCES)
        cold = pulses.unitary(sched.detunings)
        again = pulses.unitary(sched.detunings.copy())
        pulses.unitary(other)
        mixed = pulses.unitary(sched.detunings)
        assert batches == [50, 50, 50]
        assert np.array_equal(cold, again)
        assert np.array_equal(cold, mixed)
        walked = pulses.unitary(moved)
        assert batches[3:] == [propagator._WALK_START + 1]
        assert np.array_equal(walked, evolve(device, PiecewiseConstantWaveform(
            sched.with_detunings(moved))))
        del batches[:]
        # evolve keeps nothing: it exponentiates every run on every call.
        for _ in range(2):
            assert np.array_equal(
                cold, evolve(device, PiecewiseConstantWaveform(sched)))
        assert batches == [50, 50]
        # Nor does the scorer: each score_waveform is one full batch.
        scores = [score_waveform(device, PiecewiseConstantWaveform(sched),
                                 controlled_phase_ideal(3))
                  for _ in range(2)]
        assert batches == [50, 50, 50, 50]
        assert scores[0].fidelity == scores[1].fidelity

    def test_writing_into_a_result_leaves_reuse_intact(self, device,
                                                       idle_schedule,
                                                       monkeypatch):
        # One run (the idle pulse) and 50 runs: the caller owns evolve's
        # result and a score's compensated unitary, and the next score of
        # the same pulse reuses the kept tree, as does a one-segment move
        # of the 50-run pulse and the move back.
        updates = counting_updates(monkeypatch)
        for sched in (idle_schedule, random_schedules(1, seed=29)[0]):
            wf = PiecewiseConstantWaveform(sched)
            det = sched.detunings.copy()
            det[1, 17] += 1e-3
            moved = sched.with_detunings(det)
            cold = evolve(device, wf)
            want = cold.copy()
            cold[...] = 0.0
            assert np.array_equal(evolve(device, wf), want)
            scorer = _Scorer(device, TrotterConfig(),
                             controlled_phase_ideal(3))
            pulses = kept_pulses(device, sched.search_references)
            report = scorer.report(pulses.unitary(sched.detunings))
            compensated = report.compensated.copy()
            report.compensated[...] = 0.0
            assert np.array_equal(pulses.unitary(sched.detunings), want)
            assert np.array_equal(
                scorer.report(pulses.unitary(sched.detunings)).compensated,
                compensated)
            assert np.array_equal(
                pulses.unitary(moved.detunings),
                evolve(device, PiecewiseConstantWaveform(moved)))
            assert np.array_equal(pulses.unitary(sched.detunings), want)
        # The 50-run pulse's move and move back update the kept tree; the
        # idle pulse's split its one run, so each builds a whole tree.
        assert updates == [17, 17]

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
        idx20 = basis.qubit_indices
        idx64 = full_basis(device).qubit_indices
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
        with pytest.raises(EvolutionError) as err:
            evolve(device, PiecewiseConstantWaveform(sched))
        assert err.value.transmon == 2
        assert err.value.time == pytest.approx(1.05)

    def test_earliest_pole_among_changed_runs_is_reported(self, device,
                                                          monkeypatch):
        # From a clean pulse of five runs, a one-gene move puts qubit L
        # onto its 8.05 GHz resonator in segment 3: the walk batch
        # exponentiates that run alone, and the pole's row must map back
        # to segment 3.  A move that also puts qubit R onto its 8.2 GHz
        # resonator in segment 1 builds its tree whole and reports the
        # earlier segment.  Neither call changes the kept tree.
        updates = counting_updates(monkeypatch)
        clean = np.zeros((3, 5))
        clean[2, 1] = clean[0, 3] = 0.1
        pulses = kept_pulses(device)
        kept = kept_tree(pulses, clean)
        one = clean.copy()
        one[0, 3] = 3.05
        with pytest.raises(EvolutionError) as err:
            pulses.unitary(one)
        assert err.value.transmon == 0
        assert err.value.time == pytest.approx(3.05)
        both = one.copy()
        both[2, 1] = 1.2
        with pytest.raises(EvolutionError) as err:
            pulses.unitary(both)
        assert err.value.transmon == 2
        assert err.value.time == pytest.approx(1.05)
        assert pulses.walk.kept is kept
        assert updates == []

    def test_non_finite_sample_names_time_and_qubit(self, device):
        # A plain Waveform, so it is sampled at every step's midpoint.
        class Broken(Waveform):
            def __init__(self, schedule):
                self.pulse = PiecewiseConstantWaveform(schedule)
                self.duration = schedule.duration

            def frequencies(self, t):
                return np.where([False, t > 2.0, False], np.nan,
                                self.pulse.frequencies(t))

        sched = PulseSchedule(np.zeros((3, 5)), 1.0, (5.0, 6.0, 7.0))
        with pytest.raises(ValueError, match=r"frequency nan GHz at "
                                             r"t=2\.05 ns \(qubit 1\) is "
                                             "not finite"):
            evolve(device, Broken(sched))

    def test_step_not_dividing_segments_keeps_assignment(self, device):
        # 0.3 ns steps divide the 3 ns pulse but not its 1 ns segments:
        # every midpoint keeps the segment the scalar lookup gives it, and
        # the merged runs (0.9, 1.2, 0.9 ns) match one exponential per step.
        det = np.array([[0.0, 0.12, -0.05], [0.03, 0.0, 0.1], [-0.1, 0.07, 0.0]])
        wf = PiecewiseConstantWaveform(PulseSchedule(det, 1.0, (5.0, 6.0, 7.0)))
        trotter = TrotterConfig(0.3)
        times = [(i + 0.5) * 0.3 for i in range(trotter.n_steps(3.0))]
        scalar = np.array([wf.frequencies(t) for t in times])
        basis = basis_for(device)
        per_step = np.eye(20, dtype=complex)
        for freqs in scalar:
            per_step = expm_skew(build_hamiltonian(device, basis, freqs), 0.3) \
                @ per_step
        assert np.abs(evolve(device, wf, trotter) - per_step).max() < 1e-10

    def test_step_must_divide_duration(self, device, idle_schedule):
        with pytest.raises(ValueError, match="divide"):
            evolve(device, PiecewiseConstantWaveform(idle_schedule),
                   TrotterConfig(0.3))


class TestProductTree:
    """A fitness's kept pulses, handed a one-gene move of the last pulse,
    multiply again only the nodes above the one run that changed; every
    other call builds its tree cold.  evolve keeps nothing, so it is the
    cold oracle."""

    @pytest.mark.parametrize("segments", [1, 2, 3, 7, 50])
    def test_warm_tree_equals_cold_product(self, device, segments,
                                           monkeypatch):
        rng = np.random.default_rng(segments)
        updates = counting_updates(monkeypatch)
        last = segments - 1
        # Moves of one run (the last one is carried up every odd level),
        # which update the kept tree, and of two runs and of every run,
        # which build it whole.
        moves = [[0], [last], [segments // 2], [0, last],
                 [segments // 2, last], list(range(segments)), [last]]
        det = rng.uniform(-0.1, 0.1, size=(3, segments))
        pulses = kept_pulses(device)
        pulses.unitary(det)
        want = []
        for k, moved in enumerate(moves):
            det = det.copy()
            det[k % 3, moved] += rng.uniform(1e-4, 1e-3, size=len(moved))
            if len(set(moved)) == 1:
                want.append(moved[0])
            kept = kept_tree(pulses, det)
            assert np.array_equal(unitary(kept), evolve(device, pulse(det)))
            assert_cold_levels(device, kept)
        # A change of run count starts a new tree, which moves then update.
        det = np.concatenate([det, det[:, -1:] + 0.01], axis=1)
        for k in range(3):
            if k:
                det = det.copy()
                det[k, -1] += 1e-3
                want.append(segments)
            kept = kept_tree(pulses, det)
            assert np.array_equal(unitary(kept), evolve(device, pulse(det)))
            assert_cold_levels(device, kept)
        assert updates == want
        assert last in updates

    def test_pole_call_between_moves_keeps_tree(self, device, monkeypatch):
        rng = np.random.default_rng(41)
        updates = counting_updates(monkeypatch)
        det = rng.uniform(-0.1, 0.1, size=(3, 7))
        pulses = kept_pulses(device)
        kept = kept_tree(pulses, det)
        poles = det.copy()
        poles[2, 3] = 1.2  # qubit R onto its 8.2 GHz resonator
        with pytest.raises(EvolutionError):  # a one-gene move: a walk
            pulses.unitary(poles)
        poles[1, 0] += 1e-3
        with pytest.raises(EvolutionError):  # two genes: a whole tree
            pulses.unitary(poles)
        assert pulses.walk.kept is kept
        moved = det.copy()
        moved[0, 5] += 1e-3
        assert np.array_equal(pulses.unitary(moved),
                              evolve(device, pulse(moved)))
        # The pole calls kept nothing: the move updates the tree before it.
        assert updates == [5]

    def test_stored_tree_is_never_written(self, device, monkeypatch):
        # Threads that share a fitness share its kept tree without a lock
        # because nothing a kept tree holds is written after it is kept:
        # every level that an earlier call kept has its bytes at the end
        # of a walk of moves.
        rng = np.random.default_rng(47)
        updates = counting_updates(monkeypatch)
        det = rng.uniform(-0.1, 0.1, size=(3, 12))
        pulses = kept_pulses(device)
        kept = []

        def call(det):
            tree = kept_tree(pulses, det)[2]
            kept.append((tree, [np.array(level).tobytes() for level in tree]))

        call(det)
        # One changed run, two and all of them (whole trees) after an
        # updated tree and after a whole one, a pole, then more moves.
        every = list(range(12))
        for moved in ([4], [0, 11], every, every, None, [7], [3, 8], [11]):
            det = det.copy()
            if moved is None:
                poles = det.copy()
                poles[2, 5] = 1.2  # qubit R onto its 8.2 GHz resonator
                with pytest.raises(EvolutionError):
                    pulses.unitary(poles)
                continue
            det[rng.integers(3), moved] += rng.uniform(1e-4, 1e-3,
                                                        size=len(moved))
            call(det)
        assert updates == [4, 7, 11]
        for tree, snapshot in kept:
            assert [np.array(level).tobytes() for level in tree] == snapshot

    def test_every_run_changed_after_move_equals_cold_tree(self, device,
                                                           monkeypatch):
        # A call that changes every run builds its tree from its new steps
        # alone.  After a kept tree that a move updated (its levels are
        # lists of matrices), every level has the bits of a cold tree.
        rng = np.random.default_rng(53)
        updates = counting_updates(monkeypatch)
        det = rng.uniform(-0.1, 0.1, size=(3, 12))
        pulses = kept_pulses(device)
        pulses.unitary(det)
        det = det.copy()
        det[1, 4] += 1e-3
        kept = kept_tree(pulses, det)
        assert updates == [4]
        assert isinstance(kept[2][0], list)
        assert_cold_levels(device, kept)
        det = det + rng.uniform(1e-4, 1e-3, size=det.shape)
        kept = kept_tree(pulses, det)
        assert np.array_equal(unitary(kept), evolve(device, pulse(det)))
        assert updates == [4]
        assert len(kept[0]) == 12
        assert_cold_levels(device, kept)

    def test_levels_match_stacked_loop(self):
        # Every node of every member's updated tree, not only the product,
        # has the bits of the same node built by the stacked pairwise loop
        # over that member's steps: one step replaced at every index of an
        # odd and an even step count, in batches of one member and of
        # three, each update made to the tree the one before it left.
        rng = np.random.default_rng(43)

        def matrices(*shape):
            return rng.normal(size=(*shape, 6, 6)) \
                + 1j * rng.normal(size=(*shape, 6, 6))

        for steps in (13, 12):
            for members in (1, 3):
                u = matrices(steps)
                levels = propagator._product_tree(u)
                for j in [*range(steps), steps - 1]:
                    new = matrices(members)
                    path = propagator._path_products(levels, new, j)
                    trees = [propagator._with_path(levels, path, j, i)
                             for i in range(members)]
                    for i, tree in enumerate(trees):
                        cold = u.copy()
                        cold[j] = new[i]
                        cold = propagator._product_tree(cold)
                        assert len(tree) == len(cold)
                        for got, want in zip(tree, cold):
                            assert same_bytes(np.array(got), want)
                    u[j] = new[-1]
                    levels = trees[-1]


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
    block: the same bits as the per-block path, and a ValueError for any
    batch that is not exactly symmetric."""

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

    @pytest.mark.parametrize("which", range(3),
                             ids=["three", "toy", "full64"])
    def test_one_state_blocks_match_eigh_bits(self, which):
        # A 1x1 block is exponentiated as exp(-1j * h * dt), not by eigh:
        # the ground block of every basis, and the top block of the full
        # basis.  Seeded rows, a third of them at dt 0.
        template, rows, dts = self.batch(which, 60, seed=41 + which)
        dts[::3] = 0.0
        ones = [block for block in template.blocks if len(block) == 1]
        assert len(ones) == (2 if which == 2 else 1)
        got = propagator._segment_unitaries(template, rows, dts)
        want = frozen_segment_unitaries(template, template.build(rows), dts)
        assert same_bytes(got, want)
        for block in ones:
            assert np.array_equal(got[:, block[0], block[0]][dts == 0],
                                  np.ones(20))

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
        # The entries reach about 100 rad/ns, so expm_skew's 1e-12 relative
        # tolerance would let 1e-11 through; the batch test is exact.
        template, rows, dts = self.batch(0, 3, seed=5)
        for size in (1e-6, 1e-11):
            with monkeypatch.context() as patch:
                skewed = self.asymmetric_build(patch, template, size)
                h = skewed(template, rows)
                assert not np.array_equal(h, h.swapaxes(-2, -1))
                with pytest.raises(ValueError, match="Hermitian"):
                    propagator._segment_unitaries(template, rows, dts)

    def test_negative_dt_raises(self):
        template, rows, dts = self.batch(0, 3, seed=8)
        dts[1] = -0.1
        with pytest.raises(ValueError, match="dt must be"):
            propagator._segment_unitaries(template, rows, dts)

    def test_pole_row_error(self):
        # Row 3 drives qubit R (7 GHz) onto its 8.2 GHz resonator: level 1
        # of transmon 2 sits on the pole.
        template, rows, dts = self.batch(0, 5, seed=9)
        rows[3] = (5.0, 6.0, 8.2)
        with pytest.raises(SingularityError) as err:
            propagator._segment_unitaries(template, rows, dts)
        assert (err.value.row, err.value.transmon, err.value.level) == (3, 2, 1)


class TestPoleChunks:
    """A chunk that holds pole members: each gets the error evolve raises
    for it alone, and the others the unitaries they get alone."""

    def evolve_chunk(self, device, waveforms, monkeypatch):
        """The (unitaries, errors) of ``waveforms`` evolved as one chunk,
        and the number of _segment_unitaries calls it made."""
        calls = []
        segment_unitaries = propagator._segment_unitaries

        def counting(template, rows, dts):
            calls.append(len(rows))
            return segment_unitaries(template, rows, dts)

        trotter = TrotterConfig()
        runs = [propagator._sampled_runs(w, trotter) for w in waveforms]
        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        chunk = propagator._evolve_runs(
            _template(device, basis_for(device)), runs, trotter.step)
        monkeypatch.setattr(propagator, "_segment_unitaries", segment_unitaries)
        return chunk, len(calls)

    def lone_error(self, device, waveform):
        with pytest.raises(EvolutionError) as err:
            evolve(device, waveform)
        return err.value

    def test_mixed_chunk(self, device, monkeypatch):
        # Clean members of 5 and 7 runs; pole members of 5 runs (qubit R
        # onto its 8.2 GHz resonator in segment 3), of 7 runs (qubit L onto
        # its 8.05 GHz resonator in segment 1, qubit R in segment 4) and of
        # 6 runs (qubit R in segment 0).  Sorted by run count, the poles
        # sit between clean members, so rows must map back to members.
        rng = np.random.default_rng(17)
        dets = [rng.uniform(-0.1, 0.1, size=(3, n)) for n in (5, 5, 7, 7, 6, 5)]
        dets[1][2, 3] = 1.2
        dets[3][0, 1] = 3.05
        dets[3][2, 4] = 1.2
        dets[4][2, 0] = 1.2
        poles = [1, 3, 4]
        waveforms = [pulse(det) for det in dets]
        (unitaries, errors), calls = self.evolve_chunk(
            device, waveforms, monkeypatch)
        assert calls == len(poles) + 1
        for p, waveform in enumerate(waveforms):
            if p in poles:
                want = self.lone_error(device, waveform)
                got = errors[p]
                assert isinstance(got, EvolutionError)
                assert (str(got), got.time, got.transmon) == \
                    (str(want), want.time, want.transmon)
                assert not unitaries[p].any()
            else:
                assert errors[p] is None
                assert same_bytes(unitaries[p], evolve(device, waveform))
        assert (errors[1].time, errors[1].transmon) == (pytest.approx(3.05), 2)
        assert (errors[3].time, errors[3].transmon) == (pytest.approx(1.05), 0)
        assert (errors[4].time, errors[4].transmon) == (0.05, 2)

    def test_all_pole_chunk(self, device, monkeypatch):
        rng = np.random.default_rng(18)
        dets = [rng.uniform(-0.1, 0.1, size=(3, n)) for n in (4, 6, 4)]
        for k, det in enumerate(dets):
            det[2, k] = 1.2
        waveforms = [pulse(det) for det in dets]
        (unitaries, errors), calls = self.evolve_chunk(
            device, waveforms, monkeypatch)
        assert calls == len(waveforms)
        assert unitaries.shape == (3, 20, 20) and not unitaries.any()
        for waveform, got in zip(waveforms, errors):
            want = self.lone_error(device, waveform)
            assert (str(got), got.time, got.transmon) == \
                (str(want), want.time, want.transmon)


class TestTrotterConfig:
    def test_positive_step(self):
        with pytest.raises(ValueError):
            TrotterConfig(0.0)

    @pytest.mark.parametrize("step", [np.inf, np.nan])
    def test_finite_step(self, step):
        # An infinite step took zero steps and evolved to the identity.
        with pytest.raises(ValueError, match=f"step must be positive and "
                                             f"finite, got {step}"):
            TrotterConfig(step)
