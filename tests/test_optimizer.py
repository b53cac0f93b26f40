"""Optimizer tests: constraint rules, feasible seeding, the evolution
loop's contracts (determinism, monotonicity, feasibility of everything it
evaluates, checkpoint resume), and the local-search algorithm."""

import copy
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fluxgate import optimizer
from fluxgate.errors import EvaluationError, InfeasibilityError
from fluxgate.optimizer import (
    ConstraintSet,
    DEConfig,
    DetuningRange,
    LocalSearchConfig,
    SussadeState,
    STEP_TOL,
    Violation,
    ccphase_fitness,
    chromosome_to_schedule,
    constraints_from_json,
    constraints_to_json,
    local_search,
    repair_chromosome,
    run_sussade,
    seed_population,
    validate_constraints,
)
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    three_qubit_constraints,
    toy_constraints,
    toy_two_transmon_chain,
)


@pytest.fixture(scope="module")
def cs3():
    return three_qubit_constraints()


class TestValidateConstraints:
    def test_zero_detunings_pass_separation(self, cs3):
        # References 5.61/6/6.39: adjacent gaps are 0.39 >= 0.21.
        violations = validate_constraints(
            np.zeros((3, 50)), cs3, THREE_QUBIT_REFERENCES
        )
        assert not any(v.rule == "separation" for v in violations)

    def test_printed_boundary_tension(self, cs3):
        # The printed profile measures the boundary rule from 5/6/7 GHz,
        # which the L and R search references cannot satisfy.
        violations = validate_constraints(
            np.zeros((3, 50)), cs3, THREE_QUBIT_REFERENCES
        )
        rules = {(v.qubit, v.rule) for v in violations}
        assert (0, "boundary") in rules and (2, "boundary") in rules
        assert (1, "boundary") not in rules

    def test_feasible_variant_accepts_zero(self):
        cs = three_qubit_constraints("references")
        assert validate_constraints(
            np.zeros((3, 50)), cs, THREE_QUBIT_REFERENCES
        ) == []

    def test_step_rule(self):
        cs = three_qubit_constraints("references")
        det = np.zeros((3, 4))
        det[1, 2] = 0.30  # 6.0 -> 6.3 between adjacent segments
        violations = validate_constraints(det, cs, THREE_QUBIT_REFERENCES)
        step = [v for v in violations if v.rule == "step"]
        assert step and step[0].qubit == 1
        assert step[0].value == pytest.approx(0.30)

    def test_separation_rule(self):
        cs = three_qubit_constraints("references")
        det = np.zeros((3, 3))
        det[0, 1] = 0.19   # L to 5.80
        det[1, 1] = -0.05  # M to 5.95: gap 0.15 < 0.21
        violations = validate_constraints(det, cs, THREE_QUBIT_REFERENCES)
        sep = [v for v in violations if v.rule == "separation"]
        assert sep and sep[0].qubit == 0 and sep[0].segment == 1
        assert sep[0].value == pytest.approx(0.15)

    def test_range_rule_respects_inclusivity(self, cs3):
        det = np.zeros((3, 2))
        det[0, 0] = -1e-9  # L range is [0, 0.5): below 0 violates
        violations = validate_constraints(det, cs3, THREE_QUBIT_REFERENCES)
        assert any(v.rule == "range" and v.qubit == 0 for v in violations)
        det2 = np.zeros((3, 2))
        det2[2, 0] = 1e-9  # R range is (-0.5, 0]: above 0 violates
        violations = validate_constraints(det2, cs3, THREE_QUBIT_REFERENCES)
        assert any(v.rule == "range" and v.qubit == 2 for v in violations)

    def test_length_mismatch(self, cs3):
        with pytest.raises(ValueError):
            validate_constraints(np.zeros(7), cs3, THREE_QUBIT_REFERENCES)

    def test_json_round_trip(self, cs3):
        doc = constraints_to_json(cs3)
        assert constraints_from_json(doc) == cs3


class TestSeedPopulation:
    def test_all_members_feasible(self):
        cs = toy_constraints()
        cfg = DEConfig(population_size=200, seed=3)
        pop = seed_population(cfg, cs, TOY_REFERENCES, 10)
        assert pop.shape == (200, 20)
        for member in pop:
            assert validate_constraints(member, cs, TOY_REFERENCES) == []

    def test_deterministic_under_seed(self):
        cs = toy_constraints()
        cfg = DEConfig(population_size=20, seed=42)
        a = seed_population(cfg, cs, TOY_REFERENCES, 10)
        b = seed_population(cfg, cs, TOY_REFERENCES, 10)
        assert np.array_equal(a, b)

    def test_degenerate_ranges_give_zero_population(self):
        cs = ConstraintSet(
            ranges=(DetuningRange(0.0, 0.0), DetuningRange(0.0, 0.0)),
            max_step=0.22,
            boundary_step=0.5,
            idle_frequencies=TOY_REFERENCES,
            min_separation=0.21,
        )
        pop = seed_population(DEConfig(population_size=5, seed=0), cs,
                              TOY_REFERENCES, 4)
        assert np.array_equal(pop, np.zeros((5, 8)))

    def test_infeasible_profile_raises(self):
        # Printed three-qubit profile: L's boundary window does not
        # intersect its range.
        cs = three_qubit_constraints("idle")
        with pytest.raises(InfeasibilityError):
            seed_population(DEConfig(population_size=4, seed=0), cs,
                            THREE_QUBIT_REFERENCES, 5)

    def test_feasible_three_qubit_profile(self):
        cs = three_qubit_constraints("references")
        pop = seed_population(DEConfig(population_size=30, seed=1), cs,
                              THREE_QUBIT_REFERENCES, 50)
        for member in pop:
            assert validate_constraints(member, cs, THREE_QUBIT_REFERENCES) == []


def quadratic_fitness(optimum):
    def fitness(c):
        return 1.0 - float(np.sum((np.asarray(c) - optimum) ** 2))
    return fitness


WIDE = ConstraintSet(
    ranges=(DetuningRange(-0.5, 0.5), DetuningRange(-0.5, 0.5)),
    max_step=0.22,
    boundary_step=None,
    idle_frequencies=None,
    min_separation=None,
)
WIDE_REFS = (5.0, 6.0)


class TestRunSussade:
    def test_monotone_best_history(self):
        cfg = DEConfig(population_size=12, max_generations=30, seed=5,
                       target_fidelity=2.0)
        pop = seed_population(cfg, WIDE, WIDE_REFS, 3)
        res = run_sussade(quadratic_fitness(0.07), cfg, WIDE, WIDE_REFS,
                          population=pop)
        hist = [h.best_fidelity for h in res.history]
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert res.best_fidelity > hist[0]

    def test_identical_population_zero_mutation_is_fixed_point(self):
        cfg = DEConfig(population_size=8, max_generations=5, seed=1,
                       mutation_bounds=(0.0, 0.0), target_fidelity=2.0)
        pop = np.tile(np.full(6, 0.1), (8, 1))
        res = run_sussade(quadratic_fitness(0.0), cfg, WIDE, WIDE_REFS,
                          population=pop)
        assert np.array_equal(res.state.population, pop)

    def test_deterministic(self):
        cfg = DEConfig(population_size=10, max_generations=15, seed=11,
                       target_fidelity=2.0)
        runs = []
        for _ in range(2):
            pop = seed_population(cfg, WIDE, WIDE_REFS, 3)
            runs.append(run_sussade(quadratic_fitness(0.03), cfg, WIDE,
                                    WIDE_REFS, population=pop))
        assert np.array_equal(runs[0].best_chromosome, runs[1].best_chromosome)
        assert runs[0].history == runs[1].history

    def test_threads_racing_on_step_reuse_keep_scores(self):
        # Every evolve reuses the steps of whichever call ran last, in any
        # thread; a short switch interval makes threads swap that record
        # under each other, which must never change a score.
        fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES, 1.0)
        pop = seed_population(DEConfig(population_size=32, seed=5),
                              toy_constraints(), TOY_REFERENCES, 10)
        serial = [fitness(c) for c in pop]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    threaded = list(pool.map(fitness, pop, timeout=120))
                assert threaded == serial
        finally:
            sys.setswitchinterval(old_interval)

    def test_threads_racing_on_tree_reuse_keep_scores(self):
        # A one-segment move updates the product tree the previous call
        # kept.  Threads that interleave their move sequences swap that
        # tree under each other, which must never change a score.
        fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES, 1.0)
        starts = seed_population(DEConfig(population_size=4, seed=7),
                                 toy_constraints(), TOY_REFERENCES, 10)
        rng = np.random.default_rng(7)
        sequences = []
        for x in starts:
            moves = []
            for _ in range(40):
                y = x.copy()
                y[rng.integers(x.size)] += rng.choice([-1e-3, 1e-3])
                moves.append(y)
                if rng.random() < 0.3:
                    x = y
            sequences.append(moves)

        def score(moves):
            return [fitness(c) for c in moves]

        serial = [score(moves) for moves in sequences]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    threaded = list(pool.map(score, sequences, timeout=120))
                assert threaded == serial
        finally:
            sys.setswitchinterval(old_interval)

    def test_every_evaluated_chromosome_feasible(self):
        cs = toy_constraints()
        cfg = DEConfig(population_size=8, max_generations=10, seed=9,
                       target_fidelity=2.0)
        seen = []

        def recording(c):
            seen.append(np.array(c))
            return quadratic_fitness(0.0)(c)

        pop = seed_population(cfg, cs, TOY_REFERENCES, 6)
        run_sussade(recording, cfg, cs, TOY_REFERENCES, population=pop)
        assert len(seen) == 8 * 11
        for c in seen:
            assert validate_constraints(c, cs, TOY_REFERENCES) == []

    def test_generation_zero_only(self):
        cfg = DEConfig(population_size=6, max_generations=0, seed=2,
                       target_fidelity=2.0)
        pop = seed_population(cfg, WIDE, WIDE_REFS, 3)
        res = run_sussade(quadratic_fitness(0.1), cfg, WIDE, WIDE_REFS,
                          population=pop)
        assert len(res.history) == 1
        fits = [quadratic_fitness(0.1)(m) for m in pop]
        assert res.best_fidelity == max(fits)

    def test_stops_at_target(self):
        cfg = DEConfig(population_size=8, max_generations=500, seed=3,
                       target_fidelity=0.99)
        pop = seed_population(cfg, WIDE, WIDE_REFS, 2)
        res = run_sussade(quadratic_fitness(0.0), cfg, WIDE, WIDE_REFS,
                          population=pop)
        assert res.best_fidelity >= 0.99
        assert res.history[-1].generation < 500

    def test_nan_fitness_raises_with_chromosome(self):
        cfg = DEConfig(population_size=6, max_generations=2, seed=2,
                       target_fidelity=2.0)
        pop = seed_population(cfg, WIDE, WIDE_REFS, 2)

        def bad(c):
            return float("nan")

        with pytest.raises(EvaluationError) as err:
            run_sussade(bad, cfg, WIDE, WIDE_REFS, population=pop)
        assert err.value.chromosome is not None

    def test_checkpoint_resume_is_bit_identical(self):
        fitness = quadratic_fitness(0.05)
        cfg_full = DEConfig(population_size=10, max_generations=20, seed=17,
                            target_fidelity=2.0)
        pop = seed_population(cfg_full, WIDE, WIDE_REFS, 3)
        full = run_sussade(fitness, cfg_full, WIDE, WIDE_REFS,
                           population=pop.copy())

        cfg_half = DEConfig(population_size=10, max_generations=10, seed=17,
                            target_fidelity=2.0)
        first = run_sussade(fitness, cfg_half, WIDE, WIDE_REFS,
                            population=pop.copy())
        snapshot = SussadeState.from_json(first.state.to_json())
        resumed = run_sussade(fitness, cfg_full, WIDE, WIDE_REFS,
                              state=snapshot)
        assert np.array_equal(resumed.best_chromosome, full.best_chromosome)
        assert resumed.history == full.history

    def test_population_size_minimum(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)


class TestLocalSearch:
    def test_quadratic_converges_within_eps_min(self):
        cfg = LocalSearchConfig(eps_max=0.1, eps_min=1e-6, max_iterations=50,
                                target_fidelity=2.0)
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.5, 0.5),), max_step=None,
            boundary_step=None, idle_frequencies=None, min_separation=None,
        )
        optimum = 0.123456789
        res = local_search(np.array([0.3]), quadratic_fitness(optimum), cfg,
                           cs, (5.0,))
        assert abs(res.chromosome[0] - optimum) <= 1e-6

    def test_output_never_below_input(self):
        cfg = LocalSearchConfig(max_iterations=2, target_fidelity=2.0)
        fitness = quadratic_fitness(np.array([0.2, -0.1, 0.0]))
        start = np.array([0.0, 0.0, 0.3])
        cs = ConstraintSet(
            ranges=tuple(DetuningRange(-0.5, 0.5) for _ in range(3)),
            max_step=None, boundary_step=None, idle_frequencies=None,
            min_separation=None,
        )
        res = local_search(start, fitness, cfg, cs, (5.0, 6.0, 7.0))
        assert res.fidelity >= fitness(start)

    def test_eps_schedule_is_decade_ladder(self):
        cfg = LocalSearchConfig(eps_max=0.1, eps_min=1e-6, max_iterations=3,
                                target_fidelity=2.0)
        expected = [0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        assert np.allclose(cfg.eps_ladder(), expected, rtol=1e-9)
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.5, 0.5),), max_step=None,
            boundary_step=None, idle_frequencies=None, min_separation=None,
        )
        res = local_search(np.array([0.4]), quadratic_fitness(0.11), cfg, cs,
                           (5.0,))
        per_iter = len(expected)
        assert len(res.eps_schedule) % per_iter == 0
        for i in range(0, len(res.eps_schedule), per_iter):
            assert np.allclose(res.eps_schedule[i:i + per_iter], expected,
                               rtol=1e-9)

    def test_moves_respect_constraints(self):
        # Optimum outside the range: search must stop at the boundary.
        cfg = LocalSearchConfig(max_iterations=5, target_fidelity=2.0)
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.1, 0.1),), max_step=None,
            boundary_step=None, idle_frequencies=None, min_separation=None,
        )
        res = local_search(np.array([0.0]), quadratic_fitness(0.4), cfg, cs,
                           (5.0,))
        assert res.chromosome[0] <= 0.1

    def test_requires_feasible_start(self):
        cfg = LocalSearchConfig(max_iterations=1, target_fidelity=2.0)
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.1, 0.1),), max_step=None,
            boundary_step=None, idle_frequencies=None, min_separation=None,
        )
        with pytest.raises(ValueError, match="constraint"):
            local_search(np.array([0.5]), quadratic_fitness(0.0), cfg, cs,
                         (5.0,))

    def test_stops_at_target(self):
        cfg = LocalSearchConfig(max_iterations=100, target_fidelity=0.999)
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.5, 0.5),), max_step=None,
            boundary_step=None, idle_frequencies=None, min_separation=None,
        )
        res = local_search(np.array([0.3]), quadratic_fitness(0.29), cfg, cs,
                           (5.0,))
        assert res.fidelity >= 0.999


class TestFitnessPipeline:
    def test_deterministic_bit_for_bit(self):
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        c = np.linspace(-0.05, 0.05, 20)
        assert fitness(c) == fitness(c)

    def test_zero_chromosome_in_range(self):
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        f = fitness(np.zeros(20))
        assert 0.0 <= f <= 1.0

    def test_pole_failures_warn_once_and_count(self, caplog):
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        assert fitness.pole_failures == 0
        first, second = np.zeros(20), np.zeros(20)
        first[10] = 1.8   # qubit M onto the 7.8 GHz resonator
        second[15] = 1.75  # inside the pole's dispersive floor
        with caplog.at_level(logging.DEBUG, logger="fluxgate.optimizer"):
            assert fitness(first) == 0.0
            assert fitness(second) == 0.0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(warnings) == 1
        assert "scoring fitness 0" in warnings[0].getMessage()
        assert len(debug) == 1
        assert fitness.pole_failures == 2

    def test_pole_failure_count_survives_threads(self, caplog):
        # Concurrent failures must neither lose a count nor warn twice.
        fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES, 1.0)
        chromosomes = []
        for i in range(48):
            c = np.zeros(20)
            c[10 + i % 10] = 1.75 + 1e-3 * (i % 7)
            chromosomes.append(c)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger="fluxgate.optimizer"):
                with ThreadPoolExecutor(max_workers=6) as pool:
                    scores = list(pool.map(fitness, chromosomes, timeout=120))
        finally:
            sys.setswitchinterval(old_interval)
        assert scores == [0.0] * 48
        assert fitness.pole_failures == 48
        assert len(caplog.records) == 1

    def test_singular_evolution_scores_zero(self, caplog):
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        c = np.zeros(20)
        c[10] = 1.8  # drives qubit M (6.0 GHz) onto the 7.8 GHz resonator
        with caplog.at_level("WARNING", logger="fluxgate.optimizer"):
            assert fitness(c) == 0.0
        assert any("scoring fitness 0" in r.message for r in caplog.records)

    def test_smoothness_near_start(self):
        # 1 kHz nudges move the fidelity by far less than 1e-3.
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        base = np.zeros(20)
        f0 = fitness(base)
        for g in (0, 7, 19):
            c = base.copy()
            c[g] += 1e-6
            assert abs(fitness(c) - f0) < 1e-3

    def test_chromosome_to_schedule_round_trip(self):
        c = np.arange(20.0)
        sched = chromosome_to_schedule(c, 2, 1.0, TOY_REFERENCES)
        assert sched.n_segments == 10
        assert np.array_equal(sched.detunings.reshape(-1), c)


def reference_validate(chromosome, cs, references):
    """Oracle: the per-entry loop that validate_constraints replaced."""
    det = optimizer._as_matrix(chromosome, cs.n_qubits)
    refs = np.asarray(references, dtype=float)
    n, n_seg = det.shape
    out = []
    for k in range(n):
        for s in range(n_seg):
            if not cs.ranges[k].contains(det[k, s]):
                out.append(Violation(k, s, "range", float(det[k, s])))
    if cs.max_step is not None:
        steps = np.abs(np.diff(det, axis=1))
        for k, s in zip(*np.nonzero(steps > cs.max_step + STEP_TOL)):
            out.append(Violation(int(k), int(s + 1), "step", float(steps[k, s])))
    if cs.boundary_step is not None:
        for k in range(n):
            for s in (0, n_seg - 1):
                offset = abs(refs[k] + det[k, s] - cs.idle_frequencies[k])
                if offset > cs.boundary_step + STEP_TOL:
                    out.append(Violation(k, s, "boundary", float(offset)))
    if cs.min_separation is not None:
        gaps = np.abs(np.diff(refs[:, None] + det, axis=0))
        for k, s in zip(*np.nonzero(gaps < cs.min_separation - STEP_TOL)):
            out.append(Violation(int(k), int(s), "separation", float(gaps[k, s])))
    return out


def reference_repair(chromosome, cs, references, rng, clamp=True,
                     budget=10_000):
    """Oracle: the numpy repair that repair_chromosome replaced, with one
    window computation per (segment, qubit) and one array separation test
    per rejection draw."""

    def window(k, s, n_seg, prev):
        lo, hi = cs.ranges[k].closed_bounds()
        if cs.max_step is not None and prev is not None:
            lo = max(lo, prev - cs.max_step)
            hi = min(hi, prev + cs.max_step)
        if cs.boundary_step is not None:
            b_lo = cs.idle_frequencies[k] - cs.boundary_step - references[k]
            b_hi = cs.idle_frequencies[k] + cs.boundary_step - references[k]
            if s in (0, n_seg - 1):
                lo, hi = max(lo, b_lo), min(hi, b_hi)
            if cs.max_step is not None:
                reach = (n_seg - 1 - s) * cs.max_step
                lo, hi = max(lo, b_lo - reach), min(hi, b_hi + reach)
        if lo > hi:
            raise InfeasibilityError(
                f"qubit {k}, segment {s}: no feasible detuning (window empty); "
                "the range, step, and boundary rules are mutually inconsistent"
            )
        return lo, hi

    def separated(column):
        if cs.min_separation is None:
            return True
        gaps = np.abs(np.diff(np.asarray(references) + column))
        return bool((gaps >= cs.min_separation - STEP_TOL).all())

    det = optimizer._as_matrix(chromosome, cs.n_qubits).copy()
    n, n_seg = det.shape
    attempts = 0
    for s in range(n_seg):
        windows = [window(k, s, n_seg, det[k, s - 1] if s > 0 else None)
                   for k in range(n)]
        for k, (lo, hi) in enumerate(windows):
            v = det[k, s]
            if clamp:
                det[k, s] = min(max(v, lo), hi)
            elif not lo <= v <= hi:
                det[k, s] = rng.uniform(lo, hi)
        while not separated(det[:, s]):
            attempts += 1
            if attempts > budget:
                raise InfeasibilityError(
                    f"segment {s}: could not satisfy the separation rule after "
                    f"{budget} resampling attempts"
                )
            for k, (lo, hi) in enumerate(windows):
                det[k, s] = rng.uniform(lo, hi)
    return det


def generator_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = copy.deepcopy(state)
    return rng


def assert_repair_matches(proposal, cs, refs, state, **kwargs):
    """Same array bits and same generator state after, or the same error."""
    rng_new, rng_old = generator_at(state), generator_at(state)
    try:
        want = reference_repair(proposal, cs, refs, rng_old, **kwargs)
    except InfeasibilityError as err:
        with pytest.raises(InfeasibilityError) as got:
            repair_chromosome(proposal, cs, refs, rng_new, **kwargs)
        assert str(got.value) == str(err)
    else:
        got = repair_chromosome(proposal, cs, refs, rng_new, **kwargs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


EXCLUSIVE = ConstraintSet(
    ranges=(DetuningRange(-0.3, 0.3, lo_inclusive=False),
            DetuningRange(-0.2, 0.4, hi_inclusive=False)),
    max_step=0.1,
    boundary_step=0.25,
    idle_frequencies=(5.1, 5.9),
    min_separation=0.9,
)


class TestRepairOracle:
    """repair_chromosome is bit-identical to the numpy original: output
    array and generator state, or error message."""

    @pytest.mark.parametrize("clamp", [True, False])
    def test_random_proposals(self, clamp):
        cases = [
            (three_qubit_constraints("references"), THREE_QUBIT_REFERENCES),
            (toy_constraints(), TOY_REFERENCES),
            (WIDE, WIDE_REFS),
            (EXCLUSIVE, (5.0, 6.0)),
        ]
        rng = np.random.default_rng(21 + clamp)
        for cs, refs in cases:
            for _ in range(75):
                proposal = rng.uniform(-0.7, 0.7,
                                       size=(cs.n_qubits, rng.integers(1, 30)))
                assert_repair_matches(proposal, cs, refs,
                                      rng.bit_generator.state, clamp=clamp)
                rng.random()

    def test_captured_de_trials(self, monkeypatch):
        cs = three_qubit_constraints("references")
        calls = []

        def recording(trial, *args, **kwargs):
            calls.append((np.array(trial), args[-1].bit_generator.state))
            return repair_chromosome(trial, *args, **kwargs)

        cfg = DEConfig(population_size=20, max_generations=10, seed=8,
                       target_fidelity=2.0)
        pop = seed_population(cfg, cs, THREE_QUBIT_REFERENCES, 50)
        monkeypatch.setattr(optimizer, "repair_chromosome", recording)
        run_sussade(quadratic_fitness(0.05), cfg, cs, THREE_QUBIT_REFERENCES,
                    population=pop)
        assert len(calls) == 200
        for trial, state in calls:
            assert_repair_matches(trial, cs, THREE_QUBIT_REFERENCES, state)

    def test_seed_population_and_run_sussade(self, monkeypatch):
        cs = three_qubit_constraints("references")
        cfg = DEConfig(population_size=12, max_generations=4, seed=13,
                       target_fidelity=2.0)

        def search():
            pop = seed_population(cfg, cs, THREE_QUBIT_REFERENCES, 20)
            res = run_sussade(quadratic_fitness(-0.02), cfg, cs,
                              THREE_QUBIT_REFERENCES, population=pop)
            return pop, res.state

        pop_new, new = search()
        monkeypatch.setattr(optimizer, "repair_chromosome", reference_repair)
        pop_old, old = search()
        assert pop_new.tobytes() == pop_old.tobytes()
        assert new.population.tobytes() == old.population.tobytes()
        assert new.fitnesses.tobytes() == old.fitnesses.tobytes()
        assert new.history == old.history
        assert new.rng_state == old.rng_state

    def test_empty_window_message(self):
        proposal = np.zeros((3, 5))
        state = np.random.default_rng(0).bit_generator.state
        assert_repair_matches(proposal, three_qubit_constraints("idle"),
                              THREE_QUBIT_REFERENCES, state, clamp=False)
        with pytest.raises(InfeasibilityError, match="window empty"):
            repair_chromosome(proposal, three_qubit_constraints("idle"),
                              THREE_QUBIT_REFERENCES, generator_at(state))

    def test_budget_message(self):
        # Equal references and 0.1 GHz ranges can never sit 0.21 GHz apart.
        cs = ConstraintSet(
            ranges=(DetuningRange(0.0, 0.1), DetuningRange(0.0, 0.1)),
            max_step=None, boundary_step=None, idle_frequencies=None,
            min_separation=0.21,
        )
        state = np.random.default_rng(1).bit_generator.state
        assert_repair_matches(np.zeros((2, 3)), cs, (6.0, 6.0), state,
                              budget=7)
        with pytest.raises(InfeasibilityError, match="after 7 resampling"):
            repair_chromosome(np.zeros((2, 3)), cs, (6.0, 6.0),
                              generator_at(state), budget=7)


class TestValidateOracle:
    def test_matches_loop_on_infeasible_chromosomes(self):
        cases = [
            (three_qubit_constraints("idle"), THREE_QUBIT_REFERENCES),
            (three_qubit_constraints("references"), THREE_QUBIT_REFERENCES),
            (toy_constraints(), TOY_REFERENCES),
            (WIDE, WIDE_REFS),
            (EXCLUSIVE, (5.0, 6.0)),
        ]
        rng = np.random.default_rng(5)
        seen = set()
        for cs, refs in cases:
            for _ in range(60):
                det = rng.uniform(-0.6, 0.6,
                                  size=(cs.n_qubits, rng.integers(1, 12)))
                # Put some entries exactly on the range ends.
                for k, r in enumerate(cs.ranges):
                    det[k, rng.integers(det.shape[1])] = rng.choice([r.lo, r.hi])
                got = validate_constraints(det, cs, refs)
                assert got == reference_validate(det, cs, refs)
                seen.update(v.rule for v in got)
        assert seen == {"range", "step", "boundary", "separation"}


def near_bound(rng, x, g, cs, refs):
    """A value for gene g of x within a few STEP_TOL of one of its rule
    bounds (picked at random), or a random nudge of it."""
    n = cs.n_qubits
    n_seg = x.size // n
    k, seg = divmod(g, n_seg)
    off = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * STEP_TOL
    side = rng.choice([-1.0, 1.0])
    targets = [rng.choice([cs.ranges[k].lo, cs.ranges[k].hi]) + off]
    if cs.max_step is not None:
        for nb in (seg - 1, seg + 1):
            if 0 <= nb < n_seg:
                targets.append(x[k * n_seg + nb]
                               + side * (cs.max_step + STEP_TOL + off))
    if cs.boundary_step is not None and seg in (0, n_seg - 1):
        targets.append(cs.idle_frequencies[k] - refs[k]
                       + side * (cs.boundary_step + STEP_TOL + off))
    if cs.min_separation is not None:
        for nb in (k - 1, k + 1):
            if 0 <= nb < n:
                targets.append(refs[nb] + x[nb * n_seg + seg] - refs[k]
                               + side * (cs.min_separation - STEP_TOL + off))
    if rng.random() < 0.2:
        return x[g] + rng.uniform(-0.3, 0.3)
    return targets[rng.integers(len(targets))]


class TestMoveFeasibility:
    """local_search checks a move of a feasible chromosome on the moved
    genes only; that must agree with validate_constraints on the whole."""

    @pytest.mark.parametrize("window", [1, 3])
    def test_agrees_with_validate_constraints(self, window):
        cases = [
            (three_qubit_constraints("references"), THREE_QUBIT_REFERENCES, 6),
            (toy_constraints(), TOY_REFERENCES, 5),
            (WIDE, WIDE_REFS, 4),
            (EXCLUSIVE, (5.0, 6.0), 4),  # the boundary rule binds first
            (three_qubit_constraints("references"), THREE_QUBIT_REFERENCES, 1),
        ]
        rng = np.random.default_rng(100 + window)
        outcomes, rules = [], set()
        for cs, refs, n_seg in cases:
            x = seed_population(DEConfig(population_size=4, seed=window), cs,
                                refs, n_seg)[0]
            size = x.size
            # The first and last segment of every qubit, plus any gene.
            edges = sorted({k * n_seg + s for k in range(cs.n_qubits)
                            for s in (0, n_seg - 1)})
            for _ in range(200):
                start = edges[rng.integers(len(edges))] if rng.random() < 0.7 \
                    else int(rng.integers(size))
                start = min(start, size - 1)
                genes = range(start, min(start + window, size))
                g = genes[rng.integers(len(genes))]
                eps = near_bound(rng, x, g, cs, refs) - x[g]
                y = x.copy()
                y[genes.start:genes.stop] += eps
                violations = validate_constraints(y, cs, refs)
                got = optimizer._move_is_feasible(y, genes, cs, refs)
                assert got == (not violations), (y, genes, violations)
                outcomes.append(got)
                rules.update(v.rule for v in violations)
                if got and rng.random() < 0.5:
                    x = y
        assert len(outcomes) == 1000
        assert 100 < sum(outcomes) < 900
        assert rules == {"range", "step", "boundary", "separation"}
