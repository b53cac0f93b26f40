"""Optimizer tests: constraint rules, feasible seeding, the evolution
loop's contracts (determinism, monotonicity, feasibility of everything it
evaluates, checkpoint resume), and the local-search algorithm."""

import copy
import hashlib
import json
import logging
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fluxgate import optimizer, propagator
from fluxgate.errors import EvaluationError, InfeasibilityError
from fluxgate.fidelity import (
    controlled_phase_ideal,
    fidelity_report,
    score_waveform,
)
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
    load_toy_pulse,
    three_qubit_constraints,
    three_transmon_chain,
    toy_constraints,
    toy_two_transmon_chain,
)
from fluxgate.propagator import TrotterConfig
from fluxgate.pulses import PiecewiseConstantWaveform


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

    def test_json_round_trip_of_switched_off_rules(self):
        # constraints_to_json writes a switched-off rule as null.
        cs = ConstraintSet(
            ranges=(DetuningRange(-0.5, 0.5, lo_inclusive=False),),
            max_step=None, boundary_step=None, idle_frequencies=None,
            min_separation=None,
        )
        doc = json.loads(json.dumps(constraints_to_json(cs)))
        assert doc["max_step_ghz"] is None
        assert constraints_from_json(doc) == cs

    @pytest.mark.parametrize("path, value, message", [
        (("max_step_ghz",), math.nan, "max_step must be positive and finite"),
        (("max_step_ghz",), math.inf, "max_step must be positive and finite"),
        (("boundary_step_ghz",), math.nan,
         "boundary_step must be positive and finite"),
        (("min_separation_ghz",), math.nan,
         "min_separation must be positive and finite"),
        (("ranges", 1, "lo_ghz"), math.nan, r"range ends must be finite, "
                                            r"got \[nan, 0\.5\]"),
        (("ranges", 1, "hi_ghz"), math.inf, "range ends must be finite"),
        (("idle_frequencies_ghz", 2), math.nan,
         "idle_frequencies must be finite"),
    ])
    def test_non_finite_json_values_rejected(self, cs3, path, value, message):
        # A NaN step or boundary step switched its rule off, a NaN range
        # end made repair keep the other end, and a NaN separation failed
        # every schedule.
        doc = constraints_to_json(cs3)
        *parents, key = path
        node = doc
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ValueError, match=message):
            constraints_from_json(json.loads(json.dumps(doc)))


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

        # Walk-shaped sequences too: repeated moves at one gene, the fitness
        # scores ahead, and threads swap its walk batches under each other.
        walks = []
        for x in starts:
            moves = []
            for _ in range(6):
                gene, step = rng.integers(x.size), rng.choice([-1e-3, 1e-3])
                for _ in range(rng.integers(3, 12)):
                    x = x.copy()
                    x[gene] += step
                    moves.append(x)
            walks.append(moves)

        def score(moves):
            return [fitness(c) for c in moves]

        for case in (sequences, walks):
            serial = [score(moves) for moves in case]
            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(5):
                    with ThreadPoolExecutor(max_workers=4) as pool:
                        threaded = list(pool.map(score, case, timeout=120))
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

    def test_seeded_run_bytes_pinned(self):
        # The trial loop's draws, arithmetic and replacement rule, held to
        # the bytes of a run recorded before the loop and the repair walk
        # were rewritten.  The fitness uses Python floats only, so no SIMD
        # or BLAS path enters the pin.
        def fitness(c):
            total = 0.0
            for g, v in enumerate(c.tolist()):
                total += (v - 0.002 * (g % 11 - 5)) ** 2
            return 1.0 - total

        cs = three_qubit_constraints("references")
        cfg = DEConfig(population_size=20, max_generations=10, seed=2718,
                       target_fidelity=2.0)
        pop = seed_population(cfg, cs, THREE_QUBIT_REFERENCES, 50)
        state = run_sussade(fitness, cfg, cs, THREE_QUBIT_REFERENCES,
                            population=pop).state
        assert state.generation == 10 and state.evaluations == 220
        digest = hashlib.sha256()
        for array in (pop, state.population, state.fitnesses,
                      state.mutation_factors, state.crossover_rates):
            digest.update(array.tobytes())
        digest.update(json.dumps(
            [state.rng_state, [vars(r) for r in state.history]],
            sort_keys=True).encode())
        assert digest.hexdigest() == (
            "16e54445c157ee7ca9dfa9b3f12061fda8309d8b6f14b15a33465426ffea1dbb")

    def test_population_size_minimum(self):
        with pytest.raises(ValueError):
            DEConfig(population_size=3)


@pytest.mark.parametrize("cls, name, value", [
    (DEConfig, "target_fidelity", math.nan),
    (DEConfig, "target_fidelity", math.inf),
    (DEConfig, "readapt_probability", math.nan),
    (DEConfig, "subspace_probability", math.nan),
    (DEConfig, "mutation_bounds", (0.0, math.nan)),
    (DEConfig, "crossover_bounds", (-math.inf, 1.0)),
    (LocalSearchConfig, "target_fidelity", math.nan),
    (LocalSearchConfig, "target_fidelity", -math.inf),
    (LocalSearchConfig, "eps_max", math.inf),
    (LocalSearchConfig, "eps_min", math.nan),
])
def test_non_finite_search_settings_rejected(cls, name, value):
    # A NaN DE target ended the search at generation 0, a NaN readaptation
    # probability never redrew a factor, a NaN local-search target was
    # never reached, and an infinite eps_max gave 324 infinite rungs.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (DEConfig, "population_size", 8.5),
    (DEConfig, "population_size", 8.0),
    (DEConfig, "population_size", True),
    (DEConfig, "max_generations", math.inf),
    (DEConfig, "max_generations", "5"),
    (LocalSearchConfig, "max_iterations", 2.5),
    (LocalSearchConfig, "max_iterations", math.inf),
    (LocalSearchConfig, "window", 1.0),
])
def test_non_integer_search_counts_rejected(cls, name, value):
    # A population of 8.5 ended in a TypeError deep in seed_population,
    # and JSON's 1e400 (inf) generations ran until the target.
    with pytest.raises(ValueError, match=f"{name} must be an integer, got "
                                         f"{re.escape(repr(value))}"):
        cls(**{name: value})


def test_negative_seed_rejected():
    # numpy refused a negative seed only when the first generator was
    # drawn, with a message that named no field.
    with pytest.raises(ValueError, match="seed must be a non-negative "
                                         "integer, got -1"):
        DEConfig(seed=-1)
    assert DEConfig(seed=0).seed == 0


@pytest.mark.parametrize("cls, name, value", [
    (DEConfig, "max_generations", -5),
    (LocalSearchConfig, "max_iterations", -2),
])
def test_negative_search_counts_rejected(cls, name, value):
    # A negative count ran as 0 generations or iterations, with no word.
    with pytest.raises(ValueError, match=f"{name} must be a non-negative "
                                         f"integer, got {value}"):
        cls(**{name: value})
    assert getattr(cls(**{name: 0}), name) == 0


def test_numpy_integer_search_counts_accepted():
    assert DEConfig(population_size=np.int64(8)).population_size == 8
    assert LocalSearchConfig(window=np.int32(2)).window == 2


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

    def test_non_finite_references_rejected(self):
        with pytest.raises(ValueError, match="search_references must be "
                                             "finite"):
            ccphase_fitness(toy_two_transmon_chain(), (5.7, float("nan")))

    def test_trotter_step_must_divide_segment(self):
        dev = toy_two_transmon_chain()
        ccphase_fitness(dev, TOY_REFERENCES, 1.0, TrotterConfig(0.1))
        with pytest.raises(ValueError, match=r"step 0\.3 ns does not divide "
                                             r"duration 1\.0 ns evenly"):
            ccphase_fitness(dev, TOY_REFERENCES, 1.0, TrotterConfig(0.3))
        with pytest.raises(ValueError, match=r"step 0\.1 ns leaves no step "
                                             r"in segment duration 1e-12 ns"):
            ccphase_fitness(dev, TOY_REFERENCES, 1e-12, TrotterConfig(0.1))

    def test_fitnesses_on_two_devices_keep_their_own_trees(self):
        # A toy and a three-transmon fitness called in turn, each along a
        # walk of one-gene moves that updates its kept tree: each gives
        # the bits it gives alone, and a fresh fitness gives them too.
        cases = [
            (toy_two_transmon_chain(), toy_constraints(), TOY_REFERENCES),
            (three_transmon_chain(), three_qubit_constraints("references"),
             THREE_QUBIT_REFERENCES),
        ]
        rng = np.random.default_rng(61)
        walks = []
        for device, constraints, references in cases:
            x = seed_population(DEConfig(population_size=4, seed=61),
                                constraints, references, 10)[0]
            walk = [x]
            for _ in range(12):
                x = x.copy()
                x[rng.integers(x.size)] += rng.choice([-1e-3, 1e-3])
                walk.append(x)
            walks.append(walk)

        def fitness(case):
            device, _, references = cases[case]
            return ccphase_fitness(device, references, 1.0)

        alone = []
        for k in range(2):
            one = fitness(k)
            alone.append([one(c) for c in walks[k]])
        both = [fitness(0), fitness(1)]
        turns = [[], []]
        for step in range(len(walks[0])):
            for k in (1, 0):
                turns[k].append(both[k](walks[k][step]))
        assert turns == alone
        # A fresh fitness per chromosome builds every tree cold.
        assert alone == [[fitness(k)(c) for c in walks[k]] for k in range(2)]

    @pytest.mark.parametrize("case", ["toy", "three_qubit"])
    def test_walks_score_as_fresh_fitnesses(self, case, caplog):
        # The shapes a local search calls: long walks at one gene (scored
        # ahead in batches), one across zero and powers of two (where
        # repeated additions leave the guessed binade), a reversal, moves
        # at other genes, a two-gene move, chromosomes seen before, -d
        # after a rejected +d, the next gene moved from the point accepted
        # before a rejected move, and a walk whose reflection is on a pole.
        # ``pole`` is qubit M's detuning onto its resonator's pole.
        device, constraints, references, pole = {
            "toy": (toy_two_transmon_chain(), toy_constraints(),
                    TOY_REFERENCES, 1.7),
            "three_qubit": (three_transmon_chain(),
                            three_qubit_constraints("references"),
                            THREE_QUBIT_REFERENCES, 1.95),
        }[case]
        x = seed_population(DEConfig(population_size=4, seed=71),
                            constraints, references, 10)[0]
        walk = [x]

        def move(genes, step, times):
            for _ in range(times):
                y = walk[-1].copy()
                y[genes] += step
                walk.append(y)

        move(3, 1e-3, 40)
        move(7, -0.0105 - walk[-1][7], 1)
        move(7, 1.5e-3, 60)  # through 0, 2**-7, ..., 2**-4
        move(7, -1.5e-3, 12)
        move(12, 1e-3, 5)
        move([4, 5], 1e-3, 4)
        walk += [walk[10], walk[11], walk[44]]
        move(3, 1e-3, 9)

        def moved(point, gene, step):
            walk.append(point.copy())
            walk[-1][gene] += step
            return walk[-1]

        o = walk[-1]
        moved(o, 8, 1e-3)
        moved(o, 8, -1e-3)
        a = moved(o, 9, 1e-3)
        moved(a, 9, 1e-3)
        moved(a, 10, 1e-3)
        moved(a, 10, -1e-3)
        # Down from just below the pole, a walk whose reflection (pole +
        # 0.005) nobody asks for; then up onto the pole, asked for once.
        move(15, pole - 0.005 - walk[-1][15], 1)
        move(15, -0.01, 3)
        move(15, 0.01, 4)
        fresh = [ccphase_fitness(device, references, 1.0)(c) for c in walk]
        assert fresh.count(0.0) == 1 and fresh[-1] == 0.0
        caplog.clear()
        fitness = ccphase_fitness(device, references, 1.0)
        with caplog.at_level(logging.DEBUG, logger="fluxgate.optimizer"):
            got = [fitness(c) for c in walk]
        assert got == fresh
        assert fitness.pole_failures == 1
        assert [r.levelno for r in caplog.records] == [logging.WARNING]

    def test_walk_is_scored_ahead_in_growing_batches(self, monkeypatch):
        # A walk at one gene starts with a batch of _WALK_START members
        # and the reflection, and its later batches double up to the cap
        # without one; a call served from a batch runs no exponential.
        fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES,
                                  1.0)
        x = seed_population(DEConfig(population_size=4, seed=67),
                            toy_constraints(), TOY_REFERENCES, 10)[0]
        fitness(x)
        rows = []
        segment_unitaries = propagator._segment_unitaries

        def counting(template, r, dts):
            rows[-1].append(len(r))
            return segment_unitaries(template, r, dts)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        for _ in range(30):
            x = x.copy()
            x[3] += 1e-3
            rows.append([])
            fitness(x)
        size = propagator._WALK_START
        expected = [[size + 1]] + [[]] * (size - 1)
        while len(expected) < 30:
            size = min(2 * size, propagator._WALK_CAP)
            expected += [[size]] + [[]] * (size - 1)
        assert expected[:20] == [[5]] + [[]] * 3 + ([[8]] + [[]] * 7) * 2
        assert rows == expected[:30]

    def test_search_shapes_are_evolved_from_their_origin(self, monkeypatch):
        # The two call shapes of a local search that are not one gene off
        # the last call: -d after a rejected +d is served from the batch
        # that +d opened, and a move of the next gene from the point
        # accepted before a rejected move (an origin, or a later member
        # of its batch) is evolved from that point's tree.  Neither builds
        # a whole tree, and each exponentiates only its own gene's run,
        # one row per member, or nothing.
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        x = seed_population(DEConfig(population_size=4, seed=67),
                            toy_constraints(), TOY_REFERENCES, 10)[0]
        fitness(x)

        def moved(point, gene, step):
            y = point.copy()
            y[gene] += step
            return y

        d = 1e-3
        a = moved(x, 4, d)
        b = moved(a, 4, d)
        calls = [moved(x, 3, d), moved(x, 3, -d),  # +d rejected, then -d
                 a, b,  # the next gene from x, accepted twice
                 moved(b, 4, d),  # rejected
                 moved(b, 5, d), moved(b, 5, -d)]  # the next gene from b
        rows, lone = [], []
        segment_unitaries = propagator._segment_unitaries
        run_unitaries = propagator._run_unitaries

        def counting(template, r, dts):
            rows[-1].append(len(r))
            return segment_unitaries(template, r, dts)

        def lone_path(*args):
            lone.append(len(rows) - 1)
            return run_unitaries(*args)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        monkeypatch.setattr(propagator, "_run_unitaries", lone_path)
        got = []
        for y in calls:
            rows.append([])
            got.append(fitness(y))
        assert lone == []
        start = [propagator._WALK_START + 1]
        assert rows == [start, [], start, [], [], start, []]
        monkeypatch.undo()
        assert got == [ccphase_fitness(dev, TOY_REFERENCES, 1.0)(y)
                       for y in calls]

    def test_move_that_shifts_a_run_boundary_builds_a_whole_tree(
            self, monkeypatch):
        # Columns 3 and 4 are one run and column 5 differs from them in
        # qubit 1 alone.  Moving gene (1, 4) onto column 5's value merges
        # column 4 into its right neighbour's run and splits it from its
        # left one: the run count stays 9 but two runs change, so no walk
        # batch serves the call and its tree is built whole, with the
        # bits of a fresh fitness.  The next one-gene move from it opens
        # a walk batch again.
        dev = toy_two_transmon_chain()
        det = np.array([0.01 * np.arange(10), -0.02 * np.arange(10)])
        det[:, 4] = det[:, 3]
        det[0, 5] = det[0, 4]
        x = det.reshape(-1)
        shifted = x.copy()
        shifted[10 + 4] = det[1, 5]
        walked = shifted.copy()
        walked[8] += 1e-3
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        fitness(x)
        rows, batches, whole = [], [], []
        segment_unitaries = propagator._segment_unitaries
        walk_batch = propagator._walk_batch
        run_unitaries = propagator._run_unitaries

        def counting(template, r, dts):
            rows[-1].append(len(r))
            return segment_unitaries(template, r, dts)

        def batch(template, runs, step, kept):
            batches.append((len(runs[0][1]), len(kept[0])))
            return walk_batch(template, runs, step, kept)

        def built(template, runs, step):
            whole.append(len(rows) - 1)
            return run_unitaries(template, runs, step)

        monkeypatch.setattr(propagator, "_segment_unitaries", counting)
        monkeypatch.setattr(propagator, "_walk_batch", batch)
        monkeypatch.setattr(propagator, "_run_unitaries", built)
        got = []
        for y in (shifted, walked):
            rows.append([])
            got.append(fitness(y))
        assert batches == [(9, 9), (9, 9)]
        assert whole == [0]
        assert rows == [[9], [propagator._WALK_START + 1]]
        monkeypatch.undo()
        assert got == [ccphase_fitness(dev, TOY_REFERENCES, 1.0)(y)
                       for y in (shifted, walked)]

    def test_walk_guessed_past_the_float_range(self):
        # A move to 1.5e308 guesses 3e308, inf, as the next member: the
        # batch ends before it, and the call scores as a fresh fitness
        # scores it, not with the error of a chromosome nobody asked for.
        dev = toy_two_transmon_chain()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        x = np.zeros(20)
        y = x.copy()
        y[3] = 1.5e308
        fitness(x)
        with np.errstate(all="ignore"):
            got = fitness(y)
            want = ccphase_fitness(dev, TOY_REFERENCES, 1.0)(y)
        assert repr(got) == repr(want)

    def test_walk_onto_a_pole_fails_only_there(self, caplog):
        # A batch ends before a member on a pole: only the call that asks
        # for that chromosome fails, is counted and warns, as it would
        # alone; the walk then turns back.
        dev = toy_two_transmon_chain()
        x = np.zeros(20)
        x[12] = 1.56  # qubit M; from 1.7 on, 7.7 GHz, it is on the pole
        walk = [x]
        for _ in range(14):  # up to the pole at walk[14], the second
            walk.append(walk[-1].copy())  # member of the third batch
            walk[-1][12] += 0.01
        y = walk[13]
        for _ in range(6):  # and back down from the point before it,
            # a new walk whose reflection is the pole again
            y = y.copy()
            y[12] -= 0.01
            walk.append(y)
        fresh = [ccphase_fitness(dev, TOY_REFERENCES, 1.0)(c) for c in walk]
        assert [i for i, f in enumerate(fresh) if f == 0.0] == [14]
        caplog.clear()
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)
        with caplog.at_level(logging.DEBUG, logger="fluxgate.optimizer"):
            assert [fitness(c) for c in walk] == fresh
        assert fitness.pole_failures == 1
        assert [r.levelno for r in caplog.records] == [logging.WARNING]

    def test_chromosome_shapes_score_as_their_schedules(self):
        # A change of segment count between calls, a zero-segment
        # chromosome and non-finite genes, in one fitness: each scores as
        # its schedule's waveform does through score_waveform, or raises
        # the ValueError that building the schedule raises.
        dev = toy_two_transmon_chain()
        target = controlled_phase_ideal(2)
        fitness = ccphase_fitness(dev, TOY_REFERENCES, 1.0)

        def outcome(score, chromosome):
            try:
                return score(chromosome)
            except ValueError as err:
                return str(err)

        def schedule_score(chromosome):
            schedule = chromosome_to_schedule(chromosome, 2, 1.0,
                                              TOY_REFERENCES)
            return score_waveform(dev, PiecewiseConstantWaveform(schedule),
                                  target).fidelity

        pulse = load_toy_pulse().detunings
        nan, inf = pulse.copy(), pulse.copy()
        nan[1, 3] = np.nan
        inf[0, 9] = -np.inf
        moved = pulse.copy()
        moved[0, 2] += 1e-3
        chromosomes = [pulse, pulse[:, :7], moved[:, :7], np.zeros((2, 0)),
                       moved, nan, moved, inf.reshape(-1), pulse[:, :1],
                       np.zeros(0), np.zeros(7), pulse.reshape(-1)]
        got = [outcome(fitness, c) for c in chromosomes]
        assert got == [outcome(schedule_score, c) for c in chromosomes]
        assert got[3] == got[9] == fidelity_report(np.eye(4), target).fidelity
        assert got[5] == got[7] == "detunings must be finite"
        assert got[10] == "chromosome length 7 is not a multiple of 2"
        assert got[11] == got[0] != got[4]

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


# One qubit, which no separation rule binds, with a signed-zero range end.
ONE_QUBIT = ConstraintSet(
    ranges=(DetuningRange(-0.3, -0.0),),
    max_step=0.1,
    boundary_step=0.25,
    idle_frequencies=(5.0,),
    min_separation=0.2,
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
        # No segments, and a single qubit.
        for cs, refs in cases + [(ONE_QUBIT, (5.1,))]:
            assert_repair_matches(np.zeros((cs.n_qubits, 0)), cs, refs,
                                  rng.bit_generator.state, clamp=clamp)
        for _ in range(75):
            proposal = rng.uniform(-0.7, 0.7, size=(1, rng.integers(1, 30)))
            assert_repair_matches(proposal, ONE_QUBIT, (5.1,),
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

    def test_signed_zero_window(self):
        # At a 4.75 GHz reference ONE_QUBIT's edge windows are [0.0, -0.0],
        # which ``lo > hi`` lets through: both modes put an edge value
        # inside it, and clamp=False spends one draw per value outside:
        # here every value, as no window reaches 0.2.
        proposal = np.full((1, 4), 0.2)
        for clamp in (True, False):
            rng = np.random.default_rng(3)
            got = repair_chromosome(proposal, ONE_QUBIT, (4.75,), rng,
                                    clamp=clamp)
            assert got[0, 0] == got[0, -1] == 0.0
            assert validate_constraints(got, ONE_QUBIT, (4.75,)) == []
            spent = np.random.default_rng(3)
            spent.random(0 if clamp else 4)
            assert rng.bit_generator.state == spent.bit_generator.state

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


def frozen_repair(chromosome, constraints, references, rng, clamp=True,
                  budget=10_000):
    """Oracle: repair_chromosome before its window parts were cached and
    its separation redraws drawn as one array (frozen copy)."""
    cs = constraints
    rows = optimizer._as_matrix(chromosome, cs.n_qubits).tolist()
    n, n_seg = len(rows), len(rows[0])
    refs = [float(r) for r in references]
    bounds = [r.closed_bounds() for r in cs.ranges]
    max_step = cs.max_step
    boundary = None
    if cs.boundary_step is not None:
        boundary = [
            (idle - cs.boundary_step - ref, idle + cs.boundary_step - ref)
            for idle, ref in zip(cs.idle_frequencies, refs)
        ]
    min_gap = None if cs.min_separation is None else cs.min_separation - STEP_TOL
    uniform = rng.uniform
    attempts = 0
    for s in range(n_seg):
        edge = s in (0, n_seg - 1)
        reach = None if max_step is None else (n_seg - 1 - s) * max_step
        windows = []
        for k in range(n):
            lo, hi = bounds[k]
            if max_step is not None and s > 0:
                prev = rows[k][s - 1]
                lo = max(lo, prev - max_step)
                hi = min(hi, prev + max_step)
            if boundary is not None:
                b_lo, b_hi = boundary[k]
                if edge:
                    lo, hi = max(lo, b_lo), min(hi, b_hi)
                if reach is not None:
                    lo, hi = max(lo, b_lo - reach), min(hi, b_hi + reach)
            if lo > hi:
                raise InfeasibilityError(
                    f"qubit {k}, segment {s}: no feasible detuning (window "
                    "empty); the range, step, and boundary rules are mutually "
                    "inconsistent"
                )
            windows.append((lo, hi))
        column = [row[s] for row in rows]
        for k, (lo, hi) in enumerate(windows):
            v = column[k]
            if clamp:
                column[k] = min(max(v, lo), hi)
            elif not lo <= v <= hi:
                column[k] = uniform(lo, hi)
        while min_gap is not None and not optimizer._separated(
                refs, column, min_gap):
            attempts += 1
            if attempts > budget:
                raise InfeasibilityError(
                    f"segment {s}: could not satisfy the separation rule after "
                    f"{budget} resampling attempts"
                )
            column = [uniform(lo, hi) for lo, hi in windows]
        for row, v in zip(rows, column):
            row[s] = v
    return np.array(rows, dtype=float)


# Signed zeros on every bound a window can take, so that the order of the
# max and min calls decides the sign of a clamped zero.
SIGNED_ZEROS = ConstraintSet(
    ranges=(DetuningRange(-0.0, 0.3), DetuningRange(-0.3, 0.0),
            DetuningRange(0.0, 0.3)),
    max_step=0.1,
    boundary_step=0.5,
    idle_frequencies=(5.5, 5.5, 6.0),
    min_separation=0.2,
)


class TestRepairFrozen:
    """repair_chromosome with its cached window parts and one-array
    redraws gives the frozen function's bits and generator state."""

    def assert_same(self, proposal, cs, refs, state, **kwargs):
        rng_new, rng_old = generator_at(state), generator_at(state)
        try:
            want = frozen_repair(proposal, cs, refs, rng_old, **kwargs)
        except InfeasibilityError as err:
            with pytest.raises(InfeasibilityError) as got:
                repair_chromosome(proposal, cs, refs, rng_new, **kwargs)
            assert str(got.value) == str(err)
        else:
            got = repair_chromosome(proposal, cs, refs, rng_new, **kwargs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize("clamp", [True, False])
    def test_seeded_proposals(self, clamp):
        cases = [
            (three_qubit_constraints("references"), THREE_QUBIT_REFERENCES),
            (three_qubit_constraints("idle"), THREE_QUBIT_REFERENCES),
            (toy_constraints(), TOY_REFERENCES),
            (WIDE, WIDE_REFS),
            (EXCLUSIVE, (5.0, 6.0)),
            (SIGNED_ZEROS, (5.0, 5.5, 6.0)),
            (SIGNED_ZEROS, (5.0, 5.5, -0.0 + 6.0)),
        ]
        rng = np.random.default_rng(31 + clamp)
        for cs, refs in cases:
            for _ in range(60):
                n_seg = int(rng.integers(1, 12))
                proposal = rng.uniform(-0.7, 0.7, size=(cs.n_qubits, n_seg))
                # Zeros of both signs and exact range ends.
                picks = rng.random(proposal.shape)
                proposal[picks < 0.2] = 0.0
                proposal[(picks >= 0.2) & (picks < 0.4)] = -0.0
                self.assert_same(proposal, cs, refs, rng.bit_generator.state,
                                 clamp=clamp)
                rng.random()
        # No segments, and a single qubit.
        for cs, refs in cases + [(ONE_QUBIT, (5.1,))]:
            self.assert_same(np.zeros((cs.n_qubits, 0)), cs, refs,
                             rng.bit_generator.state, clamp=clamp)
        for refs in ((5.1,), (5.0,), (4.8,)):
            for _ in range(40):
                n_seg = int(rng.integers(1, 12))
                proposal = rng.uniform(-0.7, 0.7, size=(1, n_seg))
                picks = rng.random(proposal.shape)
                proposal[picks < 0.2] = 0.0
                proposal[(picks >= 0.2) & (picks < 0.4)] = -0.0
                self.assert_same(proposal, ONE_QUBIT, refs,
                                 rng.bit_generator.state, clamp=clamp)
                rng.random()

    def test_cache_keeps_signed_zeros_apart(self):
        # Value-equal references with different zero signs, and value-equal
        # constraint sets, each keep their own window bits.
        cs = ConstraintSet(
            ranges=(DetuningRange(0.0, 0.5), DetuningRange(-0.5, 0.5)),
            max_step=0.1, boundary_step=0.5, idle_frequencies=(0.0, 1.0),
            min_separation=0.3,
        )
        twin = ConstraintSet(
            ranges=(DetuningRange(-0.0, 0.5), DetuningRange(-0.5, 0.5)),
            max_step=0.1, boundary_step=0.5, idle_frequencies=(-0.0, 1.0),
            min_separation=0.3,
        )
        assert cs == twin and hash(cs) == hash(twin)
        state = np.random.default_rng(4).bit_generator.state
        proposal = np.full((2, 4), -0.6)
        for constraints in (cs, twin, cs):
            for refs in ((0.0, 1.0), (-0.0, 1.0), (0.5, 1.0)):
                for n_seg in (1, 4):
                    self.assert_same(proposal[:, :n_seg], constraints, refs,
                                     state, clamp=False)
                    self.assert_same(proposal[:, :n_seg], constraints, refs,
                                     state)

    def test_captured_de_trials(self, monkeypatch):
        cs = three_qubit_constraints("references")
        calls = []

        def recording(trial, *args, **kwargs):
            calls.append((np.array(trial), args[-1].bit_generator.state))
            return repair_chromosome(trial, *args, **kwargs)

        cfg = DEConfig(population_size=20, max_generations=20, seed=17,
                       target_fidelity=2.0)
        pop = seed_population(cfg, cs, THREE_QUBIT_REFERENCES, 50)
        monkeypatch.setattr(optimizer, "repair_chromosome", recording)
        run_sussade(quadratic_fitness(-0.03), cfg, cs, THREE_QUBIT_REFERENCES,
                    population=pop)
        assert len(calls) == 400
        for trial, state in calls:
            self.assert_same(trial, cs, THREE_QUBIT_REFERENCES, state)

    def test_budget_and_empty_window(self):
        cs = ConstraintSet(
            ranges=(DetuningRange(0.0, 0.1), DetuningRange(0.0, 0.1)),
            max_step=None, boundary_step=None, idle_frequencies=None,
            min_separation=0.21,
        )
        state = np.random.default_rng(2).bit_generator.state
        self.assert_same(np.zeros((2, 3)), cs, (6.0, 6.0), state, budget=9)
        self.assert_same(np.zeros((3, 5)), three_qubit_constraints("idle"),
                         THREE_QUBIT_REFERENCES, state, clamp=False)


def frozen_local_search(chromosome, fitness, config, constraints, references):
    """Oracle: local_search before it stopped scoring the point a move had
    just left (frozen copy of the loop, no resume)."""
    cs = constraints
    x = np.array(chromosome, dtype=float).reshape(-1)
    f = fitness(x)
    iterations = 0
    eps_schedule = []
    stopped = f >= config.target_fidelity or iterations >= config.max_iterations
    while not stopped:
        done = improved_at_min = False
        for eps in config.eps_ladder():
            eps_schedule.append(eps)
            improved_sweep = False
            for start in range(0, x.size, config.window):
                stop = min(start + config.window, x.size)
                while True:
                    for sign in (1.0, -1.0):
                        y = x.copy()
                        y[start:stop] += sign * eps
                        if not optimizer._move_is_feasible(
                                y, range(start, stop), cs, references):
                            continue
                        fy = fitness(y)
                        if fy > f:
                            x, f = y, fy
                            improved_sweep = True
                            break
                    else:
                        break
                if f >= config.target_fidelity:
                    done = True
                    break
            if done:
                break
            if eps == config.eps_min:
                improved_at_min = improved_sweep
        iterations += 1
        stopped = (done or not improved_at_min
                   or iterations >= config.max_iterations)
    return optimizer.LocalSearchResult(x, float(f), iterations,
                                       tuple(eps_schedule))


class TestLocalSearchSkipsPointLeft:
    """A move back to the point the last accepted move at a window left
    scores below f, so it is not scored; every result stays the same."""

    def counting(self, fitness, monkeypatch):
        """``fitness`` recording (window start, chromosome bytes) per call,
        the window taken from the move check that precedes each call."""
        calls, window = [], [None]
        check = optimizer._move_is_feasible

        def recording_check(y, genes, *args):
            window[0] = genes.start
            return check(y, genes, *args)

        def counted(c):
            calls.append((window[0], np.asarray(c).tobytes()))
            return fitness(c)

        monkeypatch.setattr(optimizer, "_move_is_feasible", recording_check)
        return counted, calls

    @pytest.mark.parametrize("window", [1, 2])
    @pytest.mark.parametrize("case", ["wide", "three_qubit"])
    def test_same_result_fewer_calls(self, monkeypatch, case, window):
        if case == "wide":
            cs, refs = WIDE, WIDE_REFS
            start = np.array([0.31, 0.15, 0.05, 0.2, 0.0, -0.2])
            fitness = quadratic_fitness(
                np.array([0.1, 0.13, -0.27, 0.2, -0.1, 0.1]))
        else:
            cs, refs = three_qubit_constraints("references"), \
                THREE_QUBIT_REFERENCES
            start = seed_population(DEConfig(population_size=4, seed=2), cs,
                                    refs, 6)[0]
            fitness = quadratic_fitness(np.linspace(-0.3, 0.3, start.size))
        cfg = LocalSearchConfig(eps_max=0.1, eps_min=1e-4, max_iterations=3,
                                target_fidelity=2.0, window=window)
        counted_old, old_calls = self.counting(fitness, monkeypatch)
        want = frozen_local_search(start, counted_old, cfg, cs, refs)
        counted_new, new_calls = self.counting(fitness, monkeypatch)
        got = local_search(start, counted_new, cfg, cs, refs)
        assert got.chromosome.tobytes() == want.chromosome.tobytes()
        assert (got.fidelity, got.iterations, got.eps_schedule) == \
            (want.fidelity, want.iterations, want.eps_schedule)
        assert len(new_calls) < len(old_calls)
        # A walk is a run of consecutive calls at one window; the first
        # call scores the start, outside every walk.
        walks = {}
        walk = 0
        for i, (start_gene, chromosome) in enumerate(new_calls[1:]):
            if i and start_gene != new_calls[i][0]:
                walk += 1
            key = (walk, chromosome)
            assert key not in walks, "a window walk scored a point twice"
            walks[key] = i
