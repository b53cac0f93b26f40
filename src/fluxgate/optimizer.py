"""Population search over detuning sequences, with a windowed local refiner.

The global stage is self-adaptive differential evolution with
subspace-selective mutation: each member carries its own mutation factor
and crossover rate (re-randomized within bounds with a small probability
each generation), mutation displaces only a random subset of genes, and a
trial replaces its target only on strict fidelity improvement, so the
best-so-far history is non-decreasing by construction.

Every candidate is repaired to the experimental-realism constraint set
before evaluation: per-qubit detuning ranges, a point-to-point step limit,
first/last-point limits relative to the idle frequencies, and a minimum
separation between adjacent qubits' absolute frequencies.

The local stage sweeps a window across the data points, nudging values by
+/- eps while the fidelity strictly improves and the constraints hold,
shrinking eps geometrically after each full sweep and resetting it once
the smallest step has been tried.
"""

import json
import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, EvolutionError, InfeasibilityError
from .fidelity import controlled_phase_ideal, score_waveform
from .propagator import TrotterConfig
from .pulses import PiecewiseConstantWaveform, PulseSchedule

logger = logging.getLogger(__name__)

STEP_TOL = 1e-12

__all__ = [
    "DetuningRange",
    "ConstraintSet",
    "Violation",
    "validate_constraints",
    "DEConfig",
    "seed_population",
    "SussadeState",
    "SussadeResult",
    "GenerationRecord",
    "run_sussade",
    "LocalSearchConfig",
    "LocalSearchResult",
    "local_search",
    "ccphase_fitness",
    "chromosome_to_schedule",
    "constraints_from_json",
    "constraints_to_json",
    "load_constraints",
]


@dataclass(frozen=True)
class DetuningRange:
    """Closed/open interval of allowed detunings (GHz) for one qubit."""

    lo: float
    hi: float
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"range [{self.lo}, {self.hi}] is empty")

    def contains(self, value):
        """Whether ``value`` (a float or an array, elementwise) is in range."""
        above = value >= self.lo if self.lo_inclusive else value > self.lo
        below = value <= self.hi if self.hi_inclusive else value < self.hi
        return above & below

    def closed_bounds(self):
        """Tightest closed interval inside the range (exclusive ends nudged)."""
        lo = self.lo if self.lo_inclusive else np.nextafter(self.lo, np.inf)
        hi = self.hi if self.hi_inclusive else np.nextafter(self.hi, -np.inf)
        return lo, hi


@dataclass(frozen=True)
class ConstraintSet:
    """Experimental-realism limits on a detuning schedule.

    ``ranges`` bound each qubit's detuning from its search reference;
    ``max_step`` caps the point-to-point variation (GHz);
    ``boundary_step`` caps how far the first and last absolute frequencies
    may sit from the per-qubit ``idle_frequencies``; ``min_separation``
    is the smallest allowed gap between adjacent qubits' absolute
    frequencies within any segment.  Optional rules may be ``None``.
    """

    ranges: tuple
    max_step: float = 0.22
    boundary_step: float = 0.5
    idle_frequencies: tuple = None
    min_separation: float = 0.21

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple(self.ranges))
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.boundary_step is not None:
            if self.boundary_step <= 0:
                raise ValueError("boundary_step must be positive")
            if self.idle_frequencies is None:
                raise ValueError("boundary_step needs idle_frequencies")
            object.__setattr__(
                self, "idle_frequencies", tuple(self.idle_frequencies)
            )
        if self.min_separation is not None and self.min_separation <= 0:
            raise ValueError("min_separation must be positive")

    @property
    def n_qubits(self):
        return len(self.ranges)


@dataclass(frozen=True)
class Violation:
    """One broken rule: which qubit and segment, which rule, what value."""

    qubit: int
    segment: int
    rule: str
    value: float


def _as_matrix(chromosome, n_qubits):
    det = np.asarray(chromosome, dtype=float)
    if det.ndim == 1:
        if det.size % n_qubits:
            raise ValueError(
                f"chromosome length {det.size} is not a multiple of {n_qubits}"
            )
        det = det.reshape(n_qubits, -1)
    if det.shape[0] != n_qubits:
        raise ValueError(f"expected {n_qubits} qubit rows, got {det.shape[0]}")
    return det


def validate_constraints(chromosome, constraints, references):
    """All rule violations of a chromosome (empty list means feasible).

    Parameters
    ----------
    chromosome : array-like
        Flat length n*S sequence or (n, S) matrix of GHz detunings.
    constraints : ConstraintSet
    references : sequence of float
        Per-qubit search reference frequencies (GHz).
    """
    cs = constraints
    det = _as_matrix(chromosome, cs.n_qubits)
    refs = np.asarray(references, dtype=float)
    n_seg = det.shape[1]
    # (rule, mask, values, segment of each mask column), in report order.
    checks = []
    inside = np.array([r.contains(row) for r, row in zip(cs.ranges, det)])
    checks.append(("range", ~inside, det, np.arange(n_seg)))
    if cs.max_step is not None:
        steps = np.abs(np.diff(det, axis=1))
        checks.append(
            ("step", steps > cs.max_step + STEP_TOL, steps, np.arange(1, n_seg))
        )
    if cs.boundary_step is not None:
        ends = [0, n_seg - 1]
        idle = np.array(cs.idle_frequencies, dtype=float)[:, None]
        offsets = np.abs(refs[:, None] + det[:, ends] - idle)
        checks.append(
            ("boundary", offsets > cs.boundary_step + STEP_TOL, offsets, ends)
        )
    if cs.min_separation is not None:
        gaps = np.abs(np.diff(refs[:, None] + det, axis=0))
        checks.append((
            "separation", gaps < cs.min_separation - STEP_TOL, gaps,
            np.arange(n_seg),
        ))
    out = []
    for rule, mask, values, segments in checks:
        if not mask.any():
            continue
        for k, j in zip(*np.nonzero(mask)):
            out.append(Violation(int(k), int(segments[j]), rule, float(values[k, j])))
    return out


def _move_is_feasible(y, genes, constraints, references):
    """``not validate_constraints(y, ...)`` for a flat chromosome ``y`` that
    differs from a feasible one only at the flat indices in range ``genes``.

    Only a moved gene can break a rule, so this checks just its range, its
    steps to the neighbouring segments, the boundary rule at the first and
    last segment and its separation from the adjacent qubits in the same
    segment, with the same float arithmetic as :func:`validate_constraints`.
    """
    cs = constraints
    n = cs.n_qubits
    n_seg = len(y) // n
    max_step = None if cs.max_step is None else cs.max_step + STEP_TOL
    boundary = None if cs.boundary_step is None else cs.boundary_step + STEP_TOL
    min_gap = None if cs.min_separation is None else cs.min_separation - STEP_TOL
    for g in genes:
        k, s = divmod(g, n_seg)
        v = float(y[g])
        if not cs.ranges[k].contains(v):
            return False
        if max_step is not None:
            if s > 0 and abs(v - float(y[g - 1])) > max_step:
                return False
            if s < n_seg - 1 and abs(float(y[g + 1]) - v) > max_step:
                return False
        here = float(references[k]) + v
        if boundary is not None and s in (0, n_seg - 1):
            if abs(here - float(cs.idle_frequencies[k])) > boundary:
                return False
        if min_gap is not None:
            if k > 0 and abs(
                    here - (float(references[k - 1]) + float(y[g - n_seg]))
            ) < min_gap:
                return False
            if k < n - 1 and abs(
                    float(references[k + 1]) + float(y[g + n_seg]) - here
            ) < min_gap:
                return False
    return True


def _separated(refs, column, min_gap):
    """Whether adjacent absolute frequencies of a column are min_gap apart."""
    below = refs[0] + column[0]
    for ref, value in zip(refs[1:], column[1:]):
        here = ref + value
        if not abs(here - below) >= min_gap:
            return False
        below = here
    return True


def repair_chromosome(chromosome, constraints, references, rng, clamp=True,
                      budget=10_000):
    """Project a proposal onto the constraint set, left to right.

    Each segment's values are clamped (or resampled, for ``clamp=False``)
    into the window allowed by the range, step, and boundary rules, then
    the whole column is rejection-resampled until the adjacent-qubit
    separation holds.  ``budget`` bounds the total resampling attempts
    for this chromosome.  The walk runs on Python floats; draws come from
    ``rng`` one scalar at a time, qubit by qubit, so the output and the
    generator state depend only on the input and the generator state.
    """
    cs = constraints
    rows = _as_matrix(chromosome, cs.n_qubits).tolist()
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
        # Keeps the last segment's boundary window reachable.
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
        while min_gap is not None and not _separated(refs, column, min_gap):
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


@dataclass(frozen=True)
class DEConfig:
    """Differential-evolution settings.

    Mutation factors and crossover rates are per-member and re-randomized
    within their bounds with probability ``readapt_probability`` per
    generation; mutation touches each gene with ``subspace_probability``.
    """

    population_size: int = 200
    max_generations: int = 1_000_000
    mutation_bounds: tuple = (0.0, 1.0)
    crossover_bounds: tuple = (0.0, 1.0)
    readapt_probability: float = 0.1
    subspace_probability: float = 0.5
    target_fidelity: float = 0.9999
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError(
                "population must hold at least 4 members (three donors plus "
                "the target)"
            )


def seed_population(config, constraints, references, n_segments, rng=None):
    """Constraint-satisfying random population, deterministic under the seed.

    Values are drawn uniformly within each qubit's range and then repaired
    (rejection-resampled per segment, left to right) to satisfy the step,
    boundary, and separation rules.

    Returns
    -------
    ndarray of shape (population_size, n_qubits * n_segments)
    """
    cs = constraints
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = cs.n_qubits
    bounds = [r.closed_bounds() for r in cs.ranges]
    population = np.empty((config.population_size, n * n_segments))
    for i in range(config.population_size):
        raw = np.empty((n, n_segments))
        for k, (lo, hi) in enumerate(bounds):
            raw[k] = rng.uniform(lo, hi, size=n_segments)
        repaired = repair_chromosome(raw, cs, references, rng, clamp=False)
        population[i] = repaired.reshape(-1)
    return population


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fidelity: float
    mean_fidelity: float
    evaluations: int


@dataclass
class SussadeState:
    """Everything needed to continue a run exactly where it stopped."""

    generation: int
    population: np.ndarray
    fitnesses: np.ndarray
    mutation_factors: np.ndarray
    crossover_rates: np.ndarray
    rng_state: dict
    evaluations: int
    history: list = field(default_factory=list)

    def to_json(self):
        return {
            "schema_version": 1,
            "generation": self.generation,
            "population": self.population.tolist(),
            "fitnesses": self.fitnesses.tolist(),
            "mutation_factors": self.mutation_factors.tolist(),
            "crossover_rates": self.crossover_rates.tolist(),
            "rng_state": self.rng_state,
            "evaluations": self.evaluations,
            "history": [vars(rec) for rec in self.history],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            generation=doc["generation"],
            population=np.array(doc["population"]),
            fitnesses=np.array(doc["fitnesses"]),
            mutation_factors=np.array(doc["mutation_factors"]),
            crossover_rates=np.array(doc["crossover_rates"]),
            rng_state=doc["rng_state"],
            evaluations=doc["evaluations"],
            history=[GenerationRecord(**rec) for rec in doc["history"]],
        )


@dataclass(frozen=True)
class SussadeResult:
    best_chromosome: np.ndarray
    best_fidelity: float
    history: tuple
    state: SussadeState


def _evaluate(fitness, candidates):
    values = [fitness(c) for c in candidates]
    for v, c in zip(values, candidates):
        if math.isnan(v):
            raise EvaluationError("fitness returned NaN", chromosome=np.array(c))
    return np.asarray(values, dtype=float)


def run_sussade(fitness, config, constraints, references, population=None,
                state=None):
    """Greedy self-adaptive differential evolution over feasible chromosomes.

    Parameters
    ----------
    fitness : callable
        Pure, deterministic map from a flat chromosome to a fidelity.
    config : DEConfig
    constraints : ConstraintSet
    references : sequence of float
    population : ndarray, optional
        Initial population (seeded from ``config`` when omitted).
    state : SussadeState, optional
        Resume checkpoint; takes precedence over ``population``/seed and
        continues bit-for-bit identically to an uninterrupted run.
    """
    cs = constraints
    if state is not None:
        rng = np.random.default_rng()
        rng.bit_generator.state = state.rng_state
        population = np.array(state.population)
        fitnesses = np.array(state.fitnesses)
        f_m = np.array(state.mutation_factors)
        c_r = np.array(state.crossover_rates)
        history = list(state.history)
        evaluations = state.evaluations
        start_gen = state.generation + 1
    else:
        rng = np.random.default_rng(config.seed)
        if population is None:
            raise ValueError("provide a population or a resume state")
        population = np.array(population, dtype=float)
        fitnesses = _evaluate(fitness, population)
        f_m = rng.uniform(*config.mutation_bounds, size=len(population))
        c_r = rng.uniform(*config.crossover_bounds, size=len(population))
        evaluations = len(population)
        history = [
            GenerationRecord(
                0, float(fitnesses.max()), float(fitnesses.mean()), evaluations
            )
        ]
        start_gen = 1

    pop_size, n_genes = population.shape
    best = float(fitnesses.max())
    gen = start_gen - 1
    while gen + 1 <= config.max_generations and best < config.target_fidelity:
        gen += 1
        trials = np.empty_like(population)
        for i in range(pop_size):
            if rng.random() < config.readapt_probability:
                f_m[i] = rng.uniform(*config.mutation_bounds)
            if rng.random() < config.readapt_probability:
                c_r[i] = rng.uniform(*config.crossover_bounds)
            donors = rng.choice(pop_size - 1, size=3, replace=False)
            donors = np.where(donors >= i, donors + 1, donors)
            a, b, c = population[donors]
            mask = rng.random(n_genes) < config.subspace_probability
            if not mask.any():
                mask[rng.integers(n_genes)] = True
            mutant = a.copy()
            mutant[mask] = a[mask] + f_m[i] * (b[mask] - c[mask])
            cross = rng.random(n_genes) < c_r[i]
            cross[rng.integers(n_genes)] = True
            trial = np.where(cross, mutant, population[i])
            trials[i] = repair_chromosome(
                trial, cs, references, rng
            ).reshape(-1)
        trial_fits = _evaluate(fitness, trials)
        improved = trial_fits > fitnesses
        population[improved] = trials[improved]
        fitnesses[improved] = trial_fits[improved]
        evaluations += pop_size
        best = float(fitnesses.max())
        history.append(
            GenerationRecord(gen, best, float(fitnesses.mean()), evaluations)
        )

    best_idx = int(np.argmax(fitnesses))
    final_state = SussadeState(
        generation=gen,
        population=population.copy(),
        fitnesses=fitnesses.copy(),
        mutation_factors=f_m.copy(),
        crossover_rates=c_r.copy(),
        rng_state=rng.bit_generator.state,
        evaluations=evaluations,
        history=list(history),
    )
    return SussadeResult(
        population[best_idx].copy(), float(fitnesses[best_idx]),
        tuple(history), final_state
    )


@dataclass(frozen=True)
class LocalSearchConfig:
    """Windowed +/-eps descent settings (eps values in GHz)."""

    eps_max: float = 0.1
    eps_min: float = 1e-6
    max_iterations: int = 1000
    target_fidelity: float = 0.9999
    shrink: float = 0.1
    window: int = 1

    def __post_init__(self):
        if not 0 < self.eps_min < self.eps_max:
            raise ValueError("need 0 < eps_min < eps_max")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def eps_ladder(self):
        """The step sizes tried within one iteration, largest first."""
        rungs = []
        m = 0
        while (eps := self.eps_max * self.shrink ** m) > self.eps_min * (1 + 1e-9):
            rungs.append(eps)
            m += 1
        rungs.append(self.eps_min)
        return rungs


@dataclass(frozen=True)
class LocalSearchResult:
    chromosome: np.ndarray
    fidelity: float
    iterations: int
    eps_schedule: tuple


def local_search(chromosome, fitness, config, constraints, references):
    """Refine a feasible chromosome by windowed +/-eps coordinate moves.

    A window slides from the first data point to the last; at each
    position the windowed values move by +/-eps as long as the fidelity
    strictly improves and the constraints stay satisfied.  After a full
    sweep eps shrinks by the configured factor; once the smallest eps has
    been swept, the iteration counter increments and eps resets.  Stops at
    the target fidelity, the iteration cap, or a sweep at the smallest eps
    that accepts no move.  The output fidelity is never below the input.
    """
    cs = constraints
    x = np.array(chromosome, dtype=float).reshape(-1)
    if validate_constraints(x, cs, references):
        raise ValueError("local search requires a constraint-satisfying start")
    f = fitness(x)
    if math.isnan(f):
        raise EvaluationError("fitness returned NaN", chromosome=x)
    iterations = 0
    eps_used = []
    done = f >= config.target_fidelity
    while not done and iterations < config.max_iterations:
        improved_at_min = False
        for eps in config.eps_ladder():
            eps_used.append(eps)
            improved_sweep = False
            for start in range(0, x.size, config.window):
                stop = min(start + config.window, x.size)
                while True:
                    for sign in (1.0, -1.0):
                        y = x.copy()
                        y[start:stop] += sign * eps
                        # x is feasible: only the moved genes can break a rule.
                        if not _move_is_feasible(y, range(start, stop), cs,
                                                 references):
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
        if not done and not improved_at_min:
            break
    return LocalSearchResult(x, float(f), iterations, tuple(eps_used))


def chromosome_to_schedule(chromosome, n_qubits, segment_duration, references):
    """Reshape a flat (qubit-major) chromosome into a PulseSchedule."""
    det = _as_matrix(chromosome, n_qubits)
    return PulseSchedule(det, segment_duration, references)


def ccphase_fitness(device, references, segment_duration=1.0,
                    trotter=TrotterConfig(), target=None):
    """Fidelity-of-the-controlled-phase-gate fitness over chromosomes.

    Builds the schedule and scores it with
    :func:`~fluxgate.fidelity.score_waveform`.  Failed evolutions (a
    detuning walking into a resonator pole) score 0 rather than raising,
    so the optimizer can continue.  The first failure is
    logged as a warning with its diagnostic, later ones at debug level;
    the returned callable counts them in ``fitness.pole_failures``.
    """
    n = device.n_transmons
    if len(references) != n:
        raise ValueError(f"need {n} references, got {len(references)}")
    trotter.validate_against(segment_duration)
    if target is None:
        target = controlled_phase_ideal(n)
    # The fitness is public and may be called from user threads.
    lock = threading.Lock()

    def fitness(chromosome):
        schedule = chromosome_to_schedule(
            chromosome, n, segment_duration, references
        )
        waveform = PiecewiseConstantWaveform(schedule)
        try:
            return score_waveform(device, waveform, target, trotter).fidelity
        except EvolutionError as err:
            with lock:
                fitness.pole_failures += 1
                first = fitness.pole_failures == 1
            log = logger.warning if first else logger.debug
            log("evolution failed, scoring fitness 0: %s", err)
            return 0.0

    fitness.pole_failures = 0
    return fitness


def constraints_from_json(doc):
    """Build a ConstraintSet from a parsed JSON document."""
    ranges = tuple(
        DetuningRange(
            lo=r["lo_ghz"],
            hi=r["hi_ghz"],
            lo_inclusive=r.get("lo_inclusive", True),
            hi_inclusive=r.get("hi_inclusive", True),
        )
        for r in doc["ranges"]
    )
    idle = doc.get("idle_frequencies_ghz")
    return ConstraintSet(
        ranges,
        max_step=doc.get("max_step_ghz", 0.22),
        boundary_step=doc.get("boundary_step_ghz"),
        idle_frequencies=tuple(idle) if idle else None,
        min_separation=doc.get("min_separation_ghz"),
    )


def constraints_to_json(constraints):
    return {
        "ranges": [
            {
                "lo_ghz": r.lo,
                "hi_ghz": r.hi,
                "lo_inclusive": r.lo_inclusive,
                "hi_inclusive": r.hi_inclusive,
            }
            for r in constraints.ranges
        ],
        "max_step_ghz": constraints.max_step,
        "boundary_step_ghz": constraints.boundary_step,
        "idle_frequencies_ghz": (
            list(constraints.idle_frequencies)
            if constraints.idle_frequencies
            else None
        ),
        "min_separation_ghz": constraints.min_separation,
    }


def load_constraints(path):
    with open(path) as fh:
        return constraints_from_json(json.load(fh))
