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

import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EvaluationError,
    EvolutionError,
    InfeasibilityError,
    _check_number,
    _json_field,
)
from .fidelity import _Scorer, controlled_phase_ideal
from .propagator import TrotterConfig, _KeptPulses
from .pulses import PulseSchedule

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
    "local_search_iterations",
    "ccphase_fitness",
    "chromosome_to_schedule",
    "constraints_from_json",
    "constraints_to_json",
]


@dataclass(frozen=True)
class DetuningRange:
    """Closed/open interval of allowed detunings (GHz) for one qubit."""

    lo: float
    hi: float
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def __post_init__(self):
        _check_number("range ends", [self.lo, self.hi])
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
    # repair_chromosome's fixed window parts, per (references, segments).
    _window_limits: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple(self.ranges))
        # A NaN limit would switch its rule off (or fail every schedule)
        # without a sign.
        for name in ("max_step", "boundary_step", "min_separation"):
            if (value := getattr(self, name)) is not None:
                _check_number(name, value, "positive")
        if self.idle_frequencies is not None:
            idle = tuple(self.idle_frequencies)
            _check_number("idle_frequencies", idle)
            object.__setattr__(self, "idle_frequencies", idle)
        if self.boundary_step is not None and self.idle_frequencies is None:
            raise ValueError("boundary_step needs idle_frequencies")

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
    for k in range(1, len(column)):
        here = refs[k] + column[k]
        if not abs(here - below) >= min_gap:
            return False
        below = here
    return True


def _window_limits(constraints, refs, n_seg):
    """The parts of :func:`repair_chromosome`'s windows that do not depend
    on the chromosome, built once per (references, segment count) and kept
    on ``constraints``.

    Per segment and qubit: the closed range (lo, hi), and the boundary
    window at an edge segment and the window that keeps the last
    segment's boundary reachable, intersected in that order, or None.
    Python's ``max`` and ``min`` return the first of equal arguments, so
    intersecting the range with the step window and then with this
    precomputed pair gives the bits, +/-0 included, of intersecting the
    four one by one.
    """
    key = (np.array(refs, dtype=float).tobytes(), n_seg)
    limits = constraints._window_limits.get(key)
    if limits is not None:
        return limits
    cs = constraints
    bounds = [r.closed_bounds() for r in cs.ranges]
    limits = []
    for s in range(n_seg):
        edge = s in (0, n_seg - 1)
        reach = None if cs.max_step is None else (n_seg - 1 - s) * cs.max_step
        column = []
        for k, (lo, hi) in enumerate(bounds):
            rest = None
            if cs.boundary_step is not None:
                idle, ref = cs.idle_frequencies[k], refs[k]
                b_lo = idle - cs.boundary_step - ref
                b_hi = idle + cs.boundary_step - ref
                if edge:
                    rest = b_lo, b_hi
                if reach is not None:
                    r_lo, r_hi = b_lo - reach, b_hi + reach
                    rest = ((r_lo, r_hi) if rest is None
                            else (max(rest[0], r_lo), min(rest[1], r_hi)))
            column.append((lo, hi, rest))
        limits.append(column)
    constraints._window_limits[key] = limits
    return limits


def repair_chromosome(chromosome, constraints, references, rng, clamp=True,
                      budget=10_000):
    """Project a proposal onto the constraint set, left to right.

    Each segment's values are clamped (or resampled, for ``clamp=False``)
    into the window allowed by the range, step, and boundary rules, then
    the whole column is rejection-resampled until the adjacent-qubit
    separation holds.  ``budget`` bounds the total resampling attempts
    for this chromosome.  The walk runs column by column on Python floats,
    and each bound is the comparison ``max`` or ``min`` makes.  All windows
    of a segment come before its draws: from ``rng`` qubit by qubit, a
    resampled column as one ``rng.random(n)``, each draw u mapped as
    ``rng.uniform`` maps it (``lo + (hi - lo) * u``), so the output and the
    generator state depend only on the input and the generator state.  A
    window of signed zeros, [0.0, -0.0], passes ``lo > hi`` and draws 0.0,
    where ``rng.uniform`` would refuse it.
    """
    cs = constraints
    det = _as_matrix(chromosome, cs.n_qubits)
    n, n_seg = det.shape
    columns = det.T.tolist()
    refs = [float(r) for r in references]
    limits = _window_limits(cs, refs, n_seg)
    max_step = cs.max_step
    min_gap = None if cs.min_separation is None else cs.min_separation - STEP_TOL
    prev, attempts = None, 0  # prev: the column before, under a step rule
    for s, column in enumerate(columns):
        windows, outside = [], []
        for k, (lo, hi, rest) in enumerate(limits[s]):
            if prev is not None:
                lo = b if (b := prev[k] - max_step) > lo else lo
                hi = b if (b := prev[k] + max_step) < hi else hi
            if rest is not None:
                lo = rest[0] if rest[0] > lo else lo
                hi = rest[1] if rest[1] < hi else hi
            if lo > hi:
                raise InfeasibilityError(
                    f"qubit {k}, segment {s}: no feasible detuning (window "
                    "empty); the range, step, and boundary rules are mutually "
                    "inconsistent"
                )
            windows.append((lo, hi))
            v = column[k]
            if clamp:
                column[k] = lo if lo > v else hi if hi < v else v
            elif not lo <= v <= hi:
                outside.append(k)
        for k in outside:
            lo, hi = windows[k]
            column[k] = lo + (hi - lo) * rng.random()
        while min_gap is not None and not _separated(refs, column, min_gap):
            attempts += 1
            if attempts > budget:
                raise InfeasibilityError(
                    f"segment {s}: could not satisfy the separation rule after "
                    f"{budget} resampling attempts"
                )
            column = columns[s] = [lo + (hi - lo) * u for (lo, hi), u
                                   in zip(windows, rng.random(n).tolist())]
        prev = column if max_step is not None else None
    return np.array(columns, dtype=float).reshape(n_seg, n).T.copy()


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
        for name in ("population_size", "max_generations", "seed"):
            _check_number(name, getattr(self, name), "integer")
        # numpy refuses a negative seed; a negative count would run as 0.
        for name in ("max_generations", "seed"):
            _check_number(name, getattr(self, name), "non-negative")
        if self.population_size < 4:
            raise ValueError(
                "population must hold at least 4 members (three donors plus "
                "the target)"
            )
        # A NaN target ends the search at generation 0; a NaN probability
        # or bound switches its draw off.
        for name in ("target_fidelity", "readapt_probability",
                     "subspace_probability"):
            _check_number(name, getattr(self, name))
        # rng.uniform(*bounds) would read [lo] as [lo, 1) and name no field.
        for name in ("mutation_bounds", "crossover_bounds"):
            value = getattr(self, name)
            _check_number(name, value)
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and value[0] <= value[1]):
                raise ValueError(f"{name} must be finite numbers [lo, hi] "
                                 f"with lo <= hi, got {value!r}")


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


_RECORD_KINDS = (("generation", int), ("best_fidelity", float),
                 ("mean_fidelity", float), ("evaluations", int))


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
        """The state ``to_json`` wrote; a missing or mistyped key is a
        ValueError that names it."""
        def read(key, kind, node=doc, where="state"):
            return _json_field(node, key, where, kind)

        return cls(
            generation=read("generation", int),
            population=np.array(read("population", [[float]])),
            fitnesses=np.array(read("fitnesses", [float])),
            mutation_factors=np.array(read("mutation_factors", [float])),
            crossover_rates=np.array(read("crossover_rates", [float])),
            rng_state=read("rng_state", dict),
            evaluations=read("evaluations", int),
            history=[
                GenerationRecord(**{
                    key: read(key, kind, rec, f"state: history[{i}]")
                    for key, kind in _RECORD_KINDS})
                for i, rec in enumerate(read("history", [dict]))
            ],
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
            donors = rng.choice(pop_size - 1, size=3, replace=False).tolist()
            a, b, c = (population[d + (d >= i)] for d in donors)  # skip i
            mask = rng.random(n_genes) < config.subspace_probability
            if not mask.any():
                mask[rng.integers(n_genes)] = True
            mutant = np.where(mask, a + f_m[i] * (b - c), a)
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
        for name in ("max_iterations", "window"):
            _check_number(name, getattr(self, name), "integer")
        _check_number("max_iterations", self.max_iterations, "non-negative")
        # An infinite eps_max gives infinite rungs; NaN fails the order.
        for name in ("target_fidelity", "eps_max", "eps_min"):
            _check_number(name, getattr(self, name))
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

    A candidate whose window has the bits the last move accepted at that
    window replaced is the point that move left, which scored below the
    current fidelity, so it is rejected without a call: ``fitness`` must
    be deterministic, as for :func:`run_sussade`.
    """
    eps_used = []
    for x, f, iterations, eps, _ in local_search_iterations(
            chromosome, fitness, config, constraints, references):
        eps_used += eps
    return LocalSearchResult(x, f, iterations, tuple(eps_used))


def local_search_iterations(chromosome, fitness, config, constraints,
                            references, fidelity=None, iterations=0):
    """:func:`local_search` one finished iteration at a time.

    Yields ``(chromosome, fidelity, iterations, eps_swept, stopped)`` for
    the start and then after each finished iteration; ``stopped`` is true
    on the last.  A search continued from a yielded tuple, by passing its
    ``fidelity`` and ``iterations`` with its chromosome, goes on exactly as
    the uninterrupted one; ``fidelity=None`` evaluates the start.
    """
    cs = constraints
    x = np.array(chromosome, dtype=float).reshape(-1)
    if validate_constraints(x, cs, references):
        raise ValueError("local search requires a constraint-satisfying start")
    f = fitness(x) if fidelity is None else fidelity
    if math.isnan(f):
        raise EvaluationError("fitness returned NaN", chromosome=x)
    stopped = (f >= config.target_fidelity
               or iterations >= config.max_iterations)
    yield x, float(f), iterations, (), stopped
    while not stopped:
        done = improved_at_min = False
        eps_used = []
        for eps in config.eps_ladder():
            eps_used.append(eps)
            improved_sweep = False
            for start in range(0, x.size, config.window):
                stop = min(start + config.window, x.size)
                # The window's bytes before the last move accepted here.
                left = None
                while True:
                    for sign in (1.0, -1.0):
                        y = x.copy()
                        y[start:stop] += sign * eps
                        # A move back to the point just left would score
                        # that point's fidelity, below f: it is not scored.
                        if y[start:stop].tobytes() == left:
                            continue
                        # x is feasible: only the moved genes can break a rule.
                        if not _move_is_feasible(y, range(start, stop), cs,
                                                 references):
                            continue
                        fy = fitness(y)
                        if fy > f:
                            left = x[start:stop].tobytes()
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
        yield x, float(f), iterations, tuple(eps_used), stopped


def chromosome_to_schedule(chromosome, n_qubits, segment_duration, references):
    """Reshape a flat (qubit-major) chromosome into a PulseSchedule."""
    det = _as_matrix(chromosome, n_qubits)
    return PulseSchedule(det, segment_duration, references)


def ccphase_fitness(device, references, segment_duration=1.0,
                    trotter=TrotterConfig(), target=None):
    """Fidelity-of-the-controlled-phase-gate fitness over chromosomes.

    Scores a chromosome as :func:`~fluxgate.fidelity.score_waveform`
    scores its schedule, from its segment frequencies alone, bit for bit.
    Reuse belongs to the fitness, not to the process: its chromosomes'
    unitaries come from its own ``propagator._KeptPulses``, which keeps
    the last product tree and evolves a local-search walk ahead of its
    calls, so a move recomputes only what changed; ``evolve`` and
    ``score_waveform`` build a full tree on every call.

    Failed evolutions (a detuning walking into a resonator pole) score 0
    rather than raising, so the optimizer can continue.  The first failure
    is logged as a warning with its diagnostic, later ones at debug level;
    the returned callable counts them in ``fitness.pole_failures``.
    """
    n = device.n_transmons
    if len(references) != n:
        raise ValueError(f"need {n} references, got {len(references)}")
    _check_number("search_references", tuple(references))
    _check_number("segment_duration", segment_duration, "positive")
    if trotter.n_steps(segment_duration) == 0:
        raise ValueError(f"step {trotter.step} ns leaves no step in segment "
                         f"duration {segment_duration} ns")
    if target is None:
        target = controlled_phase_ideal(n)
    scorer = _Scorer(device, trotter, target)
    pulses = _KeptPulses(scorer.template, references, segment_duration,
                         trotter)
    # The lock keeps pole_failures exact when user threads share the
    # fitness; the pulses need none (see _KeptPulses).
    lock = threading.Lock()

    def fitness(chromosome):
        det = _as_matrix(chromosome, n)
        if det.ndim != 2:
            raise ValueError(f"detunings must be 2-D, got shape {det.shape}")
        if not np.isfinite(det).all():
            raise ValueError("detunings must be finite")
        try:
            return scorer.report(pulses.unitary(det)).fidelity
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
    """Build a ConstraintSet from a parsed JSON document; null is a rule
    switched off.  A missing or mistyped key is a ValueError that names it."""
    ranges = tuple(
        DetuningRange(
            lo=_json_field(r, "lo_ghz", f"range {i}"),
            hi=_json_field(r, "hi_ghz", f"range {i}"),
            lo_inclusive=_json_field(r, "lo_inclusive", f"range {i}", bool, True),
            hi_inclusive=_json_field(r, "hi_inclusive", f"range {i}", bool, True),
        )
        for i, r in enumerate(_json_field(doc, "ranges", "constraints", list))
    )

    def optional(key, default=None, kind=float):
        return _json_field(doc, key, "constraints", kind, default, null=True)

    idle = optional("idle_frequencies_ghz", kind=[float])
    return ConstraintSet(
        ranges,
        max_step=optional("max_step_ghz", 0.22),
        boundary_step=optional("boundary_step_ghz"),
        idle_frequencies=tuple(idle) if idle else None,
        min_separation=optional("min_separation_ghz"),
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
