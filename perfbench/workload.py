"""Run one benchmark workload in this (fresh) process and print one JSON line.

Started by ``run.py``; not meant to be run by hand.  Set-up time runs from
the top of this file, before numpy and fluxgate are imported, to the end of
the workload's warm-up call.  The measured phase then runs whole rounds of
the workload until ``--seconds`` are used up, or exactly ``--rounds``
rounds.  Output checks run afterwards, untimed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import fluxgate  # noqa: E402
from fluxgate import (  # noqa: E402
    device as fdevice,
    errors,
    fidelity,
    opensystem,
    optimizer,
    profiles,
    propagator,
    pulses,
    robustness,
)

import clock  # noqa: E402
import spans  # noqa: E402

ORACLE_TOL = 1e-9
TOY_PULSE_FIDELITY = 0.9996086749508606
UNREACHABLE = 2.0  # fidelity target no pulse can reach: run length stays fixed


def round_rng(seed, index):
    """Generator for round ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def feasible_chromosome(rng, constraints, references, n_segments):
    """A seeded random chromosome that satisfies the constraint set."""
    config = optimizer.DEConfig(population_size=4)
    return optimizer.seed_population(
        config, constraints, references, n_segments, rng=rng)[0]


def oracle_fidelity(device, schedule, target):
    """Closed-system gate fidelity with one scipy expm per segment.

    Independent of the propagator (no eigendecomposition, no step cache,
    no Trotter sampling); a resonator pole scores 0 as in the fitness.
    """
    import scipy.linalg

    basis = fdevice.basis_for(device)
    u = np.eye(basis.dimension, dtype=complex)
    try:
        for freqs in schedule.absolute_frequencies().T:
            h = fdevice.build_hamiltonian(device, basis, freqs)
            u = scipy.linalg.expm(-1j * schedule.segment_duration * h) @ u
    except errors.SingularityError:
        return 0.0
    u_comp = fidelity.project_to_computational(u, basis)
    return fidelity.fidelity_report(u_comp, target).fidelity


class TimedFitness:
    """Wraps a fitness callable; records each call's (start, seconds, 1)
    and value, and lets the timeline calibrate between calls."""

    def __init__(self, fitness, timeline, sample_every):
        self.fitness = fitness
        self.timeline = timeline
        self.sample_every = sample_every
        self.timings = []
        self.values = []
        self.samples = []  # (chromosome, value) pairs for the oracle check

    def __call__(self, chromosome):
        self.timeline.tick()
        t = time.perf_counter()
        value = self.fitness(chromosome)
        self.timings.append((t, time.perf_counter() - t, 1))
        self.values.append(value)
        if len(self.values) % self.sample_every == 1:
            self.samples.append((np.array(chromosome), value))
        return value


class Workload:
    """Set-up in ``__init__`` (inputs and one warm-up call), then rounds.

    ``run_round(i)`` returns the number of operations it completed;
    ``timings()`` gives (start, seconds, operations) per timed stretch of
    operations; ``checks()`` yields (name, passed, detail); ``outputs()``
    yields arrays that must be bit-identical with and without tracing.
    """

    evaluations = 0
    calibration = "chain"  # the clock.KERNELS entry doing the same kind of work

    def fitness_values(self):
        return []

    def local_search_moves(self):
        return 0, 0

    def qpt_seconds(self):
        return {}


class DifferentialEvolution(Workload):
    """run_sussade on the three-transmon chain; a round is one generation."""

    def __init__(self, seed, smoke, timeline):
        self.device = profiles.three_transmon_chain()
        self.constraints = profiles.three_qubit_constraints("references")
        self.references = profiles.THREE_QUBIT_REFERENCES
        population, segments = (8, 5) if smoke else (200, 50)
        self.config = optimizer.DEConfig(
            population_size=population, max_generations=0,
            target_fidelity=UNREACHABLE, seed=seed)
        self.population = optimizer.seed_population(
            self.config, self.constraints, self.references, segments)
        inner = optimizer.ccphase_fitness(self.device, self.references)
        self.fitness = TimedFitness(inner, timeline,
                                    sample_every=max(1, population // 2))
        inner(self.population[0])
        self.result = None

    def run_round(self, index):
        config = dataclasses.replace(self.config, max_generations=index)
        if self.result is None:
            start = {"population": self.population}
        else:
            start = {"state": self.result.state}
        self.result = optimizer.run_sussade(
            self.fitness, config, self.constraints, self.references, **start)
        self.evaluations = len(self.fitness.values)
        return self.config.population_size

    def timings(self):
        return self.fitness.timings

    def fitness_values(self):
        return self.fitness.values

    def outputs(self):
        state = self.result.state
        yield state.population
        yield state.fitnesses
        yield np.array([r.best_fidelity for r in state.history])

    def checks(self):
        if self.result is None:
            return
        best = [r.best_fidelity for r in self.result.history]
        yield ("de.history_nondecreasing",
               all(b >= a for a, b in zip(best, best[1:])), f"{best}")
        yield ("de.best_is_max",
               self.result.best_fidelity == float(self.result.state.fitnesses.max()),
               f"{self.result.best_fidelity}")
        yield from _oracle_checks("de", self.device, self.references,
                                  self.fitness.samples)


class LocalSearch(Workload):
    """local_search from seeded feasible starts; a round is one search."""

    def __init__(self, seed, smoke, timeline):
        self.seed = seed
        self.device = profiles.three_transmon_chain()
        self.constraints = profiles.three_qubit_constraints("references")
        self.references = profiles.THREE_QUBIT_REFERENCES
        self.segments = 5 if smoke else 50
        self.config = optimizer.LocalSearchConfig(
            eps_max=0.01, eps_min=0.001, max_iterations=1,
            target_fidelity=UNREACHABLE)
        inner = optimizer.ccphase_fitness(self.device, self.references)
        self.fitness = TimedFitness(inner, timeline, sample_every=500)
        self.starts = [self._start(0)]
        inner(self.starts[0])
        self.results = []
        self.first_call = []  # index of each search's first fitness call

    def _start(self, index):
        return feasible_chromosome(round_rng(self.seed, index),
                                   self.constraints, self.references,
                                   self.segments)

    def run_round(self, index):
        if index >= len(self.starts):
            self.starts.append(self._start(index))
        before = len(self.fitness.values)
        self.first_call.append(before)
        result = optimizer.local_search(
            self.starts[index], self.fitness, self.config, self.constraints,
            self.references)
        self.results.append(result)
        self.evaluations = len(self.fitness.values)
        return self.evaluations - before

    def timings(self):
        return self.fitness.timings

    def fitness_values(self):
        return self.fitness.values

    def local_search_moves(self):
        """(accepted moves, evaluated moves): a move is kept iff it beats
        every value before it in the same search."""
        accepted = moves = 0
        bounds = self.first_call + [len(self.fitness.values)]
        for lo, hi in zip(bounds, bounds[1:]):
            best = self.fitness.values[lo]
            for value in self.fitness.values[lo + 1:hi]:
                moves += 1
                if value > best:
                    accepted += 1
                    best = value
        return accepted, moves

    def outputs(self):
        for result in self.results:
            yield result.chromosome
            yield np.array([result.fidelity, result.iterations])

    def checks(self):
        for i, result in enumerate(self.results):
            start_value = self.fitness.values[self.first_call[i]]
            violations = optimizer.validate_constraints(
                result.chromosome, self.constraints, self.references)
            yield (f"ls.{i}.feasible", not violations, f"{violations[:3]}")
            yield (f"ls.{i}.no_worse", result.fidelity >= start_value,
                   f"{start_value} -> {result.fidelity}")
        samples = list(self.fitness.samples)
        samples += [(r.chromosome, r.fidelity) for r in self.results]
        yield from _oracle_checks("ls", self.device, self.references, samples)


class ProcessTomography(Workload):
    """run_qpt of one seeded pulse; a round is a closed- and an open-system
    tomography of it, as when a learned pulse is verified."""

    calibration = "products"

    def __init__(self, seed, smoke, timeline):
        self.device = profiles.three_transmon_chain(
            levels_per_transmon=3 if smoke else 4)
        constraints = profiles.three_qubit_constraints("references")
        self.references = profiles.THREE_QUBIT_REFERENCES
        chromosome = feasible_chromosome(round_rng(seed, 0), constraints,
                                         self.references, 1 if smoke else 2)
        self.schedule = optimizer.chromosome_to_schedule(
            chromosome, 3, 1.0, self.references)
        # Target the unitary the pulse implements (polar part of its
        # projected closed-system evolution), so decoherence can only
        # lower F_g and the open <= closed check is exact physics.
        basis = fdevice.basis_for(self.device)
        u = propagator.evolve(
            self.device, pulses.PiecewiseConstantWaveform(self.schedule),
            basis=basis)
        left, _, right = np.linalg.svd(
            fidelity.project_to_computational(u, basis))
        self.target = left @ right
        self.lindblad = opensystem.LindbladSpec(20.0, 20.0)
        self.timeline = timeline
        self.warm = self._qpt(None)
        self.runs = []
        self.times = {"closed": [], "open": []}
        self.round_starts = []

    def _qpt(self, lindblad):
        return opensystem.run_qpt(self.device, self.schedule, target=self.target,
                                  lindblad=lindblad)

    def run_round(self, index):
        self.round_starts.append(time.perf_counter())
        pair = {}
        for kind, lindblad in (("closed", None), ("open", self.lindblad)):
            if kind == "open":
                self.timeline.calibrate()
            t = time.perf_counter()
            pair[kind] = self._qpt(lindblad)
            self.times[kind].append(time.perf_counter() - t)
        self.runs.append(pair)
        self.evaluations += 2
        return 1

    def timings(self):
        return [(t, c + o, 1) for t, c, o in
                zip(self.round_starts, self.times["closed"], self.times["open"])]

    def qpt_seconds(self):
        return self.times

    def outputs(self):
        for pair in self.runs:
            for result in pair.values():
                yield result.chi

    def checks(self):
        for i, pair in enumerate(self.runs):
            for kind, result in pair.items():
                chi = result.chi
                herm = float(np.abs(chi - chi.conj().T).max())
                floor = float(np.linalg.eigvalsh(chi).min())
                trace_err = abs(complex(np.trace(chi)) - 1.0)
                yield (f"qpt.{i}.{kind}.hermitian", herm <= 1e-10, f"{herm:.1e}")
                yield (f"qpt.{i}.{kind}.psd", floor >= -1e-10, f"{floor:.1e}")
                yield (f"qpt.{i}.{kind}.trace_one", trace_err <= 1e-9,
                       f"{trace_err:.1e}")
            closed, open_ = pair["closed"].report, pair["open"].report
            yield (f"qpt.{i}.open_fg_le_closed",
                   open_.average_gate_fidelity <= closed.average_gate_fidelity,
                   f"{open_.average_gate_fidelity} vs "
                   f"{closed.average_gate_fidelity}")
            yield (f"qpt.{i}.open_purity_le_closed",
                   open_.average_purity <= closed.average_purity,
                   f"{open_.average_purity} vs {closed.average_purity}")
            yield (f"qpt.{i}.closed_matches_warmup",
                   np.array_equal(pair["closed"].chi, self.warm.chi), "")
        reference = oracle_fidelity(self.device, self.schedule, self.target)
        got = self.warm.closed_system_fidelity
        yield ("qpt.closed_fidelity_oracle",
               abs(reference - got) <= ORACLE_TOL, f"{got} vs {reference}")


class NoiseSweep(Workload):
    """noise_sweep of the shipped toy pulse over 0-10 MHz; a round is one
    sweep with its own noise seed, and an operation is one scored sample."""

    def __init__(self, seed, smoke, timeline):
        self.seed = seed
        self.device = profiles.toy_two_transmon_chain()
        self.schedule = profiles.load_toy_pulse()
        self.amplitudes = (0.0, 5.0, 10.0) if smoke else tuple(
            float(a) for a in range(11))
        self.samples = 1 if smoke else 5
        self.warm = robustness.noise_sweep(
            self.schedule, self.device,
            robustness.NoiseSweepConfig(amplitudes_mhz=(0.0,), samples=1))
        self.reports = []
        self.stretches = []

    def run_round(self, index):
        config = robustness.NoiseSweepConfig(
            amplitudes_mhz=self.amplitudes, samples=self.samples,
            seed=int(round_rng(self.seed, index).integers(2 ** 31)))
        t = time.perf_counter()
        self.reports.append(
            robustness.noise_sweep(self.schedule, self.device, config))
        operations = 1 + len(self.amplitudes) * self.samples
        self.stretches.append((t, time.perf_counter() - t, operations))
        self.evaluations += operations
        return operations

    def timings(self):
        return self.stretches

    def outputs(self):
        for report in self.reports:
            yield np.array(report.mean_fidelities)
            yield np.array(report.std_errors)

    def checks(self):
        baseline = self.warm.baseline_fidelity
        yield ("noise.baseline_stored",
               abs(baseline - TOY_PULSE_FIDELITY) <= ORACLE_TOL, f"{baseline}")
        reference = oracle_fidelity(
            self.device, self.schedule,
            fidelity.controlled_phase_ideal(self.device.n_transmons))
        yield ("noise.baseline_oracle", abs(reference - baseline) <= ORACLE_TOL,
               f"{baseline} vs {reference}")
        for i, report in enumerate(self.reports):
            yield (f"noise.{i}.zero_amplitude_is_baseline",
                   report.mean_fidelities[0] == report.baseline_fidelity == baseline,
                   f"{report.mean_fidelities[0]} vs {baseline}")


def _oracle_checks(prefix, device, references, samples):
    target = fidelity.controlled_phase_ideal(device.n_transmons)
    for i, (chromosome, value) in enumerate(samples):
        schedule = optimizer.chromosome_to_schedule(
            chromosome, device.n_transmons, 1.0, references)
        reference = oracle_fidelity(device, schedule, target)
        yield (f"{prefix}.oracle.{i}", abs(reference - value) <= ORACLE_TOL,
               f"{value} vs {reference}")


WORKLOADS = {
    "de_3q": DifferentialEvolution,
    "ls_3q": LocalSearch,
    "qpt_3q": ProcessTomography,
    "noise_toy": NoiseSweep,
}


def blas_facts():
    """BLAS name, version and the thread count the library reports."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": info.get("name"), "blas_version": info.get("version"),
             "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
             "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        for path in sorted(libs.glob("*openblas*")):
            getter = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            facts["blas_threads"] = getter()
    except (OSError, AttributeError):
        pass  # not numpy's bundled OpenBLAS: the pinned env value stands
    return facts


def measure(workload, timeline, seconds, rounds):
    """Run whole rounds: exactly ``rounds``, or until ``seconds`` elapse
    (a round is not started when half a mean round would overrun).

    Returns (start, seconds, operations) per completed round and the
    number of rounds that raised."""
    done = []
    raised = 0
    timeline.calibrate()
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            operations = workload.run_round(len(done))
        except Exception:  # recorded as a failed operation; the run goes on to its checks
            traceback.print_exc(file=sys.stderr)
            raised += 1
            break
        done.append((t, time.perf_counter() - t, operations))
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif (time.perf_counter() - start
              + 0.5 * sum(d for _t, d, _n in done) / len(done) >= seconds):
            break
        timeline.tick()
    timeline.calibrate()
    return done, raised


def round_throughput(timeline, done, calibrated):
    """Median over rounds of operations per second of work in the round,
    which a burst of host load in one round does not move."""
    if not done:
        return 0.0
    return float(np.median([
        n / timeline.work_seconds(t, t + d)[1 if calibrated else 0]
        for t, d, n in done]))


def percentiles_ms(per_op_seconds):
    if not per_op_seconds:
        return 0.0, 0.0
    p50, p90 = np.percentile(1e3 * np.array(per_op_seconds), [50, 90])
    return float(p50), float(p90)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(fluxgate.__file__).resolve().parents:
        sys.exit(f"fluxgate was imported from {fluxgate.__file__}, not {source}")

    kind = WORKLOADS[args.workload]
    timeline = clock.Timeline(kind.calibration)
    workload = kind(args.seed, args.smoke, timeline)
    # Set-up is one short interval per process; run.py rescales the median
    # of several by the measuring process's run-wide speed_factor.
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if args.trace:
        with spans.Tracer() as tracer:
            done, raised = measure(workload, timeline, args.seconds, args.rounds)
    else:
        done, raised = measure(workload, timeline, args.seconds, args.rounds)
    operations = sum(n for _t, _d, n in done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timings = workload.timings()
    raw_s, work_s = timeline.work_seconds()
    p50, p90 = percentiles_ms(
        [timeline.rescale(t, d) / n for t, d, n in timings])
    raw_p50, raw_p90 = percentiles_ms([d / n for _t, d, n in timings])

    digest = hashlib.sha256()
    for array in workload.outputs() if done else ():
        digest.update(np.ascontiguousarray(array).tobytes())
    checks = [[name, bool(ok), detail] for name, ok, detail in workload.checks()]

    out = {
        "setup_s": setup_s,
        "work_s": work_s,
        "rounds": len(done),
        "operations": operations,
        "raised": raised,
        "ops_per_s": round_throughput(timeline, done, calibrated=True),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "op_samples": len(timings),
        "peak_rss_mb": peak_rss_mb,
        "raw": {"work_s": raw_s,
                "ops_per_s": round_throughput(timeline, done, calibrated=False),
                "op_ms_p50": raw_p50,
                "op_ms_p90": raw_p90,
                "kernel_ms": 1e3 * timeline.kernel_median()},
        "speed_factor": timeline.reference / timeline.kernel_median(),
        "checks": checks,
        "digest": digest.hexdigest(),
        "facts": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "fluxgate_source": str(Path(fluxgate.__file__).resolve().parent),
            **blas_facts(),
        },
    }
    if args.trace:
        accepted, moves = workload.local_search_moves()
        out["layers"] = spans.layer_metrics(
            tracer, workload.evaluations, workload.fitness_values(), accepted,
            moves, workload.qpt_seconds())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
