"""Command-line pipeline: simulate | optimize | qpt | robustness | verify.

Every run resolves its full configuration into a manifest, embeds the
manifest hash in each output artifact (a ``manifest_hash`` key in JSON
files, a ``# manifest_hash=...`` comment line in CSV files), and writes
``<name>.manifest.json`` next to the primary output.  Identical manifests
reproduce byte-identical numeric outputs: all randomness is seeded, all
floats are written with round-tripping precision, and subcommands are
pure pipelines over their configuration.

The default output directory is the current one, overridable with the
``FLUXGATE_OUT_DIR`` environment variable.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .device import (
    ResonatorCoupling,
    TransmonSpec,
    _template,
    basis_for,
    build_hamiltonian,
    device_from_json,
    dressed_frequency,
    full_basis,
)
from .errors import (
    EvolutionError,
    InfeasibilityError,
    _check_number,
    _json_field,
)
from .fidelity import (
    CompensationPhases,
    _fidelity_reports,
    controlled_phase_ideal,
    fidelity_report,
    fit_phases,
    gate_fidelity,
    project_to_computational,
    score_waveform,
)
from .opensystem import (
    LindbladSpec,
    _StackEvolution,
    estimate_chi,
    lowering_operator,
    number_operator,
    prepare_qpt_inputs,
    run_qpt,
)
from .optimizer import (
    DEConfig,
    LocalSearchConfig,
    SussadeState,
    ccphase_fitness,
    chromosome_to_schedule,
    constraints_from_json,
    local_search_iterations,
    run_sussade,
    seed_population,
)
from .profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    load_ccphase_pulse,
    load_toy_pulse,
    three_qubit_constraints,
    three_transmon_chain,
    toy_two_transmon_chain,
)
from .propagator import (
    TrotterConfig,
    _segment_unitaries,
    evolve,
    expm_skew,
    step_unitary,
)
from .pulses import (
    PiecewiseConstantWaveform,
    PulseSchedule,
    schedule_from_csv,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
)
from .robustness import NoiseSweepConfig, noise_sweep

SCHEMA_VERSION = 2
_CHECKPOINT_EVERY = 25  # DE generations between optimize checkpoints
# The keys of an optimize checkpoint's local-search entry, in the order
# written, with their JSON kinds.
_LOCAL_SEARCH_KEYS = {"chromosome": [float], "fidelity": float,
                      "iterations": int, "stopped": bool}


def _out_dir():
    return os.environ.get("FLUXGATE_OUT_DIR", ".")


def _resolve(path):
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(_out_dir(), path)


def _canonical(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _manifest_hash(config):
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_manifest(primary_path, command, config, timings, results):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "manifest_hash": _manifest_hash(config),
        "timings_s": timings,
        "results": results,
    }
    base, _ = os.path.splitext(primary_path)
    _write_json(base + ".manifest.json", manifest)
    return manifest


def _target_matrix(name, n_qubits):
    if name == "ccphase":
        return controlled_phase_ideal(n_qubits)
    if name == "identity":
        return np.eye(2 ** n_qubits)
    raise ValueError(f"unknown target {name!r}")


def _read_input(path):
    """The bytes of input file ``path`` and their SHA-256.  A run parses
    the bytes it hashes, and its manifest records the path and the digest,
    so a file edited in place changes the manifest hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def _chain_inputs(args):
    """The device of a run command, its search references (``--references``,
    else the device's idle frequencies), Trotter config and target, and
    the device's manifest keys."""
    data, digest = _read_input(args.device)
    device = device_from_json(json.loads(data))
    references = (tuple(args.references) if args.references
                  else device.idle_frequencies())
    return (device, references, TrotterConfig(args.trotter_step),
            _target_matrix(args.target, device.n_transmons),
            {"device": args.device, "device_sha256": digest})


def _pulse_inputs(args):
    """The device, pulse schedule, Trotter config and target of a
    ``simulate``, ``qpt`` or ``robustness`` run, and the manifest keys
    the three share, in the order written."""
    device, references, trotter, target, device_keys = _chain_inputs(args)
    data, digest = _read_input(args.pulses)
    if args.pulses.endswith(".json"):
        for flag, value in (("--references", args.references),
                            ("--segment-duration", args.segment_duration)):
            if value is not None:
                raise ValueError(f"{flag} is for CSV pulses; the JSON pulse "
                                 f"{args.pulses} carries its own")
        schedule = schedule_from_json(json.loads(data))
    else:
        duration = (1.0 if args.segment_duration is None
                    else args.segment_duration)
        schedule = schedule_from_csv(data.decode(), duration, references)
    if schedule.n_qubits != device.n_transmons:
        raise ValueError(
            f"pulse {args.pulses} has {schedule.n_qubits} qubits; the device "
            f"has {device.n_transmons} transmons")
    config = {
        **device_keys,
        "pulses": args.pulses,
        "pulses_sha256": digest,
        "segment_duration_ns": schedule.segment_duration,
        "search_references_ghz": list(schedule.search_references),
        "trotter_step_ns": trotter.step,
    }
    return device, schedule, trotter, target, config


def _complex_matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def cmd_simulate(args):
    device, schedule, trotter, target, config = _pulse_inputs(args)
    config["target"] = args.target
    t0 = time.perf_counter()
    report = score_waveform(
        device, PiecewiseConstantWaveform(schedule), target, trotter
    )
    elapsed = time.perf_counter() - t0

    out = _resolve(args.out)
    manifest = _write_manifest(
        out, "simulate", config, {"evolve_s": elapsed},
        {"fidelity": report.fidelity},
    )
    doc = report.to_json()
    doc["manifest_hash"] = manifest["manifest_hash"]
    _write_json(out, doc)
    if args.unitary_out:
        _write_json(
            _resolve(args.unitary_out),
            {
                "schema_version": SCHEMA_VERSION,
                "manifest_hash": manifest["manifest_hash"],
                "compensated_unitary": _complex_matrix_json(report.compensated),
            },
        )
    print(f"fidelity: {report.fidelity:.6f}")
    return 0


def _history_csv(history, manifest_hash):
    lines = [f"# manifest_hash={manifest_hash}",
             "generation,best_fidelity,mean_fidelity,evaluations"]
    for rec in history:
        lines.append(
            f"{rec.generation},{rec.best_fidelity!r},{rec.mean_fidelity!r},"
            f"{rec.evaluations}"
        )
    return "\n".join(lines) + "\n"


def _read_config(cls, path):
    """The JSON object of ``cls`` fields in ``path``; a key that names no
    field is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object of {cls.__name__} "
                         "fields")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: unknown {cls.__name__} field(s): "
                         f"{', '.join(unknown)}")
    return doc


def _read_checkpoint(path, n_genes, population_size, config):
    """The DE state, pole-failure count and local-search entry (or None) of
    a ``--state-out`` checkpoint, checked against this run's gene count,
    population and ``config``.

    The checkpoint's manifest hash must be that of ``config``, or of
    ``config`` with the DE ``max_generations`` at the checkpoint's
    generation: a run that reached its generation limit may be continued
    under a higher one."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"resume state {path} is not a JSON object")
    try:
        state = SussadeState.from_json(doc)
        pole_failures = _json_field(doc, "pole_failures", "state", int)
        written_by = _json_field(doc, "manifest_hash", "state", str)
        entry = _json_field(doc, "local_search", "state", dict, None,
                            null=True)
        if entry is not None:
            entry = {key: _json_field(entry, key, "state: local_search", kind)
                     for key, kind in _LOCAL_SEARCH_KEYS.items()}
            _check_number("state: local_search: fidelity", entry["fidelity"])
    except ValueError as err:
        raise ValueError(f"resume state {path}: {err}") from None
    ls_genes = n_genes if entry is None else len(entry["chromosome"])
    for what, got, want in (
        ("members (DE population_size)", len(state.population),
         population_size),
        ("genes per member (qubits x --segments)",
         state.population.shape[-1], n_genes),
        ("local-search genes", ls_genes, n_genes),
    ):
        if got != want:
            raise ValueError(f"resume state {path} holds {got} {what}; "
                             f"this run needs {want}")
    manifest_hash = _manifest_hash(config)
    limit_reached = dict(config, de_config=dict(
        config["de_config"], max_generations=state.generation))
    if written_by not in (manifest_hash, _manifest_hash(limit_reached)):
        raise ValueError(f"resume state {path} was written under manifest "
                         f"hash {written_by}; this run's configuration has "
                         f"hash {manifest_hash}")
    return state, pole_failures, entry


def _write_checkpoint(path, doc):
    """Write ``doc`` through a temp file and ``os.replace``, so a kill
    during the write leaves the previous checkpoint whole."""
    _write_json(path + ".tmp", doc)
    os.replace(path + ".tmp", path)


def cmd_optimize(args):
    if args.segments < 1:
        raise ValueError(f"--segments must be at least 1, got {args.segments}")
    device, references, trotter, target, config = _chain_inputs(args)
    data, constraints_digest = _read_input(args.constraints)
    constraints = constraints_from_json(json.loads(data))
    if constraints.n_qubits != device.n_transmons:
        raise ValueError(
            f"constraints {args.constraints} are for {constraints.n_qubits} "
            f"qubits; the device has {device.n_transmons} transmons")
    de_doc = _read_config(DEConfig, args.de_config) if args.de_config else {}
    if args.seed is not None:
        de_doc["seed"] = args.seed
    de_config = DEConfig(**de_doc)
    ls_doc = ls_config = None
    if args.local_search:
        ls_doc = _read_config(LocalSearchConfig, args.local_search)
        ls_config = LocalSearchConfig(**ls_doc)
    config.update({
        "constraints": args.constraints,
        "constraints_sha256": constraints_digest,
        "de_config": de_doc,
        "local_search": ls_doc,
        "segments": args.segments,
        "segment_duration_ns": args.segment_duration,
        "search_references_ghz": list(references),
        "trotter_step_ns": trotter.step,
        "target": args.target,
        "seed": de_config.seed,
    })
    manifest_hash = _manifest_hash(config)

    fitness = ccphase_fitness(device, references, args.segment_duration,
                              trotter, target=target)
    state = entry = population = None
    if args.resume:
        state, fitness.pole_failures, entry = _read_checkpoint(
            _resolve(args.resume), device.n_transmons * args.segments,
            de_config.population_size, config,
        )
    else:
        population = seed_population(
            de_config, constraints, references, args.segments
        )

    def checkpoint(state, entry):
        if args.state_out:
            doc = state.to_json()
            doc["manifest_hash"] = manifest_hash
            doc["pole_failures"] = fitness.pole_failures
            if entry is not None:
                doc["local_search"] = entry
            _write_checkpoint(_resolve(args.state_out), doc)

    # Evolution runs _CHECKPOINT_EVERY generations per run_sussade call,
    # each resumed from the last; a local-search entry means it finished.
    # Progress goes to stderr, so stdout and the artifacts stay the same.
    t0 = time.perf_counter()
    last = de_config.max_generations if entry is None else state.generation
    while True:
        done = state.generation if state else 0
        stop = (done // _CHECKPOINT_EVERY + 1) * _CHECKPOINT_EVERY
        result = run_sussade(
            fitness, replace(de_config, max_generations=min(stop, last)),
            constraints, references, population=population, state=state,
        )
        state = result.state
        rec = result.history[-1]
        print(f"DE generation {rec.generation}: best F "
              f"{rec.best_fidelity:.6f}, mean F {rec.mean_fidelity:.6f}",
              file=sys.stderr)
        checkpoint(state, entry)
        if (state.generation >= last
                or result.best_fidelity >= de_config.target_fidelity):
            break
    de_elapsed = time.perf_counter() - t0
    best, best_f = result.best_chromosome, result.best_fidelity
    ls_elapsed = 0.0
    if ls_config is not None:
        t1 = time.perf_counter()
        fidelity, iterations, stopped = None, 0, False
        if entry is not None:
            best = np.array(entry["chromosome"])
            best_f = fidelity = entry["fidelity"]
            iterations, stopped = entry["iterations"], entry["stopped"]
        steps = () if stopped else local_search_iterations(
            best, fitness, ls_config, constraints, references, fidelity,
            iterations)
        for best, best_f, iterations, _, stopped in steps:
            print(f"local-search iteration {iterations}: F {best_f:.9f}",
                  file=sys.stderr)
            checkpoint(state, dict(zip(_LOCAL_SEARCH_KEYS, (
                best.tolist(), best_f, iterations, stopped,
            ))))
        ls_elapsed = time.perf_counter() - t1

    schedule = chromosome_to_schedule(
        best, device.n_transmons, args.segment_duration, references
    )
    out = _resolve(args.out)
    manifest = _write_manifest(
        out, "optimize", config,
        {"evolution_s": de_elapsed, "local_search_s": ls_elapsed},
        {
            "de_fidelity": result.best_fidelity,
            "final_fidelity": best_f,
            "generations": result.history[-1].generation,
            "evaluations": result.history[-1].evaluations,
            "pole_failures": fitness.pole_failures,
        },
    )
    with open(out, "w") as fh:
        fh.write(
            schedule_to_csv(
                schedule,
                header_comments=(f"manifest_hash={manifest['manifest_hash']}",),
            )
        )
    _write_json(os.path.splitext(out)[0] + ".json", {
        **schedule_to_json(schedule),
        "manifest_hash": manifest["manifest_hash"],
        "fidelity": best_f,
        "seed": de_config.seed,
    })
    if args.log:
        with open(_resolve(args.log), "w") as fh:
            fh.write(_history_csv(result.history, manifest["manifest_hash"]))
    print(f"best fidelity: {best_f:.6f} "
          f"({result.history[-1].generation} generations)")
    return 0


def cmd_qpt(args):
    device, schedule, trotter, target, config = _pulse_inputs(args)
    if args.levels is not None:
        device = device.with_levels(args.levels)
    lindblad = None
    if args.t1_us is not None or args.t2_us is not None:
        # An omitted time adds no decay: T1 = inf, or T2 = 2*T1 (no pure
        # dephasing).
        t1 = float("inf") if args.t1_us is None else args.t1_us
        t2 = 2 * t1 if args.t2_us is None else args.t2_us
        lindblad = LindbladSpec(t1, t2)
    config.update(t1_us=args.t1_us, t2_us=args.t2_us, levels=args.levels,
                  target=args.target)
    t0 = time.perf_counter()
    result = run_qpt(device, schedule, trotter, lindblad=lindblad,
                     target=target)
    elapsed = time.perf_counter() - t0
    out = _resolve(args.out)
    manifest = _write_manifest(
        out, "qpt", config, {"tomography_s": elapsed},
        result.report.to_json(),
    )
    _write_json(out, {
        "schema_version": SCHEMA_VERSION,
        "manifest_hash": manifest["manifest_hash"],
        "chi": _complex_matrix_json(result.chi),
    })
    report_doc = {
        "schema_version": SCHEMA_VERSION,
        "manifest_hash": manifest["manifest_hash"],
        **result.report.to_json(),
        "levels": device.levels_per_transmon,
        "t1_us": args.t1_us,
        "t2_us": args.t2_us,
        "target": args.target,
        "closed_system_fidelity": result.closed_system_fidelity,
    }
    _write_json(_resolve(args.report), report_doc)
    print(
        "process fidelity: {process_fidelity:.6f}  "
        "average gate fidelity: {average_gate_fidelity:.6f}  "
        "average purity: {average_purity:.6f}".format(**result.report.to_json())
    )
    return 0


def _parse_amplitudes(spec):
    """The amplitudes of ``--amplitudes``, a comma list or start:stop:step,
    checked by NoiseSweepConfig; a bad spec is a ValueError naming the
    flag and the spec."""
    try:
        if ":" in spec:
            start, stop, step = (float(v) for v in spec.split(":"))
            if not step > 0:
                raise ValueError(f"amplitude step must be positive, got {step}")
            count = int(round((stop - start) / step))
            values = [start + i * step for i in range(count + 1)]
            amplitudes = tuple(round(v, 12) for v in values)
        else:
            amplitudes = tuple(float(v) for v in spec.split(","))
        NoiseSweepConfig(amplitudes)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"--amplitudes {spec}: {err}") from None
    return amplitudes


def cmd_robustness(args):
    device, schedule, trotter, target, config = _pulse_inputs(args)
    amplitudes = _parse_amplitudes(args.amplitudes)
    config.update(amplitudes_mhz=list(amplitudes), samples=args.samples,
                  target=args.target, seed=args.seed)
    sweep_config = NoiseSweepConfig(amplitudes, args.samples, args.seed)
    t0 = time.perf_counter()
    report = noise_sweep(schedule, device, sweep_config, trotter,
                         target=target)
    elapsed = time.perf_counter() - t0
    out = _resolve(args.out)
    manifest = _write_manifest(
        out, "robustness", config, {"sweep_s": elapsed},
        {"baseline_fidelity": report.baseline_fidelity},
    )
    lines = [f"# manifest_hash={manifest['manifest_hash']}",
             "amplitude_mhz,mean_fidelity,std_error,samples,singular"]
    for (amp, mean, err), singular in zip(report.rows(), report.singular_counts):
        lines.append(f"{amp!r},{mean!r},{err!r},{report.samples},{singular}")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"baseline fidelity: {report.baseline_fidelity:.6f}  "
          f"({len(amplitudes)} amplitudes x {args.samples} samples)")
    return 0


def cmd_verify(args):
    """Fast self-checks of the numerical core; prints PASS/FAIL lines."""
    checks = []

    t = TransmonSpec(0, 5.0, -0.3)
    r = ResonatorCoupling(0, 1, 8.05, 0.2, 0.2)
    got = dressed_frequency(t, 1, 5.0, [r])
    checks.append(("dressed level energy", abs(got - 4.9868852459016395) < 1e-12))

    f = gate_fidelity(np.eye(8), controlled_phase_ideal(3),
                      CompensationPhases.zero(3))
    checks.append(("gate fidelity arithmetic", abs(f - 44.0 / 72.0) < 1e-12))

    device = three_transmon_chain()
    sched = PulseSchedule(np.zeros((3, 50)), 1.0, (5.0, 6.0, 7.0))
    u = evolve(device, PiecewiseConstantWaveform(sched))
    checks.append((
        "idle evolution unitarity",
        np.abs(u @ u.conj().T - np.eye(20)).max() < 1e-8,
    ))

    # The batched block propagator against one dense exponential per segment.
    chromosome = seed_population(
        DEConfig(population_size=4), three_qubit_constraints("references"),
        THREE_QUBIT_REFERENCES, 50, rng=np.random.default_rng(7),
    )[0]
    sched = chromosome_to_schedule(chromosome, 3, 1.0, THREE_QUBIT_REFERENCES)
    basis = basis_for(device)
    dense = np.eye(20, dtype=complex)
    for freqs in sched.absolute_frequencies().T:
        dense = expm_skew(build_hamiltonian(device, basis, freqs), 1.0) @ dense
    u = evolve(device, PiecewiseConstantWaveform(sched))
    checks.append((
        "batched evolution vs per-segment exponentials",
        np.abs(u - dense).max() < 1e-10,
    ))

    # One fitness scores the shipped CCZ pulse, a walk of 20 one-gene moves
    # (each updates only the tree nodes above its segment), 20 repeated
    # moves at one gene and their reversal (scored ahead in batches), the
    # idle pulse (a new tree) and the CCZ pulse again, each as a fresh
    # fitness does.
    ccz = load_ccphase_pulse()
    args = (device, ccz.search_references, ccz.segment_duration)
    fitness = ccphase_fitness(*args)
    move_rng = np.random.default_rng(9)
    walk = [ccz.detunings]
    for _ in range(20):
        det = walk[-1].copy()
        det[move_rng.integers(3), move_rng.integers(ccz.n_segments)] += 1e-3
        walk.append(det)
    for step in [1e-3] * 20 + [-1e-3] * 20:
        det = walk[-1].copy()
        det[1, 17] += step
        walk.append(det)
    walk += [np.zeros((3, 1)), ccz.detunings]
    checks.append(("incremental product tree vs cold product",
                   all(fitness(x) == ccphase_fitness(*args)(x) for x in walk)))

    # The CCZ pulse's 50 segment exponentials, each alone and all as one
    # batch, checked once for exact symmetry, against every matrix of every
    # block exponentiated with its own toleranced check: the same bytes.
    template = _template(device, basis)
    rows = ccz.absolute_frequencies().T
    dts = np.full(len(rows), ccz.segment_duration)
    h = template.build(rows)
    oracle = np.zeros(h.shape, dtype=complex)
    for block in template.blocks:
        index = (slice(None), block[:, None], block)
        oracle[index] = [expm_skew(m, dt) for m, dt in zip(h[index], dts)]
    alone = np.concatenate([
        _segment_unitaries(template, rows[s:s + 1], dts[s:s + 1])
        for s in range(len(rows))
    ])
    batch = _segment_unitaries(template, rows, dts)
    checks.append((
        "exponential without per-block checks vs per-block oracle",
        alone.tobytes() == oracle.tobytes() == batch.tobytes(),
    ))

    # Nudging any fitted qubit phase by +/-1e-6 rad must not raise the score.
    u8 = project_to_computational(u, basis)
    target = controlled_phase_ideal(3)
    phases = fit_phases(u8, target)

    best = gate_fidelity(u8, target, phases)
    nudged = [
        gate_fidelity(u8, target, CompensationPhases(
            phases.theta0,
            tuple(t + step if j == k else t
                  for j, t in enumerate(phases.qubit_phases))))
        for k in range(3) for step in (1e-6, -1e-6)
    ]
    checks.append(("phase fit is a local maximum", max(nudged) <= best))

    # A seeded stack (the chromosome's projection, then shrunk random
    # unitaries) fitted and scored in one pass, against each member alone.
    stack_rng = np.random.default_rng(11)
    gauss = stack_rng.normal(size=(2, 16, 8, 8))
    stack = np.concatenate([u8[None], np.linalg.qr(gauss[0] + 1j * gauss[1])[0]
                            * stack_rng.uniform(0.5, 1.0, size=(16, 1, 8))])

    def report_bits(rep):
        return (np.float64(rep.fidelity).tobytes(), rep.compensated.tobytes(),
                np.array([rep.phases.theta0, *rep.phases.qubit_phases]).tobytes())

    checks.append((
        "stacked phase fit and score vs one matrix at a time",
        [report_bits(rep) for rep in _fidelity_reports(stack, target)]
        == [report_bits(fidelity_report(u, target)) for u in stack],
    ))

    inputs = list(prepare_qpt_inputs(2, 2))
    chi = estimate_chi(inputs, inputs)
    checks.append(("identity channel chi", abs(chi[0, 0].real - 1.0) < 1e-8))

    toy = load_toy_pulse()
    fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES, 1.0)
    checks.append((
        "stored toy pulse fidelity",
        fitness(toy.detunings.reshape(-1)) > 0.999,
    ))

    # The stacked density core against the dense Strang loop, one input at
    # a time with dense collapse operators, on the toy chain at 3 levels.
    device3 = toy_two_transmon_chain().with_levels(3)
    wave = PiecewiseConstantWaveform(toy)
    spec = LindbladSpec(5.0, 8.0)
    trotter = TrotterConfig()
    eye = np.eye(3)
    ops = []
    for k, (g1, gphi) in enumerate(spec.rates_per_ns(2)):
        for rate, op in ((g1, lowering_operator(3)),
                         (2.0 * gphi, number_operator(3))):
            op = np.sqrt(rate) * (np.kron(op, eye) if k == 0
                                  else np.kron(eye, op))
            ops.append((op, op.conj().T))
    anticomm = sum(opd @ op for op, opd in ops)
    stack = np.array(prepare_qpt_inputs(2, 3))
    stacked = _StackEvolution(device3, wave, trotter, spec)(stack)
    halves = []
    for i in range(trotter.n_steps(wave.duration)):
        u = step_unitary(device3, full_basis(device3),
                         wave.frequencies((i + 0.5) * trotter.step),
                         0.5 * trotter.step)
        halves.append((u, u.conj().T))
    worst = 0.0
    for rho, out in zip(stack, stacked):
        for u, ud in halves:
            rho = u @ rho @ ud
            rho = rho + trotter.step * (
                -0.5 * (anticomm @ rho + rho @ anticomm)
                + sum(op @ rho @ opd for op, opd in ops))
            rho = u @ rho @ ud
        worst = max(worst, float(np.abs(rho - out).max()))
    checks.append(("stacked density evolution vs dense dissipator",
                   worst < 1e-12))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fluxgate",
        description="Design, verify, and stress-test flux-detuning pulses "
                    "for controlled-phase gates on transmon chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_parser(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--device", required=True)
        p.add_argument("--trotter-step", type=float, default=0.1)
        p.add_argument("--target", choices=("ccphase", "identity"),
                       default="ccphase")
        p.set_defaults(func=func)
        return p

    def add_pulse_args(p):
        p.add_argument("--pulses", required=True,
                       help="pulse schedule (.csv detunings or .json, which "
                            "carries its own references and segment "
                            "duration)")
        p.add_argument("--references", type=float, nargs="+", default=None,
                       help="per-qubit reference frequencies in GHz, for CSV "
                            "pulses only (default: device idle frequencies)")
        p.add_argument("--segment-duration", type=float, default=None,
                       help="segment duration in ns, for CSV pulses only "
                            "(default: 1)")

    p = run_parser("simulate", cmd_simulate,
                   "evolve a pulse and score its fidelity")
    add_pulse_args(p)
    p.add_argument("--out", required=True, help="fidelity report JSON")
    p.add_argument("--unitary-out", default=None,
                   help="also write the compensated unitary")

    p = run_parser("optimize", cmd_optimize,
                   "learn a pulse with evolution + local search")
    p.add_argument("--constraints", required=True)
    p.add_argument("--de-config", default=None,
                   help="JSON with DEConfig fields")
    p.add_argument("--local-search", default=None,
                   help="JSON with LocalSearchConfig fields (omit to skip)")
    p.add_argument("--segments", type=int, default=50)
    p.add_argument("--segment-duration", type=float, default=1.0)
    p.add_argument("--references", type=float, nargs="+", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the DE config seed")
    p.add_argument("--resume", default=None,
                   help="continue from a --state-out checkpoint of the "
                        "same configuration (manifest hash), in "
                        "whichever stage it reached; a relative path is "
                        "read under FLUXGATE_OUT_DIR, as --state-out is "
                        "written")
    p.add_argument("--state-out", default=None,
                   help=f"checkpoint file, rewritten every {_CHECKPOINT_EVERY} "
                        "DE generations and after each local-search iteration")
    p.add_argument("--out", required=True, help="pulses CSV (a JSON twin is "
                                                "written alongside)")
    p.add_argument("--log", default=None, help="per-generation history CSV")

    p = run_parser("qpt", cmd_qpt, "simulated process tomography of a pulse")
    add_pulse_args(p)
    p.add_argument("--t1-us", type=float, default=None)
    p.add_argument("--t2-us", type=float, default=None,
                   help="T2 in us (default: 2*T1, no pure dephasing)")
    p.add_argument("--levels", type=int, choices=(3, 4), default=None)
    p.add_argument("--out", required=True, help="chi matrix JSON")
    p.add_argument("--report", required=True, help="metrics report JSON")

    p = run_parser("robustness", cmd_robustness, "noise sweep of a pulse")
    add_pulse_args(p)
    p.add_argument("--amplitudes", default="0:10:0.1",
                   help="MHz grid, start:stop:step or comma list")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sweep CSV")

    p = sub.add_parser("verify", help="run the built-in numerical self-checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError, EvolutionError,
            InfeasibilityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
