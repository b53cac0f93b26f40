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

import numpy as np

from . import __version__
from .device import basis_for, load_device
from .errors import EvolutionError
from .fidelity import controlled_phase_ideal, project_to_computational, \
    score_waveform
from .opensystem import LindbladSpec, run_qpt
from .optimizer import (
    DEConfig,
    LocalSearchConfig,
    SussadeState,
    ccphase_fitness,
    chromosome_to_schedule,
    load_constraints,
    local_search,
    run_sussade,
    seed_population,
)
from .propagator import TrotterConfig, evolve
from .pulses import (
    PiecewiseConstantWaveform,
    load_schedule_csv,
    load_schedule_json,
    save_schedule_json,
    schedule_to_csv,
)
from .robustness import NoiseSweepConfig, noise_sweep

SCHEMA_VERSION = 2


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


def _load_schedule(args, device):
    path = args.pulses
    if path.endswith(".json"):
        return load_schedule_json(path)
    references = (
        tuple(args.references)
        if args.references
        else device.idle_frequencies()
    )
    return load_schedule_csv(path, args.segment_duration, references)


def _target_matrix(name, n_qubits):
    if name == "ccphase":
        return controlled_phase_ideal(n_qubits)
    if name == "identity":
        return np.eye(2 ** n_qubits)
    raise ValueError(f"unknown target {name!r}")


def _complex_matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def cmd_simulate(args):
    device = load_device(args.device)
    schedule = _load_schedule(args, device)
    trotter = TrotterConfig(args.trotter_step)
    target = _target_matrix(args.target, device.n_transmons)
    config = {
        "device": args.device,
        "pulses": args.pulses,
        "segment_duration_ns": schedule.segment_duration,
        "search_references_ghz": list(schedule.search_references),
        "trotter_step_ns": trotter.step,
        "target": args.target,
    }
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


def cmd_optimize(args):
    device = load_device(args.device)
    constraints = load_constraints(args.constraints)
    de_doc = {}
    if args.de_config:
        with open(args.de_config) as fh:
            de_doc = json.load(fh)
    if args.seed is not None:
        de_doc["seed"] = args.seed
    de_config = DEConfig(**de_doc)
    ls_doc = None
    if args.local_search:
        with open(args.local_search) as fh:
            ls_doc = json.load(fh)
    references = (
        tuple(args.references)
        if args.references
        else device.idle_frequencies()
    )
    target = _target_matrix(args.target, device.n_transmons)
    config = {
        "device": args.device,
        "constraints": args.constraints,
        "de_config": de_doc,
        "local_search": ls_doc,
        "segments": args.segments,
        "segment_duration_ns": args.segment_duration,
        "search_references_ghz": list(references),
        "trotter_step_ns": args.trotter_step,
        "target": args.target,
        "seed": de_config.seed,
    }

    fitness = ccphase_fitness(
        device, references, args.segment_duration,
        TrotterConfig(args.trotter_step), target=target,
    )
    t0 = time.perf_counter()
    state = None
    population = None
    if args.resume:
        with open(args.resume) as fh:
            state = SussadeState.from_json(json.load(fh))
    else:
        population = seed_population(
            de_config, constraints, references, args.segments
        )
    result = run_sussade(
        fitness, de_config, constraints, references,
        population=population, state=state,
    )
    de_elapsed = time.perf_counter() - t0
    best, best_f = result.best_chromosome, result.best_fidelity
    ls_elapsed = 0.0
    if ls_doc is not None:
        ls_config = LocalSearchConfig(**ls_doc)
        t1 = time.perf_counter()
        refined = local_search(best, fitness, ls_config, constraints, references)
        ls_elapsed = time.perf_counter() - t1
        best, best_f = refined.chromosome, refined.fidelity

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
    save_schedule_json(
        schedule, os.path.splitext(out)[0] + ".json",
        extra={"manifest_hash": manifest["manifest_hash"],
               "fidelity": best_f, "seed": de_config.seed},
    )
    if args.log:
        with open(_resolve(args.log), "w") as fh:
            fh.write(_history_csv(result.history, manifest["manifest_hash"]))
    if args.state_out:
        doc = result.state.to_json()
        doc["manifest_hash"] = manifest["manifest_hash"]
        _write_json(_resolve(args.state_out), doc)
    print(f"best fidelity: {best_f:.6f} "
          f"({result.history[-1].generation} generations)")
    return 0


def cmd_qpt(args):
    device = load_device(args.device)
    schedule = _load_schedule(args, device)
    lindblad = None
    if args.t1_us is not None or args.t2_us is not None:
        t1 = float("inf") if args.t1_us is None else args.t1_us
        t2 = float("inf") if args.t2_us is None else args.t2_us
        lindblad = LindbladSpec(t1, t2)
    target = _target_matrix(args.target, device.n_transmons)
    config = {
        "device": args.device,
        "pulses": args.pulses,
        "segment_duration_ns": schedule.segment_duration,
        "search_references_ghz": list(schedule.search_references),
        "trotter_step_ns": args.trotter_step,
        "t1_us": args.t1_us,
        "t2_us": args.t2_us,
        "levels": args.levels,
        "target": args.target,
    }
    t0 = time.perf_counter()
    result = run_qpt(
        device, schedule, TrotterConfig(args.trotter_step),
        lindblad=lindblad, target=target, levels=args.levels,
    )
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
        "levels": args.levels or device.levels_per_transmon,
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
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        if not step > 0:
            raise ValueError(f"amplitude step must be positive, got {step}")
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1)]
        return tuple(round(v, 12) for v in values)
    return tuple(float(v) for v in spec.split(","))


def cmd_robustness(args):
    device = load_device(args.device)
    schedule = _load_schedule(args, device)
    amplitudes = _parse_amplitudes(args.amplitudes)
    config = {
        "device": args.device,
        "pulses": args.pulses,
        "segment_duration_ns": schedule.segment_duration,
        "search_references_ghz": list(schedule.search_references),
        "trotter_step_ns": args.trotter_step,
        "amplitudes_mhz": list(amplitudes),
        "samples": args.samples,
        "target": args.target,
        "seed": args.seed,
    }
    sweep_config = NoiseSweepConfig(amplitudes, args.samples, args.seed)
    target = _target_matrix(args.target, device.n_transmons)
    t0 = time.perf_counter()
    report = noise_sweep(
        schedule, device, sweep_config, TrotterConfig(args.trotter_step),
        target=target,
    )
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
    from .device import (
        ResonatorCoupling,
        TransmonSpec,
        _template,
        build_hamiltonian,
    )
    from .fidelity import (
        CompensationPhases,
        compensation_matrix,
        fit_phases,
        gate_fidelity,
    )
    from .device import full_basis
    from .opensystem import (
        _StackEvolution,
        estimate_chi,
        lowering_operator,
        number_operator,
        prepare_qpt_inputs,
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
        _expm_stack,
        _segment_unitaries,
        expm_skew,
        step_unitary,
    )
    from .pulses import PulseSchedule

    checks = []

    t = TransmonSpec(0, 5.0, -0.3)
    r = ResonatorCoupling(0, 1, 8.05, 0.2, 0.2)
    from .device import dressed_frequency

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

    # One-segment moves of the shipped CCZ pulse: evolved right after the
    # pulse, only the product-tree nodes above the moved segment are
    # multiplied again; evolved after the idle pulse (one run), every node
    # is.  Both must give the same bits.
    ccz = load_ccphase_pulse()
    idle = PiecewiseConstantWaveform(sched.with_detunings(np.zeros((3, 1))))
    move_rng = np.random.default_rng(9)
    same = True
    for _ in range(20):
        det = ccz.detunings.copy()
        det[move_rng.integers(3), move_rng.integers(ccz.n_segments)] += 1e-3
        moved = PiecewiseConstantWaveform(ccz.with_detunings(det))
        evolve(device, PiecewiseConstantWaveform(ccz))
        warm = evolve(device, moved)
        evolve(device, idle)
        same &= np.array_equal(warm, evolve(device, moved))
    checks.append(("incremental product tree vs cold product", same))

    # The CCZ pulse's 50 segment exponentials, each alone and all as one
    # batch, checked once for exact symmetry, against every block
    # exponentiated with its own toleranced check: the same bytes.
    template = _template(device, basis)
    rows = ccz.absolute_frequencies().T
    dts = np.full(len(rows), ccz.segment_duration)
    h = template.build(rows)
    oracle = np.zeros(h.shape, dtype=complex)
    for index in template.block_index:
        oracle[index] = _expm_stack(h[index], dts)
    alone = np.concatenate([
        _segment_unitaries(template, rows[s:s + 1], dts[s:s + 1])
        for s in range(len(rows))
    ])
    batch = _segment_unitaries(template, rows, dts)
    checks.append((
        "exponential without per-block checks vs per-block oracle",
        alone.tobytes() == oracle.tobytes() == batch.tobytes(),
    ))

    # Nudging any fitted qubit phase by +/-1e-6 rad must not raise the trace.
    u8 = project_to_computational(u, basis)
    target = controlled_phase_ideal(3)
    phases = fit_phases(u8, target)

    def overlap(qubit_phases):
        m = compensation_matrix(CompensationPhases(phases.theta0, qubit_phases))
        return abs(np.trace(target.conj().T @ u8 @ m))

    best = overlap(phases.qubit_phases)
    nudged = [
        overlap(tuple(t + step if j == k else t
                      for j, t in enumerate(phases.qubit_phases)))
        for k in range(3) for step in (1e-6, -1e-6)
    ]
    checks.append(("phase fit is a local maximum", max(nudged) <= best))

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

    def add_pulse_args(p):
        p.add_argument("--pulses", required=True,
                       help="pulse schedule (.csv detunings or .json)")
        p.add_argument("--references", type=float, nargs="+", default=None,
                       help="per-qubit reference frequencies in GHz for CSV "
                            "pulses (default: device idle frequencies)")
        p.add_argument("--segment-duration", type=float, default=1.0,
                       help="segment duration in ns for CSV pulses")

    p = sub.add_parser("simulate", help="evolve a pulse and score its fidelity")
    p.add_argument("--device", required=True)
    add_pulse_args(p)
    p.add_argument("--trotter-step", type=float, default=0.1)
    p.add_argument("--target", choices=("ccphase", "identity"),
                   default="ccphase")
    p.add_argument("--out", required=True, help="fidelity report JSON")
    p.add_argument("--unitary-out", default=None,
                   help="also write the compensated unitary")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="learn a pulse with evolution + "
                                        "local search")
    p.add_argument("--device", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--de-config", default=None,
                   help="JSON with DEConfig fields")
    p.add_argument("--local-search", default=None,
                   help="JSON with LocalSearchConfig fields (omit to skip)")
    p.add_argument("--segments", type=int, default=50)
    p.add_argument("--segment-duration", type=float, default=1.0)
    p.add_argument("--references", type=float, nargs="+", default=None)
    p.add_argument("--trotter-step", type=float, default=0.1)
    p.add_argument("--target", choices=("ccphase", "identity"),
                   default="ccphase")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the DE config seed")
    p.add_argument("--resume", default=None,
                   help="resume from a saved population snapshot")
    p.add_argument("--state-out", default=None,
                   help="write the final population snapshot")
    p.add_argument("--out", required=True, help="pulses CSV (a JSON twin is "
                                                "written alongside)")
    p.add_argument("--log", default=None, help="per-generation history CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("qpt", help="simulated process tomography of a pulse")
    p.add_argument("--device", required=True)
    add_pulse_args(p)
    p.add_argument("--t1-us", type=float, default=None)
    p.add_argument("--t2-us", type=float, default=None)
    p.add_argument("--levels", type=int, choices=(3, 4), default=None)
    p.add_argument("--trotter-step", type=float, default=0.1)
    p.add_argument("--target", choices=("ccphase", "identity"),
                   default="ccphase")
    p.add_argument("--out", required=True, help="chi matrix JSON")
    p.add_argument("--report", required=True, help="metrics report JSON")
    p.set_defaults(func=cmd_qpt)

    p = sub.add_parser("robustness", help="noise sweep of a pulse")
    p.add_argument("--device", required=True)
    add_pulse_args(p)
    p.add_argument("--amplitudes", default="0:10:0.1",
                   help="MHz grid, start:stop:step or comma list")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--trotter-step", type=float, default=0.1)
    p.add_argument("--target", choices=("ccphase", "identity"),
                   default="ccphase")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sweep CSV")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("verify", help="run the built-in numerical self-checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError, EvolutionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
