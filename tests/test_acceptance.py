"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so the scoreboard survives failures.

Criterion 1 exercises the published park-point benchmark; see
``demos/02_idle_benchmark.py`` for the error-budget breakdown behind the
number it produces.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import test_device
from fluxgate.device import basis_for, build_hamiltonian
from fluxgate.fidelity import (
    CompensationPhases,
    controlled_phase_ideal,
    fidelity_report,
    gate_fidelity,
    project_to_computational,
)
from fluxgate.opensystem import (
    LindbladSpec,
    estimate_chi,
    prepare_qpt_inputs,
    run_qpt,
)
from fluxgate.optimizer import (
    ConstraintSet,
    DEConfig,
    DetuningRange,
    LocalSearchConfig,
    ccphase_fitness,
    local_search,
    run_sussade,
    seed_population,
    validate_constraints,
)
from fluxgate.propagator import TrotterConfig, evolve, expm_skew
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    load_ccphase_pulse,
    load_toy_pulse,
    three_qubit_constraints,
    three_transmon_chain,
    toy_constraints,
    toy_two_transmon_chain,
)
from fluxgate.pulses import PiecewiseConstantWaveform, PulseSchedule
from fluxgate.robustness import (
    NoiseSweepConfig,
    SmoothedWaveform,
    distortion_report,
    noise_sweep,
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def device():
    return three_transmon_chain()


@pytest.fixture(scope="module")
def idle_schedule():
    return PulseSchedule(np.zeros((3, 50)), 1.0, (5.0, 6.0, 7.0))


@pytest.fixture(scope="module")
def learned_pulse():
    return load_ccphase_pulse()


def test_01_identity_benchmark(device, idle_schedule):
    t0 = time.perf_counter()
    u = evolve(device, PiecewiseConstantWaveform(idle_schedule))
    basis = basis_for(device)
    rep = fidelity_report(project_to_computational(u, basis), np.eye(8))
    elapsed = time.perf_counter() - t0
    ok = rep.fidelity >= 0.998 and elapsed < 5.0
    report(1, ok, f"idle fidelity {rep.fidelity:.6f} (>= 0.998), "
                  f"runtime {elapsed:.2f} s (< 5 s)")
    assert elapsed < 5.0
    assert rep.fidelity >= 0.998, (
        f"park-point fidelity is {rep.fidelity:.6f}: the chain model's own "
        "always-on couplings leave ~0.009 leakage plus 0.085/0.144 rad "
        "conditional phases over 50 ns, capping the compensated identity at "
        "0.9964; see the park-point note in README.md and "
        "demos/02_idle_benchmark.py"
    )


def test_02_numerical_oracles(device):
    t0 = time.perf_counter()
    basis = basis_for(device)
    worst_h = 0.0
    for freqs in ((5.0, 6.0, 7.0), (5.61, 6.0, 6.39), (5.43, 6.21, 6.65)):
        h = build_hamiltonian(device, basis, freqs)
        h_full, states = test_device.brute_force_hamiltonian(device, freqs)
        keep = [i for i, s in enumerate(states) if sum(s) <= 3]
        worst_h = max(worst_h, np.abs(h - h_full[np.ix_(keep, keep)]).max())

    rng = np.random.default_rng(123)
    worst_u = 0.0
    for _ in range(5):
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        h = 5.0 * (a + a.conj().T)
        for dt in (0.1, 1.0):
            mine = expm_skew(h, dt)
            oracle = scipy.linalg.expm(-1j * h * dt)
            worst_u = max(worst_u, np.abs(mine - oracle).max())
    h = build_hamiltonian(device, basis, (5.0, 6.0, 7.0))
    worst_u = max(
        worst_u,
        np.abs(expm_skew(h, 0.1) - scipy.linalg.expm(-1j * h * 0.1)).max(),
    )
    elapsed = time.perf_counter() - t0
    ok = worst_h < 1e-12 and worst_u < 1e-9 and elapsed < 10.0
    report(2, ok, f"Hamiltonian vs brute force {worst_h:.2e} (< 1e-12), "
                  f"exponential vs scaling-and-squaring {worst_u:.2e} "
                  f"(< 1e-9), runtime {elapsed:.1f} s (< 10 s)")
    assert worst_h < 1e-12
    assert worst_u < 1e-9
    assert elapsed < 10.0


def test_03_structural_invariants(device, idle_schedule, learned_pulse):
    basis = basis_for(device)
    exc = np.array([sum(s) for s in basis.states])
    cross = exc[:, None] != exc[None, :]

    u = evolve(device, PiecewiseConstantWaveform(idle_schedule))
    unitarity = np.abs(u @ u.conj().T - np.eye(20)).max()

    h = build_hamiltonian(device, basis, (5.61, 6.0, 6.39))
    h_sparsity = np.abs(h[cross]).max()

    # Halving in the gate's regime: 1 ns piecewise-constant segments.
    wf = PiecewiseConstantWaveform(learned_pulse)
    u1 = evolve(device, wf, TrotterConfig(0.1))
    u2 = evolve(device, wf, TrotterConfig(0.05))
    halving = np.abs(u1 - u2).max()
    # Informational: the Erf-smoothed variant carries first-order
    # time-dependence error beyond the piecewise bound.
    sm = SmoothedWaveform(learned_pulse)
    halving_smoothed = np.abs(
        evolve(device, sm, TrotterConfig(0.1))
        - evolve(device, sm, TrotterConfig(0.05))
    ).max()

    cs = three_qubit_constraints("references")
    config = DEConfig(population_size=100, seed=31)
    population = seed_population(config, cs, THREE_QUBIT_REFERENCES, 50)
    worst_random_unitarity = 0.0
    worst_block = 0.0
    for member in population:
        assert validate_constraints(member, cs, THREE_QUBIT_REFERENCES) == []
        sched = PulseSchedule(member.reshape(3, 50), 1.0,
                              THREE_QUBIT_REFERENCES)
        u = evolve(device, PiecewiseConstantWaveform(sched))
        worst_random_unitarity = max(
            worst_random_unitarity,
            np.abs(u @ u.conj().T - np.eye(20)).max(),
        )
        worst_block = max(worst_block, np.abs(u[cross]).max())

    ok = (unitarity < 1e-8 and h_sparsity == 0.0 and halving < 1e-4
          and worst_random_unitarity < 1e-8 and worst_block < 1e-10)
    report(3, ok, f"unitarity {unitarity:.1e} (< 1e-8), exact block "
                  f"sparsity {h_sparsity}, Trotter halving {halving:.1e} "
                  f"(< 1e-4; smoothed variant {halving_smoothed:.1e}), "
                  f"100 random schedules: worst unitarity "
                  f"{worst_random_unitarity:.1e}, worst block leak "
                  f"{worst_block:.1e}")
    assert unitarity < 1e-8
    assert h_sparsity == 0.0
    assert halving < 1e-4
    assert worst_random_unitarity < 1e-8
    assert worst_block < 1e-10


def test_04_fidelity_metric():
    ccz = controlled_phase_ideal(3)
    f_ideal = gate_fidelity(ccz, ccz)
    f_identity = gate_fidelity(np.eye(8), ccz, CompensationPhases.zero(3))

    rng = np.random.default_rng(77)
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    base = gate_fidelity(u, ccz)
    worst = 0.0
    b = np.arange(8)
    bits = np.stack([(b >> 2) & 1, (b >> 1) & 1, b & 1], axis=1)
    for _ in range(10):
        alpha = rng.uniform(-np.pi, np.pi)
        worst = max(worst, abs(gate_fidelity(np.exp(1j * alpha) * u, ccz)
                               - base))
        d = np.diag(np.exp(1j * (bits @ rng.uniform(-3, 3, size=3))))
        worst = max(worst, abs(gate_fidelity(u @ d, ccz) - base))

    ok = (abs(f_ideal - 1) < 1e-12
          and abs(f_identity - 44.0 / 72.0) < 1e-12
          and worst < 1e-9)
    report(4, ok, f"F(ideal) = {f_ideal:.12f}, F(identity, zero comp) = "
                  f"{f_identity:.12f} (44/72), phase invariances drift "
                  f"{worst:.1e} (< 1e-9)")
    assert abs(f_ideal - 1) < 1e-12
    assert abs(f_identity - 44.0 / 72.0) < 1e-12
    assert worst < 1e-9


def test_05_qpt_cross_validation(device, learned_pulse):
    result = run_qpt(device, learned_pulse)
    gap = abs(result.report.average_gate_fidelity
              - result.closed_system_fidelity)

    inputs = list(prepare_qpt_inputs(3, 2))
    chi_identity = estimate_chi(inputs, inputs)
    identity_err = abs(chi_identity[0, 0].real - 1.0)

    relation = result.report.average_gate_fidelity == \
        (8 * result.report.process_fidelity + 1) / 9

    # Decoherence-free report row for a >= 0.999 pulse: all three metrics
    # sit within 0.001 of unity.
    row = (result.report.process_fidelity,
           result.report.average_gate_fidelity,
           result.report.average_purity)
    row_ok = all(v >= 0.998 for v in row)

    ok = gap < 2e-3 and identity_err < 1e-8 and relation and row_ok
    report(5, ok, f"|F_g - F_eq11| = {gap:.2e} (< 2e-3), identity-channel "
                  f"chi_II error {identity_err:.1e} (< 1e-8), "
                  f"F_g = (8 F_p + 1)/9 exact: {relation}, closed-system "
                  f"row F_p/F_g/purity = {row[0]:.4f}/{row[1]:.4f}/"
                  f"{row[2]:.4f}")
    assert gap < 2e-3
    assert identity_err < 1e-8
    assert relation
    assert row_ok


def test_06_decoherence_magnitude(device, learned_pulse):
    t0 = time.perf_counter()
    result = run_qpt(device, learned_pulse, lindblad=LindbladSpec(20.0, 20.0))
    elapsed = time.perf_counter() - t0
    closed = result.closed_system_fidelity
    fg = result.report.average_gate_fidelity
    purity = result.report.average_purity
    eig_floor = float(np.linalg.eigvalsh(result.chi).min())
    trace_err = abs(np.trace(result.chi).real - 1.0)
    ok = (closed >= 0.999 and 0.990 <= fg <= 0.998
          and 0.985 <= purity <= 0.996 and elapsed < 300
          and eig_floor > -1e-8 and trace_err < 1e-6)
    report(6, ok, f"closed-system F {closed:.5f} (>= 0.999), open-system "
                  f"F_g {fg:.5f} in [0.990, 0.998], purity {purity:.5f} in "
                  f"[0.985, 0.996], chi PSD floor {eig_floor:.1e}, trace "
                  f"error {trace_err:.1e}, runtime {elapsed:.0f} s (< 300 s)")
    assert closed >= 0.999
    assert 0.990 <= fg <= 0.998
    assert 0.985 <= purity <= 0.996
    assert eig_floor > -1e-8
    assert trace_err < 1e-6
    assert elapsed < 300


def test_07_truncation_sensitivity(device, learned_pulse):
    f4 = run_qpt(device, learned_pulse).report.process_fidelity
    f3 = run_qpt(device.with_levels(3), learned_pulse).report.process_fidelity
    gap = abs(f4 - f3)
    ok = gap < 5e-3
    report(7, ok, f"F_p(levels=4) = {f4:.5f}, F_p(levels=3) = {f3:.5f}, "
                  f"|difference| = {gap:.2e} (< 5e-3)")
    assert gap < 5e-3


def test_08_optimization():
    t0 = time.perf_counter()
    dev = toy_two_transmon_chain()
    cs = toy_constraints()
    evaluated = []
    inner = ccphase_fitness(dev, TOY_REFERENCES, 1.0)

    def fitness(c):
        evaluated.append(np.array(c))
        return inner(c)

    config = DEConfig(population_size=32, max_generations=200,
                      target_fidelity=0.98, seed=2024)
    population = seed_population(config, cs, TOY_REFERENCES, 10)
    result = run_sussade(fitness, config, cs, TOY_REFERENCES,
                         population=population)
    elapsed = time.perf_counter() - t0

    best_hist = [h.best_fidelity for h in result.history]
    monotone = all(b >= a for a, b in zip(best_hist, best_hist[1:]))
    all_feasible = all(
        validate_constraints(c, cs, TOY_REFERENCES) == [] for c in evaluated
    )

    # Regression pin for this seed in this environment.
    pinned = 0.9846639000767405
    pin_ok = abs(result.best_fidelity - pinned) < 1e-9

    quad_cs = ConstraintSet(
        ranges=(DetuningRange(-0.5, 0.5),), max_step=None,
        boundary_step=None, idle_frequencies=None, min_separation=None,
    )
    optimum = 0.123456789

    def quad(c):
        return 1.0 - float(np.sum((np.asarray(c) - optimum) ** 2))

    ls = local_search(
        np.array([0.3]), quad,
        LocalSearchConfig(eps_max=0.1, eps_min=1e-6, max_iterations=50,
                          target_fidelity=2.0),
        quad_cs, (5.0,),
    )
    ls_gap = abs(ls.chromosome[0] - optimum)
    ls_monotone = ls.fidelity >= quad(np.array([0.3]))

    ok = (result.best_fidelity >= 0.90 and elapsed < 600 and monotone
          and all_feasible and ls_gap <= 1e-6 and ls_monotone)
    report(8, ok, f"toy best F {result.best_fidelity:.6f} (>= 0.90) in "
                  f"{result.history[-1].generation} generations, "
                  f"{elapsed:.0f} s (< 600 s); histories monotone: "
                  f"{monotone}; all {len(evaluated)} evaluated chromosomes "
                  f"feasible: {all_feasible}; local-search gap to optimum "
                  f"{ls_gap:.1e} GHz (<= 1e-6)")
    assert result.best_fidelity >= 0.90
    assert elapsed < 600
    assert monotone
    assert all_feasible
    assert ls_gap <= 1e-6
    assert ls_monotone
    assert pin_ok, (
        f"seeded toy run drifted from its pin: {result.best_fidelity!r} "
        f"(expected {pinned!r}); re-pin if the numerical stack changed"
    )


def test_09_robustness():
    dev = toy_two_transmon_chain()
    pulse = load_toy_pulse()
    from fluxgate.fidelity import controlled_phase_ideal

    target = controlled_phase_ideal(2)

    config = NoiseSweepConfig(
        amplitudes_mhz=tuple(float(a) for a in range(11)), samples=60, seed=5,
    )
    rep1 = noise_sweep(pulse, dev, config, target=target)
    rep2 = noise_sweep(pulse, dev, config, target=target)
    zero_exact = (rep1.mean_fidelities[0] == rep1.baseline_fidelity
                  and rep1.std_errors[0] == 0.0)
    reproducible = (rep1.mean_fidelities == rep2.mean_fidelities
                    and rep1.std_errors == rep2.std_errors)

    const = PulseSchedule(np.full((2, 10), 0.05), 1.0, TOY_REFERENCES)
    dist = distortion_report(const, dev, target=target)
    const_delta_zero = dist.delta == 0.0

    x = np.asarray(rep1.amplitudes_mhz)
    y = np.asarray(rep1.mean_fidelities)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - y.mean() - slope * xc
    se = float(np.sqrt(resid @ resid / (len(x) - 2) / (xc @ xc)))
    significant = slope < 0 and abs(slope) > 3 * se

    ok = zero_exact and reproducible and const_delta_zero and significant
    report(9, ok, f"amplitude-0 mean bit-exact: {zero_exact}; seeded sweep "
                  f"reproducible: {reproducible}; constant-schedule "
                  f"smoothing delta == 0: {const_delta_zero}; slope "
                  f"{slope:.2e}/MHz vs 3*SE {3 * se:.2e}: "
                  f"significant: {significant}")
    assert zero_exact
    assert reproducible
    assert const_delta_zero
    assert significant
