"""Shipped profile sanity: devices construct, constraints match the stated
defaults, the CLI configs match the library profiles, and the packaged
pulses reproduce their recorded fidelities."""

import json
from pathlib import Path

import pytest

from fluxgate import cli
from fluxgate.device import device_from_json
from fluxgate.optimizer import (
    DEConfig,
    LocalSearchConfig,
    ccphase_fitness,
    constraints_from_json,
    validate_constraints,
)
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


def test_three_transmon_chain_parameters():
    dev = three_transmon_chain()
    assert dev.bare_frequencies() == (5.0, 6.0, 7.0)
    assert dev.idle_frequencies() == (5.0, 6.0, 7.0)
    assert [c.resonator_frequency for c in dev.couplings] == [8.05, 8.2]
    assert all(c.g_left == c.g_right == 0.2 for c in dev.couplings)
    assert all(t.anharmonicity == -0.3 for t in dev.transmons)
    assert dev.levels_per_transmon == 4
    assert dev.max_total_excitation == 3


def test_three_qubit_constraint_defaults():
    cs = three_qubit_constraints()
    assert cs.max_step == 0.22
    assert cs.boundary_step == 0.5
    assert cs.min_separation == 0.21
    assert cs.idle_frequencies == (5.0, 6.0, 7.0)
    lows = [(r.lo, r.lo_inclusive) for r in cs.ranges]
    highs = [(r.hi, r.hi_inclusive) for r in cs.ranges]
    assert lows == [(0.0, True), (-0.5, False), (-0.5, False)]
    assert highs == [(0.5, False), (0.5, False), (0.0, True)]


CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.mark.parametrize("name, profile", [
    ("three_transmon_chain.json", three_transmon_chain),
    ("toy_chain.json", toy_two_transmon_chain),
])
def test_device_config_matches_profile(name, profile):
    doc = json.loads((CONFIGS / name).read_text())
    assert device_from_json(doc) == profile()


@pytest.mark.parametrize("name, profile", [
    ("three_qubit_constraints.json", lambda: three_qubit_constraints("idle")),
    ("three_qubit_constraints_feasible.json",
     lambda: three_qubit_constraints("references")),
    ("toy_constraints.json", toy_constraints),
])
def test_constraints_config_matches_profile(name, profile):
    doc = json.loads((CONFIGS / name).read_text())
    assert constraints_from_json(doc) == profile()


@pytest.mark.parametrize("name, config", [
    ("toy_de.json", DEConfig(population_size=32, max_generations=200,
                             target_fidelity=0.995, seed=2024)),
    ("three_qubit_de.json", DEConfig(population_size=200,
                                     max_generations=100, seed=2019)),
    ("toy_local_search.json", LocalSearchConfig(
        eps_max=0.1, eps_min=1e-06, max_iterations=10,
        target_fidelity=0.99995)),
    ("three_qubit_local_search.json", LocalSearchConfig(
        eps_max=0.1, eps_min=1e-06, max_iterations=1000)),
])
def test_search_config_reads(name, config):
    # The optimize command reads these files; no other test does.
    cls = type(config)
    assert cls(**cli._read_config(cls, CONFIGS / name)) == config


def test_search_references():
    assert THREE_QUBIT_REFERENCES == (5.61, 6.0, 6.39)


def test_toy_chain_sits_on_crossing():
    dev = toy_two_transmon_chain()
    left, right = dev.transmons
    # |11> and |02> are degenerate when w_L = w_M + delta_M.
    assert left.bare_frequency == pytest.approx(
        right.bare_frequency + right.anharmonicity
    )


def test_toy_pulse_reproduces_recorded_fidelity():
    pulse = load_toy_pulse()
    assert pulse.detunings.shape == (2, 10)
    assert pulse.search_references == TOY_REFERENCES
    assert validate_constraints(
        pulse.detunings, toy_constraints(), TOY_REFERENCES
    ) == []
    fitness = ccphase_fitness(toy_two_transmon_chain(), TOY_REFERENCES, 1.0)
    f = fitness(pulse.detunings.reshape(-1))
    assert f > 0.999
    assert f == pytest.approx(0.9996086749508606, abs=1e-9)


def test_ccphase_pulse_reproduces_recorded_fidelity():
    pulse = load_ccphase_pulse()
    assert pulse.detunings.shape == (3, 50)
    assert pulse.search_references == THREE_QUBIT_REFERENCES
    assert validate_constraints(
        pulse.detunings, three_qubit_constraints("references"),
        THREE_QUBIT_REFERENCES,
    ) == []
    fitness = ccphase_fitness(three_transmon_chain(), THREE_QUBIT_REFERENCES,
                              1.0)
    f = fitness(pulse.detunings.reshape(-1))
    assert f == pytest.approx(0.9999000393549348, abs=1e-9)
