"""CLI tests: each subcommand end to end on small workloads, the manifest
hash contract, and byte-identical reruns."""

import argparse
import json
import math
import os
import runpy
from pathlib import Path

import numpy as np
import pytest

from fluxgate import cli
from fluxgate.cli import build_parser, main
from fluxgate.device import device_from_json, device_to_json
from fluxgate.optimizer import (
    DEConfig,
    LocalSearchConfig,
    constraints_from_json,
    constraints_to_json,
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
from fluxgate.pulses import schedule_to_csv, schedule_to_json


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLUXGATE_OUT_DIR", str(tmp_path))
    device = tmp_path / "device.json"
    device.write_text(json.dumps(device_to_json(toy_two_transmon_chain())))
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps(constraints_to_json(toy_constraints())))
    pulse = load_toy_pulse()
    write_pulse(tmp_path / "pulse.json", pulse)
    (tmp_path / "pulse.csv").write_text(schedule_to_csv(pulse))
    return tmp_path


def write_pulse(path, schedule):
    path.write_text(json.dumps(schedule_to_json(schedule), indent=2) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSimulate:
    def test_json_pulse(self, workdir):
        rc = main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--out", "report.json",
        ])
        assert rc == 0
        doc = read_json(workdir / "report.json")
        assert doc["fidelity"] == pytest.approx(0.99961, abs=1e-4)
        assert set(doc) >= {"fidelity", "theta0", "theta1", "theta2",
                            "manifest_hash", "schema_version"}
        manifest = read_json(workdir / "report.manifest.json")
        assert manifest["manifest_hash"] == doc["manifest_hash"]

    def test_csv_pulse_with_references(self, workdir):
        rc = main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.csv"),
            "--references", *[str(r) for r in TOY_REFERENCES],
            "--out", "report.json",
        ])
        assert rc == 0
        doc = read_json(workdir / "report.json")
        assert doc["fidelity"] == pytest.approx(0.99961, abs=1e-4)

    def test_unitary_out(self, workdir):
        main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--out", "report.json", "--unitary-out", "unitary.json",
        ])
        doc = read_json(workdir / "unitary.json")
        u = np.array([[complex(re, im) for re, im in row]
                      for row in doc["compensated_unitary"]])
        assert u.shape == (4, 4)
        # Sub-unitary by leakage, but only slightly for the learned pulse.
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 5e-3

    def test_zero_duration_identity(self, workdir):
        (workdir / "empty.csv").write_text("\n")
        rc = main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "empty.csv"),
            "--target", "identity", "--out", "report.json",
        ])
        assert rc == 2  # no rows is a parse error, reported cleanly

    def test_bad_csv_reports_error(self, workdir, capsys):
        (workdir / "bad.csv").write_text("0.1,0.2\n0.1\n")
        rc = main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "bad.csv"), "--out", "report.json",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, pulse", [
    ("simulate", "pulse.csv"), ("qpt", "pulse.csv"), ("robustness", "pulse.csv"),
    ("optimize", None),
])
def test_non_finite_references_rejected(workdir, capsys, command, pulse):
    # --references nan passed argparse's float(): a clean error and exit
    # code 2, and no artifact.
    rc = main([
        command, "--device", str(workdir / "device.json"),
        *(["--pulses", str(workdir / pulse)] if pulse else
          ["--constraints", str(workdir / "constraints.json"),
           "--segments", "4"]),
        "--references", "nan", "6.0", "--out", "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: search_references must be finite, got (nan, 6.0)\n"
    assert not list(workdir.glob("out*")) and not list(workdir.glob("report*"))


def test_non_finite_json_input_rejected(workdir, capsys):
    # json.load reads NaN: a NaN search reference in the pulse JSON used to
    # end in "Eigenvalues did not converge", and a NaN bare frequency in
    # the device JSON in a fidelity with exit code 0.  A missing key was a
    # KeyError traceback, and a quoted number a TypeError one.  Optional
    # device keys of the wrong type were TypeError tracebacks too, or (a
    # cap of 2.5) were used rounded down; quoted or boolean numbers in
    # the pulse lists were read as numbers.  A 401-digit integer was an
    # OverflowError traceback from the range check.
    missing = object()
    for name, (source, path, value) in {
        "nan_pulse.json": ("pulse.json", ("search_references_ghz", 0),
                           math.nan),
        "short_pulse.json": ("pulse.json", ("segment_duration_ns",), missing),
        "text_detuning_pulse.json": ("pulse.json", ("detunings_ghz", 0, 3),
                                     "0.01"),
        "text_reference_pulse.json": ("pulse.json",
                                      ("search_references_ghz", 0), "5.7"),
        "bool_detuning_pulse.json": ("pulse.json", ("detunings_ghz", 1, 0),
                                     True),
        "nan_device.json": ("device.json",
                            ("transmons", 0, "bare_frequency_ghz"), math.nan),
        "text_device.json": ("device.json",
                             ("transmons", 1, "bare_frequency_ghz"), "5.7"),
        "bool_device.json": ("device.json", ("resonators", 0, "g_left_ghz"),
                             True),
        "short_device.json": ("device.json",
                              ("transmons", 0, "anharmonicity_ghz"), missing),
        "text_idle_device.json": ("device.json",
                                  ("transmons", 0, "idle_frequency_ghz"),
                                  "5.7"),
        "text_levels_device.json": ("device.json", ("levels_per_transmon",),
                                    "4"),
        "float_levels_device.json": ("device.json", ("levels_per_transmon",),
                                     3.0),
        "null_floor_device.json": ("device.json", ("dispersive_floor_ghz",),
                                   None),
        "float_cap_device.json": ("device.json", ("max_total_excitation",),
                                  2.5),
        "bool_cap_device.json": ("device.json", ("max_total_excitation",),
                                 True),
        "huge_device.json": ("device.json",
                             ("transmons", 0, "bare_frequency_ghz"), 10 ** 400),
    }.items():
        doc = read_json(workdir / source)
        *parents, key = path
        node = doc
        for part in parents:
            node = node[part]
        if value is missing:
            del node[key]
        else:
            node[key] = value
        (workdir / name).write_text(json.dumps(doc))
    for device_file, pulse_file, message in (
        ("device.json", "nan_pulse.json",
         "search_references must be finite"),
        ("nan_device.json", "pulse.json",
         "transmon 0: bare_frequency must be finite, got nan"),
        ("device.json", "short_pulse.json",
         "pulse lacks 'segment_duration_ns'"),
        ("text_device.json", "pulse.json",
         "transmon 1: bare_frequency_ghz must be a number, got '5.7'"),
        ("bool_device.json", "pulse.json",
         "resonator 0: g_left_ghz must be a number, got True"),
        ("short_device.json", "pulse.json",
         "transmon 0 lacks 'anharmonicity_ghz'"),
        ("text_idle_device.json", "pulse.json",
         "transmon 0: idle_frequency_ghz must be a number, got '5.7'"),
        ("text_levels_device.json", "pulse.json",
         "device: levels_per_transmon must be a number, got '4'"),
        ("float_levels_device.json", "pulse.json",
         "device: levels_per_transmon must be an integer, got 3.0"),
        ("null_floor_device.json", "pulse.json",
         "device: dispersive_floor_ghz must be a number, got None"),
        ("float_cap_device.json", "pulse.json",
         "device: max_total_excitation must be an integer, got 2.5"),
        ("bool_cap_device.json", "pulse.json",
         "device: max_total_excitation must be a number, got True"),
        ("huge_device.json", "pulse.json",
         f"transmon 0: bare_frequency must be finite, got {10 ** 400}"),
        ("device.json", "text_detuning_pulse.json",
         "pulse: detunings_ghz[0][3] must be a number, got '0.01'"),
        ("device.json", "text_reference_pulse.json",
         "pulse: search_references_ghz[0] must be a number, got '5.7'"),
        ("device.json", "bool_detuning_pulse.json",
         "pulse: detunings_ghz[1][0] must be a number, got True"),
    ):
        rc = main(["simulate", "--device", str(workdir / device_file),
                   "--pulses", str(workdir / pulse_file), "--out", "out.json"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(workdir.glob("out*"))


@pytest.mark.parametrize("command, pulse, flags, message", [
    ("simulate", "pulse.json", ["--trotter-step", "inf"],
     "step must be positive and finite, got inf"),
    ("simulate", "pulse.json", ["--trotter-step", "nan"],
     "step must be positive and finite, got nan"),
    ("qpt", "pulse.json", ["--trotter-step", "inf"],
     "step must be positive and finite, got inf"),
    ("robustness", "pulse.json", ["--trotter-step=-inf"],
     "step must be positive and finite, got -inf"),
    ("simulate", "pulse.csv", ["--segment-duration", "inf"],
     "segment_duration must be positive and finite, got inf"),
    ("simulate", "pulse.csv", ["--segment-duration", "nan"],
     "segment_duration must be positive and finite, got nan"),
    ("optimize", None, ["--segment-duration", "inf"],
     "segment_duration must be positive and finite, got inf"),
    ("optimize", None, ["--segment-duration", "nan"],
     "segment_duration must be positive and finite, got nan"),
    ("optimize", None, ["--segments", "0"],
     "--segments must be at least 1, got 0"),
    ("optimize", None, ["--segments", "-1"],
     "--segments must be at least 1, got -1"),
    ("qpt", "pulse.json", ["--t1-us", "nan", "--levels", "3"],
     "transmon 0: T1 and T2 must be positive, got T1=nan us, T2=nan us"),
])
def test_bad_run_settings_rejected(workdir, capsys, command, pulse, flags,
                                   message):
    # An infinite Trotter step used to take zero steps and score the
    # identity, an infinite segment duration to end in an OverflowError
    # traceback, and NaN or a segment count below 1 in numpy's messages.
    # A NaN T1 gave a channel with no decay and wrote NaN into the JSON.
    rc = main([
        command, "--device", str(workdir / "device.json"),
        *(["--pulses", str(workdir / pulse)] if pulse else
          ["--constraints", str(workdir / "constraints.json")]),
        *flags, "--out", "out.csv" if command == "optimize" else "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(workdir.glob("out*")) and not list(workdir.glob("report*"))


@pytest.mark.parametrize("command", ["simulate", "qpt", "robustness"])
@pytest.mark.parametrize("flags", [["--references", "1", "2", "3"],
                                   ["--segment-duration", "7"]],
                         ids=["references", "segment_duration"])
def test_json_pulse_refuses_csv_flags(workdir, capsys, command, flags):
    # A JSON pulse carries its own references and segment duration: the
    # two flags were ignored for it, and the run scored the pulse's own
    # with exit code 0.
    pulse = workdir / "pulse.json"
    rc = main([
        command, "--device", str(workdir / "device.json"),
        "--pulses", str(pulse), *flags, "--out", "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {flags[0]} is for CSV pulses; the JSON pulse {pulse} "
        "carries its own\n")
    assert not list(workdir.glob("out*")) and not list(workdir.glob("report*"))


@pytest.mark.parametrize("command, seed", [("optimize", "-3"),
                                           ("robustness", "-1")])
def test_negative_seed_rejected(workdir, capsys, command, seed):
    # numpy refused the seed with "expected non-negative integer", which
    # named no flag.
    rc = main([
        command, "--device", str(workdir / "device.json"),
        *(["--pulses", str(workdir / "pulse.json")]
          if command == "robustness" else
          ["--constraints", str(workdir / "constraints.json"),
           "--segments", "4"]),
        "--seed", seed, "--out", "out.csv",
    ])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: seed must be a non-negative integer, got {seed}\n"
    assert not list(workdir.glob("out*"))


@pytest.mark.parametrize("command", ["simulate", "qpt", "robustness"])
def test_pole_crossing_pulse_reports_error(workdir, capsys, command):
    # Qubit M detuned by 1.8 GHz in the first segment sits on a resonator
    # pole: a clean error and exit code 2, not a traceback.
    pulse = load_toy_pulse()
    det = pulse.detunings.copy()
    det[1, 0] = 1.8
    write_pulse(workdir / "pole.json", pulse.with_detunings(det))
    rc = main([
        command, "--device", str(workdir / "device.json"),
        "--pulses", str(workdir / "pole.json"), "--out", "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert "error: singular Hamiltonian at t=0.05 ns (transmon 1)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "qpt", "robustness"])
@pytest.mark.parametrize("device, pulse, qubits, transmons", [
    (three_transmon_chain(), "pulse.json", 2, 3),
    (toy_two_transmon_chain(), "pulse3.json", 3, 2),
], ids=["two_qubit_pulse", "three_qubit_pulse"])
def test_pulse_for_other_qubit_count_rejected(workdir, capsys, command,
                                              device, pulse, qubits,
                                              transmons):
    # The toy two-qubit pulse on the three-transmon chain ended in an
    # IndexError traceback, and the three-qubit pulse on the toy chain in
    # numpy's broadcast error: both are refused where the pulse is read.
    (workdir / "other.json").write_text(json.dumps(device_to_json(device)))
    write_pulse(workdir / "pulse3.json", load_ccphase_pulse())
    rc = main([
        command, "--device", str(workdir / "other.json"),
        "--pulses", str(workdir / pulse), "--out", "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: pulse {workdir / pulse} has {qubits} qubits; the device "
        f"has {transmons} transmons\n")
    assert not list(workdir.glob("out*")) and not list(workdir.glob("report*"))


class TestOptimize:
    def run_optimize(self, workdir, seed=3, gens=4, extra=()):
        de = workdir / "de.json"
        de.write_text(json.dumps({
            "population_size": 8, "max_generations": gens,
            "target_fidelity": 2.0, "seed": seed,
        }))
        return main([
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(de), "--segments", "10",
            "--out", "pulses.csv", "--log", "history.csv", *extra,
        ])

    def test_writes_pulses_history_manifest(self, workdir):
        assert self.run_optimize(workdir) == 0
        rows = [
            l for l in (workdir / "pulses.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) == 2 and len(rows[0].split(",")) == 10
        history = (workdir / "history.csv").read_text().splitlines()
        assert history[1] == "generation,best_fidelity,mean_fidelity,evaluations"
        assert len(history) == 2 + 5  # generations 0..4
        manifest = json.loads((workdir / "pulses.manifest.json").read_text())
        assert manifest["results"]["pole_failures"] == 0
        assert (workdir / "pulses.json").exists()

    def test_history_monotone(self, workdir):
        self.run_optimize(workdir)
        best = [
            float(l.split(",")[1])
            for l in (workdir / "history.csv").read_text().splitlines()[2:]
        ]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_rerun_byte_identical(self, workdir):
        self.run_optimize(workdir)
        first = (workdir / "pulses.csv").read_bytes()
        first_hist = (workdir / "history.csv").read_bytes()
        self.run_optimize(workdir)
        assert (workdir / "pulses.csv").read_bytes() == first
        assert (workdir / "history.csv").read_bytes() == first_hist

    def test_resume_matches_uninterrupted(self, workdir):
        self.run_optimize(workdir, gens=6)
        full = (workdir / "pulses.csv").read_bytes()
        self.run_optimize(workdir, gens=3, extra=("--state-out", "state.json"))
        de = workdir / "de.json"
        de.write_text(json.dumps({
            "population_size": 8, "max_generations": 6,
            "target_fidelity": 2.0, "seed": 3,
        }))
        rc = main([
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(de), "--segments", "10",
            "--resume", str(workdir / "state.json"),
            "--out", "resumed.csv", "--log", "resumed_history.csv",
        ])
        assert rc == 0
        assert (workdir / "resumed.csv").read_bytes() == full


class InterruptingFitness:
    """A fitness that raises KeyboardInterrupt on its ``after``-th call,
    as Ctrl-C would, and shares the pole-failure count of the real one."""

    def __init__(self, inner, after):
        self.inner, self.after, self.calls = inner, after, 0

    def __call__(self, chromosome):
        self.calls += 1
        if self.calls == self.after:
            raise KeyboardInterrupt
        return self.inner(chromosome)

    @property
    def pole_failures(self):
        return self.inner.pole_failures

    @pole_failures.setter
    def pole_failures(self, count):
        self.inner.pole_failures = count


class GeneZeroFailures:
    """A fitness that scores 0 and counts a pole failure whenever gene 0
    exceeds 0.1."""

    def __init__(self):
        self.pole_failures = 0

    def __call__(self, chromosome):
        if chromosome[0] > 0.1:
            self.pole_failures += 1
        return 0.0


class TestCheckpoints:
    """``--state-out`` checkpoints both stages; ``--resume`` continues."""

    # 30 generations of 8 members: 248 evaluations, with checkpoints after
    # generations 25 and 30.  Local search then evaluates its start (call
    # 249) and finishes iterations 1, 2 and 3 at calls 416, 531 and 644.
    ARTIFACTS = (".csv", ".json", "_history.csv", "_state.json")

    def args(self, workdir, name, *extra):
        (workdir / "de.json").write_text(json.dumps({
            "population_size": 8, "max_generations": 30,
            "target_fidelity": 2.0, "seed": 3,
        }))
        (workdir / "ls.json").write_text(json.dumps({
            "eps_max": 0.1, "eps_min": 1e-3, "max_iterations": 3,
            "target_fidelity": 2.0,
        }))
        return [
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(workdir / "de.json"),
            "--local-search", str(workdir / "ls.json"), "--segments", "10",
            "--out", f"{name}.csv", "--log", f"{name}_history.csv",
            "--state-out", f"{name}_state.json", *extra,
        ]

    @pytest.mark.parametrize("after, generation, iterations", [
        (220, 25, None),  # in generation 27
        (249, 30, None),  # the local search's first evaluation
        (480, 30, 1),     # in local-search iteration 2
    ], ids=["mid-evolution", "between-stages", "mid-local-search"])
    def test_interrupted_run_resumes_to_same_artifacts(
            self, workdir, monkeypatch, after, generation, iterations):
        assert main(self.args(workdir, "full")) == 0
        real = cli.ccphase_fitness
        monkeypatch.setattr(cli, "ccphase_fitness", lambda *a, **k:
                            InterruptingFitness(real(*a, **k), after))
        with pytest.raises(KeyboardInterrupt):
            main(self.args(workdir, "cut"))
        state = read_json(workdir / "cut_state.json")
        assert state["generation"] == generation
        entry = state.get("local_search")
        assert (entry and entry["iterations"]) == iterations
        assert not (workdir / "cut.csv").exists()

        monkeypatch.setattr(cli, "ccphase_fitness", real)
        rc = main(self.args(workdir, "cut", "--resume",
                            str(workdir / "cut_state.json")))
        assert rc == 0
        for suffix in self.ARTIFACTS:
            assert (workdir / f"cut{suffix}").read_bytes() == \
                (workdir / f"full{suffix}").read_bytes(), suffix
        assert read_json(workdir / "cut.manifest.json")["results"] == \
            read_json(workdir / "full.manifest.json")["results"]

    def test_state_keys_and_progress_lines(self, workdir, capsys):
        assert main(self.args(workdir, "full")) == 0
        state = read_json(workdir / "full_state.json")
        assert list(state) == [
            "schema_version", "generation", "population", "fitnesses",
            "mutation_factors", "crossover_rates", "rng_state",
            "evaluations", "history", "manifest_hash", "pole_failures",
            "local_search",
        ]
        entry = state["local_search"]
        assert entry["iterations"] == 3 and entry["stopped"]
        assert entry["fidelity"] == \
            read_json(workdir / "full.json")["fidelity"]
        captured = capsys.readouterr()
        assert captured.out.startswith("best fidelity:")
        assert [line.split(":")[0] for line in captured.err.splitlines()] \
            == ["DE generation 25", "DE generation 30"] + [
                f"local-search iteration {i}" for i in range(4)]

    def test_resume_keeps_recorded_pole_failures(self, workdir):
        assert main(self.args(workdir, "full")) == 0
        state = read_json(workdir / "full_state.json")
        state["pole_failures"] = 7
        (workdir / "seven.json").write_text(json.dumps(state))
        assert main(self.args(workdir, "again", "--resume",
                              str(workdir / "seven.json"))) == 0
        results = read_json(workdir / "again.manifest.json")["results"]
        assert results["pole_failures"] == 7
        assert results["final_fidelity"] == state["local_search"]["fidelity"]

    def test_mid_evolution_resume_keeps_pole_failures(
            self, workdir, monkeypatch):
        # Evolution alone, with a fitness that counts a failure whenever
        # gene 0 exceeds 0.1; cut in generation 27, after the generation-25
        # checkpoint, and resumed: the failures before the checkpoint are
        # counted too.
        def evolution_only(name, *extra):
            args = self.args(workdir, name, *extra)
            i = args.index("--local-search")
            return args[:i] + args[i + 2:]

        monkeypatch.setattr(cli, "ccphase_fitness",
                            lambda *a, **k: GeneZeroFailures())
        assert main(evolution_only("full")) == 0
        full = read_json(workdir / "full.manifest.json")["results"]
        assert full["pole_failures"] > 0
        monkeypatch.setattr(cli, "ccphase_fitness", lambda *a, **k:
                            InterruptingFitness(GeneZeroFailures(), 220))
        with pytest.raises(KeyboardInterrupt):
            main(evolution_only("cut"))
        assert read_json(workdir / "cut_state.json")["generation"] == 25
        monkeypatch.setattr(cli, "ccphase_fitness",
                            lambda *a, **k: GeneZeroFailures())
        assert main(evolution_only("cut", "--resume", "cut_state.json")) == 0
        assert read_json(workdir / "cut.manifest.json")["results"] == full
        assert (workdir / "cut.csv").read_bytes() == \
            (workdir / "full.csv").read_bytes()

    def test_resume_reads_under_out_dir(self, workdir, tmp_path_factory,
                                        monkeypatch):
        # Relative --state-out and --resume names both resolve under
        # FLUXGATE_OUT_DIR, whatever the working directory.
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        assert main(self.args(workdir, "full")) == 0
        assert not os.path.exists("full_state.json")
        assert main(self.args(workdir, "again", "--resume",
                              "full_state.json")) == 0
        assert (workdir / "again.csv").read_bytes() == \
            (workdir / "full.csv").read_bytes()


class TestOptimizeInputErrors:
    """Malformed or mismatched input to optimize: ``error:`` and exit 2."""

    def optimize(self, workdir, segments=4, population=8, extra=()):
        (workdir / "de.json").write_text(json.dumps({
            "population_size": population, "max_generations": 2,
            "seed": 3,
        }))
        return main([
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(workdir / "de.json"),
            "--segments", str(segments), "--out", "b.csv", *extra,
        ])

    def expect_error(self, capsys, rc, text):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err

    @pytest.mark.parametrize("name, text, message", [
        ("de", '{"population_size": 8.5, "max_generations": 2}',
         "population_size must be an integer, got 8.5"),
        ("de", '{"population_size": 8, "max_generations": 1e400}',
         "max_generations must be an integer, got inf"),
        ("de", '{"population_size": 8, "max_generations": 2, "seed": 1.5}',
         "seed must be an integer, got 1.5"),
        ("de", '{"max_generations": 2, "mutation_bounds": 0.5}',
         "mutation_bounds must be finite numbers [lo, hi] with lo <= hi, "
         "got 0.5"),
        ("de", '{"max_generations": 2, "mutation_bounds": [0, 1, 2]}',
         "mutation_bounds must be finite numbers [lo, hi] with lo <= hi, "
         "got [0, 1, 2]"),
        ("de", '{"max_generations": 2, "mutation_bounds": [0.5]}',
         "mutation_bounds must be finite numbers [lo, hi] with lo <= hi, "
         "got [0.5]"),
        ("de", '{"max_generations": 2, "crossover_bounds": [0.9, 0.1]}',
         "crossover_bounds must be finite numbers [lo, hi] with lo <= hi, "
         "got [0.9, 0.1]"),
        ("constraints", '{"ranges": [{"hi_ghz": 0.1}]}',
         "range 0 lacks 'lo_ghz'"),
        ("constraints", '{"ranges": {"lo_ghz": 0.0}}',
         "constraints: ranges must be a list, got {'lo_ghz': 0.0}"),
        ("ls", '{"eps_max": Infinity, "eps_min": 1e-3}',
         "eps_max must be finite, got inf"),
        ("ls", '{"max_iterations": 1.5}',
         "max_iterations must be an integer, got 1.5"),
        ("de", '{"population_size": 8, "max_generations": -5}',
         "max_generations must be a non-negative integer, got -5"),
        ("ls", '{"max_iterations": -2}',
         "max_iterations must be a non-negative integer, got -2"),
        ("constraints", '{"ranges": [{"lo_ghz": -0.45, "hi_ghz": 0.45}, '
         '{"lo_ghz": -0.45, "hi_ghz": 0.45}], "max_step_ghz": "0.22"}',
         "constraints: max_step_ghz must be a number, got '0.22'"),
        ("constraints", '{"ranges": [{"lo_ghz": -0.45, "hi_ghz": 0.45}, '
         '{"lo_ghz": -0.45, "hi_ghz": 0.45}], "boundary_step_ghz": 0.5, '
         '"idle_frequencies_ghz": ["5.7", "6.0"]}',
         "constraints: idle_frequencies_ghz[0] must be a number, got '5.7'"),
        ("constraints", '{"ranges": [{"lo_ghz": -0.45, "hi_ghz": 0.45, '
         '"lo_inclusive": "no"}, {"lo_ghz": -0.45, "hi_ghz": 0.45}]}',
         "range 0: lo_inclusive must be true or false, got 'no'"),
    ])
    def test_config_value_rejected(self, workdir, capsys, name, text,
                                   message):
        # Refused where the config is read, before any evaluation or
        # write: a population of 8.5 was a TypeError traceback, and 1e400
        # generations ran until the target.  A seed of 1.5, a bound that
        # is no pair and a range without an end were tracebacks, bounds
        # [0.5] drew from [0.5, 1), and [0.9, 0.1] failed in numpy's
        # words, naming no field.  A quoted step limit or idle frequency
        # was a TypeError traceback, and "no" read as an inclusive end.
        # A negative generation or iteration count ran as 0 with exit 0.
        (workdir / "de.json").write_text(
            '{"population_size": 8, "max_generations": 2}')
        (workdir / "ls.json").write_text('{"max_iterations": 1}')
        args = [
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(workdir / "de.json"),
            "--local-search", str(workdir / "ls.json"),
            "--segments", "4", "--out", "bad.csv",
        ]
        (workdir / f"{name}.json").write_text(text)
        self.expect_error(capsys, main(args), message)
        assert not list(workdir.glob("bad*"))
        assert not list(workdir.glob("bad*"))

    @pytest.mark.parametrize("swap, segments, qubits, transmons", [
        ("device", 3, 2, 3), ("device", 4, 2, 3), ("constraints", 4, 3, 2),
    ], ids=["two_qubit_rules_3_segments", "two_qubit_rules_4_segments",
            "three_qubit_rules"])
    def test_constraints_for_other_qubit_count(self, workdir, capsys, swap,
                                               segments, qubits, transmons):
        # The toy (two-qubit) constraints on the three-transmon chain
        # exited 0 at 3 segments, with a pulse drawn and repaired under
        # the two-qubit rules, and at 4 segments exited 2 with "chromosome
        # length 8 is not a multiple of 3"; three-qubit constraints on the
        # toy chain were an IndexError traceback.  Each is refused before
        # any output or checkpoint is written.
        if swap == "device":
            (workdir / "device.json").write_text(
                json.dumps(device_to_json(three_transmon_chain())))
        else:
            (workdir / "constraints.json").write_text(
                json.dumps(constraints_to_json(three_qubit_constraints())))
        rc = self.optimize(workdir, segments=segments, extra=(
            "--out", "bad.csv", "--log", "bad_history.csv",
            "--state-out", "bad_state.json"))
        self.expect_error(capsys, rc, (
            f"constraints {workdir / 'constraints.json'} are for {qubits} "
            f"qubits; the device has {transmons} transmons"))
        assert not list(workdir.glob("bad*"))

    def test_resume_with_other_segment_count(self, workdir, capsys):
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        rc = self.optimize(workdir, segments=6,
                           extra=("--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, "holds 8 genes per member (qubits x --segments); this run needs 12")

    def test_resume_with_other_population_size(self, workdir, capsys):
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        rc = self.optimize(workdir, population=10,
                           extra=("--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, "holds 8 members (DE population_size); "
                                       "this run needs 10")

    def test_resume_with_short_local_search_chromosome(self, workdir, capsys):
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = read_json(workdir / "st.json")
        state["local_search"] = {
            "chromosome": [0.0] * 6, "fidelity": 0.5, "iterations": 1,
            "stopped": False,
        }
        (workdir / "st.json").write_text(json.dumps(state))
        rc = self.optimize(workdir,
                           extra=("--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, "holds 6 local-search genes")

    def test_resume_without_population(self, workdir, capsys):
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = read_json(workdir / "st.json")
        del state["population"]
        (workdir / "st.json").write_text(json.dumps(state))
        rc = self.optimize(workdir,
                           extra=("--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, "lacks 'population'")

    def test_resume_without_pole_failures(self, workdir, capsys):
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = read_json(workdir / "st.json")
        del state["pole_failures"]
        (workdir / "st.json").write_text(json.dumps(state))
        rc = self.optimize(workdir,
                           extra=("--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, "lacks 'pole_failures'")

    @pytest.mark.parametrize("path, value, message", [
        (("generation",), "74",
         "state: generation must be an integer, got '74'"),
        (("pole_failures",), 0.0,
         "state: pole_failures must be an integer, got 0.0"),
        (("history", 0, "best_fidelity"), None,
         "state: history[0]: best_fidelity must be a number, got None"),
        (("population", 1, 2), "0.1",
         "state: population[1][2] must be a number, got '0.1'"),
        (("local_search",), [],
         "state: local_search must be an object, got []"),
    ], ids=["quoted_generation", "float_pole_failures", "null_fidelity",
            "quoted_gene", "list_local_search"])
    def test_resume_with_mistyped_key(self, workdir, capsys, path, value,
                                      message):
        # A quoted generation was a TypeError traceback from the
        # checkpoint loop; every key is now read with its JSON kind.
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = read_json(workdir / "st.json")
        *parents, key = path
        node = state
        for part in parents:
            node = node[part]
        node[key] = value
        (workdir / "st.json").write_text(json.dumps(state))
        rc = self.optimize(workdir, extra=(
            "--out", "resumed.csv", "--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, message)
        assert not list(workdir.glob("resumed*"))

    @pytest.mark.parametrize("key, edit, message", [
        ("mutation_factors", lambda value: value[:5],
         "state: mutation_factors holds 5 values for 8 population members"),
        ("crossover_rates", lambda value: value[:5],
         "state: crossover_rates holds 5 values for 8 population members"),
        ("fitnesses", lambda value: value[:7],
         "state: fitnesses holds 7 values for 8 population members"),
        ("fitnesses", lambda value: [value[0], math.nan, *value[2:]],
         "state: fitnesses[1] must be finite, got nan"),
        ("rng_state", lambda value: {"bit_generator": "PCG64"},
         "state: rng_state is not a PCG64 state (KeyError: 'state')"),
        ("local_search", lambda value: dict(value, fidelity=math.nan),
         "state: local_search: fidelity must be finite, got nan"),
    ], ids=["short_mutation_factors", "short_crossover_rates",
            "short_fitnesses", "nan_fitness", "rng_state_without_state",
            "nan_fidelity"])
    def test_resume_with_malformed_state(self, workdir, capsys, key, edit,
                                         message):
        # Short per-member lists were an IndexError traceback or numpy's
        # "operands could not be broadcast", an rng_state without "state"
        # a KeyError traceback, and a NaN local-search fidelity an
        # EvaluationError traceback, each exiting 1.  A NaN fitness ran
        # to exit 0 with a NaN DE fidelity in the manifest, and under a
        # higher max_generations printed generation 2 forever.
        (workdir / "ls.json").write_text(json.dumps({
            "eps_max": 0.01, "eps_min": 0.001, "max_iterations": 1}))
        search = ("--local-search", str(workdir / "ls.json"))
        assert self.optimize(workdir, extra=(
            *search, "--state-out", "st.json")) == 0
        capsys.readouterr()
        state = read_json(workdir / "st.json")
        state[key] = edit(state[key])
        (workdir / "st.json").write_text(json.dumps(state))
        rc = self.optimize(workdir, extra=(
            *search, "--out", "resumed.csv",
            "--resume", str(workdir / "st.json")))
        self.expect_error(capsys, rc, message)
        assert not list(workdir.glob("resumed*"))

    def test_resume_under_other_configuration(self, workdir, capsys):
        # A state written with seed 3 and the ccphase target, resumed with
        # another seed and target: refused before any evaluation or write.
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = (workdir / "st.json").read_bytes()
        other = ("--seed", "99", "--target", "identity")
        assert self.optimize(workdir, extra=("--out", "other.csv", *other)) == 0
        other_hash = read_json(workdir / "other.manifest.json")["manifest_hash"]
        capsys.readouterr()
        rc = self.optimize(workdir, extra=(
            "--out", "resumed.csv", "--log", "resumed_history.csv",
            "--state-out", "st.json", "--resume", "st.json", *other))
        self.expect_error(capsys, rc, (
            f"was written under manifest hash "
            f"{json.loads(state)['manifest_hash']}; this run's configuration "
            f"has hash {other_hash}"))
        assert not list(workdir.glob("resumed*"))
        assert (workdir / "st.json").read_bytes() == state

    def test_resume_with_device_edited_in_place(self, workdir, capsys):
        # The manifest hash covers the bytes of --device, not only its
        # path: a state written before the device file was edited in
        # place is refused before any evaluation or write.
        assert self.optimize(workdir, extra=("--state-out", "st.json")) == 0
        capsys.readouterr()
        state = (workdir / "st.json").read_bytes()
        device = read_json(workdir / "device.json")
        device["resonators"][0]["g_left_ghz"] = 0.25
        (workdir / "device.json").write_text(json.dumps(device))
        assert self.optimize(workdir, extra=("--out", "edited.csv")) == 0
        edited = read_json(workdir / "edited.manifest.json")
        assert edited["config"]["device_sha256"] != \
            read_json(workdir / "b.manifest.json")["config"]["device_sha256"]
        capsys.readouterr()
        rc = self.optimize(workdir, extra=(
            "--out", "resumed.csv", "--log", "resumed_history.csv",
            "--state-out", "st.json", "--resume", "st.json"))
        self.expect_error(capsys, rc, (
            f"was written under manifest hash "
            f"{json.loads(state)['manifest_hash']}; this run's configuration "
            f"has hash {edited['manifest_hash']}"))
        assert not list(workdir.glob("resumed*"))
        assert (workdir / "st.json").read_bytes() == state

    def test_infeasible_constraints(self, workdir, capsys):
        # No two toy qubits can stay 2 GHz apart: seeding the population
        # gives up, and that is bad input, not a crash.
        doc = read_json(workdir / "constraints.json")
        doc["min_separation_ghz"] = 2.0
        (workdir / "constraints.json").write_text(json.dumps(doc))
        rc = self.optimize(workdir)
        self.expect_error(capsys, rc, "could not satisfy the separation rule")
        assert not (workdir / "b.csv").exists()

    def test_unknown_de_config_key(self, workdir, capsys):
        (workdir / "de.json").write_text(json.dumps({"bogus": 1}))
        rc = main([
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(workdir / "de.json"), "--out", "b.csv",
        ])
        self.expect_error(capsys, rc, "unknown DEConfig field(s): bogus")

    def test_nan_de_target(self, workdir, capsys):
        # Python's json reads NaN; as a target it ended every run_sussade
        # call at generation 0, so the checkpoint loop never stopped.
        (workdir / "de.json").write_text(json.dumps({
            "population_size": 8, "max_generations": 2,
            "target_fidelity": math.nan, "seed": 3,
        }))
        rc = main([
            "optimize", "--device", str(workdir / "device.json"),
            "--constraints", str(workdir / "constraints.json"),
            "--de-config", str(workdir / "de.json"), "--segments", "4",
            "--out", "b.csv", "--state-out", "st.json",
        ])
        self.expect_error(capsys, rc,
                          "target_fidelity must be finite, got nan")
        assert not (workdir / "b.csv").exists()
        assert not (workdir / "st.json").exists()

    def test_unknown_local_search_key(self, workdir, capsys):
        (workdir / "ls.json").write_text(json.dumps({"eps_max": 0.1,
                                                     "bogus": 1}))
        rc = self.optimize(workdir, extra=(
            "--local-search", str(workdir / "ls.json")))
        self.expect_error(capsys, rc,
                          "unknown LocalSearchConfig field(s): bogus")
        assert not (workdir / "b.csv").exists()


def test_demo_06_arguments_parse(tmp_path):
    # Loaded without running: the demo's main block needs __name__ set.
    demo = runpy.run_path(str(
        Path(__file__).resolve().parents[1] / "demos"
        / "06_learn_ccphase_pulse.py"))
    out, state = tmp_path / "ccz.csv", tmp_path / "ccz.state.json"
    args = build_parser().parse_args(demo["optimize_args"](out, state))
    assert args.func is cli.cmd_optimize
    assert args.resume is None and args.state_out == str(state)
    for path in (args.device, args.constraints, args.de_config,
                 args.local_search):
        assert os.path.isfile(path), path
    assert device_from_json(read_json(args.device)) == three_transmon_chain()
    assert constraints_from_json(read_json(args.constraints)) == \
        three_qubit_constraints("references")
    assert tuple(args.references) == THREE_QUBIT_REFERENCES
    assert args.segments == 50
    assert DEConfig(**read_json(args.de_config)) == DEConfig(
        population_size=200, max_generations=100, seed=2019)
    assert LocalSearchConfig(**read_json(args.local_search)) == \
        LocalSearchConfig(eps_max=0.1, eps_min=1e-6, max_iterations=1000)
    state.write_text("{}")
    args = build_parser().parse_args(demo["optimize_args"](out, state))
    assert args.resume == str(state)


class TestQpt:
    def test_closed_system_report(self, workdir):
        rc = main([
            "qpt", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--out", "chi.json", "--report", "qpt.json",
        ])
        assert rc == 0
        report = read_json(workdir / "qpt.json")
        assert report["average_gate_fidelity"] == pytest.approx(
            report["closed_system_fidelity"], abs=2e-3
        )
        assert report["average_gate_fidelity"] == \
            pytest.approx((4 * report["process_fidelity"] + 1) / 5, abs=1e-12)
        chi_doc = read_json(workdir / "chi.json")
        chi = np.array([[complex(re, im) for re, im in row]
                        for row in chi_doc["chi"]])
        assert chi.shape == (16, 16)
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-6)
        assert np.abs(chi - chi.conj().T).max() < 1e-10

    def test_decoherent_report_notes_times(self, workdir):
        rc = main([
            "qpt", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--t1-us", "20", "--t2-us", "20",
            "--out", "chi.json", "--report", "qpt.json",
        ])
        assert rc == 0
        report = read_json(workdir / "qpt.json")
        assert report["t1_us"] == 20 and report["t2_us"] == 20
        assert report["average_gate_fidelity"] < \
            report["closed_system_fidelity"]

    def test_t1_alone_means_no_pure_dephasing(self, workdir):
        # An omitted T2 with T1 given is T2 = 2*T1; it used to be inf,
        # which LindbladSpec rejects as above 2*T1.
        for name, times in (("t1", ("--t1-us", "20")),
                            ("t1t2", ("--t1-us", "20", "--t2-us", "40"))):
            assert main([
                "qpt", "--device", str(workdir / "device.json"),
                "--pulses", str(workdir / "pulse.json"), *times,
                "--out", f"{name}_chi.json", "--report", f"{name}.json",
            ]) == 0
        chi = [json.dumps(read_json(workdir / f"{name}_chi.json")["chi"])
               for name in ("t1", "t1t2")]
        assert chi[0] == chi[1]
        assert read_json(workdir / "t1.json")["average_purity"] < 1.0

    def test_levels_flag(self, workdir):
        rc = main([
            "qpt", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"), "--levels", "3",
            "--out", "chi3.json", "--report", "qpt3.json",
        ])
        assert rc == 0
        assert read_json(workdir / "qpt3.json")["levels"] == 3


class TestRobustness:
    def test_single_zero_amplitude_matches_baseline(self, workdir):
        rc = main([
            "robustness", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--amplitudes", "0", "--samples", "3", "--seed", "1",
            "--out", "sweep.csv",
        ])
        assert rc == 0
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert lines[1] == \
            "amplitude_mhz,mean_fidelity,std_error,samples,singular"
        amp, mean, err, samples, singular = lines[2].split(",")
        manifest = read_json(workdir / "sweep.manifest.json")
        assert float(mean) == manifest["results"]["baseline_fidelity"]
        assert float(err) == 0.0 and samples == "3"
        assert singular == "0"

    def test_amplitude_grid_parsing(self, workdir):
        rc = main([
            "robustness", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--amplitudes", "0:2:1", "--samples", "2", "--seed", "1",
            "--out", "sweep.csv",
        ])
        assert rc == 0
        rows = (workdir / "sweep.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["0.0", "1.0", "2.0"]

    @pytest.mark.parametrize("grid", ["0:10:0", "5:1:1"])
    def test_bad_amplitude_grid_reports_error(self, workdir, capsys, grid):
        # A zero step would divide by zero; a descending grid is empty.
        rc = main([
            "robustness", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--amplitudes", grid, "--samples", "2", "--out", "sweep.csv",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not (workdir / "sweep.csv").exists()

    @pytest.mark.parametrize("grid, value", [
        ("nan", "nan"), ("inf,0", "inf"), ("0:1:inf", "nan"),
    ])
    def test_non_finite_amplitudes_rejected(self, workdir, capsys, grid,
                                            value):
        # These used to reach the sweep and fail there as "detunings must
        # be finite", naming neither the flag nor the value.  The grid
        # 0:1:inf has one point, 0 * inf = nan.
        rc = main([
            "robustness", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--amplitudes", grid, "--samples", "2", "--out", "sweep.csv",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --amplitudes {grid}: amplitudes must be finite, "
            f"got {value}\n")
        assert not list(workdir.glob("sweep*"))

    def test_seeded_rerun_byte_identical(self, workdir):
        args = [
            "robustness", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"),
            "--amplitudes", "0,5", "--samples", "4", "--seed", "9",
            "--out", "sweep.csv",
        ]
        main(args)
        first = (workdir / "sweep.csv").read_bytes()
        main(args)
        assert (workdir / "sweep.csv").read_bytes() == first


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 11
        assert "PASS  batched evolution vs per-segment exponentials" in out
        assert "PASS  phase fit is a local maximum" in out
        assert ("PASS  stacked phase fit and score vs one matrix at a "
                "time") in out
        assert "PASS  stacked density evolution vs dense dissipator" in out
        assert "PASS  incremental product tree vs cold product" in out
        assert ("PASS  exponential without per-block checks vs per-block "
                "oracle") in out


def test_run_commands_share_device_trotter_step_and_target():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("simulate", "optimize", "qpt", "robustness"):
        actions = {a.dest: a for a in sub.choices[command]._actions}
        assert {
            dest: (a.required, a.type, a.default, a.choices)
            for dest, a in actions.items()
            if dest in ("device", "trotter_step", "target")
        } == {
            "device": (True, None, None, None),
            "trotter_step": (False, float, 0.1, None),
            "target": (False, None, "ccphase", ("ccphase", "identity")),
        }, command


class TestManifest:
    @pytest.mark.parametrize("command, out, extra, own_keys", [
        ("simulate", "out.json", (), ["target"]),
        ("qpt", "out.json", ("--report", "report.json"),
         ["t1_us", "t2_us", "levels", "target"]),
        ("robustness", "out.csv", ("--amplitudes", "0", "--samples", "2"),
         ["amplitudes_mhz", "samples", "target", "seed"]),
    ])
    def test_config_key_order(self, workdir, command, out, extra, own_keys):
        assert main([
            command, "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"), "--out", out, *extra,
        ]) == 0
        assert list(read_json(workdir / "out.manifest.json")["config"]) == [
            "device", "device_sha256", "pulses", "pulses_sha256",
            "segment_duration_ns", "search_references_ghz",
            "trotter_step_ns", *own_keys,
        ]

    def test_hash_covers_pulse_contents(self, workdir):
        # Two pulse files under one path: the same path, segment duration
        # and references, told apart by the digest of the bytes read.
        pulse = load_toy_pulse()
        det = pulse.detunings.copy()
        det[0, 0] += 1e-3
        hashes = []
        for name, schedule in (("a", pulse), ("b", pulse.with_detunings(det))):
            write_pulse(workdir / "same.json", schedule)
            assert main([
                "simulate", "--device", str(workdir / "device.json"),
                "--pulses", str(workdir / "same.json"),
                "--out", f"{name}.json",
            ]) == 0
            hashes.append(read_json(workdir / f"{name}.json")["manifest_hash"])
        assert hashes[0] != hashes[1]

    def test_hash_depends_on_config(self, workdir):
        main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.json"), "--out", "a.json",
        ])
        main([
            "simulate", "--device", str(workdir / "device.json"),
            "--pulses", str(workdir / "pulse.csv"),
            "--references", *[str(r) for r in TOY_REFERENCES],
            "--out", "b.json",
        ])
        a = read_json(workdir / "a.json")
        b = read_json(workdir / "b.json")
        assert a["manifest_hash"] != b["manifest_hash"]
        assert a["fidelity"] == b["fidelity"]
