"""CLI tests: each subcommand end to end on small workloads, the manifest
hash contract, and byte-identical reruns."""

import json

import numpy as np
import pytest

from fluxgate.cli import main
from fluxgate.device import device_to_json
from fluxgate.optimizer import constraints_to_json
from fluxgate.profiles import (
    TOY_REFERENCES,
    load_toy_pulse,
    toy_constraints,
    toy_two_transmon_chain,
)
from fluxgate.pulses import save_schedule_csv, save_schedule_json


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLUXGATE_OUT_DIR", str(tmp_path))
    device = tmp_path / "device.json"
    device.write_text(json.dumps(device_to_json(toy_two_transmon_chain())))
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps(constraints_to_json(toy_constraints())))
    pulse = load_toy_pulse()
    save_schedule_json(pulse, tmp_path / "pulse.json")
    save_schedule_csv(pulse, tmp_path / "pulse.csv")
    return tmp_path


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


@pytest.mark.parametrize("command", ["simulate", "qpt"])
def test_pole_crossing_pulse_reports_error(workdir, capsys, command):
    # Qubit M detuned by 1.8 GHz in the first segment sits on a resonator
    # pole: a clean error and exit code 2, not a traceback.
    pulse = load_toy_pulse()
    det = pulse.detunings.copy()
    det[1, 0] = 1.8
    save_schedule_json(pulse.with_detunings(det), workdir / "pole.json")
    rc = main([
        command, "--device", str(workdir / "device.json"),
        "--pulses", str(workdir / "pole.json"), "--out", "out.json",
        *(["--report", "report.json"] if command == "qpt" else []),
    ])
    assert rc == 2
    assert "error: singular Hamiltonian at t=0.05 ns (transmon 1)" in \
        capsys.readouterr().err


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
        assert out.count("PASS") == 10
        assert "PASS  batched evolution vs per-segment exponentials" in out
        assert "PASS  phase fit is a local maximum" in out
        assert "PASS  stacked density evolution vs dense dissipator" in out
        assert "PASS  incremental product tree vs cold product" in out
        assert ("PASS  exponential without per-block checks vs per-block "
                "oracle") in out


class TestManifest:
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
