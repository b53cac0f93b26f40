"""fluxgate benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload de_3q --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; fluxgate is imported from its
``src/`` directory.  Every workload runs in fresh child processes (so the
library's step cache and Hamiltonian-template cache start empty) with the
BLAS thread count pinned to 1.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
SETUP_SAMPLES fresh processes, each timing imports, input generation and
one warm-up call, rescaled by the measuring process's median calibration
reading (see clock.py).  ``--trace 1`` runs the measured phase with every public
layer function wrapped in spans and prints the per-layer metrics.  It then
replays the same rounds untraced in another fresh process, checks that the
outputs are bit-identical and reports the time ratio as
``trace_overhead_ratio``.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKLOADS = ("de_3q", "ls_3q", "qpt_3q", "noise_toy")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, *extra):
    """Run workload.py in a fresh interpreter and parse its JSON line."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for testing the harness")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (SOURCE / "fluxgate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fluxgate sources under {SOURCE}; run from a "
                 "repository checkout")

    main_run = run_child(args, "--trace", str(args.trace))
    checks = list(main_run["checks"])
    if args.trace:
        replay = run_child(args, "--rounds", str(main_run["rounds"]))
        checks.append(["trace.outputs_bit_identical",
                       replay["digest"] == main_run["digest"],
                       f"{main_run['digest'][:12]} vs {replay['digest'][:12]}"])
        metrics = dict(main_run["layers"])
        metrics["trace_overhead_ratio"] = (
            main_run["work_s"] / replay["work_s"], "ratio")
    else:
        setups = [main_run] + [run_child(args, "--setup-only")
                               for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)]
        values = {name: main_run[name] for name in END_TO_END_UNITS}
        main_run["raw"]["setup_s"] = median(s["setup_s"] for s in setups)
        values["setup_s"] = main_run["raw"]["setup_s"] * main_run["speed_factor"]
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}

    failed_checks = [c for c in checks if not c[1]]
    attempted = main_run["operations"] + main_run["raised"] + len(checks)
    failed = main_run["raised"] + len(failed_checks)

    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{main_run['rounds']}  operations {main_run['operations']}  "
          f"latency samples {main_run['op_samples']}  measured "
          f"{main_run['raw']['work_s']:.2f} s")
    # The 90th percentile is printed but not a metric: on a shared host it
    # follows bursts shorter than the calibration interval.
    print(f"latency p50 {main_run['op_ms_p50']:.6g} ms  p90 "
          f"{main_run['op_ms_p90']:.6g} ms (calibrated)")
    print("machine " + json.dumps(main_run["facts"]))
    print("raw (uncalibrated) " + json.dumps(main_run["raw"]))
    for name, ok, detail in failed_checks:
        print(f"CHECK FAILED {name}: {detail}")
    print(f"checks {len(checks) - len(failed_checks)}/{len(checks)} passed  "
          f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
