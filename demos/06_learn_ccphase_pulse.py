"""Learn the 50 ns three-qubit controlled-controlled-phase pulse.

A thin wrapper over ``fluxgate optimize`` with the settings behind
``fluxgate/data/ccphase_pulse_3q.json``: the three-transmon chain, the
feasible ``three_qubit_constraints("references")`` profile, 50 x 1 ns
segments and the default 0.1 ns Trotter step.  Differential evolution
(seed 2019, population 200, 100 generations) is followed by the windowed
+/-eps local search with the step ladder 100 MHz, 10 MHz, ..., 1 kHz
(at most 1000 iterations, target 0.9999); see ``configs/three_qubit_*``.

The local search stops by ``local_search``'s rule: at the target, at the
iteration cap, or after an iteration whose 1 kHz sweep accepts no move.
The shipped file came from an earlier version of this script, which went
on after such an iteration, and it predates a 1-2 ulp change in scoring
(it records F = 0.9999000393549348; scoring it today gives ...361).
Whether a rerun retraces it is unverified.

That run took about 90 minutes on one core of a shared 2-core host, 78
of them in 72 local-search iterations.  So the search checkpoints into
one ``--state`` file every 25 generations and after each local-search
iteration, and the same command run again resumes from it:

    python demos/06_learn_ccphase_pulse.py --out ccz.csv --state ccz.state.json

The JSON twin, manifest and history CSV are written next to ``--out``;
the packaged pulse file is left as it is.
"""

import argparse
import os
import sys
from pathlib import Path

from fluxgate import cli

CONFIGS = Path(__file__).resolve().parent / "configs"


def optimize_args(out, state):
    """``fluxgate optimize`` arguments of the run, resuming from ``state``
    when that checkpoint exists."""
    out, state = os.path.abspath(out), os.path.abspath(state)
    args = [
        "optimize",
        "--device", str(CONFIGS / "three_transmon_chain.json"),
        "--constraints", str(CONFIGS / "three_qubit_constraints_feasible.json"),
        "--de-config", str(CONFIGS / "three_qubit_de.json"),
        "--local-search", str(CONFIGS / "three_qubit_local_search.json"),
        "--references", "5.61", "6.0", "6.39", "--segments", "50",
        "--out", out, "--log", os.path.splitext(out)[0] + "_history.csv",
        "--state-out", state,
    ]
    return args + (["--resume", state] if os.path.exists(state) else [])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="ccphase_pulse_3q.csv",
                    help="pulse CSV (JSON twin, manifest and history beside it)")
    ap.add_argument("--state", default="ccphase_pulse_3q.state.json",
                    help="checkpoint file, resumed from when it exists")
    ns = ap.parse_args()
    sys.exit(cli.main(optimize_args(ns.out, ns.state)))
