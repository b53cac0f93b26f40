"""Ready-made device, constraint, and pulse profiles.

Two device scales ship in-repo:

* a three-transmon chain (idle frequencies 5/6/7 GHz, anharmonicity
  -0.3 GHz, couplings 0.2 GHz through 8.05 and 8.2 GHz resonators) with
  the matching search references and constraint set;
* a desk-scale two-transmon toy (search window parked on the |11>-|02>
  avoided crossing) whose controlled-phase optimization fits in minutes,
  plus a learned pulse stored under ``fluxgate/data``.

The printed three-qubit constraint profile measures the first/last-point
boundary rule from the idle frequencies; with the L and R search
references 0.61 GHz away from idle, that rule cannot be satisfied
together with the detuning ranges.  Both rules are kept as stated and a
``boundary_from="references"`` variant gives a feasible profile for
sampling and optimization.
"""

import json
from importlib import resources

from .device import DeviceChain, ResonatorCoupling, TransmonSpec
from .optimizer import ConstraintSet, DetuningRange
from .pulses import schedule_from_json

__all__ = [
    "three_transmon_chain",
    "THREE_QUBIT_REFERENCES",
    "three_qubit_constraints",
    "toy_two_transmon_chain",
    "TOY_REFERENCES",
    "toy_constraints",
    "load_toy_pulse",
    "load_ccphase_pulse",
]

THREE_QUBIT_REFERENCES = (5.61, 6.0, 6.39)

TOY_REFERENCES = (5.7, 6.0)


def three_transmon_chain(levels_per_transmon=4, max_total_excitation=3):
    """The three-transmon reference chain (L, M, R at 5, 6, 7 GHz)."""
    transmons = (
        TransmonSpec(0, 5.0, -0.3),
        TransmonSpec(1, 6.0, -0.3),
        TransmonSpec(2, 7.0, -0.3),
    )
    couplings = (
        ResonatorCoupling(0, 1, 8.05, 0.2, 0.2),
        ResonatorCoupling(1, 2, 8.2, 0.2, 0.2),
    )
    return DeviceChain(
        transmons,
        couplings,
        levels_per_transmon=levels_per_transmon,
        max_total_excitation=max_total_excitation,
    )


def three_qubit_constraints(boundary_from="idle"):
    """Constraint profile for the three-qubit search.

    ``boundary_from="idle"`` checks first/last points against 5/6/7 GHz as
    stated (infeasible together with the L and R ranges);
    ``boundary_from="references"`` measures from the search references
    instead, yielding a feasible profile.
    """
    if boundary_from == "idle":
        idle = (5.0, 6.0, 7.0)
    elif boundary_from == "references":
        idle = THREE_QUBIT_REFERENCES
    else:
        raise ValueError(f"unknown boundary_from: {boundary_from!r}")
    return ConstraintSet(
        ranges=(
            DetuningRange(0.0, 0.5, lo_inclusive=True, hi_inclusive=False),
            DetuningRange(-0.5, 0.5, lo_inclusive=False, hi_inclusive=False),
            DetuningRange(-0.5, 0.0, lo_inclusive=False, hi_inclusive=True),
        ),
        max_step=0.22,
        boundary_step=0.5,
        idle_frequencies=idle,
        min_separation=0.21,
    )


def toy_two_transmon_chain():
    """Two transmons parked at the |11>-|02> crossing (5.7 and 6.0 GHz)."""
    transmons = (
        TransmonSpec(0, 5.7, -0.3),
        TransmonSpec(1, 6.0, -0.3),
    )
    couplings = (ResonatorCoupling(0, 1, 7.8, 0.3, 0.3),)
    return DeviceChain(transmons, couplings)


def toy_constraints():
    """Feasible desk-scale constraint profile for the toy chain."""
    return ConstraintSet(
        ranges=(
            DetuningRange(-0.45, 0.45),
            DetuningRange(-0.45, 0.45),
        ),
        max_step=0.22,
        boundary_step=0.5,
        idle_frequencies=TOY_REFERENCES,
        min_separation=0.21,
    )


def load_toy_pulse():
    """The learned desk-scale controlled-phase pulse shipped with the repo."""
    return _load_packaged_pulse("toy_cz_pulse.json")


def load_ccphase_pulse():
    """The learned 50 ns three-qubit controlled-controlled-phase pulse.

    Produced in-repo by an earlier version of
    ``demos/06_learn_ccphase_pulse.py``: the two-stage search on the
    three-transmon chain with the feasible constraint profile.  Its
    recorded closed-system fidelity and search settings are stored
    alongside the detunings; the fidelity predates a 1-2 ulp change in
    scoring, and whether a rerun of the demo retraces the pulse is
    unverified.
    """
    return _load_packaged_pulse("ccphase_pulse_3q.json")


def _load_packaged_pulse(name):
    text = (resources.files("fluxgate.data") / name).read_text()
    return schedule_from_json(json.loads(text))
