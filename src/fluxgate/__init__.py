"""Flux-detuning pulse design and verification for transmon chains.

Library layout:

* :mod:`fluxgate.device` -- dressed chain Hamiltonian in a truncated basis
* :mod:`fluxgate.pulses` -- detuning schedules, waveforms, CSV/JSON codecs
* :mod:`fluxgate.propagator` -- Trotterized closed-system evolution
* :mod:`fluxgate.fidelity` -- projection, phase compensation, gate fidelity
* :mod:`fluxgate.optimizer` -- constrained differential evolution + local search
* :mod:`fluxgate.opensystem` -- Lindblad evolution and process tomography
* :mod:`fluxgate.robustness` -- Erf-smoothing distortion and noise sweeps
* :mod:`fluxgate.profiles` -- shipped device/constraint/pulse profiles
* :mod:`fluxgate.cli` -- the ``fluxgate`` command-line pipeline

The package re-exports the ``__all__`` of every module above except
``profiles`` and ``cli``; each module's ``__all__`` is the one list of its
public names.
"""

from . import (
    device,
    errors,
    fidelity,
    opensystem,
    optimizer,
    propagator,
    pulses,
    robustness,
)
from .device import *  # noqa: F403
from .errors import *  # noqa: F403
from .fidelity import *  # noqa: F403
from .opensystem import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .propagator import *  # noqa: F403
from .pulses import *  # noqa: F403
from .robustness import *  # noqa: F403

__all__ = [
    name
    for module in (device, errors, pulses, propagator, fidelity, optimizer,
                   opensystem, robustness)
    for name in module.__all__
]

__version__ = "0.1.0"
