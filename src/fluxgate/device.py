"""Effective Hamiltonian of a chain of resonator-coupled transmons.

The model is a linear chain of weakly anharmonic transmons, each coupled
to its nearest neighbour through a bus resonator that is never populated.
Adiabatic elimination of the resonators leaves an effective qudit chain:
each transmon keeps its lowest ``levels_per_transmon`` levels, transition
frequencies are dressed by the dispersive Lamb shift, and neighbouring
transmons exchange single excitations with a resonator-mediated strength.

Unit convention
---------------
All configuration values (transmon frequencies, anharmonicities, coupling
strengths, resonator frequencies) are plain frequencies in GHz.  Operators
returned by :func:`build_hamiltonian` are in angular units, rad/ns, i.e.
every GHz value is multiplied by 2*pi on entry into a matrix.  Time is
measured in ns throughout the library, so ``exp(-i H t)`` needs no further
conversion factors.
"""

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SingularityError

TWO_PI = 2.0 * np.pi

__all__ = [
    "TransmonSpec",
    "ResonatorCoupling",
    "DeviceChain",
    "TruncatedBasis",
    "enumerate_basis",
    "basis_for",
    "full_basis",
    "dressed_frequency",
    "coupling_strength",
    "build_hamiltonian",
    "device_from_json",
    "device_to_json",
    "load_device",
]


@dataclass(frozen=True)
class TransmonSpec:
    """Static parameters of one transmon in the chain.

    Parameters
    ----------
    index : int
        0-based position in the chain.
    bare_frequency : float
        Bare |0>-|1> transition frequency in GHz.
    anharmonicity : float
        Level-spacing deviation in GHz; negative in the transmon regime.
    idle_frequency : float, optional
        Pre-gate park frequency in GHz, used by boundary constraints.
        Defaults to the bare frequency.
    """

    index: int
    bare_frequency: float
    anharmonicity: float
    idle_frequency: float = None

    def __post_init__(self):
        if self.bare_frequency <= 0:
            raise ValueError(
                f"transmon {self.index}: bare_frequency must be positive, "
                f"got {self.bare_frequency}"
            )
        if self.idle_frequency is None:
            object.__setattr__(self, "idle_frequency", self.bare_frequency)


@dataclass(frozen=True)
class ResonatorCoupling:
    """Bus resonator linking transmons ``left_index`` and ``left_index + 1``.

    ``g_left`` and ``g_right`` are the coupling strengths (GHz) of the left
    and right transmon to this resonator; ``resonator_frequency`` is the bus
    frequency in GHz.
    """

    left_index: int
    right_index: int
    resonator_frequency: float
    g_left: float
    g_right: float

    def __post_init__(self):
        if self.right_index != self.left_index + 1:
            raise ValueError(
                "resonator couplings must link nearest neighbours: got "
                f"({self.left_index}, {self.right_index})"
            )

    def g_for(self, transmon_index):
        """Coupling strength seen by one of the two attached transmons."""
        if transmon_index == self.left_index:
            return self.g_left
        if transmon_index == self.right_index:
            return self.g_right
        raise ValueError(
            f"transmon {transmon_index} is not attached to resonator "
            f"({self.left_index}, {self.right_index})"
        )


def _as_tuple(seq):
    return seq if isinstance(seq, tuple) else tuple(seq)


@dataclass(frozen=True)
class DeviceChain:
    """A linear chain of transmons with nearest-neighbour resonator buses.

    ``levels_per_transmon`` is the per-transmon truncation (4 by default,
    3 supported) and ``max_total_excitation`` caps the total excitation
    number kept in the working basis.  ``dispersive_floor`` (GHz) is the
    minimum allowed distance of any modelled transition from a resonator
    pole; constructions and evolutions that get closer raise
    :class:`~fluxgate.errors.SingularityError`.
    """

    transmons: tuple
    couplings: tuple
    levels_per_transmon: int = 4
    max_total_excitation: int = 3
    dispersive_floor: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "transmons", _as_tuple(self.transmons))
        object.__setattr__(self, "couplings", _as_tuple(self.couplings))
        n = len(self.transmons)
        if n < 1:
            raise ValueError("chain needs at least one transmon")
        if len(self.couplings) != n - 1:
            raise ValueError(
                f"expected {n - 1} couplings for {n} transmons, "
                f"got {len(self.couplings)}"
            )
        for k, t in enumerate(self.transmons):
            if t.index != k:
                raise ValueError(f"transmon at position {k} has index {t.index}")
        for k, c in enumerate(self.couplings):
            if c.left_index != k:
                raise ValueError(
                    f"coupling at position {k} links ({c.left_index}, "
                    f"{c.right_index}); chain order requires left_index == {k}"
                )
        if not 2 <= self.levels_per_transmon <= 4:
            raise ValueError(
                f"levels_per_transmon must be 2..4, got {self.levels_per_transmon}"
            )
        cap = n * (self.levels_per_transmon - 1)
        if not 1 <= self.max_total_excitation <= cap:
            raise ValueError(
                f"max_total_excitation must be 1..{cap}, "
                f"got {self.max_total_excitation}"
            )
        if self.levels_per_transmon >= 3:
            for t in self.transmons:
                if t.anharmonicity == 0:
                    raise ValueError(
                        f"transmon {t.index}: zero anharmonicity degenerates the "
                        "level spacing once levels j >= 2 are modelled"
                    )
        self._check_dispersive_floor()

    def _check_dispersive_floor(self):
        # Static guard: bare and idle frequencies of every attached transmon
        # must keep all modelled transitions clear of each resonator pole.
        pairs = _attachments(self)
        rows = np.array([self.bare_frequencies(), self.idle_frequencies()])
        _dispersive_denominators(
            rows[:, pairs.transmon], pairs, np.arange(self.levels_per_transmon),
            self.dispersive_floor,
        )

    @property
    def n_transmons(self):
        return len(self.transmons)

    def adjacent_couplings(self, transmon_index):
        """Resonators attached to one transmon (one at the ends, two inside)."""
        return tuple(
            c
            for c in self.couplings
            if transmon_index in (c.left_index, c.right_index)
        )

    def idle_frequencies(self):
        return tuple(t.idle_frequency for t in self.transmons)

    def bare_frequencies(self):
        return tuple(t.bare_frequency for t in self.transmons)

    def with_levels(self, levels_per_transmon, max_total_excitation=None):
        """A copy of this chain truncated to a different level count."""
        if max_total_excitation is None:
            cap = self.n_transmons * (levels_per_transmon - 1)
            max_total_excitation = min(self.max_total_excitation, cap)
        return DeviceChain(
            self.transmons,
            self.couplings,
            levels_per_transmon=levels_per_transmon,
            max_total_excitation=max_total_excitation,
            dispersive_floor=self.dispersive_floor,
        )


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered multi-transmon occupation states with a total-excitation cap.

    States are tuples of per-transmon levels, lexicographically ascending,
    which for qubit-like states coincides with binary ordering (leftmost
    transmon most significant).
    """

    states: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _as_tuple(self.states))
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.states)}
        )

    @property
    def dimension(self):
        return len(self.states)

    @property
    def n_transmons(self):
        return len(self.states[0])

    def index_of(self, state):
        return self._index[tuple(state)]

    def __contains__(self, state):
        return tuple(state) in self._index

    def occupations(self):
        """States as an integer array of shape (dimension, n_transmons)."""
        return np.array(self.states, dtype=np.intp)


def enumerate_basis(n, j_max, e_max):
    """All occupation vectors with levels below ``j_max`` and total <= ``e_max``.

    Parameters
    ----------
    n : int
        Number of transmons (>= 1).
    j_max : int
        Levels per transmon (>= 2); levels run 0..j_max-1.
    e_max : int
        Total-excitation cap (>= 1).

    Returns
    -------
    TruncatedBasis
        Lexicographically ordered basis.  For (3, 4, 3) this is the
        20-state manifold used for three-transmon gate simulations.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if j_max < 2:
        raise ValueError(f"j_max must be >= 2, got {j_max}")
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    states = tuple(
        s for s in itertools.product(range(j_max), repeat=n) if sum(s) <= e_max
    )
    return TruncatedBasis(states)


@lru_cache(maxsize=64)
def basis_for(device):
    """The device's working basis (excitation-truncated)."""
    return enumerate_basis(
        device.n_transmons, device.levels_per_transmon, device.max_total_excitation
    )


def full_basis(device):
    """The untruncated product basis of dimension levels**n."""
    n = device.n_transmons
    levels = device.levels_per_transmon
    return enumerate_basis(n, levels, n * (levels - 1))


class _Pairs(NamedTuple):
    """Transmon-resonator attachments as parallel arrays, one entry each."""

    transmon: np.ndarray
    resonator: np.ndarray
    anharmonicity: np.ndarray
    resonator_frequency: np.ndarray
    g: np.ndarray


def _pairs(links):
    """Attachment arrays from (TransmonSpec, ResonatorCoupling) pairs."""
    return _Pairs(
        np.array([t.index for t, _ in links], dtype=np.intp),
        np.array([c.left_index for _, c in links], dtype=np.intp),
        np.array([t.anharmonicity for t, _ in links], dtype=float),
        np.array([c.resonator_frequency for _, c in links], dtype=float),
        np.array([c.g_for(t.index) for t, c in links], dtype=float),
    )


def _attachments(device):
    """Every transmon-resonator attachment, transmon first, then resonator."""
    return _pairs([
        (t, c) for t in device.transmons for c in device.adjacent_couplings(t.index)
    ])


def _pole_denominators(frequencies, pairs, offsets, floor):
    """The dispersive denominators and the mask of those within ``floor``
    of a pole; see :func:`_dispersive_denominators`, which raises on the
    mask."""
    den = (
        frequencies[:, :, None] - pairs.resonator_frequency[:, None]
        + np.multiply(offsets, pairs.anharmonicity[:, None])
    )
    return den, np.abs(den) <= floor


def _dispersive_denominators(frequencies, pairs, offsets, floor, level_shift=0):
    """Dispersive denominators f - w_r + j*delta in GHz, checked against the floor.

    This is the one resonator-pole check of the library: the static device
    guard, the dressed energies, the exchange couplings and every evolved
    Hamiltonian use it.

    Parameters
    ----------
    frequencies : ndarray, shape (rows, n_pairs)
        Frequency of each attachment's transmon, one row per sample.
    pairs : _Pairs
        The attachments (transmon, resonator, anharmonicity, resonator
        frequency, g).
    offsets : array_like of int, shape (levels,) or (n_pairs, levels)
        Level offsets j; the denominator of level j' is offset j' - 1.
    floor : float
        Minimum allowed |denominator| in GHz.
    level_shift : int
        Added to the offset to name the level in the error.

    Returns
    -------
    ndarray, shape (rows, n_pairs, levels)

    Raises
    ------
    SingularityError
        At the first denominator within the floor: earliest row, then
        transmon, then resonator, then level.  ``row`` names the row.
    """
    den, bad = _pole_denominators(frequencies, pairs, offsets, floor)
    if bad.any():
        row, a, j = np.unravel_index(np.argmax(bad), bad.shape)
        k = int(pairs.transmon[a])
        level = int(np.broadcast_to(offsets, bad.shape[1:])[a, j]) + level_shift
        w_r = float(pairs.resonator_frequency[a])
        raise SingularityError(
            f"transmon {k} level {level} at {float(frequencies[row, a])} GHz "
            f"is within {floor} GHz of resonator {w_r} GHz",
            transmon=k,
            level=level,
            resonator_frequency=w_r,
            row=int(row),
        )
    return den


def dressed_frequency(transmon, level, current_frequency, adjacent_resonators,
                      dispersive_floor=0.1):
    """Dressed energy of one transmon level, in GHz.

    The energy of level ``j`` at qubit frequency ``f`` is

        j*f + (delta/2)*(j-1)*j + sum_r j*g_r^2 / (f - w_r + (j-1)*delta)

    with one Lamb-shift term per attached resonator (one at the chain ends,
    two in the middle).

    Parameters
    ----------
    transmon : TransmonSpec
    level : int
        Level index j, 0 <= j < levels_per_transmon.
    current_frequency : float
        The instantaneous qubit frequency in GHz (flux tuning moves it away
        from the bare value).
    adjacent_resonators : sequence of ResonatorCoupling
        The resonators attached to this transmon.
    dispersive_floor : float
        Minimum allowed |denominator| in GHz before a SingularityError.

    Returns
    -------
    float
        Dressed energy in GHz (0 for j = 0: every term carries a factor j).
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    j = int(level)
    if j == 0:
        return 0.0
    f = current_frequency
    pairs = _pairs([(transmon, c) for c in adjacent_resonators])
    den = _dispersive_denominators(
        np.full((1, len(pairs.g)), f), pairs, [j - 1], dispersive_floor,
        level_shift=1,
    )
    value = j * f + 0.5 * transmon.anharmonicity * (j - 1) * j
    for g, d in zip(pairs.g.tolist(), den[0, :, 0].tolist()):
        value += j * g * g / d
    return value


def coupling_strength(left, j_left, right, j_right, coupling,
                      left_frequency=None, right_frequency=None,
                      dispersive_floor=0.1):
    """Resonator-mediated exchange coupling J between two level pairs, GHz.

    Symmetric under swapping the two transmons together with their levels.

    Parameters
    ----------
    left, right : TransmonSpec
        The two coupled transmons.
    j_left, j_right : int
        Level indices entering the dispersive denominators.
    coupling : ResonatorCoupling
        The shared bus resonator.
    left_frequency, right_frequency : float, optional
        Instantaneous qubit frequencies in GHz; default to the bare values.
    """
    f_l = left.bare_frequency if left_frequency is None else left_frequency
    f_r = right.bare_frequency if right_frequency is None else right_frequency
    den_l, den_r = _dispersive_denominators(
        np.array([[f_l, f_r]]), _pairs([(left, coupling), (right, coupling)]),
        [[j_left], [j_right]], dispersive_floor,
    )[0, :, 0].tolist()
    g2 = coupling.g_for(left.index) * coupling.g_for(right.index)
    return g2 * (den_l + den_r) / (2.0 * den_l * den_r)


class _HamiltonianTemplate:
    """Precomputed sparsity pattern of the chain Hamiltonian on a basis.

    The basis graph (which state pairs exchange an excitation through which
    resonator), the total-excitation blocks and every term of the
    Hamiltonian that does not depend on frequency (the level ramp, the
    static energies, the Lamb-shift numerators and the flat scatter
    indices) are built once; ``build`` then only evaluates the
    frequency-dependent terms for a stack of frequency rows and scatters
    them into dense matrices.
    """

    def __init__(self, device, basis):
        if basis.n_transmons != device.n_transmons:
            raise ValueError(
                f"basis has {basis.n_transmons} transmons, "
                f"device has {device.n_transmons}"
            )
        levels = device.levels_per_transmon
        occ = basis.occupations()
        if occ.max(initial=0) >= levels:
            raise ValueError("basis contains levels outside the device truncation")
        self.device = device
        self.basis = basis
        self.occupations = occ
        self.dim = basis.dimension
        self.levels = levels
        n = device.n_transmons
        self.pairs = _attachments(device)
        pair_of = {
            (int(k), int(r)): a
            for a, (k, r) in enumerate(zip(self.pairs.transmon, self.pairs.resonator))
        }

        # Off-diagonal entries: move one excitation from transmon k+1 to k.
        # Each entry's coupling reads the denominators of the two attachments
        # of resonator k, at the level offsets jk and jk1.
        rows, cols, left, right, jk, jk1, fac = [], [], [], [], [], [], []
        for p, state in enumerate(basis.states):
            for k in range(n - 1):
                if state[k] + 1 >= levels or state[k + 1] < 1:
                    continue
                partner = list(state)
                partner[k] += 1
                partner[k + 1] -= 1
                rows.append(basis.index_of(partner))
                cols.append(p)
                left.append(pair_of[k, k])
                right.append(pair_of[k + 1, k])
                jk.append(state[k])
                jk1.append(state[k + 1] - 1)
                fac.append(np.sqrt((state[k] + 1) * state[k + 1]))

        # Everything of build that does not depend on the frequencies, each
        # value computed with the operations build used to run per call, so
        # the matrices keep their bits.
        g = self.pairs.g
        j = np.arange(levels)
        delta = np.array([t.anharmonicity for t in device.transmons])[:, None]
        self._offsets = np.arange(levels - 1)
        self._ramp = j
        self._static = 0.5 * delta * (j - 1) * j
        self._lamb_numerators = j[1:] * g[:, None] * g[:, None]
        # Lamb shifts are added one attachment at a time, in attachment
        # order, so the middle transmon's two shifts keep their order.
        self._lamb_targets = tuple(
            (int(k), a) for a, k in enumerate(self.pairs.transmon)
        )
        self._transmon_axis = np.arange(n)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._jk = np.array(jk, dtype=np.intp)
        self._jk1 = np.array(jk1, dtype=np.intp)
        self._g2 = g[self._left] * g[self._right]
        self._two_pi_fac = TWO_PI * np.array(fac)
        # Flat scatter indices into the (S, dim * dim) matrices.
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        self._diag_scatter = np.arange(self.dim) * (self.dim + 1)
        self._upper = rows * self.dim + cols
        self._lower = cols * self.dim + rows

        # Total excitation is conserved, so H is block diagonal over these
        # index sets (1/3/6/10 states for the 20-state working basis).
        # block_index[b] selects block b from an (S, dim, dim) stack.
        excitation = occ.sum(axis=1)
        self.blocks = tuple(
            np.flatnonzero(excitation == e) for e in sorted(set(excitation.tolist()))
        )
        self.block_index = tuple(
            (slice(None), block[:, None], block) for block in self.blocks
        )

    def pole_rows(self, frequencies):
        """Mask of the frequency rows that :meth:`build` refuses, because a
        level lies within the dispersive floor of a resonator pole."""
        return _pole_denominators(
            frequencies[:, self.pairs.transmon], self.pairs, self._offsets,
            self.device.dispersive_floor,
        )[1].any(axis=(1, 2))

    def build(self, frequencies):
        """Dense real symmetric matrices in angular units (rad/ns).

        ``frequencies`` has shape (S, n_transmons), one row of qubit
        frequencies in GHz per matrix; the result has shape (S, dim, dim).
        Every entry is real and each coupling is written to both triangles,
        so the float64 result is exactly symmetric, hence Hermitian.  A
        resonator pole raises SingularityError naming the earliest row.

        The level ramp, the static energies, the Lamb-shift numerators and
        the flat scatter indices come from the template; a call only
        evaluates the frequency-dependent terms and writes them into one
        flat (S, dim * dim) array.
        """
        count = len(frequencies)
        den = _dispersive_denominators(
            frequencies[:, self.pairs.transmon], self.pairs, self._offsets,
            self.device.dispersive_floor, level_shift=1,
        )
        # Dressed energies w[s, k, j] of level j of transmon k.
        w = self._ramp * frequencies[:, :, None] + self._static
        lamb = self._lamb_numerators / den
        for k, a in self._lamb_targets:
            w[:, k, 1:] += lamb[:, a]
        diag = w[:, self._transmon_axis, self.occupations].sum(axis=-1)
        h = np.zeros((count, self.dim * self.dim))
        h[:, self._diag_scatter] = TWO_PI * diag
        if len(self._upper):
            den_l = den[:, self._left, self._jk]
            den_r = den[:, self._right, self._jk1]
            amps = self._two_pi_fac * (
                self._g2 * (den_l + den_r) / (2.0 * den_l * den_r)
            )
            h[:, self._upper] = amps
            h[:, self._lower] = amps
        return h.reshape(count, self.dim, self.dim)


@lru_cache(maxsize=64)
def _template(device, basis):
    return _HamiltonianTemplate(device, basis)


def build_hamiltonian(device, basis, frequencies):
    """Chain Hamiltonian on a truncated basis, in angular units (rad/ns).

    Diagonal entries sum the dressed level energies over each occupation
    vector; off-diagonal entries connect neighbour pairs that exchange one
    excitation, with amplitude sqrt(j_k+1)*sqrt(j_{k+1}+1)*J.  The result
    is exactly Hermitian and block diagonal in the total excitation number.

    Parameters
    ----------
    device : DeviceChain
    basis : TruncatedBasis
    frequencies : sequence of float
        Instantaneous qubit frequencies in GHz, one per transmon.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.shape != (device.n_transmons,):
        raise ValueError(
            f"expected {device.n_transmons} frequencies, "
            f"got shape {frequencies.shape}"
        )
    return _template(device, basis).build(frequencies[None])[0].astype(complex)


def device_from_json(doc):
    """Build a :class:`DeviceChain` from a parsed JSON document.

    Expected keys: ``transmons`` (list of ``{bare_frequency_ghz,
    anharmonicity_ghz, idle_frequency_ghz}``), ``resonators`` (list of
    ``{frequency_ghz, g_left_ghz, g_right_ghz}``), ``levels_per_transmon``,
    ``max_total_excitation``; optional ``dispersive_floor_ghz``.
    """
    transmons = tuple(
        TransmonSpec(
            index=i,
            bare_frequency=t["bare_frequency_ghz"],
            anharmonicity=t["anharmonicity_ghz"],
            idle_frequency=t.get("idle_frequency_ghz"),
        )
        for i, t in enumerate(doc["transmons"])
    )
    couplings = tuple(
        ResonatorCoupling(
            left_index=i,
            right_index=i + 1,
            resonator_frequency=r["frequency_ghz"],
            g_left=r["g_left_ghz"],
            g_right=r["g_right_ghz"],
        )
        for i, r in enumerate(doc["resonators"])
    )
    return DeviceChain(
        transmons,
        couplings,
        levels_per_transmon=doc.get("levels_per_transmon", 4),
        max_total_excitation=doc.get("max_total_excitation", 3),
        dispersive_floor=doc.get("dispersive_floor_ghz", 0.1),
    )


def device_to_json(device):
    """Inverse of :func:`device_from_json`."""
    return {
        "transmons": [
            {
                "bare_frequency_ghz": t.bare_frequency,
                "anharmonicity_ghz": t.anharmonicity,
                "idle_frequency_ghz": t.idle_frequency,
            }
            for t in device.transmons
        ],
        "resonators": [
            {
                "frequency_ghz": c.resonator_frequency,
                "g_left_ghz": c.g_left,
                "g_right_ghz": c.g_right,
            }
            for c in device.couplings
        ],
        "levels_per_transmon": device.levels_per_transmon,
        "max_total_excitation": device.max_total_excitation,
        "dispersive_floor_ghz": device.dispersive_floor,
    }


def load_device(path):
    """Load a device description from a JSON file."""
    with open(path) as fh:
        return device_from_json(json.load(fh))
