"""Device-model tests: basis enumeration, dressed energies, couplings,
and the Hamiltonian against an independent brute-force construction."""

import itertools

import numpy as np
import pytest

from fluxgate.device import (
    DeviceChain,
    _attachments,
    _template,
    ResonatorCoupling,
    TransmonSpec,
    basis_for,
    build_hamiltonian,
    coupling_strength,
    device_from_json,
    device_to_json,
    dressed_frequency,
    enumerate_basis,
    full_basis,
)
from fluxgate.errors import SingularityError
from fluxgate.profiles import (
    THREE_QUBIT_REFERENCES,
    TOY_REFERENCES,
    three_transmon_chain,
    toy_two_transmon_chain,
)

TWO_PI = 2 * np.pi

# The 20-state three-excitation manifold for three 4-level transmons.
TWENTY_STATES = [
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1),
    (0, 1, 2), (0, 2, 0), (0, 2, 1), (0, 3, 0), (1, 0, 0), (1, 0, 1),
    (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 2, 0), (2, 0, 0), (2, 0, 1),
    (2, 1, 0), (3, 0, 0),
]


class TestEnumerateBasis:
    def test_twenty_state_manifold(self):
        basis = enumerate_basis(3, 4, 3)
        assert basis.dimension == 20
        assert list(basis.states) == TWENTY_STATES

    def test_single_transmon(self):
        basis = enumerate_basis(1, 4, 3)
        assert list(basis.states) == [(0,), (1,), (2,), (3,)]

    def test_two_transmons_counting_oracle(self):
        # Exhaustive double loop over level pairs with total <= 3.
        expected = sum(
            1 for a in range(4) for b in range(4) if a + b <= 3
        )
        assert expected == 10
        assert enumerate_basis(2, 4, 3).dimension == expected

    def test_lexicographic_order(self):
        basis = enumerate_basis(2, 3, 4)
        assert list(basis.states) == sorted(basis.states)

    @pytest.mark.parametrize("args", [(0, 4, 3), (2, 1, 3), (2, 4, 0)])
    def test_invalid_bounds(self, args):
        with pytest.raises(ValueError):
            enumerate_basis(*args)

    def test_index_map(self):
        basis = enumerate_basis(3, 4, 3)
        for i, s in enumerate(basis.states):
            assert basis.index_of(s) == i
        assert (1, 1, 1) in basis
        assert (2, 2, 2) not in basis


class TestDressedFrequency:
    def setup_method(self):
        self.t = TransmonSpec(0, 5.0, -0.3)
        self.res = ResonatorCoupling(0, 1, 8.05, 0.2, 0.2)

    def test_level_zero_is_exactly_zero(self):
        assert dressed_frequency(self.t, 0, 5.0, [self.res]) == 0.0
        # Every term carries a factor j, so this holds for any parameters.
        assert dressed_frequency(self.t, 0, 8.05 + 0.3, [self.res]) == 0.0

    def test_level_one_hand_value(self):
        # 5 + 0.04 / (5 - 8.05)
        got = dressed_frequency(self.t, 1, 5.0, [self.res])
        assert got == pytest.approx(5.0 + 0.04 / (5.0 - 8.05), abs=1e-12)
        assert got == pytest.approx(4.9868852, abs=1e-7)

    def test_level_two_hand_value(self):
        # 10 - 0.3 + 0.08 / (5 - 8.05 - 0.3)
        got = dressed_frequency(self.t, 2, 5.0, [self.res])
        assert got == pytest.approx(10.0 - 0.3 + 0.08 / (5.0 - 8.35), abs=1e-12)
        assert got == pytest.approx(9.6761194, abs=1e-7)

    def test_two_resonators_sum_lamb_shifts(self):
        r2 = ResonatorCoupling(0, 1, 7.4, 0.15, 0.15)
        one = dressed_frequency(self.t, 1, 5.0, [self.res])
        both = dressed_frequency(self.t, 1, 5.0, [self.res, r2])
        assert both == pytest.approx(one + 0.15 ** 2 / (5.0 - 7.4), abs=1e-12)

    def test_pole_raises_with_context(self):
        # level 2 denominator: f - w_r + delta = 0 at f = 8.35
        with pytest.raises(SingularityError) as err:
            dressed_frequency(self.t, 2, 8.35, [self.res])
        assert err.value.transmon == 0
        assert err.value.level == 2
        assert err.value.resonator_frequency == 8.05


class TestCouplingStrength:
    def setup_method(self):
        self.left = TransmonSpec(0, 5.0, -0.3)
        self.right = TransmonSpec(1, 6.0, -0.3)
        self.res = ResonatorCoupling(0, 1, 8.05, 0.2, 0.2)

    def test_hand_value(self):
        # 0.04 * (-5.1) / (2 * (-3.05) * (-2.05))
        got = coupling_strength(self.left, 0, self.right, 0, self.res)
        assert got == pytest.approx(0.04 * -5.1 / (2 * 3.05 * 2.05), abs=1e-12)
        assert got == pytest.approx(-0.0163135, abs=1e-7)

    def test_symmetry_under_swap(self):
        a = coupling_strength(self.left, 1, self.right, 2, self.res)
        swapped = ResonatorCoupling(0, 1, 8.05, 0.2, 0.2)
        b = coupling_strength(
            TransmonSpec(0, 6.0, -0.3), 2, TransmonSpec(1, 5.0, -0.3), 1, swapped
        )
        assert a == pytest.approx(b, abs=1e-15)

    def test_pole_raises(self):
        with pytest.raises(SingularityError):
            coupling_strength(self.left, 0, self.right, 0, self.res,
                              left_frequency=8.05)

    def test_linear_in_each_g(self):
        res_half = ResonatorCoupling(0, 1, 8.05, 0.1, 0.2)
        full = coupling_strength(self.left, 0, self.right, 0, self.res)
        half = coupling_strength(self.left, 0, self.right, 0, res_half)
        assert half == pytest.approx(0.5 * full, rel=1e-12)
        res_zero = ResonatorCoupling(0, 1, 8.05, 0.0, 0.2)
        assert coupling_strength(self.left, 0, self.right, 0, res_zero) == 0.0


def brute_force_hamiltonian(device, frequencies):
    """Independent oracle: full product-space H from the level energies and
    exchange couplings, built with plain nested loops."""
    n = device.n_transmons
    levels = device.levels_per_transmon
    states = list(itertools.product(range(levels), repeat=n))
    dim = len(states)
    h = np.zeros((dim, dim), dtype=complex)

    def dressed(k, j):
        t = device.transmons[k]
        f = frequencies[k]
        val = j * f + 0.5 * t.anharmonicity * (j - 1) * j
        for c in device.couplings:
            if k not in (c.left_index, c.right_index):
                continue
            g = c.g_left if k == c.left_index else c.g_right
            val += j * g * g / (f - c.resonator_frequency + (j - 1) * t.anharmonicity)
        return val

    def exchange(c, jk, jk1):
        k = c.left_index
        dl = frequencies[k] + device.transmons[k].anharmonicity * jk \
            - c.resonator_frequency
        dr = frequencies[k + 1] + device.transmons[k + 1].anharmonicity * jk1 \
            - c.resonator_frequency
        return c.g_left * c.g_right * (dl + dr) / (2 * dl * dr)

    for p, s in enumerate(states):
        h[p, p] = TWO_PI * sum(dressed(k, s[k]) for k in range(n))
    for c in device.couplings:
        k = c.left_index
        for jk in range(levels - 1):
            for jk1 in range(levels - 1):
                amp = TWO_PI * np.sqrt(jk + 1) * np.sqrt(jk1 + 1) \
                    * exchange(c, jk, jk1)
                for p, s in enumerate(states):
                    if s[k] == jk + 1 and s[k + 1] == jk1:
                        t = list(s)
                        t[k], t[k + 1] = jk, jk1 + 1
                        q = states.index(tuple(t))
                        h[q, p] += amp
                        h[p, q] += amp
    return h, states


class TestBuildHamiltonian:
    def setup_method(self):
        self.device = three_transmon_chain()
        self.basis = basis_for(self.device)

    def test_matches_projected_brute_force(self):
        freqs = (5.0, 6.0, 7.0)
        h = build_hamiltonian(self.device, self.basis, freqs)
        h_full, states = brute_force_hamiltonian(self.device, freqs)
        keep = [i for i, s in enumerate(states) if sum(s) <= 3]
        assert [states[i] for i in keep] == list(self.basis.states)
        assert np.abs(h - h_full[np.ix_(keep, keep)]).max() < 1e-12

    def test_matches_brute_force_at_detuned_frequencies(self):
        freqs = (5.43, 6.21, 6.65)
        h = build_hamiltonian(self.device, self.basis, freqs)
        h_full, states = brute_force_hamiltonian(self.device, freqs)
        keep = [i for i, s in enumerate(states) if sum(s) <= 3]
        assert np.abs(h - h_full[np.ix_(keep, keep)]).max() < 1e-12

    def test_hermitian(self):
        h = build_hamiltonian(self.device, self.basis, (5.3, 6.1, 6.8))
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_excitation_block_structure_exact(self):
        h = build_hamiltonian(self.device, self.basis, (5.0, 6.0, 7.0))
        exc = np.array([sum(s) for s in self.basis.states])
        cross = exc[:, None] != exc[None, :]
        assert np.abs(h[cross]).max() == 0.0

    def test_diagonal_sums_dressed_energies(self):
        freqs = (5.0, 6.0, 7.0)
        h = build_hamiltonian(self.device, self.basis, freqs)
        idx = self.basis.index_of((1, 1, 1))
        expected = sum(
            dressed_frequency(
                self.device.transmons[k], 1, freqs[k],
                self.device.adjacent_couplings(k),
            )
            for k in range(3)
        )
        assert h[idx, idx].real == pytest.approx(TWO_PI * expected, rel=1e-14)

    def test_single_exchange_entry(self):
        freqs = (5.0, 6.0, 7.0)
        h = build_hamiltonian(self.device, self.basis, freqs)
        p = self.basis.index_of((1, 0, 0))
        q = self.basis.index_of((0, 1, 0))
        j00 = coupling_strength(
            self.device.transmons[0], 0, self.device.transmons[1], 0,
            self.device.couplings[0],
        )
        assert h[p, q] == pytest.approx(TWO_PI * j00, abs=1e-12)

    def test_frequency_count_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(self.device, self.basis, (5.0, 6.0))

    def test_full_basis_dimension(self):
        assert full_basis(self.device).dimension == 64


class TestConstruction:
    def test_zero_anharmonicity_rejected_with_high_levels(self):
        with pytest.raises(ValueError, match="anharmonicity"):
            DeviceChain(
                (TransmonSpec(0, 5.0, 0.0),), (), levels_per_transmon=3,
                max_total_excitation=2,
            )

    def test_zero_anharmonicity_allowed_for_two_levels(self):
        dev = DeviceChain(
            (TransmonSpec(0, 5.0, 0.0),), (), levels_per_transmon=2,
            max_total_excitation=1,
        )
        assert dev.levels_per_transmon == 2

    def test_negative_bare_frequency_rejected(self):
        with pytest.raises(ValueError, match="bare_frequency"):
            TransmonSpec(0, -5.0, -0.3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "bare_frequency", "anharmonicity", "idle_frequency"])
    def test_non_finite_transmon_rejected(self, field, value):
        spec = dict(index=0, bare_frequency=5.0, anharmonicity=-0.3)
        spec[field] = value
        with pytest.raises(ValueError, match=f"transmon 0: {field} must be "
                                             "finite"):
            TransmonSpec(**spec)

    @pytest.mark.parametrize("field", [
        "resonator_frequency", "g_left", "g_right"])
    def test_non_finite_coupling_rejected(self, field):
        spec = dict(left_index=0, right_index=1, resonator_frequency=8.05,
                    g_left=0.2, g_right=0.2)
        spec[field] = float("nan")
        with pytest.raises(ValueError, match=f"resonator \\(0, 1\\): {field} "
                                             "must be finite"):
            ResonatorCoupling(**spec)

    def test_non_finite_dispersive_floor_rejected(self):
        # A NaN floor passed every pole comparison, so build returned
        # non-finite matrices on a resonator instead of raising.
        doc = device_to_json(toy_two_transmon_chain())
        doc["dispersive_floor_ghz"] = float("nan")
        with pytest.raises(ValueError, match="dispersive_floor must be "
                                             "finite"):
            device_from_json(doc)

    def test_non_finite_device_json_rejected(self):
        doc = device_to_json(toy_two_transmon_chain())
        doc["transmons"][1]["bare_frequency_ghz"] = float("nan")
        with pytest.raises(ValueError, match="transmon 1: bare_frequency "
                                             "must be finite"):
            device_from_json(doc)

    def test_non_adjacent_coupling_rejected(self):
        with pytest.raises(ValueError, match="nearest"):
            ResonatorCoupling(0, 2, 8.0, 0.2, 0.2)

    def test_coupling_count_enforced(self):
        with pytest.raises(ValueError, match="couplings"):
            DeviceChain(
                (TransmonSpec(0, 5.0, -0.3), TransmonSpec(1, 6.0, -0.3)), ()
            )

    def test_dispersive_floor_guard(self):
        # A resonator sitting on the level-1 transition of transmon 0.
        with pytest.raises(SingularityError):
            DeviceChain(
                (TransmonSpec(0, 5.0, -0.3), TransmonSpec(1, 6.0, -0.3)),
                (ResonatorCoupling(0, 1, 5.05, 0.2, 0.2),),
            )

    def test_excitation_cap_bounds(self):
        with pytest.raises(ValueError, match="max_total_excitation"):
            three_transmon_chain(max_total_excitation=10)

    def test_with_levels(self):
        dev = three_transmon_chain().with_levels(3)
        assert dev.levels_per_transmon == 3
        assert basis_for(dev).dimension == 17

    def test_json_round_trip(self):
        dev = three_transmon_chain()
        doc = device_to_json(dev)
        assert device_from_json(doc) == dev

    @pytest.mark.parametrize("field, value", [
        ("levels_per_transmon", 3.0), ("levels_per_transmon", True),
        ("max_total_excitation", 2.5), ("max_total_excitation", "3"),
    ])
    def test_non_integer_truncation_rejected(self, field, value):
        # A cap of 2.5 capped the basis at 2, a cap of True at 1, and a
        # level count of 3.0 failed in range() as a TypeError.
        dev = three_transmon_chain()
        with pytest.raises(ValueError, match=f"device: {field} must be an "
                                             "integer"):
            DeviceChain(dev.transmons, dev.couplings, **{field: value})


def test_coupling_vanishes_linearly_in_g():
    # J -> 0 as either g -> 0, linearly.
    left, right = TransmonSpec(0, 5.0, -0.3), TransmonSpec(1, 6.0, -0.3)
    values = []
    for g in (0.2, 0.1, 0.05):
        res = ResonatorCoupling(0, 1, 8.05, g, 0.2)
        values.append(coupling_strength(left, 0, right, 0, res))
    assert values[1] == pytest.approx(values[0] / 2, rel=1e-12)
    assert values[2] == pytest.approx(values[0] / 4, rel=1e-12)


def frozen_build(device, basis, frequencies):
    """Oracle: the Hamiltonian batch as the template built it before its
    frequency-independent terms and flat scatter indices were precomputed
    (frozen copy; only the pole check is left out, so pole rows are not
    valid input)."""
    n = device.n_transmons
    levels = device.levels_per_transmon
    occupations = basis.occupations()
    dim = basis.dimension
    pairs = _attachments(device)
    pair_of = {
        (int(k), int(r)): a
        for a, (k, r) in enumerate(zip(pairs.transmon, pairs.resonator))
    }
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
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    left = np.array(left, dtype=np.intp)
    right = np.array(right, dtype=np.intp)
    jk = np.array(jk, dtype=np.intp)
    jk1 = np.array(jk1, dtype=np.intp)
    fac = np.array(fac)
    g2 = pairs.g[left] * pairs.g[right]
    anharmonicities = np.array([t.anharmonicity for t in device.transmons])

    count = len(frequencies)
    offsets = np.broadcast_to(np.arange(levels - 1),
                              (len(pairs.transmon), levels - 1))
    den = (
        frequencies[:, pairs.transmon][:, :, None]
        - pairs.resonator_frequency[:, None]
        + offsets * pairs.anharmonicity[:, None]
    )
    j = np.arange(levels)
    delta = anharmonicities[:, None]
    w = j * frequencies[:, :, None] + 0.5 * delta * (j - 1) * j
    for a, (k, g) in enumerate(zip(pairs.transmon, pairs.g)):
        w[:, k, 1:] += j[1:] * g * g / den[:, a, :]
    diag = w[:, np.arange(n), occupations].sum(axis=-1)
    h = np.zeros((count, dim, dim))
    index = np.arange(dim)
    h[:, index, index] = TWO_PI * diag
    if len(rows):
        den_l = den[:, left, jk]
        den_r = den[:, right, jk1]
        amps = TWO_PI * fac * (g2 * (den_l + den_r) / (2.0 * den_l * den_r))
        h[:, rows, cols] = amps
        h[:, cols, rows] = amps
    return h


def oracle_bases():
    """(device, basis, reference frequencies): the 20-state three-transmon
    working basis, the 10-state toy basis and the 64-state full basis of
    the three-transmon chain at 4 levels."""
    chain = three_transmon_chain()
    toy = toy_two_transmon_chain()
    return [
        (chain, basis_for(chain), THREE_QUBIT_REFERENCES),
        (toy, basis_for(toy), TOY_REFERENCES),
        (chain, full_basis(chain), THREE_QUBIT_REFERENCES),
    ]


def seeded_rows(references, count, seed):
    rng = np.random.default_rng(seed)
    return np.asarray(references) + rng.uniform(-0.4, 0.4,
                                                size=(count, len(references)))


def same_bytes(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


@pytest.mark.parametrize("count", [0, 1, 2, 50])
@pytest.mark.parametrize("which", range(3), ids=["three", "toy", "full64"])
def test_build_matches_frozen_oracle_bytes(which, count):
    # Byte equality, so that a -0.0 where the oracle has +0.0 also fails.
    device, basis, references = oracle_bases()[which]
    rows = seeded_rows(references, count, seed=100 * which + count)
    got = _template(device, basis).build(rows)
    assert same_bytes(got, frozen_build(device, basis, rows))
