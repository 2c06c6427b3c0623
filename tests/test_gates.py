import math

import numpy as np
import pytest

from fragmenta import encoding as enc
from fragmenta import gates

SQ2 = 2 ** -0.5


@pytest.fixture(scope="module")
def block(blocks):
    return blocks[0]


def basis_state(block, k):
    amps = np.zeros(4)
    amps[k] = 1.0
    return enc.logical_state(block, amps)


def random_block_state(rng, block):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return enc.logical_state(block, amps / np.linalg.norm(amps))


# The oracle: dense gates that sweep all 2^16 amplitudes.  RX pairs the two
# halves of a reshape per site, RZ multiplies by a phase table over every
# index, CNOT permutes every index.


def dense_rx(state, lat, sublattice, theta):
    psi = np.array(state, dtype=complex, copy=True)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    for site in lat.a_sites if sublattice == "A" else lat.b_sites:
        m = 1 << int(site)
        view = psi.reshape(-1, 2 * m)
        lo, hi = view[:, :m], view[:, m:]
        tmp = lo.copy()
        lo *= c
        lo += (-1j * s) * hi
        hi *= c
        hi += (-1j * s) * tmp
    return psi


def dense_rz(state, block, sublattice, phi):
    lat = block.lattice
    mask = lat.mask_a if sublattice == "A" else lat.mask_b
    idx = np.arange(block.dimension, dtype=np.uint64)
    mismatch = np.bitwise_count((idx ^ np.uint64(block.alpha)) & np.uint64(mask))
    exponent = lat.n_sublattice - 2.0 * mismatch.astype(np.float64)
    # named, so numpy does not reuse the temporary and swap the operands:
    # with fused multiply-add the imaginary part depends on their order
    phases = np.exp(-1j * (phi / (2.0 * lat.n_sublattice)) * exponent)
    return state * phases


def dense_cnot_permutation(block):
    lat = block.lattice
    idx = np.arange(block.dimension, dtype=np.int64)
    targets = np.zeros(block.dimension, dtype=np.int64)
    for a in lat.a_sites:
        fires = ((idx >> int(a)) & 1) != ((block.alpha >> int(a)) & 1)
        targets ^= np.where(fires, np.int64(1 << int(lat.cnot_partner_table[a])), 0)
    return idx ^ targets


def oracle_differences(psi, lat, block):
    """Largest |support gate - dense gate| per gate and parameter."""
    out = {"cnot": np.abs(gates.apply_logical_cnot(psi, block)
                          - psi[dense_cnot_permutation(block)]).max()}
    for s in ("A", "B"):
        for theta in (np.pi, np.pi / 2, 0.3, 0.0, 2 * np.pi):
            out["rx", s, theta] = np.abs(gates.apply_rx(psi, lat, s, theta)
                                         - dense_rx(psi, lat, s, theta)).max()
        for phi in (0.3, 2.1):
            out["rz", s, phi] = np.abs(gates.apply_rz(psi, block, s, phi)
                                       - dense_rz(psi, block, s, phi)).max()
    return out


def test_gates_match_the_dense_oracle_exactly_on_every_block(lat, blocks):
    # the same floating-point operations per amplitude, so no rounding apart
    rng = np.random.default_rng(41)
    idx = np.arange(1 << lat.n_sites)
    for block in blocks:
        assert np.array_equal(gates.cnot_image(block, idx), dense_cnot_permutation(block))
        diffs = oracle_differences(random_block_state(rng, block), lat, block)
        assert diffs == dict.fromkeys(diffs, 0.0)


def test_gates_match_the_dense_oracle_on_a_full_support_state(lat, block):
    rng = np.random.default_rng(43)
    psi = rng.normal(size=1 << lat.n_sites) + 1j * rng.normal(size=1 << lat.n_sites)
    psi /= np.linalg.norm(psi)
    assert max(oracle_differences(psi, lat, block).values()) <= 1e-15


GATES = {
    "cnot": lambda psi, lat, block: gates.apply_logical_cnot(psi, block),
    "rx": lambda psi, lat, block: gates.apply_rx(psi, lat, "A", 0.3),
    "rz": lambda psi, lat, block: gates.apply_rz(psi, block, "A", 0.3),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gates_reject_a_wrong_length_or_non_finite_state(lat, block, gate):
    psi = basis_state(block, 0)
    for bad_entry in (np.nan, np.inf):
        bad = psi.copy()
        bad[block.members[1]] = bad_entry
        with pytest.raises(ValueError, match="finite"):
            GATES[gate](bad, lat, block)
    for wrong_length in (np.ones(100), psi[:-1], np.append(psi, 0.0)):
        with pytest.raises(ValueError, match="shape"):
            GATES[gate](wrong_length, lat, block)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_rotations_reject_a_non_finite_angle(lat, block, angle):
    psi = basis_state(block, 0)
    with pytest.raises(ValueError, match="theta must be finite"):
        gates.apply_rx(psi, lat, "A", angle)
    with pytest.raises(ValueError, match="phi must be finite"):
        gates.apply_rz(psi, block, "A", angle)


def test_rx_zero_is_identity(lat, block):
    psi = basis_state(block, 0)
    out = gates.apply_rx(psi, lat, "A", 0.0)
    assert np.array_equal(out, psi)


def test_rx_pi_is_logical_x_with_global_phase(lat, block):
    n_s = lat.n_sublattice
    for s, flipped in (("A", 2), ("B", 1)):
        psi = basis_state(block, 0)
        out = gates.apply_rx(psi, lat, s, np.pi)
        expected = (-1j) ** n_s * basis_state(block, flipped)
        assert np.abs(out - expected).max() <= 1e-12


def test_rx_half_pi_leakage_closed_form(lat, block):
    psi = basis_state(block, 0)
    out = gates.apply_rx(psi, lat, "A", np.pi / 2)
    population = enc.logical_tomography(out, block)["population"]
    assert population == pytest.approx(gates.rx_half_pi_population(8), abs=1e-10)
    assert gates.rx_half_pi_population(8) == pytest.approx(2.0 ** -7)


def test_rx_leakage_symmetric_in_angle(lat, block):
    psi = basis_state(block, 0)
    for theta in (0.3, 1.1, 2.0):
        pop1 = enc.logical_tomography(
            gates.apply_rx(psi, lat, "A", theta), block)["population"]
        pop2 = enc.logical_tomography(
            gates.apply_rx(psi, lat, "A", 2 * np.pi - theta), block)["population"]
        assert pop1 == pytest.approx(pop2, abs=1e-12)


def test_rx_leakage_vanishes_at_multiples_of_pi(lat, block):
    psi = basis_state(block, 0)
    for theta in (0.0, np.pi, 2 * np.pi):
        pop = enc.logical_tomography(
            gates.apply_rx(psi, lat, "A", theta), block)["population"]
        assert pop == pytest.approx(1.0, abs=1e-12)


def test_rz_exact_logical_phase(lat, block):
    rng = np.random.default_rng(23)
    for phi in rng.uniform(0, 2 * np.pi, size=8):
        for k, (sa, sb) in enumerate(enc.MEMBER_LABELS):
            psi = basis_state(block, k)
            for s, sigma in (("A", sa), ("B", sb)):
                out = gates.apply_rz(psi, block, s, phi)
                expected = np.exp(-1j * (-1.0) ** sigma * phi / 2) * psi
                assert np.abs(out - expected).max() <= 1e-12


def test_rz_zero_leakage_on_superpositions(lat, block):
    rng = np.random.default_rng(29)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    psi = enc.logical_state(block, amps)
    for phi in (0.4, 2.0, 5.5):
        out = gates.apply_rz(psi, block, "A", phi)
        assert enc.logical_tomography(out, block)["population"] == pytest.approx(
            1.0, abs=1e-12
        )


def test_rz_relative_phase_on_probe(lat, block):
    # the +X_A probe precesses by exactly phi
    probe = enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
    phi = 1.234
    out = gates.apply_rz(probe, block, "A", phi)
    tom = enc.logical_tomography(out, block)
    assert tom["X_A"] == pytest.approx(np.cos(phi), abs=1e-12)
    assert tom["Y_A"] == pytest.approx(np.sin(phi), abs=1e-12)
    assert tom["Z_A"] == pytest.approx(0.0, abs=1e-12)


def test_cnot_truth_table(lat, block):
    # control A, target B on the four logical basis states
    mapping = {}
    for k, (sa, sb) in enumerate(enc.MEMBER_LABELS):
        out = gates.apply_logical_cnot(basis_state(block, k), block)
        nz = np.nonzero(out)[0]
        assert len(nz) == 1 and out[nz[0]] == 1.0
        mapping[(sa, sb)] = int(nz[0])
    assert mapping[(0, 0)] == block.members[0]
    assert mapping[(0, 1)] == block.members[1]
    assert mapping[(1, 0)] == block.members[3]
    assert mapping[(1, 1)] == block.members[2]


def test_cnot_is_involution(lat, block):
    configs = np.arange(1 << lat.n_sites)
    image = gates.cnot_image(block, configs)
    assert np.array_equal(np.sort(image), configs)
    assert np.array_equal(gates.cnot_image(block, image), configs)


def test_cnot_bell_state(lat, block):
    probe = enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
    bell = gates.apply_logical_cnot(probe, block)
    tom = enc.logical_tomography(bell, block)
    assert tom["ZZ"] == pytest.approx(1.0, abs=1e-12)
    assert tom["XX"] == pytest.approx(1.0, abs=1e-12)
    assert tom["population"] == pytest.approx(1.0, abs=1e-12)


def test_cnot_commutes_with_za_and_xb_on_block(lat, block):
    # as restricted 4x4 matrices: CNOT commutes with control Z and target X
    members = list(block.members)
    small = np.zeros((4, 4))
    for c, m in enumerate(gates.cnot_image(block, members).tolist()):
        small[members.index(m), c] = 1.0
    z_a = np.diag([1.0, 1.0, -1.0, -1.0])
    x_b = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(small @ z_a - z_a @ small).max() == 0.0
    assert np.abs(small @ x_b - x_b @ small).max() == 0.0


def test_gates_preserve_norm(lat, block):
    rng = np.random.default_rng(31)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    psi = enc.logical_state(block, amps)
    for out in (
        gates.apply_rx(psi, lat, "A", 0.77),
        gates.apply_rz(psi, block, "B", 1.9),
        gates.apply_logical_cnot(psi, block),
    ):
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_gate_report_identity(lat, block):
    psi = basis_state(block, 0)
    rep = gates.gate_report(block, "identity", {}, psi, psi.copy(), expected=psi)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
    assert rep.leakage == pytest.approx(0.0, abs=1e-12)
    assert rep.leakage + rep.tomography_out["population"] == pytest.approx(
        1.0, abs=1e-12
    )


def test_gate_report_rx_pi_phase(lat, block):
    psi = basis_state(block, 0)
    out = gates.apply_rx(psi, lat, "A", np.pi)
    rep = gates.gate_report(
        block, "rx", {"theta": np.pi}, psi, out, expected=basis_state(block, 2)
    )
    assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.global_phase == pytest.approx((-1j) ** 8)


def test_gate_report_rx_half_pi_leakage(lat, block):
    psi = basis_state(block, 0)
    out = gates.apply_rx(psi, lat, "A", np.pi / 2)
    rep = gates.gate_report(block, "rx", {"theta": np.pi / 2}, psi, out)
    assert rep.leakage == pytest.approx(1.0 - gates.rx_half_pi_population(8), abs=1e-10)


def test_unknown_sublattice_rejected(lat, block):
    psi = basis_state(block, 0)
    with pytest.raises(ValueError):
        gates.apply_rz(psi, block, "C", 0.3)
    with pytest.raises(ValueError):
        gates.apply_rx(psi, lat, "C", 0.3)
    with pytest.raises(ValueError):
        gates.logical_gate(lat, "rz", "C", 0.3)
    with pytest.raises(ValueError):
        gates.logical_gate(lat, "ry", "A", 0.3)


def test_logical_gate_matches_the_physical_gates_on_every_block(lat):
    # the ideal table against the physical sweeps: CNOT on the four basis
    # states and the probe, RZ on both sublattices at seeded angles, RX at pi
    rng = np.random.default_rng(37)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=3)
    cnot = gates.logical_gate(lat, "cnot")
    for block in enc.enumerate_blocks(lat):
        for amps in list(np.eye(4)) + [np.array(enc.DEFAULT_PROBE)]:
            psi = enc.logical_state(block, amps)
            out = gates.apply_logical_cnot(psi, block)
            assert np.abs(out - enc.logical_state(block, cnot @ amps)).max() <= 1e-12
        for amps in np.eye(4):
            psi = enc.logical_state(block, amps)
            for s in ("A", "B"):
                for phi in phis:
                    ideal = enc.logical_state(block, gates.logical_gate(lat, "rz", s, phi) @ amps)
                    assert np.abs(gates.apply_rz(psi, block, s, phi) - ideal).max() <= 1e-12
                ideal = enc.logical_state(block, gates.logical_gate(lat, "rx", s, np.pi) @ amps)
                assert np.abs(gates.apply_rx(psi, lat, s, np.pi) - ideal).max() <= 1e-10
    assert gates.logical_gate(lat, "rx", "A", 1.0) is None
    assert gates.logical_gate(lat, "rx", "B", 1.0) is None
