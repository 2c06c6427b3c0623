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
    perm = gates.cnot_permutation(block)
    assert np.array_equal(perm[perm], np.arange(len(perm)))


def test_cnot_bell_state(lat, block):
    probe = enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
    bell = gates.apply_logical_cnot(probe, block)
    tom = enc.logical_tomography(bell, block)
    assert tom["ZZ"] == pytest.approx(1.0, abs=1e-12)
    assert tom["XX"] == pytest.approx(1.0, abs=1e-12)
    assert tom["population"] == pytest.approx(1.0, abs=1e-12)


def test_cnot_commutes_with_za_and_xb_on_block(lat, block):
    # as restricted 4x4 matrices: CNOT commutes with control Z and target X
    perm = gates.cnot_permutation(block)
    members = list(block.members)
    small = np.zeros((4, 4))
    for c, m in enumerate(members):
        small[members.index(int(perm[m])), c] = 1.0
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
