"""Transversal logical gates on dense state vectors, and their ideal action.

All gates are products of single-site (or disjoint two-site) physical gates
and act on the support of the state only, the configurations
flatnonzero(state) it occupies; no full-space gate matrix or index sweep is
ever built.  logical_gate is the one table of what each gate should do to a
block: a 4 x 4 matrix on the members, in MEMBER_LABELS order, built from the
logical Pauli table, or None where the gate leaks.

* apply_rx: product of single-site x rotations over one sublattice, growing
  the support one site at a time.  Exact logical X at theta = pi (up to the
  global phase (-i)^N_s); at generic angles the state leaks out of the code
  space and the leakage is reported, not hidden.
* apply_rz: product of single-site z rotations with site-dependent signs
  read off the block representative and angle phi / (2 N_s) per site.  On a
  block member with sublattice label sigma_s the accumulated phase is
  exp(-i (-1)^sigma_s phi/2): an exact logical z rotation with zero leakage.
* apply_logical_cnot: physical CNOTs from each A site onto its paired B
  site, conjugated by X on the A sites where the representative holds a 1,
  so the control fires exactly when the physical bit differs from the
  representative.  This is a basis permutation (cnot_image) realizing
  logical CNOT (control A, target B) on the block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .encoding import _TWO_QUBIT, _check_finite, _check_state, logical_operator, logical_tomography
from .syndrome import inject_pauli


def _sublattice(lat, sublattice):
    """(sites, bit mask) of sublattice 'A' or 'B'; ValueError otherwise."""
    if sublattice == "A":
        return lat.a_sites, lat.mask_a
    if sublattice == "B":
        return lat.b_sites, lat.mask_b
    raise ValueError(f"sublattice must be 'A' or 'B', got {sublattice!r}")


def apply_rx(state, lat, sublattice, theta):
    """Product of exp(-i theta/2 X_j) over one sublattice, on a support grown per site.

    Site j maps amplitude a(y) to c a(y) + (-i s) a(y ^ bit_j), c, s = cos, sin(theta/2).
    """
    _check_finite(theta=theta)
    psi = _check_state(state, 1 << lat.n_sites)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    configs = np.flatnonzero(psi != 0)
    amplitudes = psi[configs]
    for site in _sublattice(lat, sublattice)[0]:
        flipped, moved = inject_pauli((configs, amplitudes), int(site), "X")
        grown, index = np.unique(np.concatenate((configs, flipped)), return_inverse=True)
        rotated = np.zeros(len(grown), dtype=complex)
        # each half lists a configuration once: the X branch adds onto the c branch
        rotated[index[:len(configs)]] = c * amplitudes
        rotated[index[len(configs):]] += (-1j * s) * moved
        configs, amplitudes = grown, rotated
    out = np.zeros_like(psi)
    out[configs] = amplitudes
    return out


def apply_rz(state, block, sublattice, phi):
    """Dressed z rotation: exact logical phase exp(-i (-1)^sigma_s phi/2).

    Per site j of the sublattice the gate is exp(-i s_j phi/(2 N_s) Z_j)
    with s_j = +1 where the block representative holds 0 and -1 where it
    holds 1.  Diagonal in the computational basis, so in-block states never
    leak.
    """
    _check_finite(phi=phi)
    psi = _check_state(state, block.dimension)
    lat = block.lattice
    _, mask = _sublattice(lat, sublattice)
    n_s = lat.n_sublattice
    configs = np.flatnonzero(psi != 0)
    # sum_j s_j z_j(n) = N_s - 2 * popcount((n xor alpha) & mask)
    exponent = n_s - 2.0 * np.bitwise_count((configs ^ block.alpha) & mask)
    psi[configs] *= np.exp(-1j * (phi / (2.0 * n_s)) * exponent)
    return psi


def cnot_image(block, configs):
    """Where the dressed CNOT circuit (an involution) sends each configuration."""
    lat = block.lattice
    configs = np.asarray(configs, dtype=np.int64)
    fires = configs ^ block.alpha  # the control bits that differ from the representative
    return configs ^ sum(((fires >> int(a)) & 1) << int(lat.cnot_partner_table[a])
                         for a in lat.a_sites)


def apply_logical_cnot(state, block):
    """Dressed transversal CNOT (control qubit A, target qubit B)."""
    psi = _check_state(state, block.dimension)
    configs = np.flatnonzero(psi != 0)
    out = np.zeros_like(psi)
    out[cnot_image(block, configs)] = psi[configs]
    return out


def logical_gate(lat, gate, sublattice="A", angle=0.0):
    """Ideal 4 x 4 action of a gate on a block's members, MEMBER_LABELS order.

    "cnot" (control A, target B) permutes the members: |a b> -> |a, a xor b>.
    "rz" is diag(exp(-i (-1)^sigma_s angle/2)) on the sublattice's qubit.
    "rx" is (-i)^N_s X_s at angle = pi (to 1e-15) and None at any other
    angle, where apply_rx leaks out of the block.
    """
    pauli = {k: logical_operator(sublattice, k) for k in "XZ"}
    if gate == "cnot":
        # |0><0|_A (x) I + |1><1|_A (x) X_B = (II + ZI + IX - ZX) / 2
        t = _TWO_QUBIT
        return 0.5 * (t["I", "I"] + t["Z", "I"] + t["I", "X"] - t["Z", "X"])
    if gate == "rz":
        return np.diag(np.exp(-0.5j * angle * pauli["Z"].diagonal()))
    if gate == "rx":
        return (-1j) ** lat.n_sublattice * pauli["X"] if abs(angle - math.pi) < 1e-15 else None
    raise ValueError(f"gate must be 'cnot', 'rx' or 'rz', got {gate!r}")


@dataclass(frozen=True)
class GateReport:
    gate: str
    params: dict
    input_label: str
    tomography_in: dict
    tomography_out: dict
    leakage: float
    fidelity: float | None      # |<expected|out>|, None without a reference
    global_phase: complex | None

    def to_dict(self):
        return {
            "gate": self.gate,
            "params": self.params,
            "input": self.input_label,
            "tomography_in": self.tomography_in,
            "tomography_out": self.tomography_out,
            "leakage": self.leakage,
            "fidelity": self.fidelity,
            "global_phase": self.global_phase,
        }


def gate_report(block, gate_name, params, state_in, state_out,
                expected=None, input_label=""):
    """Wrap a gate application with before/after tomography.

    leakage is 1 - block population of the output.  When an expected output
    state is supplied, fidelity = |<expected|out>| (summed over the expected
    state's support) and the measured global phase
    <expected|out> / |<expected|out>| is reported rather than discarded, so
    exact phase factors stay checkable.
    """
    tom_in = logical_tomography(state_in, block)
    tom_out = logical_tomography(state_out, block)
    leakage = 1.0 - tom_out["population"]
    fidelity = None
    phase = None
    if expected is not None:
        support = np.flatnonzero(expected != 0)
        overlap = complex(np.vdot(expected[support], state_out[support]))
        fidelity = abs(overlap)
        if fidelity > 1e-15:
            phase = overlap / fidelity
    return GateReport(
        gate=gate_name,
        params=params,
        input_label=input_label,
        tomography_in=tom_in,
        tomography_out=tom_out,
        leakage=leakage,
        fidelity=fidelity,
        global_phase=phase,
    )


def rx_half_pi_population(n_sublattice):
    """Closed-form block population after apply_rx at theta = pi/2.

    Each site contributes cos(pi/4) to the unflipped branch and sin(pi/4) to
    the flipped one; only the two corners with every site unflipped or every
    site flipped stay in the block.
    """
    return math.cos(math.pi / 4) ** (2 * n_sublattice) + \
        math.sin(math.pi / 4) ** (2 * n_sublattice)
