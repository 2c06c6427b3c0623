"""Logical blocks: symmetry orbits of code states and their Pauli algebra.

Toggling all spins of one sublattice maps code states to code states, so the
code manifold splits into orbits of four under the two commuting sublattice
toggles.  Each orbit is a LogicalBlock encoding two qubits: the member with
labels (sigma_A, sigma_B) is the (0,0) member alpha with the corresponding
sublattice masks XORed in.  enumerate_blocks builds every orbit of the
code-state scan as a row whose columns follow MEMBER_LABELS, checks them all
in one vectorized pass, and each block keeps its orbit row as its members.

Everything in the logical layer is held on the four members, in
MEMBER_LABELS order.  A logical operator is the read-only 4 x 4 matrix
kind_a (x) kind_b from one table, with the identity on the partner qubit, so
the A and B algebras commute and no operator has an entry off its block.
embed_block_operator places such a matrix in the full 2^(L^2) space, where
the block projector is checked; tomography reads the four amplitudes.  The
tests compare every operator with the full-space construction from rank-1
projectors and the toggle permutations.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fragmentation import code_states
from .lattice import Lattice

# member order inside a block: (sigma_A, sigma_B) lexicographic
MEMBER_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# kind_a (x) kind_b on the four members, built once for every Pauli pair;
# read-only, since logical_operator hands these arrays out
_TWO_QUBIT = {(ka, kb): np.kron(_PAULI[ka], _PAULI[kb]) for ka in _PAULI for kb in _PAULI}
for _m in _TWO_QUBIT.values():
    _m.flags.writeable = False
# the two-qubit observables logical_tomography reports, in output order
_TOMOGRAPHY = {
    "X_A": _TWO_QUBIT["X", "I"], "Y_A": _TWO_QUBIT["Y", "I"], "Z_A": _TWO_QUBIT["Z", "I"],
    "X_B": _TWO_QUBIT["I", "X"], "Y_B": _TWO_QUBIT["I", "Y"], "Z_B": _TWO_QUBIT["I", "Z"],
    "ZZ": _TWO_QUBIT["Z", "Z"], "XX": _TWO_QUBIT["X", "X"],
    "ZX": _TWO_QUBIT["Z", "X"], "XZ": _TWO_QUBIT["X", "Z"],
}


class OrbitDegeneracyError(RuntimeError):
    """A symmetry orbit failed to contain four distinct code states."""


@dataclass(frozen=True)
class LogicalBlock:
    """Symmetry orbit of four code states encoding two logical qubits."""

    lattice: Lattice
    members: tuple  # the four member configurations (ints) in MEMBER_LABELS order

    @property
    def alpha(self):
        """The (0,0) member, the orbit's representative and lexicographic minimum."""
        return self.members[0]

    @property
    def dimension(self):
        return 1 << self.lattice.n_sites


def enumerate_blocks(lat):
    """All logical blocks at this size, each alpha its orbit's minimum, sorted by alpha.

    Every orbit member must lie in the code-state scan, else OrbitDegeneracyError.
    """
    states = code_states(lat)
    toggles = [sa * lat.mask_a ^ sb * lat.mask_b for sa, sb in MEMBER_LABELS]
    orbits = states[:, None] ^ np.array(toggles)
    found = states[np.searchsorted(states, orbits).clip(max=len(states) - 1)] == orbits
    if not np.all(found):
        i, j = np.argwhere(~found)[0]
        raise OrbitDegeneracyError(
            f"orbit member {orbits[i, j]:#x} of {states[i]:#x} is not a code state"
        )
    rows = orbits[orbits.min(axis=1) == states]
    return [LogicalBlock(lattice=lat, members=tuple(row)) for row in rows.tolist()]


def embed_block_operator(block, small):
    """Sparse full-space operator acting as the 4 x 4 `small` on block.members."""
    members = np.array(block.members)
    r, c = np.nonzero(small)
    dim = block.dimension
    return sp.csr_matrix(
        (np.asarray(small, dtype=complex)[r, c], (members[r], members[c])), shape=(dim, dim)
    )


def logical_operator(sublattice, kind):
    """Logical I/X/Y/Z for one sublattice qubit, read-only 4 x 4 on any block's members.

    I is the block identity (independent of sublattice); X, Y, Z act on the
    chosen qubit and as identity on the partner qubit.
    """
    if sublattice not in ("A", "B"):
        raise ValueError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    if kind not in _PAULI:
        raise ValueError(f"kind must be one of I, X, Y, Z, got {kind!r}")
    return _TWO_QUBIT[(kind, "I") if sublattice == "A" else ("I", kind)]


def _max_abs(matrix):
    """Largest |entry| of a dense or sparse matrix, 0.0 when it is zero."""
    return float(abs(matrix).max())


def verify_pauli_algebra(block):
    """Exact operator identities for one block; returns {check: residual}.

    The identities are evaluated on the 4 x 4 matrices; the block identity
    is also embedded and compared with the rank-4 projector on the members.
    All residuals are max-abs entries of differences and are expected to be
    exactly zero: the operators have entries in {0, +-1, +-i} and the
    products stay exact in floating point.
    """
    ops = {
        (s, k): logical_operator(s, k)
        for s in ("A", "B")
        for k in ("I", "X", "Y", "Z")
    }
    ident = ops[("A", "I")]
    residuals = {}

    members = list(block.members)
    dim = block.dimension
    proj = sp.csr_matrix((np.ones(4), (members, members)), shape=(dim, dim), dtype=complex)
    residuals["identity_is_block_projector"] = _max_abs(embed_block_operator(block, ident) - proj)
    residuals["identity_squares"] = _max_abs(ident @ ident - ident)
    residuals["identity_sublattice_independent"] = _max_abs(ident - ops[("B", "I")])

    for s in ("A", "B"):
        x, y, z = ops[(s, "X")], ops[(s, "Y")], ops[(s, "Z")]
        residuals[f"X_{s}_squared"] = _max_abs(x @ x - ident)
        residuals[f"Y_{s}_squared"] = _max_abs(y @ y - ident)
        residuals[f"Z_{s}_squared"] = _max_abs(z @ z - ident)
        residuals[f"XY_commutator_{s}"] = _max_abs(x @ y - y @ x - 2j * z)
        residuals[f"YZ_commutator_{s}"] = _max_abs(y @ z - z @ y - 2j * x)
        residuals[f"ZX_commutator_{s}"] = _max_abs(z @ x - x @ z - 2j * y)

    for ka in ("X", "Y", "Z"):
        for kb in ("X", "Y", "Z"):
            a, b = ops[("A", ka)], ops[("B", kb)]
            residuals[f"cross_{ka}A_{kb}B"] = _max_abs(a @ b - b @ a)

    return residuals


# the +1 eigenstate of logical X_A: (|alpha;00> + |alpha;10>)/sqrt(2)
DEFAULT_PROBE = (1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0), 0.0)


def _check_finite(**coefficients):
    for name, value in coefficients.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_state(psi, dim):
    """psi as a new complex vector; ValueError unless it has shape (dim,) and finite entries."""
    psi = np.array(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"the state must have shape ({dim},), got {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state amplitudes must be finite")
    return psi


def logical_state(block, amplitudes):
    """Dense state vector sum_i amplitudes[i] |member_i> (MEMBER_LABELS order)."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (4,):
        raise ValueError("amplitudes must be 4 complex numbers")
    nrm = np.linalg.norm(amplitudes)
    if not abs(nrm - 1.0) <= 1e-12:  # also rejects nan
        raise ValueError(f"amplitudes not normalized: |c| = {nrm}")
    state = np.zeros(block.dimension, dtype=complex)
    state[list(block.members)] = amplitudes
    return state


def block_tomography(amplitudes):
    """Logical expectation values of the four block amplitudes (MEMBER_LABELS order).

    Returns the block population <I>, the six single-qubit expectations and
    four two-qubit correlators.
    """
    c = np.asarray(amplitudes, dtype=complex)
    out = {"population": float(np.vdot(c, c).real)}
    for key, m in _TOMOGRAPHY.items():
        out[key] = float(np.vdot(c, m @ c).real)
    return out


def logical_tomography(state, block):
    """block_tomography of a normalized dense state's four in-block amplitudes.

    All logical operators vanish outside the block, so nothing else of the
    state enters.
    """
    return block_tomography(state[list(block.members)])
