import numpy as np
import pytest
import scipy.sparse as sp

from fragmenta import config as cm
from fragmenta import encoding as enc
from fragmenta.fragmentation import code_states


def toggle_matrix(lat, mask):
    """Permutation matrix of a sublattice toggle."""
    dim = 1 << lat.n_sites
    idx = np.arange(dim, dtype=np.int64)
    return sp.csr_matrix(
        (np.ones(dim), (idx ^ mask, idx)), shape=(dim, dim), dtype=complex
    )


def projector(lat, cfg):
    dim = 1 << lat.n_sites
    return sp.csr_matrix(([1.0], ([cfg], [cfg])), shape=(dim, dim), dtype=complex)


def oracle_operator(block, sublattice, kind):
    """Literal projector/toggle construction of the logical operators.

    The single-qubit operator for sublattice s uses the projector summed
    over the partner sublattice's toggle orbit, then the anticommutator /
    commutator / conjugation forms.
    """
    lat = block.lattice
    mask_s = lat.mask_a if sublattice == "A" else lat.mask_b
    mask_other = lat.mask_b if sublattice == "A" else lat.mask_a
    x_s = toggle_matrix(lat, mask_s)
    x_other = toggle_matrix(lat, mask_other)
    p = projector(lat, block.alpha)
    p = p + x_other @ p @ x_other
    if kind == "I":
        return p + x_s @ p @ x_s
    if kind == "Z":
        return p - x_s @ p @ x_s
    if kind == "X":
        return p @ x_s + x_s @ p
    if kind == "Y":
        return -1j * (p @ x_s - x_s @ p)
    raise ValueError(kind)


def test_symmetry_orbit_examples(lat, blocks):
    # every member of every block is a code state, by the scalar definition,
    # and each toggle maps the block's member set onto itself
    for block in blocks:
        orbit = set(block.members)
        assert len(orbit) == 4
        for member in orbit:
            assert cm.is_code_state(member, lat)
        for mask in (lat.mask_a, lat.mask_b):
            assert {member ^ mask for member in orbit} == orbit


def test_enumerate_blocks_rejects_a_scan_missing_an_orbit_member(lat, monkeypatch):
    states = code_states(lat)
    monkeypatch.setattr(enc, "code_states", lambda lat: np.delete(states, 5))
    with pytest.raises(enc.OrbitDegeneracyError):
        enc.enumerate_blocks(lat)


def test_block_counts(lat, blocks):
    assert (len(code_states(lat)), len(blocks), 2 * len(blocks)) == (56, 14, 28)


def test_blocks_partition_code_states(lat, blocks):
    states = set(code_states(lat).tolist())
    seen = []
    for b in blocks:
        assert b.alpha == min(b.members)
        assert len(set(b.members)) == 4
        seen.extend(b.members)
    assert sorted(seen) == sorted(states)
    assert len(seen) == len(set(seen))


def test_member_order(lat, blocks):
    # members follow MEMBER_LABELS on every block, as plain Python ints
    assert len(blocks) == 14
    for b in blocks:
        assert b.alpha == b.members[0]
        for sa, sb in enc.MEMBER_LABELS:
            member = b.members[2 * sa + sb]
            assert type(member) is int
            assert member == b.alpha ^ (sa * lat.mask_a) ^ (sb * lat.mask_b)


@pytest.mark.parametrize("sublattice", ["A", "B"])
@pytest.mark.parametrize("kind", ["I", "X", "Y", "Z"])
def test_logical_operator_matches_projector_oracle(blocks, sublattice, kind):
    # the oracle lives on the full space, so its embedding must match with
    # nothing left over off the block
    for block in blocks:
        mine = enc.logical_operator(sublattice, kind)
        assert mine.shape == (4, 4)
        oracle = oracle_operator(block, sublattice, kind)
        diff = (enc.embed_block_operator(block, mine) - oracle).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0


def test_operator_nonzero_budget(blocks):
    for s in ("A", "B"):
        for kind in ("I", "X", "Y", "Z"):
            op = enc.logical_operator(s, kind)
            assert np.count_nonzero(op) <= 4


def test_operator_examples(blocks, lat):
    block = blocks[0]
    members = block.members
    flipped = members.index(block.alpha ^ lat.mask_a)
    assert flipped == enc.MEMBER_LABELS.index((1, 0))
    z_a = enc.logical_operator("A", "Z")
    assert z_a[0, 0] == 1.0
    assert z_a[flipped, flipped] == -1.0
    x_a = enc.logical_operator("A", "X")
    out = x_a @ np.eye(4)[0]
    assert out[flipped] == 1.0 and np.count_nonzero(out) == 1
    # the embedding puts the same entries on the member configurations
    full = enc.embed_block_operator(block, z_a)
    assert full.shape == (block.dimension,) * 2 and full.nnz == 4
    assert full[block.alpha ^ lat.mask_a, block.alpha ^ lat.mask_a] == -1.0


def test_operator_tables_are_read_only(blocks):
    op = enc.logical_operator("A", "X")
    with pytest.raises(ValueError):
        op[0, 0] = 5.0


def test_pauli_algebra_all_blocks(blocks):
    for block in blocks:
        residuals = enc.verify_pauli_algebra(block)
        assert max(residuals.values()) <= 1e-12


def test_pauli_algebra_catches_a_wrong_sign(blocks, monkeypatch):
    flipped_y = {pair: -m if "Y" in pair else m for pair, m in enc._TWO_QUBIT.items()}
    monkeypatch.setattr(enc, "_TWO_QUBIT", flipped_y)
    residuals = enc.verify_pauli_algebra(blocks[0])
    assert residuals["XY_commutator_A"] > 0
    assert residuals["ZX_commutator_B"] > 0


def test_logical_state_and_tomography(blocks):
    block = blocks[0]
    state = enc.logical_state(block, (1.0, 0.0, 0.0, 0.0))
    tom = enc.logical_tomography(state, block)
    assert tom["Z_A"] == pytest.approx(1.0)
    assert tom["Z_B"] == pytest.approx(1.0)
    assert tom["population"] == pytest.approx(1.0)

    plus = enc.logical_state(block, (2 ** -0.5, 0.0, 2 ** -0.5, 0.0))
    tom = enc.logical_tomography(plus, block)
    assert tom["X_A"] == pytest.approx(1.0)
    assert tom["Z_A"] == pytest.approx(0.0)

    # distinct logical basis states are orthogonal
    other = enc.logical_state(block, (0.0, 1.0, 0.0, 0.0))
    assert np.vdot(state, other) == 0

    # fully out-of-block state reads zero on everything
    out = np.zeros(block.dimension, dtype=complex)
    out[12345] = 1.0
    tom = enc.logical_tomography(out, block)
    assert tom["population"] == 0.0
    assert all(tom[k] == 0.0 for k in ("X_A", "Y_A", "Z_A", "X_B", "Y_B", "Z_B"))


def test_tomography_matches_full_space_expectations(blocks):
    # <psi|O|psi> with the full-space oracle operators, on states that also
    # carry weight off the block
    rng = np.random.default_rng(5)
    for block in blocks[:3]:
        ops = {f"{k}_{s}": oracle_operator(block, s, k) for s in "AB" for k in "XYZ"}
        ops["population"] = oracle_operator(block, "A", "I")
        for pair in ("ZZ", "XX", "ZX", "XZ"):
            ops[pair] = ops[f"{pair[0]}_A"] @ ops[f"{pair[1]}_B"]
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = 0.8 * enc.logical_state(block, amps / np.linalg.norm(amps))
        assert 12345 not in block.members
        state[12345] = 0.6
        tom = enc.logical_tomography(state, block)
        assert tom.keys() == ops.keys()
        for key, op in ops.items():
            assert tom[key] == pytest.approx(np.vdot(state, op @ state).real, abs=1e-12), key
        assert tom == enc.block_tomography(state[list(block.members)])


def test_logical_state_requires_normalization(blocks):
    with pytest.raises(ValueError):
        enc.logical_state(blocks[0], (1.0, 1.0, 0.0, 0.0))
    # a nan norm compares false with any bound, so it must be rejected by name
    for bad in ((np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, np.nan * 1j)):
        with pytest.raises(ValueError):
            enc.logical_state(blocks[0], bad)
