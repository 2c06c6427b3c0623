import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh, expm_multiply

from fragmenta import config as cm
from fragmenta import dynamics as dyn
from fragmenta import encoding as enc
from fragmenta.fragmentation import code_states, krylov_decompose
from fragmenta.lattice import Lattice, build_lattice

SQ2 = 2 ** -0.5


def propagate(op, psi, times):
    """_propagate at tol 1e-10 on every row, as evolve calls it."""
    return dyn._propagate(op, psi, times, 1e-10, np.arange(len(psi)))


def sectors(matrix, symmetry, support=()):
    """_Sectors of matrix in a lattice's group (the trivial one for None), or
    in an explicit toggle group such as [0, mask], with no translation."""
    if symmetry is None or isinstance(symmetry, Lattice):
        return dyn._Sectors(matrix, *dyn._group(symmetry), support)
    return dyn._Sectors(matrix, list(symmetry), [(0, 0)], 0, support)


def interval(op, group=None):
    """The propagator's spectral interval of op, in the sectors of its lattice or of group."""
    return dyn._spectral_interval(sectors(op.matrix, op.lattice if group is None else group))


@pytest.fixture(scope="module")
def random_state(lat):
    rng = np.random.default_rng(1)
    v = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
    return v / np.linalg.norm(v)


def conjugate_by_xor(matrix, xor_mask, dim):
    coo = matrix.tocoo()
    rows = coo.row ^ xor_mask
    cols = coo.col ^ xor_mask
    return sp.csr_matrix((coo.data, (rows, cols)), shape=(dim, dim))


def commutes_with_toggle(matrix, xor_mask, dim):
    """Oracle: the operator equals its conjugate by the XOR toggle, entry for entry."""
    diff = matrix - conjugate_by_xor(matrix, xor_mask, dim)
    diff.eliminate_zeros()
    return diff.nnz == 0


def sectors_accept(matrix, symmetry):
    """Whether _Sectors accepts a lattice's or a toggle group's symmetries; it
    raises ValueError for one matrix breaks."""
    try:
        sectors(matrix, symmetry)
    except ValueError as err:
        assert "does not commute" in str(err)
        return False
    return True


def translate_by_sites(lat, cfgs, dx, dy):
    """Oracle: bit (x, y) of the result is bit (x + dx, y + dy) of cfgs, site by site."""
    out = np.zeros_like(cfgs)
    for y in range(lat.L):
        for x in range(lat.L):
            out |= ((cfgs >> lat.site_index(x + dx, y + dy)) & 1) << (y * lat.L + x)
    return out


def commutes_with_translation(lat, matrix, dx, dy):
    """Oracle: the operator equals its conjugate by the site permutation, entry for entry."""
    perm = translate_by_sites(lat, np.arange(matrix.shape[0]), dx, dy)
    coo = matrix.tocoo()
    diff = matrix - sp.csr_matrix((coo.data, (perm[coo.row], perm[coo.col])), shape=matrix.shape)
    diff.eliminate_zeros()
    return diff.nnz == 0


def stripe_config(L):
    cfg = 0
    for y in range(L):
        for x in range(L):
            if y % 2:
                cfg |= 1 << (y * L + x)
    return cfg


def test_heff_matrix_elements(lat, heff):
    h = heff.matrix
    # every site flippable on the all-zeros configuration
    for i in range(lat.n_sites):
        assert h[1 << i, 0] == -1.0
        assert h[0, 1 << i] == -1.0
    assert h.diagonal().max() == 0.0 and h.diagonal().min() == 0.0
    # at most one flip per site bounds the row weight
    row_weights = np.diff(h.indptr)
    assert row_weights.max() <= lat.n_sites


def test_heff_annihilates_code_states(lat, heff, blocks):
    indptr = heff.matrix.indptr
    for cfg in code_states(lat).tolist():
        assert indptr[cfg + 1] == indptr[cfg]  # empty row: exact zero
    # columns too (hermitian): no entry reaches a code state
    cols = set(heff.matrix.indices.tolist())
    assert not (cols & set(code_states(lat).tolist()))


def test_heff_is_hermitian(heff):
    diff = (heff.matrix - heff.matrix.T).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_heff_commutes_with_toggles(lat, heff):
    dim = 1 << lat.n_sites
    for mask in (lat.mask_a, lat.mask_b):
        assert commutes_with_toggle(heff.matrix, mask, dim)


def test_hczp_diagonals(lat):
    op = dyn.build_hczp(lat, J=1.0, h=1.0)
    diag = op.matrix.diagonal()
    assert diag[0] == -16.0
    assert diag[stripe_config(4)] == 16.0


def test_hczp_commutes_with_toggles(lat, random_state):
    op = dyn.build_hczp(lat, J=1.0, h=0.3)
    dim = 1 << lat.n_sites
    for mask in (lat.mask_a, lat.mask_b):
        assert commutes_with_toggle(op.matrix, mask, dim)
        toggled = random_state[np.arange(dim) ^ mask]
        left = (op.matrix @ toggled)
        right = (op.matrix @ random_state)[np.arange(dim) ^ mask]
        assert np.abs(left - right).max() <= 1e-12


@pytest.mark.parametrize("kind", dyn.PERTURBATION_KINDS)
def test_perturbation_symmetry_classes(lat, kind):
    op = dyn.build_perturbation(lat, kind, 0.05, seed=7)
    dim = 1 << lat.n_sites
    symmetric = all(
        commutes_with_toggle(op.matrix, mask, dim)
        for mask in (lat.mask_a, lat.mask_b)
    )
    assert symmetric == kind.startswith("sym_")
    assert op.lattice is (lat if symmetric else None)


@pytest.mark.parametrize("name", ("heff", "hczp", "czp_strong") + dyn.PERTURBATION_KINDS)
def test_builders_record_the_translations_they_commute_with(lat, name):
    # (1, 1) and (1, 3) generate the L^2 / 2 translations with dx + dy even;
    # break_zz_nn commutes with them too, but a break_ kind records no lattice
    builders = {"heff": dyn.build_heff, "hczp": dyn.build_hczp,
                "czp_strong": dyn.build_czp_strong}
    if name in builders:
        op = builders[name](lat, h=0.3)
    else:
        op = dyn.build_perturbation(lat, name, 0.05, seed=7)
    recorded = not name.startswith("break_")
    assert op.lattice is (lat if recorded else None)
    commutes = all(commutes_with_translation(lat, op.matrix, 1, dy) for dy in (1, 3))
    assert commutes == (name != "break_longitudinal_random")


@pytest.mark.parametrize("kind", dyn.PERTURBATION_KINDS)
def test_diagonal_symmetry_check_agrees_with_conjugation(lat, kind):
    # the propagator's one check, in _Sectors, must agree with the oracle on
    # every kind's unit-strength matrix, diagonal or not
    matrix = dyn.build_perturbation(lat, kind, 1.0, seed=7).matrix
    for mask in (lat.mask_a, lat.mask_b):
        by_conjugation = commutes_with_toggle(matrix, mask, matrix.shape[0])
        assert by_conjugation == kind.startswith("sym_")
        assert sectors_accept(matrix, [0, mask]) == by_conjugation


@pytest.mark.parametrize("build", (dyn.build_heff, dyn.build_hczp, dyn.build_czp_strong))
def test_symmetry_check_agrees_with_conjugation_on_the_hamiltonians(lat, build):
    matrix = build(lat, h=0.3).matrix
    for mask in (lat.mask_a, lat.mask_b):
        assert commutes_with_toggle(matrix, mask, matrix.shape[0])
        assert sectors_accept(matrix, [0, mask])
    # flipping site 0 alone breaks the flip constraints or the plaquette energy
    assert not sectors_accept(matrix, [0, 1])
    assert not commutes_with_toggle(matrix, 1, matrix.shape[0])


@pytest.mark.parametrize(
    "kind", ("sym_zz_nnn", "break_longitudinal_random", "break_zz_nn", "sym_transverse"))
def test_symmetry_check_rejects_one_changed_diagonal_entry(lat, heff, random_state, kind,
                                                         monkeypatch):
    # entry 0 of the diagonal, raised where it becomes a matrix, breaks the
    # symmetry of a diagonal kind; for the transverse field, one weight of
    # the unconstrained move graph changes.  A sym_ kind still records the
    # lattice, and the propagator's check rejects its symmetries
    diags, move_graph = dyn.sp.diags, dyn.move_graph

    def changed(diag, **kwargs):
        diag = diag.copy()
        diag[0] += 0.5
        return diags(diag, **kwargs)

    def changed_weight(lat, constrained=True):
        graph = move_graph(lat, constrained)
        graph.data[0] += 0.5
        assert not commutes_with_toggle(graph, lat.mask_a, graph.shape[0])
        return graph

    monkeypatch.setattr(dyn.sp, "diags", changed)
    monkeypatch.setattr(dyn, "move_graph", changed_weight)
    op = dyn.build_perturbation(lat, kind, 0.05, seed=7)
    if kind.startswith("sym_"):
        assert op.lattice is lat
        with pytest.raises(ValueError, match="does not commute"):
            sectors(op.matrix, op.lattice)
        with pytest.raises(ValueError, match="does not commute"):
            dyn.evolve(random_state, heff + op, 1.0)
    else:
        assert op.lattice is None


def diagonal_by_sites(lat, kind, seed):
    """The diagonal of a diagonal kind as a sum over sites of z = 1 - 2 bit."""
    cfgs = np.arange(1 << lat.n_sites)
    z = [1.0 - 2.0 * cm.bit(cfgs, i) for i in range(lat.n_sites)]
    diag = np.zeros(len(cfgs))
    if kind == "break_longitudinal_random":
        signs = np.random.default_rng(seed).choice(np.array([-1.0, 1.0]), size=lat.n_sites)
        for i in range(lat.n_sites):
            diag += signs[i] * z[i]
        return diag
    offsets = ((1, 1), (1, -1)) if kind == "sym_zz_nnn" else ((1, 0), (0, 1))
    for i in range(lat.n_sites):
        x, y = i % lat.L, i // lat.L
        for dx, dy in offsets:
            diag += z[i] * z[lat.site_index(x + dx, y + dy)]
    return diag


@pytest.mark.parametrize("kind, seed", [
    ("sym_zz_nnn", 0), ("break_zz_nn", 0),
    ("break_longitudinal_random", 0), ("break_longitudinal_random", 3),
    ("break_longitudinal_random", 7),
])
def test_diagonal_kinds_match_the_per_site_sums(lat, kind, seed):
    got = dyn.build_perturbation(lat, kind, 1.0, seed).matrix.diagonal()
    assert np.array_equal(got, diagonal_by_sites(lat, kind, seed))


def test_symmetry_check_on_other_flip_graphs(lat):
    # symmetric graphs that are not w sum_i X_i pass: the constrained flips,
    # and the unconstrained flips weighted 2 on A sites; one changed weight fails
    dim = 1 << lat.n_sites
    graph = dyn.move_graph(lat, constrained=False)
    rows = np.repeat(np.arange(dim), np.diff(graph.indptr))
    weighted = graph.copy()
    weighted.data[((rows ^ graph.indices) & lat.mask_a) != 0] = 2.0
    changed = graph.copy()
    changed.data[0] += 0.5
    for matrix, symmetric in ((dyn.move_graph(lat), True), (weighted, True), (changed, False)):
        for mask in (lat.mask_a, lat.mask_b):
            assert commutes_with_toggle(matrix, mask, dim) == symmetric
            assert sectors_accept(matrix, [0, mask]) == symmetric


def test_symmetry_check_compares_rows_not_only_entries():
    # conjugating [[1, 1], [0, 0]] by x -> x ^ 1 moves both entries to row 1,
    # where sorted they read as row 0 did: only the row lengths tell them apart
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not sectors_accept(matrix, [0, 1])
    assert not commutes_with_toggle(matrix, 1, 2)
    assert sectors_accept(sp.csr_matrix(np.ones((2, 2))), [0, 1])
    # the stored column order does not matter: row 0 holds columns 1, 0
    unsorted = sp.csr_matrix((np.ones(4), np.array([1, 0, 0, 1]), np.array([0, 2, 4])),
                             shape=(2, 2))
    assert sectors_accept(unsorted, [0, 1])
    # representatives 0 and 2: rows 1 and 3 conjugated hold columns 1 and 3
    # with data 1, 1, as rows 0 and 2 do, but split 2 + 0 against 1 + 1
    matrix = sp.csr_matrix(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]))
    assert not sectors_accept(matrix, [0, 1])
    assert not commutes_with_toggle(matrix, 1, 4)


@pytest.mark.parametrize("kind", dyn.PERTURBATION_KINDS)
def test_perturbation_at_zero_lambda(lat, kind):
    # lam = 0 is legal, and a sym_ kind's zero matrix still passes the sector check
    op = dyn.build_perturbation(lat, kind, 0.0, seed=7)
    assert not np.any(op.matrix.data)
    assert sectors_accept(op.matrix, op.lattice)


def test_czp_strong_is_heff_plus_plaquette_energy(lat):
    for J, h in ((1.0, 1.0), (0.5, 0.3), (0.0, 1.0), (2.0, -1.0)):
        op = dyn.build_czp_strong(lat, J=J, h=h).matrix
        ref = (dyn.build_heff(lat, h=h) + dyn.build_hczp(lat, J=J, h=0.0)).matrix
        assert np.array_equal(op.indptr, ref.indptr)
        assert np.array_equal(op.indices, ref.indices)
        assert np.array_equal(op.data, ref.data)


def test_unknown_perturbation_rejected(lat):
    with pytest.raises(ValueError):
        dyn.build_perturbation(lat, "nonsense", 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(lat, bad):
    with pytest.raises(ValueError, match="h must be finite"):
        dyn.build_heff(lat, h=bad)
    for build in (dyn.build_hczp, dyn.build_czp_strong):
        with pytest.raises(ValueError, match="J must be finite"):
            build(lat, J=bad)
        with pytest.raises(ValueError, match="h must be finite"):
            build(lat, h=bad)
    for kind in dyn.PERTURBATION_KINDS:
        with pytest.raises(ValueError, match="lam must be finite"):
            dyn.build_perturbation(lat, kind, bad)


def test_symmetric_perturbation_degenerate_on_members(lat, blocks, heff):
    for kind in ("sym_transverse", "sym_zz_nnn"):
        op = heff + dyn.build_perturbation(lat, kind, 0.05, seed=3)
        diag = op.matrix.diagonal()
        for block in blocks[:4]:
            values = {float(diag[m]) for m in block.members}
            assert len(values) == 1


def test_evolve_zero_time_is_identity(heff, random_state):
    out = dyn.evolve(random_state, heff, 0.0)
    assert np.array_equal(out, random_state)


def test_evolve_code_state_stationary(lat, heff, blocks):
    psi0 = enc.logical_state(blocks[0], dyn.DEFAULT_PROBE)
    psi_t = dyn.evolve(psi0, heff, 100.0, tol=1e-10)
    assert abs(np.vdot(psi0, psi_t)) >= 1.0 - 1e-10


def test_evolve_against_expm_multiply(heff, random_state):
    # independent oracle: scipy's scaling-and-squaring Taylor propagator
    mine = dyn.evolve(random_state, heff, 0.7, tol=1e-10)
    reference = expm_multiply(-1j * 0.7 * heff.matrix.astype(complex), random_state)
    assert np.linalg.norm(mine - reference) <= 1e-9


def test_evolve_semigroup_property(heff, random_state):
    full = dyn.evolve(random_state, heff, 1.3, tol=1e-10)
    halves = dyn.evolve(
        dyn.evolve(random_state, heff, 0.65, tol=1e-10), heff, 0.65, tol=1e-10
    )
    assert np.linalg.norm(full - halves) <= 1e-9


def test_evolve_preserves_norm_and_energy(lat, heff, random_state):
    psi_t = dyn.evolve(random_state, heff, 2.5, tol=1e-10)
    assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-9
    e0 = np.vdot(random_state, heff.matrix @ random_state).real
    e1 = np.vdot(psi_t, heff.matrix @ psi_t).real
    assert abs(e0 - e1) <= 1e-9
    # <psi|H|psi> real for hermitian H
    assert abs(np.vdot(psi_t, heff.matrix @ psi_t).imag) <= 1e-10


def test_evolve_tolerance_guard(blocks, heff, random_state):
    for tol in (1e-14, np.nan, np.inf):
        with pytest.raises(ValueError):
            dyn.evolve(random_state, heff, 1.0, tol=tol)
        with pytest.raises(ValueError):
            dyn.coherence_experiment(blocks[0], heff, [0.0, 1.0], tol=tol)
    # a non-finite amplitude or an empty grid is refused before any work
    for bad in (np.nan, np.inf):
        state = random_state.copy()
        state[3] = bad
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="finite"):
                dyn.evolve(state, heff, t)
        with pytest.raises(ValueError, match="finite"):
            dyn.coherence_experiment(blocks[0], heff, [0.0, 1.0], initial=state)
    with pytest.raises(ValueError, match="non-empty"):
        dyn.coherence_experiment(blocks[0], heff, [])


@pytest.mark.parametrize("shape", [(64006,), (1 << 16, 1), (2, 1 << 15), ()])
def test_state_of_the_wrong_shape_rejected(blocks, heff, shape):
    # a state that is not one amplitude per basis state is refused by both entry points
    state = np.ones(shape, dtype=complex)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="shape"):
            dyn.evolve(state, heff, t)
    with pytest.raises(ValueError, match="shape"):
        dyn.coherence_experiment(blocks[0], heff, [0.0, 1.0], initial=state)


def test_coherence_experiment_takes_a_list_state(blocks, sym_transverse_ops):
    op = sym_transverse_ops["heff"]
    psi0 = enc.logical_state(blocks[0], [0.6, 0.0, 0.0, 0.8j])
    times = [0.0, 0.5, 1.0]
    from_list = dyn.coherence_experiment(blocks[0], op, times, initial=psi0.tolist())
    from_array = dyn.coherence_experiment(blocks[0], op, times, initial=psi0)
    assert from_list.tomography == from_array.tomography
    assert np.array_equal(from_list.fidelity, from_array.fidelity)


def test_logical_operators_commute_with_heff(lat, heff, blocks):
    for block in blocks:
        for s in ("A", "B"):
            for kind in ("X", "Y", "Z"):
                op = enc.embed_block_operator(block, enc.logical_operator(s, kind))
                comm = heff.matrix @ op - op @ heff.matrix
                comm = comm.tocsr()
                comm.eliminate_zeros()
                assert comm.nnz == 0


def test_coherence_series_t0_matches_direct_tomography(lat, heff, blocks):
    times = np.linspace(0.0, 1.0, 3)
    series = dyn.coherence_experiment(blocks[0], heff, times, tol=1e-10)
    psi0 = enc.logical_state(blocks[0], dyn.DEFAULT_PROBE)
    direct = enc.logical_tomography(psi0, blocks[0])
    assert series.tomography[0] == direct
    assert series.fidelity[0] == pytest.approx(1.0, abs=1e-12)
    # under the bare constrained model the probe never moves
    assert np.all(series.fidelity >= 1.0 - 1e-10)
    assert series.tomography[-1]["X_A"] == pytest.approx(1.0, abs=1e-10)


def test_coherence_tomography_builds_no_pauli_products(heff, blocks, monkeypatch):
    # the two-qubit observables are tabulated once at import, not per call
    def forbidden(*args, **kwargs):
        raise AssertionError("np.kron called at run time")

    monkeypatch.setattr(np, "kron", forbidden)
    series = dyn.coherence_experiment(blocks[0], heff, [0.0, 0.5, 1.0])
    assert series.tomography[-1]["X_A"] == pytest.approx(1.0, abs=1e-10)


def test_coherence_break_run_is_exact_cosine(lat, heff, blocks):
    # diagonal breaking field: branches are exact eigenstates, so the
    # coherence precesses as cos(dE * t) with dE read off the diagonal
    block = blocks[0]
    pert = dyn.build_perturbation(lat, "break_longitudinal_random", 0.05, seed=7)
    op = heff + pert
    diag = pert.matrix.diagonal()
    d_e = float(diag[block.members[0]] - diag[block.members[2]])
    times = np.linspace(0.0, 8.0, 5)
    series = dyn.coherence_experiment(block, op, times, tol=1e-10)
    for k, t in enumerate(times):
        assert series.tomography[k]["X_A"] == pytest.approx(
            np.cos(d_e * t), abs=1e-8
        )
        assert series.population[k] == pytest.approx(1.0, abs=1e-10)


def test_czp_dynamics_moves_code_states(lat, blocks):
    # at finite coupling the transverse term mixes code states with the rest
    op = dyn.build_hczp(lat, J=1.0, h=0.5)
    psi0 = enc.logical_state(blocks[0], dyn.DEFAULT_PROBE)
    psi_t = dyn.evolve(psi0, op, 0.8, tol=1e-8)
    population = enc.logical_tomography(psi_t, blocks[0])["population"]
    assert population < 1.0 - 1e-3
    assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-7


def test_operator_addition(lat, heff):
    pert = dyn.build_perturbation(lat, "sym_zz_nnn", 0.01, seed=0)
    total = heff + pert
    assert (total.matrix != total.matrix.T).nnz == 0
    assert total.matrix.shape == heff.matrix.shape
    assert total.matrix.nnz >= heff.matrix.nnz
    assert total.lattice is heff.lattice is lat
    # a sum keeps the lattice only if both terms record it, in either order
    breaking = dyn.build_perturbation(lat, "break_zz_nn", 0.01)
    assert (heff + breaking).lattice is None and (breaking + heff).lattice is None


def test_size_guard():
    big = build_lattice(6)
    with pytest.raises(ValueError):
        dyn.build_heff(big)
    for build in (dyn.build_hczp, dyn.build_czp_strong):
        with pytest.raises(ValueError):
            build(big)
    with pytest.raises(ValueError):
        dyn.build_perturbation(big, "sym_transverse", 0.05)


def test_evolve_backward_returns_initial_state(lat, random_state):
    op = dyn.build_hczp(lat, J=1.0, h=0.5)
    forward = dyn.evolve(random_state, op, 1.5, tol=1e-10)
    assert np.linalg.norm(forward - random_state) > 1e-3
    back = dyn.evolve(forward, op, -1.5, tol=1e-10)
    assert np.linalg.norm(back - random_state) <= 1e-9


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_times_rejected(heff, blocks, random_state, t):
    with pytest.raises(ValueError):
        dyn.evolve(random_state, heff, t)
    with pytest.raises(ValueError):
        dyn.coherence_experiment(blocks[0], heff, [0.0, 1.0, t])


def test_complex_operator_rejected(heff, random_state):
    op = dyn.SparseOperator(matrix=heff.matrix.astype(complex))
    with pytest.raises(ValueError):
        dyn.evolve(random_state, op, 1.0)


def _series_against_expm_multiply(block, op, psi0, t_stop, num, series):
    # every grid point against scipy's scaling-and-squaring Taylor method
    reference = expm_multiply(-1j * op.matrix.astype(complex), psi0,
                              start=0.0, stop=t_stop, num=num, endpoint=True)
    for k, ref in enumerate(reference):
        expected = enc.logical_tomography(ref, block)
        for key, value in expected.items():
            assert abs(series.tomography[k][key] - value) <= 1e-9, (k, key)
        assert abs(series.fidelity[k] - abs(np.vdot(psi0, ref))) <= 1e-9, k


def test_chebyshev_path_against_expm_multiply(lat, blocks):
    # a complex state on single-flip neighbours of the block: outside every
    # block, so the probe cannot close and the recursion runs on both parts
    block = blocks[0]
    rng = np.random.default_rng(5)
    psi0 = np.zeros(1 << lat.n_sites, dtype=complex)
    for site in range(0, lat.n_sites, 3):
        psi0[block.members[0] ^ (1 << site)] = rng.normal() + 1j * rng.normal()
    psi0 /= np.linalg.norm(psi0)
    op = dyn.build_hczp(lat, J=1.0, h=0.5)
    times = np.linspace(0.0, 1.0, 5)
    series = dyn.coherence_experiment(block, op, times, tol=1e-10, initial=psi0)
    assert series.counters.chebyshev_order > 0
    assert series.counters.probe_dim == 0
    assert 0.0 < series.counters.error_bound <= 1e-10
    assert series.population.max() > 1e-3  # the block does get populated
    _series_against_expm_multiply(block, op, psi0, 1.0, 5, series)


def test_invariant_path_against_expm_multiply(lat, blocks, heff):
    # heff annihilates the code states and both fields are diagonal (break_zz_nn
    # vanishes on every L=4 code state), so the four members are eigenstates
    block = blocks[0]
    op = (heff + dyn.build_perturbation(lat, "break_zz_nn", 0.05)
          + dyn.build_perturbation(lat, "break_longitudinal_random", 0.05, seed=7))
    rng = np.random.default_rng(6)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 = enc.logical_state(block, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 20.0, 6)
    series = dyn.coherence_experiment(block, op, times, tol=1e-10, initial=psi0)
    assert series.counters.chebyshev_order == 0
    assert series.counters.probe_dim == 4
    assert series.counters.error_bound == 0.0
    _series_against_expm_multiply(block, op, psi0, 20.0, 6, series)


@pytest.fixture(scope="module")
def heff_sectors(lat, heff):
    """Sector labels of heff's flip graph, by scipy's own connected components."""
    _, labels = connected_components(heff.matrix, directed=False)
    return krylov_decompose(lat), labels


@pytest.mark.parametrize("size, kind", [(3, None), (9, "break_longitudinal_random")])
def test_krylov_sector_runs_the_recursion(lat, heff, heff_sectors, size, kind):
    # a random state spread over one whole sector: heff couples its states
    # to each other and to nothing else, so they are no eigenstates and the
    # recursion runs, however small the sector, and leaves no amplitude outside it
    sectors, labels = heff_sectors
    rep = next(s.representative for s in sectors if s.size == size)
    support = np.flatnonzero(labels == labels[rep])
    assert len(support) == size
    rng = np.random.default_rng(size)
    psi0 = np.zeros(1 << lat.n_sites, dtype=complex)
    psi0[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
    psi0 /= np.linalg.norm(psi0)
    op = heff if kind is None else heff + dyn.build_perturbation(lat, kind, 0.3, seed=3)
    times = np.linspace(0.0, 5.0, 6)
    values, counters = propagate(op, psi0, times)
    assert counters.chebyshev_order > 0
    assert counters.probe_dim == 0
    reference = expm_multiply(-1j * op.matrix.astype(complex), psi0,
                              start=0.0, stop=5.0, num=6, endpoint=True)
    assert np.linalg.norm(values - reference, axis=1).max() <= counters.error_bound
    assert not np.any(np.delete(values, support, axis=1))


@pytest.mark.parametrize("build", [
    lambda dim, lat: dyn.SparseOperator(matrix=2.0 * sp.identity(dim, format="csr")),
    lambda dim, lat: dyn.SparseOperator(matrix=sp.csr_matrix((dim, dim))),
    lambda dim, lat: dyn.build_perturbation(lat, "break_zz_nn", 0.05),
], ids=["2I", "zero", "break_zz_nn"])
def test_diagonal_operator_takes_the_exact_path_on_the_whole_space(lat, random_state, build):
    # every state is an eigenstate of a diagonal operator, so a state on the
    # whole space turns by its phases; 2 I and 0 have a spectrum of width 0,
    # which the recursion's interval would divide by
    dim = len(random_state)
    op = build(dim, lat)
    values, counters = propagate(op, random_state, [0.0, 1.5])
    assert counters == dyn.PropagatorCounters(0, dim, 0.0, 0.0, 0)
    assert np.array_equal(values[0], random_state)
    assert np.array_equal(values[1], np.exp(-1.5j * op.matrix.diagonal()) * random_state)


@pytest.mark.parametrize("build", [
    lambda lat: dyn.build_heff(lat, h=0.0),
    lambda lat: dyn.build_perturbation(lat, "sym_transverse", 0.0),
], ids=["heff_h0", "sym_transverse_lam0"])
def test_stored_zero_couplings_take_the_exact_path(lat, blocks, build):
    # every coupling is stored, with value zero: the states must count as
    # eigenstates, so a single-flip neighbour of a member stays where it is
    op = build(lat)
    assert op.matrix.nnz > 0 and not np.any(op.matrix.data)
    psi0 = enc.logical_state(blocks[0], [0.6, 0.0, 0.0, 0.8j])
    psi0[blocks[0].members[0] ^ 1] = 0.5
    values, counters = propagate(op, psi0, [0.0, 3.0])
    assert counters == dyn.PropagatorCounters(0, 3, 0.0, 0.0, 0)
    reference = expm_multiply(-3j * op.matrix.astype(complex), psi0)
    assert np.abs(values[1] - reference).max() <= 1e-15
    assert np.abs(values[0] - psi0).max() <= 1e-15


def test_import_leaves_scipy_linalg_unloaded():
    # start-up loads no scipy.linalg
    code = "import sys, fragmenta, fragmenta.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
    # the package namespace loads only the modules behind build_lattice and
    # enumerate_blocks, and the Chebyshev coefficients need no scipy.special
    code = ("import sys, numpy, fragmenta\n"
            "print(sorted(m for m in sys.modules if m.startswith('fragmenta')))\n"
            "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n"
            "from fragmenta import dynamics\n"
            "dynamics._chebyshev_coefficients(numpy.linspace(-440.0, 440.0, 26), 1e-10)\n"
            "print('scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines() == [
        "['fragmenta', 'fragmenta.config', 'fragmenta.encoding', "
        "'fragmenta.fragmentation', 'fragmenta.lattice']",
        "False False",
        "False",
    ]


def test_spectral_interval_contains_ritz_values(lat, sym_transverse_ops):
    # extremal Ritz values of a 40-step Lanczos run lie inside the spectrum
    op = sym_transverse_ops["czp_strong"]
    c, a = interval(op)
    rng = np.random.default_rng(2)
    v = rng.normal(size=1 << lat.n_sites)
    V = [v / np.linalg.norm(v)]
    alphas, betas = [], []
    for j in range(40):
        w = op.matrix @ V[j]
        alphas.append(V[j] @ w)
        for _ in range(2):
            for u in V:
                w -= (u @ w) * u
        betas.append(np.linalg.norm(w))
        V.append(w / betas[-1])
    T = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    ritz = np.linalg.eigvalsh(T)
    assert c - a <= ritz[0] and ritz[-1] <= c + a


def _gershgorin(matrix):
    d = matrix.diagonal()
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - radius)), float(np.max(d + radius))


_BASES = {
    "heff": dyn.build_heff,
    "czp": dyn.build_hczp,
    "czp_strong": dyn.build_czp_strong,
}


@pytest.fixture(scope="module")
def bases(lat):
    return {name: build(lat) for name, build in _BASES.items()}


@pytest.mark.parametrize("kind", ("none",) + dyn.PERTURBATION_KINDS)
@pytest.mark.parametrize("base", tuple(_BASES))
def test_spectral_interval_holds_eigsh_extremes(lat, blocks, bases, base, kind):
    # every operator `fragmenta evolve` builds at its defaults: each toggle
    # of the lattice it records commutes with it, and the interval, taken in
    # the trivial sector of the lattice's group, is the full space's, holds
    # the extreme eigenvalues and lies inside the Gershgorin interval
    op = bases[base]
    if kind != "none":
        op = op + dyn.build_perturbation(lat, kind, 0.05, seed=7)
    assert op.lattice is (None if kind.startswith("break_") else lat)
    for mask in (lat.mask_a, lat.mask_b) if op.lattice else ():
        assert commutes_with_toggle(op.matrix, mask, op.matrix.shape[0])
    c, a = interval(op)
    c_full, a_full = interval(op, group=[0])
    assert abs(c - c_full) <= 1e-12 * a_full and abs(a - a_full) <= 1e-12 * a_full
    if op.lattice:
        # and in the trivial sector of block 9's G: the toggles times 8 translations
        c, a = dyn._spectral_interval(sectors(op.matrix, op.lattice, np.sort(blocks[9].members)))
        assert abs(c - c_full) <= 1e-12 * a_full and abs(a - a_full) <= 1e-12 * a_full
    lo, hi = (float(eigsh(op.matrix, k=1, which=which, tol=1e-12,
                          return_eigenvectors=False)[0]) for which in ("SA", "LA"))
    slack = 1e-9 * max(abs(lo), abs(hi))  # eigsh's own error
    assert c - a <= lo + slack and hi - slack <= c + a
    g_lo, g_hi = _gershgorin(op.matrix)
    assert g_lo <= c - a and c + a <= g_hi


def test_chebyshev_path_with_empty_rows_against_expm_multiply(lat, heff, random_state):
    # bare heff has empty rows (the frozen states), and czp_strong plus a
    # diagonal field has rows with no off-diagonal entry; the interval must
    # stay finite and tight there, not fall back to Gershgorin
    _, a = interval(heff)
    assert a < 8.5  # Gershgorin gives 16, the spectrum +-8.4676
    czp_diag = dyn.build_czp_strong(lat) + dyn.build_perturbation(lat, "break_zz_nn", 0.05)
    for op in (heff, czp_diag):
        # random_state fills the whole space, whose states both operators
        # couple: it runs the recursion
        values, counters = propagate(op, random_state, [1.0])
        assert counters.chebyshev_order > 0
        assert counters.probe_dim == 0
        g_lo, g_hi = _gershgorin(op.matrix)
        assert counters.half_width < 0.5 * (g_hi - g_lo)
        reference = expm_multiply(-1j * op.matrix.astype(complex), random_state)
        assert np.linalg.norm(values[0] - reference) <= 1e-9


def _order_search(x, tol, table):
    # _chebyshev_coefficients on a given Bessel table, with scipy's gammaln
    # for log k!: every order up to the crude cutoff kmax where
    # 4 (|x|/2)^k / k! drops below tol / 1e6, then the tail bound
    from scipy.special import gammaln

    xmax = max(float(np.abs(x).max()), 1.0)
    ks = np.arange(int(np.ceil(xmax)), int(3 * xmax) + 100)
    log_rest = np.log(4.0) + ks * np.log(xmax / 2.0) - gammaln(ks + 1.0)
    kmax = int(ks[np.argmax(log_rest < np.log(tol) - 6.0 * np.log(10.0))])
    bessel = table(x, kmax)
    tails = np.zeros(kmax + 1)
    tails[:kmax] = 2.0 * np.cumsum(np.abs(bessel[::-1]), axis=0)[::-1].max(axis=1)
    tails += np.exp(log_rest[kmax - ks[0]])
    order = int(np.argmax(tails <= tol))
    phases = np.array([1.0, -1j, -1.0, 1j])[np.arange(order) % 4]
    coef = phases[:, None] * bessel[:order]
    coef[1:] *= 2.0
    return coef, float(tails[order])


def _jv_table(x, n):
    from scipy.special import jv

    return jv(np.arange(n)[:, None], x[None, :])


@pytest.mark.parametrize("xmax", [400.0, 1200.0])
def test_chebyshev_coefficients_match_the_full_jv_table(xmax):
    # backward and forward times and t = 0 on one grid
    x = np.linspace(-xmax, xmax, 27)
    coef, bound = dyn._chebyshev_coefficients(x, 1e-10)
    expected, reference_bound = _order_search(x, 1e-10, _jv_table)
    assert len(coef) == len(expected)
    assert bound == pytest.approx(reference_bound, rel=1e-9)
    assert bound <= 1e-10
    assert np.abs(coef - expected).max() <= 2e-13


@pytest.mark.parametrize("xmax", [1.0, 3.5, 40.0, 440.0, 2000.0, 20000.0])
def test_chebyshev_coefficients_match_the_gammaln_order_search(xmax):
    # math.lgamma picks the same cutoff, coefficients and bound as gammaln
    x = np.linspace(-xmax, xmax, 5)
    for tol in (1e-12, 1e-10, 1e-6, 1e-2, 6.67):
        coef, bound = dyn._chebyshev_coefficients(x, tol)
        reference, reference_bound = _order_search(x, tol, dyn._bessel_table)
        assert np.array_equal(coef, reference)
        assert bound == reference_bound


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_chebyshev_terms_yields_order_terms(order):
    # T_0..T_{order-1} of the 2 x 2 matrix x = [[0, 1], [1, 0]] on e_0
    H = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    terms = list(dyn._chebyshev_terms(H, 0.0, 1.0, [np.array([1.0, 0.0])], order))
    assert len(terms) == order
    expected = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]  # T_2(x) = 2 x^2 - 1 = 1
    for (term,), want in zip(terms, expected):
        assert np.array_equal(term, want)


def test_bessel_table_at_tiny_and_zero_arguments():
    x = np.array([0.0, 1e-300, 1e-200, 1e-8, -1e-8])
    table = dyn._bessel_table(x, 40)
    assert np.all(np.isfinite(table))
    assert table[0, 0] == 1.0 and not np.any(np.abs(table[1:, 0]) > 1e-299)
    assert table[1, 3] == pytest.approx(5e-9, rel=1e-12)
    assert table[1, 4] == pytest.approx(-5e-9, rel=1e-12)


def test_chebyshev_coefficients_peak_memory():
    # the real Bessel table and the complex coefficients drawn from it are
    # the only full-size arrays alive together: every other step of the
    # table and the tail sums works in place
    x = np.linspace(-4000.0, 4000.0, 101)
    dyn._chebyshev_coefficients(x[:2], 1e-10)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        coef, _ = dyn._chebyshev_coefficients(x, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * coef.nbytes


def test_sectors_complex_full_state_against_expm_multiply(lat, random_state):
    # a random complex state is in all four sectors, each with two real
    # parts: 2 x 2^16 rows per order, as for Re and Im over the whole space
    op = dyn.build_czp_strong(lat) + dyn.build_perturbation(lat, "sym_zz_nnn", 0.05)
    times = [0.4, 1.0]
    values, counters = propagate(op, random_state, times)
    assert counters.rows_per_order == 2 * (1 << lat.n_sites)
    for t, psi in zip(times, values):
        reference = expm_multiply(-1j * t * op.matrix.astype(complex), random_state)
        assert np.linalg.norm(psi - reference) <= 1e-9


# the id is the one this case had beside the single-toggle cases, which no
# operator can record any more
@pytest.mark.parametrize("names, order", [pytest.param(("A", "B", "A^B"), 4, id="names2-4")])
def test_sectors_of_any_toggle_list_against_expm_multiply(lat, random_state, names, order):
    # the dependent list A, B, A ^ B with the identity is the lattice's toggle
    # group, and the projection and reassembly read all four of its characters
    masks = {"A": lat.mask_a, "B": lat.mask_b, "A^B": lat.mask_a ^ lat.mask_b}
    group = [0] + [masks[name] for name in names]
    op = dyn.build_czp_strong(lat) + dyn.build_perturbation(lat, "sym_zz_nnn", 0.05)
    assert group == dyn._group(op.lattice)[0]
    assert len(sectors(op.matrix, group).chars) == order
    values, counters = propagate(op, random_state, [0.7])
    assert counters.rows_per_order == 2 * (1 << lat.n_sites)
    reference = expm_multiply(-1j * 0.7 * op.matrix.astype(complex), random_state)
    assert np.linalg.norm(values[0] - reference) <= 1e-9


def test_sectors_logical_state_full_output_against_expm_multiply(blocks, sym_transverse_ops):
    # a logical state has one amplitude per sector, so each sector runs one
    # real recursion; block 3's K holds two translations, so the four sectors
    # of G (order 8) have 8,320 + 3 x 8,192 orbit states: not 2^16 / 4 each
    op = sym_transverse_ops["heff"]
    rng = np.random.default_rng(8)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 = enc.logical_state(blocks[3], amps / np.linalg.norm(amps))
    values, counters = propagate(op, psi0, [2.0])
    assert counters.rows_per_order == 8320 + 3 * 8192
    psi_t = dyn.evolve(psi0, op, 2.0, tol=1e-10)
    assert np.array_equal(psi_t, values[0])
    reference = expm_multiply(-1j * 2.0 * op.matrix.astype(complex), psi0)
    assert np.linalg.norm(psi_t - reference) <= 1e-9
    # the default probe lives in two of the four sectors
    _, counters = propagate(op, enc.logical_state(blocks[3], dyn.DEFAULT_PROBE), [2.0])
    assert counters.rows_per_order == 8320 + 8192


# rows per order of a logical state recorded on its block, block by block:
# half the four sectors' dimensions, about 2^16 / (8 |K|) each, where K holds
# the 2, 4 or 8 translations that map the block to itself
MOMENT_ROWS_PER_ORDER = (8288, 8288, 16448, 16448, 16448, 16448, 8288,
                         16448, 16448, 4148, 16448, 8288, 4148, 16448)


@pytest.mark.parametrize("name", ["heff", "hczp", "czp_strong"])
def test_moment_path_on_every_block_against_expm_multiply(lat, blocks, sym_transverse_ops, name):
    # recorded on its orbit alone, as coherence_experiment records it, a
    # logical state is one orbit state in each of the four sectors its K
    # leaves: its amplitudes are return amplitudes from moments, two per
    # mat-vec, so each sector multiplies half its rows per order
    op = sym_transverse_ops[name]
    matrix = op.matrix.astype(complex)
    rng = np.random.default_rng(12)
    for block, rows_per_order in zip(blocks, MOMENT_ROWS_PER_ORDER, strict=True):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = enc.logical_state(block, amps / np.linalg.norm(amps))
        rows = np.sort(block.members)
        values, counters = dyn._propagate(op, psi0, [0.5], 1e-10, rows)
        assert counters.rows_per_order == rows_per_order
        assert np.abs(values[0] - expm_multiply(-0.5j * matrix, psi0)[rows]).max() <= 1e-9


@pytest.mark.parametrize("toggle", ["none", "A^B"])
def test_k_invariant_state_on_small_orbits_against_expm_multiply(lat, sym_transverse_ops,
                                                                 toggle):
    # twelve configurations x with T(x) ^ m = x, T the shift by two columns:
    # K holds x -> T(x) ^ m, so G has order 8, and the state spreads over
    # orbits of 4 and of 8 configurations, whose stabilizer norms differ,
    # and over orbits that vanish in some sectors.  Complex amplitudes run
    # two real parts in each of the four sectors, 8,320 + 3 x 8,192 rows
    op = sym_transverse_ops["hczp"]
    m = {"none": 0, "A^B": lat.mask_a ^ lat.mask_b}[toggle]
    configs = np.arange(1 << lat.n_sites)
    fixed = configs[translate_by_sites(lat, configs, 2, 0) ^ m == configs]
    assert len(fixed) == 256
    rng = np.random.default_rng(21)
    psi0 = np.zeros(1 << lat.n_sites, dtype=complex)
    psi0[rng.choice(fixed, size=12, replace=False)] = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 /= np.linalg.norm(psi0)
    values, counters = propagate(op, psi0, [0.8])
    assert counters.rows_per_order == 2 * (8320 + 3 * 8192)
    psi_t = dyn.evolve(psi0, op, 0.8)
    assert np.array_equal(psi_t, values[0])
    reference = expm_multiply(-0.8j * op.matrix.astype(complex), psi0)
    assert np.linalg.norm(psi_t - reference) <= 1e-9


def test_a_translation_recorded_on_a_breaking_operator_is_rejected(lat):
    # the unconstrained flips with site 0's weighing 2 commute with both
    # toggles, but not with a translation that moves site 0.  Every
    # translation fixes |0>, so K holds all eight, and the check names one
    g = lat.mask_a ^ lat.mask_b
    graph = dyn.move_graph(lat, constrained=False)
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    graph.data[(rows ^ graph.indices) == 1] = 2.0
    assert sectors_accept(graph, [0, lat.mask_a, lat.mask_b, g])
    assert not commutes_with_translation(lat, graph, 0, 2)
    op = dyn.SparseOperator(graph, lat)
    psi0 = np.zeros(1 << lat.n_sites, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(ValueError, match=r"T\((?!0, 0)"):
        dyn.evolve(psi0, op, 1.0)


def test_recorded_translations_generate_their_group(lat):
    # _Sectors checks each element it is handed, and no other: the lattice's
    # toggles and even shifts must each be closed, and each shift must keep
    # both toggles, for that check to cover the group
    group, shifts, L = dyn._group(lat)
    assert {a ^ b for a in group for b in group} == set(group) and len(group) == 4
    assert {((a + c) % L, (b + d) % L) for a, b in shifts for c, d in shifts} == set(shifts)
    assert shifts == sorted(shifts) and len(shifts) == L * L // 2
    for dx, dy in shifts:
        assert np.array_equal(translate_by_sites(lat, np.array(group), dx, dy), group)


def test_a_lattice_on_another_basis_is_rejected_when_recorded(lat):
    with pytest.raises(ValueError, match=r"dimension 8 is not 2\^16"):
        dyn.SparseOperator(sp.identity(8, format="csr"), lat)
    assert dyn.SparseOperator(sp.identity(8, format="csr")).lattice is None


def test_moment_path_at_thousands_of_orders_against_expm_multiply(lat, blocks):
    # czp_strong + sym_transverse kept on the 548 configurations within Hamming
    # distance 2 of block 0's orbit: the toggles and block 0's K (four
    # translations, each with its toggle) map that ball to itself, so the
    # operator still commutes with G, though not with the other translations
    # it records; expm_multiply runs on the ball alone, cheaply at t = 1,000
    # (8,352 orders)
    block = blocks[0]
    configs = np.arange(1 << lat.n_sites)
    ball = np.min(np.bitwise_count(configs[:, None] ^ np.array(block.members)), axis=1) <= 2
    full = dyn.build_czp_strong(lat) + dyn.build_perturbation(lat, "sym_transverse", 0.3)
    keep = sp.diags(ball.astype(float), format="csr")
    op = dyn.SparseOperator((keep @ full.matrix @ keep).tocsr(), full.lattice)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 = enc.logical_state(block, amps / np.linalg.norm(amps))
    rows = np.sort(block.members)
    values, counters = dyn._propagate(op, psi0, [1000.0], 1e-10, rows)
    assert counters.chebyshev_order > 8000
    assert counters.rows_per_order == MOMENT_ROWS_PER_ORDER[0]
    inside = np.flatnonzero(ball)
    small = full.matrix[inside][:, inside].astype(complex)
    reference = expm_multiply(-1000j * small, psi0[inside])
    assert np.abs(values[0] - reference[np.searchsorted(inside, rows)]).max() <= 1e-9


def test_a_basis_state_outside_the_block_keeps_the_recording_path(lat, blocks,
                                                                 sym_transverse_ops):
    # a single flip off the orbit is one orbit state per sector too, but the
    # block's orbit is recorded as well: two rows per sector, which only the
    # recording gives, one real part of 2^16 / 4 rows in each of four sectors
    # (no translation fixes the flipped configuration)
    block = blocks[0]
    op = sym_transverse_ops["heff"]
    psi0 = np.zeros(1 << lat.n_sites, dtype=complex)
    psi0[block.members[0] ^ 1] = 1.0
    series = dyn.coherence_experiment(block, op, np.linspace(0.0, 1.0, 3), initial=psi0)
    assert series.counters.rows_per_order == 1 << lat.n_sites
    assert series.population[-1] > 1e-4  # the block does get populated
    _series_against_expm_multiply(block, op, psi0, 1.0, 3, series)


def test_an_operator_without_toggles_keeps_the_recording_path(lat, blocks):
    # hczp + break_longitudinal_random records no lattice: one sector, in
    # which the block's four members are four rows to record
    block = blocks[0]
    op = dyn.build_hczp(lat) + dyn.build_perturbation(lat, "break_longitudinal_random", 0.05)
    assert op.lattice is None
    series = dyn.coherence_experiment(block, op, np.linspace(0.0, 1.0, 3))
    assert series.counters.rows_per_order == 1 << lat.n_sites
    psi0 = enc.logical_state(block, dyn.DEFAULT_PROBE)
    _series_against_expm_multiply(block, op, psi0, 1.0, 3, series)


def test_a_false_toggle_is_rejected_where_the_sectors_are_built(lat, blocks):
    # hczp + break_longitudinal_random with the lattice recorded by hand:
    # when recorded toggles were trusted, this state at t = 3 came out 1.43
    # (2-norm) from expm_multiply while error_bound read 5.6e-11
    sym = dyn.build_hczp(lat) + dyn.build_perturbation(lat, "break_longitudinal_random", 0.3)
    op = dyn.SparseOperator(sym.matrix, lat)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 = enc.logical_state(blocks[0], amps / np.linalg.norm(amps))
    with pytest.raises(ValueError, match="does not commute"):
        dyn.evolve(psi0, op, 3.0)
    with pytest.raises(ValueError, match="does not commute"):
        dyn.coherence_experiment(blocks[0], op, [0.0, 3.0], initial=psi0)


def test_symmetry_check_reads_the_rows_of_the_product_toggle(lat, heff, random_state):
    # a symmetric edit on two rows whose group element is mask_a ^ mask_b:
    # checking the two generators alone never reads those rows
    g = lat.mask_a ^ lat.mask_b
    group = [0, lat.mask_a, lat.mask_b, g]
    x, y = g, 3 ^ g
    for row in (x, y):
        assert min(row ^ h for h in group) == row ^ g
    assert heff.matrix[x, y] == 0.0
    edit = sp.csr_matrix(([1.0, 1.0], ([x, y], [y, x])), shape=heff.matrix.shape)
    op = dyn.SparseOperator((heff.matrix + edit).tocsr(), lat)
    assert not commutes_with_toggle(op.matrix, lat.mask_a, op.matrix.shape[0])
    with pytest.raises(ValueError, match="does not commute"):
        sectors(op.matrix, group)
    with pytest.raises(ValueError, match="does not commute"):
        dyn.evolve(random_state, op, 1.0)


def test_operator_without_toggles_against_expm_multiply(lat, heff, random_state):
    # breaking the symmetry drops the lattice: one sector, the whole space
    op = heff + dyn.build_perturbation(lat, "break_zz_nn", 0.05)
    assert op.lattice is None
    assert dyn.SparseOperator(matrix=heff.matrix).lattice is None
    values, counters = propagate(op, random_state, [0.9])
    assert counters.chebyshev_order > 0
    assert counters.rows_per_order == 2 * (1 << lat.n_sites)
    reference = expm_multiply(-1j * 0.9 * op.matrix.astype(complex), random_state)
    assert np.linalg.norm(values[0] - reference) <= 1e-9
