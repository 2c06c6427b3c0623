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
from fragmenta.lattice import build_lattice

SQ2 = 2 ** -0.5


def propagate(op, psi, times):
    """_propagate at tol 1e-10 on every row, as evolve calls it."""
    return dyn._propagate(op, psi, times, 1e-10, np.arange(len(psi)))


def interval(op, toggles=None):
    """The propagator's spectral interval of op, in the sectors of its toggles."""
    toggles = op.toggles if toggles is None else toggles
    return dyn._spectral_interval(dyn._Sectors(op.matrix, toggles))


@pytest.fixture(scope="module")
def lat():
    return build_lattice(4)


@pytest.fixture(scope="module")
def blocks(lat):
    return enc.enumerate_blocks(lat)


@pytest.fixture(scope="module")
def heff(lat):
    return dyn.build_heff(lat, h=1.0)


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
    assert op.toggles == ((lat.mask_a, lat.mask_b) if symmetric else ())


@pytest.mark.parametrize("kind", dyn.PERTURBATION_KINDS)
def test_diagonal_symmetry_check_agrees_with_conjugation(lat, kind):
    # build_perturbation's one check, _commutes, runs on every kind's
    # unit-strength matrix, diagonal or not; it must agree with the oracle
    matrix = dyn.build_perturbation(lat, kind, 1.0, seed=7).matrix
    for mask in (lat.mask_a, lat.mask_b):
        by_conjugation = commutes_with_toggle(matrix, mask, matrix.shape[0])
        assert by_conjugation == kind.startswith("sym_")
        assert dyn._commutes(matrix, mask) == by_conjugation


@pytest.mark.parametrize("build", (dyn.build_heff, dyn.build_hczp, dyn.build_czp_strong))
def test_symmetry_check_agrees_with_conjugation_on_the_hamiltonians(lat, build):
    matrix = build(lat, h=0.3).matrix
    for mask in (lat.mask_a, lat.mask_b):
        assert commutes_with_toggle(matrix, mask, matrix.shape[0])
        assert dyn._commutes(matrix, mask)
    # flipping site 0 alone breaks the flip constraints or the plaquette energy
    assert not dyn._commutes(matrix, 1)
    assert not commutes_with_toggle(matrix, 1, matrix.shape[0])


@pytest.mark.parametrize(
    "kind", ("sym_zz_nnn", "break_longitudinal_random", "break_zz_nn", "sym_transverse"))
def test_symmetry_check_rejects_one_changed_diagonal_entry(lat, kind, monkeypatch):
    # z of site 0 changed in the all-up configuration, where every partner
    # of site 0 has z = 1, changes that one diagonal entry; for the
    # transverse field, one weight of the unconstrained move graph changes
    z_values, move_graph = dyn._z_values, dyn.move_graph

    def changed(cfgs, site):
        z = z_values(cfgs, site)
        if site == 0:
            z[0] += 0.5
        return z

    def changed_weight(lat, constrained=True):
        graph = move_graph(lat, constrained)
        graph.data[0] += 0.5
        assert not commutes_with_toggle(graph, lat.mask_a, graph.shape[0])
        return graph

    monkeypatch.setattr(dyn, "_z_values", changed)
    monkeypatch.setattr(dyn, "move_graph", changed_weight)
    if kind.startswith("sym_"):
        with pytest.raises(AssertionError):
            dyn.build_perturbation(lat, kind, 0.05, seed=7)
    else:
        assert dyn.build_perturbation(lat, kind, 0.05, seed=7).toggles == ()


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
            assert dyn._commutes(matrix, mask) == symmetric


def test_symmetry_check_compares_rows_not_only_entries():
    # conjugating [[1, 1], [0, 0]] by x -> x ^ 1 moves both entries to row 1,
    # where sorted they read as row 0 did: only the row lengths tell them apart
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not dyn._commutes(matrix, 1)
    assert dyn._commutes(sp.csr_matrix(np.ones((2, 2))), 1)


@pytest.mark.parametrize("kind", dyn.PERTURBATION_KINDS)
def test_perturbation_at_zero_lambda(lat, kind):
    # the symmetry self-check runs at unit strength, so lam = 0 is legal
    op = dyn.build_perturbation(lat, kind, 0.0, seed=7)
    assert not np.any(op.matrix.data)


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
    d_e = float(diag[block.member(0, 0)] - diag[block.member(1, 0)])
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
        psi0[block.member(0, 0) ^ (1 << site)] = rng.normal() + 1j * rng.normal()
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
    # vanishes on every L=4 code state), so the four members' support is closed
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
def test_exact_path_on_a_krylov_sector_against_expm_multiply(lat, heff, heff_sectors,
                                                              size, kind):
    # a random state spread over one whole sector: heff couples its states
    # to each other and to nothing else, so the dense eigh runs on the sector
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
    assert counters == dyn.PropagatorCounters(0, size, 0.0, 0.0, 0)
    reference = expm_multiply(-1j * op.matrix.astype(complex), psi0,
                              start=0.0, stop=5.0, num=6, endpoint=True)
    assert np.abs(values - reference).max() <= 1e-12
    assert np.count_nonzero(values[-1]) == size  # the sector, and nothing outside


@pytest.mark.parametrize("build", [
    lambda lat: dyn.build_heff(lat, h=0.0),
    lambda lat: dyn.build_perturbation(lat, "sym_transverse", 0.0),
], ids=["heff_h0", "sym_transverse_lam0"])
def test_stored_zero_couplings_take_the_exact_path(lat, blocks, build):
    # every coupling is stored, with value zero: the support must count as
    # closed, so a single-flip neighbour of a member stays where it is
    op = build(lat)
    assert op.matrix.nnz > 0 and not np.any(op.matrix.data)
    psi0 = enc.logical_state(blocks[0], [0.6, 0.0, 0.0, 0.8j])
    psi0[blocks[0].member(0, 0) ^ 1] = 0.5
    values, counters = propagate(op, psi0, [0.0, 3.0])
    assert counters == dyn.PropagatorCounters(0, 3, 0.0, 0.0, 0)
    reference = expm_multiply(-3j * op.matrix.astype(complex), psi0)
    assert np.abs(values[1] - reference).max() <= 1e-15
    assert np.abs(values[0] - psi0).max() <= 1e-15


def test_import_leaves_scipy_linalg_unloaded():
    # the exact path diagonalizes with numpy: start-up loads no scipy.linalg
    code = "import sys, fragmenta, fragmenta.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_spectral_interval_contains_ritz_values(lat):
    # extremal Ritz values of a 40-step Lanczos run lie inside the spectrum
    op = dyn.build_czp_strong(lat, J=1.0) + dyn.build_perturbation(
        lat, "sym_transverse", 0.05)
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
def test_spectral_interval_holds_eigsh_extremes(lat, bases, base, kind):
    # every operator `fragmenta evolve` builds at its defaults: each toggle
    # it records commutes with it, and the interval, taken in the trivial
    # sector of those toggles, is the full space's, holds the extreme
    # eigenvalues and lies inside the Gershgorin interval
    op = bases[base]
    if kind != "none":
        op = op + dyn.build_perturbation(lat, kind, 0.05, seed=7)
    assert op.toggles == (() if kind.startswith("break_") else (lat.mask_a, lat.mask_b))
    for mask in op.toggles:
        assert commutes_with_toggle(op.matrix, mask, op.matrix.shape[0])
    c, a = interval(op)
    c_full, a_full = interval(op, toggles=())
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
        # random_state fills the whole space, a support every H maps into
        # itself but far above _EXACT_SUPPORT: it runs the recursion
        values, counters = propagate(op, random_state, [1.0])
        assert counters.chebyshev_order > 0
        assert counters.probe_dim == 0
        g_lo, g_hi = _gershgorin(op.matrix)
        assert counters.half_width < 0.5 * (g_hi - g_lo)
        reference = expm_multiply(-1j * op.matrix.astype(complex), random_state)
        assert np.linalg.norm(values[0] - reference) <= 1e-9


def _jv_coefficients(x, tol):
    # the full-table construction, on scipy's jv: every order up to the
    # crude cutoff kmax where 4 (|x|/2)^k / k! drops below tol / 1e6
    from scipy.special import gammaln, jv

    xmax = max(float(np.abs(x).max()), 1.0)
    ks = np.arange(int(np.ceil(xmax)), int(3 * xmax) + 100)
    log_rest = np.log(4.0) + ks * np.log(xmax / 2.0) - gammaln(ks + 1.0)
    kmax = int(ks[np.argmax(log_rest < np.log(tol) - 6.0 * np.log(10.0))])
    bessel = jv(np.arange(kmax)[:, None], x[None, :])
    tails = np.cumsum(2.0 * np.abs(bessel[::-1]), axis=0)[::-1].max(axis=1)
    tails += np.exp(log_rest[kmax - ks[0]])
    order = int(np.argmax(tails <= tol))
    return bessel[:order], order, float(tails[order])


@pytest.mark.parametrize("xmax", [400.0, 1200.0])
def test_chebyshev_coefficients_match_the_full_jv_table(xmax):
    # backward and forward times and t = 0 on one grid
    x = np.linspace(-xmax, xmax, 27)
    coef, bound = dyn._chebyshev_coefficients(x, 1e-10)
    bessel, order, reference_bound = _jv_coefficients(x, 1e-10)
    assert len(coef) == order
    assert bound == pytest.approx(reference_bound, rel=1e-9)
    assert bound <= 1e-10
    phases = np.array([1.0, -1j, -1.0, 1j])[np.arange(order) % 4]
    expected = phases[:, None] * bessel * np.where(np.arange(order) > 0, 2.0, 1.0)[:, None]
    assert np.abs(coef - expected).max() <= 2e-13


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
    dyn._chebyshev_coefficients(x[:2], 1e-10)  # imports outside the trace
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


def test_sectors_logical_state_full_output_against_expm_multiply(lat, blocks):
    # a logical state has one amplitude per sector, so each sector runs one
    # real recursion of 2^16 / 4 rows: half of Re and Im over the whole space
    op = dyn.build_heff(lat) + dyn.build_perturbation(lat, "sym_transverse", 0.05)
    rng = np.random.default_rng(8)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 = enc.logical_state(blocks[3], amps / np.linalg.norm(amps))
    values, counters = propagate(op, psi0, [2.0])
    assert counters.rows_per_order == 1 << 16
    psi_t = dyn.evolve(psi0, op, 2.0, tol=1e-10)
    assert np.array_equal(psi_t, values[0])
    reference = expm_multiply(-1j * 2.0 * op.matrix.astype(complex), psi0)
    assert np.linalg.norm(psi_t - reference) <= 1e-9
    # the default probe lives in two of the four sectors
    _, counters = propagate(op, enc.logical_state(blocks[3], dyn.DEFAULT_PROBE), [2.0])
    assert counters.rows_per_order == (1 << 16) // 2


def test_operator_without_toggles_against_expm_multiply(lat, heff, random_state):
    # breaking the symmetry drops the toggles: one sector, the whole space
    op = heff + dyn.build_perturbation(lat, "break_zz_nn", 0.05)
    assert op.toggles == ()
    assert dyn.SparseOperator(matrix=heff.matrix).toggles == ()
    values, counters = propagate(op, random_state, [0.9])
    assert counters.chebyshev_order > 0
    assert counters.rows_per_order == 2 * (1 << lat.n_sites)
    reference = expm_multiply(-1j * 0.9 * op.matrix.astype(complex), random_state)
    assert np.linalg.norm(values[0] - reference) <= 1e-9
