import tracemalloc

import numpy as np
import pytest

from fragmenta import config as cm
from fragmenta import encoding as enc
from fragmenta import gates
from fragmenta import syndrome as syn
from fragmenta.fragmentation import code_states, enumerate_frozen
from fragmenta.lattice import build_lattice

SQ2 = 2 ** -0.5
DIM = 1 << 16


def support_of(psi):
    """The support (configs, amplitudes) of a dense state, as the syndrome code takes it."""
    configs = np.flatnonzero(psi)
    return configs, psi[configs]


def basis(cfg):
    """The support of the basis state |cfg>."""
    return np.array([cfg]), np.ones(1)


def dense(support):
    configs, amplitudes = support
    psi = np.zeros(DIM, dtype=amplitudes.dtype)
    psi[configs] = amplitudes
    return psi


def pauli_by_index_formula(psi, site, pauli):
    """A single-site Pauli on a dense state: gather X through the flipped
    index, multiply Z by the +-1 sign of the bit, Y = i X Z."""
    idx = np.arange(len(psi), dtype=np.int64)
    if pauli == "X":
        return psi[idx ^ (1 << site)]
    z = psi * (1.0 - 2.0 * ((idx >> site) & 1))
    return z if pauli == "Z" else 1j * z[idx ^ (1 << site)]


@pytest.fixture(scope="module")
def lat():
    return build_lattice(4)


@pytest.fixture(scope="module")
def blocks(lat):
    return enc.enumerate_blocks(lat)


def test_code_states_have_uniform_plus_syndrome(lat):
    for cfg in code_states(lat).tolist():
        res = syn.extract_syndrome(basis(cfg), lat)
        assert res.uniform and all(s == 1 for s in res.signs)
        assert res.defect_count == 0


def test_all_zeros_syndrome(lat):
    res = syn.extract_syndrome(basis(0), lat)
    assert res.uniform and all(s == -1 for s in res.signs)


def test_non_code_frozen_states_have_defects(lat):
    # every unflippable state with intersections shows at least one -1
    cfgs = np.arange(1 << 16, dtype=np.uint32)
    frozen = cm.frozen_mask(cfgs, lat)
    frozen_cfgs = cfgs[frozen]
    nint = cm.intersection_counts(frozen_cfgs, lat)
    non_code = frozen_cfgs[nint > 0]
    assert len(non_code) == enumerate_frozen(lat).count_unflippable - 56
    stabs = cm.stabilizer_signs(non_code, lat)
    assert np.all(np.any(stabs == -1, axis=1))


def test_x_error_defect_pattern(lat):
    # -1 exactly on the four plaquettes containing the hit site
    for cfg in code_states(lat)[:8].tolist():
        for site in range(lat.n_sites):
            res = syn.extract_syndrome(basis(cfg ^ (1 << site)), lat)
            defect_plaquettes = {p for p, s in enumerate(res.signs) if s == -1}
            assert defect_plaquettes == {
                p for p in range(lat.n_plaquettes) if site in lat.plaq_corners[p]
            }
            assert len(defect_plaquettes) == 4


def test_extract_syndrome_on_states(lat, blocks):
    block = blocks[0]
    probe = enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
    res = syn.extract_syndrome(support_of(probe), lat)
    assert res.uniform and all(s == 1 for s in res.signs)

    # mixed support: code state + all-zeros is flagged, not averaged silently
    mixed = (np.array([block.alpha, 0]), np.array([SQ2, SQ2], dtype=complex))
    res = syn.extract_syndrome(mixed, lat)
    assert not res.uniform
    assert res.signs is None
    assert all(abs(e) <= 1.0 for e in res.expectations)


def test_extract_syndrome_drops_negligible_amplitudes(lat, blocks):
    block = blocks[0]
    support = (np.array([block.alpha, 0]), np.array([1.0, 1e-7]))
    res = syn.extract_syndrome(support, lat)
    assert res.uniform and all(s == 1 for s in res.signs)
    with pytest.raises(ValueError):
        syn.extract_syndrome((np.array([0]), np.array([1e-7])), lat)


def test_inject_pauli_algebra(lat, blocks):
    rng = np.random.default_rng(41)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    psi /= np.linalg.norm(psi)
    support = support_of(psi)
    # X then X is identity
    assert np.allclose(dense(syn.inject_pauli(syn.inject_pauli(support, 3, "X"), 3, "X")), psi)
    # Z on a basis state changes only the phase
    configs, amps = syn.inject_pauli((np.array([777]), np.array([1.0 + 0j])), 4, "Z")
    assert configs.tolist() == [777] and abs(amps[0]) == 1.0
    # Y = i X Z
    y1 = dense(syn.inject_pauli(support, 5, "Y"))
    y2 = 1j * dense(syn.inject_pauli(syn.inject_pauli(support, 5, "Z"), 5, "X"))
    assert np.allclose(y1, y2)
    # norm preserved
    assert abs(np.linalg.norm(syn.inject_pauli(support, 9, "Y")[1]) - 1.0) <= 1e-12


def test_inject_pauli_matches_index_formula():
    rng = np.random.default_rng(43)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    for site in range(16):
        for pauli in ("X", "Y", "Z"):
            want = pauli_by_index_formula(psi, site, pauli)
            configs, amps = syn.inject_pauli(support_of(psi), site, pauli)
            assert amps.dtype == want.dtype
            assert np.array_equal(amps, want[configs]), (site, pauli)
            assert np.array_equal(dense((configs, amps)), want), (site, pauli)


def test_inject_pauli_rejects_unknown_pauli():
    with pytest.raises(ValueError):
        syn.inject_pauli((np.array([0]), np.array([1.0])), 0, "W")


@pytest.mark.parametrize("cfg", [1 << 16, 1 << 20, -1, [5, 1 << 16], np.arange(DIM + 1)])
def test_extract_syndrome_rejects_out_of_range_configs(lat, cfg):
    configs = np.atleast_1d(cfg)
    with pytest.raises(ValueError):
        syn.extract_syndrome((configs, np.ones(len(configs))), lat)


def test_extract_syndrome_accepts_the_last_config(lat):
    res = syn.extract_syndrome(basis(DIM - 1), lat)
    assert res.uniform and all(s == -1 for s in res.signs)


def test_detection_builds_no_pauli_products(lat, blocks, monkeypatch):
    # the two-qubit observables are tabulated once at import, not per call
    def forbidden(*args, **kwargs):
        raise AssertionError("np.kron called at run time")

    monkeypatch.setattr(np, "kron", forbidden)
    rep = syn.detection_experiment(blocks[0], 3, "Y")
    assert rep.defect_count == 4


def test_detection_x_error(lat, blocks):
    for block in blocks[:3]:
        for site in (0, 5, 11):
            rep = syn.detection_experiment(block, site, "X")
            assert rep.syndrome_uniform
            assert rep.defect_count == 4


def test_detection_z_error_asymmetry(lat, blocks):
    block = blocks[0]
    for site in range(lat.n_sites):
        rep = syn.detection_experiment(block, site, "Z")
        assert rep.defect_count == 0
        if rep.site_sublattice == "A":
            assert rep.tomography["X_A"] == pytest.approx(-1.0, abs=1e-12)
        else:
            assert rep.tomography["X_A"] == pytest.approx(1.0, abs=1e-12)


def test_detection_y_error_combines_both(lat, blocks):
    # syndrome defect like X, logical phase content like Z
    rep = syn.detection_experiment(blocks[0], 2, "Y")
    assert rep.defect_count == 4


def test_z_errors_never_change_syndrome(lat, blocks):
    block = blocks[0]
    probe = support_of(enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0)))
    base = syn.extract_syndrome(probe, lat).signs
    for site in range(lat.n_sites):
        hit = syn.inject_pauli(probe, site, "Z")
        assert syn.extract_syndrome(hit, lat).signs == base


def dense_detection(block, site, pauli):
    """detection_experiment written out on the dense 2^16 state."""
    lat = block.lattice
    hit = pauli_by_index_formula(enc.logical_state(block, enc.DEFAULT_PROBE), site, pauli)
    res = syn.extract_syndrome(support_of(hit), lat)
    return syn.DetectionReport(
        block_alpha=block.alpha,
        site=site,
        site_sublattice="AB"[int(lat.sublattice[site])],
        pauli=pauli,
        syndrome_uniform=res.uniform,
        defect_count=res.defect_count if res.uniform else None,
        tomography=enc.logical_tomography(hit, block),
    )


def test_detection_matches_the_dense_oracle(lat, blocks):
    for block in blocks:
        for site in range(lat.n_sites):
            for pauli in ("X", "Y", "Z"):
                rep = syn.detection_experiment(block, site, pauli)
                assert repr(rep) == repr(dense_detection(block, site, pauli))


def test_detection_builds_no_full_space_state(lat, blocks, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("logical_state called")

    monkeypatch.setattr(enc, "logical_state", forbidden)
    monkeypatch.setattr(syn, "logical_state", forbidden, raising=False)
    tracemalloc.start()
    try:
        for pauli in ("X", "Y", "Z"):
            syn.detection_experiment(blocks[5], 7, pauli)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < DIM  # bytes: a 2^16 vector takes at least 8 times this


def test_syndrome_commutes_with_logical_gates(lat, blocks):
    block = blocks[0]
    probe = enc.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
    after_cnot = gates.apply_logical_cnot(probe, block)
    after_rz = gates.apply_rz(probe, block, "A", 0.9)
    for state in (after_cnot, after_rz):
        res = syn.extract_syndrome(support_of(state), lat)
        assert res.uniform and all(s == 1 for s in res.signs)
