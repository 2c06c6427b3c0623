import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fragmenta import config as cm
from fragmenta.lattice import build_lattice


def stripe_config(L, horizontal=True):
    """Row (or column) y all equal to y mod 2."""
    cfg = 0
    for y in range(L):
        for x in range(L):
            v = (y % 2) if horizontal else (x % 2)
            if v:
                cfg |= 1 << (y * L + x)
    return cfg


def vertical_code_config(L=4):
    """A-column pattern 0110, B-column pattern 0011: an intersection-free
    unflippable configuration."""
    p_a = [0, 1, 1, 0]
    p_b = [0, 0, 1, 1]
    cfg = 0
    for y in range(L):
        for x in range(L):
            v = p_a[x] if (x + y) % 2 == 0 else p_b[x]
            if v:
                cfg |= 1 << (y * L + x)
    return cfg


def cz_oracle(corner_bits_cyclic):
    """Brute-force CZ product over the four plaquette edges.

    Independent oracle: each edge of the cyclic corner sequence contributes
    -1 exactly when both endpoints are 1.
    """
    c = corner_bits_cyclic
    n_edges_11 = sum(c[k] & c[(k + 1) % 4] for k in range(4))
    return (-1) ** n_edges_11


def test_cz_truth_table(lat):
    # all 16 corner assignments on one plaquette against the edge-count oracle
    p = 5
    corners = [int(c) for c in lat.plaq_corners[p]]
    for bits in range(16):
        cfg = 0
        cyclic = []
        for k, site in enumerate(corners):
            b = (bits >> k) & 1
            cyclic.append(b)
            cfg |= b << site
        assert cm.cz_plaquette(cfg, lat, p) == cz_oracle(cyclic)


def test_cz_corner_cases(lat):
    p = 0
    corners = [int(c) for c in lat.plaq_corners[p]]
    # all corners 0 -> +1, all corners 1 -> +1, one edge both-1 -> -1
    assert cm.cz_plaquette(0, lat, p) == 1
    all_ones = sum(1 << c for c in corners)
    assert cm.cz_plaquette(all_ones, lat, p) == 1
    one_edge = (1 << corners[0]) | (1 << corners[1])
    assert cm.cz_plaquette(one_edge, lat, p) == -1


def test_cz_closed_form_equivalence_exhaustive(lat):
    # edge-count oracle vs the diagonal-pair closed form on random configs,
    # every plaquette
    rng = np.random.default_rng(3)
    cfgs = rng.integers(0, 1 << 16, size=400)
    for cfg in cfgs.tolist():
        for p in range(lat.n_plaquettes):
            cyclic = [(cfg >> int(c)) & 1 for c in lat.plaq_corners[p]]
            assert cm.cz_plaquette(cfg, lat, p) == cz_oracle(cyclic)


def test_domain_wall_cz_consistency_all_configs(lat):
    # cz = -1 exactly when both an A wall and a B wall cross: all 2^16 configs
    cfgs = np.arange(1 << 16, dtype=np.uint32)
    signs = cm.cz_signs(cfgs, lat)
    for p in range(lat.n_plaquettes):
        a1, a2 = (int(c) for c in lat.plaq_a_corners[p])
        b1, b2 = (int(c) for c in lat.plaq_b_corners[p])
        a_wall = ((cfgs >> a1) ^ (cfgs >> a2)) & 1
        b_wall = ((cfgs >> b1) ^ (cfgs >> b2)) & 1
        both = (a_wall & b_wall).astype(bool)
        assert np.array_equal(signs[:, p] == -1, both)


def test_intersection_count_examples(lat):
    assert cm.intersection_count(0, lat) == 0
    assert cm.intersection_count(stripe_config(4), lat) == 16
    assert cm.intersection_count(1, lat) == 0  # single flipped site: no 1-1 edge


def test_flippability_examples(lat):
    assert all(cm.is_flippable(0, lat, i) for i in range(16))
    stripe = stripe_config(4)
    assert not any(cm.is_flippable(stripe, lat, i) for i in range(16))
    # three equal neighbors and one different: not flippable
    i = lat.site_index(1, 1)
    nbrs = [int(j) for j in lat.neighbors[i]]
    cfg = sum(1 << j for j in nbrs[:3])
    assert not cm.is_flippable(cfg, lat, i)


def test_frozen_examples(lat):
    assert not cm.is_frozen(0, lat)
    assert cm.is_frozen(stripe_config(4), lat)
    # one flip away from all-zeros stays unfrozen
    for i in range(16):
        assert not cm.is_frozen(1 << i, lat)


def test_code_state_examples(lat):
    assert not cm.is_code_state(0, lat)
    assert not cm.is_code_state(stripe_config(4), lat)  # frozen but intersecting
    cfg = vertical_code_config()
    assert cm.is_frozen(cfg, lat)
    assert cm.intersection_count(cfg, lat) == 0
    assert cm.is_code_state(cfg, lat)


def test_domain_walls_examples(lat):
    stripe = stripe_config(4)
    for p in range(16):
        assert cm.domain_walls(stripe, lat, p) == (True, True)
        assert cm.domain_walls(0, lat, p) == (False, False)


def test_stabilizer_values(lat):
    # zero walls -> -1 (all-zeros), one wall -> +1, two walls -> -1
    assert all(cm.stabilizer_zp(0, lat, p) == -1 for p in range(16))
    cfg = vertical_code_config()
    assert all(cm.stabilizer_zp(cfg, lat, p) == 1 for p in range(16))
    stripe = stripe_config(4)
    assert all(cm.stabilizer_zp(stripe, lat, p) == -1 for p in range(16))


def test_stabilizer_parity_identity(lat):
    # one wall crossing <-> odd corner popcount, over random configs
    rng = np.random.default_rng(5)
    for cfg in rng.integers(0, 1 << 16, size=200).tolist():
        for p in range(lat.n_plaquettes):
            a_wall, b_wall = cm.domain_walls(cfg, lat, p)
            expected = 1 if (a_wall ^ b_wall) else -1
            assert cm.stabilizer_zp(cfg, lat, p) == expected


def test_symmetry_covariance(lat):
    # cz and the flip rule are invariant under the sublattice toggles
    rng = np.random.default_rng(11)
    cfgs = rng.integers(0, 1 << 16, size=100, dtype=np.uint32)
    base = cm.cz_signs(cfgs, lat)
    crossed = cm.crossings(cfgs, lat)
    movable = cm.flippable_sites(cfgs, lat)
    for mask in (lat.mask_a, lat.mask_b, lat.mask_a ^ lat.mask_b):
        toggled = cfgs ^ np.uint32(mask)
        assert np.array_equal(cm.cz_signs(toggled, lat), base)
        assert np.array_equal(cm.crossings(toggled, lat), crossed)
        assert np.array_equal(cm.flippable_sites(toggled, lat), movable)


def assert_words_match_scalars(cfgs, lat):
    """Every bit of the word kernels, and the sign matrices, against the scalar predicates."""
    movable = cm.flippable_sites(cfgs, lat)
    crossed = cm.crossings(cfgs, lat)
    assert movable.dtype == crossed.dtype == cfgs.dtype
    signs = cm.cz_signs(cfgs, lat)
    stabs = cm.stabilizer_signs(cfgs, lat)
    for k, cfg in enumerate(cfgs.tolist()):
        flips, crossing = int(movable[k]), int(crossed[k])
        assert flips >> lat.n_sites == crossing >> lat.n_plaquettes == 0
        assert cm.is_frozen(cfg, lat) == (flips == 0)
        assert cm.intersection_count(cfg, lat) == crossing.bit_count()
        for i in range(lat.n_sites):
            assert cm.is_flippable(cfg, lat, i) == bool((flips >> i) & 1)
        for p in range(lat.n_plaquettes):
            assert cm.cz_plaquette(cfg, lat, p) == signs[k, p] == 1 - 2 * ((crossing >> p) & 1)
            assert cm.stabilizer_zp(cfg, lat, p) == stabs[k, p]


def test_scalar_vectorized_agreement(lat):
    rng = np.random.default_rng(7)
    cfgs = rng.integers(0, 1 << 16, size=50, dtype=np.uint32)
    examples = [0, (1 << 16) - 1, stripe_config(4), stripe_config(4, horizontal=False),
                vertical_code_config()]
    assert_words_match_scalars(np.concatenate([cfgs, np.array(examples, dtype=np.uint32)]), lat)


@pytest.mark.parametrize("L", (6, 8))
def test_scalar_vectorized_agreement_uint64(L):
    # above 32 sites (sector_of, syndromes) the kernels run on uint64
    wide = build_lattice(L)
    n = wide.n_sites

    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, (1 << n) - 1))
    @example(stripe_config(L))  # frozen
    @example((1 << n) - 1)      # all ones, top bit included
    def check(cfg):
        assert_words_match_scalars(np.array([cfg], dtype=np.uint64), wide)

    assert cm.is_frozen(stripe_config(L), wide)
    check()


def test_config_range_is_the_full_space_cap():
    cfgs = cm.config_range(4)
    assert cfgs.dtype == np.uint32
    assert cfgs.tolist() == list(range(16))
    with pytest.raises(ValueError):
        cm.config_range(cm.FULL_SPACE_SITE_CAP + 1)


def test_config_literal_format():
    assert cm.format_config_literal(vertical_code_config(), 4) == "4\n0011\n0110\n0011\n0110"
    # row y on line y, site x in column x: (x, y) = (1, 2) is site 9
    assert cm.format_config_literal(1 << 9, 4) == "4\n0000\n0000\n0100\n0000"
