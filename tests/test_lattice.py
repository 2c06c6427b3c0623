import numpy as np
import pytest

from fragmenta.lattice import SUBLATTICE_A, SUBLATTICE_B, build_lattice


def test_basic_counts():
    lat = build_lattice(4)
    assert lat.n_sites == 16
    assert lat.n_plaquettes == 16
    assert lat.n_sublattice == 8
    lat6 = build_lattice(6)
    assert lat6.n_sites == 36
    assert lat6.n_sublattice == 18


@pytest.mark.parametrize("L", [3, 5, 7])
def test_odd_L_rejected(L):
    with pytest.raises(ValueError):
        build_lattice(L)


def test_small_L_rejected():
    with pytest.raises(ValueError):
        build_lattice(2)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_bipartite_neighbors(L):
    lat = build_lattice(L)
    for i in range(lat.n_sites):
        nbrs = lat.neighbors[i]
        assert len(set(nbrs.tolist())) == 4
        for j in nbrs:
            assert lat.sublattice[i] != lat.sublattice[j]


def test_neighbor_order_follows_coordinates():
    lat = build_lattice(4)
    # site (1, 2): +x, -x, +y, -y with wraparound
    i = lat.site_index(1, 2)
    assert lat.neighbors[i].tolist() == [
        lat.site_index(2, 2),
        lat.site_index(0, 2),
        lat.site_index(1, 3),
        lat.site_index(1, 1),
    ]


@pytest.mark.parametrize("L", [4, 6])
def test_plaquette_site_incidence(L):
    lat = build_lattice(L)
    # each site is a corner of the four plaquettes whose lower-left corners
    # are (x, y), (x-1, y), (x, y-1) and (x-1, y-1)
    from_corner = {i: set() for i in range(lat.n_sites)}
    for p in range(lat.n_plaquettes):
        corners = lat.plaq_corners[p]
        assert len(set(corners.tolist())) == 4
        for c in corners:
            from_corner[int(c)].add(p)
    for i in range(lat.n_sites):
        x, y = lat.site_xy(i)
        lower_left = {lat.site_index(x - dx, y - dy) for dx in (0, 1) for dy in (0, 1)}
        assert from_corner[i] == lower_left
        assert len(from_corner[i]) == 4


def test_plaquette_corner_sublattices():
    lat = build_lattice(4)
    for p in range(lat.n_plaquettes):
        subs = sorted(lat.sublattice[c] for c in lat.plaq_corners[p])
        assert subs == [0, 0, 1, 1]
        assert all(lat.sublattice[c] == SUBLATTICE_A for c in lat.plaq_a_corners[p])
        assert all(lat.sublattice[c] == SUBLATTICE_B for c in lat.plaq_b_corners[p])


def test_plaquette_corners_cyclic():
    lat = build_lattice(4)
    # consecutive corners share an edge (are lattice neighbors)
    for p in range(lat.n_plaquettes):
        corners = lat.plaq_corners[p].tolist()
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            assert b in lat.neighbors[a].tolist()


def test_cnot_partner_rule():
    lat = build_lattice(4)
    partner = lat.cnot_partner_table
    # (0,0) sits in an even row: partner to the left, wrapping to (3,0)
    assert partner[lat.site_index(0, 0)] == lat.site_index(3, 0)
    # (1,1) sits in an odd row: partner to the right
    assert partner[lat.site_index(1, 1)] == lat.site_index(2, 1)


def test_cnot_partner_rejects_b_sites():
    # B sites have no partner: the table holds -1 on every one of them
    lat = build_lattice(4)
    assert np.all(lat.cnot_partner_table[lat.b_sites] == -1)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_cnot_partner_bijection(L):
    lat = build_lattice(L)
    partners = lat.cnot_partner_table[lat.a_sites]
    assert sorted(partners.tolist()) == lat.b_sites.tolist()


def test_sublattice_masks():
    lat = build_lattice(4)
    assert lat.mask_a ^ lat.mask_b == (1 << 16) - 1
    assert lat.mask_a & lat.mask_b == 0
    assert bin(lat.mask_a).count("1") == 8
