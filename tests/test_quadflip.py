from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from fragmenta import quadflip as qf
from fragmenta.quadflip import build_clock_lattice

# ---------------------------------------------------------------------------
# scalar oracles: the flux, move and shift rules spelled out on tuples, using
# nothing from fragmenta but the lattice geometry


def flux_density(cfg, lat, p, kappa):
    """Signed count of kappa along the face's path-ordered boundary."""
    links = lat.plaq_links[p]
    return (
        (cfg[links[0]] == kappa)
        - (cfg[links[1]] == kappa)
        + (cfg[links[2]] == kappa)
        - (cfg[links[3]] == kappa)
    )


def is_valid(cfg, lat, m):
    """Zero flux for every face and every color."""
    return all(
        flux_density(cfg, lat, p, kappa) == 0
        for p in range(len(lat.plaq_links))
        for kappa in range(m)
    )


def global_shift(cfg, k, m):
    """Cycle every link color by +k mod m."""
    return tuple((d + k) % m for d in cfg)


def legal_moves(cfg, lat, m):
    """(cell, kappa, target) for every monochromatic star and every other color."""
    moves = []
    for cell, links in enumerate(lat.star_links):
        kappa = cfg[links[0]]
        if all(cfg[l] == kappa for l in links[1:]):
            moves.extend((cell, kappa, t) for t in range(m) if t != kappa)
    return moves


def apply_move(cfg, lat, cell, target):
    out = list(cfg)
    for l in lat.star_links[cell]:
        out[l] = target
    return tuple(out)


def dfs_sectors(valid, lat, m):
    """Sorted member tuples of every move-graph component, sorted by smallest member."""
    unvisited = set(valid)
    sectors = []
    for cfg in valid:
        if cfg not in unvisited:
            continue
        component = {cfg}
        frontier = [cfg]
        while frontier:
            cur = frontier.pop()
            for cell, _, target in legal_moves(cur, lat, m):
                nxt = apply_move(cur, lat, cell, target)
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        unvisited -= component
        sectors.append(tuple(sorted(component)))
    return sorted(sectors)


@lru_cache(maxsize=None)
def oracle(L, m):
    """(lattice, product-scan valid tuples, DFS sectors)."""
    lat = build_clock_lattice(L)
    valid = [c for c in product(range(m), repeat=lat.n_links) if is_valid(c, lat, m)]
    return lat, valid, dfs_sectors(valid, lat, m)


@lru_cache(maxsize=None)
def decompose(L, m):
    return qf.krylov_decompose_quadflip(L, m)


def tuples(digits):
    return [tuple(row) for row in digits.tolist()]


def member_sets(sectors, orbit):
    valid = tuples(sectors.digits)
    return [{valid[i] for i in np.flatnonzero(sectors.labels == k)} for k in orbit]


ORACLE_CASES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


@pytest.fixture(scope="module")
def lat():
    return build_clock_lattice(2)


@pytest.fixture(scope="module")
def decomposition():
    return decompose(2, 3)


@pytest.fixture(scope="module")
def valid_configs(decomposition):
    return tuples(decomposition[1].digits)


# ---------------------------------------------------------------------------
# the array engine against the oracles, exhaustively


@pytest.mark.parametrize("L,m", ORACLE_CASES)
def test_valid_set_matches_product_scan(L, m):
    _, valid, _ = oracle(L, m)
    _, digits = qf.enumerate_valid(L, m)
    assert digits.dtype == np.uint8
    assert tuples(digits) == valid  # same members, in product order


@pytest.mark.parametrize("L,m", ORACLE_CASES)
def test_move_graph_matches_oracle_moves(L, m):
    lat, valid, _ = oracle(L, m)
    index = {c: i for i, c in enumerate(valid)}
    expected = {
        (index[c], index[apply_move(c, lat, cell, target)])
        for c in valid
        for cell, _, target in legal_moves(c, lat, m)
    }
    graph = qf.move_graph(lat, qf.enumerate_valid(L, m)[1], m).tocoo()
    edges = list(zip(graph.row.tolist(), graph.col.tolist()))
    assert len(edges) == len(expected)
    assert set(edges) == expected
    assert np.all(graph.data == 1.0)


@pytest.mark.parametrize("L,m", ORACLE_CASES)
def test_sectors_match_dfs(L, m):
    _, valid, expected = oracle(L, m)
    _, sectors = decompose(L, m)
    got = [
        tuple(valid[i] for i in np.flatnonzero(sectors.labels == k))
        for k in range(len(sectors.sizes))
    ]
    assert got == expected
    assert [valid[i] for i in sectors.reps] == [s[0] for s in expected]
    assert sectors.sizes.tolist() == [len(s) for s in expected]


@pytest.mark.parametrize("L,m", ORACLE_CASES)
def test_shift_matches_tuple_shift(L, m):
    _, valid, _ = oracle(L, m)
    _, sectors = decompose(L, m)
    assert [valid[j] for j in sectors.shift] == [global_shift(c, 1, m) for c in valid]


def test_odd_L_oracle_case_has_two_sectors_of_34():
    _, sectors = decompose(3, 2)
    assert len(sectors.digits) == 68
    assert sectors.sizes.tolist() == [34, 34]


# ---------------------------------------------------------------------------
# geometry, flux and moves


def test_geometry(lat):
    assert lat.n_links == 8
    for links in lat.plaq_links:
        assert len(links) == 4
    # every link borders exactly two faces
    counts = {}
    for links in lat.plaq_links:
        for l in links:
            counts[l] = counts.get(l, 0) + 1
    assert all(c == 2 for c in counts.values())
    # tracks partition the links per direction
    for tracks in (lat.tracks_plus, lat.tracks_minus):
        seen = [l for t in tracks for l in t]
        assert sorted(seen) == list(range(8))


def test_flux_uniform_config(lat):
    for kappa in range(3):
        cfg = tuple([kappa] * 8)
        for p in range(4):
            for kp in range(3):
                assert flux_density(cfg, lat, p, kp) == 0


def test_flux_placement_examples(lat, valid_configs):
    # equal pair at path positions (1,2) cancels; at (1,3) it adds
    links = lat.plaq_links[0]
    kappa, other = 0, 1
    cfg = [2] * 8
    cfg[links[0]] = kappa
    cfg[links[1]] = kappa
    cfg[links[2]] = other
    cfg[links[3]] = other
    assert flux_density(tuple(cfg), lat, 0, kappa) == 0
    cfg = [2] * 8
    cfg[links[0]] = kappa
    cfg[links[2]] = kappa
    cfg[links[1]] = other
    cfg[links[3]] = other
    assert flux_density(tuple(cfg), lat, 0, kappa) == 2
    assert not is_valid(tuple(cfg), lat, 3)
    assert tuple(cfg) not in valid_configs


def test_flux_sums_to_zero_over_colors(lat):
    rng = np.random.default_rng(3)
    for _ in range(50):
        cfg = tuple(rng.integers(0, 3, size=8).tolist())
        for p in range(4):
            assert sum(flux_density(cfg, lat, p, k) for k in range(3)) == 0


def test_validity_examples(lat, valid_configs):
    for kappa in range(3):
        assert is_valid(tuple([kappa] * 8), lat, 3)
        assert tuple([kappa] * 8) in valid_configs
    assert is_valid(tuple([0] * 8), lat, 5)
    assert tuple([0] * 8) in tuples(qf.enumerate_valid(2, 5)[1])


def test_valid_count_is_stable(valid_configs):
    assert len(valid_configs) == 51  # regression anchor at L=2, m=3


def test_validity_preserved_under_shift(lat, valid_configs, decomposition):
    for cfg in valid_configs:
        for k in range(3):
            assert is_valid(global_shift(cfg, k, 3), lat, 3)
    # the shift permutes the valid colorings
    shift = decomposition[1].shift
    assert sorted(shift.tolist()) == list(range(len(valid_configs)))


def test_global_shift_basics(lat):
    cfg = (0, 1, 2, 0, 1, 2, 0, 1)
    assert global_shift(cfg, 3, 3) == cfg
    assert global_shift(cfg, 1, 3)[0] == 1


def test_uniform_config_moves(lat, valid_configs):
    cfg = tuple([0] * 8)
    moves = legal_moves(cfg, lat, 3)
    # every move cell is monochromatic: two target colors each
    assert len(moves) == 4 * 2
    cells = {m[0] for m in moves}
    assert cells == set(range(4))
    graph = qf.move_graph(lat, qf.enumerate_valid(2, 3)[1], 3)
    assert graph[valid_configs.index(cfg)].nnz == 4 * 2


def test_move_then_reverse_is_identity(lat, valid_configs):
    for cfg in valid_configs[:20]:
        for cell, kappa, target in legal_moves(cfg, lat, 3):
            moved = apply_move(cfg, lat, cell, target)
            assert apply_move(moved, lat, cell, kappa) == cfg
    graph = qf.move_graph(lat, qf.enumerate_valid(2, 3)[1], 3)
    assert (graph != graph.T).nnz == 0


def test_moves_preserve_validity_exhaustively(lat, valid_configs):
    for cfg in valid_configs:
        for cell, _, target in legal_moves(cfg, lat, 3):
            assert is_valid(apply_move(cfg, lat, cell, target), lat, 3)


def test_shift_maps_moves_to_moves(lat, valid_configs):
    for cfg in valid_configs[:20]:
        moves = {(c, (k + 1) % 3, (t + 1) % 3) for c, k, t in legal_moves(cfg, lat, 3)}
        shifted_moves = set(legal_moves(global_shift(cfg, 1, 3), lat, 3))
        assert moves == shifted_moves


# ---------------------------------------------------------------------------
# sectors and qudit multiplets


def test_decomposition_partitions(decomposition, valid_configs):
    _, sectors = decomposition
    assert sectors.sizes.sum() == len(valid_configs)
    assert np.bincount(sectors.labels).tolist() == sectors.sizes.tolist()
    reps = [valid_configs[i] for i in sectors.reps]
    assert reps == sorted(reps)
    for k, i in enumerate(sectors.reps):
        assert sectors.labels[i] == k
        assert i == np.flatnonzero(sectors.labels == k)[0]


def test_uniform_configs_share_one_sector(decomposition, valid_configs):
    _, sectors = decomposition
    u = {sectors.labels[valid_configs.index(tuple([kappa] * 8))] for kappa in range(3)}
    assert len(u) == 1
    assert sectors.sizes[u.pop()] == 15


def test_multiplet_structure(decomposition):
    _, sectors = decomposition
    multiplets, symmetric = qf.find_multiplets(sectors)
    assert len(symmetric) == 1
    assert all(len(m) == 3 for m in multiplets)
    assert 3 * len(multiplets) + len(symmetric) == len(sectors.sizes)
    for m in multiplets:
        sets = member_sets(sectors, m)
        assert all(len(a & b) == 0 for i, a in enumerate(sets) for b in sets[i + 1:])
        sizes = {len(s) for s in sets}
        assert len(sizes) == 1
        # global shift maps set k onto set k+1 mod m
        for k in range(3):
            shifted = {global_shift(c, 1, 3) for c in sets[k]}
            assert shifted == sets[(k + 1) % 3]


def test_qudit_algebra(decomposition):
    _, sectors = decomposition
    multiplets, _ = qf.find_multiplets(sectors)
    for m in multiplets:
        res = qf.verify_qudit_algebra(m, sectors)
        assert max(res.values()) <= 1e-12


def test_qudit_z_eigenvalues(decomposition, valid_configs):
    _, sectors = decomposition
    multiplets, _ = qf.find_multiplets(sectors)
    m = multiplets[0]
    support, ops = qf.qudit_logicals(m, sectors)
    omega = np.exp(2j * np.pi / 3)
    sets = member_sets(sectors, m)
    # the operators live on the multiplet's colorings, ascending
    assert support.tolist() == sorted(support.tolist())
    assert {valid_configs[i] for i in support} == set().union(*sets)
    assert np.array_equal(ops["I"], np.eye(len(support)))
    index = {valid_configs[i]: j for j, i in enumerate(support)}
    for k, members in enumerate(sets):
        for c in members:
            v = np.zeros(len(support), dtype=complex)
            v[index[c]] = 1.0
            assert np.vdot(v, ops["Z"] @ v) == pytest.approx(omega ** k)
            # X maps sector k into sector k+1
            out = ops["X"] @ v
            target = np.nonzero(out)[0]
            assert len(target) == 1
            assert valid_configs[support[target[0]]] in sets[(k + 1) % 3]
            assert valid_configs[support[target[0]]] == global_shift(c, 1, 3)


# ---------------------------------------------------------------------------
# loop-sequence label


def test_loop_invariant_uniform_reduces_to_empty(lat):
    for kappa in range(3):
        assert qf.loop_invariant(tuple([kappa] * 8), lat) == ((), ())


def test_loop_invariant_shift_covariance(lat, valid_configs):
    for cfg in valid_configs:
        d_plus, d_minus = qf.loop_invariant(cfg, lat)
        shifted = qf.loop_invariant(global_shift(cfg, 1, 3), lat)
        expect = (
            qf._reduce_cyclic([(c + 1) % 3 for c in d_plus]) if d_plus else (),
            qf._reduce_cyclic([(c + 1) % 3 for c in d_minus]) if d_minus else (),
        )
        assert shifted == expect


def test_loop_invariant_constant_on_sectors(lat, decomposition, valid_configs):
    _, sectors = decomposition
    for k in range(len(sectors.sizes)):
        members = np.flatnonzero(sectors.labels == k)
        labels = {qf.loop_invariant(valid_configs[i], lat) for i in members}
        assert len(labels) == 1


def test_loop_invariant_distinguishes_sectors(lat, decomposition, valid_configs):
    _, sectors = decomposition
    labels = {qf.loop_invariant(valid_configs[i], lat) for i in sectors.reps}
    assert len(labels) >= 2


@pytest.mark.parametrize("colors,label", [
    ([], ()),
    ([None, None], ()),
    ([1], ()),
    ([1, 1, None, 1], ()),
    ([0, 1], (0, 1)),
    ([1, 0], (0, 1)),
    ([2, 2, 0, 1, 1, 2], (0, 1, 2)),
    ([0, None, 1, 1, 0, 2], (0, 1, 0, 2)),
])
def test_reduce_cyclic_examples(colors, label):
    assert qf._reduce_cyclic(colors) == label


def test_loop_invariant_not_a_sector_label_at_odd_L():
    # the reason quadflip_report rejects odd L: at (3, 2) each sector mixes
    # the empty label (28 members) with two nonempty ones (3 members each)
    lat, sectors = decompose(3, 2)
    for k in range(2):
        rows = sectors.digits[sectors.labels == k].tolist()
        labels = [qf.loop_invariant(r, lat) for r in rows]
        assert labels.count(((), ())) == 28
        assert len(set(labels)) == 3


# ---------------------------------------------------------------------------
# report and input contracts


def test_report_shape():
    report = qf.quadflip_report(2, 3)
    assert report["valid_count"] == 51
    assert report["label_violations"] == 0
    assert set(report["orbit_sizes"]) <= {1, 3}
    assert max(report["algebra_residuals"].values()) <= 1e-12


def test_prime_m5_multiplets_are_fivefold():
    _, sectors = decompose(2, 5)
    multiplets, symmetric = qf.find_multiplets(sectors)
    assert all(len(m) == 5 for m in multiplets)
    assert 5 * len(multiplets) + len(symmetric) == len(sectors.sizes)
    res = qf.verify_qudit_algebra(multiplets[0], sectors)
    assert max(res.values()) <= 1e-12


def test_composite_m4_orbit_sizes_divide_m():
    _, sectors = decompose(2, 4)
    multiplets, symmetric = qf.find_multiplets(sectors)
    assert all(4 % len(m) == 0 for m in multiplets)
    covered = sum(len(m) for m in multiplets) + len(symmetric)
    assert covered == len(sectors.sizes)


def test_size_guard():
    with pytest.raises(ValueError):
        qf.enumerate_valid(3, 3)
    with pytest.raises(ValueError):
        qf.krylov_decompose_quadflip(4, 2)


@pytest.mark.parametrize("m", [0, 1, -1])
def test_fewer_than_two_colors_is_an_error(m):
    with pytest.raises(ValueError, match="m must be >= 2"):
        qf.krylov_decompose_quadflip(2, m)
    with pytest.raises(ValueError):
        qf.quadflip_report(2, m)


def test_report_rejects_odd_L():
    with pytest.raises(ValueError, match="odd"):
        qf.quadflip_report(3, 2)
