import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from fragmenta import config as cm
from fragmenta import fragmentation as fr
from fragmenta.lattice import build_lattice


@pytest.fixture(scope="module")
def sectors(lat):
    return fr.krylov_decompose(lat)


def dfs_row_count(L):
    """Independent code-state counter: depth-first search over rows.

    Uses nothing from the transfer-matrix implementation; constraints are
    spelled out directly on row bit patterns.
    """
    n_rows = 1 << L

    def clean(a, b):
        for x in range(L):
            x1 = (x + 1) % L
            if ((a >> x ^ b >> x1) & 1) and ((a >> x1 ^ b >> x) & 1):
                return False
        return True

    def unflip(a, b, c):
        for x in range(L):
            left = (b >> ((x - 1) % L)) & 1
            right = (b >> ((x + 1) % L)) & 1
            if left == right == (a >> x) & 1 == (c >> x) & 1:
                return False
        return True

    count = 0

    def extend(rows):
        nonlocal count
        if len(rows) == L:
            if clean(rows[-1], rows[0]) and unflip(rows[-2], rows[-1], rows[0]) \
                    and unflip(rows[-1], rows[0], rows[1]):
                count += 1
            return
        for c in range(n_rows):
            if clean(rows[-1], c) and (len(rows) < 2 or unflip(rows[-2], rows[-1], c)):
                extend(rows + [c])

    for r0 in range(n_rows):
        for r1 in range(n_rows):
            if clean(r0, r1):
                extend([r0, r1])
    return count


def test_brute_force_counts(lat):
    report = fr.enumerate_frozen(lat)
    assert report.formula_value == 56
    assert report.count_code_states == 56
    assert report.matches_code_states
    # stripes witness strict inequality between unflippable and code counts
    assert report.count_unflippable > report.count_code_states
    assert report.count_unflippable == 13924  # regression anchor
    assert not report.matches_unflippable


def test_code_states_are_code_states(lat):
    states = fr.code_states(lat)
    assert len(states) == 56
    for cfg in states.tolist():
        assert cm.is_code_state(cfg, lat)


def test_transfer_equals_brute_force_at_L4(lat):
    assert fr.count_code_states_transfer(4) == fr.enumerate_frozen(lat).count_code_states


def test_transfer_against_independent_dfs():
    assert fr.count_code_states_transfer(4) == dfs_row_count(4) == 56
    assert fr.count_code_states_transfer(6) == dfs_row_count(6) == 0


def test_transfer_formula_comparisons():
    # the closed form holds for L divisible by 4; L=6 is a real discrepancy
    assert fr.transfer_report(4).matches_code_states
    assert fr.transfer_report(8).count_code_states == 1016
    r6 = fr.transfer_report(6)
    assert r6.formula_value == 248
    assert r6.count_code_states == 0
    assert not r6.matches_code_states


def test_transfer_L10_follows_the_parity_law():
    # close packing needs L/2 wall lines per sublattice with even parity,
    # so L = 2 (mod 4) admits no code states at all
    assert fr.count_code_states_transfer(10) == 0


def test_transfer_clean_pair_restriction_is_exact():
    # oracle: the transfer matrix over ALL ordered row pairs, with the
    # plaquette check on the transition instead of the state set, must give
    # the same trace
    L = 4
    n_rows = 1 << L
    n_pairs = n_rows * n_rows

    def clean(a, b):
        for x in range(L):
            x1 = (x + 1) % L
            if ((a >> x ^ b >> x1) & 1) and ((a >> x1 ^ b >> x) & 1):
                return False
        return True

    def unflip(a, b, c):
        for x in range(L):
            left = (b >> ((x - 1) % L)) & 1
            right = (b >> ((x + 1) % L)) & 1
            if left == right == (a >> x) & 1 == (c >> x) & 1:
                return False
        return True

    T = np.zeros((n_pairs, n_pairs), dtype=np.int64)
    for a in range(n_rows):
        for b in range(n_rows):
            if not clean(a, b):
                continue
            for c in range(n_rows):
                if clean(b, c) and unflip(a, b, c):
                    T[a * n_rows + b, b * n_rows + c] = 1
    full_trace = int(np.trace(np.linalg.matrix_power(T, L)))
    assert full_trace == fr.count_code_states_transfer(4) == 56


def test_transfer_L12_matches_closed_form():
    # the next L = 0 (mod 4) point after L = 8: 3^12 + 3 clean row pairs
    T = fr._transfer_matrix(12)
    assert T.shape == (531_444, 531_444)
    assert T.nnz == 8_200
    assert fr.count_code_states_transfer(12) == fr.formula_count(12) == 16_376


def test_transfer_guards():
    with pytest.raises(ValueError):
        fr.count_code_states_transfer(5)
    with pytest.raises(ValueError):
        fr.count_code_states_transfer(14)


# per-site oracles for the transfer kernels, written from the flip rule on
# numpy arrays of rows: a site flips only when its four neighbors agree, and a
# plaquette has CZ = -1 only when both of its diagonals disagree


def row_bit(rows, x):
    return (rows >> x) & 1


def clean_by_site(a, b, L):
    """No plaquette between row a and the row b above it has CZ = -1."""
    ok = np.ones(np.broadcast(a, b).shape, dtype=bool)
    for x in range(L):
        x1 = (x + 1) % L
        ok &= ~((row_bit(a, x) != row_bit(b, x1)) & (row_bit(a, x1) != row_bit(b, x)))
    return ok


def admitted_by_site(a, m, c, L):
    """No site of row m is flippable between row a below and row c above."""
    ok = np.ones(np.broadcast(a, m, c).shape, dtype=bool)
    for x in range(L):
        left, right = row_bit(m, (x - 1) % L), row_bit(m, (x + 1) % L)
        below, above = row_bit(a, x), row_bit(c, x)
        ok &= ~((left == right) & (right == below) & (below == above))
    return ok


@pytest.mark.parametrize("L", [4, 6, 8])
def test_clean_row_pairs_match_site_definition(L):
    rows = np.arange(1 << L)
    want = np.nonzero(clean_by_site(rows[:, None], rows, L))
    got = fr._clean_row_pairs(L)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_admitted_matches_site_definition_exhaustively_at_L6():
    a, m, c = np.meshgrid(*[np.arange(1 << 6)] * 3, indexing="ij")
    assert np.array_equal(fr._admitted(a, m, c, 6), admitted_by_site(a, m, c, 6))


@pytest.mark.parametrize("L", [8, 10])
def test_admitted_matches_site_definition_on_random_triples(L):
    a, m, c = np.random.default_rng(L).integers(0, 1 << L, size=(3, 200_000))
    got = fr._admitted(a, m, c, L)
    assert np.array_equal(got, admitted_by_site(a, m, c, L))
    assert 0 < got.sum() < len(got)  # both outcomes occur


@pytest.mark.parametrize("L", [4, 6, 8, 10])
def test_transfer_matrix_matches_site_definition(L):
    rows = np.arange(1 << L)
    a, b = np.nonzero(clean_by_site(rows[:, None], rows, L))
    # candidate transitions (a, m) -> (m, c): every pair against every pair
    # whose first row is m, i.e. the run of pairs starting at first[m]
    first = np.searchsorted(a, np.arange((1 << L) + 1))
    n_next = first[b + 1] - first[b]
    src = np.repeat(np.arange(len(a)), n_next)
    dst = np.arange(len(src)) - np.repeat(np.cumsum(n_next) - n_next, n_next) \
        + np.repeat(first[b], n_next)
    assert np.array_equal(a[dst], b[src])
    keep = admitted_by_site(a[src], b[src], b[dst], L)
    want = sp.csr_matrix((np.ones(keep.sum(), dtype=np.int64), (src[keep], dst[keep])),
                         shape=(len(a), len(a)))
    got = fr._transfer_matrix(L)
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_decomposition_partitions_everything(lat, sectors):
    assert sum(s.size for s in sectors) == 1 << 16
    reps = [s.representative for s in sectors]
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)


def test_singleton_sectors_are_the_unflippable_states(lat, sectors):
    n_frozen = sum(1 for s in sectors if s.is_frozen_sector)
    assert n_frozen == fr.enumerate_frozen(lat).count_unflippable
    histogram = dict(fr.sector_histogram(sectors))
    assert histogram[1] == n_frozen
    for s in sectors[:50]:
        assert s.is_frozen_sector == (s.size == 1)
        if s.is_frozen_sector:
            assert cm.is_frozen(s.representative, lat)


def test_zero_sector_contains_single_flip_descendants(lat, sectors):
    zero_sector = fr.sector_of(0, lat)
    assert zero_sector.size > 1
    members = {0} | {1 << i for i in range(16)}
    component = _bfs_members(0, lat)
    assert members <= component


def _bfs_members(cfg, lat, cap=1 << 22):
    from collections import deque

    seen = {cfg}
    queue = deque([cfg])
    while queue:
        c = queue.popleft()
        for i in range(lat.n_sites):
            if cm.is_flippable(c, lat, i):
                nxt = c ^ (1 << i)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    if len(seen) > cap:
                        raise RuntimeError("cap")
    return seen


def test_sector_of_matches_decomposition(lat, sectors):
    by_rep = {s.representative: s for s in sectors}
    rng = np.random.default_rng(2)
    for cfg in rng.integers(0, 1 << 16, size=6).tolist():
        sec = fr.sector_of(cfg, lat)
        assert sec.representative in by_rep
        assert by_rep[sec.representative].size == sec.size


def test_sector_syndrome_is_constant(lat):
    rng = np.random.default_rng(9)
    for cfg in rng.integers(0, 1 << 16, size=4).tolist():
        members = np.array(sorted(_bfs_members(cfg, lat)), dtype=np.uint32)
        signs = cm.cz_signs(members, lat)
        assert np.all(signs == signs[0])


def test_move_legality_is_symmetric(lat):
    rng = np.random.default_rng(13)
    for cfg in rng.integers(0, 1 << 16, size=300).tolist():
        for i in range(lat.n_sites):
            if cm.is_flippable(cfg, lat, i):
                assert cm.is_flippable(cfg ^ (1 << i), lat, i)


def test_sublattice_toggle_maps_sectors_to_sectors(lat):
    rng = np.random.default_rng(17)
    for cfg in rng.integers(0, 1 << 16, size=4).tolist():
        sec = fr.sector_of(cfg, lat)
        for mask in (lat.mask_a, lat.mask_b):
            twin = fr.sector_of(cfg ^ mask, lat)
            assert twin.size == sec.size
            assert twin.syndrome == sec.syndrome


def test_sector_of_frozen_state_is_singleton(lat):
    states = fr.code_states(lat)
    sec = fr.sector_of(int(states[0]), lat)
    assert sec.size == 1 and sec.is_frozen_sector
    assert all(v == 1 for v in sec.syndrome)


def test_sector_of_size_cap(lat, monkeypatch):
    monkeypatch.setattr(fr, "SECTOR_SIZE_CAP", 4)
    with pytest.raises(RuntimeError):
        fr.sector_of(0, lat)


def test_sector_of_size_cap_is_inclusive(lat, monkeypatch):
    size = fr.sector_of(0, lat).size
    assert size == len(_bfs_members(0, lat))
    monkeypatch.setattr(fr, "SECTOR_SIZE_CAP", size)
    assert fr.sector_of(0, lat).size == size
    monkeypatch.setattr(fr, "SECTOR_SIZE_CAP", size - 1)
    with pytest.raises(RuntimeError):
        fr.sector_of(0, lat)


@pytest.mark.parametrize("cfg", [1 << 16, -1])
def test_sector_of_rejects_out_of_range_configs(lat, cfg):
    with pytest.raises(ValueError):
        fr.sector_of(cfg, lat)


@pytest.mark.parametrize("cfg", [1.5, np.float64(2.0)])
def test_sector_of_rejects_non_integer_configs(lat, cfg):
    # int() would truncate 1.5 to configuration 1 and answer for it
    with pytest.raises(ValueError):
        fr.sector_of(cfg, lat)


def test_sector_of_matches_scalar_bfs_at_L6():
    # 36 sites: the frontier search runs on uint64 configurations
    big = build_lattice(6)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 8:
        cfg = int(rng.integers(0, 1 << big.n_sites))
        try:
            members = _bfs_members(cfg, big, cap=300)
        except RuntimeError:
            continue
        sec = fr.sector_of(cfg, big)
        rep = min(members)
        assert (sec.representative, sec.size) == (rep, len(members))
        assert sec.syndrome == tuple(
            cm.cz_plaquette(rep, big, p) for p in range(big.n_plaquettes)
        )
        checked += 1


def test_sector_of_uses_the_vectorized_flip_rule(lat, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar is_flippable called")

    monkeypatch.setattr(cm, "is_flippable", forbidden)
    assert fr.sector_of(0, lat).size == 1980


def test_size_guards(lat):
    big = build_lattice(6)
    with pytest.raises(ValueError):
        fr.krylov_decompose(big)
    with pytest.raises(ValueError):
        fr.code_states(big)
    with pytest.raises(ValueError):
        fr.enumerate_frozen(big)
    with pytest.raises(ValueError):
        fr.move_graph(big)


def test_decomposition_deterministic(lat, sectors):
    again = fr.krylov_decompose(lat)
    assert [(s.representative, s.size, s.syndrome) for s in again] == [
        (s.representative, s.size, s.syndrome) for s in sectors
    ]


def test_move_graph_rows_match_scalar_predicate(lat):
    adj = fr.move_graph(lat)
    assert (adj != adj.T).nnz == 0
    assert np.all(adj.data == 1.0)
    rng = np.random.default_rng(0)
    for c in rng.integers(0, 1 << lat.n_sites, size=300).tolist():
        row = adj.indices[adj.indptr[c]:adj.indptr[c + 1]].tolist()
        expected = {
            c ^ (1 << i) for i in range(lat.n_sites) if cm.is_flippable(c, lat, i)
        }
        assert len(row) == len(expected)
        assert set(row) == expected


@pytest.mark.parametrize("L", (4, 6))
def test_single_flips_match_the_scalar_rule(L):
    # every configuration at L = 4 (uint32); uint64 samples at L = 6, with bit 35
    lat = build_lattice(L)
    n = lat.n_sites
    if L == 4:
        cfgs = cm.config_range(n)
    else:
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 1 << n, size=200, dtype=np.uint64)
        top = np.uint64(1 << (n - 1))
        ends = np.array([top, (1 << n) - 1], dtype=np.uint64)
        cfgs = np.unique(np.concatenate([samples, samples | top, ends]))
    members = cfgs.tolist()
    everything = ~np.zeros_like(cfgs)  # the all-ones word: the unconstrained graph
    for movable, legal in ((cm.flippable_sites(cfgs, lat), lambda c, i: cm.is_flippable(c, lat, i)),
                           (everything, lambda c, i: True)):
        sources, targets = fr.single_flips(cfgs, movable, n)
        assert sources.dtype == targets.dtype == cfgs.dtype
        flips = (sources ^ targets).tolist()
        assert all(f.bit_count() == 1 for f in flips)
        got = list(zip(sources.tolist(), (f.bit_length() - 1 for f in flips)))
        # site by site, each legal (configuration, site) pair exactly once
        assert got == [(c, i) for i in range(n) for c in members if legal(c, i)]


def test_unconstrained_move_graph_rows_flip_every_site(lat):
    adj = fr.move_graph(lat, constrained=False)
    assert (adj != adj.T).nnz == 0
    assert np.all(adj.data == 1.0)
    rng = np.random.default_rng(1)
    for c in rng.integers(0, 1 << lat.n_sites, size=300).tolist():
        row = adj.indices[adj.indptr[c]:adj.indptr[c + 1]].tolist()
        assert sorted(row) == sorted(c ^ (1 << i) for i in range(lat.n_sites))


def test_decomposition_matches_label_propagation_oracle(sectors):
    # independent full decomposition: every configuration starts with its own
    # label and takes the smallest label across each legal flip until nothing
    # changes; at that fixpoint every label is its component's minimum.  The
    # flip rule is written out here on (x, y) neighbour bits.
    L = 4
    cfgs = np.arange(1 << (L * L), dtype=np.int64)

    def spin(x, y):
        return (cfgs >> ((y % L) * L + x % L)) & 1

    moves = []
    for y in range(L):
        for x in range(L):
            right, left = spin(x + 1, y), spin(x - 1, y)
            up, down = spin(x, y + 1), spin(x, y - 1)
            legal = (right == left) & (left == up) & (up == down)
            moves.append((cfgs[legal], 1 << (y * L + x)))

    labels = cfgs.copy()
    changed = True
    while changed:
        before = labels.copy()
        for src, flip in moves:
            np.minimum.at(labels, src, labels[src ^ flip])
        changed = not np.array_equal(labels, before)
    reps, sizes = np.unique(labels, return_counts=True)
    oracle = list(zip(reps.tolist(), sizes.tolist()))
    assert oracle == [(s.representative, s.size) for s in sectors]


def test_import_leaves_csgraph_unloaded():
    # connected_components imports scipy.sparse.csgraph on first use: eagerly
    # it would add about 25 ms to every start-up
    code = (
        "import sys, fragmenta, fragmenta.quadflip, fragmenta.cli; "
        "print('scipy.sparse.csgraph' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_connected_components_sorted_by_smallest_node():
    # path 0-3, path 1-2-4; node 5 alone
    rows = [0, 3, 1, 2, 2, 4]
    cols = [3, 0, 2, 1, 4, 2]
    graph = sp.csr_matrix((np.ones(6), (rows, cols)), shape=(6, 6))
    labels, reps, sizes = fr.connected_components(graph)
    assert labels.tolist() == [0, 1, 1, 0, 1, 2]
    assert reps.tolist() == [0, 1, 5]
    assert sizes.tolist() == [2, 3, 1]
