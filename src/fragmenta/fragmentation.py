"""Krylov-sector decomposition and frozen-state counting.

The constrained dynamics allows a spin flip only when the four neighbors of
the flipped site agree, so the move graph on packed configurations has an
edge between cfg and cfg ^ (1<<i) exactly when flippable_sites has bit i
(single_flips lists them).  Every move conserves every plaquette CZ
eigenvalue, which is what fragments the configuration space into
exponentially many disconnected sectors.

Three independent routes are provided and cross-checked by the tests:

* enumerate_frozen: vectorized brute-force scan of all 2^(L^2) configurations
  counting unflippable states and code states (unflippable with zero
  intersections), compared against the closed-form count 2^(L+2) - 8.
  code_states lists the code states of the same scan.
* krylov_decompose: connected components of the move graph (move_graph),
  the same sparse adjacency that dynamics.build_heff scales by -h.  With
  constrained=False, move_graph allows every single flip: that graph is the
  transverse field of dynamics.build_hczp and of the sym_transverse
  perturbation.  The labelling helper connected_components also labels the
  clock model's sectors in quadflip.
* count_code_states_transfer: row transfer method for even L up to 12.
  A transfer state is an ordered pair of adjacent rows that is "clean"
  (no plaquette between the rows has CZ = -1); a transition (a,b) -> (b,c)
  is admitted when every site of the middle row b is unflippable given its
  in-row neighbors and the rows a below and c above.  Both tests are AND
  masks of whole rows and their cyclic rotations.  The number of code
  states is the trace of the L-fold transition composition: each closed
  walk of the pair chain is exactly one torus configuration in which every
  site row and every plaquette row has been checked once.

The first two build the full space and stop at config.config_range's cap
(24 sites, so L = 4; L = 6 fails at once).  sector_of explores the component
of one configuration on a lattice up to L = 8 (64 sites): a breadth-first
search one frontier at a time, through single_flips of the frontier's
flippable_sites words (uint32 configurations up to 32 sites, uint64 above).
It raises ValueError for a configuration outside [0, 2**n_sites) and
RuntimeError once the component has more than SECTOR_SIZE_CAP states.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import config as cfgmod
from .config import _agreement, _rot
from .lattice import Lattice

FORMULA_OFFSET = 8  # closed-form code-state count is 2^(L+2) - 8
SECTOR_SIZE_CAP = 1 << 22  # states sector_of may visit before it gives up


def formula_count(L):
    return 2 ** (L + 2) - FORMULA_OFFSET


@dataclass(frozen=True, slots=True)
class KrylovSector:
    """One connected component of the constrained move graph."""

    representative: int        # lexicographically smallest member
    size: int
    syndrome: tuple            # per-plaquette CZ signs (conserved label)
    is_frozen_sector: bool     # singleton with no legal move


@dataclass(frozen=True)
class EnumerationReport:
    L: int
    method: str                           # brute_force, transfer_matrix or connected_components
    count_unflippable: int | None         # None when not computed by the method
    count_code_states: int
    formula_value: int
    matches_unflippable: bool | None
    matches_code_states: bool

    def to_dict(self):
        return {
            "L": self.L,
            "method": self.method,
            "count_unflippable": self.count_unflippable,
            "count_code_states": self.count_code_states,
            "formula_value": self.formula_value,
            "matches": {
                "unflippable": self.matches_unflippable,
                "code_states": self.matches_code_states,
            },
        }


def _report(L, method, n_code, n_unflippable=None):
    """EnumerationReport of the counts against the closed form at L."""
    formula = formula_count(L)
    return EnumerationReport(
        L=L,
        method=method,
        count_unflippable=n_unflippable,
        count_code_states=n_code,
        formula_value=formula,
        matches_unflippable=None if n_unflippable is None else n_unflippable == formula,
        matches_code_states=(n_code == formula),
    )


def _frozen_scan(lat):
    """The unflippable configurations, then the code states among them."""
    cfgs = cfgmod.config_range(lat.n_sites)
    frozen = cfgs[cfgmod.flippable_sites(cfgs, lat) == 0]
    return frozen, frozen[cfgmod.crossings(frozen, lat) == 0]


def enumerate_frozen(lat: Lattice) -> EnumerationReport:
    """Brute-force scan: count unflippable states and code states."""
    frozen, code = _frozen_scan(lat)
    return _report(lat.L, "brute_force", len(code), len(frozen))


def code_states(lat: Lattice) -> np.ndarray:
    """Sorted array of all code states (unflippable, zero intersections)."""
    return _frozen_scan(lat)[1].astype(np.int64)


# ---------------------------------------------------------------------------
# full decomposition: connected components of the move graph


def single_flips(cfgs, movable, n_sites):
    """(sources, targets) of every flip the movable words allow, site by site, in cfgs' dtype."""
    sources = [cfgs[(movable >> i) & 1 == 1] for i in range(n_sites)]
    targets = [src ^ cfgs.dtype.type(1 << i) for i, src in enumerate(sources)]
    return np.concatenate(sources), np.concatenate(targets)


def move_graph(lat: Lattice, constrained=True) -> sp.csr_matrix:
    """Unit-weight CSR adjacency of single flips on the packed basis.

    Row cfg holds 1.0 at column cfg ^ (1 << i) for every site i whose bit
    is set in cfg's flippable_sites word, or for every site when constrained
    is False.  The reverse flip is legal too (the neighbors of i are
    unchanged), so the matrix is symmetric.  Unconstrained, it is built in
    canonical CSR at once: n entries a row, each row's columns sorted.
    """
    cfgs = cfgmod.config_range(lat.n_sites)
    dim, n = len(cfgs), lat.n_sites
    if constrained:  # int32 views throughout: config_range keeps every value below 2^24
        movable = cfgmod.flippable_sites(cfgs, lat)
        rows, cols = (a.view(np.int32) for a in single_flips(cfgs, movable, n))
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    cols = np.sort(cfgs.view(np.int32)[:, None] ^ (1 << np.arange(n, dtype=np.int32)), axis=1)
    indptr = np.arange(0, cols.size + 1, n, dtype=np.int32)
    return sp.csr_matrix((np.ones(cols.size), cols.ravel(), indptr), shape=(dim, dim))


def connected_components(graph):
    """Sector of every node of a symmetric adjacency, sectors sorted by smallest node.

    Returns (labels, reps, sizes): labels[i] is the sector of node i, reps[k]
    the smallest node of sector k and sizes[k] its node count.
    scipy.sparse.csgraph is imported here rather than with the module: it
    costs about 25 ms of start-up.
    """
    from scipy.sparse.csgraph import connected_components as components

    _, labels = components(graph, directed=False)
    _, reps, sizes = np.unique(labels, return_index=True, return_counts=True)
    order = np.argsort(reps)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[labels], reps[order], sizes[order]


def krylov_decompose(lat: Lattice):
    """Partition all configurations into Krylov sectors.

    Returns the sectors sorted by canonical representative, so repeated runs
    produce byte-identical output.
    """
    _, reps, sizes = connected_components(move_graph(lat))

    # far fewer syndromes than sectors (3,788 for 24,613 at L = 4): the
    # sectors share one tuple per syndrome, which keeps the list small
    syndromes = cfgmod.cz_signs(reps.astype(np.uint32), lat)
    shared = {}
    sectors = []
    for rep, size, row in zip(reps.tolist(), sizes.tolist(), syndromes):
        syndrome = tuple(row.tolist())
        syndrome = shared.setdefault(syndrome, syndrome)
        sectors.append(KrylovSector(
            representative=rep, size=size, syndrome=syndrome, is_frozen_sector=(size == 1)
        ))
    return sectors


def sector_of(cfg, lat):
    """Breadth-first search of one configuration's component, a frontier at a time.

    Each level takes single_flips of the frontier's flippable_sites words.
    seen stays sorted: each level sorts its flips, drops repeats and known
    states with one searchsorted against seen and inserts the rest in place;
    the rest form the next frontier.
    Raises RuntimeError once the component has more than SECTOR_SIZE_CAP
    states, and ValueError for a configuration that is not an integer.
    """
    if not isinstance(cfg, (int, np.integer)):
        raise ValueError(f"configuration must be an integer, got {cfg!r}")
    cfg = int(cfg)
    if not 0 <= cfg < 1 << lat.n_sites:
        raise ValueError(f"configuration {cfg} is outside [0, 2**{lat.n_sites})")
    dtype = np.uint32 if lat.n_sites <= 32 else np.uint64
    seen = frontier = np.array([cfg], dtype=dtype)
    while len(frontier):
        _, flipped = single_flips(frontier, cfgmod.flippable_sites(frontier, lat), lat.n_sites)
        flipped = np.sort(flipped)
        pos = np.searchsorted(seen, flipped)
        new = seen[pos.clip(max=len(seen) - 1)] != flipped
        new[1:] &= flipped[1:] != flipped[:-1]
        frontier = flipped[new]
        if len(seen) + len(frontier) > SECTOR_SIZE_CAP:
            raise RuntimeError(f"component exceeded size cap {SECTOR_SIZE_CAP}")
        seen = np.insert(seen, pos[new], frontier)
    rep = int(seen[0])
    signs = cfgmod.cz_signs(seen[:1], lat)[0]
    return KrylovSector(
        representative=rep,
        size=len(seen),
        syndrome=tuple(signs.tolist()),
        is_frozen_sector=(len(seen) == 1),
    )


def sector_histogram(sectors):
    """Sorted (size, count) pairs over a sector list."""
    return sorted(Counter(s.size for s in sectors).items())


# ---------------------------------------------------------------------------
# transfer-matrix counting of code states


def _clean_row_pairs(L):
    """All ordered row pairs (below, above) with no CZ = -1 plaquette between.

    The plaquette between rows at column offset x couples the diagonals
    (a_x, b_{x+1}) and (a_{x+1}, b_x); CZ = -1 exactly when both diagonals
    disagree, independent of row parity.  Bit x of a ^ rot(b) and of
    rot(a) ^ b are those two disagreements, so a pair is clean when their
    AND is zero: one broadcast over all 2^L x 2^L pairs, sorted by a then b.
    """
    b = np.arange(1 << L, dtype=np.min_scalar_type((1 << L) - 1))
    a = b[:, None]
    bad = a ^ _rot(b, L)  # in place below: at L = 12 each operand is 32 MB
    bad &= _rot(a, L) ^ b
    return np.nonzero(bad == 0)


def _admitted(below, m, above, L):
    """Mask: no site of middle row m is flippable between rows below and above.

    Arrays broadcast.  Site x is flippable when m_{x-1}, m_{x+1}, below_x and
    above_x agree: the four-way agreement of config.flippable_sites, on the
    row's west and east rotations and the rows below and above.
    """
    return _agreement(_rot(m, L, L - 1), _rot(m, L), below, above, (1 << L) - 1) == 0


def _transfer_matrix(L):
    """0/1 CSR matrix of the admitted transitions between clean row pairs."""
    a, b = _clean_row_pairs(L)
    # pairs come sorted by first row, so those starting in row m are the run
    # starts[m]:starts[m+1]; those ending in m are by_last[ends[m]:ends[m+1]]
    row_values = np.arange((1 << L) + 1)
    starts = np.searchsorted(a, row_values)
    by_last = np.argsort(b, kind="stable")
    ends = np.searchsorted(b[by_last], row_values)
    hits = []
    for m in range(1 << L):
        into = by_last[ends[m]:ends[m + 1]]
        above = b[starts[m]:starts[m + 1]]
        i, j = np.nonzero(_admitted(a[into, None], m, above, L))
        hits.append((into[i], starts[m] + j))
    rows_i, cols_j = (np.concatenate(h) for h in zip(*hits))
    ones = np.ones(len(rows_i), dtype=np.int64)
    return sp.csr_matrix((ones, (rows_i, cols_j)), shape=(len(a), len(a)))


def count_code_states_transfer(L):
    """Exact code-state count by the row-pair transfer method (even 4 <= L <= 12).

    Both row kernels are AND masks of rows and their cyclic rotations.  Budget:
    L = 12 (531,444 states, 8,200 transitions) in under 2 s and 200 MB peak RSS.
    """
    if L % 2 != 0 or not (4 <= L <= 12):
        raise ValueError("transfer counting requires even L with 4 <= L <= 12")
    T = _transfer_matrix(L)
    # trace(T^L) via T^(L/2): path counts are small so int64 is exact
    P = T
    for _ in range(L // 2 - 1):
        P = P @ T
    return int(P.multiply(P.T).sum())


def transfer_report(L):
    return _report(L, "transfer_matrix", count_code_states_transfer(L))
