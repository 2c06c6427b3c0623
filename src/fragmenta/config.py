"""Bit-packed z-basis spin configurations and their local rules.

A configuration is a plain Python int: bit k is the state of site k (1 means
|1>), so a configuration doubles as the index of its basis state in a dense
state vector.  Bits at or above L^2 are always zero.  Scalar predicates on
one int read lat.neighbors and the corner tables: the reference the tests
check the kernels against.  The vectorized kernels, the path the program
runs, take numpy arrays (an unsigned dtype wide enough for L^2 bits) and
build one word per configuration from its four neighbor shifts, east and
west within each row, north and south by L: flippable_sites sets bit i when
site i can flip and crossings sets bit p when plaquette p has CZ = -1.

Plaquette conventions: the CZ eigenvalue of a plaquette is (-1)^(number of
plaquette edges with both endpoints in |1>), which reduces to the closed form
(-1)^((a1 xor a2)*(b1 xor b2)) over the A-corner pair (a1,a2) and B-corner
pair (b1,b2).  A plaquette hosts an A (B) domain wall when its two A (B)
corners disagree; the CZ eigenvalue is -1 exactly when both walls are
present.  The plaquette stabilizer is -prod_i Z_i over the four corners,
i.e. -(-1)^popcount, and equals +1 exactly when one wall crosses.
"""

import numpy as np


def bit(cfg, site):
    """Bit of site `site` (works on ints and numpy arrays alike)."""
    return (cfg >> site) & 1


def cz_plaquette(cfg, lat, p):
    """CZ eigenvalue (+1 or -1) of plaquette p in configuration cfg."""
    a1, a2 = lat.plaq_a_corners[p]
    b1, b2 = lat.plaq_b_corners[p]
    a_wall = bit(cfg, int(a1)) ^ bit(cfg, int(a2))
    b_wall = bit(cfg, int(b1)) ^ bit(cfg, int(b2))
    return 1 - 2 * (a_wall & b_wall)


def domain_walls(cfg, lat, p):
    """(A-wall, B-wall) booleans for plaquette p."""
    a1, a2 = lat.plaq_a_corners[p]
    b1, b2 = lat.plaq_b_corners[p]
    return (
        bool(bit(cfg, int(a1)) ^ bit(cfg, int(a2))),
        bool(bit(cfg, int(b1)) ^ bit(cfg, int(b2))),
    )


def stabilizer_zp(cfg, lat, p):
    """Plaquette stabilizer -prod Z over the four corners: +1 or -1."""
    pop = 0
    for c in lat.plaq_corners[p]:
        pop += bit(cfg, int(c))
    return -(1 - 2 * (pop & 1))


def intersection_count(cfg, lat):
    """Number of plaquettes with CZ eigenvalue -1 (wall crossings)."""
    return sum(1 for p in range(lat.n_plaquettes) if cz_plaquette(cfg, lat, p) < 0)


def is_flippable(cfg, lat, i):
    """True when all four neighbors of site i carry equal bits."""
    n0, n1, n2, n3 = (bit(cfg, int(j)) for j in lat.neighbors[i])
    return n0 == n1 == n2 == n3


def is_frozen(cfg, lat):
    """True when no site is flippable."""
    return not any(is_flippable(cfg, lat, i) for i in range(lat.n_sites))


def is_code_state(cfg, lat):
    """Membership in the code manifold: frozen and intersection-free."""
    return is_frozen(cfg, lat) and intersection_count(cfg, lat) == 0


# ---------------------------------------------------------------------------
# vectorized kernels over arrays of packed configurations


FULL_SPACE_SITE_CAP = 24  # dense vectors of 2^24 amplitudes at most


def config_range(n_sites):
    """All 2^n_sites packed configurations, as uint32.

    The one full-space size cap: every brute-force scan, the move graph and
    every Hamiltonian start here, so all of them fail above it.
    """
    if n_sites > FULL_SPACE_SITE_CAP:
        raise ValueError(f"the full configuration space is capped at "
                         f"{FULL_SPACE_SITE_CAP} sites, got {n_sites}")
    return np.arange(1 << n_sites, dtype=np.uint32)


def _rot(r, n, k=1):
    """Cyclic rotation of n-bit words: bit x of the result holds bit x + k of r."""
    return ((r >> k) | (r << (n - k))) & ((1 << n) - 1)


def _row_rot(w, L, k):
    """_rot of each L-bit row of an L x L word: bit (x, y) holds bit (x + k, y)."""
    stay = sum(((1 << (L - k)) - 1) << (y * L) for y in range(L))  # columns x < L - k
    return ((w >> k) & stay) | ((w << (L - k)) & (((1 << L * L) - 1) ^ stay))


def _agreement(a, b, c, d, full):
    """Bits of `full` where words a, b, c and d agree; broadcast operands meet in the last AND."""
    return full & ~(a ^ b) & ~(a ^ c) & ~(a ^ d)


def flippable_sites(cfgs, lat):
    """Word per configuration: bit i set when the four neighbors of site i agree."""
    w, n, L = np.asarray(cfgs), lat.n_sites, lat.L
    return _agreement(_row_rot(w, L, 1), _row_rot(w, L, L - 1), _rot(w, n, L),
                      _rot(w, n, n - L), (1 << n) - 1)


def crossings(cfgs, lat):
    """Word per configuration: bit p set when both diagonals of plaquette p differ: CZ_p = -1."""
    w, L = np.asarray(cfgs), lat.L
    north = _rot(w, lat.n_sites, L)
    return (w ^ _row_rot(north, L, 1)) & (_row_rot(w, L, 1) ^ north)  # (p, NE) and (E, N)


def cz_signs(cfgs, lat):
    """(len(cfgs), n_plaquettes) int8 matrix of CZ eigenvalues: 1 - 2 * bit p of crossings."""
    crossed = crossings(cfgs, lat)[..., None]
    bits = (crossed >> np.arange(lat.n_plaquettes, dtype=crossed.dtype)) & 1
    return 1 - 2 * bits.astype(np.int8)


def stabilizer_signs(cfgs, lat):
    """(len(cfgs), n_plaquettes) int8 matrix of plaquette stabilizer values."""
    cfgs = np.asarray(cfgs)
    if cfgs.dtype.kind != "u":
        # bitwise_count reads a signed value's magnitude, not its bits
        cfgs = cfgs.astype(np.uint64)
    corners = np.left_shift(np.uint64(1), lat.plaq_corners.astype(np.uint64))
    masks = np.bitwise_or.reduce(corners, axis=1).astype(cfgs.dtype)
    pop = np.bitwise_count(cfgs[..., None] & masks)
    return 2 * (pop & 1).astype(np.int8) - 1


# ---------------------------------------------------------------------------
# textual config literal: L, then L rows of 0/1 characters, row y on line y


def format_config_literal(cfg, L):
    """The textual form of cfg: L, then row y of sites x = 0..L-1 on line y."""
    rows = []
    for y in range(L):
        rows.append("".join("1" if bit(cfg, y * L + x) else "0" for x in range(L)))
    return "\n".join([str(L)] + rows)
