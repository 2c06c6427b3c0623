"""Bit-packed z-basis spin configurations and their local predicates.

A configuration is a plain Python int: bit k is the state of site k (1 means
|1>), so a configuration doubles as the index of its basis state in a dense
state vector.  Bits at or above L^2 are always zero.  Functions come in two
flavors: scalar predicates on a single int (the reference definitions) and
vectorized kernels on numpy arrays of packed configurations (the enumeration
fast path; arrays must use an unsigned dtype wide enough for L^2 bits).

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


def apply_flip(cfg, site):
    """Toggle one site.  Legality (is_flippable) is the caller's business."""
    return cfg ^ (1 << site)


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


def flippable_mask(cfgs, lat, i):
    """Boolean mask over cfgs: site i flippable (4 neighbor bits equal)."""
    j0, j1, j2, j3 = (int(j) for j in lat.neighbors[i])
    b0 = (cfgs >> j0) & 1
    b1 = (cfgs >> j1) & 1
    b2 = (cfgs >> j2) & 1
    b3 = (cfgs >> j3) & 1
    return (b0 == b1) & (b1 == b2) & (b2 == b3)


def frozen_mask(cfgs, lat):
    """Boolean mask over cfgs: no site flippable."""
    out = np.ones(cfgs.shape, dtype=bool)
    for i in range(lat.n_sites):
        out &= ~flippable_mask(cfgs, lat, i)
    return out


def cz_signs(cfgs, lat):
    """(len(cfgs), n_plaquettes) int8 matrix of CZ eigenvalues."""
    cfgs = np.asarray(cfgs)
    out = np.empty(cfgs.shape + (lat.n_plaquettes,), dtype=np.int8)
    for p in range(lat.n_plaquettes):
        a1, a2 = (int(c) for c in lat.plaq_a_corners[p])
        b1, b2 = (int(c) for c in lat.plaq_b_corners[p])
        a_wall = ((cfgs >> a1) ^ (cfgs >> a2)) & 1
        b_wall = ((cfgs >> b1) ^ (cfgs >> b2)) & 1
        out[..., p] = 1 - 2 * (a_wall & b_wall).astype(np.int8)
    return out


def intersection_counts(cfgs, lat):
    """Per-configuration count of CZ = -1 plaquettes."""
    signs = cz_signs(cfgs, lat)
    return np.sum(signs < 0, axis=-1)


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


def parse_config_literal(text):
    """Parse the textual format into (cfg, L)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    L = int(lines[0])
    rows = lines[1:]
    if len(rows) != L:
        raise ValueError(f"expected {L} rows, got {len(rows)}")
    cfg = 0
    for y, row in enumerate(rows):
        if len(row) != L or set(row) - {"0", "1"}:
            raise ValueError(f"row {y} is not {L} characters of 0/1: {row!r}")
        for x, ch in enumerate(row):
            if ch == "1":
                cfg |= 1 << (y * L + x)
    return cfg, L


def format_config_literal(cfg, L):
    """Inverse of parse_config_literal."""
    rows = []
    for y in range(L):
        rows.append("".join("1" if bit(cfg, y * L + x) else "0" for x in range(L)))
    return "\n".join([str(L)] + rows)
