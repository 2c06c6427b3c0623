"""Immutable geometry of the L x L square-lattice torus.

Sites are indexed row-major: site = y*L + x with 0 <= x, y < L and periodic
boundaries in both directions.  The lattice is bipartite for even L: a site
belongs to sublattice A when x + y is even, to B otherwise.  Plaquette p is
identified with its lower-left corner site (same row-major index) and its
corners are stored in cyclic order (x,y), (x+1,y), (x+1,y+1), (x,y+1) so
that consecutive corners share an edge.

All tables are plain numpy index arrays; a Lattice never changes after
construction and is safe to share between threads.
"""

from dataclasses import dataclass, field

import numpy as np

SUBLATTICE_A = 0
SUBLATTICE_B = 1


@dataclass(frozen=True)
class Lattice:
    """Geometry tables for an L x L torus (L even, L >= 4)."""

    L: int
    n_sites: int
    n_plaquettes: int
    n_sublattice: int                 # sites per sublattice, L^2 / 2
    sublattice: np.ndarray            # (n_sites,) 0 = A, 1 = B
    neighbors: np.ndarray             # (n_sites, 4): +x, -x, +y, -y
    plaq_corners: np.ndarray          # (n_plaquettes, 4) cyclic corner order
    plaq_a_corners: np.ndarray        # (n_plaquettes, 2) the two A corners
    plaq_b_corners: np.ndarray        # (n_plaquettes, 2) the two B corners
    a_sites: np.ndarray               # sorted A-site indices
    b_sites: np.ndarray               # sorted B-site indices
    mask_a: int                       # bitmask of all A sites (X_A toggle)
    mask_b: int                       # bitmask of all B sites (X_B toggle)
    cnot_partner_table: np.ndarray = field(repr=False)  # (n_sites,), -1 on B

    def site_index(self, x, y):
        return (y % self.L) * self.L + (x % self.L)


def build_lattice(L):
    """Build the full geometry for an even linear size L >= 4.

    Raises ValueError for odd L (the sublattice structure is inconsistent
    with periodic boundaries), for L < 4 (no noncontractible-loop
    structure worth encoding) and for L > 8 (no consumer packs > 64 sites).
    """
    if L % 2 != 0:
        raise ValueError(f"L must be even, got {L}")
    if not 4 <= L <= 8:
        raise ValueError(f"L must lie in [4, 8] (at most 64 sites), got {L}")

    n = L * L
    xs = np.arange(n) % L
    ys = np.arange(n) // L
    sub = ((xs + ys) % 2).astype(np.uint8)

    def idx(x, y):
        return (y % L) * L + (x % L)

    neighbors = np.empty((n, 4), dtype=np.int64)
    neighbors[:, 0] = idx(xs + 1, ys)
    neighbors[:, 1] = idx(xs - 1, ys)
    neighbors[:, 2] = idx(xs, ys + 1)
    neighbors[:, 3] = idx(xs, ys - 1)

    corners = np.empty((n, 4), dtype=np.int64)
    corners[:, 0] = idx(xs, ys)
    corners[:, 1] = idx(xs + 1, ys)
    corners[:, 2] = idx(xs + 1, ys + 1)
    corners[:, 3] = idx(xs, ys + 1)

    # Corners 0 and 2 share the parity of x+y (one diagonal), 1 and 3 the other.
    a_first = sub == 0  # plaquette's lower-left corner on A
    plaq_a = np.where(a_first[:, None], corners[:, [0, 2]], corners[:, [1, 3]])
    plaq_b = np.where(a_first[:, None], corners[:, [1, 3]], corners[:, [0, 2]])

    a_sites = np.nonzero(sub == SUBLATTICE_A)[0]
    b_sites = np.nonzero(sub == SUBLATTICE_B)[0]
    mask_a = 0
    for i in a_sites:
        mask_a |= 1 << int(i)
    mask_b = 0
    for i in b_sites:
        mask_b |= 1 << int(i)

    # Row-parity pairing: an A site pairs with the B neighbor to its right in
    # odd rows and to its left in even rows.  Restricted to A this is a
    # bijection onto B (each row pairs its own A and B sites one-to-one).
    partner = np.full(n, -1, dtype=np.int64)
    for i in a_sites:
        x, y = int(xs[i]), int(ys[i])
        partner[i] = idx(x + 1, y) if y % 2 == 1 else idx(x - 1, y)

    return Lattice(
        L=L,
        n_sites=n,
        n_plaquettes=n,
        n_sublattice=n // 2,
        sublattice=sub,
        neighbors=neighbors,
        plaq_corners=corners,
        plaq_a_corners=plaq_a,
        plaq_b_corners=plaq_b,
        a_sites=a_sites,
        b_sites=b_sites,
        mask_a=mask_a,
        mask_b=mask_b,
        cnot_partner_table=partner,
    )
