"""m-state clock generalization: link colors under a zero-flux constraint.

Clock digits 0..m-1 live on the 2 L^2 links of an L x L torus.  Around every
face the links are path-ordered (bottom, right, top, left) with signs
(+,-,+,-), and the signed count of every color must vanish.  That holds for
every color exactly when the multisets {bottom, top} and {right, left} agree,
one vectorized test per face.  Valid colorings are the coverings by
monochromatic diagonal staircase loops.

A coloring is one base-m integer code with link 0 as the most significant
digit, so integer order is lexicographic order of the digit tuples (the
order of itertools.product) and representatives, sector order and report
fields all follow from sorted codes.  The valid colorings are built one link
column at a time, each face tested once its last link is assigned.

A move recolors the four links at one vertex (a plaquette of the 45-degree
diamond geometry) when they share a color kappa; it adds
(target - kappa) * sum_{l in star} m^(n-1-l) to the code.  Each adjacent face
holds one even- and one odd-position link of the star, so every flux is
conserved.  The moves form one CSR graph on the valid codes whose connected
components, labelled as in krylov_decompose, are the sectors.  The global
color shift is an index permutation; its orbits on sectors are the qudit
multiplets.

The topological label is read from the two diagonal winding directions: the
transverse color sequence of monochromatic staircase tracks, mixed tracks
dropped and equal neighbors merged cyclically (a constant cycle reduces to
the empty label).  For odd L it is not constant on sectors (at L = 3, m = 2
both sectors mix three labels), so quadflip_report rejects odd L.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fragmentation import connected_components


@dataclass(frozen=True)
class ClockLattice:
    """Link-indexed torus geometry for the clock model.

    Horizontal link h(x,y) joins (x,y)-(x+1,y) and has index y*L + x;
    vertical link v(x,y) joins (x,y)-(x,y+1) and has index L^2 + y*L + x.
    """

    L: int
    n_links: int
    plaq_links: tuple       # per face: (bottom, right, top, left) path order
    star_links: tuple       # per vertex: (east, north, west, south) move cell
    tracks_plus: tuple      # per (1,1) diagonal track: its 2L links
    tracks_minus: tuple     # per (1,-1) diagonal track: its 2L links


def build_clock_lattice(L):
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")

    def h(x, y):
        return (y % L) * L + (x % L)

    def v(x, y):
        return L * L + h(x, y)

    cells = [(x, y) for y in range(L) for x in range(L)]
    return ClockLattice(
        L=L,
        n_links=2 * L * L,
        plaq_links=tuple((h(x, y), v(x + 1, y), h(x, y + 1), v(x, y)) for x, y in cells),
        star_links=tuple((h(x, y), v(x, y), h(x - 1, y), v(x, y - 1)) for x, y in cells),
        tracks_plus=tuple(
            tuple(l for x in range(L) for l in (v(x, x + t), h(x, x + t + 1)))
            for t in range(L)
        ),
        tracks_minus=tuple(
            tuple(l for x in range(L) for l in (v(x, t - x), h(x, t - x)))
            for t in range(L)
        ),
    )


def enumerate_valid(L, m):
    """The lattice and the valid colorings as an (n, n_links) uint8 array in code order."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    n_links = 2 * L * L  # sized before the lattice is built, which rejects L < 2
    if L >= 2 and (n_links > 20 or m ** n_links > 1 << 20):
        raise ValueError(f"exhaustive scan of {m}^{n_links} link assignments exceeds 2^20")
    lat = build_clock_lattice(L)
    faces = np.array(lat.plaq_links)
    last = faces.max(axis=1)
    colors = np.arange(m, dtype=np.uint8)
    digits = np.zeros((1, 0), dtype=np.uint8)
    for col in range(lat.n_links):
        digits = np.column_stack([np.repeat(digits, m, axis=0), np.tile(colors, len(digits))])
        for b, r, t, l in faces[last == col]:
            d = digits
            digits = d[(d[:, b] == d[:, r]) & (d[:, t] == d[:, l])
                       | (d[:, b] == d[:, l]) & (d[:, t] == d[:, r])]
    return lat, digits


def _index_of(codes, targets):
    """Positions of target codes among the sorted valid codes, which must hold them all."""
    idx = np.searchsorted(codes, targets)
    if not np.array_equal(codes[np.minimum(idx, len(codes) - 1)], targets):
        raise RuntimeError("a move or the color shift left the valid colorings")
    return idx


def move_graph(lat, digits, m, place, codes):
    """Unit-weight CSR adjacency of the recoloring moves on the valid colorings.

    place holds the digit weights m^(n_links-1-l) and codes = digits @ place.
    Row i holds 1.0 at every coloring one star recoloring reaches from i;
    the reverse move is legal too, so the matrix is symmetric.
    """
    rows, cols = [], []
    for star in lat.star_links:
        src = np.flatnonzero((digits[:, star] == digits[:, star[:1]]).all(axis=1))
        kappa = digits[src, star[0]].astype(np.int64)
        for step in range(1, m):
            delta = (kappa + step) % m - kappa
            rows.append(src)
            cols.append(_index_of(codes, codes[src] + delta * place[list(star)].sum()))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(codes),) * 2)


@dataclass(frozen=True)
class ClockSectors:
    """Sectors of the recoloring-move graph over the valid colorings."""

    m: int
    digits: np.ndarray  # (n, n_links) uint8 valid colorings in code order
    labels: np.ndarray  # per coloring: its sector; sectors sorted by representative
    reps: np.ndarray    # per sector: index of its smallest member
    sizes: np.ndarray   # per sector: member count
    shift: np.ndarray   # per coloring: index of its image under the +1 color shift


def krylov_decompose_quadflip(L, m=3):
    """Exhaustive sector decomposition of the valid configuration space."""
    lat, digits = enumerate_valid(L, m)
    place = m ** np.arange(lat.n_links - 1, -1, -1, dtype=np.int64)
    codes = digits.astype(np.int64) @ place
    labels, reps, sizes = connected_components(move_graph(lat, digits, m, place, codes))
    shift = _index_of(codes, ((digits + 1) % m).astype(np.int64) @ place)
    return lat, ClockSectors(m, digits, labels, reps, sizes, shift)


def find_multiplets(sectors):
    """Group sectors into shift orbits, each a tuple ordered so the shift maps k to k+1.

    Returns (multiplets, symmetric_sector_indices).  An orbit size other than
    1 or m for prime m, or not dividing m otherwise, is a structural failure.
    """
    m = sectors.m
    nxt = sectors.labels[sectors.shift[sectors.reps]].tolist()
    prime = all(m % d for d in range(2, m))
    seen = set()
    multiplets = []
    symmetric = []
    for k in range(len(nxt)):
        if k in seen:
            continue
        orbit = [k]
        while nxt[orbit[-1]] != k and len(orbit) <= m:  # the shift's m-th power is 1
            orbit.append(nxt[orbit[-1]])
        seen |= set(orbit)
        if len(orbit) == 1:
            symmetric.append(k)
        elif not ((len(orbit) == m) if prime else (m % len(orbit) == 0)):
            raise RuntimeError(f"shift orbit {orbit} has size {len(orbit)} (m = {m})")
        elif len(set(sectors.sizes[orbit].tolist())) != 1:
            raise RuntimeError(f"shift orbit {orbit} has unequal sector sizes")
        else:
            multiplets.append(tuple(orbit))
    return multiplets, symmetric


def qudit_logicals(orbit, sectors):
    """Logical I, Z, X of one multiplet, on its support.

    Returns (support, ops): support holds the indices of the multiplet's
    valid colorings in ascending order, and each op is a square matrix over
    them.  Z applies the phase omega^k on the k-th orbit sector; X is the
    global shift permutation, which maps the k-th sector onto the (k+1)-st,
    so Z X = omega X Z and X^m = Z^m = I.
    """
    omega = np.exp(2j * np.pi / sectors.m)
    position = np.full(len(sectors.sizes), -1)
    position[list(orbit)] = range(len(orbit))
    k = position[sectors.labels]  # orbit position of each coloring, -1 off it
    support = np.flatnonzero(k >= 0)
    idx = np.arange(len(support))
    ops = {name: np.zeros((len(support),) * 2, dtype=complex) for name in "IZX"}
    ops["I"][idx, idx] = 1.0
    ops["Z"][idx, idx] = [omega ** j for j in k[support].tolist()]
    ops["X"][np.searchsorted(support, sectors.shift[support]), idx] = 1.0
    return support, ops


def verify_qudit_algebra(orbit, sectors):
    """Max-abs residuals of Z^m = X^m = I and ZX = omega XZ on the support."""
    m = sectors.m
    _, ops = qudit_logicals(orbit, sectors)
    omega = np.exp(2j * np.pi / m)
    zp = np.linalg.matrix_power(ops["Z"], m)
    xp = np.linalg.matrix_power(ops["X"], m)
    return {
        "Z_power": float(np.abs(zp - ops["I"]).max()),
        "X_power": float(np.abs(xp - ops["I"]).max()),
        "ZX_commutation": float(np.abs(ops["Z"] @ ops["X"] - omega * ops["X"] @ ops["Z"]).max()),
    }


def _reduce_cyclic(colors):
    """Drop mixed tracks (None), merge cyclically adjacent equal colors, least rotation.

    A cycle that ends up constant has no protected color boundary left and
    reduces to the empty label.
    """
    seq = [c for c in colors if c is not None]
    runs = [c for i, c in enumerate(seq) if c != seq[i - 1]]  # seq[-1] precedes seq[0]
    return min((tuple(runs[k:] + runs[:k]) for k in range(len(runs))), default=())


def loop_invariant(cfg, lat):
    """Canonical pair of reduced diagonal loop-color sequences."""

    def track_colors(tracks):
        return [cfg[t[0]] if len({cfg[l] for l in t}) == 1 else None for t in tracks]

    return (_reduce_cyclic(track_colors(lat.tracks_plus)),
            _reduce_cyclic(track_colors(lat.tracks_minus)))


def quadflip_report(L, m=3):
    """Full decomposition summary used by the command-line interface (even L)."""
    if L % 2:
        raise ValueError(f"L = {L} is odd: the loop-sequence label is a sector "
                         "invariant only for even L")
    lat, sectors = krylov_decompose_quadflip(L, m)
    multiplets, symmetric = find_multiplets(sectors)

    member_labels = [loop_invariant(row, lat) for row in sectors.digits.tolist()]
    labels = [member_labels[i] for i in sectors.reps]
    violations = sum(
        label != labels[k] for label, k in zip(member_labels, sectors.labels.tolist())
    )

    residuals = {"Z_power": 0.0, "X_power": 0.0, "ZX_commutation": 0.0}
    entries = []
    for orbit in multiplets:
        res = verify_qudit_algebra(orbit, sectors)
        residuals = {key: max(value, res[key]) for key, value in residuals.items()}
        entries.append({
            "orbit_size": len(orbit),
            "sector_sizes": sectors.sizes[list(orbit)].tolist(),
            "invariant_labels": [[list(part) for part in labels[k]] for k in orbit],
        })
    return {
        "L": L,
        "m": m,
        "valid_count": len(sectors.digits),
        "sector_count": len(sectors.sizes),
        "symmetric_sector_count": len(symmetric),
        "multiplet_count": len(multiplets),
        "orbit_sizes": sorted({len(o) for o in multiplets} | ({1} if symmetric else set())),
        "multiplets": entries,
        "distinct_labels": len(set(labels)),
        "label_violations": violations,
        "algebra_residuals": residuals,
    }
