"""Sparse Hamiltonians and exact time evolution of logical superpositions.

Hamiltonians are assembled as scipy CSR matrices over the 2^(L^2) packed
basis (the packed configuration is the basis index).  Every model scales
one flip graph, fragmentation.move_graph, by -h.  The constrained model
keeps the legal flips only and annihilates every code state, row and
column alike.  The unconstrained plaquette model couples all single-flip
pairs and adds the diagonal -J * sum_p CZ_p; the sym_transverse
perturbation is that unconstrained graph itself.

Perturbations come in two symmetric kinds, which commute with both
sublattice toggles exactly, and two symmetry-breaking kinds (longitudinal
random-sign fields and nearest-neighbor ZZ); build_perturbation records the
lattice for the first and nothing for the second.  Random signs are used for
the breaking default because a uniform field can have a vanishing
first-order effect on sublattice-balanced code states.
The diagonal kinds are popcounts of neighbor-shift words, like the plaquette
energy: with z_i z_j = 1 - 2 (bit_i xor bit_j), a ZZ sum over two bonds per
site is 2N - 2 sum_b popcount(w xor w_b), and the field sum_i s_i z_i is
sum_i s_i - 2 (popcount(w & up) - popcount(w & down)), up and down its sign masks.

The CZ_p model at strong coupling (build_czp_strong) is heff plus the
plaquette energy: a flip that creates wall crossings costs at least 2J.

Time evolution takes one of two paths, both for real symmetric H only.  If
no row of H[S], S the support of the initial state, has a nonzero entry off
its diagonal (stored zeros do not couple), the columns S have none either,
because H is symmetric, so every state s of S is an eigenstate and
exp(-iHt) psi = sum_s exp(-i d_s t) psi_s |s> exactly, d_s the diagonal
entry of row s; this holds for a support of any size.  Logical states take
this path under the constrained flips and diagonal perturbations: the flips
annihilate code states and a diagonal term keeps them eigenstates.
Otherwise exp(-iHt) is expanded in Chebyshev polynomials (Tal-Ezer and
Kosloff 1984),

    exp(-iHt) psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(at) T_k((H-c)/a) psi,

with centre c and half-width a of an interval that provably holds the
spectrum: Collatz-Wielandt bounds on +-D + |O|, D and O the diagonal and
off-diagonal parts of H, taken with a shift that keeps the diagonal at
least 1 (so rows with no off-diagonal entry stay finite) and clipped to
Gershgorin's interval.  The Bessel tail below is computed on that a.

The recursion runs in the symmetry sectors of a permutation group G.  An
operator's recorded lattice claims both sublattice XOR toggles and the L^2 / 2
translations (dx, dy), dx + dy even; a sum keeps it if both terms record it.
K holds the x -> T(x) ^ g (T a translation, g a toggle) that fix each
configuration of psi0's support, so psi(t) is K-invariant (for a logical
state, 2, 4 or 8 translations), and G is the toggle group times K, trivial
with no lattice.  No recorded symmetry is trusted: _Sectors checks that H
commutes with every element of G, ValueError if not; the exact path reads
none.  psi0 occupies the sectors trivial on K, one per +-1 character chi_q
of the toggles: sector q has one orbit state |O_r|^(-1/2) sum_x chi_q(e_x)
|x>, x = e_x(r), per orbit whose stabilizer has chi_q = 1 (else the sum
vanishes), so a block is about 2^N / |G| wide; psi is projected on the
sectors, and reassembled, by sums over chi_q and the norms |O_r|^(1/2).
Each nonempty sector component is factored as z w, z its largest entry; a
logical state has one amplitude per sector, so w is real and the sector runs
one real recursion, where the whole space would run two (Re and Im psi).  A
w with an imaginary part runs two.  A sector whose component is v_r e_r, one
orbit state, with r its only recorded row (a logical state recorded on its
block: its four members share one representative) needs only v_r
<e_r|exp(-iHt)|e_r>: its series takes the moments mu_k = <e_r|T_k|e_r>, two
per mat-vec (Weisse, Wellein, Alvermann and Fehske, Rev. Mod. Phys. 78, 275
(2006)), so its recursion stops at order K/2.  Other sectors record their
rows: with no symmetry, for a state off the block, and in evolve.  One
recursion serves a whole time grid.  Its order is the smallest K whose
Bessel tail |psi| sum_{k>=K} 2|J_k(at)| is at most tol at every requested
time, so tol bounds the global 2-norm error at each time, not a per-step
local error; the sector errors are orthogonal, so together they stay within
that bound.  The J_k come from Miller's downward recurrence, rescaled at
every step so that it cannot under- or overflow.

The interval bounds are taken in the trivial sector of |O|, summed over each
orbit with no norms.  A positive vector constant on orbits stays one under
+-D + |O|, which commutes with G too (any permutation group serves), so its
Collatz-Wielandt ratios and Gershgorin row sums are those of that summed
restriction: the interval is the full space's bound, at ~1/|G| of the size.
"""

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
import scipy.sparse as sp

from . import config as cfgmod
from .encoding import DEFAULT_PROBE, _check_finite, _check_state, block_tomography, logical_state
from .fragmentation import move_graph

PERTURBATION_KINDS = (
    "sym_transverse",
    "sym_zz_nnn",
    "break_longitudinal_random",
    "break_zz_nn",
)

_POWER_STEPS = 30        # power steps behind each Collatz-Wielandt bound
_ROUNDING_PAD = 2.0 ** -40  # relative widening of each bound, for rounding
_MILLER_PAD = 32         # orders the Bessel recurrence starts above its table
_BESSEL_BUDGET = 2 ** 27  # orders x times the Bessel table may span (3 a t + 100 orders)


@dataclass(frozen=True)
class SparseOperator:
    """CSR operator on the packed basis: it must be real symmetric, but only complex is rejected.

    lattice, if not None, needs a 2^n_sites basis (ValueError if not) and claims
    its symmetries (module docstring), checked by _Sectors where it reads them.
    """

    matrix: sp.csr_matrix
    lattice: object = None  # a lattice.Lattice

    def __post_init__(self):
        if self.lattice is not None and self.matrix.shape[0] != 1 << self.lattice.n_sites:
            raise ValueError(f"dimension {self.matrix.shape[0]} is not 2^{self.lattice.n_sites}")

    def apply(self, vec):
        return self.matrix @ vec

    def __add__(self, other):
        return SparseOperator((self.matrix + other.matrix).tocsr(), other.lattice and self.lattice)


def _translate(w, L, dx, dy):
    """w moved on the L x L torus: bit (x, y) from bit (x + dx, y + dy); zero shifts skipped."""
    w = cfgmod._rot(w, L * L, L * dy) if dy else w  # (0, 0) keeps w on any basis, in any dtype
    return cfgmod._row_rot(w, L, dx) if dx else w


def build_heff(lat, h=1.0):
    """Constrained flip model: -h between pairs related by a legal flip."""
    _check_finite(h=h)
    matrix = move_graph(lat)
    matrix.data *= -h  # in place: a scaled copy (-h * graph) doubled later page faults
    return SparseOperator(matrix, lat)


def _plaquette_model(lat, J, h, constrained):
    """-J sum_p CZ_p on the diagonal plus -h times move_graph(lat, constrained)."""
    _check_finite(J=J, h=h)
    cfgs = cfgmod.config_range(lat.n_sites)
    # sum_p CZ_p = n_plaquettes - 2 * (number of CZ_p = -1)
    crossed = np.bitwise_count(cfgmod.crossings(cfgs, lat)).astype(np.float64)
    energy = -J * (lat.n_plaquettes - 2.0 * crossed)
    flips = move_graph(lat, constrained)
    flips.data *= -h  # in place, as in build_heff
    matrix = sp.diags(energy, format="csr") + flips
    return SparseOperator(matrix, lat)


def build_hczp(lat, J=1.0, h=1.0):
    """Unconstrained plaquette model: -J sum_p CZ_p - h sum_i X_i."""
    return _plaquette_model(lat, J, h, constrained=False)


def build_czp_strong(lat, J=1.0, h=1.0):
    """CZ_p model at strong coupling: heff's flips plus -J sum_p CZ_p."""
    return _plaquette_model(lat, J, h, constrained=True)


def build_perturbation(lat, kind, lam, seed=0):
    """One of the four perturbation kinds, scaled by lam.

    A sym_ kind records the lattice, a break_ kind nothing; _Sectors
    verifies the lattice's symmetries where the propagator reads them.
    """
    _check_finite(lam=lam)
    if kind == "sym_transverse":
        matrix = move_graph(lat, constrained=False)
    elif kind in PERTURBATION_KINDS:
        w, n, L = cfgmod.config_range(lat.n_sites), lat.n_sites, lat.L
        if kind == "break_longitudinal_random":
            rng = np.random.default_rng(seed)
            signs = rng.choice(np.array([-1.0, 1.0]), size=lat.n_sites)
            up = sum(1 << i for i, s in enumerate(signs) if s > 0)
            down = ((1 << n) - 1) ^ up
            # sum_i s_i z_i, z_i = 1 - 2 bit_i; in float, as uint8 popcounts wrap
            diag = signs.sum() - 2.0 * (np.bitwise_count(w & up).astype(np.float64)
                                        - np.bitwise_count(w & down))
        else:
            # z_i z_j = 1 - 2 (bit_i ^ bit_j), summed over the two bonds each site owns
            if kind == "break_zz_nn":  # east and north: A to B
                bonds = (cfgmod._row_rot(w, L, 1), cfgmod._rot(w, n, L))
            else:  # north-east and south-east: within one sublattice
                bonds = (cfgmod._row_rot(cfgmod._rot(w, n, L), L, 1),
                         cfgmod._row_rot(cfgmod._rot(w, n, n - L), L, 1))
            diag = 2.0 * n - 2.0 * sum(np.bitwise_count(w ^ b).astype(np.float64) for b in bonds)
        matrix = sp.diags(diag, format="csr")
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    matrix.data *= lam
    return SparseOperator(matrix, lat if kind.startswith("sym_") else None)


# ---------------------------------------------------------------------------
# propagator


def _check_tol(tol):
    if not 1e-12 <= tol < np.inf:  # also rejects nan
        raise ValueError("tol must be finite and >= 1e-12")


class _Sectors:
    """An operator in the symmetry-adapted basis of G (module docstring).

    group (toggle masks g_s, s a bit pattern) and shifts ((dx, dy) on the L x L
    torus, keeping every g_s) are closed groups, and K holds the (dx, dy, m)
    with T(x) ^ g_m = x on support.  Element (T, s), x -> T(x) ^ g_s, has the
    character chars[q, s ^ m] = (-1)^popcount(q & (s ^ m)); chi_q(e) of the
    e with x = e(r), r the orbit minimum, is chars[q, element[x]].  norm is
    |O_r|^(1/2), live[q] marks sector q's orbits, and the block <r'; q|H|r; q>
    = (norm_r' / norm_r) sum_x chi_q(e_x) H[r', x] is H's row r' with each
    entry moved to its column's representative.  Checked exactly: for each
    e != 1, the rows r with columns mapped by e must equal the rows e(r), and
    over all e these are all of H's rows; ValueError if not.
    """

    def __init__(self, H, group, shifts, L, support=()):
        s = np.arange(len(group))
        self.chars = 1.0 - 2.0 * (np.bitwise_count(s[:, None] & s) & 1)
        support, K = np.asarray(support, dtype=np.int64), []
        for dx, dy in shifts:
            m = int(_translate(support[0], L, dx, dy) ^ support[0]) if len(support) else 0
            if m in group and np.array_equal(_translate(support, L, dx, dy) ^ m, support):
                K.append((dx, dy, group.index(m)))
        configs = np.arange(H.shape[0], dtype=np.uint32)  # half int64's memory traffic
        rep, self.element = configs.copy(), np.zeros(len(configs), dtype=np.intp)
        for dx, dy, m in K:
            moved = _translate(configs, L, dx, dy)
            for s, g in enumerate(group):
                np.putmask(self.element, moved ^ g < rep, s ^ m)
                np.minimum(rep, moved ^ g, out=rep)
        self.reps = np.flatnonzero(rep == configs)
        self.index = (np.cumsum(rep == configs) - 1)[rep]  # position of rep(x) in reps
        self.orbits = self.reps ^ np.array(group)[:, None]  # r ^ g_s: K-invariant psi read here
        self.diagonal = H.diagonal()[self.reps]
        self.rows = H[self.reps]
        fixed_by, odd = np.zeros(len(self.reps)), np.zeros((len(group), len(self.reps)), bool)
        for dx, dy, m in K:
            moved = _translate(self.reps, L, dx, dy)
            cols = _translate(self.rows.indices, L, dx, dy)
            for s, g in enumerate(group):
                fixed = (moved ^ g) == self.reps
                fixed_by += fixed
                odd |= fixed & (self.chars[:, s ^ m, None] < 0)
                if not (dx or dy or s):
                    continue
                conj = sp.csr_matrix((self.rows.data, cols ^ g, self.rows.indptr), self.rows.shape)
                if (conj != H[moved ^ g]).nnz:
                    raise ValueError(f"the operator does not commute with group element "
                                     f"x -> T({dx}, {dy}) x ^ {g:#x}")
        self.live = ~odd
        self.norm = np.sqrt(len(K) * len(group) / fixed_by)
        self.row = np.repeat(np.arange(len(self.reps)), np.diff(self.rows.indptr))
        self.col = self.index[self.rows.indices]
        self.col_element = self.element[self.rows.indices]

    def block(self, q):
        """Sector q's block of H; a dead orbit's row and column hold zeros."""
        live, ratio = self.live[q], self.norm[self.row] / self.norm[self.col]
        data = self.rows.data * self.chars[q, self.col_element] * ratio
        return self._on_reps(np.where(live[self.row] & live[self.col], data, 0.0))

    def abs_offdiagonal(self):
        """The trivial sector's block of |O|, O the off-diagonal part of H, without norms."""
        owner = self.reps[self.row]
        return self._on_reps(np.where(self.rows.indices == owner, 0.0, np.abs(self.rows.data)))

    def _on_reps(self, data):
        # columns come out unsorted and possibly repeated, which a mat-vec sums
        n = len(self.reps)
        return sp.csr_matrix((data, self.col, self.rows.indptr), shape=(n, n))


def _group(lat):
    """_Sectors' toggle group, even shifts (in sorted order) and L for lat; trivial for None."""
    if lat is None:
        return [0], [(0, 0)], 0
    shifts = [(dx, dy) for dx in range(lat.L) for dy in range(lat.L) if (dx + dy) % 2 == 0]
    return [0, lat.mask_a, lat.mask_b, lat.mask_a ^ lat.mask_b], shifts, lat.L


def _collatz_wielandt_max(absO, d):
    """Upper bound on the largest eigenvalue of diag(d) + absO, absO >= 0.

    M = diag(d + s) + absO with s = 1 - min(d) is nonnegative with diagonal
    at least 1, so power steps from the all-ones vector keep v strictly
    positive, and for any positive v the Collatz-Wielandt bound gives
    lambda_max(M) <= max_i (M v)_i / v_i.  That ratio is widened by the
    relative _ROUNDING_PAD, far above the rounding error of a row with up
    to thousands of entries.
    """
    s = 1.0 - float(d.min())
    shifted = d + s
    v = np.ones(len(d))
    for _ in range(_POWER_STEPS):
        v = absO @ v + shifted * v
        v /= v.max()
    rho = float(np.max((absO @ v + shifted * v) / v))
    return rho * (1.0 + _ROUNDING_PAD) - s


def _spectral_interval(sectors):
    """Centre c and half-width a of an interval that holds spec(H).

    With H = D + O split into its diagonal and off-diagonal parts,
    x^T O x <= |x|^T |O| |x| gives lambda_max(H) <= lambda_max(D + |O|),
    and likewise lambda_min(H) >= -lambda_max(-D + |O|); each end comes
    from _collatz_wielandt_max and is clipped to the Gershgorin end, whose
    radii are the row sums of the same |O|, so the interval is never wider
    than Gershgorin's.

    Both are taken in the trivial sector of |O|, which gives the full
    space's bounds (see the module docstring).  An operator too large for
    floating point overflows silently here and raises ValueError once the
    centre or half-width is not finite.
    """
    absO = sectors.abs_offdiagonal()
    d = sectors.diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        radius = np.asarray(absO.sum(axis=1)).ravel()
        lo = max(-_collatz_wielandt_max(absO, -d), float(np.min(d - radius)))
        hi = min(_collatz_wielandt_max(absO, d), float(np.max(d + radius)))
    c, a = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if not (np.isfinite(c) and np.isfinite(a)):
        raise ValueError(f"the spectral interval [{lo:.6g}, {hi:.6g}] is not finite")
    return c, a


def _bessel_table(x, n):
    """J_k(x_j) for k < n, shape (n, len(x)), by Miller's downward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from k = n + _MILLER_PAD, where
    it starts from arbitrary values, and the result is normalized by
    J_0 + 2 sum_k J_{2k} = 1.  Downward, the decaying solution J dominates,
    so the start washes out.  Every step splits its value into a mantissa
    and a binary exponent kept per column, so no column under- or
    overflows, however far below n its x lies.
    """
    ax = np.maximum(np.abs(x), 1e-300)  # keeps 2k/x finite; J_k(0) = 0 for k > 0 to 1e-300
    mantissa = np.empty((n, len(x)))
    exponent = np.empty((n, len(x)), dtype=np.int64)
    nxt, cur = np.zeros(len(x)), np.ones(len(x))
    scale = np.zeros(len(x), dtype=np.int64)
    for k in range(n + _MILLER_PAD, 0, -1):
        prev, e = np.frexp((2.0 * k / ax) * cur - nxt)
        nxt, cur = np.ldexp(cur, -e), prev
        scale += e
        if k <= n:
            mantissa[k - 1], exponent[k - 1] = prev, scale
    exponent -= exponent.max(axis=0)
    table = np.ldexp(mantissa, exponent, out=mantissa)
    table /= table[0] + 2.0 * table[2::2].sum(axis=0)
    table[1::2, x < 0] *= -1.0  # J_k(-x) = (-1)^k J_k(x)
    return table


def _chebyshev_coefficients(x, tol):
    """Coefficients (2 - delta_k0) (-i)^k J_k(x_j) for k < K, shape (K, len(x)).

    K is the smallest order whose Bessel tail sum_{k>=K} 2|J_k(x_j)| is at
    most tol at every x_j; that tail is returned as the bound reached.
    Orders from kmax on are bounded by 4 (|x|/2)^kmax / kmax!, which holds
    for kmax >= |x| and is kept below tol / 1e6.  kmax is sought below
    3 |x| + 100; when that many orders times len(x) exceed _BESSEL_BUDGET,
    ValueError is raised before anything is allocated.
    """
    xmax = max(float(np.abs(x).max()), 1.0)
    orders = 3.0 * xmax + 100.0
    if not orders * len(x) <= _BESSEL_BUDGET:
        raise ValueError(f"a*t = {xmax:.6g} needs up to {orders:.6g} orders x {len(x)} times, "
                         f"outside the Bessel table's budget of {_BESSEL_BUDGET} entries")
    ks = np.arange(int(np.ceil(xmax)), int(3 * xmax) + 100)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in ks.tolist()])
    log_rest = np.log(4.0) + ks * np.log(xmax / 2.0) - log_factorial
    kmax = int(ks[np.argmax(log_rest < np.log(tol) - 6.0 * np.log(10.0))])
    bessel = _bessel_table(x, kmax)
    tails = np.zeros(kmax + 1)
    rest = np.abs(bessel[::-1])
    tails[:kmax] = 2.0 * np.cumsum(rest, axis=0, out=rest)[::-1].max(axis=1)
    del rest  # freed before the complex coefficients are allocated
    tails += np.exp(log_rest[kmax - ks[0]])
    order = int(np.argmax(tails <= tol))
    phases = np.array([1.0, -1j, -1.0, 1j])[np.arange(order) % 4]
    coef = phases[:, None] * bessel[:order]
    coef[1:] *= 2.0
    return coef, float(tails[order])


def _chebyshev_terms(H, c, a, parts, order):
    """Yield [T_k((H - c)/a) v for v in parts] for k < order, parts real."""
    if order < 1:
        return
    dim = H.shape[0]
    M = ((H - c * sp.identity(dim, format="csr")) * (2.0 / a)).tocsr()
    prev = parts
    yield prev
    if order < 2:
        return
    cur = [0.5 * (M @ v) for v in parts]
    yield cur
    for _ in range(2, order):
        nxt = [M @ v for v in cur]
        for n, u in zip(nxt, prev):
            n -= u
        prev, cur = cur, nxt
        yield cur


@dataclass(frozen=True)
class PropagatorCounters:
    """Deterministic solver counters of one propagation."""

    chebyshev_order: int   # orders of the Chebyshev recursion; 0 on the exact path
    probe_dim: int         # size of psi0's support on the exact path; 0 on the recursion
    error_bound: float     # a-priori 2-norm error bound at every time; 0.0 on the exact path
    half_width: float      # half-width of the recursion's interval; 0.0 on the exact path
    rows_per_order: int    # rows multiplied per order of the expansion, summed over the sectors:
    #                        dimension x real parts, half the dimension on the moment path


def _propagate(op, psi0, times, tol, rows):
    """exp(-i H t_j) psi0 at every t_j in times, on the sorted basis indices rows.

    rows must include psi0's support.

    Returns the amplitudes, shape (len(times), len(rows)), and the
    PropagatorCounters.
    """
    H = op.matrix
    if np.iscomplexobj(H):
        raise ValueError("the propagator needs a real symmetric operator")
    times = np.asarray(times, dtype=float)

    on = np.flatnonzero(psi0[rows] != 0)
    S = rows[on]
    sub = H[S]
    if not np.any(sub.data[sub.indices != np.repeat(S, np.diff(sub.indptr))]):
        d = np.asarray(sub.sum(axis=1)).ravel()  # row sums: every other entry is zero
        values = np.zeros((len(times), len(rows)), dtype=complex)
        values[:, on] = np.exp(-1j * np.outer(times, d)) * psi0[S]
        return values, PropagatorCounters(0, len(S), 0.0, 0.0, 0)

    norm = float(np.linalg.norm(psi0[S]))  # on the support: no threaded BLAS call on 2^16 entries
    sectors = _Sectors(H, *_group(op.lattice), S)
    c, a = _spectral_interval(sectors)
    coef, bound = _chebyshev_coefficients(a * times, tol / norm)
    need, pos = np.unique(sectors.index[rows], return_inverse=True)  # sector rows recorded
    amps = np.einsum("qs,sr,qr->qr", sectors.chars, psi0[sectors.orbits],  # len(chars) <r; q|psi0>
                     np.where(sectors.live, sectors.norm, 0.0))
    recorded = np.zeros((len(amps), len(times), len(need)), dtype=complex)
    rows_per_order = 0
    for q, v in enumerate(amps):
        if not np.any(v):
            continue
        if len(need) == 1 and np.array_equal(np.flatnonzero(v), need):
            # the moment path (module docstring), u_k = T_k e_r and mu_0 = <u_0,u_0> = 1:
            # mu_2k = 2<u_k,u_k> - mu_0 and mu_2k+1 = 2<u_k+1,u_k> - mu_1
            terms = _chebyshev_terms(sectors.block(q), c, a, [np.eye(1, len(v), need[0])[0]],
                                     len(coef) // 2 + 1)
            dots = [1.0]  # <u_j,u_i> for (j, i) = (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), ...
            for (u,), (w,) in pairwise(terms):
                dots += [np.einsum("i,i", w, u), np.einsum("i,i", w, w)]
            mu = 2.0 * np.array(dots[:len(coef)]) - np.resize(dots[:2], len(coef))
            recorded[q, :, 0] = v[need[0]] * np.einsum("kt,k->t", coef, mu)
            rows_per_order += int(sectors.live[q].sum()) // 2
            continue
        # v = scale * w / conj(z), z the largest entry of v / scale; w's
        # parts are separate real products, so w.imag is exactly 0 when v is
        # one number times a real vector, as in each logical state's sector
        big = np.argmax(np.abs(v))
        scale = abs(v[big])
        v = v / scale
        z = v[big]
        parts = [v.real * z.real + v.imag * z.imag]
        imag = v.imag * z.real - v.real * z.imag
        if np.any(imag):
            parts.append(imag)
        rows_per_order += int(sectors.live[q].sum()) * len(parts)
        for k, vs in enumerate(_chebyshev_terms(sectors.block(q), c, a, parts, len(coef))):
            for phase, u in zip((1.0, 1j), vs):
                recorded[q] += np.outer(phase * coef[k], u[need])
        recorded[q] *= scale / np.conj(z)
    values = np.einsum("qs,qtr->str", sectors.chars, recorded / sectors.norm[need]) / len(amps)
    values = values[sectors.element[rows], :, pos].T * np.exp(-1j * c * times)[:, None]
    return values, PropagatorCounters(len(coef), 0, norm * bound, a, rows_per_order)


def evolve(state, op, t, tol=1e-10):
    """exp(-i H t)|state> for real symmetric H and finite t.

    Negative t evolves backward.  tol bounds the 2-norm error of the
    result; t = NaN or +-inf, a state that is not a finite vector of H's
    dimension, or an a|t| past the Bessel table's budget
    (_chebyshev_coefficients) raises ValueError.
    """
    t = float(t)
    _check_finite(t=t)
    _check_tol(tol)
    psi = _check_state(state, op.matrix.shape[0])
    if t == 0:
        return psi
    values, _ = _propagate(op, psi, [t], tol, np.arange(len(psi)))
    return values[0]


# ---------------------------------------------------------------------------
# coherence experiments


@dataclass(frozen=True)
class CoherenceSeries:
    """Logical tomography along an exact-evolution trajectory."""

    times: np.ndarray
    tomography: tuple            # dict per grid point
    population: np.ndarray
    fidelity: np.ndarray         # |<psi(0)|psi(t)>|
    counters: PropagatorCounters  # of the one propagation behind the grid

    def coherence(self, sublattice="A"):
        """Complex qubit coherence <X_s> + i <Y_s> per grid point."""
        re = np.array([t[f"X_{sublattice}"] for t in self.tomography])
        im = np.array([t[f"Y_{sublattice}"] for t in self.tomography])
        return re + 1j * im

    def csv_rows(self):
        """Rows (t, reX, imX, population, fidelity) for the A qubit."""
        coh = self.coherence("A")
        for k, t in enumerate(self.times):
            yield (
                float(t),
                float(coh[k].real),
                float(coh[k].imag),
                float(self.population[k]),
                float(self.fidelity[k]),
            )


def coherence_experiment(block, op, times, tol=1e-10, initial=None):
    """Evolve a logical superposition and record tomography on a time grid.

    The default initial state is (|alpha;00> + |alpha;10>)/sqrt(2), the
    +1 eigenstate of the logical X_A coherence probe.  One propagation
    serves the whole grid: it records the amplitudes on the block members
    and on the support of the initial state, and tol bounds the 2-norm
    error of the state at every grid point.  A logical state under both
    toggles takes the moment path (module docstring): half the mat-vecs.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty list")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase strictly")
    _check_tol(tol)
    psi0 = _check_state(logical_state(block, DEFAULT_PROBE) if initial is None else initial,
                        op.matrix.shape[0])
    members = np.array(block.members)
    rows = np.union1d(members, np.flatnonzero(psi0 != 0))
    values, counters = _propagate(op, psi0, times, tol, rows)
    values[0] = psi0[rows]  # exact at t = 0, free of the propagator's rounding
    fidelity = np.abs(values @ psi0[rows].conj())
    tomography = [block_tomography(amps) for amps in values[:, np.searchsorted(rows, members)]]
    return CoherenceSeries(
        times=times,
        tomography=tuple(tomography),
        population=np.array([tom["population"] for tom in tomography]),
        fidelity=fidelity,
        counters=counters,
    )
