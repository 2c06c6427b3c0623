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
random-sign fields and nearest-neighbor ZZ); _commutes verifies which at
construction.  Random signs are used for the breaking default because a
uniform field can have a vanishing first-order effect on sublattice-balanced code states.

The CZ_p model at strong coupling (build_czp_strong) is heff plus the
plaquette energy: a flip that creates wall crossings costs at least 2J.

Time evolution takes one of two paths, both for real symmetric H only.  If
H maps the support S of the initial state into itself (at most
_EXACT_SUPPORT states, and every nonzero entry of the rows H[S] in a column
of S), the columns S hold no entry outside S either, because H is
symmetric, so exp(-iHt) psi = exp(-i H_SS t) psi_S exactly; a dense
eigendecomposition of H_SS serves every time at once.  Logical states take
this path under the constrained flips and diagonal perturbations: the
flips annihilate code states and a diagonal term keeps them eigenstates.
Otherwise exp(-iHt) is expanded in Chebyshev polynomials (Tal-Ezer and
Kosloff 1984),

    exp(-iHt) psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(at) T_k((H-c)/a) psi,

with centre c and half-width a of an interval that provably holds the
spectrum: Collatz-Wielandt bounds on +-D + |O|, D and O the diagonal and
off-diagonal parts of H, taken with a shift that keeps the diagonal at
least 1 (so rows with no off-diagonal entry stay finite) and clipped to
Gershgorin's interval.  The Bessel tail below is computed on that a.

The recursion runs in the symmetry sectors of the XOR toggles the operator
records (SparseOperator.toggles: the builders record both sublattice
toggles where H commutes with them, and a sum keeps the toggles both terms
share).  The toggles generate a group G, and H is block diagonal over its
sectors: sector q is spanned by one orbit state |G|^(-1/2) sum_g chi_q(g)
|r ^ g> per orbit representative r, so each block is 2^N / |G| wide.  psi
is projected on every sector and empty sectors are skipped.  Each other
sector component is factored as z w, z its largest entry; a logical state
has one amplitude per sector, so w is real and the sector runs one real
recursion, where the whole space would run two (Re and Im psi).  A w with
an imaginary part runs two.  With no toggles there is one sector, the
whole space.  One recursion serves a whole time grid.  Its order is the
smallest K whose Bessel tail |psi| sum_{k>=K} 2|J_k(at)| is at most tol at
every requested time, so tol bounds the global 2-norm error at each time,
not a per-step local error; the sector errors are orthogonal, so together
they stay within that bound.  The J_k come from Miller's downward
recurrence, rescaled at every step so that it cannot under- or overflow.

The interval bounds are taken in the trivial sector of |O|, whose entries
are those of |O| summed over each orbit.  A positive vector constant on
orbits stays one under +-D + |O|, which commutes with the toggles too, and
its Collatz-Wielandt ratios and Gershgorin row sums are those of the
trivial-sector restriction, so the interval is the full space's bound,
computed at 1/|G| of the size.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import config as cfgmod
from .encoding import DEFAULT_PROBE, block_tomography, logical_state
from .fragmentation import move_graph

PERTURBATION_KINDS = (
    "sym_transverse",
    "sym_zz_nnn",
    "break_longitudinal_random",
    "break_zz_nn",
)

_EXACT_SUPPORT = 64      # largest closed support the exact path diagonalizes
_POWER_STEPS = 30        # power steps behind each Collatz-Wielandt bound
_ROUNDING_PAD = 2.0 ** -40  # relative widening of each bound, for rounding
_MILLER_PAD = 32         # orders the Bessel recurrence starts above its table
_BESSEL_BUDGET = 2 ** 27  # orders x times the Bessel table may span (3 a t + 100 orders)


@dataclass(frozen=True)
class SparseOperator:
    """CSR operator on the packed basis.

    toggles are XOR masks the operator commutes with; the propagator works
    in their symmetry sectors.  build_perturbation records the toggles
    _commutes verifies; the flip graphs and the plaquette energy commute
    with both sublattice toggles by construction and record them unchecked.
    """

    matrix: sp.csr_matrix
    toggles: tuple = ()

    def apply(self, vec):
        return self.matrix @ vec

    def __add__(self, other):
        shared = tuple(m for m in self.toggles if m in other.toggles)
        return SparseOperator(matrix=(self.matrix + other.matrix).tocsr(), toggles=shared)


def _check_finite(**coefficients):
    for name, value in coefficients.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def build_heff(lat, h=1.0):
    """Constrained flip model: -h between pairs related by a legal flip."""
    _check_finite(h=h)
    matrix = move_graph(lat)
    matrix.data *= -h  # in place: a scaled copy (-h * graph) doubled later page faults
    return SparseOperator(matrix=matrix, toggles=(lat.mask_a, lat.mask_b))


def _plaquette_model(lat, J, h, constrained):
    """-J sum_p CZ_p on the diagonal plus -h times move_graph(lat, constrained)."""
    _check_finite(J=J, h=h)
    cfgs = cfgmod.config_range(lat.n_sites)
    energy = -J * cfgmod.cz_signs(cfgs, lat).sum(axis=1).astype(np.float64)
    flips = move_graph(lat, constrained)
    flips.data *= -h  # in place, as in build_heff
    matrix = sp.diags(energy, format="csr") + flips
    return SparseOperator(matrix=matrix, toggles=(lat.mask_a, lat.mask_b))


def build_hczp(lat, J=1.0, h=1.0):
    """Unconstrained plaquette model: -J sum_p CZ_p - h sum_i X_i."""
    return _plaquette_model(lat, J, h, constrained=False)


def build_czp_strong(lat, J=1.0, h=1.0):
    """CZ_p model at strong coupling: heff's flips plus -J sum_p CZ_p."""
    return _plaquette_model(lat, J, h, constrained=True)


def _z_values(cfgs, site):
    return 1.0 - 2.0 * ((cfgs >> np.uint32(site)) & np.uint32(1)).astype(np.float64)


def _commutes(matrix, mask):
    """Whether a canonical CSR matrix equals its conjugate by x -> x ^ mask, entry for entry.

    Row x of the conjugate is row x ^ mask with its columns XOR-ed by mask; the row
    lengths, then the sorted indices and data must match (a non-canonical matrix can only fail).
    """
    rows = np.arange(matrix.shape[0]) ^ mask
    lengths = np.diff(matrix.indptr)
    if not np.array_equal(lengths[rows], lengths):
        return False
    conj = matrix[rows]
    conj = sp.csr_matrix((conj.data, conj.indices ^ mask, conj.indptr), shape=matrix.shape)
    conj.sort_indices()
    return np.array_equal(conj.indices, matrix.indices) and np.array_equal(conj.data, matrix.data)


def build_perturbation(lat, kind, lam, seed=0):
    """One of the four perturbation kinds, scaled by lam.

    Symmetry is verified at build time by _commutes on the unit-strength
    operator, so that lam = 0 passes too, and the sublattice toggles that hold
    are recorded: a sym_ kind must commute with both exactly, a break_ kind must not.
    """
    _check_finite(lam=lam)
    cfgs = cfgmod.config_range(lat.n_sites)

    if kind == "sym_transverse":
        matrix = move_graph(lat, constrained=False)
    elif kind in PERTURBATION_KINDS:
        diag = np.zeros(len(cfgs), dtype=np.float64)
        if kind == "break_longitudinal_random":
            rng = np.random.default_rng(seed)
            signs = rng.choice(np.array([-1.0, 1.0]), size=lat.n_sites)
            for i in range(lat.n_sites):
                diag += signs[i] * _z_values(cfgs, i)
        else:
            # next-nearest (diagonal) pairs stay on one sublattice, nearest
            # pairs join A to B; two pairs per site either way
            offsets = ((1, 1), (1, -1)) if kind == "sym_zz_nnn" else ((1, 0), (0, 1))
            for i in range(lat.n_sites):
                x, y = lat.site_xy(i)
                for dx, dy in offsets:
                    j = lat.site_index(x + dx, y + dy)
                    diag += _z_values(cfgs, i) * _z_values(cfgs, j)
        matrix = sp.diags(diag, format="csr")
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    toggles = tuple(m for m in (lat.mask_a, lat.mask_b) if _commutes(matrix, m))
    if (len(toggles) == 2) != kind.startswith("sym_"):
        raise AssertionError(
            f"perturbation {kind} symmetry check failed ({len(toggles)} of 2 toggles commute)"
        )
    matrix.data *= lam  # after the check, which a zero operator would fail
    return SparseOperator(matrix=matrix, toggles=toggles)


# ---------------------------------------------------------------------------
# propagator


def _check_tol(tol):
    if not 1e-12 <= tol < np.inf:  # also rejects nan
        raise ValueError("tol must be finite and >= 1e-12")


def _check_state(psi):
    if not np.all(np.isfinite(psi)):
        raise ValueError("state amplitudes must be finite")


def _closed_support(H, psi):
    """psi's support S and the dense H[S][:, S], when H maps span(S) into itself.

    Returns None when |S| exceeds _EXACT_SUPPORT or a nonzero entry of the
    rows H[S] lies outside the columns S.  Stored zeros do not couple.
    """
    S = np.flatnonzero(psi)
    if len(S) > _EXACT_SUPPORT:
        return None
    rows = H[S]
    if np.any(rows.data[~np.isin(rows.indices, S)]):
        return None
    return S, rows[:, S].toarray()


class _Sectors:
    """An operator in the symmetry-adapted basis of XOR toggles it commutes with.

    The toggles generate a group G of XOR masks g_s, s a bit pattern over an
    independent subset of them.  XOR acts freely, so every configuration is
    x = r ^ g_s for exactly one orbit representative r (the orbit minimum)
    and one s.  Sector q has the orthonormal states
    |r; q> = |G|^(-1/2) sum_s chi_q(s) |r ^ g_s>, chi_q(s) = (-1)^popcount(q & s),
    and H, which commutes with G, maps each sector to itself with
    <r'; q|H|r; q> = sum_s chi_q(s) H[r', r ^ g_s]: H's row r' with every
    entry moved to its column's representative and signed by chi_q.  With no
    toggles there is one sector, and it is H itself.
    """

    def __init__(self, H, toggles):
        group = [0]
        for mask in toggles:
            if mask not in group:
                group += [g ^ mask for g in group]
        s = np.arange(len(group))
        self.chars = 1.0 - 2.0 * (np.bitwise_count(s[:, None] & s) & 1)
        configs = np.arange(H.shape[0])
        images = configs ^ np.array(group)[:, None]
        self.element = images.argmin(axis=0)   # x = rep(x) ^ g_element(x)
        rep = images[self.element, configs]
        self.reps = np.flatnonzero(rep == configs)
        self.index = np.searchsorted(self.reps, rep)   # position of rep(x) in reps
        self.orbits = images[:, self.reps]             # r ^ g_s, shape (|G|, len(reps))
        self.diagonal = H.diagonal()[self.reps]
        self.rows = H[self.reps]
        self.col_element = self.element[self.rows.indices]

    def block(self, q):
        """Sector q's block of H."""
        return self._on_reps(self.rows.data * self.chars[q, self.col_element])

    def abs_offdiagonal(self):
        """The trivial sector's block of |O|, O the off-diagonal part of H."""
        owner = np.repeat(self.reps, np.diff(self.rows.indptr))
        return self._on_reps(np.where(self.rows.indices == owner, 0.0, np.abs(self.rows.data)))

    def _on_reps(self, data):
        # columns come out unsorted and possibly repeated, which a mat-vec sums
        n = len(self.reps)
        cols = self.index[self.rows.indices]
        return sp.csr_matrix((data, cols, self.rows.indptr), shape=(n, n))


def _walsh(a):
    """sum_s chi_q(s) a[s] for every q, over axis 0 of length 2^k, as +- sums."""
    h = 1
    while h < len(a):
        b = a.reshape(len(a) // (2 * h), 2, h, -1)
        a = np.stack((b[:, 0] + b[:, 1], b[:, 0] - b[:, 1]), axis=1).reshape(a.shape)
        h *= 2
    return a


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
    from scipy.special import gammaln

    xmax = max(float(np.abs(x).max()), 1.0)
    orders = 3.0 * xmax + 100.0
    if not orders * len(x) <= _BESSEL_BUDGET:
        raise ValueError(f"a*t = {xmax:.6g} needs up to {orders:.6g} orders x {len(x)} times, "
                         f"outside the Bessel table's budget of {_BESSEL_BUDGET} entries")
    ks = np.arange(int(np.ceil(xmax)), int(3 * xmax) + 100)
    log_rest = np.log(4.0) + ks * np.log(xmax / 2.0) - gammaln(ks + 1.0)
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
    probe_dim: int         # size of the closed support on the exact path; 0 on the recursion
    error_bound: float     # a-priori 2-norm error bound at every time; 0.0 on the exact path
    half_width: float      # half-width of the recursion's interval; 0.0 on the exact path
    rows_per_order: int    # sector dimension x real parts, summed over the recursions run


def _propagate(op, psi0, times, tol, rows):
    """exp(-i H t_j) psi0 at every t_j in times, on the basis indices rows.

    Returns the amplitudes, shape (len(times), len(rows)), and the
    PropagatorCounters.
    """
    H = op.matrix
    if np.iscomplexobj(H):
        raise ValueError("the propagator needs a real symmetric operator")
    times = np.asarray(times, dtype=float)

    closed = _closed_support(H, psi0)
    if closed is not None:
        S, block = closed
        evals, evecs = np.linalg.eigh(block)
        y = (np.exp(-1j * np.outer(times, evals)) * (evecs.T @ psi0[S])) @ evecs.T
        hit = np.isin(rows, S)
        values = np.zeros((len(times), len(rows)), dtype=complex)
        values[:, hit] = y[:, np.searchsorted(S, rows[hit])]
        return values, PropagatorCounters(0, len(S), 0.0, 0.0, 0)

    norm = float(np.linalg.norm(psi0))
    sectors = _Sectors(H, op.toggles)
    c, a = _spectral_interval(sectors)
    coef, bound = _chebyshev_coefficients(a * times, tol / norm)
    need, pos = np.unique(sectors.index[rows], return_inverse=True)  # sector rows recorded
    amps = _walsh(psi0[sectors.orbits])  # |G|^(1/2) times the sector components
    recorded = np.zeros((len(amps), len(times), len(need)), dtype=complex)
    rows_per_order = 0
    for q, v in enumerate(amps):
        if not np.any(v):
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
        rows_per_order += len(v) * len(parts)
        for k, vs in enumerate(_chebyshev_terms(sectors.block(q), c, a, parts, len(coef))):
            for phase, u in zip((1.0, 1j), vs):
                recorded[q] += np.outer(phase * coef[k], u[need])
        recorded[q] *= scale / np.conj(z)
    values = _walsh(recorded)[sectors.element[rows], :, pos].T / len(amps)
    values *= np.exp(-1j * c * times)[:, None]
    return values, PropagatorCounters(len(coef), 0, norm * bound, a, rows_per_order)


def evolve(state, op, t, tol=1e-10):
    """exp(-i H t)|state> for real symmetric H and finite t.

    Negative t evolves backward.  tol bounds the 2-norm error of the
    result; t = NaN or +-inf, a non-finite amplitude, or an a|t| past the
    Bessel table's budget (_chebyshev_coefficients) raises ValueError.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_tol(tol)
    psi = np.array(state, dtype=complex, copy=True)
    _check_state(psi)
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
    error of the state at every grid point.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty list")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase strictly")
    _check_tol(tol)
    psi0 = logical_state(block, DEFAULT_PROBE) if initial is None else initial
    _check_state(psi0)
    members = np.array(block.members)
    rows = np.union1d(members, np.flatnonzero(psi0))
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
