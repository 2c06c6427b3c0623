"""Sparse Hamiltonians and exact time evolution of logical superpositions.

Hamiltonians are assembled as scipy CSR matrices over the 2^(L^2) packed
basis (the packed configuration is the basis index).  The constrained model
has off-diagonal -h entries exactly between configuration pairs related by
a legal flip and annihilates every code state, row and column alike.  The
unconstrained plaquette model adds the diagonal -J * sum_p CZ_p and couples
all single-flip pairs.

Perturbations come in two symmetric kinds (commute with both sublattice
toggles exactly; verified at construction) and two symmetry-breaking kinds
(longitudinal random-sign fields and nearest-neighbor ZZ).  Random signs
are used for the breaking default because a uniform field can have a
vanishing first-order effect on sublattice-balanced code states.

The CZ_p model at strong coupling (build_czp_strong) is heff plus the
plaquette energy: a flip that creates wall crossings costs at least 2J.

Time evolution takes one of two paths, both for real symmetric H only.  A
short Lanczos probe (at most _PROBE_DIM vectors, full reorthogonalization)
first tests whether the Krylov space of the initial state closes; if it
does, the state is propagated exactly in that subspace for every time at
once.  Otherwise exp(-iHt) is expanded in Chebyshev polynomials (Tal-Ezer
and Kosloff 1984),

    exp(-iHt) psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(at) T_k((H-c)/a) psi,

with centre c and half-width a of an interval that provably holds the
spectrum: Collatz-Wielandt bounds on +-D + |O|, D and O the diagonal and
off-diagonal parts of H, taken with a shift that keeps the diagonal at
least 1 (so rows with no off-diagonal entry stay finite) and clipped to
Gershgorin's interval.  The Bessel tail below is computed on that a.

The three-term recursion runs on the real and imaginary parts of psi
separately, so each order costs one real mat-vec per part, and one
recursion serves a whole time grid.  Its order is the smallest K whose
Bessel tail |psi| sum_{k>=K} 2|J_k(at)| is at most tol at every requested
time, so tol bounds the global 2-norm error at each time, not a
per-step local error.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from . import config as cfgmod
from .encoding import DEFAULT_PROBE, logical_state, logical_tomography
from .fragmentation import move_graph

PERTURBATION_KINDS = (
    "sym_transverse",
    "sym_zz_nnn",
    "break_longitudinal_random",
    "break_zz_nn",
)

_PROBE_DIM = 6           # Lanczos vectors the invariant-subspace probe may build
_BREAKDOWN_TOL = 1e-13   # happy breakdown: residual below this times max(1, |alpha|)
_POWER_STEPS = 30        # power steps behind each Collatz-Wielandt bound
_ROUNDING_PAD = 2.0 ** -40  # relative widening of each bound, for rounding


@dataclass(frozen=True)
class SparseOperator:
    """CSR operator on the packed basis."""

    matrix: sp.csr_matrix

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def apply(self, vec):
        return self.matrix @ vec

    def __add__(self, other):
        return SparseOperator(matrix=(self.matrix + other.matrix).tocsr())


def _single_flips(lat, cfgs, value):
    """COO parts (data, rows, cols) of value * sum_i X_i, one block per site."""
    n = lat.n_sites
    data = [np.full(len(cfgs), value, dtype=np.float64)] * n
    rows = [cfgs.astype(np.int64)] * n
    cols = [(cfgs ^ np.uint32(1 << i)).astype(np.int64) for i in range(n)]
    return data, rows, cols


def _csr(data, rows, cols, dim):
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def build_heff(lat, h=1.0):
    """Constrained flip model: -h between pairs related by a legal flip."""
    matrix = move_graph(lat)
    matrix.data *= -h  # in place: a scaled copy (-h * graph) doubled later page faults
    return SparseOperator(matrix=matrix)


def _plaquette_energy(lat, cfgs, J):
    """Diagonal of -J sum_p CZ_p over cfgs."""
    return -J * cfgmod.cz_signs(cfgs, lat).sum(axis=1).astype(np.float64)


def build_hczp(lat, J=1.0, h=1.0):
    """Unconstrained plaquette model: -J sum_p CZ_p - h sum_i X_i."""
    cfgs = cfgmod.config_range(lat.n_sites)
    dim = len(cfgs)
    diag = _plaquette_energy(lat, cfgs, J)
    data, rows, cols = _single_flips(lat, cfgs, -h)
    idx = np.arange(dim, dtype=np.int64)
    return SparseOperator(matrix=_csr([diag] + data, [idx] + rows, [idx] + cols, dim))


def build_czp_strong(lat, J=1.0, h=1.0):
    """CZ_p model at strong coupling: heff's flips plus -J sum_p CZ_p."""
    energy = _plaquette_energy(lat, cfgmod.config_range(lat.n_sites), J)
    return build_heff(lat, h=h) + SparseOperator(matrix=_diagonal_operator(energy))


def _z_values(cfgs, site):
    return 1.0 - 2.0 * ((cfgs >> np.uint32(site)) & np.uint32(1)).astype(np.float64)


def _diagonal_operator(diag):
    idx = np.arange(len(diag), dtype=np.int64)
    return _csr([diag], [idx], [idx], len(diag))


def _conjugate_by_xor(matrix, xor_mask, dim):
    coo = matrix.tocoo()
    rows = coo.row ^ xor_mask
    cols = coo.col ^ xor_mask
    return sp.csr_matrix((coo.data, (rows, cols)), shape=(dim, dim))


def _commutes_with_toggle(matrix, xor_mask, dim):
    diff = matrix - _conjugate_by_xor(matrix, xor_mask, dim)
    diff.eliminate_zeros()
    return diff.nnz == 0


def build_perturbation(lat, kind, lam, seed=0):
    """One of the four perturbation kinds, scaled by lam.

    Symmetry is verified at build time, on the unit-strength operator so
    that lam = 0 passes too: the sym_ kinds must commute with both
    sublattice toggles exactly, the break_ kinds must not.
    """
    cfgs = cfgmod.config_range(lat.n_sites)
    dim = len(cfgs)

    if kind == "sym_transverse":
        matrix = _csr(*_single_flips(lat, cfgs, 1.0), dim)
    elif kind in PERTURBATION_KINDS:
        diag = np.zeros(dim, dtype=np.float64)
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
        matrix = _diagonal_operator(diag)
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    symmetric = _commutes_with_toggle(matrix, lat.mask_a, dim) and \
        _commutes_with_toggle(matrix, lat.mask_b, dim)
    expected = kind.startswith("sym_")
    if symmetric != expected:
        raise AssertionError(
            f"perturbation {kind} symmetry check failed (symmetric={symmetric})"
        )
    matrix.data *= lam  # after the check, which a zero operator would fail
    return SparseOperator(matrix=matrix)


# ---------------------------------------------------------------------------
# propagator


def _check_tol(tol):
    if not 1e-12 <= tol < np.inf:  # also rejects nan
        raise ValueError("tol must be finite and >= 1e-12")


def _krylov_probe(H, psi):
    """Lanczos from psi, at most _PROBE_DIM vectors, full reorthogonalization.

    Returns (basis, evals, evecs, residual) when the Krylov space closes
    (happy breakdown): basis is a list of orthonormal vectors, evals/evecs
    diagonalize the tridiagonal projection, residual is the coupling out of
    the space.  Returns None when it does not close within _PROBE_DIM vectors.
    """
    real = not np.any(psi.imag)
    v = psi.real if real else psi
    basis = [v / np.linalg.norm(v)]
    alphas, betas = [], []
    for j in range(_PROBE_DIM):
        u = basis[j]
        w = H @ u if real else H @ u.real + 1j * (H @ u.imag)
        alpha = float(np.vdot(u, w).real)
        alphas.append(alpha)
        for _ in range(2):  # modified Gram-Schmidt, twice
            for b in basis:
                w -= np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        if beta < _BREAKDOWN_TOL * max(1.0, abs(alpha)):
            evals, evecs = eigh_tridiagonal(alphas, betas)
            return basis, evals, evecs, beta
        betas.append(beta)
        basis.append(w / beta)
    return None


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


def _spectral_interval(H):
    """Centre c and half-width a of an interval that holds spec(H).

    With H = D + O split into its diagonal and off-diagonal parts,
    x^T O x <= |x|^T |O| |x| gives lambda_max(H) <= lambda_max(D + |O|),
    and likewise lambda_min(H) >= -lambda_max(-D + |O|); each end comes
    from _collatz_wielandt_max and is clipped to the Gershgorin end, whose
    radii are the row sums of the same |O|, so the interval is never wider
    than Gershgorin's.
    """
    d = H.diagonal()
    absO = abs(H)
    absO.setdiag(0.0)
    absO.eliminate_zeros()
    radius = np.asarray(absO.sum(axis=1)).ravel()
    lo = -_collatz_wielandt_max(absO, -d)
    hi = _collatz_wielandt_max(absO, d)
    lo = max(lo, float(np.min(d - radius)))
    hi = min(hi, float(np.max(d + radius)))
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _chebyshev_coefficients(x, tol):
    """Coefficients (2 - delta_k0) (-i)^k J_k(x_j) for k < K, shape (K, len(x)).

    K is the smallest order whose Bessel tail sum_{k>=K} 2|J_k(x_j)| is at
    most tol at every x_j; that tail is returned as the bound reached.
    Orders from kmax on are bounded by 4 (|x|/2)^kmax / kmax!, which holds
    for kmax >= |x| and is kept below tol / 1e6.
    """
    from scipy.special import gammaln, jv

    xmax = max(float(np.abs(x).max()), 1.0)
    ks = np.arange(int(np.ceil(xmax)), int(3 * xmax) + 100)
    log_rest = np.log(4.0) + ks * np.log(xmax / 2.0) - gammaln(ks + 1.0)
    kmax = int(ks[np.argmax(log_rest < np.log(tol) - 6.0 * np.log(10.0))])
    bessel = jv(np.arange(kmax)[:, None], x[None, :])
    tails = np.zeros(kmax + 1)
    tails[:kmax] = np.cumsum(2.0 * np.abs(bessel[::-1]), axis=0)[::-1].max(axis=1)
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

    chebyshev_order: int   # orders of the Chebyshev recursion; 0 on the probe path
    probe_dim: int         # Lanczos vectors the invariant-subspace probe built
    error_bound: float     # a-priori bound on the 2-norm error at every time
    half_width: float      # half-width of the recursion's interval; 0.0 on the probe path


def _propagate(op, psi0, times, tol, rows=None):
    """exp(-i H t_j) psi0 at every t_j in times, on the basis indices rows.

    Returns the amplitudes, shape (len(times), len(rows)), or the full
    states when rows is None, and the PropagatorCounters.
    """
    H = op.matrix
    if np.iscomplexobj(H):
        raise ValueError("the propagator needs a real symmetric operator")
    times = np.asarray(times, dtype=float)
    sel = slice(None) if rows is None else rows
    width = H.shape[0] if rows is None else len(rows)
    values = np.zeros((len(times), width), dtype=complex)
    norm = float(np.linalg.norm(psi0))
    if norm == 0.0:
        return values, PropagatorCounters(0, 0, 0.0, 0.0)

    probe = _krylov_probe(H, psi0)
    if probe is not None:
        basis, evals, evecs, residual = probe
        y = (np.exp(-1j * np.outer(times, evals)) * evecs[0]) @ evecs.T
        values = norm * (y @ np.array([b[sel] for b in basis]))
        bound = norm * residual * float(np.abs(times).max())
        return values, PropagatorCounters(0, len(evals), bound, 0.0)

    c, a = _spectral_interval(H)
    coef, bound = _chebyshev_coefficients(a * times, tol / norm)
    parts = [psi0.real.copy()]
    if np.any(psi0.imag):
        parts.append(psi0.imag.copy())
    for k, vs in enumerate(_chebyshev_terms(H, c, a, parts, len(coef))):
        for phase, v in zip((1.0, 1j), vs):
            values += np.outer(phase * coef[k], v[sel])
    values *= np.exp(-1j * c * times)[:, None]
    return values, PropagatorCounters(len(coef), _PROBE_DIM, norm * bound, a)


def evolve(state, op, t, tol=1e-10):
    """exp(-i H t)|state> for real symmetric H and any finite t.

    Negative t evolves backward.  tol bounds the 2-norm error of the
    result; t = NaN or +-inf raises ValueError.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_tol(tol)
    psi = np.array(state, dtype=complex, copy=True)
    if t == 0:
        return psi
    values, _ = _propagate(op, psi, [t], tol)
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
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase strictly")
    _check_tol(tol)
    psi0 = logical_state(block, DEFAULT_PROBE) if initial is None else initial
    members = np.array(block.members)
    rows = np.union1d(members, np.flatnonzero(psi0))
    values, counters = _propagate(op, psi0, times, tol, rows)
    values[0] = psi0[rows]  # exact at t = 0, free of the probe's rounding
    fidelity = np.abs(values @ psi0[rows].conj())
    state = np.zeros(block.dimension, dtype=complex)
    tomography = []
    for amps in values[:, np.searchsorted(rows, members)]:
        state[members] = amps
        tomography.append(logical_tomography(state, block))
    return CoherenceSeries(
        times=times,
        tomography=tuple(tomography),
        population=np.array([tom["population"] for tom in tomography]),
        fidelity=fidelity,
        counters=counters,
    )
