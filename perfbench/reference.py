"""Independent references for the benchmark's correctness checks.

Nothing here imports fragmenta.  The lattice tables, the Hamiltonians and
the sector search are rebuilt from the model's definitions, and time
evolution uses scipy's `expm_multiply`, so the references stay independent
of the code they check.

A coherence series is checked through the block propagator
M[t, k, j] = <m_k| exp(-i H t) |m_j> over the four block members: any
logical state c evolves to in-block amplitudes M(t) @ c, so one propagator
covers every seeded initial state of that block.  Propagators are cached as
.npy files keyed by a hash of (spec, members, grid).  `refdata/` holds the
committed ones for the full-space runs (about 30 s each to compute);
anything missing is computed on demand into `.refcache/`.

Run as a script to fill the cache with the requests (a JSON list) read
from standard input; `--commit` writes into `refdata/` instead:

    python3 perfbench/reference.py [--commit] < requests.json
"""

import hashlib
import json
import os
import sys

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import expm_multiply

HERE = os.path.dirname(os.path.abspath(__file__))
REFDATA = os.path.join(HERE, "refdata")
REFCACHE = os.path.join(HERE, ".refcache")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# two-qubit observables over the member order (sigma_A, sigma_B) lexicographic
OBSERVABLES = {
    "X_A": ("X", "I"), "Y_A": ("Y", "I"), "Z_A": ("Z", "I"),
    "X_B": ("I", "X"), "Y_B": ("I", "Y"), "Z_B": ("I", "Z"),
    "ZZ": ("Z", "Z"), "XX": ("X", "X"), "ZX": ("Z", "X"), "XZ": ("X", "Z"),
}


# ---------------------------------------------------------------------------
# model, rebuilt from its definition


def site(L, x, y):
    return (y % L) * L + (x % L)


def neighbors(L):
    """Per site: the four nearest neighbors."""
    return [
        (site(L, x + 1, y), site(L, x - 1, y), site(L, x, y + 1), site(L, x, y - 1))
        for y in range(L) for x in range(L)
    ]


def plaquettes(L):
    """Per plaquette: its four corners in cyclic (edge-sharing) order."""
    return [
        (site(L, x, y), site(L, x + 1, y), site(L, x + 1, y + 1), site(L, x, y + 1))
        for y in range(L) for x in range(L)
    ]


def _bits(cfgs, i):
    return (cfgs >> i) & 1


def _z(cfgs, i):
    return 1.0 - 2.0 * _bits(cfgs, i)


def flippable(cfgs, L, i):
    """Site i may flip when its four neighbors carry equal bits."""
    b = [_bits(cfgs, j) for j in neighbors(L)[i]]
    return (b[0] == b[1]) & (b[1] == b[2]) & (b[2] == b[3])


def cz_product(cfgs, L):
    """Sum over plaquettes of the CZ eigenvalue (-1)^(edges with both ends 1)."""
    total = np.zeros(cfgs.shape, dtype=np.float64)
    for corners in plaquettes(L):
        edges = sum(
            _bits(cfgs, corners[k]) & _bits(cfgs, corners[(k + 1) % 4]) for k in range(4)
        )
        total += 1.0 - 2.0 * (edges & 1)
    return total


def hamiltonian(spec):
    """Sparse H over the packed 2^(L^2) basis for a run's spec dict."""
    L = spec["L"]
    n = L * L
    dim = 1 << n
    cfgs = np.arange(dim, dtype=np.int64)
    rows, cols, vals = [], [], []
    diag = np.zeros(dim)

    def hop(mask, amplitude, i):
        src = cfgs[mask]
        rows.append(src)
        cols.append(src ^ (1 << i))
        vals.append(np.full(len(src), amplitude))

    h = spec["h"]
    everywhere = np.ones(dim, dtype=bool)
    for i in range(n):
        if spec["model"] == "heff":
            hop(flippable(cfgs, L, i), -h, i)
        elif spec["model"] == "hczp":
            hop(everywhere, -h, i)
        else:
            raise ValueError(f"unknown model {spec['model']!r}")
    if spec["model"] == "hczp":
        diag -= spec["J"] * cz_product(cfgs, L)

    kind, lam = spec.get("perturbation"), spec.get("lam", 0.0)
    if kind == "sym_transverse":
        for i in range(n):
            hop(everywhere, lam, i)
    elif kind in ("sym_zz_nnn", "break_zz_nn"):
        offsets = ((1, 1), (1, -1)) if kind == "sym_zz_nnn" else ((1, 0), (0, 1))
        for y in range(L):
            for x in range(L):
                for dx, dy in offsets:
                    diag += lam * _z(cfgs, site(L, x, y)) * _z(cfgs, site(L, x + dx, y + dy))
    elif kind == "break_longitudinal_random":
        # the sign convention of the seeded field is part of the input definition
        signs = np.random.default_rng(spec["seed"]).choice(np.array([-1.0, 1.0]), size=n)
        for i in range(n):
            diag += lam * signs[i] * _z(cfgs, i)
    elif kind is not None:
        raise ValueError(f"unknown perturbation {kind!r}")

    rows.append(cfgs)
    cols.append(cfgs)
    vals.append(diag)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def block_propagator(H, members, t_stop, num):
    """M[t, k, j] = <m_k| exp(-i H t) |m_j> on linspace(0, t_stop, num).

    Evolution is restricted to the states reachable from the members through
    nonzero elements of H, which is exact and keeps diagonal runs tiny.
    """
    reach = set()
    for m in members:
        reach.update(breadth_first_order(H, m, directed=False, return_predecessors=False).tolist())
    sub = np.array(sorted(reach), dtype=np.int64)
    Hs = H[sub][:, sub].astype(complex)
    pos = np.searchsorted(sub, members)
    B = np.zeros((len(sub), len(members)), dtype=complex)
    B[pos, np.arange(len(members))] = 1.0
    R = expm_multiply(-1j * Hs, B, start=0.0, stop=t_stop, num=num, endpoint=True)
    return np.ascontiguousarray(R[:, pos, :])


def sector(cfg, L, cap):
    """(min member, size) of cfg's component under legal flips; None above cap."""
    nbrs = neighbors(L)
    seen = {cfg}
    stack = [cfg]
    while stack:
        c = stack.pop()
        for i, (j0, j1, j2, j3) in enumerate(nbrs):
            b = (c >> j0) & 1
            if b == (c >> j1) & 1 == (c >> j2) & 1 == (c >> j3) & 1:
                nxt = c ^ (1 << i)
                if nxt not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(nxt)
                    stack.append(nxt)
    return min(seen), len(seen)


# ---------------------------------------------------------------------------
# observables and cache


def tomography(amps, c0):
    """Reference observables for in-block amplitudes (T, 4) and initial c0."""
    out = {"population": np.einsum("tk,tk->t", amps.conj(), amps).real}
    for key, (ka, kb) in OBSERVABLES.items():
        m = np.kron(PAULI[ka], PAULI[kb])
        out[key] = np.einsum("tk,kl,tl->t", amps.conj(), m, amps).real
    out["fidelity"] = np.abs(amps @ c0.conj())
    return out


def request_key(req):
    text = json.dumps(req, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cached(req):
    """The cached propagator for a request, or None."""
    key = request_key(req)
    for folder in (REFDATA, REFCACHE):
        path = os.path.join(folder, key + ".npy")
        if os.path.exists(path):
            return np.load(path)
    return None


def main(argv):
    folder = REFDATA if argv == ["--commit"] else REFCACHE
    os.makedirs(folder, exist_ok=True)
    hamiltonians = {}
    for req in json.load(sys.stdin):
        if cached(req) is not None:
            continue
        spec_key = json.dumps(req["spec"], sort_keys=True)
        if spec_key not in hamiltonians:
            hamiltonians[spec_key] = hamiltonian(req["spec"])
        M = block_propagator(hamiltonians[spec_key], req["members"], req["t_stop"], req["num"])
        path = os.path.join(folder, request_key(req) + ".npy")
        tmp = path + ".tmp.npy"
        np.save(tmp, M)
        os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
