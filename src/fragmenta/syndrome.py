"""Plaquette-stabilizer syndrome extraction and single-Pauli error probes.

The stabilizer of plaquette p is minus the product of the four corner Z's;
it reads +1 exactly when a single domain wall crosses the plaquette, which
is the uniform value on every code state.  An X error flips one corner bit
of the four plaquettes containing the site and is detected as four -1
defects.  Z errors are diagonal, commute with every stabilizer and are
therefore invisible to the syndrome, yet a Z on the toggled sublattice
flips the sign of the logical X coherence: detectable asymmetry in one
direction only, which is what rules this encoding out as an error
correcting code.

inject_pauli acts on the view state.reshape(-1, 2, 2**site), whose middle
axis is the bit of the hit site, so it builds no index array over the full
space.
"""

from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from .encoding import DEFAULT_PROBE, logical_state, logical_tomography


@dataclass(frozen=True)
class SyndromeResult:
    uniform: bool
    signs: tuple | None          # per-plaquette +-1 when uniform
    expectations: tuple          # per-plaquette <Z_p> (floats)

    @property
    def defect_count(self):
        """Number of plaquettes away from the code-space value +1."""
        if not self.uniform:
            raise ValueError("defect count undefined for mixed-syndrome states")
        return sum(1 for s in self.signs if s != 1)


def extract_syndrome(state_or_cfg, lat, tol=1e-12):
    """Stabilizer signs of a configuration or of a dense state vector.

    A state vector must have every basis state in its support share one
    stabilizer pattern (true for code states and their X/Z-error
    descendants); otherwise the per-plaquette expectation values are
    returned with uniform=False rather than silently averaged.
    """
    if isinstance(state_or_cfg, (int, np.integer)):
        cfg = int(state_or_cfg)
        if not 0 <= cfg < 1 << lat.n_sites:
            raise ValueError(f"configuration {cfg} is outside [0, 2**{lat.n_sites})")
        signs = cfgmod.stabilizer_signs(np.array([cfg], dtype=np.uint64), lat)[0]
        return SyndromeResult(
            uniform=True,
            signs=tuple(int(s) for s in signs),
            expectations=tuple(float(s) for s in signs),
        )

    state = np.asarray(state_or_cfg)
    # astype(bool) marks what nonzero() marks, several times faster on complex
    nonzero = np.flatnonzero(state.astype(bool))
    weights = np.abs(state[nonzero]) ** 2
    keep = weights > tol
    support, w = nonzero[keep], weights[keep]
    if len(support) == 0:
        raise ValueError("state has empty support")
    patterns = cfgmod.stabilizer_signs(support.astype(np.uint64), lat)
    first = patterns[0]
    if np.all(patterns == first):
        return SyndromeResult(
            uniform=True,
            signs=tuple(int(s) for s in first),
            expectations=tuple(float(s) for s in first),
        )
    w = w / w.sum()
    expectations = (patterns.astype(np.float64) * w[:, None]).sum(axis=0)
    return SyndromeResult(
        uniform=False,
        signs=None,
        expectations=tuple(float(e) for e in expectations),
    )


def inject_pauli(state, site, pauli):
    """Apply a single-site Pauli to a dense state vector.

    Viewed as state.reshape(-1, 2, 2**site), the middle axis is the bit of
    `site`: X swaps its two halves, Z negates the upper half, and
    Y = i X Z does both in one pass with the factors -i and +i.
    """
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"pauli must be X, Y or Z, got {pauli!r}")
    halves = np.asarray(state).reshape(-1, 2, 1 << site)
    if pauli == "X":
        return halves[:, ::-1].reshape(-1)
    if pauli == "Z":
        out = np.empty(halves.shape, dtype=np.result_type(halves, 1.0))
        out[:, 0] = halves[:, 0]
        np.multiply(halves[:, 1], -1.0, out=out[:, 1])
    else:
        out = np.empty(halves.shape, dtype=np.result_type(halves, 1j))
        np.multiply(halves[:, 1], -1j, out=out[:, 0])
        np.multiply(halves[:, 0], 1j, out=out[:, 1])
    return out.reshape(-1)


@dataclass(frozen=True)
class DetectionReport:
    block_alpha: int
    site: int
    site_sublattice: str
    pauli: str
    syndrome_uniform: bool
    defect_count: int | None
    tomography: dict

    def to_dict(self):
        return {
            "block": self.block_alpha,
            "site": self.site,
            "sublattice": self.site_sublattice,
            "pauli": self.pauli,
            "syndrome_uniform": self.syndrome_uniform,
            "defects": self.defect_count,
            "tomography": self.tomography,
        }


def detection_experiment(block, site, pauli):
    """Inject one Pauli into the logical +X_A probe state and report.

    The probe (|alpha;00> + |alpha;10>)/sqrt(2) has logical <X_A> = +1.
    Contract: X errors produce syndrome defects (4 at any site); Z errors
    produce none, flip <X_A> to -1 when on sublattice A and leave it
    untouched on sublattice B.
    """
    lat = block.lattice
    state = logical_state(block, DEFAULT_PROBE)
    hit = inject_pauli(state, site, pauli)
    syn = extract_syndrome(hit, lat)
    tom = logical_tomography(hit, block)
    sub = "A" if lat.sublattice[site] == 0 else "B"
    return DetectionReport(
        block_alpha=block.alpha,
        site=site,
        site_sublattice=sub,
        pauli=pauli,
        syndrome_uniform=syn.uniform,
        defect_count=syn.defect_count if syn.uniform else None,
        tomography=tom,
    )
