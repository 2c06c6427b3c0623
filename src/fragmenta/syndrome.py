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
        signs = cfgmod.stabilizer_signs(
            np.array([state_or_cfg], dtype=np.uint64), lat
        )[0]
        return SyndromeResult(
            uniform=True,
            signs=tuple(int(s) for s in signs),
            expectations=tuple(float(s) for s in signs),
        )

    state = np.asarray(state_or_cfg)
    weights = np.abs(state) ** 2
    support = np.nonzero(weights > tol)[0]
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
    w = weights[support]
    w = w / w.sum()
    expectations = (patterns.astype(np.float64) * w[:, None]).sum(axis=0)
    return SyndromeResult(
        uniform=False,
        signs=None,
        expectations=tuple(float(e) for e in expectations),
    )


def inject_pauli(state, site, pauli):
    """Apply a single-site Pauli to a dense state vector."""
    dim = len(state)
    if pauli == "X":
        idx = np.arange(dim, dtype=np.int64) ^ (1 << site)
        return state[idx]
    if pauli == "Z":
        signs = 1.0 - 2.0 * (((np.arange(dim, dtype=np.int64) >> site) & 1))
        return state * signs
    if pauli == "Y":
        # Y = i X Z
        return 1j * inject_pauli(inject_pauli(state, site, "Z"), site, "X")
    raise ValueError(f"pauli must be X, Y or Z, got {pauli!r}")


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
