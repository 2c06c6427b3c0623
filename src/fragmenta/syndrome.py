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

Errors act on, and syndromes are read from, a support (configs,
amplitudes): the basis states a state occupies and their amplitudes.  A
single-site Pauli maps it to a support of the same length, so the detection
probe, two amplitudes on its block, is hit, read out and tomographed on two
configurations.
"""

from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from .encoding import DEFAULT_PROBE, block_tomography

_DROP_WEIGHT = 1e-12  # a basis state with |c|^2 at most this is left out of the syndrome


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


def extract_syndrome(support, lat):
    """Stabilizer signs of a support (configs, amplitudes).

    Amplitudes with |c|^2 <= _DROP_WEIGHT are dropped.  Every basis state
    left must share one stabilizer pattern (true for code states and their
    X/Z-error descendants); otherwise the per-plaquette expectation values
    are returned with uniform=False rather than silently averaged.
    """
    configs, amplitudes = map(np.asarray, support)
    if configs.dtype.kind not in "iu" or not np.all(np.isfinite(amplitudes)):
        raise ValueError(f"configs must be integers (got {configs.dtype}), amplitudes finite")
    outside = configs[(configs < 0) | (configs >= 1 << lat.n_sites)]
    if len(outside):
        raise ValueError(f"configuration {outside[0]} is outside [0, 2**{lat.n_sites})")
    weights = np.abs(amplitudes) ** 2
    keep = weights > _DROP_WEIGHT
    support, w = configs[keep], weights[keep]
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


def inject_pauli(support, site, pauli):
    """Apply a single-site Pauli to a support (configs, amplitudes).

    X flips the bit of `site`, Z multiplies by -1 where it is set and
    Y = i X Z does both, with the factor +i where the bit was 0 and -i
    where it was 1.  Returns the new (configs, amplitudes).
    """
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"pauli must be X, Y or Z, got {pauli!r}")
    configs, amplitudes = map(np.asarray, support)
    bit = (configs >> site) & 1
    if pauli == "Z":
        return configs, np.where(bit, amplitudes * -1.0, amplitudes)
    flipped = configs ^ (1 << site)
    if pauli == "X":
        return flipped, amplitudes
    return flipped, amplitudes * np.where(bit, -1j, 1j)


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
    if not 0 <= site < lat.n_sites:
        raise ValueError(f"site must lie in [0, {lat.n_sites}), got {site}")
    probe = np.asarray(DEFAULT_PROBE, dtype=complex)
    on = np.flatnonzero(probe)
    hit = inject_pauli((np.array(block.members)[on], probe[on]), site, pauli)
    syn = extract_syndrome(hit, lat)
    amplitude = dict(zip(*(part.tolist() for part in hit)))
    tom = block_tomography([amplitude.get(m, 0) for m in block.members])
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
