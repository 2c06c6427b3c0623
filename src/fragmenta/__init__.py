"""Exact desk-scale toolkit for symmetry-protected logical qubits.

The package enumerates frozen configurations of a constrained square-lattice
plaquette model, decomposes the configuration space into Krylov sectors,
builds the two-qubit logical blocks living on symmetry orbits of code
states, applies the transversal gate set, extracts plaquette-stabilizer
syndromes, and measures logical coherence under exact time evolution.  The
quadflip module provides the m-state clock generalization with qudit
sectors.
"""

from .lattice import Lattice, build_lattice
from .fragmentation import (
    EnumerationReport,
    KrylovSector,
    count_code_states_transfer,
    enumerate_frozen,
    krylov_decompose,
    sector_of,
)
from .encoding import (
    LogicalBlock,
    block_tomography,
    embed_block_operator,
    enumerate_blocks,
    logical_operator,
    logical_state,
    logical_tomography,
    verify_pauli_algebra,
)
from .dynamics import (
    CoherenceSeries,
    SparseOperator,
    build_heff,
    build_czp_strong,
    build_hczp,
    build_perturbation,
    coherence_experiment,
    evolve,
)
from .gates import GateReport, apply_logical_cnot, apply_rx, apply_rz, gate_report, logical_gate
from .syndrome import (
    DetectionReport,
    SyndromeResult,
    detection_experiment,
    extract_syndrome,
    inject_pauli,
)

__version__ = "0.1.0"
