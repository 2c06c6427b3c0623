"""Exact desk-scale toolkit for symmetry-protected logical qubits.

The package enumerates frozen configurations of a constrained square-lattice
plaquette model, decomposes the configuration space into Krylov sectors,
builds the two-qubit logical blocks living on symmetry orbits of code
states, applies the transversal gate set, extracts plaquette-stabilizer
syndromes, and measures logical coherence under exact time evolution.  The
quadflip module provides the m-state clock generalization with qudit
sectors.
"""

# The benchmark reads these two at package level; import every other name from its module.
from .lattice import build_lattice
from .encoding import enumerate_blocks

__version__ = "0.1.0"
