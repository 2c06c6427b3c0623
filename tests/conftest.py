"""Fixtures shared by the test modules, built once per session.

tests/test_quadflip.py defines its own `lat`, the clock lattice, which
overrides the plaquette lattice here.
"""

import pytest

from fragmenta import dynamics as dyn
from fragmenta import encoding as enc
from fragmenta.lattice import build_lattice


@pytest.fixture(scope="session")
def lat():
    return build_lattice(4)


@pytest.fixture(scope="session")
def blocks(lat):
    return enc.enumerate_blocks(lat)


@pytest.fixture(scope="session")
def heff(lat):
    return dyn.build_heff(lat, h=1.0)


@pytest.fixture(scope="session")
def sym_transverse_ops(lat, heff):
    """heff, hczp and czp_strong, each plus sym_transverse at lambda = 0.05."""
    pert = dyn.build_perturbation(lat, "sym_transverse", 0.05)
    return {"heff": heff + pert, "hczp": dyn.build_hczp(lat) + pert,
            "czp_strong": dyn.build_czp_strong(lat) + pert}
