"""Fixtures shared by the test modules, built once per module that asks for them.

tests/test_quadflip.py defines its own `lat`, the clock lattice, which
overrides the plaquette lattice here.
"""

import pytest

from fragmenta import dynamics as dyn
from fragmenta import encoding as enc
from fragmenta.lattice import build_lattice


@pytest.fixture(scope="module")
def lat():
    return build_lattice(4)


@pytest.fixture(scope="module")
def blocks(lat):
    return enc.enumerate_blocks(lat)


@pytest.fixture(scope="module")
def heff(lat):
    return dyn.build_heff(lat, h=1.0)
