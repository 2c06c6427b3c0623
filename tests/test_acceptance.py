"""Acceptance suite: one test per criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s or on failure) and
asserts the criterion exactly as stated.  Criterion 7 runs on the CZ_p
model at strong coupling (heff plus the plaquette energy) and compares the
coherence each run loses by t = 50: the symmetry-breaking run must lose at
least ten times what the symmetric transverse run loses.  The test writes
both curves to a temporary directory; the copies under artifacts/ are the
archived seed-7 curves.
"""

import csv
import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fragmenta import config as cm
from fragmenta import dynamics as dyn
from fragmenta import encoding as enc
from fragmenta import selftest as st
from fragmenta.cli import main
from fragmenta.lattice import build_lattice

SEED = 7
CURVE_HEADER = ("t", "reX", "imX", "population", "fidelity")


@pytest.fixture(scope="module")
def lat():
    return build_lattice(4)


@pytest.fixture(scope="module")
def blocks(lat):
    return enc.enumerate_blocks(lat)


@pytest.fixture(scope="module")
def heff(lat):
    return dyn.build_heff(lat, h=1.0)


def _report(result):
    line = f"criterion {result.number} ({result.name}): " + (
        "PASS" if result.passed else "FAIL"
    )
    print(line)
    return result


def test_criterion_1_frozen_count(lat):
    r = _report(st.criterion_frozen_count(lat))
    assert r.passed, r.details


def test_criterion_2_syndrome_conservation(lat):
    r = _report(st.criterion_syndrome_conservation(lat, SEED))
    assert r.details["samples"] >= 10_000
    assert r.passed, r.details


def test_criterion_3_stationarity(heff, blocks):
    r = _report(st.criterion_stationarity(heff, blocks))
    assert r.passed, r.details


def test_criterion_4_pauli_algebra(lat, blocks):
    r = _report(st.criterion_pauli_algebra(lat, blocks))
    assert r.details["blocks"] == 14
    assert r.details["logical_qubits"] == 28
    assert r.passed, r.details


def test_criterion_5_gates(lat, blocks):
    r = _report(st.criterion_gates(lat, blocks, SEED))
    assert r.passed, r.details


def test_criterion_6_error_detection(lat, blocks):
    r = _report(st.criterion_error_detection(lat, blocks))
    assert r.details["x_failures"] == 0
    assert r.details["z_failures"] == 0
    assert r.passed, r.details


def _write_curve(path, curve):
    with open(path, "w") as fh:
        fh.write(",".join(CURVE_HEADER) + "\n")
        for row in curve:
            fh.write(",".join(repr(v) for v in row) + "\n")


def _read_curve(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CURVE_HEADER
    return [[float(v) for v in row] for row in rows[1:]]


@pytest.fixture(scope="module")
def contrast(lat, blocks):
    return st.criterion_coherence_contrast(lat, blocks, SEED)


def test_criterion_7_coherence_contrast(contrast, tmp_path):
    """The breaking run loses at least ten times the symmetric run's coherence.

    Both curves are written under tmp_path and must read back exactly as
    the criterion's details report them.
    """
    r = contrast
    for name, key in (("sym_transverse", "curve_sym"),
                      ("break_longitudinal", "curve_break")):
        path = tmp_path / f"coherence_contrast_{name}.csv"
        _write_curve(path, r.details[key])
        assert _read_curve(path) == r.details[key]
    _report(r)
    d = r.details
    assert r.passed, (
        f"coherence lost by t={d['t_final']} (J={d['J']}): "
        f"sym_transverse = {d['loss_sym_transverse']:.6f}, "
        f"break_longitudinal_random = {d['loss_break_longitudinal']:.6f} "
        f"(dE = {d['break_delta_e']:.6f}), "
        f"ratio = {d['loss_ratio']:.4f} < required {st.CONTRAST_FACTOR}"
    )


def test_criterion_7_symmetric_loss_is_leakage(lat, blocks, contrast):
    # the probe is even under the A toggle, which a sym_ H conserves, so
    # c00 = c10 and c01 = c11 at every time: |<X_A> + i<Y_A>| is the block
    # population, and the symmetric run's loss 1 - |<X_A>| is leakage only
    t, re_x, im_x, population, _ = np.array(contrast.details["curve_sym"]).T
    assert np.abs(np.hypot(re_x, im_x) - population).max() <= 1e-12
    assert np.abs(np.abs(re_x) - population).max() <= 1e-12
    op = st.contrast_base(lat) + dyn.build_perturbation(lat, "sym_zz_nnn", st.CONTRAST_LAMBDA)
    series = dyn.coherence_experiment(blocks[0], op, t)
    assert np.abs(np.abs(series.coherence("A")) - series.population).max() <= 1e-12
    # the diagonal breaking field keeps the block populated and turns the
    # phase: its loss in |<X_A>| is a logical error, not leakage
    _, re_x, _, population, _ = np.array(contrast.details["curve_break"]).T
    assert np.abs(population - 1.0).max() <= 1e-12
    assert np.abs(np.abs(re_x) - population).max() > 0.5


def test_contrast_symmetric_run_against_expm_multiply(lat, heff, blocks):
    # independent oracle: the plaquette energy built by hand from the CZ
    # signs, propagated by scipy's scaling-and-squaring Taylor method
    pert = dyn.build_perturbation(lat, "sym_transverse", st.CONTRAST_LAMBDA,
                                  seed=SEED)
    op_sym = st.contrast_base(lat) + pert
    cfgs = np.arange(1 << lat.n_sites, dtype=np.uint32)
    plaquette = -st.CONTRAST_J * cm.cz_signs(cfgs, lat).sum(axis=1)
    reference_op = heff.matrix + pert.matrix + sp.diags(plaquette)
    assert abs(op_sym.matrix - reference_op).max() == 0.0

    psi0 = enc.logical_state(blocks[0], dyn.DEFAULT_PROBE)
    series = dyn.coherence_experiment(blocks[0], op_sym, [0.0, 2.0], tol=1e-10)
    mine = dyn.evolve(psi0, op_sym, 2.0, tol=1e-10)
    reference = expm_multiply(-2.0j * reference_op.astype(complex), psi0)
    assert np.linalg.norm(mine - reference) <= 1e-9
    tom = enc.logical_tomography(reference, blocks[0])
    assert abs(series.tomography[-1]["X_A"] - tom["X_A"]) <= 1e-9
    assert abs(series.population[-1] - tom["population"]) <= 1e-9


def test_criterion_8_quadflip():
    r = _report(st.criterion_quadflip())
    assert r.passed, r.details


def test_criterion_9_determinism(tmp_path, capsys):
    first = tmp_path / "selftest_run1.json"
    second = tmp_path / "selftest_run2.json"
    code1 = main(["selftest", "--seed", str(SEED), "--out", str(first)])
    code2 = main(["selftest", "--seed", str(SEED), "--out", str(second)])
    bytes1 = first.read_bytes()
    bytes2 = second.read_bytes()
    identical = bytes1 == bytes2
    print(f"criterion 9 (determinism): {'PASS' if identical else 'FAIL'}")
    assert identical, "selftest --seed 7 produced different bytes across runs"
    # both runs agree on the verdicts; the exit code reflects all_passed
    report = json.loads(bytes1)
    verdicts = {c["criterion"]: c["passed"] for c in report["criteria"]}
    assert code1 == code2
    assert (code1 == 0) == report["all_passed"]
    assert verdicts[9] is True
