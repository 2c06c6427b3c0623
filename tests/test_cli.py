import json
import time
import tracemalloc
from pathlib import Path

import pytest

from fragmenta import encoding as enc
from fragmenta import selftest
from fragmenta.cli import MAX_STEPS, _jsonable, main
from fragmenta.lattice import build_lattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_frozen_count_json(capsys):
    code, out = run_cli(capsys, "frozen-count", "--L", "4", "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["brute_force"]["count_code_states"] == 56
    assert report["brute_force"]["formula_value"] == 56
    assert report["transfer_matrix"]["count_code_states"] == 56
    assert report["brute_force"]["matches"]["code_states"] is True


def test_frozen_count_transfer_only(capsys):
    code, out = run_cli(capsys, "frozen-count", "--L", "6", "--method", "transfer")
    assert code == 0
    report = json.loads(out)
    assert report["transfer_matrix"]["count_code_states"] == 0
    assert report["transfer_matrix"]["matches"]["code_states"] is False


def test_blocks_json(capsys):
    code, out = run_cli(capsys, "blocks", "--L", "4")
    assert code == 0
    report = json.loads(out)
    assert report["n_blocks"] == 14
    assert report["n_logical_qubits"] == 28
    assert len(report["blocks"]) == 14
    assert report["blocks"][0]["representative"].startswith("4\n")


def test_verify_algebra(capsys):
    code, out = run_cli(capsys, "verify-algebra", "--L", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_residual"] <= 1e-12


def test_gates_demo_lines(capsys):
    code, out = run_cli(capsys, "gates-demo", "--L", "4", "--block", "0",
                        "--gate", "cnot")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 5  # four truth-table rows plus the Bell creation
    for line in lines:
        assert line["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert line["leakage"] == pytest.approx(0.0, abs=1e-12)
    bell = lines[-1]
    assert bell["tomography_out"]["ZZ"] == pytest.approx(1.0, abs=1e-10)
    assert bell["tomography_out"]["XX"] == pytest.approx(1.0, abs=1e-10)


def test_gates_demo_rx(capsys):
    import numpy as np

    code, out = run_cli(capsys, "gates-demo", "--L", "4", "--gate", "rx",
                        "--theta", repr(float(np.pi)))
    assert code == 0
    line = json.loads(out.strip().splitlines()[0])
    assert line["fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_syndrome_demo(capsys):
    code, out = run_cli(capsys, "syndrome-demo", "--L", "4", "--block", "0",
                        "--site", "0", "--pauli", "X")
    assert code == 0
    report = json.loads(out)
    (key, rep), = report["reports"].items()
    assert key == "block0/site0/X"
    assert rep["defects"] == 4


def test_evolve_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    code, out = run_cli(
        capsys, "evolve", "--L", "4", "--hamiltonian", "heff",
        "--perturbation", "break_longitudinal_random", "--lambda", "0.05",
        "--tmax", "2.0", "--steps", "2", "--seed", "7", "--csv", str(csv_path),
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["series"]) == 3
    assert report["final_fidelity"] <= 1.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,reX,imX,population,fidelity"
    assert len(lines) == 4


def test_quadflip_json(capsys):
    code, out = run_cli(capsys, "quadflip", "--L", "2", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["valid_count"] == 51
    assert report["label_violations"] == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_quadflip_matches_golden(capsys, m):
    # the residuals are floats near 1e-16, so they are bounded, not pinned
    code, out = run_cli(capsys, "quadflip", "--L", "2", "--m", str(m))
    assert code == 0
    report = json.loads(out)
    residuals = report.pop("algebra_residuals")
    assert set(residuals) == {"Z_power", "X_power", "ZX_commutation"}
    assert max(residuals.values()) <= 1e-12
    assert report == json.loads((GOLDEN / f"quadflip_L2_m{m}.json").read_text())


@pytest.mark.parametrize("argv", [
    ("--L", "2", "--m", "0"),
    ("--L", "2", "--m", "1"),
    ("--L", "2", "--m", "-1"),
    ("--L", "3", "--m", "2"),  # odd L: the loop label is no sector invariant
])
def test_quadflip_outside_contract_exits_2(capsys, argv):
    code, out = run_cli(capsys, "quadflip", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("--L", "200"), "exhaustive scan of 3^80000 link assignments exceeds 2^20"),
    (("--L", "2000"), "exhaustive scan of 3^8000000 link assignments exceeds 2^20"),
    (("--L", "2", "--m", "1"), "m must be >= 2, got 1"),
    (("--L", "0"), "L must be >= 2, got 0"),
    (("--L", "-200"), "L must be >= 2, got -200"),
])
def test_quadflip_rejects_at_once_with_one_error_line(capsys, argv, message):
    # the scan size is checked before the clock lattice is built, and the
    # message names the power m^(2 L^2), not the integer
    start = time.perf_counter()
    code = main(["quadflip", *argv])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert elapsed < 1.0
    (line,) = captured.err.splitlines()
    assert json.loads(line)["message"] == message


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 400_000_000, -2])
def test_evolve_rejects_steps_outside_the_grid_cap_at_once(capsys, steps):
    # the step count is checked before the lattice, operator or grid is built
    start = time.perf_counter()
    code = main(["evolve", "--steps", str(steps)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert elapsed < 1.0
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError"
    assert error["message"] == f"--steps must lie in [0, {MAX_STEPS}], got {steps}"


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "frozen-count", "--L", "4", "--method", "brute",
                      "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["brute_force"]["count_code_states"] == 56


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("krylov", "--L", "5"),
    ("blocks", "--L", "6"),
    ("gates-demo", "--block", "99"),
    ("gates-demo", "--block", "-1"),
    ("syndrome-demo", "--block", "99"),
    ("syndrome-demo", "--site", "16"),
    ("syndrome-demo", "--site", "-1"),
    ("evolve", "--block", "99"),
    ("frozen-count", "--L", "6", "--method", "brute"),
    ("frozen-count", "--L", "6"),
    ("frozen-count", "--L", "12"),  # brute force, past config_range's cap
    ("frozen-count", "--L", "14", "--method", "transfer"),
    ("krylov", "--L", "100000"),
])
def test_input_error_exit_code(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ("blocks", "--out", "MISSING"),
    ("frozen-count", "--L", "4", "--method", "transfer", "--out", "DIR"),
    ("evolve", "--csv", "MISSING"),
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    paths = {"MISSING": str(tmp_path / "no-such-dir" / "out"), "DIR": str(tmp_path)}
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] in ("FileNotFoundError", "IsADirectoryError")


def test_huge_L_exits_2_before_building_the_lattice(capsys):
    # build_lattice checks L before its mask loop, which is O(L^4)
    start = time.perf_counter()
    code = main(["blocks", "--L", "3000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "ValueError"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("evolve", "--perturbation", "sym_transverse", "--tmax", "1e15"),
    ("evolve", "--perturbation", "sym_transverse", "--lambda", "1e300"),
])
def test_grid_past_the_bessel_budget_exits_2_before_allocating(capsys, argv):
    # a*t of 8e15 or 8e302 would ask for a Bessel table of that many orders;
    # the budget check raises first, so the peak is the operator's build
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError"
    assert "a*t" in error["message"] and "budget" in error["message"]
    assert peak < 2 ** 27


@pytest.mark.filterwarnings("error")
def test_operator_past_floating_point_range_exits_2(capsys):
    # lambda = 1e308 is finite, but the interval's row sums overflow; that
    # is one ValueError naming the interval, with no warning before it
    code = main(["evolve", "--perturbation", "sym_transverse", "--lambda", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError"
    assert "spectral interval" in error["message"]


@pytest.mark.parametrize("argv", [
    ("gates-demo", "--gate", "rx", "--theta", "nan"),
    ("gates-demo", "--gate", "rz", "--phi", "inf"),
    ("evolve", "--lambda", "nan"),
    ("evolve", "--J=-inf"),
    ("evolve", "--h", "nan"),
    ("evolve", "--tmax", "inf"),
    ("evolve", "--tol", "nan"),
])
def test_non_finite_number_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "krylov_L4": ("krylov", "--L", "4"),
    "blocks_L4": ("blocks", "--L", "4"),
    "frozen_count_L4_both": ("frozen-count", "--L", "4", "--method", "both"),
    "frozen_count_L8_transfer": ("frozen-count", "--L", "8", "--method", "transfer"),
    "frozen_count_L10_transfer": ("frozen-count", "--L", "10", "--method", "transfer"),
    "frozen_count_L12_transfer": ("frozen-count", "--L", "12", "--method", "transfer"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_integer_outputs_match_golden(capsys, name):
    # these reports hold no floats, so their bytes are the same on every machine
    code, out = run_cli(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


GATES_DEMO_RUNS = {
    "cnot": ("--gate", "cnot"),
    "rx": ("--gate", "rx", "--theta", "0.7"),
    "rz": ("--gate", "rz", "--phi", "1.3"),
}
# gate amplitudes and tomography are O(1) and a few roundings deep
GOLDEN_FLOAT_TOL = 1e-14


def assert_matches_golden(got, want, path="$", tol=GOLDEN_FLOAT_TOL):
    """Keys, integers and strings exactly; floats within tol."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]", tol)
    elif isinstance(want, float):
        assert abs(got - want) <= tol, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


@pytest.mark.parametrize("gate", sorted(GATES_DEMO_RUNS))
def test_gates_demo_matches_float_golden(capsys, gate):
    code, out = run_cli(capsys, "gates-demo", *GATES_DEMO_RUNS[gate])
    assert code == 0
    want = (GOLDEN / f"gates_demo_{gate}.jsonl").read_text().splitlines()
    got = out.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_matches_golden(json.loads(g), json.loads(w))


# the float reports no other golden pins: every report the writer serves is covered
REPORT_RUNS = {
    "selftest_seed7": ("selftest", "--seed", "7"),
    "syndrome_demo_L4": ("syndrome-demo",),
}


@pytest.mark.parametrize("name", sorted(REPORT_RUNS))
def test_report_matches_float_golden(capsys, name):
    code, out = run_cli(capsys, *REPORT_RUNS[name])
    assert code == 0
    assert_matches_golden(json.loads(out), json.loads((GOLDEN / f"{name}.json").read_text()))


def test_json_hook_writes_numpy_and_complex_values():
    import numpy as np

    report = {"count": np.int64(3), "passed": np.bool_(True), "x": np.float32(0.1),
              "phase": 1 - 2j, "amps": np.array([0.5j, 2 + 0j]), "none": None}
    assert json.dumps(report, default=_jsonable) == (
        '{"count": 3, "passed": true, "x": 0.10000000149011612, "phase": [1.0, -2.0], '
        '"amps": [[0.0, 0.5], [2.0, 0.0]], "none": null}')
    with pytest.raises(TypeError):
        json.dumps({"sites": {1, 2}}, default=_jsonable)


EVOLVE_RUNS = {
    "heff_break_longitudinal_random": ("--perturbation", "break_longitudinal_random"),
    "czp_sym_zz_nnn": ("--hamiltonian", "czp", "--perturbation", "sym_zz_nnn",
                       "--tmax", "2", "--steps", "4"),
    "czp_break_zz_nn": ("--hamiltonian", "czp", "--perturbation", "break_zz_nn",
                        "--tmax", "2", "--steps", "4"),
}


@pytest.mark.parametrize("run", sorted(EVOLVE_RUNS))
def test_evolve_matches_float_golden(capsys, run):
    # the exact path is a phase per eigenstate, a few roundings deep; a
    # recursion run's values stay within the error bound it records
    code, out = run_cli(capsys, "evolve", *EVOLVE_RUNS[run])
    assert code == 0
    want = json.loads((GOLDEN / f"evolve_{run}.json").read_text())
    tol = want["error_bound"] if want["chebyshev_order"] else GOLDEN_FLOAT_TOL
    assert_matches_golden(json.loads(out), want, tol=tol)


def test_evolve_breaking_perturbation_at_zero_lambda(capsys):
    code, out = run_cli(capsys, "evolve", "--perturbation", "break_zz_nn",
                        "--lambda", "0")
    assert code == 0
    _, bare = run_cli(capsys, "evolve", "--perturbation", "none")
    assert json.loads(out)["series"] == json.loads(bare)["series"]


def test_identical_invocations_identical_bytes(capsys):
    _, first = run_cli(capsys, "krylov", "--L", "4")
    _, second = run_cli(capsys, "krylov", "--L", "4")
    assert first == second
    report = json.loads(first)
    assert report["total_members"] == 1 << 16
    assert report["count_unflippable"] == 13924
    assert report["count_code_states"] == 56


def test_evolve_czp_strong_reproduces_criterion_7(tmp_path, capsys):
    # the CLI defaults (block 0, seed 7, lambda 0.05, tmax 50, 25 steps)
    # are criterion 7's settings
    csv_path = tmp_path / "sym.csv"
    code, out = run_cli(capsys, "evolve", "--hamiltonian", "czp_strong",
                        "--perturbation", "sym_transverse", "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["chebyshev_order"] < 1285  # the order on Gershgorin's interval
    assert 0.0 < report["half_width"] < 24.0  # Gershgorin's half-width
    assert report["error_bound"] <= report["tol"]
    lines = csv_path.read_text().strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    lat = build_lattice(4)
    criterion = selftest.criterion_coherence_contrast(
        lat, enc.enumerate_blocks(lat), 7)
    assert rows == criterion.details["curve_sym"]


def test_evolve_counters_identical_bytes(capsys):
    argv = ("evolve", "--hamiltonian", "czp", "--h", "0.5",
            "--perturbation", "sym_transverse", "--tmax", "1.0", "--steps", "4")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    report = json.loads(first)
    assert report["chebyshev_order"] > 0
    assert report["probe_dim"] == 0
    assert report["half_width"] > 0.0
    # the default probe lives in two of the four sectors of the toggles times
    # block 0's four translations, of 4,288 and 4,096 orbit states; each is one
    # orbit state whose return amplitude comes from moments, two per mat-vec:
    # half its rows per order
    assert report["rows_per_order"] == (4288 + 4096) // 2
    assert list(report).index("rows_per_order") == list(report).index("half_width") + 1
    assert 0.0 < report["error_bound"] <= report["tol"]
    # a diagonal perturbation keeps the probe's two states eigenstates:
    # the exact path, no recursion
    _, out = run_cli(capsys, "evolve", "--perturbation", "break_longitudinal_random",
                     "--tmax", "1.0", "--steps", "4")
    report = json.loads(out)
    assert report["chebyshev_order"] == 0
    assert report["half_width"] == 0.0
    assert report["rows_per_order"] == 0
    assert report["probe_dim"] == 2
    assert report["error_bound"] == 0.0


def test_evolve_heff_sym_transverse_order(capsys):
    # the evolve_mixing operator: spectrum +-8.05, Gershgorin +-15.2 (833 orders)
    code, out = run_cli(capsys, "evolve", "--perturbation", "sym_transverse")
    assert code == 0
    report = json.loads(out)
    assert report["chebyshev_order"] <= 470
    assert report["half_width"] < 8.06
    assert report["error_bound"] <= report["tol"]


def test_evolve_tolerance_above_the_norm_runs_no_order(capsys):
    # at tol 10 the whole Bessel tail is below tol already: zero orders,
    # and the bound reached, the whole tail, is at most tol
    code, out = run_cli(capsys, "evolve", "--hamiltonian", "czp", "--tol", "10",
                        "--steps", "2", "--tmax", "1")
    assert code == 0
    report = json.loads(out)
    assert report["chebyshev_order"] == 0
    assert report["probe_dim"] == 0
    assert 0.0 < report["error_bound"] <= 10.0
