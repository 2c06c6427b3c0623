"""Command-line entry point: every experiment as a reproducible subcommand.

Reports are JSON on stdout (or --out); gates-demo emits one JSON line per
gate report.  All randomness flows from --seed, and identical invocations
produce byte-identical output: numpy values become plain Python values,
complex numbers [re, im] pairs, and floats serialize via their exact
shortest round-trip representation (up to 17 significant digits).  Exit
codes: 0 success, 1 acceptance failure, 2 usage error; input the library
rejects (ValueError or IndexError, such as an L outside [4, 8] for a
lattice) and an unwritable --out or --csv path (OSError) also exit 2, with
one JSON error line on stderr.
"""

import argparse
import json
import sys

import numpy as np

from . import config as cfgmod
from . import dynamics as dyn
from . import encoding as enc
from . import fragmentation as fr
from . import gates
from . import quadflip as qf
from . import selftest
from . import syndrome as syn
from .lattice import build_lattice


def _jsonable(obj):
    """json.dumps default: numpy arrays and scalars as plain values, complex as [re, im]."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _finite_float(text):
    """argparse type: a float that is neither nan nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


MAX_STEPS = 100_000  # evolve's grid times; each costs about 2.5 KB of peak RSS


def _emit(report, out):
    _write(json.dumps(report, indent=2, default=_jsonable) + "\n", out)


def _write(text, out):
    """Text to the file out, or to stdout when out is None."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _block(args):
    """The lattice of --L and its logical block number --block."""
    lat = build_lattice(args.L)
    blocks = enc.enumerate_blocks(lat)
    if not 0 <= args.block < len(blocks):
        raise ValueError(f"--block must lie in [0, {len(blocks)}), got {args.block}")
    return lat, blocks[args.block]


def _cmd_frozen_count(args):
    report = {"schema": 1, "L": args.L}
    if args.method in ("brute", "both"):
        lat = build_lattice(args.L)
        report["brute_force"] = fr.enumerate_frozen(lat).to_dict()
    if args.method in ("transfer", "both"):
        report["transfer_matrix"] = fr.transfer_report(args.L).to_dict()
    _emit(report, args.out)
    return 0


def _cmd_krylov(args):
    lat = build_lattice(args.L)
    sectors = fr.krylov_decompose(lat)
    histogram = fr.sector_histogram(sectors)
    frozen = [s for s in sectors if s.is_frozen_sector]
    n_code = sum(1 for s in frozen if all(v == 1 for v in s.syndrome))
    report = {
        "schema": 1,
        "L": args.L,
        "method": "connected_components",
        "n_sectors": len(sectors),
        "total_members": sum(s.size for s in sectors),
    }
    # the counts against the closed form; L and method keep their places
    report.update(fr._report(args.L, report["method"], n_code, len(frozen)).to_dict())
    report["sector_histogram"] = [{"size": s, "count": c} for s, c in histogram]
    _emit(report, args.out)
    return 0


def _cmd_blocks(args):
    lat = build_lattice(args.L)
    blocks = enc.enumerate_blocks(lat)
    report = {
        "schema": 1,
        "L": args.L,
        "count_code_states": 4 * len(blocks),
        "n_blocks": len(blocks),
        "n_logical_qubits": 2 * len(blocks),
        "blocks": [
            {
                "index": k,
                "representative": cfgmod.format_config_literal(b.alpha, args.L),
                "members": list(b.members),
            }
            for k, b in enumerate(blocks)
        ],
    }
    _emit(report, args.out)
    return 0


def _cmd_verify_algebra(args):
    lat = build_lattice(args.L)
    blocks = enc.enumerate_blocks(lat)
    per_block = []
    worst = 0.0
    for k, b in enumerate(blocks):
        residuals = enc.verify_pauli_algebra(b)
        block_max = max(residuals.values())
        worst = max(worst, block_max)
        per_block.append({"index": k, "max_residual": block_max})
    report = {
        "schema": 1,
        "L": args.L,
        "blocks": per_block,
        "max_residual": worst,
        "passed": worst <= selftest.ALGEBRA_TOL,
    }
    _emit(report, args.out)
    return 0 if worst <= selftest.ALGEBRA_TOL else 1


def _cmd_gates_demo(args):
    lat, block = _block(args)
    basis = [(f"|{sa}{sb}>", np.eye(4)[k]) for k, (sa, sb) in enumerate(enc.MEMBER_LABELS)]
    probe = ("(|00>+|10>)/sqrt2", np.array(enc.DEFAULT_PROBE))
    if args.gate == "cnot":
        params, inputs = {}, basis + [probe]
        physical = lambda psi: gates.apply_logical_cnot(psi, block)
    elif args.gate == "rx":
        params, inputs = {"sublattice": "A", "theta": args.theta}, basis[:1]
        physical = lambda psi: gates.apply_rx(psi, lat, "A", args.theta)
    else:
        params, inputs = {"sublattice": "A", "phi": args.phi}, [probe]
        physical = lambda psi: gates.apply_rz(psi, block, "A", args.phi)
    U = gates.logical_gate(lat, args.gate, "A", args.theta if args.gate == "rx" else args.phi)
    lines = []
    for label, amps in inputs:
        psi = enc.logical_state(block, amps)
        expected = None if U is None else enc.logical_state(block, U @ amps)
        report = gates.gate_report(block, args.gate, params, psi, physical(psi),
                                   expected=expected, input_label=label)
        lines.append(json.dumps({"schema": 1, **report.to_dict()}, default=_jsonable) + "\n")
    _write("".join(lines), args.out)
    return 0


def _cmd_syndrome_demo(args):
    lat, block = _block(args)
    sites = [args.site] if args.site is not None else list(range(lat.n_sites))
    paulis = [args.pauli] if args.pauli else ["X", "Z"]
    reports = {}
    for site in sites:
        for p in paulis:
            rep = syn.detection_experiment(block, site, p)
            reports[f"block{args.block}/site{site}/{p}"] = rep.to_dict()
    _emit({"schema": 1, "L": args.L, "reports": reports}, args.out)
    return 0


def _cmd_evolve(args):
    if not 0 <= args.steps <= MAX_STEPS:
        raise ValueError(f"--steps must lie in [0, {MAX_STEPS}], got {args.steps}")
    lat, block = _block(args)
    if args.hamiltonian == "heff":
        H = dyn.build_heff(lat, h=args.h)
    elif args.hamiltonian == "czp_strong":
        H = dyn.build_czp_strong(lat, J=args.J, h=args.h)
    else:
        H = dyn.build_hczp(lat, J=args.J, h=args.h)
    if args.perturbation != "none":
        H = H + dyn.build_perturbation(
            lat, args.perturbation, args.lam, seed=args.seed
        )
    times = np.linspace(0.0, args.tmax, args.steps + 1)
    series = dyn.coherence_experiment(block, H, times, tol=args.tol)
    rows = list(series.csv_rows())
    if args.csv:
        _write("t,reX,imX,population,fidelity\n"
               + "".join(",".join(repr(v) for v in row) + "\n" for row in rows), args.csv)
    report = {
        "schema": 1,
        "L": args.L,
        "hamiltonian": args.hamiltonian,
        "perturbation": args.perturbation,
        "lambda": args.lam,
        "J": args.J,
        "h": args.h,
        "seed": args.seed,
        "block": args.block,
        "tol": args.tol,
        "times": list(series.times),
        "series": rows,
        "final_tomography": series.tomography[-1],
        "final_fidelity": float(series.fidelity[-1]),
        "chebyshev_order": series.counters.chebyshev_order,
        "half_width": series.counters.half_width,
        "rows_per_order": series.counters.rows_per_order,
        "probe_dim": series.counters.probe_dim,
        "error_bound": series.counters.error_bound,
        "scaling_note": "single-size run; exponential-in-L stability claims are untested here",
    }
    _emit(report, args.out)
    return 0


def _cmd_quadflip(args):
    report = qf.quadflip_report(args.L, args.m)
    report = {"schema": 1, **report}
    _emit(report, args.out)
    return 0


def _cmd_selftest(args):
    report = selftest.run_all(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fragmenta",
        description="Exact simulator and verification toolkit for "
        "symmetry-protected logical qubits in constrained plaquette models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_L=4):
        p.add_argument("--L", type=int, default=default_L)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("frozen-count", help="count unflippable/code states")
    common(p)
    p.add_argument("--method", choices=("brute", "transfer", "both"), default="both")
    p.set_defaults(func=_cmd_frozen_count)

    p = sub.add_parser("krylov", help="full sector decomposition")
    common(p)
    p.set_defaults(func=_cmd_krylov)

    p = sub.add_parser("blocks", help="logical block inventory")
    common(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("verify-algebra", help="Pauli algebra residuals per block")
    common(p)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("gates-demo", help="gate reports as JSON lines")
    common(p)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--gate", choices=("cnot", "rx", "rz"), default="cnot")
    p.add_argument("--theta", type=_finite_float, default=np.pi)
    p.add_argument("--phi", type=_finite_float, default=np.pi / 3)
    p.set_defaults(func=_cmd_gates_demo)

    p = sub.add_parser("syndrome-demo", help="single-Pauli detection reports")
    common(p)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--site", type=int, default=None)
    p.add_argument("--pauli", choices=("X", "Y", "Z"), default=None)
    p.set_defaults(func=_cmd_syndrome_demo)

    p = sub.add_parser("evolve", help="coherence experiment under exact evolution")
    common(p)
    p.add_argument("--hamiltonian", choices=("heff", "czp", "czp_strong"), default="heff")
    p.add_argument(
        "--perturbation",
        choices=("none",) + dyn.PERTURBATION_KINDS,
        default="none",
    )
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=0.05)
    p.add_argument("--J", type=_finite_float, default=1.0)
    p.add_argument("--h", type=_finite_float, default=1.0)
    p.add_argument("--tmax", type=_finite_float, default=50.0)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--tol", type=_finite_float, default=1e-10)
    p.add_argument("--csv", type=str, default=None)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("quadflip", help="clock-model sector decomposition")
    common(p, default_L=2)
    p.add_argument("--m", type=int, default=3)
    p.set_defaults(func=_cmd_quadflip)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        error = {"schema": 1, "error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
