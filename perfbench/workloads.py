"""The benchmark's workloads: seeded inputs, job lists and output checks.

A workload is built once per process (its set-up: lattice and blocks), then
`run_pass` runs its job list and returns one Outcome per operation.  Every
operation is a call into fragmenta's public functions, the ones the CLI
subcommands call, followed by a check against an independent reference;
an operation fails when it raises or misses its check.  Functions are
reached through their modules at call time, so the tracer's patches apply.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import fragmenta
from fragmenta import dynamics, encoding, fragmentation, gates, quadflip, syndrome

import reference as ref

L = 4
N_SITES = L * L
N_SUBLATTICE = N_SITES // 2
LAM = 0.05
SERIES_TOL = 1e-9          # tests/test_dynamics.py bound against expm_multiply
STATIONARITY_TOL = 1e-8    # selftest's criterion-3 fidelity tolerance
EXACT_TOL = 1e-12          # algebra residuals, gate and syndrome identities
RX_TOL = 1e-10             # tests/test_gates.py rx fidelity and leakage
SQ2 = 2 ** -0.5
LONGITUDINAL_SIGNS_SEED = 7  # the CLI's default --seed

# known counts: closed form 2^(L+2) - 8 for L = 0 mod 4, none for L = 2 mod 4
TRANSFER_COUNTS = {4: 56, 6: 0, 8: 1016, 10: 0}
UNFLIPPABLE_L4 = 13924
N_SECTORS_L4 = 24613
N_BLOCKS_L4 = 14
QUADFLIP_L2_M3 = {
    "valid_count": 51,
    "sector_count": 37,
    "symmetric_sector_count": 1,
    "multiplet_count": 12,
    "label_violations": 0,
}
# sector_of draws: only sectors up to SECTOR_CAP states, drawn until the
# reference sizes reach the target, so every seed does about the same work
SECTOR_CAP = 2000
SECTOR_TARGET = {4: 2000, 6: 3000}


class CheckFailed(Exception):
    """An operation's output missed its reference check."""


@dataclass
class Outcome:
    name: str
    ok: bool
    digest: tuple = ()
    error: str = ""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def basis(k):
    amps = np.zeros(4, dtype=complex)
    amps[k] = 1.0
    return amps


def random_amplitudes(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


class Workload:
    needs_blocks = True

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.lat = fragmenta.build_lattice(L)
        self.blocks = encoding.enumerate_blocks(self.lat) if self.needs_blocks else []
        self.jobs = []           # (name, callable returning a digest tuple)

    def reference_requests(self):
        return []

    def load_references(self):
        pass

    def probe_operator(self):
        return None

    def run_pass(self):
        outcomes = []
        for name, job in self.jobs:
            try:
                outcomes.append(Outcome(name, True, job()))
            except Exception as exc:  # one failed operation must not stop the pass
                outcomes.append(Outcome(name, False, (), f"{type(exc).__name__}: {exc}"))
        return outcomes


# ---------------------------------------------------------------------------
# dynamics workloads


def series_spec(model, perturbation=None, seed=0):
    spec = {"L": L, "model": model, "h": 1.0, "J": 1.0}
    if perturbation is not None:
        spec.update(perturbation=perturbation, lam=LAM, seed=seed)
    return spec


class _Dynamics(Workload):
    """Coherence series of seeded logical states, checked against expm_multiply.

    A pass assembles each distinct Hamiltonian once and evolves every series
    that uses it.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.series = []         # (label, spec, block, amplitudes, t_stop, num)
        self.propagators = {}
        self.hamiltonians = {}

    def add_series(self, label, spec, block, t_stop, num):
        amps = random_amplitudes(self.rng)
        self.series.append((label, spec, block, amps, t_stop, num))

    def request(self, entry):
        _, spec, block, _, t_stop, num = entry
        return {"spec": spec, "members": list(block.members), "t_stop": t_stop, "num": num}

    def reference_requests(self):
        return [self.request(e) for e in self.series]

    def load_references(self):
        for entry in self.series:
            M = ref.cached(self.request(entry))
            if M is None:
                raise RuntimeError(f"missing reference for {entry[0]}")
            self.propagators[entry[0]] = M

    def build(self, spec):
        if spec["model"] == "heff":
            H = dynamics.build_heff(self.lat, h=spec["h"])
        else:
            H = dynamics.build_hczp(self.lat, J=spec["J"], h=spec["h"])
        if "perturbation" in spec:
            H = H + dynamics.build_perturbation(
                self.lat, spec["perturbation"], spec["lam"], seed=spec["seed"]
            )
        return H

    def hamiltonian(self, spec):
        key = json.dumps(spec, sort_keys=True)
        if key not in self.hamiltonians:
            self.hamiltonians[key] = self.build(spec)
        return self.hamiltonians[key]

    def run_pass(self):
        self.hamiltonians.clear()  # every pass assembles its own operators
        return super().run_pass()

    def series_job(self, entry):
        label, spec, block, amps, t_stop, num = entry

        def job():
            times = np.linspace(0.0, t_stop, num)
            psi0 = encoding.logical_state(block, amps)
            s = dynamics.coherence_experiment(block, self.hamiltonian(spec), times, initial=psi0)
            expected = ref.tomography(self.propagators[label] @ amps, amps)
            measured = {"population": s.population, "fidelity": s.fidelity}
            for key in ref.OBSERVABLES:
                measured[key] = np.array([tom[key] for tom in s.tomography])
            err = max(float(np.abs(measured[k] - expected[k]).max()) for k in expected)
            check(err <= SERIES_TOL, f"{label}: max deviation {err:.3g} from expm_multiply")
            return tuple(np.concatenate([measured[k] for k in sorted(measured)]).tolist())

        return label, job

    def probe_operator(self):
        return self.build(self.series[0][1])


class EvolveMixing(_Dynamics):
    """sym_transverse at lambda=0.05 to t=50, and the unconstrained model to t=1,
    from one seeded block and logical state."""

    def __init__(self, seed):
        super().__init__(seed)
        block = self.blocks[int(self.rng.integers(len(self.blocks)))]
        self.add_series("heff+sym_transverse", series_spec("heff", "sym_transverse"), block, 50.0, 26)
        _, _, _, amps, _, _ = self.series[0]
        self.series.append(("hczp", series_spec("hczp"), block, amps, 1.0, 11))
        self.jobs = [self.series_job(e) for e in self.series]


class EvolveDiagonal(_Dynamics):
    """Each diagonal perturbation to t=50 and the bare-heff stationarity evolve
    to t=100, on every block, from seeded logical states.

    The Lanczos cost of a series grows with the number of distinct member
    energies, which differs between blocks and between sign patterns of the
    longitudinal field.  Every block runs and the signs stay fixed, so a seed
    changes the states but not that mix of cheap and expensive series.
    """

    def __init__(self, seed):
        super().__init__(seed)
        for kind, s in (("break_longitudinal_random", LONGITUDINAL_SIGNS_SEED),
                        ("break_zz_nn", 0), ("sym_zz_nnn", 0)):
            for b, block in enumerate(self.blocks):
                self.add_series(f"{kind} b{b}", series_spec("heff", kind, s), block, 50.0, 26)
        self.jobs = [self.series_job(e) for e in self.series]
        for b, block in enumerate(self.blocks):
            self.add_series(f"stationarity b{b}", series_spec("heff"), block, 100.0, 2)
            self.jobs.append((f"stationarity b{b}", self.stationarity_job(self.series[-1])))

    def stationarity_job(self, entry):
        label, spec, block, amps, t_stop, _ = entry

        def job():
            psi0 = encoding.logical_state(block, amps)
            psi = dynamics.evolve(psi0, self.hamiltonian(spec), t_stop)
            inside = psi[list(block.members)]
            err = float(np.abs(inside - self.propagators[label][-1] @ amps).max())
            fidelity = abs(np.vdot(psi0, psi))
            population = float(np.vdot(inside, inside).real)
            check(err <= SERIES_TOL, f"{label}: in-block deviation {err:.3g}")
            check(abs(population - 1.0) <= SERIES_TOL, f"{label}: population {population!r}")
            check(fidelity >= 1.0 - STATIONARITY_TOL, f"{label}: fidelity {fidelity!r}")
            return tuple(inside.tolist()) + (fidelity,)

        return job


# ---------------------------------------------------------------------------
# transfer counting


class Transfer(Workload):
    """Transfer-matrix counts at L = 4..10 and the L=4 brute-force cross-check."""

    needs_blocks = False

    def __init__(self, seed):
        super().__init__(seed)
        self.jobs = [(f"transfer L={n}", self.count_job(n)) for n in TRANSFER_COUNTS]
        self.jobs.append(("enumerate_frozen L=4", self.brute_job))

    @staticmethod
    def count_job(n):
        def job():
            count = fragmentation.count_code_states_transfer(n)
            check(count == TRANSFER_COUNTS[n], f"L={n}: {count} != {TRANSFER_COUNTS[n]}")
            return (count,)
        return job

    def brute_job(self):
        rep = fragmentation.enumerate_frozen(self.lat)
        check(rep.count_code_states == TRANSFER_COUNTS[L], f"code states {rep.count_code_states}")
        check(rep.count_unflippable == UNFLIPPABLE_L4, f"unflippable {rep.count_unflippable}")
        return (rep.count_code_states, rep.count_unflippable)


# ---------------------------------------------------------------------------
# inventory: sectors, blocks, algebra, gates, syndromes, quadflip


class Inventory(Workload):
    """Full-space kernels and per-configuration loops; no propagation."""

    def __init__(self, seed):
        super().__init__(seed)
        self.lat6 = fragmenta.build_lattice(6)
        self.theta = float(self.rng.uniform(0.1, math.pi - 0.1))
        self.phi = float(self.rng.uniform(0.0, 2.0 * math.pi))
        self.draws = {n: self.draw_sectors(n) for n in SECTOR_TARGET}
        cfgs = np.arange(1 << N_SITES, dtype=np.int64)
        frozen = np.ones(len(cfgs), dtype=bool)
        for i in range(N_SITES):
            frozen &= ~ref.flippable(cfgs, L, i)
        clean = ref.cz_product(cfgs, L) == N_SITES
        self.code_states = set(cfgs[frozen & clean].tolist())
        self.sectors_l4 = None

        self.jobs = [("krylov_decompose", self.krylov_job), ("enumerate_blocks", self.blocks_job)]
        for b, block in enumerate(self.blocks):
            self.jobs.append((f"algebra b{b}", self.algebra_job(block)))
            for k in range(4):
                self.jobs.append((f"cnot b{b} |{k}>", self.cnot_job(block, k)))
            self.jobs += [
                (f"bell b{b}", self.bell_job(block)),
                (f"rx pi b{b}", self.rx_pi_job(block)),
                (f"rx theta b{b}", self.rx_theta_job(block)),
                (f"rz phi b{b}", self.rz_job(block)),
            ]
        for b, block in enumerate(self.blocks):
            for site in range(N_SITES):
                for pauli in "XYZ":
                    self.jobs.append(
                        (f"detect b{b} s{site} {pauli}", self.detect_job(block, site, pauli))
                    )
        for n, draws in self.draws.items():
            for cfg, expected in draws:
                self.jobs.append((f"sector_of L={n} {cfg:#x}", self.sector_job(n, cfg, expected)))
        self.jobs.append(("quadflip_report 2 3", self.quadflip_job))

    def draw_sectors(self, n):
        draws, total = [], 0
        while total < SECTOR_TARGET[n]:
            cfg = int(self.rng.integers(0, 1 << (n * n)))
            found = ref.sector(cfg, n, SECTOR_CAP)
            if found is not None:
                draws.append((cfg, found))
                total += found[1]
        return draws

    def krylov_job(self):
        sectors = fragmentation.krylov_decompose(self.lat)
        frozen = [s for s in sectors if s.is_frozen_sector]
        code = [s for s in frozen if all(v == 1 for v in s.syndrome)]
        check(len(sectors) == N_SECTORS_L4, f"{len(sectors)} sectors")
        check(sum(s.size for s in sectors) == 1 << N_SITES, "members do not cover the space")
        check(len(frozen) == UNFLIPPABLE_L4, f"{len(frozen)} frozen sectors")
        check({s.representative for s in code} == self.code_states, "frozen code states differ")
        self.sectors_l4 = {(s.representative, s.size) for s in sectors}
        return (len(sectors), hash(frozenset(self.sectors_l4)))

    def blocks_job(self):
        blocks = encoding.enumerate_blocks(self.lat)
        members = [m for b in blocks for m in b.members]
        check(len(blocks) == N_BLOCKS_L4, f"{len(blocks)} blocks")
        check(len(members) == len(set(members)), "blocks overlap")
        check(set(members) == self.code_states, "block members are not the code states")
        return tuple(b.alpha for b in blocks)

    @staticmethod
    def algebra_job(block):
        def job():
            worst = max(encoding.verify_pauli_algebra(block).values())
            check(worst <= EXACT_TOL, f"algebra residual {worst:.3g}")
            return (worst,)
        return job

    @staticmethod
    def cnot_job(block, k):
        def job():
            sa, sb = divmod(k, 2)
            psi = encoding.logical_state(block, basis(k))
            out = gates.apply_logical_cnot(psi, block)
            expected = encoding.logical_state(block, basis(2 * sa + (sa ^ sb)))
            rep = gates.gate_report(block, "cnot", {}, psi, out, expected=expected)
            check(abs(rep.fidelity - 1.0) <= EXACT_TOL, f"cnot fidelity {rep.fidelity!r}")
            check(abs(rep.leakage) <= EXACT_TOL, f"cnot leakage {rep.leakage!r}")
            return (rep.fidelity, rep.leakage)
        return job

    @staticmethod
    def bell_job(block):
        def job():
            probe = encoding.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
            bell = gates.apply_logical_cnot(probe, block)
            expected = encoding.logical_state(block, (SQ2, 0.0, 0.0, SQ2))
            rep = gates.gate_report(block, "cnot", {}, probe, bell, expected=expected)
            tom = rep.tomography_out
            for key, want in (("ZZ", 1.0), ("XX", 1.0), ("population", 1.0)):
                check(abs(tom[key] - want) <= EXACT_TOL, f"bell {key} {tom[key]!r}")
            check(abs(rep.fidelity - 1.0) <= EXACT_TOL, f"bell fidelity {rep.fidelity!r}")
            return (rep.fidelity, tom["ZZ"], tom["XX"])
        return job

    def rx_pi_job(self, block):
        def job():
            psi = encoding.logical_state(block, basis(0))
            out = gates.apply_rx(psi, self.lat, "A", math.pi)
            expected = encoding.logical_state(block, basis(2))
            rep = gates.gate_report(block, "rx", {"theta": math.pi}, psi, out, expected=expected)
            phase = (-1j) ** N_SUBLATTICE
            check(abs(rep.fidelity - 1.0) <= RX_TOL, f"rx pi fidelity {rep.fidelity!r}")
            check(abs(rep.global_phase - phase) <= RX_TOL, f"rx pi phase {rep.global_phase!r}")
            return (rep.fidelity, rep.global_phase.real, rep.global_phase.imag)
        return job

    def rx_theta_job(self, block):
        def job():
            psi = encoding.logical_state(block, basis(0))
            out = gates.apply_rx(psi, self.lat, "A", self.theta)
            rep = gates.gate_report(block, "rx", {"theta": self.theta}, psi, out)
            c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
            leak = 1.0 - (c ** (2 * N_SUBLATTICE) + s ** (2 * N_SUBLATTICE))
            check(abs(rep.leakage - leak) <= RX_TOL, f"rx leakage {rep.leakage!r} != {leak!r}")
            return (rep.leakage,)
        return job

    def rz_job(self, block):
        def job():
            probe = encoding.logical_state(block, (SQ2, 0.0, SQ2, 0.0))
            out = gates.apply_rz(probe, block, "A", self.phi)
            half = np.exp(0.5j * self.phi)
            expected = encoding.logical_state(block, (SQ2 / half, 0.0, SQ2 * half, 0.0))
            rep = gates.gate_report(block, "rz", {"phi": self.phi}, probe, out, expected=expected)
            tom = rep.tomography_out
            check(abs(rep.fidelity - 1.0) <= EXACT_TOL, f"rz fidelity {rep.fidelity!r}")
            check(abs(rep.leakage) <= EXACT_TOL, f"rz leakage {rep.leakage!r}")
            check(abs(tom["X_A"] - math.cos(self.phi)) <= EXACT_TOL, f"rz X_A {tom['X_A']!r}")
            check(abs(tom["Y_A"] - math.sin(self.phi)) <= EXACT_TOL, f"rz Y_A {tom['Y_A']!r}")
            return (rep.fidelity, tom["X_A"], tom["Y_A"])
        return job

    @staticmethod
    def detect_job(block, site, pauli):
        x, y = site % L, site // L
        on_a = (x + y) % 2 == 0

        def job():
            rep = syndrome.detection_experiment(block, site, pauli)
            tom = rep.tomography
            check(rep.site_sublattice == ("A" if on_a else "B"), "wrong sublattice")
            check(rep.syndrome_uniform, "mixed syndrome")
            if pauli == "Z":
                # invisible to the syndrome, flips <X_A> on sublattice A only
                want = -1.0 if on_a else 1.0
                check(rep.defect_count == 0, f"Z error flagged {rep.defect_count} defects")
                check(abs(tom["X_A"] - want) <= EXACT_TOL, f"<X_A> = {tom['X_A']!r}")
            else:
                # X and Y leave the code space and flag four defects
                check(rep.defect_count == 4, f"{pauli} error flagged {rep.defect_count} defects")
                check(abs(tom["population"]) <= EXACT_TOL, f"population {tom['population']!r}")
            return (rep.defect_count, tom["X_A"], tom["population"])
        return job

    def sector_job(self, n, cfg, expected):
        lat = self.lat if n == L else self.lat6

        def job():
            s = fragmentation.sector_of(cfg, lat)
            got = (s.representative, s.size)
            check(got == expected, f"sector {got} != reference {expected}")
            if n == L and self.sectors_l4 is not None:
                check(got in self.sectors_l4, "sector missing from krylov_decompose")
            return got
        return job

    @staticmethod
    def quadflip_job():
        rep = quadflip.quadflip_report(2, 3)
        for key, want in QUADFLIP_L2_M3.items():
            check(rep[key] == want, f"quadflip {key} = {rep[key]} != {want}")
        worst = max(rep["algebra_residuals"].values())
        check(worst <= EXACT_TOL, f"qudit algebra residual {worst:.3g}")
        return (rep["valid_count"], rep["sector_count"], worst)


WORKLOADS = {
    "evolve_mixing": EvolveMixing,
    "evolve_diagonal": EvolveDiagonal,
    "transfer": Transfer,
    "inventory": Inventory,
}
