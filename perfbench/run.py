"""Outside-in benchmark of fragmenta.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  The run

1. times set-up (`import fragmenta`, `build_lattice`, `enumerate_blocks`
   where the workload needs blocks) in fresh interpreters, SETUP_PROBES
   before the timed passes and as many after them;
2. builds the workload's seeded inputs and makes sure every independent
   reference it checks against is cached (computed in a child process, so
   the benchmark's own memory stays the workload's);
3. repeats the workload's job list until another pass would overrun the
   budget, every operation checked, and reports the mean wall and CPU time
   of a pass;
4. with --trace 1, runs one untimed warm-up pass, splits the budget
   between untraced and traced passes, checks that tracing changed no
   output, probes one mat-vec of the dynamics workloads' operator, and
   reports per-layer numbers.

The last line of standard output is the result: correct, attempted, failed
and metrics.  The line before it records the environment and the details.
BLAS and thread settings are left as the caller has them and recorded.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # per side of the timed passes: the machine's speed drifts within a run
MATVEC_REPEATS = 30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FRAGMENTA_THREADS")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import fragmenta
lat = fragmenta.build_lattice(4)
if {blocks!r}:
    fragmenta.enumerate_blocks(lat)
print(time.perf_counter() - t0)
"""


def environment():
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def setup_samples(needs_blocks):
    """Wall seconds of SETUP_PROBES set-ups, each in a fresh interpreter."""
    code = SETUP_CODE.format(src=SRC, blocks=needs_blocks)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def ensure_references(requests):
    import reference

    if all(reference.cached(r) is not None for r in requests):
        return
    subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py")], input=json.dumps(requests),
        cwd=ROOT, text=True, timeout=150, check=True,
    )


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def timed_passes(workload, budget):
    """Repeat the job list until another pass would overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), cpu_seconds()
        outcomes = workload.run_pass()
        w1, c1 = time.perf_counter(), cpu_seconds()
        if passes:
            # only the first pass's outputs are compared; keep memory flat
            for o in outcomes:
                o.digest = ()
        passes.append({"wall": w1 - w0, "cpu": c1 - c0, "outcomes": outcomes})
        if (w1 - start) + (w1 - w0) > budget:
            return passes


MATVEC_UNITS = {
    "dynamics.matvec_s": "s",
    "dynamics.matvec_nnz": "count",
    "dynamics.matvec_dim": "count",
    "dynamics.matvec_flops_computed": "flop",
    "dynamics.matvec_bytes_computed": "B",
}


def matvec_probe(op, seed):
    """Median time of one SparseOperator.apply, with computed flops and bytes.

    Workloads without an operator report zeros.
    """
    if op is None:
        return {k: (0, u) for k, u in MATVEC_UNITS.items()}
    import numpy as np

    m = op.matrix
    vec = np.random.default_rng(seed).normal(size=(m.shape[1], 2)).view(complex)[:, 0]
    for _ in range(3):
        op.apply(vec)
    times = []
    for _ in range(MATVEC_REPEATS):
        t0 = time.perf_counter()
        op.apply(vec)
        times.append(time.perf_counter() - t0)
    # real CSR times complex vector: one complex*real product (2 flops) and one
    # complex add (2 flops) per stored element; bytes are the arrays read once
    # plus the output written once
    n = m.shape[0]
    values = {
        "dynamics.matvec_s": statistics.median(times),
        "dynamics.matvec_nnz": m.nnz,
        "dynamics.matvec_dim": n,
        "dynamics.matvec_flops_computed": 4 * m.nnz,
        "dynamics.matvec_bytes_computed": m.data.nbytes + m.indices.nbytes
        + m.indptr.nbytes + vec.nbytes + n * vec.itemsize,
    }
    return {k: (values[k], u) for k, u in MATVEC_UNITS.items()}


def summarize(passes):
    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [f"{o.name}: {o.error}" for o in outcomes if not o.ok]
    return len(outcomes), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fragmenta", "__init__.py")):
        print(f"perfbench: no fragmenta package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    kind = workloads.WORKLOADS[args.workload]
    env = environment()
    setup = [] if args.trace else setup_samples(kind.needs_blocks)
    workload = kind(args.seed)
    ensure_references(workload.reference_requests())
    workload.load_references()

    budget = args.seconds
    if args.trace:
        # an untimed warm-up pass keeps first-pass costs out of trace_overhead_s
        workload.run_pass()
        budget = args.seconds / 2
    plain = timed_passes(workload, budget)
    attempted, failures = summarize(plain)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if not args.trace:
        setup += setup_samples(kind.needs_blocks)
        metrics = {
            "wall_s": (statistics.fmean(p["wall"] for p in plain), "s"),
            "cpu_s": (statistics.fmean(p["cpu"] for p in plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_passes(workload, budget)
        finally:
            tracer.uninstall()
        n_traced, traced_failures = summarize(traced)
        attempted += n_traced
        failures += traced_failures
        for a, b in zip(plain[0]["outcomes"], traced[0]["outcomes"]):
            if a.ok and b.ok and a.digest != b.digest:
                failures.append(f"{b.name}: traced output differs from untraced")
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(matvec_probe(workload.probe_operator(), args.seed))
        overhead = statistics.fmean(p["wall"] for p in traced) - \
            statistics.fmean(p["wall"] for p in plain)
        metrics["trace_overhead_s"] = (overhead, "s")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        details["traced_pass_wall_s"] = [p["wall"] for p in traced]

    details.update(
        passes=len(plain),
        pass_wall_s=[p["wall"] for p in plain],
        pass_cpu_s=[p["cpu"] for p in plain],
        setup_samples_s=setup,
        ops_per_pass=len(plain[0]["outcomes"]),
        fail_frac=len(failures) / attempted,
        failures=failures[:20],
        environment=env,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
