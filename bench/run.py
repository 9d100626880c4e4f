"""Benchmark for taskcov: one seeded workload per process, closed loop.

    python3 bench/run.py --workload linear-2k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

One caller issues each operation after the previous one returns. BLAS
keeps its default thread count. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it print every metric by name with its unit, and the
environment the numbers were taken in. The full record of the run is
written to bench/out/. See bench/README.md.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("linear-2k", "rbf-smo", "newtask", "cv-grid")
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 3

# The metrics BENCHMARK.json bounds: present on every workload.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "predict_qps": "1/s",
    "peak_rss_mb": "MB",
}
# The named end-to-end metrics, each on the workloads that have the
# operation. op_s is fit_s on linear-2k and rbf-smo, incorporate_s on
# newtask and cv_s on cv-grid.
NAMED = {
    "setup_s": "s",
    "op_s": "s",
    "fit_s": "s",
    "predict_qps": "1/s",
    "model_io_s": "s",
    "incorporate_s": "s",
    "cv_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
LAYER_FUNCTIONS = (
    "kernels.base_kernel_matrix",
    "kernels.assemble_kernel_matrix",
    "kernels.cross_kernel_matrix",
    "kernels.coupling_matrix",
    "solver.fit",
    "solver.predict",
    "solver.predict_batch",
    "solver.solve_alpha_b_direct",
    "solver.solve_alpha_b_smo",
    "solver.update_omega",
    "linalg.solve_linear",
    "linalg.sym_eig",
    "linalg.trace_pinv_product",
    "newtask.incorporate_new_task",
    "newtask.solve_omega_sigma",
    "newtask.socp_instance",
    "newtask.solve_wb_newtask",
    "crossval.cross_validate",
    "io.save_model",
    "io.load_model",
    "io.load_csv",
)
PER_LAYER = {}
for _name in LAYER_FUNCTIONS:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "kernels.base_kernel_matrix.calls_per_fit": "count",
    "kernels.assemble_kernel_matrix.bytes_computed": "B",
    "linalg.solve_linear.flops_computed": "flop",
    "solver.fit.outer_iters": "count",
    "newtask.incorporate_new_task.iters": "count",
    "crossval.fit.calls": "count",
    "io.model_bytes": "B",
    "trace.overhead_frac": "ratio",
})


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _setup(name, seed, workdir, toy, run):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, toy)
    workload.setup(run)
    return workload


def _probe(name, seed, toy):
    """One set-up in a fresh process: (seconds, attempted, failed)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--toy"] if toy else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record["setup_s"], record["attempted"], record["failed"]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(workload, run, seconds, rss):
    """Run passes until `seconds` have elapsed (at least one); appends
    the peak resident memory after each pass to `rss`."""
    timings = []
    deadline = perf_counter() + seconds
    while True:
        timing = workload.run_pass(run)
        rss.append(_peak_rss_mb())
        if timing is not None:
            timings.append(timing)
        if perf_counter() >= deadline:
            return timings


def _summarise(timings):
    """Each timing's median over the passes. predict_qps is the run's
    total queries over its total seconds in predict_batch: on a shared
    machine the speed can switch between a few levels for seconds at a
    time (on a 2-vCPU VM, predict_batch ran at about 55k, 38k or 23k
    queries/s), and a median of rates jumps between them where the
    overall rate moves smoothly with the time spent at each."""
    out = {}
    for key in {k for t in timings for k in t}:
        values = [t[key] for t in timings if key in t]
        if key == "predict_qps":
            queries, seconds = map(sum, zip(*values))
            out[key] = queries / seconds
        else:
            out[key] = statistics.median(values)
    return out


def measure(name, seed, seconds, trace, toy=False, started=None, probes=SETUP_PROBES):
    """Set up and run one workload in this process; returns the record."""
    from tracer import Tracer, layer_totals
    from workloads import Run

    started = STARTED if started is None else started
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        run = Run()
        workload = _setup(name, seed, workdir, toy, run)
        setups = [perf_counter() - started]
        for _ in range(0 if trace else probes):
            seconds_, attempted, failed = _probe(name, seed, toy)
            setups.append(seconds_)
            run.attempted += attempted
            run.failed += failed
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment()}
        rss = [_peak_rss_mb()]
        if not trace:
            timings = _passes(workload, run, seconds, rss)
            named = _summarise(timings)
            named["setup_s"] = statistics.median(setups)
            record["samples"] = {"setup_s": setups, "passes": timings, "peak_rss_mb": rss}
        else:
            untraced = _passes(workload, run, seconds / 2.0, rss)
            tracer = Tracer()
            run.tracer = tracer
            with tracer:
                workload.load_inputs(run)
                setup_spans = len(tracer.spans)
                traced = _passes(workload, run, seconds / 2.0, rss)
            run.tracer = None
            per_pass = layer_totals(tracer.spans[setup_spans:])
            layers = {k: 0.0 for k in PER_LAYER}
            layers.update({k: v / max(len(traced), 1) for k, v in per_pass.items()})
            layers.update(layer_totals(tracer.spans[:setup_spans]))
            if per_pass.get("solver.fit.calls"):
                layers["kernels.base_kernel_matrix.calls_per_fit"] = (
                    per_pass.get("kernels.base_kernel_matrix.calls_in_fit", 0.0)
                    / per_pass["solver.fit.calls"])
            if untraced and traced:
                base = statistics.median(t["pass_s"] for t in untraced)
                layers["trace.overhead_frac"] = (
                    statistics.median(t["pass_s"] for t in traced) / base - 1.0)
            else:
                layers["trace.overhead_frac"] = None  # no pass to compare
            record["layers"] = layers
            record["samples"] = {"untraced": untraced, "traced": traced}
            tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
            named = _summarise(untraced)
        named["peak_rss_mb"] = _peak_rss_mb()
        named["failed_frac"] = run.failed / max(run.attempted, 1)
        record.update(named=named, attempted=run.attempted, failed=run.failed,
                      problems=run.problems)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(record):
    """The JSON object the last line of output carries."""
    if record["trace"]:
        wanted, values = PER_LAYER, record["layers"]
    else:
        wanted, values = END_TO_END, record["named"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values.get(k), "unit": unit} for k, unit in wanted.items()},
    }


def _cell(value):
    return f"{'-':>14}" if value is None else f"{value:>14.6g}"


def report(record):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for key, unit in NAMED.items():
        if key in record["named"]:
            print(f"  {key:<16} {_cell(record['named'][key])} {unit}")
    if record["trace"]:
        for key, unit in PER_LAYER.items():
            print(f"  {key:<48} {_cell(record['layers'][key])} {unit}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def run_all(args):
    """Each workload in its own process; then one table of every metric."""
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path) as fh:
            records.append(json.load(fh))
    print(f"{'metric':<16} {'unit':<6}" + "".join(f"{r['workload']:>14}" for r in records))
    for key, unit in NAMED.items():
        cells = [r["named"].get(key) for r in records]
        print(f"{key:<16} {unit:<6}" + "".join(_cell(v) for v in cells))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": {"value": r["named"][k], "unit": unit}
                    for r in records for k, unit in NAMED.items() if k in r["named"]},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "taskcov", "__init__.py")):
        print(f"taskcov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    if args.setup_probe:
        from workloads import Run

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            run = Run()
            _setup(args.workload, args.seed, workdir, args.toy, run)
            elapsed = perf_counter() - STARTED
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed, "attempted": run.attempted, "failed": run.failed}))
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
