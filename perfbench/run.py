"""mspred benchmark: one workload, one process, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-msp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same phase untraced and then traced, prints the tracing overhead
and the step time accounting, writes the spans under ``.perfbench_out/`` and
reports the per-layer metrics. Metric names and units come from
``BENCHMARK.json``; the last line of standard output is the result object.

End-to-end times are CPU times put on the reference scale of
``calibrate.py``; per-layer times are plain CPU times.
"""

import os

# one BLAS thread, set before numpy loads: the workloads' matrices are small,
# and extra BLAS threads would contend with the run for the machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
KERNELS_PER_GAP = 3     # reference kernel runs before, between and after set-ups
PHASE_LIMIT_S = 60.0   # hard cap on one phase's measured work


def parse_args(workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    }


def measure_phase(workloads, reference, name, seed, seconds, workdir, import_s):
    """Set up SETUP_REPEATS times, then run the workload.

    Reference kernel runs bracket the set-ups; ``setup_s`` is the median
    over the repeats of imports plus set-up, scaled by the median of those
    kernel times.
    """
    import numpy as np
    from calibrate import CLOCK

    times, kernels = [], [reference.measure() for _ in range(KERNELS_PER_GAP)]
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        inputs = workloads.setup(name, seed, workdir)
        times.append(import_s + CLOCK() - t0)
        kernels.extend(reference.measure() for _ in range(KERNELS_PER_GAP))
    phase = workloads.run(name, inputs, seconds, time.perf_counter() + PHASE_LIMIT_S, reference)
    phase.values["setup_s"] = float(np.median(times)) * workloads.run_scale(kernels)
    phase.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def main():
    if not os.path.isfile(os.path.join(SRC, "mspred", "__init__.py")):
        print(f"no mspred sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (counted in setup_s with the package)
    import workloads
    import_s = time.process_time()   # CPU time of the process so far
    from calibrate import Reference
    from mspred import __file__ as package_file
    if not os.path.abspath(package_file).startswith(SRC + os.sep):
        print(f"mspred imported from {package_file}, not from {SRC}", file=sys.stderr)
        return 2

    args = parse_args(workloads.WORKLOADS)
    print("env " + json.dumps(environment(), sort_keys=True))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    reference = Reference()
    try:
        untraced = measure_phase(workloads, reference, args.workload, args.seed,
                                 args.seconds, workdir, import_s)
        print("untraced " + json.dumps({**untraced.values, **untraced.details},
                                       sort_keys=True))
        result, wanted = untraced, bench["end_to_end"]
        metrics = untraced.values
        if args.trace:
            import spans as tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure_phase(workloads, reference, args.workload, args.seed,
                                       args.seconds, workdir, import_s)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(ROOT, ".perfbench_out",
                                      f"spans-{args.workload}-seed{args.seed}.tsv"))
            overhead = {k: traced.values[k] / untraced.values[k] - 1.0
                        for k in untraced.values if untraced.values[k]}
            print("traced " + json.dumps({**traced.values, **traced.details},
                                         sort_keys=True))
            print("trace_overhead " + json.dumps(overhead, sort_keys=True))
            metrics, accounting = tracing.summarize(
                tracer, traced.steps, traced.logging_steps, traced.sbd_iterations,
                traced.useful_restarts_ratio)
            metrics["trace.overhead_pct"] = 100.0 * overhead["step_ms_p50"]
            if traced.steps:
                print("step_accounting " + tracing.dump_accounting(
                    accounting, metrics["training.step.ms_per_step"]))
            result, wanted = traced, bench["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))

    failed = untraced.failed + (result.failed if result is not untraced else 0)
    attempted = untraced.attempted + (result.attempted if result is not untraced else 0)
    print(f"failed_frac {failed / attempted} ({failed} of {attempted} operations)")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
