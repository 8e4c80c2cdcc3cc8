"""One workload in one process; started by run.py, prints one JSON line.

BLAS is pinned to one thread here, before numpy is imported: on small
LAPACK calls the default threading spends CPU time without saving wall
time, and it makes timings depend on the other load of the machine.

Items are timed in CPU seconds of this process.  On a shared virtual
machine the hypervisor can take a large share of a virtual CPU away
(steal time), and wall time counts those pauses as if the program ran
slower.  With BLAS pinned and no worker processes the program runs on one
thread, so its CPU time is the time its work took.  Wall times are kept in
the record; the run stops after --seconds of wall time in items.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import platform

    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import lobsterctrl
    from lobsterctrl import control, csa, experiments, graph, mpcs, spectral

    if not os.path.abspath(lobsterctrl.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"lobsterctrl was imported from {lobsterctrl.__file__}, not from ./src")
    from tracing import Tracer
    from workloads import WORKLOADS

    modules = {
        "graph": graph,
        "spectral": spectral,
        "mpcs": mpcs,
        "control": control,
        "csa": csa,
        "experiments": experiments,
    }
    pkg = argparse.Namespace(**modules)
    workload = WORKLOADS[args.workload](pkg, args.seed, args.seconds)
    tracer = Tracer(modules) if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_s = time.process_time()  # CPU time since the process started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.reset()
    outputs, cpu, wall, errors = [], [], [], []
    i = 0
    timed_wall = 0.0
    while timed_wall < args.seconds:
        call = workload.item(i)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = call()
        except Exception as exc:  # an item that raises is a failed operation
            out = None
            errors.append(f"item {i}: {type(exc).__name__}: {exc}")
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - t0)
        timed_wall += wall[-1]
        if out is not None:
            outputs.append(out)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary(getattr(workload, "trials_run", 0))
        layers["trace.items_per_s"] = len(cpu) / sum(cpu)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.save(args.spans)
    problems = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "attempted": len(cpu),
        "failed": len(errors),
        "correct": not problems,
        "problems": (errors + problems)[:20],
        "items_per_s": len(cpu) / sum(cpu),
        "item_p50_s": statistics.median(cpu),
        "wall_items_per_s": len(wall) / timed_wall,
        "wall_item_p50_s": statistics.median(wall),
        "timed_wall_s": timed_wall,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "machine": machine_record(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
