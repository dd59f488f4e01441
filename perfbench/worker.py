"""One measured process: imports, set-up, and optionally the timed part.

Started by run.py, never by hand. Prints one JSON line: the monotonic
time at which set-up ended (run.py subtracts its spawn time), and for a
timed run the wall and CPU time of the timed part, the peak resident
memory, the failed output checks, the reference values and, with
--trace 1, the per-layer metrics of set-up plus the timed part.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _blas_threads():
    # numpy's bundled OpenBLAS; None when the build differs
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]

    tracer = spans.Tracer(w.n).install() if args.trace else None
    inputs = workloads.setup(w, args.seed)
    setup_done = time.monotonic()
    record = {"setup_done": setup_done}
    if not args.setup_only:
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = workloads.run_timed(w, inputs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = dict(spans.layer_metrics(tracer), **{"trace.wall_s": wall})
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
        record.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            failed=workloads.check(w, inputs, out, args.seed, reference),
            values=workloads.values(out),
            blas_threads=_blas_threads(),
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
