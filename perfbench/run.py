"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_n64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. Each repetition is a fresh process (perfbench/worker.py), started
one after another: imports, set-up from the seed, then the timed part.
Repetitions continue until the timed parts add up to --seconds; then
set-up-only processes are added until set-up has been measured three
times. Processes are single-threaded, the BLAS pool included; its size is
recorded in the provenance line.

With --trace 0 the metrics are the end-to-end ones, medians over the
repetitions: wall_s and cpu_s of the timed part, peak_rss_mb of the
process, setup_s from process start to inputs ready. With --trace 1 every
process is traced and the metrics are the per-layer ones (spans.py),
medians over the repetitions, covering set-up plus one timed part;
trace.wall_s is the traced timed part, so its difference from wall_s is
the tracing overhead. A repetition whose output checks fail counts in
`failed`. The last line of output is one JSON object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
# A one-thread BLAS pool: on a shared 2-core machine a two-thread pool
# spends about half again as much CPU for a tenth less wall time, and its
# spin-waits amplify interference from other load into run-to-run spread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = dict(
    {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}, **{"trace.wall_s": "s"}
)


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, trace, setup_only, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("%s did not finish within %.0f s" % (workload, timeout)) from exc
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited with %d:\n%s" % (workload, proc.returncode, proc.stderr))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - spawned
    return record


def measure(workload, seed, seconds, trace):
    """Run the repetitions of one workload; returns the aggregated result."""
    workloads.validate(workloads.WORKLOADS[workload])
    start = time.monotonic()
    timed, setups = [], []
    while not timed or sum(r["wall_s"] for r in timed) < seconds:
        timed.append(_worker(workload, seed, trace, False, DEADLINE_S - (time.monotonic() - start)))
        setups.append(timed[-1]["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        rec = _worker(workload, seed, trace, True, DEADLINE_S - (time.monotonic() - start))
        setups.append(rec["setup_s"])

    if trace:
        units = PER_LAYER_UNITS
        samples = {name: [r["layers"][name] for r in timed] for name in units}
    else:
        units = END_TO_END_UNITS
        samples = {name: [r[name] for r in timed] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setups
    failures = [f for r in timed for f in r["failed"]]
    return {
        "workload": workload,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": units[name],
                   "samples": samples[name]}
            for name in units
        },
        "attempted": len(timed),
        "failed": sum(1 for r in timed if r["failed"]),
        "failures": failures,
        "values": timed[0]["values"],
        "blas_threads": timed[0]["blas_threads"],
    }


def _git_rev():
    # read .git directly: the checkout may not be a repository, and git
    # would search the directories above it
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def provenance(seed, blas_threads):
    import numpy
    import scipy

    return {
        "machine": {
            "node": platform.node(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_rev": _git_rev(),
        },
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (WorkerFailed, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("provenance %s" % json.dumps(provenance(args.seed, res["blas_threads"])))
    for name, m in res["metrics"].items():
        print("%-44s %16.6f %-6s (median of %d)" % (name, m["value"], m["unit"], len(m["samples"])))
    print("checks_failed %d of %d" % (res["failed"], res["attempted"]))
    print("values %s" % json.dumps(res["values"]))
    for failure in res["failures"]:
        print("  check failed: %s" % failure)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
