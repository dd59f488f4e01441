"""Run every workload untraced and traced, print all metrics, write one record.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--out BENCH.json]

For each workload, one after another, run.py's measurement runs first
untraced (end-to-end metrics and checks_failed) and then traced
(per-layer metrics). The tracing overhead is the traced wall time of the
timed part minus the untraced one. The record keeps the schema
{machine, versions, layers, e2e} and adds the seed and the overhead; it
is printed, and written to --out when given.
"""

import argparse
import json
import sys

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {"e2e": {}, "layers": {}, "trace_overhead": {}}
    failed = 0
    for name in workloads.WORKLOADS:
        try:
            plain = run.measure(name, args.seed, args.seconds, trace=0)
            traced = run.measure(name, args.seed, args.seconds, trace=1)
        except (run.WorkerFailed, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        checks = {"failed": plain["failed"] + traced["failed"],
                  "attempted": plain["attempted"] + traced["attempted"]}
        record["e2e"][name] = dict(plain["metrics"], checks_failed=checks)
        record["layers"][name] = traced["metrics"]
        record["trace_overhead"][name] = {
            "value": overhead, "unit": "s",
            "share": overhead / plain["metrics"]["wall_s"]["value"],
        }
        failed += plain["failed"] + traced["failed"]

        print("== %s" % name)
        for metric, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print("  %-44s %16.6f %-6s (n=%d)" % (metric, m["value"], m["unit"], len(m["samples"])))
        print("  %-44s %9d of %d runs" % ("checks_failed", checks["failed"], checks["attempted"]))
        for failure in plain["failures"] + traced["failures"]:
            print("  check failed: %s" % failure)
        print("  %-44s %16.6f s      (%+.1f %% of wall_s)"
              % ("trace overhead", overhead, 100.0 * record["trace_overhead"][name]["share"]))
        sys.stdout.flush()

    record = dict(run.provenance(args.seed, plain["blas_threads"]), **record)
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
