#!/usr/bin/env python3
"""Gate bench_des_core results against a committed baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--tolerance 0.25]

Both files are google-benchmark JSON (--benchmark_out=...
--benchmark_out_format=json). Every benchmark rate is normalized by the
BM_CalibrationSpin rate measured in the *same* file, so absolute machine
speed cancels out and slow CI runners agree with fast workstations. The
gate fails only when a normalized rate drops more than --tolerance below
the baseline; improvements never fail.

It also prints each file's host context (`num_cpus`, and the
google-benchmark `library_build_type`) and warns when they differ: the
calibration cancels clock speed, not a different core count or a
differently built benchmark library, so such a comparison is weaker.
The warning never changes the verdict.

To re-baseline after an intentional engine change, see README.md
("Performance regression gate").
"""

import argparse
import json
import statistics
import sys

CALIBRATION = "BM_CalibrationSpin"
# google-benchmark context fields that say which host and build ran it.
HOST_FIELDS = ("num_cpus", "library_build_type")


def load_run(path):
    """Returns ({host field: value}, {benchmark name: median
    items_per_second}) for a run."""
    with open(path) as f:
        data = json.load(f)
    context = data.get("context", {})
    host = {field: context.get(field, "unknown") for field in HOST_FIELDS}
    samples = {}
    for bench in data["benchmarks"]:
        # Skip mean/median/stddev aggregate rows; collect raw repetitions.
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        samples.setdefault(bench["name"], []).append(rate)
    return host, {name: statistics.median(rates)
                  for name, rates in samples.items()}


def report_hosts(base_host, curr_host):
    """Prints both runs' host context; warns about fields that differ."""
    for label, host in (("baseline", base_host), ("current", curr_host)):
        print(f"{label} host: " +
              ", ".join(f"{field} {host[field]}" for field in HOST_FIELDS))
    differing = [f"{field} {base_host[field]} vs {curr_host[field]}"
                 for field in HOST_FIELDS
                 if base_host[field] != curr_host[field]]
    if differing:
        print("warning: baseline and current ran on different hosts or "
              "builds (" + "; ".join(differing) + "); the calibration "
              "does not cancel that, so read the gate with care")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args()

    base_host, base = load_run(args.baseline)
    curr_host, curr = load_run(args.current)
    report_hosts(base_host, curr_host)

    for name, rates in ((args.baseline, base), (args.current, curr)):
        if CALIBRATION not in rates:
            sys.exit(f"error: {name} has no {CALIBRATION} entry; "
                     "run with a filter that includes it")

    base_cal = base[CALIBRATION]
    curr_cal = curr[CALIBRATION]
    print(f"calibration: baseline {base_cal:.3e}/s, "
          f"current {curr_cal:.3e}/s "
          f"(machine speed ratio {curr_cal / base_cal:.2f}x)")

    failures = []
    width = max((len(n) for n in base), default=10)
    for name in sorted(base):
        if name == CALIBRATION:
            continue
        if name not in curr:
            failures.append(f"{name}: missing from current run")
            continue
        normalized = (curr[name] / curr_cal) / (base[name] / base_cal)
        status = "ok"
        if normalized < 1.0 - args.tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {normalized:.2f}x of baseline "
                f"(tolerance {1.0 - args.tolerance:.2f}x)")
        print(f"  {name:<{width}}  base {base[name]:.3e}/s  "
              f"curr {curr[name]:.3e}/s  normalized {normalized:.2f}x  "
              f"{status}")

    if failures:
        print("\nperformance gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nperformance gate passed")


if __name__ == "__main__":
    main()
