#!/usr/bin/env python3
"""End-to-end benchmark of the SuperSim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator library
plus the harness) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), generates the workload's config from the seed, runs the
harness on it and checks every run's simulated results. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 adds a traced run and
reports the per-layer metrics. The full record of a run (host, spans,
counters, profile, checks) is written to <build dir>/results/.

    python3 perfbench/run.py --record-reference SEED [SEED ...]

re-records the stored reference of the given seeds for every workload.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import hostsplit  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
BUILD_TYPE = "Release"
# One invocation must end within 180 s once the harness is built.
HARNESS_TIMEOUT_S = 170
# Seconds of one pass of the harness's calibration kernel on the host
# where the benchmark was built (a 4-vCPU Xeon VM, 2.1 GHz). Host times
# are scaled to this host speed; see host_scales().
CALIBRATION_REFERENCE_S = 0.04


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))


def build():
    """Configures (once) and builds the harness; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_harness",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_harness")


def host_record():
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        git = ""
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "build_type": BUILD_TYPE,
        "git_describe": git or "not a git checkout",
    }


def run_harness(exe, config_path, seconds, traced, variants, deadline,
                min_reps=3):
    cmd = [exe, "--config", config_path, "--seconds", str(seconds),
           "--min-reps", str(min_reps)]
    if traced:
        cmd.append("--traced")
        for variant in variants:
            if variant == "legacy":
                cmd.append("--variant-legacy")
            else:
                cmd += ["--variant-threads", variant.split("_")[1]]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "harness passed the benchmark's time limit"
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        return None, f"harness exited with code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def record_problems(record, name, reference):
    """Why a run's simulated record is wrong; empty if it is right."""
    if record is None:
        return ["no result"]
    problems = []
    if record["saturated"]:
        problems.append("saturated: hit simulator.time_limit")
    if reference is not None:
        if record != reference:
            diff = sorted(k for k in set(record) | set(reference)
                          if record.get(k) != reference.get(k))
            problems.append("differs from the stored reference in "
                            + ", ".join(diff))
        return problems
    expect = workloads.WORKLOADS[name]["expect"]
    if record["latency"]["sampled_messages"] == 0:
        problems.append("no sampled messages")
    if "throughput" in expect and \
            abs(record["throughput"] / expect["throughput"] - 1) > 0.02:
        problems.append(f"throughput {record['throughput']} is not the "
                        f"offered {expect['throughput']}")
    if expect.get("energy") and "energy" not in record:
        problems.append("no energy report")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def executer_median(block):
    return median([r["executer_s"] for r in block["runs"] if r["ok"]])


def host_scales(out, name):
    """How much slower than the reference host each timed repetition
    ran, as a factor on its host times: the mean of the calibration
    kernel's times just before and just after the repetition, relative
    to the kernel's reference time, raised to the workload's measured
    sensitivity (workloads.py). On a shared host the speed of
    memory-bound code drifts by tens of percent within minutes, and the
    kernel drifts with the simulator."""
    calib = out["calibration_s"]
    power = workloads.WORKLOADS[name]["host_sensitivity"]
    return [((calib[i] + calib[i + 1]) / 2 / CALIBRATION_REFERENCE_S)
            ** power for i in range(len(calib) - 1)]


def wall_rate(out):
    """Median simulated ticks per host second of the timed repetitions."""
    return median([r["engine"]["end_tick"] / r["run_s"]
                   for r in out["timed"]["runs"] if r["ok"]])


def end_to_end(out, name):
    scales = host_scales(out, name)
    rates = [r["engine"]["end_tick"] / r["run_s"] * scale
             for r, scale in zip(out["timed"]["runs"], scales) if r["ok"]]
    return {
        "sim_cycles_per_s": (median(rates), "ticks/s"),
        "setup_s": (median(out["setup_s"]) / median(scales), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
    }


def wait_share(run):
    """1 - CPU time / (threads x executer wall time) of one run. The rest
    of Simulation::run() is finalize, taken as single-threaded and busy."""
    executer_cpu = run["cpu_s"] - (run["run_s"] - run["executer_s"])
    return 1 - executer_cpu / (run["engine"]["threads"] * run["executer_s"])


def per_layer(out, exe):
    traced = out["traced"]
    first = traced["runs"][0]
    engine = first["engine"]
    counters = traced["counters"]
    untraced = executer_median(out["timed"])
    traced_s = executer_median(traced)
    variants = out["variants"]
    # The executer layer is measured on the run with the most threads:
    # the multi-thread comparison where the workload has one.
    multi = [v for v in variants.values()
             if v["runs"][0]["engine"]["threads"] > 1]
    sync_run = multi[0]["runs"][0] if multi else first
    speedup = untraced / executer_median(multi[0]) if multi else 1.0
    shares, top = hostsplit.split(traced["profile"], exe,
                                  os.path.join(ROOT, "src"))
    evals = counters.get("pipeline_evals", 0)
    m = {
        "core.events": (engine["events"], "count"),
        "core.events_per_cycle": (engine["events"] / engine["end_tick"],
                                  "events/cycle"),
        "core.ns_per_event": (traced_s * 1e9 / engine["events"], "ns"),
        "core.peak_queue_depth": (engine["peak_queue_depth"], "count"),
        "core.pooled_events_allocated": (engine["pooled_events_allocated"],
                                         "count"),
        "sync.partitions": (sync_run["engine"]["partitions"], "count"),
        "sync.wait_share": (wait_share(sync_run), "ratio"),
        "sync.speedup_vs_1t": (speedup, "ratio"),
        "sync.serial_overhead": (
            untraced / executer_median(variants["legacy"]), "ratio"),
        "router.pipeline_evals": (evals, "count"),
        "router.vca_grants": (counters.get("vca_grants", 0), "count"),
        "router.sa_grants": (counters.get("sa_grants", 0), "count"),
        "router.sa_grants_per_eval": (
            counters.get("sa_grants", 0) / evals if evals else 0.0, "ratio"),
        "routing.nonminimal_fraction": (engine["nonminimal_fraction"],
                                        "ratio"),
        "network.injection_stalls": (counters.get("injection_stalls", 0),
                                     "count"),
        "workload.finalize_s": (first["run_s"] - first["executer_s"], "s"),
        "workload.sampled_messages": (engine["sampled_messages"], "count"),
        "setup.parse_s": (median(out["parse_s"]), "s"),
        "setup.components": (out["timed"]["runs"][0]["engine"]["components"],
                             "count"),
        "trace.overhead": (traced_s / untraced, "ratio"),
        "host.calibration_s": (median(out["calibration_s"]), "s"),
        "host.wall_sim_cycles_per_s": (wall_rate(out), "ticks/s"),
        "profile.samples": (traced["profile"]["samples"], "count"),
    }
    for layer, share in shares.items():
        m[f"{layer}.host_share"] = (share, "ratio")
    return m, top


def run_checks(out, name, reference):
    """(attempted, failed, problems) over every simulation run."""
    problems = []
    wrong = []
    attempted = 0
    failed = 0
    blocks = {"timed": out["timed"], "traced": out.get("traced"),
              **out.get("variants", {})}
    for label, block in blocks.items():
        if block is None:
            continue
        runs = block["runs"]
        attempted += len(runs)
        failed += block["mismatches"]
        if block["mismatches"]:
            problems.append(f"{block['mismatches']} {label} runs differ "
                            f"from the first {label} run")
        for run in runs:
            if not run["ok"]:
                failed += 1
                problems.append(f"{label} run: {run['error']}")
        record = block["record"]
        if record is None:
            continue
        if label == "timed":
            wrong = record_problems(record, name, reference)
        elif record["saturated"]:
            failed += 1
            problems.append(f"{label} run saturated")
        elif label != "legacy" and record != out["timed"]["record"]:
            # The legacy loop may legitimately differ on adaptive configs
            # (DESIGN.md §9); the traced runs and other thread counts may
            # not.
            failed += 1
            problems.append(f"{label} runs' results differ from the timed "
                            "runs'")
    if wrong:
        # Every run gave the timed runs' record or was checked against it.
        failed = attempted
    return attempted, failed, wrong + problems


def record_reference(seeds):
    exe = build()
    reference = load_reference()
    scratch = os.path.join(build_dir(), "configs")
    os.makedirs(scratch, exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in seeds:
            path = os.path.join(scratch, f"{name}-{seed}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(workloads.make_config(name, seed), f)
            out, error = run_harness(exe, path, 0, False, [],
                                     time.monotonic() + HARNESS_TIMEOUT_S,
                                     min_reps=1)
            run = out["timed"]["runs"][0] if out else None
            if error or not run["ok"]:
                sys.exit(f"{name} seed {seed}: {error or run['error']}")
            reference.setdefault(name, {})[str(seed)] = out["timed"]["record"]
            log(f"recorded {name} seed {seed}")
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", type=int, nargs="+",
                        metavar="SEED")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not here; "
                 "run from the root of a full checkout")
    if args.record_reference:
        record_reference(args.record_reference)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2^63)")

    host = host_record()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    deadline = time.monotonic() + HARNESS_TIMEOUT_S

    name = args.workload
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    config_path = os.path.join(results, stem + ".config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(workloads.make_config(name, args.seed), f, indent=1)

    reference = load_reference().get(name, {}).get(str(args.seed))
    out, error = run_harness(exe, config_path, args.seconds,
                             args.trace == 1,
                             workloads.WORKLOADS[name]["variants"], deadline)
    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "host": host,
              "reference": "stored" if reference is not None else "none"}
    metrics = {}
    if error:
        attempted, failed, problems = 1, 1, [error]
    else:
        attempted, failed, problems = run_checks(out, name, reference)
        if failed == 0 and args.trace:
            metrics, report["top_functions"] = per_layer(out, exe)
        elif failed == 0:
            metrics = end_to_end(out, name)
        report["harness"] = out
    correct = failed == 0
    report.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems)
    with open(os.path.join(results, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"workload {name} seed {args.seed}: reference "
          f"{report['reference']}, error_rate "
          f"{failed / attempted:.4f} ({failed}/{attempted} runs failed)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
