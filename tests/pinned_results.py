#!/usr/bin/env python3
"""Pinned results of every router microarchitecture and of the shipped
configs.

    python3 tests/pinned_results.py SUPERSIM GOLDEN_JSON [--record]

Runs SUPERSIM on small generated HyperX configs, with input-queued and
input-output-queued routers, over every combination of flow control
(flit_buffer, packet_buffer, winner_take_all), switch-allocation arbiter
and VC-allocation arbiter (round_robin, age, lru, fixed_priority,
random). One more config per architecture and policy has more than 64
input VCs per router (ports x VCs), so arbiter requests span several
64-bit words. The end-to-end benchmark only runs round-robin arbiters;
these cases pin everything it does not reach.

Further cases pin the output-queued router with multi-flit packets
(finite and infinite output queues, with and without core speedup), the
input-output-queued router with core speedup, and every run config
shipped in configs/ as it is. Two cases sample observability every tick
(torus_quickstart as shipped and a small input-queued HyperX), so a
collector sample lands on the final tick and `events_executed` pins the
rule that a serial run stops as soon as no foreground event is pending.

Each case's result is SUPERSIM's --json output without the host-side
`engine` block and the build `version`, dumped with sorted keys; its
SHA-256 is compared with GOLDEN_JSON. --record rewrites GOLDEN_JSON
from SUPERSIM instead. Exits 1 on any mismatch.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
SHIPPED = ["clos_latent_congestion", "dragonfly_allreduce",
           "fb_credit_accounting", "torus_allreduce", "torus_flow_control",
           "torus_linkfail", "torus_quickstart"]
FLOW_CONTROLS = ["flit_buffer", "packet_buffer", "winner_take_all"]
POLICIES = ["round_robin", "age", "lru", "fixed_priority", "random"]
ARCHITECTURES = ["input_queued", "input_output_queued"]
OBSERVE_EVERY_TICK = ["observability.enabled=bool=true",
                      "observability.sample_interval=uint=1"]


def hyperx(router, wide=False, clock_period=1):
    """A small adaptive HyperX that keeps its routers contended:
    multi-flit packets (so packet locks matter) and UGAL (so routing has
    several options and random tie-breaks). `wide` gives 6 ports x 12
    VCs = 72 input VCs."""
    return {
        "simulator": {"seed": 5, "time_limit": 20000},
        "network": {
            "topology": "hyperx",
            "widths": [3, 3] if wide else [2, 2],
            "concentration": 2,
            "num_vcs": 12 if wide else 2,
            "clock_period": clock_period,
            "channel_latency": 2,
            "terminal_latency": 1,
            "router": router,
            "routing": {"algorithm": "hyperx_ugal"},
        },
        "workload": {
            "applications": [
                {
                    "type": "blast",
                    "injection_rate": 0.45,
                    "message_size": 8,
                    "max_packet_size": 4,
                    "warmup_duration": 300,
                    "sample_duration": 1000,
                    "traffic": {"type": "uniform_random"},
                }
            ]
        },
    }


def sensor(pools):
    return {"type": "credit", "latency": 1, "granularity": "vc",
            "pools": pools}


def config(arch, flow_control, sa_policy, vca_policy, wide=False,
           speedup=1):
    """An input-queued or input-output-queued router with a credit
    sensor, so VC allocation has several options. A `speedup` above 1
    also sets the channel clock period to it, which it must divide."""
    router = {
        "architecture": arch,
        "input_buffer_size": 8,
        "crossbar_latency": 1,
        "crossbar_scheduler": {
            "flow_control": flow_control,
            "arbiter": {"type": sa_policy},
        },
        "vc_allocator": {"arbiter": {"type": vca_policy}},
        "congestion_sensor": sensor("downstream"),
    }
    if arch == "input_output_queued":
        router["output_buffer_size"] = 8
    if speedup > 1:
        router["speedup"] = speedup
    return hyperx(router, wide, clock_period=speedup)


def oq_config(output_buffer_size, speedup):
    """The output-queued router: multi-flit packets hold the wormhole
    output lock across flits, and the sensor counts output-queue and
    downstream occupancy. Clock period 2 lets speedup 2 divide it;
    output_buffer_size 0 means infinite output queues."""
    return hyperx({
        "architecture": "output_queued",
        "input_buffer_size": 8,
        "output_buffer_size": output_buffer_size,
        "speedup": speedup,
        "congestion_sensor": sensor("both"),
    }, clock_period=2)


def cases():
    """Yields (name, config, command-line overrides)."""
    for arch in ARCHITECTURES:
        for fc in FLOW_CONTROLS:
            for sa in POLICIES:
                for vca in POLICIES:
                    yield f"{arch}/{fc}/sa_{sa}/vca_{vca}", config(
                        arch, fc, sa, vca), []
        for policy in POLICIES:
            yield f"{arch}/wide/{policy}", config(
                arch, "flit_buffer", policy, policy, wide=True), []
    for size in [0, 8]:
        for speedup in [1, 2]:
            yield (f"output_queued/output_buffer_{size}/speedup_{speedup}",
                   oq_config(size, speedup), [])
    yield "input_output_queued/speedup_2", config(
        "input_output_queued", "flit_buffer", "round_robin", "round_robin",
        speedup=2), []
    for name in SHIPPED:
        yield f"configs/{name}", os.path.join(CONFIGS, f"{name}.json"), []
    yield ("observability/configs/torus_quickstart",
           os.path.join(CONFIGS, "torus_quickstart.json"),
           OBSERVE_EVERY_TICK)
    yield ("observability/input_queued", config(
        "input_queued", "flit_buffer", "round_robin", "round_robin"),
           OBSERVE_EVERY_TICK)


def digest(supersim, cfg, overrides, workdir):
    """`cfg` is a config dict or the path of a config file; `overrides`
    are `key=type=value` arguments applied on top of it."""
    cfg_path = cfg
    if isinstance(cfg, dict):
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
    out_path = os.path.join(workdir, "result.json")
    subprocess.run([supersim, cfg_path, f"--json={out_path}", *overrides],
                   check=True, stdout=subprocess.DEVNULL, cwd=workdir)
    with open(out_path) as f:
        result = json.load(f)
    result.pop("engine")
    result.pop("version")
    canonical = json.dumps(result, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("supersim")
    parser.add_argument("golden")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    supersim = os.path.abspath(args.supersim)

    with tempfile.TemporaryDirectory() as workdir:
        results = {name: digest(supersim, cfg, overrides, workdir)
                   for name, cfg, overrides in cases()}
    if args.record:
        with open(args.golden, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {len(results)} cases to {args.golden}")
        return 0

    with open(args.golden) as f:
        golden = json.load(f)
    names = sorted(set(results) | set(golden))
    failed = [n for n in names if results.get(n) != golden.get(n)]
    for name in failed:
        print(f"MISMATCH {name}: got {results.get(name)}, "
              f"pinned {golden.get(name)}")
    print(f"{len(names) - len(failed)}/{len(names)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
