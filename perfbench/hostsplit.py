"""Per-module split of sampled host time.

The harness samples program counters with SIGPROF during
Simulation::run() and reports them as offsets into its own executable.
This module symbolizes them against the executable's symbol table
(`nm`, no extra build flags), maps each function to the src/ module that
defines its class or namespace, and groups the modules into the layers
the benchmark reports.
"""

import bisect
import os
import re
import subprocess

# src/ module -> reported layer. Modules not listed (json, sim, obs,
# power, fault, tools, campaign), the harness itself and shared libraries
# (malloc, memmove, pthread) count as "other".
LAYERS = {
    "core": "core",
    "rng": "core",
    "router": "router",
    "allocator": "router",
    "arbiter": "router",
    "routing": "routing",
    "congestion": "routing",
    "network": "network",
    "topology": "network",
    "types": "network",
    "workload": "workload",
    "collective": "workload",
    "stats": "workload",
    "traffic": "workload",
}
LAYER_NAMES = ["core", "router", "routing", "network", "workload", "other"]

_DEFINITION = re.compile(r"^\s*(?:class|struct)\s+(?:alignas\(\w+\)\s+)?(\w+)"
                         r"(?:\s+final)?\s*(?::[^;]*)?(?:\{|$)", re.M)
_SCOPED = re.compile(r"\bss::((?:\w+::)*\w+)")


def module_map(src_dir):
    """Class/struct name or namespace name -> the src/ module defining
    it. Namespaces named after a module (ss::obs, ss::power) map to it."""
    names = {}
    for module in sorted(os.listdir(src_dir)):
        path = os.path.join(src_dir, module)
        if not os.path.isdir(path):
            continue
        names.setdefault(module, module)
        for filename in sorted(os.listdir(path)):
            if not filename.endswith((".h", ".cc")):
                continue
            with open(os.path.join(path, filename), encoding="utf-8") as f:
                for match in _DEFINITION.finditer(f.read()):
                    names.setdefault(match.group(1), module)
    return names


def load_symbols(exe):
    """Sorted (address, size, demangled name) of the executable's
    functions."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", exe],
                         check=True, capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            symbols.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    symbols.sort()
    return symbols


def _owner(name, names):
    """The module of the first ss:: scope in `name` that names a known
    class or module namespace."""
    name = name.replace("(anonymous namespace)::", "")
    if name.startswith("ss::Simulator::schedule") and \
            "{lambda(void*, void*)" in name:
        # A pooled-event trampoline inlines the scheduled handler: charge
        # it to the class named in the template argument.
        inner = _owner(name[name.index("<") + 1:], names)
        if inner is not None:
            return inner
    for match in _SCOPED.finditer(name):
        for part in match.group(1).split("::"):
            if part in names:
                return names[part]
    return None


def split(profile, exe, src_dir):
    """Layer -> share of all samples, plus the top functions."""
    names = module_map(src_dir)
    symbols = load_symbols(exe)
    starts = [s[0] for s in symbols]
    counts = {layer: 0 for layer in LAYER_NAMES}
    functions = {}
    total = sum(profile["objects"].values())
    counts["other"] += total
    for offset_hex, n in profile["exe"].items():
        offset = int(offset_hex, 16)
        total += n
        i = bisect.bisect_right(starts, offset) - 1
        function = None
        if i >= 0 and offset < symbols[i][0] + max(symbols[i][1], 1):
            function = symbols[i][2]
        module = _owner(function, names) if function else None
        counts[LAYERS.get(module, "other")] += n
        key = function or "?"
        functions[key] = functions.get(key, 0) + n
    shares = {layer: (c / total if total else 0.0)
              for layer, c in counts.items()}
    top = sorted(functions.items(), key=lambda kv: -kv[1])[:15]
    return shares, [{"function": f, "samples": n} for f, n in top]
