#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of map-read, map-update, sim-oversub.  The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
BENCHMARK.json names them: the benchmark executable reports the
metrics its layers produce, and this script lays them out in that
file's order, each with the unit it names.  An untraced run is split
over FORKS processes run one after another; each metric is the median
of theirs.  A per-layer metric whose
layer the workload does not exercise reads 0 and prints as n/a.

Extra flags, passed through to the benchmark executable:
    --quick          shortened run (used by selftest.py)
    --tracker NAME   tracker other than 2GEIBR (the negative test)

The exit code is 0 only if the build succeeded and every output check
passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("map-read", "map-update", "sim-oversub")
RUN_TIMEOUT_S = 175
# Untraced runs are split over this many processes, one after another,
# each measuring --seconds / FORKS; each metric is the median of theirs.
# A process's speed also depends on where its memory landed (on a
# 2-vCPU Xeon virtual machine the same input moved by ~8% between
# processes), which one process would carry whole into every figure.
FORKS = 5


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def wanted_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json names for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(x["name"], x["unit"]) for x in bench[key]]


def layout(raw, want, trace, workload):
    """The result in BENCHMARK.json's metric order, or None (with the
    reason on standard error) if the executable's metrics do not match
    the names and units there."""
    got = raw["metrics"]
    names = {name for name, _ in want}
    extra = sorted(set(got) - names)
    if extra:
        print("perfbench: metrics not in BENCHMARK.json: %s" % extra,
              file=sys.stderr)
        return None
    metrics = {}
    for name, unit in want:
        x = got.get(name)
        if x is None and trace:
            print("metric %-36s n/a %s" % (name, unit))
            print("  (%s does not exercise this layer; reported as 0)"
                  % workload)
            x = {"value": 0.0, "unit": unit}
        elif x is None or x["unit"] != unit:
            print("perfbench: metric %s: got %r, BENCHMARK.json wants unit %s"
                  % (name, x, unit), file=sys.stderr)
            return None
        else:
            print("metric %-36s %r %s" % (name, x["value"], unit))
        metrics[name] = x
    return dict(raw, metrics=metrics)


def no_aslr_prefix():
    """Run the benchmark with address-space randomization off when the
    system allows it: with it on, the single-threaded workloads' speed
    moved by up to ~12% between processes with the same input, with it
    off by ~4%.  setarch execs the benchmark in place."""
    arch = os.uname().machine
    try:
        probe = subprocess.run(["setarch", arch, "-R", "true"],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    except OSError:
        return []
    return ["setarch", arch, "-R"] if probe.returncode == 0 else []


def run_fork(cmd, deadline):
    """Run the benchmark executable once, echoing its human-readable
    lines.  Returns (its JSON result, exit code), or (None, code) if it
    printed no result or ran past the deadline."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return None, 1
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        print("perfbench: no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return None, proc.returncode


def combine(raws):
    """One result from the forks': every check of every fork counts, and
    each metric is the median of the forks' values."""
    metrics = {}
    for name, x in raws[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in raws
                  if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(values),
                         "unit": x["unit"]}
    return {
        "correct": all(r["correct"] for r in raws),
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--tracker")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = no_aslr_prefix() + [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.tracker:
        cmd += ["--tracker", args.tracker]
    want = wanted_metrics(args.trace)
    forks = 1 if args.trace or args.quick else FORKS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(forks):
        fork_cmd = list(cmd)
        fork_cmd[fork_cmd.index("--seconds") + 1] = repr(args.seconds / forks)
        if forks > 1:
            print("fork %d of %d" % (i + 1, forks))
        raw, code = run_fork(fork_cmd, deadline)
        if raw is None:
            return code or 1
        results.append((raw, code))
    raw = combine([r for r, _ in results])
    result = layout(raw, want, args.trace, args.workload)
    if result is None:
        return 1
    print(json.dumps(result))
    return max(code for _, code in results)


if __name__ == "__main__":
    sys.exit(main())
