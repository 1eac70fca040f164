#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload in BENCHMARK.json, in quick mode, untraced and
   traced.  Each run must pass its checks and print, as its last line,
   a JSON object with exactly the keys correct/attempted/failed/metrics
   whose metrics are exactly the end-to-end (untraced) or per-layer
   (traced) metrics named in BENCHMARK.json, each with its unit and a
   finite value; every end-to-end value must be nonzero.  The traced
   map runs must show the workloads differ as stated: map-read makes
   >= 2x map-update's Prim reads per operation, map-update >= 5x
   map-read's sweeps per operation.
2. Negative: map-update under the unsound UnsafeFree tracker must fail
   its fault check, exit nonzero and report correct=false.  This shows
   the checks are not vacuous.
3. Bare directory: in a directory holding only BENCHMARK.json and the
   benchmark's own files, the benchmark must exit nonzero without
   printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL " + msg, flush=True)


def run(args, cwd=ROOT, timeout=170):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def last_json(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(bench):
    """Returns the traced runs' per-layer metrics by workload."""
    layers = {}
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s --trace %d" % (w["name"], trace)
            code, lines, err = run(["--workload", w["name"], "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--quick"])
            res = last_json(lines)
            if code != 0 or res is None:
                fail("%s: exit %d, no result\n%s" % (name, code, err[-2000:]))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (name, sorted(res)))
            if res["correct"] is not True or res["attempted"] < 1:
                fail("%s: correct=%s attempted=%s" %
                     (name, res["correct"], res["attempted"]))
            want = {x["name"]: x["unit"] for x in bench[key]}
            got = res["metrics"]
            if set(got) != set(want):
                fail("%s: metrics differ: missing %s, extra %s" %
                     (name, sorted(set(want) - set(got)),
                      sorted(set(got) - set(want))))
            for mname, unit in want.items():
                v = got.get(mname)
                if v is None:
                    continue
                if v.get("unit") != unit:
                    fail("%s: %s unit %r, want %r" %
                         (name, mname, v.get("unit"), unit))
                val = v.get("value")
                if not isinstance(val, (int, float)) or not math.isfinite(val):
                    fail("%s: %s value %r" % (name, mname, val))
                elif trace == 0 and val == 0:
                    fail("%s: end-to-end metric %s is 0" % (name, mname))
                printed = [l for l in lines if l.startswith("metric ")
                           and l.split()[1] == mname]
                if not printed or not printed[0].endswith(" " + unit):
                    fail("%s: no 'metric %s ... %s' line" % (name, mname, unit))
            print("ok   smoke %s (%d metrics)" % (name, len(got)), flush=True)
            if trace == 1:
                layers[w["name"]] = {k: v["value"] for k, v in got.items()}
    return layers


def workloads_differ(layers):
    """The map workloads stress different layers, as BENCHMARK.json
    says: map-read makes at least 2x the Prim reads per operation of
    map-update, and map-update at least 5x the sweeps per operation."""
    rd, up = layers.get("map-read"), layers.get("map-update")
    if rd is None or up is None:
        fail("workloads differ: traced map runs missing")
        return
    reads = lambda l: l["prim.reads_per_op"] + l["prim.hot_reads_per_op"]
    sweeps = lambda l: l["reclaimer.sweeps_per_kop"]
    ok = (reads(rd) >= 2 * reads(up) and sweeps(up) >= 5 * sweeps(rd))
    msg = ("reads/op %.2f vs %.2f, sweeps/kop %.3f vs %.3f"
           % (reads(rd), reads(up), sweeps(up), sweeps(rd)))
    if ok:
        print("ok   workloads differ: " + msg, flush=True)
    else:
        fail("workloads differ: " + msg)


def negative():
    code, lines, err = run(["--workload", "map-update", "--seed", "7",
                            "--seconds", "3", "--trace", "0",
                            "--tracker", "UnsafeFree"])
    res = last_json(lines)
    fault_line = [l for l in lines if l.startswith("check faults")]
    if code == 0:
        fail("negative: UnsafeFree run exited 0")
    elif res is None or res["correct"] is not False or res["failed"] < 1:
        fail("negative: UnsafeFree result %r" % (res,))
    elif not fault_line or "FAIL" not in fault_line[0]:
        fail("negative: fault check did not fail: %r" % (fault_line,))
    else:
        print("ok   negative: %s" % fault_line[0], flush=True)


def bare():
    d = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
    shutil.copytree(HERE, os.path.join(d, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    code, lines, _ = run(["--workload", "map-read", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=d)
    shutil.rmtree(d, ignore_errors=True)
    if code == 0 or last_json(lines) is not None:
        fail("bare directory: exit %d, result %r" % (code, last_json(lines)))
    else:
        print("ok   bare directory: exit %d, no result" % code, flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads_differ(smoke(bench))
    negative()
    bare()
    if failures:
        print("%d failure(s)" % len(failures))
        return 1
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
