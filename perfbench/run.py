#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload churn|serve|rollout \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs the determinism gate (the
workload's fixed warm-up, twice, in two processes at one domain), then
the measured run.  The human-readable report goes to standard output and
the last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Exits 0 when every output check, self-test and
determinism comparison passes, 1 when one fails, 2 on a usage or build
error.  See perfbench/NOTES.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORK = os.path.join("perfbench", "_work")
WORKLOADS = ("churn", "serve", "rollout")

# Warm-up counts that must not depend on the domain count or the clock.
# Heap words and publishes are compared between the two gate runs only:
# the measured run allocates differently and counts publishes only while
# traced.
PREFIX_KEYS = ("windows", "cycles", "rollouts", "applied", "rounds",
               "tcam_ops", "probe_misses", "lookup_misses")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    return a


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the root of a full checkout (dune-project, lib/ and "
             "perfbench/ must be present)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    r = subprocess.run(["dune", "build", "--root", ".", BENCH], env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=840)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def bench(args, env, extra, timeout):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("bench.exe did not finish within %d s" % timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("bench.exe exited %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    args = parse_args()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gates = [bench(args, env, ["--trace", "0", "--gate", "--work",
                                   os.path.join(work, "gate-%d" % i)], 170)[1]
                 for i in (1, 2)]
        report, res = bench(args, env, ["--trace", str(args.trace), "--work",
                                        os.path.join(work, "run")],
                            args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    g1, g2, main_counts = gates[0]["counts"], gates[1]["counts"], res["counts"]
    gate_ok = g1 == g2
    prefix = {k: v for k, v in g1.items() if k in PREFIX_KEYS}
    prefix_ok = all(main_counts.get(k) == v for k, v in prefix.items())
    checks_ok = all(res["checks"].values())
    selftests_ok = bool(res["selftests"]) and all(res["selftests"].values())
    correct = (gate_ok and prefix_ok and checks_ok and selftests_ok
               and res["failed"] == 0)

    for line in report:
        print(line)
    print("  determinism gate: two runs at 1 domain %s %s"
          % ("agree" if gate_ok else "DIFFER", json.dumps(g1, sort_keys=True)))
    if not gate_ok:
        print("    second run: " + json.dumps(g2, sort_keys=True))
    print("  warm-up counts of the measured run (%d domain(s)) %s the gate"
          % (res["domains"], "match" if prefix_ok else "DO NOT MATCH"))
    if not prefix_ok:
        print("    measured run: " + json.dumps(main_counts, sort_keys=True))
    print("  attempted %d  failed %d  correct %s"
          % (res["attempted"], res["failed"], correct))

    metrics = res["layers"] if args.trace else res["e2e"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
