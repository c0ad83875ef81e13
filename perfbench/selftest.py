#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root (builds the benchmark binary first if needed):

    python3 perfbench/selftest.py

For every workload it runs the benchmark binary twice untraced and twice traced with
the same seed, then checks that:
  * each run exits 0 with a last stdout line holding exactly the keys
    correct / attempted / failed / metrics, correct == true, failed == 0;
  * the untraced metrics are exactly BENCHMARK.json's end_to_end list and
    the traced ones its per_layer list, each with the declared unit;
  * deterministic counts repeat exactly across the two runs;
  * the stated predictions hold: core.build_calls == 0 on serve, and the
    transport.* metrics are nonzero only on dist.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"
DETERMINISTIC = {
    "0": ["rounds_per_request", "messages_per_request"],
    "1": ["core.block_max", "core.congestion_max", "core.build_calls",
          "cache.hits", "cache.misses", "sim.rounds", "sim.messages",
          "programs.phases", "programs.aggregations",
          "transport.wire_records", "transport.rounds_exchanged"],
}


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "1", "--trace", trace,
           "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail("%s trace=%s exited %d:\n%s%s" % (workload, trace,
                                              done.returncode, done.stdout,
                                              done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: unexpected result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%s: %d of %d requests failed" %
             (workload, trace, result["failed"], result["attempted"]))
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            first, second = run(workload, trace), run(workload, trace)
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in first.items()}
            if got != want:
                fail("%s trace=%s: metrics/units %s, BENCHMARK.json says %s" %
                     (workload, trace, got, want))
            for name in DETERMINISTIC[trace]:
                a, b = first[name]["value"], second[name]["value"]
                if a != b:
                    fail("%s: %s is %r then %r with the same seed" %
                         (workload, name, a, b))
            if trace == "1":
                if workload == "serve" and first["core.build_calls"]["value"]:
                    fail("serve built shortcuts after warm-up")
                transport = [v["value"] for k, v in first.items()
                             if k.startswith("transport.")
                             and k != "transport.retransmits"
                             and k != "transport.retransmit_ratio"]
                ok = (all(v > 0 for v in transport) if workload == "dist"
                      else all(v == 0 for v in transport))
                if not ok:
                    fail("%s: transport.* values %s" % (workload, transport))
            print("selftest: %s trace=%s ok" % (workload, trace), flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
