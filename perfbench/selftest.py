#!/usr/bin/env python3
"""Self-test of the benchmark harness (perfbench/README.md).

    python3 perfbench/selftest.py [--scale 0.1]

Run from the root of a checkout. Checks that:

  * BENCHMARK.json has the declared shape (keys, name and unit syntax,
    bounds, a setup_s metric);
  * on every workload, at a small --scale, run.py exits 0 and prints as
    its last line exactly the keys correct/attempted/failed/metrics, with
    exactly the declared end-to-end metrics (--trace 0) or per-layer
    metrics (--trace 1), each with its declared unit;
  * two traced runs of one seed report identical per-layer counts and
    byte sizes (encounters, swaps, cache hits, streamed_shards, ...);
  * each workload reaches the layers BENCHMARK.json says it exercises;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits nonzero without printing a result.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer counts that must be positive on a workload, and must be 0 on the
# workloads that bypass the layer (the "no change" predictions).
REACHES = {
    "publish": ["mechanisms.mixzone.encounters", "mechanisms.mixzone.swaps_applied",
                "mechanisms.ours.applications", "model.write_bytes"],
    "stream_grid_workers": ["core.engine.streamed_shards",
                            "mechanisms.speed_smoothing.events_in",
                            "core.shard_exec.workers_spawned",
                            "core.shard_exec.result_bytes"],
    "chain_cache": ["core.output_cache.hits", "core.output_cache.misses",
                    "core.output_cache.bytes_written",
                    "core.engine.stage_reuses"],
}
BYPASSES = {
    "publish": ["core.engine.streamed_shards", "core.output_cache.misses",
                "core.shard_exec.workers_spawned"],
    "stream_grid_workers": ["mechanisms.mixzone.encounters",
                            "core.output_cache.hits"],
    "chain_cache": ["core.shard_exec.workers_spawned"],
}


def fail(message):
    print("selftest: FAIL:", message, file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(spec))
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail("workload entry %r" % w)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail("metric name or unit %r" % m)
        if m["name"] in names:
            fail("metric declared twice: " + m["name"])
        names.add(m["name"])
        if m["better"] not in ("lower", "higher"):
            fail("metric better %r" % m)
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail("end-to-end metric %r" % m)
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per-layer metric %r" % m)
    if {"name": "setup_s", "unit": "s", "better": "lower"}.items() - next(
            (m for m in spec["end_to_end"] if m["name"] == "setup_s"),
            {}).items():
        fail("setup_s must be declared with unit s, better lower")


def run(args, cwd=ROOT):
    done = subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return done


def result_of(done, what):
    if done.returncode != 0:
        fail("%s exited %d:\n%s" % (what, done.returncode, done.stderr[-3000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s reported failures: %r" % (what, result))
    return result


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        fail("%s printed %s, BENCHMARK.json declares %s" % (
            what, sorted(set(got) ^ set(declared)) or "other units",
            "those" if set(got) != set(declared) else "these units"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="0.1")
    parser.add_argument("--seed", default="7")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bytes")]

    for w in spec["workloads"]:
        name = w["name"]
        common = ["--workload", name, "--seed", args.seed, "--seconds", "1",
                  "--scale", args.scale]
        check_metrics(result_of(run(common + ["--trace", "0"]), name), e2e,
                      name + " --trace 0")
        traced = []
        for attempt in range(2):
            result = result_of(run(common + ["--trace", "1"]), name)
            check_metrics(result, layer, name + " --trace 1")
            traced.append({k: v["value"] for k, v in result["metrics"].items()})
        for metric in exact:
            if traced[0][metric] != traced[1][metric]:
                fail("%s: %s differs between traced runs (%r, %r)" % (
                    name, metric, traced[0][metric], traced[1][metric]))
        for metric in REACHES.get(name, []):
            if not traced[0][metric] > 0:
                fail("%s does not reach %s" % (name, metric))
        for metric in BYPASSES.get(name, []):
            if traced[0][metric] != 0:
                fail("%s should bypass %s, reads %r" % (
                    name, metric, traced[0][metric]))
        print("selftest: %s ok" % name)

    # Outside a checkout the benchmark must refuse, without a result line.
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("run.py outside a checkout did not refuse")
    print("selftest: bare directory refused")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
