#!/usr/bin/env python3
"""Repository benchmark of mobipriv (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the CLIs and the
traced driver into .bench_build, generates the workload's inputs from
--seed into .bench_work, and then:

  --trace 0  times the workload's real CLI command from the outside, over
             and over for --seconds, and prints the end-to-end metrics
             (medians over the repetitions);
  --trace 1  runs the command once more untraced, then the traced replay
             driver over the same inputs, and prints the per-layer
             metrics. The spans go to .bench_out/ as Chrome Trace Event
             JSON.

Every run checks the outputs outside the timed region. The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 1 when a check failed.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# Input worlds per run. Each is set up (setup_s is the median of their
# set-up times) and the repetitions cycle through them in whole rounds, so
# a run's medians average over many generated cities, not one city's
# quirks. Mix-zone cost grows faster than linearly with density, so many
# small worlds vary less from seed to seed than a few large ones.
WORLDS = 6
SHARDS = 8

PUBLISH_MECHANISM = "ours[speed+mix,eps=100m,r=150m,w=600s]"
PUBLISH_EVALUATORS = "poi_attack,certification,spatial_distortion"
GRID_MECHANISMS = ["geo_ind[eps=0.01]", "cloaking", "speed_smoothing"]
GRID_EVALUATORS = "trajectory_stats, range_queries"
CHAIN_PREFIX = "geo_ind[eps=0.05]|downsampling[dt=120]"
CHAIN_LASTS = ["mixzone[r=100m]", "mixzone[r=200m]", "cloaking", "gaussian"]
CHAIN_EVALUATORS = "spatial_distortion, certification, coverage"

# (agents of the generated world, threads) per workload; --scale multiplies
# the agents. Every command pins its thread count, never the ambient 0.
WORKLOADS = {
    "publish": (900, 2),
    "stream_grid_workers": (1600, 2),
    "chain_cache": (1000, 1),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_env(work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOBIPRIV_")}
    env["TMPDIR"] = work  # engine scratch dirs stay inside the checkout
    return env


def build():
    if not os.path.exists(os.path.join(HERE, "..", "CMakeLists.txt")):
        raise BenchError("perfbench/ is not inside a mobipriv checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "anonymize_csv", "synth_world", "mobipriv_worker",
                  "perfbench_driver"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(step))


class Result:
    """One finished process: wall time, rusage of its tree, outputs."""

    def __init__(self, wall_s, rusage, status, stdout, stderr):
        self.wall_s = wall_s
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0  # KiB on Linux
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.status = status
        self.stdout = stdout
        self.stderr = stderr


def run_timed(argv, work, tag):
    """Runs argv to completion. The clock spans spawn to reap; ru_maxrss
    from wait4 is the largest resident set of the process and the children
    it waited for, i.e. of this command's own tree."""
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(work), file_actions=actions)
    _, wstatus, rusage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return Result(wall, rusage, os.waitstatus_to_exitcode(wstatus), stdout,
                  stderr)


def run_or_fail(argv, work, tag):
    result = run_timed(argv, work, tag)
    if result.status != 0:
        log(result.stderr[-2000:])
        raise BenchError("%s exited with %d: %s" % (tag, result.status,
                                                   " ".join(argv)))
    return result


def write_config(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


class World:
    """One input world of a workload: its set-up, the measured command and
    the output checks, all working in the directory `work`."""

    def __init__(self, name, world_seed, run_seed, scale, work):
        self.name = name
        self.world_seed = world_seed
        self.run_seed = run_seed
        agents, self.threads = WORKLOADS[name]
        self.agents = max(20, int(agents * scale))
        self.scale = scale
        self.work = work
        self.events = 0
        os.makedirs(work)

    def path(self, name):
        return os.path.join(self.work, name)

    # ---- set-up (timed as setup_s) --------------------------------------

    def setup(self):
        run_or_fail([os.path.join(BIN, "synth_world"), "--out",
                     self.path("world"), "--agents", str(self.agents),
                     "--shards", str(SHARDS), "--seed", str(self.world_seed),
                     "--threads", str(self.threads)], self.work, "setup-world")
        if self.name == "stream_grid_workers":
            write_config(self.path("grid.cfg"), [
                "source = " + self.path("world")] + [
                "mechanisms = " + m for m in GRID_MECHANISMS] + [
                "evaluators = " + GRID_EVALUATORS,
                "seeds = %d" % self.run_seed,
                "threads = %d" % self.threads])
        if self.name == "chain_cache":
            raw = self.path("raw.mpc")
            run_or_fail([os.path.join(BIN, "anonymize_csv"), "--input",
                         self.path("world"), "--output", raw,
                         "--mechanism", "identity", "--seed",
                         str(self.run_seed), "--threads", str(self.threads)],
                        self.work, "setup-mpc")
            # Seed the cache with the shared 2-stage prefix only.
            write_config(self.path("seed.cfg"), [
                "source = " + raw,
                "mechanisms = " + CHAIN_PREFIX,
                "evaluators = coverage",
                "seeds = %d" % self.run_seed,
                "threads = %d" % self.threads,
                "cache_dir = " + self.path("cache.seed")])
            run_or_fail([os.path.join(BIN, "anonymize_csv"), "--sweep",
                         self.path("seed.cfg")], self.work, "setup-cache")
            write_config(self.path("chain.cfg"), [
                "source = " + raw] + [
                "mechanisms = %s|%s" % (CHAIN_PREFIX, last)
                for last in CHAIN_LASTS] + [
                "evaluators = " + CHAIN_EVALUATORS,
                "seeds = %d" % self.run_seed,
                "threads = %d" % self.threads,
                "cache_dir = " + self.path("cache")])

    def count_input_events(self):
        world = self.path("world")
        self.events = sum(self.mpc_counts(os.path.join(world, name))[0]
                          for name in os.listdir(world)
                          if name.endswith(".mpc"))

    def mpc_counts(self, path):
        """(events, traces) of a .mpc file, opened through MapColumnar."""
        done = run_or_fail([os.path.join(BIN, "perfbench_driver"), "events",
                            path], self.work, "events")
        events, traces = done.stdout.split()
        return int(events), int(traces)

    # ---- the measured command -------------------------------------------

    def before_each(self):
        """Outside the timed region: the cache goes back to its seeded
        state, so every repetition reads 2 entries and spills 4."""
        if self.name == "chain_cache":
            shutil.rmtree(self.path("cache"), ignore_errors=True)
            shutil.copytree(self.path("cache.seed"), self.path("cache"))

    def command(self, workers=2):
        cli = os.path.join(BIN, "anonymize_csv")
        if self.name == "publish":
            return [cli, "--input", self.path("world"), "--output",
                    self.path("pub.mpc"), "--evaluate", PUBLISH_EVALUATORS,
                    "--mechanism", PUBLISH_MECHANISM, "--threads",
                    str(self.threads), "--seed", str(self.run_seed)]
        if self.name == "chain_cache":
            return [cli, "--sweep", self.path("chain.cfg")]
        return [cli, "--sweep", self.path("grid.cfg"), "--workers",
                str(workers)]

    def run(self):
        self.before_each()
        return run_timed(self.command(), self.work, "run")

    # ---- output checks (outside the timed region) -----------------------

    def report(self, result):
        """(report text that must repeat exactly, row statuses)."""
        if self.name == "publish":
            lines = result.stdout.splitlines()
            start = next((i for i, l in enumerate(lines)
                          if l.startswith("Evaluation (")), None)
            if start is None:
                return "", []
            table = lines[start + 3:]  # header, rule, then rows
            statuses = [row.split(",")[-2].strip() for row in table if row]
            published = [l for l in lines if " published " in l]
            return "\n".join(published + table), statuses
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        return result.stdout, [row.get("status") for row in rows]

    def check(self, result, failures):
        """Checks one repetition; returns (report text, checks attempted)."""
        text, statuses = self.report(result)
        if result.status != 0:
            failures.append("%s exited with %d" % (self.name, result.status))
        if not statuses:
            failures.append("%s printed no report rows" % self.name)
        failures.extend("report row status %r" % s for s in statuses
                        if s != "ok")
        checks = 2 + len(statuses)
        if self.name == "chain_cache":
            checks += 1
            if not re.search(r"\bcache_hits=2 cache_misses=4\b",
                             result.stderr):
                failures.append("cache outcome is not 2 hits / 4 misses: " +
                                result.stderr.strip())
        return text, checks

    def final_checks(self, result, failures, reference):
        """Checks made once per world on its last repetition; returns the
        number of checks attempted."""
        checks = 1
        # The same seed reports the same bytes in every run of this
        # checkout.
        key = "%s/%d/%d/%g" % (self.name, self.world_seed, self.run_seed,
                               self.scale)
        digest = hashlib.sha256(self.report(result)[0].encode()).hexdigest()
        os.makedirs(OUT, exist_ok=True)
        store = os.path.join(OUT, "report-hashes.json")
        known = {}
        if os.path.exists(store):
            with open(store) as f:
                known = json.load(f)
        if known.setdefault(key, digest) != digest:
            failures.append("report of %s differs from an earlier run of "
                            "the same seed" % key)
        with open(store, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)

        if self.name == "publish":
            checks += 1
            match = re.search(r"published (\d+) traces, (\d+) events",
                              result.stdout)
            events, traces = self.mpc_counts(self.path("pub.mpc"))
            if not match or (int(match.group(1)), int(match.group(2))) != (
                    traces, events):
                failures.append("pub.mpc does not re-open with the trace and "
                                "event counts the CLI printed")
        if self.name == "stream_grid_workers" and reference:
            # workers=2 reports what the in-process executor reports: the
            # engine's byte-identity contract across executors.
            checks += 1
            self.before_each()
            in_process = run_or_fail(self.command(workers=0), self.work,
                                     "reference")
            if in_process.stdout != result.stdout:
                failures.append("workers=2 report differs from in-process")
        return checks


def fresh_dir(name, seed):
    work = os.path.join(WORK, "%s-%d" % (name, seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def measure(name, seed, seconds, scale):
    """--trace 0: the end-to-end metrics. Repetitions cycle through WORLDS
    input worlds in whole rounds, so the medians average over inputs."""
    work = fresh_dir(name, seed)
    worlds, setup_times = [], []
    for i in range(WORLDS):
        world = World(name, seed * WORLDS + i, seed, scale,
                         os.path.join(work, "world-%d" % i))
        start = time.perf_counter()
        world.setup()
        setup_times.append(time.perf_counter() - start)
        world.count_input_events()
        worlds.append(world)

    failures, samples, attempted = [], [], 0
    texts = [set() for _ in worlds]
    last = [None] * len(worlds)
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, world in enumerate(worlds):
            result = world.run()
            text, checks = world.check(result, failures)
            attempted += checks
            texts[i].add(text)
            last[i] = result
            samples.append((world, result))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    for i, world in enumerate(worlds):
        attempted += 1 + world.final_checks(last[i], failures, i == 0)
        if len(texts[i]) != 1:
            failures.append("report differs between repetitions of one seed")

    metrics = {
        "wall_s": statistics.median(r.wall_s for _, r in samples),
        "events_per_s": statistics.median(w.events / r.wall_s
                                          for w, r in samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for _, r in samples),
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    log("%s seed=%d: %d rounds, walls %s, cpu %s, setups %s" % (
        name, seed, rounds,
        " ".join("%.3f" % r.wall_s for _, r in samples),
        " ".join("%.3f" % r.cpu_s for _, r in samples),
        " ".join("%.3f" % s for s in setup_times)))
    shutil.rmtree(work, ignore_errors=True)
    return metrics, attempted, failures


def traced(name, seed, scale, declared):
    """--trace 1: the per-layer metrics from the traced replay driver, over
    the first world of the seed."""
    work = fresh_dir(name, seed)
    world = World(name, seed * WORLDS, seed, scale,
                     os.path.join(work, "world-0"))
    world.setup()
    world.count_input_events()
    failures = []
    result = world.run()
    _, attempted = world.check(result, failures)
    attempted += world.final_checks(result, failures, True)

    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "trace-%s-%d.json" % (name, seed))
    driver = run_or_fail([
        os.path.join(BIN, "perfbench_driver"), "trace",
        "--workload", name, "--work", world.work,
        "--world-seed", str(world.world_seed),
        "--run-seed", str(world.run_seed),
        "--agents", str(world.agents), "--shards", str(SHARDS),
        "--threads", str(world.threads), "--mechanism", PUBLISH_MECHANISM,
        "--evaluate", PUBLISH_EVALUATORS, "--spans", spans],
        world.work, "driver")
    replay = json.loads(driver.stdout.strip().splitlines()[-1])
    attempted += replay["checks"] + 1
    failures.extend(replay["failures"])
    with open(spans) as f:
        events = json.load(f).get("traceEvents")
    if not events or not all({"name", "ph", "ts", "dur", "args"} <= set(e)
                             for e in events):
        failures.append("span file is not Chrome Trace Event JSON")

    found = dict(replay["metrics"])
    found["process.cpu_s"] = result.cpu_s
    found["process.cpu_util"] = result.cpu_s / (result.wall_s * world.threads)
    undeclared = sorted(set(found) - set(declared))
    if undeclared:
        raise BenchError("undeclared per-layer metrics: " +
                         ", ".join(undeclared))
    # Layers a workload does not reach report 0 (e.g. cache metrics
    # outside chain_cache).
    metrics = {m: found.get(m, 0.0) for m in declared}
    log("%s seed=%d: spans in %s" % (name, seed, spans))
    shutil.rmtree(work, ignore_errors=True)
    return metrics, attempted, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (one "
                        "JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the world size (for quick checks)")
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_ok = True
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        for name in names:
            if args.trace:
                declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
                metrics, attempted, failures = traced(
                    name, args.seed, args.scale, declared)
            else:
                declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
                metrics, attempted, failures = measure(
                    name, args.seed, args.seconds, args.scale)
            for failure in failures:
                log("perfbench: %s: check failed: %s" % (name, failure))
            all_ok = all_ok and not failures
            print(json.dumps({
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m: {"value": metrics[m], "unit": unit}
                            for m, unit in declared.items()},
            }), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: error:", e)
        return 1
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
