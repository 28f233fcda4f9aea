#!/usr/bin/env python3
"""Merges google-benchmark JSON files row by row, for bench/run_bench.sh.

    merge_bench_json.py rss-rows RUN.json
        prints, one per line, an anchored --benchmark_filter regex for each
        row of RUN.json that records a peak_rss_mb counter.
    merge_bench_json.py merge RUN.json ROW.json... --out OUT.json
        writes RUN.json with each row replaced by the row of the same
        name from a ROW.json (the context and row order of RUN.json are
        kept).

A row's peak_rss_mb is the VmHWM high-water mark since the row reset it,
and the reset cannot go below what is resident already, so a row that
runs after others inherits their leftover heap. Running it alone in a
fresh process gives its own residency.
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def key(row):
    """A row's identity: repetitions and aggregates share a run_name."""
    return row["name"], row.get("repetition_index")


def rss_rows(args):
    seen = set()
    for row in load(args.run)["benchmarks"]:
        if "peak_rss_mb" in row and row["run_name"] not in seen:
            seen.add(row["run_name"])
            print("^%s$" % re.escape(row["run_name"]))


def merge(args):
    run = load(args.run)
    fresh = {}
    for path in args.rows:
        for row in load(path)["benchmarks"]:
            fresh[key(row)] = row
    for i, row in enumerate(run["benchmarks"]):
        run["benchmarks"][i] = fresh.pop(key(row), row)
    if fresh:
        sys.exit("rows not in %s: %s" % (
            args.run, ", ".join(sorted(name for name, _ in fresh))))
    with open(args.out, "w") as f:
        json.dump(run, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("rss-rows")
    p.add_argument("run")
    p.set_defaults(func=rss_rows)
    p = sub.add_parser("merge")
    p.add_argument("run")
    p.add_argument("rows", nargs="*")
    p.add_argument("--out", required=True)
    p.set_defaults(func=merge)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
