#!/usr/bin/env python3
"""Checks docs/perf_trajectory.json, the committed history of perf claims.

Each entry records one perf change measured with alternating parent/change
pairs of perfbench runs: the claim, the protocol, the seeds per workload,
and per workload and metric the parent's and the change's median with
quartiles. Exits non-zero, naming the first problem, if a required key is
missing or a value is malformed.

Usage: python3 tools/check_perf_trajectory.py [path]
"""

import json
import sys

ENTRY_KEYS = ("pr", "title", "claim", "protocol", "host", "seeds", "results")
CLAIM_KEYS = ("workload", "metric", "better")
SIDE_KEYS = ("median", "q1", "q3")


def fail(msg):
    print(f"perf trajectory: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_side(where, side):
    if not isinstance(side, dict):
        fail(f"{where}: expected an object")
    for key in SIDE_KEYS:
        if not is_number(side.get(key)):
            fail(f"{where}: '{key}' missing or not a number")
    if not side["q1"] <= side["median"] <= side["q3"]:
        fail(f"{where}: quartiles do not bracket the median")


def check_entry(i, entry):
    where = f"entry {i}"
    if not isinstance(entry, dict):
        fail(f"{where}: expected an object")
    for key in ENTRY_KEYS:
        if key not in entry:
            fail(f"{where}: missing '{key}'")
    where = f"PR {entry['pr']}"
    if not isinstance(entry["pr"], int):
        fail(f"{where}: 'pr' is not an integer")
    for key in ("title", "protocol", "host"):
        if not isinstance(entry[key], str) or not entry[key]:
            fail(f"{where}: '{key}' is not a non-empty string")
    claim = entry["claim"]
    for key in CLAIM_KEYS:
        if not isinstance(claim.get(key), str):
            fail(f"{where}: claim lacks '{key}'")
    seeds = entry["seeds"]
    results = entry["results"]
    if not isinstance(seeds, dict) or not isinstance(results, dict):
        fail(f"{where}: 'seeds' and 'results' must be objects")
    if set(seeds) != set(results):
        fail(f"{where}: 'seeds' and 'results' name different workloads")
    for workload, metrics in results.items():
        if (not isinstance(seeds[workload], list) or not seeds[workload]
                or not all(isinstance(s, int) for s in seeds[workload])):
            fail(f"{where}: seeds of {workload} are not a list of integers")
        if not isinstance(metrics, dict) or not metrics:
            fail(f"{where}: {workload} has no metrics")
        for metric, row in metrics.items():
            for side in ("parent", "change"):
                check_side(f"{where} {workload} {metric} {side}",
                           row.get(side))
            pairs = row.get("pairs")
            wins = row.get("wins")
            if not isinstance(pairs, int) or pairs != len(seeds[workload]):
                fail(f"{where} {workload} {metric}: 'pairs' is not the "
                     "number of seeds")
            if wins is not None and not (isinstance(wins, int)
                                         and 0 <= wins <= pairs):
                fail(f"{where} {workload} {metric}: bad 'wins'")
    if claim["metric"] not in results.get(claim["workload"], {}):
        fail(f"{where}: the claimed metric has no result")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "docs/perf_trajectory.json"
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        fail("no 'entries' list")
    for i, entry in enumerate(entries):
        check_entry(i, entry)
    prs = [e["pr"] for e in entries]
    if prs != sorted(set(prs)):
        fail("entries are not in increasing PR order, one per PR")
    print(f"perf trajectory: {len(entries)} entries OK ({path})")


if __name__ == "__main__":
    main()
