#!/usr/bin/env python3
"""Compare bench results against their committed baselines.

Usage: bench_diff.py BENCH_x.json [BENCH_y.json ...]

Each BENCH_*.json (the schema in bench/support/report.hpp) is matched with
the file of the same name in bench/baselines/.  Metrics are matched by
name and printed as a markdown table: baseline, current, and the change in
percent, signed so that + is better and - is worse by each metric's
"better" direction.  Metrics found on only one side are listed below the
table.  A run whose "config" differs from its baseline's measured a
different workload: the differing keys are listed and no table is
printed.  A file with no baseline is listed as such.

This is a report, not a gate: the exit status is 0 whatever the numbers
say, and non-zero only when a file cannot be read or does not follow the
schema.
"""

import argparse
import json
import math
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(REPO, "bench", "baselines")


class BadFile(Exception):
    pass


def load(path):
    """Returns (document, {metric name: metric}) or raises BadFile."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BadFile(f"{path}: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), list):
        raise BadFile(f"{path}: no 'metrics' list")
    metrics = {}
    for m in doc["metrics"]:
        if (not isinstance(m, dict) or not isinstance(m.get("name"), str)
                or not isinstance(m.get("unit"), str)
                or m.get("better") not in ("higher", "lower")
                or isinstance(m.get("value"), bool)
                or not (m.get("value") is None
                        or isinstance(m.get("value"), (int, float)))):
            raise BadFile(f"{path}: malformed metric {m!r}")
        metrics[m["name"]] = m
    return doc, metrics


def fmt(value):
    return "n/a" if value is None else f"{value:.4g}"


def change(base, cur, better):
    """Percent change, + when the current run is better."""
    if base is None or cur is None or base == 0:
        return "n/a"
    pct = (cur - base) / abs(base) * 100.0
    if better == "lower":
        pct = -pct
    if not math.isfinite(pct):
        return "n/a"
    return "0.0%" if round(pct, 1) == 0 else f"{pct:+.1f}%"


def stamp(doc):
    return (f"commit {doc.get('commit', '?')}, "
            f"{doc.get('build_type', '?')}, "
            f"{doc.get('hardware_threads', '?')} hardware threads")


def config_changes(base, cur):
    """'key: baseline -> current' for every config key that differs."""
    base = base if isinstance(base, dict) else {}
    cur = cur if isinstance(cur, dict) else {}
    return [f"{key}: {json.dumps(base.get(key))} -> {json.dumps(cur.get(key))}"
            for key in sorted(set(base) | set(cur))
            if base.get(key) != cur.get(key)]


def diff(path):
    file_name = os.path.basename(path)
    base_path = os.path.join(BASELINES, file_name)
    cur_doc, cur = load(path)
    print(f"### {file_name}")
    print()
    if not os.path.exists(base_path):
        print("no baseline in bench/baselines/")
        print()
        return
    base_doc, base = load(base_path)
    print(f"- baseline: {stamp(base_doc)}")
    print(f"- current: {stamp(cur_doc)}")
    print()
    changed = config_changes(base_doc.get("config"), cur_doc.get("config"))
    if changed:
        print("config differs from the baseline, so the metrics are not "
              "compared:")
        for line in changed:
            print(f"- {line}")
        print()
        return
    print("| metric | unit | baseline | current | change (+ better) |")
    print("|---|---|---|---|---|")
    for name, m in cur.items():
        if name not in base:
            continue
        b = base[name]
        print(f"| {name} | {m['unit']} | {fmt(b['value'])} | "
              f"{fmt(m['value'])} | {change(b['value'], m['value'], m['better'])} |")
    only_current = [n for n in cur if n not in base]
    only_baseline = [n for n in base if n not in cur]
    if only_current:
        print()
        print("only in current: " + ", ".join(only_current))
    if only_baseline:
        print()
        print("only in baseline: " + ", ".join(only_baseline))
    print()


def main():
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json files with bench/baselines/.")
    parser.add_argument("files", nargs="+", help="BENCH_*.json files")
    args = parser.parse_args()
    status = 0
    for path in args.files:
        try:
            diff(path)
        except BadFile as e:
            print(f"bench_diff: {e}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
