#!/usr/bin/env python3
"""Compare benchmark results against a baseline with the bounds declared
in BENCHMARK.json.

    python3 perfbench/gate.py BASE CURRENT

BASE and CURRENT each hold result lines of one workload (the JSON last
lines of several runs).  Every end-to-end metric's median is compared; a
metric regresses when it is worse than the baseline median by more than
its bound, in its declared direction.  Exits 1 on any regression.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def worse_by(metric, base, cur):
    """How much worse [cur] is than [base], as a share of [base]; negative
    when it is better."""
    if metric["better"] == "lower":
        return (cur - base) / base
    return (base - cur) / base


def regressions(spec, base, cur):
    """[base] and [cur] map metric names to values.  Returns the end-to-end
    metrics of [cur] that are worse than [base] beyond their bound, as
    (name, base, cur, worse_by) tuples."""
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in base and name in cur:
            w = worse_by(metric, base[name], cur[name])
            if w > metric["bound"]:
                out.append((name, base[name], cur[name], w))
    return out


def medians(path):
    values = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(vs) for name, vs in values.items()}


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    base, cur = medians(argv[1]), medians(argv[2])
    bad = regressions(spec, base, cur)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in base and name in cur:
            flag = "REGRESSED" if any(b[0] == name for b in bad) else "ok"
            print("%-18s %14.6g -> %14.6g %-8s %+7.1f%% worse (bound %.0f%%) %s" % (
                name, base[name], cur[name], metric["unit"],
                100 * worse_by(metric, base[name], cur[name]), 100 * metric["bound"], flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
