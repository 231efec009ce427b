#!/usr/bin/env python3
"""Compares benchmark result sets, or reports the spread of one.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py DIR

A result set is a directory of records written by perfbench/run.py (one JSON
file per run). Per workload and metric the tool reports the median and the
first and third quartiles (statistics.quantiles(values, n=4)).

With two sets, a wall-clock end-to-end metric whose NEW median is worse than
the BASE median by more than its BENCHMARK.json bound is flagged REGRESSION;
when the BASE spread (quartile distance over median) exceeds the bound the
comparison is UNRESOLVED instead, unless every NEW run beats every BASE run.
Exact fields (modelled values and counts) must be equal across every record
of both sets. With one set, each spread is checked against a third of its
bound, the steadiness target the benchmark is tuned to.

Exit status: 0 when nothing is flagged, 1 otherwise, 2 on a usage error.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name)) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and "workload" in doc and "wall" in doc:
            records.append(doc)
    return records


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / |median|."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def end_to_end_values(records, specs):
    """{workload: {metric: [values]}} over untraced runs."""
    out = {}
    for r in records:
        if r.get("trace"):
            continue
        per = out.setdefault(r["workload"], {})
        for spec in specs:
            entry = r["wall"].get(spec["name"])
            if entry is not None:
                per.setdefault(spec["name"], []).append(entry["value"])
    return out


def exact_mismatches(records):
    """Exact fields that differ between any two records of one workload."""
    seen = {}
    for r in records:
        for name, entry in r.get("exact", {}).items():
            seen.setdefault((r["workload"], name), set()).add(entry["value"])
    return {key: sorted(values) for key, values in seen.items()
            if len(values) > 1}


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (> 0 is worse)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def report_spread(records, specs):
    flagged = 0
    values = end_to_end_values(records, specs)
    print("%-18s %-18s %12s %12s %12s %8s %8s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", ""))
    for workload in sorted(values):
        for spec in specs:
            vals = values[workload].get(spec["name"])
            if not vals:
                continue
            median, q1, q3, spread = summary(vals)
            ok = spread <= spec["bound"] / 3
            flagged += not ok
            print("%-18s %-18s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %s" % (
                workload, spec["name"], median, q1, q3, 100 * spread,
                100 * spec["bound"], "ok" if ok else "UNSTEADY (> bound/3)"))
    return flagged


def report_compare(base, new, specs):
    flagged = 0
    base_values = end_to_end_values(base, specs)
    new_values = end_to_end_values(new, specs)
    print("%-18s %-18s %24s %24s %9s %7s %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse by", "bound", ""))
    for workload in sorted(set(base_values) | set(new_values)):
        for spec in specs:
            b = base_values.get(workload, {}).get(spec["name"])
            n = new_values.get(workload, {}).get(spec["name"])
            if not b or not n:
                print("%-18s %-18s missing from one set: MISSING"
                      % (workload, spec["name"]))
                flagged += 1
                continue
            bm, bq1, bq3, bspread = summary(b)
            nm, nq1, nq3, _ = summary(n)
            worse = worse_by(bm, nm, spec["better"])
            if bspread > spec["bound"]:
                # Too noisy to call unchanged unless NEW wins every pairing.
                all_better = (min(n) > max(b) if spec["better"] == "higher"
                              else max(n) < min(b))
                verdict = "ok" if all_better else "UNRESOLVED"
            elif worse > spec["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            flagged += verdict != "ok"
            print("%-18s %-18s %10.4g [%5.4g, %5.4g] %10.4g [%5.4g, %5.4g] "
                  "%8.2f%% %6.0f%% %s" % (
                      workload, spec["name"], bm, bq1, bq3, nm, nq1, nq3,
                      100 * worse, 100 * spec["bound"], verdict))
    return flagged


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    sets = [load_records(d) for d in argv[1:]]
    if not all(sets):
        print("error: a result set holds no records", file=sys.stderr)
        return 2
    if len(sets) == 1:
        flagged = report_spread(sets[0], specs)
    else:
        flagged = report_compare(sets[0], sets[1], specs)
    mismatches = exact_mismatches([r for s in sets for r in s])
    for (workload, name), values in sorted(mismatches.items()):
        print("%-18s %-30s EXACT MISMATCH: %s" % (workload, name, values))
    flagged += len(mismatches)
    if not mismatches:
        print("exact fields: equal across %d records"
              % sum(len(s) for s in sets))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
