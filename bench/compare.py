"""Compare benchmark result sets of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that ``run.py --out`` appends.  Runs are paired
by (workload, seed); run each pair's two sides back to back, alternating
which side goes first.  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints each side's median and quartiles, the
change's wins over the pairs, and a verdict:

- improved: the change wins at least nine tenths of all pairs (ties count
  for neither side), the medians differ by more than the distance between
  the parent's quartiles, and no more items failed than at the parent;
- unresolved: a side's quartile distance, as a share of its median, is
  wider than the metric's bound, and not every change run reads better
  than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no worse: otherwise.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {seed: result}} of the untraced runs in a JSON-lines file."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = \
                    rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, wins, pairs, lower_is_better, bound,
            more_failures):
    """The verdict on one metric from both sides' values."""
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pairs and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1 \
            and sign * (cm - pm) < 0 and not more_failures:
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    return "no worse"


def compare(spec, parent_runs, change_runs):
    lines = []
    for wl in spec["workloads"]:
        name = wl["name"]
        parent = parent_runs.get(name, {})
        change = change_runs.get(name, {})
        if not parent or not change:
            lines.append("%s: missing runs (parent %d, change %d)"
                         % (name, len(parent), len(change)))
            continue
        seeds = sorted(set(parent) & set(change))
        failed_p = sum(r["failed"] for r in parent.values())
        failed_c = sum(r["failed"] for r in change.values())
        lines.append("%s: %d parent runs, %d change runs, %d pairs; "
                     "failed items %d -> %d"
                     % (name, len(parent), len(change), len(seeds),
                        failed_p, failed_c))
        for metric in spec["end_to_end"]:
            m = metric["name"]
            pv = [r["metrics"][m]["value"] for r in parent.values()]
            cv = [r["metrics"][m]["value"] for r in change.values()]
            lower = metric["better"] == "lower"
            sign = 1 if lower else -1
            wins = sum(1 for s in seeds
                       if sign * (change[s]["metrics"][m]["value"]
                                  - parent[s]["metrics"][m]["value"]) < 0)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            lines.append(
                "  %-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] "
                "%s  wins %d/%d  %s"
                % (m, pm, p1, p3, cm, c1, c3, metric["unit"], wins,
                   len(seeds),
                   verdict(pv, cv, wins, len(seeds), lower, metric["bound"],
                           failed_c > failed_p)))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="JSON lines of the parent's runs")
    parser.add_argument("change", help="JSON lines of the change's runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(compare(spec, load(args.parent), load(args.change)))


if __name__ == "__main__":
    main()
