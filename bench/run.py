"""Benchmark of the sponge library: one workload, one seed, one run.

    python3 bench/run.py --workload profile|moran|report --seed N \\
        --seconds S --trace 0|1 [--out results.jsonl]

Runs the workload's items in this process against the package in
``src/`` and checks every output against ``references.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same figures for a reader.  Metric names and units come from
``BENCHMARK.json``.

With ``--trace 0`` the timed phase repeats whole passes over the items
for about ``--seconds`` (at least one pass) and reports the end-to-end
metrics.  Their times are in reference seconds (see ``calibration_s``)
and each is a median: per item over the passes, and for set-up over
several set-ups.  With ``--trace 1`` it alternates untraced and traced
passes (at least two of each) and reports per-layer calls, self time
and work counts of one pass; it checks that every count repeats exactly
across the traced passes and writes the spans of the first traced pass
to ``.bench_out/spans-<workload>.jsonl``.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import TARGETS, Tracer, layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9

# Reference seconds.  The speed of one core of a shared machine changes
# by a third or more within seconds, and every kind of work slows alike,
# so the benchmark runs a fixed calibration loop next to what it times
# and scales each measured time by CALIBRATION_REF_S over the loop's
# time: a time in reference seconds is what the work would take on a
# machine that runs the loop in CALIBRATION_REF_S.  Items are calibrated
# in segments of at least SEGMENT_S of work, each between two loops.
CALIBRATION_REF_S = 0.015
SEGMENT_S = 0.25
_CAL_RNG = random.Random("calibration")
CALIBRATION_POINTS = [(Fraction(_CAL_RNG.randint(0, 999), 1000),
                       Fraction(_CAL_RNG.randint(0, 996), 997))
                      for _ in range(60)]

# A fresh interpreter imports sponge, then runs the workload's warm-up;
# it prints a line when ready, so interpreter teardown is not timed.
SETUP_CHILD = """
import sys
sys.path[:0] = [%r, %r]
import sponge
import workloads
workloads.WORKLOADS[%r].warm_up()
print("ready", flush=True)
"""


def calibration_s():
    """Seconds that the calibration loop takes now: the largest squared
    distance between fixed rational points, in the exact arithmetic that
    sponge uses."""
    pts = CALIBRATION_POINTS
    start = time.perf_counter()
    best = 0
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1:]:
            d = (x1 - x2) ** 2 + (y1 - y2) ** 2
            if d > best:
                best = d
    return time.perf_counter() - start


def measure_setup(name):
    """Reference seconds from starting a fresh interpreter until it has
    imported sponge and run the workload's warm-up; calibrated by the
    loops just before and after it."""
    code = SETUP_CHILD % (str(SRC), str(BENCH), name)
    before = calibration_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up interpreter failed:\n" + err)
    return elapsed * 2 * CALIBRATION_REF_S / (before + calibration_s())


def run_pass(workload, tracer=None):
    """One pass over the items: (wall s, per-item reference s, per-item
    output).  An item that raises has output None.  The items of each
    segment are scaled by the mean of the calibration loops on either
    side of it; the wall includes the loops."""
    run = workload.run
    times, outputs = [], []
    gc.collect()
    clock = time.perf_counter
    bounds, loops = [0], [calibration_s()]
    start = segment = clock()
    for idx, (key, item) in enumerate(workload.items):
        if tracer is not None:
            tracer.item = idx
        t = clock()
        try:
            out = run(item)
        except Exception:
            print("item %s raised:\n%s" % (key, traceback.format_exc()),
                  file=sys.stderr)
            out = None
        times.append(clock() - t)
        outputs.append(out)
        if clock() - segment >= SEGMENT_S or idx + 1 == len(workload.items):
            bounds.append(idx + 1)
            loops.append(calibration_s())
            segment = clock()
    wall = clock() - start
    for k in range(len(bounds) - 1):
        scale = 2 * CALIBRATION_REF_S / (loops[k] + loops[k + 1])
        for i in range(bounds[k], bounds[k + 1]):
            times[i] *= scale
    return wall, times, outputs


class Checker:
    """Counts items attempted and items whose output is not the reference."""

    def __init__(self, workload, references):
        self.name = workload.name
        self.references = references
        self.keys = [key for key, _ in workload.items]
        self.attempted = 0
        self.failed = 0

    def check(self, outputs):
        bad = workloads.failed_items(self.name, self.keys,
                                     outputs, self.references)
        for idx in bad[:3]:
            print("item %s: output differs from the reference"
                  % self.keys[idx], file=sys.stderr)
        self.attempted += len(outputs)
        self.failed += len(bad)


def tail(values):
    """(value, percentile) of the highest order statistic that has at
    least ten values above it."""
    n = len(values)
    if n <= 10:
        raise ValueError("a tail needs more than ten items, got %d" % n)
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def median_times(passes):
    """Per item, its median time over the passes."""
    return [statistics.median(ts) for ts in zip(*passes)]


def timed_run(workload, checker, seconds):
    """Passes until `seconds` are used up, with one set-up
    measurement before each pass so that they too are spread over the
    run."""
    deadline = time.perf_counter() + seconds
    walls, passes, setups = [], [], []
    while True:
        setups.append(measure_setup(workload.name))
        wall, times, outputs = run_pass(workload)
        checker.check(outputs)
        walls.append(wall)
        passes.append(times)
        if time.perf_counter() + wall > deadline:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload.name))
    per_item = median_times(passes)
    tail_s, tail_pct = tail(per_item)
    values = {
        "wall_s": sum(per_item),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = ["%d passes of %d items; measured pass walls, calibration "
             "loops included: %s s"
             % (len(walls), len(per_item),
                " ".join("%.3f" % w for w in walls)),
             "times in reference seconds (calibration loop = %g s)"
             % CALIBRATION_REF_S,
             "wall_s is the sum of the per-item median times",
             "item_tail_ms is p%.2f of the %d per-item median times"
             % (tail_pct, len(per_item)),
             "setup_s is the median of %d set-ups: %s s"
             % (len(setups), " ".join("%.3f" % t for t in setups))]
    return values, notes


# Counts taken from the sizes of traced calls' inputs and outputs rather
# than counted by the program.
COMPUTED = ("components.boxes", "components.pair_tests",
            "components.diam_pairs", "components.merges",
            "components.intervals_out", "components.intervals_in")


def traced_run(workload, checker, seconds):
    """Untraced and traced passes in turn until `seconds` are used up,
    at least two of each."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced, passes = [], [], []
    first_spans = None
    while True:
        wall_u, times, outputs = run_pass(workload)
        checker.check(outputs)
        untraced.append(times)
        tracer.install()
        try:
            wall_t, times, outputs = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        checker.check(outputs)
        traced.append(times)
        stats = layer_stats(tracer.spans)
        calls = {name: c for name, (c, _) in stats.items()}
        passes.append((stats, calls, dict(tracer.counts)))
        if first_spans is None:
            first_spans = tracer.spans
        tracer.reset()
        if len(traced) >= 2 and \
                time.perf_counter() + wall_u + wall_t > deadline:
            break
    _write_spans(workload, first_spans)

    _, calls, counts = passes[0]
    repeat_ok = all(c == calls and k == counts for _, c, k in passes[1:])
    if not repeat_ok:
        print("counts differ between traced passes", file=sys.stderr)
    values = {"trace_overhead": sum(median_times(traced))
              / sum(median_times(untraced))}
    for qualname, _ in TARGETS:
        values[qualname + ".calls"] = calls.get(qualname, 0)
        values[qualname + ".self_s"] = min(
            s.get(qualname, (0, 0))[1] for s, _, _ in passes) / 1e9
    for name in COMPUTED + ("cantor.bilipschitz_check.pairs",):
        values[name] = counts.get(name, 0)
    pair_tests = values["components.pair_tests"]
    values["components.merge_ratio"] = \
        values["components.merges"] / pair_tests if pair_tests else 0.0
    n = len(workload.items)
    notes = ["passes: %d untraced and %d traced, of %d items"
             % (len(untraced), len(traced), n),
             "counts repeat exactly across traced passes: %s" % repeat_ok,
             "computed from call sizes, not counted by the program: %s"
             % ", ".join(COMPUTED),
             "per item: %s" % ", ".join(
                 "%s %.2f" % (q, calls.get(q, 0) / n)
                 for q in ("ifs.validate_lg", "tree.build_labeled_tree",
                           "classify.classify", "cantor.cylinder_length"))]
    return values, notes, repeat_ok


def _write_spans(workload, spans):
    """Spans of one traced pass, one JSON array per line:
    [span_id, parent_id, item index, name, start_ns, end_ns]."""
    path = OUT_DIR / ("spans-%s.jsonl" % workload.name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"items": [k for k, _ in workload.items]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result as a JSON line")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sponge" / "__init__.py").is_file():
        print("bench: no sponge package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.make(args.workload, args.seed, workdir)
        checker = Checker(workload, workloads.load_references())
        workload.warm_up()
        if args.trace:
            values, notes, repeat_ok = traced_run(workload, checker,
                                                  args.seconds)
            wanted = spec["per_layer"]
        else:
            values, notes = timed_run(workload, checker, args.seconds)
            repeat_ok = True
            wanted = spec["end_to_end"]
    if getattr(workload, "classes", None):
        notes.append("class shares: " + ", ".join(
            "%s %.3f" % (c, k / sum(workload.classes.values()))
            for c, k in sorted(workload.classes.items())))
    notes.append("fail_frac = %r (%d of %d items)" % (
        checker.failed / checker.attempted, checker.failed,
        checker.attempted))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": checker.failed == 0 and repeat_ok,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for note in notes:
        print("  " + note)
    for name, m in metrics.items():
        print("  %s = %r %s" % (name, m["value"], m["unit"]))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result})
                     + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
