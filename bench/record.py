"""Record the reference outputs of every pool entry into references.json.

Run once, at the commit whose outputs are the reference:

    python3 bench/record.py

Every report pool entry must classify as its stratum's class and exit 0,
or nothing is written.  The benchmark then checks each timed item's
output against the digest recorded here.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from sponge import classify, parse_ifs  # noqa: E402


def outputs(workload):
    """Item outputs of every reference group, in pass order."""
    groups = {}
    for key, item in workload.items:
        groups.setdefault(key, []).append(workload.run(item))
    return groups


def main():
    for i in range(wl.REPORT_POOL):
        cls, text = wl.report_entry(i)
        got = classify(parse_ifs(text)).conformal_dim_class
        if got != cls:
            sys.exit("report pool entry %d classifies as %s, not %s"
                     % (i, got, cls))
    groups = {
        "profile": outputs(wl.Profile(range(wl.PROFILE_POOL))),
        "moran": outputs(wl.Moran(range(wl.MORAN_POOL))),
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        groups["report"] = outputs(wl.Report(range(wl.REPORT_POOL), tmp))
    bad = [key for key, outs in groups["report"].items() if outs[0][0] != 0]
    if bad:
        sys.exit("report items exit nonzero: %s" % bad)
    refs = {name: {key: wl.digest(outs) for key, outs in g.items()}
            for name, g in groups.items()}
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %s" % {k: len(v) for k, v in refs.items()})


if __name__ == "__main__":
    main()
