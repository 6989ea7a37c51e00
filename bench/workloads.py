"""Seeded inputs, item runners and reference checks for the sponge benchmark.

Every workload draws its items from a fixed pool.  Pool entry ``i`` is
generated from ``i`` alone, so its expected output could be recorded once
(``record.py``, at the seed commit) in ``references.json``.  The run seed
only chooses which pool entries make up a pass, stratified so that every
seed gives a pass with the same shape (item count, system sizes, class
mix) and therefore about the same amount of work.

This module builds inputs from plain numbers and text; the program under
test only ever sees the generated ``.ifs`` text or ``AffineMap1D`` labels.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REFERENCES = Path(__file__).resolve().parent / "references.json"

FIXTURE_NAMES = ("lg5", "lg4", "bedford_mcmullen")


def _frac(fr):
    return str(fr.numerator) if fr.denominator == 1 \
        else "%d/%d" % (fr.numerator, fr.denominator)


def digest(outputs):
    """Short digest of the canonical JSON of a group of item outputs."""
    text = json.dumps(outputs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- generators

def _tiling(rng, k, den):
    """k (offset, ratio) pairs on the grid 1/den whose images tile [0,1]."""
    cuts = sorted(rng.sample(range(1, den), k - 1))
    points = [0] + cuts + [den]
    return [(Fraction(lo, den), Fraction(hi - lo, den))
            for lo, hi in zip(points, points[1:])]


def _gapped(rng, k, den, max_len=None):
    """k (offset, ratio) pairs on the grid 1/den, pairwise separated by
    gaps, so their images never tile [0,1]; each ratio is below max_len."""
    max_len = Fraction(1) if max_len is None else max_len
    for _ in range(100):
        marks = sorted(rng.sample(range(den + 1), 2 * k))
        pairs = [(Fraction(marks[2 * i], den),
                  Fraction(marks[2 * i + 1] - marks[2 * i], den))
                 for i in range(k)]
        if all(r < max_len for _, r in pairs):
            return pairs
    # unit-width cells at distinct even slots: always separated, and
    # 1/den < max_len because callers choose den > 1/max_len
    slots = sorted(rng.sample(range(den // 2), k))
    return [(Fraction(2 * s, den), Fraction(1, den)) for s in slots]


def lg_system_text(rng, columns, x_tiles):
    """A 2-D Lalley-Gatzouras system as .ifs text.

    ``columns`` gives the number of maps stacked in each column.  The
    column x-images tile [0,1] when ``x_tiles``, else they leave gaps; the
    y-images inside a column always leave gaps and are thinner than the
    column, which keeps the coordinate ordering and neat projection.
    """
    k = len(columns)
    qx = rng.randint(2 * k + 1, 2 * k + 8)
    xs = _tiling(rng, k, qx) if x_tiles else _gapped(rng, k, qx)
    lines = ["dim 2"]
    for (ox, rx), count in zip(xs, columns):
        qy = rng.randint(max(qx + 1, 2 * count + 2), 3 * qx + 2 * count)
        for oy, ry in _gapped(rng, count, qy, max_len=rx):
            lines.append("map %s %s ; %s %s"
                         % (_frac(rx), _frac(ox), _frac(ry), _frac(oy)))
    return "\n".join(lines) + "\n"


def simple_family(rng, counts):
    """Members of a family of non-tiling simple IFS of [0,1], each a list
    of (ratio, offset) pairs."""
    members = []
    for k in counts:
        den = rng.randint(2 * k + 1, 24)
        members.append([(r, o) for o, r in _gapped(rng, k, den)])
    return members


# -------------------------------------------------------------------- pools

# Profile systems: (maps per column, depth, x tiles) -> 27, 36, 49 and 64
# boxes with and without tiling columns, and 16 boxes.  The strata differ
# in cost, so with an odd number of them the median item falls inside a
# stratum rather than in the gap between two, and the tail falls among
# the twenty 64-box items.
PROFILE_STRATA = tuple((cols, depth, tiles)
                       for cols, depth in (((1, 2), 3), ((3, 3), 2),
                                           ((3, 4), 2), ((2, 2), 3))
                       for tiles in (False, True)) + (((1, 3), 2, False),)
PROFILE_DELTAS = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32),
                  Fraction(1, 64))
PROFILE_FIXTURE_DEPTH = 3
PROFILE_PER_STRATUM = 10
PROFILE_POOL = 24 * len(PROFILE_STRATA)

# Moran families: member map counts; words up to length MORAN_WORD_LEN.
MORAN_STRATA = ((3,), (2, 3), (2, 2, 2))
MORAN_GRID = tuple(Fraction(1, 2 ** k) for k in range(6))
MORAN_WORD_LEN = 5
MORAN_PER_STRATUM = 8
MORAN_POOL = 60 * len(MORAN_STRATA)

# Report systems: (class, maps per column); x tiles unless the class is Zero.
REPORT_STRATA = (
    ("Zero", (2, 1)), ("Zero", (2, 2)), ("Zero", (1, 2, 2)),
    ("ExactlyOne", (1, 1)), ("ExactlyOne", (1, 1, 1)),
    ("ExactlyOne", (1, 1, 1, 1)),
    ("AtLeastOne", (1, 2)), ("AtLeastOne", (2, 2)),
    ("AtLeastOne", (1, 2, 2)),
)
REPORT_PER_STRATUM = 30
REPORT_POOL = 80 * len(REPORT_STRATA)


def profile_entry(i):
    """(ifs text, depth) of profile pool entry i."""
    cols, depth, tiles = PROFILE_STRATA[i % len(PROFILE_STRATA)]
    return lg_system_text(random.Random("profile-%d" % i), cols, tiles), depth


def moran_entry(i):
    counts = MORAN_STRATA[i % len(MORAN_STRATA)]
    return simple_family(random.Random("moran-%d" % i), counts)


def report_entry(i):
    """(expected class, ifs text) of report pool entry i."""
    cls, cols = REPORT_STRATA[i % len(REPORT_STRATA)]
    text = lg_system_text(random.Random("report-%d" % i), cols,
                          x_tiles=cls != "Zero")
    return cls, text


def select(pool, n_strata, per_stratum, seed, name):
    """Pool indices of one pass: per_stratum entries of each stratum,
    interleaved stratum by stratum, chosen by the seed."""
    rng = random.Random("%s-seed-%d" % (name, seed))
    picks = [rng.sample(range(s, pool, n_strata), per_stratum)
             for s in range(n_strata)]
    return [i for group in zip(*picks) for i in group]


# ---------------------------------------------------------------- workloads
#
# A workload object holds ``items``, the (reference group key, input)
# pairs of one pass in order; ``run(input)`` returns an item's canonical
# output and ``warm_up()`` makes untimed calls through the same code on
# fixed inputs.  Fixtures are always part of the pass; ``indices`` picks
# pool entries.

class Profile:
    """component_diameter_profile over the delta grid; one item is one
    system's whole profile."""

    name = "profile"

    def __init__(self, indices):
        from sponge import parse_ifs
        self.items = [("fixture:lg5", (parse_ifs(_fixture_text("lg5")),
                                       PROFILE_FIXTURE_DEPTH))]
        for i in indices:
            text, depth = profile_entry(i)
            self.items.append((str(i), (parse_ifs(text), depth)))

    @staticmethod
    def run(item):
        from sponge import component_diameter_profile
        ifs, depth = item
        rows = component_diameter_profile(ifs, depth, PROFILE_DELTAS)
        return [[r["num_components"], _frac(r["max_diam_sq"])] for r in rows]

    @staticmethod
    def warm_up():
        from sponge import parse_ifs
        Profile.run((parse_ifs(_fixture_text("lg5")), 2))


class Moran:
    """The loop of acceptance criterion 04: pre-Moran intervals of every
    word up to length 5, then interval components at each admissible
    delta.  One item is one (family, word) pair; a family is one
    reference group."""

    name = "moran"

    def __init__(self, indices):
        self.items = []
        for i in indices:
            family = _family(moran_entry(i))
            for word in _words(family.size, MORAN_WORD_LEN):
                self.items.append((str(i), (family, word)))

    @staticmethod
    def run(item):
        from sponge import interval_components, pre_moran_intervals
        family, word = item
        pm = pre_moran_intervals(family, word)
        threshold = family.g_star / family.alpha_star
        for i in word:
            threshold *= family.betas[i - 1]
        maxima = []
        for delta in MORAN_GRID:
            if delta >= threshold:
                _, diams = interval_components(pm.intervals, delta)
                maxima.append([_frac(delta), _frac(max(diams))])
        return [list(word), maxima]

    @staticmethod
    def warm_up():
        family = _family(moran_entry(1))
        for word in _words(family.size, 3):
            Moran.run((family, word))


class Report:
    """``sponge all <file>`` in-process with output captured; one item is
    one report.  Inputs are written to ``.ifs`` files under ``workdir``."""

    name = "report"

    def __init__(self, indices, workdir):
        self.items = [("fixture:" + n, str(FIXTURES / (n + ".ifs")))
                      for n in FIXTURE_NAMES]
        self.classes = Counter()
        for i in indices:
            cls, text = report_entry(i)
            path = Path(workdir) / ("report-%d.ifs" % i)
            path.write_text(text)
            self.items.append((str(i), str(path)))
            self.classes[cls] += 1

    @staticmethod
    def run(item):
        from sponge.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["all", item])
        try:
            report_digest = json.loads(out.getvalue())["digest"]
        except (ValueError, KeyError):
            report_digest = None
        return [code, report_digest]

    @staticmethod
    def warm_up():
        for n in FIXTURE_NAMES:
            Report.run(str(FIXTURES / (n + ".ifs")))


def _fixture_text(name):
    return (FIXTURES / (name + ".ifs")).read_text()


def _family(members):
    from sponge import AffineMap1D, SimpleIFSFamily
    return SimpleIFSFamily([tuple(AffineMap1D(r, o) for r, o in m)
                            for m in members])


def _words(p, max_len):
    """Words over 1..p of length 1..max_len, shortest first."""
    return [w for n in range(1, max_len + 1)
            for w in itertools.product(range(1, p + 1), repeat=n)]


WORKLOADS = {"profile": Profile, "moran": Moran, "report": Report}


def make(name, seed, workdir):
    """The workload `name` with the pass that `seed` selects; report
    inputs are written under `workdir`."""
    if name == "profile":
        return Profile(select(PROFILE_POOL, len(PROFILE_STRATA),
                              PROFILE_PER_STRATUM, seed, name))
    if name == "moran":
        return Moran(select(MORAN_POOL, len(MORAN_STRATA),
                            MORAN_PER_STRATUM, seed, name))
    if name == "report":
        return Report(select(REPORT_POOL, len(REPORT_STRATA),
                             REPORT_PER_STRATUM, seed, name), workdir)
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------- references

def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def failed_items(workload_name, keys, outputs, references):
    """Indices of items whose group digest differs from the reference.

    ``outputs[i]`` is None when item i raised.  A group with any raised
    item, a missing reference or a different digest fails as a whole.
    """
    groups = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    refs = references.get(workload_name, {})
    failed = []
    for key, members in groups.items():
        outs = [outputs[i] for i in members]
        if any(o is None for o in outs) or refs.get(key) != digest(outs):
            failed.extend(members)
    return sorted(failed)
