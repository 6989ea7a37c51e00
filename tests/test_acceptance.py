"""End-to-end acceptance checks.

Each test verifies one acceptance criterion and prints a single
pass/fail line (timing included where the criterion has a budget).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sponge import (FiberIFS, Interval, SimpleIFSFamily, Vertex,
                    attractor_is_unit_interval, bilipschitz_check,
                    build_cantor_tree, check_product_decomposition,
                    check_union_bound, classify, cylinder_length,
                    delta0_sequence_exists, delta0_sequence_exists_sq,
                    delta_components, delta_components_sq, interval_components,
                    lipschitz_constants, parse_ifs, pre_moran_intervals,
                    serialize_ifs, to_binary_tree)
from sponge.cantor import analyze_special_system

from conftest import (FIXTURES, load_fixture, random_point_set,
                      random_simple_labels, random_special_system)

ROOT = Vertex(0, ())


def announce(capsys, n, label, ok, elapsed=None):
    tail = "" if elapsed is None else " (%.2fs)" % elapsed
    with capsys.disabled():
        print("[acceptance %02d] %s: %s%s"
              % (n, label, "PASS" if ok else "FAIL", tail))
    assert ok


def test_criterion_01_fixture_classification(lg5, lg4, capsys):
    start = time.monotonic()
    r5 = classify(lg5)
    t5 = time.monotonic() - start
    start = time.monotonic()
    r4 = classify(lg4)
    t4 = time.monotonic() - start
    ok = (r5.uniformly_disconnected and r5.conformal_dim_class == "Zero"
          and not r4.uniformly_disconnected
          and r4.conformal_dim_class == "ExactlyOne"
          and r4.witness == ROOT
          and t5 < 1 and t4 < 1)
    announce(capsys, 1, "fixture classification", ok, max(t5, t4))


def _merge(intervals):
    merged = []
    for iv in sorted(intervals, key=lambda iv: iv.lo):
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return merged


def _hutchinson_oracle(labels, depth=8):
    """True iff the uncovered measure of [0,1] is exactly 0 at every
    refinement depth."""
    union = [Interval(Fraction(0), Fraction(1))]
    for _ in range(depth):
        union = _merge([Interval(g(iv.lo), g(iv.hi))
                        for g in labels for iv in union])
        if sum(iv.length for iv in union) != 1:
            return False
    return True


def test_criterion_02_tiling_oracle_equivalence(capsys):
    rng = random.Random(424242)
    start = time.monotonic()
    disagreements = 0
    for _ in range(200):
        labels = random_simple_labels(rng)
        fast = attractor_is_unit_interval(FiberIFS(ROOT, labels))
        if fast != _hutchinson_oracle(labels):
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 10
    announce(capsys, 2, "tiling verdict matches depth-8 Hutchinson oracle",
             ok, elapsed)


def _pairwise_sq(pts):
    out = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            out.add(sum((a - b) ** 2 for a, b in zip(p, q)))
    return sorted(out)


def test_criterion_03_uniform_disconnection_directions(capsys):
    rng = random.Random(1003)
    start = time.monotonic()
    grid = [Fraction(1, 2 ** k) for k in range(1, 9)]
    violations = 0
    for _ in range(100):
        pts = random_point_set(rng)
        # (a) absence of a delta0-sequence bounds component diameters
        delta0 = Fraction(rng.randint(1, 8), 16)
        if not delta0_sequence_exists(pts, delta0)[0]:
            for delta in grid:
                part = delta_components(pts, delta)
                bound = (2 / delta0) * delta
                if part.max_diam_sq() > bound * bound:
                    violations += 1
        # (b) the exact component-diameter envelope rules out sequences
        # with delta0 = 1/(2*M0); M0 is the sup over all thresholds,
        # attained at a pairwise distance
        m0_sq = max(delta_components_sq(pts, d_sq).max_diam_sq() / d_sq
                    for d_sq in _pairwise_sq(pts))
        if m0_sq > 0:
            if delta0_sequence_exists_sq(pts, Fraction(1, 4) / m0_sq)[0]:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30
    announce(capsys, 3, "delta0-sequence and component-diameter "
             "characterizations agree", ok, elapsed)


def test_criterion_04_premoran_component_bound(capsys):
    rng = random.Random(44)
    start = time.monotonic()
    violations = 0
    grid = [Fraction(1, 2 ** k) for k in range(0, 6)]
    for _ in range(50):
        p = rng.randint(1, 3)
        fam = SimpleIFSFamily(
            [random_simple_labels(rng, max_maps=3, tiling=False)
             for _ in range(p)])
        bound_factor = 2 / (fam.g_star * fam.alpha_star) + 1
        words = [()]
        for _ in range(5):
            words = [w + (i,) for w in words for i in range(1, p + 1)]
            for word in words:
                pm = pre_moran_intervals(fam, word)
                threshold = fam.g_star / fam.alpha_star
                for i in word:
                    threshold *= fam.betas[i - 1]
                for delta in grid:
                    if delta < threshold:
                        continue
                    _, diams = interval_components(pm.intervals, delta)
                    if max(diams) > bound_factor * delta:
                        violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60
    announce(capsys, 4, "pre-Moran component-diameter bound", ok, elapsed)


def _interval_ratio_sup(intervals, delta_min):
    """Exact sup over delta >= delta_min of max component diam / delta."""
    gaps = set()
    merged = _merge(list(intervals))
    for a, b in zip(merged, merged[1:]):
        g = b.lo - a.hi
        if g > delta_min:
            gaps.add(g)
    best = Fraction(0)
    for delta in {delta_min} | gaps:
        _, diams = interval_components(intervals, delta)
        best = max(best, max(diams) / delta)
    return best


def test_criterion_05_union_bound(capsys):
    rng = random.Random(55)
    start = time.monotonic()
    delta_min = Fraction(1, 64)
    grid = [delta_min * 2 ** k for k in range(8)]
    failures = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        sets = []
        C = Fraction(0)
        for _ in range(n):
            fam = SimpleIFSFamily(
                [random_simple_labels(rng, max_maps=3, tiling=False)])
            word = (1,) * rng.randint(1, 3)
            ivs = list(pre_moran_intervals(fam, word).intervals)
            shift = Fraction(rng.randint(0, 8), 8)
            ivs = [Interval(iv.lo + shift, iv.hi + shift) for iv in ivs]
            sets.append(ivs)
            C = max(C, _interval_ratio_sup(ivs, delta_min))
        if not check_union_bound(sets, grid, C):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60
    announce(capsys, 5, "union component bound with (9C)^(2^(n-1))/9", ok,
             elapsed)


def test_criterion_06_product_decomposition(lg5, lg4, capsys):
    ok = all(check_product_decomposition(ifs, k)
             for ifs in (lg5, lg4) for k in (1, 2, 3))
    announce(capsys, 6, "cylinder sets factor through fiber pre-Moran "
             "products (k=1,2,3)", ok)


def test_criterion_07_exact_interval_identities(lg4, capsys):
    start = time.monotonic()
    sys_, consts = analyze_special_system(lg4)
    ok = consts.L == Fraction(613, 73)
    # additivity at every node to depth 5 is asserted by construction
    build_cantor_tree(sys_, consts, 5)
    words = [()]
    frontier = [()]
    for _ in range(6):
        frontier = [w + (j,) for w in frontier for j in range(sys_.m)]
        words.extend(frontier)
    for w in words:
        if cylinder_length(sys_, consts, w) > consts.L * sys_.ratio_product(w, 1):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5
    announce(capsys, 7, "exact interval-model identities (L, additivity, "
             "length envelope)", ok, elapsed)


def test_criterion_08_bilipschitz_envelope(lg4, capsys):
    rng = random.Random(88)
    start = time.monotonic()
    ok = True
    systems = [lg4]
    while len(systems) < 6:
        ifs = random_special_system(rng)
        sys_, _ = analyze_special_system(ifs)
        if any(tau >= 2 for tau in sys_.taus):
            systems.append(ifs)
    for ifs in systems:
        sys_, consts = analyze_special_system(ifs)
        rep = bilipschitz_check(sys_, consts, 5)
        if not rep.passed:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    announce(capsys, 8, "endpoint-pair ratios stay inside [1/c1, C0] at "
             "depth 5", ok, elapsed)


def test_criterion_09_binary_conversion(lg4, capsys):
    sys_, consts = analyze_special_system(lg4)
    bt = to_binary_tree(sys_, consts, 10)
    ok = bt.balance_ok and bt.T == consts.L / sys_.r_star
    gamma = Fraction(5, 4)
    for n in range(1, 9):
        if bt.gap_ratio_table[n] < (sys_.r_star / consts.L) * gamma ** n:
            ok = False
    announce(capsys, 9, "binary conversion: T-balance to depth 10 and "
             "gap-ratio growth", ok)


def _cli_json(args):
    proc = subprocess.run(
        [sys.executable, "-m", "sponge.cli"] + args,
        capture_output=True, text=True, check=True)
    return proc.stdout


def _without_timing(text):
    return "\n".join(l for l in text.splitlines() if '"timing"' not in l)


def test_criterion_10_determinism_and_roundtrip(capsys):
    ok = True
    for name in ("lg5.ifs", "lg4.ifs", "bedford_mcmullen.ifs"):
        ifs = load_fixture(name)
        if parse_ifs(serialize_ifs(ifs)) != ifs:
            ok = False
    lg5_path = str(FIXTURES / "lg5.ifs")
    lg4_path = str(FIXTURES / "lg4.ifs")
    a = _cli_json(["classify", lg5_path])
    b = _cli_json(["classify", lg5_path])
    if _without_timing(a) != _without_timing(b):
        ok = False
    c1 = _cli_json(["cantor", lg4_path, "--depth", "3"])
    c2 = _cli_json(["cantor", lg4_path, "--depth", "3"])
    if _without_timing(c1) != _without_timing(c2):
        ok = False
    announce(capsys, 10, "round-trip parsing and byte-stable reports "
             "(reruns)", ok)
