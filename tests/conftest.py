import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from sponge import (AffineMap1D, DiagonalAffineMap, IFSError, SpongeIFS,
                    classify, parse_ifs)
from sponge.ifs import truncations

# Fixed example sequences and no wall-clock deadline, so that every run of
# the suite draws and passes the same cases.
settings.register_profile("repeatable", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repeatable")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Subprocesses such as `python -m sponge.cli` inherit the environment, not
# pytest's own `pythonpath`, so put the source tree on PYTHONPATH for them.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]))


def load_fixture(name):
    return parse_ifs((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def lg5():
    return load_fixture("lg5.ifs")


@pytest.fixture(scope="session")
def lg4():
    return load_fixture("lg4.ifs")


@pytest.fixture(scope="session")
def bedford_mcmullen():
    return load_fixture("bedford_mcmullen.ifs")


def compose(maps):
    """maps[0] o maps[1] o ... in Fraction, of AffineMap1Ds or of
    DiagonalAffineMaps; None for no maps.  The composition oracle that
    ifs.compose_scaled and ifs.cylinder_box are checked on."""
    comp = None
    for m in maps:
        comp = m if comp is None else _after(comp, m)
    return comp


def _after(f, g):
    """f o g, coordinate by coordinate for DiagonalAffineMaps."""
    if isinstance(f, DiagonalAffineMap):
        return DiagonalAffineMap(tuple(map(_after, f.coords, g.coords)))
    return AffineMap1D(f.ratio * g.ratio, f.ratio * g.offset + f.offset)


def major_projection(ifs, ell):
    """The rank-ell major projection: the maps' truncations (truncations),
    in their first-occurrence order, as a SpongeIFS of dimension ell.  The
    oracle that the tree's levels, the LG gate's projected maps and the
    product decomposition's projected cylinders are checked on."""
    if not (1 <= ell <= ifs.dim):
        raise IFSError("ifs: projection level %d out of range 1..%d"
                       % (ell, ifs.dim))
    return SpongeIFS(ell, tuple(map(DiagonalAffineMap, truncations(ifs, ell))))


def class_and_rank(ifs):
    """The verdict as (conformal dimension class, witness rank), the rank
    None for a Zero system."""
    result = classify(ifs)
    return result.conformal_dim_class, getattr(result.witness, "rank", None)


def reflect(ifs, j):
    """x -> 1 - x on coordinate j (0-based): each label (r, o) becomes
    (r, 1 - r - o).  An isometry of the unit cube that keeps every ratio,
    so every distance and every fiber fact, up to the mirror image."""
    return SpongeIFS(ifs.dim, tuple(
        DiagonalAffineMap(tuple(
            AffineMap1D(c.ratio, 1 - c.ratio - c.offset) if i == j else c
            for i, c in enumerate(m.coords)))
        for m in ifs.maps))


def random_simple_labels(rng, max_maps=4, max_den=24, tiling=None):
    """A random simple IFS of [0,1] as a tuple of AffineMap1D.

    With tiling=True the images partition [0,1]; with tiling=False at
    least one gap is forced; None flips a coin.
    """
    if tiling is None:
        tiling = rng.random() < 0.5
    k = rng.randint(2, max_maps)
    q = rng.randint(max(k + 1, 2 * k), max_den)
    if tiling:
        cuts = sorted(rng.sample(range(1, q), k - 1))
        points = [0] + cuts + [q]
        labels = []
        for lo, hi in zip(points, points[1:]):
            labels.append(AffineMap1D(Fraction(hi - lo, q), Fraction(lo, q)))
        return tuple(labels)
    # pick 2k+1 breakpoints so at least one gap exists
    while True:
        marks = sorted(rng.sample(range(0, q + 1), 2 * k))
        ivs = [(marks[2 * i], marks[2 * i + 1]) for i in range(k)]
        if all(hi > lo for lo, hi in ivs) and sum(h - l for l, h in ivs) < q:
            return tuple(AffineMap1D(Fraction(h - l, q), Fraction(l, q))
                         for l, h in ivs)


def random_lg_system(rng, dim=2, max_maps=4, max_den=12):
    """A random Lalley-Gatzouras system (not necessarily UD); at dim 1,
    a random simple IFS of [0,1]."""
    first = random_simple_labels(rng, max_maps=max_maps, max_den=max_den)
    maps = []
    for g in first:
        coords = [g]
        while len(coords) < dim:
            # each ratio strictly below the one before, unit-preserving offset
            r = coords[-1].ratio
            num = rng.randint(1, max(1, int(r * max_den) - 1)) \
                if r * max_den > 1 else 1
            r2 = Fraction(num, max_den)
            if r2 >= r:
                r2 = r / 2
            den = r2.denominator
            top = int((1 - r2) * den)
            off = Fraction(rng.randint(0, top), den)
            coords.append(AffineMap1D(r2, off))
        maps.append(DiagonalAffineMap(tuple(coords)))
    return SpongeIFS(dim, tuple(maps))


def random_column_system(rng, dim, tile_rank=None, max_children=3):
    """An LG system with several maps in one column, as in a
    Bedford-McMullen carpet: each vertex gets one to max_children
    offspring in equal slots of [0,1], each ratio below its parent's.

    With tile_rank = s, one random vertex of rank s gets a fiber that
    tiles [0,1] (equal slots filled, at least two) and every other fiber
    leaves a gap, so the witness has rank s; with None nothing tiles.
    The maps come shuffled, so truncation order is not offset order.
    """
    paths = [()]
    for rank in range(dim):
        tiler = rng.randrange(len(paths)) if rank == tile_rank else None
        grown = []
        for n, path in enumerate(paths):
            p = path[-1].ratio if path else Fraction(1)
            k = rng.randint(1, max_children)
            if n == tiler:
                # 1/k < p, so every label is thinner than its parent
                k = max(k, 2, p.denominator // p.numerator + 1)
                grown += [path + (AffineMap1D(Fraction(1, k), Fraction(j, k)),)
                          for j in range(k)]
                continue
            r = min(p, Fraction(1, k)) * Fraction(rng.randint(1, 2), 3)
            grown += [path + (AffineMap1D(r, Fraction(j, k) + (Fraction(
                1, k) - r) * Fraction(rng.randint(0, 2), 2)),)
                for j in range(k)]
        paths = grown
    rng.shuffle(paths)
    return SpongeIFS(dim, tuple(map(DiagonalAffineMap, paths)))


def random_special_system(rng, max_maps=4, max_den=12):
    """A random 2-D system of the special form: first coordinates tile
    [0,1], second coordinates strictly thinner, singleton deeper fibers."""
    while True:
        first = random_simple_labels(rng, max_maps=max_maps,
                                     max_den=max_den, tiling=True)
        ifs = random_lg_from_tiling(rng, first, max_den)
        if ifs is not None:
            return ifs


def random_lg_from_tiling(rng, first, max_den):
    from sponge import EXACTLY_ONE, classify, validate_lg
    maps = []
    for g in first:
        choices = [Fraction(n, d)
                   for d in range(2, max_den + 1)
                   for n in range(1, d)
                   if Fraction(n, d) < g.ratio]
        if not choices:
            return None
        r2 = rng.choice(choices)
        den = r2.denominator
        off = Fraction(rng.randint(0, int((1 - r2) * den)), den)
        maps.append(DiagonalAffineMap((g, AffineMap1D(r2, off))))
    try:
        ifs = SpongeIFS(2, tuple(maps))
    except Exception:
        return None
    if not validate_lg(ifs).lg_type:
        return None
    if classify(ifs).conformal_dim_class != EXACTLY_ONE:
        return None
    return ifs


def random_point_set(rng, max_points=12, dim=None, max_den=8):
    dim = dim or rng.randint(1, 3)
    n = rng.randint(2, min(max_points, (max_den + 1) ** dim - 1))
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(0, max_den), max_den)
                      for _ in range(dim)))
    return sorted(pts)
