from fractions import Fraction

import naive
from conftest import as_raw, rand_measure
from perivar import GridDomain, ICVariant, MeasureData, Region, strong_excess
from perivar.energy import CLOSURE, INTERIOR
from perivar.oracle import scan_excess, scan_functional_minimum

F = Fraction

DIMS = [(7,), (10,), (12,), (3, 3), (2, 5), (3, 4), (2, 2, 2), (2, 2, 3)]


def _assert_matches_walk(scan, walk):
    best, best_set, per_volume = walk
    assert scan.best_value == best
    assert scan.best_set.cells == best_set
    assert len(scan.best_at_volume) == len(per_volume)
    for got, want in zip(scan.best_at_volume, per_volume):
        if want is None:
            assert got is None
        else:
            assert (got[0], got[1].cells) == want


def test_scan_excess_matches_gray_walk(rng):
    # every field of the scan, tie rule included, against a walk that
    # scores each set from the definitions
    kinds = ("plain", "interior-rep", "relative", "avoid-ball")
    for trial in range(48):
        kind = kinds[trial % len(kinds)]
        if kind == "avoid-ball":
            d = GridDomain(rng.choice([(7,), (9,), (3, 3), (3, 5)]))
        else:
            d = GridDomain(rng.choice(DIMS))
        rep, cells, charged = "closure", naive.all_cells(d.dims), None
        if kind == "plain":
            variant = ICVariant.plain()
        elif kind == "interior-rep":
            variant, rep = ICVariant.interior_rep(), "interior"
        elif kind == "relative":
            cells = [c for c in cells if rng.random() < 0.7] or cells[:1]
            variant = ICVariant.relative(Region.of(d, cells))
            charged = [
                f
                for f in naive.all_faces(d.dims)
                if all(side in cells for side in naive.face_sides(d.dims, f))
            ]
        else:
            radius = 1 if d.dims in ((9,), (3, 5)) else 0
            variant = ICVariant.avoid_ball(radius)
            cells = [
                c
                for c in cells
                if not all(
                    abs(2 * x - (n - 1)) <= 2 * radius for x, n in zip(c, d.dims)
                )
            ]
        if trial % 3 == 0:
            mu = MeasureData.zero(d)  # all values are perimeters: many ties
        else:
            mu = rand_measure(
                rng, d, n_faces=rng.randint(1, 5), n_cells=rng.randint(0, 2), hi=3
            )
        C = F(rng.randint(1, 4), rng.choice([1, 2]))
        pen = rng.choice([F(0), F(1, 2), F(2, 3)])
        fw, cw = as_raw(mu)
        walk = naive.gray_scan(d.dims, fw, cw, C, pen, rep, cells=cells, charged=charged)
        scan = scan_excess(
            mu,
            sorted(cells),
            C,
            rep=CLOSURE if rep == "closure" else INTERIOR,
            within=None if charged is None else variant.omega,
            cell_penalty=pen,
        )
        _assert_matches_walk(scan, walk)
        res = strong_excess(mu, C, variant, cell_penalty=pen, method="exhaustive")
        assert (res.value, res.witness.cells) == walk[:2]


def test_scan_functional_minimum_matches_gray_walk(rng):
    for trial in range(16):
        d = GridDomain(rng.choice(DIMS))
        cells = naive.all_cells(d.dims)
        region = None
        if trial % 2:
            cells = [c for c in cells if rng.random() < 0.8] or cells[:1]
            region = frozenset(cells)
        mu = rand_measure(rng, d, n_faces=rng.randint(0, 4), n_cells=rng.randint(0, 2))
        fw, cw = as_raw(mu)
        walk = naive.gray_scan(d.dims, fw, cw, 1, cells=cells)
        _assert_matches_walk(scan_functional_minimum(d, mu, region), walk)
