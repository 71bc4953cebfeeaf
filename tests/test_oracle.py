from fractions import Fraction

import pytest

import naive
from conftest import as_raw, rand_measure
from perivar import GridDomain, ICVariant, MeasureData, Region, oracle, strong_excess
from perivar.energy import CLOSURE, INTERIOR, assemble_excess, flip_links
from perivar.oracle import _scan, _split, scan_excess, scan_functional_minimum

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


def _blocked_pool(rng, trial):
    """A grid and an admissible pool for the blocked-walk differential."""
    shape = trial % 8
    if shape == 0:
        d = GridDomain((rng.randint(8, 18),))
    elif shape == 1:
        d = GridDomain(rng.choice([(3, 5), (4, 4), (2, 8)]))
    elif shape == 2:  # L: a square with a corner box cut away
        side, cut = rng.choice([(4, 2), (5, 3), (5, 2)])
        d = GridDomain((side, side))
        return d, [c for c in d.cells() if min(c) < side - cut]
    elif shape == 3:
        d = GridDomain((2, 2, 4))
    elif shape == 4:  # a random part of a grid
        d = GridDomain(rng.choice([(4, 4), (3, 5), (2, 2, 4), (14,)]))
        return d, [c for c in d.cells() if rng.random() < 0.75] or [(0,) * d.d]
    elif shape == 5:  # pools of one and two cells take a single block
        d = GridDomain(rng.choice([(1,), (2,), (1, 2)]))
    else:
        d = GridDomain(rng.choice([(9,), (12,), (3, 4), (2, 6), (2, 2, 3)]))
    return d, list(d.cells())


def _ranked_masks(energy):
    """Per bit of ``_scan``, the bits of the cell and its linked neighbours,
    with bit i the free cell of rank i in ``naive.sweep_key``'s order; and
    the free cells in that order."""
    cells = energy.free_cells
    key = naive.sweep_key(cells)
    order = sorted(range(len(cells)), key=lambda k: key([cells[k]]))
    rank = {k: i for i, k in enumerate(order)}
    _, links = flip_links(energy)
    masks = [1 << i | sum(1 << rank[m] for m, _ in links[k]) for i, k in enumerate(order)]
    return masks, [cells[k] for k in order]


def test_blocked_walk_matches_plain_walk(rng):
    # every ScanResult field, ties included, against the plain Gray walk over
    # the same compiled energy; the cases take split and single-block walks,
    # and witnesses reached in odd blocks, where gray(j) has odd parity
    reached = set()
    for trial in range(320):
        d, pool = _blocked_pool(rng, trial)
        within = None
        if trial % 5 == 1:
            within = Region.of(d, [c for c in pool if rng.random() < 0.8] or pool[:1])
        if trial % 4 == 0:
            mu = MeasureData.zero(d)  # all values are perimeters: many ties
        else:
            mu = rand_measure(
                rng, d, n_faces=rng.randint(1, 8), n_cells=rng.randint(0, 3), hi=3
            )
        C = F(0) if trial % 7 == 3 else F(rng.randint(1, 3), rng.choice([1, 2]))
        energy = assemble_excess(
            mu,
            sorted(pool),
            C,
            rep=INTERIOR if trial % 3 == 2 else CLOSURE,
            within=within,
            cell_penalty=rng.choice([F(0), F(1, 2)]),
        )
        scan = _scan(energy)
        _assert_matches_walk(scan, naive.energy_gray_walk(energy))

        masks, cells = _ranked_masks(energy)
        k, outer = _split(masks)
        if k == len(cells):
            reached.add("single block")
        elif outer:
            reached.add("split")
            rank = {c: i for i, c in enumerate(cells)}
            for entry in scan.best_at_volume[1:]:
                bits = sum(1 << rank[c] for c in entry[1].cells)
                if (bits >> k).bit_count() % 2:  # gray(j) has the parity of j
                    reached.add("odd block")
    assert reached == {"single block", "split", "odd block"}


@pytest.mark.parametrize("dims, k", [((2, 11), 11), ((2, 2, 5), 9)])
def test_split_is_the_same_on_transposed_pools(monkeypatch, dims, k):
    # the bit order follows the pool's longest extent, not its axis order,
    # so a pool and its transpose take the same blocks, and the high cells
    # next to the low ones are one cross-section
    splits = []

    def recording(flip_mask):
        splits.append(_split(flip_mask))
        return splits[-1]

    monkeypatch.setattr(oracle, "_split", recording)

    def blocks(dims):
        d = GridDomain(dims)
        _scan(assemble_excess(MeasureData.zero(d), sorted(d.cells()), 1))
        k, outer = splits.pop()
        return k, outer.bit_count()

    width = len(GridDomain(dims).cells()) // max(dims)
    assert blocks(dims) == blocks(dims[::-1]) == (k, width)


@pytest.mark.parametrize("shape", ["22-chain", "2x11", "relative 5x5"])
def test_enumeration_at_the_cap(rng, shape):
    # 22 cells is the default cap: enumeration and the min cut agree on
    # submodular pools (charged faces weigh at most 2C)
    if shape == "relative 5x5":
        d = GridDomain((5, 5))
        omega = Region.of(d, [c for c in d.cells() if c not in ((0, 0), (0, 4), (4, 4))])
        variant = ICVariant.relative(omega)
        faces = [
            f
            for f in d.faces()
            if len(d.face_cells(f)) == 2 and omega.cells.issuperset(d.face_cells(f))
        ]
        charged = [(f.axis, f.slot, f.at) for f in faces]
    else:
        d = GridDomain((22,) if shape == "22-chain" else (2, 11))
        omega = Region.of(d, d.cells())
        variant, faces, charged = ICVariant.plain(), list(d.faces()), None
    assert len(omega.cells) == 22
    for _ in range(2):
        # the measure lies inside the pool
        cell_weights = {c: F(1, 2) for c in rng.sample(sorted(omega.cells), 2)}
        face_weights = rand_measure(rng, d, faces=faces, n_faces=8, n_cells=0).face_weights
        mu = MeasureData(d, cell_weights=cell_weights, face_weights=face_weights)
        C = F(1)
        by_cut = strong_excess(mu, C, variant, method="min-cut")
        by_scan = strong_excess(mu, C, variant, method="exhaustive", exhaustive_cap=22)
        assert by_scan.method == "exhaustive"
        assert by_scan.value == by_cut.value
        fw, cw = as_raw(mu)
        for res in (by_cut, by_scan):
            A = res.witness.cells
            excess = naive.closure_mass(d.dims, A, fw, cw) - C * naive.perimeter(d.dims, A, charged)
            assert excess == res.value
