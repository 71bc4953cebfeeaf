"""The frontier sweep against enumeration: per-volume minima in every
energy mode, covering constraints through ``capacity``, the tie rule, and
the budget refusal."""

import tracemalloc
from fractions import Fraction

import pytest

import naive
from conftest import as_raw
from perivar import (
    CellSet,
    Dirichlet,
    FullSpace,
    GridDomain,
    MeasureData,
    Region,
    Relative,
    SignedPair,
    assemble,
    capacity,
    closure_faces,
    evaluate,
    freeze,
    hyperplane_measure,
    perimeter,
    restrict,
)
from perivar.frontier import FrontierBudgetExceeded, frontier_minimize
from perivar.oracle import _scan, scan_functional_minimum

F = Fraction
DENS = (1, 2, 3, 4, 5, 6, 7)
DIMS = [(12,), (7,), (3, 4), (4, 3), (2, 5), (2, 2, 3), (3, 2, 2), (2, 3, 2)]


def _rand_measure(rng, d, share=0.4):
    """Face and cell weights up to 16/den and 8/den, den in 1..7; faces
    above 2 make the energy non-submodular."""
    fw = {f: F(rng.randint(1, 16), rng.choice(DENS)) for f in d.faces() if rng.random() < share}
    cw = {c: F(rng.randint(1, 8), rng.choice(DENS)) for c in d.cells() if rng.random() < share / 2}
    return MeasureData(d, cell_weights=cw, face_weights=fw)


def _raw(faces):
    return [(f.axis, f.slot, f.at) for f in faces]


def test_volume_minima_match_scan_and_naive(rng):
    # the solve_volume energy, P(A) - mu(A+), over the whole grid or over a
    # region whose outside is frozen out
    for trial in range(16):
        d = GridDomain(rng.choice(DIMS))
        mu = _rand_measure(rng, d)
        if trial % 2:
            region = Region.of(d, [c for c in d.cells() if rng.random() < 0.75] or d.cells()[:1])
            mu = restrict(mu, region.cell_set())
            mode, perim = Dirichlet(a0=CellSet.empty(d), omega=region), region.closure_faces()
        else:
            mode, perim = FullSpace(), d.faces()
        energy = assemble(SignedPair.of(d, minus=mu), mode)
        free = energy.free_cells
        scan = scan_functional_minimum(d, mu, frozenset(free))
        mf, mc = as_raw(mu)
        truth = naive.minima_by_volume(d.dims, free, (), {}, {}, mf, mc, _raw(perim))
        for v in range(len(free) + 1):
            sol, val = frontier_minimize(energy, volume=v, cap=22)
            best, argmins = truth[v]
            assert val == best
            assert sol.cells in argmins
            if v:
                assert val == -scan.best_at_volume[v][0]


@pytest.mark.parametrize("weight", [F(1), F(3, 4), F(5, 3)])
def test_minima_in_every_mode_with_pins(rng, weight):
    # signed pairs with heavy faces, every mode, frozen cells from the mode
    # (a Dirichlet datum freezes cells in) and from freeze; with and
    # without a volume
    for trial in range(15):
        d = GridDomain(rng.choice(DIMS))
        omega = Region.of(d, [c for c in d.cells() if rng.random() < 0.7] or d.cells()[:2])
        plus, minus = _rand_measure(rng, d, 0.2), _rand_measure(rng, d, 0.3)
        kind = trial % 3
        if kind == 0:
            mode, perim = FullSpace(), None
        elif kind == 1:
            mode, perim = Relative(omega=omega), _raw(omega.interior_faces())
        else:
            a0 = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.5])
            plus, minus = restrict(plus, omega.cell_set()), restrict(minus, omega.cell_set())
            mode, perim = Dirichlet(a0=a0, omega=omega), _raw(omega.closure_faces())
        pair = SignedPair(plus, minus)
        energy = assemble(pair, mode, weight)
        pins = {c: rng.random() < 0.5 for c in energy.free_cells if rng.random() < 0.2}
        energy = freeze(energy, pins)
        pf, pc = as_raw(plus)
        mf, mc = as_raw(minus)
        truth = naive.minima_by_volume(
            d.dims, energy.free_cells, energy.frozen_ones(), pf, pc, mf, mc, perim, weight
        )
        sol, val = frontier_minimize(energy, cap=22)
        assert val == min(best for best, _ in truth.values() if best is not None)
        assert any(sol.cells in argmins for best, argmins in truth.values() if best == val)
        for v, (best, argmins) in truth.items():
            sol, val = frontier_minimize(energy, volume=v, cap=22)
            assert val == best
            assert sol.cells in argmins


def test_capacity_matches_enumeration_and_branch_and_bound(rng):
    # boundary faces included; the branch and bound runs when the cap
    # leaves no budget for the sweep
    for trial in range(30):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2)]))
        faces = rng.sample(list(d.faces()), k=rng.randint(1, 4))
        cells = rng.sample(list(d.cells()), k=rng.randint(0, 1))
        value, witness = capacity(d, faces=faces, cells=cells)
        best, argmins = naive.covering_minimum(d.dims, _raw(faces), cells)
        assert value == best
        assert witness.cells in argmins
        assert set(faces) <= closure_faces(witness)
        assert perimeter(witness) == value
        bb_value, bb_witness = capacity(d, faces=faces, cells=cells, exhaustive_cap=0)
        assert bb_value == value
        assert bb_witness.cells in argmins


def test_ties_follow_the_documented_order_and_repeat(rng):
    # zero or tiny measures leave many minimizers per volume
    for dims in [(2, 4), (3, 3), (2, 2, 2), (2, 1, 3), (6,)]:
        d = GridDomain(dims)
        for trial in range(3):
            mu = MeasureData(d, face_weights={
                f: F(1) for f in d.faces() if rng.random() < 0.2 * trial
            })
            energy = assemble(SignedPair.of(d, minus=mu), FullSpace())
            mf, mc = as_raw(mu)
            truth = naive.minima_by_volume(d.dims, d.cells(), (), {}, {}, mf, mc)
            key = naive.sweep_key(energy.free_cells)
            for v, (best, argmins) in truth.items():
                sol, val = frontier_minimize(energy, volume=v, cap=22)
                assert sol.cells == min(argmins, key=key)
                assert frontier_minimize(energy, volume=v, cap=22)[0].cells == sol.cells


def _pool(rng, trial):
    """A grid and the region of a differential pool (None: the whole grid)."""
    shape = trial % 8
    if shape < 6:
        return GridDomain(((3, 4), (4, 3), (2, 6), (6, 2), (3, 3), (2, 2, 3))[shape]), None
    side = rng.choice([4, 5])
    d = GridDomain((side, side))
    if shape == 6:  # L: a square with a corner box cut away
        cells = [c for c in d.cells() if min(c) < side - 2]
    else:  # a ring: the square's outermost cells
        cells = [c for c in d.cells() if min(c) == 0 or max(c) == side - 1]
    return d, Region.of(d, cells)


def test_dp_and_oracle_return_the_same_sets(rng):
    # one tie order: per volume the frontier sweep and the Gray scan keep
    # the same minimizer, here with random cell masses and so many ties
    answers = 0
    for trial in range(48):
        d, region = _pool(rng, trial)
        pool = d.cells() if region is None else sorted(region.cells)
        mu = MeasureData(d, cell_weights={
            c: F(rng.randint(1, 4), 2) for c in pool if rng.random() < 0.5
        })
        mode = FullSpace() if region is None else Dirichlet(a0=CellSet.empty(d), omega=region)
        energy = assemble(SignedPair.of(d, minus=mu), mode)
        scan = _scan(energy)
        compiled = scan_functional_minimum(d, mu, None if region is None else region.cells)
        empty = evaluate(energy, CellSet.empty(d))
        for v in range(1, len(pool) + 1):
            sol, val = frontier_minimize(energy, volume=v, cap=22)
            excess, found = scan.best_at_volume[v]
            assert (val, sol.cells) == (empty - excess, found.cells)
            assert compiled.best_at_volume[v] == (excess, found)
            answers += 1
    assert answers >= 500


def test_wide_domain_is_refused_before_allocating():
    d = GridDomain((60, 60))
    energy = assemble(SignedPair.of(d, minus=hyperplane_measure(d, 1, 30, F(3, 2))), FullSpace())
    tracemalloc.start()
    try:
        with pytest.raises(FrontierBudgetExceeded) as info:
            frontier_minimize(energy, volume=1200, cap=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert info.value.width == 60 and info.value.cap == 22


def test_budget_counts_positions_states_and_volumes():
    # 3x4: 12 positions, W = 3; 12 * 8 * (v + 1) against 2**cap
    d = GridDomain((3, 4))
    energy = assemble(SignedPair.zero(d), FullSpace())
    frontier_minimize(energy, volume=4, cap=9)  # 480 <= 512
    with pytest.raises(FrontierBudgetExceeded):
        frontier_minimize(energy, volume=5, cap=9)  # 576 > 512
    frontier_minimize(energy, cap=7)  # 96 <= 128
    with pytest.raises(FrontierBudgetExceeded):
        frontier_minimize(energy, cap=6)
    # a chain of 8: W = 1, so exactly 2**cap entries still run
    chain = assemble(SignedPair.zero(GridDomain((8,))), FullSpace())
    frontier_minimize(chain, volume=1, cap=5)  # 8 * 2 * 2 = 32
    frontier_minimize(chain, cap=4)  # 8 * 2 = 16
    with pytest.raises(FrontierBudgetExceeded):
        frontier_minimize(chain, cap=3)


def test_covering_pairs_must_be_free_face_neighbours():
    d = GridDomain((3, 3))
    energy = freeze(assemble(SignedPair.zero(d), FullSpace()), {(1, 1): True})
    with pytest.raises(ValueError, match="face neighbours"):
        frontier_minimize(energy, covering=[((0, 0), (0, 2))], cap=22)
    with pytest.raises(ValueError, match="not free"):
        frontier_minimize(energy, covering=[((0, 1), (1, 1))], cap=22)
    sol, val = frontier_minimize(energy, covering=[((0, 0), (0, 1))], cap=22)
    assert val == 6 and (1, 1) in sol and ((0, 0) in sol or (0, 1) in sol)


def test_table_past_the_memory_is_refused_before_allocating():
    # 64x64: 4096 steps x 2**64 fit the budget of 2**200 but not any memory
    d = GridDomain((64, 64))
    energy = assemble(SignedPair.of(d, minus=hyperplane_measure(d, 1, 32, F(3, 2))), FullSpace())
    tracemalloc.start()
    try:
        with pytest.raises(FrontierBudgetExceeded) as info:
            frontier_minimize(energy, cap=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert info.value.width == 64 and info.value.n_cells == 4096
    assert info.value.fits_budget


def _window(energy, covering=()):
    """(free cells, window) the sweep reports when no budget is left."""
    with pytest.raises(FrontierBudgetExceeded) as info:
        frontier_minimize(energy, covering=covering, cap=0)
    assert not info.value.fits_budget
    return info.value.n_cells, info.value.width


def test_window_is_the_bandwidth_of_the_free_cells():
    # the 2-wide staircase (r, r), (r, r + 1) of 11x12: its box is 11 rows
    # by 12 columns, so the box's cross-section is 11, but consecutive cells
    # in the tie order are the only face neighbours
    d = GridDomain((11, 12))
    stairs = [(r, r + s) for r in range(11) for s in (0, 1)]
    mode = Dirichlet(a0=CellSet.empty(d), omega=Region.of(d, stairs))
    energy = assemble(SignedPair.zero(d), mode)
    assert _window(energy) == (22, 1)
    sol, val = frontier_minimize(energy, volume=11, cap=10)  # 22 x 12 x 2 entries
    assert sol.volume == 11
    # a full grid keeps its cross-section, 11 cells a column; a frozen row
    # leaves every column and the window
    assert _window(assemble(SignedPair.zero(d), FullSpace())) == (132, 11)
    energy = freeze(assemble(SignedPair.zero(d), FullSpace()), {(5, c): False for c in range(12)})
    assert _window(energy) == (120, 10)


def _sparse_pool(rng, trial):
    """A grid and the free cells of a pool sparse in its bounding box, and
    cells to freeze in or out among them."""
    shape = trial % 5
    if shape == 0:  # a diagonal
        d = GridDomain((6, 7))
        cells = [(i, i + trial % 2) for i in range(6)]
    elif shape == 1:  # a 2-wide staircase
        d = GridDomain((5, 6))
        cells = [(r, r + s) for r in range(5) for s in (0, 1)]
    elif shape == 2:  # an L with 1-wide arms
        d = GridDomain((5, 5))
        cells = [c for c in d.cells() if min(c) == 0]
    elif shape == 3:  # a ring
        d = GridDomain((4, 5))
        cells = [c for c in d.cells() if min(c) == 0 or c[0] == 3 or c[1] == 4]
    else:  # a random mask with holes
        d = GridDomain(rng.choice([(4, 4), (3, 5), (2, 2, 3)]))
        cells = [c for c in d.cells() if rng.random() < 0.7] or d.cells()[:1]
    pins = {c: rng.random() < 0.5 for c in cells if rng.random() < 0.2}
    return d, cells, pins


def test_sparse_pools_match_scan_and_naive_set_for_set(rng):
    # diagonals, staircases, L's, rings and masks with frozen holes: the
    # sweep, the Gray scan and enumeration keep the same set at every volume
    for trial in range(20):
        d, cells, pins = _sparse_pool(rng, trial)
        region = Region.of(d, cells)
        mu = restrict(_rand_measure(rng, d, 0.5), region.cell_set())
        a0 = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.3])
        energy = freeze(assemble(SignedPair.of(d, minus=mu), Dirichlet(a0=a0, omega=region)), pins)
        free, ones = energy.free_cells, energy.frozen_ones()
        if not free:
            continue
        mf, mc = as_raw(mu)
        perim = _raw(region.closure_faces())
        truth = naive.minima_by_volume(d.dims, free, ones, {}, {}, mf, mc, perim)
        key = naive.sweep_key(free)
        scan = _scan(energy)
        for v, (best, argmins) in truth.items():
            least = min(argmins, key=lambda A: key(A - ones))
            sol, val = frontier_minimize(energy, volume=v, cap=22)
            assert (val, sol.cells) == (best, least)
            if v:
                excess, found = scan.best_at_volume[v]
                assert (truth[0][0] - excess, found.cells | ones) == (val, sol.cells)
        lowest = min(best for best, _ in truth.values())
        sol, val = frontier_minimize(energy, cap=22)
        tied = [A for best, argmins in truth.values() if best == lowest for A in argmins]
        assert (val, sol.cells) == (lowest, min(tied, key=lambda A: key(A - ones)))


def test_covering_pairs_next_to_frozen_targets(rng):
    # target cells are frozen in; the two-sided faces next to them are
    # covering pairs whose cells sit between frozen ones in the tie order
    for trial in range(12):
        d = GridDomain(rng.choice([(3, 4), (4, 3), (2, 5)]))
        cells = rng.sample(list(d.cells()), k=rng.randint(1, 2))

        def next_to_target(f):
            inc = d.face_cells(f)
            return len(inc) == 2 and not set(inc) & set(cells) and any(
                sum(abs(x - y) for x, y in zip(c, t)) == 1 for c in inc for t in cells
            )

        near = [f for f in d.faces() if next_to_target(f)]
        faces = rng.sample(near, k=min(3, len(near))) + rng.sample(list(d.faces()), k=1)
        value, witness = capacity(d, faces=faces, cells=cells)
        best, argmins = naive.covering_minimum(d.dims, _raw(faces), cells)
        forced = frozenset(cells) | {
            c for f in faces if len(d.face_cells(f)) == 1 for c in d.face_cells(f)
        }
        key = naive.sweep_key([c for c in d.cells() if c not in forced])
        assert (value, witness.cells) == (best, min(argmins, key=lambda A: key(A - forced)))


def test_no_free_cell_and_no_feasible_set():
    d = GridDomain((2, 3))
    pins = {c: sum(c) % 2 == 0 for c in d.cells()}
    energy = freeze(assemble(SignedPair.zero(d), FullSpace()), pins)
    sol, val = frontier_minimize(energy, cap=0)
    assert sol.cells == {c for c, inside in pins.items() if inside}
    assert val == evaluate(energy, sol) == 12
    # a chain of 3 with both of its faces covered needs at least one cell
    chain = assemble(SignedPair.zero(GridDomain((3,))), FullSpace())
    with pytest.raises(ValueError, match="no set meets"):
        frontier_minimize(chain, volume=0, covering=[((0,), (1,)), ((1,), (2,))], cap=22)
    assert frontier_minimize(chain, volume=1, covering=[((0,), (1,)), ((1,), (2,))], cap=22)[0] == CellSet.of(
        GridDomain((3,)), [(1,)]
    )
