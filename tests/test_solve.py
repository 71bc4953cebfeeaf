from dataclasses import fields
from fractions import Fraction

import pytest

import naive
from conftest import (
    as_raw,
    counted,
    rand_cellset,
    rand_domain,
    rand_submodular_pair,
    rand_weight,
)
from perivar import (
    BinaryEnergy,
    CellSet,
    Dirichlet,
    EmptyClassError,
    Face,
    FullSpace,
    GridDomain,
    MeasureData,
    Region,
    SignedPair,
    assemble,
    evaluate,
    hyperplane_measure,
    perimeter,
    restrict,
    solve_dirichlet,
    solve_obstacle,
    solve_volume,
    sum_measures,
    volume,
)
from perivar import solve
from perivar.frontier import frontier_minimize
from perivar.oracle import _scan
from perivar.solve import _greedy_resize

F = Fraction


def test_obstacle_matches_exhaustive(rng):
    for _ in range(25):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (6,)]))
        pair = rand_submodular_pair(rng, d)
        inner = rand_cellset(rng, d, p=0.15)
        outer = inner | rand_cellset(rng, d, p=0.6)
        result = solve_obstacle(inner, outer, pair)
        assert result.exact
        assert inner.issubset(result.minimizer)
        assert result.minimizer.issubset(outer)
        pf, pc = as_raw(pair.plus)
        mf, mc = as_raw(pair.minus)
        best, argmins = naive.minimize_over(
            d.dims, (outer - inner).cells, inner.cells, pf, pc, mf, mc
        )
        assert result.value == best
        assert result.minimizer.cells in argmins


def test_obstacle_rejects_crossed_obstacles():
    d = GridDomain((3, 3))
    inner = CellSet.of(d, [(0, 0)])
    outer = CellSet.of(d, [(1, 1)])
    with pytest.raises(EmptyClassError):
        solve_obstacle(inner, outer, SignedPair.zero(d))


def test_obstacle_with_region_pins_outside_cells():
    d = GridDomain((4, 4))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 3)).cells)
    inner = CellSet.of(d, [(0, 0)])
    pair = SignedPair.zero(d)
    result = solve_obstacle(inner, CellSet.full(d), pair, region=omega)
    # outside the region the set equals the inner obstacle: nothing there
    assert result.minimizer.cells <= frozenset(omega.cells) | inner.cells


def test_a_region_covering_the_grid_is_the_whole_grid(rng):
    # Dirichlet data outside a region that covers the grid pins no cell:
    # the energy is the free one array for array, and both solvers agree
    for _ in range(40):
        d = rand_domain(rng)
        full = d.full_region()
        pair = rand_submodular_pair(rng, d)
        free = assemble(pair, FullSpace())
        pinned = assemble(pair, Dirichlet(a0=rand_cellset(rng, d), omega=full))
        for field in fields(BinaryEnergy):
            assert getattr(pinned, field.name) == getattr(free, field.name)
        inner = rand_cellset(rng, d, p=0.15)
        outer = inner | rand_cellset(rng, d, p=0.6)
        assert solve_obstacle(inner, outer, pair, full) == solve_obstacle(inner, outer, pair)
        v = rng.randint(0, d.cell_count)
        assert solve_volume(v, pair.minus, full) == solve_volume(v, pair.minus)


def test_dirichlet_matches_exhaustive(rng):
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 2)).cells)
    a0 = CellSet.of(d, [(2, 1)])
    inside = sorted(omega.closure_faces())
    for _ in range(10):
        fw = {}
        for f in rng.sample(inside, k=3):
            w = F(rng.randint(0, 4), 2)
            if w:
                fw[f] = w
        pair = SignedPair.of(d, minus=MeasureData(d, face_weights=fw))
        result = solve_dirichlet(a0, omega, pair)
        assert result.exact
        pf, pc = as_raw(pair.plus)
        mf, mc = as_raw(pair.minus)
        perim = [(f.axis, f.slot, f.at) for f in omega.closure_faces()]
        best, argmins = naive.minimize_over(
            d.dims, omega.cells, a0.cells, pf, pc, mf, mc, perim
        )
        assert result.value == best
        assert result.minimizer.cells in argmins


def test_solve_volume_exact_small(rng):
    d = GridDomain((3, 3))
    for _ in range(8):
        fw = {}
        for f in rng.sample(list(d.faces()), k=3):
            w = F(rng.randint(0, 4), 2)
            if w:
                fw[f] = w
        mu = MeasureData(d, face_weights=fw)
        for v in (0, 2, 5, 9):
            result = solve_volume(v, mu)
            assert result.exact
            assert result.minimizer.volume == v
            mf, mc = as_raw(mu)
            best, argmins = naive.minimize_over(
                d.dims, d.cells(), frozenset(), {}, {}, mf, mc, volume=v
            )
            assert result.value == best
            assert result.minimizer.cells in argmins


def test_solve_volume_range_checks():
    d = GridDomain((2, 2))
    with pytest.raises(ValueError):
        solve_volume(5, MeasureData.zero(d))
    with pytest.raises(ValueError):
        solve_volume(-1, MeasureData.zero(d))


def test_solve_volume_envelope_path():
    # big enough to skip enumeration: the sweep must still certify bounds
    d = GridDomain((6, 6))
    mu = hyperplane_measure(d, 1, 3, F(2))
    for v in range(0, 37, 5):
        result = solve_volume(v, mu, exhaustive_cap=2)
        assert result.minimizer.volume == v
        direct = perimeter(result.minimizer) - sum(
            w
            for f, w in mu.face_weights.items()
            if any(c in result.minimizer for c in d.face_cells(f))
        )
        assert result.value == direct
        if result.exactness == "envelope-bound":
            cert = result.certificate
            assert cert["lower_bound"] <= result.value == cert["upper_bound"]
            lo_v, hi_v = cert["bracket_volumes"]
            assert hi_v < v < lo_v
        else:
            assert result.exact


@pytest.mark.parametrize("n, value", [(7, F(9)), (8, F(19, 2))])
def test_solve_volume_exact_above_the_enumeration_cap(n, value):
    # the weight-3/2 line at v = n^2/3: its perimeter-volume profile is
    # concave, so the Lagrangian envelope certifies no volume here (it
    # returned 19/2 and 10); the frontier sweep is exact
    d = GridDomain((n, n))
    mu = hyperplane_measure(d, 1, n // 2, F(3, 2))
    v = n * n // 3
    result = solve_volume(v, mu)
    assert result.exact
    assert result.value == value
    assert result.minimizer.volume == v
    assert result.value == evaluate(assemble(SignedPair.of(d, minus=mu), FullSpace()), result.minimizer)


def test_solve_volume_beyond_the_budget_falls_back_to_the_envelope():
    d = GridDomain((7, 7))
    mu = hyperplane_measure(d, 1, 3, F(3, 2))
    result = solve_volume(16, mu, exhaustive_cap=2)
    assert result.exactness == "envelope-bound"
    assert result.certificate["lower_bound"] < 9 < result.value


def test_solve_volume_enumerates_where_the_dp_refuses(monkeypatch):
    # 8 diagonal cells of 12x12 at cap 10: no two are face neighbours, so
    # the DP's window is 1 and its 8 (v + 1) 2 entries fit; no scan runs.
    # The 11-cell L (0, 0..5), (1..5, 0) at cap 11 has window 6: 11 (v + 1)
    # 2**6 entries fit 2**11 at v = 1 only, and subset enumeration answers
    # v = 2..10.  Either way the set is the one the DP keeps under a larger
    # cap.
    scans = []

    def counting(*args, **kwargs):
        scans.append(1)
        return _scan(*args, **kwargs)

    monkeypatch.setattr(solve, "_scan", counting)
    d = GridDomain((12, 12))
    diagonal = [(i, i) for i in range(8)]
    ell = [(0, j) for j in range(6)] + [(i, 0) for i in range(1, 6)]
    for cells, cap, n_scans in [(diagonal, 10, 0), (ell, 11, 9)]:
        scans.clear()
        region = Region.of(d, cells)
        mu = MeasureData(
            d,
            face_weights={Face(0, 1, (0,)): F(3, 2)},
            cell_weights={c: F(2 + i % 3, 1 + i % 2) for i, c in enumerate(cells)},
        )
        mf, mc = as_raw(mu)
        perim = [(f.axis, f.slot, f.at) for f in region.closure_faces()]
        truth = naive.minima_by_volume(d.dims, region.cells, (), {}, {}, mf, mc, perim)
        energy = assemble(SignedPair.of(d, minus=mu), Dirichlet(a0=CellSet.empty(d), omega=region))
        for v in range(1, len(cells)):
            result = solve_volume(v, mu, region, exhaustive_cap=cap)
            best, argmins = truth[v]
            assert result.exact
            assert result.value == best
            assert result.minimizer.cells in argmins
            assert result.minimizer == frontier_minimize(energy, volume=v, cap=22)[0]
        assert len(scans) == n_scans


def test_solve_volume_envelope_is_exact_at_a_breakpoint_volume():
    # a cell of mass 5 in a corner of 3x3, past both budgets at cap 2: the
    # Lagrangian sweep has a piece of that cell alone, so v = 1 is exact
    # without a certificate, and v = 2 is only bounded
    d = GridDomain((3, 3))
    mu = MeasureData(d, cell_weights={(0, 0): F(5)})
    result = solve_volume(1, mu, exhaustive_cap=2)
    assert (result.exactness, result.certificate, result.value) == ("exact", None, -1)
    assert result.minimizer.cells == {(0, 0)}
    assert solve_volume(2, mu, exhaustive_cap=2).exactness == "envelope-bound"


def test_solve_volume_envelope_agrees_with_truth_when_checkable():
    d = GridDomain((4, 4))
    mu = hyperplane_measure(d, 1, 2, F(2))
    for v in range(0, 17):
        truth = solve_volume(v, mu)  # exhaustive (16 cells <= default cap)
        env = solve_volume(v, mu, exhaustive_cap=2)
        assert truth.exact
        assert env.value >= truth.value
        if env.exact:
            assert env.value == truth.value


def test_solve_scaling_argmin_invariance(rng):
    from perivar.measure import scale

    for _ in range(10):
        d = GridDomain((3, 3))
        pair = rand_submodular_pair(rng, d)
        lam = F(rng.randint(1, 5), rng.choice([1, 2]))
        scaled = SignedPair(scale(pair.plus, lam), scale(pair.minus, lam))
        base = solve_obstacle(CellSet.empty(d), CellSet.full(d), pair)
        big = solve_obstacle(
            CellSet.empty(d), CellSet.full(d), scaled, perimeter_weight=lam
        )
        assert big.minimizer.cells == base.minimizer.cells
        assert big.value == lam * base.value


def _greedy_resize_by_evaluate(energy, start, target):
    """Slow route: score each candidate flip by a whole-energy evaluation."""
    current = set(start.cells)
    free = set(energy.free_cells)
    while len(current) != target:
        grow = len(current) < target
        candidates = (free - current) if grow else (current & free)
        best_cell, best_val = None, None
        for c in sorted(candidates):
            trial = (current | {c}) if grow else (current - {c})
            val = evaluate(energy, CellSet.of(start.domain, trial))
            if best_val is None or val < best_val:
                best_cell, best_val = c, val
        current = (current | {best_cell}) if grow else (current - {best_cell})
    return CellSet.of(start.domain, current)


def _rand_signed_measure(rng, domain, faces, cells):
    dens = (1, 2, 3, 5, 7)
    return MeasureData(
        domain,
        cell_weights={
            c: rand_weight(rng, 0, 2, dens) for c in rng.sample(cells, min(2, len(cells)))
        },
        face_weights={
            f: rand_weight(rng, 0, 3, dens) for f in rng.sample(faces, min(5, len(faces)))
        },
    )


def _resize_cases(rng, shapes, trials):
    """(energy, start, target) on random energies, every other one a
    Dirichlet pool whose cells outside omega are frozen, some of them in."""
    for trial in range(trials):
        d = GridDomain(rng.choice(shapes))
        cells = list(d.cells())
        if trial % 2:
            mode = FullSpace()
            faces = list(d.faces())
            free = cells
        else:
            omega = Region.of(d, [c for c in cells if rng.random() < 0.7] or cells[:2])
            # frozen cells outside omega, some of them in the set
            mode = Dirichlet(a0=rand_cellset(rng, d), omega=omega)
            faces = sorted(omega.closure_faces())
            free = sorted(omega.cells)
        pair = SignedPair(
            _rand_signed_measure(rng, d, faces, free),
            _rand_signed_measure(rng, d, faces, free),
        )
        energy = assemble(pair, mode, rng.choice([F(1), F(1, 2), F(3, 4)]))
        ones = energy.frozen_ones()
        for _ in range(4):
            start = energy.full_set(frozenset(c for c in free if rng.random() < 0.5))
            target = len(ones) + rng.randint(0, len(free))
            yield energy, start, target


def test_greedy_resize_matches_evaluate_route(rng):
    for energy, start, target in _resize_cases(rng, [(4, 4), (9,), (3, 2, 2), (5, 3)], 40):
        want = _greedy_resize_by_evaluate(energy, start, target)
        assert _greedy_resize(energy, start, target) == want
        assert want.volume == target


def test_greedy_resize_matches_the_rescoring_loop(rng):
    # the two references agree on the small families; the heap agrees with
    # the loop on pools too big to evaluate per candidate
    for energy, start, target in _resize_cases(rng, [(4, 4), (9,), (3, 2, 2), (5, 3)], 20):
        want = _greedy_resize_by_evaluate(energy, start, target)
        assert naive.greedy_resize(energy, start, target) == want
    for energy, start, target in _resize_cases(rng, [(12, 12), (40,), (5, 5, 4)], 12):
        assert _greedy_resize(energy, start, target) == naive.greedy_resize(energy, start, target)
    # past the free cells there is no set of the target volume
    with pytest.raises(EmptyClassError):
        _greedy_resize(energy, start, len(energy.frozen_ones()) + len(energy.free_cells) + 1)
    with pytest.raises(EmptyClassError):
        _greedy_resize(energy, start, len(energy.frozen_ones()) - 1)


def test_grid_cut_solvers_build_no_face_objects(monkeypatch):
    # the submodular energy of an obstacle or Dirichlet problem compiles by
    # stride arithmetic: no incident-cell lookups and no Face, per face
    counts = {}
    calls = []
    for dims in ((40, 40), (10, 10, 10)):
        d = GridDomain(dims)
        n, k = dims[0], len(dims)
        box = lambda lo, hi: CellSet.box(d, (lo,) * k, (hi,) * k)  # noqa: E731
        dens = {c: F(1 + sum(c) % 4, 4) for c in d.cells() if sum(c) % 3 == 0}
        minus = sum_measures(hyperplane_measure(d, 0, n // 2, F(3, 2)), MeasureData(d, dens))
        plus = MeasureData(d, {c: F(1, 2) for c in d.cells() if sum(c) % 7 == 0})
        pair = SignedPair(plus, minus)
        omega = box(2, n - 3)
        inside = SignedPair(restrict(plus, omega), restrict(minus, omega))
        inner, outer, region = box(n // 2 - 1, n // 2), box(1, n - 2), Region(d, omega.cells)
        calls += [
            (solve_obstacle, inner, outer, pair),
            (solve_obstacle, inner, outer, inside, region),
            (solve_dirichlet, box(0, n // 2), region, inside),
        ]
    with monkeypatch.context() as m:
        for name in ("lower_cell", "upper_cell", "face_cells"):
            m.setattr(GridDomain, name, counted(counts, name, getattr(GridDomain, name)))
        m.setattr(Face, "__init__", counted(counts, "Face", Face.__init__))
        results = [solve(*args) for solve, *args in calls]
        assert counts == {}
        # the counters do see such work
        d.face_cells(Face(0, 1, (0, 0)))
        assert counts == {"Face": 1, "face_cells": 1, "lower_cell": 1, "upper_cell": 1}
    assert all(r.exact for r in results)


def test_volume_and_obstacle_cells_must_be_integers():
    # a float or bool volume is refused, not truncated; a float cell in an
    # obstacle is refused by name, not reported as an empty class
    d = GridDomain((3, 3))
    mu = hyperplane_measure(d, 1, 1, Fraction(3, 2))
    for v in (2.7, True):
        with pytest.raises(ValueError, match="the volume must be an integer"):
            solve_volume(v, mu)
    with pytest.raises(ValueError, match="coordinate of cell .* must be an integer"):
        solve_obstacle(CellSet.of(d, [(1.5, 1)]), CellSet.full(d), SignedPair.zero(d))
    assert solve_volume(2, mu).minimizer.volume == 2
