"""The route matrix: every route of every entry point, forced on small
instances and checked against ``tests/naive.py``.

Each route is counted where its entry point calls it, through the name
the entry point's module binds, and each test asserts that every route
it forces is reached.
"""

from fractions import Fraction

import pytest

import naive
from conftest import as_raw, counted, whole_grid_cover
from perivar import (
    CellSet,
    Dirichlet,
    Face,
    FullSpace,
    GridDomain,
    MeasureData,
    Region,
    SignedPair,
    assemble,
    capacity,
    small_volume_profile,
    solve_volume,
    strong_excess,
)
from perivar import ic, solve
from perivar.frontier import frontier_minimize
from perivar.oracle import _scan

F = Fraction
SHAPES = ((3, 3), (2, 4), (2, 2, 2))


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)


def _count(monkeypatch, module, *names) -> dict:
    """Per name, the calls made through ``module``'s binding of it."""
    counts = {}
    for name in names:
        monkeypatch.setattr(module, name, counted(counts, name, getattr(module, name)))
    return counts


def _taken(counts) -> set:
    """The names called since the last look; forgets them."""
    taken = {name for name, n in counts.items() if n}
    counts.clear()
    return taken


def _measure(rng, d, heavy=False):
    """Random face and cell masses; faces weigh at most 2 (submodular at
    C = 1) unless ``heavy``, which adds a face of weight 3 between two cells."""
    faces = {f: F(rng.randint(1, 8), 4) for f in rng.sample(d.faces(), 3)}
    if heavy:
        inner = [f for f in d.faces() if not d.is_boundary_face(f)]
        faces[rng.choice(inner)] = F(3)
    cells = {c: F(rng.randint(1, 4), 4) for c in rng.sample(d.cells(), 2)}
    return MeasureData(d, cell_weights=cells, face_weights=faces)


def test_strong_excess_routes(rng, monkeypatch):
    calls = _count(monkeypatch, ic, "max_flow", "scan_excess", "_scan")
    reached = set()
    for trial in range(24):
        d = GridDomain(SHAPES[trial % 3])
        heavy = trial % 2 == 1
        mu = _measure(rng, d, heavy)
        best, maximizers = naive.excess_maximizers(d.dims, *as_raw(mu), 1)
        forced = [("exhaustive", "scan_excess", "exhaustive")]
        if heavy:  # not submodular: the automatic route scans the compiled energy
            forced.append((None, "_scan", "exhaustive"))
        else:
            forced += [(None, "max_flow", "min-cut"), ("min-cut", "max_flow", "min-cut")]
        for method, called, route in forced:
            res = strong_excess(mu, 1, method=method)
            assert _taken(calls) == {called}
            assert res.method == route
            assert res.value == best
            assert res.witness.cells in maximizers
            reached.add((method, route))
    assert len(reached) == 4


def test_small_volume_profile_routes(rng, monkeypatch):
    calls = _count(monkeypatch, ic, "scan_excess", "_breakpoints")
    reached = {"scan": 0, "envelope": 0}
    for trial in range(12):
        d = GridDomain(SHAPES[trial % 3])
        mu = _measure(rng, d)
        mf, mc = as_raw(mu)
        # per volume k, the least C P(A) - mu(A+), C = 1: the negated excess
        truth = naive.minima_by_volume(d.dims, d.cells(), (), {}, {}, mf, mc)
        phi = []
        for k in range(1, d.cell_count + 1):
            phi.append(max(phi[-1:] + [-truth[k][0]]))
        scanned = small_volume_profile(mu, 1)
        assert _taken(calls) == {"scan_excess"}
        assert [e.phi for e in scanned.entries] == phi
        reached["scan"] += 1
        enveloped = small_volume_profile(mu, 1, exhaustive_cap=0)
        assert _taken(calls) == {"_breakpoints"}
        for e, want in zip(enveloped.entries, phi):
            assert e.method == "lagrangian-envelope"
            assert e.phi >= want if e.upper_bound_only else e.phi == want
        reached["envelope"] += 1
    assert min(reached.values()) >= 12


def test_solve_volume_routes(rng, monkeypatch):
    # the DP route calls neither the scan nor the sweep
    calls = _count(monkeypatch, solve, "_scan", "parametric_sweep")
    reached = {"dp": 0, "_scan": 0, "parametric_sweep": 0}

    def check(v, mu, region, cap, truth, energy):
        result = solve_volume(v, mu, region, exhaustive_cap=cap)
        route = _taken(calls) or {"dp"}
        assert len(route) == 1
        reached[route.pop()] += 1
        best, argmins = truth[v]
        if result.exact:
            assert result.value == best
            assert result.minimizer.cells in argmins
        else:
            assert result.certificate["lower_bound"] <= best <= result.value
        return result

    # the DP within the budget, the envelope past both budgets; the DP's
    # set is the oracle's
    for trial in range(6):
        d = GridDomain(SHAPES[trial % 3])
        mu = _measure(rng, d)
        truth = naive.minima_by_volume(d.dims, d.cells(), (), {}, {}, *as_raw(mu))
        energy = assemble(SignedPair.of(d, minus=mu), FullSpace())
        scan = _scan(energy)
        for v in range(1, d.cell_count):
            result = check(v, mu, None, 22, truth, energy)
            assert result.minimizer.cells == scan.best_at_volume[v][1].cells
            check(v, mu, None, 2, truth, energy)
    # the 11-cell L (0, 0..5), (1..5, 0) of 12x12 at cap 11: the DP fits
    # only v = 1 and enumeration answers v = 2..10, with the DP's set
    d = GridDomain((12, 12))
    ell = [(0, j) for j in range(6)] + [(i, 0) for i in range(1, 6)]
    region = Region.of(d, ell)
    mu = MeasureData(
        d,
        face_weights={Face(0, 1, (0,)): F(3, 2)},
        cell_weights={c: F(2 + i % 3, 1 + i % 2) for i, c in enumerate(ell)},
    )
    perim = [(f.axis, f.slot, f.at) for f in region.closure_faces()]
    truth = naive.minima_by_volume(d.dims, region.cells, (), {}, {}, *as_raw(mu), perim)
    energy = assemble(SignedPair.of(d, minus=mu), Dirichlet(a0=CellSet.empty(d), omega=region))
    for v in range(2, len(ell)):
        result = check(v, mu, region, 11, truth, energy)
        assert result.minimizer == frontier_minimize(energy, volume=v, cap=22)[0]
    assert min(reached.values()) >= 9


def test_capacity_routes(rng, monkeypatch):
    calls = _count(monkeypatch, ic, "minimize", "frontier_minimize")
    reached = {"min-cut": 0, "sweep": 0, "branch-and-bound": 0}
    for trial in range(60):
        d = GridDomain(SHAPES[trial % 3])
        if trial % 3 == 2:  # no covering pair: target cells and boundary faces
            boundary = [f for f in d.faces() if d.is_boundary_face(f)]
            faces = rng.sample(boundary, rng.randint(0, 2))
            cells = rng.sample(d.cells(), 2 - len(faces) // 2)
        else:
            faces = rng.sample(d.faces(), rng.randint(1, 4))
            cells = rng.sample(d.cells(), rng.randint(0, 1))
        best, argmins = naive.covering_minimum(d.dims, [(f.axis, f.slot, f.at) for f in faces], cells)
        _, whole, pairs = whole_grid_cover(d, faces, cells)
        for cap in (22, 0):
            value, witness = capacity(d, faces=faces, cells=cells, exhaustive_cap=cap)
            nodes, sweeps = calls.get("minimize", 0), calls.get("frontier_minimize", 0)
            calls.clear()
            if not pairs:
                route = "min-cut"
                assert (nodes, sweeps) == (1, 0)
                # the min cut's inclusion-minimal set is the sweep's set
                # on the whole grid, with no box
                assert witness == whole
            elif cap:
                route = "sweep"
                assert (nodes, sweeps) == (0, 1)
            else:  # the sweep refuses, and min cuts price every node
                route = "branch-and-bound"
                assert sweeps == 1 and nodes >= 2
            reached[route] += 1
            assert value == best
            assert witness.cells in argmins
    assert min(reached.values()) >= 15

