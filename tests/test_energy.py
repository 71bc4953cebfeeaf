import itertools
from fractions import Fraction

import pytest

import naive
from conftest import as_raw, rand_submodular_pair
from perivar import (
    CellSet,
    Dirichlet,
    Face,
    FrozenCellConflictError,
    FullSpace,
    GridDomain,
    MeasureData,
    MeasureSupportError,
    Region,
    Relative,
    SignedPair,
    add_volume_term,
    assemble,
    check_submodular,
    direct_value,
    evaluate,
    freeze,
    hyperplane_measure,
)

F = Fraction


def all_subsets(domain, free, base=frozenset()):
    free = sorted(free)
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            yield CellSet.of(domain, base | frozenset(combo))


def naive_of(pair, mode, A, weight=F(1)):
    d = pair.domain
    pf, pc = as_raw(pair.plus)
    mf, mc = as_raw(pair.minus)
    if isinstance(mode, FullSpace):
        perim = None
    else:
        kind = "closure" if isinstance(mode, Dirichlet) else "interior"
        faces = (
            mode.omega.closure_faces()
            if kind == "closure"
            else mode.omega.interior_faces()
        )
        perim = [(f.axis, f.slot, f.at) for f in faces]
    return naive.functional(d.dims, A.cells, pf, pc, mf, mc, perim, weight)


def test_evaluate_matches_direct_and_naive_fullspace(rng):
    for _ in range(25):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2)]))
        pair = rand_submodular_pair(rng, d)
        mode = FullSpace()
        energy = assemble(pair, mode)
        for A in all_subsets(d, d.cells()):
            v = evaluate(energy, A)
            assert v == direct_value(pair, mode, A)
            assert v == naive_of(pair, mode, A)


def test_evaluate_matches_naive_dirichlet(rng):
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 2)).cells)
    a0 = CellSet.of(d, [(2, 0), (2, 1)])
    inside_faces = sorted(omega.closure_faces())
    for _ in range(15):
        fw = {}
        for f in rng.sample(inside_faces, k=3):
            w = F(rng.randint(0, 4), 2)
            if w:
                fw[f] = w
        mu = MeasureData(d, face_weights=fw)
        pair = SignedPair.of(d, minus=mu)
        mode = Dirichlet(a0=a0, omega=omega)
        energy = assemble(pair, mode)
        for A in all_subsets(d, omega.cells, base=a0.cells):
            v = evaluate(energy, A)
            assert v == direct_value(pair, mode, A)
            assert v == naive_of(pair, mode, A)


def test_evaluate_matches_naive_relative(rng):
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 1), (2, 2)).cells)
    mu = hyperplane_measure(d, 1, 2, F(3, 2))
    pair = SignedPair.of(d, minus=mu)
    mode = Relative(omega=omega)
    energy = assemble(pair, mode)
    for A in all_subsets(d, omega.cells):
        assert evaluate(energy, A) == direct_value(pair, mode, A)
        assert evaluate(energy, A) == naive_of(pair, mode, A)


def test_perimeter_weight_scales_cut_term():
    d = GridDomain((3, 3))
    pair = SignedPair.zero(d)
    A = CellSet.box(d, (0, 0), (1, 1))
    for w in (F(1, 2), F(3)):
        energy = assemble(pair, FullSpace(), perimeter_weight=w)
        assert evaluate(energy, A) == w * 8
    with pytest.raises(ValueError):
        assemble(pair, FullSpace(), perimeter_weight=-1)


def test_dirichlet_rejects_outside_support():
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 2)).cells)
    mu = MeasureData(d, cell_weights={(2, 2): F(1)})
    with pytest.raises(MeasureSupportError):
        assemble(SignedPair.of(d, minus=mu), Dirichlet(a0=CellSet.empty(d), omega=omega))


def test_freeze_and_conflicts():
    d = GridDomain((2, 2))
    pair = SignedPair.zero(d)
    energy = assemble(pair, FullSpace())
    frozen = freeze(energy, {(0, 0): True, (1, 1): False})
    ok = CellSet.of(d, [(0, 0), (0, 1)])
    assert evaluate(frozen, ok) == evaluate(energy, ok)
    with pytest.raises(FrozenCellConflictError):
        evaluate(frozen, CellSet.of(d, [(1, 1)]))
    with pytest.raises(ValueError):
        freeze(frozen, {(0, 0): False})  # not free any more


def test_add_volume_term():
    d = GridDomain((3, 3))
    pair = SignedPair.zero(d)
    energy = assemble(pair, FullSpace())
    lam = F(5, 3)
    shifted = add_volume_term(energy, lam)
    for A in (CellSet.empty(d), CellSet.box(d, (0, 0), (1, 2)), CellSet.full(d)):
        assert evaluate(shifted, A) == evaluate(energy, A) + lam * A.volume


def test_freeze_then_add_volume_term_across_denominators():
    d = GridDomain((2, 3))
    f = Face(0, 1, (1,))
    pair = SignedPair.of(
        d, minus=MeasureData(d, cell_weights={(0, 1): F(4, 3)}, face_weights={f: F(2, 3)})
    )
    mode = FullSpace()
    energy = assemble(pair, mode)
    assert energy.den == 3
    pins = {(0, 0): True, (1, 2): False}
    lam = F(2, 7)
    shifted = add_volume_term(freeze(energy, pins), lam)
    assert shifted.den == 21
    for A in all_subsets(d, d.cells()):
        if all((c in A.cells) == v for c, v in pins.items()):
            assert evaluate(shifted, A) == direct_value(pair, mode, A) + lam * A.volume
        else:
            with pytest.raises(FrozenCellConflictError):
                evaluate(shifted, A)


def test_submodularity_report():
    d = GridDomain((3, 3))
    f = Face(0, 1, (1,))
    ok_pair = SignedPair.of(d, minus=MeasureData(d, face_weights={f: F(2)}))
    assert check_submodular(assemble(ok_pair, FullSpace())).ok
    # w_plus + w_minus > 2p violates the cut representability margin
    bad_pair = SignedPair(
        MeasureData(d, face_weights={f: F(3, 2)}),
        MeasureData(d, face_weights={f: F(3, 2)}),
    )
    report = check_submodular(assemble(bad_pair, FullSpace()))
    assert not report.ok
    assert [v.face for v in report.violations] == [f]
    assert report.violations[0].margin == -1
    v = report.violations[0]
    assert (v.w_plus, v.w_minus, v.p, v.margin) == (F(3, 2), F(3, 2), F(1), F(-1))
    assert all(type(x) is Fraction for x in (v.w_plus, v.w_minus, v.p, v.margin))
