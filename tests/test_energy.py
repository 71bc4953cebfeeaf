import itertools
from fractions import Fraction

import pytest

import naive
from conftest import as_raw, rand_submodular_pair, rand_weight
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
from perivar.energy import CLOSURE, INTERIOR, assemble_excess

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
    perim = None
    if not isinstance(mode, FullSpace):
        # omega's closure faces touch one of its cells, its interior faces
        # have both sides in it
        omega = mode.omega.cells
        need = any if isinstance(mode, Dirichlet) else all
        perim = [
            f for f in naive.all_faces(d.dims)
            if need(side in omega for side in naive.face_sides(d.dims, f))
        ]
    return naive.functional(d.dims, A.cells, pf, pc, mf, mc, perim, weight)


# 1D, 1 x n, n x 1, 2D and 2 x 2 x 3 grids, and the perimeter weights
DIFF_DIMS = ((5,), (1, 6), (6, 1), (3, 3), (2, 4), (2, 2, 3))
DIFF_WEIGHTS = (F(1), F(3, 4), F(5, 3))


def rand_signed_pair(rng, d, faces, cells):
    """Plus and minus weights on a few faces (boundary faces included, some
    faces carrying both signs) and cells, over denominators 1-5."""
    dens = (1, 2, 3, 4, 5)
    boundary = [f for f in faces if d.is_boundary_face(f)]
    pool = rng.sample(faces, min(4, len(faces))) + rng.sample(boundary, min(2, len(boundary)))
    weights = ({}, {}), ({}, {})  # (plus, minus) x (faces, cells)
    for key in pool + rng.sample(cells, min(3, len(cells))):
        kind = 0 if key in faces else 1
        sign = rng.randrange(3)  # plus, minus or both
        for side in (0, 1):
            if sign in (side, 2):
                weights[side][kind][key] = rand_weight(rng, 0, 2, dens)
    plus, minus = (MeasureData(d, face_weights=fw, cell_weights=cw) for fw, cw in weights)
    return SignedPair(plus, minus)


def check_every_subset(rng, pair, mode, free, weight, base=frozenset()):
    """evaluate == direct_value == naive on every set; then freeze a few
    free cells, add a volume term over a new denominator, and check the
    shifted energy on the same sets."""
    d = pair.domain
    energy = assemble(pair, mode, weight)
    pins = {c: rng.random() < 0.5 for c in sorted(free) if rng.random() < 0.3}
    lam = F(rng.randint(-6, 6), rng.choice([1, 2, 7]))
    shifted = add_volume_term(freeze(energy, pins), lam)
    for A in all_subsets(d, free, base):
        v = evaluate(energy, A)
        assert v == direct_value(pair, mode, A, weight) == naive_of(pair, mode, A, weight)
        if all((c in A.cells) == pin for c, pin in pins.items()):
            assert evaluate(shifted, A) == v + lam * A.volume
        else:
            with pytest.raises(FrozenCellConflictError):
                evaluate(shifted, A)


def test_evaluate_matches_direct_and_naive_fullspace(rng):
    for dims, weight in itertools.product(DIFF_DIMS, DIFF_WEIGHTS):
        d = GridDomain(dims)
        if d.cell_count > 9 and weight != DIFF_WEIGHTS[-1]:
            continue  # its 4096 sets, at one weight
        pair = rand_signed_pair(rng, d, list(d.faces()), list(d.cells()))
        check_every_subset(rng, pair, FullSpace(), d.cells(), weight)
    # a pair whose energy min cut can solve, at the unit weight
    for _ in range(25):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2)]))
        check_every_subset(rng, rand_submodular_pair(rng, d), FullSpace(), d.cells(), F(1))


def rand_omega(rng, d):
    cells = [c for c in d.cells() if rng.random() < 0.6]
    return Region.of(d, cells or [rng.choice(d.cells())])


def test_evaluate_matches_naive_dirichlet(rng):
    for dims, weight in itertools.product(DIFF_DIMS, DIFF_WEIGHTS):
        d = GridDomain(dims)
        omega = rand_omega(rng, d)
        a0 = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.5])
        pair = rand_signed_pair(rng, d, sorted(omega.closure_faces()), sorted(omega.cells))
        mode = Dirichlet(a0=a0, omega=omega)
        check_every_subset(rng, pair, mode, omega.cells, weight, base=a0.cells - omega.cells)


def test_evaluate_matches_naive_relative(rng):
    for dims, weight in itertools.product(DIFF_DIMS, DIFF_WEIGHTS):
        d = GridDomain(dims)
        omega = rand_omega(rng, d)
        # the measure may sit anywhere: only omega's cells can be in a set
        pair = rand_signed_pair(rng, d, list(d.faces()), list(d.cells()))
        check_every_subset(rng, pair, Relative(omega=omega), omega.cells, weight)
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 1), (2, 2)).cells)
    pair = SignedPair.of(d, minus=hyperplane_measure(d, 1, 2, F(3, 2)))
    check_every_subset(rng, pair, Relative(omega=omega), omega.cells, F(1))


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
    with pytest.raises(ValueError, match=r"cell \(0, 0\) is not free in this energy"):
        freeze(frozen, {(0, 0): False})  # not free any more
    with pytest.raises(ValueError, match=r"cell \(2, 0\) outside grid \(2, 2\)"):
        freeze(energy, {(2, 0): True})


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

    # 3D, violations on every axis: the report equals a per-face recomputation
    d = GridDomain((2, 3, 4))
    inner = [f for f in d.faces() if not d.is_boundary_face(f)]
    plus, minus = {}, {}
    for axis in range(3):
        faces = [f for f in inner if f.axis == axis]
        for f, (wp, wm) in zip(faces[::2], [(2, 2), (1, 1), (F(5, 4), F(1, 3)), (0, F(7, 2))]):
            plus[f], minus[f] = F(wp), F(wm)
    for f in [f for f in d.faces() if d.is_boundary_face(f)][::5]:
        plus[f], minus[f] = F(3), F(3)  # one-sided: never a face term
    pair = SignedPair(MeasureData(d, face_weights=plus), MeasureData(d, face_weights=minus))
    for weight in DIFF_WEIGHTS:
        want = []
        for f in sorted(inner):
            wp, wm = plus.get(f, F(0)), minus.get(f, F(0))
            if 2 * weight - wp - wm < 0:
                want.append((f, wp, wm, weight, 2 * weight - wp - wm))
        report = check_submodular(assemble(pair, FullSpace(), weight))
        got = [(v.face, v.w_plus, v.w_minus, v.p, v.margin) for v in report.violations]
        assert got == want and report.ok is not want
        assert {f.axis for f, *_ in want} == {0, 1, 2}
        assert all(type(x) is Fraction for v in got for x in v[1:])


def test_submodularity_report_derives_the_weights_of_every_energy():
    # the report reads each face's weights off its two costs: on excess
    # energies, within a region, after freeze and after a volume term with a
    # new denominator they must still be the per-face definitions
    d = GridDomain((3, 4))
    inner = sorted(f for f in d.faces() if not d.is_boundary_face(f))
    masses = [F(0), F(1, 2), F(3), F(7, 3), F(5)]
    mu = MeasureData(d, face_weights={f: masses[k % 5] for k, f in enumerate(inner)})
    nu = MeasureData(d, face_weights={f: masses[k % 3] for k, f in enumerate(inner)})
    admissible = [c for c in d.cells() if c != (2, 3)]
    left = Region.of(d, [c for c in d.cells() if c[1] < 2])
    pins = {(0, 0): True, (1, 2): False}
    unpinned = [c for c in admissible if c not in pins]

    def report(energy):
        r = check_submodular(energy)
        rows = [(v.face, v.w_plus, v.w_minus, v.p, v.margin) for v in r.violations]
        assert r.ok is not rows
        assert all(type(x) is Fraction for row in rows for x in row[1:])
        return rows

    def want(weights, free, within=None):
        # weights(face) = (w_plus, w_minus, charge); a face outside the
        # region ``within`` is not charged
        rows = []
        for f in inner:
            lo, hi = d.face_cells(f)
            if lo in free and hi in free:
                w_plus, w_minus, p = weights(f)
                if within is not None and not {lo, hi} <= within.cells:
                    p = F(0)
                if 2 * p - w_plus - w_minus < 0:
                    rows.append((f, w_plus, w_minus, p, 2 * p - w_plus - w_minus))
        return rows

    def excess(C, rep):
        # w_minus is the closure mass, w_plus minus the interior mass
        def weights(f):
            W = mu.face_weight(f)
            return (F(0), W, C) if rep == CLOSURE else (-W, F(0), C)
        return weights

    closure = want(excess(F(1), CLOSURE), admissible)
    assert closure and report(assemble_excess(mu, admissible, 1)) == closure
    # an interior representative fails only under a negative charge
    assert report(assemble_excess(mu, admissible, 1, rep=INTERIOR)) == []
    interior = want(excess(F(-1), INTERIOR), admissible)
    assert any(w_plus for _, w_plus, *_ in interior)
    assert report(assemble_excess(mu, admissible, -1, rep=INTERIOR)) == interior
    # outside the region a two-sided mass face is uncharged
    energy = assemble_excess(mu, admissible, 1, within=left)
    regional = want(excess(F(1), CLOSURE), admissible, left)
    assert any(p == 0 for *_, p, _ in regional)
    assert report(energy) == regional
    # freezing drops the faces it touches; a volume term keeps the rest
    frozen = freeze(energy, pins)
    kept = want(excess(F(1), CLOSURE), unpinned, left)
    assert len(kept) < len(regional) and report(frozen) == kept
    shifted = add_volume_term(frozen, F(2, 7))
    assert shifted.den == 7 * frozen.den and report(shifted) == kept

    # the same on the functional's own energy, plus and minus mass together
    def weights(f):
        return mu.face_weight(f), nu.face_weight(f), F(1)

    energy = assemble(SignedPair(mu, nu), FullSpace())
    assert report(energy) == want(weights, d.cells())
    kept = want(weights, [c for c in d.cells() if c not in pins])
    frozen = freeze(energy, pins)
    assert kept and report(frozen) == kept
    shifted = add_volume_term(frozen, F(2, 7))
    assert shifted.den == 7 * frozen.den and report(shifted) == kept
