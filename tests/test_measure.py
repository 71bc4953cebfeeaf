from fractions import Fraction

import pytest

import naive
from conftest import as_raw, counted, rand_cellset, rand_domain, rand_measure
from perivar import (
    CellSet,
    Face,
    FullSpace,
    GridDomain,
    MeasureData,
    Region,
    SignedPair,
    add_volume_term,
    are_mutually_singular,
    assemble,
    boundary_faces,
    boundary_measure,
    closure_faces,
    direct_value,
    divergence_certificate,
    evaluate,
    hyperplane_measure,
    mass_on_closure,
    mass_on_interior,
    parametric_sweep,
    perimeter,
    restrict,
    scale,
    small_volume_profile,
    solve_dirichlet,
    solve_obstacle,
    strong_excess,
    sum_measures,
)
from perivar.energy import assemble_excess
from perivar.experiments import (
    run_capacity_scaling,
    run_convex_threshold,
    run_interval_clusters,
    run_pseudoconvex,
    run_refinement,
    run_runaway_slab,
    run_tentacle,
)

F = Fraction


def test_zero_measure():
    d = GridDomain((3, 3))
    mu = MeasureData.zero(d)
    assert mu.is_zero
    assert mu.total_mass() == 0
    assert mu.support_cells() == frozenset()
    assert mu.support_faces() == frozenset()


def test_negative_weights_rejected():
    d = GridDomain((2, 2))
    with pytest.raises(ValueError):
        MeasureData(d, cell_weights={(0, 0): F(-1)})
    with pytest.raises(ValueError):
        MeasureData(d, face_weights={Face(0, 0, (0,)): F(-1, 2)})


def test_out_of_domain_support_rejected():
    d = GridDomain((2, 2))
    with pytest.raises(ValueError, match="outside domain"):
        MeasureData(d, cell_weights={(5, 0): F(1)})
    with pytest.raises(ValueError, match="outside domain"):
        MeasureData(d, face_weights={Face(0, 9, (0,)): F(1)})


def test_weights_must_be_exact():
    d = GridDomain((2, 2))
    with pytest.raises(TypeError, match="exact rationals"):
        MeasureData(d, cell_weights={(0, 0): 0.5})
    with pytest.raises(TypeError, match="exact rationals"):
        MeasureData(d, face_weights={Face(0, 0, (0,)): "1"})
    with pytest.raises(TypeError, match="cell_weights takes exact rationals"):
        MeasureData(d, cell_weights={(0, 0): True})
    mu = MeasureData(d, cell_weights={(0, 0): 1}, face_weights={Face(0, 0, (0,)): F(1, 2)})
    assert mu.cell_weights == {(0, 0): F(1)} and type(mu.cell_weights[(0, 0)]) is Fraction
    for derive in (
        lambda: scale(mu, 0.5),
        lambda: hyperplane_measure(d, 0, 0, 0.5),
        lambda: boundary_measure(CellSet.full(d), 0.5),
    ):
        with pytest.raises(TypeError, match="exact rationals"):
            derive()
    with pytest.raises(ValueError, match="nonnegative"):
        hyperplane_measure(d, 0, 0, F(-1))
    with pytest.raises(ValueError, match="nonnegative"):
        boundary_measure(CellSet.full(d), -1)


_D = GridDomain((3, 3))
_LINE = hyperplane_measure(_D, 1, 1, F(3, 2))
_PAIR = SignedPair.of(_D, minus=_LINE)
_FULL = CellSet.full(_D)
_ENERGY = assemble(_PAIR, FullSpace())

# every public number from outside the package, by the parameter that takes
# it: (parameter, call, a good value, the answer there)
GATED = [
    ("C", lambda x: strong_excess(_LINE, x).value, F(3, 2), F(-9, 2)),
    ("cell_penalty", lambda x: strong_excess(_LINE, 1, cell_penalty=x).value, F(1, 2), F(-3)),
    (
        "C",
        lambda x: [e.phi for e in small_volume_profile(_LINE, x, v_max=3).entries],
        F(1, 2),
        [F(-1, 2), F(0), F(1, 2)],
    ),
    (
        "cell_penalty",
        lambda x: [
            e.phi for e in small_volume_profile(_LINE, 1, v_max=3, cell_penalty=x).entries
        ],
        F(1, 2),
        [F(-3)] * 3,
    ),
    ("C", lambda x: divergence_certificate(_LINE, x).max_abs_sigma(), F(3, 2), F(3, 2)),
    ("C", lambda x: evaluate(assemble_excess(_LINE, _D.cells(), x), _FULL), F(1, 2), F(3, 2)),
    (
        "cell_penalty",
        lambda x: evaluate(assemble_excess(_LINE, _D.cells(), 1, cell_penalty=x), _FULL),
        F(1, 2),
        F(12),
    ),
    ("perimeter_weight", lambda x: evaluate(assemble(_PAIR, FullSpace(), x), _FULL), F(1, 2), F(3, 2)),
    (
        "perimeter_weight",
        lambda x: solve_obstacle(CellSet.empty(_D), _FULL, _PAIR, perimeter_weight=x).value,
        F(4, 5),
        F(0),
    ),
    (
        "perimeter_weight",
        lambda x: solve_dirichlet(_FULL, Region.of(_D, _D.cells()), _PAIR, perimeter_weight=x).value,
        F(4, 5),
        F(0),
    ),
    ("perimeter_weight", lambda x: direct_value(_PAIR, FullSpace(), _FULL, x), F(1, 2), F(3, 2)),
    ("w", lambda x: run_tentacle(x, [2], blob=1).rows, F(5, 2), ((2, 3, 8, 5, 3, 4),)),
    ("w", lambda x: run_interval_clusters([1], length=2, w=x).rows, F(3, 2), ((1, 3, 1, 2),)),
    ("thetas", lambda x: run_convex_threshold([x], grid=2).rows, F(3, 2), ((F(3, 2), 4, -4, 0, -4),)),
    # the signed ones
    ("lam", lambda x: evaluate(add_volume_term(_ENERGY, x), _FULL), F(-1, 3), F(9, 2)),
    (
        "lam_lo",
        lambda x: [(p.lam_lo, p.volume) for p in parametric_sweep(_ENERGY, x, 2)],
        F(-3, 2),
        [(F(-3, 2), 9), (F(-5, 6), 0)],
    ),
    (
        "lam_hi",
        lambda x: [(p.lam_lo, p.volume) for p in parametric_sweep(_ENERGY, -2, x)],
        F(-1, 2),
        [(F(-2), 9), (F(-5, 6), 0)],
    ),
    # the integers
    ("lengths", lambda x: run_tentacle(2, [x], blob=1).rows, 2, ((2, 3, 8, 4, 4, 4),)),
    ("blob", lambda x: run_tentacle(2, [1], blob=x).rows, 2, ((1, 5, 10, 2, 8, 8),)),
    ("L", lambda x: run_runaway_slab(x, [0]).rows, 2, ((0, 2, 6, 8, -2, 0),)),
    ("shifts", lambda x: run_runaway_slab(1, [x]).rows, 2, ((2, 1, 4, 4, 0, 0),)),
    ("ks", lambda x: run_capacity_scaling([x]).rows, 2, ((2, 6, 4, F(3, 2)),)),
    ("sizes", lambda x: run_pseudoconvex([(x, 1)], grid=3).rows, 2, ((2, 1, 0, 2, F(3, 2)),)),
    ("ells", lambda x: run_interval_clusters([x], length=4).rows, 2, ((2, 2, 0, -1),)),
    ("length", lambda x: run_interval_clusters([1], length=x).rows, 3, ((1, 1, -1, -1),)),
    ("factors", lambda x: run_refinement("capacity", [x]).rows, 2, ((2, 4, 10, F(5, 4)),)),
    ("axis", lambda x: len(hyperplane_measure(_D, x, 1, 1).face_weights), 0, 3),
    ("slot", lambda x: len(hyperplane_measure(_D, 1, x, 1).face_weights), 3, 3),
    ("lo", lambda x: CellSet.box(_D, (x, 0), (2, 1)).volume, 1, 4),
    ("hi", lambda x: CellSet.box(_D, (0, 0), (x, 1)).volume, 1, 4),
]


@pytest.mark.parametrize(
    "name, call, good, answer", GATED, ids=[f"{i}-{case[0]}" for i, case in enumerate(GATED)]
)
def test_every_public_number_is_exact(name, call, good, answer):
    # a float, a bool or a string is refused by the parameter's name, as an
    # input error (ValueError) and as a wrong type (TypeError)
    for bad in (0.1, True, "1"):
        with pytest.raises(ValueError, match=rf"(^|of ){name} ") as refused:
            call(bad)
        assert isinstance(refused.value, TypeError)
    assert call(good) == answer
    if type(good) is Fraction:  # a rational takes an int as its Fraction
        assert call(1) == call(F(1))


def test_derived_measures_equal_checked_ones(rng):
    # the measure ops skip the constructor's checks; each result equals the
    # measure the checking constructor builds from the same weights
    def same(derived, cells, faces):
        checked = MeasureData(derived.domain, cells, faces)
        assert derived.domain == checked.domain
        assert derived.cell_weights == checked.cell_weights
        assert derived.face_weights == checked.face_weights

    for _ in range(40):
        d = rand_domain(rng)
        mu1, mu2 = rand_measure(rng, d, n_faces=5, n_cells=3), rand_measure(rng, d)
        lam = rng.choice([F(0), F(1), F(2, 3)])
        cells = {c: mu1.cell_weight(c) + mu2.cell_weight(c) for c in d.cells()}
        faces = {f: mu1.face_weight(f) + mu2.face_weight(f) for f in d.faces()}
        same(sum_measures(mu1, mu2), cells, faces)
        same(
            scale(mu1, lam),
            {c: w * lam for c, w in mu1.cell_weights.items()},
            {f: w * lam for f, w in mu1.face_weights.items()},
        )
        keep = rand_cellset(rng, d)
        cf = closure_faces(keep)
        same(
            restrict(mu1, keep),
            {c: w for c, w in mu1.cell_weights.items() if c in keep},
            {f: w for f, w in mu1.face_weights.items() if f in cf},
        )
        some = rng.sample(d.faces(), 3)
        same(restrict(mu1, some), {}, {f: mu1.face_weight(f) for f in some})
        axis = rng.randrange(d.d)
        slot = rng.randint(0, d.dims[axis])
        plane = [f for f in d.faces() if (f.axis, f.slot) == (axis, slot)]
        same(hyperplane_measure(d, axis, slot, lam), {}, dict.fromkeys(plane, lam))
        same(boundary_measure(keep, lam), {}, dict.fromkeys(boundary_faces(keep), lam))


def test_hyperplane_measure_lines_up():
    d = GridDomain((4, 3))
    mu = hyperplane_measure(d, 1, 2, F(3, 2))
    assert set(mu.face_weights) == {Face(1, 2, (x,)) for x in range(4)}
    assert all(w == F(3, 2) for w in mu.face_weights.values())
    assert mu.total_mass() == 4 * F(3, 2)
    with pytest.raises(ValueError):
        hyperplane_measure(d, 1, 4, F(1))
    with pytest.raises(ValueError):
        hyperplane_measure(d, 2, 0, F(1))


def test_hyperplane_measure_reads_only_its_slot(monkeypatch):
    # the same faces, in the same order, as filtering every face of the grid
    for dims in [(7,), (3, 4), (2, 3, 4)]:
        d = GridDomain(dims)
        for axis in range(d.d):
            for slot in range(dims[axis] + 1):
                mu = hyperplane_measure(d, axis, slot, F(3, 2))
                plane = [f for f in d.faces() if (f.axis, f.slot) == (axis, slot)]
                assert list(mu.face_weights.items()) == [(f, F(3, 2)) for f in plane]
    counts = {}
    monkeypatch.setattr(Face, "__init__", counted(counts, "Face", Face.__init__))
    mu = hyperplane_measure(GridDomain((64, 64, 64)), 1, 32, F(2))
    assert len(mu.face_weights) == 64 * 64
    assert counts.get("Face", 0) <= 64 * 64


def test_boundary_measure_mass_is_theta_perimeter():
    d = GridDomain((5, 5))
    E = CellSet.box(d, (1, 1), (3, 2))
    theta = F(3, 4)
    mu = boundary_measure(E, theta)
    assert set(mu.face_weights) == boundary_faces(E)
    assert mu.total_mass() == theta * perimeter(E)


def test_sum_and_scale(rng):
    d = rand_domain(rng)
    mu1 = rand_measure(rng, d)
    mu2 = rand_measure(rng, d)
    s = sum_measures(mu1, mu2)
    assert s.total_mass() == mu1.total_mass() + mu2.total_mass()
    for f in set(mu1.face_weights) | set(mu2.face_weights):
        assert s.face_weight(f) == mu1.face_weight(f) + mu2.face_weight(f)
    doubled = scale(mu1, 2)
    assert doubled.total_mass() == 2 * mu1.total_mass()
    assert scale(mu1, 0).is_zero
    with pytest.raises(ValueError):
        scale(mu1, -1)


def test_restrict_keeps_only_requested_support():
    d = GridDomain((4, 4))
    mu = sum_measures(
        hyperplane_measure(d, 0, 2, F(1)),
        MeasureData(d, cell_weights={(0, 0): F(2), (3, 3): F(1)}),
    )
    keep = CellSet.box(d, (0, 0), (1, 3))
    sub = restrict(mu, keep)
    assert sub.cell_weights == {(0, 0): F(2)}
    # faces survive exactly when incident to a kept cell
    for f, w in mu.face_weights.items():
        kept = any(c in keep for c in d.face_cells(f))
        assert sub.face_weight(f) == (w if kept else 0)


def test_restrict_to_a_cell_set_matches_its_definition(rng):
    # cells of the set, and faces of its closure (closure_faces)
    for _ in range(60):
        d = rand_domain(rng)
        mu = rand_measure(rng, d, n_faces=6, n_cells=3)
        keep = rand_cellset(rng, d, p=rng.choice([0.0, 0.3, 0.7]))
        sub = restrict(mu, keep)
        cf = closure_faces(keep)
        assert sub.cell_weights == {c: w for c, w in mu.cell_weights.items() if c in keep}
        assert sub.face_weights == {f: w for f, w in mu.face_weights.items() if f in cf}


def test_mutual_singularity():
    d = GridDomain((4, 4))
    a = hyperplane_measure(d, 0, 1, F(1))
    b = hyperplane_measure(d, 0, 3, F(1))
    assert are_mutually_singular(a, b)
    assert not are_mutually_singular(a, sum_measures(a, b))
    c = MeasureData(d, cell_weights={(0, 0): F(1)})
    assert are_mutually_singular(a, c) or (0, 0) in a.support_cells()


def test_masses_match_naive(rng):
    for _ in range(40):
        d = rand_domain(rng)
        mu = rand_measure(rng, d)
        A = rand_cellset(rng, d)
        fw, cw = as_raw(mu)
        assert mass_on_closure(mu, A) == naive.closure_mass(d.dims, A.cells, fw, cw)
        assert mass_on_interior(mu, A) == naive.interior_mass(d.dims, A.cells, fw, cw)
        assert mass_on_interior(mu, A) <= mass_on_closure(mu, A)


def test_closure_interior_extremes():
    d = GridDomain((3, 3))
    mu = sum_measures(
        hyperplane_measure(d, 1, 0, F(1)),  # boundary line: never interior
        hyperplane_measure(d, 1, 2, F(1)),
    )
    full = CellSet.full(d)
    assert mass_on_closure(mu, full) == mu.total_mass()
    assert mass_on_interior(mu, full) == F(3)  # the interior line only
    empty = CellSet.empty(d)
    assert mass_on_closure(mu, empty) == 0
    assert mass_on_interior(mu, empty) == 0


def test_signed_pair():
    d = GridDomain((3, 3))
    pair = SignedPair.of(d, minus=hyperplane_measure(d, 0, 1, F(2)))
    assert pair.domain == d
    assert pair.plus.is_zero
    z = SignedPair.zero(d)
    assert z.plus.is_zero and z.minus.is_zero
    other = GridDomain((2, 2))
    with pytest.raises(ValueError):
        SignedPair(MeasureData.zero(d), MeasureData.zero(other))
