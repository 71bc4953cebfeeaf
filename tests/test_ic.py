import itertools
import os
from fractions import Fraction

import pytest

import naive
from conftest import as_raw, face_of, rand_measure, rand_weight, whole_grid_cover
from perivar import (
    CellSet,
    DivergenceCertificate,
    Face,
    GridDomain,
    ICVariant,
    Infeasible,
    MeasureData,
    Region,
    boundary_measure,
    capacity,
    closure_faces,
    divergence_certificate,
    hyperplane_measure,
    mass_on_closure,
    perimeter,
    singular_sum_check,
    small_volume_profile,
    solve_volume,
    strong_excess,
    sum_measures,
)
from perivar import ic, oracle
from perivar.energy import (
    CLOSURE,
    INTERIOR,
    assemble_excess,
    check_submodular,
    evaluate,
    flip_links,
)
from perivar.ic import resolve_cap
from perivar.maxflow import FlowNetwork, _breakpoints, augment
from perivar.oracle import DEFAULT_EXHAUSTIVE_CAP, ExhaustiveCapacityExceeded

F = Fraction


def test_resolve_cap_precedence(monkeypatch):
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)
    assert resolve_cap() == DEFAULT_EXHAUSTIVE_CAP
    assert resolve_cap(file_option=7) == 7
    monkeypatch.setenv("PERIVAR_EXHAUSTIVE_CAP", "9")
    assert resolve_cap() == 9
    assert resolve_cap(file_option=7) == 9
    assert resolve_cap(explicit=5, file_option=7) == 5
    assert resolve_cap(explicit=0) == 0  # no enumeration at all
    # a negative or non-integer cap names its source
    for bad in (-3, 2.5, "abc", True, False):
        with pytest.raises(ValueError, match="exhaustive_cap must be a nonnegative integer"):
            resolve_cap(explicit=bad)
    with pytest.raises(ValueError, match="--cap must be"):
        resolve_cap(explicit=-1, explicit_name="--cap")
    for bad in ("-3", "abc", ""):
        monkeypatch.setenv("PERIVAR_EXHAUSTIVE_CAP", bad)
        with pytest.raises(ValueError, match="PERIVAR_EXHAUSTIVE_CAP must be"):
            resolve_cap(file_option=7)
        assert resolve_cap(explicit=5) == 5
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP")
    with pytest.raises(ValueError, match="the problem file's exhaustive_cap must be"):
        resolve_cap(file_option=-1)
    # the entry points resolve the cap before using it
    mu = MeasureData.zero(GridDomain((3,)))
    with pytest.raises(ValueError, match="exhaustive_cap must be"):
        strong_excess(mu, 1, exhaustive_cap=-3, method="exhaustive")
    with pytest.raises(ValueError, match="exhaustive_cap must be"):
        solve_volume(1, mu, exhaustive_cap=-3)


def test_strong_excess_min_cut_matches_exhaustive(rng):
    for _ in range(30):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (6,)]))
        mu = rand_measure(rng, d)
        C = F(rng.randint(2, 6), 2)  # C >= 1 keeps every face reducible
        by_cut = strong_excess(mu, C, method="min-cut")
        by_scan = strong_excess(mu, C, method="exhaustive")
        assert by_cut.value == by_scan.value
        assert by_cut.method == "min-cut" and by_scan.method == "exhaustive"
        fw, cw = as_raw(mu)
        best, _ = naive.max_excess(d.dims, fw, cw, C)
        assert by_cut.value == best
        # the reported witness attains the value
        w = by_cut.witness
        assert w.volume >= 1
        assert (
            mass_on_closure(mu, w) - C * perimeter(w) == by_cut.value
        )


def test_strong_excess_interior_rep(rng):
    for _ in range(15):
        d = GridDomain((3, 3))
        mu = rand_measure(rng, d)
        C = F(1)
        plain = strong_excess(mu, C)
        interior = strong_excess(mu, C, ICVariant.interior_rep())
        assert interior.value <= plain.value
        fw, cw = as_raw(mu)
        best, _ = naive.max_excess(d.dims, fw, cw, C, rep="interior")
        assert interior.value == best


def test_strong_excess_relative_variant():
    d = GridDomain((4, 4))
    omega = Region.of(d, CellSet.box(d, (0, 0), (3, 1)).cells)
    mu = hyperplane_measure(d, 1, 1, F(2))
    # relative to omega the side walls at the grid boundary are free
    rel = strong_excess(mu, 1, ICVariant.relative(omega))
    plain = strong_excess(mu, 1)
    assert plain.value == -2
    assert rel.value > plain.value
    with pytest.raises(ValueError):
        strong_excess(mu, -1)


def test_strong_excess_avoid_ball():
    d = GridDomain((6, 6))
    mu = MeasureData(d, cell_weights={(2, 2): F(10)})
    # the heavy cell sits inside the excluded central ball
    res = strong_excess(mu, 1, ICVariant.avoid_ball(1))
    assert res.value < 0
    assert (2, 2) not in res.witness
    assert strong_excess(mu, 1).value == 10 - 4


def test_cell_penalty_shifts_by_volume(rng):
    for _ in range(10):
        d = GridDomain((3, 3))
        mu = rand_measure(rng, d)
        pen = F(rng.randint(1, 3), 2)
        res = strong_excess(mu, 1, cell_penalty=pen)
        fw, cw = as_raw(mu)
        best, _ = naive.max_excess(d.dims, fw, cw, F(1), penalty=pen)
        assert res.value == best


def test_strong_excess_deep_chain():
    # a long 1D chain: no flow path length may hit a recursion limit
    d = GridDomain((10_000,))
    mu = MeasureData(d, cell_weights={(0,): F(1)})
    res = strong_excess(mu, 1)
    assert res.value == -1
    assert res.witness.cells == frozenset({(0,)})


def _first_cell_witness(maximizers):
    """Intersection of the maximizers holding the least cell of any maximizer."""
    first = min(c for A in maximizers for c in A)
    return frozenset.intersection(*(A for A in maximizers if first in A))


def test_sweep_value_and_witness_rule_match_enumeration(rng):
    # instances where every nonempty set loses, so strong_excess sweeps the
    # cells; the witness rule fixes which of several tied maximizers wins
    kinds = ("plain", "interior-rep", "relative", "avoid-ball", "relative-to-boundary")
    seen = dict.fromkeys(kinds, 0)
    tied = 0
    for _ in range(2000):
        if min(seen.values()) >= 8:
            break
        kind = rng.choice(sorted(seen))
        rep, cells, charged, faces = "closure", None, None, None
        if kind == "avoid-ball":
            d = GridDomain(rng.choice([(3, 3), (5,), (5, 3)]))
            radius = 1 if d.dims == (5, 3) else 0
            variant = ICVariant.avoid_ball(radius)
            cells = [
                c
                for c in naive.all_cells(d.dims)
                if not all(
                    abs(2 * x - (n - 1)) <= 2 * radius for x, n in zip(c, d.dims)
                )
            ]
        else:
            d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (5,)]))
            if kind == "plain":
                variant = ICVariant.plain()
            elif kind == "interior-rep":
                variant, rep = ICVariant.interior_rep(), "interior"
            else:
                omega = [c for c in naive.all_cells(d.dims) if rng.random() < 0.7]
                if not omega:
                    continue
                charged = [
                    f
                    for f in naive.all_faces(d.dims)
                    if all(side in omega for side in naive.face_sides(d.dims, f))
                ]
                if kind == "relative":
                    variant, cells = ICVariant.relative(Region.of(d, omega)), omega
                else:
                    # every set is tested but only omega's interior faces are
                    # charged, so mass goes on those or on the grid's boundary,
                    # where the instance stays min-cut reducible
                    variant = ICVariant.relative_to_boundary(Region.of(d, omega))
                    faces = [
                        face_of(f)
                        for f in naive.all_faces(d.dims)
                        if f in charged or None in naive.face_sides(d.dims, f)
                    ]
        mu = rand_measure(
            rng, d, faces=faces, n_faces=rng.randint(0, 3), n_cells=rng.randint(0, 1)
        )
        C = F(rng.randint(2, 4), 2)
        pen = rng.choice([F(0), F(0), F(1, 2)])
        fw, cw = as_raw(mu)
        best, maximizers = naive.excess_maximizers(
            d.dims, fw, cw, C, pen, rep, cells=cells, charged=charged
        )
        if best >= 0:
            continue  # answered before the sweep
        res = strong_excess(mu, C, variant, cell_penalty=pen, method="min-cut")
        assert res.value == best
        assert res.witness.cells == _first_cell_witness(maximizers)
        seen[kind] += 1
        tied += len(maximizers) > 1
    assert min(seen.values()) >= 8
    assert tied


def test_bounded_sweep_matches_the_unbounded_sweep(rng, monkeypatch):
    # each probe of the sweep stops once its flow reaches the best so far;
    # value and witness must be those of probes run to the end
    # (naive.unbounded_excess_sweep), on instances big enough to cut probes
    # short and, through weight-2C lines, to tie
    stopped = []

    def bounded(net, source=None, sinks=None, *, limit=None):
        added = augment(net, source, sinks, limit=limit)
        if limit is not None and added >= limit:
            stopped.append(added)
        return added

    monkeypatch.setattr(ic, "augment", bounded)
    kinds = ("plain", "interior-rep", "relative", "avoid-ball", "relative-to-boundary")
    swept = dict.fromkeys(kinds, 0)
    probes = 0
    for trial in range(1500):
        dims = rng.choice([(7,), (12,), (4, 4), (5, 3), (6, 4), (3, 3, 2), (2, 3, 4)])
        d = GridDomain(dims)
        kind = kinds[trial % len(kinds)]
        variant, cells, _, _ = _naive_variant(rng, dims, kind)
        if not cells:
            continue
        C = rng.choice([F(1, 2), F(1), F(3, 2)])
        pen = rng.choice([F(0), F(0), F(1, 2), F(1), F(3)])
        mu = rand_measure(rng, d, n_faces=rng.randint(0, 4), n_cells=rng.randint(0, 2), hi=1)
        if rng.random() < 0.5:
            axis = rng.randrange(d.d)
            mu = sum_measures(
                mu, hyperplane_measure(d, axis, rng.randint(1, dims[axis] - 1), 2 * C)
            )
        energy = assemble_excess(mu, C=C, cell_penalty=pen, **ic._excess_terms(mu, variant))
        if not check_submodular(energy).ok:
            continue
        want = naive.unbounded_excess_sweep(energy)
        if want is None:
            continue  # answered before the sweep
        res = strong_excess(mu, C, variant, cell_penalty=pen, method="min-cut")
        assert (res.value, res.witness.cells) == want
        swept[kind] += 1
        probes += len(energy.free_cells)
    assert min(swept.values()) >= 30, swept
    assert sum(swept.values()) >= 300
    assert 0 < len(stopped) < probes


def test_non_reducible_instances_fall_back_or_raise():
    d = GridDomain((8, 8))
    # interior line heavier than 2C is not cut-representable
    mu = hyperplane_measure(d, 1, 4, F(9, 4))
    with pytest.raises(ExhaustiveCapacityExceeded):
        strong_excess(mu, 1, exhaustive_cap=22)
    small = GridDomain((3, 3))
    mu_small = hyperplane_measure(small, 1, 1, F(9, 4))
    res = strong_excess(mu_small, 1)
    assert res.method == "exhaustive"
    fw, cw = as_raw(mu_small)
    best, _ = naive.max_excess(small.dims, fw, cw, F(1))
    assert res.value == best


def test_exhaustive_method_builds_no_network(monkeypatch):
    builds = []
    init = FlowNetwork.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "__init__", counting_init)
    d = GridDomain((14,))
    mu = hyperplane_measure(d, 0, 7, 2)
    res = strong_excess(mu, 1, method="exhaustive")
    # in 1D the best set is an interval over the line face: 2 - P = 0
    assert res.method == "exhaustive" and res.value == 0
    assert len(builds) == 0
    # a non-submodular energy is refused before any network, naming the face
    heavy = hyperplane_measure(GridDomain((3, 3)), 1, 1, F(9, 4))
    with pytest.raises(ValueError, match="not min-cut reducible.*weight exceeds 2C"):
        strong_excess(heavy, 1, method="min-cut")
    assert len(builds) == 0
    res = strong_excess(mu, 1, method="min-cut")
    assert res.method == "min-cut" and res.value == 0
    assert len(builds) == 1


def test_strong_excess_rejects_an_unknown_method():
    mu = hyperplane_measure(GridDomain((4, 4)), 1, 2, 2)
    with pytest.raises(ValueError, match="unknown method 'mincut'"):
        strong_excess(mu, 1, method="mincut")


def test_excess_reads_no_face_list(monkeypatch):
    # every variant charges its perimeter through cell masks, so neither the
    # min cut nor the scan walks the grid's or a region's faces
    d = GridDomain((5, 3))
    line = hyperplane_measure(d, 1, 1, 2)
    mu = MeasureData(d, face_weights=line.face_weights, cell_weights={(4, 2): F(9, 2)})
    omega = Region.of(d, [c for c in d.cells() if c[1] < 2 or c[0] == 4])
    cells = naive.all_cells(d.dims)
    inside = [
        f for f in naive.all_faces(d.dims)
        if all(side in omega.cells for side in naive.face_sides(d.dims, f))
    ]
    # (variant, admissible cells, charged faces, rep, within)
    cases = [
        (ICVariant.plain(), cells, None, CLOSURE, None),
        (ICVariant.interior_rep(), cells, None, INTERIOR, None),
        (ICVariant.avoid_ball(0), [c for c in cells if c != (2, 1)], None, CLOSURE, None),
        (ICVariant.relative(omega), sorted(omega.cells), inside, CLOSURE, omega),
        (ICVariant.relative_to_boundary(omega), cells, inside, CLOSURE, omega),
    ]
    fw, cw = as_raw(mu)

    def refuse(self):
        raise AssertionError("face walk")

    monkeypatch.setattr(GridDomain, "faces", refuse)
    monkeypatch.setattr(Region, "interior_faces", refuse)
    for variant, admissible, charged, rep, within in cases:
        best, _ = naive.excess_maximizers(
            d.dims, fw, cw, F(1), rep="closure" if rep == CLOSURE else "interior",
            cells=admissible, charged=charged,
        )
        assert strong_excess(mu, 1, variant, method="min-cut").value == best
        scan = oracle.scan_excess(mu, admissible, 1, rep=rep, within=within)
        assert scan.best_value == best


def test_automatic_route_compiles_the_excess_once(monkeypatch):
    # the submodularity test and the exhaustive scan read one energy
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble_excess(*args, **kwargs)

    for module in (ic, oracle):
        monkeypatch.setattr(module, "assemble_excess", counting)
    mu = hyperplane_measure(GridDomain((3, 3)), 1, 1, F(9, 4))
    res = strong_excess(mu, 1)
    assert res.method == "exhaustive"
    assert len(calls) == 1
    fw, cw = as_raw(mu)
    assert res.value == naive.max_excess((3, 3), fw, cw, F(1))[0]


def test_profile_above_cap_rejects_non_reducible():
    d = GridDomain((8, 8))
    mu = hyperplane_measure(d, 1, 4, F(9, 4))
    with pytest.raises(ExhaustiveCapacityExceeded):
        small_volume_profile(mu, 1)


def test_profile_exhaustive_matches_naive(rng):
    for _ in range(10):
        d = GridDomain((3, 3))
        mu = rand_measure(rng, d)
        profile = small_volume_profile(mu, 1, v_max=5)
        fw, cw = as_raw(mu)
        cells = naive.all_cells(d.dims)
        for entry in profile.entries:
            best = max(
                naive.closure_mass(d.dims, frozenset(combo), fw, cw)
                - naive.perimeter(d.dims, frozenset(combo))
                for r in range(1, entry.volume + 1)
                for combo in itertools.combinations(cells, r)
            )
            assert entry.phi == best
            assert not entry.upper_bound_only
        vols = [e.volume for e in profile.entries]
        assert vols == sorted(vols)
        phis = [e.phi for e in profile.entries]
        assert phis == sorted(phis)  # monotone in the budget


def test_profile_envelope_brackets_truth():
    d = GridDomain((5, 5))
    mu = hyperplane_measure(d, 1, 2, F(2))
    exact = small_volume_profile(mu, 1, v_max=6)
    # force the Lagrangian path with a tiny cap: entries must upper-bound
    # the exact profile and agree wherever marked exact
    env = small_volume_profile(mu, 1, v_max=6, exhaustive_cap=1)
    for e in env.entries:
        truth = exact.phi(e.volume)
        if e.upper_bound_only:
            assert e.phi >= truth
        else:
            assert e.phi == truth


def _random_variant(rng, d, kinds=("plain", "interior-rep", "relative", "avoid-ball",
                                    "relative-to-boundary")):
    kind = rng.choice(kinds)
    if kind in ("relative", "relative-to-boundary"):
        cells = d.cells()
        return ICVariant(kind, omega=Region.of(d, rng.sample(cells, rng.randint(1, len(cells)))))
    return ICVariant(kind, radius=rng.randint(0, 1))


def test_profile_top_end_matches_strong_excess(rng):
    # past lam_top the best nonempty set is the first best single cell, so
    # the profile reads its top end off the compiled energy, no max flow
    seen = set()
    checked = 0
    while checked < 240:
        d = GridDomain(rng.choice([(5,), (7,), (3, 3), (4, 2), (2, 5), (2, 2, 2), (2, 2, 3)]))
        C = rng.choice([F(0), F(1, 2), F(1), F(3, 2)])
        pen = rng.choice([F(0), F(0), F(1, 3), F(2)])
        variant = _random_variant(rng, d)
        mu = rand_measure(rng, d, n_faces=rng.randint(0, 5), n_cells=rng.randint(0, 2), hi=3)
        try:
            terms = ic._excess_terms(mu, variant)
        except ValueError:  # the ball covers the grid
            continue
        witness, value = ic._best_single_cell(assemble_excess(mu, C=C, cell_penalty=pen, **terms))
        lam_top = mu.total_mass() + 2 * d.d * C + pen + 1
        res = strong_excess(mu, C, variant, cell_penalty=pen + lam_top, exhaustive_cap=22)
        assert res.witness == witness
        assert res.value == value - lam_top
        seen.add((variant.kind, d.d, res.method))
        checked += 1
    assert {kind for kind, _, _ in seen} == set(ic._KINDS)
    assert {dim for _, dim, _ in seen} == {1, 2, 3}
    assert {method for _, _, method in seen} == {"min-cut", "exhaustive"}


def _old_envelope(mu, C, variant, v_max):
    """The profile envelope as it was: a breakpoint search over
    [0, total + 1], every sample a strong_excess solve, and the best single
    cell added at volume 1; (phi, upper_bound_only) per volume."""

    def solve(lam):
        res = strong_excess(mu, C, variant, cell_penalty=lam, exhaustive_cap=1)
        return res.witness, -res.value - lam * res.witness.volume

    samples, exact = {}, {}
    for lam, witness, value in _breakpoints(solve, F(0), mu.total_mass() + 1):
        samples[lam] = -value - lam * witness.volume
        exact[witness.volume] = max(-value, exact.get(witness.volume, -value))
    terms = ic._excess_terms(mu, variant)
    energy = assemble_excess(mu, C=C, **terms)
    best_single = F(-min(flip_links(energy)[0]), energy.den)
    exact[1] = max(best_single, exact.get(1, best_single))
    out = []
    for v in range(1, v_max + 1):
        lb = max(val for vol, val in exact.items() if vol <= v)
        ub = min(ex + lam * v for lam, ex in samples.items())
        out.append((ub, lb < ub))
    return out


def test_profile_envelope_tightens_the_old_route(rng):
    checked = 0
    while checked < 60:
        d = GridDomain(rng.choice([(6,), (3, 3), (4, 3), (2, 5), (2, 2, 2)]))
        C = rng.choice([F(1, 2), F(1), F(3, 2)])
        variant = _random_variant(rng, d, kinds=("plain", "interior-rep", "relative", "avoid-ball"))
        mu = rand_measure(rng, d, n_faces=rng.randint(1, 6), n_cells=rng.randint(0, 2), hi=1)
        v_max = rng.randint(1, 6)
        try:
            truth = small_volume_profile(mu, C, variant, v_max, exhaustive_cap=22)
            env = small_volume_profile(mu, C, variant, v_max, exhaustive_cap=1)
        except (ValueError, ExhaustiveCapacityExceeded):  # no test sets, or not reducible
            continue
        old = _old_envelope(mu, C, variant, len(env.entries))
        for e, t, (old_phi, old_bound_only) in zip(env.entries, truth.entries, old):
            assert e.phi <= old_phi
            assert old_bound_only or not e.upper_bound_only
            assert e.phi >= t.phi
            assert e.upper_bound_only or e.phi == t.phi
        checked += 1


@pytest.mark.parametrize("entry", [strong_excess, small_volume_profile])
@pytest.mark.parametrize("cap", [DEFAULT_EXHAUSTIVE_CAP, 0])  # 9 cells: below, above
@pytest.mark.parametrize(
    "bad",
    [
        {"C": -1},
        {"cell_penalty": -1},
        {"variant": "empty"},
        # regions of other grids: one cell off this grid, one that would fit on it
        {"variant": ICVariant.relative(Region.of(GridDomain((4, 4)), [(3, 3)]))},
        {"variant": ICVariant.relative(Region.of(GridDomain((2, 2)), [(0, 0)]))},
    ],
)
def test_excess_entry_points_validate_on_both_sides_of_the_cap(entry, cap, bad):
    d = GridDomain((3, 3))
    mu = hyperplane_measure(d, 1, 1, F(2))
    kwargs = {"C": 1, "variant": None, "cell_penalty": 0, "exhaustive_cap": cap, **bad}
    if kwargs["variant"] == "empty":
        kwargs["variant"] = ICVariant.relative(Region.of(d, []))
    with pytest.raises(
        ValueError, match="must be nonnegative|admits no test sets|different domains"
    ):
        entry(mu, **kwargs)


def test_divergence_certificate_random_duality(rng):
    mismatches = 0
    for _ in range(60):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (5,)]))
        C = F(rng.randint(1, 3), rng.choice([1, 2]))
        faces = list(d.faces())
        fw = {}
        for f in rng.sample(faces, k=rng.randint(1, 4)):
            w = F(rng.randint(0, 4 * C.numerator), 2 * C.denominator)
            if 0 < w <= 2 * C:
                fw[f] = w
        cw = {}
        for c in rng.sample(list(d.cells()), k=rng.randint(0, 2)):
            w = F(rng.randint(0, 4), 2)
            if w:
                cw[c] = w
        mu = MeasureData(d, face_weights=fw, cell_weights=cw)
        res = divergence_certificate(mu, C)
        excess = strong_excess(mu, C)
        if isinstance(res, Infeasible):
            assert excess.value > 0
            assert res.excess == excess.value
            # the witness itself violates the IC
            assert (
                mass_on_closure(mu, res.witness)
                - C * perimeter(res.witness)
                > 0
            )
        else:
            assert excess.value <= 0
            assert res.valid
            assert res.max_abs_sigma() <= C
    assert mismatches == 0


def test_divergence_certificate_heavy_faces():
    # faces heavier than 2C force a mandatory share > C into each side;
    # routable here because the line sits on the grid boundary
    d = GridDomain((4, 4))
    cert = divergence_certificate(hyperplane_measure(d, 1, 0, F(9, 4)), 1)
    assert isinstance(cert, DivergenceCertificate)
    assert cert.valid
    for t_lo, t_hi in cert.shares.values():
        assert abs(t_lo - F(9, 8)) <= 1 and abs(t_hi - F(9, 8)) <= 1
    # an interior heavy line that genuinely overloads its neighborhood
    d8 = GridDomain((8, 8))
    bad = divergence_certificate(hyperplane_measure(d8, 1, 4, F(4)), 1)
    assert isinstance(bad, Infeasible)
    assert len(bad.overloaded_faces) == 8
    assert bad.witness is not None and bad.witness.volume >= 1


def test_divergence_certificate_weight_two_line_is_tight():
    d = GridDomain((8, 8))
    cert = divergence_certificate(hyperplane_measure(d, 1, 4, F(2)), 1)
    assert cert.valid
    assert cert.max_abs_sigma() == 1


def test_divergence_certificate_zero_and_cells():
    d = GridDomain((4, 4))
    assert divergence_certificate(MeasureData.zero(d), 0).valid
    res = divergence_certificate(MeasureData(d, cell_weights={(1, 1): F(5)}), 1)
    assert isinstance(res, Infeasible)
    assert res.excess == 5 - 4


def test_divergence_certificate_against_naive_divergence(rng):
    # sigma and the shares are checked cell by cell against the raw weights
    # and tests/naive.py's face sides, never through cert.valid or residuals
    seen = dict.fromkeys(
        ("feasible", "infeasible", "heavy interior", "heavy boundary", "boundary mass"), 0
    )
    for trial in range(120):
        dims = ((7,), (3, 3), (2, 4), (2, 2, 2))[trial % 4]
        d = GridDomain(dims)
        # 2/5 and 3/7: denominators that divide no weight
        C = rng.choice([F(0), F(1, 2), F(1), F(3, 2), F(2, 5), F(3, 7)])
        faces = naive.all_faces(dims)
        boundary = [f for f in faces if None in naive.face_sides(dims, f)]
        picked = rng.sample(faces, rng.randint(0, 3)) + rng.sample(boundary, rng.randint(0, 2))
        mu = MeasureData(
            d,
            face_weights={face_of(f): rand_weight(rng, 0, 3) for f in picked},
            cell_weights={c: rand_weight(rng, 0, 2) for c in rng.sample(d.cells(), rng.randint(0, 2))},
        )
        fw, cw = as_raw(mu)
        heavy = sorted(f for f, w in fw.items() if w > 2 * C)
        # without heavy faces, routing is feasible iff the IC holds
        best = None if heavy else naive.max_excess(dims, fw, cw, C)[0]
        res = divergence_certificate(mu, C)
        if isinstance(res, Infeasible):
            seen["infeasible"] += 1
            assert [(f.axis, f.slot, f.at) for f in res.overloaded_faces] == heavy
            A = res.witness.cells
            assert naive.closure_mass(dims, A, fw, cw) - C * naive.perimeter(dims, A) > 0
            if not heavy:
                assert res.excess == best
            continue
        seen["feasible"] += 1
        assert heavy or best <= 0
        sigma = {(f.axis, f.slot, f.at): s for f, s in res.sigma.items()}
        shares = {(f.axis, f.slot, f.at): t for f, t in res.shares.items()}
        assert sorted(sigma) == sorted(faces) and sorted(shares) == sorted(fw)
        residual = {c: -cw.get(c, 0) for c in naive.all_cells(dims)}
        for f in faces:
            lo, hi = naive.face_sides(dims, f)
            w = fw.get(f, F(0))
            assert abs(sigma[f]) <= C
            if lo is not None:
                residual[lo] += sigma[f] - w / 2
            if hi is not None:
                residual[hi] -= sigma[f] + w / 2
        assert all(r == 0 for r in residual.values()), residual
        for f, (t_lo, t_hi) in shares.items():
            w = fw[f]
            # a light face may pass flux through, so only a heavy face's
            # shares are bounded below by a positive mandatory share
            assert t_lo + t_hi == w and t_hi - t_lo == 2 * sigma[f]
            assert min(t_lo, t_hi) >= w / 2 - C
            if f in heavy:
                seen["heavy boundary" if f in boundary else "heavy interior"] += 1
            elif f in boundary:
                seen["boundary mass"] += 1
    assert min(seen.values()) >= 5, seen


def test_divergence_certificate_self_check_catches_a_moved_unit(monkeypatch):
    d = GridDomain((4, 4))
    mu = MeasureData(d, face_weights={Face(1, 2, (1,)): F(3, 2)}, cell_weights={(2, 2): F(1)})
    cell_nodes = range(2, 2 + d.cell_count)

    def shifted(net):
        # after the solve, one more unit crosses one residual cell-to-cell arc
        result = ic_max_flow(net)
        arc = next(
            i
            for i in range(len(net.to))
            if net.to[i] in cell_nodes and net.to[i ^ 1] in cell_nodes and net.cap[i] > 0
        )
        net.cap[arc] -= 1
        net.cap[arc ^ 1] += 1
        return result

    assert divergence_certificate(mu, 1).valid
    ic_max_flow = ic.max_flow
    monkeypatch.setattr(ic, "max_flow", shifted)
    with pytest.raises(AssertionError, match="decoded certificate failed verification"):
        divergence_certificate(mu, 1)


def test_divergence_certificate_self_check_catches_an_overloaded_circulation(monkeypatch):
    # a circulation of 3C around the 2x2 block at the origin keeps every
    # cell's divergence but leaves |sigma| >= 2C on its four faces
    d = GridDomain((4, 4))
    mu = MeasureData(d, cell_weights={(3, 3): F(1)})
    cycle = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]

    def overloaded(net):
        result = ic_max_flow(net)
        for u, v in zip(cycle, cycle[1:]):
            u, v = 2 + d.cells().index(u), 2 + d.cells().index(v)
            arc = next(i for i in range(len(net.to)) if net.to[i ^ 1] == u and net.to[i] == v)
            push = 3 * (net.cap[arc] + net.cap[arc ^ 1]) // 2  # the arc holds C each way
            net.cap[arc] -= push
            net.cap[arc ^ 1] += push
        return result

    cert = divergence_certificate(mu, 1)
    assert cert.valid and cert.max_abs_sigma() <= 1
    ic_max_flow = ic.max_flow
    monkeypatch.setattr(ic, "max_flow", overloaded)
    with pytest.raises(AssertionError, match="decoded certificate failed verification"):
        divergence_certificate(mu, 1)


def test_divergence_certificate_network_has_one_node_per_cell(monkeypatch):
    light = MeasureData(
        GridDomain((4, 4)), face_weights={Face(1, 2, (1,)): F(3, 2)}, cell_weights={(2, 2): F(1)}
    )
    heavy_interior = hyperplane_measure(GridDomain((8, 8)), 1, 4, F(4))
    heavy_boundary = hyperplane_measure(GridDomain((4, 4)), 1, 0, F(9, 4))
    nodes = []

    def counted(net):
        nodes.append(net.n_nodes)
        return ic_max_flow(net)

    def no_face_sides(self, face):
        raise RuntimeError("face sides come from stride arithmetic")

    ic_max_flow = ic.max_flow
    monkeypatch.setattr(ic, "max_flow", counted)
    monkeypatch.setattr(GridDomain, "lower_cell", no_face_sides)
    monkeypatch.setattr(GridDomain, "upper_cell", no_face_sides)
    assert divergence_certificate(light, 1).valid
    assert isinstance(divergence_certificate(heavy_interior, 1), Infeasible)
    assert divergence_certificate(heavy_boundary, 1).valid
    assert nodes == [mu.domain.cell_count + 2 for mu in (light, heavy_interior, heavy_boundary)]


def brute_capacity(domain, faces=(), cells=()):
    best = None
    best_set = None
    universe = list(domain.cells())
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            A = CellSet.of(domain, combo)
            cf = closure_faces(A)
            if not all(f in cf for f in faces):
                continue
            if not all(c in A for c in cells):
                continue
            p = perimeter(A)
            if best is None or p < best:
                best, best_set = p, A
    return best, best_set


def test_capacity_matches_brute_force(rng):
    for _ in range(12):
        d = GridDomain(rng.choice([(3, 3), (4, 2)]))
        faces = rng.sample(list(d.faces()), k=rng.randint(1, 3))
        cells = rng.sample(list(d.cells()), k=rng.randint(0, 1))
        val, witness = capacity(d, faces=faces, cells=cells)
        best, _ = brute_capacity(d, faces, cells)
        assert val == best
        assert all(f in closure_faces(witness) for f in faces)
        assert all(c in witness for c in cells)
        assert perimeter(witness) == val


def test_capacity_empty_target_rejected():
    d = GridDomain((3, 3))
    with pytest.raises(ValueError):
        capacity(d)


def test_capacity_of_hyperplane_line():
    for k in (1, 2, 3, 6):
        d = GridDomain((k, 2))
        line = [Face(1, 1, (x,)) for x in range(k)]
        val, witness = capacity(d, faces=line)
        assert val == 2 * k + 2


def _count_branch_and_bound(monkeypatch):
    # the branch and bound prices each of its nodes with one min cut
    calls = []
    real = ic.minimize
    monkeypatch.setattr(ic, "minimize", lambda energy: calls.append(1) or real(energy))
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)
    return calls


def test_capacity_of_wide_targets_sweeps_their_box(monkeypatch):
    # too wide for one sweep at the default cap, but their bounding box is
    # k x 2 (the line) or 12 x 12 (the cross along both midlines)
    calls = _count_branch_and_bound(monkeypatch)
    for n, value in ((62, 126), (30, 62)):
        line = [Face(1, n // 2, (x,)) for x in range(n)]
        val, witness = capacity(GridDomain((n, n)), faces=line)
        assert val == value == perimeter(witness)
        assert set(line) <= closure_faces(witness)
    cross = [Face(axis, 8, (t,)) for axis in (0, 1) for t in range(2, 14)]
    val, witness = capacity(GridDomain((16, 16)), faces=cross)
    assert val == 48 == perimeter(witness)
    assert set(cross) <= closure_faces(witness)
    assert not calls


def test_capacity_of_scattered_targets_past_the_memory(monkeypatch):
    # two opposite corners of 64x64 at cap 200: the targets' box is the
    # whole grid, whose sweep would fit the budget but not the memory; with
    # no covering pair one min cut answers, and no sweep is tried
    calls = _count_branch_and_bound(monkeypatch)
    val, witness = capacity(GridDomain((64, 64)), cells=[(0, 0), (63, 63)], exhaustive_cap=200)
    assert val == 8 and witness.cells == {(0, 0), (63, 63)}
    assert calls


def test_capacity_box_route_matches_the_whole_sweep(rng, monkeypatch):
    # the box route at cap 5 against the whole-grid sweep run directly at
    # cap 22, which no grid below fits at cap 5: a box of one or two cells
    # takes one sweep when a covering pair is left and one min cut when
    # none is, and never a branch-and-bound node
    calls = _count_branch_and_bound(monkeypatch)
    sweeps = []
    real = ic.frontier_minimize
    monkeypatch.setattr(ic, "frontier_minimize", lambda *a, **k: sweeps.append(1) or real(*a, **k))
    routes = {True: 0, False: 0}
    for dims in ((4, 4), (3, 5), (2, 7), (2, 2, 3)):
        d = GridDomain(dims)
        for _ in range(10):
            c = rng.choice(d.cells())
            box = {c}
            axis = rng.randrange(d.d)
            if c[axis] + 1 < dims[axis] and rng.random() < 0.7:
                box.add(c[:axis] + (c[axis] + 1,) + c[axis + 1:])
            # every face whose cells all lie in the box, and the box's cells
            near = [f for f in d.faces() if set(d.face_cells(f)) <= box]
            cells = rng.sample(sorted(box), rng.randint(0 if near else 1, len(box)))
            faces = rng.sample(near, rng.randint(0 if cells else 1, min(3, len(near))))
            want, whole, pairs = whole_grid_cover(d, faces, cells)
            sweeps.clear()
            calls.clear()
            val, witness = capacity(d, faces=faces, cells=cells, exhaustive_cap=5)
            assert (len(sweeps), len(calls)) == ((1, 0) if pairs else (0, 1))
            assert val == want == perimeter(witness)
            assert set(faces) <= closure_faces(witness)
            assert set(cells) <= witness.cells
            if not pairs:  # the min cut's set is the sweep's
                assert witness == whole
            routes[bool(pairs)] += 1
    assert all(routes.values())  # both routes are reached


def test_singular_sum_check_parallel_lines():
    d = GridDomain((4, 4))
    mu1 = hyperplane_measure(d, 1, 1, F(1))
    mu2 = hyperplane_measure(d, 1, 3, F(1))
    report = singular_sum_check(mu1, mu2, 1, v_max=6)
    assert len(report.rows) == 6
    assert not report.any_flagged
    for row, e1, e2, es in zip(
        report.rows,
        report.profile1.entries,
        report.profile2.entries,
        report.profile_sum.entries,
    ):
        assert row.phi1 == e1.phi and row.phi2 == e2.phi and row.phi_sum == es.phi
        assert row.phi_sum >= max(row.phi1, row.phi2)


def _naive_variant(rng, dims, kind):
    """(variant, admissible cells, charged faces, rep) built from raw tuples."""
    cells = naive.all_cells(dims)
    faces = naive.all_faces(dims)
    if kind in ("plain", "interior-rep"):
        rep = "interior" if kind == "interior-rep" else "closure"
        return ICVariant(kind), cells, faces, rep
    if kind == "avoid-ball":
        radius = rng.randint(0, 1)
        inside = [
            c
            for c in cells
            if all(abs(2 * x - (n - 1)) <= 2 * radius for x, n in zip(c, dims))
        ]
        return ICVariant.avoid_ball(radius), [c for c in cells if c not in inside], faces, "closure"
    omega = [c for c in cells if rng.random() < 0.7] or cells[:1]
    charged = [
        f for f in faces if all(side in omega for side in naive.face_sides(dims, f))
    ]
    region = Region.of(GridDomain(dims), omega)
    if kind == "relative":
        return ICVariant.relative(region), omega, charged, "closure"
    return ICVariant.relative_to_boundary(region), cells, charged, "closure"


def test_assemble_excess_matches_definitions(rng):
    kinds = ("plain", "interior-rep", "relative", "avoid-ball", "relative-to-boundary")
    dens = (1, 2, 3, 4, 5, 6, 7)
    blocked = {True: 0, False: 0}
    for trial in range(60):
        dims = rng.choice([(5,), (9,), (3, 3), (2, 4), (2, 2, 2)])
        d = GridDomain(dims)
        variant, cells, charged, rep = _naive_variant(rng, dims, kinds[trial % len(kinds)])
        if not cells:
            continue
        fw = {f: rand_weight(rng, 0, 4, dens) for f in rng.sample(d.faces(), rng.randint(1, 5))}
        cw = {c: rand_weight(rng, 0, 2, dens) for c in rng.sample(d.cells(), rng.randint(0, 2))}
        mu = MeasureData(
            d,
            face_weights={f: w for f, w in fw.items() if w},
            cell_weights={c: w for c, w in cw.items() if w},
        )
        C = rand_weight(rng, 0, 2, dens)
        pen = rng.choice([F(0), rand_weight(rng, 0, 1, dens)])
        energy = assemble_excess(mu, C=C, **ic._excess_terms(mu, variant), cell_penalty=pen)
        fw, cw = as_raw(mu)
        mass = naive.closure_mass if rep == "closure" else naive.interior_mass
        for r in range(len(cells) + 1):
            for combo in itertools.combinations(sorted(cells), r):
                A = frozenset(combo)
                want = (
                    mass(dims, A, fw, cw)
                    - C * naive.perimeter(dims, A, charged)
                    - pen * len(A)
                )
                assert -evaluate(energy, CellSet.of(d, A)) == want
        heavy = rep == "closure" and any(
            w > 0
            and all(side in cells for side in naive.face_sides(dims, f))
            and (f not in charged or w > 2 * C)
            for f, w in fw.items()
        )
        assert check_submodular(energy).ok is not heavy
        blocked[heavy] += 1
    assert min(blocked.values()) >= 5


def test_excess_and_capacity_refuse_non_integer_cells():
    # a float cell or face index is refused by name, not a TypeError later
    d = GridDomain((4, 4))
    with pytest.raises(ValueError, match="coordinate of cell .* must be an integer"):
        strong_excess(MeasureData(d, cell_weights={(1.5, 1): F(1)}), 1)
    with pytest.raises(ValueError, match="of face .* must be an integer"):
        strong_excess(MeasureData(d, face_weights={Face(0, 1.5, (1,)): F(1)}), 1)
    with pytest.raises(ValueError, match="coordinate of cell .* must be an integer"):
        capacity(d, cells=[(1.5, 1)])


def test_profile_budget_must_be_an_integer():
    mu = hyperplane_measure(GridDomain((4, 4)), 1, 2, F(2))
    for v_max in (2.5, True):
        with pytest.raises(ValueError, match="v_max must be an integer"):
            small_volume_profile(mu, 1, v_max=v_max)
    assert len(small_volume_profile(mu, 1, v_max=2).entries) == 2


def test_avoid_ball_radius_must_be_an_integer():
    for radius in (2.5, True):
        with pytest.raises(ValueError, match="avoid-ball radius must be an integer"):
            ICVariant("avoid-ball", radius=radius)
    assert ICVariant.avoid_ball(2).radius == 2
