"""End-to-end acceptance checks, one test per criterion.

Each test is an independent route to a number the library also computes:
bitmask enumeration from first principles on the oracle side, exact
rational arithmetic on both.  A summary line per criterion is printed in
the terminal summary (see conftest).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import naive
from conftest import as_raw, rand_submodular_pair
from perivar import (
    CellSet,
    Dirichlet,
    Face,
    FullSpace,
    GridDomain,
    ICVariant,
    Infeasible,
    MeasureData,
    Region,
    SignedPair,
    add_volume_term,
    assemble,
    boundary_measure,
    capacity,
    closure_faces,
    divergence_certificate,
    evaluate,
    hyperplane_measure,
    mass_on_closure,
    mass_on_interior,
    minimize,
    parametric_sweep,
    perimeter,
    small_volume_profile,
    solve_dirichlet,
    solve_obstacle,
    solve_volume,
    strong_excess,
    sum_measures,
)

F = Fraction


# ---------------------------------------------------------------- criterion 1


def fast_min(dims, free, fixed_in, plus_f, plus_c, minus_f, minus_c,
             perim_faces=None, volume=None):
    """Bitmask enumeration of the functional, integers after LCD clearing."""
    cells = naive.all_cells(dims)
    idx = {c: i for i, c in enumerate(cells)}
    weights = (
        list(plus_f.values()) + list(plus_c.values())
        + list(minus_f.values()) + list(minus_c.values())
    )
    den = math.lcm(1, *(w.denominator for w in weights))
    pw = den
    perim_set = None if perim_faces is None else set(perim_faces)

    face_terms = []
    for f in naive.all_faces(dims):
        lo, hi = naive.face_sides(dims, f)
        p = pw if (perim_set is None or f in perim_set) else 0
        wp = int(plus_f.get(f, 0) * den)
        wm = int(minus_f.get(f, 0) * den)
        if p == 0 and wp == 0 and wm == 0:
            continue
        face_terms.append(
            (idx[lo] if lo is not None else -1,
             idx[hi] if hi is not None else -1, p, wp, wm)
        )
    cell_terms = [
        (idx[c], int(plus_c.get(c, F(0)) * den) - int(minus_c.get(c, F(0)) * den))
        for c in set(plus_c) | set(minus_c)
    ]

    fixed_mask = 0
    for c in fixed_in:
        fixed_mask |= 1 << idx[c]
    free_bits = [idx[c] for c in sorted(free)]

    best = None
    best_masks = []
    for combo in range(1 << len(free_bits)):
        mask = fixed_mask
        j = combo
        k = 0
        while j:
            if j & 1:
                mask |= 1 << free_bits[k]
            j >>= 1
            k += 1
        if volume is not None and bin(mask).count("1") != volume:
            continue
        v = 0
        for lo, hi, p, wp, wm in face_terms:
            a = lo >= 0 and (mask >> lo) & 1
            b = hi >= 0 and (mask >> hi) & 1
            if a:
                if b:
                    v += wp - wm
                else:
                    v += p - wm
            elif b:
                v += p - wm
        for ci, w in cell_terms:
            if (mask >> ci) & 1:
                v += w
        if best is None or v < best:
            best, best_masks = v, [mask]
        elif v == best:
            best_masks.append(mask)

    sets = [
        frozenset(c for c in cells if (m >> idx[c]) & 1) for m in best_masks
    ]
    return F(best, den), sets


def _random_instance(rng, i):
    dims = rng.choice(
        [(3, 3), (4, 2), (4, 3), (2, 2, 2), (8,), (12,), (16,), (4, 4)]
    )
    d = GridDomain(dims)
    kind = ("obstacle", "dirichlet", "volume")[i % 3]
    return d, kind


def test_criterion_1_oracle_exactness(rng):
    start = time.monotonic()
    for i in range(200):
        d, kind = _random_instance(rng, i)
        dims = d.dims

        if kind == "volume":
            # mu_plus must vanish for the volume-constrained solver
            fw = {}
            for f in rng.sample(list(d.faces()), k=min(4, d.face_count)):
                w = F(rng.randint(0, 8), 4)
                if w:
                    fw[f] = w
            mu = MeasureData(d, face_weights=fw)
            v = rng.randint(0, d.cell_count)
            result = solve_volume(v, mu)
            assert result.exact
            mf, mc = as_raw(mu)
            best, sets = fast_min(dims, d.cells(), (), {}, {}, mf, mc, volume=v)
            assert result.value == best
            assert result.minimizer.cells in sets
            continue

        pair = rand_submodular_pair(rng, d)
        pf, pc = as_raw(pair.plus)
        mf, mc = as_raw(pair.minus)

        if kind == "obstacle":
            inner = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.1])
            outer = inner | CellSet.of(
                d, [c for c in d.cells() if rng.random() < 0.7]
            )
            result = solve_obstacle(inner, outer, pair)
            best, sets = fast_min(
                dims, (outer - inner).cells, inner.cells, pf, pc, mf, mc
            )
        else:  # dirichlet
            omega_cells = frozenset(
                c for c in d.cells() if rng.random() < 0.7
            ) or frozenset([next(iter(d.cells()))])
            omega = Region.of(d, omega_cells)
            a0 = CellSet.of(
                d, [c for c in d.cells() if c not in omega_cells and rng.random() < 0.3]
            )
            closure = omega.closure_faces()
            pair = SignedPair(
                MeasureData(
                    d,
                    cell_weights={c: w for c, w in pair.plus.cell_weights.items() if c in omega_cells},
                    face_weights={f: w for f, w in pair.plus.face_weights.items() if f in closure},
                ),
                MeasureData(
                    d,
                    cell_weights={c: w for c, w in pair.minus.cell_weights.items() if c in omega_cells},
                    face_weights={f: w for f, w in pair.minus.face_weights.items() if f in closure},
                ),
            )
            pf, pc = as_raw(pair.plus)
            mf, mc = as_raw(pair.minus)
            result = solve_dirichlet(a0, omega, pair)
            perim = [(f.axis, f.slot, f.at) for f in closure]
            best, sets = fast_min(
                dims, omega_cells, a0.cells, pf, pc, mf, mc, perim_faces=perim
            )

        assert result.exact
        assert result.value == best
        assert result.minimizer.cells in sets

    assert time.monotonic() - start < 60


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_density_threshold():
    # at or below the density-2 threshold every volume budget is safe
    d8 = GridDomain((8, 8))
    for w in (F(1), F(3, 2), F(2)):
        profile = small_volume_profile(
            hyperplane_measure(d8, 1, 4, w), 1, v_max=8
        )
        assert all(e.phi <= 0 for e in profile.entries)

    # above the threshold the excess goes positive; the budget needed is
    # (w-2)k - 2 > 0, i.e. k > 8 for w = 9/4, so the grid must be larger
    # than 8x8 for the positive clause to be attainable at all
    w = F(9, 4)
    d12 = GridDomain((12, 12))
    profile = small_volume_profile(
        hyperplane_measure(d12, 1, 0, w), 1, v_max=12
    )
    formula = lambda v: max((w - 2) * k - 2 for k in range(1, v + 1))
    for e in profile.entries:
        assert e.phi == formula(e.volume)
    assert profile.phi(12) == 1 > 0

    # exhaustive confirmation on 4x4 for all four weights
    d4 = GridDomain((4, 4))
    for w in (F(1), F(3, 2), F(2), F(9, 4)):
        mu = hyperplane_measure(d4, 1, 0, w)
        profile = small_volume_profile(mu, 1, v_max=6)
        fw, cw = as_raw(mu)
        cells = naive.all_cells(d4.dims)
        for e in profile.entries:
            truth = max(
                naive.closure_mass(d4.dims, frozenset(combo), fw, cw)
                - naive.perimeter(d4.dims, frozenset(combo))
                for r in range(1, e.volume + 1)
                for combo in itertools.combinations(cells, r)
            )
            assert e.phi == truth
            assert not e.upper_bound_only


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_single_hyperplane():
    for n in (2, 3, 4):
        d = GridDomain((n, n))
        mu = hyperplane_measure(d, 1, n // 2, F(2))
        scan = strong_excess(mu, 1, method="exhaustive")
        cut = strong_excess(mu, 1, method="min-cut")
        assert scan.value == cut.value == -2
    d32 = GridDomain((32, 32))
    res = strong_excess(hyperplane_measure(d32, 1, 16, F(2)), 1, method="min-cut")
    assert res.value == -2
    assert res.method == "min-cut"


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_two_hyperplanes():
    for n in (4, 8, 16, 32):
        d = GridDomain((n, n))
        mu = sum_measures(
            hyperplane_measure(d, 1, n // 2, F(2)),
            hyperplane_measure(d, 1, n // 2 + 1, F(2)),
        )
        res = strong_excess(mu, 1, cell_penalty=2, method="min-cut")
        assert res.value <= 0
        # the witness tracks the equality direction: the row between the
        # lines realizes mass 4n against perimeter 2n+2 and volume n
        attained = (
            mass_on_closure(mu, res.witness)
            - perimeter(res.witness)
            - 2 * res.witness.volume
        )
        assert attained == res.value == -2


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_divergence_duality():
    rng = random.Random(5)
    feasible_count = 0
    for _ in range(100):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (5,), (4, 3)]))
        C = F(rng.randint(1, 4), rng.choice([1, 2]))
        fw = {}
        for f in rng.sample(list(d.faces()), k=rng.randint(1, 4)):
            w = F(rng.randint(0, 4 * C.numerator), 2 * C.denominator)
            if 0 < w <= 2 * C:
                fw[f] = w
        cw = {}
        for c in rng.sample(list(d.cells()), k=rng.randint(0, 2)):
            w = F(rng.randint(0, 4), 2)
            if w:
                cw[c] = w
        mu = MeasureData(d, face_weights=fw, cell_weights=cw)
        outcome = divergence_certificate(mu, C)
        excess = strong_excess(mu, C)
        if isinstance(outcome, Infeasible):
            assert excess.value > 0
            witness_excess = (
                mass_on_closure(mu, outcome.witness)
                - C * perimeter(outcome.witness)
            )
            assert witness_excess > 0
            assert witness_excess == outcome.excess == excess.value
        else:
            feasible_count += 1
            assert excess.value <= 0
            assert outcome.valid  # div sigma = mu and |sigma| <= C, exactly
            assert outcome.max_abs_sigma() <= C
    assert 0 < feasible_count < 100  # both branches exercised


# ---------------------------------------------------------------- criterion 6


def brute_capacity(domain, faces):
    best = None
    universe = list(domain.cells())
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            A = CellSet.of(domain, combo)
            cf = closure_faces(A)
            if all(f in cf for f in faces):
                p = perimeter(A)
                best = p if best is None else min(best, p)
    return best


def test_criterion_6_capacity_scaling():
    for k in [*range(1, 13), 20, 40, 80]:
        d = GridDomain((k, 2))
        line = [Face(1, 1, (x,)) for x in range(k)]
        value, witness = capacity(d, faces=line)
        assert value == 2 * k + 2
        assert perimeter(witness) == value
        if k <= 4:
            assert brute_capacity(d, line) == value
        if k >= 10:
            ratio = value / F(2 * k)
            # 1 + 1/k: equals 11/10 exactly at k = 10, strictly below after
            assert ratio <= F(11, 10)
            if k > 10:
                assert ratio < F(11, 10)


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_convex_threshold():
    d = GridDomain((4, 4))
    K = CellSet.box(d, (1, 1), (2, 2))
    empty = CellSet.empty(d)
    for theta, expect_set, expect_value in (
        (F(1, 2), empty, F(0)),
        (F(2), K, F(-8)),
        (F(1), empty, F(0)),  # canonical minimizer of the tie
    ):
        pair = SignedPair.of(d, minus=boundary_measure(K, theta))
        result = solve_obstacle(empty, CellSet.full(d), pair)
        assert result.value == expect_value
        assert result.minimizer.cells == expect_set.cells
        # exhaustive verification of the whole optimality landscape
        mf, mc = as_raw(pair.minus)
        best, sets = fast_min(d.dims, d.cells(), (), {}, {}, mf, mc)
        assert best == expect_value
        if theta == 1:
            assert empty.cells in sets and K.cells in sets
        else:
            assert sets == [expect_set.cells]


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_mass_at_infinity():
    from perivar.experiments import run_runaway_slab, run_tentacle

    slab = run_runaway_slab(3, shifts=[0, 1, 2, 3])
    assert slab.verdicts["LSC fails under local-only convergence"]
    for row in slab.row_dicts():
        assert row["value"] == -4
        assert row["limit_value"] == 0

    safe = run_tentacle(F(2), lengths=[1, 2, 4, 8])
    assert safe.verdicts["cancellation holds"]
    broken = run_tentacle(F(5, 2), lengths=[1, 2, 4, 8])
    assert not broken.verdicts["cancellation holds"]
    assert min(r["value"] for r in broken.row_dicts()) < min(
        r["limit_value"] for r in broken.row_dicts()
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_invariant_suites():
    rng = random.Random(9)

    # perimeter submodularity: P(A|B) + P(A&B) <= P(A) + P(B)
    for _ in range(500):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (6,), (4, 4)]))
        A = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.5])
        B = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.5])
        assert (
            perimeter(A | B) + perimeter(A & B) <= perimeter(A) + perimeter(B)
        )

    # representative duality: interior mass of A plus closure mass of the
    # complement accounts for everything except boundary faces whose only
    # cell lies in A
    for _ in range(500):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (6,)]))
        fw = {
            f: F(rng.randint(1, 4), 2)
            for f in rng.sample(list(d.faces()), k=4)
        }
        cw = {c: F(1, 2) for c in rng.sample(list(d.cells()), k=1)}
        mu = MeasureData(d, face_weights=fw, cell_weights=cw)
        A = CellSet.of(d, [c for c in d.cells() if rng.random() < 0.5])
        boundary_in_A = sum(
            (
                w
                for f, w in fw.items()
                if d.is_boundary_face(f) and d.face_cells(f)[0] in A
            ),
            F(0),
        )
        assert (
            mass_on_interior(mu, A)
            + mass_on_closure(mu, A.complement())
            + boundary_in_A
            == mu.total_mass()
        )

    # scaling argmin-invariance: scaling measures and the perimeter weight
    # together leaves the canonical minimizer unchanged
    from perivar.measure import scale

    for _ in range(500):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2)]))
        pair = rand_submodular_pair(rng, d)
        lam = F(rng.randint(1, 6), rng.choice([1, 2, 3]))
        base_sol, base_val = minimize(assemble(pair, FullSpace()))
        scaled = SignedPair(scale(pair.plus, lam), scale(pair.minus, lam))
        sol, val = minimize(assemble(scaled, FullSpace(), perimeter_weight=lam))
        assert sol.cells == base_sol.cells
        assert val == lam * base_val

    # parametric nestedness: minimizers shrink as the volume price grows
    nested_pairs = 0
    while nested_pairs < 500:
        d = GridDomain(rng.choice([(3, 3), (4, 2), (3, 2)]))
        pair = rand_submodular_pair(rng, d)
        energy = assemble(pair, FullSpace())
        pieces = parametric_sweep(energy, F(-4), F(4))
        for a, b in zip(pieces, pieces[1:]):
            assert b.minimizer.issubset(a.minimizer)
            assert a.volume > b.volume
            nested_pairs += 1
        for lam in (pieces[0].lam_lo, pieces[-1].lam_hi):
            sol, _ = minimize(add_volume_term(energy, lam))
            assert any(p.minimizer.cells == sol.cells for p in pieces)

    # canonical-minimizer determinism: insertion order of the measure data
    # never changes the returned set, and repeated runs agree
    for _ in range(500):
        d = GridDomain(rng.choice([(3, 3), (4, 2)]))
        pair = rand_submodular_pair(rng, d)
        sol1, val1 = minimize(assemble(pair, FullSpace()))
        shuffled_faces = list(pair.minus.face_weights.items())
        rng.shuffle(shuffled_faces)
        pair2 = SignedPair(
            pair.plus, MeasureData(
                d,
                cell_weights=dict(
                    sorted(pair.minus.cell_weights.items(), reverse=True)
                ),
                face_weights=dict(shuffled_faces),
            ),
        )
        sol2, val2 = minimize(assemble(pair2, FullSpace()))
        assert (sol1.cells, val1) == (sol2.cells, val2)
