import random
import re
from fractions import Fraction

import pytest

from perivar import (
    CellSet,
    Face,
    FullSpace,
    GridDomain,
    MeasureData,
    SignedPair,
)
from perivar.energy import assemble, freeze
from perivar.frontier import frontier_minimize


@pytest.fixture
def rng():
    return random.Random(20260826)


ACCEPTANCE_LABELS = {
    1: "solver value equals exhaustive enumeration on 200 random instances",
    2: "weight-w line threshold: profile <= 0 up to w=2, positive beyond",
    3: "weight-2 line excess is exactly -2 (exhaustive and min-cut agree)",
    4: "two adjacent weight-2 lines: excess minus 2|A| stays <= 0 up to 32x32",
    5: "divergence certificate feasible iff max excess <= 0 (100 random measures)",
    6: "covering cost of k collinear faces is 2k+2; ratio to 2k tends to 1",
    7: "obstacle threshold: empty below theta=1, box above, tie at 1",
    8: "mass at infinity: runaway slab flagged, tentacle safe iff w <= 2",
    9: "invariant suites (submodularity, duality, scaling, nesting, determinism)",
}

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _acceptance_outcomes[n] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_outcomes[n] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_acceptance_outcomes):
        verdict = "PASS" if _acceptance_outcomes[n] == "passed" else "FAIL"
        label = ACCEPTANCE_LABELS.get(n, "")
        terminalreporter.write_line(f"criterion {n}: {verdict} — {label}")


def counted(counts, name, fn):
    """fn, with each call counted in counts[name]."""

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def rand_weight(rng, lo=0, hi=2, dens=(1, 2, 3, 4)):
    """Rational in [lo, hi] with a small denominator."""
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_domain(rng, dims_pool=((3, 3), (4, 2), (2, 2, 2), (4,), (6,))):
    return GridDomain(rng.choice(dims_pool))


def rand_cellset(rng, domain, p=0.5):
    return CellSet.of(
        domain, [c for c in domain.cells() if rng.random() < p]
    )


def rand_measure(rng, domain, faces=None, n_faces=3, n_cells=1, hi=2):
    """Measure with a few random positive face and cell weights."""
    pool = list(faces if faces is not None else domain.faces())
    fw = {}
    for f in rng.sample(pool, k=min(n_faces, len(pool))):
        w = rand_weight(rng, 0, hi)
        if w:
            fw[f] = w
    cw = {}
    for c in rng.sample(list(domain.cells()), k=min(n_cells, domain.cell_count)):
        w = rand_weight(rng, 0, hi)
        if w:
            cw[c] = w
    return MeasureData(domain, cell_weights=cw, face_weights=fw)


def rand_submodular_pair(rng, domain, hi=2, dens=(1, 2, 3, 4)):
    """Signed pair whose assembled energy is submodular at unit perimeter.

    Each face carries at most one of the two signs, with weight <= 2;
    cell masses are unconstrained.  Weights have denominators in ``dens``.
    """
    plus_f, minus_f = {}, {}
    for f in rng.sample(list(domain.faces()), k=min(4, domain.face_count)):
        w = rand_weight(rng, 0, hi, dens)
        if not w:
            continue
        (plus_f if rng.random() < 0.5 else minus_f)[f] = w
    plus_c, minus_c = {}, {}
    for c in rng.sample(list(domain.cells()), k=min(2, domain.cell_count)):
        w = rand_weight(rng, 0, hi, dens)
        if not w:
            continue
        (plus_c if rng.random() < 0.5 else minus_c)[c] = w
    return SignedPair(
        MeasureData(domain, cell_weights=plus_c, face_weights=plus_f),
        MeasureData(domain, cell_weights=minus_c, face_weights=minus_f),
    )


def as_raw(measure):
    """(face_weights keyed by raw tuples, cell_weights) for naive helpers."""
    return (
        {(f.axis, f.slot, f.at): w for f, w in measure.face_weights.items()},
        dict(measure.cell_weights),
    )


def face_of(raw):
    return Face(axis=raw[0], slot=raw[1], at=tuple(raw[2]))


def whole_grid_cover(domain, faces=(), cells=(), cap=22):
    """``capacity``'s problem swept on the whole grid, with no box.

    The target cells and the sole cell of each one-sided face are frozen
    in; each two-sided face with neither cell frozen in is a covering
    pair.  Returns (value, set, pairs).
    """
    forced = set(map(tuple, cells))
    forced.update(c for f in faces for c in domain.face_cells(f) if domain.is_boundary_face(f))
    pairs = [
        domain.face_cells(f)
        for f in faces
        if not domain.is_boundary_face(f) and forced.isdisjoint(domain.face_cells(f))
    ]
    energy = freeze(assemble(SignedPair.zero(domain), FullSpace()), dict.fromkeys(forced, True))
    sol, value = frontier_minimize(energy, covering=pairs, cap=cap)
    return value, sol, pairs
