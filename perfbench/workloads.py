"""Seeded instance families for the three workloads, with their checks.

An instance is one public library call (``call``) plus a check that
confirms the answer by an independent route (``check``).  Checks raise
``CheckFailed``; they return the exact answer as text (hashed into the
answer digest) and whether the answer is only a bound.

Each workload is a fixed list of slots (kind, size).  The sizes decide
most of what an instance costs, so they are the same for every seed; the
seed draws the details (densities, obstacles, line positions and
weights) afresh for every pass over the slots.  The slots are put in
bit-reversed order, so that every prefix of a pass, and so every run
length, sees about the same mix.  A run goes through ``PASSES`` distinct
passes and then starts over; the count is set so that a run of the seed
commit gets through most of them, which keeps the spread between seeds
low without tying memory use to speed.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import perivar as pv

# Pinned so that neither PERIVAR_EXHAUSTIVE_CAP nor a change to the
# library default can move an instance between min cut and enumeration.
EXHAUSTIVE_CAP = 22

LINE_WEIGHTS = (F(1), F(5, 4), F(3, 2), F(2))


class CheckFailed(Exception):
    pass


class Instance:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _expect(ok, what):
    if not ok:
        raise CheckFailed(what)


def _cells_text(A):
    return ";".join(",".join(map(str, c)) for c in sorted(A.cells))


def _densities(rng, domain, share=0.3):
    """Random cell densities k/4, k in 1..8, on about ``share`` of the cells."""
    return {c: F(rng.randint(1, 8), 4) for c in domain.cells() if rng.random() < share}


def _random_line(rng, domain, weight=None):
    """A hyperplane line near the middle of a random axis."""
    axis = rng.randrange(domain.d)
    n = domain.dims[axis]
    slot = rng.randint(max(1, n // 2 - 1), min(n - 1, n // 2 + 1))
    w = weight if weight is not None else rng.choice(LINE_WEIGHTS)
    return axis, slot, w, pv.hyperplane_measure(domain, axis, slot, w)


def _random_box(rng, domain, lo_frac, hi_frac):
    """A box whose side along each axis is a random share of the grid's."""
    lo, hi = [], []
    for n in domain.dims:
        side = max(1, rng.randint(int(lo_frac * n), max(1, int(hi_frac * n))))
        start = rng.randint(0, n - side)
        lo.append(start)
        hi.append(start + side - 1)
    return tuple(lo), tuple(hi)


# ---------------------------------------------------------------- grid-cut


def _signed_pair(rng, domain):
    axis, slot, w, line = _random_line(rng, domain)
    plus = pv.MeasureData(domain, cell_weights=_densities(rng, domain))
    minus = pv.sum_measures(pv.MeasureData(domain, cell_weights=_densities(rng, domain)), line)
    return pv.SignedPair(plus, minus), f"line={axis}/{slot}/{w}"


def _obstacle(rng, dims):
    domain = pv.GridDomain(dims)
    pair, line = _signed_pair(rng, domain)
    # the outer obstacle drops a thin random margin, so the number of free
    # cells, and with it the cost, hardly depends on the seed
    olo = tuple(rng.randint(0, 1) for _ in dims)
    ohi = tuple(n - 1 - rng.randint(0, 1) for n in dims)
    outer = pv.CellSet.box(domain, olo, ohi)
    # the inner obstacle is a small box inside the outer one
    ilo = tuple(rng.randint(a, b) for a, b in zip(olo, ohi))
    ihi = tuple(min(b, a + rng.randint(0, 2)) for a, b in zip(ilo, ohi))
    inner = pv.CellSet.box(domain, ilo, ihi)
    mode = pv.FullSpace()

    def call():
        return pv.solve_obstacle(inner, outer, pair)

    def check(res):
        A = res.minimizer
        _expect(inner.issubset(A) and A.issubset(outer), "minimizer leaves the obstacles")
        _expect(pv.direct_value(pair, mode, A) == res.value, "value differs from direct_value")
        for feasible in (inner, outer):
            _expect(res.value <= pv.direct_value(pair, mode, feasible),
                    "an obstacle beats the minimizer")
        return f"{res.value}|{_cells_text(A)}", not res.exact

    label = f"obstacle dims={dims} {line} inner={ilo}-{ihi} outer={olo}-{ohi}"
    return [Instance(label, call, check)]


def _dirichlet(rng, dims):
    domain = pv.GridDomain(dims)
    pair, line = _signed_pair(rng, domain)
    n = dims[0]
    side = (3 * n) // 4 + rng.randint(-1, 1)
    corner = (rng.randint(0, n - side), rng.randint(0, n - side))
    omega_set = pv.CellSet.box(domain, corner, (corner[0] + side - 1, corner[1] + side - 1))
    omega = pv.Region(domain, omega_set.cells)
    # the measure must live on omega's cells and closure faces
    pair = pv.SignedPair(pv.restrict(pair.plus, omega_set), pv.restrict(pair.minus, omega_set))
    alo, ahi = _random_box(rng, domain, 0.3, 0.7)
    a0 = pv.CellSet.box(domain, alo, ahi)
    mode = pv.Dirichlet(a0=a0, omega=omega)
    outside = omega_set.complement()

    def call():
        return pv.solve_dirichlet(a0, omega, pair)

    def check(res):
        A = res.minimizer
        _expect((A & outside).cells == (a0 & outside).cells, "minimizer leaves the datum")
        _expect(pv.direct_value(pair, mode, A) == res.value, "value differs from direct_value")
        for feasible in (a0 - omega_set, a0 | omega_set):
            _expect(res.value <= pv.direct_value(pair, mode, feasible),
                    "a feasible set beats the minimizer")
        return f"{res.value}|{_cells_text(A)}", not res.exact

    label = f"dirichlet dims={dims} {line} omega={corner}+{side} a0={alo}-{ahi}"
    return [Instance(label, call, check)]


# ---------------------------------------------------------------- ic-verify


def _excess_line(rng, n):
    """strong_excess of a weight-2 line (answer -2), then its certificate."""
    domain = pv.GridDomain((n, n))
    axis, slot, _, mu = _random_line(rng, domain, weight=F(2))

    def call_excess():
        return pv.strong_excess(mu, 1, exhaustive_cap=EXHAUSTIVE_CAP)

    def check_excess(res):
        W = res.witness
        _expect(res.value == -2, "excess of a weight-2 line is not -2")
        _expect(W.volume > 0, "empty witness")
        _expect(pv.mass_on_closure(mu, W) - pv.perimeter(W) == res.value,
                "witness does not attain the excess")
        return f"{res.value}|{_cells_text(W)}", False

    def call_cert():
        return pv.divergence_certificate(mu, 1)

    def check_cert(cert):
        # criterion 5: excess <= 0, so a sub-C field must exist; recompute
        # its bound and divergence here rather than trusting cert.valid
        _expect(isinstance(cert, pv.DivergenceCertificate), "no certificate for a feasible measure")
        _expect(all(abs(s) <= 1 for s in cert.sigma.values()), "|sigma| exceeds C")
        for cell in domain.cells():
            div = -mu.cell_weight(cell)
            for f in domain.cell_faces(cell):
                s = cert.sigma.get(f, 0)
                div += s if domain.lower_cell(f) == cell else -s
                div -= mu.face_weight(f) / 2
            _expect(div == 0, f"divergence misses the measure at {cell}")
        text = ";".join(f"{f.axis},{f.slot},{f.at}={s}" for f, s in sorted(cert.sigma.items()) if s)
        return text, False

    label = f"excess-line n={n} line={axis}/{slot}"
    return [
        Instance(label + " strong_excess", call_excess, check_excess),
        Instance(label + " divergence_certificate", call_cert, check_cert),
    ]


def _two_lines(rng, n):
    domain = pv.GridDomain((n, n))
    axis = rng.randrange(2)
    slot = n // 2 + rng.randint(-2, 1)
    mu = pv.sum_measures(
        pv.hyperplane_measure(domain, axis, slot, 2),
        pv.hyperplane_measure(domain, axis, slot + 1, 2),
    )

    def call():
        return pv.strong_excess(mu, 1, cell_penalty=2, exhaustive_cap=EXHAUSTIVE_CAP)

    def check(res):
        W = res.witness
        _expect(res.value <= 0, "two weight-2 lines break the condition")  # criterion 4
        _expect(W.volume > 0, "empty witness")
        attained = pv.mass_on_closure(mu, W) - pv.perimeter(W) - 2 * W.volume
        _expect(attained == res.value, "witness does not attain the excess")
        return f"{res.value}|{_cells_text(W)}", False

    return [Instance(f"two-lines n={n} lines={axis}/{slot},{slot + 1}", call, check)]


def _profile(rng, n):
    domain = pv.GridDomain((n, n))
    axis, slot, w, mu = _random_line(rng, domain)

    def call():
        return pv.small_volume_profile(mu, 1, v_max=10, exhaustive_cap=EXHAUSTIVE_CAP)

    def check(prof):
        _expect([e.volume for e in prof.entries] == list(range(1, 11)), "wrong profile volumes")
        # criterion 2: at or below density 2 every budget is safe
        _expect(all(e.phi <= 0 for e in prof.entries), "positive profile entry")
        inexact = any(e.upper_bound_only for e in prof.entries)
        return ";".join(f"{e.phi}{'^' if e.upper_bound_only else ''}" for e in prof.entries), inexact

    return [Instance(f"profile n={n} line={axis}/{slot}/{w}", call, check)]


# ---------------------------------------------------------------- exact-search


def _capacity(rng, k):
    domain = pv.GridDomain((k, 2))
    line = [pv.Face(1, 1, (x,)) for x in range(k)]

    def call():
        return pv.capacity(domain, faces=line)

    def check(res):
        value, A = res
        # criterion 6: the k-face line costs 2k + 2
        _expect(value == 2 * k + 2, "capacity is not 2k+2")
        _expect(set(line) <= pv.closure_faces(A), "closure misses a target face")
        _expect(pv.perimeter(A) == value, "perimeter differs from the value")
        return f"{value}|{_cells_text(A)}", False

    return [Instance(f"capacity k={k}", call, check)]


def _chain_excess(rng, n):
    domain = pv.GridDomain((n,))
    faces = {f: F(rng.randint(0, 8), 4) for f in domain.faces()}
    cells = {c: F(rng.randint(1, 4), 4) for c in domain.cells() if rng.random() < 0.2}
    mu = pv.MeasureData(domain, cell_weights=cells, face_weights=faces)

    def call():
        return pv.strong_excess(mu, 1, method="exhaustive", exhaustive_cap=EXHAUSTIVE_CAP)

    def check(res):
        cut = pv.strong_excess(mu, 1, method="min-cut", exhaustive_cap=EXHAUSTIVE_CAP)
        _expect(res.value == cut.value, "enumeration and min cut disagree")
        W = res.witness
        _expect(pv.mass_on_closure(mu, W) - pv.perimeter(W) == res.value,
                "witness does not attain the excess")
        return f"{res.value}|{_cells_text(W)}", False

    return [Instance(f"chain-excess n={n}", call, check)]


def _volume(rng, dims, v):
    domain = pv.GridDomain(dims)
    axis, slot, w, line = _random_line(rng, domain)
    mu = pv.sum_measures(line, pv.MeasureData(domain, cell_weights=_densities(rng, domain, 0.15)))
    pair = pv.SignedPair.of(domain, minus=mu)

    def call():
        return pv.solve_volume(v, mu, exhaustive_cap=EXHAUSTIVE_CAP)

    def check(res):
        A = res.minimizer
        _expect(A.volume == v, "minimizer has the wrong volume")
        _expect(pv.direct_value(pair, pv.FullSpace(), A) == res.value,
                "value differs from direct_value")
        if res.certificate is not None:
            _expect(res.certificate["lower_bound"] <= res.value, "lower bound above the value")
        return f"{res.value}|{res.exactness}|{_cells_text(A)}", not res.exact

    return [Instance(f"volume dims={dims} v={v} line={axis}/{slot}/{w}", call, check)]


def _volume_small(rng, dims):
    cells = dims[0] * dims[1]
    return _volume(rng, dims, rng.randint(2, cells - 2))


def _volume_sweep(rng, spec):
    n, share = spec
    return _volume(rng, (n, n), int(share * n * n))


# ---------------------------------------------------------------- workloads

WORKLOADS = {
    "grid-cut": (
        [(_obstacle, (n, n)) for n in range(16, 41, 2)]
        + [(_dirichlet, (n, n)) for n in range(16, 41, 2)]
        + [(_obstacle, (n, n, n)) for n in range(6, 11)]
    ),
    "ic-verify": (
        [(_excess_line, n) for n in range(8, 21)]
        + [(_two_lines, n) for n in range(8, 21)]
        + [(_profile, n) for n in range(8, 15)]
    ),
    "exact-search": (
        [(_capacity, k) for k in range(6, 11)]
        + [(_chain_excess, n) for n in range(12, 19)]
        + [(_volume_small, d) for d in ((3, 4), (2, 7), (3, 5), (4, 4), (2, 8), (3, 6), (2, 9))]
        + [(_volume_sweep, (n, s)) for n in (5, 6, 7) for s in (F(1, 3), F(1, 2))]
    ),
}


def _bit_reversed(items):
    bits = max(1, (len(items) - 1).bit_length())
    key = lambda i: int(format(i, f"0{bits}b")[::-1], 2)
    return [items[i] for i in sorted(range(len(items)), key=key)]


# Distinct passes per run, about what the seed commit gets through in a
# 30-second run; after them the stream starts over.
PASSES = {"grid-cut": 4, "ic-verify": 4, "exact-search": 8}


def generate(workload, seed, npass):
    """The instances of one pass over the workload's slots."""
    out = []
    for j, (make, size) in enumerate(_bit_reversed(WORKLOADS[workload])):
        out.extend(make(random.Random(f"{workload}/{seed}/{npass}/{j}"), size))
    return out
