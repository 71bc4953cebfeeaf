"""Isoperimetric-condition verification, divergence certificates, capacity.

The central quantity is the excess ``max over nonempty A of
mu(rep(A)) - C * P(A, variant)``: the strong IC holds iff it is <= 0.
Every route reads the excess as one compiled energy
(``energy.assemble_excess``): a min cut of it when it is submodular
(every face with two admissible sides and closure mass charged, with
weight at most 2C), subset enumeration below the cap otherwise.  Only
``divergence_certificate`` keeps a flow network of its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .energy import (
    CLOSURE,
    INTERIOR,
    FullSpace,
    _common_den,
    _numbers,
    _scaled,
    _strides,
    assemble,
    assemble_excess,
    check_submodular,
    flip_links,
    freeze,
)
from .frontier import FrontierBudgetExceeded, frontier_minimize
from .grid import CellSet, Face, GridDomain, Region, _check_same_domain, _integer
from .maxflow import (
    FlowNetwork,
    _breakpoints,
    _cut_network,
    _maximal_source_side,
    _residual_reachable,
    augment,
    max_flow,
    minimize,
)
from .measure import MeasureData, SignedPair, are_mutually_singular, sum_measures
from .oracle import DEFAULT_EXHAUSTIVE_CAP, ExhaustiveCapacityExceeded, _scan, scan_excess

ZERO = Fraction(0)

ENV_CAP = "PERIVAR_EXHAUSTIVE_CAP"


def resolve_cap(
    explicit: Optional[int] = None,
    file_option: Optional[int] = None,
    *,
    explicit_name: str = "exhaustive_cap",
) -> int:
    """Exhaustive-cap precedence: explicit flag > environment > file > default.

    A cap is a nonnegative integer, not a bool; anything else raises
    ``ValueError`` naming its source (``explicit_name`` for the explicit
    value).
    """
    sources = (
        (explicit_name, explicit),
        (ENV_CAP, os.environ.get(ENV_CAP)),
        ("the problem file's exhaustive_cap", file_option),
    )
    for name, raw in sources:
        if raw is not None:
            try:
                cap = int(raw) if isinstance(raw, str) else _integer(raw, name)
            except ValueError:
                cap = -1
            if cap < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {raw!r}")
            return cap
    return DEFAULT_EXHAUSTIVE_CAP


_RELATIVE_KINDS = ("relative", "relative-to-boundary")
_KINDS = ("plain", "interior-rep", "avoid-ball") + _RELATIVE_KINDS


@dataclass(frozen=True)
class ICVariant:
    """Test-set class, representative, and perimeter flavor for an IC check.

    kind is one of 'plain', 'interior-rep', 'relative', 'avoid-ball',
    'relative-to-boundary'.  'relative' confines test sets to the
    subdomain; 'relative-to-boundary' keeps them unrestricted but charges
    only the relative perimeter.  The two relative kinds need ``omega``,
    'avoid-ball' needs a nonnegative ``radius``; a field the kind does not
    read is dropped.
    """

    kind: str
    omega: Optional[Region] = None
    radius: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown IC variant kind {self.kind!r}")
        if self.kind not in _RELATIVE_KINDS:
            object.__setattr__(self, "omega", None)
        elif not isinstance(self.omega, Region):
            raise ValueError(f"{self.kind} variant requires a region")
        if self.kind != "avoid-ball":
            object.__setattr__(self, "radius", None)
        elif self.radius is None:
            raise ValueError("avoid-ball variant requires a radius")
        else:
            radius = _integer(self.radius, "avoid-ball radius")
            if radius < 0:
                raise ValueError("avoid-ball radius must be nonnegative")
            object.__setattr__(self, "radius", radius)

    @staticmethod
    def plain() -> "ICVariant":
        return ICVariant("plain")

    @staticmethod
    def interior_rep() -> "ICVariant":
        return ICVariant("interior-rep")

    @staticmethod
    def relative(omega: Region) -> "ICVariant":
        return ICVariant("relative", omega=omega)

    @staticmethod
    def avoid_ball(radius: int) -> "ICVariant":
        return ICVariant("avoid-ball", radius=radius)

    @staticmethod
    def relative_to_boundary(omega: Region) -> "ICVariant":
        return ICVariant("relative-to-boundary", omega=omega)


def _central_box(domain: GridDomain, radius: int) -> frozenset:
    """Cells of the l-infinity box of the given radius around the grid center."""
    return frozenset(
        c
        for c in domain.cells()
        if all(abs(2 * c[a] - (domain.dims[a] - 1)) <= 2 * radius for a in range(domain.d))
    )


def _excess_terms(mu: MeasureData, C: Fraction, variant: ICVariant, cell_penalty=ZERO) -> dict:
    """The variant's test class as keyword arguments of ``scan_excess`` and
    ``assemble_excess``: the admissible cells, the representative, and the
    region whose interior faces alone are charged (None for all faces)."""
    if C < 0:
        raise ValueError("C must be nonnegative")
    if cell_penalty < 0:
        raise ValueError("cell penalty must be nonnegative")
    if variant.omega is not None:
        _check_same_domain(mu, variant.omega)
    domain = mu.domain
    admissible = domain.cells()
    if variant.kind == "relative":
        admissible = variant.omega.cells
    elif variant.kind == "avoid-ball":
        admissible = frozenset(admissible) - _central_box(domain, variant.radius)
    if not admissible:
        raise ValueError("variant admits no test sets on this grid")
    return dict(
        admissible=sorted(admissible),
        rep=INTERIOR if variant.kind == "interior-rep" else CLOSURE,
        within=variant.omega,
    )


@dataclass(frozen=True)
class ExcessResult:
    value: Fraction
    witness: CellSet
    method: str  # 'min-cut' or 'exhaustive'

    def __iter__(self):
        return iter((self.value, self.witness))


def strong_excess(
    mu: MeasureData,
    C,
    variant: Optional[ICVariant] = None,
    *,
    cell_penalty=ZERO,
    exhaustive_cap: Optional[int] = None,
    method: Optional[str] = None,
) -> ExcessResult:
    """Maximum of mu(rep(A)) - C P(A) - penalty |A| over nonempty test sets.

    The IC with constant C holds iff the returned value is <= 0.  Cuts the
    compiled excess energy when it is submodular (every two-sided closure
    face charged and no heavier than 2C), otherwise searches exhaustively
    below the configured cap.

    One max flow gives the best set, the empty one included.  If only the
    empty set attains it, one sweep over the sorted admissible cells
    c_1 < ... < c_n on the solved residual finds the best nonempty set:
    step i pushes flow from c_i to the sink and c_1..c_{i-1}, then flags
    c_i as a sink.  The unforced source side holds no cell, so the min cut
    over sets holding c_i and no earlier cell is the unforced flow plus
    the flow step i adds (earlier steps' flow nets zero across it).  The
    first cell lying in any maximizer is the first step to attain the
    maximum; the witness, the cells reachable from it in the residual, is
    the inclusion-minimal maximizer holding it, so it holds no earlier cell.
    Each probe stops once its flow reaches the best so far, exactly: an
    earlier probe's flow ends at flagged nodes, outside any source side
    holding c_i and no earlier cell, so however much of it was pushed it
    nets zero across that cut and moves no later probe's value or minimal
    cut.  A probe that beats the best never reaches its limit, so its
    witness is whole; a tie stops no better than the best, so it loses.
    The exhaustive route keeps the oracle's least-rank witness instead; the
    instance fixes the default route, so no answer moves between the two.
    """
    if method not in (None, "min-cut", "exhaustive"):
        raise ValueError(f"unknown method {method!r}; use 'min-cut' or 'exhaustive'")
    C = Fraction(C)
    cell_penalty = Fraction(cell_penalty)
    variant = variant or ICVariant.plain()
    domain = mu.domain
    terms = _excess_terms(mu, C, variant, cell_penalty)
    admissible = terms["admissible"]

    report = None
    if method != "exhaustive":
        energy = assemble_excess(mu, C=C, cell_penalty=cell_penalty, **terms)
        report = check_submodular(energy)
        if method == "min-cut" and not report.ok:
            within = terms["within"]
            blockers = [
                f"face {v.face}: weight exceeds 2C on a charged two-sided face"
                if within is None or within.cells.issuperset(domain.face_cells(v.face))
                else f"face {v.face}: closure mass on an uncharged two-sided face"
                for v in report.violations
            ]
            raise ValueError(f"instance is not min-cut reducible: {blockers}")

    if report is None or not report.ok:
        cap = resolve_cap(exhaustive_cap)
        if len(admissible) > cap:
            raise ExhaustiveCapacityExceeded(len(admissible), cap)
        if report is None:  # nothing compiled yet
            scan = scan_excess(mu, C=C, cell_penalty=cell_penalty, **terms)
        else:
            scan = _scan(energy)
        return ExcessResult(scan.best_value, scan.best_set, "exhaustive")

    net, base = _cut_network(energy)
    free = energy.free_cells  # free cell k is node k + 2

    def witness(nodes) -> CellSet:
        return CellSet._of_grid(domain, [free[v - 2] for v in nodes if v > 1])

    # least = den * the least energy = -den * the best excess, empty set
    # included (it scores 0)
    result = max_flow(net)
    least = base + result.value
    if least < 0:
        return ExcessResult(Fraction(-least, energy.den), witness(result.source_side), "min-cut")

    maximal = witness(_maximal_source_side(net))
    if maximal.volume > 0:
        return ExcessResult(ZERO, maximal, "min-cut")

    # all nonempty sets have negative excess: sweep the cells (see above)
    sinks = [v == net.sink for v in range(net.n_nodes)]
    best: Optional[int] = None
    best_witness: Optional[CellSet] = None
    for node in range(2, net.n_nodes):  # sorted cell order
        delta = augment(net, node, sinks, limit=best)
        if best is None or delta < best:
            best = delta
            best_witness = witness(_residual_reachable(net, node))
        sinks[node] = True
    return ExcessResult(Fraction(-(least + best), energy.den), best_witness, "min-cut")


@dataclass(frozen=True)
class ProfileEntry:
    volume: int
    phi: Fraction
    method: str  # 'exhaustive-exact' or 'lagrangian-envelope'
    upper_bound_only: bool


@dataclass(frozen=True)
class ICProfile:
    """phi(v) = best excess over nonempty test sets of volume <= v."""

    entries: tuple

    def __post_init__(self):
        last = None
        for e in self.entries:
            if last is not None and e.phi < last:
                raise AssertionError("profile entries must be nondecreasing")
            last = e.phi

    def phi(self, v: int) -> Fraction:
        for e in self.entries:
            if e.volume == v:
                return e.phi
        raise KeyError(v)


def _best_single_cell(energy) -> Tuple[CellSet, Fraction]:
    """The first free cell of greatest excess, alone, and that excess."""
    gain = flip_links(energy)[0]
    k = gain.index(min(gain))
    cell = energy.domain.cells()[energy.free_index[k]]
    excess = Fraction(-energy.constant - gain[k], energy.den)
    return CellSet._of_grid(energy.domain, (cell,)), excess


def small_volume_profile(
    mu: MeasureData,
    C,
    variant: Optional[ICVariant] = None,
    v_max: Optional[int] = None,
    *,
    cell_penalty=ZERO,
    exhaustive_cap: Optional[int] = None,
) -> ICProfile:
    """Volume-budgeted excess profile, exact below the cap, enveloped above.

    Above the enumeration cap the Lagrangian sweep yields exact values at
    witness volumes; other budgets carry the concave envelope value marked
    as an upper bound.  The sweep runs over lam in [0, lam_top], lam_top =
    mu(total) + 2dC + penalty + 1.  Past lam_top every set of two or more
    cells scores below every single cell, as f(A) - lam |A| <= total -
    2 lam < -2dC - penalty - lam <= f({c}) - lam, so the top end is the
    first best single cell, read off the compiled energy with no max flow.
    lam = 0 and every crossing are ``strong_excess`` calls.
    """
    C = Fraction(C)
    cell_penalty = Fraction(cell_penalty)
    variant = variant or ICVariant.plain()
    terms = _excess_terms(mu, C, variant, cell_penalty)
    admissible = terms["admissible"]
    if v_max is None:
        v_max = len(admissible)
    v_max = min(_integer(v_max, "v_max"), len(admissible))
    if v_max < 1:
        raise ValueError("v_max must be at least 1")

    cap = resolve_cap(exhaustive_cap)
    if len(admissible) <= cap:
        scan = scan_excess(mu, C=C, cell_penalty=cell_penalty, **terms)
        entries = []
        running: Optional[Fraction] = None
        for v in range(1, v_max + 1):
            at = scan.best_at_volume[v] if v < len(scan.best_at_volume) else None
            if at is not None and (running is None or at[0] > running):
                running = at[0]
            entries.append(ProfileEntry(v, running, "exhaustive-exact", False))
        return ICProfile(tuple(entries))

    # Lagrangian sweep over lam in [0, lam_top] (maxflow's breakpoint
    # search, on the negated excess): g(lam) = max over nonempty A of
    # f(A) - lam |A|; witnesses give exact profile values at their volumes.
    # The cap passes down, so a non-reducible instance (the penalty does
    # not change reducibility) raises ExhaustiveCapacityExceeded at lam = 0.
    lam_top = mu.total_mass() + 2 * mu.domain.d * C + cell_penalty + 1
    top_set, top_excess = _best_single_cell(
        assemble_excess(mu, C=C, cell_penalty=cell_penalty, **terms)
    )

    def solve(lam: Fraction):
        if lam == lam_top:
            return top_set, -top_excess
        res = strong_excess(
            mu, C, variant, cell_penalty=cell_penalty + lam, exhaustive_cap=cap
        )
        return res.witness, -res.value - lam * res.witness.volume

    samples: Dict[Fraction, Fraction] = {}  # lam -> g(lam)
    exact: Dict[int, Fraction] = {}
    for lam, witness, value in _breakpoints(solve, ZERO, lam_top):
        samples[lam] = -value - lam * witness.volume
        exact[witness.volume] = max(-value, exact.get(witness.volume, -value))

    entries = []
    for v in range(1, v_max + 1):
        # the top end puts volume 1 in exact, so the lower bound is defined
        lb = max(val for vol, val in exact.items() if vol <= v)
        ub = min(ex + lam * v for lam, ex in samples.items())
        if lb > ub:
            raise AssertionError("envelope fell below an attained excess")
        if lb == ub:
            entries.append(ProfileEntry(v, lb, "lagrangian-envelope", False))
        else:
            entries.append(ProfileEntry(v, ub, "lagrangian-envelope", True))
    return ICProfile(tuple(entries))


@dataclass(frozen=True)
class DivergenceCertificate:
    """Sub-C face field whose discrete divergence carries the measure.

    ``sigma[f]`` is the through-flow across face f, signed along the +axis
    direction; ``shares[f]`` is the (lower-side, upper-side) split of the
    face's own mass (exterior sides receive the flux carried to the sink);
    a share is at least w/2 - C, and negative where flux from that side
    passes through the face.  At every cell:  div sigma = cell mass + half
    the mass of each incident face; ``divergence_certificate`` checks this
    on integers before it builds a certificate, so ``valid`` checks the
    bound only.
    """

    bound: Fraction
    sigma: Dict[Face, Fraction]
    shares: Dict[Face, Tuple[Fraction, Fraction]]

    def max_abs_sigma(self) -> Fraction:
        return max((abs(s) for s in self.sigma.values()), default=ZERO)

    @property
    def valid(self) -> bool:
        return self.max_abs_sigma() <= self.bound


@dataclass(frozen=True)
class Infeasible:
    """No sub-C divergence field exists; carries the dual witness."""

    witness: Optional[CellSet]
    excess: Optional[Fraction]
    overloaded_faces: tuple  # faces whose weight exceeds 2C (never routable)


def _face_sides(dims: tuple):
    """(lower, upper) cell numbers of every face, in ``GridDomain.faces()``
    order; None stands for the exterior."""
    n = math.prod(dims)
    for st, m in zip(_strides(dims), dims):
        # the cells on the axis's first layer, in the order of a face's ``at``
        first = [i for i in range(n) if i // st % m == 0]
        for s in range(m + 1):
            for i in first:
                yield (i + (s - 1) * st if s else None, i + s * st if s < m else None)


def divergence_certificate(mu: MeasureData, C):
    """Route mu to the exterior through faces of capacity C, or refute.

    Feasible iff the strong IC (plain variant) holds; on feasibility the
    flow is decoded into a verified field, otherwise the min cut yields a
    witness set with mu(A+) > C P(A) whenever one exists.

    The network has one node per cell (cell number i is node i + 2) and no
    other.  A face of weight w between two cells adds w/2 to each cell's
    supply and joins them by an arc carrying sigma, C - w/2 each way when
    w <= 2C (left out at 0) and C each way when w > 2C.  A light face thus
    gives each side a share in [w - C, C], as a node of the face supplied
    with w and trading at most C with each side would; a heavy face gives
    each side its mandatory w/2 - C plus a free split of 2C, an intake
    anywhere in [w/2 - C, w/2 + C], so |sigma| <= C.  A boundary face adds
    w to its cell's supply and has a sink arc of its own of C, or adds
    w/2 + C and has one of 2C when w > 2C.  With no face heavier than 2C,
    the plain variant's excess max_A [mu(A+) - C P(A)] is the supply minus
    the max flow.

    Capacities are integers over den, twice the common denominator, so
    w/2 is one too.  An interior arc carrying f upward gives the shares
    t_lo, t_hi = w/2 -+ f; a sink arc carrying y leaves its cell what the
    face supplied less y, and the exterior the rest; 2 den sigma = t_hi -
    t_lo.  One pass over the faces accumulates each cell's residual in
    units of 1/(2 den), with face sides from the grid's strides and masses
    from mu, so the check does not trust the flow.  The check runs on these
    integers: every residual is 0 and every |2 den sigma| <= 2 den C.  Only
    then are Fractions built, one per distinct value.
    """
    C = Fraction(C)
    if C < 0:
        raise ValueError("C must be nonnegative")
    domain = mu.domain
    den = 2 * _common_den(C, *mu.face_weights.values(), *mu.cell_weights.values())
    Cs = _scaled(C, den)
    face_mass = {f: _scaled(w, den) for f, w in mu.face_weights.items()}
    cells = domain.cells()
    cell_mass = [0] * len(cells)
    for i, w in zip(_numbers(domain, mu.cell_weights), mu.cell_weights.values()):
        cell_mass[i] = _scaled(w, den)

    supply = list(cell_mass)
    heavy = []
    # per face: its sides' cell numbers, weight, arc and, on the boundary,
    # what it supplies to its cell; the face arcs come first, in face order,
    # so the k-th arc listed is arc 2k
    recipe = []
    arcs = []
    for face, (lo, hi) in zip(domain.faces(), _face_sides(domain.dims)):
        W = face_mass.get(face, 0)
        if W > 2 * Cs:
            heavy.append(face)
        if lo is None or hi is None:
            c = hi if lo is None else lo
            given, out = (W // 2 + Cs, 2 * Cs) if W > 2 * Cs else (W, Cs)
            supply[c] += given
            recipe.append((lo, hi, W, 2 * len(arcs), given))
            arcs.append((c + 2, 1, out, 0))
            continue
        supply[lo] += W // 2
        supply[hi] += W // 2
        each = Cs if W > 2 * Cs else Cs - W // 2
        recipe.append((lo, hi, W, 2 * len(arcs) if each else None, 0))
        if each:
            arcs.append((lo + 2, hi + 2, each, each))
    arcs += [(0, i + 2, s, 0) for i, s in enumerate(supply) if s]
    total = sum(supply)

    net = FlowNetwork(len(cells) + 2, arcs)
    result = max_flow(net)
    if total > result.value:
        # min-cut source side refutes routing; for weights <= 2C the deficit
        # is exactly the maximal excess mu(A+) - C P(A) of that set
        return Infeasible(
            witness=CellSet._of_grid(domain, [cells[v - 2] for v in result.source_side if v > 1]),
            excess=None if heavy else Fraction(total - result.value, den),
            overloaded_faces=tuple(heavy),
        )

    cap = net.cap
    residual = [-2 * m for m in cell_mass]
    fluxes = []  # per face, 2 den sigma
    shared = {}  # per face with mass, its (t_lo, t_hi) over den
    for face, (lo, hi, W, arc, given) in zip(domain.faces(), recipe):
        if lo is None or hi is None:
            t = given - cap[arc ^ 1]  # the cell's share: the face's supply less the outflow
            t_lo, t_hi = (W - t, t) if lo is None else (t, W - t)
        else:
            f = 0 if arc is None else (cap[arc ^ 1] - cap[arc]) // 2
            t_lo, t_hi = W // 2 - f, W // 2 + f
        flux = t_hi - t_lo
        fluxes.append(flux)
        if W:
            shared[face] = (t_lo, t_hi)
        if lo is not None:
            residual[lo] += flux - W
        if hi is not None:
            residual[hi] -= flux + W
    if any(residual) or max(map(abs, fluxes), default=0) > 2 * Cs:
        raise AssertionError("decoded certificate failed verification")

    # one Fraction per distinct value, all over 2 den
    numerators = {*fluxes, *(2 * t for ts in shared.values() for t in ts)}
    value = {n: Fraction(n, 2 * den) for n in numerators}
    return DivergenceCertificate(
        bound=C,
        sigma=dict(zip(domain.faces(), map(value.__getitem__, fluxes))),
        shares={face: (value[2 * a], value[2 * b]) for face, (a, b) in shared.items()},
    )


def capacity(
    domain: GridDomain,
    faces: Sequence = (),
    cells: Sequence = (),
    *,
    exhaustive_cap: Optional[int] = None,
) -> Tuple[Fraction, CellSet]:
    """Minimum perimeter of a set whose closure covers the target.

    Target faces need at least one incident cell in the set; target cells
    must be in the set.  One perimeter energy serves every route: the
    target cells and the sole cell of each one-sided target face are
    frozen in, and every cell outside the bounding box of the targets'
    cells is frozen out, which is exact (see below).  Each two-sided target
    face with neither cell frozen in is a covering pair.

    With no covering pair the energy is submodular, and one min cut
    answers.  Its inclusion-minimal set lies in every least cover, so it
    is also the set of least sum of 2**rank that the frontier sweep would
    return.  Otherwise the frontier sweep answers within the budget of the
    resolved ``exhaustive_cap`` (``resolve_cap``); a sweep that fits the
    budget but not the memory raises ``MemoryError``.  Past the budget, a
    branch and bound over the covering pairs answers, each node priced by
    a min cut of the same energy.
    """
    faces = sorted(set(faces))
    cells = sorted(set(tuple(c) for c in cells))
    if not faces and not cells:
        raise ValueError("capacity target must be nonempty")
    for f in faces:
        if not domain.contains_face(f):
            raise ValueError(f"face {f} outside the domain")
    for c in cells:
        if not domain.contains_cell(c):
            raise ValueError(f"cell {c} outside the domain")

    forced_in = set(cells)
    or_faces = []
    for f in faces:
        inc = domain.face_cells(f)
        if len(inc) == 1:
            forced_in.add(inc[0])
        else:
            or_faces.append(inc)
    pairs = [inc for inc in or_faces if forced_in.isdisjoint(inc)]
    cap = resolve_cap(exhaustive_cap)

    # Clipping a set to an axis-aligned box that holds every target cell
    # keeps the cover and never adds perimeter: along each line of cells
    # that leaves the box, the one face the clip adds replaces at least one
    # boundary face of the set beyond the box.  So some least cover lies in
    # the targets' bounding box, and the energy freezes the rest out.
    targets = [*forced_in, *(c for inc in pairs for c in inc)]
    box = CellSet.box(domain, tuple(map(min, zip(*targets))), tuple(map(max, zip(*targets))))
    frozen = {c: False for c in domain.cells() if c not in box.cells}
    frozen.update(dict.fromkeys(forced_in, True))
    energy = freeze(assemble(SignedPair.zero(domain), FullSpace()), frozen)
    if not pairs:
        sol, val = minimize(energy)
        return val, sol
    try:
        sol, val = frontier_minimize(energy, covering=pairs, cap=cap)
    except FrontierBudgetExceeded as refused:
        if refused.fits_budget:  # the branch and bound would not end
            raise MemoryError(*refused.args) from None
    else:
        return val, sol

    def relax(ins: frozenset, outs: frozenset):
        return minimize(freeze(energy, {**dict.fromkeys(ins, True), **dict.fromkeys(outs, False)}))

    # greedy incumbent: cover every pair from its lower cell
    best_sol, best_val = relax(frozenset(inc[0] for inc in pairs), frozenset())

    # depth first on a stack: the node taking v is pushed before the one
    # taking u, so u's subtree is searched first
    stack = [(frozenset(), frozenset())]
    while stack:
        ins, outs = stack.pop()
        sol, val = relax(ins, outs)
        if val >= best_val:
            continue
        open_faces = [inc for inc in pairs if sol.cells.isdisjoint(inc)]
        if not open_faces:
            best_sol, best_val = sol, val
            continue
        u, v = open_faces[0]
        if v not in outs:
            stack.append((ins | {v}, outs | {u}))
        if u not in outs:
            stack.append((ins | {u}, outs))
    return best_val, best_sol


@dataclass(frozen=True)
class SingularSumRow:
    volume: int
    phi1: Fraction
    phi2: Fraction
    phi_sum: Fraction
    flagged: bool


@dataclass(frozen=True)
class SingularSumReport:
    rows: tuple
    profile1: ICProfile
    profile2: ICProfile
    profile_sum: ICProfile

    @property
    def any_flagged(self) -> bool:
        return any(r.flagged for r in self.rows)


def singular_sum_check(
    mu1: MeasureData,
    mu2: MeasureData,
    C,
    v_max: int,
    *,
    variant: Optional[ICVariant] = None,
    exhaustive_cap: Optional[int] = None,
) -> SingularSumReport:
    """Profile bookkeeping for a sum of mutually singular measures.

    Flags budgets where the sum's excess exceeds max(phi1, phi2) plus the
    positive part of min(phi1, phi2).  A property check, not a theorem
    prover.
    """
    _check_same_domain(mu1, mu2)
    if not are_mutually_singular(mu1, mu2):
        raise ValueError("measures are not mutually singular")

    kwargs = dict(variant=variant, exhaustive_cap=exhaustive_cap)
    p1 = small_volume_profile(mu1, C, v_max=v_max, **kwargs)
    p2 = small_volume_profile(mu2, C, v_max=v_max, **kwargs)
    ps = small_volume_profile(sum_measures(mu1, mu2), C, v_max=v_max, **kwargs)
    rows = []
    for e1, e2, es in zip(p1.entries, p2.entries, ps.entries):
        hi = max(e1.phi, e2.phi)
        lo_pos = max(min(e1.phi, e2.phi), ZERO)
        rows.append(
            SingularSumRow(
                volume=es.volume,
                phi1=e1.phi,
                phi2=e2.phi,
                phi_sum=es.phi,
                flagged=es.phi > hi + lo_pos,
            )
        )
    return SingularSumReport(tuple(rows), p1, p2, ps)
