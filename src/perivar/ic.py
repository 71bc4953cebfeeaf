"""Isoperimetric-condition verification, divergence certificates, capacity.

The central quantity is the excess ``max over nonempty A of
mu(rep(A)) - C * P(A, variant)``: the strong IC holds iff it is <= 0.
Two independent routes compute it: subset enumeration (small grids) and a
min-cut reduction.  The reduction uses one node per mass-carrying face,
supplied with the face weight from the source and exchanging at most C
with each incident cell, so that the minimum cut is exactly
``C * P(A) + (excluded mass)`` and strong duality turns the max-flow into
a divergence certificate (a sub-C field with the measure as divergence).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .energy import FullSpace, assemble, freeze
from .grid import Cell, CellSet, Face, GridDomain, Region, _check_same_domain
from .maxflow import FlowNetwork, _residual_reachable, augment, max_flow, minimize
from .measure import MeasureData, are_mutually_singular
from .oracle import (
    CLOSURE,
    DEFAULT_EXHAUSTIVE_CAP,
    INTERIOR,
    ExhaustiveCapacityExceeded,
    scan_excess,
)

ZERO = Fraction(0)

ENV_CAP = "PERIVAR_EXHAUSTIVE_CAP"


def resolve_cap(explicit: Optional[int] = None, file_option: Optional[int] = None) -> int:
    """Exhaustive-cap precedence: explicit flag > environment > file > default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(ENV_CAP)
    if env is not None:
        return int(env)
    if file_option is not None:
        return int(file_option)
    return DEFAULT_EXHAUSTIVE_CAP


@dataclass(frozen=True)
class ICVariant:
    """Test-set class, representative, and perimeter flavor for an IC check.

    kind is one of 'plain', 'interior-rep', 'relative', 'avoid-ball',
    'relative-to-boundary'.  'relative' confines test sets to the
    subdomain; 'relative-to-boundary' keeps them unrestricted but charges
    only the relative perimeter.
    """

    kind: str
    omega: Optional[Region] = None
    radius: Optional[int] = None

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
        return ICVariant("avoid-ball", radius=int(radius))

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


def _variant_setup(domain: GridDomain, variant: ICVariant):
    """Returns (admissible cells, charged faces, representative kind)."""
    all_cells = frozenset(domain.cells())
    all_faces = frozenset(domain.faces())
    if variant.kind == "plain":
        return all_cells, all_faces, CLOSURE
    if variant.kind == "interior-rep":
        return all_cells, all_faces, INTERIOR
    if variant.kind == "relative":
        return frozenset(variant.omega.cells), variant.omega.interior_faces(), CLOSURE
    if variant.kind == "avoid-ball":
        return all_cells - _central_box(domain, variant.radius), all_faces, CLOSURE
    if variant.kind == "relative-to-boundary":
        return all_cells, variant.omega.interior_faces(), CLOSURE
    raise ValueError(f"unknown IC variant kind {variant.kind!r}")


@dataclass(frozen=True)
class ExcessResult:
    value: Fraction
    witness: CellSet
    method: str  # 'min-cut' or 'exhaustive'

    def __iter__(self):
        return iter((self.value, self.witness))


class _ExcessNetwork:
    """Min-cut model of max_A [mass(rep A) - C P(A) - penalty |A|]."""

    def __init__(
        self,
        mu: MeasureData,
        C: Fraction,
        variant: ICVariant,
        cell_penalty: Fraction = ZERO,
        for_certificate: bool = False,
    ):
        domain = mu.domain
        admissible, charged, rep = _variant_setup(domain, variant)
        self.domain = domain

        den = C.denominator
        den = math.lcm(den, cell_penalty.denominator)
        for w in mu.face_weights.values():
            den = math.lcm(den, w.denominator)
        for w in mu.cell_weights.values():
            den = math.lcm(den, w.denominator)
        if for_certificate:
            den *= 2  # mandatory shares are w/2 - C, which may halve the grain
        self.den = den
        Cs = int(C * den)
        pen = int(cell_penalty * den)

        self.reducible = True
        self.blockers: List[str] = []

        net = FlowNetwork()
        self.net = net
        self.cell_node: Dict[Cell, int] = {}
        for c in sorted(admissible):
            self.cell_node[c] = net.add_node()

        # pre-compute a hard capacity from an upper bound on everything finite
        finite_total = (
            sum(int(w * den) for w in mu.face_weights.values())
            + sum(int(w * den) for w in mu.cell_weights.values())
            + Cs * 4 * len(charged)
            + abs(pen) * len(admissible)
        )
        self.hard = 1 + finite_total

        supply = 0
        # gadget bookkeeping for certificate extraction:
        # face -> dict with arc indices and metadata
        self.face_info: Dict[Face, dict] = {}

        mass_faces = dict(mu.face_weights)
        relevant = sorted(set(mass_faces) | set(charged))
        for face in relevant:
            W = int(mass_faces.get(face, ZERO) * den)
            is_charged = face in charged
            inc = domain.face_cells(face)
            inc_adm = [c for c in inc if c in admissible]
            open_sides = 2 - len(inc_adm) if len(inc) == 2 else 1 + (1 - len(inc_adm))
            info = {"face": face, "w": W, "charged": is_charged, "arcs": {}}

            counts_mass = W > 0 and (
                (rep == CLOSURE and len(inc_adm) >= 1)
                or (rep == INTERIOR and len(inc) == 2 and len(inc_adm) == 2)
            )

            if not counts_mass and not (is_charged and len(inc_adm) >= 1):
                continue  # face can never cross nor contribute mass

            if counts_mass and rep == CLOSURE:
                if for_certificate and is_charged and W > 2 * Cs:
                    # share-constrained routing: each side must absorb at
                    # least w/2 - C (mandatory), the remaining 2C splits
                    # freely; this encodes |sigma| <= C exactly, but the
                    # cut no longer models the excess
                    mand = W // 2 - Cs
                    info["cert_heavy"] = True
                    info["mandatory"] = mand
                    for c in inc_adm:
                        net.add_arc(net.source, self.cell_node[c], mand)
                        supply += mand
                    # an exterior side's mandatory share simply leaves
                    if 2 * Cs > 0:
                        f_node = net.add_node()
                        info["node"] = f_node
                        info["supply_arc"] = net.add_arc(net.source, f_node, 2 * Cs)
                        supply += 2 * Cs
                        for c in inc_adm:
                            info["arcs"][c] = net.add_arc(
                                f_node, self.cell_node[c], 2 * Cs
                            )
                        for _ in range(open_sides):
                            info["sink_arc"] = net.add_arc(f_node, net.sink, 2 * Cs)
                elif is_charged and len(inc_adm) == 1:
                    # modular: pays C when the cell is in, W when it is out
                    u = self.cell_node[inc_adm[0]]
                    info["modular"] = True
                    info["supply_arc"] = net.add_arc(net.source, u, W)
                    info["sink_arc"] = net.add_arc(u, net.sink, Cs)
                    supply += W
                elif is_charged:
                    if W > 2 * Cs:
                        self.reducible = False
                        self.blockers.append(
                            f"face {face}: weight exceeds 2C on a charged "
                            "two-sided face"
                        )
                        continue
                    f_node = net.add_node()
                    info["node"] = f_node
                    info["supply_arc"] = net.add_arc(net.source, f_node, W)
                    supply += W
                    for c in inc_adm:
                        info["arcs"][c] = net.add_arc(self.cell_node[c], f_node, Cs, Cs)
                else:
                    if len(inc_adm) >= 2:
                        self.reducible = False
                        self.blockers.append(
                            f"face {face}: closure mass on an uncharged two-sided face"
                        )
                        continue
                    f_node = net.add_node()
                    info["node"] = f_node
                    info["supply_arc"] = net.add_arc(net.source, f_node, W)
                    supply += W
                    info["arcs"][inc_adm[0]] = net.add_arc(
                        f_node, self.cell_node[inc_adm[0]], self.hard
                    )
            elif counts_mass and rep == INTERIOR:
                f_node = net.add_node()
                info["node"] = f_node
                info["supply_arc"] = net.add_arc(net.source, f_node, W)
                supply += W
                for c in inc_adm:
                    info["arcs"][c] = net.add_arc(f_node, self.cell_node[c], self.hard)
                if is_charged:
                    u, v = inc_adm
                    info["through_arc"] = net.add_arc(
                        self.cell_node[u], self.cell_node[v], Cs, Cs
                    )
            else:
                # charged, massless (or mass that can never count)
                if len(inc_adm) == 2:
                    u, v = inc_adm
                    info["through_arc"] = net.add_arc(
                        self.cell_node[u], self.cell_node[v], Cs, Cs
                    )
                elif len(inc_adm) == 1:
                    info["sink_arc"] = net.add_arc(
                        self.cell_node[inc_adm[0]], net.sink, Cs
                    )
            self.face_info[face] = info

        for c in sorted(mu.cell_weights):
            if c not in admissible:
                continue
            W = int(mu.cell_weights[c] * den)
            net.add_arc(net.source, self.cell_node[c], W)
            supply += W
        if pen > 0:
            for c in sorted(admissible):
                net.add_arc(self.cell_node[c], net.sink, pen)

        self.supply = supply

    def witness_cells(self, node_set: Iterable) -> CellSet:
        nodes = set(node_set)
        return CellSet.of(
            self.domain, [c for c, n in self.cell_node.items() if n in nodes]
        )

    def solve(self):
        """Max flow; returns (CutResult, max excess over all A including empty)."""
        result = max_flow(self.net)
        excess = Fraction(self.supply - result.value, self.den)
        return result, excess

    def maximal_source_side(self) -> frozenset:
        """Nodes of the inclusion-maximal min cut (complement of sink-reaching)."""
        net = self.net
        reaching = {net.sink}
        stack = [net.sink]
        while stack:
            v = stack.pop()
            for i in net.adj[v]:
                u = net.to[i]
                # arc u -> v is i^1; it is residual if cap[i^1] > 0
                if net.cap[i ^ 1] > 0 and u not in reaching:
                    reaching.add(u)
                    stack.append(u)
        return frozenset(range(net.n_nodes)) - reaching


def _single_cell_excess(
    mu: MeasureData,
    C: Fraction,
    variant: ICVariant,
    cell_penalty: Fraction,
    cell: Cell,
) -> Fraction:
    domain = mu.domain
    admissible, charged, rep = _variant_setup(domain, variant)
    mass = mu.cell_weight(cell)
    perim = ZERO
    for f in domain.cell_faces(cell):
        if f in charged:
            perim += C
        w = mu.face_weight(f)
        if w and rep == CLOSURE:
            mass += w
        # a single cell has no interior faces, so rep == INTERIOR adds nothing
    return mass - perim - cell_penalty


def _brute_excess(
    mu: MeasureData,
    C: Fraction,
    variant: ICVariant,
    cell_penalty: Fraction,
):
    domain = mu.domain
    admissible, charged, rep = _variant_setup(domain, variant)
    return scan_excess(
        domain,
        sorted(admissible),
        charged_faces={f: C for f in charged},
        mass_faces={f: (w, rep) for f, w in mu.face_weights.items()},
        cell_masses=dict(mu.cell_weights),
        cell_penalty=cell_penalty,
    )


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

    The IC with constant C holds iff the returned value is <= 0.  Uses the
    min-cut reduction when every mass face is reducible (all charged face
    weights <= 2C), otherwise exhaustive search below the configured cap.

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
    """
    C = Fraction(C)
    if C < 0:
        raise ValueError("C must be nonnegative")
    cell_penalty = Fraction(cell_penalty)
    variant = variant or ICVariant.plain()
    domain = mu.domain
    admissible, _, _ = _variant_setup(domain, variant)
    if not admissible:
        raise ValueError("variant admits no test sets on this grid")

    if cell_penalty < 0:
        raise ValueError("cell penalty must be nonnegative")

    model = None if method == "exhaustive" else _ExcessNetwork(mu, C, variant, cell_penalty)
    if method == "min-cut" and not model.reducible:
        raise ValueError(f"instance is not min-cut reducible: {model.blockers}")

    if model is None or not model.reducible:
        cap = resolve_cap(exhaustive_cap)
        if len(admissible) > cap:
            raise ExhaustiveCapacityExceeded(len(admissible), cap)
        scan = _brute_excess(mu, C, variant, cell_penalty)
        return ExcessResult(scan.best_value, scan.best_set, "exhaustive")

    result, excess = model.solve()
    if excess > 0:
        witness = model.witness_cells(result.source_side)
        return ExcessResult(excess, witness, "min-cut")

    maximal = model.maximal_source_side()
    witness = model.witness_cells(maximal)
    if witness.volume > 0:
        return ExcessResult(ZERO, witness, "min-cut")

    # all nonempty sets have negative excess: sweep the cells (see above)
    net = model.net
    sinks = [v == net.sink for v in range(net.n_nodes)]
    best: Optional[Fraction] = None
    best_witness: Optional[CellSet] = None
    for node in model.cell_node.values():  # sorted cell order
        delta = augment(net, node, sinks)
        value = Fraction(model.supply - result.value - delta, model.den)
        if best is None or value > best:
            best = value
            best_witness = model.witness_cells(_residual_reachable(net, node))
        sinks[node] = True
    return ExcessResult(best, best_witness, "min-cut")


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
    as an upper bound.
    """
    C = Fraction(C)
    cell_penalty = Fraction(cell_penalty)
    variant = variant or ICVariant.plain()
    domain = mu.domain
    admissible, _, _ = _variant_setup(domain, variant)
    if not admissible:
        raise ValueError("variant admits no test sets on this grid")
    if v_max is None:
        v_max = len(admissible)
    v_max = min(int(v_max), len(admissible))
    if v_max < 1:
        raise ValueError("v_max must be at least 1")

    cap = resolve_cap(exhaustive_cap)
    if len(admissible) <= cap:
        scan = _brute_excess(mu, C, variant, cell_penalty)
        entries = []
        running: Optional[Fraction] = None
        for v in range(1, v_max + 1):
            at = scan.best_at_volume[v] if v < len(scan.best_at_volume) else None
            if at is not None and (running is None or at[0] > running):
                running = at[0]
            entries.append(ProfileEntry(v, running, "exhaustive-exact", False))
        return ICProfile(tuple(entries))

    # Lagrangian sweep over lam >= 0: g(lam) = max over nonempty A of
    # f(A) - lam |A|; witnesses give exact profile values at their volumes.
    # The cap passes down, so a non-reducible instance (the penalty does
    # not change reducibility) raises ExhaustiveCapacityExceeded at once.
    def g(lam: Fraction):
        res = strong_excess(
            mu, C, variant, cell_penalty=cell_penalty + lam, exhaustive_cap=cap
        )
        return res.value, res.witness

    lam_hi = mu.total_mass() + 1
    samples: Dict[Fraction, Fraction] = {}
    exact: Dict[int, Fraction] = {}

    def record(lam: Fraction, excess: Fraction, witness: CellSet):
        samples[lam] = excess
        if witness.volume > 0:
            f_val = excess + lam * witness.volume
            if witness.volume not in exact or f_val > exact[witness.volume]:
                exact[witness.volume] = f_val

    def sweep(lam_a, ex_a, wit_a, lam_b, ex_b, wit_b):
        if wit_a.volume == wit_b.volume:
            return
        # intersection of the two support lines f(A) - lam |A|
        lam_star = (
            (ex_a + lam_a * wit_a.volume) - (ex_b + lam_b * wit_b.volume)
        ) / Fraction(wit_a.volume - wit_b.volume)
        if not (lam_a < lam_star < lam_b):
            return
        ex_s, wit_s = g(lam_star)
        record(lam_star, ex_s, wit_s)
        line = ex_a + lam_a * wit_a.volume - lam_star * wit_a.volume
        if ex_s > line:
            sweep(lam_a, ex_a, wit_a, lam_star, ex_s, wit_s)
            sweep(lam_star, ex_s, wit_s, lam_b, ex_b, wit_b)

    ex0, wit0 = g(ZERO)
    record(ZERO, ex0, wit0)
    exh, with_ = g(lam_hi)
    record(lam_hi, exh, with_)
    sweep(ZERO, ex0, wit0, lam_hi, exh, with_)

    best_single = max(
        _single_cell_excess(mu, C, variant, cell_penalty, c) for c in admissible
    )
    if 1 not in exact or best_single > exact[1]:
        exact[1] = best_single

    entries = []
    for v in range(1, v_max + 1):
        # exact always contains volume 1, so the lower bound is defined
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
    face's own mass (exterior sides receive the flux carried to the sink).
    At every cell:  div sigma = cell mass + half the mass of each incident
    face (``residuals`` records the differences; all zero when valid).
    """

    bound: Fraction
    sigma: Dict[Face, Fraction]
    shares: Dict[Face, Tuple[Fraction, Fraction]]
    residuals: Dict[Cell, Fraction]

    def max_abs_sigma(self) -> Fraction:
        return max((abs(s) for s in self.sigma.values()), default=ZERO)

    @property
    def valid(self) -> bool:
        return self.max_abs_sigma() <= self.bound and all(
            r == 0 for r in self.residuals.values()
        )


@dataclass(frozen=True)
class Infeasible:
    """No sub-C divergence field exists; carries the dual witness."""

    witness: Optional[CellSet]
    excess: Optional[Fraction]
    overloaded_faces: tuple  # faces whose weight exceeds 2C (never routable)


def divergence_certificate(mu: MeasureData, C):
    """Route mu to the exterior through faces of capacity C, or refute.

    Feasible iff the strong IC (plain variant) holds; on feasibility the
    flow is decoded into a verified field, otherwise the min cut yields a
    witness set with mu(A+) > C P(A) whenever one exists.
    """
    C = Fraction(C)
    if C < 0:
        raise ValueError("C must be nonnegative")
    domain = mu.domain
    heavy = tuple(f for f, w in sorted(mu.face_weights.items()) if w > 2 * C)
    model = _ExcessNetwork(mu, C, ICVariant.plain(), for_certificate=True)
    result, slack = model.solve()
    if slack > 0:
        # min-cut source side refutes routing; for weights <= 2C the deficit
        # is exactly the maximal excess mu(A+) - C P(A) of that set
        witness = model.witness_cells(result.source_side)
        return Infeasible(
            witness=witness,
            excess=slack if not heavy else None,
            overloaded_faces=heavy,
        )

    den = model.den
    half = Fraction(1, 2)
    sigma: Dict[Face, Fraction] = {}
    shares: Dict[Face, Tuple[Fraction, Fraction]] = {}

    def net_flow(arc: int) -> Fraction:
        return Fraction(result.flow_on(arc), den)

    for face in domain.faces():
        info = model.face_info.get(face)
        lo = domain.lower_cell(face)
        hi = domain.upper_cell(face)
        w = mu.face_weight(face)
        if info is None:
            sigma[face] = ZERO
            if w:
                shares[face] = (w * half, w * half)
            continue
        arcs = info["arcs"]
        if info["w"] == 0:
            if "through_arc" in info:
                sigma[face] = net_flow(info["through_arc"])
            elif "sink_arc" in info:
                out = net_flow(info["sink_arc"])
                sigma[face] = out if hi is None else -out
            else:
                sigma[face] = ZERO
            continue
        # mass-carrying face: one-sided fluxes t_lo, t_hi (into each side)
        if info.get("cert_heavy"):
            mand = Fraction(info["mandatory"], den)
            free = {}
            for side in (lo, hi):
                if side is None:
                    free[side] = net_flow(info["sink_arc"]) if "sink_arc" in info else ZERO
                else:
                    free[side] = net_flow(arcs[side]) if side in arcs else ZERO
            t_lo = mand + free[lo]
            t_hi = mand + free[hi]
        elif info.get("modular"):
            # one-sided face: supply delivered to the cell, remainder to the
            # exterior through the sink arc
            y = net_flow(info["sink_arc"])
            t_cell = Fraction(info["w"], model.den) - y
            if hi is None:
                t_lo, t_hi = t_cell, y
            else:
                t_lo, t_hi = y, t_cell
        elif lo is not None and hi is not None:
            t_lo = -net_flow(arcs[lo])
            t_hi = -net_flow(arcs[hi])
        elif hi is None:  # exterior above
            t_lo = -net_flow(arcs[lo])
            t_hi = net_flow(info["sink_arc"])
        else:  # exterior below
            t_hi = -net_flow(arcs[hi])
            t_lo = net_flow(info["sink_arc"])
        sigma[face] = (t_hi - t_lo) * half
        shares[face] = (t_lo, t_hi)

    residuals: Dict[Cell, Fraction] = {}
    for cell in domain.cells():
        div = ZERO
        demand = mu.cell_weight(cell)
        for f in domain.cell_faces(cell):
            if domain.lower_cell(f) == cell:
                div += sigma[f]
            else:
                div -= sigma[f]
            demand += mu.face_weight(f) * half
        residuals[cell] = div - demand

    cert = DivergenceCertificate(
        bound=C, sigma=sigma, shares=shares, residuals=residuals
    )
    if not cert.valid:
        raise AssertionError("decoded certificate failed verification")
    return cert


def capacity(
    domain: GridDomain,
    faces: Sequence = (),
    cells: Sequence = (),
    ) -> Tuple[Fraction, CellSet]:
    """Minimum perimeter of a set whose closure covers the target.

    Target faces need at least one incident cell in the set; target cells
    must be in the set.  Solved exactly by branch and bound over the
    two-sided covering choices, with min-cut relaxations as bounds.
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

    from .measure import SignedPair

    base = assemble(SignedPair.zero(domain), FullSpace())

    def relax(ins: frozenset, outs: frozenset):
        frozen = {c: True for c in ins}
        frozen.update({c: False for c in outs})
        sol, val = minimize(freeze(base, frozen))
        return sol, val

    # greedy incumbent: cover every two-sided face from its lower cell
    greedy_in = frozenset(forced_in | {inc[0] for inc in or_faces})
    best_sol, best_val = relax(greedy_in, frozenset())

    def covered(sol: CellSet, inc) -> bool:
        return inc[0] in sol.cells or inc[1] in sol.cells

    def recurse(ins: frozenset, outs: frozenset):
        nonlocal best_sol, best_val
        if ins & outs:
            return
        sol, val = relax(ins, outs)
        if val >= best_val:
            return
        open_faces = [inc for inc in or_faces if not covered(sol, inc)]
        if not open_faces:
            best_sol, best_val = sol, val
            return
        u, v = open_faces[0]
        if u not in outs:
            recurse(ins | {u}, outs)
        if v not in outs:
            recurse(ins | {v}, outs | {u})

    recurse(frozenset(forced_in), frozenset())
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
    from .measure import sum_measures

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
