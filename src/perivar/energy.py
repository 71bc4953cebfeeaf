"""Pairwise pseudo-Boolean form of the perimeter-plus-measure functional.

``assemble`` turns a measure pair and an evaluation mode (full space,
Dirichlet with frozen exterior data, or relative-to-a-subdomain) into a
``BinaryEnergy``: unary costs per free cell, a 2x2 table per face between
free cells, a constant, and a frozen assignment, all integers over one
denominator ``den`` that ``assemble`` fixes up front.  ``evaluate``
reproduces the functional exactly; ``check_submodular`` reports the
per-face margins ``2*p - w_plus - w_minus`` that decide min-cut solvability.

``assemble_excess`` compiles the isoperimetric excess
``mass(rep A) - sum of charges on crossed faces - penalty |A|`` into the
same form, negated, so the min cut, the Gray-code scan and single-cell
flip scoring (``flip_links``) all read one energy.  Its only
non-submodular faces are two-sided faces whose closure mass exceeds
twice their charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Tuple

from .grid import (
    Cell,
    CellSet,
    Face,
    GridDomain,
    Region,
    _check_same_domain,
)
from .measure import SignedPair

# Representative of a mass face in an excess: CLOSURE counts it when a
# test set holds at least one incident cell, INTERIOR when it holds both.
CLOSURE = 0
INTERIOR = 1


@dataclass(frozen=True)
class FullSpace:
    """Perimeter over the whole grid, all cells free."""


@dataclass(frozen=True)
class Dirichlet:
    """Cells outside omega frozen to a0; perimeter over omega's closure faces."""

    a0: CellSet
    omega: Region


@dataclass(frozen=True)
class Relative:
    """Sets confined to omega; perimeter over omega's interior faces only."""

    omega: Region


Mode = object  # FullSpace | Dirichlet | Relative


class FrozenCellConflictError(ValueError):
    """A set disagrees with the energy's frozen assignment."""


class MeasureSupportError(ValueError):
    """Measure support violates the Dirichlet support precondition."""


class FaceTerm(NamedTuple):
    """2x2 table over the states of the two free cells of one face.

    ``table[i][j]`` is the cost with the lower cell at state i and the
    upper cell at state j.  (w_plus, w_minus, p) record the measure and
    perimeter weights the table was built from.  Table entries and weights
    are integers over the energy's ``den``.
    """

    lower: Cell
    upper: Cell
    table: Tuple  # ((e00, e01), (e10, e11))
    w_plus: int
    w_minus: int
    p: int

    @property
    def margin(self) -> int:
        """Submodularity margin e01 + e10 - e00 - e11 = 2p - w_plus - w_minus."""
        (e00, e01), (e10, e11) = self.table
        return e01 + e10 - e00 - e11


@dataclass(frozen=True)
class Violation:
    face: Face
    w_plus: Fraction
    w_minus: Fraction
    p: Fraction
    margin: Fraction


@dataclass(frozen=True)
class SubmodularityReport:
    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class BinaryEnergy:
    """Integer unary + pairwise energy equal to den * the functional, with frozen cells."""

    domain: GridDomain
    free_cells: tuple
    frozen: Mapping  # Cell -> bool, for every non-free cell
    den: int
    constant: int
    unary: Mapping  # Cell -> (cost at 0, cost at 1)
    face_terms: Mapping  # Face -> FaceTerm

    def frozen_ones(self) -> frozenset:
        return frozenset(c for c, v in self.frozen.items() if v)

    def full_set(self, free_members: frozenset) -> CellSet:
        return CellSet(self.domain, frozenset(free_members) | self.frozen_ones())


def _scaled(w: Fraction, den: int) -> int:
    """w * den for a den that w's denominator divides."""
    return w.numerator * (den // w.denominator)


class _Builder:
    def __init__(self, domain: GridDomain, free: frozenset, frozen: dict):
        self.domain = domain
        self.free = free
        self.frozen = frozen
        self.constant = 0
        self.unary = {c: [0, 0] for c in free}
        self.tables = {}  # Face -> [e00, e01, e10, e11, w_plus, w_minus, p, lower, upper]

    def state(self, cell: Optional[Cell]):
        """None for a free cell; 0/1 for frozen or exterior."""
        if cell is None:
            return 0
        if cell in self.free:
            return None
        return 1 if self.frozen[cell] else 0

    def add_face_cost(self, face: Face, costs: tuple, weight: int, kind: int):
        """Add costs = (c00, c01, c10, c11) over the face's two sides, folding fixed sides.

        ``c_ij`` is the cost with the lower side at state i and the upper
        side at state j.  kind: 4 = w_plus, 5 = w_minus, 6 = perimeter
        weight (for reporting).
        """
        if not weight:
            return
        lo = self.domain.lower_cell(face)
        hi = self.domain.upper_cell(face)
        s_lo = self.state(lo)
        s_hi = self.state(hi)
        if s_lo is None and s_hi is None:
            t = self.tables.get(face)
            if t is None:
                t = self.tables[face] = [0, 0, 0, 0, 0, 0, 0, lo, hi]
            for k, c in enumerate(costs):
                t[k] += c
            t[kind] += weight
        elif s_lo is None:
            for i in (0, 1):
                self.unary[lo][i] += costs[2 * i + s_hi]
        elif s_hi is None:
            for j in (0, 1):
                self.unary[hi][j] += costs[2 * s_lo + j]
        else:
            self.constant += costs[2 * s_lo + s_hi]

    def add_cell_cost(self, cell: Cell, weight: int):
        """weight * [cell in A]."""
        s = self.state(cell)
        if s is None:
            self.unary[cell][1] += weight
        elif s:
            self.constant += weight

    def build(self, den: int) -> BinaryEnergy:
        terms = {
            face: FaceTerm(lo, hi, ((e00, e01), (e10, e11)), w_plus, w_minus, p)
            for face, (e00, e01, e10, e11, w_plus, w_minus, p, lo, hi) in self.tables.items()
        }
        return BinaryEnergy(
            domain=self.domain,
            free_cells=tuple(sorted(self.free)),
            frozen=dict(self.frozen),
            den=den,
            constant=self.constant,
            unary={c: (e[0], e[1]) for c, e in self.unary.items()},
            face_terms=terms,
        )


def _mode_pieces(domain: GridDomain, mode: Mode):
    """Returns (free cells, frozen assignment, perimeter faces in domain order)."""
    all_cells = frozenset(domain.cells())
    if isinstance(mode, FullSpace):
        return all_cells, {}, domain.faces()
    if isinstance(mode, Dirichlet):
        _check_same_domain(mode.a0, mode.omega)
        if mode.a0.domain != domain:
            raise ValueError("Dirichlet data bound to a different domain")
        free = frozenset(mode.omega.cells)
        frozen = {c: (c in mode.a0.cells) for c in all_cells - free}
        faces = mode.omega.closure_faces()
    elif isinstance(mode, Relative):
        if mode.omega.domain != domain:
            raise ValueError("Relative region bound to a different domain")
        free = frozenset(mode.omega.cells)
        frozen = {c: False for c in all_cells - free}
        faces = mode.omega.interior_faces()
    else:
        raise TypeError(f"unknown mode {mode!r}")
    return free, frozen, [f for f in domain.faces() if f in faces]


def assemble(pair: SignedPair, mode: Mode, perimeter_weight=Fraction(1)) -> BinaryEnergy:
    """Build the energy P(A, mode) + mu_plus(A^1) - mu_minus(A+).

    ``perimeter_weight`` scales the cut term (default 1 per face); it exists
    so scaled instances stay representable without touching the grid model.
    The energy's ``den`` is the lcm of the denominators of the perimeter
    weight and of every measure weight.
    """
    domain = pair.domain
    p = Fraction(perimeter_weight)
    if p < 0:
        raise ValueError("perimeter weight must be nonnegative")
    free, frozen, perim_faces = _mode_pieces(domain, mode)

    if isinstance(mode, Dirichlet):
        closure = mode.omega.closure_faces()
        for mu in (pair.plus, pair.minus):
            bad_cells = mu.support_cells() - free
            bad_faces = mu.support_faces() - closure
            if bad_cells or bad_faces:
                raise MeasureSupportError(
                    "Dirichlet mode requires measure support inside omega's "
                    f"cells and closure faces; offending cells={sorted(bad_cells)} "
                    f"faces={sorted(bad_faces)}"
                )

    den = p.denominator
    for mu in (pair.plus, pair.minus):
        for weights in (mu.cell_weights, mu.face_weights):
            den = math.lcm(den, *(w.denominator for w in weights.values()))
    b = _Builder(domain, free, frozen)

    P = _scaled(p, den)
    cut = (0, P, P, 0)
    for face in perim_faces:
        b.add_face_cost(face, cut, P, kind=6)

    for cell in sorted(pair.plus.cell_weights):
        b.add_cell_cost(cell, _scaled(pair.plus.cell_weights[cell], den))
    for face in sorted(pair.plus.face_weights):
        if domain.is_boundary_face(face):
            continue  # boundary faces are never in any A^1
        w = _scaled(pair.plus.face_weights[face], den)
        b.add_face_cost(face, (0, 0, 0, w), w, kind=4)

    for cell in sorted(pair.minus.cell_weights):
        b.add_cell_cost(cell, -_scaled(pair.minus.cell_weights[cell], den))
    for face in sorted(pair.minus.face_weights):
        w = _scaled(pair.minus.face_weights[face], den)
        b.add_face_cost(face, (0, -w, -w, -w), w, kind=5)

    return b.build(den)


def assemble_excess(
    domain: GridDomain,
    admissible,
    charged_faces: Mapping,
    mass_faces: Mapping,
    cell_masses: Mapping,
    cell_penalty=Fraction(0),
) -> BinaryEnergy:
    """The energy -(mass(rep A) - sum of charges on crossed faces - penalty |A|).

    Test sets A range over subsets of ``admissible``; every other cell is
    frozen out, and the exterior counts as out.  ``charged_faces`` maps a
    face to its perimeter charge; ``mass_faces`` maps a face to (weight,
    CLOSURE or INTERIOR); ``cell_masses`` count for admissible cells only.
    The energy's ``den`` is the lcm of the denominators of every charge,
    weight and the penalty.  In the face terms ``p`` is the charge,
    ``w_minus`` the closure mass and ``w_plus`` minus the interior mass,
    so the margin 2p - w_plus - w_minus is negative exactly on a
    two-sided face whose closure mass exceeds twice its charge.
    """
    free = frozenset(admissible)
    frozen = {c: False for c in domain.cells() if c not in free}
    weights = (
        cell_penalty,
        *charged_faces.values(),
        *(w for w, _rep in mass_faces.values()),
        *cell_masses.values(),
    )
    den = math.lcm(*(Fraction(w).denominator for w in weights))
    b = _Builder(domain, free, frozen)
    for face, charge in charged_faces.items():
        P = _scaled(Fraction(charge), den)
        b.add_face_cost(face, (0, P, P, 0), P, kind=6)
    for face, (w, rep) in mass_faces.items():
        W = _scaled(Fraction(w), den)
        if rep == CLOSURE:
            b.add_face_cost(face, (0, -W, -W, -W), W, kind=5)
        else:
            b.add_face_cost(face, (0, 0, 0, -W), -W, kind=4)
    for cell, w in cell_masses.items():
        b.add_cell_cost(cell, -_scaled(Fraction(w), den))
    pen = _scaled(Fraction(cell_penalty), den)
    for cell in free:
        b.add_cell_cost(cell, pen)
    return b.build(den)


def flip_links(energy: BinaryEnergy):
    """Per free cell, the integer change of den * E when it enters a set.

    Returns (gain, links): entering cell c changes the energy by gain[c]
    plus, for each (neighbour, if_out, if_in) in links[c], if_in when the
    neighbour is in the set and if_out when it is out.  Leaving negates
    the same sum.
    """
    gain = {c: e1 - e0 for c, (e0, e1) in energy.unary.items()}
    links = {c: [] for c in energy.free_cells}
    for term in energy.face_terms.values():
        (e00, e01), (e10, e11) = term.table
        links[term.lower].append((term.upper, e10 - e00, e11 - e01))
        links[term.upper].append((term.lower, e01 - e00, e11 - e10))
    return gain, links


def freeze(energy: BinaryEnergy, assignment: Mapping) -> BinaryEnergy:
    """Fold additional cells to fixed states (hard constraints, no big-M)."""
    for c in assignment:
        if c not in energy.unary:
            raise ValueError(f"cell {c} is not free in this energy")
    fixed = {c: bool(v) for c, v in assignment.items()}
    free = frozenset(energy.free_cells) - frozenset(fixed)
    frozen = dict(energy.frozen)
    frozen.update(fixed)
    constant = energy.constant
    unary = {c: [energy.unary[c][0], energy.unary[c][1]] for c in free}
    terms = {}
    for face, term in energy.face_terms.items():
        s_lo = fixed.get(term.lower)
        s_hi = fixed.get(term.upper)
        if s_lo is None and s_hi is None:
            terms[face] = term
        elif s_lo is not None and s_hi is not None:
            constant += term.table[s_lo][s_hi]
        elif s_lo is not None:
            for j in (0, 1):
                unary[term.upper][j] += term.table[s_lo][j]
        else:
            for i in (0, 1):
                unary[term.lower][i] += term.table[i][s_hi]
    for c, v in fixed.items():
        constant += energy.unary[c][v]
    return BinaryEnergy(
        domain=energy.domain,
        free_cells=tuple(sorted(free)),
        frozen=frozen,
        den=energy.den,
        constant=constant,
        unary={c: (e[0], e[1]) for c, e in unary.items()},
        face_terms=terms,
    )


def add_volume_term(energy: BinaryEnergy, lam: Fraction) -> BinaryEnergy:
    """Add the modular term lam * |A| (counting frozen-1 cells in the constant).

    The result is over lcm(den, lam's denominator), rescaled if that is new.
    """
    lam = Fraction(lam)
    den = math.lcm(energy.den, lam.denominator)
    k = den // energy.den
    step = _scaled(lam, den)
    terms = energy.face_terms
    if k > 1:
        terms = {
            face: FaceTerm(t.lower, t.upper, tuple(tuple(k * x for x in row) for row in t.table),
                           k * t.w_plus, k * t.w_minus, k * t.p)
            for face, t in terms.items()
        }
    return BinaryEnergy(
        domain=energy.domain,
        free_cells=energy.free_cells,
        frozen=energy.frozen,
        den=den,
        constant=k * energy.constant + step * len(energy.frozen_ones()),
        unary={c: (k * e0, k * e1 + step) for c, (e0, e1) in energy.unary.items()},
        face_terms=terms,
    )


def _total(energy: BinaryEnergy, cells) -> int:
    """den * the energy of the set with these cells, frozen cells unchecked."""
    value = energy.constant
    for c, (e0, e1) in energy.unary.items():
        value += e1 if c in cells else e0
    for term in energy.face_terms.values():
        value += term.table[term.lower in cells][term.upper in cells]
    return value


def evaluate(energy: BinaryEnergy, A: CellSet) -> Fraction:
    """Exact functional value of the full set A (frozen part included)."""
    _check_same_domain(energy, A)
    for c, v in energy.frozen.items():
        if (c in A.cells) != v:
            raise FrozenCellConflictError(
                f"cell {c} must be {'in' if v else 'out of'} the set"
            )
    return Fraction(_total(energy, A.cells), energy.den)


def check_submodular(energy: BinaryEnergy) -> SubmodularityReport:
    """Per-face test e01 + e10 >= e00 + e11 (equivalently w+ + w- <= 2p)."""
    bad = [face for face, term in energy.face_terms.items() if term.margin < 0]
    den = energy.den
    violations = []
    for face in sorted(bad):
        term = energy.face_terms[face]
        violations.append(
            Violation(
                face=face,
                w_plus=Fraction(term.w_plus, den),
                w_minus=Fraction(term.w_minus, den),
                p=Fraction(term.p, den),
                margin=Fraction(term.margin, den),
            )
        )
    return SubmodularityReport(ok=not violations, violations=tuple(violations))


def direct_value(pair: SignedPair, mode: Mode, A: CellSet,
                 perimeter_weight=Fraction(1)) -> Fraction:
    """The functional computed straight from grid and measure primitives.

    Independent of the assembled tables; used to cross-check ``evaluate``.
    """
    from .grid import face_crosses
    from .measure import mass_on_closure, mass_on_interior

    domain = pair.domain
    _, _, perim_faces = _mode_pieces(domain, mode)
    perim = sum(
        (Fraction(perimeter_weight) for f in perim_faces if face_crosses(domain, f, A)),
        Fraction(0),
    )
    return perim + mass_on_interior(pair.plus, A) - mass_on_closure(pair.minus, A)
