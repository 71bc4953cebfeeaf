"""Pairwise pseudo-Boolean form of the perimeter-plus-measure functional.

``assemble`` turns a measure pair and an evaluation mode (full space,
Dirichlet with frozen exterior data, or relative-to-a-subdomain) into a
``BinaryEnergy``: unary costs per free cell, a 2x2 table per face between
free cells, a constant, and a frozen assignment.  ``evaluate`` reproduces
the functional exactly; ``check_submodular`` reports the per-face margins
``2*p - w_plus - w_minus`` that decide min-cut solvability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from .grid import (
    Cell,
    CellSet,
    Face,
    GridDomain,
    Region,
    _check_same_domain,
)
from .measure import SignedPair

ZERO = Fraction(0)


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


@dataclass(frozen=True)
class FaceTerm:
    """2x2 table over the states of the two free cells of one face.

    ``table[i][j]`` is the cost with the lower cell at state i and the
    upper cell at state j.  (w_plus, w_minus, p) record the measure and
    perimeter weights the table was built from.
    """

    lower: Cell
    upper: Cell
    table: Tuple  # ((e00, e01), (e10, e11))
    w_plus: Fraction
    w_minus: Fraction
    p: Fraction

    @property
    def margin(self) -> Fraction:
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
    """Unary + pairwise energy equal to the functional, with frozen cells."""

    domain: GridDomain
    free_cells: tuple
    frozen: Mapping  # Cell -> bool, for every non-free cell
    constant: Fraction
    unary: Mapping  # Cell -> (cost at 0, cost at 1)
    face_terms: Mapping  # Face -> FaceTerm

    def frozen_ones(self) -> frozenset:
        return frozenset(c for c, v in self.frozen.items() if v)

    def full_set(self, free_members: frozenset) -> CellSet:
        return CellSet(self.domain, frozenset(free_members) | self.frozen_ones())


class _Builder:
    def __init__(self, domain: GridDomain, free: frozenset, frozen: dict):
        self.domain = domain
        self.free = free
        self.frozen = frozen
        self.constant = ZERO
        self.unary = {c: [ZERO, ZERO] for c in free}
        self.tables = {}  # Face -> [[e00, e01], [e10, e11]]
        self.face_weights = {}  # Face -> [w_plus, w_minus, p]

    def state(self, cell: Optional[Cell]):
        """None for a free cell; 0/1 for frozen or exterior."""
        if cell is None:
            return 0
        if cell in self.free:
            return None
        return 1 if self.frozen[cell] else 0

    def _table(self, face: Face):
        if face not in self.tables:
            self.tables[face] = [[ZERO, ZERO], [ZERO, ZERO]]
            self.face_weights[face] = [ZERO, ZERO, ZERO]
        return self.tables[face]

    def add_face_cost(self, face: Face, cost_fn, weight: Fraction, kind: int):
        """Add cost_fn(x_lo, x_hi) over the face's two sides, folding fixed sides.

        kind: 0 = w_plus, 1 = w_minus, 2 = perimeter weight (for reporting).
        """
        if not weight:
            return
        lo = self.domain.lower_cell(face)
        hi = self.domain.upper_cell(face)
        s_lo = self.state(lo)
        s_hi = self.state(hi)
        if s_lo is None and s_hi is None:
            t = self._table(face)
            for i in (0, 1):
                for j in (0, 1):
                    t[i][j] += cost_fn(i, j)
            self.face_weights[face][kind] += weight
        elif s_lo is None:
            for i in (0, 1):
                self.unary[lo][i] += cost_fn(i, s_hi)
        elif s_hi is None:
            for j in (0, 1):
                self.unary[hi][j] += cost_fn(s_lo, j)
        else:
            self.constant += cost_fn(s_lo, s_hi)

    def add_cell_cost(self, cell: Cell, weight: Fraction):
        """weight * [cell in A]."""
        if not weight:
            return
        s = self.state(cell)
        if s is None:
            self.unary[cell][1] += weight
        elif s:
            self.constant += weight

    def build(self) -> BinaryEnergy:
        terms = {}
        for face, t in self.tables.items():
            w_plus, w_minus, p = self.face_weights[face]
            terms[face] = FaceTerm(
                lower=self.domain.lower_cell(face),
                upper=self.domain.upper_cell(face),
                table=((t[0][0], t[0][1]), (t[1][0], t[1][1])),
                w_plus=w_plus,
                w_minus=w_minus,
                p=p,
            )
        return BinaryEnergy(
            domain=self.domain,
            free_cells=tuple(sorted(self.free)),
            frozen=dict(self.frozen),
            constant=self.constant,
            unary={c: (e[0], e[1]) for c, e in self.unary.items()},
            face_terms=terms,
        )


def _mode_pieces(domain: GridDomain, mode: Mode):
    """Returns (free cells, frozen assignment, perimeter face set)."""
    all_cells = frozenset(domain.cells())
    if isinstance(mode, FullSpace):
        return all_cells, {}, domain.full_region().closure_faces()
    if isinstance(mode, Dirichlet):
        _check_same_domain(mode.a0, mode.omega)
        if mode.a0.domain != domain:
            raise ValueError("Dirichlet data bound to a different domain")
        free = frozenset(mode.omega.cells)
        frozen = {c: (c in mode.a0.cells) for c in all_cells - free}
        return free, frozen, mode.omega.closure_faces()
    if isinstance(mode, Relative):
        if mode.omega.domain != domain:
            raise ValueError("Relative region bound to a different domain")
        free = frozenset(mode.omega.cells)
        frozen = {c: False for c in all_cells - free}
        return free, frozen, mode.omega.interior_faces()
    raise TypeError(f"unknown mode {mode!r}")


def assemble(pair: SignedPair, mode: Mode, perimeter_weight=Fraction(1)) -> BinaryEnergy:
    """Build the energy P(A, mode) + mu_plus(A^1) - mu_minus(A+).

    ``perimeter_weight`` scales the cut term (default 1 per face); it exists
    so scaled instances stay representable without touching the grid model.
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

    b = _Builder(domain, free, frozen)

    for face in sorted(perim_faces):
        b.add_face_cost(face, lambda i, j: p if i != j else ZERO, p, kind=2)

    for cell in sorted(pair.plus.cell_weights):
        b.add_cell_cost(cell, pair.plus.cell_weights[cell])
    for face in sorted(pair.plus.face_weights):
        w = pair.plus.face_weights[face]
        if domain.is_boundary_face(face):
            continue  # boundary faces are never in any A^1
        b.add_face_cost(face, lambda i, j, w=w: w if (i and j) else ZERO, w, kind=0)

    for cell in sorted(pair.minus.cell_weights):
        b.add_cell_cost(cell, -pair.minus.cell_weights[cell])
    for face in sorted(pair.minus.face_weights):
        w = pair.minus.face_weights[face]
        b.add_face_cost(face, lambda i, j, w=w: -w if (i or j) else ZERO, w, kind=1)

    return b.build()


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
            constant += term.table[int(s_lo)][int(s_hi)]
        elif s_lo is not None:
            for j in (0, 1):
                unary[term.upper][j] += term.table[int(s_lo)][j]
        else:
            for i in (0, 1):
                unary[term.lower][i] += term.table[i][int(s_hi)]
    for c in fixed:
        constant += energy.unary[c][1 if fixed[c] else 0]
    return BinaryEnergy(
        domain=energy.domain,
        free_cells=tuple(sorted(free)),
        frozen=frozen,
        constant=constant,
        unary={c: (e[0], e[1]) for c, e in unary.items()},
        face_terms=terms,
    )


def add_volume_term(energy: BinaryEnergy, lam: Fraction) -> BinaryEnergy:
    """Add the modular term lam * |A| (counting frozen-1 cells in the constant)."""
    lam = Fraction(lam)
    unary = {c: (e0, e1 + lam) for c, (e0, e1) in energy.unary.items()}
    constant = energy.constant + lam * len(energy.frozen_ones())
    return BinaryEnergy(
        domain=energy.domain,
        free_cells=energy.free_cells,
        frozen=energy.frozen,
        constant=constant,
        unary=unary,
        face_terms=energy.face_terms,
    )


def evaluate(energy: BinaryEnergy, A: CellSet) -> Fraction:
    """Exact functional value of the full set A (frozen part included)."""
    _check_same_domain(energy, A)
    for c, v in energy.frozen.items():
        if (c in A.cells) != v:
            raise FrozenCellConflictError(
                f"cell {c} must be {'in' if v else 'out of'} the set"
            )
    total = energy.constant
    for c, (e0, e1) in energy.unary.items():
        total += e1 if c in A.cells else e0
    for term in energy.face_terms.values():
        i = 1 if term.lower in A.cells else 0
        j = 1 if term.upper in A.cells else 0
        total += term.table[i][j]
    return total


def check_submodular(energy: BinaryEnergy) -> SubmodularityReport:
    """Per-face test e01 + e10 >= e00 + e11 (equivalently w+ + w- <= 2p)."""
    violations = []
    for face in sorted(energy.face_terms):
        term = energy.face_terms[face]
        if term.margin < 0:
            violations.append(
                Violation(
                    face=face,
                    w_plus=term.w_plus,
                    w_minus=term.w_minus,
                    p=term.p,
                    margin=term.margin,
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
        ZERO,
    )
    return perim + mass_on_interior(pair.plus, A) - mass_on_closure(pair.minus, A)
