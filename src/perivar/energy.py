"""Pairwise pseudo-Boolean form of the perimeter-plus-measure functional.

``assemble`` turns a measure pair and an evaluation mode (full space,
Dirichlet with frozen exterior data, or relative-to-a-subdomain) into a
``BinaryEnergy``: a cost ``u`` per free cell in the set, two costs per
face between free cells (``e01`` when the set cuts it, ``e11`` when it
holds both cells), a constant, and a frozen assignment, all integers over
one denominator ``den`` that ``assemble`` fixes up front.  The functional
prices a face only by whether A cuts it or holds it, so this symmetric
form is the whole of it.  ``evaluate`` reproduces the functional exactly;
``check_submodular`` reports the per-face margins ``2*e01 - e11`` that
decide min-cut solvability (V. Kolmogorov, R. Zabih, *IEEE TPAMI* 26, 2004).

The energy is indexed, not keyed by cells and faces.  Cell c is number
``sum(c[a] * stride[a])``, stride[a] the product of the extents after
axis a: the row-major order, which is the lexicographic order of
``GridDomain.cells()``.  A face between cells i and i + stride[a] is the
pair (i, a).  ``assemble`` fills the arrays by this stride arithmetic,
from the mode's cell mask and from each measure face's axis, slot and
transverse coordinates; no ``Face`` is built on the way.

``assemble_excess`` compiles the isoperimetric excess
``mu(rep A) - C P(A) - penalty |A|`` into the same form, negated, so the
min cut, the Gray-code scan and single-cell flip scoring (``flip_links``)
all read one energy.  A test class is a mask of admissible cells, the
rest frozen out, and C is charged on that mask's perimeter exactly as
``assemble`` charges its own, optionally only within a region.  Its only
non-submodular faces are two-sided faces whose closure mass exceeds
twice their charge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add, mul
from typing import Mapping, Optional

from .grid import (
    CellSet,
    Face,
    GridDomain,
    Region,
    _check_same_domain,
)
from .measure import MeasureData, SignedPair

# Representative of a mass face in an excess: CLOSURE counts it when a
# test set holds at least one incident cell, INTERIOR when it holds both.
CLOSURE = 0
INTERIOR = 1

# A cell's state in an energy: 0 and 1 are frozen out and in.
FREE = 2


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


def _strides(dims: tuple) -> tuple:
    """Row-major strides: stride[a] is the product of the extents after axis a."""
    return tuple(math.prod(dims[a + 1:]) for a in range(len(dims)))


@dataclass(frozen=True, eq=False)
class BinaryEnergy:
    """Integer unary + pairwise energy equal to den * the functional, with frozen cells.

    Arrays run over cell numbers (``index``).  ``state[i]`` is 0 or 1 for
    a frozen cell and ``FREE`` for a free one; ``u[i]`` is its cost in the
    set, zero when it is frozen.  Face term k joins the free cells
    ``lo[k]`` and ``hi[k] = lo[k] + strides[axis[k]]``; it costs ``e01[k]``
    when exactly one of them is in and ``e11[k]`` when both are, and
    ``p[k]`` is its perimeter weight.  So den * E(A) = constant + the sum
    of u over A + e01 over the faces A cuts + e11 over those it holds.
    Every entry is an integer over ``den``.

    The arrays are lists that nothing changes once the energy is built,
    so energies share them.  (Tuples grown from iterators would pile up
    in CPython's free lists of small tuples, megabytes over a long run.)
    """

    domain: GridDomain
    den: int
    constant: int
    state: list
    u: list
    lo: list
    axis: list
    e01: list
    e11: list
    p: list

    @functools.cached_property
    def strides(self) -> tuple:
        return _strides(self.domain.dims)

    @functools.cached_property
    def hi(self) -> list:
        """Upper cell of every face term."""
        return list(map(add, self.lo, map(self.strides.__getitem__, self.axis)))

    @functools.cached_property
    def free_index(self) -> list:
        """Numbers of the free cells, ascending."""
        return list(compress(range(len(self.state)), map(FREE.__eq__, self.state)))

    @functools.cached_property
    def free_cells(self) -> tuple:
        cells = self.domain.cells()
        return tuple([cells[i] for i in self.free_index])

    def index(self, cell) -> Optional[int]:
        """The cell's number, None for a cell outside the grid."""
        if not self.domain.contains_cell(cell):
            return None
        return sum(map(mul, cell, self.strides))

    def frozen_ones(self) -> frozenset:
        return frozenset(compress(self.domain.cells(), map((1).__eq__, self.state)))

    def full_set(self, free_members: frozenset) -> CellSet:
        return CellSet._of_grid(self.domain, frozenset(free_members) | self.frozen_ones())


def _scaled(w: Fraction, den: int) -> int:
    """w * den for a den that w's denominator divides."""
    return w.numerator * (den // w.denominator)


def _fold(u: list, i: int, j: int, si: int, sj: int, e01: int, e11: int) -> int:
    """Fold a face term over cells i and j, in states si and sj and not both
    free, into the free one's unary; returns the part that is constant."""
    if FREE not in (si, sj):
        return (0, e01, e11)[si + sj]
    free, other = (i, sj) if si == FREE else (j, si)
    u[free] += e11 - e01 if other else e01
    return e01 if other else 0


def _compile(domain: GridDomain, state: list, den: int, faces, cells,
             perimeter: int = 0, within: Optional[bytearray] = None):
    """(energy over cells in the given states with these costs, strays).

    ``perimeter`` charges every face of the cell mask's perimeter: the
    faces touching a free cell (exterior and frozen sides alike), or with
    a mask ``within`` by cell number only those between two of its cells.
    ``faces`` yields (face, e01, e11): the face's cost with one side in
    and with both in, the exterior being out.  ``cells`` yields (cell,
    cost when in).  The strays are the faces and cells that touch no free
    cell.
    """
    dims = domain.dims
    d = len(dims)
    strides = _strides(dims)
    u = [0] * len(state)
    constant = 0
    lo, ax, stray = [], [], []
    P = perimeter
    if P:
        for a, (st, m) in enumerate(zip(strides, dims)):
            for i, si in enumerate(state):  # the face above cell i on axis a
                c = i // st % m
                if within is None:
                    if c == 0 and si == FREE:
                        u[i] += P  # the face below it, on the grid's boundary
                elif c == m - 1 or not (within[i] and within[i + st]):
                    continue
                sj = state[i + st] if c < m - 1 else 0  # the exterior is out
                if si == FREE == sj:
                    lo.append(i)
                    ax.append(a)
                elif FREE in (si, sj):
                    constant += _fold(u, i, i + st, si, sj, P, 0)
    k = len(lo)
    e01, e11, p = [P] * k, [0] * k, [P] * k
    term_of = {i * d + a: t for t, (i, a) in enumerate(zip(lo, ax))}

    across = [strides[:a] + strides[a + 1:] for a in range(d)]  # number a face's at
    for face, c01, c11 in faces:
        a, s = face.axis, face.slot
        st = strides[a]
        i = sum(map(mul, face.at, across[a])) + (s - 1) * st  # the lower cell when s > 0
        si = state[i] if s else 0
        sj = state[i + st] if s < dims[a] else 0
        if si == FREE == sj:
            t = term_of.setdefault(i * d + a, len(lo))
            if t == len(lo):
                for column, x in zip((lo, ax, e01, e11, p), (i, a, 0, 0, 0)):
                    column.append(x)
            e01[t] += c01
            e11[t] += c11
            continue
        if FREE not in (si, sj):
            stray.append(face)
        constant += _fold(u, i, i + st, si, sj, c01, c11)

    for cell, cost in cells:
        i = sum(map(mul, cell, strides))
        if state[i] == FREE:
            u[i] += cost
        else:
            constant += state[i] * cost
            stray.append(cell)

    return BinaryEnergy(domain, den, constant, state, u, lo, ax, e01, e11, p), stray


def _mode_state(domain: GridDomain, mode: Mode):
    """(per-cell states, the mask charged faces lie within or None)."""
    n = domain.cell_count
    if isinstance(mode, FullSpace):
        return [FREE] * n, None
    if isinstance(mode, Relative):
        if mode.omega.domain != domain:
            raise ValueError("Relative region bound to a different domain")
        within = _mask(domain, mode.omega.cells)
        return [FREE if x else 0 for x in within], within
    if not isinstance(mode, Dirichlet):
        raise TypeError(f"unknown mode {mode!r}")
    _check_same_domain(mode.a0, mode.omega)
    if mode.a0.domain != domain:
        raise ValueError("Dirichlet data bound to a different domain")
    state = list(_mask(domain, mode.a0.cells))
    for i in _numbers(domain, mode.omega.cells):
        state[i] = FREE
    return state, None


def _numbers(domain: GridDomain, cells):
    strides = _strides(domain.dims)
    return [sum(map(mul, c, strides)) for c in cells]


def _mask(domain: GridDomain, cells) -> bytearray:
    """1 at the numbers of the given cells, 0 elsewhere."""
    mask = bytearray(domain.cell_count)
    for i in _numbers(domain, cells):
        mask[i] = 1
    return mask


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
    state, within = _mode_state(domain, mode)

    den = p.denominator
    for mu in (pair.plus, pair.minus):
        for weights in (mu.cell_weights, mu.face_weights):
            den = math.lcm(den, *(w.denominator for w in weights.values()))

    def faces():
        # a boundary face is never in any A^1: its exterior side keeps
        # every plus cost at 0
        for f, w in pair.plus.face_weights.items():
            yield f, 0, _scaled(w, den)
        for f, w in pair.minus.face_weights.items():
            W = _scaled(w, den)
            yield f, -W, -W

    cells = [(c, _scaled(w, den)) for c, w in pair.plus.cell_weights.items()]
    cells += [(c, -_scaled(w, den)) for c, w in pair.minus.cell_weights.items()]
    energy, stray = _compile(domain, state, den, faces(), cells, _scaled(p, den), within)
    if stray and isinstance(mode, Dirichlet):
        bad_faces = sorted(f for f in stray if isinstance(f, Face))
        bad_cells = sorted(c for c in stray if not isinstance(c, Face))
        raise MeasureSupportError(
            "Dirichlet mode requires measure support inside omega's cells and "
            f"closure faces; offending cells={bad_cells} faces={bad_faces}"
        )
    return energy


def assemble_excess(
    mu: MeasureData,
    admissible,
    C,
    *,
    rep: int = CLOSURE,
    within: Optional[Region] = None,
    cell_penalty=0,
) -> BinaryEnergy:
    """The energy -(mu(rep A) - C P(A) - penalty |A|).

    Test sets A range over subsets of ``admissible``; every other cell is
    frozen out, and the exterior counts as out.  C is charged on every
    face touching an admissible cell, or, with a region ``within``, only
    on those between two of its cells.  ``rep`` (CLOSURE or INTERIOR)
    applies to every face of mu.  The energy's ``den`` is the lcm of the
    denominators of C, the penalty and mu's weights.  In the face terms
    ``p`` is the charge, so the margin 2 e01 - e11 is negative exactly on
    a two-sided face whose closure mass exceeds twice its charge.
    """
    domain = mu.domain
    C, cell_penalty = Fraction(C), Fraction(cell_penalty)
    state = [FREE if x else 0 for x in _mask(domain, admissible)]
    weights = (C, cell_penalty, *mu.face_weights.values(), *mu.cell_weights.values())
    den = math.lcm(*(w.denominator for w in weights))

    def faces():
        for f, w in mu.face_weights.items():
            W = _scaled(w, den)
            yield f, -W if rep == CLOSURE else 0, -W

    pen = _scaled(cell_penalty, den)
    cells = [(c, -_scaled(w, den)) for c, w in mu.cell_weights.items()]
    if pen:
        cells += [(c, pen) for c in admissible]
    mask = None if within is None else _mask(domain, within.cells)
    return _compile(domain, state, den, faces(), cells, _scaled(C, den), mask)[0]


def sweep_positions(cells):
    """The tie order of the exact per-volume routes: each cell's rank.

    Ranks the given cells row-major over their bounding box, the longest
    extent outermost (the lowest such axis), the other axes in their
    order.  ``frontier_minimize`` decides the cells in rank order and
    ``oracle._scan`` takes rank i as bit i; among optimal sets both keep
    the least sum of 2**rank.  No other code chooses the order.
    """
    ext = [max(c[a] for c in cells) - min(c[a] for c in cells) for a in range(len(cells[0]))]
    outer = max(range(len(ext)), key=lambda a: (ext[a], -a))
    order = sorted(range(len(cells)), key=cells.__getitem__)
    order.sort(key=lambda k: cells[k][outer])  # stable: row-major below
    return sorted(range(len(cells)), key=order.__getitem__)  # k's place in order


def flip_links(energy: BinaryEnergy):
    """Per free cell, the integer change of den * E when it enters a set.

    Cells are counted by their position k in ``free_cells``.  Returns
    (gain, links): entering cell k with no neighbour in the set changes the
    energy by gain[k], and each (neighbour, coupling) in links[k] adds the
    coupling when that neighbour is in.  Leaving negates the same sum.
    """
    free = energy.free_index
    position = dict(zip(free, range(len(free))))
    gain = [energy.u[i] for i in free]
    links = [[] for _ in free]
    for i, j, e01, e11 in zip(energy.lo, energy.hi, energy.e01, energy.e11):
        k, m = position[i], position[j]
        gain[k] += e01
        gain[m] += e01
        coupling = e11 - 2 * e01
        if coupling:
            links[k].append((m, coupling))
            links[m].append((k, coupling))
    return gain, links


def freeze(energy: BinaryEnergy, assignment: Mapping) -> BinaryEnergy:
    """Fold additional cells to fixed states (hard constraints, no big-M)."""
    state = list(energy.state)
    u = list(energy.u)
    constant = energy.constant
    for c, v in assignment.items():
        i = energy.index(c)
        if i is None:
            raise ValueError(f"cell {c} outside grid {energy.domain.dims}")
        if state[i] != FREE:
            raise ValueError(f"cell {c} is not free in this energy")
        if v:
            constant += u[i]
        state[i] = 1 if v else 0
        u[i] = 0
    keep = []
    for t, i, j, e01, e11 in zip(
        range(len(energy.lo)), energy.lo, energy.hi, energy.e01, energy.e11
    ):
        si, sj = state[i], state[j]
        if si == FREE == sj:
            keep.append(t)
        else:
            constant += _fold(u, i, j, si, sj, e01, e11)
    columns = (energy.lo, energy.axis, energy.e01, energy.e11, energy.p)
    if len(keep) < len(energy.lo):
        columns = [list(map(column.__getitem__, keep)) for column in columns]
    return BinaryEnergy(energy.domain, energy.den, constant, state, u, *columns)


def add_volume_term(energy: BinaryEnergy, lam: Fraction) -> BinaryEnergy:
    """Add the modular term lam * |A| (counting frozen-1 cells in the constant).

    The result is over lcm(den, lam's denominator), rescaled if that is new.
    """
    lam = Fraction(lam)
    den = math.lcm(energy.den, lam.denominator)
    k = den // energy.den
    step = _scaled(lam, den)
    state = energy.state

    def scale(column: list) -> list:
        return [k * x for x in column] if k > 1 else column

    return BinaryEnergy(
        energy.domain,
        den,
        k * energy.constant + step * state.count(1),
        state,
        [k * x + step if s == FREE else 0 for x, s in zip(energy.u, state)],
        energy.lo,
        energy.axis,
        *map(scale, (energy.e01, energy.e11, energy.p)),
    )


def _total(energy: BinaryEnergy, cells) -> int:
    """den * the energy of the set with these cells, frozen cells unchecked."""
    inside = bytearray(len(energy.state))
    for i in _numbers(energy.domain, cells):
        inside[i] = 1
    value = energy.constant + sum(compress(energy.u, inside))
    for i, j, e01, e11 in zip(energy.lo, energy.hi, energy.e01, energy.e11):
        if inside[i]:
            value += e11 if inside[j] else e01
        elif inside[j]:
            value += e01
    return value


def evaluate(energy: BinaryEnergy, A: CellSet) -> Fraction:
    """Exact functional value of the full set A (frozen part included)."""
    _check_same_domain(energy, A)
    for c, s in zip(energy.domain.cells(), energy.state):
        if s != FREE and (c in A.cells) != s:
            raise FrozenCellConflictError(
                f"cell {c} must be {'in' if s else 'out of'} the set"
            )
    return Fraction(_total(energy, A.cells), energy.den)


def check_submodular(energy: BinaryEnergy) -> SubmodularityReport:
    """Per-face test 2 e01 >= e11 (equivalently w+ + w- <= 2p).

    A face's weights follow from its costs: its closure mass is p - e01 and
    its interior mass e11 - e01 + p (minus the interior mass on an
    ``assemble_excess`` energy), reported as ``w_minus`` and ``w_plus``.
    """
    den = energy.den
    violations = []
    for t, e01, e11, p in zip(range(len(energy.lo)), energy.e01, energy.e11, energy.p):
        margin = 2 * e01 - e11
        if margin < 0:
            a = energy.axis[t]
            c = energy.domain.cells()[energy.lo[t]]
            violations.append(
                Violation(
                    face=Face(a, c[a] + 1, c[:a] + c[a + 1:]),
                    w_plus=Fraction(e11 - e01 + p, den),
                    w_minus=Fraction(p - e01, den),
                    p=Fraction(p, den),
                    margin=Fraction(margin, den),
                )
            )
    violations.sort(key=lambda v: v.face)
    return SubmodularityReport(ok=not violations, violations=tuple(violations))


def direct_value(pair: SignedPair, mode: Mode, A: CellSet,
                 perimeter_weight=Fraction(1)) -> Fraction:
    """The functional computed straight from grid and measure primitives.

    Independent of the assembled costs; used to cross-check ``evaluate``.
    """
    from .grid import face_crosses
    from .measure import mass_on_closure, mass_on_interior

    domain = pair.domain
    _mode_state(domain, mode)  # validates the mode
    if isinstance(mode, FullSpace):
        perim_faces = domain.faces()
    elif isinstance(mode, Relative):
        perim_faces = mode.omega.interior_faces()
    else:
        perim_faces = mode.omega.closure_faces()
    perim = sum(
        (Fraction(perimeter_weight) for f in perim_faces if face_crosses(domain, f, A)),
        Fraction(0),
    )
    return perim + mass_on_interior(pair.plus, A) - mass_on_closure(pair.minus, A)
