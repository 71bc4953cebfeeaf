"""Measure data on a grid: exact-rational weights on cells and faces.

Cell weights model the discretely absolutely continuous part (a density
against cell volume); face weights model the codimension-1 singular part.
Nothing of codimension 2 or higher is representable, on purpose: such
measures fail every isoperimetric condition and would only encode
guaranteed failures.

All weights are nonnegative ``Fraction``s; instances are immutable after
construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Optional, Union

from .grid import (
    Cell,
    CellSet,
    Face,
    GridDomain,
    _check_same_domain,
    boundary_faces,
    closure_faces,
    interior_faces,
)


def _as_weight(w) -> Fraction:
    if type(w) is not Fraction:
        if not isinstance(w, Rational):
            raise TypeError(f"weights must be exact rationals, got {type(w).__name__}")
        w = Fraction(w)
    if w < 0:
        raise ValueError(f"weights must be nonnegative, got {w}")
    return w


@dataclass(frozen=True, eq=False)
class MeasureData:
    """Sparse nonnegative rational weights on cells and faces of one domain."""

    domain: GridDomain
    cell_weights: Mapping = field(default_factory=dict)
    face_weights: Mapping = field(default_factory=dict)

    def __post_init__(self):
        cw = {}
        for cell, w in self.cell_weights.items():
            cell = tuple(cell)
            if not self.domain.contains_cell(cell):
                raise ValueError(f"cell {cell} outside domain {self.domain.dims}")
            w = _as_weight(w)
            if w:
                cw[cell] = w
        fw = {}
        for face, w in self.face_weights.items():
            if not self.domain.contains_face(face):
                raise ValueError(f"face {face} outside domain {self.domain.dims}")
            w = _as_weight(w)
            if w:
                fw[face] = w
        object.__setattr__(self, "cell_weights", cw)
        object.__setattr__(self, "face_weights", fw)

    @classmethod
    def _derived(cls, domain: GridDomain, cell_weights: dict, face_weights: dict) -> "MeasureData":
        """A measure from weights that were already checked, on cells and
        faces of ``domain``; zero weights are dropped, nothing else is
        checked again."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "domain", domain)
        object.__setattr__(mu, "cell_weights", {c: w for c, w in cell_weights.items() if w})
        object.__setattr__(mu, "face_weights", {f: w for f, w in face_weights.items() if w})
        return mu

    @staticmethod
    def zero(domain: GridDomain) -> "MeasureData":
        return MeasureData(domain)

    @property
    def is_zero(self) -> bool:
        return not self.cell_weights and not self.face_weights

    def total_mass(self) -> Fraction:
        return sum(self.cell_weights.values(), Fraction(0)) + sum(
            self.face_weights.values(), Fraction(0)
        )

    def cell_weight(self, cell: Cell) -> Fraction:
        return self.cell_weights.get(cell, Fraction(0))

    def face_weight(self, face: Face) -> Fraction:
        return self.face_weights.get(face, Fraction(0))

    def support_cells(self) -> frozenset:
        return frozenset(self.cell_weights)

    def support_faces(self) -> frozenset:
        return frozenset(self.face_weights)


def mass_on_closure(mu: MeasureData, A: CellSet) -> Fraction:
    """mu evaluated on the closure representative A+ of A."""
    _check_same_domain(mu, A)
    total = sum((mu.cell_weights[c] for c in mu.cell_weights if c in A.cells), Fraction(0))
    cf = closure_faces(A)
    total += sum((w for f, w in mu.face_weights.items() if f in cf), Fraction(0))
    return total


def mass_on_interior(mu: MeasureData, A: CellSet) -> Fraction:
    """mu evaluated on the interior representative A^1 of A."""
    _check_same_domain(mu, A)
    total = sum((mu.cell_weights[c] for c in mu.cell_weights if c in A.cells), Fraction(0))
    inf = interior_faces(A)
    total += sum((w for f, w in mu.face_weights.items() if f in inf), Fraction(0))
    return total


def hyperplane_measure(domain: GridDomain, axis: int, slot: int, weight) -> MeasureData:
    """Uniform weight on every face of one axis/slot hyperplane."""
    if not 0 <= axis < domain.d:
        raise ValueError(f"axis {axis} out of range for d={domain.d}")
    if not 0 <= slot <= domain.dims[axis]:
        raise ValueError(f"slot {slot} out of range [0, {domain.dims[axis]}]")
    weight = _as_weight(weight)
    faces = dict.fromkeys(domain._slot_faces(axis, slot), weight)
    return MeasureData._derived(domain, {}, faces)


def boundary_measure(E: CellSet, theta) -> MeasureData:
    """theta per face of the reduced boundary of E (total mass theta*P(E))."""
    theta = _as_weight(theta)
    return MeasureData._derived(E.domain, {}, {f: theta for f in boundary_faces(E)})


def sum_measures(mu1: MeasureData, mu2: MeasureData) -> MeasureData:
    _check_same_domain(mu1, mu2)
    cw = dict(mu1.cell_weights)
    for c, w in mu2.cell_weights.items():
        cw[c] = cw.get(c, Fraction(0)) + w
    fw = dict(mu1.face_weights)
    for f, w in mu2.face_weights.items():
        fw[f] = fw.get(f, Fraction(0)) + w
    return MeasureData._derived(mu1.domain, cw, fw)


def scale(mu: MeasureData, lam) -> MeasureData:
    lam = _as_weight(lam)
    return MeasureData._derived(
        mu.domain,
        {c: w * lam for c, w in mu.cell_weights.items()},
        {f: w * lam for f, w in mu.face_weights.items()},
    )


def restrict(mu: MeasureData, keep: Union[CellSet, Iterable]) -> MeasureData:
    """Restrict mu to a CellSet (cells of the set plus its closure faces)
    or to an explicit collection of faces (face part only)."""
    if isinstance(keep, CellSet):
        _check_same_domain(mu, keep)
        cells, sides = keep.cells, mu.domain.face_cells
        return MeasureData._derived(
            mu.domain,
            {c: w for c, w in mu.cell_weights.items() if c in cells},
            {f: w for f, w in mu.face_weights.items() if not cells.isdisjoint(sides(f))},
        )
    faces = frozenset(keep)
    for f in faces:
        if not isinstance(f, Face):
            raise TypeError(f"expected Face objects, got {type(f).__name__}")
    return MeasureData._derived(
        mu.domain, {}, {f: w for f, w in mu.face_weights.items() if f in faces}
    )


def are_mutually_singular(mu1: MeasureData, mu2: MeasureData) -> bool:
    """True iff the cell and face supports are disjoint."""
    _check_same_domain(mu1, mu2)
    return (
        not (mu1.support_cells() & mu2.support_cells())
        and not (mu1.support_faces() & mu2.support_faces())
    )


@dataclass(frozen=True, eq=False)
class SignedPair:
    """The measure pair (mu_plus, mu_minus) entering the functional."""

    plus: MeasureData
    minus: MeasureData

    def __post_init__(self):
        _check_same_domain(self.plus, self.minus)

    @property
    def domain(self) -> GridDomain:
        return self.plus.domain

    @staticmethod
    def zero(domain: GridDomain) -> "SignedPair":
        return SignedPair(MeasureData.zero(domain), MeasureData.zero(domain))

    @staticmethod
    def of(
        domain: GridDomain,
        plus: Optional[MeasureData] = None,
        minus: Optional[MeasureData] = None,
    ) -> "SignedPair":
        return SignedPair(
            plus if plus is not None else MeasureData.zero(domain),
            minus if minus is not None else MeasureData.zero(domain),
        )
