"""Lattice domain model: cells, faces, regions, set representatives, perimeter.

A ``GridDomain`` is a d-dimensional box of unit cells (d in {1, 2, 3}).
Faces are the codimension-1 interfaces between cells, addressed as
``(axis, slot, transverse coords)``; slot 0 and slot ``dims[axis]`` are
grid-boundary faces with a single incident cell.  Each grid shape has one
``Face`` object per face, made on first use and shared by ``faces()``,
``cell_faces`` and every face set built from them.  Everything outside the
grid is permanently empty ("exterior-empty" convention), so grid-boundary
faces contribute to the perimeter of any set touching them.

The perimeter here is the crystalline cut perimeter (one unit per
mismatched face), not a Euclidean approximation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

Cell = tuple  # tuple[int, ...] of length d


@dataclass(frozen=True, order=True, slots=True)
class Face:
    """Face address: normal axis, slot along it, transverse cell coords."""

    axis: int
    slot: int
    at: tuple


class PerimeterMode(enum.Enum):
    CLOSURE = "closure"
    INTERIOR = "interior"


class DomainMismatchError(ValueError):
    pass


class OutOfBoundsError(ValueError):
    pass


class NumberTypeError(TypeError, ValueError):
    """A float, a bool or a string where an exact number belongs: an input error."""


def _integer(value, name: str) -> int:
    """``value`` as an int: what ``operator.index`` accepts, never a bool
    (so never a float, a ``Fraction`` or a string).  Every integer that
    comes from outside the package passes here; anything else raises
    ``NumberTypeError`` naming ``name`` and the value."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise NumberTypeError(f"{name} must be an integer, got {value!r}")


def _check_same_domain(*objs) -> None:
    domains = {o.domain for o in objs}
    if len(domains) > 1:
        raise DomainMismatchError(f"objects bound to different domains: {domains}")


@dataclass(frozen=True)
class GridDomain:
    """A box of unit cells with extents ``dims``.

    Equal shapes share their caches, which each distinct ``dims`` keeps for
    the life of the process: the ``cells()`` tuple, the face table (one
    entry per face, filled on first use), the ``faces()`` tuple and the
    ``full_region()`` with the face sets it computes.
    """

    dims: tuple

    def __post_init__(self):
        dims = tuple(_integer(n, "a cell extent") for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(dims)}")
        if any(n < 1 for n in dims):
            raise ValueError(f"cell extents must be positive, got {dims}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def cell_count(self) -> int:
        n = 1
        for m in self.dims:
            n *= m
        return n

    @property
    def face_count(self) -> int:
        total = 0
        for a, m in enumerate(self.dims):
            block = m + 1
            for b, k in enumerate(self.dims):
                if b != a:
                    block *= k
            total += block
        return total

    @functools.cache
    def cells(self) -> tuple:
        """All cells in lexicographic order."""
        return tuple(itertools.product(*map(range, self.dims)))

    @functools.cache
    def faces(self) -> tuple:
        """All faces, ordered by (axis, slot, transverse coords)."""
        for a in range(self.d):
            for s in range(self.dims[a] + 1):
                self._slot_faces(a, s)
        return tuple(self._face_table()[1])

    @functools.cache
    def _face_table(self) -> tuple:
        """Per axis, the offset of its faces in ``faces()`` order, the faces
        per slot and the transverse coords' strides (0 at the axis itself);
        then one entry per face in that order, None until first used."""
        axes, offset = [], 0
        for a in range(self.d):
            strides, per_slot = [0] * self.d, 1
            for b in reversed(range(self.d)):
                if b != a:
                    strides[b] = per_slot
                    per_slot *= self.dims[b]
            axes.append((offset, per_slot, strides))
            offset += per_slot * (self.dims[a] + 1)
        return axes, [None] * offset

    def _slot_faces(self, axis: int, slot: int) -> list:
        """The faces of one axis/slot hyperplane, by transverse coords; the
        caller checks that the grid has that hyperplane."""
        axes, table = self._face_table()
        offset, per_slot, _ = axes[axis]
        lo = offset + slot * per_slot
        if None in table[lo:lo + per_slot]:
            trans_dims = self.dims[:axis] + self.dims[axis + 1:]
            trans = GridDomain(trans_dims).cells() if trans_dims else ((),)
            for k, at in enumerate(trans, lo):
                if table[k] is None:
                    table[k] = Face(axis, slot, at)
        return table[lo:lo + per_slot]

    def contains_cell(self, cell: Cell) -> bool:
        """Whether the cell lies on the grid; a coordinate that is not an
        integer raises ``ValueError``."""
        inside = len(cell) == self.d
        for c, m in zip(cell, self.dims):
            if type(c) is not int:
                _integer(c, f"each coordinate of cell {cell}")
            if not 0 <= c < m:
                inside = False
        return inside

    def contains_face(self, face: Face) -> bool:
        """Whether the face lies on the grid; an axis, slot or coordinate
        that is not an integer raises ``ValueError``."""
        axis, slot = face.axis, face.slot
        if type(axis) is not int or type(slot) is not int:
            _integer(axis, f"the axis of face {face}")
            _integer(slot, f"the slot of face {face}")
        if not (0 <= axis < self.d and 0 <= slot <= self.dims[axis]):
            return False
        inside = len(face.at) == self.d - 1
        for c, m in zip(face.at, self.dims[:axis] + self.dims[axis + 1:]):
            if type(c) is not int:
                _integer(c, f"each coordinate of face {face}")
            if not 0 <= c < m:
                inside = False
        return inside

    def face_cells(self, face: Face) -> tuple:
        """Incident cells (1 for grid-boundary faces, else 2), lower first."""
        cells = []
        for cell in (self.lower_cell(face), self.upper_cell(face)):
            if cell is not None:
                cells.append(cell)
        return tuple(cells)

    def lower_cell(self, face: Face) -> Optional[Cell]:
        """Incident cell on the negative side of the face, if any."""
        if face.slot == 0:
            return None
        return self._face_side(face, face.slot - 1)

    def upper_cell(self, face: Face) -> Optional[Cell]:
        """Incident cell on the positive side of the face, if any."""
        if face.slot == self.dims[face.axis]:
            return None
        return self._face_side(face, face.slot)

    def _face_side(self, face: Face, coord: int) -> Cell:
        at = face.at
        return at[:face.axis] + (coord,) + at[face.axis:]

    def cell_faces(self, cell: Cell) -> tuple:
        """The 2d faces bounding one cell, lower then upper along each axis.

        The faces are the grid's shared objects: each face's entry in the
        face table comes from stride arithmetic, and a ``Face`` is made only
        for an entry not yet filled.  A cell off the grid raises rather than
        fill an entry.
        """
        axes, table = self._face_table()
        out = []
        for a, (offset, per_slot, strides) in enumerate(axes):
            lower = offset + cell[a] * per_slot + sum(map(operator.mul, cell, strides))
            for slot, k in ((cell[a], lower), (cell[a] + 1, lower + per_slot)):
                face = table[k]
                if face is None:
                    if not self.contains_cell(cell):
                        raise OutOfBoundsError(f"cell {cell} outside domain {self.dims}")
                    face = table[k] = Face(a, slot, cell[:a] + cell[a + 1:])
                out.append(face)
        return tuple(out)

    def is_boundary_face(self, face: Face) -> bool:
        return face.slot == 0 or face.slot == self.dims[face.axis]

    @functools.cache
    def full_region(self) -> "Region":
        return Region(self, frozenset(self.cells()))


@dataclass(frozen=True)
class CellSet:
    """Immutable set of cells of one domain; the discrete set A."""

    domain: GridDomain
    cells: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        bad = [c for c in self.cells if not self.domain.contains_cell(c)]
        if bad:
            raise OutOfBoundsError(f"cell {min(bad)} outside domain {self.domain.dims}")

    @classmethod
    def _of_grid(cls, domain: GridDomain, cells: Iterable) -> "CellSet":
        """A set of cells already known to lie on ``domain``, the grid's own
        tuples; nothing is checked again."""
        A = object.__new__(cls)
        object.__setattr__(A, "domain", domain)
        object.__setattr__(A, "cells", frozenset(cells))
        return A

    @staticmethod
    def empty(domain: GridDomain) -> "CellSet":
        return CellSet._of_grid(domain, ())

    @staticmethod
    def full(domain: GridDomain) -> "CellSet":
        return CellSet._of_grid(domain, domain.cells())

    @staticmethod
    def of(domain: GridDomain, cells: Iterable) -> "CellSet":
        return CellSet(domain, frozenset(tuple(c) for c in cells))

    @staticmethod
    def box(domain: GridDomain, lo: Cell, hi: Cell) -> "CellSet":
        """Axis-aligned block with corner cells lo and hi (inclusive, integer
        coordinates), clipped to the grid; the cells are the grid's own tuples."""
        numbers = [0]  # row-major cell numbers of the block, axis by axis
        for a, m in enumerate(domain.dims):
            first = _integer(lo[a], "each coordinate of lo")
            last = _integer(hi[a], "each coordinate of hi")
            span = range(max(first, 0), min(last, m - 1) + 1)
            numbers = [n * m + x for n in numbers for x in span]
        cells = domain.cells()
        return CellSet._of_grid(domain, map(cells.__getitem__, numbers))

    @property
    def volume(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __or__(self, other: "CellSet") -> "CellSet":
        _check_same_domain(self, other)
        return CellSet._of_grid(self.domain, self.cells | other.cells)

    def __and__(self, other: "CellSet") -> "CellSet":
        _check_same_domain(self, other)
        return CellSet._of_grid(self.domain, self.cells & other.cells)

    def __sub__(self, other: "CellSet") -> "CellSet":
        _check_same_domain(self, other)
        return CellSet._of_grid(self.domain, self.cells - other.cells)

    def complement(self) -> "CellSet":
        """Within-grid complement (the exterior stays empty either way)."""
        return CellSet._of_grid(self.domain, frozenset(self.domain.cells()) - self.cells)

    def issubset(self, other: "CellSet") -> bool:
        _check_same_domain(self, other)
        return self.cells <= other.cells


def translate(A: CellSet, offset: Cell) -> CellSet:
    """Shift A by offset; raises if the image leaves the grid."""
    if len(offset) != A.domain.d:
        raise OutOfBoundsError(f"offset {offset} has wrong dimension")
    moved = []
    for c in A.cells:
        nc = tuple(x + o for x, o in zip(c, offset))
        if not A.domain.contains_cell(nc):
            raise OutOfBoundsError(f"translate moves {c} to {nc}, outside the grid")
        moved.append(nc)
    return CellSet.of(A.domain, moved)


def closure_faces(A: CellSet) -> frozenset:
    """Faces with at least one incident cell in A (the discrete A+)."""
    out = set()
    for c in A.cells:
        out.update(A.domain.cell_faces(c))
    return frozenset(out)


def interior_faces(A: CellSet) -> frozenset:
    """Faces with two incident cells, both in A (the discrete A^1).

    Grid-boundary faces never qualify: the exterior counts as absent.
    """
    dom = A.domain
    out = set()
    for c in A.cells:
        for f in dom.cell_faces(c):
            if dom.is_boundary_face(f):
                continue
            u, v = dom.face_cells(f)
            if u in A.cells and v in A.cells:
                out.add(f)
    return frozenset(out)


def boundary_faces(A: CellSet) -> frozenset:
    """The discrete reduced boundary: closure faces minus interior faces."""
    return closure_faces(A) - interior_faces(A)


@dataclass(frozen=True)
class Region:
    """Cell mask Omega with its derived closure/interior face sets."""

    domain: GridDomain
    cells: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        for c in self.cells:
            if not self.domain.contains_cell(c):
                raise OutOfBoundsError(f"cell {c} outside domain {self.domain.dims}")

    @staticmethod
    def of(domain: GridDomain, cells: Iterable) -> "Region":
        return Region(domain, frozenset(tuple(c) for c in cells))

    def cell_set(self) -> CellSet:
        return CellSet._of_grid(self.domain, self.cells)

    # cached on the instance, so a dropped region takes its face sets along
    @functools.cached_property
    def _closure_faces(self) -> frozenset:
        return closure_faces(self.cell_set())

    @functools.cached_property
    def _interior_faces(self) -> frozenset:
        return interior_faces(self.cell_set())

    def closure_faces(self) -> frozenset:
        return self._closure_faces

    def interior_faces(self) -> frozenset:
        return self._interior_faces

    def face_set(self, mode: PerimeterMode) -> frozenset:
        if mode is PerimeterMode.CLOSURE:
            return self.closure_faces()
        return self.interior_faces()


def face_crosses(domain: GridDomain, face: Face, A: CellSet) -> bool:
    """True when the two sides of the face disagree; exterior counts as empty."""
    lo = domain.lower_cell(face)
    hi = domain.upper_cell(face)
    in_lo = lo is not None and lo in A.cells
    in_hi = hi is not None and hi in A.cells
    return in_lo != in_hi


def perimeter(
    A: CellSet,
    region: Optional[Region] = None,
    mode: PerimeterMode = PerimeterMode.CLOSURE,
) -> Fraction:
    """Discrete perimeter of A over the region's face set (unit face weights).

    ``CLOSURE`` mode counts every face touching the region (P(A, closure of
    Omega)); ``INTERIOR`` mode counts only faces strictly between two region
    cells (the relative P(A, Omega)).
    """
    if region is None:
        region = A.domain.full_region()
    _check_same_domain(A, region)
    dom = A.domain
    count = 0
    for f in region.face_set(mode):
        if face_crosses(dom, f, A):
            count += 1
    return Fraction(count)


def volume(A: CellSet, region: Optional[Region] = None) -> int:
    """Number of cells of A inside the region."""
    if region is None:
        return A.volume
    _check_same_domain(A, region)
    return len(A.cells & region.cells)
