import copy
import gc
import math
import pickle
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from conftest import rand_cellset, rand_domain
from perivar import (
    CellSet,
    DomainMismatchError,
    Face,
    GridDomain,
    OutOfBoundsError,
    PerimeterMode,
    Region,
    boundary_faces,
    closure_faces,
    face_crosses,
    interior_faces,
    perimeter,
    translate,
    volume,
)


def test_cell_and_face_counts():
    for dims in [(1,), (5,), (3, 4), (2, 2, 2), (3, 2, 4)]:
        d = GridDomain(dims)
        assert d.cell_count == math.prod(dims)
        expected_faces = sum(
            (n + 1) * math.prod(dims) // n for n in dims
        )
        assert d.face_count == expected_faces
        assert len(d.cells()) == d.cell_count
        assert len(d.faces()) == d.face_count
        assert set(d.faces()) == {
            Face(*f[:2], at=f[2]) for f in naive.all_faces(dims)
        }


def test_dimension_validation():
    with pytest.raises(ValueError):
        GridDomain(())
    with pytest.raises(ValueError):
        GridDomain((2, 2, 2, 2))
    with pytest.raises(ValueError):
        GridDomain((0, 3))


def test_face_sides_match_naive():
    d = GridDomain((3, 2))
    for f in d.faces():
        lo, hi = naive.face_sides(d.dims, (f.axis, f.slot, f.at))
        assert d.lower_cell(f) == lo
        assert d.upper_cell(f) == hi
        assert d.face_cells(f) == tuple(c for c in (lo, hi) if c is not None)
        assert d.is_boundary_face(f) == (lo is None or hi is None)


def test_cell_faces_are_incident():
    d = GridDomain((2, 3, 2))
    for c in d.cells():
        fs = d.cell_faces(c)
        assert len(fs) == 2 * d.d
        for f in fs:
            assert c in d.face_cells(f)


def test_perimeter_of_box():
    d = GridDomain((6, 5))
    A = CellSet.box(d, (1, 1), (3, 2))
    assert perimeter(A) == 2 * 3 + 2 * 2
    assert volume(A) == 6
    full = CellSet.full(d)
    assert perimeter(full) == 2 * 6 + 2 * 5
    assert perimeter(CellSet.empty(d)) == 0


def test_relative_perimeter_drops_outside_faces():
    d = GridDomain((4, 4))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 3)).cells)
    A = CellSet.box(d, (0, 0), (1, 3))
    # relative to omega, only strictly interior faces count: A fills omega
    assert perimeter(A, omega, PerimeterMode.INTERIOR) == 0
    assert perimeter(A, omega, PerimeterMode.CLOSURE) == perimeter(A)


def test_closure_is_interior_plus_boundary(rng):
    for _ in range(50):
        d = rand_domain(rng)
        A = rand_cellset(rng, d)
        cf, intf, bf = closure_faces(A), interior_faces(A), boundary_faces(A)
        assert cf == intf | bf
        assert not (intf & bf)
        assert len(bf) == perimeter(A)


def test_two_sided_face_duality(rng):
    # a two-sided face is interior to A exactly when it misses closure(A^c)
    for _ in range(50):
        d = rand_domain(rng)
        A = rand_cellset(rng, d)
        comp = A.complement()
        for f in d.faces():
            if d.is_boundary_face(f):
                assert f not in interior_faces(A)
            else:
                assert (f in interior_faces(A)) != (f in closure_faces(comp))


def test_face_crosses_matches_naive(rng):
    for _ in range(30):
        d = rand_domain(rng)
        A = rand_cellset(rng, d)
        for f in d.faces():
            assert face_crosses(d, f, A) == naive.crosses(
                d.dims, (f.axis, f.slot, f.at), A.cells
            )


def test_translate():
    d = GridDomain((5, 5))
    A = CellSet.box(d, (0, 0), (1, 1))
    B = translate(A, (2, 3))
    assert B.cells == frozenset({(2, 3), (3, 3), (2, 4), (3, 4)})
    assert perimeter(B) == perimeter(A)
    with pytest.raises(OutOfBoundsError):
        translate(A, (4, 0))


def test_cellset_algebra():
    d = GridDomain((3, 3))
    A = CellSet.box(d, (0, 0), (1, 1))
    B = CellSet.box(d, (1, 1), (2, 2))
    assert (A | B).volume == 7
    assert (A & B).cells == frozenset({(1, 1)})
    assert (A - B).volume == 3
    assert A.complement().volume == 5
    assert (A & B).issubset(A)
    assert (1, 1) in A and (2, 2) not in A


def test_domain_mismatch_rejected():
    A = CellSet.full(GridDomain((2, 2)))
    B = CellSet.full(GridDomain((3, 2)))
    with pytest.raises(DomainMismatchError):
        A | B


def test_out_of_bounds_cells_rejected():
    d = GridDomain((2, 2))
    with pytest.raises(OutOfBoundsError):
        CellSet.of(d, [(2, 0)])
    assert not d.contains_face(Face(0, 5, (0,)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_perimeter_submodular_property(data):
    dims = data.draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2), (6,)]))
    d = GridDomain(dims)
    cells = list(d.cells())
    A = CellSet.of(d, data.draw(st.sets(st.sampled_from(cells))))
    B = CellSet.of(d, data.draw(st.sets(st.sampled_from(cells))))
    assert perimeter(A | B) + perimeter(A & B) <= perimeter(A) + perimeter(B)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_perimeter_matches_naive_property(data):
    dims = data.draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2), (6,)]))
    d = GridDomain(dims)
    A = CellSet.of(d, data.draw(st.sets(st.sampled_from(list(d.cells())))))
    assert perimeter(A) == naive.perimeter(dims, A.cells)


def test_region_face_sets_are_freed_with_the_region():
    d = GridDomain((4, 4))
    region = Region.of(d, CellSet.box(d, (0, 0), (2, 1)).cells)
    assert region.closure_faces() == closure_faces(region.cell_set())
    assert region.interior_faces() == interior_faces(region.cell_set())
    ref = weakref.ref(region)
    del region
    gc.collect()
    assert ref() is None


def test_cellset_checks_each_given_cell_and_the_grids_own_none(monkeypatch):
    # the error names the least stray cell, wrong lengths included; a valid
    # set given by the caller is checked cell by cell, while a set built
    # from the grid's own cells, such as the full set, is not checked again
    d = GridDomain((2, 2))
    with pytest.raises(OutOfBoundsError, match=r"cell \(2, 0\) outside domain \(2, 2\)"):
        CellSet.of(d, [(3, 1), (0, 0), (2, 0), (2, 5)])
    with pytest.raises(OutOfBoundsError, match=r"cell \(0, 0, 0\) outside"):
        CellSet.of(d, [(0, 0), (0, 0, 0), (2, 0)])
    with pytest.raises(OutOfBoundsError):
        Region.of(d, [(2, 0)])

    checked = []
    contains_cell = GridDomain.contains_cell

    def count(self, cell):
        checked.append(cell)
        return contains_cell(self, cell)

    monkeypatch.setattr(GridDomain, "contains_cell", count)
    assert CellSet.of(d, [(1, 0), (0, 1), (1, 0)]).volume == 2
    assert sorted(checked) == [(0, 1), (1, 0)]

    def refuse(self, cell):
        raise AssertionError("per-cell check")

    monkeypatch.setattr(GridDomain, "contains_cell", refuse)
    assert CellSet.full(d).volume == 4


def test_a_small_cell_set_on_a_fresh_grid_builds_no_grid():
    # a set checks only its own cells: three cells on a 64^3 grid whose
    # cell list was never built keep well under a megabyte
    d = GridDomain((64, 64, 64))
    tracemalloc.start()
    try:
        A = CellSet.of(d, [(0, 0, 0), (63, 63, 63), (5, 9, 17)])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.volume == 3 and (5, 9, 17) in A
    assert kept < 1 << 20, kept
    with pytest.raises(OutOfBoundsError, match=r"cell \(0, 64, 0\) outside"):
        CellSet.of(d, [(64, 0, 0), (0, 0, 0), (0, 64, 0)])


def test_box_matches_its_definition(rng):
    # the block, clipped to the grid, of cells between the corners; corners
    # may lie off the grid or cross (an empty block)
    for _ in range(200):
        d = rand_domain(rng, ((3, 3), (4, 2), (2, 2, 2), (4,), (6,), (5, 1, 3)))
        lo = tuple(rng.randint(-2, m + 1) for m in d.dims)
        hi = tuple(rng.randint(-2, m + 1) for m in d.dims)
        box = CellSet.box(d, lo, hi)
        expected = {
            c for c in d.cells() if all(lo[a] <= c[a] <= hi[a] for a in range(d.d))
        }
        assert box.cells == expected
        # the grid's own tuples, not new ones
        assert {id(c) for c in box.cells} <= {id(c) for c in d.cells()}
    d = GridDomain((4, 4))
    assert CellSet.box(d, (2, 0), (1, 3)).volume == 0
    assert CellSet.box(d, (-5, -5), (9, 9)) == CellSet.full(d)
    assert CellSet.box(d, (5, 0), (7, 3)).volume == 0


SHARED_FACE_DIMS = [(7,), (1, 5), (5, 1), (3, 4), (2, 3, 4), (1, 1, 3)]


def test_cell_faces_match_naive_order():
    for dims in SHARED_FACE_DIMS:
        d = GridDomain(dims)
        for c in d.cells():
            want = tuple(
                Face(*f) for f in naive.all_faces(dims) if c in naive.face_sides(dims, f)
            )
            assert d.cell_faces(c) == want


def test_a_stray_cell_leaves_the_face_table_true():
    d = GridDomain((3, 7))
    for cell in [(3, 0), (0, 7), (-1, 2), (2, -1)]:
        with pytest.raises(OutOfBoundsError):
            d.cell_faces(cell)
    assert d.faces() == tuple(Face(*f) for f in naive.all_faces(d.dims))


def test_face_sets_hold_the_grids_own_faces(rng):
    # face sets built before and after faces() share its objects
    for dims in SHARED_FACE_DIMS:
        d = GridDomain(dims)
        A = rand_cellset(rng, d)
        region = Region(d, rand_cellset(rng, d).cells)
        made = [closure_faces(A), interior_faces(A), boundary_faces(A),
                region.closure_faces(), region.interior_faces()]
        made += [d.cell_faces(c) for c in d.cells()]
        own = {f: f for f in d.faces()}
        assert len(own) == d.face_count
        for faces in made:
            assert all(own[f] is f for f in faces)


def test_faces_are_slotted_values(rng):
    d = GridDomain((2, 3, 4))
    faces = list(d.faces())
    assert not hasattr(faces[0], "__dict__")
    for f in faces:
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g == f and hash(g) == hash(f)
    rng.shuffle(faces)
    assert sorted(faces) == sorted(faces, key=lambda f: (f.axis, f.slot, f.at))


def test_closure_of_a_full_grid_keeps_no_new_faces():
    d = GridDomain((64, 64))
    d.faces()
    full = CellSet.full(d)
    tracemalloc.start()
    try:
        result = closure_faces(full)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result) == d.face_count
    assert kept <= sys.getsizeof(result) + 16 * 1024


def test_first_closure_on_a_big_grid_fills_only_its_faces():
    d = GridDomain((64, 64, 64))
    A = CellSet.of(d, [(0, 0, 0), (5, 40, 7), (63, 63, 63)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = closure_faces(A)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 18
    assert elapsed < 0.1
    assert peak < 8 * 2**20


def test_cell_coordinates_must_be_integers():
    # a float or bool coordinate is refused by name, not read as a cell
    # that lies nowhere (a nonempty set of perimeter 0)
    d = GridDomain((4, 4))
    for cell in ((1.5, 1), (1, 2.0), (True, 1), (7, 0.5)):
        with pytest.raises(ValueError, match=r"coordinate of cell .* must be an integer"):
            d.contains_cell(cell)
        with pytest.raises(ValueError, match="must be an integer"):
            perimeter(CellSet.of(d, [cell]))
        with pytest.raises(ValueError, match="must be an integer"):
            Region.of(d, [cell])
    assert d.contains_cell((3, 0)) and not d.contains_cell((4, 0))


def test_face_indices_must_be_integers():
    d = GridDomain((4, 4))
    for face in (Face(0, 1.5, (1,)), Face(0.0, 1, (1,)), Face(1, 2, (True,))):
        with pytest.raises(ValueError, match=r"of face .* must be an integer"):
            d.contains_face(face)
    assert d.contains_face(Face(0, 4, (3,))) and not d.contains_face(Face(0, 5, (3,)))


def test_cell_extents_must_be_integers():
    for dims in ((2.5, 3), (True, 3), (3, "4")):
        with pytest.raises(ValueError, match="a cell extent must be an integer"):
            GridDomain(dims)
    assert GridDomain((2, 3)).dims == (2, 3)
