"""Exhaustive enumeration oracles for desk-scale instances.

These scans walk all subsets of an admissible cell pool in Gray-code
order, in cleared integer arithmetic.  Each step flips one cell, and
since every face has at most two incident cells, the value changes by an
amount fixed by that cell and the states of its admissible neighbours:
one lookup in a per-cell table keyed by the neighbour bits.  They are
the brute-force side of every dual-route check in the package:
independent of the min-cut reduction, and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .grid import CellSet, Face, GridDomain
from .measure import MeasureData

CLOSURE = 0
INTERIOR = 1


class ExhaustiveCapacityExceeded(RuntimeError):
    """The instance is too large for subset enumeration and not reducible."""

    def __init__(self, n_cells: int, cap: int):
        self.n_cells = n_cells
        self.cap = cap
        super().__init__(
            f"exhaustive search over {n_cells} cells exceeds the cap of {cap}"
        )


DEFAULT_EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class ScanResult:
    """Best excess over nonempty subsets, overall and per exact volume."""

    best_value: Fraction
    best_set: CellSet
    best_at_volume: Tuple  # (value, frozenset) or None, indexed by |A|


def scan_excess(
    domain: GridDomain,
    admissible: Sequence,
    charged_faces: Dict[Face, Fraction],
    mass_faces: Dict[Face, Tuple[Fraction, int]],
    cell_masses: Dict[tuple, Fraction],
    cell_penalty: Fraction = Fraction(0),
) -> ScanResult:
    """Maximize mass(rep(A)) - sum of charges on crossed faces - penalty*|A|.

    ``charged_faces`` maps a face to its (already C-scaled) perimeter
    charge; ``mass_faces`` maps a face to (weight, representative), where
    the representative is CLOSURE (counts when >= 1 admissible incident
    cell is selected) or INTERIOR (counts when both incident cells are
    selected; faces with an inadmissible or exterior side never count).
    Only nonempty subsets of ``admissible`` compete.

    Cell i of the sorted pool is bit i.  Per cell, a table keyed by the
    bits of the cell and its admissible neighbours holds the flip delta,
    folding in the cell's mass and penalty, each crossed face's charge and
    the CLOSURE/INTERIOR mass rule; a Gray step is one lookup.  Ties go to
    the set reached first in Gray order (step g visits the bits of
    g ^ (g >> 1)), both overall and at each volume.
    """
    cells = sorted(admissible)
    n = len(cells)
    if n == 0:
        raise ValueError("no admissible cells to scan")
    idx = {c: i for i, c in enumerate(cells)}
    adm = frozenset(cells)

    den = cell_penalty.denominator
    for w in charged_faces.values():
        den = math.lcm(den, w.denominator)
    for w, _rep in mass_faces.values():
        den = math.lcm(den, w.denominator)
    for w in cell_masses.values():
        den = math.lcm(den, w.denominator)

    # links[i][j] = [d0, d1]: the change from cell i entering while its
    # neighbour j is out / in.  A face with one admissible side folds into
    # the cell's gain.
    cell_gain = [-int(cell_penalty * den)] * n  # cell mass minus penalty, scaled
    for c, w in cell_masses.items():
        if c in adm:
            cell_gain[idx[c]] += int(w * den)
    links: List[Dict[int, List[int]]] = [{} for _ in range(n)]
    for face in set(charged_faces) | set(mass_faces):
        inc_adm = [idx[c] for c in domain.face_cells(face) if c in adm]
        if not inc_adm:
            continue
        charge = int(charged_faces.get(face, Fraction(0)) * den)
        mass, need = 0, 1
        if face in mass_faces:
            w, rep = mass_faces[face]
            if rep == CLOSURE:
                mass = int(w * den)
            elif len(inc_adm) == 2:
                mass, need = int(w * den), 2
            # else the face can never be interior to a scanned set
        if len(inc_adm) == 1:
            cell_gain[inc_adm[0]] += mass - charge
            continue
        # entering with the other side out crosses the face; with it in,
        # the crossing closes
        out_delta = (mass if need == 1 else 0) - charge
        in_delta = (mass if need == 2 else 0) + charge
        for i, j in (inc_adm, inc_adm[::-1]):
            d = links[i].setdefault(j, [0, 0])
            d[0] += out_delta
            d[1] += in_delta

    # Per cell: a mask of the cell and its neighbours, and the flip delta
    # for every state under that mask.  An entering cell's own bit is set
    # after the flip; a leaving cell sees the same neighbours and takes the
    # negated delta.
    bit_of = [1 << i for i in range(n)]
    flip_mask = bit_of[:]
    table: List[Dict[int, int]] = []
    for i in range(n):
        enter = {0: cell_gain[i] + sum(d0 for d0, _ in links[i].values())}
        for j, (d0, d1) in links[i].items():
            flip_mask[i] |= bit_of[j]
            for m, v in list(enter.items()):
                enter[m | bit_of[j]] = v + d1 - d0
        entries = {m: -v for m, v in enter.items()}
        entries.update((m | bit_of[i], v) for m, v in enter.items())
        table.append(entries)

    # A full Gray walk reaches every volume 1..n: keep each volume's first
    # strict maximum, then the overall one is the best of those, ties going
    # to the earliest in Gray order.
    floor = -1 - sum(max(t.values()) for t in table)  # below every set's value
    vol_value = [floor] * (n + 1)
    vol_first = [0] * (n + 1)
    vol_bits = [0] * (n + 1)
    value = 0  # mass - charge - penalty, scaled
    bits = 0
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1
        bits ^= bit_of[i]
        value += table[i][bits & flip_mask[i]]
        volume = bits.bit_count()
        if value > vol_value[volume]:
            vol_value[volume] = value
            vol_first[volume] = g
            vol_bits[volume] = bits
    best = max(range(1, n + 1), key=lambda v: (vol_value[v], -vol_first[v]))

    def to_set(b: int) -> CellSet:
        return CellSet.of(domain, [cells[i] for i in range(n) if b >> i & 1])

    per_volume = (None,) + tuple(
        (Fraction(vol_value[v], den), to_set(vol_bits[v])) for v in range(1, n + 1)
    )
    return ScanResult(
        best_value=per_volume[best][0],
        best_set=per_volume[best][1],
        best_at_volume=per_volume,
    )


def scan_functional_minimum(
    domain: GridDomain,
    mu_minus: MeasureData,
    region_cells: Optional[frozenset] = None,
) -> ScanResult:
    """Exhaustive minimum of P(A) - mu_minus(A+) per exact volume.

    Returns a ScanResult whose values are the *negated* functional, so the
    per-volume entries maximize mu(A+) - P(A) (minimize the functional).
    """
    admissible = region_cells if region_cells is not None else frozenset(domain.cells())
    charged = {f: Fraction(1) for f in domain.faces()}
    mass_faces = {f: (w, CLOSURE) for f, w in mu_minus.face_weights.items()}
    return scan_excess(
        domain,
        sorted(admissible),
        charged_faces=charged,
        mass_faces=mass_faces,
        cell_masses=dict(mu_minus.cell_weights),
    )
