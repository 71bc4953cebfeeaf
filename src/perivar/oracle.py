"""Exhaustive enumeration oracles for desk-scale instances.

These scans walk all subsets of an admissible cell pool in Gray-code
order, over the integers of the excess energy that
``energy.assemble_excess`` compiles from a measure, a constant C, the
pool as a cell mask and an optional mask ``within`` for the charged
faces.  Each step flips one cell, and since every face has at most two
incident cells, the value changes by an amount fixed by that cell and
the states of its admissible neighbours: one lookup in a per-cell table
keyed by the neighbour bits.  The walk runs in blocks (split
enumeration, after Horowitz and Sahni): the low bits' best values are
tabulated once per state of their high neighbours, then the high bits
are walked, so a pool of n cells costs far fewer than 2^n lookups.
Bit i is the cell of rank i in ``energy.sweep_positions``, and among the
optimal sets, overall and at each volume, the scan keeps the one of
least sum of 2**rank: the tie rule of ``frontier_minimize``, so both
return the same set.  They are the enumeration side of the package's
dual-route checks: exact, and free of the max-flow code, but sharing the
compiled energy with the min cut; the route independent of both is
``tests/naive.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .energy import CLOSURE, BinaryEnergy, assemble_excess, flip_links, sweep_positions
from .grid import CellSet, GridDomain, Region, _integer
from .measure import MeasureData


class ExhaustiveCapacityExceeded(RuntimeError):
    """The instance is too large for subset enumeration and not reducible."""

    def __init__(self, n_cells: int, cap: int):
        self.n_cells = n_cells
        self.cap = cap
        super().__init__(
            f"exhaustive search over {n_cells} cells exceeds the cap of {cap}"
        )


DEFAULT_EXHAUSTIVE_CAP = 22

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


@dataclass(frozen=True)
class ScanResult:
    """Best excess over nonempty subsets, overall and per exact volume."""

    best_value: Fraction
    best_set: CellSet
    best_at_volume: Tuple  # (value, CellSet) or None, indexed by |A|


def scan_excess(
    mu: MeasureData,
    admissible: Sequence,
    C,
    *,
    rep: int = CLOSURE,
    within: Optional[Region] = None,
    cell_penalty=0,
) -> ScanResult:
    """Maximize mu(rep(A)) - C P(A) - penalty |A| over nonempty A <= admissible.

    The perimeter charges C on every face touching an admissible cell,
    or, with a region ``within``, only on the faces between two of its
    cells.  The representative ``rep`` is CLOSURE (a face of mu counts
    when at least one incident cell is selected) or INTERIOR (when both
    are; a face with an inadmissible or exterior side never counts).

    The excess is compiled by ``energy.assemble_excess``.  Bit i is the
    pool's cell of rank i in ``energy.sweep_positions``.  Per cell, a table
    keyed by the bits of the cell and its admissible neighbours holds the
    flip delta, read off the energy's unary and face terms; a Gray step is
    one lookup.  The walk is cut into blocks of the low k bits: one walk of
    the low bits per state of the high cells next to them finds each low
    volume's best, and a walk of the high bits combines those per block, k
    chosen to make the fewest steps.  Ties go to the set of least sum of
    2**rank, both overall and at each volume: per block the least low bits,
    across blocks the least mask.
    """
    if not admissible:
        raise ValueError("no admissible cells to scan")
    return _scan(
        assemble_excess(mu, admissible, C, rep=rep, within=within, cell_penalty=cell_penalty)
    )


def _scan(energy: BinaryEnergy) -> ScanResult:
    """``scan_excess`` over an energy already compiled: the excess of a set
    A of its free cells is E(empty) - E(A)."""
    free = energy.free_cells
    n = len(free)
    # bit i is the free cell of rank i in the sweep order
    rank = sweep_positions(free)
    order = sorted(range(n), key=rank.__getitem__)
    gain, links = flip_links(energy)

    # Per cell: a mask of the cell and its neighbours, and the change of the
    # excess (the energy's change, negated) for every state under that mask.
    # An entering cell's own bit is set after the flip; a leaving cell sees
    # the same neighbours and takes the negated change.
    flip_mask = []
    table: List[Dict[int, int]] = []
    for i, k in enumerate(order):
        mask = 1 << i
        enter = {0: -gain[k]}
        for other, coupling in links[k]:
            bit = 1 << rank[other]
            mask |= bit
            for m, v in list(enter.items()):
                enter[m | bit] = v - coupling
        entries = {m: -v for m, v in enter.items()}
        entries.update((m | 1 << i, v) for m, v in enter.items())
        flip_mask.append(mask)
        table.append(entries)

    # The walk in blocks: step g = j * 2^k + r.  Block j holds the high bits
    # at gray(j) and its low k bits run through gray(r).  A low cell's flip
    # reads only low bits and ``outer``, the high cells next to a low cell,
    # so within a block the excess is value(high) plus a function of the low
    # bits and of high & outer alone.
    k, outer = _split(flip_mask)
    M = (1 << k) - 1
    floor = -1 - sum(max(t.values()) for t in table)  # below every set's value

    # Per state s of outer, one walk of the low bits: for each low volume w
    # the best value and the least low bits reaching it.
    inner = {}
    s = outer
    while True:
        top = [floor] * (n + 1)  # indexed by |s| + w
        arg = [0] * (n + 1)  # s | the low bits
        base = s.bit_count()
        top[base] = value = 0
        bits = s
        for r in range(1, M + 1):
            i = (r & -r).bit_length() - 1
            bits ^= 1 << i
            value += table[i][bits & flip_mask[i]]
            volume = bits.bit_count()
            if value >= top[volume] and (value > top[volume] or bits < arg[volume]):
                top[volume] = value
                arg[volume] = bits
        inner[s] = [(v - base, top[v], arg[v] & M) for v in range(base, base + k + 1)]
        if not s:
            break
        s = (s - 1) & outer

    # The high bits in Gray order, low bits 0; each volume keeps its best
    # value and the least mask reaching it, and so does the overall best.
    # Volume 0 (the empty set) is recorded in block 0 and never read.
    vol_value = [floor] * (n + 1)
    vol_bits = [0] * (n + 1)
    value = 0  # mass - charge - penalty, scaled
    high = 0
    for j in range(1 << (n - k)):
        if j:
            i = (j & -j).bit_length() - 1 + k
            high ^= 1 << i
            value += table[i][high & flip_mask[i]]
        base = high.bit_count()
        for w, gain_low, low in inner[high & outer]:
            v = base + w
            got = value + gain_low
            if got >= vol_value[v] and (got > vol_value[v] or high | low < vol_bits[v]):
                vol_value[v] = got
                vol_bits[v] = high | low
    best = max(range(1, n + 1), key=lambda v: (vol_value[v], -vol_bits[v]))

    def to_set(b: int) -> CellSet:
        return CellSet._of_grid(energy.domain, [free[k] for i, k in enumerate(order) if b >> i & 1])

    per_volume = (None,) + tuple(
        (Fraction(vol_value[v], energy.den), to_set(vol_bits[v])) for v in range(1, n + 1)
    )
    return ScanResult(*per_volume[best], per_volume)


def _split(flip_mask: Sequence[int]) -> Tuple[int, int]:
    """The inner block size k of ``_scan``'s walk, and the mask of high cells
    next to a low one.

    Takes the k in 1..n with the fewest steps 2^(n-k) (k+2) + 3 * 2^(k+|outer|):
    the outer walk compares k + 1 volumes per block, and each state of
    ``outer`` takes one walk of the low bits.  Ties go to the smaller k.
    """
    n = len(flip_mask)
    reach = 0
    best = None
    for k in range(1, n + 1):
        reach |= flip_mask[k - 1]
        outer = reach >> k << k
        steps = ((k + 2) << (n - k)) + (3 << (k + outer.bit_count()))
        if best is None or steps < best[0]:
            best = (steps, k, outer)
    return best[1], best[2]


def scan_functional_minimum(
    domain: GridDomain,
    mu_minus: MeasureData,
    region_cells: Optional[frozenset] = None,
) -> ScanResult:
    """Exhaustive minimum of P(A) - mu_minus(A+) per exact volume.

    Returns a ScanResult whose values are the *negated* functional, so the
    per-volume entries maximize mu(A+) - P(A) (minimize the functional).
    """
    admissible = region_cells if region_cells is not None else domain.cells()
    return scan_excess(mu_minus, sorted(admissible), 1)
