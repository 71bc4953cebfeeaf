"""Exact minimization of a compiled energy by frontier dynamic programming.

A ``BinaryEnergy`` couples only face neighbours.  Sweep the cells of the
free cells' bounding box in ``energy.sweep_positions`` order, row-major
with the longest axis outermost: a face term then joins a cell to one at
most W positions back, where W is the product of the other extents.  So
the decided cells meet the rest only through the last W cells of the
sweep.  The state is the bits of those W cells; per state the sweep
keeps the least integer energy of the decided cells, one value per
volume when the volume is constrained.  The cost is exponential in the
cross-section W, not in the cell count.  This is nonserial dynamic
programming on a path decomposition of the grid (U. Bertelè, F.
Brioschi, *Nonserial Dynamic Programming*, 1972; S. Arnborg, A.
Proskurowski, *Discrete Appl. Math.* 23, 1989).

Constraints that are not lattice constraints fit the sweep as well: a
volume is a count carried along, and a covering pair ("not both out") is
a transition the sweep does not take.  The work and the stored choices
are bounded by the same ``2**cap`` budget as subset enumeration.  Among
optimal sets the sweep keeps the least sum of 2**position, as
``oracle._scan`` does, so both return the same set.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, gt, sub
from typing import Optional, Sequence

from .energy import BinaryEnergy, _total, sweep_positions
from .oracle import ExhaustiveCapacityExceeded


class FrontierBudgetExceeded(ExhaustiveCapacityExceeded):
    """The sweep would exceed the work budget of 2**cap table entries."""

    def __init__(self, n_cells: int, width: int, cap: int):
        super().__init__(n_cells, cap)
        self.width = width
        self.args = (
            f"frontier sweep over {n_cells} cells with a frontier of {width} "
            f"cells exceeds the budget of 2**{cap}",
        )


def frontier_minimize(
    energy: BinaryEnergy,
    *,
    volume: Optional[int] = None,
    covering: Sequence = (),
    cap: int,
):
    """Least energy over the sets with the given volume and covering pairs.

    ``volume`` counts the free cells in the set; frozen cells keep the
    state ``freeze`` gave them, already folded into the energy.
    ``covering`` lists pairs of face-adjacent free cells of which at least
    one must be in the set.  Returns (full set, exact value), checked
    against an integer re-evaluation of the set.

    Refuses with ``FrontierBudgetExceeded``, before allocating anything,
    when positions x 2**W x (tracked volumes + 1) exceeds 2**cap.  The
    positions are the cells of the free cells' bounding box; the tracked
    volumes are 1..volume, none without a volume.

    Ties go to the set whose free cells, weighted 2**i at sweep position i,
    have the least sum: the last cell of the sweep out rather than in, then
    the one before it, and so on.  The order is ``energy.sweep_positions``
    of the free cells, so the same call returns the same set, and the one
    ``oracle._scan`` returns.
    """
    free = energy.free_cells
    n_free = len(free)
    if volume is not None and not 0 <= volume <= n_free:
        raise ValueError(f"volume {volume} out of range 0..{n_free}")
    if not free:
        return _checked(energy, (), energy.constant, covering)

    positions, width = sweep_positions(free)
    n_pos = (max(positions) // width + 1) * width  # the bounding box
    tracked = volume or 0
    if cap < 0 or n_pos * (tracked + 1) << width > 1 << cap:
        raise FrontierBudgetExceeded(n_pos, width, cap)

    # per free cell's position: (bit, table) of its face terms with earlier
    # cells and the bits of its covering partners, where bit k of the state
    # before the cell enters is the cell k + 1 positions back
    position = dict(zip(energy.free_index, positions))
    at = [None] * n_pos  # (number, cell) of the free cell at each position
    back = {}
    for i, c, p in zip(energy.free_index, free, positions):
        at[p], back[p] = (i, c), ([], [])
    tables = list(zip(zip(energy.e00, energy.e01), zip(energy.e10, energy.e11)))
    for i, j, table in zip(energy.lo, energy.hi, tables):
        back[position[j]][0].append((position[j] - position[i] - 1, table))
    for pair in covering:
        u, w = sorted(tuple(c) for c in pair)
        i, j = energy.index(u), energy.index(w)
        if i not in position or j not in position:
            raise ValueError(f"covering pair {pair} names a cell that is not free")
        if sum(abs(x - y) for x, y in zip(u, w)) != 1:
            raise ValueError(f"covering pair {pair} is not a pair of face neighbours")
        back[position[j]][1].append(position[j] - position[i] - 1)

    # every partial sum of terms lies in [-bound, bound]; a value carrying
    # at least one INF (a forbidden step, a volume out of reach) stays above
    # INF - 2 bound > bound
    bound = sum(map(max, map(abs, energy.u0), map(abs, energy.u1)))
    bound += sum(max(map(abs, e0 + e1)) for e0, e1 in tables)
    INF = 3 * bound + 1

    # The value of state s at volume u is rows[u - vlo][s] + off[s]: the
    # per-state offset carries the cost of the step into s, so a step adds
    # only the other predecessor's relative shift to each row.
    full = 1 << width
    top = full >> 1
    off = [0] * full
    rows = [[0] + [INF] * (full - 1)]
    vlo = seen = 0
    lows = []  # per position, the least volume kept after it
    # per position, the dropped bit of every (volume, entering bit, state
    # without its entering bit), one byte each
    choices = []
    none_kept = bytes(top)
    for p in range(n_pos):
        if at[p] is None:
            step = [(0,) * full, (INF,) * full]
            nlo = vlo
            nhi = vlo + len(rows) - 1
        else:
            i = at[p][0]
            step = _step_costs((energy.u0[i], energy.u1[i]), *back[p], full, INF)
            seen += 1
            nlo = max(0, tracked - (n_free - seen)) if volume is not None else 0
            nhi = min(tracked, seen)
        new_off = [0] * full
        shifts = []
        for x in (0, 1):
            # state s0 + x entered from s0 (dropped bit 0) or s0 | top (bit 1)
            via0 = list(map(add, off[:top], step[x][:top]))
            via1 = list(map(add, off[top:], step[x][top:]))
            new_off[x::2] = via0
            shifts.append(list(map(sub, via1, via0)))
        new_rows = []
        picks = []
        for u in range(nlo, nhi + 1):
            row = [INF] * full
            for x in (0, 1):
                k = u - (x if volume is not None else 0) - vlo
                if not 0 <= k < len(rows):
                    picks.append(none_kept)  # no predecessor keeps this volume
                    continue
                r = rows[k]
                r0 = r[:top]
                r1 = list(map(add, r[top:], shifts[x]))
                picks.append(bytes(map(gt, r0, r1)))  # ties drop bit 0
                row[x::2] = [b if b < a else a for a, b in zip(r0, r1)]
            new_rows.append(row)
        off, rows, vlo = new_off, new_rows, nlo
        lows.append(vlo)
        choices.append(b"".join(picks))

    # one row is left: the volume asked for, or the only one
    final = list(map(add, rows[0], off))
    least = min(final)
    if least > bound:
        raise ValueError("no set meets the volume and covering constraints")
    state = min(
        (s for s, value in enumerate(final) if value == least),
        key=lambda s: int(format(s, f"0{width}b")[::-1], 2),
    )
    members = []
    u = vlo
    for p in reversed(range(n_pos)):
        x = state & 1
        if x:
            members.append(at[p][1])
        dropped = choices[p][((u - lows[p]) * 2 + x) * top + (state >> 1)]
        if volume is not None:
            u -= x
        state = state >> 1 | dropped * top
    return _checked(energy, members, energy.constant + least, covering)


def _step_costs(unary, terms, covers, full, INF):
    """(costs out, costs in) of the entering cell, per state before it."""
    mask = 0
    for bit, _ in terms:
        mask |= 1 << bit
    for bit in covers:
        mask |= 1 << bit
    by_key = {}
    key = mask
    while True:  # every subset of the mask
        out, inn = unary
        for bit, ((e00, e01), (e10, e11)) in terms:
            if key >> bit & 1:
                out, inn = out + e10, inn + e11
            else:
                out, inn = out + e00, inn + e01
        if not all(key >> bit & 1 for bit in covers):
            out = INF
        by_key[key] = (out, inn)
        if not key:
            break
        key = (key - 1) & mask
    table = [by_key[s & mask] for s in range(full)]
    return [t[0] for t in table], [t[1] for t in table]


def _checked(energy: BinaryEnergy, members, value: int, covering):
    cells = frozenset(members)
    sol = energy.full_set(cells)
    if _total(energy, sol.cells) != value:
        raise AssertionError("frontier value and energy of the set disagree")
    for pair in covering:
        if not any(tuple(c) in cells for c in pair):
            raise AssertionError("frontier set leaves a covering pair uncovered")
    return sol, Fraction(value, energy.den)
