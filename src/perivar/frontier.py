"""Exact minimization of a compiled energy by frontier dynamic programming.

A ``BinaryEnergy`` couples only face neighbours.  Decide the free cells
one at a time in the rank order of ``energy.sweep_positions``.  Let W,
the window, be the largest rank gap of a face term or a covering pair:
then a cell meets the decided cells only through the last W of them.
The state is the bits of those W cells; per state the sweep keeps the
least integer energy of the decided cells, one value per volume when the
volume is constrained.  The cost is exponential in W, the bandwidth of
the order, not in the cell count; any order is exact.  This is nonserial
dynamic programming on a path decomposition of the face graph (U.
Bertelè, F. Brioschi, *Nonserial Dynamic Programming*, 1972; S. Arnborg,
A. Proskurowski, *Discrete Appl. Math.* 23, 1989).

Constraints that are not lattice constraints fit the sweep as well: a
volume is a count carried along, and a covering pair ("not both out") is
a transition the sweep does not take.  The work is bounded by the same
``2**cap`` budget as subset enumeration, the stored choices also by the
memory.  Among optimal sets the sweep keeps the least sum of 2**rank, as
``oracle._scan`` does, so both return the same set.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain
from operator import add, gt, sub
from typing import Optional, Sequence

from .energy import BinaryEnergy, _total, sweep_positions
from .oracle import ExhaustiveCapacityExceeded


class FrontierBudgetExceeded(ExhaustiveCapacityExceeded):
    """The sweep's table would pass 2**cap entries or, at a byte each, the memory."""

    def __init__(self, n_cells: int, width: int, cap: int, need: int):
        super().__init__(n_cells, cap)
        self.width = width
        self.fits_budget = 0 <= cap and need <= 1 << cap
        self.args = (
            f"frontier sweep over {n_cells} free cells with a window of {width} "
            f"cells exceeds the budget of 2**{cap} or this machine's memory",
        )


_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")  # bytes


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

    Steps once per free cell in ``energy.sweep_positions`` order, with a
    window W of the largest rank gap of a face term or covering pair (at
    least 1).  Refuses with ``FrontierBudgetExceeded``, before allocating
    anything, when n_free x 2**W x (tracked volumes + 1) exceeds 2**cap or
    the physical memory in bytes, one byte a stored choice; the tracked
    volumes are 1..volume, none without a volume.

    Ties go to the set whose free cells, weighted 2**rank, have the least
    sum: the last cell of the sweep out rather than in, then the one
    before it, and so on: the set ``oracle._scan`` returns.
    """
    free = energy.free_cells
    n_free = len(free)
    if volume is not None and not 0 <= volume <= n_free:
        raise ValueError(f"volume {volume} out of range 0..{n_free}")
    if not free:
        return _checked(energy, (), energy.constant, covering)

    rank = dict(zip(energy.free_index, sweep_positions(free)))  # by cell number
    pairs = []  # the ranks of each covering pair, the earlier first
    for pair in covering:
        u, w = sorted(tuple(c) for c in pair)
        ranks = [rank.get(i) for i in map(energy.index, (u, w))]
        if None in ranks:
            raise ValueError(f"covering pair {pair} names a cell that is not free")
        if sum(abs(x - y) for x, y in zip(u, w)) != 1:
            raise ValueError(f"covering pair {pair} is not a pair of face neighbours")
        pairs.append(ranks)
    st = energy.strides  # not ``energy.hi``: nothing per term is kept before the check
    gaps = (rank[i + st[a]] - rank[i] for i, a in zip(energy.lo, energy.axis))
    width = max(chain(gaps, (q - p for p, q in pairs)), default=1)
    tracked = volume or 0
    need = n_free * (tracked + 1) << width
    if cap < 0 or need > 1 << cap or need > _MEMORY:
        raise FrontierBudgetExceeded(n_free, width, cap, need)

    # per rank: the free cell's number, and (bit, e01, e11) of its face
    # terms with earlier cells and the bits of its covering partners, where
    # bit k of the state before the cell enters is the cell k + 1 ranks back
    order = sorted(energy.free_index, key=rank.__getitem__)
    back = [([], []) for _ in range(n_free)]
    for i, j, e01, e11 in zip(energy.lo, energy.hi, energy.e01, energy.e11):
        back[rank[j]][0].append((rank[j] - rank[i] - 1, e01, e11))
    for p, q in pairs:
        back[q][1].append(q - p - 1)

    # every partial sum of terms lies in [-bound, bound]; a value carrying
    # at least one INF (a forbidden step, a volume out of reach) stays above
    # INF - 2 bound > bound
    bound = sum(map(abs, energy.u))
    bound += sum(map(max, map(abs, energy.e01), map(abs, energy.e11)))
    INF = 3 * bound + 1

    # The value of state s at volume u is rows[u - vlo][s] + off[s]: the
    # per-state offset carries the cost of the step into s, so a step adds
    # only the other predecessor's relative shift to each row.
    full = 1 << width
    top = full >> 1
    off = [0] * full
    rows = [[0] + [INF] * (full - 1)]
    vlo = 0
    lows = []  # per rank, the least volume kept after it
    # per rank, the dropped bit of every (volume, entering bit, state
    # without its entering bit), one byte each
    choices = []
    none_kept = bytes(top)
    for p, i in enumerate(order):
        step = _step_costs(energy.u[i], *back[p], full, INF)
        nlo = max(0, tracked + p + 1 - n_free)
        nhi = min(tracked, p + 1)
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
    for p in reversed(range(n_free)):
        x = state & 1
        if x:
            members.append(energy.domain.cells()[order[p]])
        dropped = choices[p][((u - lows[p]) * 2 + x) * top + (state >> 1)]
        if volume is not None:
            u -= x
        state = state >> 1 | dropped * top
    return _checked(energy, members, energy.constant + least, covering)


def _step_costs(unary, terms, covers, full, INF):
    """(costs out, costs in) of the entering cell, per state before it."""
    mask = 0
    for bit, _, _ in terms:
        mask |= 1 << bit
    for bit in covers:
        mask |= 1 << bit
    by_key = {}
    key = mask
    while True:  # every subset of the mask
        out, inn = 0, unary
        for bit, e01, e11 in terms:
            if key >> bit & 1:
                out, inn = out + e01, inn + e11
            else:
                inn += e01
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
