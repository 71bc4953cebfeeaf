"""Naive first-principles reference computations for cross-checking.

Everything here works on raw tuples (dims, cells, (axis, slot, at) faces)
and deliberately avoids the package's grid/measure/energy machinery, so
test comparisons are genuinely two independent routes to the same number.
Three kinds of exception check an engine on its own input:
``dinic_augment`` and ``cut_capacity`` run on a ``FlowNetwork``'s arc
arrays, ``energy_gray_walk`` and ``greedy_resize`` walk a compiled
``BinaryEnergy`` one step at a time, and ``unbounded_excess_sweep`` runs
the excess sweep's probes to the end on the package's own cut network.
"""

import itertools
from fractions import Fraction

from perivar.energy import flip_links
from perivar.maxflow import (
    _cut_network,
    _maximal_source_side,
    _residual_reachable,
    augment,
    max_flow,
)

ZERO = Fraction(0)


def all_cells(dims):
    return [tuple(c) for c in itertools.product(*(range(n) for n in dims))]


def all_faces(dims):
    faces = []
    for axis in range(len(dims)):
        others = [range(n) for i, n in enumerate(dims) if i != axis]
        for slot in range(dims[axis] + 1):
            for at in itertools.product(*others):
                faces.append((axis, slot, tuple(at)))
    return faces


def face_sides(dims, face):
    """(lower cell or None, upper cell or None) of a face."""
    axis, slot, at = face

    def cell(coord):
        c = list(at)
        c.insert(axis, coord)
        return tuple(c)

    lower = cell(slot - 1) if slot > 0 else None
    upper = cell(slot) if slot < dims[axis] else None
    return lower, upper


def crosses(dims, face, cells):
    """True when exactly one side of the face is in the set (exterior empty)."""
    lo, hi = face_sides(dims, face)
    return (lo in cells) != (hi in cells)


def perimeter(dims, cells, faces=None, weight=Fraction(1)):
    faces = all_faces(dims) if faces is None else faces
    return sum(
        (Fraction(weight) for f in faces if crosses(dims, f, cells)), ZERO
    )


def closure_mass(dims, cells, face_weights, cell_weights):
    """mu(A+): faces with >= 1 incident cell in A, plus cells of A."""
    total = sum((w for c, w in cell_weights.items() if c in cells), ZERO)
    for f, w in face_weights.items():
        lo, hi = face_sides(dims, f)
        if lo in cells or hi in cells:
            total += w
    return total


def interior_mass(dims, cells, face_weights, cell_weights):
    """mu(A1): faces with both incident cells in A (boundary faces never)."""
    total = sum((w for c, w in cell_weights.items() if c in cells), ZERO)
    for f, w in face_weights.items():
        lo, hi = face_sides(dims, f)
        if lo is not None and hi is not None and lo in cells and hi in cells:
            total += w
    return total


def functional(
    dims,
    cells,
    plus_faces,
    plus_cells,
    minus_faces,
    minus_cells,
    perim_faces=None,
    weight=Fraction(1),
):
    """P(A) + mu_plus(A1) - mu_minus(A+), straight from the definitions."""
    return (
        perimeter(dims, cells, perim_faces, weight)
        + interior_mass(dims, cells, plus_faces, plus_cells)
        - closure_mass(dims, cells, minus_faces, minus_cells)
    )


def minimize_over(
    dims,
    free,
    fixed_in,
    plus_faces,
    plus_cells,
    minus_faces,
    minus_cells,
    perim_faces=None,
    weight=Fraction(1),
    volume=None,
):
    """Exhaustively minimize the functional over subsets of ``free``.

    ``fixed_in`` cells belong to every candidate set; ``volume`` (if given)
    constrains the total cell count.  Returns (best value, all argmins).
    """
    free = sorted(free)
    fixed = frozenset(fixed_in)
    best = None
    argmins = []
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            cells = fixed | frozenset(combo)
            if volume is not None and len(cells) != volume:
                continue
            val = functional(
                dims, cells, plus_faces, plus_cells,
                minus_faces, minus_cells, perim_faces, weight,
            )
            if best is None or val < best:
                best = val
                argmins = [cells]
            elif val == best:
                argmins.append(cells)
    return best, argmins


def minima_by_volume(
    dims,
    free,
    fixed_in,
    plus_faces,
    plus_cells,
    minus_faces,
    minus_cells,
    perim_faces=None,
    weight=Fraction(1),
):
    """Per count k of free cells in the set: (best value, all argmins).

    One pass over every subset of ``free``; ``fixed_in`` cells belong to
    every candidate set, as in ``minimize_over``.
    """
    free = sorted(free)
    fixed = frozenset(fixed_in)
    out = {}
    for r in range(len(free) + 1):
        best = None
        argmins = []
        for combo in itertools.combinations(free, r):
            cells = fixed | frozenset(combo)
            val = functional(
                dims, cells, plus_faces, plus_cells,
                minus_faces, minus_cells, perim_faces, weight,
            )
            if best is None or val < best:
                best = val
                argmins = [cells]
            elif val == best:
                argmins.append(cells)
        out[r] = (best, argmins)
    return out


def covering_minimum(dims, faces=(), cells=()):
    """Least perimeter of a set holding every target cell and at least one
    cell of every target face; returns (value, all minimizers)."""
    universe = all_cells(dims)
    best = None
    argmins = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            A = frozenset(combo)
            if not all(c in A for c in cells):
                continue
            if not all(any(s in A for s in face_sides(dims, f)) for f in faces):
                continue
            p = perimeter(dims, A)
            if best is None or p < best:
                best = p
                argmins = [A]
            elif p == best:
                argmins.append(A)
    return best, argmins


def excess_maximizers(
    dims,
    face_weights,
    cell_weights,
    C,
    penalty=ZERO,
    rep="closure",
    cells=None,
    charged=None,
):
    """(max, every maximizer) of mu(rep(A)) - C P(A) - penalty |A|.

    A ranges over the nonempty subsets of ``cells`` (default: the whole
    grid) and P counts the crossed faces of ``charged`` (default: all).
    Maximizers are listed in enumeration order: by size, then
    lexicographically.
    """
    C = Fraction(C)
    penalty = Fraction(penalty)
    mass = closure_mass if rep == "closure" else interior_mass
    cells = sorted(all_cells(dims) if cells is None else cells)
    best = None
    maximizers = []
    for r in range(1, len(cells) + 1):
        for combo in itertools.combinations(cells, r):
            A = frozenset(combo)
            val = (
                mass(dims, A, face_weights, cell_weights)
                - C * perimeter(dims, A, charged)
                - penalty * len(A)
            )
            if best is None or val > best:
                best, maximizers = val, [A]
            elif val == best:
                maximizers.append(A)
    return best, maximizers


def max_excess(dims, face_weights, cell_weights, C, penalty=ZERO, rep="closure"):
    """Max of mu(rep(A)) - C P(A) - penalty |A| over nonempty subsets."""
    best, maximizers = excess_maximizers(
        dims, face_weights, cell_weights, C, penalty, rep
    )
    return best, maximizers[0]


def sweep_key(cells):
    """The tie order of the exact per-volume routes, written out again.

    Number the cells of the given cells' bounding box row-major with the
    longest extent outermost (the lowest such axis), the other axes in
    their order; returns the key that maps a set to the sum of 2**number
    over its cells.  Among optimal sets the least key wins.
    """
    d = len(cells[0])
    lo = [min(c[a] for c in cells) for a in range(d)]
    ext = [max(c[a] for c in cells) - lo[a] + 1 for a in range(d)]
    outer = max(range(d), key=lambda a: (ext[a], -a))
    order = [outer] + [a for a in range(d) if a != outer]

    def key(members):
        total = 0
        for c in members:
            pos = 0
            for a in order:
                pos = pos * ext[a] + c[a] - lo[a]
            total += 1 << pos
        return total

    return key


def gray_scan(
    dims,
    face_weights,
    cell_weights,
    C,
    penalty=ZERO,
    rep="closure",
    cells=None,
    charged=None,
):
    """Walk mu(rep(A)) - C P(A) - penalty |A| over nonempty A in Gray order.

    Step g = 1 .. 2^n - 1 takes the set whose members are the sorted
    ``cells`` (default: the whole grid) at the bits of g ^ (g >> 1); P
    counts the crossed faces of ``charged`` (default: all).  Returns
    (best value, best set, per_volume), where per_volume[v] is the best
    (value, set) of volume v (None at v = 0).  Each keeps, among the
    maxima, the set of least ``sweep_key`` over the cells.
    """
    C = Fraction(C)
    penalty = Fraction(penalty)
    mass = closure_mass if rep == "closure" else interior_mass
    cells = sorted(all_cells(dims) if cells is None else cells)
    charged = all_faces(dims) if charged is None else charged
    key = sweep_key(cells)

    def better(val, A, kept):
        return kept is None or val > kept[0] or val == kept[0] and key(A) < key(kept[1])

    best = None
    per_volume = [None] * (len(cells) + 1)
    for g in range(1, 1 << len(cells)):
        gray = g ^ (g >> 1)
        A = frozenset(c for i, c in enumerate(cells) if gray >> i & 1)
        val = (
            mass(dims, A, face_weights, cell_weights)
            - C * perimeter(dims, A, charged)
            - penalty * len(A)
        )
        if better(val, A, best):
            best = (val, A)
        if better(val, A, per_volume[len(A)]):
            per_volume[len(A)] = (val, A)
    return best[0], best[1], per_volume


def energy_gray_walk(energy):
    """Walk the excess -E of a compiled energy over nonempty sets in Gray order.

    Bit i is the energy's i-th free cell, and step g = 1 .. 2^n - 1 flips
    one bit into g ^ (g >> 1).  Per cell, a table keyed by the bits of the
    cell and its neighbours holds the integer flip delta, so a step is one
    lookup.  Returns (best value, best set, per_volume) as ``gray_scan``
    does, each keeping among the maxima the set of least ``sweep_key``.

    The oracle's plain walk before it was split into blocks, kept as the
    reference it is compared against.
    """
    cells = energy.free_cells
    n = len(cells)
    gain, links = flip_links(energy)
    key = sweep_key(cells)
    weight = [key([c]) for c in cells]
    # an entering cell's own bit is set after the flip; a leaving cell sees
    # the same neighbours and takes the negated change
    flip_mask = []
    table = []
    for i in range(n):
        mask = 1 << i
        enter = {0: -gain[i]}
        for other, coupling in links[i]:
            mask |= 1 << other
            for m, v in list(enter.items()):
                enter[m | 1 << other] = v - coupling
        entries = {m: -v for m, v in enter.items()}
        entries.update((m | 1 << i, v) for m, v in enter.items())
        flip_mask.append(mask)
        table.append(entries)

    vol_value = [None] * (n + 1)
    vol_key = [0] * (n + 1)
    vol_bits = [0] * (n + 1)
    value = 0
    bits = 0
    set_key = 0  # the sweep key of the set at bits
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1
        bits ^= 1 << i
        set_key ^= weight[i]
        value += table[i][bits & flip_mask[i]]
        volume = bits.bit_count()
        if vol_value[volume] is None or (value, -set_key) > (vol_value[volume], -vol_key[volume]):
            vol_value[volume] = value
            vol_key[volume] = set_key
            vol_bits[volume] = bits
    per_volume = [None] + [
        (
            Fraction(vol_value[v], energy.den),
            frozenset(cells[i] for i in range(n) if vol_bits[v] >> i & 1),
        )
        for v in range(1, n + 1)
    ]
    best = max(range(1, n + 1), key=lambda v: (vol_value[v], -vol_key[v]))
    return per_volume[best][0], per_volume[best][1], per_volume


def greedy_resize(energy, start, target):
    """Move |A| to the target one best single-cell flip at a time.

    Each step rescores every candidate free cell and takes the first, in
    sorted order, whose flip gives the strictly lowest energy.  The repair
    of ``solve._greedy_resize`` before it kept deltas in a heap, kept as
    the reference it is compared against.
    """
    gain, links = flip_links(energy)
    free = energy.free_cells
    current = {k for k, c in enumerate(free) if c in start.cells}
    target -= energy.state.count(1)  # the frozen-in cells count in |A|
    while len(current) != target:
        grow = len(current) < target
        best, best_delta = None, None
        for k in range(len(free)):  # sorted cell order
            if (k in current) == grow:
                continue
            delta = gain[k] + sum(c for other, c in links[k] if other in current)
            if not grow:
                delta = -delta
            if best_delta is None or delta < best_delta:
                best, best_delta = k, delta
        if best is None:
            raise ValueError("no free cells left to reach the target volume")
        current ^= {best}
    return energy.full_set(frozenset(free[k] for k in current))


def dinic_augment(net, source=None, sinks=None):
    """Push flow from ``source`` until no residual path reaches a sink node.

    ``sinks`` holds one bool per node; a flagged node absorbs any amount of
    flow.  By default flow runs from the network's source to its sink.  Flow
    already in the network stays, so repeated calls resolve incrementally.
    Returns the flow added.  Dinic without recursion: BFS levels up to the
    first level holding a sink, then level paths walked one at a time, each
    pushing its bottleneck and retreating to its first saturated arc.

    The package's engine before its search-tree ``augment``, kept as the
    reference it is compared against.  It reads only the network's public
    fields (``adj``, ``to``, ``cap``, ``n_nodes``, ``source``, ``sink``).
    """
    adj, to, cap, n = net.adj, net.to, net.cap, net.n_nodes
    s = net.source if source is None else source
    if sinks is None:
        sinks = [False] * n
        sinks[net.sink] = True
    if sinks[s]:
        return 0
    added = 0
    while True:
        level = {s: 0}  # sparse: a sweep's augments stay local
        frontier = [s]
        reached = False
        while frontier and not reached:
            nxt = []
            for u in frontier:
                up = level[u] + 1
                for i in adj[u]:
                    if cap[i] and to[i] not in level:
                        v = to[i]
                        level[v] = up
                        nxt.append(v)
                        reached = reached or sinks[v]
            frontier = nxt
        if not reached:
            return added
        it = {}  # next arc to try, per node
        path = []  # arcs from s to u, one level up each
        u = s
        while True:
            if sinks[u]:
                residual = [cap[i] for i in path]
                push = min(residual)
                for i in path:
                    cap[i] -= push
                    cap[i ^ 1] += push
                added += push
                del path[residual.index(push):]  # retreat to the first saturated arc
                u = to[path[-1]] if path else s
                continue
            arcs, k, up = adj[u], it.get(u, 0), level[u] + 1
            end = len(arcs)
            while k < end:
                i = arcs[k]
                if cap[i] and level.get(to[i]) == up:
                    break
                k += 1
            it[u] = k
            if k < end:
                path.append(i)
                u = to[i]
            elif path:
                level[u] = -1  # dead end for the rest of the phase
                u = to[path.pop() ^ 1]
            else:
                break


def unbounded_excess_sweep(energy):
    """Best nonempty excess of a submodular excess energy, by unbounded probes.

    ``strong_excess``'s min-cut route as it ran before its probes were
    bounded: build ``_cut_network``, run ``max_flow``, and when only the
    empty set attains the best, push from each free cell in turn to the
    sink and the cells before it with no limit, then flag it.  The first
    probe of least flow wins, with the cells reachable from it as its
    witness.  Returns (value, witness cells), or None when the first flow
    already answers, so no probe runs.
    """
    net, base = _cut_network(energy)
    least = base + max_flow(net).value
    if least < 0 or len(_maximal_source_side(net)) > 1:
        return None
    free = energy.free_cells
    sinks = [v == net.sink for v in range(net.n_nodes)]
    best = witness = None
    for node in range(2, net.n_nodes):
        delta = augment(net, node, sinks)
        if best is None or delta < best:
            best = delta
            witness = frozenset(free[v - 2] for v in _residual_reachable(net, node) if v > 1)
        sinks[node] = True
    return Fraction(-(least + best), energy.den), witness


def cut_capacity(net, source_side, caps):
    """Capacity of the given cut under the pristine capacities ``caps``,
    counting the arcs as built (even arc numbers), not their reverses."""
    total = 0
    for u in source_side:
        for i in net.adj[u]:
            if i % 2 == 0 and net.to[i] not in source_side:
                total += caps[i]
    return total
