"""Exact integer max-flow/min-cut and the graph-cut energy minimizer.

The solver is Dinic's algorithm on arbitrary-precision integers: no
capacity is ever rounded, so thresholds like theta = 1 or w = 2 stay
exact.  ``augment`` runs without recursion and pushes from any node to
any set of flagged sink nodes, keeping the flow already present.  The
canonical minimum cut is the set of nodes reachable from the source in
the residual graph (the unique inclusion-minimal one), which makes every
result deterministic and reproducible.

``minimize`` reduces a submodular ``BinaryEnergy`` to a min cut over the
energy's integers (all over its one denominator), reads the value off the
cut and cross-checks it against an integer evaluation of the minimizer;
``parametric_sweep`` traces the breakpoints of ``min_A E(A) + lam * |A|``
and the nested chain of minimizers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .energy import (
    BinaryEnergy,
    SubmodularityReport,
    _total,
    add_volume_term,
    check_submodular,
)
from .grid import CellSet


class NonSubmodularError(ValueError):
    """Raised when an energy fails the per-face submodularity test."""

    def __init__(self, report: SubmodularityReport):
        self.report = report
        faces = [v.face for v in report.violations]
        super().__init__(f"energy is not submodular; violating faces: {faces}")


class MalformedNetworkError(ValueError):
    pass


class FlowNetwork:
    """Directed network with paired reverse arcs and big-int capacities.

    Node 0 is the source, node 1 the sink.  Arcs are stored flat; arc i
    and arc i^1 are reverses of each other.
    """

    def __init__(self):
        self.n_nodes = 2
        self.adj: List[List[int]] = [[], []]
        self.to: List[int] = []
        self.cap: List[int] = []

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1

    def add_node(self) -> int:
        self.adj.append([])
        self.n_nodes += 1
        return self.n_nodes - 1

    def add_arc(self, u: int, v: int, cap: int, rev_cap: int = 0) -> int:
        """Add arc u->v with capacity cap (plus a reverse arc); returns its index."""
        if u == v:
            raise MalformedNetworkError("self-loops are not allowed")
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise MalformedNetworkError(f"arc ({u}, {v}) references unknown nodes")
        if cap < 0 or rev_cap < 0:
            raise MalformedNetworkError("capacities must be nonnegative")
        i = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((cap, rev_cap))
        self.adj[u].append(i)
        self.adj[v].append(i + 1)
        return i

    def snapshot(self) -> list:
        return list(self.cap)


@dataclass(frozen=True)
class CutResult:
    """Max-flow value, canonical (inclusion-minimal) source side, arc flows."""

    value: int
    source_side: frozenset
    flows: tuple  # net flow per arc index, aligned with the network's arcs


def augment(net: FlowNetwork, source: Optional[int] = None, sinks: Optional[list] = None) -> int:
    """Push flow from ``source`` until no residual path reaches a sink node.

    ``sinks`` holds one bool per node; a flagged node absorbs any amount of
    flow.  By default flow runs from the network's source to its sink.  Flow
    already in the network stays, so repeated calls resolve incrementally.
    Returns the flow added.  Dinic without recursion: BFS levels up to the
    first level holding a sink, then level paths walked one at a time, each
    pushing its bottleneck and retreating to its first saturated arc.
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
        path: List[int] = []  # arcs from s to u, one level up each
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


def max_flow(net: FlowNetwork) -> CutResult:
    """Maximum flow with the canonical minimal min cut.

    The current capacities are taken as pristine: the flows and the value
    count only what this call adds.
    """
    base = list(net.cap)
    augment(net)
    reach = _residual_reachable(net)
    flows = tuple(base[i] - net.cap[i] for i in range(len(net.cap)))
    # net outflow of the source: sum of net flows on its outgoing arc pairs
    value = 0
    for i in net.adj[net.source]:
        if i % 2 == 0:
            value += flows[i]
        else:
            value -= flows[i ^ 1]
    return CutResult(value=value, source_side=frozenset(reach), flows=flows)


def _residual_reachable(net: FlowNetwork, start: Optional[int] = None) -> set:
    """Nodes reachable from ``start`` (default: the source) in the residual."""
    start = net.source if start is None else start
    seen = {start}
    q = deque([start])
    while q:
        u = q.popleft()
        for i in net.adj[u]:
            v = net.to[i]
            if net.cap[i] > 0 and v not in seen:
                seen.add(v)
                q.append(v)
    return seen


def cut_capacity(net: FlowNetwork, source_side: frozenset, caps: list) -> int:
    """Capacity of the given cut under the pristine capacities ``caps``."""
    total = 0
    for u in source_side:
        for i in net.adj[u]:
            if i % 2 == 0 and net.to[i] not in source_side:
                total += caps[i]
    return total


def _cut_network(energy: BinaryEnergy):
    """Network whose cuts price a submodular energy: (net, node of each free cell, base).

    A cut with source side {source} + the nodes of A has capacity
    den * E(A) - base.
    """
    net = FlowNetwork()
    node_of = {c: net.add_node() for c in energy.free_cells}

    # theta = e00 + (e10-e00) x_lo + (e11-e10) x_hi + (e01+e10-e00-e11) (1-x_lo) x_hi:
    # gain is the net cost of labeling a cell 1; base collects the terms free
    # of labels, then each negative gain, which its source arc pays back
    base = energy.constant + sum(e0 for e0, _ in energy.unary.values())
    gain = {c: e1 - e0 for c, (e0, e1) in energy.unary.items()}
    pair_arcs = []
    for term in energy.face_terms.values():
        (e00, e01), (e10, e11) = term.table
        base += e00
        gain[term.lower] += e10 - e00
        gain[term.upper] += e11 - e10
        coeff = e01 + e10 - e00 - e11
        if coeff:
            pair_arcs.append((node_of[term.upper], node_of[term.lower], coeff))

    for c, node in node_of.items():
        g = gain[c]
        if g > 0:
            net.add_arc(node, net.sink, g)
        elif g < 0:
            net.add_arc(net.source, node, -g)
            base += g
    for u, v, cap in pair_arcs:
        net.add_arc(u, v, cap)
    return net, node_of, base


def minimize(energy: BinaryEnergy) -> Tuple[CellSet, Fraction]:
    """Global minimizer of a submodular energy via graph cut.

    Returns the canonical inclusion-minimal minimizer (as a full CellSet,
    frozen cells included) together with its exact value.  The network is
    built from the energy's integers; the value is read off the cut and
    checked against an integer evaluation of the returned set.
    """
    report = check_submodular(energy)
    if not report.ok:
        raise NonSubmodularError(report)

    net, node_of, base = _cut_network(energy)
    value = base + augment(net)
    reach = _residual_reachable(net)
    sol = energy.full_set(frozenset(c for c, node in node_of.items() if node in reach))
    if _total(energy, sol.cells) != value:
        raise AssertionError("cut value and energy of the minimizer disagree")
    return sol, Fraction(value, energy.den)


@dataclass(frozen=True)
class SweepPiece:
    """One linear piece of lam -> min_A [E(A) + lam |A|]."""

    lam_lo: Fraction
    lam_hi: Fraction
    minimizer: CellSet
    value: Fraction  # E(minimizer), without the volume term
    volume: int


def parametric_sweep(energy: BinaryEnergy, lam_lo, lam_hi) -> List[SweepPiece]:
    """All breakpoints of the value function over [lam_lo, lam_hi].

    The modular volume term preserves submodularity, and the canonical
    minimizers are nested: volumes shrink as lam grows (asserted).
    """
    lam_lo = Fraction(lam_lo)
    lam_hi = Fraction(lam_hi)
    if lam_lo > lam_hi:
        raise ValueError("empty lambda range")

    def solve(lam: Fraction):
        sol, val = minimize(add_volume_term(energy, lam))
        return sol, val - lam * sol.volume

    lo_sol, lo_val = solve(lam_lo)
    hi_sol, hi_val = solve(lam_hi)

    pieces: List[SweepPiece] = []

    def emit(lam_a, lam_b, sol, val):
        pieces.append(
            SweepPiece(lam_a, lam_b, sol, val, sol.volume)
        )

    def recurse(lam_a, sol_a, val_a, lam_b, sol_b, val_b):
        if sol_a.volume == sol_b.volume:
            # same line on both ends: one piece across the interval
            emit(lam_a, lam_b, sol_b, val_b)
            return
        lam_star = (val_b - val_a) / Fraction(sol_a.volume - sol_b.volume)
        sol_s, val_s = solve(lam_star)
        line_here = val_a + lam_star * sol_a.volume
        if val_s + lam_star * sol_s.volume < line_here:
            recurse(lam_a, sol_a, val_a, lam_star, sol_s, val_s)
            recurse(lam_star, sol_s, val_s, lam_b, sol_b, val_b)
        else:
            emit(lam_a, lam_star, sol_a, val_a)
            emit(lam_star, lam_b, sol_b, val_b)

    if lam_lo == lam_hi:
        emit(lam_lo, lam_hi, lo_sol, lo_val)
    else:
        recurse(lam_lo, lo_sol, lo_val, lam_hi, hi_sol, hi_val)

    # merge consecutive pieces that share the same minimizer
    merged: List[SweepPiece] = []
    for p in pieces:
        if merged and merged[-1].minimizer.cells == p.minimizer.cells:
            last = merged.pop()
            p = SweepPiece(last.lam_lo, p.lam_hi, p.minimizer, p.value, p.volume)
        merged.append(p)

    for a, b in zip(merged, merged[1:]):
        if not b.minimizer.issubset(a.minimizer):
            raise AssertionError("parametric minimizers failed to nest")
    return merged
