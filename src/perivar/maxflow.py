"""Exact integer max-flow/min-cut and the graph-cut energy minimizer.

The solver is Boykov and Kolmogorov's search-tree max-flow on
arbitrary-precision integers: no capacity is ever rounded, so thresholds
like theta = 1 or w = 2 stay exact.  A ``FlowNetwork`` is built once,
from its whole arc list.  ``augment`` pushes from any node to any set of
flagged sink nodes, keeping the flow already present.  Its source tree,
and for a full solve a sink tree, persist across augmentations; orphaned
subtrees are re-adopted from a queue, so no flow code recurses.  The
trees live in per-network arrays, sized with the network and reset
through the nodes each call touched, so a call that stays local (one
probe of the excess sweep) costs what it touches, not the network.
The maximum flow found is one of many; the canonical minimum cut is the
set of nodes reachable from the source in the residual graph (the unique
inclusion-minimal one), the same for every maximum flow, which makes
every cut deterministic and reproducible.

``minimize`` reduces a submodular ``BinaryEnergy`` to a min cut over the
energy's integers (all over its one denominator), reads the value off the
cut and cross-checks it against an integer evaluation of the minimizer;
``parametric_sweep`` traces the breakpoints of ``min_A E(A) + lam * |A|``
and the nested chain of minimizers.  Its breakpoint search,
``_breakpoints``, also serves ``ic.small_volume_profile``'s Lagrangian
envelope; it keeps its pending intervals on a stack.

Every inner arc of the network ``_cut_network`` builds runs from a higher
node to a lower one, so it ends with a warm start, ``_preflow``: one
greedy pass down the node order and one back up leave a valid flow, most
of a maximum one on grid energies, which ``augment`` completes.  Every
``minimize`` caller and ``ic.strong_excess``'s first flow get it.  No
answer moves: the value is base plus the total flow, and the
inclusion-minimal cut, the maximal one and the most each of the excess
sweep's probes can add are the same for every maximum flow.
``ic.divergence_certificate`` builds its own arc list and decodes its
field from whichever flow it gets, so it takes no warm start.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import List, Optional, Sequence, Tuple

from .energy import (
    BinaryEnergy,
    SubmodularityReport,
    _total,
    add_volume_term,
    check_submodular,
)
from .grid import CellSet
from .measure import _as_weight


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

    Node 0 is the source, node 1 the sink.  The shape is fixed at
    construction: arc k of ``arcs``, a tuple (tail, head, cap, rev_cap), is
    arc 2k and its reverse arc 2k + 1, so arc i and arc i^1 are reverses of
    each other; each node lists its arcs in arc order.  The lists are
    checked once: at least two nodes, node ids in range, no self-loop, no
    negative capacity.
    """

    source = 0
    sink = 1

    def __init__(self, n_nodes: int, arcs: Sequence[Tuple[int, int, int, int]]):
        tails, heads, caps, rev_caps = zip(*arcs) if arcs else ((),) * 4
        ends = tails + heads
        if n_nodes < 2:
            raise MalformedNetworkError("a network needs a source and a sink")
        if any(map(eq, tails, heads)):
            raise MalformedNetworkError("self-loops are not allowed")
        if min(ends, default=0) < 0 or max(ends, default=0) >= n_nodes:
            raise MalformedNetworkError(f"an arc references a node outside 0..{n_nodes - 1}")
        if min(caps + rev_caps, default=0) < 0:
            raise MalformedNetworkError("capacities must be nonnegative")
        self.n_nodes = n_nodes
        self.to = [0, 0] * len(tails)
        self.to[::2], self.to[1::2] = heads, tails
        self.cap = [0, 0] * len(tails)
        self.cap[::2], self.cap[1::2] = caps, rev_caps
        self.adj = adj = [[] for _ in range(n_nodes)]
        for a, u, v in zip(range(0, len(self.to), 2), tails, heads):
            adj[u].append(a)
            adj[v].append(a + 1)
        # augment's scratch: side (0 free, 1 source tree, 2 sink tree), parent
        # arc, queued side, timestamp, distance to the root, and the default
        # sink flags; between calls every side and queued side is 0
        self._search = (*([0] * n_nodes for _ in range(5)), [0, 1] + [0] * (n_nodes - 2))


@dataclass(frozen=True)
class CutResult:
    """Max-flow value and the canonical (inclusion-minimal) source side."""

    value: int
    source_side: frozenset


_S, _T = 1, 2  # search-tree sides; 0 is a free node
_TERMINAL = -1  # parent of a tree's root
_ORPHAN = -2  # parent of a node whose parent arc an augmentation saturated
_FAR = 1 << 62  # distance of a node that hangs below an orphan


def augment(
    net: FlowNetwork, source: Optional[int] = None, sinks: Optional[list] = None,
    *, limit: Optional[int] = None,
) -> int:
    """Push flow from ``source`` until no residual path reaches a sink node.

    ``sinks`` holds one flag per node; a flagged node absorbs any amount of
    flow.  By default flow runs from the network's source to its sink.  Flow
    already in the network stays, so repeated calls resolve incrementally.
    Returns the flow added, or, given a ``limit``, returns once that reaches
    the limit: a value between the limit and the maximum, with a valid flow
    left behind (each push runs along a whole path) that a later call ends.

    Boykov-Kolmogorov search trees, kept across augmentations: a source
    tree grows from ``source`` over residual arcs until it meets a sink.  A
    sink tree grows from the network's sink over reverse residual arcs only
    when the flow runs from the network's source; a probe from an inner
    node (the excess sweep) grows its source tree alone, since expanding
    the sink, a hub next to most cells, would cost a pass over the cells
    per probe.  Every other flagged node is a passive root that the source
    tree meets.  An augmentation orphans each node whose parent arc it
    saturates; an orphan is adopted by the tree neighbour nearest its root
    (distances carry timestamps, so each path is verified once per
    augmentation) or freed, its children orphaned in turn, with a queue in
    place of recursion.  The call ends when the source tree has no active
    node left.  The trees live in the network's scratch arrays, sized when
    it was built, which the call resets through the nodes it touched.
    """
    tree, parent, active, ts, dist, sink_only = net._search
    adj, to, cap = net.adj, net.to, net.cap
    s = net.source if source is None else source
    if sinks is None:
        sinks = sink_only
    if sinks[s]:
        return 0
    queues = (None, deque([s]), deque())  # active nodes, indexed by side
    s_queue, t_queue = queues[_S], queues[_T]
    tree[s], parent[s], active[s], ts[s], dist[s] = _S, _TERMINAL, _S, 0, 1
    touched = [s]
    t = net.sink
    if s == net.source and sinks[t]:
        tree[t], parent[t], active[t], ts[t], dist[t] = _T, _TERMINAL, _T, 0, 1
        touched.append(t)
        t_queue.append(t)
    orphans: deque = deque()
    time = added = 0
    try:
        while s_queue:
            i = s_queue[0]
            if tree[i] != _S:  # freed since it was queued
                s_queue.popleft()
                if active[i] == _S:
                    active[i] = 0
                continue
            bridge = -1  # an arc from the source tree to the sink tree or a flagged node
            for a in adj[i]:
                if cap[a]:
                    j = to[a]
                    tj = tree[j]
                    if tj == _S:
                        if ts[j] <= ts[i] and dist[j] > dist[i]:
                            parent[j], ts[j], dist[j] = a ^ 1, ts[i], dist[i] + 1
                    elif tj or sinks[j]:
                        bridge = a
                        break
                    else:
                        tree[j], parent[j], ts[j], dist[j] = _S, a ^ 1, ts[i], dist[i] + 1
                        touched.append(j)
                        if active[j] != _S:
                            active[j] = _S
                            s_queue.append(j)
            else:
                s_queue.popleft()
                active[i] = 0

            if bridge < 0 and t_queue:
                i = t_queue[0]
                if tree[i] != _T:
                    t_queue.popleft()
                    if active[i] == _T:
                        active[i] = 0
                else:
                    for a in adj[i]:
                        b = a ^ 1
                        if cap[b]:
                            j = to[a]
                            tj = tree[j]
                            if tj == _T:
                                if ts[j] <= ts[i] and dist[j] > dist[i]:
                                    parent[j], ts[j], dist[j] = b, ts[i], dist[i] + 1
                            elif tj:
                                bridge = b
                                break
                            else:
                                tree[j], parent[j], ts[j], dist[j] = _T, b, ts[i], dist[i] + 1
                                touched.append(j)
                                if active[j] != _T:
                                    active[j] = _T
                                    t_queue.append(j)
                    else:
                        t_queue.popleft()
                        active[i] = 0
            if bridge < 0:
                continue

            # push the bottleneck along source tree, bridge and sink tree;
            # a parent arc is v -> parent, so the source side flows on its reverse
            time += 1
            u, v = to[bridge ^ 1], to[bridge]
            push = cap[bridge]
            x = u
            while x != s:
                p = parent[x]
                if cap[p ^ 1] < push:
                    push = cap[p ^ 1]
                x = to[p]
            x = v
            while not sinks[x]:
                p = parent[x]
                if cap[p] < push:
                    push = cap[p]
                x = to[p]
            cap[bridge] -= push
            cap[bridge ^ 1] += push
            x = u
            while x != s:
                p = parent[x]
                cap[p] += push
                cap[p ^ 1] -= push
                if not cap[p ^ 1]:
                    parent[x] = _ORPHAN
                    orphans.append(x)
                x = to[p]
            x = v
            while not sinks[x]:
                p = parent[x]
                cap[p ^ 1] += push
                cap[p] -= push
                if not cap[p]:
                    parent[x] = _ORPHAN
                    orphans.append(x)
                x = to[p]
            added += push
            if limit is not None and added >= limit:
                return added

            # adopt the orphans: an arc a = i -> j can be i's parent arc when
            # the flow direction of i's side, cap[a ^ flip], is residual
            while orphans:
                i = orphans.popleft()
                side = tree[i]
                flip = 1 if side == _S else 0
                best, best_d = -1, _FAR
                for a in adj[i]:
                    if cap[a ^ flip] and tree[to[a]] == side:
                        j = k = to[a]
                        d = 0
                        while ts[k] != time:
                            p = parent[k]
                            d += 1
                            if p == _TERMINAL:
                                ts[k], dist[k] = time, 1
                                break
                            if p == _ORPHAN:
                                d = _FAR
                                break
                            k = to[p]
                        else:
                            d += dist[k]
                        if d < _FAR:
                            if d < best_d:
                                best, best_d = a, d
                            while ts[j] != time:
                                ts[j], dist[j] = time, d
                                d -= 1
                                j = to[parent[j]]
                if best >= 0:
                    parent[i], ts[i], dist[i] = best, time, best_d + 1
                    continue
                tree[i] = 0
                for a in adj[i]:
                    j = to[a]
                    if tree[j] == side:
                        if cap[a ^ flip] and active[j] != side:
                            active[j] = side
                            queues[side].append(j)
                        p = parent[j]
                        if p >= 0 and to[p] == i:
                            parent[j] = _ORPHAN
                            orphans.append(j)
        return added
    finally:
        for v in touched:
            tree[v] = active[v] = 0


def max_flow(net: FlowNetwork) -> CutResult:
    """A maximum flow with the canonical minimal min cut.

    Flow already in the network stays, and the value counts only the flow
    this call adds: for a freshly built network that is the whole
    maximum flow, while ``_cut_network``'s warm start is counted in its
    base.  The flow left in the network is whichever maximum flow
    ``augment`` completes, not a canonical one; the total and the cut are
    unique.
    """
    value = augment(net)
    return CutResult(value=value, source_side=frozenset(_residual_reachable(net)))


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


def _maximal_source_side(net: FlowNetwork) -> frozenset:
    """Nodes of the inclusion-maximal min cut (complement of sink-reaching)."""
    reaching = {net.sink}
    stack = [net.sink]
    while stack:
        v = stack.pop()
        for i in net.adj[v]:
            u = net.to[i]
            # arc u -> v is i^1; it is residual if cap[i^1] > 0
            if net.cap[i ^ 1] > 0 and u not in reaching:
                reaching.add(u)
                stack.append(u)
    return frozenset(range(net.n_nodes)) - reaching


def _cut_network(energy: BinaryEnergy):
    """Network whose cuts price a submodular energy, carrying a flow: (net, base).

    Free cell k (``energy.free_cells[k]``) is node k + 2, and every inner
    arc runs from the higher of its two nodes to the lower.  The network
    already carries ``_preflow``'s flow, and base includes its value, so
    base plus the flow ``augment`` adds is den * min E.  A cut with source
    side {source} + the nodes of A has capacity den * E(A) - base in the
    residual, as the flow already crosses it in full.
    """
    free = energy.free_index
    node = [0] * len(energy.state)
    for v, i in enumerate(free, 2):
        node[i] = v

    # theta = e01 x_lo + (e11-e01) x_hi + (2 e01 - e11) (1-x_lo) x_hi:
    # gain is the net cost of labeling a cell 1; base collects the constant,
    # then each negative gain, which its source arc pays back
    base = energy.constant
    gain = list(energy.u)
    pairs = []
    for i, j, e01, e11 in zip(energy.lo, energy.hi, energy.e01, energy.e11):
        gain[i] += e01
        gain[j] += e11 - e01
        coeff = 2 * e01 - e11
        if coeff:
            pairs.append((node[j], node[i], coeff, 0))

    arcs = []  # terminal arcs first: _preflow pushes down each terminal arc first
    for v, i in enumerate(free, 2):
        g = gain[i]
        if g > 0:
            arcs.append((v, 1, g, 0))
        elif g < 0:
            arcs.append((0, v, -g, 0))
            base += g
    net = FlowNetwork(len(free) + 2, arcs + pairs)
    return net, base + _preflow(net)


def _preflow(net: FlowNetwork) -> int:
    """Route a greedy flow through a fresh network; returns its value.

    Every arc must run from the source, into the sink, or from a higher
    inner node to a lower one, each built with zero reverse capacity, so
    the inner arcs form a DAG in descending node order.  Pass 1 visits the
    nodes downhill: each saturates its source arc, adds what came in from
    above and sends it on down its out-arcs in adjacency order, which in
    ``_cut_network`` puts the terminal arc first.  Pass 2 visits them
    uphill and hands any excess left stuck back along its inflows, which
    end at the source.  The result is a valid flow, usually most of a
    maximum one; ``augment`` completes it.  O(n + m), in two loops.
    """
    adj, to, cap = net.adj, net.to, net.cap
    source = net.source
    excess = [0] * net.n_nodes  # the sink's entry collects the value
    for v in range(net.n_nodes - 1, 1, -1):
        e = excess[v]
        for a in adj[v]:
            if a & 1:
                if to[a] == source:  # the reverse of v's source arc
                    e += cap[a ^ 1]
                    cap[a] += cap[a ^ 1]
                    cap[a ^ 1] = 0
            elif e:
                c = cap[a]
                if c:
                    push = e if e < c else c
                    cap[a] = c - push
                    cap[a ^ 1] += push
                    excess[to[a]] += push
                    e -= push
        excess[v] = e
    for v in range(2, net.n_nodes):
        e = excess[v]
        if e:
            for a in adj[v]:
                if a & 1:
                    c = cap[a]  # the flow into v on a ^ 1
                    if c:
                        push = e if e < c else c
                        cap[a] = c - push
                        cap[a ^ 1] += push
                        excess[to[a]] += push
                        e -= push
                        if not e:
                            break
    return excess[net.sink]


def minimize(energy: BinaryEnergy) -> Tuple[CellSet, Fraction]:
    """Global minimizer of a submodular energy via graph cut.

    Returns the canonical inclusion-minimal minimizer (as a full CellSet,
    frozen cells included) together with its exact value.  The network is
    built from the energy's integers; the value is read off the cut and
    checked against an integer evaluation of the returned set.  That tie
    rule is the min cut's own, not the least-rank rule of the DP and the
    oracle; no question goes to both, so no answer moves between them today.
    """
    report = check_submodular(energy)
    if not report.ok:
        raise NonSubmodularError(report)

    net, base = _cut_network(energy)
    value = base + augment(net)
    reach = _residual_reachable(net)
    free = energy.free_cells
    sol = energy.full_set(frozenset(free[v - 2] for v in reach if v > 1))
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


def _breakpoints(solve, lam_lo: Fraction, lam_hi: Fraction) -> list:
    """Eisner-Severance breakpoint search of lam -> min_A [value(A) + lam |A|].

    ``solve(lam)`` returns a minimizer A at lam, the same one for the same
    lam, and value(A) without the lam term.  Returns the samples
    ``(lam, A, value)`` in increasing lam, both ends included; two adjacent
    samples share a volume or have lines that cross at one of their lams.
    The leftmost unresolved pair is split at the crossing of its two lines
    when the minimizer there lies strictly below them; the pending right
    ends wait on a stack, so nothing recurses.  A crossing at a pair's end
    reuses that end's sample, which then appears twice.
    """
    first = (lam_lo, *solve(lam_lo))
    samples = [first]
    pending = [first if lam_hi == lam_lo else (lam_hi, *solve(lam_hi))]
    while pending:
        lam_a, set_a, val_a = left = samples[-1]
        lam_b, set_b, val_b = right = pending[-1]
        if set_a.volume != set_b.volume:
            lam = Fraction(val_b - val_a, set_a.volume - set_b.volume)
            mid = left if lam == lam_a else right if lam == lam_b else (lam, *solve(lam))
            _, set_m, val_m = mid
            if val_m + lam * set_m.volume < val_a + lam * set_a.volume:
                pending.append(mid)
                continue
            samples.append(mid)
        samples.append(pending.pop())
    return samples


def parametric_sweep(energy: BinaryEnergy, lam_lo, lam_hi) -> List[SweepPiece]:
    """All breakpoints of the value function over [lam_lo, lam_hi].

    One breakpoint search (``_breakpoints``) samples the canonical
    minimizers; each pair of adjacent samples bounds a piece, which takes
    the left sample's minimizer unless the two volumes agree.  The modular
    volume term preserves submodularity, and the canonical minimizers are
    nested: volumes shrink as lam grows (asserted).  The ends are ints or
    ``Fraction``s of either sign.
    """
    lam_lo = _as_weight(lam_lo, "lam_lo", signed=True)
    lam_hi = _as_weight(lam_hi, "lam_hi", signed=True)
    if lam_lo > lam_hi:
        raise ValueError("empty lambda range")

    def solve(lam: Fraction):
        sol, val = minimize(add_volume_term(energy, lam))
        return sol, val - lam * sol.volume

    samples = _breakpoints(solve, lam_lo, lam_hi)
    pieces: List[SweepPiece] = []
    for (lam_a, sol, val), (lam_b, sol_b, val_b) in zip(samples, samples[1:]):
        if sol.volume == sol_b.volume:
            sol, val = sol_b, val_b
        pieces.append(SweepPiece(lam_a, lam_b, sol, val, sol.volume))

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
