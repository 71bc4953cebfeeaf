import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from conftest import as_raw, rand_measure, rand_submodular_pair, rand_weight
import naive
from perivar import (
    CellSet,
    Dirichlet,
    Face,
    FlowNetwork,
    FullSpace,
    GridDomain,
    MeasureData,
    NonSubmodularError,
    Region,
    Relative,
    SignedPair,
    add_volume_term,
    assemble,
    freeze,
    hyperplane_measure,
    max_flow,
    minimize,
    parametric_sweep,
    restrict,
    scale,
)
from perivar import maxflow
from perivar.energy import CLOSURE, INTERIOR, assemble_excess
from perivar.maxflow import MalformedNetworkError, _residual_reachable, augment

F = Fraction


def test_max_flow_diamond():
    a, b = 2, 3
    net = FlowNetwork(4, [(0, a, 3, 0), (0, b, 2, 0), (a, b, 1, 0), (a, 1, 2, 0), (b, 1, 3, 0)])
    result = max_flow(net)
    assert result.value == 5
    assert net.source in result.source_side
    assert net.sink not in result.source_side


def test_max_flow_equals_min_cut_enumerated(rng):
    for _ in range(30):
        nodes = [2, 3, 4, 5]
        everyone = [0, 1] + nodes
        net = FlowNetwork(6, [
            (u, v, rng.randint(0, 6), 0)
            for u in everyone
            for v in everyone
            if u != v and rng.random() < 0.4
        ])
        caps = list(net.cap)
        result = max_flow(net)
        # enumerate all s-t cuts
        best = min(
            naive.cut_capacity(
                net, frozenset({net.source}) | frozenset(side), caps
            )
            for r in range(len(nodes) + 1)
            for side in itertools.combinations(nodes, r)
        )
        assert result.value == best
        assert naive.cut_capacity(net, result.source_side, caps) == result.value


@pytest.mark.parametrize(
    "n_nodes, arcs, message",
    [
        (4, [(0, 2, 1, 0), (2, 2, 1, 0)], "self-loops"),
        (4, [(0, 2, 1, 0), (-1, 3, 1, 0)], "outside 0..3"),
        (4, [(0, 2, 1, 0), (3, 4, 1, 0)], "outside 0..3"),
        (4, [(0, 2, 1, 0), (2, 1, -1, 0)], "nonnegative"),
        (4, [(0, 2, 1, 0), (2, 1, 1, -1)], "nonnegative"),
        (1, [], "a source and a sink"),
    ],
)
def test_network_rejects_malformed_input(n_nodes, arcs, message):
    with pytest.raises(MalformedNetworkError, match=message):
        FlowNetwork(n_nodes, arcs)


def _path(n, caps, last):
    """Network of one path 0 -> 2 -> 3 -> ... -> n + 1 -> 1 with the given
    capacities along its first n arcs and ``last`` into the sink."""
    arcs = [(v - 1 if v > 2 else 0, v, c, 0) for v, c in enumerate(caps, 2)]
    return FlowNetwork(n + 2, arcs + [(n + 1, 1, last, 0)])


def test_augment_long_path_without_recursion():
    net = _path(100_000, [2] * 100_000, 1)
    assert augment(net) == 1
    assert len(_residual_reachable(net)) == net.n_nodes - 1


def _grid_arcs(rng, dims):
    """(node count, arcs (u, v, cap, rev_cap)) of a random grid-shaped network.

    One node per cell, joined to its grid neighbours in a random direction,
    some arcs with a reverse capacity; source and sink are hubs joined to
    most cells.  Capacities are rationals with big numerators over
    denominators 1-7, about a tenth of them zero, cleared to integers.
    """
    cells = list(itertools.product(*(range(n) for n in dims)))
    node = {c: 2 + k for k, c in enumerate(cells)}

    def weight():
        return F(0) if rng.random() < 0.1 else F(rng.randint(1, 10**12), rng.randint(1, 7))

    raw = []
    for c in cells:
        if rng.random() < 0.8:
            raw.append((0, node[c], weight(), F(0)))
        if rng.random() < 0.8:
            raw.append((node[c], 1, weight(), F(0)))
        for axis, n in enumerate(dims):
            if c[axis] + 1 < n:
                u, v = node[c], node[c[:axis] + (c[axis] + 1,) + c[axis + 1:]]
                if rng.random() < 0.5:
                    u, v = v, u
                raw.append((u, v, weight(), weight() if rng.random() < 0.3 else F(0)))
    rng.shuffle(raw)
    den = math.lcm(*(w.denominator for arc in raw for w in arc[2:]))
    return 2 + len(cells), [(u, v, int(c * den), int(r * den)) for u, v, c, r in raw]


GRID_DIMS = ((4, 5), (6, 6), (9, 2), (3, 3, 3), (2, 4, 3))


def test_augment_matches_dinic_on_grid_networks(rng):
    for dims in GRID_DIMS:
        for _ in range(4):
            n, arcs = _grid_arcs(rng, dims)
            net, ref = FlowNetwork(n, arcs), FlowNetwork(n, arcs)
            assert augment(net) == naive.dinic_augment(ref)
            assert _residual_reachable(net) == _residual_reachable(ref)

            # the excess sweep's probes: push from each cell in turn to the
            # sink and the cells before it, then flag it; the flow each
            # probe adds does not depend on which maximum flows came before
            sinks = [v == net.sink for v in range(n)]
            cells = list(range(2, n))
            rng.shuffle(cells)
            for v in cells:
                assert augment(net, v, sinks) == naive.dinic_augment(ref, v, sinks)
                sinks[v] = True


def test_augment_scratch_state_is_reset_between_calls(rng):
    # one network serves 30 calls from varying sources to varying flag
    # sets; each call acts exactly as on a fresh network with the same
    # residual capacities
    n, arcs = _grid_arcs(rng, (4, 4))
    net = FlowNetwork(n, arcs)
    for step in range(30):
        source = sinks = None
        if step % 3:
            source = rng.randrange(n)
        if source is not None or rng.random() < 0.5:
            others = [v for v in range(n) if v != source]
            flagged = set(rng.sample(others, rng.randint(1, 3)))
            sinks = [v in flagged for v in range(n)]
        fresh = FlowNetwork(n, arcs)
        fresh.cap[:] = net.cap
        assert augment(net, source, sinks) == augment(fresh, source, sinks)
        assert net.cap == fresh.cap
        tree, _, active = net._search[:3]  # as the call left them
        assert len(tree) == n and not any(tree) and not any(active)


def _net_outflow(net, caps):
    """Net flow out of each node, read off the residual against ``caps``,
    the capacities as built: arc 2k carries caps[2k] - cap[2k]."""
    out = [0] * net.n_nodes
    for a in range(0, len(caps), 2):
        flow = caps[a] - net.cap[a]
        out[net.to[a ^ 1]] += flow
        out[net.to[a]] -= flow
    return out


def test_augment_stops_at_its_limit(rng):
    # a limit at or above the maximum changes nothing; a lower one ends the
    # call once the flow added reaches it, leaving a valid flow that a call
    # without a limit completes to the same maximum
    stopped = 0
    for trial in range(120):
        n = rng.randint(4, 9)
        arcs = [
            (u, v, rng.randint(0, 5), rng.choice([0, 0, 2]))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        if trial % 2:
            source, sinks, flagged = None, None, {FlowNetwork.sink}
        else:
            source = rng.randrange(n)
            flagged = set(rng.sample([v for v in range(n) if v != source], rng.randint(1, 3)))
            sinks = [v in flagged for v in range(n)]
        most = naive.dinic_augment(FlowNetwork(n, arcs), source, sinks)
        start = FlowNetwork.source if source is None else source
        for limit in (1, rng.randint(1, most + 1), most, most + 3):
            net = FlowNetwork(n, arcs)
            caps = list(net.cap)
            added = augment(net, source, sinks, limit=limit)
            if limit >= most:
                assert added == most
            else:
                assert limit <= added <= most
                stopped += added < most
            assert min(net.cap, default=0) >= 0
            out = _net_outflow(net, caps)
            assert out[start] == added
            assert not any(out[v] for v in range(n) if v != start and v not in flagged)
            tree, _, active = net._search[:3]
            assert not any(tree) and not any(active)
            assert added + augment(net, source, sinks) == most
    assert stopped


def test_augment_allocates_for_the_nodes_it_touches_only():
    # the scratch arrays are sized once per network: a later call that
    # touches a handful of nodes allocates no per-node array
    net = _path(100_000, [1] + [2] * 99_999, 2)
    u = net.n_nodes - 1
    assert augment(net) == 1
    sinks = [False] * net.n_nodes
    sinks[net.sink] = sinks[u - 2] = True
    tracemalloc.start()
    try:
        assert augment(net) == 0  # the source arc is saturated
        assert augment(net, u, sinks) == 2  # to the sink, and back to u - 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _cut_value(net, side, caps):
    """Capacity of every arc (reverse arcs included) leaving ``side``."""
    return sum(
        caps[i]
        for i in range(len(caps))
        if net.to[i ^ 1] in side and net.to[i] not in side
    )


def test_augment_with_sink_flags_matches_networkx(rng):
    nx = pytest.importorskip("networkx")

    def nx_value(net, caps, source, flagged):
        g = nx.DiGraph()
        g.add_nodes_from(range(net.n_nodes))
        for i, c in enumerate(caps):
            u, v = net.to[i ^ 1], net.to[i]
            if g.has_edge(u, v):
                g[u][v]["capacity"] += c
            else:
                g.add_edge(u, v, capacity=c)
        for v in flagged:
            g.add_edge(v, "super-sink")  # no capacity attribute: unbounded
        return nx.maximum_flow_value(g, source, "super-sink")

    for _ in range(60):
        net = FlowNetwork(7, [
            (u, v, rng.randint(0, 6), rng.choice([0, 0, 2]))
            for u in range(7)
            for v in range(7)
            if u != v and rng.random() < 0.35
        ])
        caps = list(net.cap)
        source = rng.randrange(net.n_nodes)
        others = [v for v in range(net.n_nodes) if v != source]
        rng.shuffle(others)
        flagged = set(others[: rng.randint(1, 3)])
        sinks = [v in flagged for v in range(net.n_nodes)]
        total = augment(net, source, sinks)
        assert total == nx_value(net, caps, source, flagged)

        # the residual reach is the intersection of all minimum cuts
        free = [v for v in others if v not in flagged]
        cuts = [
            frozenset({source, *side})
            for r in range(len(free) + 1)
            for side in itertools.combinations(free, r)
        ]
        assert min(_cut_value(net, S, caps) for S in cuts) == total
        reach = _residual_reachable(net, source)
        assert reach == frozenset.intersection(
            *(S for S in cuts if _cut_value(net, S, caps) == total)
        )

        # flagging one more node keeps the flow: the totals add up
        extra = others[len(flagged)]
        flagged.add(extra)
        sinks[extra] = True
        total += augment(net, source, sinks)
        assert total == nx_value(net, caps, source, flagged)


DENS = (1, 2, 3, 5, 7)


def test_minimize_matches_exhaustive(rng):
    for _ in range(40):
        d = GridDomain(rng.choice([(3, 3), (4, 2), (2, 2, 2), (6,)]))
        pair = rand_submodular_pair(rng, d, dens=DENS)
        energy = assemble(pair, FullSpace())
        sol, val = minimize(energy)
        pf, pc = as_raw(pair.plus)
        mf, mc = as_raw(pair.minus)
        best, argmins = naive.minimize_over(
            d.dims, d.cells(), frozenset(), pf, pc, mf, mc
        )
        assert val == best
        assert sol.cells in argmins


def test_minimize_returns_canonical_minimal_argmin(rng):
    # the returned minimizer is the intersection of all optimal sets
    for _ in range(25):
        d = GridDomain(rng.choice([(3, 3), (4, 2)]))
        pair = rand_submodular_pair(rng, d, dens=DENS)
        energy = assemble(pair, FullSpace())
        sol, val = minimize(energy)
        pf, pc = as_raw(pair.plus)
        mf, mc = as_raw(pair.minus)
        _, argmins = naive.minimize_over(
            d.dims, d.cells(), frozenset(), pf, pc, mf, mc
        )
        assert sol.cells == frozenset.intersection(*argmins)


@pytest.mark.parametrize("weight", [F(1, 2), F(3, 4), F(5, 3)])
def test_minimize_pinned_modes_across_denominators(rng, weight):
    # perimeter weight and measure weights over several denominators, in
    # every mode, with obstacle pins folded in by freeze
    d = GridDomain((3, 3))
    omega = Region.of(d, CellSet.box(d, (0, 0), (1, 2)).cells)
    a0 = CellSet.of(d, [(2, 0), (2, 1)])
    modes = [
        (FullSpace(), None),
        (Relative(omega=omega), omega.interior_faces()),
        (Dirichlet(a0=a0, omega=omega), omega.closure_faces()),
    ]
    for mode, perim in modes:
        for _ in range(8):
            pair = rand_submodular_pair(rng, d, dens=DENS)
            # faces carry <= 2 * weight, so the energy stays submodular
            plus, minus = scale(pair.plus, weight), scale(pair.minus, weight)
            if isinstance(mode, Dirichlet):
                plus, minus = restrict(plus, omega.cell_set()), restrict(minus, omega.cell_set())
            pair = SignedPair(plus, minus)
            energy = assemble(pair, mode, weight)
            pins = {c: rng.random() < 0.5 for c in rng.sample(energy.free_cells, 2)}
            sol, val = minimize(freeze(energy, pins))
            pf, pc = as_raw(pair.plus)
            mf, mc = as_raw(pair.minus)
            best, argmins = naive.minimize_over(
                d.dims,
                [c for c in energy.free_cells if c not in pins],
                energy.frozen_ones() | {c for c, v in pins.items() if v},
                pf, pc, mf, mc,
                None if perim is None else [(f.axis, f.slot, f.at) for f in perim],
                weight,
            )
            assert val == best
            assert sol.cells == frozenset.intersection(*argmins)


def test_minimize_self_check_catches_a_wrong_cut_value(monkeypatch):
    d = GridDomain((3, 3))
    energy = assemble(SignedPair.of(d, minus=hyperplane_measure(d, 1, 1, F(5, 3))), FullSpace())
    monkeypatch.setattr(maxflow, "augment", lambda net: augment(net) + 1)
    with pytest.raises(AssertionError):
        minimize(energy)


def _rich_pair(rng, d, weight):
    """Signed pair with a mass on about half the cells and a third of the
    faces, each face on one side only and at most 2 * weight, so the
    energy at perimeter weight ``weight`` stays submodular."""
    sides = ({}, {}), ({}, {})  # (plus, minus) x (cells, faces)
    for c in d.cells():
        if rng.random() < 0.5:
            sides[rng.random() < 0.5][0][c] = rand_weight(rng, 0, 3, DENS)
    for f in d.faces():
        if rng.random() < 0.3:
            sides[rng.random() < 0.5][1][f] = rand_weight(rng, 0, 2, DENS) * weight
    plus, minus = (MeasureData(d, cell_weights=cw, face_weights=fw) for cw, fw in sides)
    return SignedPair(plus, minus)


def _cut_energies(rng, dims_pool, rounds):
    """(energy, reference) over every kind of energy ``_cut_network`` prices.

    The kinds take turns: the functional in FullSpace, Relative and
    Dirichlet modes, the same with obstacle cells frozen through
    ``freeze``, and ``assemble_excess`` with a cell penalty and, on some,
    a region ``within``.  ``reference()`` enumerates with ``naive`` and
    returns the least value and every minimizer, frozen cells included.
    """
    for t in range(rounds):
        dims = rng.choice(dims_pool)
        d = GridDomain(dims)
        cells = d.cells()
        omega = Region.of(d, [c for c in cells if rng.random() < 0.7] or cells[:1])
        kind = t % 5
        if kind == 4:
            mu = rand_measure(rng, d, n_faces=d.face_count // 3, n_cells=d.cell_count // 3, hi=3)
            C = rand_weight(rng, 1, 2, DENS)
            pen = rng.choice([F(0), rand_weight(rng, 0, 1, DENS)])
            within = omega if rng.random() < 0.5 else None
            # closure mass on a face left uncharged would break submodularity
            rep = CLOSURE if within is None else INTERIOR
            admissible = sorted(rng.sample(cells, max(1, len(cells) * 3 // 4)))
            capped = {f: min(w, 2 * C) for f, w in mu.face_weights.items()}
            mu = MeasureData(d, mu.cell_weights, capped)
            energy = assemble_excess(mu, admissible, C, rep=rep, within=within, cell_penalty=pen)

            def reference(d=d, mu=mu, C=C, pen=pen, within=within, rep=rep, admissible=admissible):
                charged = None if within is None else [
                    (f.axis, f.slot, f.at) for f in within.interior_faces()
                ]
                fw, cw = as_raw(mu)
                best, maximizers = naive.excess_maximizers(
                    d.dims, fw, cw, C, pen, "closure" if rep == CLOSURE else "interior",
                    admissible, charged,
                )
                if best < 0:
                    return F(0), [frozenset()]
                return -best, maximizers + [frozenset()] * (best == 0)
        else:
            weight = rng.choice([F(1), F(1, 2), F(5, 3)])
            pair = _rich_pair(rng, d, weight)
            mode, perim = (
                (FullSpace(), None),
                (Relative(omega=omega), omega.interior_faces()),
                (Dirichlet(a0=CellSet.of(d, rng.sample(cells, len(cells) // 2)), omega=omega),
                 omega.closure_faces()),
            )[t % 3]
            if isinstance(mode, Dirichlet):
                keep = omega.cell_set()
                pair = SignedPair(restrict(pair.plus, keep), restrict(pair.minus, keep))
            energy = assemble(pair, mode, weight)
            if kind == 3:
                pins = rng.sample(energy.free_cells, 2)
                energy = freeze(energy, {c: rng.random() < 0.5 for c in pins})

            def reference(d=d, energy=energy, pair=pair, perim=perim, weight=weight):
                pf, pc = as_raw(pair.plus)
                mf, mc = as_raw(pair.minus)
                raw_perim = None if perim is None else [(f.axis, f.slot, f.at) for f in perim]
                return naive.minimize_over(
                    d.dims, energy.free_cells, energy.frozen_ones(),
                    pf, pc, mf, mc, raw_perim, weight,
                )
        yield energy, reference


WARM_SMALL = ((12,), (3, 4), (2, 5), (2, 2, 3))
WARM_LARGE = ((60,), (14, 11), (5, 6, 4))


def _pristine(energy):
    """``_cut_network``'s network and base without the warm start."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxflow, "_preflow", lambda net: 0)
        return maxflow._cut_network(energy)


def test_cut_network_carries_a_valid_flow(rng):
    for energy, _ in _cut_energies(rng, WARM_SMALL + WARM_LARGE, 70):
        bare, bare_base = _pristine(energy)
        net, base = maxflow._cut_network(energy)
        assert (net.to, net.adj) == (bare.to, bare.adj)
        src, snk = net.source, net.sink
        inflow = [0] * net.n_nodes
        outflow = [0] * net.n_nodes
        for a in range(0, len(net.to), 2):
            u, v = net.to[a ^ 1], net.to[a]
            # every inner arc runs downhill: the preflow's pass order rests on it
            assert u == src or v == snk or u > v > snk
            assert bare.cap[a ^ 1] == 0  # so the flow on a is the reverse residual
            assert net.cap[a] >= 0 and net.cap[a ^ 1] >= 0
            assert net.cap[a] + net.cap[a ^ 1] == bare.cap[a]
            outflow[u] += net.cap[a ^ 1]
            inflow[v] += net.cap[a ^ 1]
        assert inflow[2:] == outflow[2:]
        assert outflow[src] == inflow[snk] == base - bare_base


def test_cut_network_lists_each_node_terminal_arc_first(rng):
    # _preflow sends each node's inflow down its arcs in adjacency order:
    # arcs ascend, and an inner node's terminal arc, if any, comes first
    for energy, _ in _cut_energies(rng, WARM_SMALL + WARM_LARGE, 30):
        net, _ = maxflow._cut_network(energy)
        terminal = {}  # inner node -> the arc it holds to or from a terminal
        for a in range(0, len(net.to), 2):
            u, v = net.to[a ^ 1], net.to[a]
            if u == net.source:
                terminal[v] = a + 1  # the inner node holds the reverse arc
            elif v == net.sink:
                terminal[u] = a
        for v, arcs in enumerate(net.adj):
            assert arcs == sorted(arcs)
            if v in terminal:
                assert arcs[0] == terminal[v]


def test_warm_minimize_matches_enumeration_and_dinic(rng):
    for energy, reference in _cut_energies(rng, WARM_SMALL, 50):
        best, argmins = reference()
        sol, val = minimize(energy)
        assert val == best
        assert sol.cells == frozenset.intersection(*argmins)
    for energy, _ in _cut_energies(rng, WARM_LARGE, 25):
        net, base = _pristine(energy)
        value = base + naive.dinic_augment(net)
        free = energy.free_cells
        cut = frozenset(free[v - 2] for v in _residual_reachable(net) if v > 1)
        sol, val = minimize(energy)
        assert val == F(value, energy.den)
        assert sol == energy.full_set(cut)


def test_minimize_self_check_catches_an_overstated_preflow(monkeypatch):
    d = GridDomain((3, 3))
    energy = assemble(SignedPair.of(d, minus=hyperplane_measure(d, 1, 1, F(5, 3))), FullSpace())
    preflow = maxflow._preflow
    monkeypatch.setattr(maxflow, "_preflow", lambda net: preflow(net) + 1)
    with pytest.raises(AssertionError, match="cut value and energy of the minimizer disagree"):
        minimize(energy)


def test_minimize_rejects_non_submodular():
    d = GridDomain((3, 3))
    f = Face(0, 1, (1,))
    pair = SignedPair(
        MeasureData(d, face_weights={f: F(2)}),
        MeasureData(d, face_weights={f: F(2)}),
    )
    with pytest.raises(NonSubmodularError) as exc:
        minimize(assemble(pair, FullSpace()))
    assert exc.value.report.violations


def test_parametric_sweep_nested_and_exact(rng, monkeypatch):
    # every cell is free, so cell 0's cost in tells which lam a solve priced
    solved = []
    real = maxflow.minimize
    monkeypatch.setattr(
        maxflow, "minimize", lambda e: solved.append(F(e.u[0], e.den)) or real(e)
    )
    interior = 0
    for _ in range(10):
        d = GridDomain((3, 3))
        pair = rand_submodular_pair(rng, d)
        energy = assemble(pair, FullSpace())
        ranges = [(F(-4), F(4))]
        full = parametric_sweep(energy, F(-4), F(4))
        if len(full) > 1:  # also sweep up to and on from an interior breakpoint
            mid = rng.choice(full[:-1]).lam_hi
            ranges += [(F(-4), mid), (mid, F(4))]
            interior += 1
        for lam_lo, lam_hi in ranges:
            solved.clear()
            pieces = parametric_sweep(energy, lam_lo, lam_hi)
            assert len(set(solved)) == len(solved), "a lambda was solved twice"
            assert (pieces[0].lam_lo, pieces[-1].lam_hi) == (lam_lo, lam_hi)
            assert pieces[0].volume >= pieces[-1].volume
            for a, b in zip(pieces, pieces[1:]):
                assert a.lam_hi == b.lam_lo
                assert b.minimizer.issubset(a.minimizer)
                assert a.volume > b.volume
            for piece in pieces:
                for lam in (piece.lam_lo, (piece.lam_lo + piece.lam_hi) / 2, piece.lam_hi):
                    sol, val = minimize(add_volume_term(energy, lam))
                    assert val == piece.value + lam * piece.volume
    assert interior
