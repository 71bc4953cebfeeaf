"""Obstacle, Dirichlet, and prescribed-volume minimization.

All three problems minimize P(A) + mu_plus(A^1) - mu_minus(A+) over a
constrained class.  Obstacle and Dirichlet classes are lattices, so the
exact optimum comes from one graph cut.  The volume-constrained class is
not a lattice: it is exact within the DP budget (the frontier sweep of
``frontier``, or subset scan below the enumeration cap) and enveloped
beyond it, where a Lagrangian sweep gives exact answers at breakpoint
volumes and certified value brackets elsewhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .energy import (
    FREE,
    BinaryEnergy,
    Dirichlet,
    FullSpace,
    _numbers,
    _total,
    assemble,
    evaluate,
    flip_links,
    freeze,
)
from .frontier import FrontierBudgetExceeded, frontier_minimize
from .grid import CellSet, Region, _check_same_domain, _integer
from .maxflow import minimize, parametric_sweep
from .measure import MeasureData, SignedPair
from .oracle import _scan, resolve_cap


class EmptyClassError(ValueError):
    """The constraint class contains no sets (inner obstacle escapes outer)."""


@dataclass(frozen=True)
class SolveResult:
    minimizer: CellSet
    value: Fraction
    exactness: str  # 'exact' or 'envelope-bound'
    certificate: Optional[dict] = None

    @property
    def exact(self) -> bool:
        return self.exactness == "exact"


def _finish_exact(energy: BinaryEnergy) -> SolveResult:
    sol, val = minimize(energy)
    return SolveResult(minimizer=sol, value=val, exactness="exact")


def solve_obstacle(
    inner: CellSet,
    outer: CellSet,
    pair: SignedPair,
    region: Optional[Region] = None,
    *,
    perimeter_weight=Fraction(1),
) -> SolveResult:
    """Exact minimum over sets A with inner <= A <= outer.

    With a region, cells outside it are pinned to the inner obstacle and the
    perimeter runs over the region's closure faces; without one the whole
    grid is in play.
    """
    _check_same_domain(inner, outer, pair.plus)
    if not inner.issubset(outer):
        raise EmptyClassError("inner obstacle is not contained in the outer one")
    mode = FullSpace() if region is None else Dirichlet(a0=inner, omega=region)
    energy = assemble(pair, mode, perimeter_weight)
    state = energy.state
    frozen: Dict[tuple, bool] = {}
    for c, i in zip(inner.cells, _numbers(energy.domain, inner.cells)):
        if state[i] == FREE:
            frozen[c] = True
    excluded = outer.complement().cells
    for c, i in zip(excluded, _numbers(energy.domain, excluded)):
        s = state[i]
        if s == FREE:
            frozen[c] = False
        elif s:
            raise ValueError(
                f"cell {c} is pinned inside by the boundary datum but excluded "
                "by the outer obstacle"
            )
    return _finish_exact(freeze(energy, frozen))


def solve_dirichlet(
    a0: CellSet,
    omega: Region,
    pair: SignedPair,
    *,
    perimeter_weight=Fraction(1),
) -> SolveResult:
    """Exact minimum over sets agreeing with a0 outside omega."""
    return _finish_exact(assemble(pair, Dirichlet(a0=a0, omega=omega), perimeter_weight))


def _greedy_resize(energy: BinaryEnergy, start: CellSet, target: int) -> CellSet:
    """Move |A| to the target one best single-cell flip at a time.

    Each step takes the first cell, in sorted order, whose flip gives the
    strictly lowest energy.  Flips are scored by their integer delta from
    ``flip_links``, given which neighbours are in; a flip changes only its
    neighbours' deltas, and a heap keyed by (delta, k) skips stale entries.
    """
    gain, links = flip_links(energy)
    free = energy.free_cells
    inside = [c in start.cells for c in free]
    target -= energy.state.count(1)  # the frozen-in cells count in |A|
    steps = target - sum(inside)
    grow = steps > 0  # every flip moves |A| the same way
    delta = [None] * len(free)
    for k in range(len(free)):
        if inside[k] != grow:
            d = gain[k] + sum(c for other, c in links[k] if inside[other])
            delta[k] = d if grow else -d
    heap = [(d, k) for k, d in enumerate(delta) if d is not None]
    heapq.heapify(heap)
    for _ in range(abs(steps)):
        while heap and heap[0][0] != delta[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            raise EmptyClassError("no free cells left to reach the target volume")
        _, k = heapq.heappop(heap)
        inside[k], delta[k] = grow, None
        for other, c in links[k]:  # either way, other's delta rises by c
            if delta[other] is not None:
                delta[other] += c
                heapq.heappush(heap, (delta[other], other))
    return energy.full_set(frozenset(c for c, x in zip(free, inside) if x))


def solve_volume(
    v: int,
    mu_minus: MeasureData,
    region: Optional[Region] = None,
    *,
    exhaustive_cap: Optional[int] = None,
) -> SolveResult:
    """Minimum of P(A) - mu_minus(A+) over sets of volume exactly v.

    Exact within the DP budget, enveloped beyond it.  The frontier sweep
    steps once per free cell, costing about n x 2**W x (v + 1) for n free
    cells and a window W (the cross-section on a full grid); it runs when
    that fits in 2**cap and in memory, subset enumeration when the n cells
    fit under the cap instead.  Beyond both the answer is exact when v is
    a breakpoint volume of the Lagrangian sweep; otherwise it is the best
    repaired feasible set with a certified lower bound (exactness
    'envelope-bound').
    """
    domain = mu_minus.domain
    v = _integer(v, "the volume")
    pair = SignedPair(MeasureData.zero(domain), mu_minus)
    if region is None:
        mode = FullSpace()
        free_cells = frozenset(domain.cells())
    else:
        mode = Dirichlet(a0=CellSet.empty(domain), omega=region)
        free_cells = frozenset(region.cells)
    if not (0 <= v <= len(free_cells)):
        raise ValueError(f"volume {v} out of range 0..{len(free_cells)}")
    energy = assemble(pair, mode)

    if v == 0:
        sol = energy.full_set(frozenset())
        return SolveResult(sol, evaluate(energy, sol), "exact")
    if v == len(free_cells):
        sol = energy.full_set(free_cells)
        return SolveResult(sol, evaluate(energy, sol), "exact")

    cap = resolve_cap(exhaustive_cap)
    try:
        sol, value = frontier_minimize(energy, volume=v, cap=cap)
    except FrontierBudgetExceeded:
        pass
    else:
        return SolveResult(sol, value, "exact")
    if len(free_cells) <= cap:
        excess, best = _scan(energy).best_at_volume[v]
        sol = energy.full_set(best.cells)
        result = SolveResult(sol, Fraction(_total(energy, ()), energy.den) - excess, "exact")
        if evaluate(energy, sol) != result.value:
            raise AssertionError("scan and energy evaluation disagree")
        return result

    # Lagrangian sweep: lam large enough that the extremes are empty/full
    swing = energy.den + sum(map(abs, energy.u))
    swing += 2 * sum(map(max, map(abs, energy.e01), map(abs, energy.e11)))
    swing = Fraction(swing, energy.den)
    pieces = parametric_sweep(energy, -swing, swing)
    if pieces[0].volume < len(free_cells) or pieces[-1].volume > 0:
        raise AssertionError("sweep range did not reach the extreme volumes")

    for p in pieces:
        if p.volume == v:
            sol = p.minimizer
            return SolveResult(sol, p.value, "exact")

    above = next(p for p in reversed(pieces) if p.volume > v)
    below = next(p for p in pieces if p.volume < v)
    lam_star = above.lam_hi
    lower = (above.value + lam_star * above.volume) - lam_star * v
    cand_a = _greedy_resize(energy, above.minimizer, v)
    cand_b = _greedy_resize(energy, below.minimizer, v)
    val_a, val_b = evaluate(energy, cand_a), evaluate(energy, cand_b)
    sol, upper = (cand_a, val_a) if val_a <= val_b else (cand_b, val_b)
    certificate = {
        "lambda": lam_star,
        "lower_bound": lower,
        "upper_bound": upper,
        "bracket_volumes": (above.volume, below.volume),
        "bracket_values": (above.value, below.value),
    }
    exactness = "exact" if lower == upper else "envelope-bound"
    return SolveResult(sol, upper, exactness, certificate)
