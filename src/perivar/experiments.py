"""Scripted scenarios: threshold phenomena, limit failures, scaling studies.

Every row's functional value is recomputed through energy evaluation on the
stored cell set, so the tables are exact and replayable; verdicts are pure
functions of the rows.  Scenarios only assert finite-grid facts; trend
columns report, they do not extrapolate.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .energy import FullSpace, assemble, evaluate
from .fileio import write_csv, write_json
from .grid import CellSet, Face, GridDomain, perimeter
from .ic import capacity, small_volume_profile, strong_excess
from .measure import (
    MeasureData,
    SignedPair,
    boundary_measure,
    mass_on_closure,
)
from .render import write_svg
from .solve import solve_obstacle

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    params: dict
    columns: tuple
    rows: tuple  # tuples aligned with columns
    verdicts: dict
    frames: tuple  # (name, domain, CellSet, SignedPair or None)
    artifacts: tuple = ()

    def row_dicts(self):
        return [dict(zip(self.columns, row)) for row in self.rows]


def write_report(report: ScenarioReport, outdir) -> ScenarioReport:
    """Write report.json, series.csv, and one SVG per frame; returns the
    report with artifact paths filled in."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts: List[str] = []
    json_path = outdir / "report.json"
    csv_path = outdir / "series.csv"
    write_csv(csv_path, report.columns, report.rows)
    artifacts.append(str(csv_path))
    for name, domain, mask, pair in report.frames:
        svg_path = outdir / f"{name}.svg"
        write_svg(svg_path, domain, mask, pair)
        artifacts.append(str(svg_path))
    final = replace(report, artifacts=tuple(artifacts + [str(json_path)]))
    write_json(
        json_path,
        {
            "scenario": final.scenario,
            "params": final.params,
            "columns": list(final.columns),
            "rows": [list(r) for r in final.rows],
            "verdicts": final.verdicts,
            "artifacts": list(final.artifacts),
        },
    )
    return final


def _finish(scenario, params, columns, rows, verdicts, frames, outdir) -> ScenarioReport:
    """The scenario's report, written under outdir when one is given."""
    report = ScenarioReport(scenario, params, columns, tuple(rows), verdicts, tuple(frames))
    return write_report(report, outdir) if outdir is not None else report


def _as_list(values) -> list:
    """A list parameter's values; one value is a list of one."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        return [values]
    return list(values)


def _int(name: str, x) -> int:
    """One integral value of a parameter, refused when it has a fraction part."""
    if not isinstance(x, Real) or x != int(x):
        raise ValueError(f"{name} takes integers, not {x}")
    return int(x)


def _ints(name: str, values, least: int) -> List[int]:
    """Sorted distinct integers of a list parameter, none below ``least``."""
    ints = {_int(name, x) for x in _as_list(values)}
    if not ints or min(ints) < least:
        raise ValueError(f"{name} must be integers >= {least}")
    return sorted(ints)


def _value_of(pair: SignedPair, A: CellSet) -> Fraction:
    return evaluate(assemble(pair, FullSpace()), A)


def run_tentacle(
    w,
    lengths: Sequence[int],
    blob: int = 4,
    outdir=None,
) -> ScenarioReport:
    """Blob plus a 1-wide arm of length k riding a weight-w face line.

    The arm adds perimeter 2k and collects mass w*k; the limit set is the
    blob alone.  Cancellation holds iff no arm value drops below the limit
    value, which is the w <= 2 regime.
    """
    w = Fraction(w)
    if w < 0:
        raise ValueError("w must be nonnegative")
    lengths = _ints("lengths", lengths, 1)
    k_max = lengths[-1]
    domain = GridDomain((blob + k_max, blob + 1))
    blob_set = CellSet.box(domain, (0, 0), (blob - 1, blob - 1))
    arm_row = blob - 1
    # the mass line sits under the arm: axis-1 faces between rows arm_row-1
    # and arm_row, at columns blob..blob+k_max-1
    mu = MeasureData(
        domain,
        {},
        {Face(1, arm_row, (blob + i,)): w for i in range(k_max)},
    )
    pair = SignedPair(MeasureData.zero(domain), mu)

    limit_value = _value_of(pair, blob_set)
    columns = ("k", "volume", "perimeter", "mu_mass", "value", "limit_value")
    rows = []
    frames = [("limit", domain, blob_set, pair)]
    for k in lengths:
        arm = CellSet.box(domain, (blob, arm_row), (blob + k - 1, arm_row))
        A = blob_set | arm
        p = perimeter(A)
        m = mass_on_closure(mu, A)
        value = _value_of(pair, A)
        if value != p - m:
            raise AssertionError("energy evaluation disagrees with direct count")
        rows.append((k, A.volume, p, m, value, limit_value))
        frames.append((f"arm-{k:03d}", domain, A, pair))

    min_value = min(r[4] for r in rows)
    violated = min_value < limit_value
    verdicts = {
        "cancellation holds": not violated,
        "liminf >= limit": not violated,
        "violation expected (w > 2)": w > 2,
    }
    params = {"w": w, "lengths": lengths, "blob": blob}
    return _finish("tentacle", params, columns, rows, verdicts, frames, outdir)


def run_runaway_slab(L: int, shifts: Sequence[int], outdir=None) -> ScenarioReport:
    """An L-cell slab sliding between two weight-2 face lines.

    Every shifted copy has the same value 2 - 2L while the local limit is
    the empty set at value 0: lower semicontinuity fails under local-only
    convergence as soon as L > 1.
    """
    L = int(L)
    if L < 1:
        raise ValueError("need L >= 1")
    shifts = _ints("shifts", shifts, 0)
    width = L + shifts[-1]
    domain = GridDomain((width, 3))
    lines = {}
    for x in range(width):
        lines[Face(1, 1, (x,))] = Fraction(2)
        lines[Face(1, 2, (x,))] = Fraction(2)
    mu = MeasureData(domain, {}, lines)
    pair = SignedPair(MeasureData.zero(domain), mu)

    columns = ("shift", "volume", "perimeter", "mu_mass", "value", "limit_value")
    rows = []
    frames = []
    for s in shifts:
        A = CellSet.box(domain, (s, 1), (s + L - 1, 1))
        p = perimeter(A)
        m = mass_on_closure(mu, A)
        value = _value_of(pair, A)
        rows.append((s, A.volume, p, m, value, ZERO))
        frames.append((f"shift-{s:03d}", domain, A, pair))

    values = {r[4] for r in rows}
    constant = len(values) == 1
    failure = constant and rows[0][4] < 0
    verdicts = {
        "constant sequence": constant,
        "LSC fails under local-only convergence": failure,
    }
    params = {"L": L, "shifts": shifts}
    return _finish("runaway-slab", params, columns, rows, verdicts, frames, outdir)


def _centered_box(domain: GridDomain, size: Tuple[int, ...]) -> CellSet:
    lo = tuple((domain.dims[a] - size[a]) // 2 for a in range(domain.d))
    hi = tuple(lo[a] + size[a] - 1 for a in range(domain.d))
    return CellSet.box(domain, lo, hi)


def run_convex_threshold(thetas: Sequence, grid: int = 4, outdir=None) -> ScenarioReport:
    """Obstacle problem against theta times the boundary measure of a box.

    Below the threshold theta = 1 the empty set is the unique minimizer,
    above it the box wins, and at theta = 1 both are optimal (the canonical
    minimizer is the empty set).
    """
    thetas = sorted({Fraction(t) for t in _as_list(thetas)})
    domain = GridDomain((grid, grid))
    K = _centered_box(domain, (2, 2))
    columns = ("theta", "minimizer_volume", "value", "value_empty", "value_K")
    rows = []
    frames = []
    verdict_rows: Dict[str, str] = {}
    for theta in thetas:
        mu = boundary_measure(K, theta)
        pair = SignedPair(MeasureData.zero(domain), mu)
        result = solve_obstacle(CellSet.empty(domain), CellSet.full(domain), pair)
        value_empty = _value_of(pair, CellSet.empty(domain))
        value_K = _value_of(pair, K)
        rows.append(
            (theta, result.minimizer.volume, result.value, value_empty, value_K)
        )
        frames.append(
            (f"theta-{theta.numerator}-{theta.denominator}", domain, result.minimizer, pair)
        )
        if result.value == value_empty == value_K:
            verdict_rows[str(theta)] = "tie: empty canonical, K co-optimal"
        elif result.minimizer.volume == 0:
            verdict_rows[str(theta)] = "empty"
        elif result.minimizer.cells == K.cells:
            verdict_rows[str(theta)] = "K"
        else:
            verdict_rows[str(theta)] = "other"
    params = {"thetas": [str(t) for t in thetas], "grid": grid}
    return _finish("convex-threshold", params, columns, rows, verdict_rows, frames, outdir)


def run_capacity_scaling(ks: Sequence[int], outdir=None) -> ScenarioReport:
    """Covering cost of k collinear interior faces: 2k + 2, ratio to 2k -> 1."""
    ks = _ints("ks", ks, 1)
    columns = ("k", "capacity", "target_mass_2k", "ratio")
    rows = []
    frames = []
    for k in ks:
        domain = GridDomain((k, 2))
        line = [Face(1, 1, (x,)) for x in range(k)]
        value, witness = capacity(domain, faces=line)
        rows.append((k, value, Fraction(2 * k), value / Fraction(2 * k)))
        frames.append((f"cover-{k:03d}", domain, witness, None))
    ratios = [r[3] for r in rows]
    verdicts = {
        "ratio nonincreasing": all(a >= b for a, b in zip(ratios, ratios[1:])),
        "matches 2k+2": all(r[1] == 2 * r[0] + 2 for r in rows),
    }
    return _finish("capacity-scaling", {"ks": ks}, columns, rows, verdicts, frames, outdir)


def run_pseudoconvex(sizes: Sequence[Tuple[int, int]], grid: int = 8, outdir=None) -> ScenarioReport:
    """Unit boundary measure of a box: C = 1 is tight and optimal.

    The excess at C = 1 is exactly 0 (attained by the box itself) and any
    smaller constant gives a positive excess.
    """
    try:
        pairs = [(w, h) for w, h in sizes]
    except (TypeError, ValueError):
        raise ValueError("sizes must be (width, height) pairs") from None
    sizes = sorted({(_int("sizes", w), _int("sizes", h)) for w, h in pairs})
    domain = GridDomain((grid, grid))
    columns = ("width", "height", "excess_at_1", "witness_volume", "excess_at_3_4")
    rows = []
    frames = []
    for size in sizes:
        K = _centered_box(domain, size)
        mu = boundary_measure(K, ONE)
        at_one = strong_excess(mu, ONE)
        at_less = strong_excess(mu, Fraction(3, 4))
        rows.append((size[0], size[1], at_one.value, at_one.witness.volume, at_less.value))
        frames.append(
            (f"box-{size[0]}x{size[1]}", domain, at_one.witness, SignedPair(MeasureData.zero(domain), mu))
        )
    verdicts = {
        "strong IC at C=1": all(r[2] == 0 for r in rows),
        "C=1 optimal (excess > 0 below)": all(r[4] > 0 for r in rows),
    }
    params = {"sizes": [list(s) for s in sizes], "grid": grid}
    return _finish("pseudoconvex", params, columns, rows, verdicts, frames, outdir)


def run_interval_clusters(
    ells: Sequence[int], length: int = 24, w=Fraction(1, 2), outdir=None
) -> ScenarioReport:
    """1D clusters of 2*ell unit-spaced point masses of weight w each.

    Covering a cluster costs perimeter 2 while collecting mass 2*ell*w, so
    the small-volume excess at C = 1 turns positive once ell*w > 1.
    """
    w = Fraction(w)
    ells = _ints("ells", ells, 1)
    if 2 * ells[-1] > length:
        raise ValueError("need 2*ell <= length")
    domain = GridDomain((length,))
    columns = ("ell", "cluster_mass", "excess", "first_positive_volume")
    rows = []
    frames = []
    for ell in ells:
        start = (length - 2 * ell) // 2
        mu = MeasureData(
            domain, {(start + i,): w for i in range(2 * ell)}, {}
        )
        res = strong_excess(mu, ONE)
        profile = small_volume_profile(mu, ONE, v_max=2 * ell)
        first_pos = next((e.volume for e in profile.entries if e.phi > 0), None)
        rows.append((ell, 2 * ell * w, res.value, first_pos if first_pos is not None else -1))
        frames.append(
            (f"cluster-{ell:02d}", domain, res.witness, SignedPair(MeasureData.zero(domain), mu))
        )
    verdicts = {
        "positive inside a cluster iff ell*w > 1": all(
            (r[2] > 0) == (Fraction(r[0]) * w > 1) for r in rows
        ),
    }
    params = {"ells": ells, "length": length, "w": w}
    return _finish("interval-clusters", params, columns, rows, verdicts, frames, outdir)


def run_refinement(scenario: str, factors: Sequence[int], outdir=None) -> ScenarioReport:
    """Re-run a scenario at scaled resolutions, keeping face weights fixed.

    Lengths scale with the factor; dimensionless ratios are the trend
    columns.  Supported: 'tentacle' (violation margin per unit length) and
    'capacity' (cover cost over target mass).
    """
    factors = _ints("factors", factors, 1)
    rows = []
    if scenario == "tentacle":
        columns = ("factor", "arm_length", "value", "limit_value", "margin_per_length")
        for r in factors:
            k = 4 * r
            sub = run_tentacle(Fraction(5, 2), [k])
            row = sub.rows[-1]
            margin = (row[4] - row[5]) / Fraction(k)
            rows.append((r, k, row[4], row[5], margin))
        trend = [r[4] for r in rows]
        verdicts = {"margin_per_length nonincreasing": all(a >= b for a, b in zip(trend, trend[1:]))}
    elif scenario == "capacity":
        columns = ("factor", "k", "capacity", "ratio")
        for r in factors:
            k = 2 * r
            sub = run_capacity_scaling([k])
            row = sub.rows[0]
            rows.append((r, k, row[1], row[3]))
        trend = [r[3] for r in rows]
        verdicts = {"ratio nonincreasing": all(a >= b for a, b in zip(trend, trend[1:]))}
    else:
        raise ValueError(f"refinement does not support scenario {scenario!r}")
    params = {"base": scenario, "factors": factors}
    return _finish(f"refinement-{scenario}", params, columns, rows, verdicts, (), outdir)


SCENARIOS = {
    "tentacle": run_tentacle,
    "runaway-slab": run_runaway_slab,
    "convex-threshold": run_convex_threshold,
    "capacity-scaling": run_capacity_scaling,
    "pseudoconvex": run_pseudoconvex,
    "interval-clusters": run_interval_clusters,
    "refinement": run_refinement,
}
