import json
from fractions import Fraction

import pytest

from perivar.experiments import (
    SCENARIOS,
    run_capacity_scaling,
    run_convex_threshold,
    run_interval_clusters,
    run_pseudoconvex,
    run_refinement,
    run_runaway_slab,
    run_tentacle,
    write_report,
)

F = Fraction


def test_tentacle_cancellation_holds_at_two():
    report = run_tentacle(F(2), lengths=[1, 2, 4, 8])
    assert report.verdicts["cancellation holds"]
    assert report.verdicts["liminf >= limit"]
    assert not report.verdicts["violation expected (w > 2)"]
    for row in report.row_dicts():
        assert row["value"] == row["perimeter"] - row["mu_mass"]
        assert row["value"] >= row["limit_value"]


def test_tentacle_violation_above_two():
    report = run_tentacle(F(5, 2), lengths=[1, 2, 4, 8])
    assert not report.verdicts["cancellation holds"]
    assert report.verdicts["violation expected (w > 2)"]
    # each arm cell costs perimeter 2 and collects 5/2: values decrease
    values = [row["value"] for row in report.row_dicts()]
    assert values == sorted(values, reverse=True)


def test_runaway_slab_constant_below_limit():
    report = run_runaway_slab(3, shifts=[0, 2, 5])
    assert report.verdicts["constant sequence"]
    assert report.verdicts["LSC fails under local-only convergence"]
    for row in report.row_dicts():
        assert row["value"] == -4
        assert row["limit_value"] == 0


def test_runaway_slab_width_one_is_harmless():
    report = run_runaway_slab(1, shifts=[0, 1])
    assert report.verdicts["constant sequence"]
    assert not report.verdicts["LSC fails under local-only convergence"]


def test_convex_threshold_verdicts():
    report = run_convex_threshold([F(1, 2), F(1), F(2)])
    assert report.verdicts["1/2"] == "empty"
    assert report.verdicts["1"] == "tie: empty canonical, K co-optimal"
    assert report.verdicts["2"] == "K"
    by_theta = {row["theta"]: row for row in report.row_dicts()}
    assert by_theta[F(1, 2)]["value"] == 0
    assert by_theta[F(2)]["value"] == -8
    assert by_theta[F(1)]["value"] == 0


def test_convex_threshold_drops_repeated_thetas(tmp_path):
    report = run_convex_threshold([1, F(1), 2], outdir=tmp_path)
    assert [row["theta"] for row in report.row_dicts()] == [1, 2]
    assert report.params["thetas"] == ["1", "2"]
    names = [frame[0] for frame in report.frames]
    assert names == ["theta-1-1", "theta-2-1"]
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [f"{n}.svg" for n in names]


def test_capacity_scaling():
    report = run_capacity_scaling([1, 2, 4, 8])
    assert report.verdicts["matches 2k+2"]
    assert report.verdicts["ratio nonincreasing"]


def test_pseudoconvex_boxes():
    report = run_pseudoconvex([(2, 2), (3, 2)])
    assert report.verdicts["strong IC at C=1"]
    assert report.verdicts["C=1 optimal (excess > 0 below)"]


def test_pseudoconvex_refuses_non_integer_sizes():
    with pytest.raises(ValueError, match="sizes must be an integer, got 2.5"):
        run_pseudoconvex([(2.5, 2)])
    with pytest.raises(ValueError, match=r"sizes must be an integer, got Fraction\(3, 2\)"):
        run_pseudoconvex([(2, F(3, 2))])
    # an integral float is still a float, as in GridDomain((2.0, 2)); repeats collapse
    with pytest.raises(ValueError, match="sizes must be an integer, got 2.0"):
        run_pseudoconvex([(2, 2), (2.0, 2)])
    assert run_pseudoconvex([(2, 2), (2, 2)]).params["sizes"] == [[2, 2]]


def test_interval_clusters_threshold():
    report = run_interval_clusters([1, 2, 3], length=12, w=F(1, 2))
    assert report.verdicts["positive inside a cluster iff ell*w > 1"]
    rows = {row["ell"]: row for row in report.row_dicts()}
    assert rows[1]["excess"] <= 0
    assert rows[3]["excess"] > 0
    assert rows[3]["first_positive_volume"] > 0


def test_refinement_scenarios():
    report = run_refinement("capacity", [1, 2, 3])
    assert report.rows
    with pytest.raises(ValueError):
        run_refinement("unknown-scenario", [1])


def test_refinement_of_the_tentacle():
    # arms of 4r cells on a weight-5/2 line: each arm cell gains 1/2, so
    # the margin per unit length stays -1/2 at every factor
    report = run_refinement("tentacle", [3, 1, 2, 2])
    assert [row["arm_length"] for row in report.row_dicts()] == [4, 8, 12]
    for row in report.row_dicts():
        assert row["value"] - row["limit_value"] == -row["arm_length"] / 2
        assert row["margin_per_length"] == F(-1, 2)
    assert report.verdicts == {"margin_per_length nonincreasing": True}


def test_scenarios_registry():
    assert set(SCENARIOS) >= {
        "tentacle",
        "runaway-slab",
        "convex-threshold",
        "capacity-scaling",
        "pseudoconvex",
        "interval-clusters",
    }


def test_write_report_artifacts(tmp_path):
    report = run_tentacle(F(2), lengths=[1, 2], outdir=tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["scenario"] == "tentacle"
    assert payload["verdicts"]["cancellation holds"] is True
    series = (tmp_path / "series.csv").read_text()
    assert series.splitlines()[0].split(",")[0] == "k"
    svgs = list(tmp_path.glob("*.svg"))
    assert len(svgs) == len(report.frames)
    assert report.artifacts
