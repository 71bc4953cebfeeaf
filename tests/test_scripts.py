"""The experiment scripts run as programs and write their reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, reports",
    [
        ("run_capacity_scaling.py", ["--k-max", "4"], ["report.json"]),
        (
            "run_mass_at_infinity.py",
            ["--lengths", "1", "2", "--slab-width", "2"],
            ["tentacle-w-2-1/report.json", "runaway-slab-L2/report.json"],
        ),
        (
            "run_threshold_gallery.py",
            [],
            ["convex-threshold/report.json", "pseudoconvex/report.json",
             "interval-clusters/report.json"],
        ),
    ],
    ids=["capacity-scaling", "mass-at-infinity", "threshold-gallery"],
)
def test_script_runs_and_writes_its_report(tmp_path, script, args, reports):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for report in reports:
        assert (out / report).stat().st_size > 0
