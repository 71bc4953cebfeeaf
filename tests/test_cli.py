import json
from fractions import Fraction

import pytest

from perivar import (
    CellSet,
    GridDomain,
    ICVariant,
    MeasureData,
    Region,
    SignedPair,
    hyperplane_measure,
    solve_dirichlet,
    strong_excess,
)
from perivar import cli, experiments
from perivar.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from perivar.fileio import parse_rational, write_mask

F = Fraction


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def line_problem(kind="obstacle", extra=None, w="2", dims=(6, 6), slot=3):
    doc = {
        "grid": {"dims": list(dims)},
        "mu_minus": {
            "faces": [
                {"axis": 1, "slot": slot, "at": [x], "w": w}
                for x in range(dims[0])
            ]
        },
        "problem": {"kind": kind},
    }
    if extra:
        doc["problem"].update(extra)
    return doc


def test_eval(tmp_path, capsys):
    d = GridDomain((6, 6))
    problem = write_problem(tmp_path, line_problem())
    mask = tmp_path / "set.pgm"
    write_mask(mask, CellSet.box(d, (0, 0), (5, 2)))
    assert main(["eval", "--problem", problem, "--set", str(mask)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    # slab under the line: P = 18, mass = 12, value = 6
    assert parse_rational(out[0]) == 6
    assert out[1] == "perimeter = 18"
    assert out[3] == "mu_minus(A+) = 12"


def test_minimize_obstacle(tmp_path, capsys):
    problem = write_problem(tmp_path, line_problem())
    outdir = tmp_path / "run"
    assert main(["minimize", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    result = json.loads((outdir / "result.json").read_text())
    assert result["exactness"] == "exact"
    # the weight-2 line satisfies the strong IC, so nothing beats the empty set
    assert parse_rational(result["value"]) == 0
    assert result["minimizer_volume"] == 0
    assert (outdir / "minimizer.pgm").exists()
    # re-evaluating the emitted mask reproduces the reported value
    capsys.readouterr()
    assert (
        main(["eval", "--problem", problem, "--set", str(outdir / "minimizer.pgm")])
        == EXIT_OK
    )
    assert parse_rational(capsys.readouterr().out.splitlines()[0]) == 0


def test_minimize_volume(tmp_path):
    doc = line_problem(kind="volume", extra={"v": 4})
    problem = write_problem(tmp_path, doc)
    outdir = tmp_path / "run"
    assert main(["minimize", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    result = json.loads((outdir / "result.json").read_text())
    assert result["minimizer_volume"] == 4


def test_minimize_dirichlet(tmp_path):
    # the weight-3/2 line inside the lower four rows of 6x6, the row above
    # them frozen in: the file's answer is the library's
    d = GridDomain((6, 6))
    region = CellSet.box(d, (0, 0), (5, 3))
    a0 = CellSet.box(d, (0, 4), (5, 4))
    doc = line_problem(kind="dirichlet", w="3/2", extra={"a0": {"cells": [list(c) for c in sorted(a0.cells)]}})
    doc["region"] = {"cells": [list(c) for c in sorted(region.cells)]}
    outdir = tmp_path / "run"
    assert main(["minimize", "--problem", write_problem(tmp_path, doc), "--out", str(outdir)]) == EXIT_OK
    result = json.loads((outdir / "result.json").read_text())
    mu = hyperplane_measure(d, 1, 3, F(3, 2))
    want = solve_dirichlet(a0, Region.of(d, region.cells), SignedPair(MeasureData.zero(d), mu))
    assert parse_rational(result["value"]) == want.value
    assert {tuple(c) for c in result["minimizer"]} == want.minimizer.cells
    assert want.minimizer.cells >= a0.cells


def test_ic_constant_from_the_flag_or_the_file(tmp_path, capsys):
    # C = 3 from --c, from options.c, and the flag over the file
    mu = hyperplane_measure(GridDomain((6, 6)), 1, 3, F(2))
    want = f"excess = {strong_excess(mu, 3).value}"
    assert strong_excess(mu, 3).value != strong_excess(mu, 1).value
    plain = write_problem(tmp_path, line_problem())
    doc = dict(line_problem(), options={"c": "5/2"})
    in_file = write_problem(tmp_path, dict(line_problem(), options={"c": "3"}), name="c.json")
    other = write_problem(tmp_path, doc, name="other.json")
    for i, (problem, flags) in enumerate([(plain, ["--c", "3"]), (in_file, []), (other, ["--c", "3/1"])]):
        args = ["ic", "strong", "--problem", problem, "--out", str(tmp_path / f"o{i}")]
        assert main(args + flags) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == want
        report = json.loads((tmp_path / f"o{i}" / "report.json").read_text())
        assert parse_rational(report["c"]) == 3


def test_ic_strong(tmp_path, capsys):
    problem = write_problem(tmp_path, line_problem())
    outdir = tmp_path / "ic"
    assert main(["ic", "strong", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert parse_rational(report["excess"]) == -2
    assert report["holds"] is True
    assert (outdir / "witness.pgm").exists()
    assert "strong IC holds: True" in capsys.readouterr().out


def test_ic_profile(tmp_path):
    problem = write_problem(tmp_path, line_problem(dims=(4, 4), slot=2))
    outdir = tmp_path / "prof"
    assert (
        main(
            [
                "ic", "profile", "--problem", problem,
                "--out", str(outdir), "--v-max", "4",
            ]
        )
        == EXIT_OK
    )
    lines = (outdir / "profile.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "v,phi,method"
    assert len([l for l in lines if l]) == 5
    report = json.loads((outdir / "report.json").read_text())
    assert len(report["entries"]) == 4


def test_ic_divcert_feasible_and_not(tmp_path, capsys):
    problem = write_problem(tmp_path, line_problem())
    outdir = tmp_path / "cert"
    assert main(["ic", "divcert", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["feasible"] is True
    assert parse_rational(cert["max_abs_sigma"]) == 1
    assert "feasible" in capsys.readouterr().out

    heavy = write_problem(tmp_path, line_problem(w="4"), name="heavy.json")
    outdir2 = tmp_path / "cert2"
    assert main(["ic", "divcert", "--problem", heavy, "--out", str(outdir2)]) == EXIT_OK
    report = json.loads((outdir2 / "report.json").read_text())
    assert report["feasible"] is False
    assert (outdir2 / "witness.pgm").exists()


def test_ic_capacity(tmp_path, capsys):
    doc = {
        "grid": {"dims": [4, 2]},
        "problem": {
            "kind": "capacity",
            "faces": [{"axis": 1, "slot": 1, "at": [x]} for x in range(4)],
        },
    }
    problem = write_problem(tmp_path, doc)
    outdir = tmp_path / "cap"
    assert main(["ic", "capacity", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert parse_rational(report["capacity"]) == 10
    assert parse_rational(capsys.readouterr().out.strip()) == 10


def test_ic_capacity_honours_the_cap(tmp_path, capsys, monkeypatch):
    # a cap of 0 (flag or file) or 1 (file) leaves the frontier sweep too little
    # budget: the branch and bound, which runs a min cut per node, gives 10 too
    from perivar import ic

    calls = []
    real = ic.minimize
    monkeypatch.setattr(ic, "minimize", lambda energy: calls.append(1) or real(energy))
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)
    doc = {
        "grid": {"dims": [4, 2]},
        "problem": {
            "kind": "capacity",
            "faces": [{"axis": 1, "slot": 1, "at": [x]} for x in range(4)],
        },
    }
    plain = write_problem(tmp_path, doc)
    capped = write_problem(tmp_path, dict(doc, options={"exhaustive_cap": 1}), name="capped.json")
    zero = write_problem(tmp_path, dict(doc, options={"exhaustive_cap": 0}), name="zero.json")
    for i, (problem, flags, via_bb) in enumerate([
        (plain, ["--cap", "0"], True),
        (capped, [], True),
        (zero, [], True),
        (zero, ["--cap", "22"], False),
        (plain, [], False),
        (capped, ["--cap", "22"], False),
    ]):
        calls.clear()
        args = ["ic", "capacity", "--problem", problem, "--out", str(tmp_path / f"o{i}")]
        assert main(args + flags) == EXIT_OK
        assert parse_rational(capsys.readouterr().out.strip()) == 10
        assert bool(calls) == via_bb


def test_experiment_command(tmp_path, capsys):
    outdir = tmp_path / "exp"
    code = main(
        [
            "experiment", "tentacle", "--out", str(outdir),
            "--param", "w=2", "--param", "lengths=1,2,4",
        ]
    )
    assert code == EXIT_OK
    assert (outdir / "report.json").exists()
    assert "cancellation holds: True" in capsys.readouterr().out


def test_experiment_params_take_fractions_words_and_scalar_lists(tmp_path, capsys):
    # w=5/2 is a fraction and lengths=3 a scalar for a list-valued key
    outdir = tmp_path / "exp"
    args = ["experiment", "tentacle", "--out", str(outdir), "--param", "w=5/2", "--param", "lengths=3"]
    assert main(args) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["params"]["lengths"] == [3]
    assert parse_rational(report["params"]["w"]) == F(5, 2)
    assert "cancellation holds: False" in capsys.readouterr().out
    # scenario=tentacle stays a word
    outdir = tmp_path / "ref"
    args = ["experiment", "refinement", "--out", str(outdir), "--param", "scenario=tentacle"]
    assert main(args + ["--param", "factors=2"]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["params"] == {"base": "tentacle", "factors": [2]}
    assert "margin_per_length nonincreasing: True" in capsys.readouterr().out


# a single value for each list parameter; pseudoconvex's (width, height)
# pairs cannot be written as --param values
SCALAR_LISTS = {
    "tentacle": (["w=2"], "lengths", "2", 2),
    "runaway-slab": (["L=2"], "shifts", "1", 1),
    "convex-threshold": ([], "thetas", "1/2", "1/2"),
    "capacity-scaling": ([], "ks", "2", 2),
    "interval-clusters": (["length=8"], "ells", "2", 2),
    "refinement": (["scenario=capacity"], "factors", "1", 1),
}


@pytest.mark.parametrize("name", sorted(set(experiments.SCENARIOS) - {"pseudoconvex"}))
def test_every_scenario_takes_one_value_for_a_list(tmp_path, name):
    fixed, key, raw, recorded = SCALAR_LISTS[name]
    params = [arg for p in [*fixed, f"{key}={raw}"] for arg in ("--param", p)]
    outdir = tmp_path / name
    assert main(["experiment", name, "--out", str(outdir), *params]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["params"][key] == [recorded]


@pytest.mark.parametrize(
    "name, params",
    [
        ("pseudoconvex", ["sizes=2"]),  # not (width, height) pairs
        ("convex-threshold", ["thetas=1/0"]),
        ("tentacle", ["w=2", "lengths=2.5"]),
        # a word where a number belongs, refused by the parameter's name
        ("tentacle", ["w=2", "lengths=1,2", "blob=abc"]),
        ("interval-clusters", ["ells=1", "length=abc"]),
        ("tentacle", ["w=abc", "lengths=1"]),
    ],
)
def test_unusable_experiment_params_exit_2(tmp_path, capsys, name, params):
    argv = ["experiment", name, "--out", str(tmp_path / "o")]
    argv += [arg for p in params for arg in ("--param", p)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_command(tmp_path):
    problem = write_problem(tmp_path, line_problem(dims=(4, 4), slot=2))
    svg = tmp_path / "pic.svg"
    assert main(["render", "--problem", problem, "--out", str(svg)]) == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg") or "<svg" in text


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["minimize", "--problem", missing, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["ic", "capacity", "--problem", str(bad), "--out", str(tmp_path / "o2")]) == EXIT_INPUT
    assert main(["experiment", "no-such-scenario", "--out", str(tmp_path / "o3")]) == EXIT_INPUT
    capsys.readouterr()
    # parameters the scenario does not take, or none where it needs some
    for params in (["--param", "foo=1"], []):
        argv = ["experiment", "tentacle", "--out", str(tmp_path / "o4"), *params]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'tentacle'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        # an --out that is a file, or lies below one
        (["minimize", "--problem", "{problem}", "--out", "{file}"], "{file}"),
        (["minimize", "--problem", "{problem}", "--out", "{file}/sub"], "{file}/sub"),
        # a directory where a file is read or written
        (["minimize", "--problem", "{dir}", "--out", "{out}"], "{dir}"),
        (["eval", "--problem", "{problem}", "--set", "{dir}"], "{dir}"),
        (["render", "--problem", "{problem}", "--out", "{dir}"], "{dir}"),
        # JSON nested past the interpreter's recursion limit
        (["minimize", "--problem", "{deep}", "--out", "{out}"], "invalid JSON"),
    ],
)
def test_file_system_and_decode_errors_exit_2(tmp_path, capsys, argv, named):
    paths = {
        "problem": write_problem(tmp_path, line_problem(dims=(4, 4), slot=2)),
        "file": str(tmp_path / "file"),
        "dir": str(tmp_path / "dir"),
        "out": str(tmp_path / "out"),
        "deep": str(tmp_path / "deep.json"),
    }
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "deep.json").write_text("[" * 10**5 + "]" * 10**5)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named.format(**paths) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, env, source",
    [
        (["--cap", "-1"], None, "--cap"),
        ([], "-3", "PERIVAR_EXHAUSTIVE_CAP"),
        ([], "abc", "PERIVAR_EXHAUSTIVE_CAP"),
    ],
)
def test_bad_cap_exits_2(tmp_path, capsys, monkeypatch, flags, env, source):
    # a negative or non-numeric cap is refused, naming where it came from
    if env is None:
        monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)
    else:
        monkeypatch.setenv("PERIVAR_EXHAUSTIVE_CAP", env)
    problem = write_problem(tmp_path, line_problem(w="9/4"))
    out = tmp_path / "o"
    assert main(["ic", "strong", "--problem", problem, "--out", str(out), *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source} must be a nonnegative integer")
    assert err.count("\n") == 1
    assert not out.exists()


def test_negative_file_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the problem file may ask for cap 0, like --cap, but not for -1
    monkeypatch.delenv("PERIVAR_EXHAUSTIVE_CAP", raising=False)
    problem = write_problem(tmp_path, dict(line_problem(w="9/4"), options={"exhaustive_cap": -1}))
    out = tmp_path / "o"
    assert main(["ic", "strong", "--problem", problem, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "minimum of 0" in err
    assert "options.exhaustive_cap" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_obstacle_cell_outside_grid_exits_2(tmp_path, capsys):
    doc = line_problem(extra={"inner": {"cells": [[1, 1], [9, 9]]}})
    problem = write_problem(tmp_path, doc)
    code = main(["minimize", "--problem", problem, "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: cell (9, 9) outside grid (6, 6)\n"


def test_non_submodular_exit_3(tmp_path, capsys):
    doc = {
        "grid": {"dims": [3, 3]},
        "mu_plus": {"faces": [{"axis": 0, "slot": 1, "at": [1], "w": "3/2"}]},
        "mu_minus": {"faces": [{"axis": 0, "slot": 1, "at": [1], "w": "3/2"}]},
        "problem": {"kind": "obstacle"},
    }
    problem = write_problem(tmp_path, doc)
    code = main(["minimize", "--problem", problem, "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["violations"]


def test_solver_cap_exit_3(tmp_path):
    # heavy interior line on a big grid: not cut-reducible, over the cap
    doc = line_problem(w="9/4", dims=(8, 8), slot=4)
    problem = write_problem(tmp_path, doc)
    code = main(
        ["ic", "strong", "--problem", problem, "--out", str(tmp_path / "o"), "--cap", "10"]
    )
    assert code == EXIT_SOLVER


@pytest.mark.parametrize(
    "error",
    [
        RecursionError("maximum recursion depth exceeded"),
        AssertionError("decoded certificate failed verification"),
    ],
)
def test_internal_errors_exit_3(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "strong_excess", broken)
    problem = write_problem(tmp_path, line_problem())
    code = main(["ic", "strong", "--problem", problem, "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(error) in err
    assert "Traceback" not in err


def test_memory_error_exits_3(tmp_path, capsys):
    # a 62-face line across 62x62 plus one face at slot 1: the targets' box
    # is 62x32, so even the box's sweep, with 2**32 entries per cell, fits
    # the budget of 2**200 but no memory; it refuses before allocating, and
    # with 63 covering pairs left the branch and bound is no way out; keep
    # the width past any memory
    doc = {
        "grid": {"dims": [62, 62]},
        "problem": {
            "kind": "capacity",
            "faces": [{"axis": 1, "slot": 31, "at": [x]} for x in range(62)]
            + [{"axis": 1, "slot": 1, "at": [0]}],
        },
    }
    problem = write_problem(tmp_path, doc)
    args = ["ic", "capacity", "--problem", problem, "--out", str(tmp_path / "o")]
    assert main(args + ["--cap", "200"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"


def test_capacity_past_the_memory_without_covering_pairs(tmp_path, capsys):
    # three target cells of 64x64 at cap 200: the sweep's 2**64-wide table
    # fits the budget but not the memory, and the sweep of the targets' 2x2
    # box answers
    doc = {
        "grid": {"dims": [64, 64]},
        "problem": {"kind": "capacity", "cells": [[10, 10], [10, 11], [11, 10]]},
    }
    args = ["ic", "capacity", "--problem", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]
    for cap in ("22", "200"):
        assert main(args + ["--cap", cap]) == EXIT_OK
        captured = capsys.readouterr()
        assert parse_rational(captured.out.strip()) == 8
        assert captured.err == ""


def test_variant_options(tmp_path, capsys):
    # an avoid-ball variant needs a radius: one error line, exit 2
    doc = line_problem()
    del doc["problem"]
    doc["options"] = {"variant": {"kind": "avoid-ball"}}
    problem = write_problem(tmp_path, doc)
    code = main(["ic", "strong", "--problem", problem, "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: avoid-ball variant requires a radius\n"
    # a relative variant takes the file's region
    d = GridDomain((6, 6))
    region = CellSet.box(d, (0, 0), (5, 3))
    doc["options"] = {"variant": {"kind": "relative"}}
    doc["region"] = {"cells": [list(c) for c in sorted(region.cells)]}
    problem = write_problem(tmp_path, doc)
    outdir = tmp_path / "rel"
    assert main(["ic", "strong", "--problem", problem, "--out", str(outdir)]) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    mu = hyperplane_measure(d, 1, 3, F(2))
    want = strong_excess(mu, 1, ICVariant.relative(Region.of(d, region.cells)))
    assert want.value != strong_excess(mu, 1).value
    assert parse_rational(report["excess"]) == want.value


def test_3d_problem_writes_json_and_no_pgm(tmp_path, capsys):
    # a cell of mass 7 in the middle of a 3x3x3 grid: alone it costs 6 - 7,
    # and it is the strong IC's witness at C = 1
    doc = {
        "grid": {"dims": [3, 3, 3]},
        "mu_minus": {"cells": [{"at": [1, 1, 1], "w": "7"}]},
        "problem": {"kind": "obstacle"},
    }
    problem = write_problem(tmp_path, doc)
    run, ic = tmp_path / "run", tmp_path / "ic"
    assert main(["minimize", "--problem", problem, "--out", str(run)]) == EXIT_OK
    result = json.loads((run / "result.json").read_text())
    assert parse_rational(result["value"]) == -1
    assert result["minimizer"] == [[1, 1, 1]]
    assert main(["ic", "strong", "--problem", problem, "--out", str(ic)]) == EXIT_OK
    report = json.loads((ic / "report.json").read_text())
    assert parse_rational(report["excess"]) == 1
    assert report["witness"] == [[1, 1, 1]]
    assert not list(tmp_path.rglob("*.pgm"))
    assert "error" not in capsys.readouterr().err
