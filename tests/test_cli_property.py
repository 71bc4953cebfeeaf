"""The CLI's exit-code contract under generated input.

Problem documents are drawn valid under ``PROBLEM_SCHEMA`` on grids of
at most 4 x 4 (2 x 2 x 2 in 3D), and half of them are then mutated: one
value replaced by junk, one key dropped or one key added.  ``--problem``, ``--set`` and
``--out`` name a file, a directory, a missing path or a path below a
file.  Every run must exit 0, 2 or 3, write at most one ``error:`` line
or the non-submodular JSON, and print no traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from perivar import CellSet, GridDomain
from perivar.cli import main
from perivar.fileio import write_mask

RATIONALS = st.sampled_from(["1", "1/2", "3/2", "2", "9/4", "5", 2, 0])
JUNK = st.sampled_from(
    [None, True, -1, 0, 2, 2.5, "x", "nan", "1/0", [], {}, [1, 2, 3, 4], {"k": 1}]
)
COMMANDS = (
    ["minimize"],
    ["ic", "strong"],
    ["ic", "profile"],
    ["ic", "divcert"],
    ["ic", "capacity"],
    ["render"],
    ["eval"],
)


@st.composite
def documents(draw):
    d = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4 if d < 3 else 2), min_size=d, max_size=d))

    def cells(n):
        cell = st.tuples(*(st.integers(0, m - 1) for m in dims)).map(list)
        return draw(st.lists(cell, max_size=n))

    def faces(n, weighted):
        out = []
        for _ in range(draw(st.integers(0, n))):
            axis = draw(st.integers(0, d - 1))
            at = [draw(st.integers(0, m - 1)) for b, m in enumerate(dims) if b != axis]
            face = {"axis": axis, "slot": draw(st.integers(0, dims[axis])), "at": at}
            if weighted:
                face["w"] = draw(RATIONALS)
            out.append(face)
        return out

    def measure():
        return {
            "faces": faces(4, True),
            "cells": [{"at": at, "w": draw(RATIONALS)} for at in cells(2)],
        }

    def cellset():
        return draw(st.sampled_from([{"all": True}, {"cells": cells(3)}]))

    doc = {"grid": {"dims": dims}, "mu_minus": measure()}
    if draw(st.booleans()):
        doc["mu_plus"] = measure()
    if draw(st.booleans()):
        doc["region"] = cellset()
    kind = draw(st.sampled_from(["obstacle", "dirichlet", "volume", "capacity"]))
    problem = {"kind": kind}
    if kind == "obstacle":
        problem.update(inner=cellset(), outer=cellset())
    elif kind == "dirichlet":
        problem["a0"] = cellset()
    elif kind == "volume":
        problem["v"] = draw(st.integers(0, 5))
    else:
        problem.update(faces=faces(3, False), cells=cells(1))
    doc["problem"] = problem
    options = {}
    if draw(st.booleans()):
        options["exhaustive_cap"] = draw(st.sampled_from([0, 4, 22]))
    if draw(st.booleans()):
        options["c"] = draw(RATIONALS)
    if draw(st.booleans()):
        options["v_max"] = draw(st.integers(1, 4))
    if draw(st.booleans()):
        kinds = ["plain", "interior-rep", "relative", "avoid-ball", "relative-to-boundary"]
        options["variant"] = {"kind": draw(st.sampled_from(kinds))}
        if draw(st.booleans()):
            options["variant"]["radius"] = draw(st.integers(0, 2))
    if options:
        doc["options"] = options
    return _mutate(draw, doc)


def _mutate(draw, doc):
    """The document, or a copy with one value replaced by junk, one key
    dropped or one key added."""
    how = draw(st.sampled_from(["none"] * 3 + ["replace", "drop", "add"]))
    if how == "none":
        return doc
    doc = json.loads(json.dumps(doc))
    spots = []  # (container, key) of every value in the tree

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            spots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    node, key = draw(st.sampled_from(spots))
    if how == "replace":
        node[key] = draw(JUNK)
    elif how == "drop":
        del node[key]
    elif isinstance(node, dict):
        node["unexpected"] = draw(JUNK)
    else:
        node.append(draw(JUNK))
    return doc


def _path(draw, root: Path, name: str, made: Path) -> str:
    """``made`` itself (most often), or a directory, a missing path or a
    path below a file."""
    bad = [root / "dir", root / "missing", root / "file" / name]
    return str(draw(st.sampled_from([made] * 5 + bad)))


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(st.data())
def test_cli_exits_0_2_or_3_with_one_message(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "dir").mkdir()
        (root / "file").write_text("")
        problem = root / "problem.json"
        problem.write_text(json.dumps(data.draw(documents())))
        mask = root / "set.pgm"
        write_mask(mask, CellSet.of(GridDomain((2, 2)), [(0, 0)]))
        command = data.draw(st.sampled_from(COMMANDS))
        argv = [*command, "--problem", _path(data.draw, root, "p.json", problem)]
        if command == ["eval"] or command == ["render"] and data.draw(st.booleans()):
            argv += ["--set", _path(data.draw, root, "s.pgm", mask)]
        if command != ["eval"]:
            argv += ["--out", _path(data.draw, root, "o", root / "out")]
        if command[0] in ("minimize", "ic") and data.draw(st.booleans()):
            argv += ["--cap", str(data.draw(st.sampled_from([0, 4, 22])))]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue() + err
    if code == 0:
        assert err == ""
    elif err.startswith("{"):
        assert code == 3 and json.loads(err)["error"] == "non-submodular energy"
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
