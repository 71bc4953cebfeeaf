"""File formats: problem JSON, PGM masks, CSV series, rational strings.

All outputs are deterministic: JSON is dumped with sorted keys, CSV uses
RFC 4180 line endings, rationals serialize as "p/q" (or a bare integer
string when the denominator is 1).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

import jsonschema

from .grid import CellSet, Face, GridDomain, Region
from .measure import MeasureData, SignedPair


class ProblemFileError(ValueError):
    """The problem file fails schema validation or semantic checks."""


def format_rational(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ProblemFileError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ProblemFileError(f"bad rational {value!r}: {e}") from e
    raise ProblemFileError(f"not a rational: {value!r}")


_RATIONAL = {"type": ["string", "integer"]}
_COORDS = {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 3}

_CELLSET = {
    "type": "object",
    "oneOf": [
        {"required": ["all"]},
        {"required": ["cells"]},
    ],
    "properties": {
        "all": {"type": "boolean"},
        "cells": {"type": "array", "items": _COORDS},
    },
    "additionalProperties": False,
}

_MEASURE = {
    "type": "object",
    "properties": {
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"at": _COORDS, "w": _RATIONAL},
                "required": ["at", "w"],
                "additionalProperties": False,
            },
        },
        "faces": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "axis": {"type": "integer", "minimum": 0, "maximum": 2},
                    "slot": {"type": "integer", "minimum": 0},
                    "at": {"type": "array", "items": {"type": "integer"}},
                    "w": _RATIONAL,
                },
                "required": ["axis", "slot", "at", "w"],
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

PROBLEM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "dims": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                    "maxItems": 3,
                }
            },
            "required": ["dims"],
            "additionalProperties": False,
        },
        "region": _CELLSET,
        "mu_plus": _MEASURE,
        "mu_minus": _MEASURE,
        "problem": {
            "type": "object",
            "properties": {
                "kind": {
                    "type": "string",
                    "enum": ["obstacle", "dirichlet", "volume", "capacity"],
                },
                "inner": _CELLSET,
                "outer": _CELLSET,
                "a0": _CELLSET,
                "v": {"type": "integer", "minimum": 0},
                "faces": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "axis": {"type": "integer"},
                            "slot": {"type": "integer"},
                            "at": {"type": "array", "items": {"type": "integer"}},
                        },
                        "required": ["axis", "slot", "at"],
                        "additionalProperties": False,
                    },
                },
                "cells": {"type": "array", "items": _COORDS},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "options": {
            "type": "object",
            "properties": {
                "exhaustive_cap": {"type": "integer", "minimum": 0},
                "c": _RATIONAL,
                "v_max": {"type": "integer", "minimum": 1},
                "variant": {
                    "type": "object",
                    "properties": {
                        "kind": {
                            "type": "string",
                            "enum": [
                                "plain",
                                "interior-rep",
                                "relative",
                                "avoid-ball",
                                "relative-to-boundary",
                            ],
                        },
                        "radius": {"type": "integer", "minimum": 0},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
    },
    "required": ["grid"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ProblemFile:
    domain: GridDomain
    region: Region
    pair: SignedPair
    problem: Optional[dict]
    options: dict


def _parse_cellset(domain: GridDomain, obj: Optional[dict], default_all: bool) -> CellSet:
    if obj is None:
        return CellSet.full(domain) if default_all else CellSet.empty(domain)
    if obj.get("all"):
        return CellSet.full(domain)
    cells = [tuple(c) for c in obj.get("cells", [])]
    for c in cells:
        if not domain.contains_cell(c):
            raise ProblemFileError(f"cell {c} outside grid {domain.dims}")
    return CellSet.of(domain, cells)


def parse_face(domain: GridDomain, obj: dict) -> Face:
    face = Face(axis=obj["axis"], slot=obj["slot"], at=tuple(obj["at"]))
    if not domain.contains_face(face):
        raise ProblemFileError(f"face {obj} outside grid {domain.dims}")
    return face


def _parse_measure(domain: GridDomain, obj: Optional[dict]) -> MeasureData:
    if obj is None:
        return MeasureData.zero(domain)
    cell_weights = {}
    for entry in obj.get("cells", []):
        at = tuple(entry["at"])
        if not domain.contains_cell(at):
            raise ProblemFileError(f"cell {at} outside grid {domain.dims}")
        w = parse_rational(entry["w"])
        cell_weights[at] = cell_weights.get(at, Fraction(0)) + w
    face_weights = {}
    for entry in obj.get("faces", []):
        face = parse_face(domain, entry)
        w = parse_rational(entry["w"])
        face_weights[face] = face_weights.get(face, Fraction(0)) + w
    try:
        return MeasureData(domain, cell_weights, face_weights)
    except ValueError as e:
        raise ProblemFileError(str(e)) from e


def parse_problem(doc: dict) -> ProblemFile:
    try:
        jsonschema.validate(doc, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as e:
        where = ".".join(map(str, e.absolute_path)) + ": " if e.absolute_path else ""
        raise ProblemFileError(f"schema violation: {where}{e.message}") from e
    domain = GridDomain(tuple(doc["grid"]["dims"]))
    region_set = _parse_cellset(domain, doc.get("region"), default_all=True)
    region = Region.of(domain, region_set.cells)
    pair = SignedPair(
        _parse_measure(domain, doc.get("mu_plus")),
        _parse_measure(domain, doc.get("mu_minus")),
    )
    options = dict(doc.get("options", {}))
    return ProblemFile(
        domain=domain,
        region=region,
        pair=pair,
        problem=doc.get("problem"),
        options=options,
    )


def load_problem(path) -> ProblemFile:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must be a JSON object")
    return parse_problem(doc)


def problem_to_doc(pf: ProblemFile) -> dict:
    """Inverse of parse_problem, for round-trip checks."""
    doc: dict = {"grid": {"dims": list(pf.domain.dims)}}
    if len(pf.region.cells) == pf.domain.cell_count:
        doc["region"] = {"all": True}
    else:
        doc["region"] = {"cells": [list(c) for c in sorted(pf.region.cells)]}
    for key, mu in (("mu_plus", pf.pair.plus), ("mu_minus", pf.pair.minus)):
        if mu.is_zero:
            continue
        doc[key] = {
            "cells": [
                {"at": list(c), "w": format_rational(w)}
                for c, w in sorted(mu.cell_weights.items())
            ],
            "faces": [
                {
                    "axis": f.axis,
                    "slot": f.slot,
                    "at": list(f.at),
                    "w": format_rational(w),
                }
                for f, w in sorted(mu.face_weights.items())
            ],
        }
    if pf.problem is not None:
        doc["problem"] = pf.problem
    if pf.options:
        doc["options"] = pf.options
    return doc


def to_jsonable(obj):
    """Recursive conversion to JSON types; rationals become 'p/q' strings."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Face):
        return {"axis": obj.axis, "slot": obj.slot, "at": list(obj.at)}
    if isinstance(obj, CellSet):
        return [list(c) for c in sorted(obj.cells)]
    if isinstance(obj, dict):
        return {
            (k if isinstance(k, str) else dumps_key(k)): to_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [to_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_key(key) -> str:
    if isinstance(key, Face):
        return f"axis={key.axis};slot={key.slot};at={','.join(map(str, key.at))}"
    if isinstance(key, tuple):
        return ",".join(map(str, key))
    return str(key)


def dumps_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(
                [format_rational(v) if isinstance(v, Fraction) else v for v in row]
            )


def image_layout(domain: GridDomain):
    """(width, height, cell) of a 1D or 2D grid drawn as an image, where
    cell(x, y) is the cell at column x and row y, row 0 at the top."""
    if domain.d == 1:
        return domain.dims[0], 1, lambda x, y: (x,)
    if domain.d == 2:
        return domain.dims[0], domain.dims[1], lambda x, y: (x, y)
    raise ValueError("masks and pictures support 1D and 2D grids only")


def mask_to_pgm(A: CellSet) -> str:
    """ASCII PGM (P2): set cells 255, others 0; row 0 at the top."""
    width, height, at = image_layout(A.domain)
    lines = [f"P2", f"{width} {height}", "255"]
    for y in range(height):
        lines.append(" ".join("255" if at(x, y) in A.cells else "0" for x in range(width)))
    return "\n".join(lines) + "\n"


def write_mask(path, A: CellSet) -> None:
    Path(path).write_text(mask_to_pgm(A))


def read_mask(path, domain: GridDomain) -> CellSet:
    try:
        width, height, at = image_layout(domain)
    except ValueError as e:
        raise ProblemFileError(str(e)) from None
    tokens: List[str] = []
    for line in Path(path).read_text().splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ProblemFileError("not an ASCII PGM (P2) file")
    try:
        size, maxval = (int(tokens[1]), int(tokens[2])), int(tokens[3])
        values = [int(t) for t in tokens[4:]]
    except (IndexError, ValueError) as e:
        raise ProblemFileError(f"malformed PGM: {e}") from e
    if len(values) != size[0] * size[1]:
        raise ProblemFileError("PGM pixel count does not match its header")
    if size != (width, height):
        raise ProblemFileError("PGM size does not match the grid")
    pixels = ((x, y) for y in range(height) for x in range(width))
    cells = [at(x, y) for (x, y), v in zip(pixels, values) if v > maxval // 2]
    return CellSet.of(domain, cells)
