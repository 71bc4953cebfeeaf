"""Static SVG rendering of masks and measure data (1D and 2D grids)."""

from __future__ import annotations

from typing import Optional

from .fileio import format_rational, image_layout
from .grid import CellSet, GridDomain
from .measure import MeasureData, SignedPair

CELL_PX = 20
PAD = 10

FILL_SET = "#4a6fa5"
FILL_EMPTY = "#ffffff"
GRID_LINE = "#999999"
COLOR_PLUS = "#c0392b"
COLOR_MINUS = "#27ae60"
COLOR_CELL_MASS = "#8e44ad"


def _xy(cell) -> tuple:
    return (cell[0], cell[1] if len(cell) > 1 else 0)


def _face_segment(face) -> tuple:
    """Pixel endpoints of a face, for 1D/2D grids."""
    if face.axis == 0:
        x = face.slot
        y = face.at[0] if face.at else 0
        return (
            PAD + x * CELL_PX,
            PAD + y * CELL_PX,
            PAD + x * CELL_PX,
            PAD + (y + 1) * CELL_PX,
        )
    x = face.at[0]
    y = face.slot
    return (
        PAD + x * CELL_PX,
        PAD + y * CELL_PX,
        PAD + (x + 1) * CELL_PX,
        PAD + y * CELL_PX,
    )


def _measure_elems(mu: MeasureData, color: str, out: list) -> None:
    for face, w in sorted(mu.face_weights.items()):
        x1, y1, x2, y2 = _face_segment(face)
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="4"/>'
        )
        tx, ty = (x1 + x2) // 2, (y1 + y2) // 2 - 3
        out.append(
            f'<text x="{tx}" y="{ty}" font-size="8" fill="{color}" '
            f'text-anchor="middle">{format_rational(w)}</text>'
        )
    for cell, w in sorted(mu.cell_weights.items()):
        cx, cy = _xy(cell)
        px = PAD + cx * CELL_PX + CELL_PX // 2
        py = PAD + cy * CELL_PX + CELL_PX // 2
        out.append(f'<circle cx="{px}" cy="{py}" r="4" fill="{COLOR_CELL_MASS}"/>')
        out.append(
            f'<text x="{px}" y="{py - 6}" font-size="8" fill="{COLOR_CELL_MASS}" '
            f'text-anchor="middle">{format_rational(w)}</text>'
        )


def render_svg(
    domain: GridDomain,
    mask: Optional[CellSet] = None,
    measures: Optional[SignedPair] = None,
) -> str:
    """Cells as unit squares (set = filled), measure faces as thick segments."""
    width, height, at = image_layout(domain)
    w_px = 2 * PAD + width * CELL_PX
    h_px = 2 * PAD + height * CELL_PX
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">',
        f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="{FILL_EMPTY}"/>',
    ]
    set_cells = mask.cells if mask is not None else frozenset()
    for y in range(height):
        for x in range(width):
            fill = FILL_SET if at(x, y) in set_cells else FILL_EMPTY
            out.append(
                f'<rect x="{PAD + x * CELL_PX}" y="{PAD + y * CELL_PX}" '
                f'width="{CELL_PX}" height="{CELL_PX}" fill="{fill}" '
                f'stroke="{GRID_LINE}" stroke-width="1"/>'
            )
    if measures is not None:
        _measure_elems(measures.plus, COLOR_PLUS, out)
        _measure_elems(measures.minus, COLOR_MINUS, out)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, domain, mask=None, measures=None) -> None:
    from pathlib import Path

    Path(path).write_text(render_svg(domain, mask, measures))
