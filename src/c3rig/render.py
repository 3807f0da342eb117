"""SVG emission for placements, with the certificate's trees styled.

Purely presentational: coordinates are the float view of the exact data,
scaled into a fixed 800x800 viewBox with a 5% margin. Output bytes are
deterministic for a fixed input.
"""
from __future__ import annotations

from .geometry import Placement
from .graphs import SymGraph
from .trees import TreePartition

VIEW = 800.0
MARGIN = 0.05

_TREE_STYLE = {
    0: 'class="t0" stroke="#000000" stroke-width="5"',
    1: 'class="t1" stroke="#000000" stroke-width="2.5" stroke-dasharray="9,6"',
    2: 'class="t2" stroke="#000000" stroke-width="1.2"',
}


def render_svg(sg: SymGraph, placement: Placement, partition: TreePartition) -> str:
    """Joints as circles, bars as segments, one stroke class per tree."""
    g = sg.graph
    floats = placement.float_positions()
    xs = [p[0] for p in floats]
    ys = [p[1] for p in floats]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    inner = VIEW * (1.0 - 2.0 * MARGIN)

    def to_view(p: tuple[float, float]) -> tuple[float, float]:
        # center the drawing; SVG y grows downward
        x = VIEW * MARGIN + (p[0] - min_x + (span - (max_x - min_x)) / 2.0) / span * inner
        y = VIEW * MARGIN + (max_y - p[1] + (span - (max_y - min_y)) / 2.0) / span * inner
        return x, y

    tree_of = partition.tree_of

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
    ]
    for e in g.sorted_edges:
        x1, y1 = to_view(floats[e[0]])
        x2, y2 = to_view(floats[e[1]])
        style = _TREE_STYLE[tree_of[e]]
        lines.append(
            f'<line x1="{x1:.4f}" y1="{y1:.4f}" x2="{x2:.4f}" y2="{y2:.4f}" {style}/>'
        )
    for v in range(g.n):
        x, y = to_view(floats[v])
        lines.append(
            f'<circle class="joint" cx="{x:.4f}" cy="{y:.4f}" r="7" '
            'fill="#ffffff" stroke="#000000" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
