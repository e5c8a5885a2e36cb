"""Static SVG export of time-space diagrams.

Each edge becomes a horizontal band (offset 0 at the bottom), time runs left
to right, the pursuer trace is drawn per band with an optional capture-radius
tube, and an optional evader witness is overlaid.  Output is a pure function
of the inputs: fixed iteration order, fixed float formatting, no timestamps.
"""

from __future__ import annotations

from .trajectory import TimedPath, check_same_graph, path_pieces

PLOT_W = 720.0
MARGIN_L = 86.0
MARGIN_R = 24.0
MARGIN_T = 46.0
MARGIN_B = 26.0
BAND_GAP = 14.0
BAND_MIN_H = 30.0
BAND_UNIT_H = 60.0

COP_COLOR = "#c23b22"
WITNESS_COLOR = "#2066a8"
TUBE_OPACITY = "0.14"


def _f(x: float) -> str:
    if x == 0:
        x = 0.0   # avoid emitting -0.000000
    return f"{x:.6f}"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def export_svg(cop: TimedPath, witness: TimedPath | None = None,
               eps: float | None = None, title: str | None = None) -> str:
    """Render the trajectory (and optional witness) to an SVG string."""
    g = cop.graph
    horizon = cop.duration
    if witness is not None:
        check_same_graph(cop, witness)
        horizon = max(horizon, witness.duration)
    if horizon <= 0:
        horizon = 1.0

    edges = sorted(g.edges, key=lambda e: e.id)
    max_len = max(e.length for e in edges)
    heights = [max(BAND_MIN_H, BAND_UNIT_H * e.length / max_len)
               for e in edges]
    tops = []
    y = MARGIN_T
    for hgt in heights:
        tops.append(y)
        y += hgt + BAND_GAP
    total_h = y - BAND_GAP + MARGIN_B
    total_w = MARGIN_L + PLOT_W + MARGIN_R
    band_of = {e.id: i for i, e in enumerate(edges)}

    def tx(t: float) -> float:
        return MARGIN_L + PLOT_W * (t / horizon)

    def oy(i: int, off: float) -> float:
        e = edges[i]
        frac = min(max(off / e.length, 0.0), 1.0)
        return tops[i] + heights[i] * (1.0 - frac)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_f(total_w)}" height="{_f(total_h)}" '
               f'viewBox="0 0 {_f(total_w)} {_f(total_h)}" '
               f'font-family="monospace" font-size="11">')
    label = title if title is not None else (
        f"time-space diagram, horizon {horizon:.6g}, "
        f"speed bound {cop.speed_bound:.6g}")
    out.append(f'<text x="{_f(MARGIN_L)}" y="18" font-size="13">'
               f'{_esc(label)}</text>')

    # clip every trace to its band
    out.append("<defs>")
    for i in range(len(edges)):
        out.append(f'<clipPath id="band{i}"><rect x="{_f(MARGIN_L)}" '
                   f'y="{_f(tops[i])}" width="{_f(PLOT_W)}" '
                   f'height="{_f(heights[i])}"/></clipPath>')
    out.append("</defs>")

    n_ticks = 8
    for i, e in enumerate(edges):
        out.append(f'<rect x="{_f(MARGIN_L)}" y="{_f(tops[i])}" '
                   f'width="{_f(PLOT_W)}" height="{_f(heights[i])}" '
                   f'fill="#f7f7f5" stroke="#b5b5b0" stroke-width="0.8"/>')
        out.append(f'<text x="6" y="{_f(tops[i] + 11)}">{_esc(e.id)}</text>')
        out.append(f'<text x="6" y="{_f(tops[i] + heights[i] - 3)}" '
                   f'font-size="9" fill="#666">{_esc(e.u)}&#8594;{_esc(e.v)}'
                   f'</text>')
        for k in range(1, n_ticks):
            x = MARGIN_L + PLOT_W * k / n_ticks
            out.append(f'<line x1="{_f(x)}" y1="{_f(tops[i])}" '
                       f'x2="{_f(x)}" y2="{_f(tops[i] + heights[i])}" '
                       f'stroke="#e0e0dc" stroke-width="0.6"/>')

    for k in range(n_ticks + 1):
        t = horizon * k / n_ticks
        out.append(f'<text x="{_f(tx(t))}" y="{_f(MARGIN_T - 8)}" '
                   f'text-anchor="middle" font-size="9" fill="#444">'
                   f't={t:.4g}</text>')

    def trace(path: TimedPath, color: str, width: str, tube: float | None):
        pieces = path_pieces(path, 0.0, path.duration)
        segs: dict[int, list[str]] = {}
        tubes: dict[int, list[str]] = {}
        for ta, tb, eid, xa, xb in pieces:
            i = band_of[eid]
            x1, y1 = tx(ta), oy(i, xa)
            x2, y2 = tx(tb), oy(i, xb)
            segs.setdefault(i, []).append(
                f"M {_f(x1)} {_f(y1)} L {_f(x2)} {_f(y2)}")
            if tube is not None and tube > 0:
                dy = heights[i] * tube / edges[i].length
                tubes.setdefault(i, []).append(
                    f"M {_f(x1)} {_f(y1 - dy)} L {_f(x2)} {_f(y2 - dy)} "
                    f"L {_f(x2)} {_f(y2 + dy)} L {_f(x1)} {_f(y1 + dy)} Z")
        parts = []
        for i in sorted(tubes):
            parts.append(f'<path d="{" ".join(tubes[i])}" fill="{color}" '
                         f'fill-opacity="{TUBE_OPACITY}" stroke="none" '
                         f'clip-path="url(#band{i})"/>')
        for i in sorted(segs):
            parts.append(f'<path d="{" ".join(segs[i])}" fill="none" '
                         f'stroke="{color}" stroke-width="{width}" '
                         f'stroke-linecap="round" '
                         f'clip-path="url(#band{i})"/>')
        return parts

    out.extend(trace(cop, COP_COLOR, "1.4", eps))
    if witness is not None:
        out.extend(trace(witness, WITNESS_COLOR, "1.2", None))
        out.append(f'<text x="{_f(MARGIN_L + PLOT_W - 4)}" y="18" '
                   f'text-anchor="end" font-size="10" '
                   f'fill="{WITNESS_COLOR}">witness</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_svg(cop: TimedPath, path, witness: TimedPath | None = None,
             eps: float | None = None, title: str | None = None) -> None:
    text = export_svg(cop, witness=witness, eps=eps, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
