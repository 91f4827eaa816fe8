"""Equipotential plots of the archimedean escape rate.

The grid evaluation is plain float numpy (plotting is non-certified by
design; rigorous claims live in localheights).  Contours are extracted by
marching squares with linear interpolation and chained into polylines via
exact cell-edge keys, so output is deterministic for fixed inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import DomainError
from .dynamics import Poly
from .places import FIELD_Q

_PALETTE = ("#1b5e9e", "#2a8f5a", "#b0771d", "#a23a8f", "#c03a2b",
            "#2aa0a4", "#6b4fbb", "#777777")

# Cap on the grid side.  Time and memory grow with its square: on one Intel
# Xeon core, 600 (the default, and the most any caller uses) takes 0.8 s and
# 57 MB, 2000 takes 13 s and 318 MB.
_MAX_GRID = 2000


def escape_rate_grid(f: Poly, window, grid: int, max_iter: int = 60) -> tuple:
    """(lam, xs, ys): escape-rate samples on a grid x window (float, non-certified)."""
    if f.field != FIELD_Q:
        raise DomainError("plotting runs over Q")
    x0, x1, y0, y1 = (float(w) for w in window)
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise DomainError("window must be finite, with a finite width and height")
    if not (x0 < x1 and y0 < y1) or grid < 2:
        raise DomainError("window must be nonempty and grid >= 2")
    if grid > _MAX_GRID:
        raise DomainError(f"grid {grid} exceeds the cap of {_MAX_GRID}")
    d = f.degree
    try:
        coeffs = [complex(c) for c in f.coeffs]
    except OverflowError:
        raise DomainError("plotting needs coefficients within the float range") from None
    lc = abs(coeffs[-1])
    c_ad = math.log(lc) / (d - 1)
    xs = np.linspace(x0, x1, grid)
    ys = np.linspace(y0, y1, grid)
    Z = xs[None, :] + 1j * ys[:, None]
    lam = np.zeros(Z.shape, dtype=np.float64)
    alive = np.ones(Z.shape, dtype=bool)
    big = 1e12
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iter):
            absz = np.abs(Z)
            esc = alive & (absz > big)
            if esc.any():
                lam[esc] = (np.log(absz[esc]) + c_ad) / d ** n
                alive &= ~esc
                Z = np.where(esc, 0.0, Z)
            if not alive.any():
                break
            W = np.zeros_like(Z)
            for c in reversed(coeffs):
                W = W * Z + c
            Z = np.where(alive, W, Z)
            bad = alive & ~np.isfinite(Z)
            if bad.any():  # overflowed between checks; escape level from previous size
                lam[bad] = (np.log(absz[bad]) + c_ad) / d ** n
                alive &= ~bad
                Z = np.where(bad, 0.0, Z)
    return lam, xs, ys


def _cell_crossings(lam: np.ndarray, level: float):
    """Marching-squares segments as pairs of cell-edge keys with interpolated points.

    An edge key is (j, i, 'h'|'v') for the edge from grid node (j, i) going
    right ('h') or up ('v'); the interpolation parameter fixes the point.
    """
    above = lam > level
    a = above[:-1, :-1]
    b = above[:-1, 1:]
    c = above[1:, 1:]
    dd = above[1:, :-1]
    case = (a.astype(np.int8) + 2 * b.astype(np.int8)
            + 4 * c.astype(np.int8) + 8 * dd.astype(np.int8))
    jj, ii = np.nonzero((case > 0) & (case < 15))
    segments = []

    def interp(v0, v1):
        denom = v1 - v0
        t = 0.5 if denom == 0 else (level - v0) / denom
        return min(max(t, 0.0), 1.0)

    for j, i in zip(jj.tolist(), ii.tolist()):
        k = int(case[j, i])
        # edges of the cell: bottom (j,i,h), right (j,i+1,v), top (j+1,i,h), left (j,i,v)
        def edge_point(which):
            if which == "bottom":
                return (j, i, "h"), interp(lam[j, i], lam[j, i + 1])
            if which == "right":
                return (j, i + 1, "v"), interp(lam[j, i + 1], lam[j + 1, i + 1])
            if which == "top":
                return (j + 1, i, "h"), interp(lam[j + 1, i], lam[j + 1, i + 1])
            return (j, i, "v"), interp(lam[j, i], lam[j + 1, i])

        links = _MS_TABLE[k]
        if k in (5, 10):  # saddle: disambiguate by the cell-center mean
            center_above = (lam[j, i] + lam[j, i + 1] + lam[j + 1, i] + lam[j + 1, i + 1]) / 4.0 > level
            links = _MS_SADDLE[(k, center_above)]
        for e1, e2 in links:
            segments.append((edge_point(e1), edge_point(e2)))
    return segments


# case index bit k: 1 = node above level, bits (bl, br, tr, tl)
_MS_TABLE = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("top", "bottom"),),
    11: (("top", "right"),),
    12: (("right", "left"),),
    13: (("right", "bottom"),),
    14: (("bottom", "left"),),
}
_MS_SADDLE = {
    (5, True): (("left", "top"), ("right", "bottom")),
    (5, False): (("left", "bottom"), ("right", "top")),
    (10, True): (("bottom", "right"), ("top", "left")),
    (10, False): (("bottom", "left"), ("top", "right")),
}


def _chain_polylines(segments, xs, ys):
    """Join segments sharing cell edges into polylines; returns (points, closed) pairs."""
    adj: dict = {}
    seg_used = [False] * len(segments)
    for idx, ((e1, _), (e2, _)) in enumerate(segments):
        adj.setdefault(e1, []).append((idx, e2))
        adj.setdefault(e2, []).append((idx, e1))
    tvals = {}
    for (e1, t1), (e2, t2) in segments:
        tvals[e1] = t1
        tvals[e2] = t2

    def coords(edge):
        j, i, kind = edge
        t = tvals[edge]
        if kind == "h":
            return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    polylines = []
    # open chains first (edges of degree 1), then remaining cycles
    starts = sorted(e for e, lst in adj.items() if len(lst) == 1)
    cycle_starts = sorted(adj.keys())
    for pool, closed_pass in ((starts, False), (cycle_starts, True)):
        for start in pool:
            if all(seg_used[i] for i, _ in adj[start]):
                continue
            chain = [start]
            cur = start
            while True:
                nxt = None
                for idx, other in adj[cur]:
                    if not seg_used[idx]:
                        seg_used[idx] = True
                        nxt = other
                        break
                if nxt is None:
                    break
                chain.append(nxt)
                cur = nxt
                if cur == start:
                    break
            if len(chain) >= 2:
                closed = chain[0] == chain[-1]
                polylines.append(([coords(e) for e in chain], closed))
    return polylines


def contour_polylines(f: Poly, window, levels, grid: int, max_iter: int = 60) -> dict:
    """{level: [(points, closed), ...]} marching-squares contours of the escape rate."""
    levels = sorted(float(l) for l in levels)
    if not all(0 < level < math.inf for level in levels):
        raise DomainError("levels must be finite and positive")
    lam, xs, ys = escape_rate_grid(f, window, grid, max_iter)
    return {level: _chain_polylines(_cell_crossings(lam, level), xs, ys) for level in levels}


def equipotential_svg(f: Poly, window=(-7, 7, -6, 6),
                      levels=(0.02, 0.1, 0.5, 1.0, 2.0), grid: int = 600,
                      max_iter: int = 60) -> str:
    """SVG document with one path per contour polyline; byte-deterministic."""
    contours = contour_polylines(f, window, levels, grid, max_iter)
    x0, x1, y0, y1 = (float(w) for w in window)
    width, height = x1 - x0, y1 - y0
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.4f} {height:.4f}" '
        f'width="720" height="{720 * height / width:.0f}">')
    out.append(f'<rect width="{width:.4f}" height="{height:.4f}" fill="white"/>')
    for li, (level, polys) in enumerate(sorted(contours.items())):
        color = _PALETTE[li % len(_PALETTE)]
        out.append(f'<g stroke="{color}" fill="none" stroke-width="0.02" '
                   f'data-level="{level:g}">')
        for points, closed in sorted(polys, key=lambda pc: (len(pc[0]), pc[0][:1])):
            cmds = []
            for k, (x, y) in enumerate(points if not closed else points[:-1]):
                cmds.append(f'{"M" if k == 0 else "L"}{x - x0:.4f},{y1 - y:.4f}')
            if closed:
                cmds.append("Z")
            out.append(f'<path d="{" ".join(cmds)}"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
