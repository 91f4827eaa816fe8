import math

import pytest

from splitrad.cli import main
from splitrad.dynamics import parse_poly
from splitrad.exact import DomainError
from splitrad.plotting import (contour_polylines, equipotential_svg,
                               escape_rate_grid)

SPLASH = parse_poly("(1/5)*z^3 - z^2")


def _bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def _contains(outer, inner):
    return (outer[0] <= inner[0] and inner[1] <= outer[1]
            and outer[2] <= inner[2] and inner[3] <= outer[3])


def test_grid_matches_pointwise_escape():
    lam, xs, ys = escape_rate_grid(parse_poly("z^2"), (-2, 2, -2, 2), 41, 80)
    # lambda(z) = log|z| for |z| > 1, 0 inside, for the squaring map
    for i, x in enumerate(xs):
        val = lam[20, i]  # row y = 0
        expect = math.log(abs(x)) if abs(x) > 1 else 0.0
        assert abs(val - expect) < 1e-6


def test_unit_circle_contour():
    cp = contour_polylines(parse_poly("z^2"), (-3, 3, -3, 3), [1.0], 151, 80)
    polys = cp[1.0]
    closed = [pts for pts, c in polys if c]
    assert len(closed) == 1
    x0, x1, y0, y1 = _bbox(closed[0])
    # the lambda = 1 level set of z^2 is the circle |z| = e
    r = math.e
    assert abs(x1 - r) < 0.1 and abs(-x0 - r) < 0.1
    assert abs(y1 - r) < 0.1 and abs(-y0 - r) < 0.1


def _winding_inside(point, poly):
    # ray casting; poly closed (first == last)
    x, y = point
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, poly[1:]):
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def test_splash_figure_structure():
    cp = contour_polylines(SPLASH, (-7, 7, -6, 6), (0.02, 0.1, 0.5, 1, 2), 600)
    closed = {lvl: [pts for pts, c in polys if c] for lvl, polys in cp.items()}
    n_closed = sum(len(v) for v in closed.values())
    assert n_closed >= 5
    # equipotential loops of the same map never cross: every pair of closed
    # loops is nested one way or the other, or disjoint
    loops = [pts for group in closed.values() for pts in group]
    for i in range(len(loops)):
        for j in range(i + 1, len(loops)):
            a, b = loops[i], loops[j]
            b_in_a = [_winding_inside(q, a) for q in b[:-1:max(1, len(b) // 7)]]
            a_in_b = [_winding_inside(q, b) for q in a[:-1:max(1, len(a) // 7)]]
            assert all(b_in_a) or not any(b_in_a) or all(a_in_b) or not any(a_in_b)
    # a nesting chain across levels
    big = {lvl: max(group, key=len) for lvl, group in closed.items() if group}
    assert _contains(_bbox(big[0.5]), _bbox(big[0.1]))
    assert _contains(_bbox(big[0.1]), _bbox(big[0.02]))
    # distinct closed component near the origin at the smallest level
    origin_loops = [pts for pts in closed[0.02] if _winding_inside((0.0, 0.0), pts)]
    assert origin_loops
    assert len(closed[0.02]) >= 2  # the origin loop is not the only component


def test_svg_deterministic_and_wellformed():
    svg1 = equipotential_svg(SPLASH, grid=200)
    svg2 = equipotential_svg(SPLASH, grid=200)
    assert svg1 == svg2
    assert svg1.startswith('<?xml version="1.0"')
    assert svg1.rstrip().endswith("</svg>")
    assert svg1.count("<path") > 5
    import xml.etree.ElementTree as ET
    ET.fromstring(svg1)


def test_window_validation():
    with pytest.raises(DomainError):
        equipotential_svg(SPLASH, window=(1, 1, -1, 1), grid=50)
    with pytest.raises(DomainError):
        contour_polylines(SPLASH, (-1, 1, -1, 1), [0.0], 50)


def test_coefficient_beyond_float_range_is_domain_error():
    with pytest.raises(DomainError, match="float range"):
        escape_rate_grid(parse_poly("z^2 + 10^400"), (-1, 1, -1, 1), 20)


@pytest.mark.parametrize("window", [(0, math.inf, 0, 1), (-math.inf, 1, 0, 1),
                                    (0, 1, math.nan, 1), (-1e308, 1e308, 0, 1)])
def test_non_finite_window_is_domain_error(window):
    with pytest.raises(DomainError, match="finite"):
        escape_rate_grid(SPLASH, window, 20)


def test_grid_past_the_cap_is_domain_error():
    with pytest.raises(DomainError, match="cap of 2000"):
        escape_rate_grid(parse_poly("z^2"), (-1, 1, -1, 1), 100_000)


@pytest.mark.parametrize("level", [math.nan, math.inf, -1.0])
def test_level_not_finite_and_positive_is_domain_error(level):
    with pytest.raises(DomainError, match="finite and positive"):
        contour_polylines(SPLASH, (-1, 1, -1, 1), [0.5, level], 20)


@pytest.mark.parametrize("flag, value", [("--grid", "100000"), ("--window", "0,inf,0,1"),
                                         ("--levels", "nan")])
def test_cli_exits_2_on_a_plot_that_cannot_end_well(flag, value, capsys):
    assert main(["equipotential", "--poly", "z^2", f"{flag}={value}"]) == 2
    assert "domain error" in capsys.readouterr().err
