"""Start-up contract: numpy loads only to plot, sympy only for a factor of degree >= 4."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# one run of every subcommand but equipotential; a pool triple over Q(t)
# and a quintic whose f' has an irreducible cubic factor included
ARGVS = [
    ["analyze", "--poly", "z^3 + (1/5)*z^2"],
    ["hcrit", "--poly", "z^3 + (1/5)*z^2"],
    ["hcrit", "--poly", "z^5 + (1/7)*z^2"],
    ["canonical-height", "--poly", "z^3 + (1/5)*z^2", "--point", "1/2"],
    ["preperiodic", "--poly", "-(2/9)*z^3 - z^2"],
    ["disk-chain", "--poly", "z^3 + (1/5)*z^2", "--place", "5", "--depth", "4"],
    ["wings", "--poly", "z^7 + (1/11)*z^2", "--place", "11"],
    ["equidistribution", "--poly", "z^3 + (1/5)*z^2", "--points", "0,1,2,-1/5"],
    ["abc-quality", "--triple", "1,8,-9"],
    ["abc-quality", "--field", "Qt", "--triple=t^3-t^2-t-1,2*t^2-2*t+3,-t^3-t^2+3*t-2"],
    ["experiment", "--family", "z^3 + (1/a)*z^2", "--values", "5,7"],
]

BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["sympy"] = None  # any import of either raises
from splitrad.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except ImportError:
            codes.append("ImportError")
print(json.dumps(codes))
"""


def python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    p = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_import_loads_neither_numpy_nor_sympy():
    for module in ("splitrad", "splitrad.cli"):
        out = python(f"import sys, {module}; print('numpy' in sys.modules, 'sympy' in sys.modules)")
        assert out.split() == ["False", "False"], module


def test_subcommands_run_without_numpy_and_sympy():
    codes = json.loads(python(BLOCKED_RUN, json.dumps(ARGVS)))
    assert codes == [0] * len(ARGVS)


def test_equipotential_is_the_one_subcommand_that_needs_numpy():
    argv = [["equipotential", "--poly", "z^2 - 1", "--grid", "20"]]
    assert json.loads(python(BLOCKED_RUN, json.dumps(argv))) == ["ImportError"]


def test_plotting_names_still_import():
    out = python("""
import sys, splitrad
from splitrad import contour_polylines, equipotential_svg, escape_rate_grid
import splitrad.plotting
assert splitrad.plotting.equipotential_svg is equipotential_svg is splitrad.equipotential_svg
names = dir(splitrad)
assert {"plotting", "contour_polylines", "equipotential_svg", "escape_rate_grid"} <= set(names)
assert {"critical_points", "irreducible_factors", "__version__"} <= set(names)
try:
    splitrad.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("missing name did not raise")
print('numpy' in sys.modules)
""")
    assert out.split() == ["True"]
