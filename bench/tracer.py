"""Per-layer call counts and self times, recorded from outside splitrad.

The tracer wraps public functions of the splitrad modules and rebinds every
name that refers to them: the defining module, every other ``splitrad.*``
module namespace that imported the function by name, and the class
attribute for methods.  Calls between modules therefore pass through the
wrappers.  A span's self time is its duration minus the durations of the
wrapped calls made inside it.  A target that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import sys
import time

# (layer, dotted attribute inside splitrad.<layer>, metric stem)
TARGETS = [
    ("cli", "main", "cli.main"),
    ("exact", "factorize", "exact.factorize"),
    ("exact", "valuation", "exact.valuation"),
    ("exact", "is_prime", "exact.is_prime"),
    ("intervals", "horner", "intervals.horner"),
    ("intervals", "chorner", "intervals.chorner"),
    ("intervals", "taylor_enclosures", "intervals.taylor_enclosures"),
    ("intervals", "ctaylor_enclosures", "intervals.ctaylor_enclosures"),
    ("intervals", "horner_centered", "intervals.horner_centered"),
    ("intervals", "chorner_centered", "intervals.chorner_centered"),
    ("qpoly", "QPoly.resultant", "qpoly.resultant"),
    ("qpoly", "lagrange_interpolate", "qpoly.lagrange_interpolate"),
    ("qpoly", "QPoly.shift", "qpoly.shift"),
    ("qpoly", "irreducible_factors", "qpoly.irreducible_factors"),
    ("qpoly", "QPoly.squarefree_decomposition", "qpoly.squarefree_decomposition"),
    ("qpoly", "QPoly.rational_roots", "qpoly.rational_roots"),
    ("dynamics", "preperiodic_points", "dynamics.preperiodic_points"),
    ("dynamics", "critical_points", "dynamics.critical_points"),
    ("dynamics", "parse_poly", "dynamics.parse_poly"),
    ("dynamics", "Poly.__call__", "dynamics.poly_eval"),
    ("localheights", "canonical_height", "localheights.canonical_height"),
    ("localheights", "critical_height_local", "localheights.critical_height_local"),
    ("localheights", "critical_height_global", "localheights.critical_height_global"),
    ("localheights", "escape_rate_arch", "localheights.escape_rate_arch"),
    ("localheights", "escape_rate_arch_box", "localheights.escape_rate_arch_box"),
    ("localheights", "escape_rate_nonarch", "localheights.escape_rate_nonarch"),
    ("localheights", "analyze", "localheights.analyze"),
    ("berkovich", "wing_clusters", "berkovich.wing_clusters"),
    ("berkovich", "inner_disk_chain", "berkovich.inner_disk_chain"),
    ("berkovich", "annulus_membership", "berkovich.annulus_membership"),
    ("berkovich", "annulus_membership_in_chain", "berkovich.annulus_membership_in_chain"),
    ("places", "naive_height", "places.naive_height"),
    ("places", "radical", "places.radical"),
    ("places", "local_abs_log", "places.local_abs_log"),
    ("stats", "theorem_experiment", "stats.theorem_experiment"),
    ("stats", "equidistribution_report", "stats.equidistribution_report"),
    ("stats", "abc_quality", "stats.abc_quality"),
    ("plotting", "escape_rate_grid", "plotting.escape_rate_grid"),
    ("plotting", "contour_polylines", "plotting.contour_polylines"),
    ("plotting", "equipotential_svg", "plotting.equipotential_svg"),
]

LAYERS = sorted({layer for layer, _, _ in TARGETS})


class Stat:
    __slots__ = ("calls", "raised", "self_s", "first_call_s")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0
        self.first_call_s = 0.0

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Install with ``install()``; ``uninstall()`` restores every binding."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def _wrap(self, stem: str, fn):
        st = self.stats.setdefault(stem, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.self_s += dt - child
                if st.calls == 1:
                    st.first_call_s = dt
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", stem)
        wrapper.__qualname__ = getattr(fn, "__qualname__", stem)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, name, value):
        self._rebound.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        import importlib

        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"splitrad.{layer}")
            except ImportError:
                modules[layer] = None
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "splitrad" or name.startswith("splitrad."))]
        for layer, path, stem in TARGETS:
            mod = modules.get(layer)
            owner, fn = mod, None
            try:
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                fn = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            except (AttributeError, KeyError, TypeError):
                fn = None
            if fn is None or not callable(fn):
                self.absent.append(stem)
                continue
            wrapped = self._wrap(stem, fn)
            if isinstance(owner, type):
                self._set(owner, parts[-1], wrapped)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, name, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._rebound):
            setattr(owner, name, value)
        self._rebound.clear()

    def to_json(self) -> dict:
        return {"stats": {k: v.to_json() for k, v in self.stats.items()},
                "absent": list(self.absent)}


def merge(dumps: list[dict]) -> dict:
    """Sum tracer dumps of several processes; first_call_s becomes a median."""
    import statistics

    stats: dict[str, dict] = {}
    firsts: dict[str, list[float]] = {}
    absent: set[str] = set()
    for d in dumps:
        absent.update(d.get("absent", ()))
        for stem, s in d["stats"].items():
            acc = stats.setdefault(stem, {"calls": 0, "raised": 0, "self_s": 0.0,
                                          "first_call_s": 0.0})
            for k in ("calls", "raised", "self_s"):
                acc[k] += s[k]
            if s["calls"]:
                firsts.setdefault(stem, []).append(s["first_call_s"])
    for stem, vals in firsts.items():
        stats[stem]["first_call_s"] = statistics.median(vals)
    return {"stats": stats, "absent": sorted(absent)}
