"""Independent routes to the values splitrad reports, and the output checker.

Nothing here imports splitrad.  The routes are:

* archimedean escape rates from an mpmath orbit at 80 digits;
* factorizations and radicals from ``sympy.factorint`` / ``factor_list``;
* preperiodic sets by plain Fraction iteration (f(S) is inside S);
* ratios of logarithms evaluated as numbers, so an exact rational passes
  only if it equals the true ratio.

``check`` compares one recorded outcome with its reference and returns
``"ok"``, ``"undetermined"`` (only where the workload lets the op give up)
or ``"failed"`` with a reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from decimal import Decimal
from fractions import Fraction

DIGITS = 80


# ---------------------------------------------------------------------------
# polynomials as coefficient lists (constant term first)
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*(\(?-?\d+(?:/\d+)?\)?)?\s*\*?\s*(z(?:\^(\d+))?)?")


def parse_q_poly(text: str) -> list[Fraction]:
    """Coefficients of a polynomial in z written as in the benchmark's pools.

    The pools only use sums of ``c*z^k`` with ``c`` an integer or ``(p/q)``,
    and the leading sign ``-(p/q)``; this parser accepts exactly that.
    """
    s = text.replace(" ", "")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, c, zpart, e = m.groups()
        if c is None and zpart is None:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        val = Fraction(c.strip("()")) if c else Fraction(1)
        if sign == "-":
            val = -val
        k = (int(e) if e else 1) if zpart else 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + val
        pos = m.end()
    d = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(d + 1)]


def format_q_poly(coeffs: list[Fraction]) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        cs = str(a) if a.denominator == 1 else f"({a})"
        if k == 0:
            body = cs
        else:
            zs = "z" if k == 1 else f"z^{k}"
            body = zs if a == 1 else f"{cs}*{zs}"
        parts.append((sign, body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def peval(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def conjugate(coeffs: list[Fraction], a: Fraction, b: Fraction) -> list[Fraction]:
    """Coefficients of (f(a z + b) - b) / a."""
    acc = [Fraction(0)]
    for c in reversed(coeffs):
        new = [Fraction(0)] * (len(acc) + 1)
        for i, x in enumerate(acc):
            new[i] += x * b
            new[i + 1] += x * a
        new[0] += c
        acc = new
    acc = acc[:len(coeffs)]
    acc[0] -= b
    return [x / a for x in acc]


# ---------------------------------------------------------------------------
# archimedean escape rates with mpmath
# ---------------------------------------------------------------------------

def mp_escape_rate(coeffs: list[Fraction], z, max_steps: int = 3000):
    """lambda_infinity(z) = lim d^-n log|f^n(z)| as an mpf at DIGITS digits.

    Beyond |w| = 10^(DIGITS) the Green's function equals
    log|w| + log|a_d|/(d-1) up to O(1/|w|), far below the digits kept.
    An orbit that stays below the escape radius for max_steps is bounded (0).
    """
    import mpmath

    with mpmath.workdps(DIGITS + 20):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
        d = len(cs) - 1
        lc = abs(cs[-1])
        w = mpmath.mpmathify(z) if not isinstance(z, Fraction) else \
            mpmath.mpf(z.numerator) / z.denominator
        big = mpmath.mpf(10) ** DIGITS
        n = 0
        while abs(w) < big:
            if n >= max_steps:
                return mpmath.mpf(0)
            acc = cs[-1]
            for c in reversed(cs[:-1]):
                acc = acc * w + c
            w = acc
            n += 1
        return (mpmath.log(abs(w)) + mpmath.log(lc) / (d - 1)) / mpmath.mpf(d) ** n


def mp_crit_escape_rates(coeffs: list[Fraction]) -> list:
    """lambda_infinity at each critical point of f (roots of f' from mpmath.polyroots)."""
    import mpmath

    d = len(coeffs) - 1
    deriv = [i * coeffs[i] for i in range(1, d + 1)]
    with mpmath.workdps(DIGITS + 20):
        top_first = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(deriv)]
        roots = mpmath.polyroots(top_first, maxsteps=200, extraprec=4 * DIGITS)
    out = []
    for r in roots:
        if isinstance(r, mpmath.mpc) and abs(r.imag) < mpmath.mpf(10) ** (-DIGITS // 2):
            r = r.real
        out.append(mp_escape_rate(coeffs, r))
    return out


def mp_crit_escape_rate(coeffs: list[Fraction]):
    """max over the critical points of f of lambda_infinity, 0 if all are bounded."""
    return max([0] + mp_crit_escape_rates(coeffs))


def dec(x) -> str:
    import mpmath

    return mpmath.nstr(x, 50, strip_zeros=False) if x != 0 else "0"


# ---------------------------------------------------------------------------
# factorizations, radicals, heights of triples
# ---------------------------------------------------------------------------

def logs_of_int(n: int) -> dict[int, int]:
    """{p: e} with |n| = prod p^e, from sympy.factorint."""
    import sympy

    return {int(p): int(e) for p, e in sympy.factorint(abs(n)).items()}


def abc_q_reference(coords: list[Fraction]) -> dict:
    """h, rad, quality of a triple over Q, from sympy.factorint."""
    import math

    den = 1
    for c in coords:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coords]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    ints = [n // g for n in ints]
    big = max(abs(n) for n in ints)
    h = {p: Fraction(e) for p, e in logs_of_int(big).items()} if big > 1 else {}
    primes = set()
    for n in ints:
        primes.update(logs_of_int(n))
    rad = {p: Fraction(1) for p in primes}
    quality = dict(h)
    for p, q in rad.items():
        quality[p] = quality.get(p, Fraction(0)) - q
    return {"h": _lv(h), "rad": _lv(rad), "quality": _lv(quality)}


def abc_qt_reference(texts: list[str]) -> dict:
    """h, rad, quality of a triple of polynomials in t, from sympy.factor_list."""
    import sympy

    t = sympy.Symbol("t")
    polys = [sympy.Poly(sympy.sympify(s.replace("^", "**")), t, domain="QQ") for s in texts]
    g = polys[0]
    for q in polys[1:]:
        g = sympy.gcd(g, q)
    polys = [sympy.div(q, g)[0] for q in polys]
    degs = [q.degree() for q in polys]
    h = max(degs)
    rad = 0
    seen = set()
    for q in polys:
        for fac, _ in q.factor_list()[1]:
            key = tuple(fac.monic().all_coeffs())
            if key not in seen:
                seen.add(key)
                rad += fac.degree()
    if len(set(degs)) > 1:
        rad += 1
    return {"h": _lv({}, h), "rad": _lv({}, rad), "quality": _lv({}, h - rad)}


def _lv(logs: dict[int, Fraction], const=0) -> dict:
    return {"const": str(Fraction(const)),
            "logs": {str(p): str(q) for p, q in sorted(logs.items()) if q != 0},
            "arch": "0"}


def logvalue_ref(lv_json: dict, arch) -> dict:
    """Reference for a LogValue: the recorded exact part plus an independent arch value."""
    return {"const": lv_json.get("const", "0"), "logs": dict(lv_json.get("logs", {})),
            "arch": dec(arch) if not isinstance(arch, str) else arch}


def ratio_ref(num: dict, den: dict) -> dict:
    """True value of num/den for two exact LogValue references, and whether it is rational."""
    import mpmath

    def val(r):
        with mpmath.workdps(DIGITS):
            v = mpmath.mpf(Fraction(r["const"]).numerator) / Fraction(r["const"]).denominator
            for p, q in r["logs"].items():
                q = Fraction(q)
                v += mpmath.mpf(q.numerator) / q.denominator * mpmath.log(int(p))
            return v + mpmath.mpf(r["arch"])

    if Fraction(den["const"]) == 0 and not den["logs"] and mpmath.mpf(den["arch"]) == 0:
        return {"value": None, "exact": None}
    exact = None
    nl, dl = num["logs"], den["logs"]
    if Fraction(num["const"]) == 0 == Fraction(den["const"]) and num["arch"] == "0" == den["arch"]:
        if not nl:
            exact = "0"
        elif set(nl) == set(dl):
            ratios = {Fraction(nl[p]) / Fraction(dl[p]) for p in nl}
            if len(ratios) == 1:
                exact = str(ratios.pop())
    with mpmath.workdps(DIGITS):
        return {"value": dec(val(num) / val(den)), "exact": exact}


# ---------------------------------------------------------------------------
# preperiodic sets
# ---------------------------------------------------------------------------

def check_preperiodic(coeffs: list[Fraction], points: list[dict]) -> str | None:
    """f(S) inside S, and each listed (preperiod, period) matches the Fraction orbit."""
    values = {Fraction(p["value"]) for p in points}
    for x in values:
        if peval(coeffs, x) not in values:
            return f"f({x}) leaves the set"
    for p in points:
        x = Fraction(p["value"])
        seen = {x: 0}
        orbit = [x]
        while True:
            nxt = peval(coeffs, orbit[-1])
            if nxt in seen:
                pre, per = seen[nxt], len(orbit) - seen[nxt]
                break
            seen[nxt] = len(orbit)
            orbit.append(nxt)
        if (pre, per) != (p["preperiod"], p["period"]):
            return f"orbit data of {x} is {(pre, per)}, listed {(p['preperiod'], p['period'])}"
    return None


# ---------------------------------------------------------------------------
# checking outputs against references
# ---------------------------------------------------------------------------

def _contains(lo: float, hi: float, value: str) -> bool:
    v = Fraction(Decimal(value))
    return Fraction(lo) <= v <= Fraction(hi)


def check_logvalue(act, ref: dict, tol: float) -> str | None:
    """None if the LogValue JSON ``act`` matches ``ref``; else the reason."""
    if not isinstance(act, dict):
        return f"expected a LogValue, got {act!r}"
    if Fraction(act.get("const", "0")) != Fraction(ref["const"]):
        return f"const {act.get('const', '0')} != {ref['const']}"
    al = {int(p): Fraction(q) for p, q in act.get("logs", {}).items()}
    rl = {int(p): Fraction(q) for p, q in ref["logs"].items()}
    if al != rl:
        return f"log part {act.get('logs', {})} != {ref['logs']}"
    lo, hi = act.get("err", [0.0, 0.0])
    if not _contains(lo, hi, ref["arch"]):
        return f"enclosure [{lo!r}, {hi!r}] misses {ref['arch'][:20]}"
    if hi - lo > tol * (1 + 1e-9):
        return f"enclosure width {hi - lo:.3g} > tol {tol:.3g}"
    return None


def check_ratio(act, ref: dict) -> str | None:
    """An exact rational passes only if it equals the true ratio; an interval must contain it."""
    if act == "":
        act = None
    if ref["value"] is None:
        return None if act is None else f"ratio {act!r} where none exists"
    if isinstance(act, str) and re.fullmatch(r"-?\d+(/\d+)?", act.strip()):
        if ref["exact"] is not None and Fraction(act) == Fraction(ref["exact"]):
            return None
        return f"exact ratio {act} but the true ratio is {ref['value'][:20]}" + (
            "" if ref["exact"] is not None else " (irrational)")
    nums = re.findall(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?", json.dumps(act))
    if len(nums) >= 2:
        lo, hi = float(nums[-2]), float(nums[-1])
        if lo <= hi and _contains(lo, hi, ref["value"]):
            return None
    return f"ratio {act!r} does not enclose {ref['value'][:20]}"


def _check_tree(act, exp, tol: float, path: str) -> str | None:
    if isinstance(exp, dict) and "arch" in exp and "logs" in exp:
        why = check_logvalue(act, exp, tol)
        return f"{path}: {why}" if why else None
    if isinstance(exp, dict) and "exact" in exp and "value" in exp and len(exp) == 2:
        why = check_ratio(act, exp)
        return f"{path}: {why}" if why else None
    if isinstance(exp, dict):
        if not isinstance(act, dict) or set(act) != set(exp):
            return f"{path}: keys {sorted(act) if isinstance(act, dict) else act!r} != {sorted(exp)}"
        for k in exp:
            why = _check_tree(act[k], exp[k], tol, f"{path}.{k}")
            if why:
                return why
        return None
    if isinstance(exp, list):
        if not isinstance(act, list) or len(act) != len(exp):
            return f"{path}: {act!r} != {exp!r}"
        for i, (a, e) in enumerate(zip(act, exp)):
            why = _check_tree(a, e, tol, f"{path}[{i}]")
            if why:
                return why
        return None
    return None if act == exp else f"{path}: {act!r} != {exp!r}"


def check_value(act, expect: dict, tol: float) -> str | None:
    """Compare a decoded result with the reference ``expect`` of one pool entry."""
    kind = expect["kind"]
    if kind == "tree":
        return _check_tree(act, expect["value"], tol, "$")
    if kind == "json":
        try:
            act = json.loads(act)
        except (TypeError, ValueError):
            return f"not JSON: {str(act)[:60]!r}"
        return _check_tree(act, expect["value"], tol, "$")
    if kind == "sha256":
        got = hashlib.sha256(act.encode()).hexdigest() if isinstance(act, str) else None
        return None if got == expect["value"] else f"sha256 {got} != {expect['value']}"
    if kind == "csv":
        rows = list(csv.DictReader(io.StringIO(act))) if isinstance(act, str) else act
        return _check_tree(rows, expect["value"], tol, "$")
    if kind == "text":
        return None if act == expect["value"] else f"{act!r} != {expect['value']!r}"
    if kind == "undetermined":
        return f"answered {act!r}; {expect['why']}"
    raise ValueError(f"unknown reference kind {kind!r}")


def check(outcome: dict, expect: dict, tol: float, may_give_up: bool) -> tuple[str, str]:
    """Classify one outcome: ok, undetermined or failed (with the reason).

    Giving up is ``undetermined`` only where ``may_give_up``; elsewhere the
    reference holds an answer, so it is a failed op.
    """
    status = outcome["status"]
    if status == "undetermined":
        if may_give_up:
            return "undetermined", outcome.get("detail", "")
        return "failed", f"gave up where an answer is expected: {outcome.get('detail', '')}"
    if status != "ok":
        return "failed", f"{status}: {outcome.get('detail', '')}"
    why = check_value(outcome["value"], expect, tol)
    return ("failed", why) if why else ("ok", "")
