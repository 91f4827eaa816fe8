"""Splitting radii, escape rates, critical and canonical heights.

Each reads the Newton polygon that dynamics keeps per map and prime (and
re-exported here).

All finite-place escape rates are exact LogValues produced by one of two
certificates: an escape certificate (once |f^n(z)|_p exceeds the radius
theta_p beyond which |f(z)|_p = |a_d|_p |z|_p^d identically, the limit has a
closed form) or a boundedness certificate (the orbit enters a disk D with
f(D) contained in D, checked by exact Taylor data).  The archimedean escape
rate is a certified interval: beyond Theta = max(1, 2*sum|a_i|/|a_d|,
(4/|a_d|)^(1/(d-1))) each step satisfies log|f(z)| = d log|z| + log|a_d| + delta
with |delta| <= -log(1 - eps), eps <= sum|a_i|/(|a_d||z|), so the geometric
tail is bounded explicitly and shrinks doubly fast as the orbit grows.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .exact import (DomainError, LogValue, UndeterminedError, Value, is_prime, prime_support,
                    valuation)
# NewtonPolygon is re-exported: pickles made before it moved to dynamics name it here
from .dynamics import (NewtonPolygon, Poly, _print_coeffs, candidate_bad_primes, center,
                       critical_points, escape_exponent, newton_polygon)
from .intervals import CBox, Interval, horner, horner_centered
from .places import FIELD_Q, Place
from .qpoly import (QPoly, _mod_reduce, poly_add, poly_derivative, poly_divmod, poly_gcd,
                    poly_horner, poly_powmod, poly_shift)


# ---------------------------------------------------------------------------
# splitting radius
# ---------------------------------------------------------------------------

def splitting_exponent(f: Poly, p: int) -> Fraction:
    """log_p of the circumradius of the filled Julia set of the centered form.

    Valid for monic f at p not dividing d: translating to the barycenter is
    then a p-adic isometry and the largest centered root size equals the
    radius of the smallest disk containing the filled Julia set.
    """
    if f.field != FIELD_Q:
        raise DomainError("splitting data is computed over Q")
    if not f.is_monic():
        raise DomainError("splitting radius needs a monic polynomial")
    d = f.degree
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if d % p == 0:
        raise DomainError(f"no splitting verdict at p={p} dividing d={d}")
    # the centered form is monic with no z^(d-1) term: its last slope is max_{i <= d-2} -v_i/(d - i)
    s = newton_polygon(center(f)[0], p).max_slope()
    return s if s is not None else Fraction(-10 ** 9)  # all inner coefficients vanish: z^d


def splitting_radius(f: Poly, p: int) -> LogValue | None:
    """g_v = s* log p when s* > 0 (bad reduction), None when good."""
    s = splitting_exponent(f, p)
    if s > 0:
        return LogValue.from_log(p, s)
    return None


# ---------------------------------------------------------------------------
# non-archimedean escape rate
# ---------------------------------------------------------------------------

def _invariant_disk_range(shifted: QPoly, c: Fraction, p: int):
    """(lo, hi) rational log_p radii t with f(D(c, p^t)) inside D(c, p^t); None if empty.

    shifted holds the Taylor coefficients of f at c.
    """
    f1 = shifted[1]
    if f1 != 0 and valuation(f1, p) < 0:
        return None
    delta = shifted[0] - c
    lo = Fraction(-valuation(delta, p)) if delta != 0 else None
    hi = None
    for j in range(2, shifted.degree() + 1):
        cj = shifted[j]
        if cj != 0:
            cand = Fraction(valuation(cj, p), j - 1)
            hi = cand if hi is None else min(hi, cand)
    if hi is None:
        return None
    if lo is not None and lo > hi:
        return None
    return (lo, hi)


def escape_rate_nonarch(f: Poly, p: int, z, maxiter: int = 30) -> LogValue:
    """Exact lambda_p(z) via the escape or boundedness certificate."""
    if f.field != FIELD_Q:
        raise DomainError("non-archimedean escape rates run over Q")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    _check_nonnegative("maxiter", maxiter)
    s_esc = escape_exponent(f, p)
    z = Fraction(z)
    d = f.degree
    c_p = Fraction(-valuation(f.lc, p), d - 1)
    fq = f.as_qpoly()
    cur = z
    seen: set[Fraction] = set()
    for n in range(maxiter + 1):
        if cur in seen:  # exactly preperiodic: the orbit is a finite set
            return LogValue.zero()
        seen.add(cur)
        if cur != 0:
            t = Fraction(-valuation(cur, p))
            if t > s_esc:
                return LogValue.from_log(p, (t + c_p) / d ** n)
        shifted = fq.shift(cur)
        if _invariant_disk_range(shifted, cur, p) is not None:
            return LogValue.zero()
        cur = shifted[0]  # the Taylor shift's constant term is f(cur)
        if cur.numerator.bit_length() + cur.denominator.bit_length() > 500_000:
            break
    raise UndeterminedError(
        f"no escape/boundedness certificate at p={p} within {maxiter} iterations")


# ---------------------------------------------------------------------------
# archimedean escape rate
# ---------------------------------------------------------------------------

def _arch_threshold(f: Poly) -> tuple[float, float]:
    """Float upper bounds for Theta and for the ratio sum sum|a_i|/|a_d| of the tail bound.

    When a coefficient or a bound lies beyond the float range both are inf:
    no finite enclosure then passes the escape test, so only the
    invariant-disk certificate remains.
    """
    d = f.degree
    lc = abs(f.lc)
    ratio_sum = sum((abs(f[i]) for i in range(d)), Fraction(0)) / lc
    try:
        ratio_hi = math.nextafter(float(ratio_sum), math.inf)
        th = max(1.0, 2.0 * float(ratio_sum) * (1 + 1e-12),
                 (4.0 / float(lc)) ** (1.0 / (d - 1)) * (1 + 1e-12))
    except (OverflowError, ZeroDivisionError):  # |a_d|, ratio_sum or 1/|a_d| beyond the float range
        return math.inf, math.inf
    return math.nextafter(th, math.inf), ratio_hi


def _point_orbit(coeffs, P, n: int) -> list:
    """Enclosures of f(P), ..., f^n(P), cut before the first unbounded or unformable one."""
    orbit = []
    try:
        for _ in range(n):
            P = horner(coeffs, P)
            if not math.isfinite(P.span):
                break
            orbit.append(P)
    except (ValueError, OverflowError):
        pass
    return orbit


def _try_invariant(coeffs, Z, max_period: int = 4) -> tuple[float, int] | None:
    """Search for a ball D containing Z with f^j(D) inside D for some j <= max_period.

    Returns the certificate (r, j) of the first such ball D = Z.ball(mid, r),
    or None.  D runs over the radii r0 * 2^k, and W_j encloses f^j(D).
    The point orbit P_j, enclosures of f^j(mid), is computed once per call and
    prunes the W-loop exactly: mid lies in D, so f^j(mid) lies in W_j, and if
    P_j misses D then so does f^j(mid), and W_j is not inside D.  A radius
    therefore iterates only up to the last j whose P_j meets D, and is skipped
    when there is none; every radius answers as the full loop would, so the
    same first radius succeeds.  If some P_j is unbounded or cannot be formed,
    no radius is pruned: that j and every later one may meet D.
    """
    mid = Z.mid
    if not cmath.isfinite(mid):
        return None
    r = max(Z.span, 1e-9 * (1.0 + abs(mid)))
    limit = 4.0 * (1.0 + abs(mid))
    orbit = _point_orbit(coeffs, Z.point(mid), max_period)
    # Taylor rows by exact centre: the balls of every radius and their images share a few centres
    rows = {}
    while r <= limit:
        D = Z.ball(mid, r)
        if D.encloses(Z):
            reach = max_period
            if len(orbit) == max_period:
                while reach and not orbit[reach - 1].overlaps(D):
                    reach -= 1
            W = D
            for j in range(1, reach + 1):
                W = horner_centered(coeffs, W, rows)
                if D.encloses(W):
                    return r, j
                if W.span > 64.0 * r + 64.0:
                    break
        r *= 2.0
    return None


def _escape_rate_arch_generic(f: Poly, value, tol: float, extra_steps: int,
                              maxiter: int, exact_mod: Fraction | None = None) -> LogValue:
    """Escape rate from an Interval or CBox enclosure of the starting point (|z| if exact)."""
    d = f.degree
    theta_hi, ratio_hi = _arch_threshold(f)
    c_ad = Interval.log_of_fraction(abs(f.lc)) * Interval.from_fraction(Fraction(1, d - 1))
    log_ad = Interval.log_of_fraction(abs(f.lc))
    overflow_guard = 10.0 ** (250 // d)
    coeffs = [value.enclose(c) for c in f.coeffs]  # once per call, not per evaluation

    def candidate(U: Interval, n: int, eps: float) -> Interval:
        """lambda from U containing log|f^n(z)|, with eps >= sum|a_i|/(|a_d||f^n(z)|)."""
        b_tail = math.nextafter(2.0 * eps / (d - 1), math.inf)
        return ((U + c_ad + Interval(-b_tail, b_tail))
                * Interval.from_fraction(Fraction(1, d ** n)))

    Z = value
    escaped_budget = extra_steps
    lam = None
    for n in range(maxiter + extra_steps + 1):
        mod = Z.modulus()
        if mod.lo >= theta_hi:
            # an exact start beyond the float range has an unbounded enclosure: take log|z|
            # from the rational (G(z) = log|z| + log|a_d|/(d-1) + O(1/|z|))
            U = mod.log() if math.isfinite(mod.hi) else Interval.log_of_fraction(exact_mod)
            lam = candidate(U, n, math.nextafter(ratio_hi / mod.lo, math.inf) if ratio_hi else 0.0)
            if lam.width <= tol:
                if escaped_budget <= 0:
                    return LogValue.from_interval(lam)
                escaped_budget -= 1
            if mod.hi >= overflow_guard:
                # cannot iterate further in floats; finish any remaining
                # stability steps in log space (the tail here is negligible)
                while escaped_budget > 0:
                    eps = math.nextafter(ratio_hi * math.nextafter(math.exp(-U.lo), math.inf),
                                         math.inf) if ratio_hi else 0.0
                    U = U * d + log_ad + Interval(-2.0 * eps, 2.0 * eps)
                    n += 1
                    escaped_budget -= 1
                    lam = candidate(U, n, eps)
                if lam.width <= tol:
                    return LogValue.from_interval(lam)
                raise UndeterminedError(
                    f"archimedean enclosure plateaued at width {lam.width:.3g} > tol {tol:.3g}")
        elif _try_invariant(coeffs, Z) is not None:
            return LogValue.zero()
        Z = horner_centered(coeffs, Z)
        w, scale = Z.span, max(1.0, Z.modulus().lo)
        if not math.isfinite(w) or w > 1e-3 * scale:
            if theta_hi == math.inf:
                raise UndeterminedError(
                    "archimedean escape: a coefficient or the escape radius lies beyond the float range")
            raise UndeterminedError("archimedean interval iteration lost precision")
    raise UndeterminedError(f"no archimedean certificate within {maxiter} iterations")


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def _check_arch_args(f: Poly, tol: float, maxiter: int = 0, extra_steps: int = 0) -> None:
    if f.field != FIELD_Q:
        raise DomainError("archimedean escape rates run over Q")
    if not tol > 0:  # also NaN
        raise DomainError("tol must be positive")
    _check_nonnegative("maxiter", maxiter)
    _check_nonnegative("extra_steps", extra_steps)


def escape_rate_arch(f: Poly, z, tol: float = 1e-9, extra_steps: int = 0,
                     maxiter: int = 400) -> LogValue:
    """Certified interval of width <= tol around lambda_infinity(z), or exact 0."""
    _check_arch_args(f, tol, maxiter, extra_steps)
    z = Fraction(z)
    # exact preperiodicity is certified by Fraction equality
    orbit = [z]
    for _ in range(24):
        nxt = f(orbit[-1])
        if nxt in orbit:
            return LogValue.zero()
        if nxt.numerator.bit_length() + nxt.denominator.bit_length() > 2000:
            break
        orbit.append(nxt)
    return _escape_rate_arch_generic(f, Interval.from_fraction(z), tol, extra_steps, maxiter,
                                     abs(z))


def escape_rate_arch_box(f: Poly, box: CBox, tol: float = 1e-9,
                         maxiter: int = 400) -> LogValue:
    """Escape rate over a certified complex enclosure (for irrational critical points)."""
    _check_arch_args(f, tol, maxiter)
    return _escape_rate_arch_generic(f, box, tol, 0, maxiter)


# ---------------------------------------------------------------------------
# certified complex root enclosures (for critical points of f)
# ---------------------------------------------------------------------------

_ROOT_REFINE = 400  # Durand-Kerner sweeps in complex_root_boxes


def complex_root_boxes(g: QPoly) -> list[CBox]:
    """Disjoint certified boxes, one around each root of a squarefree g.

    Durand-Kerner approximations; each is certified by the classical bound
    that a root lies within deg(g) * |g(w)/g'(w)| of any point w.
    """
    n = g.degree()
    if n < 1:
        return []
    gm = g.monic()
    try:
        cs = [complex(c) for c in gm.coeffs]
    except OverflowError:
        raise UndeterminedError("cannot locate complex critical points: "
                                "a coefficient lies beyond the float range") from None
    radius = 1.0 + max(abs(c) for c in cs[:-1]) if n >= 1 else 1.0
    ws = [radius * (0.4 + 0.9j) ** (k + 1) for k in range(n)]
    for _ in range(_ROOT_REFINE):
        moved = 0.0
        for k in range(n):
            num = poly_horner(cs, ws[k])
            den = 1.0 + 0j
            for j in range(n):
                if j != k:
                    den *= ws[k] - ws[j]
            if den == 0:
                den = 1e-300
            step = num / den
            ws[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-15 * max(1.0, radius):
            break
    gp = gm.derivative()
    boxes = []
    radii = []
    for w in ws:
        wb = CBox.point(w)
        num_hi = horner(gm.coeffs, wb).modulus().hi
        den_lo = horner(gp.coeffs, wb).modulus().lo
        if den_lo <= 0:
            raise UndeterminedError("cannot certify complex critical points (derivative enclosure hits 0)")
        r = math.nextafter(n * num_hi / den_lo, math.inf) * (1 + 1e-9) + 1e-300
        radii.append(r)
        boxes.append(CBox.ball(w, r))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(ws[i] - ws[j]) <= (radii[i] + radii[j]) * (1 + 1e-9):
                raise UndeterminedError("complex root enclosures overlap; roots too close to certify")
    return boxes


# ---------------------------------------------------------------------------
# parabolic fixed points
# ---------------------------------------------------------------------------

# the mod-p screen of _screen_clears uses the first prime from here on that it may
_SCREEN_START = 1000003


@lru_cache(maxsize=None)
def _unity_orders(d: int) -> tuple[tuple[int, ...], int]:
    """((q with phi(q) <= d, ascending), their lcm N) for maps of degree d.

    A fixed point is a root of f(z) - z, of degree d, and its multiplier lies in
    Q(alpha); a primitive q-th root of unity has degree phi(q) >= sqrt(q/2), so
    phi(q) <= d and q <= 2 d^2.  N is 12 for d = 2, 3, 120 for d = 4, 5.
    """
    top = 2 * d * d
    phi = list(range(top + 1))  # Euler's totient by sieve
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    orders = tuple(q for q in range(1, top + 1) if phi[q] <= d)
    return orders, math.lcm(*orders)


def _screen_clears(f: Poly) -> bool:
    """True when a gcd mod one prime proves that f has no parabolic fixed point.

    With h = f(z) - z, f has one exactly when g = gcd(h, f'^N - 1) is nonconstant
    over Q.  Take p dividing no coefficient denominator and not the numerator of
    lc(f).  Then p does not divide the leading coefficient of the primitive integer
    form of h, nor (Gauss's lemma) that of any factor of it, so a nonconstant factor
    of g keeps its degree mod p and divides both reductions: a constant gcd mod p
    proves g = 1.  p is the first such prime from _SCREEN_START on; only finitely
    many primes divide those numbers, so there always is one.
    """
    p = _SCREEN_START
    while f.lc.numerator % p == 0 or any(c.denominator % p == 0 for c in f.coeffs):
        p += 2
        while not is_prime(p):
            p += 2
    h = [_mod_reduce(c, p) for c in f.coeffs]
    df = poly_derivative(h, p)
    h[1] = (h[1] - 1) % p
    n = _unity_orders(f.degree)[1]
    return len(poly_gcd(h, poly_add(poly_powmod(df, n, h, p), [-1], p), p)) == 1


def _parabolic_fixed_points(f: Poly) -> list[tuple[list, int]]:
    """[(g_q, q)], q ascending: the roots of the monic g_q are the fixed points of f whose
    multiplier is a primitive q-th root of unity.  Empty when f has no such point.

    Unless the screen clears f, each possible order q is tried over Q on the
    squarefree part of f(z) - z, from which every g_q found is divided out: the
    roots of gcd(rest, f'^q - 1) left by the smaller orders have order exactly q.
    Reducing f'^q modulo a polynomial of degree <= d keeps the Fractions small;
    f'^N over Q would not.
    """
    if _screen_clears(f):
        return []
    h = list(f.coeffs)
    h[1] -= 1
    rest = poly_divmod(h, poly_gcd(h, poly_derivative(h)))[0]
    df = poly_derivative(f.coeffs)
    found = []
    for q in _unity_orders(f.degree)[0]:
        if len(rest) == 1:
            break
        gq = poly_gcd(rest, poly_add(poly_powmod(df, q, rest), [-1]))
        if len(gq) > 1:
            found.append((gq, q))
            rest = poly_divmod(rest, gq)[0]
    return found


def _ordinal(q: int) -> str:
    return f"{q}{'th' if 10 <= q % 100 <= 20 else {1: 'st', 2: 'nd', 3: 'rd'}.get(q % 10, 'th')}"


def _parabolic_give_up(f: Poly) -> str | None:
    """Why no archimedean critical-height certificate can exist for f, or None.

    Let alpha be a fixed point with multiplier a root of unity.  Its basin holds a
    critical point c whose orbit converges to alpha and never lands on it (Fatou;
    Milnor, Dynamics in One Complex Variable, section 10).  For c the escape test
    cannot fire (the orbit stays below Theta), the exact preperiodicity check cannot
    either, and the invariant-disk search would need a ball D containing some f^n(c)
    and a j <= 4 with f^j(D) inside W_j inside D.  Every endpoint of W_j comes out of
    a nextafter step, so it lies strictly beyond the image: horner_centered ends with
    a product of two enclosures of positive width (no 0/1 shortcut applies) and a
    sum that rounds outward or, for an exact-zero constant term, returns that
    product; with d >= 2 and D of positive width, every W_j has positive width too.
    So f^j(D) lies in the interior of W_j, and alpha, a limit of f^(n + kj)(c) in D,
    lies in int D.
    - c irrational: D is a CBox.  f^j maps int D into a compact subset of itself and
      fixes alpha, so by Schwarz's lemma |(f^j)'(alpha)| < 1, against |multiplier| = 1.
    - c rational: D is a real Interval and alpha is real, multiplier +-1.  Real
      intervals can be invariant about such a point (multiplier -1 attracting on both
      sides, or an odd-order contact), so this branch needs a side of alpha whose
      points escape: if h(z) = f(z) - z > 0 on (alpha, oo), each x > alpha has an
      increasing orbit with no fixed point to converge to, so it is unbounded, and an
      invariant D cannot hold alpha in its interior; likewise h < 0 on (-oo, alpha).
      Both are read off the signs of the coefficients of h(alpha + y).
    Hence the verdict below is given if f has no rational critical point, if some
    such alpha has multiplier order q >= 3 (alpha is then not real, nor is c), or if
    some rational alpha has an escaping side.  Any other parabolic map takes the
    ordinary path, where this argument does not rule out a certificate.
    """
    found = _parabolic_fixed_points(f)
    if not found:
        return None
    if not (any(q > 2 for _, q in found) or not f.derivative_qpoly().rational_roots()
            or any(_escaping_side(f, alpha) for g, _ in found
                   for alpha, _ in QPoly(g).rational_roots())):
        return None
    return "parabolic fixed point: " + "; ".join(
        f"root of {_print_coeffs(g)}, multiplier a primitive {_ordinal(q)} root of unity"
        for g, q in found)


def _escaping_side(f: Poly, alpha: Fraction) -> bool:
    """True if f(x) - x > 0 for all x > alpha or f(x) - x < 0 for all x < alpha.

    Sufficient test: the coefficients of h(alpha + y) all >= 0, or those of
    h(alpha - y) all <= 0 (h(alpha) = 0 and h is not zero).
    """
    h = list(f.coeffs)
    h[1] -= 1
    shifted = poly_shift(h, alpha)
    return (all(c >= 0 for c in shifted)
            or all(c <= 0 if i % 2 == 0 else c >= 0 for i, c in enumerate(shifted)))


# ---------------------------------------------------------------------------
# critical heights
# ---------------------------------------------------------------------------

def _pushforward(h: QPoly, f: Poly) -> QPoly:
    """Monic polynomial prod (x - f(a)) over the roots a of h, of degree deg h.

    Its power sums are Tr(f^k mod h) = sum_j (f^k mod h)_j s_j, where s_j are
    the power sums of the roots of h.
    """
    m = h.degree()
    s = h.power_sums(m - 1)
    fr = f.as_qpoly() % h
    g = QPoly.const(1)
    ps = [Fraction(m)]
    for _ in range(m):
        g = (g * fr) % h
        ps.append(sum((c * sj for c, sj in zip(g.coeffs, s)), Fraction(0)))
    return QPoly.from_power_sums(ps)


_PUSHFORWARD_DEPTH = 8  # pushforwards of the irrational critical points at a finite place


def _lambda_crit_finite_general(f: Poly, p: int) -> Fraction:
    """max_a lambda_p(a) over critical points a, in log_p units (exact)."""
    d = f.degree
    s_esc = escape_exponent(f, p)
    c_p = Fraction(-valuation(f.lc, p), d - 1)
    roots, leftovers = critical_points(f)
    best = Fraction(0)
    for r, _ in roots:
        lam = escape_rate_nonarch(f, p, r)
        best = max(best, lam.logs.get(p, Fraction(0)))
    residual = QPoly.const(1)
    for g in leftovers:
        residual = residual * g
    if residual.degree() < 1:
        return best
    # invariant disk about 0 traps every root of size <= t_hi
    inv = _invariant_disk_range(f.as_qpoly(), Fraction(0), p)
    b_exp = newton_polygon(f, p).gauss(s_esc)
    lam_bar = max(Fraction(0), b_exp + c_p)
    h = residual.monic()
    for n in range(_PUSHFORWARD_DEPTH + 1):
        np_h = newton_polygon(h, p)
        m_slope = np_h.max_slope()
        if inv is not None and (m_slope is None or m_slope <= inv[1]):
            return best  # every residual image fits in an invariant disk about 0
        if m_slope is not None and m_slope > s_esc and m_slope + c_p >= lam_bar:
            return max(best, (m_slope + c_p) / d ** n)
        h = _pushforward(h, f)
    raise UndeterminedError(
        f"critical height at p={p} undetermined within pushforward depth {_PUSHFORWARD_DEPTH}")


def critical_height_local(f: Poly, v: Place, tol: float = 1e-9) -> LogValue:
    """lambda_crit,v(f) = max over finite critical points of the local escape rate.

    At the archimedean place a fixed point whose multiplier is a root of unity is
    decided exactly first (a gcd mod one prime, and over Q only if that does not
    rule it out).  Where such a point leaves no certificate for the critical point in
    its basin (see _parabolic_give_up), UndeterminedError names the fixed points and
    the order of their multipliers before any critical point is iterated.
    """
    if f.field != FIELD_Q:
        raise DomainError("critical heights run over Q")
    if v.kind == Place.ARCH:
        _check_arch_args(f, tol)
        reason = _parabolic_give_up(f)
        if reason:
            raise UndeterminedError(reason)
        roots, leftovers = critical_points(f)
        lams = [escape_rate_arch(f, r, tol) for r, _ in roots]
        for g in leftovers:
            for box in complex_root_boxes(g):
                lams.append(escape_rate_arch_box(f, box, tol))
        if not lams:
            return LogValue.zero()
        if all(l.is_exactly_zero() for l in lams):
            return LogValue.zero()
        acc = Interval.zero()
        for l in lams:
            acc = acc.max_with(l.to_interval())
        return LogValue.from_interval(Interval(max(acc.lo, 0.0), max(acc.hi, 0.0)))
    if v.kind != Place.FINITE:
        raise DomainError(f"unsupported place {v!r} for a map over Q")
    p = v.p
    if f.is_monic() and p > f.degree:
        s = splitting_exponent(f, p)
        return LogValue.from_log(p, s) if s > 0 else LogValue.zero()
    lam = _lambda_crit_finite_general(f, p)
    return LogValue.from_log(p, lam) if lam != 0 else LogValue.zero()


def critical_height_global(f: Poly, tol: float = 1e-9) -> LogValue:
    """h_crit(f): sum over all places of r_v lambda_crit,v."""
    total = critical_height_local(f, Place.arch(), tol)
    for p in candidate_bad_primes(f):
        total = total + critical_height_local(f, Place.finite(p), tol)
    return total


# ---------------------------------------------------------------------------
# canonical height
# ---------------------------------------------------------------------------

def canonical_height(f: Poly, z, tol: float = 1e-9, nonarch_maxiter: int = 30,
                     arch_maxiter: int = 400) -> LogValue:
    """h_f(z) = sum over places of the local escape rate; exact finite part."""
    if f.field != FIELD_Q:
        raise DomainError("canonical heights run over Q")
    z = Fraction(z)
    primes = set(candidate_bad_primes(f)).union(prime_support(z.denominator))
    total = escape_rate_arch(f, z, tol, maxiter=arch_maxiter)
    for p in sorted(primes):
        total = total + escape_rate_nonarch(f, p, z, maxiter=nonarch_maxiter)
    return total


# ---------------------------------------------------------------------------
# per-place profiles
# ---------------------------------------------------------------------------

class LocalProfile(Value):
    place: Place
    is_bad: bool | None          # None: no verdict claimed
    g_v: LogValue | None         # present iff is_bad is True
    lambda_crit: LogValue


def analyze(f: Poly, tol: float = 1e-9) -> tuple[list[LocalProfile], LogValue]:
    """Per-place reduction/critical data plus the global critical height."""
    places = [Place.finite(p) for p in candidate_bad_primes(f)] + [Place.arch()]

    def profile(v: Place) -> LocalProfile:
        lam = critical_height_local(f, v, tol)
        if v.kind == Place.FINITE and f.is_monic() and f.degree % v.p != 0:
            g = splitting_radius(f, v.p)
            return LocalProfile(v, g is not None, g, lam)
        return LocalProfile(v, None, None, lam)

    profiles = [profile(v) for v in places]
    total = LogValue.zero()
    for pr in profiles:
        total = total + pr.lambda_crit
    return profiles, total
