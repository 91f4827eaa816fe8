"""Polynomials as dynamical systems over Q or Q(t).

Parsing/printing, exact iteration, affine conjugation and centering,
critical points, superattracting cycle search, Newton polygons, and the
exhaustive search for Q-rational preperiodic points with a rigorous finite
search box.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import total_ordering
from itertools import chain

from .exact import (DomainError, Frozen, UndeterminedError, _int_valuation, divisors, is_prime,
                    prime_support, valuation)
from .intervals import Slotted
from .places import FIELD_Q, FIELD_QT, _ground
from .qpoly import (QPoly, RatFunc, _fp_roots, _rootless_factors, format_tpoly, poly_add,
                    poly_derivative, poly_horner, poly_mul, poly_powmod, poly_shift, poly_trim)


class ParseError(DomainError):
    """Syntax error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

# The ground field's 1 for is_monic; a Fraction compares fastest with the int.
_ONE = {FIELD_Q: 1, FIELD_QT: RatFunc.const(1)}


class Poly(Slotted):
    """Dense polynomial a_0..a_d over the ground field, a_d != 0, d >= 2.

    A Poly is never changed after construction, so what is derived from it alone (the
    rational roots and the rest of f', critical points, centre, bad primes, the Newton polygon
    at each bad prime, the QPoly form and its iterates, the archimedean constants) is computed
    once and kept in _memo, which equality, hashing, repr and pickling ignore.
    """

    __slots__ = ("coeffs", "field", "_memo")

    def __init__(self, coeffs, field: str = FIELD_Q):
        cs = poly_trim(list(map(_ground(field), coeffs)))
        if len(cs) - 1 < 2:
            raise DomainError("dynamical polynomial needs degree >= 2")
        self.coeffs = tuple(cs)
        self.field = field

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.lc == _ONE[self.field]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _ground(self.field)(0)

    def __call__(self, z):
        return poly_horner(self.coeffs, z)

    def derivative_coeffs(self):
        return poly_derivative(self.coeffs)

    def derivative_qpoly(self) -> QPoly:
        return self.as_qpoly().derivative()

    def as_qpoly(self) -> QPoly:
        if self.field != FIELD_Q:
            raise DomainError("as_qpoly only over Q")
        return self._once("as_qpoly", lambda: QPoly(self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({print_poly(self)!r})"

    def _once(self, key, compute):
        """compute(), kept under key for the life of this Poly; a raise keeps nothing."""
        memo = getattr(self, "_memo", None)
        if memo is None:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = compute()
        return memo[key]


def iterate(f: Poly, z, n: int) -> list:
    """Exact orbit [z, f(z), ..., f^n(z)]."""
    if n < 0:
        raise DomainError("iterate needs n >= 0")
    orbit = [_ground(f.field)(z)]
    for _ in range(n):
        orbit.append(f(orbit[-1]))
    return orbit


def conjugate(f: Poly, a, b) -> Poly:
    """mu o f o mu^{-1} for mu(z) = a z + b; degree is preserved.

    f((z - b)/a) is f with its coefficients scaled by powers of 1/a, then
    Taylor-shifted by -b; applying mu to that gives the conjugate.
    """
    a, b = map(_ground(f.field), (a, b))
    if not a:
        raise DomainError("conjugation needs a != 0")
    inv = a ** -1
    out = [a * c for c in poly_shift([c * inv ** i for i, c in enumerate(f.coeffs)], -b)]
    out[0] += b
    return Poly(out, f.field)


def center(f: Poly) -> tuple[Poly, object]:
    """Translation conjugate with zero z^{d-1} coefficient; returns (g, shift).

    g = mu o f o mu^{-1} for mu(z) = z + shift with shift = a_{d-1}/d.
    Computed once per Poly.
    """
    if not f.is_monic():
        raise DomainError("centering needs a monic polynomial")
    shift = f[f.degree - 1] * Fraction(1, f.degree)
    return f._once("center", lambda: (conjugate(f, 1, shift), shift))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")

# Caps on `^`, past which parsing raises ParseError: the exponent; the terms
# z^i*t^j a power can have, (degree in z + 1)*(degree in t + 1), so degree
# 256 over Q; and the bit length of its rational coefficients, estimated as
# the exponent times the base's.  Over Q(t) every coefficient operation is a
# gcd in Q[t], which is why the degrees in z and t share one cap.
_MAX_EXPONENT = 10_000
_MAX_POWER_TERMS = 257
_MAX_POWER_BITS = 100_000

# Cap on parentheses nested in one another: each level costs the
# recursive-descent parser five stack frames, and Python stops at 1000.
_MAX_NESTING = 100


def _t_degree(c) -> int:
    return max(c.num.degree(), c.den.degree()) if isinstance(c, RatFunc) else 0


def _bits(c) -> int:
    if isinstance(c, RatFunc):
        return max(map(_bits, c.num.coeffs + c.den.coeffs))
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _digits_error(what: str, pos: int) -> ParseError:
    return ParseError(f"{what} more than {sys.get_int_max_str_digits()} decimal digits, "
                      f"the limit of sys.get_int_max_str_digits() on printing an integer", pos)


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(("int", int(text[i:j]), i))
            except ValueError:
                raise _digits_error("a literal has", i) from None
            i = j
        elif ch in ("z", "t"):
            toks.append(("name", ch, i))
            i += 1
        elif ch in _TOKEN_OPS:
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    """Recursive-descent expression parser producing a coefficient list in z."""

    def __init__(self, text: str, field: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.field = field
        self.ground = _ground(field)

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    # value representation: list of ground-field coefficients in z (lowest first)

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r}", t[2])
        try:  # a value Python cannot print would be computed, then fail to be echoed
            list(map(repr, v))
        except ValueError:
            raise _digits_error("a coefficient has", t[2]) from None
        return v

    def expr(self):
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            w = self.term()
            v = poly_add(v, w if op == "+" else self._neg(w))
        return v

    def term(self):
        v = self.unary()
        while True:
            t = self.peek()
            if t[0] in ("*", "/"):
                op = self.next()[0]
                w = self.unary()
                v = poly_mul(v, w) if op == "*" else self._div(v, w, t[2])
            elif t[0] in ("int", "name", "("):
                w = self.unary()  # juxtaposition means multiplication
                v = poly_mul(v, w)
            else:
                return v

    def unary(self):
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                neg = not neg
        v = self.power()
        return self._neg(v) if neg else v

    def power(self):
        base = self.primary()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            while self.peek()[0] == "-":
                self.next()
                sign = -sign
            t = self.expect("int")
            e = sign * t[1]
            return self._pow(base, e, t[2])
        return base

    def primary(self):
        t = self.next()
        if t[0] == "int":
            return [self.ground(t[1])]
        if t[0] == "name":
            if t[1] == "z":
                return [self.ground(0), self.ground(1)]
            if self.field != FIELD_QT:
                raise ParseError("'t' is only allowed over Q(t)", t[2])
            return [RatFunc.t()]
        if t[0] == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the cap of {_MAX_NESTING}", t[2])
            v = self.expr()
            self.expect(")")
            self.depth -= 1
            return v
        raise ParseError(f"unexpected {t[1]!r}", t[2])

    # coefficient-list algebra: poly_add and poly_mul, plus these

    def _neg(self, a):
        return [-c for c in a]

    def _div(self, a, b, pos):
        b = poly_trim(b)
        if len(b) > 1:
            raise ParseError("division by an expression involving z", pos)
        if not b:
            raise ParseError("division by zero", pos)
        return [x / b[0] for x in a]

    def _pow(self, a, e, pos):
        a = poly_trim(a) or [self.ground(0)]
        n = abs(e)
        if n > _MAX_EXPONENT:
            raise ParseError(f"exponent {e} exceeds the cap of {_MAX_EXPONENT}", pos)
        deg_z, deg_t = (len(a) - 1) * n, n * max(map(_t_degree, a))
        if (deg_z + 1) * (deg_t + 1) > _MAX_POWER_TERMS:
            in_t = f" and {deg_t} in t" if self.field == FIELD_QT else ""
            raise ParseError(f"a power of degree {deg_z} in z{in_t} has up to "
                             f"{(deg_z + 1) * (deg_t + 1)} terms, above the cap of "
                             f"{_MAX_POWER_TERMS}", pos)
        bits = n * max(map(_bits, a))
        if bits > _MAX_POWER_BITS:
            raise ParseError(f"a power with coefficients of about {bits} bits is above the "
                             f"cap of {_MAX_POWER_BITS} bits", pos)
        if len(a) == 1:
            c = a[0]
            if e < 0 and not c:
                raise ParseError("zero to a negative power", pos)
            return [c ** e]
        if e < 0:
            raise ParseError("negative power of an expression involving z", pos)
        return poly_powmod(a, e) if e else [self.ground(1)]


def parse_poly(text: str, field: str = FIELD_Q) -> Poly:
    """Parse a dynamical polynomial in z; exact coefficients.

    Grammar: sums of terms c*z^k with '*' optional; c an integer, a
    parenthesized rational (p/q), or (over Q(t)) an expression in t.
    Degree < 2 after dropping zero leading terms is a domain error.
    """
    coeffs = _Parser(text, field).parse()
    return Poly(coeffs, field)


def parse_ground(text: str, field: str = FIELD_Q):
    """Parse a ground-field element (no z allowed)."""
    parser = _Parser(text, field)
    coeffs = poly_trim(parser.parse()) or [parser.ground(0)]
    if len(coeffs) > 1:
        raise DomainError("expected a constant expression without z")
    return coeffs[0]


def _fmt_q_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def _fmt_qt_coeff(c: RatFunc) -> str:
    n = format_tpoly(c.num)
    if c.den.degree() == 0:  # normalized monic denominator: constant means exactly 1
        return f"({n})"
    return f"(({n})/({format_tpoly(c.den)}))"


def print_poly(f: Poly) -> str:
    """Canonical printer; parse_poly(print_poly(f)) == f."""
    return _print_coeffs(f.coeffs, f.field)


def _print_coeffs(coeffs, field: str = FIELD_Q) -> str:
    """print_poly of a coefficient list, lowest degree first, of any degree."""
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if field == FIELD_QT:
            body = _monomial(_fmt_qt_coeff(c), i, always_coeff=True)
            sign = "+"
        else:
            sign = "-" if c < 0 else "+"
            body = _monomial(_fmt_q_coeff(abs(c)), i, always_coeff=False)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"


def _monomial(coeff_str: str, i: int, always_coeff: bool) -> str:
    if i == 0:
        return coeff_str
    zpart = "z" if i == 1 else f"z^{i}"
    if not always_coeff and coeff_str == "1":
        return zpart
    return f"{coeff_str}*{zpart}"


# ---------------------------------------------------------------------------
# critical points and superattracting cycles (over Q)
# ---------------------------------------------------------------------------

def _critical_split(f: Poly) -> tuple[list[tuple[Fraction, int]], QPoly]:
    """(rational roots of f' with multiplicity, the rest of f'), found once per Poly."""
    return f._once("critical_split", lambda: f.derivative_qpoly()._rational_roots_and_rest())


def critical_points(f: Poly) -> tuple[list[tuple[Fraction, int]], list[QPoly]]:
    """Rational roots of f' with multiplicity, plus leftover irreducible factors of f'.

    Computed once per Poly; each call returns fresh lists.
    """
    if f.field != FIELD_Q:
        raise DomainError("critical points are computed over Q")

    leftovers = f._once("critical_points", lambda: tuple(
        g for g, mult in _rootless_factors(_critical_split(f)[1]) for _ in range(mult)))
    return list(_critical_split(f)[0]), list(leftovers)


def superattracting_cycles(f: Poly, m_max: int) -> list[tuple[tuple[Fraction, ...], int]]:
    """All Q-rational cycles of period <= m_max containing a rational critical point."""
    if m_max < 1:
        raise DomainError("m_max >= 1 required")
    if f.field != FIELD_Q:
        raise DomainError("cycle search runs over Q")
    seen: set[tuple[Fraction, ...]] = set()
    out = []
    for c, _ in _critical_split(f)[0]:
        orbit = [c]
        for _ in range(m_max):
            nxt = f(orbit[-1])
            if nxt == c:
                cycle = tuple(orbit)
                key = tuple(sorted(cycle))
                if key not in seen:
                    seen.add(key)
                    out.append((cycle, len(cycle)))
                break
            if nxt.numerator.bit_length() + nxt.denominator.bit_length() > 4096:
                break  # left for good; cannot return to c
            orbit.append(nxt)
    return out


def _iterate_qpoly(f: Poly, m: int) -> QPoly:
    """f^m = f^(m-1) o f over Q as a QPoly, composed once per Poly and m."""
    return f.as_qpoly() if m == 1 else f._once(
        ("iterate", m), lambda: _iterate_qpoly(f, m - 1).eval(f.as_qpoly()))


def in_superattracting_family(f: Poly, m: int) -> bool:
    """Whether f has a Q-rational superattracting periodic point of period exactly m."""
    return any(per == m for _, per in superattracting_cycles(f, m))


# ---------------------------------------------------------------------------
# preperiodic points (over Q)
# ---------------------------------------------------------------------------

# Largest search box (starting points) that preperiodic_points enumerates.
# The largest box in the benchmark's family scans is ~4 * 10^3 points.  On
# one Intel Xeon core (Python 3.11.7), z^2 + 499990, whose box of 999985
# points is walked whole (D = 1), takes 0.45-0.48 s; where D > 1 only the
# residue classes are walked, and z^3 + z^2/99991 (4 * 10^5 points) takes 0.3-0.4 ms.
_MAX_BOX_POINTS = 10 ** 6


@total_ordering
class PreperiodicPoint(Frozen):
    value: Fraction
    preperiod: int
    period: int

    def __lt__(self, other):
        return self._astuple() < other._astuple() if type(other) is type(self) else NotImplemented


# ---------------------------------------------------------------------------
# Newton polygons (over Q)
# ---------------------------------------------------------------------------

class NewtonPolygon(Frozen):
    """Lower convex hull of (i, v_p(a_i)); slope s carries roots of size p^s.

    Its dual is the Gauss norm, sup_{|z|_p = p^t} |f(z)|_p = p^gauss(t): a linear
    functional on the points reaches its maximum at a hull vertex.
    """

    vertices: tuple[tuple[int, Fraction], ...]
    segments: tuple[tuple[Fraction, int], ...]  # (slope, length), slopes increasing
    ord_zero: int                               # roots at 0 (leading zero coefficients)
    degree: int

    def max_slope(self) -> Fraction | None:
        """log_p of the largest root size; None when all roots sit at 0."""
        return self.segments[-1][0] if self.segments else None

    def roots_with_size_at_most(self, t: Fraction) -> int:
        """Number of roots (with multiplicity) of size <= p^t."""
        return self.ord_zero + sum(length for slope, length in self.segments if slope <= t)

    def roots_with_size_less(self, t: Fraction) -> int:
        """Number of roots (with multiplicity) of size strictly below p^t."""
        return self.ord_zero + sum(length for slope, length in self.segments if slope < t)

    def gauss(self, t: Fraction) -> Fraction:
        """max_i (i t - v_p(a_i)), the log_p Gauss norm on |z|_p = p^t."""
        return max(i * t - v for i, v in self.vertices)

    def solve(self, target: Fraction) -> Fraction:
        """Largest t with max_{i >= 1} (i t - v_p(a_i)) <= target; exact when a_0 = 0."""
        return min((target + v) / i for i, v in self.vertices if i)


def _hull_from_points(points: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    hull: list[tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(f, p: int) -> NewtonPolygon:
    """Newton polygon at p of a QPoly, or of a Poly over Q (that of its QPoly).

    A Poly keeps its polygon at each of its candidate bad primes, a finite set;
    at any other prime the polygon is computed per call, so a map asked about
    the primes of many point denominators does not grow its memo.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if isinstance(f, Poly):
        if f.field != FIELD_Q:
            raise DomainError("Newton polygons are computed over Q")
        if not _is_candidate_bad(f, p):  # a good prime: one per point denominator, not kept
            return newton_polygon(f.as_qpoly(), p)
        return f._once(("newton_polygon", p), lambda: newton_polygon(f.as_qpoly(), p))
    coeffs = f.coeffs
    vals = [(i, Fraction(valuation(c, p))) for i, c in enumerate(coeffs) if c != 0]
    if not vals:
        raise DomainError("Newton polygon of the zero polynomial")
    hull = _hull_from_points(vals)
    segs = tuple(((y2 - y1) / (x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple(hull), segs, vals[0][0], len(coeffs) - 1)


def escape_exponent(f: Poly, p: int) -> Fraction:
    """log_p theta_p: beyond radius p^s, |f(z)|_p = |a_d|_p |z|_p^d exactly.

    s = max(v_d/(d-1), max_{i<d} (v_d - v_i)/(d - i)); the last segment of the
    Newton polygon is the steepest line from any point to (d, v_d).
    """
    npf = newton_polygon(f, p)
    s = npf.vertices[-1][1] / (f.degree - 1)
    ms = npf.max_slope()
    return s if ms is None else max(s, ms)


def candidate_bad_primes(f: Poly) -> list[int]:
    """Finite set of primes outside of which lambda_crit,p is provably 0.

    If p divides no coefficient denominator, the leading coefficient is a
    p-unit and p > d, then f is p-integral with unit top degree, its critical
    points are p-integral, and every p-integral orbit stays bounded.
    Computed once per Poly; each call returns a fresh list.
    """
    if f.field != FIELD_Q:
        raise DomainError("bad primes are computed over Q")

    def compute():
        primes = prime_support(*(c.denominator for c in f.coeffs), f.lc.numerator)
        return tuple(sorted({*primes, *(q for q in range(2, f.degree + 1) if is_prime(q))}))

    return list(f._once("candidate_bad_primes", compute))


def _is_candidate_bad(f: Poly, p: int) -> bool:
    """Whether the prime p is in candidate_bad_primes(f), without factoring anything."""
    return p <= f.degree or f.lc.numerator % p == 0 or any(c.denominator % p == 0 for c in f.coeffs)


def _search_box(f: Poly):
    """(arch bound R, denominator bound B, forced numerator divisor F)."""
    B, F = 1, 1
    for p in candidate_bad_primes(f):
        s = escape_exponent(f, p)
        if s > 0:
            B *= p ** math.floor(s)
        elif s < 0:
            F *= p ** math.ceil(-s)
    d = f.degree
    R = max(Fraction(1), (2 + sum(abs(f[i]) for i in range(d))) / abs(f.lc))
    return R, B, F


def _root_classes(P: list[int], q: int, e: int) -> list[tuple[int, int]]:
    """The n with q^e | P(n), as disjoint classes (r, k), n = r mod q^k, 0 <= r < q^k, k <= e.

    q-adic lifting from the roots mod q, for an integer P, lowest degree first.
    A class r mod q^k is kept whole when every coefficient of the shifted
    polynomial G(t) = P(r + q^k t) is divisible by q^e, which also covers
    the singular roots.  Otherwise let q^v, v < e, be the largest power of q
    dividing every coefficient: q^e | G(t) needs (G/q^v)(t) = 0 mod q, so
    only the roots t mod q of G/q^v refine the class, one class mod q^(k+1)
    each.  At k = e every non-constant coefficient of G is divisible by q^e,
    so the lifting stops there.
    """
    qe = q ** e
    P = [c % qe for c in P]
    out = []
    stack = [(0, 0)]
    while stack:
        r, k = stack.pop()
        qk = q ** k
        G = [c * qk ** j % qe for j, c in enumerate(poly_shift(P, r) if r else P)]
        if not any(G):
            out.append((r, k))
            continue
        qv = q ** _int_valuation(math.gcd(*G), q)
        stack += [(r + qk * t, k + 1) for t in _fp_roots([c // qv for c in G], q)]
    return out


def _layer_starts(classes, scale: int, nmax: int):
    """The a in [-nmax, nmax] with n = a*scale in every class: a range, or lazily chained ones.

    classes maps each prime q to its classes (r, k) from _root_classes.
    a*scale = r mod q^k, with q^s the power of q in scale, needs q^min(s, k)
    to divide r and then fixes a mod q^(k - s) (or not at all when s >= k);
    the primes are combined by the Chinese remainder theorem.
    """
    combined = [(0, 1)]  # (residue, modulus) classes of a
    for q, rks in classes.items():
        s = _int_valuation(scale, q)
        unit = scale // q ** s
        mine = []
        for r, k in rks:
            if s >= k:
                if r == 0:
                    mine.append((0, 1))
            elif r % q ** s == 0:
                m = q ** (k - s)
                mine.append((r // q ** s * pow(unit, -1, m) % m, m))
        combined = [(r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2), m1 * m2)
                    for r1, m1 in combined for r2, m2 in mine]
    ranges = (range(-nmax + (r + nmax) % m, nmax + 1, m) for r, m in combined)
    return next(ranges) if len(combined) == 1 else chain.from_iterable(ranges)


def preperiodic_points(f: Poly) -> list[PreperiodicPoint]:
    """The complete set of Q-rational preperiodic points with minimal (preperiod, period).

    Any Q-rational point with bounded orbit lies in a finite box: its
    denominator divides B (from the p-adic escape radii), its numerator is
    a multiple of F and bounded by R * denominator archimedean-wise.  Orbits
    inside the box repeat by pigeonhole; leaving the box certifies escape.
    A box of more than _MAX_BOX_POINTS starting points raises
    UndeterminedError before any point is tried.

    Orbits run on integer numerators over B: a box point a/b is n = a*(B/b),
    and f(n/B) = m/B with m = (sum K_i n^i) / D for the integers
    K_i = c_i*L*B^(d-i) and D = L*B^(d-1), L the lcm of the coefficient
    denominators.  The image is in the box exactly when D divides the sum,
    |m| <= R*B and F divides m (F and B have no prime in common).  Each
    start point is walked once: the first iterate that repeats, at step j
    after first appearing at step i, gives (preperiod, period) = (i, j - i).

    The walk drops a start point whose first image is not in the box after
    that one step, with no result, so skipping it up front changes no
    output.  So only the n in the residue classes on which D divides
    sum K_i n^i are walked.  They are computed once per map, for each prime power
    q^e exactly dividing D (all its primes are candidate bad primes), by
    q-adic lifting (_root_classes); each layer b maps them to classes of
    the numerator a and combines the primes by the Chinese remainder
    theorem (_layer_starts).  With D = 1 that is the one plain range of a.
    """
    if f.field != FIELD_Q:
        raise DomainError("preperiodic search runs over Q")
    R, B, F = _search_box(f)
    dens = divisors(B)
    size = sum(2 * int(R * b) + 1 for b in dens)
    if size > _MAX_BOX_POINTS:
        raise UndeterminedError(f"preperiodic search box holds {size} starting points, "
                                f"above the cap of {_MAX_BOX_POINTS}")
    d = f.degree
    L = math.lcm(*(c.denominator for c in f.coeffs))
    K = [c.numerator * (L // c.denominator) * B ** (d - i)
         for i, c in enumerate(f.coeffs)][::-1]  # highest degree first, for Horner
    D = L * B ** (d - 1)
    M = int(R * B)  # |m| <= R*B for an integer m
    classes = {q: _root_classes(K[::-1], q, e)
               for q in candidate_bad_primes(f) if (e := _int_valuation(D, q))}

    results: list[PreperiodicPoint] = []
    for b in dens:
        nmax = int(R * b)
        scale = B // b
        for a in _layer_starts(classes, scale, nmax):
            if math.gcd(a, b) != 1 or a % F:
                continue
            n = a * scale
            index = {n: 0}  # iterate -> step number
            while True:
                acc = 0
                for k in K:
                    acc = acc * n + k
                n, r = divmod(acc, D)
                if r or abs(n) > M or n % F:
                    break  # left the box: escapes
                if n in index:
                    pre = index[n]
                    results.append(PreperiodicPoint(Fraction(a, b), pre, len(index) - pre))
                    break
                index[n] = len(index)
    return sorted(results)
