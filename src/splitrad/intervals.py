"""Certified closed float intervals with outward rounding, and complex boxes.

Every archimedean quantity in the library is carried as an Interval so that
numeric claims come with an enclosure.  Only the operations the height
machinery needs are provided: add/sub/mul, scalar mixing with exact
rationals, log/exp, max, and containment queries.

Interval (a real enclosure) and CBox (a complex rectangle of two Intervals)
share the small protocol the polynomial evaluators need, so one horner,
taylor_enclosures and horner_centered serve both:

- ``enclose(c)``: enclosure of a coefficient (exact rational, or already an
  enclosure of this type);
- ``point(m)`` and ``ball(m, r)``: the point m and the ball of radius r about
  it (a square for CBox), with m a float or a complex number;
- ``mid`` and ``x - mid``: the midpoint and the translate centred at 0;
- ``span``: one width measure, the larger side;
- ``encloses(other)``: containment of another enclosure;
- ``modulus()``: an Interval containing |z| for all z in the enclosure.

A real point stays an Interval: a CBox with a zero imaginary part would cost
four interval products per product.

Exact-to-float work is done once: the archimedean escape rate encloses the
map's coefficients once per call (``enclose`` returns an enclosure as is),
and the invariant-disk search hands horner_centered one dict of Taylor rows
per search, keyed by the exact centre, so the balls of its radius doubling
share the rows of a centre.  Interval +, - and * build their results from
the rounded floats directly; every endpoint is the same as through
``Interval(lo, hi)``.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

_INF = math.inf
_MAX = sys.float_info.max
_nextafter = math.nextafter


def _up(x: float) -> float:
    if x == _INF or x != x:
        return x
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    if x == -_INF or x != x:
        return x
    return math.nextafter(x, -_INF)


def _from_floats(lo: float, hi: float) -> "Interval":
    """Interval(lo, hi) for floats already computed, without __init__'s conversions."""
    if not lo <= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    x = object.__new__(Interval)
    x.lo = lo
    x.hi = hi
    return x


class Interval:
    """Closed interval [lo, hi] of floats, guaranteed to contain the true value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Interval":
        return cls(0.0, 0.0)

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @classmethod
    def ball(cls, m: float, r: float) -> "Interval":
        return cls(m - r, m + r)

    @classmethod
    def enclose(cls, c) -> "Interval":
        """An Interval as is; anything else as the enclosure of an exact rational."""
        return c if isinstance(c, Interval) else cls.from_fraction(c)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Interval":
        """Tightest float enclosure of an exact rational."""
        q = Fraction(q)
        try:
            f = float(q)  # correctly rounded
        except OverflowError:  # q rounds beyond the largest float
            return cls(-_INF, -_MAX) if q < 0 else cls(_MAX, _INF)
        back = Fraction(f) if math.isfinite(f) else None
        if back == q:
            return cls(f, f)
        if back is None or back < q:
            return cls(f, _up(f))
        return cls(_down(f), f)

    @classmethod
    def log_of_int(cls, n: int) -> "Interval":
        """Enclosure of ln(n) for n >= 1, padded two ulps each side."""
        if n < 1:
            raise ValueError("log_of_int needs n >= 1")
        if n == 1:
            return cls(0.0, 0.0)
        v = math.log(n)
        return cls(_down(_down(v)), _up(_up(v)))

    @classmethod
    def log_of_fraction(cls, q: Fraction) -> "Interval":
        """Enclosure of ln(q) for a positive rational q."""
        if q <= 0:
            raise ValueError("log of nonpositive rational")
        a, b = q.numerator, q.denominator
        la = math.log(a) if a > 1 else 0.0
        lb = math.log(b) if b > 1 else 0.0
        lo = _down(_down(_down(la) - _up(lb)))
        hi = _up(_up(_up(la) - _down(lb)))
        return cls(lo, hi)

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    span = width

    @property
    def mid(self) -> float:
        if math.isinf(self.lo) or math.isinf(self.hi):
            return self.lo if self.lo == self.hi else 0.0
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        if isinstance(x, Fraction):  # exact; an infinite endpoint bounds nothing on its side
            lo, hi = self.lo, self.hi
            return ((lo == -_INF or (lo != _INF and Fraction(lo) <= x))
                    and (hi == _INF or (hi != -_INF and x <= Fraction(hi))))
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        if isinstance(other, (int, Fraction)):
            return Interval.from_fraction(Fraction(other))
        if isinstance(other, float):
            return Interval.point(other)
        return NotImplemented

    def __add__(self, other):
        o = other if isinstance(other, Interval) else self._coerce(other)
        if o is NotImplemented:
            return o
        if o.lo == 0.0 == o.hi:  # adding exact zero is exact
            return self
        if self.lo == 0.0 == self.hi:
            return o
        return _from_floats(_nextafter(self.lo + o.lo, -_INF), _nextafter(self.hi + o.hi, _INF))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = other if isinstance(other, Interval) else self._coerce(other)
        if o is NotImplemented:
            return o
        if o.lo == 0.0 == o.hi:
            return self
        if self.lo == 0.0 == self.hi:
            return -o
        return _from_floats(_nextafter(self.lo - o.hi, -_INF), _nextafter(self.hi - o.lo, _INF))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = other if isinstance(other, Interval) else self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if c == 0.0 == d or a == 0.0 == b:
            return Interval.zero()
        if c == 1.0 == d:
            return self
        if a == 1.0 == b:
            return o
        p, q, r, s = a * c, a * d, b * c, b * d
        if p != p or q != q or r != r or s != s:  # 0*inf -> 0 (both factors finite or signed)
            p, q, r, s = (0.0 if t != t else t for t in (p, q, r, s))
        return _from_floats(_nextafter(min(p, q, r, s), -_INF), _nextafter(max(p, q, r, s), _INF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError("interval division by interval containing 0")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    def modulus(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    def log(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("log of interval touching 0")
        return Interval(_down(_down(math.log(self.lo))), _up(_up(math.log(self.hi))))

    def exp(self) -> "Interval":
        return Interval(_down(_down(math.exp(self.lo))), _up(_up(math.exp(self.hi))))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widened(self, eps: float) -> "Interval":
        return Interval(_down(self.lo - eps), _up(self.hi + eps))


class CBox:
    """Complex rectangle re x im of certified intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        self.re = re
        self.im = im

    @classmethod
    def point(cls, z: complex) -> "CBox":
        return cls(Interval.point(z.real), Interval.point(z.imag))

    @classmethod
    def ball(cls, m: complex, r: float) -> "CBox":
        return cls(Interval.ball(m.real, r), Interval.ball(m.imag, r))

    @classmethod
    def enclose(cls, c) -> "CBox":
        """A CBox as is, a complex float as a point, else an exact rational."""
        if isinstance(c, CBox):
            return c
        if isinstance(c, complex):
            return cls.point(c)
        return cls(Interval.from_fraction(c), Interval.zero())

    def __add__(self, other: "CBox") -> "CBox":
        return CBox(self.re + other.re, self.im + other.im)

    def __sub__(self, m: complex) -> "CBox":
        """Translate by the complex point -m."""
        return CBox(self.re - m.real, self.im - m.imag)

    def __mul__(self, other: "CBox") -> "CBox":
        return CBox(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    @property
    def span(self) -> float:
        return max(self.re.width, self.im.width)

    def encloses(self, other: "CBox") -> bool:
        return self.re.encloses(other.re) and self.im.encloses(other.im)

    def modulus(self) -> Interval:
        """Interval containing |z| for all z in the box."""
        re_a, im_a = self.re.modulus(), self.im.modulus()
        hi = _up(math.hypot(re_a.hi, im_a.hi))
        hi = _up(hi)
        lo = math.hypot(re_a.lo, im_a.lo)
        lo = _down(_down(lo))
        return Interval(max(lo, 0.0), hi)

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def __repr__(self) -> str:
        return f"CBox({self.re!r}, {self.im!r})"


def horner(coeffs, x):
    """Evaluate sum(coeffs[i] * x^i) in the enclosure type of x (Interval or CBox).

    Exact rational coefficients are enclosed once each; no coefficients give 0.
    """
    enclose = x.enclose
    rest = reversed(coeffs)
    acc = enclose(next(rest, 0))
    for c in rest:
        acc = acc * x + enclose(c)
    return acc


def taylor_enclosures(coeffs, m):
    """Enclosures of the Taylor coefficients of the polynomial at the point enclosure m."""
    cs = [m.enclose(c) for c in coeffs]
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] = cs[j] + m * cs[j + 1]
    return cs


def horner_centered(coeffs, x, rows=None):
    """Evaluate on x via the Taylor form at its midpoint (kills the dependency blowup).

    ``rows``, if given, is a caller-owned dict from exact midpoints to their
    Taylor enclosures; calls on balls sharing a midpoint then compute the
    rows once.  It must only ever see one coefficient list.
    """
    m = x.mid
    if not cmath.isfinite(m) or x.span == 0.0:
        return horner(coeffs, x)
    if rows is None:
        return horner(taylor_enclosures(coeffs, x.point(m)), x - m)
    t = rows.get(m)
    if t is None:
        t = rows[m] = taylor_enclosures(coeffs, x.point(m))
    return horner(t, x - m)
