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
- ``encloses(other)`` and ``overlaps(other)``: containment of, and a common
  point with, another enclosure;
- ``modulus()``: an Interval containing |z| for all z in the enclosure;
- ``pair``: the float form the kernels work on, ``(lo, hi)`` for an Interval
  and ``(re, im)`` of such pairs for a CBox.

A real point stays an Interval: a CBox with a zero imaginary part would cost
four interval products per product.

The kernel is three rounding rules on float pairs, ``_add``, ``_sub`` and
``_mul``: exact zeros and ones short-cut, 0*inf is 0, every other endpoint is
rounded outward with ``math.nextafter``, and an unordered sum raises
ValueError.  Interval +, - and * are thin wrappers over them, ``_cadd`` and
``_cmul`` build the complex rectangle rules from them, and horner,
taylor_enclosures and horner_centered loop over float pairs, building an
Interval or CBox only for the result.  The rounding rules live only in
``_add``, ``_sub`` and ``_mul``.  These are the centred forms of Rump (Acta
Numerica 19, 2010).

Exact-to-float work is done once: the archimedean escape rate encloses the
map's coefficients once per call (``enclose`` returns an enclosure as is),
and the invariant-disk search hands horner_centered one dict of Taylor rows
(float forms, as taylor_enclosures returns them) per search, keyed by the
exact centre, so the balls of its radius doubling share the rows of a centre.
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


# -- the rounding rules on float pairs (lo, hi), see the module docstring ----
#
# Only a sum or a difference can come out unordered (inf - inf): no endpoint
# of an Interval is NaN, and a NaN product (0*inf) is replaced by 0.

def _add(x: tuple, y: tuple) -> tuple:
    c, d = y
    if c == 0.0 == d:  # adding exact zero is exact
        return x
    a, b = x
    if a == 0.0 == b:
        return y
    lo = _nextafter(a + c, -_INF)
    hi = _nextafter(b + d, _INF)
    if not lo <= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    return lo, hi


def _sub(x: tuple, y: tuple) -> tuple:
    c, d = y
    if c == 0.0 == d:
        return x
    a, b = x
    if a == 0.0 == b:
        return -d, -c
    lo = _nextafter(a - d, -_INF)
    hi = _nextafter(b - c, _INF)
    if not lo <= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    return lo, hi


def _mul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    if c == 0.0 == d or a == 0.0 == b:
        return 0.0, 0.0
    if c == 1.0 == d:
        return x
    if a == 1.0 == b:
        return y
    p, q, r, s = a * c, a * d, b * c, b * d
    if p != p or q != q or r != r or s != s:  # 0*inf -> 0 (both factors finite or signed)
        p, q, r, s = (0.0 if t != t else t for t in (p, q, r, s))
    return _nextafter(min(p, q, r, s), -_INF), _nextafter(max(p, q, r, s), _INF)


# a complex rectangle as the pair (re, im) of float pairs

def _cadd(z: tuple, w: tuple) -> tuple:
    return _add(z[0], w[0]), _add(z[1], w[1])


def _cmul(z: tuple, w: tuple) -> tuple:
    (a, b), (c, d) = z, w  # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
    return _sub(_mul(a, c), _mul(b, d)), _add(_mul(a, d), _mul(b, c))


class Slotted:
    """Base of every value class: one field list, ``_fields``, serves ==, hash and
    pickling.  Here it is the public __slots__ in order (a leading "_", such as a
    memo, is private and left out).  Two values are == when they are of the same
    class and their field tuples are ==, and the hash is that of the tuple.  The
    pickle state is (None, {field: value}), the state protocols 2-5 build by
    default, so every protocol pickles and 2-5 give the same bytes as without it."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in vars(cls).get("__slots__", ()) if name[0] != "_")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __getstate__(self):
        return None, dict(zip(self._fields, self._astuple()))


def _interval(x: tuple) -> "Interval":
    """The Interval of an ordered float pair, without __init__'s conversions."""
    out = object.__new__(Interval)
    out.lo, out.hi = x
    return out


def _cbox(z: tuple) -> "CBox":
    return CBox(_interval(z[0]), _interval(z[1]))


class Interval(Slotted):
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

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def to_json(self) -> dict:
        return {"interval": [self.lo, self.hi]}

    @property
    def pair(self) -> tuple:
        """The float form (lo, hi) that the kernels work on."""
        return self.lo, self.hi

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _operand(other):
        """The float pair of an Interval, an exact rational or a float (a point)."""
        if isinstance(other, Interval):
            return other.lo, other.hi
        if isinstance(other, float):  # before the slower ABC check for Fraction
            return (other, other) if other == other else Interval.point(other)  # NaN raises
        if isinstance(other, (int, Fraction)):
            return Interval.from_fraction(Fraction(other)).pair
        return NotImplemented

    def __add__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return _interval(_add((self.lo, self.hi), o))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return _interval(_sub((self.lo, self.hi), o))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        return _interval(_mul((self.lo, self.hi), o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        c, d = o
        if c <= 0.0 <= d:
            raise ZeroDivisionError("interval division by interval containing 0")
        cands = (self.lo / c, self.lo / d, self.hi / c, self.hi / d)
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

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widened(self, eps: float) -> "Interval":
        return Interval(_down(self.lo - eps), _up(self.hi + eps))


class CBox(Slotted):
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
        return _cbox(_cadd(self.pair, other.pair))

    def __sub__(self, m: complex) -> "CBox":
        """Translate by the complex point -m."""
        return CBox(self.re - m.real, self.im - m.imag)

    def __mul__(self, other: "CBox") -> "CBox":
        return _cbox(_cmul(self.pair, other.pair))

    @property
    def pair(self) -> tuple:
        """The float form (re, im), each a pair (lo, hi), that the kernels work on."""
        return (self.re.lo, self.re.hi), (self.im.lo, self.im.hi)

    @property
    def span(self) -> float:
        return max(self.re.width, self.im.width)

    def encloses(self, other: "CBox") -> bool:
        return self.re.encloses(other.re) and self.im.encloses(other.im)

    def overlaps(self, other: "CBox") -> bool:
        return self.re.overlaps(other.re) and self.im.overlaps(other.im)

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


def _rules(x) -> tuple:
    """(add, mul, wrap) on the float forms of x's enclosure type; wrap builds the result."""
    return (_add, _mul, _interval) if isinstance(x, Interval) else (_cadd, _cmul, _cbox)


def horner(coeffs, x):
    """Evaluate sum(coeffs[i] * x^i) in the enclosure type of x (Interval or CBox).

    A coefficient is an exact rational (enclosed once), an enclosure of x's
    type, or the float form of one (``pair``, as in taylor_enclosures' rows).
    No coefficients give 0.
    """
    enclose = x.enclose
    add, mul, wrap = _rules(x)
    z = x.pair
    rest = reversed(coeffs)
    c = next(rest, 0)
    acc = c if type(c) is tuple else enclose(c).pair
    for c in rest:
        acc = add(mul(acc, z), c if type(c) is tuple else enclose(c).pair)
    return wrap(acc)


def taylor_enclosures(coeffs, m):
    """Float forms of the Taylor coefficients of the polynomial at the point enclosure m."""
    enclose = m.enclose
    cs = [enclose(c).pair for c in coeffs]
    add, mul, _ = _rules(m)
    mp = m.pair
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] = add(cs[j], mul(mp, cs[j + 1]))
    return cs


def horner_centered(coeffs, x, rows=None):
    """Evaluate on x via the Taylor form at its midpoint (kills the dependency blowup).

    ``rows``, if given, is a caller-owned dict from exact midpoints to their
    Taylor rows (taylor_enclosures' float forms); calls on balls sharing a
    midpoint then compute the rows once.  It must only ever see one
    coefficient list.
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
