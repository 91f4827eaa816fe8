"""Dense univariate polynomials over Q and the rational function field Q(t).

QPoly is the workhorse for everything exact: gcds, squarefree parts, Taylor
shifts, and power sums of roots (Newton's identities) to build polynomials
from the images or differences of roots.  RatFunc wraps a reduced
num/den pair and provides the valuations that make Q(t) a product-formula
field (finite places = monic irreducibles, plus the degree valuation at
t = infinity).  Irreducible factorization over Q is delegated to sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import INFINITY


class QPoly:
    """Polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls([Fraction(c)])

    @classmethod
    def var(cls) -> "QPoly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        result = QPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        olc = other.lc()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] / olc
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return QPoly(quot), QPoly(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        return self * (1 / self.lc())

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; x may be a Fraction, RatFunc, QPoly, float or complex."""
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = _lift(c, x)
            else:
                acc = acc * x + _lift(c, x)
        if acc is None:
            return _lift(Fraction(0), x)
        return acc

    def shift(self, a: Fraction) -> "QPoly":
        """Taylor shift: returns p(x + a)."""
        cs = list(self.coeffs)
        n = len(cs)
        for i in range(n - 1):  # synthetic division by (x - (-a)), repeatedly
            for j in range(n - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return QPoly(cs)

    def gcd(self, other: "QPoly") -> "QPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "QPoly":
        if self.degree() <= 0:
            return self.monic()
        return self.exact_div(self.gcd(self.derivative())).monic()

    def squarefree_decomposition(self) -> list[tuple["QPoly", int]]:
        """Yun decomposition: [(g_k, k)] with self = lc * prod g_k^k, g_k squarefree, coprime."""
        if self.degree() <= 0:
            return []
        p = self.monic()
        d = p.derivative()
        a = p.gcd(d)
        b = p.exact_div(a)
        c = d.exact_div(a) - b.derivative()
        out = []
        k = 1
        while b.degree() > 0:
            g = b.gcd(c)
            if g.degree() > 0:
                out.append((g, k))
            b2 = b.exact_div(g)
            c = c.exact_div(g) - b2.derivative()
            b = b2
            k += 1
        return out

    def power_sums(self, n: int) -> list[Fraction]:
        """[p_0, ..., p_n]: p_k is the sum of the k-th powers of the roots (Newton's identities)."""
        m = self.degree()
        a = self.monic().coeffs
        ps = [Fraction(m)]
        for k in range(1, n + 1):
            acc = k * a[m - k] if k <= m else Fraction(0)
            for i in range(1, min(k - 1, m) + 1):
                acc += a[m - i] * ps[k - i]
            ps.append(-acc)
        return ps

    @classmethod
    def from_power_sums(cls, ps: list[Fraction]) -> "QPoly":
        """Monic polynomial of degree len(ps) - 1 whose roots have the power sums ps."""
        n = len(ps) - 1
        a = [Fraction(0)] * n + [Fraction(1)]
        for k in range(1, n + 1):
            acc = ps[k]
            for i in range(1, k):
                acc += a[n - i] * ps[k - i]
            a[n - k] = -acc / k  # Q has characteristic 0
        return cls(a)

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, by candidate testing + deflation."""
        if self.degree() <= 0:
            return []
        from .exact import divisors
        p = self
        roots: dict[Fraction, int] = {}
        # root at 0
        k = 0
        while p.degree() >= 0 and p[0] == 0 and not p.is_zero():
            p = QPoly(p.coeffs[1:])
            k += 1
        if k:
            roots[Fraction(0)] = k
        if p.degree() <= 0:
            return sorted(roots.items())
        # clear denominators -> integer polynomial
        den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
        ip = [int(c * den_lcm) for c in p.coeffs]
        a0, an = abs(ip[0]), abs(ip[-1])
        for num in divisors(a0):
            for den in divisors(an):
                if math.gcd(num, den) != 1:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    mult = 0
                    while p.eval(cand) == 0:
                        p = p.exact_div(QPoly([-cand, 1]))
                        mult += 1
                    if mult:
                        roots[cand] = mult
                    if p.degree() <= 0:
                        return sorted(roots.items())
        return sorted(roots.items())

    def __repr__(self) -> str:
        return f"QPoly({format_tpoly(self)})"


def _lift(c: Fraction, x):
    if isinstance(x, (Fraction, int)):
        return c
    if isinstance(x, RatFunc):
        return RatFunc.const(c)
    if isinstance(x, QPoly):
        return QPoly.const(c)
    if isinstance(x, complex):
        return complex(c)
    if isinstance(x, float):
        return float(c)
    return c


@lru_cache(maxsize=4096)
def _factor_cached(coeffs: tuple) -> tuple:
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      x, domain="QQ")
    _, factors = expr.factor_list()
    out = []
    for fac, mult in factors:
        fc = fac.all_coeffs()  # highest first
        qp = QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(fc)]).monic()
        out.append((qp, int(mult)))
    return tuple(sorted(out, key=lambda fm: (fm[0].degree(), fm[0].coeffs)))


def irreducible_factors(p: QPoly) -> list[tuple[QPoly, int]]:
    """Monic irreducible factorization over Q (constant dropped)."""
    if p.degree() <= 0:
        return []
    return list(_factor_cached(p.coeffs))


# ---------------------------------------------------------------------------
# printing / Q(t)
# ---------------------------------------------------------------------------

def _fmt_coeff(c: Fraction) -> str:
    return str(c)


def format_tpoly(p: QPoly, var: str = "t") -> str:
    """Compact canonical form like t^2-1/2*t+3, highest degree first."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = _fmt_coeff(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{_fmt_coeff(mag)}*{v}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


class RatFunc:
    """Element of Q(t): reduced num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly | None = None):
        if den is None:
            den = QPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(t)")
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.lc()
        self.num = num * (1 / lc)
        self.den = den * (1 / lc)

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(QPoly.const(c))

    @classmethod
    def t(cls) -> "RatFunc":
        return cls(QPoly.var())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() <= 0

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(t)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("0 to a negative power")
            return RatFunc(self.den ** (-e), self.num ** (-e))
        return RatFunc(self.num ** e, self.den ** e)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def valuation_at(self, pi: QPoly):
        """Order of vanishing at the monic irreducible pi; +inf for 0."""
        if self.is_zero():
            return INFINITY
        return _poly_multiplicity(self.num, pi) - _poly_multiplicity(self.den, pi)

    def valuation_at_infinity(self):
        """deg den - deg num; +inf for 0."""
        if self.is_zero():
            return INFINITY
        return self.den.degree() - self.num.degree()

    def __repr__(self) -> str:
        n = format_tpoly(self.num)
        if self.den.degree() == 0 and self.den[0] == 1:
            return n
        return f"({n})/({format_tpoly(self.den)})"


def _poly_multiplicity(p: QPoly, pi: QPoly) -> int:
    if p.is_zero():
        raise ValueError("multiplicity of zero polynomial")
    m = 0
    while True:
        q, r = p.divmod(pi)
        if not r.is_zero():
            return m
        p = q
        m += 1
