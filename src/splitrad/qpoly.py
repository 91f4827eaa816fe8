"""Dense univariate polynomials over Q and the rational function field Q(t).

Every polynomial layer of splitrad runs on one kernel of module-level
routines over coefficient lists, lowest degree first: poly_trim, poly_add,
poly_mul, poly_divmod, poly_monic, poly_gcd (monic), poly_derivative,
poly_powmod (modulo a polynomial or not), poly_horner, poly_shift (Taylor
shift), and poly_power_sums and poly_from_power_sums (Newton's identities,
which build the polynomial of the images of roots); _mod_reduce sends a
p-integral rational to F_p, and _fp_squarefree and _fp_roots give the
squarefree pieces and the roots over F_p.  An optional prime
modulus p makes the routines that take it work over F_p on integer lists;
without it they work over Q on Fractions, and add, mul, Horner and shift
work over any ring whose elements mix with their argument (int, Fraction,
RatFunc, complex).  poly_power_sums stays in the ring of its input, and
poly_from_power_sums works over Q.  QPoly wraps the kernel over Q and adds
rational roots.  RatFunc wraps a reduced num/den pair and provides the
valuations that make Q(t) a product-formula field (finite places = monic
irreducibles, plus the degree valuation at t = infinity).  Rational roots
come from integer brackets of the real roots (bisection on monotone
pieces), so no divisor of a coefficient is ever enumerated;
irreducible_factors splits off the linear factors itself and imports sympy
only for a rest of degree >= 4.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .exact import INFINITY
from .intervals import Slotted


# ---------------------------------------------------------------------------
# the coefficient-list kernel
# ---------------------------------------------------------------------------

def poly_trim(a: list) -> list:
    """Drop the zero leading coefficients of a, in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(a: list, p: int | None) -> list:
    return poly_trim([c % p for c in a] if p else a)


def poly_add(a, b, p: int | None = None) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _reduce([x + y for x, y in zip(a, b)] + list(a[len(b):]), p)


def poly_mul(a, b, p: int | None = None) -> list:
    if not a or not b:
        return []
    out = [0 * a[0]] * (len(a) + len(b) - 1)  # the coefficients' own zero
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _reduce(out, p)


def poly_divmod(a, b, p: int | None = None) -> tuple[list, list]:
    """(quotient, remainder) of a by a trimmed nonzero b."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p else None
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] * inv % p if p else rem[k + db] / b[-1]
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return _reduce(quot, p), _reduce(rem[:db], p)


def poly_monic(a, p: int | None = None) -> list:
    if not a:
        return []
    inv = pow(a[-1], -1, p) if p else 1 / a[-1]
    return _reduce([c * inv for c in a], p)


def poly_gcd(a, b, p: int | None = None) -> list:
    """Monic gcd; [] when a and b are both zero."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return poly_monic(a, p)


def poly_derivative(a, p: int | None = None) -> list:
    return _reduce([i * a[i] for i in range(1, len(a))], p)


def poly_powmod(a, e: int, m=None, p: int | None = None) -> list:
    """a^e by repeated squaring, modulo the nonzero m unless m is None; [1] for e = 0.
    No factor 1 is multiplied in, so the zero coefficients stay in a's ring."""
    def rem(x):
        return _reduce(x, p) if m is None else poly_divmod(x, m, p)[1]

    result = None
    base = rem(list(a))
    while e:
        if e & 1:
            result = base if result is None else rem(poly_mul(result, base, p))
        e >>= 1
        if e:
            base = rem(poly_mul(base, base, p))
    return [1] if result is None else result


def poly_horner(a, x):
    """a(x) for a nonempty a, by Horner's rule from the leading coefficient."""
    acc = a[-1]
    for c in a[-2::-1]:
        acc = acc * x + c
    return acc


def poly_shift(a, x) -> list:
    """The coefficients of a(X + x), by repeated synthetic division."""
    cs = list(a)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += x * cs[j + 1]
    return cs


def poly_power_sums(a, n: int) -> list:
    """[p_0, ..., p_n]: p_k is the sum of the k-th powers of the roots of the monic a
    (Newton's identities), in the ring of a's coefficients; p_0 = deg a is an int."""
    m = len(a) - 1
    ps = [m]
    for k in range(1, n + 1):
        acc = k * a[m - k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc += a[m - i] * ps[k - i]
        ps.append(-acc)
    return ps


def poly_from_power_sums(ps) -> list:
    """The monic polynomial of degree len(ps) - 1 whose roots have the power sums ps,
    given as Fractions: Newton's identities divide by k."""
    n = len(ps) - 1
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = ps[k]
        for i in range(1, k):
            acc += c[n - i] * ps[k - i]
        c[n - k] = -acc / k
    return c


def _mod_reduce(x: Fraction, p: int) -> int:
    """The residue in F_p of a p-integral rational x."""
    if x.denominator % p == 0:
        raise ValueError("not p-integral")
    return x.numerator * pow(x.denominator, -1, p) % p


def _fp_squarefree(a: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(monic squarefree factor, multiplicity)] over F_p, handling p-th powers.

    The multiplicities are distinct, and the order of the pieces depends on
    their multiplicities alone: those prime to p ascending, then (recursively)
    the multiples of p.
    """
    if len(a) - 1 < 1:
        return []
    a = poly_monic(a, p)
    da = poly_derivative(a, p)
    if not da:  # a = u(w^p), a p-th power over F_p
        u = poly_trim(a[::p])
        return [(q, m * p) for q, m in _fp_squarefree(u, p)]
    out: list[tuple[list[int], int]] = []
    g = poly_gcd(a, da, p)
    b = poly_divmod(a, g, p)[0]
    m = 1
    while len(b) - 1 >= 1:
        c = poly_gcd(b, g, p)
        piece = poly_divmod(b, c, p)[0]
        if len(piece) - 1 >= 1:
            out.append((piece, m))
        b = c
        g = poly_divmod(g, c, p)[0]
        m += 1
    if len(g) - 1 >= 1:  # leftover p-th power part
        u = poly_trim(g[::p])
        out.extend((q, mm * p) for q, mm in _fp_squarefree(u, p))
    return out


def _fp_roots(a: list[int], p: int) -> list[int]:
    """Sorted distinct roots in F_p of an a that is nonzero over F_p (Cantor-Zassenhaus).

    The root 0 is read off the low coefficients, and a linear rest gives its
    root at once.  Otherwise gcd(x^p - x, a) is the product of the linear
    factors; random splits by (x + c)^((p-1)/2) - 1 separate them.  That
    split needs odd p, and at p = 2 none is needed: the only nonzero
    candidate root is 1.
    """
    a = _reduce(a, p)
    zeros = next(i for i, c in enumerate(a) if c)
    a = a[zeros:]
    out: list[int] = [0] if zeros else []
    if len(a) == 2:
        out.append(-a[0] * pow(a[1], -1, p) % p)
    elif len(a) > 2:
        stack = [poly_gcd(poly_add(poly_powmod([0, 1], p, a, p), [0, -1], p), a, p)]
        rng = random.Random(0x526F)
        while stack:
            h = stack.pop()  # monic
            if len(h) == 2:
                out.append(-h[0] % p)
            elif len(h) > 2:
                while True:
                    t = poly_add(poly_powmod([rng.randrange(p), 1], (p - 1) // 2, h, p), [-1], p)
                    s = poly_gcd(t, h, p)
                    if 1 < len(s) < len(h):
                        stack += [s, poly_divmod(h, s, p)[0]]
                        break
    return sorted(out)


class QPoly(Slotted):
    """Polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(poly_trim([Fraction(c) for c in coeffs]))

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
        return self[self.degree()]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other) -> "QPoly":
        """Sum with a QPoly or a rational scalar."""
        return QPoly(poly_add(self.coeffs, [other] if isinstance(other, (int, Fraction))
                              else other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        return QPoly(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return QPoly(poly_powmod(self.coeffs, e))

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = poly_divmod(self.coeffs, other.coeffs)
        return QPoly(q), QPoly(r)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "QPoly":
        return QPoly(poly_monic(self.coeffs))

    def derivative(self) -> "QPoly":
        return QPoly(poly_derivative(self.coeffs))

    def eval(self, x):
        """Horner evaluation; x may be a Fraction, RatFunc, QPoly, float or complex."""
        return poly_horner(self.coeffs, x) if self.degree() > 0 else self[0] + 0 * x

    def shift(self, a: Fraction) -> "QPoly":
        """Taylor shift: returns p(x + a)."""
        return QPoly(poly_shift(self.coeffs, a))

    def gcd(self, other: "QPoly") -> "QPoly":
        return QPoly(poly_gcd(self.coeffs, other.coeffs))

    def power_sums(self, n: int) -> list[Fraction]:
        """[p_0, ..., p_n]: p_k is the sum of the k-th powers of the roots (Newton's identities)."""
        return [Fraction(c) for c in poly_power_sums(self.monic().coeffs, n)]

    @classmethod
    def from_power_sums(cls, ps: list[Fraction]) -> "QPoly":
        """Monic polynomial of degree len(ps) - 1 whose roots have the power sums ps."""
        return cls(poly_from_power_sums([Fraction(c) for c in ps]))

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, ascending."""
        return self._rational_roots_and_rest()[0]

    def _rational_roots_and_rest(self) -> tuple[list[tuple[Fraction, int]], "QPoly"]:
        """(rational_roots(), the rest): self with every rational root divided out.

        Over an integer form a_n x^n + ... + a_0, a root x = u/v in lowest
        terms has v | a_n, so y = a_n x is an integer root of the monic
        q(y) = a_n^(n-1) p(y/a_n).  Every real root of q lies in one of the
        unit brackets of _root_brackets; each bracket end is tested exactly
        and every root found is deflated out, which leaves the rest.
        """
        if self.degree() <= 0:
            return [], self
        k = next(i for i, c in enumerate(self.coeffs) if c)  # the root 0, k times
        p = QPoly(self.coeffs[k:])
        roots = {Fraction(0): k} if k else {}
        if p.degree() <= 0:
            return sorted(roots.items()), p
        den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
        ip = [int(c * den_lcm) for c in p.coeffs]
        g = math.gcd(*ip)
        ip = [c // g for c in ip]
        n, an = len(ip) - 1, ip[-1]
        q = [c * an ** (n - 1 - i) for i, c in enumerate(ip[:-1])] + [1]
        for y in sorted({e for lo in _root_brackets(q) for e in (lo, lo + 1)}):
            if p.degree() <= 0:
                break
            if poly_horner(q, y) != 0:
                continue
            cand = Fraction(y, an)
            mult = 0
            while p.eval(cand) == 0:
                p = p.exact_div(QPoly([-cand, 1]))
                mult += 1
            roots[cand] = mult
        return sorted(roots.items()), p

    def __repr__(self) -> str:
        return f"QPoly({format_tpoly(self)})"


def _root_brackets(c: list[int]) -> list[int]:
    """Sorted integers lo such that each real root of c lies in some [lo, lo + 1].

    c is an integer polynomial of degree >= 1, lowest degree first.  The
    brackets of c' split (-bound, bound), bound above the Cauchy bound, into
    pieces on which c is monotone; a piece whose ends differ in sign is
    bisected down to a unit bracket.  A root inside a bracket of c' (a
    double root, or two roots close together) is covered by keeping that
    bracket too.
    """
    if len(c) == 2:
        return [-c[0] // c[1]]
    bound = 2 + max(abs(a) for a in c[:-1]) // abs(c[-1])
    crit = _root_brackets(poly_derivative(c))
    out = set(crit)
    ends = [-bound] + [e for lo in crit for e in (lo, lo + 1)] + [bound]
    for a, b in zip(ends[::2], ends[1::2]):
        if a >= b:
            continue
        sa = poly_horner(c, a)
        if sa * poly_horner(c, b) > 0:
            continue
        while b - a > 1:
            m = (a + b) // 2
            sm = poly_horner(c, m)
            if sa * sm > 0:
                a, sa = m, sm
            else:
                b = m
        out.add(a)
    return sorted(out)


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
    """Monic irreducible factorization over Q (constant dropped), by (degree, coefficients).

    The linear factors come from rational_roots.  What is left has no
    rational root, so at degree 2 or 3 it is irreducible; only a rest of
    degree >= 4 goes to sympy.
    """
    roots, rest = p._rational_roots_and_rest()
    out = [(QPoly([-r, 1]), m) for r, m in roots] + _rootless_factors(rest)
    return sorted(out, key=lambda fm: (fm[0].degree(), fm[0].coeffs))


def _rootless_factors(rest: QPoly) -> list[tuple[QPoly, int]]:
    """irreducible_factors of a rest with no rational root, in the same order."""
    rest = rest.monic()
    if rest.degree() >= 4:
        return list(_factor_cached(rest.coeffs))
    return [(rest, 1)] if rest.degree() > 0 else []


# ---------------------------------------------------------------------------
# printing / Q(t)
# ---------------------------------------------------------------------------

_TVAR = "t"  # the variable of Q(t) in printed polynomials


def format_tpoly(p: QPoly) -> str:
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
            body = str(mag)
        else:
            v = _TVAR if i == 1 else f"{_TVAR}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


class RatFunc(Slotted):
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

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other) -> "RatFunc":
        """Sum with a RatFunc or a rational scalar."""
        if not isinstance(other, RatFunc):
            return RatFunc(self.num + self.den * other, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

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
