"""Places of Q and Q(t), naive heights, supports, radicals.

Every non-archimedean place answers two questions, its weight N_v and the
valuation v(x), and log|x|_v = -N_v v(x).  Over Q a finite place p carries
N_p = log p (log of the residue cardinality) so that the product formula
closes against the natural-log archimedean term.  Over Q(t) a finite place
pi carries N_pi = deg pi, and t = infinity is an ordinary non-archimedean
place with valuation deg den - deg num and weight 1.  With these weights
every identity below is exact on the formal part of a LogValue.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import DomainError, LogValue, is_prime, prime_support, valuation
from .intervals import Slotted
from .qpoly import QPoly, RatFunc, format_tpoly, irreducible_factors

FIELD_Q = "Q"
FIELD_QT = "Qt"


class Place(Slotted):
    """A normalized place of Q or Q(t)."""

    __slots__ = ("kind", "p", "pi")

    ARCH = "arch"
    FINITE = "finite"
    FINITE_POLY = "finite_poly"
    T_INFINITY = "t_infinity"

    def __init__(self, kind: str, p: int | None = None, pi: QPoly | None = None):
        self.kind = kind
        self.p = p
        self.pi = pi
        if kind == Place.FINITE:
            if p is None or not is_prime(p):
                raise DomainError(f"finite place needs a prime, got {p}")
        elif kind == Place.FINITE_POLY:
            if pi is None or pi.degree() < 1 or pi.lc() != 1:
                raise DomainError("finite Q(t) place needs a monic nonconstant polynomial")
        elif kind not in (Place.ARCH, Place.T_INFINITY):
            raise DomainError(f"unknown place kind {kind!r}")

    @classmethod
    def arch(cls) -> "Place":
        return cls(Place.ARCH)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(Place.FINITE, p=p)

    @classmethod
    def finite_poly(cls, pi: QPoly) -> "Place":
        return cls(Place.FINITE_POLY, pi=pi.monic())

    @classmethod
    def t_infinity(cls) -> "Place":
        return cls(Place.T_INFINITY)

    def weight(self) -> LogValue:
        """N_v: log p over Q, deg pi over Q(t), 1 at t-infinity."""
        if self.kind == Place.FINITE:
            return LogValue.from_log(self.p, 1)
        if self.kind == Place.FINITE_POLY:
            return LogValue.from_const(self.pi.degree())
        if self.kind == Place.T_INFINITY:
            return LogValue.from_const(1)
        raise DomainError("archimedean place has no finite weight")

    def valuation(self, x):
        """v(x) of a ground-field element at a non-archimedean place; v(0) = +inf."""
        if isinstance(x, RatFunc):
            if self.kind == Place.FINITE_POLY:
                return x.valuation_at(self.pi)
            if self.kind == Place.T_INFINITY:
                return x.valuation_at_infinity()
            raise DomainError(f"place {self!r} does not apply to Q(t)")
        if self.kind == Place.FINITE:
            return valuation(x, self.p)
        if self.kind == Place.ARCH:
            raise DomainError("archimedean place has no valuation")
        raise DomainError(f"place {self!r} does not apply to Q")

    def _key(self):
        if self.kind == Place.FINITE:
            return (0, self.p)
        if self.kind == Place.ARCH:
            return (1, 0)
        if self.kind == Place.FINITE_POLY:
            return (2, self.pi.degree(), self.pi.coeffs)
        return (3, 0)

    def __lt__(self, other: "Place") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:
        if self.kind == Place.FINITE:
            return f"Place(p={self.p})"
        if self.kind == Place.FINITE_POLY:
            return f"Place(pi={format_tpoly(self.pi)})"
        return f"Place({self.kind})"

    def label(self) -> str:
        if self.kind == Place.FINITE:
            return str(self.p)
        if self.kind == Place.FINITE_POLY:
            return format_tpoly(self.pi)
        return self.kind

    def to_json(self) -> dict:
        if self.kind == Place.FINITE:
            return {"kind": self.kind, "p": self.p}
        if self.kind == Place.FINITE_POLY:
            return {"kind": self.kind, "pi": format_tpoly(self.pi)}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "Place":
        kind = data["kind"]
        if kind == Place.FINITE:
            return cls.finite(int(data["p"]))
        if kind == Place.FINITE_POLY:
            from .dynamics import parse_ground
            val = parse_ground(data["pi"], FIELD_QT)
            if val.den.degree() != 0:
                raise DomainError("place polynomial must be a polynomial, not a fraction")
            return cls.finite_poly(val.num)
        return cls(kind)  # arch, t_infinity, or an unknown kind rejected by __init__


def places_below(d: int, field: str = FIELD_Q) -> list[Place]:
    """S_d: the places over prime integers <= d (empty over Q(t))."""
    if field == FIELD_QT:
        return []
    return [Place.finite(p) for p in range(2, d + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# local absolute values
# ---------------------------------------------------------------------------

def local_abs_log(x, v: Place) -> LogValue:
    """log|x|_v for a nonzero ground-field element; exact at every place."""
    if not isinstance(x, RatFunc):
        x = Fraction(x)
    if not x:
        raise DomainError("log|0|_v is undefined")
    if v.kind == Place.ARCH and isinstance(x, Fraction):
        return LogValue.log_abs(x)
    e = -v.valuation(x)  # first: the arch place on Q(t) reports the field, not the weight
    return v.weight() * e


def _as_ratfunc(c) -> RatFunc:
    return c if isinstance(c, RatFunc) else RatFunc.const(c)


def _ground(field: str):
    """Coercion of a constant into the ground field: Fraction over Q, RatFunc over Q(t)."""
    if field == FIELD_Q:
        return Fraction
    if field == FIELD_QT:
        return _as_ratfunc
    raise DomainError(f"unknown field {field!r}")


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

class ProjectivePoint(Slotted):
    """Tuple of n >= 2 ground-field coordinates, not all zero; equality up to scaling."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field: str = FIELD_Q):
        coords = tuple(coords)
        if len(coords) < 2:
            raise DomainError("projective point needs at least 2 coordinates")
        coords = tuple(map(_ground(field), coords))
        if not any(coords):
            raise DomainError("projective point cannot be all zero")
        self.coords = coords
        self.field = field

    def all_nonzero(self) -> bool:
        return all(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint) or other.field != self.field:
            return False
        if len(self.coords) != len(other.coords):
            return False
        lam = None
        for a, b in zip(self.coords, other.coords):
            az, bz = not a, not b
            if az != bz:
                return False
            if az:
                continue
            ratio = a / b
            if lam is None:
                lam = ratio
            elif ratio != lam:
                return False
        return True

    def __repr__(self) -> str:
        return f"ProjectivePoint({list(self.coords)!r})"


def _nonarch_places(coords, field: str) -> list[Place]:
    """Non-archimedean places where some coordinate may not be a unit.

    The primes of the coordinates over Q; their monic irreducibles, then t = infinity, over Q(t).
    """
    if field == FIELD_QT:
        pis = {pi for c in coords for part in (c.num, c.den) for pi, _ in irreducible_factors(part)}
        return [*map(Place.finite_poly, sorted(pis, key=lambda q: (q.degree(), q.coeffs))),
                Place.t_infinity()]
    return [Place.finite(p) for p in prime_support(*coords)]


def support(P: ProjectivePoint) -> set[Place]:
    """Places where the coordinate valuations are not all equal (never the archimedean one)."""
    if not P.all_nonzero():
        raise DomainError("support needs all coordinates nonzero")
    return {v for v in _nonarch_places(P.coords, P.field)
            if len({v.valuation(z) for z in P.coords}) > 1}


def naive_height(P: ProjectivePoint) -> LogValue:
    """Weil height of P, exact (formal) at every place."""
    h = LogValue.zero()
    for v in _nonarch_places(P.coords, P.field):
        m = min(v.valuation(z) for z in P.coords)
        if m != 0:
            h = h + v.weight() * -m
    if P.field == FIELD_Q:
        big = max(abs(z) for z in P.coords)
        if big != 1:
            h = h + LogValue.log_abs(big)
    return h


def radical(P: ProjectivePoint) -> LogValue:
    """Sum of the weights N_v over the support of P."""
    if not P.all_nonzero():
        raise DomainError("radical needs all coordinates nonzero")
    r = LogValue.zero()
    for v in sorted(support(P)):
        r = r + v.weight()
    return r


def product_formula_check(x) -> LogValue:
    """Sum over all places of r_v log|x|_v; exactly zero formally for x != 0."""
    if not isinstance(x, RatFunc):
        x = Fraction(x)
    if not x:
        raise DomainError("product formula needs x != 0")
    if isinstance(x, RatFunc):
        total, places = LogValue.zero(), _nonarch_places([x], FIELD_QT)
    else:
        total = local_abs_log(x, Place.arch())
        # log|x| has factored x: its primes are the finite places
        places = [Place.finite(p) for p in sorted(total.logs)]
    return sum((local_abs_log(x, v) for v in places), total)
