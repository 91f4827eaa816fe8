"""Places of Q and Q(t), naive heights, supports, radicals.

Weight normalization: over Q a finite place p carries N_p = log p (log of
the residue cardinality) so that the product formula closes against the
natural-log archimedean term; over Q(t) a finite place pi carries
N_pi = deg pi and the place at t = infinity carries weight 1.  With these
weights every identity below is exact on the formal part of a LogValue.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import DomainError, INFINITY, LogValue, is_prime, prime_support, valuation
from .qpoly import QPoly, RatFunc, format_tpoly, irreducible_factors

FIELD_Q = "Q"
FIELD_QT = "Qt"


class Place:
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

    def is_finite(self) -> bool:
        return self.kind in (Place.FINITE, Place.FINITE_POLY)

    def weight(self) -> LogValue:
        """N_v: log p over Q, deg pi over Q(t), 1 at t-infinity."""
        if self.kind == Place.FINITE:
            return LogValue.from_log(self.p, 1)
        if self.kind == Place.FINITE_POLY:
            return LogValue.from_const(self.pi.degree())
        if self.kind == Place.T_INFINITY:
            return LogValue.from_const(1)
        raise DomainError("archimedean place has no finite weight")

    @property
    def r_v(self) -> Fraction:
        return Fraction(1)

    def _key(self):
        if self.kind == Place.FINITE:
            return (0, self.p)
        if self.kind == Place.ARCH:
            return (1, 0)
        if self.kind == Place.FINITE_POLY:
            return (2, self.pi.degree(), self.pi.coeffs)
        return (3, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Place) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
        return "arch" if self.kind == Place.ARCH else "t_infinity"

    def to_json(self) -> dict:
        if self.kind == Place.FINITE:
            return {"kind": "finite", "p": self.p}
        if self.kind == Place.ARCH:
            return {"kind": "arch"}
        if self.kind == Place.FINITE_POLY:
            return {"kind": "finite_poly", "pi": format_tpoly(self.pi)}
        return {"kind": "t_infinity"}

    @classmethod
    def from_json(cls, data: dict) -> "Place":
        kind = data["kind"]
        if kind == "finite":
            return cls.finite(int(data["p"]))
        if kind == "arch":
            return cls.arch()
        if kind == "finite_poly":
            from .dynamics import parse_ground
            val = parse_ground(data["pi"], FIELD_QT)
            if val.den.degree() != 0:
                raise DomainError("place polynomial must be a polynomial, not a fraction")
            return cls.finite_poly(val.num)
        if kind == "t_infinity":
            return cls.t_infinity()
        raise DomainError(f"unknown place kind {kind!r}")


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
    if isinstance(x, RatFunc):
        if x.is_zero():
            raise DomainError("log|0|_v is undefined")
        if v.kind == Place.FINITE_POLY:
            return LogValue.from_const(-x.valuation_at(v.pi) * v.pi.degree())
        if v.kind == Place.T_INFINITY:
            return LogValue.from_const(-x.valuation_at_infinity())
        raise DomainError(f"place {v!r} does not apply to Q(t)")
    x = Fraction(x)
    if x == 0:
        raise DomainError("log|0|_v is undefined")
    if v.kind == Place.FINITE:
        return LogValue.from_log(v.p, -valuation(x, v.p))
    if v.kind == Place.ARCH:
        return LogValue.log_abs(x)
    raise DomainError(f"place {v!r} does not apply to Q")


def _coord_valuation(z, v: Place):
    """v(z) with v(0) = +inf, for support/height computations."""
    if isinstance(z, RatFunc):
        if v.kind == Place.FINITE_POLY:
            return z.valuation_at(v.pi)
        if v.kind == Place.T_INFINITY:
            return z.valuation_at_infinity()
        raise DomainError(f"place {v!r} does not apply to Q(t)")
    return valuation(Fraction(z), v.p)


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

class ProjectivePoint:
    """Tuple of n >= 2 ground-field coordinates, not all zero; equality up to scaling."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field: str = FIELD_Q):
        coords = tuple(coords)
        if len(coords) < 2:
            raise DomainError("projective point needs at least 2 coordinates")
        if field == FIELD_QT:
            coords = tuple(c if isinstance(c, RatFunc) else RatFunc.const(c) for c in coords)
        else:
            coords = tuple(Fraction(c) for c in coords)
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


def _candidate_finite_places(P: ProjectivePoint) -> list[Place]:
    if P.field == FIELD_QT:
        pis: set[QPoly] = set()
        for c in P.coords:
            for part in (c.num, c.den):
                for pi, _ in irreducible_factors(part):
                    pis.add(pi)
        return [Place.finite_poly(pi) for pi in sorted(pis, key=lambda q: (q.degree(), q.coeffs))]
    return [Place.finite(p) for p in prime_support(*P.coords)]


def support(P: ProjectivePoint) -> set[Place]:
    """Places where the coordinate valuations are not all equal.

    Over Q(t) the infinity place is included when the degree valuations
    differ; over Q the archimedean place never appears.
    """
    if not P.all_nonzero():
        raise DomainError("support needs all coordinates nonzero")
    out: set[Place] = set()
    for v in _candidate_finite_places(P):
        vals = [_coord_valuation(z, v) for z in P.coords]
        if any(val != vals[0] for val in vals):
            out.add(v)
    if P.field == FIELD_QT:
        vinf = [z.valuation_at_infinity() for z in P.coords]
        if any(v != vinf[0] for v in vinf):
            out.add(Place.t_infinity())
    return out


def naive_height(P: ProjectivePoint) -> LogValue:
    """Weil height of P, exact (formal) at every place."""
    h = LogValue.zero()
    for v in _candidate_finite_places(P):
        m = min(_coord_valuation(z, v) for z in P.coords)
        if m != 0 and m != INFINITY:
            h = h + v.weight() * Fraction(-m)
    if P.field == FIELD_QT:
        m = min(z.valuation_at_infinity() for z in P.coords)
        if m != INFINITY and m != 0:
            h = h + LogValue.from_const(-m)
    else:
        big = max(abs(z) for z in P.coords)
        if big != 0 and big != 1:
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
    if isinstance(x, RatFunc):
        if x.is_zero():
            raise DomainError("product formula needs x != 0")
        total = LogValue.zero()
        for part in (x.num, x.den):
            for pi, _ in irreducible_factors(part):
                total = total + local_abs_log(x, Place.finite_poly(pi))
        total = total + local_abs_log(x, Place.t_infinity())
        return total
    x = Fraction(x)
    if x == 0:
        raise DomainError("product formula needs x != 0")
    total = local_abs_log(x, Place.arch())
    for p in sorted(total.logs):  # log|x| has factored x: its primes are the finite places
        total = total + local_abs_log(x, Place.finite(p))
    return total
