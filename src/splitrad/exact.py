"""Exact integer/rational arithmetic: factorization, valuations, LogValue.

A LogValue is the value type of every height-like quantity in the library:
an exact rational constant, plus an exact formal sum of rational multiples
of log p over primes p, plus a certified float interval for contributions
that are genuinely transcendental (archimedean escape-rate limits).  Sums
and scalar multiples act coordinatewise, so identities between heights can
be asserted exactly on the formal data.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from .intervals import Interval, Slotted

INFINITY = math.inf

Rational = Fraction


class DomainError(ValueError):
    """An operation was called outside its stated domain."""


class UndeterminedError(RuntimeError):
    """No certificate (escape or boundedness) fired within the iteration cap."""


class Value(Slotted):
    """A record whose annotated names, in order, are its fields: ``Slotted``'s ==
    reads them, as do the constructor (a class attribute is a default), ``repr``
    and ``to_json``.  Unhashable.  The fields live in the instance ``__dict__``,
    which is the pickle state, so unpickling a ``Frozen`` never sets an attribute."""

    __hash__ = None

    def __init_subclass__(cls):
        cls._fields = dict.fromkeys(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        given = dict(zip(fields, args), **kwargs)
        if (len(given) < len(args) + len(kwargs) or not given.keys() <= fields.keys()
                or len(given) < len(fields) and not fields.keys() <= given.keys() | vars(cls)):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            self.__dict__[name] = given[name] if name in given else vars(cls)[name]

    def __getstate__(self):
        return self.__dict__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> dict:
        return {name: as_json(getattr(self, name)) for name in self._fields}


class Frozen(Value):
    """An immutable ``Value``, hashed by its field tuple."""

    __hash__ = Slotted.__hash__

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


def as_json(x):
    """The JSON form of a field: a Fraction as its string, a tuple as a list,
    a value with ``to_json`` as that, anything else as is."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return [as_json(item) for item in x]
    return x.to_json() if hasattr(x, "to_json") else x


# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 10 ** 6
_small_primes: list[int] = []
_sieved_to = 1

# witnesses certifying primality for every n < 3.3 * 10^24 (covers 64-bit)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _primes_upto(m: int) -> list[int]:
    """Ascending primes, at least all those <= min(m, 10^6).

    The sieve grows on demand, at least doubling each time, so a small
    factorization never pays for the full table.
    """
    global _small_primes, _sieved_to
    if m > _sieved_to and _sieved_to < _TRIAL_LIMIT:
        limit = min(_TRIAL_LIMIT, max(m, 2 * _sieved_to))
        mark = bytearray([1]) * (limit + 1)
        mark[0] = mark[1] = 0
        for i in range(2, math.isqrt(limit) + 1):
            if mark[i]:
                mark[i * i:: i] = bytes((limit - i * i) // i + 1)
        _small_primes = list(itertools.compress(range(limit + 1), mark))
        _sieved_to = limit
    return _small_primes


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a % n, d, n)
    if x in (0, 1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 37 with Selfridge's parameters (method A).

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; n passes when U_d = 0 or V_(d*2^r) = 0 for some
    0 <= r < s, where n + 1 = d*2^s with d odd.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Primality: deterministic below 2^64, Baillie-PSW above.

    Below 2^64 the fixed Miller-Rabin bases _MR_BASES are a proof.  Above
    it, Baillie-PSW (a strong base-2 test and a strong Lucas test) has no
    known counterexample, but that is not a proof.

    Each verdict is memoized, so every entry point that takes a prime p
    proves it again at the cost of one lookup.  The verdict is a pure
    function of one int, and the cache, like those in qpoly and
    localheights._unity_orders, has a fixed size and holds only ints and
    bools, never a Poly.  An untyped lru_cache may treat equal arguments of different
    types as one call; typed=True keeps a non-int such as Fraction(1000003)
    off the entry of the equal int, so it still raises TypeError.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return not any(_mr_witness(n, a) for a in _MR_BASES)
    return not _mr_witness(n, 2) and _strong_lucas_probable_prime(n)


# Pollard rho steps one factorize call may spend over all its cofactors; a
# product of two primes near 10^10 needs about this many
_RHO_BUDGET = 1 << 17


def _pollard_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite n, and the steps spent finding it.

    Floyd's cycle finding on x -> x^2 + c: x steps once and y twice per
    step, and the differences are multiplied up and gcd'ed with n every 64
    steps.  Raises UndeterminedError once more than `budget` steps are spent.
    """
    steps = 0
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(0, n)
        y, d, q = x, 1, 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            count += 1
            if q == 0:
                d = math.gcd(abs(x - y), n)
                break
            if count % 64 == 0:
                d = math.gcd(q, n)
                if d == 1 and steps + count > budget:
                    raise UndeterminedError(
                        f"factorization of a {len(str(n))}-digit cofactor exceeded "
                        f"the Pollard rho budget of {_RHO_BUDGET} steps")
        steps += count
        if 1 < d < n:
            return d, steps


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as [(p, e), ...] with p strictly increasing.

    Trial division up to 10^6, then Pollard rho with a fixed seed and at
    most _RHO_BUDGET steps over all cofactors, past which it raises
    UndeterminedError; primality of cofactors is decided by is_prime.  Each
    cofactor is first divided by the primes already found, so once rho has
    found a prime, no further rho call splits off its powers.
    """
    if n == 0:
        raise DomainError("factorize(0) is undefined")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _primes_upto(math.isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        rng = random.Random(0xFAC70)
        stack = [n]
        budget = _RHO_BUDGET
        while stack:
            m = stack.pop()
            for q in out:  # rho splits a prime power a few factors at a time
                while m % q == 0:
                    out[q] += 1
                    m //= q
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d, spent = _pollard_rho(m, rng, budget)
            budget -= spent
            stack.append(m // d)
            stack.append(d)  # rho's factor, usually the smaller, is proved first
    return sorted(out.items())


def prime_support(*rationals) -> list[int]:
    """Ascending primes dividing the numerator or denominator of some argument.

    The numbers are factored in argument order, numerator first, so a
    factorization that exceeds the rho budget is the first such one.
    """
    primes: set[int] = set()
    for x in map(Fraction, rationals):
        for n in (x.numerator, x.denominator):
            if abs(n) > 1:
                primes.update(p for p, _ in factorize(n))
    return sorted(primes)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n) if n > 1 else []:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int):
    """p-adic valuation v_p(x) of a rational x, with v_p(0) = +inf."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

class LogValue(Slotted):
    """const + sum_p q_p*log(p) + err, with exact const/q_p and certified err.

    Immutable by convention.  The formal part (const and the log
    coefficients) is exact; `err` is a float interval enclosing whatever
    cannot be expressed formally.  An exact value has err = [0, 0].
    """

    __slots__ = ("const", "logs", "err")

    def __init__(self, const=0, logs: dict[int, Fraction] | None = None,
                 err: Interval | None = None):
        self.const = Fraction(const)
        clean: dict[int, Fraction] = {}
        for p, q in (logs or {}).items():
            q = Fraction(q)
            if q != 0:
                clean[p] = q
        self.logs = clean
        self.err = err if err is not None else Interval.zero()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogValue":
        return cls()

    @classmethod
    def from_const(cls, c) -> "LogValue":
        return cls(const=c)

    @classmethod
    def from_log(cls, p: int, coeff) -> "LogValue":
        return cls(logs={p: Fraction(coeff)})

    @classmethod
    def from_interval(cls, iv: Interval) -> "LogValue":
        return cls(err=iv)

    @classmethod
    def log_abs(cls, x) -> "LogValue":
        """Exact log|x| of a nonzero rational, as a formal sum of log p."""
        x = Fraction(x)
        if x == 0:
            raise DomainError("log|0| is undefined")
        logs: dict[int, Fraction] = {}
        for p, e in factorize(x.numerator) if abs(x.numerator) != 1 else []:
            logs[p] = logs.get(p, Fraction(0)) + e
        for p, e in factorize(x.denominator) if x.denominator != 1 else []:
            logs[p] = logs.get(p, Fraction(0)) - e
        return cls(logs=logs)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        logs = dict(self.logs)
        for p, q in other.logs.items():
            logs[p] = logs.get(p, Fraction(0)) + q
        return LogValue(self.const + other.const, logs, self.err + other.err)

    def __neg__(self) -> "LogValue":
        return LogValue(-self.const, {p: -q for p, q in self.logs.items()}, -self.err)

    def __sub__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "LogValue":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        return LogValue(self.const * s, {p: q * s for p, q in self.logs.items()}, self.err * s)

    __rmul__ = __mul__

    def __hash__(self):  # logs is a dict
        return hash((self.const, tuple(sorted(self.logs.items())), self.err.lo, self.err.hi))

    # -- queries -----------------------------------------------------------

    def is_formally_zero(self) -> bool:
        return self.const == 0 and not self.logs

    def is_exactly_zero(self) -> bool:
        return self.is_formally_zero() and self.err.lo == 0.0 == self.err.hi

    def is_exact(self) -> bool:
        return self.err.lo == 0.0 == self.err.hi

    def formal_equal(self, other: "LogValue") -> bool:
        return self.const == other.const and self.logs == other.logs

    def to_interval(self) -> Interval:
        iv = Interval.from_fraction(self.const)
        for p, q in sorted(self.logs.items()):
            iv = iv + Interval.log_of_int(p) * Interval.from_fraction(q)
        return iv + self.err

    def approx(self) -> float:
        return self.to_interval().mid

    def compare(self, other: "LogValue"):
        """-1/0/+1 if certified, None if the enclosures overlap undecidably."""
        d = self - other
        if d.is_exactly_zero():
            return 0
        iv = d.to_interval()
        if iv.hi < 0:
            return -1
        if iv.lo > 0:
            return 1
        if iv.lo == 0.0 == iv.hi:
            return 0
        return None

    def certified_leq(self, other: "LogValue"):
        """True/False when decidable, None otherwise."""
        iv = (self - other).to_interval()
        if iv.hi <= 0:
            return True
        return False if iv.lo > 0 else None

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        parts = []
        if self.const:
            parts.append(str(self.const))
        for p, q in sorted(self.logs.items()):
            parts.append(f"{q}*log({p})" if q != 1 else f"log({p})")
        if not self.err.is_point() or self.err.lo != 0.0:
            parts.append(f"[{self.err.lo:.6g},{self.err.hi:.6g}]")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        out: dict = {"approx": self.approx()}
        if self.const:
            out["const"] = str(self.const)
        if self.logs:
            out["logs"] = {str(p): str(q) for p, q in sorted(self.logs.items())}
        if not (self.err.lo == 0.0 == self.err.hi):
            out["err"] = [self.err.lo, self.err.hi]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LogValue":
        const = Fraction(data.get("const", 0))
        logs = {int(p): Fraction(q) for p, q in data.get("logs", {}).items()}
        err = data.get("err")
        return cls(const, logs, Interval(*err) if err else None)
