import ast
import bisect
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from splitrad import exact
from splitrad.exact import (DomainError, INFINITY, LogValue, UndeterminedError, factorize,
                            is_prime, valuation)
from splitrad.intervals import Interval
from splitrad.places import Place, local_abs_log


def test_factorize_examples():
    # oracle: repeated long division
    def slow_factor(n):
        n = abs(n)
        out = []
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
            p += 1
        return out

    assert factorize(3375) == slow_factor(3375) == [(3, 3), (5, 3)]
    assert factorize(1) == []
    assert factorize(-12) == slow_factor(-12) == [(2, 2), (3, 1)]


def test_factorize_zero_is_domain_error():
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_reconstructs_and_sorted():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 10 ** 9)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == [(p, 1), (q, 1)]


def _full_sieve(limit):
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if mark[i]:
            mark[i * i:: i] = bytearray(len(mark[i * i:: i]))
    return [i for i in range(limit + 1) if mark[i]]


FULL_TABLE = _full_sieve(10 ** 6)


def reference_factorize(n):
    """The earlier factorize: trial division over every prime below 10^6, then rho."""
    n = abs(n)
    out = {}
    for p in FULL_TABLE:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        rng = random.Random(0xFAC70)
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d, _ = exact._pollard_rho(m, rng, math.inf)
            stack.append(d)
            stack.append(m // d)
    return sorted(out.items())


def _near_prime(x, up):
    i = bisect.bisect_left(FULL_TABLE, x)
    return FULL_TABLE[min(i, len(FULL_TABLE) - 1)] if up else FULL_TABLE[max(i - 1, 0)]


# primes at and next to the sieve's sizes: each size is the first isqrt(n)
# asked for or at least double the last, so p^2 asks for exactly p
_bases = st.one_of(st.integers(2, 3000), st.integers(10 ** 6 - 3000, 10 ** 6 + 50),
                   st.sampled_from([2 ** k + d for k in range(1, 21) for d in (-1, 0, 1)]))
_primes = st.builds(_near_prime, _bases, st.booleans())
_hard_ints = st.one_of(st.builds(lambda p: p * p, _primes),
                       st.builds(lambda p, q: p * q, _primes, _primes),
                       st.builds(lambda p, q, r: p * q * r, _primes, _primes, _primes),
                       st.integers(1, 10 ** 13))


def _with_rho_calls(fn, n, expect=None):
    """fn(n) and the numbers it handed to Pollard rho, which must follow `expect`.

    Failing at the first unexpected call matters: rho never returns on some
    small composites (4, for one) that trial division should have split.
    """
    calls = []
    real_rho = exact._pollard_rho

    def spy(m, *args):
        calls.append(m)
        assert expect is None or calls == expect[:len(calls)], f"unexpected rho({m})"
        return real_rho(m, *args)

    exact._pollard_rho = spy
    try:
        return fn(n), calls
    finally:
        exact._pollard_rho = real_rho


@settings(max_examples=40, deadline=None)
@given(st.lists(_hard_ints, min_size=1, max_size=6))
def test_factorize_matches_full_sieve(ns):
    """Same factors and the same rho calls as the full table, small-then-large and back."""
    saved = exact._small_primes, exact._sieved_to
    try:
        for order in (sorted(ns), sorted(ns, reverse=True)):
            exact._small_primes, exact._sieved_to = [], 1  # as in a fresh process
            for n in order:
                want = _with_rho_calls(reference_factorize, n)
                assert _with_rho_calls(factorize, n, want[1]) == want
    finally:
        exact._small_primes, exact._sieved_to = saved


def test_is_prime_spots():
    assert is_prime(2) and is_prime(3) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(2 ** 67 - 1)


def _chernick_carmichaels(count):
    """(6k+1)(12k+1)(18k+1) above 2^64 with all three factors prime: Carmichael numbers."""
    out, k = [], 250_000
    while len(out) < count:
        k += 1
        if all(sympy.isprime(a * k + 1) for a in (6, 12, 18)):
            out.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
    return out


def test_is_prime_rejects_pseudoprimes_above_2_64():
    for n in _chernick_carmichaels(6):
        assert n > 2 ** 64 and pow(2, n - 1, n) == 1 and not is_prime(n)
    # (4^p + 1)/5 is a strong base-2 pseudoprime: only the Lucas half rejects it
    for p in (37, 41, 43, 53, 61, 67, 89, 127):
        n = (4 ** p + 1) // 5
        assert n > 2 ** 64 and not exact._mr_witness(n, 2) and not is_prime(n)


_odd = st.integers(65, 256).flatmap(lambda b: st.integers(2 ** (b - 1), 2 ** b - 1)).map(lambda n: n | 1)
_big_prime = st.integers(2 ** 20, 2 ** 160).map(sympy.nextprime)
_products = st.one_of(st.builds(lambda p, q: p * q, _big_prime, _big_prime),
                      st.builds(lambda p, q, r: p * q * r, _big_prime, _big_prime, _big_prime))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_odd, _big_prime, _products).filter(lambda n: n > 2 ** 64))
def test_is_prime_matches_sympy_above_2_64(n):
    assert is_prime(n) == sympy.isprime(n)


# Carmichael numbers, base-2 strong pseudoprimes, and semiprimes above 2^64
_PRIMALITY_TRAPS = [561, 41041, 2047, 3215031751, (2 ** 61 - 1) * (2 ** 31 - 1),
                    (2 ** 61 - 1) ** 2, (2 ** 89 - 1) * (2 ** 61 - 1), 2 ** 61 - 1, 1000003]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PRIMALITY_TRAPS), st.integers(-5, 10 ** 6),
                          st.integers(2 ** 64, 2 ** 80)), min_size=1, max_size=20))
def test_is_prime_cache_agrees_with_the_uncached_test(ns):
    # interleaved draws, then the same ints again in reverse: hits and misses mixed
    for n in ns + ns[::-1]:
        assert is_prime(n) == is_prime.__wrapped__(n)


def test_is_prime_cache_keeps_non_ints_out():
    # Fraction(1000003) hashes and compares equal to 1000003; typed keys keep them apart
    assert is_prime(1000003)
    with pytest.raises(TypeError):
        is_prime(F(1000003))


def test_no_module_defines_an_unchecked_twin():
    # each exported name is the only path to its work: no `name` next to a `_name`
    twins = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        twins += [f"{path.stem}.{n}" for n in sorted(names) if n.startswith("_") and n[1:] in names]
    assert twins == []


def test_factorize_gives_up_at_the_rho_budget():
    with pytest.raises(UndeterminedError, match="factorization of a 43-digit cofactor exceeded "
                                                "the Pollard rho budget of 131072 steps"):
        factorize(8808046456595511703397342424939986591502523)
    # two 11-digit primes still fit in the budget
    assert factorize(10000000019 * 10000000033) == [(10000000019, 1), (10000000033, 1)]


def test_prime_powers_above_the_trial_bound_factor_exactly():
    # rho splits p^k a few factors at a time; without dividing each cofactor by
    # the primes already found, 1000003^200 exceeded the rho budget
    p, q = 1000003, 1000033
    start = time.perf_counter()
    assert factorize(p ** 200) == [(p, 200)]
    assert factorize((p * q) ** 50) == [(p, 50), (q, 50)]
    assert factorize(7 * p ** 3 * q) == [(7, 1), (p, 3), (q, 1)]
    assert time.perf_counter() - start < 10.0


def test_rho_budget_is_shared_by_every_cofactor(monkeypatch):
    calls = []
    real_rho = exact._pollard_rho

    def spy(m, rng, budget):
        d, spent = real_rho(m, rng, budget)
        calls.append((budget, spent))
        return d, spent

    monkeypatch.setattr(exact, "_pollard_rho", spy)
    primes = [10000019, 10000079, 10000103, 10000121]
    assert factorize(math.prod(primes)) == [(p, 1) for p in primes]
    assert len(calls) == 3 and calls[0][0] == exact._RHO_BUDGET
    for (budget, spent), (left, _) in zip(calls, calls[1:]):
        assert left == budget - spent
    monkeypatch.setattr(exact, "_RHO_BUDGET", 64)
    with pytest.raises(UndeterminedError, match="15-digit cofactor exceeded the Pollard rho budget of 64"):
        factorize(10000019 * 10000079)


def test_valuation_examples():
    assert valuation(F(252, 125), 5) == -3
    assert valuation(0, 7) == INFINITY
    assert valuation(F(6, 5), 2) == 1
    with pytest.raises(DomainError):
        valuation(F(1, 2), 4)


def test_valuation_additivity():
    rng = random.Random(23)
    primes = [p for p in range(2, 101) if is_prime(p)]
    for _ in range(1000):
        x = F(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 4))
        y = F(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 4))
        p = rng.choice(primes)
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_local_abs_log_examples():
    assert local_abs_log(F(1, 2), Place.finite(2)) == LogValue.from_log(2, 1)
    for v in (Place.finite(2), Place.finite(97), Place.arch()):
        assert local_abs_log(F(1), v).is_exactly_zero()
    assert local_abs_log(F(6, 5), Place.finite(5)) == LogValue.from_log(5, 1)
    with pytest.raises(DomainError):
        local_abs_log(0, Place.arch())


def test_logvalue_algebra_associative():
    rng = random.Random(5)
    for _ in range(100):
        vals = []
        for _k in range(3):
            logs = {rng.choice([2, 3, 5, 7]): F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _j in range(2)}
            vals.append(LogValue(F(rng.randint(-5, 5)), logs))
        a, b, c = vals
        assert ((a + b) + c).formal_equal(a + (b + c))
        assert ((a + b) + c) == (a + (b + c))


def test_logvalue_scalar_coordinatewise():
    v = LogValue(F(1, 2), {3: F(2), 5: F(-1, 3)})
    w = v * F(3, 2)
    assert w.const == F(3, 4) and w.logs == {3: F(3), 5: F(-1, 2)}


def test_interval_widening_monotone():
    a = Interval(1.0, 1.5)
    b = Interval(0.25, 0.5)
    s = a + b
    assert s.width >= a.width and s.width >= b.width
    assert s.lo <= 1.25 <= s.hi


def test_logvalue_interval_encloses_value():
    import math
    v = LogValue(F(1, 3), {2: F(1), 5: F(-2)})
    iv = v.to_interval()
    truth = 1 / 3 + math.log(2) - 2 * math.log(5)
    assert iv.lo <= truth <= iv.hi
    assert iv.width < 1e-12


def test_logvalue_compare_trichotomy():
    a = LogValue.from_log(2, 1)
    b = LogValue.from_log(3, 1)
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    assert a.compare(LogValue.from_log(2, 1)) == 0


def _ref_certified_leq(a, b):
    c = a.compare(b)
    if c is None:
        d = (a - b).to_interval()
        if d.hi <= 0:
            return True
        if d.lo > 0:
            return False
        return None
    return c <= 0


# Few distinct formal parts, so a - b is often formally 0 and its enclosure
# is the error term alone: touching 0 from either side, or holding it.
_log_values = st.builds(
    LogValue,
    st.sampled_from([F(0), F(1), F(-1, 2)]),
    st.dictionaries(st.sampled_from([2, 3]), st.sampled_from([F(1), F(-1), F(1, 2)]), max_size=2),
    st.sampled_from([Interval(0.0, 0.0), Interval(-1e-9, 0.0), Interval(0.0, 1e-9),
                     Interval(-1e-9, 1e-9), Interval(-2.0, 2.0)]))


@settings(max_examples=300, deadline=None)
@given(_log_values, _log_values)
def test_certified_leq_matches_reference(a, b):
    assert a.certified_leq(b) is _ref_certified_leq(a, b)


def test_logvalue_json_roundtrip():
    v = LogValue(F(-2, 7), {3: F(5, 4)}, Interval(0.25, 0.5))
    assert LogValue.from_json(v.to_json()) == v
