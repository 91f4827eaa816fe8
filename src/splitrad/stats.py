"""Statistical functionals on explicit point sets: annulus/wing equidistribution
verdicts, epsilon-good fractions, pair moments, and abc quality of triples.

Everything that can be exact is exact: all the verdicts over Q reduce to
comparisons of rationals or of formal log-combinations, and the abc data
over Q(t) is pure rational arithmetic on degrees.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exact import (DomainError, INFINITY, LogValue, UndeterminedError, Value, as_json,
                    prime_support, valuation)
from .dynamics import (Poly, _iterate_qpoly, candidate_bad_primes, newton_polygon, parse_poly,
                       preperiodic_points, superattracting_cycles)
from .intervals import Interval, Slotted
from .localheights import critical_height_global, critical_height_local, splitting_exponent
from .places import FIELD_Q, Place, ProjectivePoint, naive_height, radical


# ---------------------------------------------------------------------------
# equidistribution reports
# ---------------------------------------------------------------------------

class PlaceReport(Value):
    place: Place
    annulus_count: int
    annulus_mass: Fraction
    wing_counts: tuple[tuple[str, int], ...]
    verdict: bool
    lambda_crit: LogValue


class EquidistributionReport(Value):
    n_points: int
    eps: Fraction
    m0: int
    places: tuple[PlaceReport, ...]
    achieved_delta: Fraction | Interval | None  # an Interval when the ratio is irrational
    passing_weight: LogValue
    total_weight: LogValue


_MAX_CYCLE_PERIOD = 6  # the longest superattracting cycle an equidistribution report looks for


def _superattracting_normalization(f: Poly) -> tuple[Poly, Fraction, int]:
    """(F, p0, m): F(z) = f^m(z + p0) - p0, the Taylor shift of f^m at p0 but for F(0) = 0."""
    cycles = superattracting_cycles(f, _MAX_CYCLE_PERIOD)
    if not cycles:
        raise DomainError("map has no rational superattracting cycle within the period cap")
    cycle, m = min(cycles, key=lambda cm: cm[1])
    p0 = cycle[0]
    if m == 1 and p0 == 0:
        return f, p0, m  # f itself, with what its memo already holds
    return Poly([0, *_iterate_qpoly(f, m).shift(p0).coeffs[1:]]), p0, m


def _check_m0(m0: int) -> None:
    """Reject an m0 whose m0 + 1 chain levels inner_disk_chain would refuse, before any work."""
    from .berkovich import _MAX_CHAIN_DEPTH

    if m0 < 1:
        raise DomainError("m0 >= 1 required")
    if m0 + 1 > _MAX_CHAIN_DEPTH:
        raise DomainError(f"m0 + 1 = {m0 + 1} is above the chain depth cap of {_MAX_CHAIN_DEPTH}")


def equidistribution_report(f: Poly, T, eps, m0: int,
                            tol: float = 1e-9) -> EquidistributionReport:
    """Per-bad-place annulus/wing verdicts for the point set T, all comparisons exact.

    A place passes when the proportion of T in the half-open annulus between
    chain levels m0 and m0+1 is within the factor (1 +- eps) of its
    equilibrium mass, and every wing cluster holds more than (1-eps)/d of T.
    """
    from .berkovich import (AnnulusPosition, annulus_mass, annulus_membership_in_chain,
                            inner_disk_chain, wing_clusters)

    if f.field != FIELD_Q:
        raise DomainError("equidistribution reports run over Q")
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise DomainError("eps must lie in (0, 1)")
    _check_m0(m0)
    pts = [Fraction(z) for z in T]
    if not pts:
        raise DomainError("T must be nonempty")
    if not f.is_monic():
        raise DomainError("equidistribution reports need a monic map")
    F, p0, m = _superattracting_normalization(f)
    shifted = [z - p0 for z in pts]
    n = len(shifted)
    d_wing = F.degree

    reports: list[PlaceReport] = []
    passing = LogValue.zero()
    total = LogValue.zero()
    for p in candidate_bad_primes(F):  # a prime p > d does not divide d^m
        if p <= f.degree:
            continue
        if splitting_exponent(F, p) <= 0:
            continue
        chain = inner_disk_chain(F, p, m0 + 1)
        wings = wing_clusters(F, p)
        ann_count = sum(1 for z in shifted
                        if annulus_membership_in_chain(chain, z, m0) is AnnulusPosition.INSIDE)
        mass = annulus_mass(chain, m0)
        wing_raw = [0] * len(wings.clusters)
        for z in shifted:
            idx = wings.locate(F, z)
            if idx is not None:
                wing_raw[idx] += 1
        ratio = Fraction(ann_count, n)
        ann_ok = (1 - eps) * mass < ratio < (1 + eps) * mass
        wing_thr = (1 - eps) * Fraction(1, d_wing)
        wings_ok = all(Fraction(c, n) > wing_thr for c in wing_raw)
        verdict = ann_ok and wings_ok
        v = Place.finite(p)
        lam = critical_height_local(f, v, tol)
        labels = [str(c.center) if c.center is not None else f"cluster{i}"
                  for i, c in enumerate(wings.clusters)]
        reports.append(PlaceReport(v, ann_count, mass,
                                   tuple(zip(labels, wing_raw)), verdict, lam))
        total = total + lam
        if verdict:
            passing = passing + lam

    delta = _weight_ratio(passing, total)
    return EquidistributionReport(n, eps, m0, tuple(reports), delta, passing, total)


def _weight_ratio(num: LogValue, den: LogValue) -> Fraction | Interval | None:
    """num/den: a Fraction when the ratio is rational, else a certified Interval.

    1 and the log p are linearly independent over Q (Lindemann and unique
    factorization), so the ratio of two exact LogValues is rational exactly
    when num is a rational multiple of den term by term.
    """
    if den.is_exactly_zero():
        return None
    if num.is_exactly_zero():
        return Fraction(0)
    if num.is_exact() and den.is_exact():
        k = next(iter(den.logs), None)  # any one term of den fixes the only candidate
        c = num.const / den.const if k is None else num.logs.get(k, 0) / den.logs[k]
        if (den * c).formal_equal(num):
            return c
    return num.to_interval() / den.to_interval()


# ---------------------------------------------------------------------------
# epsilon-good differences
# ---------------------------------------------------------------------------

class EpsilonGoodWitness(Value):
    alpha: Fraction
    size_sum: LogValue          # sum over S1 and the good places of log|1/alpha|_v
    is_good: bool | None        # None: comparison undetermined


class EpsilonGoodResult(Value):
    fraction: Fraction
    witnesses: tuple[EpsilonGoodWitness, ...]
    degenerate: bool            # h_crit = 0: every threshold comparison is against 0
    h_crit: LogValue


def _place_is_good(f: Poly, q: int) -> bool:
    """Good-reduction certificate at a prime q > d (never called inside S_d)."""
    npf = newton_polygon(f, q)
    if npf.gauss(0) <= 0 and npf.vertices[-1][1] == 0:  # q-integral, unit leading coefficient
        return True
    if f.is_monic() and f.degree % q != 0:
        return splitting_exponent(f, q) <= 0
    raise UndeterminedError(f"no good/bad verdict available at p={q}")


def epsilon_good_sum(f: Poly, alpha) -> LogValue:
    """Sum over S_d, the archimedean place and the good places of log|1/alpha|_v."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    d = f.degree
    total = -LogValue.log_abs(alpha)  # archimedean term, exact
    for q in sorted(total.logs):  # log|alpha| has factored alpha: its primes are the finite places
        if q <= d or _place_is_good(f, q):
            total = total + LogValue.from_log(q, valuation(alpha, q))
    return total


def epsilon_good_fraction(f: Poly, T, eps, tol: float = 1e-9) -> EpsilonGoodResult:
    """Fraction of the nonzero differences of T that are eps-good."""
    eps = Fraction(eps)
    pts = [Fraction(z) for z in T]
    if len(set(pts)) < 2:
        raise DomainError("T needs at least two distinct elements")
    hc = critical_height_global(f, tol)
    degenerate = hc.is_exactly_zero()
    diffs = sorted({pj - pi for pi in pts for pj in pts if pj != pi})
    witnesses = []
    good = 0
    for a in diffs:
        s = epsilon_good_sum(f, a)
        verdict = s.certified_leq(hc * eps)
        if verdict:
            good += 1
        witnesses.append(EpsilonGoodWitness(a, s, verdict))
    return EpsilonGoodResult(Fraction(good, len(diffs)), tuple(witnesses), degenerate, hc)


# ---------------------------------------------------------------------------
# pair moments
# ---------------------------------------------------------------------------

class PairMomentResult(Value):
    average: LogValue
    n_pairs: int
    threshold: LogValue | None
    count_above: int | None


def _pair_term(zi: Fraction, zj: Fraction, d: int) -> LogValue:
    out = LogValue.zero()
    for q in prime_support(zi, zj):
        if q <= d:
            continue
        m = min(valuation(zi, q), valuation(zj, q))
        if m != 0 and m != INFINITY:
            out = out + LogValue.from_log(q, -m)
    return out


def pair_moment(f: Poly, T, eps=None, tol: float = 1e-9) -> PairMomentResult:
    """Average over ordered distinct pairs of sum_{finite v, p > d} log max(|P_i|_v, |P_j|_v)."""
    pts = sorted({Fraction(z) for z in T})
    if len(pts) < 2:
        raise DomainError("T needs at least two distinct elements")
    d = f.degree
    terms = []
    for zi in pts:
        for zj in pts:
            if zi != zj:
                terms.append(_pair_term(zi, zj, d))
    total = LogValue.zero()
    for t in terms:
        total = total + t
    avg = total * Fraction(1, len(terms))
    threshold = None
    count = None
    if eps is not None:
        eps = Fraction(eps)
        threshold = critical_height_global(f, tol) * (Fraction(1, d * d) - eps)
        count = 0
        for t in terms:
            c = threshold.certified_leq(t)
            if c:
                count += 1
    return PairMomentResult(avg, len(terms), threshold, count)


# ---------------------------------------------------------------------------
# abc quality
# ---------------------------------------------------------------------------

class AbcTriple(Slotted):
    """Three nonzero ground-field elements summing to zero, up to scaling."""

    __slots__ = ("point",)

    def __init__(self, coords, field: str = FIELD_Q):
        pt = ProjectivePoint(coords, field)
        if len(pt.coords) != 3:
            raise DomainError("abc triple needs exactly three coordinates")
        if not pt.all_nonzero():
            raise DomainError("abc triple needs nonzero coordinates")
        a, b, c = pt.coords
        if a + b + c:
            raise DomainError("abc triple must satisfy z1 + z2 + z3 = 0")
        self.point = pt

    @property
    def coords(self):
        return self.point.coords


class AbcQuality(Value):
    h: LogValue
    rad: LogValue
    quality: LogValue


def abc_quality(triple: AbcTriple) -> AbcQuality:
    """Naive height, radical and their difference for an abc triple; exact."""
    h = naive_height(triple.point)
    r = radical(triple.point)
    return AbcQuality(h, r, h - r)


# ---------------------------------------------------------------------------
# parameterized family experiment
# ---------------------------------------------------------------------------

CSV_HEADER = ["family_param", "h_crit", "n_preperiodic", "triple", "h", "rad",
              "quality", "achieved_delta", "verdicts"]


def theorem_experiment(family_text: str, param: str, values, m0: int = 1,
                       eps=Fraction(1, 2), tol: float = 1e-9):
    """Run the preperiodic/abc/equidistribution pipeline over a one-parameter family.

    Returns (rows, skips): rows follow CSV_HEADER; skips are (param, reason).
    """
    if param in ("z", "t"):
        raise DomainError("parameter name collides with a variable")
    if not param.isidentifier():
        raise DomainError(f"parameter name {param!r} is not an identifier")
    _check_m0(m0)
    rows: list[dict] = []
    skips: list[tuple[str, str]] = []
    pattern = re.compile(rf"\b{re.escape(param)}\b")
    for val in values:
        val = Fraction(val)
        text = pattern.sub(f"(({val.numerator})/({val.denominator}))", family_text)
        label = str(val)
        try:
            f = parse_poly(text, FIELD_Q)
        except DomainError as e:
            skips.append((label, f"parse failure: {e}"))
            continue
        if not f.is_monic():
            skips.append((label, "not monic"))
            continue
        if f[0] != 0 or f[1] != 0:
            skips.append((label, "no superattracting fixed point at 0"))
            continue
        try:
            if not any(p > f.degree and splitting_exponent(f, p) > 0
                       for p in candidate_bad_primes(f)):
                skips.append((label, "no bad place"))
                continue
            hc = critical_height_global(f, tol)
            preper = preperiodic_points(f)
            T = [pp.value for pp in preper]
            report = equidistribution_report(f, T, eps, m0, tol)
        except (UndeterminedError, DomainError) as e:
            skips.append((label, f"certificate failure: {e}"))
            continue
        verdicts = ";".join(f"{pr.place.label()}:{pr.verdict}" for pr in report.places)
        delta = as_json(report.achieved_delta)
        base = {
            "family_param": label,
            "h_crit": repr(hc),
            "n_preperiodic": len(preper),
            "achieved_delta": json.dumps(delta) if isinstance(delta, dict) else delta or "",
            "verdicts": verdicts,
        }
        nonzero = [pp.value for pp in preper if pp.value != 0]
        triples = []
        for p1 in nonzero:
            for p2 in nonzero:
                if p1 != p2:
                    triples.append((-p1, p2, p1 - p2))
        if not triples:
            rows.append({**base, "triple": "", "h": "", "rad": "", "quality": ""})
        for tr in triples:
            q = abc_quality(AbcTriple(tr))
            rows.append({**base,
                         "triple": "(" + ",".join(str(c) for c in tr) + ")",
                         "h": repr(q.h), "rad": repr(q.rad), "quality": repr(q.quality)})
    return rows, skips


def rows_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: r.get(k, "") for k in CSV_HEADER})
    return buf.getvalue()
