"""Non-archimedean disk geometry at a superattracting fixed point.

Everything lives in log_p units: a disk about a rational center is a
rational exponent t (radius p^t), so Type II membership is "denominator 1"
and the denominators q_i of the descending chain radii are literal
Fraction denominators.  The inner chain solves the Gauss-norm equation
sup_{|z|=p^t} |f(z)|_p = p^{max_i(i t - v_p(a_i))} exactly; wing clusters
are resolved one residue digit deep, which is exactly the resolution the
cluster relation (distance < splitting radius) requires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import (DomainError, LogValue, UndeterminedError, is_prime,
                    valuation)
from .dynamics import Poly
from .localheights import newton_polygon, splitting_exponent
from .places import FIELD_Q, Place
from .qpoly import QPoly


# ---------------------------------------------------------------------------
# descending disk chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainLevel:
    t: Fraction      # log_p radius of the level disk
    k: int           # local degree of f on it
    mass: Fraction   # equilibrium mass
    q: int           # least q with q*t an integer (radius denominator)


@dataclass(frozen=True)
class DiskChain:
    p: int
    degree: int
    g: Fraction                      # splitting exponent (log_p units)
    levels: tuple[ChainLevel, ...]   # level 1 first
    moduli: tuple[Fraction, ...]     # log_p moduli of the annuli between levels

    def modulus_bounds(self, i: int) -> tuple[Fraction, Fraction]:
        """Exact lower/upper bounds g/(d-1)^i and (d-1) g / 2^{i+1} for annulus i (1-based)."""
        d = self.degree
        return (self.g / (d - 1) ** i, Fraction(d - 1) * self.g / 2 ** (i + 1))

    def modulus_bounds_hold(self) -> bool:
        for i, m in enumerate(self.moduli, start=1):
            lo, hi = self.modulus_bounds(i)
            if not (lo <= m <= hi):
                return False
        return True


def _check_chain_preconditions(f: Poly, p: int) -> Fraction:
    if f.field != FIELD_Q:
        raise DomainError("disk chains run over Q")
    if not f.is_monic():
        raise DomainError("disk chain needs a monic polynomial")
    if f[0] != 0 or f[1] != 0:
        raise DomainError("normalize first: need a superattracting fixed point at 0")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if f.degree % p == 0:
        raise DomainError(f"no verdict at p={p} dividing d={f.degree}")
    g = splitting_exponent(f, p)
    if g <= 0:
        raise DomainError(f"p={p} is a good place; the chain needs bad reduction")
    return g


def _gauss_solve(f: Poly, p: int, target: Fraction) -> Fraction:
    """Largest t with max_{i>=1}(i t - v_p(a_i)) <= target (exact piecewise-linear solve)."""
    best = None
    for i in range(1, f.degree + 1):
        if f[i] != 0:
            cand = (target + valuation(f[i], p)) / i
            best = cand if best is None else min(best, cand)
    return best


def inner_disk_chain(f: Poly, p: int, depth: int) -> DiskChain:
    """Descending disks about 0: exact radii, local degrees, masses, denominators."""
    if depth < 1:
        raise DomainError("depth >= 1 required")
    g = _check_chain_preconditions(f, p)
    d = f.degree
    npf = newton_polygon(f, p)
    ms = npf.max_slope()
    if ms is None or ms > g:
        raise UndeterminedError("root sizes inconsistent with the splitting radius")
    ts: list[Fraction] = []
    target = g
    for _ in range(depth + 1):
        t = _gauss_solve(f, p, target)
        ts.append(t)
        target = t
    levels = []
    mass = Fraction(1)
    for i in range(depth):
        k = npf.roots_with_size_at_most(ts[i])
        mass = mass * Fraction(k, d)
        levels.append(ChainLevel(ts[i], k, mass, ts[i].denominator))
        if ts[i + 1] >= ts[i]:
            raise UndeterminedError("chain radii failed to decrease")
    moduli = tuple(ts[i] - ts[i + 1] for i in range(depth - 1))
    return DiskChain(p, d, g, tuple(levels), moduli)


def annulus_mass(chain: DiskChain, m0: int) -> Fraction:
    """Equilibrium mass of the half-open annulus between levels m0 and m0+1."""
    if m0 < 1 or m0 + 1 > len(chain.levels):
        raise DomainError("chain too shallow for the requested level")
    return chain.levels[m0 - 1].mass - chain.levels[m0].mass


class AnnulusPosition(Enum):
    INSIDE = "inside_annulus"
    DEEPER = "deeper"
    OUTSIDE_LEVEL = "outside_level"
    NOT_IN_WING = "not_in_wing"


def annulus_membership(f: Poly, p: int, z, m0: int) -> AnnulusPosition:
    """Classify z against the half-open annulus between chain levels m0 and m0+1."""
    if m0 < 1:
        raise DomainError("m0 >= 1 required")
    chain = inner_disk_chain(f, p, m0 + 1)
    return annulus_membership_in_chain(chain, z, m0)


def annulus_membership_in_chain(chain: DiskChain, z, m0: int) -> AnnulusPosition:
    z = Fraction(z)
    if z == 0:
        return AnnulusPosition.DEEPER
    dist = Fraction(-valuation(z, chain.p))
    t1 = chain.levels[0].t
    tm = chain.levels[m0 - 1].t
    tm1 = chain.levels[m0].t
    if dist > t1:
        return AnnulusPosition.NOT_IN_WING
    if dist > tm:
        return AnnulusPosition.OUTSIDE_LEVEL
    if dist > tm1:
        return AnnulusPosition.INSIDE
    return AnnulusPosition.DEEPER


# ---------------------------------------------------------------------------
# F_p polynomial helpers (for residue clustering)
# ---------------------------------------------------------------------------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out)


def _fp_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        if c:
            off = len(a) - 1 - db
            for j, y in enumerate(b):
                a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _fp_trim(a)


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim(a[:]), _fp_trim(b[:])
    while b:
        a, b = b, _fp_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _fp_div(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) - len(b) + 1)
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        out[len(a) - 1 - db] = c
        if c:
            off = len(a) - 1 - db
            for j, y in enumerate(b):
                a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _fp_trim(out)


def _fp_derivative(a: list[int], p: int) -> list[int]:
    return _fp_trim([i * c % p for i, c in enumerate(a)][1:])


def _fp_pow(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _fp_mod(a[:], mod, p)
    while e:
        if e & 1:
            result = _fp_mod(_fp_mul(result, base, p), mod, p)
        base = _fp_mod(_fp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _fp_squarefree(a: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(squarefree factor, multiplicity)] over F_p, handling p-th powers."""
    a = a[:]
    if len(a) - 1 < 1:
        return []
    inv = pow(a[-1], -1, p)
    a = [c * inv % p for c in a]
    da = _fp_derivative(a, p)
    if not da:  # a = u(w^p), a p-th power over F_p
        u = _fp_trim(a[::p])
        return [(q, m * p) for q, m in _fp_squarefree(u, p)]
    out: list[tuple[list[int], int]] = []
    g = _fp_gcd(a, da, p)
    b = _fp_div(a, g, p)
    m = 1
    while len(b) - 1 >= 1:
        c = _fp_gcd(b, g, p)
        piece = _fp_div(b, c, p)
        if len(piece) - 1 >= 1:
            out.append((piece, m))
        b = c
        g = _fp_div(g, c, p)
        m += 1
    if len(g) - 1 >= 1:  # leftover p-th power part
        u = _fp_trim(g[::p])
        out.extend((q, mm * p) for q, mm in _fp_squarefree(u, p))
    return out


def _fp_roots(a: list[int], p: int, rng_seed: int = 0x526F) -> list[int]:
    """Distinct roots in F_p of a nonzero polynomial."""
    a = _fp_trim(a[:])
    if len(a) - 1 < 1:
        return []
    # restrict to the product of the linear factors
    xq = _fp_pow([0, 1], p, a, p)  # x^p mod a
    lin = _fp_gcd(_fp_sub(xq, [0, 1], p), a, p)
    deg = len(lin) - 1
    if deg <= 0:
        return []
    if p <= 100_000:
        return [r for r in range(p) if _fp_eval(lin, r, p) == 0]
    # Cantor-Zassenhaus splitting into linear factors, deterministic seed
    rng = random.Random(rng_seed)
    out: list[int] = []
    stack = [lin]
    while stack:
        h = stack.pop()
        dh = len(h) - 1
        if dh == 0:
            continue
        if dh == 1:
            out.append((-h[0] * pow(h[1], -1, p)) % p)
            continue
        while True:
            aa = [rng.randrange(p), 1]
            t = _fp_pow(aa, (p - 1) // 2, h, p)
            t = _fp_sub(t, [1], p)
            g = _fp_gcd(t, h, p)
            if 0 < len(g) - 1 < dh:
                stack.append(g)
                stack.append(_fp_div(h, g, p))
                break
    return sorted(out)


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return _fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                     for i in range(n)])


def _fp_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _fp_distinct_degree(a: list[int], p: int) -> list[tuple[int, int]]:
    """[(e, total degree of the degree-e part)] for squarefree monic a."""
    out = []
    h = a[:]
    e = 0
    x_power = _fp_mod([0, 1], h, p)
    while len(h) - 1 >= 1:
        e += 1
        if len(h) - 1 < 2 * e:  # remainder is a single irreducible
            out.append((len(h) - 1, len(h) - 1))
            break
        x_power = _fp_pow(x_power, p, h, p)
        g = _fp_gcd(_fp_sub(x_power, [0, 1], p), h, p)
        if len(g) - 1 >= 1:
            out.append((e, len(g) - 1))
            h = _fp_div(h, g, p)
            x_power = _fp_mod(x_power, h, p)
    return out


# ---------------------------------------------------------------------------
# wing clusters
# ---------------------------------------------------------------------------

@dataclass
class WingCluster:
    center: Fraction | None     # certified rational approximation (None: extension residue)
    count: int                  # roots of f in the cluster, with multiplicity
    mass: Fraction              # count / d
    n_components: int | None    # disk components of the level-1 preimage in the cluster
    rational_roots: tuple[tuple[Fraction, int], ...]  # exact members (root, multiplicity)
    center_precision: Fraction | None = None  # |root - center|_p <= p^precision

    def to_json(self) -> dict:
        return {
            "center": str(self.center) if self.center is not None else None,
            "count": self.count,
            "mass": str(self.mass),
            "n_components": self.n_components,
        }


@dataclass
class WingClusters:
    p: int
    degree: int
    g: Fraction                       # cross-distance between clusters, log_p units
    clusters: tuple[WingCluster, ...]

    def cross_distance(self) -> LogValue:
        return LogValue.from_log(self.p, self.g)

    def masses(self) -> list[Fraction]:
        return [c.mass for c in self.clusters]

    def locate(self, f: Poly, z) -> int | None:
        """Index of the cluster whose level-1 component contains z, else None."""
        z = Fraction(z)
        fz = f(z)
        in_e1 = fz == 0 or Fraction(-valuation(fz, self.p)) <= self.g
        if not in_e1:
            return None
        for i, c in enumerate(self.clusters):
            if c.center is None:
                continue
            dlt = z - c.center
            if dlt == 0 or Fraction(-valuation(dlt, self.p)) < self.g:
                return i
        raise UndeterminedError(
            f"point {z} lies in the level-1 preimage but matches no rational-center cluster")


def _component_radius(fq: QPoly, root: Fraction, p: int, g: Fraction) -> Fraction:
    """log_p radius of the level-1 component around a root of f."""
    shifted = fq.shift(root)
    best = None
    for j in range(1, shifted.degree() + 1):
        cj = shifted[j]
        if cj != 0:
            cand = (g + valuation(cj, p)) / j
            best = cand if best is None else min(best, cand)
    return best


def _count_components(f: Poly, p: int, g: Fraction,
                      members: list[tuple[Fraction, int]]) -> int:
    fq = f.as_qpoly()
    radii = [_component_radius(fq, r, p, g) for r, _ in members]
    n = len(members)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            diff = members[i][0] - members[j][0]
            dist = Fraction(-valuation(diff, p)) if diff != 0 else None
            if dist is None or dist <= max(radii[i], radii[j]):
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    return len({find(i) for i in range(n)})


def _mod_reduce(x: Fraction, p: int) -> int:
    if valuation(x, p) < 0:
        raise ValueError("not p-integral")
    return x.numerator * pow(x.denominator, -1, p) % p


def wing_clusters(f: Poly, p: int) -> WingClusters:
    """Clusters of the level-1 preimage components, by the relation distance < g_v.

    Roots of size < p^g all fall in the cluster of the superattracting point;
    roots of size exactly p^g cluster by their first p-adic digit, read off
    the mod-p reduction of f(p^g w) (integer g), so no deep Hensel lifting is
    ever required.  Masses are exact root counts over d.
    """
    g = _check_chain_preconditions(f, p)
    d = f.degree
    fq = f.as_qpoly()
    rational = fq.rational_roots()
    small_members = [(r, m) for r, m in rational if r == 0 or Fraction(-valuation(r, p)) < g]
    big_members = [(r, m) for r, m in rational if r != 0 and Fraction(-valuation(r, p)) == g]
    oversized = [r for r, _ in rational if r != 0 and Fraction(-valuation(r, p)) > g]
    if oversized:
        raise UndeterminedError("rational root outside the splitting disk; inconsistent data")

    residual = fq.monic()
    for r, m in rational:
        residual = residual.exact_div(QPoly([-r, 1]) ** m)

    clusters: list[WingCluster] = []

    if g.denominator == 1:
        # one digit of precision: substitute w = p^g z (so the outermost roots
        # become units), reduce mod p, and read residues
        gi = int(g)
        scaled = [f[j] * Fraction(p) ** (-gi * j) for j in range(d + 1)]
        vmin = min(valuation(c, p) for c in scaled if c != 0)
        ints = [c / Fraction(p) ** vmin for c in scaled]
        hbar = _fp_trim([_mod_reduce(c, p) for c in ints])
        if len(hbar) - 1 != d:
            raise UndeterminedError("scaled reduction degenerated; root outside splitting disk")
        m0 = next(i for i, c in enumerate(hbar) if c != 0)
        small_count = m0
        rest = hbar[m0:]
        residue_counts: dict[int, int] = {}
        for r in _fp_roots(rest, p):
            if r == 0:
                continue
            mult = 0
            while _fp_eval(rest, r, p) == 0:
                rest = _fp_div(rest, [(-r) % p, 1], p)
                mult += 1
            residue_counts[r] = mult
        ext_clusters: list[tuple[int, int]] = []  # (count, residue degree)
        if len(rest) - 1 >= 1:
            for piece, mult in _fp_squarefree(rest, p):
                for e, deg_total in _fp_distinct_degree(piece, p):
                    if e == 1:
                        raise UndeterminedError("unexpected linear residue left over")
                    ext_clusters.extend((mult, e) for _ in range(deg_total))
        # assemble: the small cluster first
    else:
        # fractional g: no rational point has size p^g, so the big roots are
        # all irrational; certify that they are pairwise at distance p^g via
        # the difference polynomial, else report undetermined
        small_count = sum(m for _, m in small_members)
        npres = newton_polygon(residual, p) if residual.degree() >= 1 else None
        big_irr: list[tuple[int, int]] = []
        if npres is not None:
            small_count += npres.roots_with_size_less(g)
            seg = [(s, l) for s, l in npres.segments if s == g]
            if seg:
                total_big = seg[0][1]
                if total_big == 1:
                    big_irr.append((1, 1))
                else:
                    if _close_big_pairs(fq, p, g, small_count) > 0:
                        raise UndeterminedError(
                            "cannot certify the splitting of ramified wing roots")
                    mult_map = _segment_multiplicities(residual, p, g)
                    big_irr.extend((m, 1) for m in mult_map)
        clusters = _assemble_fractional(f, p, g, small_members, small_count, big_irr, d)
        total = sum(c.count for c in clusters)
        if total != d:
            raise UndeterminedError("cluster masses fail to account for every preimage")
        return WingClusters(p, d, g, tuple(clusters))

    # integer-g assembly
    small_rat = sum(m for _, m in small_members)
    n_comp_small = _count_components(f, p, g, small_members) if small_rat == small_count else None
    clusters.append(WingCluster(Fraction(0), small_count, Fraction(small_count, d),
                                n_comp_small, tuple(small_members)))
    gi = int(g)
    for r, cnt in sorted(residue_counts.items()):
        members = [(root, m) for root, m in big_members
                   if _mod_reduce(root * Fraction(p) ** gi, p) == r]
        rat_cnt = sum(m for _, m in members)
        if members:
            center = members[0][0]
            precision = None
        else:
            center = Fraction(r) / Fraction(p) ** gi
            precision = g - 1
        n_comp = _count_components(f, p, g, members) if rat_cnt == cnt else (1 if cnt == 1 else None)
        clusters.append(WingCluster(center, cnt, Fraction(cnt, d), n_comp,
                                    tuple(members), precision))
    for cnt, e in ext_clusters:
        clusters.append(WingCluster(None, cnt, Fraction(cnt, d),
                                    1 if cnt == 1 else None, ()))
    total = sum(c.count for c in clusters)
    if total != d:
        raise UndeterminedError("cluster masses fail to account for every preimage")
    if len(clusters) < 2:
        raise UndeterminedError("bad place produced a single cluster; inconsistent data")
    return WingClusters(p, d, g, tuple(clusters))


def _difference_poly(fq: QPoly) -> QPoly:
    """Monic prod_{i,j} (x - (a_i - a_j)) over the roots of fq, whose power sums are
    sum_l C(k,l) (-1)^(k-l) s_l s_(k-l) for the power sums s_l of those roots."""
    n = fq.degree() ** 2
    s = fq.power_sums(n)
    return QPoly.from_power_sums([
        sum((math.comb(k, l) * (-1) ** (k - l) * s[l] * s[k - l] for l in range(k + 1)),
            Fraction(0))
        for k in range(n + 1)])


def _close_big_pairs(fq: QPoly, p: int, g: Fraction, small_count: int) -> int:
    """Number of ordered pairs of distinct roots at distance < p^g beyond the small block.

    Reads the multiset of pairwise root differences off the difference
    polynomial; differences within the small block account for
    small_count*(small_count-1) of the sub-p^g entries, the rest are
    uncertifiable proximities among the outer roots.
    """
    d = fq.degree()
    diff_poly = _difference_poly(fq)
    # split off x^ord0: the i = j pairs (and coincident-root pairs)
    ord0 = 0
    cs = list(diff_poly.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        ord0 += 1
    reduced = QPoly(cs)
    below = ord0 - d
    if reduced.degree() >= 1:
        below += newton_polygon(reduced, p).roots_with_size_less(g)
    small_pairs = small_count * (small_count - 1)
    return max(0, below - small_pairs)


def _segment_multiplicities(residual: QPoly, p: int, g: Fraction) -> list[int]:
    """Multiplicities of the size-p^g roots, via the squarefree decomposition."""
    out: list[int] = []
    for piece, mult in residual.squarefree_decomposition():
        npp = newton_polygon(piece, p)
        for s, l in npp.segments:
            if s == g:
                out.extend([mult] * l)
    return out


def _assemble_fractional(f, p, g, small_members, small_count, big_irr, d):
    clusters = [WingCluster(Fraction(0), small_count, Fraction(small_count, d),
                            None if small_count != sum(m for _, m in small_members)
                            else _count_components(f, p, g, small_members),
                            tuple(small_members))]
    for cnt, _e in big_irr:
        clusters.append(WingCluster(None, cnt, Fraction(cnt, d),
                                    1 if cnt == 1 else None, ()))
    return clusters


# ---------------------------------------------------------------------------
# Hsia energies
# ---------------------------------------------------------------------------

def hsia_energy(points, v) -> LogValue:
    """Normalized pairwise log-distance energy at a finite place.

    (1/(n(n-1))) * sum over ordered distinct pairs of log|z_i - z_j|_v.
    """
    if isinstance(v, int):
        v = Place.finite(v)
    if not v.is_finite() or v.kind != Place.FINITE:
        raise DomainError("Hsia energy needs a finite place of Q")
    pts = [Fraction(z) for z in points]
    n = len(pts)
    if n < 2:
        raise DomainError("need at least two points")
    if len(set(pts)) != n:
        raise DomainError("points must be pairwise distinct")
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            if i != j:
                total += -valuation(pts[i] - pts[j], v.p)
    return LogValue.from_log(v.p, total / (n * (n - 1)))
