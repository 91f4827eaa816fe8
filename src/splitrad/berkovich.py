"""Non-archimedean disk geometry at a superattracting fixed point.

Everything lives in log_p units: a disk about a rational center is a
rational exponent t (radius p^t), so Type II membership is "denominator 1"
and the denominators q_i of the descending chain radii are literal
Fraction denominators.  The inner chain solves the Gauss-norm equation
sup_{|z|=p^t} |f(z)|_p = p^{max_i(i t - v_p(a_i))} exactly on the vertices
of the Newton polygon (NewtonPolygon.solve); wing clusters are resolved
one residue digit deep, which is exactly the resolution the cluster
relation (distance < splitting radius) requires.

Three facts keep the wing clusters to one assembly.  The Newton polygon of
f counts the roots below and at size p^g.  For fractional g = u/e the roots
of size p^g lie pairwise at distance exactly p^g, and so are simple, exactly
when p does not divide e and Ore's residual polynomial of the slope-g side
is squarefree over F_p: one gcd of degree at most d/e.  For integer g the
squarefree decomposition mod p orders its pieces by multiplicity alone, so
reading residue and extension clusters piece by piece keeps their order.
Roots mod p come from Cantor-Zassenhaus (Math. Comp. 36, 1981) for every p.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .exact import DomainError, Frozen, LogValue, UndeterminedError, Value, is_prime, valuation
from .dynamics import Poly, newton_polygon
from .localheights import splitting_exponent
from .places import FIELD_Q, Place
from .qpoly import _fp_roots, _fp_squarefree, _mod_reduce, poly_derivative, poly_gcd, poly_trim


# ---------------------------------------------------------------------------
# descending disk chain
# ---------------------------------------------------------------------------

class ChainLevel(Frozen):
    t: Fraction      # log_p radius of the level disk
    k: int           # local degree of f on it
    mass: Fraction   # equilibrium mass
    q: int           # least q with q*t an integer (radius denominator)


class DiskChain(Frozen):
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


# Deepest chain inner_disk_chain builds.  The exact radii grow with the level,
# so a chain's printed size grows with the square of its depth: `disk-chain`
# on z^3 + z^2/5 at 5 prints 1.0 MB in 0.21 s at depth 1000 and 15.9 MB in
# 0.85 s at depth 4000.  The CLI checks depth and m0 + 1 against it up front.
_MAX_CHAIN_DEPTH = 1000


def inner_disk_chain(f: Poly, p: int, depth: int) -> DiskChain:
    """Descending disks about 0: exact radii, local degrees, masses, denominators."""
    if depth < 1:
        raise DomainError("depth >= 1 required")
    if depth > _MAX_CHAIN_DEPTH:
        raise DomainError(f"chain depth {depth} is above the cap of {_MAX_CHAIN_DEPTH}")
    g = _check_chain_preconditions(f, p)
    d = f.degree
    npf = newton_polygon(f, p)
    ms = npf.max_slope()
    if ms is None or ms > g:
        raise UndeterminedError("root sizes inconsistent with the splitting radius")
    ts: list[Fraction] = []
    target = g
    for _ in range(depth + 1):
        t = npf.solve(target)
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
# wing clusters
# ---------------------------------------------------------------------------

class WingCluster(Value):
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


class WingClusters(Value):
    p: int
    degree: int
    g: Fraction                       # cross-distance between clusters, log_p units
    clusters: tuple[WingCluster, ...]

    def cross_distance(self) -> LogValue:
        return LogValue.from_log(self.p, self.g)

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


def _count_components(f: Poly, p: int, g: Fraction,
                      members: list[tuple[Fraction, int]]) -> int:
    fq = f.as_qpoly()
    # log_p radius of the level-1 component around each root: the Gauss-norm
    # solve on the Taylor coefficients of f at the root, whose constant term f(r) is 0
    radii = [newton_polygon(fq.shift(r), p).solve(g) for r, _ in members]
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


def _side_roots_apart(side: tuple[Fraction, ...], p: int, g: Fraction) -> bool:
    """Whether the roots on the slope-g side of a Newton polygon lie pairwise at distance p^g.

    side holds the coefficients a_i0, ..., a_i1 of that side, and g = u/e in
    lowest terms.  A root of size p^g has a leading term c*pi^(-u) with
    pi^e = p, and c^e is a root of the residual polynomial
    R(y) = sum_j red(a_(i0+je) / p^(v(a_i0)+ju)) y^j over F_p; a root of R of
    multiplicity m carries m*e of the roots (O. Ore, 1928; J. Guardia,
    J. Montes and E. Nart, Trans. AMS 364, 2012).
    - If p does not divide e and R is squarefree, the e roots over each root
      of R have distinct leading terms, the e distinct e-th roots of a nonzero
      residue, so every pair is at distance exactly p^g.
    - Otherwise some root of R carries m*e roots but has fewer than m*e e-th
      roots in the residue field: a repeated root has m >= 2, and p | e
      leaves at most e/p of them.  By pigeonhole two roots share a leading
      term, so they lie closer than p^g.
    """
    u, e = g.numerator, g.denominator
    if e % p == 0:
        return False
    v0 = valuation(side[0], p)
    r = [_mod_reduce(side[j * e] / Fraction(p) ** (v0 + j * u), p)
         for j in range((len(side) - 1) // e + 1)]
    return poly_gcd(r, poly_derivative(r, p), p) == [1]


def wing_clusters(f: Poly, p: int) -> WingClusters:
    """Clusters of the level-1 preimage components, by the relation distance < g_v.

    Roots of size < p^g all fall in the cluster of the superattracting point.
    Roots of size exactly p^g cluster by their first p-adic digit:
    - integer g: read off the mod-p reduction of f(p^g w) with its small-root
      part w^m0 removed.  One squarefree pass splits the rest into pieces of
      one multiplicity each; a piece's F_p roots are residue clusters and its
      other roots (extension residues) are centre-less clusters, each holding
      that multiplicity.  Residue clusters come sorted by residue, centre-less
      ones in the order of the pieces, which depends on multiplicity alone.
    - fractional g: the Newton polygon of f counts the small roots and the
      size-p^g roots, which are all irrational.  Once the residual
      polynomial of the slope-g side shows them pairwise at distance exactly
      p^g (_side_roots_apart), none is repeated, so each is its own cluster.
    No deep Hensel lifting is ever required.  Masses are exact root counts over d.
    """
    g = _check_chain_preconditions(f, p)
    d = f.degree
    fq = f.as_qpoly()
    rational = fq.rational_roots()
    if any(r != 0 and Fraction(-valuation(r, p)) > g for r, _ in rational):
        raise UndeterminedError("rational root outside the splitting disk; inconsistent data")
    small_members = [(r, m) for r, m in rational if r == 0 or Fraction(-valuation(r, p)) < g]
    big_members = [(r, m) for r, m in rational if r != 0 and Fraction(-valuation(r, p)) == g]
    residues: list[tuple[int, int]] = []  # (F_p residue of p^g * root, count)
    outer: list[int] = []                 # counts of the centre-less clusters
    npf = newton_polygon(f, p)

    if g.denominator == 1:
        # one digit of precision: substitute w = p^g z (so the outermost roots
        # become units), divide by the Gauss norm at |z| = p^g, reduce mod p,
        # and read residues
        scaled = [f[j] * Fraction(p) ** (-int(g) * j) for j in range(d + 1)]
        vmin = -npf.gauss(g)  # min_j v_p(scaled_j)
        hbar = poly_trim([_mod_reduce(c / Fraction(p) ** vmin, p) for c in scaled])
        if len(hbar) - 1 != d:
            raise UndeterminedError("scaled reduction degenerated; root outside splitting disk")
        small_count = next(i for i, c in enumerate(hbar) if c != 0)
        for piece, mult in _fp_squarefree(hbar[small_count:], p):
            roots = _fp_roots(piece, p)
            residues.extend((r, mult) for r in roots)
            outer.extend([mult] * (len(piece) - 1 - len(roots)))
        residues.sort()
    else:
        small_count = npf.roots_with_size_less(g)
        outer = [1] * sum(length for slope, length in npf.segments if slope == g)
        if not _side_roots_apart(fq.coeffs[small_count:small_count + len(outer) + 1], p, g):
            raise UndeterminedError("cannot certify the splitting of ramified wing roots")

    small_rat = sum(m for _, m in small_members)
    n_comp_small = _count_components(f, p, g, small_members) if small_rat == small_count else None
    clusters = [WingCluster(Fraction(0), small_count, Fraction(small_count, d),
                            n_comp_small, tuple(small_members))]
    for r, cnt in residues:
        members = [(root, m) for root, m in big_members
                   if _mod_reduce(root * Fraction(p) ** g, p) == r]
        rat_cnt = sum(m for _, m in members)
        if members:
            center = members[0][0]
            precision = None
        else:
            center = Fraction(r) / Fraction(p) ** g
            precision = g - 1
        n_comp = _count_components(f, p, g, members) if rat_cnt == cnt else (1 if cnt == 1 else None)
        clusters.append(WingCluster(center, cnt, Fraction(cnt, d), n_comp,
                                    tuple(members), precision))
    for cnt in outer:
        clusters.append(WingCluster(None, cnt, Fraction(cnt, d), 1 if cnt == 1 else None, ()))
    if sum(c.count for c in clusters) != d:
        raise UndeterminedError("cluster masses fail to account for every preimage")
    if len(clusters) < 2:
        raise UndeterminedError("bad place produced a single cluster; inconsistent data")
    return WingClusters(p, d, g, tuple(clusters))


# ---------------------------------------------------------------------------
# Hsia energies
# ---------------------------------------------------------------------------

def hsia_energy(points, v) -> LogValue:
    """Normalized pairwise log-distance energy at a finite place.

    (1/(n(n-1))) * sum over ordered distinct pairs of log|z_i - z_j|_v.
    """
    if isinstance(v, int):
        v = Place.finite(v)
    if v.kind != Place.FINITE:
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
